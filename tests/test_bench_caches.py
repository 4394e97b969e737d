"""The benchmark's cold-cache check, ``bench/worker.py``'s ``warm_caches``,
still sees the shared memo: a pass refuses to time on warm caches, so a
memo it cannot see would let warm passes through unnoticed.  The check
calls ``cache_info()`` on every attribute of a layer module that has one,
so a class with that attribute there would make every pass fail before
timing."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from signed_spectra import evaluate_all, paper_c5

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def worker(monkeypatch):
    monkeypatch.setattr(sys, "path", [str(BENCH), *sys.path])
    import worker

    return worker


def _clear(modules) -> None:
    for mod in modules.values():
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def test_no_layer_module_holds_a_class_with_cache_info(worker):
    modules = worker.import_package()
    assert set(modules) == set(worker.LAYERS)
    found = [f"{layer}.{attr}" for layer, mod in modules.items()
             for attr, obj in vars(mod).items() if isinstance(obj, type) and hasattr(obj, "cache_info")]
    assert found == []


def test_warm_caches_names_the_memo(worker):
    modules = worker.import_package()
    _clear(modules)
    assert worker.warm_caches(modules) == []
    evaluate_all(paper_c5())
    assert "bounds._underlying" in worker.warm_caches(modules)
    modules["bounds"]._underlying.cache_clear()
    assert "bounds._underlying" not in worker.warm_caches(modules)
    _clear(modules)
    assert worker.warm_caches(modules) == []
