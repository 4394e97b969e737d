"""The benchmark's cold-cache check, ``bench/worker.py``'s ``warm_caches``,
still sees the shared memo: a pass refuses to time on warm caches, so a
memo it cannot see would let warm passes through unnoticed."""

from __future__ import annotations

import sys
from pathlib import Path

from signed_spectra import evaluate_all, paper_c5

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _clear(modules) -> None:
    for mod in modules.values():
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def test_warm_caches_names_the_memo(monkeypatch):
    monkeypatch.setattr(sys, "path", [str(BENCH), *sys.path])
    import worker

    modules = worker.import_package()
    _clear(modules)
    assert worker.warm_caches(modules) == []
    evaluate_all(paper_c5())
    assert "bounds._underlying" in worker.warm_caches(modules)
    _clear(modules)
    assert worker.warm_caches(modules) == []
