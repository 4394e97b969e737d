"""Replay of recorded ``evaluate_all`` rows, every field to the last bit.

One memoised pass of ``evaluate_all`` runs over every signing of the sweep
strata of seeds 0..3 (``test_bounds._sweep_strata``) and then 200 seeded
random graphs with n <= 10, in that order and from a cleared memo, so
later signings of a class read the rows the memo kept.  Each graph's rows
reduce to one digest of every field, floats as hex.  This pins the bits of
the library's results, where ``bench/reference.json`` and the CLI
transcript pin only verdicts, integers and 12 printed digits.

A change that moves a row's bits on purpose re-records the digests with

    python tests/test_golden_rows.py --record

and says which rows changed and why.  They are recorded on a checkout of
the parent commit, so they pin the behaviour from before the change that
adds them.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

if __name__ == "__main__":  # run as a script from a checkout
    ROOT = Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from signed_spectra import evaluate_all  # noqa: E402
from signed_spectra.bounds import _underlying  # noqa: E402
from tests.conftest import random_graphs  # noqa: E402
from tests.test_bounds import _sweep_strata  # noqa: E402

GOLDEN = Path(__file__).with_name("data") / "evaluate_all_rows.json"


def _corpus() -> list:
    graphs = [g for seed in range(4) for g in _sweep_strata(seed)]
    return graphs + random_graphs(200, max_n=10, seed=211)


def _digest(evals) -> str:
    h = hashlib.sha256()
    for ev in evals:
        fields = (
            ev.bound_id, ev.hypothesis_met, ev.lhs.hex(), ev.rhs.hex(), ev.slack.hex(),
            ev.verdict, ev.tolerance.hex(), sorted(ev.params.items()), ev.note,
        )
        h.update(repr(fields).encode())
    return h.hexdigest()[:16]


def _digests() -> list[str]:
    """The digests of one memoised pass over the corpus, with the guards at
    their defaults."""
    saved = os.environ.pop("SIGNED_SPECTRA_MAX_N", None)
    try:
        _underlying.cache_clear()
        return [_digest(evaluate_all(g)) for g in _corpus()]
    finally:
        _underlying.cache_clear()
        if saved is not None:
            os.environ["SIGNED_SPECTRA_MAX_N"] = saved


def test_rows_match_the_recorded_digests():
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    graphs = _corpus()
    assert recorded["graphs"] == len(graphs)
    mismatched = [(i, graphs[i].to_sg()) for i, (a, b) in enumerate(zip(_digests(), recorded["digests"])) if a != b]
    assert mismatched == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden_rows.py --record")
    digests = _digests()
    GOLDEN.parent.mkdir(exist_ok=True)
    text = json.dumps({"graphs": len(digests), "digests": digests}, indent=0)
    GOLDEN.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
