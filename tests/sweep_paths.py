"""Per-path timings of ``evaluate_all`` over the bench ``sweep`` inputs.

Usage (from the root of a checkout)::

    python3 tests/sweep_paths.py [--seed 0] [--passes 20]

Each pass clears the switching-class memo and calls ``evaluate_all`` on
every graph of one bench ``sweep`` pass (``sweep_inputs`` of
``bench/worker.py``, read only), in order, timing each call with no tracer.
A call takes one of three paths:

* ``known class``: the memo holds the signing's switching class;
* ``new class``: the memo holds its underlying graph but not its class;
* ``new underlying``: the memo holds neither.

The script prints the count of each path per pass and the median
microseconds of its calls over every pass but the first, which pays the
process's cold costs.  It runs with one BLAS thread unless
``OPENBLAS_NUM_THREADS`` is set.  Pytest does not collect it: its name does
not match ``test_*.py``.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy is imported

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from worker import sweep_inputs  # noqa: E402

from signed_spectra import SignedGraph  # noqa: E402
from signed_spectra.bounds import _class_key, _underlying, evaluate_all  # noqa: E402
from signed_spectra.switching import propagation_labels  # noqa: E402

PATHS = ("known class", "new class", "new underlying")


def classify(inputs: list) -> list[str]:
    """The path each graph of one pass takes, from the memo's rules: one
    underlying graph at a time, and its classes keyed by their canonical
    signing.  The sweep meets far fewer classes per underlying graph than
    the memo's budget, so no class is dropped."""
    paths, underlying, classes = [], None, set()
    for n, edges in inputs:
        g = SignedGraph.from_edges(n, edges)  # a copy: the timed graph builds its own lookups
        key = _class_key(g, propagation_labels(g, full=True)[0])
        if (n, g.underlying_pairs) != underlying:
            underlying, classes = (n, g.underlying_pairs), set()
            paths.append("new underlying")
        else:
            paths.append("known class" if key in classes else "new class")
        classes.add(key)
    return paths


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--passes", type=int, default=20)
    args = parser.parse_args(argv)
    inputs = sweep_inputs(args.seed)
    paths = classify(inputs)
    times: dict[str, list[float]] = {path: [] for path in PATHS}
    clock = time.perf_counter
    for i in range(args.passes):
        graphs = [SignedGraph.from_edges(n, edges) for n, edges in inputs]
        _underlying.cache_clear()
        for g, path in zip(graphs, paths):
            start = clock()
            evaluate_all(g)
            elapsed = clock() - start
            if i:
                times[path].append(elapsed)
    print(f"seed {args.seed}, {len(inputs)} graphs a pass, {args.passes} passes, "
          f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")
    for path in PATHS:
        median = statistics.median(times[path]) * 1e6 if times[path] else float("nan")
        print(f"  {path:15} {paths.count(path):4d} a pass   median {median:8.1f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
