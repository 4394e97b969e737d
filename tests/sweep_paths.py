"""Per-path timings of ``evaluate_all`` over the bench ``sweep`` inputs.

Usage (from the root of a checkout)::

    python3 tests/sweep_paths.py [--seed 0] [--passes 20] [--src DIR]

Each pass clears the switching-class memo and calls ``evaluate_all`` on
every graph of one bench ``sweep`` pass (``sweep_inputs`` of
``bench/worker.py``, read only), in order, timing each call with no tracer.
A call takes one of three paths, read from the memo after the call:

* ``new underlying``: the call made the record of its underlying graph
  (a step in ``_underlying.cache_info().misses``);
* ``new class``: the record was kept already, and the call added a class
  to it;
* ``known class``: neither.

The script prints the count of each path per pass and the median
microseconds of its calls over every pass but the first, which pays the
process's cold costs.  Next to that median it prints the quartiles of the
per-pass medians over the same passes, the spread that a change to a path
must clear before two runs can tell it apart.  It runs with one BLAS
thread unless ``OPENBLAS_NUM_THREADS`` is set.  Pytest does not collect
it, as its name does not match ``test_*.py``; ``test_sweep_paths.py``
runs it on two passes and checks each path's count.

``--src DIR`` imports the package from DIR, by default this checkout's
``src/``.  Pointed at the ``src/`` of another checkout (a ``git worktree``
of the parent commit, say), it times that tree on this checkout's inputs,
so runs of the two trees taken in turn give per-path medians that
alternating runs can compare.
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
sys.path.insert(0, str(ROOT / "bench"))

from worker import sweep_inputs  # noqa: E402

PATHS = ("known class", "new class", "new underlying")


def import_package(src: Path):
    """``signed_spectra`` imported from the directory ``src``.  A process
    holds one copy of the package, so one already imported from elsewhere
    is refused."""
    sys.path.insert(0, str(src))
    import signed_spectra.bounds

    found = Path(signed_spectra.__file__).resolve().parent.parent
    if found != src.resolve():
        raise SystemExit(f"signed_spectra is already imported from {found}, not from {src}")
    return signed_spectra


def run_pass(bounds, graphs: list) -> list[tuple[str, float]]:
    """Clear the memo of the module ``bounds`` and call its ``evaluate_all``
    on each graph in order; the path and the seconds of each call."""
    _underlying, evaluate_all = bounds._underlying, bounds.evaluate_all
    _underlying.cache_clear()
    out, sizes = [], {}  # sizes: the class count of each record after its last call
    clock = time.perf_counter
    for g in graphs:
        misses = _underlying.cache_info().misses
        start = clock()
        evaluate_all(g)
        elapsed = clock() - start
        made = _underlying.cache_info().misses != misses
        record = _underlying(g.n, g.underlying_pairs)  # the record the call used
        if made:
            path = "new underlying"
        else:
            path = "new class" if len(record.classes) != sizes[record] else "known class"
        sizes[record] = len(record.classes)
        out.append((path, elapsed))
    return out


def _quartiles(values: list[float]) -> tuple[float, float]:
    """The first and third quartiles of values, inclusive of their range."""
    if len(values) < 2:
        return (values[0],) * 2 if values else (float("nan"),) * 2
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--passes", type=int, default=20)
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the directory to import the package from")
    args = parser.parse_args(argv)
    package = import_package(args.src)
    inputs = sweep_inputs(args.seed)
    times: dict[str, list[list[float]]] = {path: [] for path in PATHS}  # per pass
    calls: list[tuple[str, float]] = []
    for i in range(args.passes):
        calls = run_pass(package.bounds, [package.SignedGraph.from_edges(n, edges) for n, edges in inputs])
        if i:
            for path in PATHS:
                times[path].append([elapsed for taken, elapsed in calls if taken == path])
    paths = [path for path, _ in calls]
    print(f"seed {args.seed}, {len(inputs)} graphs a pass, {args.passes} passes, "
          f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}, src {args.src}")
    for path in PATHS:
        every = [elapsed * 1e6 for one_pass in times[path] for elapsed in one_pass]
        medians = [statistics.median(one_pass) * 1e6 for one_pass in times[path] if one_pass]
        median = statistics.median(every) if every else float("nan")
        q1, q3 = _quartiles(medians)
        print(f"  {path:15} {paths.count(path):4d} a pass   median {median:8.1f} us"
              f"   pass medians q1 {q1:8.1f} q3 {q3:8.1f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
