"""Per-call timings of the ten CLI calls of one bench ``cli_exact`` pass.

Usage (from the root of a checkout)::

    python3 tests/cli_calls.py [--seed 0] [--passes 20] [--src DIR]

The bench ``cli_exact`` workload writes five seeded ``.sg`` files
(``cli_inputs`` of ``bench/worker.py``, read only) and calls
``run_cli(["bounds", f, "--json"])`` then ``run_cli(["invariants", f])``
on each, in one process; the bench reports only their total.  This script
makes the same files in a temporary directory and times each call in
turn, with no tracer and with standard output and error captured.  Before
each pass it clears every package cache that has ``cache_clear`` (the
switching-class memo among them), so each pass meets the caches as a
fresh bench worker does.

For each call it prints the median microseconds over every pass but the
first, which pays the process's cold costs, and the quartiles of the same
per-pass times; then the same three figures for the per-pass totals.  The
quartiles are the spread that a change to a call must clear before two
runs can tell it apart.  A call that does not exit 0 stops the script.  It
runs with one BLAS thread unless ``OPENBLAS_NUM_THREADS`` is set.  Pytest
does not collect it, as its name does not match ``test_*.py``;
``test_cli_calls.py`` runs it on two passes.

``--src DIR`` imports the package from DIR, by default this checkout's
``src/``.  Pointed at the ``src/`` of another checkout (a copy of the
parent commit, say), it times that tree on this checkout's inputs, so runs
of the two trees taken in turn give per-call medians that alternating runs
can compare.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy is imported

import argparse
import contextlib
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from worker import cli_inputs, sg_text  # noqa: E402


def import_package(src: Path):
    """``signed_spectra`` imported from the directory ``src``.  A process
    holds one copy of the package, so one already imported from elsewhere
    is refused."""
    sys.path.insert(0, str(src))
    import signed_spectra.cli

    found = Path(signed_spectra.__file__).resolve().parent.parent
    if found != src.resolve():
        raise SystemExit(f"signed_spectra is already imported from {found}, not from {src}")
    return signed_spectra


def clear_caches(package) -> None:
    """Empty every module-level cache of the package that has ``cache_clear``."""
    for name, module in list(sys.modules.items()):
        if name.startswith(package.__name__ + "."):
            for obj in list(vars(module).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def run_pass(package, calls: list[list[str]]) -> list[float]:
    """Clear the caches and run each argv of ``calls`` in order through
    ``run_cli``; the seconds of each call."""
    run_cli = package.cli.run_cli
    clear_caches(package)
    clock = time.perf_counter
    times = []
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = clock()
            code = run_cli(argv)
            elapsed = clock() - start
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}: {err.getvalue().strip()}")
        times.append(elapsed)
    return times


def _quartiles(values: list[float]) -> tuple[float, float]:
    """The first and third quartiles of values, inclusive of their range."""
    if len(values) < 2:
        return (values[0],) * 2 if values else (float("nan"),) * 2
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _line(label: str, seconds: list[float]) -> str:
    us = [t * 1e6 for t in seconds]
    median = statistics.median(us) if us else float("nan")
    q1, q3 = _quartiles(us)
    return f"  {label:18} median {median:9.1f} us   pass q1 {q1:9.1f} q3 {q3:9.1f} us"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--passes", type=int, default=20)
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the directory to import the package from")
    args = parser.parse_args(argv)
    package = import_package(args.src)
    with tempfile.TemporaryDirectory() as workdir:
        calls, labels = [], []
        for n, edges in cli_inputs(args.seed):
            path = Path(workdir) / f"g{n}.sg"
            path.write_text(sg_text(n, edges), encoding="utf-8")
            calls += [["bounds", str(path), "--json"], ["invariants", str(path)]]
            labels += [f"bounds n={n}", f"invariants n={n}"]
        passes = [run_pass(package, calls) for _ in range(args.passes)][1:]
    print(f"seed {args.seed}, {len(calls)} calls a pass, {args.passes} passes, "
          f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}, src {args.src}")
    for i, label in enumerate(labels):
        print(_line(label, [times[i] for times in passes]))
    print(_line("pass total", [sum(times) for times in passes]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
