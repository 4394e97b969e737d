#!/usr/bin/env python3
"""Cold-process benchmark of the signed_spectra toolkit.

Usage (from the root of a checkout)::

    python3 bench/run.py                      # all workloads, untraced
    python3 bench/run.py --workload sweep --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload search --trace 1   # per-layer numbers

Each workload runs as a series of passes, each in a fresh worker process
(``worker.py``) so the package's caches start cold, until ``--seconds`` have
passed.  Every output is checked; a wrong output counts as a failed
operation.  ``--trace 1`` adds traced passes after the untraced ones and
reports per-layer numbers from them.  See ``README.md`` for the workloads and
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from yardstick import NOMINAL_BURST_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"

WORKLOADS = ("sweep", "cli_exact", "search")
LAYERS = ("cli", "search", "bounds", "spectral", "invariants", "switching", "graph")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKER_TIMEOUT_S = 120
# Per traced pass, the per-layer self times must add up to the pass's wall
# time within this share; the gap is the benchmark's own loop between calls.
SELF_SUM_SLACK = 0.02

# Named entry points with the per-layer numbers reported for them.
NAMED_SPANS = {
    "spectral.eigen_decomposition": ("self_s", "calls", "calls_per_graph"),
    "spectral.ms_index_search": ("self_s", "calls"),
    "invariants.frustration_index_exact": ("self_s", "calls"),
    "invariants.r_frustration_index": ("self_s", "calls"),
    "invariants.edge_bipartiteness": ("self_s",),
    "invariants._max_balanced_clique": ("self_s", "calls", "calls_per_graph"),
    "invariants.walk_census": ("self_s",),
    "switching.is_switching_equivalent": ("self_s", "calls"),
    "search.search_counterexamples": ("self_s",),
    "graph.parse_signed_graph": ("self_s",),
    "graph.adjacency_matrix": ("self_s",),
    "bounds.evaluations_to_json": ("self_s",),
}
# Unit of a per-layer metric, by the last part of its name.
UNITS = {"self_s": "s", "calls": "count", "calls_per_graph": "ratio",
         "switchings_enumerated": "count", "overhead_frac": "ratio"}


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def environment() -> dict:
    """What a result depends on besides the code: interpreter, machine, tree."""
    src_files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src_files:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = out.stdout.strip() or commit
        except OSError:  # no git on this machine
            pass
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "worker_thread_vars": {var: "1" for var in THREAD_VARS},
        "fresh_process_per_pass": True,
    }


def run_worker(spec: dict) -> dict:
    """One pass in a new interpreter; a crash comes back as ``{"error": ...}``."""
    spec = dict(spec, started_at=time.monotonic())
    try:
        out = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(spec)], cwd=ROOT, env=worker_env(),
            capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"worker exceeded {WORKER_TIMEOUT_S} s"}
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        tail = out.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"worker exited {out.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


def run_passes(spec: dict, seconds: float) -> list[dict]:
    """Fresh-worker passes until ``seconds`` have elapsed (at least one)."""
    passes, start = [], time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        passes.append(run_worker(spec))
    return passes


def end_to_end(plain: list[dict]) -> dict:
    """Untraced numbers over the passes that completed, in reference seconds.

    A time measured in a pass is scaled by ``NOMINAL_BURST_S`` over the
    mean time of that pass's bursts of the reference kernel
    (``yardstick.py``), so that a machine slowed by other tenants does not
    read as a slower program.  The pass time is the sum over passes of the
    timed calls over the sum of the passes' mean bursts; set-up time is the
    median over passes of its scaled value.  Per-call percentiles are taken
    over each call's median over the passes.
    """
    work_s = [sum(p["op_times"]) for p in plain]
    burst_s = [p["burst_s"] for p in plain]
    scale = NOMINAL_BURST_S * len(plain) / sum(burst_s)  # raw seconds -> reference seconds
    pass_s = sum(work_s) / sum(burst_s) * NOMINAL_BURST_S
    call_s = [statistics.median(times) * scale for times in zip(*(p["op_times"] for p in plain))]
    return {
        "ops_per_s": plain[0]["ops"] / pass_s,
        "pass_wall_s": pass_s,
        "setup_s": statistics.median(p["setup_s"] / p["burst_s"] * NOMINAL_BURST_S for p in plain),
        "call_p50_ms": statistics.median(call_s) * 1e3,
        "call_p90_ms": statistics.quantiles(call_s, n=10)[8] * 1e3 if len(call_s) >= 100 else None,
        "calls_per_pass": len(call_s),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "raw_ops_per_s": plain[0]["ops"] * len(plain) / sum(work_s),
        "raw_setup_s": statistics.median(p["setup_s"] for p in plain),
        "burst_ms": statistics.median(burst_s) * 1e3,
        "bursts_per_pass": statistics.median(p["bursts"] for p in plain),
    }


def per_layer(traced: list[dict], plain: list[dict]) -> tuple[dict, list[str]]:
    """Per-pass means over the traced passes, and the self-sum check."""
    def mean(values) -> float:
        return sum(values) / len(traced)

    metrics, problems = {}, []
    for layer in LAYERS:
        for key, field in (("calls", 0), ("self_s", 1)):
            metrics[f"{layer}.{key}"] = mean(
                p["trace"]["by_layer"].get(layer, [0, 0.0])[field] for p in traced
            )
    for name, keys in NAMED_SPANS.items():
        calls = [p["trace"]["by_name"].get(name, [0, 0.0])[0] for p in traced]
        values = {
            "self_s": mean(p["trace"]["by_name"].get(name, [0, 0.0])[1] for p in traced),
            "calls": mean(calls),
            "calls_per_graph": mean(c / p["ops"] for c, p in zip(calls, traced)),
        }
        metrics.update({f"{name}.{key}": values[key] for key in keys})
    metrics["invariants.switchings_enumerated"] = mean(p["trace"]["switchings"] for p in traced)
    metrics["trace.overhead_frac"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in plain) - 1.0
    )
    for p in traced:
        self_sum = sum(s for _, s in p["trace"]["by_layer"].values())
        if abs(self_sum - p["wall_s"]) > SELF_SUM_SLACK * p["wall_s"]:
            problems.append(
                f"layer self times add up to {self_sum:.4f} s, pass wall {p['wall_s']:.4f} s"
            )
    return metrics, problems


def run_workload(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    spec = {"workload": workload, "seed": seed, "trace": False, "workdir": str(workdir)}
    passes = run_passes(spec, seconds)
    if trace:  # per-layer numbers have no bound, so a third of the time will do
        passes += run_passes(dict(spec, trace=True), seconds / 3)
    done = [p for p in passes if "error" not in p]
    plain = [p for p in done if not p["traced"]]
    traced = [p for p in done if p["traced"]]
    problems = [p["error"] for p in passes if "error" in p]
    problems += sorted({f for p in done for f in p["failures"]})
    if len({p["digest"] for p in done}) > 1:
        problems.append("passes disagree on their outputs (traced vs untraced or run to run)")
    ops = done[0]["ops"] if done else 1
    attempted = sum(p["ops"] for p in done) + ops * (len(passes) - len(done))
    failed = sum(p["failed"] for p in done) + ops * (len(passes) - len(done))
    setup = [p["setup_s"] for p in done]  # raw seconds; end_to_end scales them
    result = {
        "workload": workload,
        "raw_setup_s_samples": setup,
        "passes": len(plain),
        "traced_passes": len(traced),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "problems": problems,
    }
    if done:
        result.update(
            seen_share=done[0]["seen_share"],
            reference=sorted({p["reference"] for p in done}),
            worker_env=done[0]["env"],
            trace_missing=sorted({m for p in traced for m in p["trace"]["missing"]}),
        )
    if plain:
        result["end_to_end"] = end_to_end(plain)
    if traced and plain:
        result["per_layer"], trace_problems = per_layer(traced, plain)
        problems += trace_problems
    return result


def named_metrics(result: dict) -> list[tuple[str, float, str]]:
    """The per-workload names later perf work cites, with units."""
    e2e = result["end_to_end"]
    rows = [("setup_s", e2e["setup_s"], "s"), ("fail_frac", result["fail_frac"], "ratio"),
            ("peak_rss_mb", e2e["peak_rss_mb"], "MB"), ("raw_ops_per_s", e2e["raw_ops_per_s"], "1/s"),
            ("raw_setup_s", e2e["raw_setup_s"], "s"), ("burst_ms", e2e["burst_ms"], "ms")]
    if result["workload"] == "sweep":
        rows += [("graphs_per_s", e2e["ops_per_s"], "1/s"),
                 ("graph_p50_ms", e2e["call_p50_ms"], "ms"),
                 ("graph_p90_ms", e2e["call_p90_ms"], "ms")]
    elif result["workload"] == "cli_exact":
        rows += [("cli_wall_s", e2e["pass_wall_s"], "s"),
                 ("call_p50_s", e2e["call_p50_ms"] / 1e3, "s")]
    else:
        rows += [("samples_per_s", e2e["ops_per_s"], "1/s")]
    return rows


def contract_metrics(result: dict, trace: bool) -> dict:
    """The metrics named in BENCHMARK.json: end-to-end, or per-layer when traced."""
    if trace:
        return {
            name: {"value": value, "unit": UNITS[name.rsplit(".", 1)[1]]}
            for name, value in result["per_layer"].items()
        }
    e2e = result["end_to_end"]
    return {
        "setup_s": {"value": e2e["setup_s"], "unit": "s"},
        "peak_rss_mb": {"value": e2e["peak_rss_mb"], "unit": "MB"},
        "ops_per_s": {"value": e2e["ops_per_s"], "unit": "1/s"},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "signed_spectra" / "__init__.py").is_file():
        print(f"error: {SRC / 'signed_spectra'} is missing; run from a checkout "
              "that holds the package sources", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    env = environment()
    workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace), workdir)
                   for w in workloads]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        parent = workdir.parent
        if parent.exists() and not any(parent.iterdir()):
            parent.rmdir()
    if any("end_to_end" not in r or (args.trace and "per_layer" not in r) for r in results):
        for r in results:
            print(f"{r['workload']}: no pass completed: {r['problems'][:3]}", file=sys.stderr)
        return 1
    for r in results:
        for name, value, unit in named_metrics(r):
            print(f"{r['workload']:<10} {name:<14} {value:>14.6g} {unit}")
        for problem in r["problems"]:
            print(f"{r['workload']:<10} FAILED {problem}")
    print(json.dumps({"report": {"env": env, "seed": args.seed, "seconds": args.seconds,
                                 "workloads": results}}))
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else f"{r['workload']}."
        metrics.update({prefix + k: v for k, v in contract_metrics(r, bool(args.trace)).items()})
    print(json.dumps({
        "correct": all(not r["problems"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
