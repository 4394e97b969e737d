"""Smoke checks of the benchmark harness at small sizes.

Run from the repository root with::

    python3 -m pytest bench/check_harness.py

The file name keeps it out of the default test collection: it starts
interpreters and takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402

UNRECORDED_SEED = 987_654_321  # no reference is recorded for it
SMALL = (
    "import worker; worker.SWEEP_MAX_N = 3; worker.SWEEP_RANDOM = 10; "
    "worker.SEARCH_SAMPLES = 60; worker.CLI_GRAPHS = ((8, 0.5), (12, 0.5), (26, 0.2))"
)


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code, *args], cwd=BENCH, env=run.worker_env(),
        capture_output=True, text=True, timeout=120,
    )


def _small_pass(workload: str, trace: bool, workdir: Path) -> dict:
    spec = {"workload": workload, "seed": UNRECORDED_SEED, "trace": trace, "workdir": str(workdir)}
    out = _python(
        f"{SMALL}; import json, sys; "
        "print(json.dumps(worker.timed_pass(json.loads(sys.argv[1]), worker.import_package())))",
        json.dumps(spec),
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_small_pass_is_correct_and_tracing_changes_no_output(workload, tmp_path):
    plain = _small_pass(workload, False, tmp_path)
    traced = _small_pass(workload, True, tmp_path)
    for result in (plain, traced):
        assert result["failed"] == 0, result["failures"]
        assert result["reference"] == "absent"
    assert plain["digest"] == traced["digest"]
    metrics, problems = run.per_layer([traced], [plain])
    assert problems == []
    assert traced["trace"]["missing"] == []
    assert set(metrics) == {m["name"] for m in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]}
    e2e = run.end_to_end([dict(plain, setup_s=0.2)] * 2)  # main() adds setup_s
    assert e2e["ops_per_s"] > 0 and e2e["call_p50_ms"] > 0
    assert plain["bursts"] >= 2 and plain["burst_s"] > 0
    assert traced["bursts"] == 0


def test_scaled_times_ignore_machine_speed_but_not_program_speed():
    def fake(speed: float, work: float = 1.0) -> dict:
        return {"op_times": [0.2 * work * speed, 0.3 * work * speed], "burst_s": 0.02 * speed,
                "bursts": 4, "setup_s": 0.25 * speed, "peak_rss_mb": 40.0, "ops": 2}

    base = run.end_to_end([fake(1.0), fake(1.0)])
    slowed = run.end_to_end([fake(1.7), fake(1.3)])
    for key in ("ops_per_s", "setup_s", "pass_wall_s"):
        assert slowed[key] == pytest.approx(base[key], rel=1e-12)
    assert slowed["raw_ops_per_s"] < base["raw_ops_per_s"]
    assert run.end_to_end([fake(1.0, work=1.25)] * 2)["ops_per_s"] == pytest.approx(
        base["ops_per_s"] / 1.25, rel=1e-12
    )


def test_a_worker_times_one_pass_on_cold_caches_only(tmp_path):
    spec = json.dumps({"workload": "search", "seed": 1, "trace": False, "workdir": str(tmp_path)})
    twice = _python(
        f"{SMALL}; import json, sys; spec = json.loads(sys.argv[1]); "
        "modules = worker.import_package(); worker.timed_pass(spec, modules); "
        "worker.timed_pass(spec, modules)",
        spec,
    )
    assert twice.returncode != 0 and "already timed a pass" in twice.stderr
    warm = _python(
        f"{SMALL}; import json, sys; modules = worker.import_package(); "
        "g = modules['graph'].SignedGraph.from_edges(3, [(0, 1, 1), (1, 2, -1)]); "
        "modules['bounds'].evaluate_all(g); worker.timed_pass(json.loads(sys.argv[1]), modules)",
        spec,
    )
    assert warm.returncode != 0 and "not cold" in warm.stderr


def _fake_layers():
    """Two modules shaped like the package: ``bounds`` imports from ``graph``."""
    graph = types.ModuleType("fake.graph")

    def leaf(x):
        return x + 1

    def helper(x):
        return leaf(x) * 2

    for fn in (leaf, helper):
        fn.__module__ = graph.__name__
        setattr(graph, fn.__name__, fn)
    bounds = types.ModuleType("fake.bounds")

    def entry(x):
        return bounds.helper(x) + bounds.leaf(x)

    entry.__module__ = bounds.__name__
    bounds.entry, bounds.helper, bounds.leaf = entry, helper, leaf
    return {"graph": graph, "bounds": bounds}


def test_tracer_spans_cross_module_calls_and_reports_missing_entry_points():
    modules = _fake_layers()
    t = tracer.Tracer()
    t.install(modules, entry_points=(("bounds", "entry"), ("invariants", "gone"), ("graph", "gone")))
    assert modules["bounds"].entry(1) == 6
    agg = t.aggregate()
    assert sorted(agg["missing"]) == ["graph.gone", "invariants.gone"]
    assert {name: calls for name, (calls, _) in agg["by_name"].items()} == {
        "bounds.entry": 1, "graph.helper": 1, "graph.leaf": 1,
    }
    self_sum = sum(s for _, s in agg["by_layer"].values())
    assert self_sum == pytest.approx(agg["root_s"], rel=1e-9)


def test_run_prints_the_contract_line(tmp_path):
    contract = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "search", "--seed",
             str(UNRECORDED_SEED), "--seconds", "0", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170,
        )
        assert out.returncode == 0, out.stderr
        last = json.loads(out.stdout.splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        assert set(last["metrics"]) == {m["name"] for m in contract[key]}


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in out.stdout.splitlines())
