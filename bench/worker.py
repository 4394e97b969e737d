"""One cold, timed pass of one benchmark workload, in a fresh interpreter.

Usage::

    python3 bench/worker.py '{"workload": "sweep", "seed": 0, "trace": false,
                              "workdir": ".bench_work/run-1", "started_at": 0}'

``started_at`` is the caller's ``time.monotonic()`` when it started this
interpreter; ``run.py`` fills it in, and set-up time is measured from it.

The pass builds its inputs from the seed, checks that the package's caches
are empty, times the workload's calls (an untraced pass also times bursts
of the reference kernel in ``yardstick.py`` around and between them), and
only then checks every output.
It prints one JSON object as the last line of standard output.  ``run.py``
starts one worker per pass, so every pass meets cold caches the way a CLI
user does.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import importlib
import io
import json
import random
import resource
import sys
import time
import zlib
from itertools import combinations
from pathlib import Path

import numpy as np

from tracer import LAYERS, Tracer
from yardstick import Yardstick

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
REFERENCE = BENCH / "reference.json"

REL_TOL = 1e-8  # the registry's rule: |a - b| <= 1e-8 * max(1, |b|)
ENFORCED = frozenset(f"B{i}" for i in range(1, 15))  # every id but B8u
VERDICT_CODES = {"holds": "h", "violated": "v", "hypothesis_not_met": "n", "skipped": "s"}

SWEEP_MAX_N = 5
SWEEP_MAX_M = 6  # at most 2^6 signings per underlying graph keeps a pass near 1 s
SWEEP_RANDOM = 60
# (n, edge probability): three orders under the exact guards, two over them
CLI_GRAPHS = ((18, 0.5), (20, 0.5), (22, 0.5), (30, 0.3), (40, 0.3))
SEARCH_SAMPLES = 500

_timed = False


# ---------------------------------------------------------------------------
# Inputs: (n, [(u, v, sign), ...]) edge lists, a pure function of the seed
# ---------------------------------------------------------------------------

def _connected(n: int, pairs) -> bool:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(n)}) <= 1


def sweep_inputs(seed: int) -> list:
    """Every signing of one seeded connected labelled graph per (n, m)
    stratum with n <= 5 and m <= 6, then seeded Erdos-Renyi G(n, M) graphs
    with n cycling through 1..10, M = p * C(n, 2) for p stepping through
    [0.2, 0.8], and q_neg drawn from [0, 1]."""
    rng = random.Random(f"sweep:{seed}")
    graphs = []
    for n in range(1, SWEEP_MAX_N + 1):
        all_pairs = list(combinations(range(n), 2))
        strata: dict[int, list] = {}
        for mask in range(1 << len(all_pairs)):
            pairs = [p for i, p in enumerate(all_pairs) if mask >> i & 1]
            if len(pairs) <= SWEEP_MAX_M and _connected(n, pairs):
                strata.setdefault(len(pairs), []).append(pairs)
        for m in sorted(strata):
            pairs = rng.choice(strata[m])
            for smask in range(1 << m):
                graphs.append(
                    (n, [(u, v, -1 if smask >> i & 1 else 1) for i, (u, v) in enumerate(pairs)])
                )
    for i in range(SWEEP_RANDOM):
        # n and p are stratified, so every seed draws graphs of the same sizes
        n, p, q = 1 + i % 10, 0.2 + 0.6 * (i // 10 + 0.5) / (SWEEP_RANDOM // 10), rng.random()
        all_pairs = list(combinations(range(n), 2))
        pairs = sorted(rng.sample(all_pairs, round(p * len(all_pairs))))
        graphs.append((n, [(u, v, -1 if rng.random() < q else 1) for u, v in pairs]))
    return graphs


def cli_inputs(seed: int) -> list:
    """G(n, M) graphs with M = p * C(n, 2), so every seed has the same size;
    each edge is negative with probability 1/2."""
    rng = random.Random(f"cli_exact:{seed}")
    graphs = []
    for n, p in CLI_GRAPHS:
        all_pairs = list(combinations(range(n), 2))
        pairs = sorted(rng.sample(all_pairs, round(p * len(all_pairs))))
        graphs.append((n, [(u, v, -1 if rng.random() < 0.5 else 1) for u, v in pairs]))
    return graphs


def search_argv(seed: int) -> list[str]:
    return [
        "search", "--target", "B8u", "--n", "5:7", "--p", "0.5", "--qneg", "0.5",
        "--samples", str(SEARCH_SAMPLES), "--seed", str(seed), "--json",
    ]


def sg_text(n: int, edges) -> str:
    return "".join([f"{n}\n"] + [f"{u} {v} {'+' if s > 0 else '-'}\n" for u, v, s in edges])


def seen_share(graphs) -> float:
    """Share of graphs whose underlying graph occurred earlier in the pass."""
    seen, repeats = set(), 0
    for n, edges in graphs:
        key = (n, frozenset((u, v) for u, v, _ in edges))
        repeats += key in seen
        seen.add(key)
    return repeats / len(graphs)


# ---------------------------------------------------------------------------
# Independent checks (numpy only)
# ---------------------------------------------------------------------------

def _adjacency(n: int, edges) -> np.ndarray:
    a = np.zeros((n, n))
    for u, v, s in edges:
        a[u, v] = a[v, u] = s
    return a


def _top_two(n: int, edges) -> tuple[float, float]:
    vals = np.linalg.eigvalsh(_adjacency(n, edges))[::-1]
    return float(vals[0]), float(vals[1]) if n > 1 else 0.0


def _close(x: float, ref: float) -> bool:
    return abs(x - ref) <= REL_TOL * max(1.0, abs(ref))


def _triangles(n: int, edges) -> tuple[int, int]:
    a = _adjacency(n, edges)
    total = round(np.trace(np.linalg.matrix_power(np.abs(a), 3)) / 6)
    signed = round(np.trace(np.linalg.matrix_power(a, 3)) / 6)
    return (total + signed) // 2, (total - signed) // 2


def _spectral_checks(n: int, edges, lhs: dict) -> list[str]:
    """``lhs`` maps bound id to its reported left side; B1 is lambda_1 and
    B8u is lambda_1^2 + lambda_2^2."""
    l1, l2 = _top_two(n, edges)
    problems = []
    if "B1" in lhs and not _close(lhs["B1"], l1):
        problems.append(f"B1 lhs {lhs['B1']!r} != eigvalsh lambda_1 {l1!r}")
    if "B8u" in lhs and not _close(lhs["B8u"], l1 * l1 + l2 * l2):
        problems.append(f"B8u lhs {lhs['B8u']!r} != eigvalsh {l1 * l1 + l2 * l2!r}")
    return problems


# ---------------------------------------------------------------------------
# Workloads: prepare (untimed), run (timed), check (untimed)
# ---------------------------------------------------------------------------

def prepare_sweep(spec, modules):
    graphs = sweep_inputs(spec["seed"])
    signed_graph = modules["graph"].SignedGraph
    return graphs, [signed_graph.from_edges(n, edges) for n, edges in graphs]


def run_sweep(prepared, modules, between):
    _, objects = prepared
    evaluate_all = modules["bounds"].evaluate_all
    clock = time.perf_counter
    outputs, times = [], []
    for g in objects:
        between()
        start = clock()
        try:
            out = evaluate_all(g)
        except Exception as exc:  # counted as a failed operation
            out = exc
        times.append(clock() - start)
        outputs.append(out)
    return outputs, times, len(objects)


def check_sweep(spec, prepared, outputs, modules):
    graphs, _ = prepared
    records, problems, full = [], {}, []
    for i, ((n, edges), evs) in enumerate(zip(graphs, outputs)):
        if isinstance(evs, Exception):
            records.append("E")
            problems[i] = [f"raised {evs!r}"]
            full.append(repr(evs))
            continue
        records.append("".join(VERDICT_CODES.get(ev.verdict, "?") for ev in evs))
        full.append(repr([(ev.bound_id, ev.verdict, ev.lhs, ev.rhs, ev.note) for ev in evs]))
        mine = [
            f"{ev.bound_id} violated" for ev in evs
            if ev.verdict == "violated" and ev.bound_id in ENFORCED
        ]
        lhs = {ev.bound_id: ev.lhs for ev in evs if ev.bound_id in ("B1", "B8u")}
        found = mine + _spectral_checks(n, edges, lhs)
        if found:
            problems[i] = found
    return records, problems, full, seen_share(graphs)


def prepare_cli(spec, modules):
    """A ``bounds --json`` and an ``invariants`` call per file."""
    workdir = Path(spec["workdir"])
    calls = []
    for n, edges in cli_inputs(spec["seed"]):
        path = workdir / f"g{n}.sg"
        path.write_text(sg_text(n, edges), encoding="utf-8")
        calls += [(["bounds", str(path), "--json"], n, edges), (["invariants", str(path)], n, edges)]
    return calls


def _call_cli(run_cli, argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(argv)
    except Exception as exc:  # counted as a failed operation
        code = repr(exc)
    return code, out.getvalue(), err.getvalue()


def run_cli_calls(calls, modules, between):
    run_cli = modules["cli"].run_cli
    clock = time.perf_counter
    outputs, times = [], []
    for argv, _, _ in calls:
        between()
        start = clock()
        outputs.append(_call_cli(run_cli, argv))
        times.append(clock() - start)
    return outputs, times, len(calls)


def _check_bounds_call(n, edges, out) -> tuple[str, list[str]]:
    try:
        evs = json.loads(out)
    except ValueError:
        return "unparsable", ["stdout is not JSON"]
    record = ",".join(
        f"{ev['bound_id']}{sorted(ev['params'].items())}:{VERDICT_CODES.get(ev['verdict'], '?')}"
        f":{int(ev['hypothesis_met'])}"
        for ev in evs
    )
    problems = [
        f"{ev['bound_id']} violated" for ev in evs
        if ev["verdict"] == "violated" and ev["bound_id"] in ENFORCED
    ]
    lhs = {ev["bound_id"]: ev["lhs"] for ev in evs if ev["bound_id"] == "B1"}
    return record, problems + _spectral_checks(n, edges, lhs)


def _check_invariants_call(n, edges, out) -> list[str]:
    m_minus = sum(1 for *_, s in edges if s < 0)
    t_plus, t_minus = _triangles(n, edges)
    expect = (
        f"n={n} m={len(edges)} m+={len(edges) - m_minus} m-={m_minus}",
        f"triangles: t+={t_plus} t-={t_minus} t_s={t_plus - t_minus}",
    )
    lines = out.splitlines()
    return [f"expected line {line!r}" for line in expect if line not in lines]


def check_cli(spec, calls, outputs, modules):
    records, problems, full = [], {}, []
    for i, ((argv, n, edges), (code, out, err)) in enumerate(zip(calls, outputs)):
        full.append(repr((code, out, err)))
        mine = [] if code == 0 else [f"exit code {code!r}, expected 0: {err.strip()}"]
        if argv[0] == "bounds":
            record, found = _check_bounds_call(n, edges, out)
        else:
            record, found = out, _check_invariants_call(n, edges, out)
        records.append(f"{code}|{record}")
        if mine + found:
            problems[i] = mine + found
    return records, problems, full, seen_share([(n, edges) for _, n, edges in calls])


def prepare_search(spec, modules):
    return search_argv(spec["seed"])


def run_search(prepared, modules, between):
    """One CLI call.  ``between`` runs where the search enters
    ``sample_signed_graph``, so reference bursts also fall inside the call;
    the seconds it reports are taken out of the call's time."""
    search = modules["search"]
    sample = getattr(search, "sample_signed_graph", None)
    clock = time.perf_counter
    paused = 0.0

    def with_bursts(*args, **kwargs):
        nonlocal paused
        paused += between()
        return sample(*args, **kwargs)

    if sample is not None:
        search.sample_signed_graph = with_bursts
    try:
        start = clock()
        output = _call_cli(modules["cli"].run_cli, prepared)
        elapsed = clock() - start - paused
    finally:
        if sample is not None:
            search.sample_signed_graph = sample
    return [output], [elapsed], SEARCH_SAMPLES


def check_search(spec, prepared, outputs, modules):
    """One record for the whole call; problems are per sample index."""
    code, out, err = outputs[0]
    full = [repr((code, out))]
    search = modules["search"]
    cfg = search.SearchConfig(
        target="B8u", n_min=5, n_max=7, edge_probability=0.5,
        negative_probability=0.5, samples=SEARCH_SAMPLES, seed=spec["seed"],
    )
    sampled = [search.sample_signed_graph(cfg, i) for i in range(SEARCH_SAMPLES)]
    share = seen_share([(g.n, g.edges) for g in sampled])
    if code != 0:
        return [f"{code}|"], {"*": [f"exit code {code!r}, expected 0: {err.strip()}"]}, full, share
    try:
        findings = json.loads(out)
    except ValueError:
        return [f"{code}|"], {"*": ["stdout is not JSON"]}, full, share
    problems: dict = {}
    for f in findings:
        idx = f["sample_index"]
        g = sampled[idx]
        found = []
        if f["seed"] != spec["seed"] or g.to_sg() != f["graph"]:
            found.append(f"sample {idx} does not replay to the recorded graph")
        edges = sorted(g.edges)
        found += _spectral_checks(g.n, edges, {"B8u": f["lhs"]})
        l1, l2 = _top_two(g.n, edges)
        if not l1 * l1 + l2 * l2 > g.m + REL_TOL * max(1.0, g.m):
            found.append(f"sample {idx} is not violated when replayed")
        if found:
            problems[idx] = found
    record = f"{code}|" + ",".join(str(f["sample_index"]) for f in findings)
    return [record], problems, full, share


WORKLOADS = {
    "sweep": (prepare_sweep, run_sweep, check_sweep),
    "cli_exact": (prepare_cli, run_cli_calls, check_cli),
    "search": (prepare_search, run_search, check_search),
}


# ---------------------------------------------------------------------------
# Reference verdicts recorded at the commit that added the benchmark
# ---------------------------------------------------------------------------

def pack(records: list[str]) -> str:
    return base64.b64encode(zlib.compress(json.dumps(records).encode(), 9)).decode()


def unpack(blob: str) -> list[str]:
    return json.loads(zlib.decompress(base64.b64decode(blob)))


def reference_problems(workload: str, seed: int, records: list[str]) -> tuple[str, dict]:
    """Compare verdicts and exact integers (never float digits) with the
    recorded reference; seeds without a recording are reported, not failed."""
    seeds = json.loads(REFERENCE.read_text()).get(workload, {}) if REFERENCE.exists() else {}
    if str(seed) not in seeds:
        return "absent", {}
    expected = unpack(seeds[str(seed)])
    if workload == "search":
        got_code, _, got = records[0].partition("|")
        want_code, _, want = expected[0].partition("|")
        if got_code != want_code:
            return "mismatch", {"*": [f"exit code {got_code}, reference {want_code}"]}
        diff = (set(got.split(",")) ^ set(want.split(","))) - {""}
        return ("mismatch" if diff else "matched"), {
            int(i): ["finding differs from the reference"] for i in diff
        }
    if len(expected) != len(records):
        return "mismatch", {"*": [f"{len(records)} outputs, reference has {len(expected)}"]}
    bad = {i: ["differs from the reference"] for i, (a, b) in enumerate(zip(records, expected)) if a != b}
    return ("mismatch" if bad else "matched"), bad


# ---------------------------------------------------------------------------
# The pass
# ---------------------------------------------------------------------------

def warm_caches(modules) -> list[str]:
    """Names of package-level memo caches that already hold entries."""
    warm = []
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            info = getattr(obj, "cache_info", None)
            if callable(info) and info().currsize:
                warm.append(f"{layer}.{attr}")
    return warm


def timed_pass(spec: dict, modules: dict) -> dict:
    """Time one pass; refuses to run twice in a process or on warm caches."""
    global _timed
    if _timed:
        raise RuntimeError("this process already timed a pass; start a fresh worker")
    _timed = True
    warm = warm_caches(modules)
    if warm:
        raise RuntimeError(f"caches are not cold before timing: {warm}")
    prepare, run, check = WORKLOADS[spec["workload"]]
    prepared = prepare(spec, modules)
    tracer = stick = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install(modules)
        between = lambda: 0.0  # noqa: E731  (no bursts inside a traced pass)
    else:
        stick = Yardstick()
        stick.burst()
        between = stick.between_calls
    spent_before = stick.spent_s if stick else 0.0
    start = time.perf_counter()
    outputs, times, ops = run(prepared, modules, between)
    wall = time.perf_counter() - start - ((stick.spent_s - spent_before) if stick else 0.0)
    if stick:
        stick.burst()
    trace = tracer.aggregate() if tracer else None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    records, problems, full, share = check(spec, prepared, outputs, modules)
    ref_state, ref_problems = reference_problems(spec["workload"], spec["seed"], records)
    for key, found in ref_problems.items():
        problems.setdefault(key, []).extend(found)
    failed = ops if "*" in problems else len(problems)
    result = {
        "workload": spec["workload"],
        "seed": spec["seed"],
        "traced": bool(spec["trace"]),
        "fresh_process": True,
        "ops": ops,
        "op_times": times,
        "wall_s": wall,
        "burst_s": stick.mean_s() if stick else None,
        "bursts": len(stick.bursts) if stick else 0,
        "peak_rss_mb": peak_rss_mb,
        "attempted": ops,
        "failed": failed,
        "failures": [f"{key}: {'; '.join(found)}" for key, found in list(problems.items())[:5]],
        "reference": ref_state,
        "digest": hashlib.sha256("\n".join(full).encode()).hexdigest(),
        "seen_share": share,
        "trace": trace,
    }
    if spec.get("record"):
        result["records"] = pack(records)
    return result


def environment(modules) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "layers_missing": [layer for layer in LAYERS if layer not in modules],
    }


def import_package() -> dict:
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("signed_spectra")
    if Path(package.__file__).resolve().parent != SRC / "signed_spectra":
        raise RuntimeError(f"imported {package.__file__}, not the checkout's src/")
    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"signed_spectra.{layer}")
        except ImportError:
            continue
    return modules


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    modules = import_package()
    imported_at = time.monotonic()
    result = timed_pass(spec, modules)
    # set-up time: from the parent starting this interpreter (its monotonic
    # clock is system-wide) to the package imported
    result["setup_s"] = imported_at - spec["started_at"]
    result["env"] = environment(modules)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
