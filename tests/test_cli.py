"""CLI subcommands, exit codes, output formats."""

import contextlib
import dataclasses
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import signed_spectra
from signed_spectra import (
    BoundEvaluation,
    SignedGraph,
    all_negative,
    erdos_renyi_signed,
    paper_c5,
    parse_signed_graph,
)
from signed_spectra import bounds
from signed_spectra.bounds import _underlying
from signed_spectra.cli import _violated_enforced, run_cli

from .conftest import random_graphs
from .oracles import brute_balanced_clique, deletion_frustration


def _checkout_env() -> dict:
    """The environment of a subprocess that imports this checkout's package
    with one BLAS thread."""
    src = str(Path(signed_spectra.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")


@pytest.fixture
def c5_file(tmp_path):
    path = tmp_path / "c5.sg"
    path.write_text(paper_c5().to_sg(), encoding="utf-8")
    return str(path)


def write_graph(path, g: SignedGraph) -> str:
    path.write_text(g.to_sg(), encoding="utf-8")
    return str(path)


def gnm_signed(n: int, m: int, seed: int) -> SignedGraph:
    """Seeded G(n, M) with independent fair signs."""
    rng = random.Random(seed)
    pairs = sorted(rng.sample(list(combinations(range(n), 2)), m))
    return SignedGraph.from_edges(n, [(u, v, rng.choice((1, -1))) for u, v in pairs])


def eigenvalues_from(output: str) -> list[float]:
    return [float(x) for x in re.findall(r"lambda_\d+ = (-?\d+\.\d+)", output)]


class TestSpectrum:
    def test_c5_eigenvalues(self, c5_file, capsys):
        assert run_cli(["spectrum", c5_file]) == 0
        out = capsys.readouterr().out
        vals = eigenvalues_from(out)
        assert len(vals) == 5
        expected = [1.618, 1.618, -0.618, -0.618, -2.0]
        assert all(abs(a - b) < 1e-3 for a, b in zip(vals, expected))
        assert "inertia: n+=2 n-=3 n0=0" in out

    def test_missing_file(self, capsys):
        assert run_cli(["spectrum", "nonexistent.sg"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_matrix_guard_exit_3(self, tmp_path, capsys):
        path = tmp_path / "big.sg"
        path.write_text("2100\n", encoding="utf-8")
        assert run_cli(["spectrum", str(path)]) == 3
        assert "guard" in capsys.readouterr().err

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.sg"
        path.write_text("3\n0 1 *\n", encoding="utf-8")
        assert run_cli(["spectrum", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_eigensolver_failure_exit_2(self, c5_file, capsys, monkeypatch):
        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        assert run_cli(["spectrum", c5_file]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "did not converge" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestInvariants:
    def test_c5_report(self, c5_file, capsys):
        assert run_cli(["invariants", c5_file]) == 0
        out = capsys.readouterr().out
        assert "frustration_index: 1 (exact)" in out
        assert "edge_bipartiteness: 1 (exact)" in out
        assert "balanced_clique_number: 2 (exact)" in out
        assert "t_s=0" in out

    def test_missing_file_exit_2(self, capsys):
        assert run_cli(["invariants", "nonexistent.sg"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_env_guard_heuristic_fallback(self, c5_file, capsys, monkeypatch):
        monkeypatch.setenv("SIGNED_SPECTRA_MAX_N", "4")
        assert run_cli(["invariants", c5_file]) == 0
        out = capsys.readouterr().out
        assert "heuristic bound" in out

    def test_force_flag_restores_exact(self, c5_file, capsys, monkeypatch):
        monkeypatch.setenv("SIGNED_SPECTRA_MAX_N", "4")
        assert run_cli(["invariants", c5_file, "--force"]) == 0
        out = capsys.readouterr().out
        assert "heuristic" not in out

    def test_empty_graph_exit_2(self, tmp_path, capsys):
        path = tmp_path / "empty.sg"
        path.write_text("0\n", encoding="utf-8")
        assert run_cli(["invariants", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: balanced clique number needs at least one vertex\n"
        assert captured.out == ""

    @pytest.mark.parametrize("n, rows", [(100, 50), (125, 63), (2100, 1050)])
    def test_forced_past_the_kernel_table_exit_3(self, tmp_path, capsys, n, rows):
        # numpy cannot allocate the 2^ceil(n/2)-row sign table: a MemoryError
        # at n = 100, a ValueError on its size at n = 125 (where
        # np.arange(2^63) is empty) and at n = 2100
        path = tmp_path / f"edge{n}.sg"
        path.write_text(f"{n}\n0 1 +\n", encoding="utf-8")
        assert run_cli(["invariants", str(path), "--force"]) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: guard exceeded: switching-class kernel: n={n} needs a sign table "
            f"of 2^{rows} rows, which cannot be allocated\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("n", (2**24, 2**32))
    def test_heuristic_past_the_dense_matrix_exit_3(self, tmp_path, capsys, n):
        # past the guards the heuristic eps reads the dense n x n matrix:
        # 2 PiB at n = 2^24 (a MemoryError from numpy) and more than intp
        # can index at n = 2^32 (a ValueError)
        path = tmp_path / f"edge{n}.sg"
        path.write_text(f"{n}\n0 1 +\n", encoding="utf-8")
        assert run_cli(["invariants", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: guard exceeded: dense matrix: n={n} needs {n}^2 entries, "
            "which cannot be allocated\n"
        )
        assert captured.out == ""

    def test_forced_exact_value_does_not_lift_the_guard(self, tmp_path, capsys):
        path = write_graph(tmp_path / "g26.sg", erdos_renyi_signed(n=26, p=0.3, q_neg=0.5, seed=26))
        _underlying.cache_clear()
        assert run_cli(["invariants", path, "--force"]) == 0
        assert re.search(r"^edge_bipartiteness: \d+ \(exact\)$", capsys.readouterr().out, re.M)
        # the forced exact eps_b is not shared, and the guard still holds
        assert run_cli(["invariants", path]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^edge_bipartiteness: \d+ \(heuristic bound\)$", out, re.M)

    def test_triangles_are_counted_once_per_file(self, c5_file, capsys, monkeypatch):
        # the census is kept per switching class, so invariants reads the
        # count that bounds made for the same file
        calls = []
        census = bounds.triangle_census

        def counted(g):
            calls.append(g)
            return census(g)

        monkeypatch.setattr(bounds, "triangle_census", counted)
        _underlying.cache_clear()
        assert run_cli(["bounds", c5_file]) == 0
        assert run_cli(["invariants", c5_file]) == 0
        assert "triangles: t+=0 t-=0 t_s=0" in capsys.readouterr().out
        assert len(calls) == 1

    def test_forced_values_stay_out_of_the_memo(self, c5_file, capsys):
        _underlying.cache_clear()
        assert run_cli(["invariants", c5_file, "--force"]) == 0
        assert _underlying.cache_info().currsize == 0

    def test_non_integer_guard_override_exit_2(self, c5_file, capsys, monkeypatch):
        monkeypatch.setenv("SIGNED_SPECTRA_MAX_N", "abc")
        for command in ("invariants", "bounds"):
            assert run_cli([command, c5_file]) == 2
            captured = capsys.readouterr()
            assert captured.err == "error: SIGNED_SPECTRA_MAX_N must be an integer, got 'abc'\n"
            assert captured.out == ""

    def test_heuristic_value_is_not_shared(self, c5_file, capsys, monkeypatch):
        # a sentinel fallback tells a shared heuristic eps_b from the exact 1
        monkeypatch.setattr(bounds, "frustration_index_upper", lambda g, iters, seed: 99)
        monkeypatch.setenv("SIGNED_SPECTRA_MAX_N", "4")
        _underlying.cache_clear()
        assert run_cli(["invariants", c5_file]) == 0
        assert "edge_bipartiteness: 99 (heuristic bound)" in capsys.readouterr().out
        monkeypatch.delenv("SIGNED_SPECTRA_MAX_N")
        assert run_cli(["bounds", c5_file, "--json"]) == 0
        b3 = next(e for e in json.loads(capsys.readouterr().out) if e["bound_id"] == "B3")
        assert b3["verdict"] == "holds" and b3["rhs"] == 5 - 1  # m - eps_b, exact

    @pytest.mark.parametrize(
        "n, m, seed, expected",
        [
            (
                30,
                130,
                30,
                "n=30 m=130 m+=69 m-=61\n"
                "frustration_index: 33 (heuristic bound)\n"
                "edge_bipartiteness: 37 (heuristic bound)\n"
                "balanced_clique_number: 4 (exact)\n"
                "triangles: t+=56 t-=50 t_s=6\n",
            ),
            (
                40,
                240,
                40,
                "n=40 m=240 m+=117 m-=123\n"
                "frustration_index: 66 (heuristic bound)\n"
                "edge_bipartiteness: 80 (heuristic bound)\n"
                "balanced_clique_number: 5 (exact)\n"
                "triangles: t+=164 t-=130 t_s=34\n",
            ),
        ],
    )
    def test_golden_past_the_guards(self, tmp_path, capsys, n, m, seed, expected):
        path = write_graph(tmp_path / f"g{n}.sg", gnm_signed(n, m, seed))
        assert run_cli(["invariants", path]) == 0
        assert capsys.readouterr().out == expected

    def test_matches_oracles(self, tmp_path, capsys):
        for i, g in enumerate(random_graphs(40, max_n=8, seed=71)):
            assert run_cli(["invariants", write_graph(tmp_path / f"g{i}.sg", g)]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[1:4] == [
                f"frustration_index: {deletion_frustration(g)} (exact)",
                f"edge_bipartiteness: {deletion_frustration(all_negative(g))} (exact)",
                f"balanced_clique_number: {brute_balanced_clique(g)} (exact)",
            ], g.to_sg()


class TestBounds:
    def test_json_report(self, c5_file, capsys):
        assert run_cli(["bounds", c5_file, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        verdicts = {e["bound_id"]: e["verdict"] for e in data}
        assert verdicts["B2"] == "holds"
        assert verdicts["B8u"] == "violated"  # expected violation: exit stays 0

    def test_text_report(self, c5_file, capsys):
        assert run_cli(["bounds", c5_file]) == 0
        out = capsys.readouterr().out
        assert "B8u" in out and "violated" in out

    def test_r_q_flags(self, c5_file, capsys):
        assert run_cli(["bounds", c5_file, "--json", "--r", "2", "--q", "3"]) == 0
        data = json.loads(capsys.readouterr().out)
        b10 = [e for e in data if e["bound_id"] == "B10"]
        b11 = [e for e in data if e["bound_id"] == "B11"]
        assert [e["params"] for e in b10] == [{"r": 2}]
        assert [e["params"] for e in b11] == [{"q": 3, "r": 2}]

    def test_walk_overflow_skips_entries(self, tmp_path, capsys):
        path = tmp_path / "k30.sg"
        assert run_cli(["gen", "all_negative_complete", "30", "-o", str(path)]) == 0
        assert run_cli(["bounds", str(path), "--r", "40", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        walk_entries = [e for e in data if e["bound_id"] in ("B10", "B11")]
        assert walk_entries and all(e["verdict"] == "skipped" for e in walk_entries)

    def test_long_walk_order_on_a_matching_is_fast(self, tmp_path, capsys):
        # a graph of degree <= 1 repeats its walk censuses with period 2, so
        # r = 10^9 reads the census of order 124 instead of stepping to it
        path = tmp_path / "matching.sg"
        path.write_text("4\n0 1 -\n2 3 +\n", encoding="utf-8")

        def rows(r: int) -> list:
            assert run_cli(["bounds", str(path), "--r", str(r), "--json"]) == 0
            out = json.loads(capsys.readouterr().out)
            for row in out:
                if row["bound_id"] in ("B10", "B11"):
                    assert row.pop("params")["r"] == r
            return out

        start = time.perf_counter()
        far = rows(10**9)
        assert time.perf_counter() - start < 1.0
        assert far == rows(12)

    def test_usage_error_exit_2(self, capsys):
        assert run_cli(["bounds"]) == 2

    def test_empty_graph_exit_2(self, tmp_path, capsys):
        path = tmp_path / "empty.sg"
        path.write_text("0\n", encoding="utf-8")
        assert run_cli(["bounds", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: bounds need at least one vertex\n"
        assert captured.out == ""

    def test_directory_exit_2(self, tmp_path, capsys):
        assert run_cli(["bounds", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    def test_out_of_memory_exit_3(self, tmp_path):
        # a one-edge graph with n = 2^32: the class key's labels, B11's walk
        # chain and B14's degree scan are O(n), so bounds meets a MemoryError
        # before a guard; the address-space limit makes it fail fast
        resource = pytest.importorskip("resource")
        path = tmp_path / "huge.sg"
        path.write_text(f"{2**32}\n0 1 +\n", encoding="utf-8")
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        limit = 3 * 2**30 if hard == resource.RLIM_INFINITY else min(3 * 2**30, hard)

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

        done = subprocess.run(
            [sys.executable, "-m", "signed_spectra", "bounds", str(path)],
            capture_output=True, text=True, env=_checkout_env(), preexec_fn=cap_memory,
            check=False,
        )
        assert (done.returncode, done.stdout, done.stderr) == (3, "", "error: out of memory\n")

    def test_python_dash_m_runs_the_cli(self, c5_file, capsys):
        expected = (run_cli(["bounds", c5_file, "--json"]), capsys.readouterr().out)
        done = subprocess.run(
            [sys.executable, "-m", "signed_spectra", "bounds", c5_file, "--json"],
            capture_output=True, text=True, env=_checkout_env(), check=False,
        )
        assert (done.returncode, done.stdout, done.stderr) == (*expected, "")
        assert expected[0] == 0


class TestParserReuse:
    """``run_cli`` parses with one parser per process; a run of calls must
    print and exit as a fresh process per call would."""

    def test_calls_in_one_process_match_fresh_processes(self, c5_file, capsys):
        calls = [
            ["bounds", c5_file, "--r", "3"],
            ["bounds", c5_file, "--json"],
            ["bounds"],
            ["bounds", c5_file, "--q", "x"],
            ["bounds", c5_file, "--r", "3"],
        ]
        in_process = []
        for argv in calls:
            code = run_cli(argv)
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
        env = dict(os.environ, PYTHONPATH=str(Path(signed_spectra.__file__).parents[1]))
        fresh = []
        for argv in calls:
            done = subprocess.run(
                [sys.executable, "-m", "signed_spectra.cli", *argv],
                capture_output=True, text=True, env=env, check=False,
            )
            fresh.append((done.returncode, done.stdout, done.stderr))
        assert in_process == fresh
        assert [code for code, _, _ in fresh] == [0, 0, 2, 2, 0]


class TestExitOne:
    def test_violated_enforced_helper(self):
        fake = BoundEvaluation(
            bound_id="B12",
            hypothesis_met=True,
            lhs=9.0,
            rhs=1.0,
            slack=-8.0,
            verdict="violated",
            tolerance=1e-8,
        )
        assert _violated_enforced([fake])
        probe = BoundEvaluation(
            bound_id="B8u",
            hypothesis_met=True,
            lhs=9.0,
            rhs=1.0,
            slack=-8.0,
            verdict="violated",
            tolerance=1e-8,
        )
        assert not _violated_enforced([probe])

    def test_b13_witness_off_the_closed_form_exit_1(self, c5_file, capsys, monkeypatch):
        # a clique labeling at odds with the negative edge (0, 1), which C5 and
        # every all-negative complete graph have, puts the witness at -1/4
        monkeypatch.setattr(bounds._Ctx, "clique", property(lambda ctx: (2, (0, 1), (1, 1))))
        assert run_cli(["bounds", c5_file, "--json"]) == 1
        b13 = next(ev for ev in json.loads(capsys.readouterr().out) if ev["bound_id"] == "B13")
        assert b13["verdict"] == "violated"
        args = "search --target B13 --n 3:4 --p 1.0 --qneg 1.0 --samples 8 --json".split()
        assert run_cli(args) == 1
        findings = json.loads(capsys.readouterr().out)
        assert sorted(parse_signed_graph(f["graph"]).n for f in findings) == [3, 4]


class TestSearch:
    ARGS = [
        "search",
        "--target",
        "B8u",
        "--n",
        "5:5",
        "--p",
        "0.5",
        "--qneg",
        "0.5",
        "--samples",
        "150",
        "--seed",
        "11",
        "--json",
    ]

    def test_finds_violations_exit_0(self, capsys):
        # violations of the unconditional probe are expected, not failures
        assert run_cli(self.ARGS) == 0
        data = json.loads(capsys.readouterr().out)
        assert data

    def test_enforced_target_empty_exit_0(self, capsys):
        args = [a for a in self.ARGS]
        args[2] = "B12"
        assert run_cli(args) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_bad_n_range_exit_2(self, capsys):
        args = [a for a in self.ARGS]
        args[4] = "five"
        assert run_cli(args) == 2

    def test_walk_overflow_exit_3(self, capsys):
        # |A|^59 of K14 leaves the 64-bit range
        args = "search --target B10 --n 14:14 --p 1.0 --qneg 0.5 --samples 1 --r 60".split()
        assert run_cli(args) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "64-bit" in err
        assert "Traceback" not in err

    def test_walk_orders_reach_the_target(self, capsys, monkeypatch):
        seen = []
        info = bounds.REGISTRY["B11"]

        def spy(ctx, params):
            seen.append(dict(params))
            return info.evaluator(ctx, params)

        monkeypatch.setitem(bounds.REGISTRY, "B11", dataclasses.replace(info, evaluator=spy))
        args = "search --target B11 --n 3:6 --p 0.5 --qneg 0.5 --samples 20 --r 1 --q 3 --json"
        assert run_cli(args.split()) == 0
        assert capsys.readouterr().out == "[]\n"
        assert seen == [{"q": 3, "r": 1}] * 20

    def test_text_output(self, capsys):
        args = [a for a in self.ARGS if a != "--json"]
        assert run_cli(args) == 0
        assert "findings:" in capsys.readouterr().out

    def test_negative_b11_r_exit_2(self, capsys):
        # an edgeless sample has rho = 0, and 0.0 ** -1 raised ZeroDivisionError
        args = "search --target B11 --n 3:3 --p 0 --qneg 0 --samples 1 --r -1 --q 2".split()
        assert run_cli(args) == 2
        assert capsys.readouterr().err == "error: B11 needs r >= 0, got -1\n"

    def test_bad_b11_q_exit_2(self, c5_file, capsys):
        # the walk order out of range is q, and the message names it
        for argv, q in (
            ("search --target B11 --n 3:5 --p 0.5 --qneg 0.5 --samples 5 --q 0 --r 1".split(), 0),
            (["bounds", c5_file, "--q", "-2", "--r", "3"], -2),
        ):
            assert run_cli(argv) == 2
            captured = capsys.readouterr()
            assert captured.err == f"error: B11 needs q >= 1, got {q}\n"
            assert captured.out == ""

    # each input is valid more often than not, so that most calls reach the search
    PROBABILITIES = st.one_of(
        st.floats(0.0, 1.0), st.floats(-0.5, 1.5), st.sampled_from(["nan", "inf", "-inf"])
    )

    @given(
        target=st.sampled_from([*bounds.REGISTRY, "B99"]),
        n=st.one_of(
            st.builds("{}:{}".format, st.integers(1, 3), st.integers(3, 7)),
            st.builds("{}:{}".format, st.integers(-1, 7), st.integers(-1, 7)),
            st.sampled_from(["a:b", "0:3", "5:2", "3:", ":4", "", "6"]),
        ),
        p=PROBABILITIES,
        qneg=PROBABILITIES,
        samples=st.integers(-1, 30),
        seed=st.integers(0, 3),
        r=st.none() | st.integers(-1, 4) | st.integers(1, 4),
        q=st.none() | st.integers(-1, 4) | st.integers(1, 4),
        triangle_free=st.booleans(),
        as_json=st.booleans(),
    )
    @settings(max_examples=400, deadline=None)
    def test_fuzzed_argv_exits_cleanly(
        self, target, n, p, qneg, samples, seed, r, q, triangle_free, as_json
    ):
        argv = ["search", "--target", target, "--n", n, "--p", str(p), "--qneg", str(qneg)]
        argv += ["--samples", str(samples), "--seed", str(seed)]
        for flag, value in (("--r", r), ("--q", q)):
            if value is not None:
                argv += [flag, str(value)]
        argv += ["--triangle-free"] * triangle_free + ["--json"] * as_json
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(argv)
        event(f"exit {code}")
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err.getvalue(), argv
        if code in (0, 1) and as_json:
            assert isinstance(json.loads(out.getvalue()), list), argv
        if code in (2, 3):
            assert err.getvalue(), argv


class TestGen:
    def test_gen_paper_c5_to_file(self, tmp_path, capsys):
        out = tmp_path / "out.sg"
        assert run_cli(["gen", "paper_c5", "-o", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == paper_c5().to_sg()

    def test_gen_to_stdout_pipes_into_spectrum(self, tmp_path, capsys):
        assert run_cli(["gen", "erdos_renyi_signed", "8", "0.5", "0.3", "--seed", "7"]) == 0
        text = capsys.readouterr().out
        path = tmp_path / "gen.sg"
        path.write_text(text, encoding="utf-8")
        assert run_cli(["spectrum", str(path)]) == 0

    def test_gen_deterministic(self, capsys):
        run_cli(["gen", "erdos_renyi_signed", "8", "0.5", "0.3", "--seed", "7"])
        first = capsys.readouterr().out
        run_cli(["gen", "erdos_renyi_signed", "8", "0.5", "0.3", "--seed", "7"])
        assert capsys.readouterr().out == first

    def test_gen_all_negative_from_file(self, c5_file, tmp_path):
        out = tmp_path / "neg.sg"
        assert run_cli(["gen", "all_negative", c5_file, "-o", str(out)]) == 0
        from signed_spectra import parse_signed_graph

        g = parse_signed_graph(out.read_text(encoding="utf-8"))
        assert g.m_minus == g.m == 5

    def test_gen_signed_cycle(self, capsys):
        assert run_cli(["gen", "signed_cycle", "5", "0"]) == 0
        assert capsys.readouterr().out == paper_c5().to_sg()

    def test_gen_bad_params_exit_2(self, capsys):
        assert run_cli(["gen", "erdos_renyi_signed", "8"]) == 2
        assert run_cli(["gen", "nonsense_kind"]) == 2

    def test_gen_output_directory_exit_2(self, tmp_path, capsys):
        assert run_cli(["gen", "paper_c5", "-o", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory) -> Path:
    """Small graphs (n <= 8), malformed files and a subdirectory; the names
    are ``GOOD_FILES`` and ``BAD_FILES``."""
    root = tmp_path_factory.mktemp("fuzz")
    texts = {f"g{i}.sg": g.to_sg() for i, g in enumerate(random_graphs(6, max_n=8, seed=5))}
    texts.update({
        "c5.sg": paper_c5().to_sg(),
        "edgeless.sg": "3\n",
        "empty.sg": "0\n",
        "blank.sg": "",
        "header.sg": "three\n0 1 +\n",
        "sign.sg": "3\n0 1 *\n",
        "range.sg": "3\n0 3 +\n",
        "loop.sg": "3\n1 1 -\n",
        "duplicate.sg": "3\n0 1 +\n1 0 -\n",
    })
    for name, text in texts.items():
        (root / name).write_text(text, encoding="utf-8")
    (root / "binary.sg").write_bytes(b"\xff\xfe\x00\x01")
    (root / "subdir").mkdir()
    return root


GOOD_FILES = (*(f"g{i}.sg" for i in range(6)), "c5.sg", "edgeless.sg")
BAD_FILES = (
    "empty.sg", "blank.sg", "header.sg", "sign.sg", "range.sg", "loop.sg", "duplicate.sg",
    "binary.sg", "subdir", "absent.sg",
)
#: .sg text with a header of at most 8 vertices, edge lines and at most one
#: malformed line
SG_TEXT = st.builds(
    "{}\n{}\n{}".format,
    st.sampled_from(["8", "8", "8", "8", "3", "0", "-1", "x"]),
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(4, 7)), unique=True, max_size=8
    ).map(lambda pairs: "\n".join(f"{u} {v} {'+-'[(u * v) % 2]}" for u, v in pairs)),
    st.sampled_from(["", "", "", "", "0 0 +", "1 9 -", "0 1 *", "0 4 +", "a b +"]),
)
COUNT = st.integers(0, 8).map(str) | st.sampled_from(["-1", "x", "1e3", ""])
PROBABILITY = st.floats(0.0, 1.0).map(str) | st.sampled_from(["-0.5", "1.5", "nan", "inf", "x"])


class TestFuzzedArgv:
    """``bounds``, ``invariants``, ``spectrum`` and ``gen`` on fuzzed argv
    and files; ``TestSearch`` fuzzes ``search``.  Each input is valid more
    often than not, so that most calls reach the command."""

    @given(
        command=st.sampled_from(["bounds", "invariants", "spectrum", "gen"]),
        file=st.sampled_from(GOOD_FILES * 2 + BAD_FILES) | SG_TEXT,
        option=st.booleans(),
        r=st.none() | st.integers(1, 5) | st.integers(-2, 5),
        q=st.none() | st.integers(1, 5) | st.integers(-2, 5),
        kind=st.sampled_from(
            ["paper_c5", "signed_cycle", "all_negative_complete", "erdos_renyi_signed",
             "all_negative", "no_such_kind"]
        ),
        params=st.one_of(
            st.tuples(COUNT, PROBABILITY, PROBABILITY).map(list),
            st.lists(COUNT, max_size=4),
        ),
        seed=st.integers(-3, 3),
        output=st.sampled_from([None, "out.sg", "subdir"]),
        extra=st.sampled_from([[]] * 12 + [["--bogus"], ["--json"], ["--force"], ["-o"]]),
    )
    @settings(max_examples=400, deadline=None)
    def test_fuzzed_argv_exits_cleanly(
        self, fuzz_dir, command, file, option, r, q, kind, params, seed, output, extra
    ):
        if file not in GOOD_FILES + BAD_FILES:  # fuzzed text, one file per distinct text
            text, file = file, f"text{abs(hash(file))}.sg"
            (fuzz_dir / file).write_text(text, encoding="utf-8")
        path = str(fuzz_dir / file)
        if command == "gen":
            argv = ["gen", kind, *([path] if kind == "all_negative" else params)]
            argv += ["--seed", str(seed)]
            if output is not None:
                argv += ["-o", str(fuzz_dir / output)]
        else:
            argv = [command, path]
            if command == "bounds":
                argv += ["--json"] * option
                for flag, value in (("--r", r), ("--q", q)):
                    if value is not None:
                        argv += [flag, str(value)]
            elif command == "invariants":
                argv += ["--force"] * option
        argv += extra
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(argv)
        event(f"{command} exit {code}")
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err.getvalue(), argv
        if code in (0, 1) and command == "bounds" and "--json" in argv:
            assert isinstance(json.loads(out.getvalue()), list), argv
        if code in (2, 3):
            assert err.getvalue(), argv
        else:
            assert not err.getvalue(), argv


class TestFreshImport:
    def test_module_caches_are_cold_function_caches(self):
        # the benchmark's worker asks every module attribute with a
        # ``cache_info`` for its size and refuses to time warm caches: each
        # must be a function cache, not a type, and empty after import
        script = (
            "import importlib, json, pkgutil, signed_spectra\n"
            "found = {}\n"
            "for info in pkgutil.iter_modules(signed_spectra.__path__):\n"
            "    mod = importlib.import_module('signed_spectra.' + info.name)\n"
            "    for attr, obj in vars(mod).items():\n"
            "        cache_info = getattr(obj, 'cache_info', None)\n"
            "        if callable(cache_info):\n"
            "            size = None if isinstance(obj, type) else cache_info().currsize\n"
            "            found[f'{info.name}.{attr}'] = size\n"
            "print(json.dumps(found))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(signed_spectra.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        found = json.loads(done.stdout)
        assert {"bounds._underlying", "cli.build_parser"} <= set(found)
        assert all(size == 0 for size in found.values()), found
