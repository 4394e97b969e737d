"""CLI subcommands, exit codes, output formats."""

import json
import os
import random
import re
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import signed_spectra
from signed_spectra import BoundEvaluation, SignedGraph, all_negative, erdos_renyi_signed, paper_c5
from signed_spectra import bounds
from signed_spectra.bounds import _underlying
from signed_spectra.cli import _violated_enforced, run_cli

from .conftest import random_graphs
from .oracles import brute_balanced_clique, deletion_frustration


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

    def test_forced_exact_value_does_not_lift_the_guard(self, tmp_path, capsys):
        path = write_graph(tmp_path / "g26.sg", erdos_renyi_signed(n=26, p=0.3, q_neg=0.5, seed=26))
        _underlying.cache_clear()
        assert run_cli(["invariants", path, "--force"]) == 0
        assert re.search(r"^edge_bipartiteness: \d+ \(exact\)$", capsys.readouterr().out, re.M)
        # the exact eps_b now sits in the shared entry of the underlying graph
        assert run_cli(["invariants", path]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^edge_bipartiteness: \d+ \(heuristic bound\)$", out, re.M)

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

    def test_text_output(self, capsys):
        args = [a for a in self.ARGS if a != "--json"]
        assert run_cli(args) == 0
        assert "findings:" in capsys.readouterr().out


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
