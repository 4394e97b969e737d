"""Registry evaluations, verdict semantics, JSON schema."""

import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import pickle
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signed_spectra import (
    BoundEvaluation,
    InvalidParamsError,
    MissingParamError,
    SearchConfig,
    SignedGraph,
    TooLargeError,
    UnknownBoundError,
    adjacency_matrix,
    all_negative_complete,
    apply_switching,
    balanced_clique_number,
    edge_bipartiteness,
    eigen_decomposition,
    evaluate_all,
    evaluate_bound,
    evaluations_to_json,
    enforced_bound_ids,
    erdos_renyi_signed,
    frustration_index_exact,
    is_switching_equivalent,
    ms_index,
    ms_index_search,
    paper_c5,
    r_frustration_index,
    signed_cycle,
    walk_census,
)
from signed_spectra import bounds, invariants, spectral
from signed_spectra.bounds import BOUND_ORDER, DEFAULT_B10_RS, DEFAULT_B11_QRS, _underlying
from signed_spectra.cli import run_cli

from .conftest import all_signings, connected_underlying_graphs, random_graphs, signed_graphs
from .oracles import unsigned_lambda_n_by_all_positive


class TestSingleEvaluations:
    def test_c5_unconditional_probe_is_violated(self, c5):
        ev = evaluate_bound(c5, "B8u")
        assert ev.verdict == "violated"
        assert 5.23 <= ev.lhs <= 5.24
        assert ev.rhs == 5.0
        assert ev.slack <= -0.23

    def test_c5_b8_hypothesis_fails_on_spectral_clause(self, c5):
        # lambda_1 = 1.618 < 2 = |lambda_n|, so the enforced form does not apply
        ev = evaluate_bound(c5, "B8")
        assert ev.verdict == "hypothesis_not_met"
        assert not ev.hypothesis_met
        assert ev.lhs > ev.rhs  # the sides still show the counterexample gap

    def test_negative_triangle_b2(self):
        ev = evaluate_bound(all_negative_complete(3), "B2")
        assert ev.verdict == "holds"
        assert abs(ev.lhs - 1.0) <= 1e-8  # lambda_1 = 1
        assert abs(ev.rhs - 2.0) <= 1e-12  # 2 (3 - 1) (1 - 1/2)

    def test_edgeless_b1_tight(self):
        ev = evaluate_bound(SignedGraph(3), "B1")
        assert ev.verdict == "holds"
        assert ev.lhs == ev.rhs == 0.0

    def test_k4_positive_b5_tight(self):
        g = all_negative_complete(4).with_all_signs(1)
        ev = evaluate_bound(g, "B5")
        assert ev.verdict == "holds"
        assert ev.lhs == 6.0 and abs(ev.rhs - 6.0) <= 1e-12

    def test_all_negative_c4_b4_tight(self):
        g = signed_cycle(4, negative_edges=(0, 1, 2, 3))
        ev = evaluate_bound(g, "B4")
        assert ev.verdict == "holds"
        assert abs(ev.lhs - 2.0) <= 1e-8 and ev.rhs == 2.0

    def test_positive_k2_b11(self):
        g = SignedGraph.from_edges(2, [(0, 1, 1)])
        ev = evaluate_bound(g, "B11", {"q": 1, "r": 1})
        assert ev.verdict == "holds"
        assert abs(ev.lhs - 1.0) <= 1e-12 and abs(ev.rhs - 1.0) <= 1e-8

    def test_b11_even_q_hypothesis_not_met(self, c5):
        ev = evaluate_bound(c5, "B11", {"q": 2, "r": 1})
        assert ev.verdict == "hypothesis_not_met"

    def test_b11_zero_walk_sum_skipped(self):
        # alternating signs on C4 give A e = 0, so w_3 = ||A e||^2 = 0
        g = signed_cycle(4, negative_edges=(1, 3))
        ev = evaluate_bound(g, "B11", {"q": 3, "r": 1})
        assert ev.verdict == "skipped"
        assert "w_3" in ev.note

    def test_b13_search_vs_closed_form(self, c5):
        ev = evaluate_bound(c5, "B13", {"iters": 4, "seed": 0})
        assert ev.verdict == "holds"
        assert ev.rhs == 0.25
        assert ev.lhs <= ev.rhs + ev.tolerance

    @pytest.mark.parametrize("bound_id", tuple(bounds.REGISTRY))
    def test_entries_without_eigenvalues_read_none(self, monkeypatch, c5, bound_id):
        # search skips the eigensolves for the entries of _NO_EIGENVALUES:
        # with every route to an eigenvalue raising, exactly those evaluate
        def unreachable(*args):
            raise AssertionError("eigenvalues read")

        monkeypatch.setattr(bounds._Ctx, "eigenvalues", property(unreachable))
        monkeypatch.setattr(bounds, "eigen_decomposition", unreachable)
        params = {"q": 1, "r": 2}
        if bound_id in bounds._NO_EIGENVALUES:
            for g in [c5, SignedGraph(1)] + random_graphs(40, max_n=8, seed=19):
                assert evaluate_bound(g, bound_id, params).verdict == "holds", g.to_sg()
        else:
            with pytest.raises(AssertionError, match="eigenvalues read"):
                evaluate_bound(c5, bound_id, params)

    def test_b14_on_negative_triangle(self):
        ev = evaluate_bound(all_negative_complete(3), "B14")
        assert ev.verdict == "holds"
        assert ev.hypothesis_met
        assert abs(ev.rhs - 1.0) <= 1e-8  # lambda_2 of {1, 1, -2}

    def test_b14_positive_triangle_hypothesis_not_met(self):
        g = all_negative_complete(3).with_all_signs(1)
        ev = evaluate_bound(g, "B14")
        assert ev.verdict == "hypothesis_not_met"

    def test_unknown_bound(self, c5):
        with pytest.raises(UnknownBoundError):
            evaluate_bound(c5, "B99")

    def test_missing_params(self, c5):
        with pytest.raises(MissingParamError):
            evaluate_bound(c5, "B10")
        with pytest.raises(MissingParamError):
            evaluate_bound(c5, "B11", {"q": 1})

    def test_guard_propagates(self):
        with pytest.raises(TooLargeError):
            evaluate_bound(SignedGraph(30), "B2")

    def test_empty_graph_rejected(self):
        for evaluate in (lambda g: evaluate_bound(g, "B1"), evaluate_all):
            with pytest.raises(InvalidParamsError, match="at least one vertex"):
                evaluate(SignedGraph(0))


class TestStanleyChain:
    def test_b6_never_looser_than_b7(self):
        for g in random_graphs(40, max_n=9, seed=53):
            b6 = evaluate_bound(g, "B6")
            b7 = evaluate_bound(g, "B7")
            assert b6.rhs <= b7.rhs + 1e-12

    def test_floor_term_is_integer_exact(self):
        # m - eps = C(k, 2) boundaries must floor to exactly k
        for m_eff, expected in [(0, 1), (1, 2), (2, 2), (3, 3), (6, 4), (10, 5)]:
            k = (1 + math.isqrt(8 * m_eff + 1)) // 2
            assert k == expected


class TestEvaluateAll:
    def test_c5_summary(self, c5):
        evals = evaluate_all(c5)
        assert len(evals) == 19
        by_id = {}
        for ev in evals:
            by_id.setdefault(ev.bound_id, []).append(ev)
        assert all(ev.verdict == "holds" for ev in by_id["B2"])
        assert all(ev.verdict == "holds" for ev in by_id["B7"])
        assert all(ev.verdict == "holds" for ev in by_id["B12"])
        assert by_id["B8u"][0].verdict == "violated"
        assert by_id["B8"][0].verdict == "hypothesis_not_met"

    def test_ordering_is_registry_order(self, c5):
        ids = [ev.bound_id for ev in evaluate_all(c5)]
        positions = [BOUND_ORDER.index(i) for i in ids]
        assert positions == sorted(positions)
        assert [ev.params["r"] for ev in evaluate_all(c5) if ev.bound_id == "B10"] == [1, 2, 3]

    def test_single_vertex_nothing_violated(self):
        evals = evaluate_all(SignedGraph(1))
        assert all(ev.verdict in ("holds", "hypothesis_not_met", "skipped") for ev in evals)

    def test_balanced_all_positive_hypothesis_free_bounds_hold(self):
        g = all_negative_complete(4).with_all_signs(1)
        for ev in evaluate_all(g):
            if ev.bound_id == "B8u" or not ev.hypothesis_met:
                continue
            assert ev.verdict == "holds", ev

    def test_guarded_entries_skip_not_abort(self, monkeypatch):
        monkeypatch.setenv("SIGNED_SPECTRA_MAX_N", "3")
        evals = evaluate_all(paper_c5())
        assert len(evals) == 19
        skipped = {ev.bound_id for ev in evals if ev.verdict == "skipped"}
        assert "B2" in skipped and "B13" in skipped
        untouched = {ev.bound_id for ev in evals if ev.verdict != "skipped"}
        assert "B12" in untouched  # needs only the spectrum

    def test_enforced_bound_ids(self):
        ids = enforced_bound_ids()
        assert "B8u" not in ids
        assert {f"B{k}" for k in range(1, 15)} <= ids

    def test_walk_overflow_entries_skip_not_abort(self):
        # |A|^59 of K14 leaves the 64-bit range
        evals = evaluate_all(all_negative_complete(14), rs=(2, 60), qr_pairs=((1, 60),))
        assert len(evals) == 16
        by_key = {(ev.bound_id, ev.params.get("r")): ev for ev in evals}
        for key in (("B10", 60), ("B11", 60)):
            assert by_key[key].verdict == "skipped"
            assert "64-bit" in by_key[key].note
        assert by_key[("B10", 2)].verdict == "holds"

    def test_one_walk_chain_matches_walk_census(self):
        # every order extends the context's one chain, in any order of reads
        for g in random_graphs(40, max_n=12, seed=17, p=(0.25, 0.5, 0.9), q=(0.2, 0.5)):
            ctx = bounds._Ctx(g)
            for r in (3, 1, 4, 2, 8, 5, 7, 6):
                assert ctx.walks(r) == walk_census(g, r), (g.to_sg(), r)
            assert len(ctx._walks) == 8
        # |A|^15 of K14 fits in 64 bits and |A|^16 does not: the overflow
        # raises at the same order as walk_census, and orders below it stay
        g = all_negative_complete(14)
        ctx = bounds._Ctx(g)
        for r in (60, 2, 17, 16, 60):
            try:
                expected = walk_census(g, r)
            except OverflowError as exc:
                with pytest.raises(OverflowError, match=str(exc)):
                    ctx.walks(r)
            else:
                assert r <= 16 and ctx.walks(r) == expected
        with pytest.raises(InvalidParamsError):
            ctx.walks(0)

    def test_one_memo_per_graph_matches_single_evaluations(self):
        diamond = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
        corpus = [(g, DEFAULT_B10_RS) for g in random_graphs(40, max_n=8, seed=71)]
        corpus += [
            (SignedGraph.from_edges(4, [(u, v, s) for (u, v), s in zip(diamond, signs)]), DEFAULT_B10_RS)
            for signs in product((1, -1), repeat=len(diamond))
        ]
        corpus += [
            (all_negative_complete(5), DEFAULT_B10_RS),
            (apply_switching(all_negative_complete(5), (1, -1, 1, -1, -1)), DEFAULT_B10_RS),
            (SignedGraph(30), DEFAULT_B10_RS),
            (all_negative_complete(14), (2, 60)),
        ]
        # evaluate_all shares one memo within a graph, and the underlying
        # graph's scalars and a class's rows from one graph to the next; each
        # single evaluation below starts from a cold cross-graph entry
        def single(g, bound_id, params):
            _underlying.cache_clear()
            try:
                return evaluate_bound(g, bound_id, params)
            except (TooLargeError, OverflowError) as exc:
                note = f"skipped: {exc}"
                return BoundEvaluation(bound_id, False, 0.0, 0.0, 0.0, "skipped", 1e-8, params, note)

        shared = [evaluate_all(g, rs=rs) for g, rs in corpus]
        firsts = _first_met([g for g, _ in corpus])
        for (g, rs), evals, first in zip(corpus, shared, firsts):
            plan = _plan(rs)
            assert [(ev.bound_id, ev.params) for ev in evals] == plan
            own = [single(g, *item) for item in plan]
            # every signing of this corpus decomposes to its class's first
            # signing's bytes, so each row is also the graph's own cold row
            assert evals == own, g.to_sg()
            _check_rows(evals, own, [single(corpus[first][0], *item) for item in plan])

    def test_forced_evaluation_does_not_lift_the_eps_b_guard(self, monkeypatch):
        monkeypatch.setenv("SIGNED_SPECTRA_MAX_N", "3")
        edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
        first = SignedGraph.from_edges(4, [(u, v, 1) for u, v in edges])
        second = SignedGraph.from_edges(4, [(u, v, -1 if u == 0 else 1) for u, v in edges])
        assert edge_bipartiteness(first, force=True) == 1
        with pytest.raises(TooLargeError):
            evaluate_bound(second, "B3")
        b3 = next(ev for ev in evaluate_all(second) if ev.bound_id == "B3")
        assert b3.verdict == "skipped" and "edge_bipartiteness" in b3.note

    def test_all_positive_graph_is_decomposed_once(self, monkeypatch):
        # an all-positive graph is its own unsigned graph, so B3 and B4 read
        # its spectrum instead of decomposing the same matrix again
        calls = []
        eigh = np.linalg.eigh

        def counted(matrix):
            calls.append(matrix)
            return eigh(matrix)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        g = erdos_renyi_signed(n=9, p=0.5, q_neg=0.0, seed=5)
        _underlying.cache_clear()
        evals = evaluate_all(g)
        assert len(calls) == 1
        b4 = next(ev for ev in evals if ev.bound_id == "B4")
        assert b4.lhs == abs(float(eigen_decomposition(adjacency_matrix(g)).eigenvalues[-1]))

    def test_unsigned_lambda_n_equals_the_all_positive_matrix_bit_for_bit(self):
        # the memo decomposes |A| of its own matrix; the entries equal those of
        # the all-positive signing's matrix, so eigh returns the same bits
        graphs = [SignedGraph(1), SignedGraph(5), all_negative_complete(6)]
        graphs += [all_negative_complete(6).with_all_signs(1)]
        graphs += random_graphs(60, max_n=12, seed=73, p=(0.2, 0.5, 0.9), q=(0.0, 0.5, 1.0))
        for g in graphs:
            _underlying.cache_clear()
            value = bounds._Ctx(g).unsigned_lambda_n
            assert value.hex() == unsigned_lambda_n_by_all_positive(g).hex(), g.to_sg()

    def test_clique_and_adjacency_are_computed_once(self, monkeypatch):
        # B13 reads the memo's clique instead of its own, and no entry builds
        # a second copy of g's matrix
        _underlying.cache_clear()
        cliques, matrices = [], []
        clique_of, matrix_of = bounds._max_balanced_clique, bounds.adjacency_matrix

        def counted_clique(h, **kwargs):
            cliques.append(h)
            return clique_of(h, **kwargs)

        def counted_matrix(h):
            matrices.append(h)
            return matrix_of(h)

        for module in (bounds, spectral):
            monkeypatch.setattr(module, "_max_balanced_clique", counted_clique)
            monkeypatch.setattr(module, "adjacency_matrix", counted_matrix)
        g = erdos_renyi_signed(n=9, p=0.6, q_neg=0.4, seed=8)
        evals = evaluate_all(g)
        assert [h is g for h in cliques] == [True]
        assert sum(h is g for h in matrices) == 1
        b13 = next(ev for ev in evals if ev.bound_id == "B13")
        assert b13.lhs == float(ms_index(g))

    def test_eps_2_is_twice_the_memo_eps(self):
        # B10 at r = 2 reads 2 eps from the memo instead of its own kernel run
        for g in random_graphs(40, max_n=10, seed=13) + [paper_c5(), SignedGraph(3)]:
            ev = evaluate_bound(g, "B10", {"r": 2})
            omega_b = bounds._max_balanced_clique(g)[0]
            eps_2 = invariants.r_frustration_index(g, 2)
            assert ev.rhs == (2 * g.m - eps_2) * (1.0 - 1.0 / omega_b), g.to_sg()
        g = erdos_renyi_signed(n=21, p=0.3, q_neg=0.5, seed=21)
        with pytest.raises(TooLargeError) as guard:
            invariants.r_frustration_index(g, 2)
        b10 = next(ev for ev in evaluate_all(g, rs=(2,)) if ev.bound_id == "B10")
        assert b10.verdict == "skipped" and b10.note == f"skipped: {guard.value}"

    def test_kernel_runs_once_per_switching_quantity(self, monkeypatch):
        # eps, eps_b and eps_3 each run the kernel; eps_1 = 0 and eps_2 = 2 eps
        calls = []
        kernel = invariants._max_switching_form

        def counted(mat, bound):
            calls.append(mat.shape)
            return kernel(mat, bound)

        monkeypatch.setattr(invariants, "_max_switching_form", counted)
        g = erdos_renyi_signed(n=10, p=0.5, q_neg=0.5, seed=10)
        assert g.m > 0
        _underlying.cache_clear()
        evaluate_all(g)
        assert len(calls) == 3

    def test_custom_walk_parameters(self, c5):
        evals = evaluate_all(c5, rs=(4,), qr_pairs=((5, 2),))
        b10 = [ev for ev in evals if ev.bound_id == "B10"]
        b11 = [ev for ev in evals if ev.bound_id == "B11"]
        assert [ev.params for ev in b10] == [{"r": 4}]
        assert [ev.params for ev in b11] == [{"q": 5, "r": 2}]
        assert all(ev.verdict == "holds" for ev in b10 + b11)

    @pytest.mark.parametrize(
        "bound_id, params",
        (
            ("B10", {"r": 2.7}),
            ("B10", {"r": "3"}),
            ("B11", {"q": 1.9, "r": 1}),
            ("B11", {"q": 1, "r": 2.0}),
        ),
    )
    def test_walk_orders_must_be_integers(self, c5, bound_id, params):
        # int() used to read 2.7 as 2, and evaluate_bound let islice raise a
        # bare ValueError or TypeError
        name = next(k for k, v in params.items() if not isinstance(v, int))
        message = f"{bound_id} parameter {name!r} must be an integer"
        with pytest.raises(InvalidParamsError, match=message):
            evaluate_bound(c5, bound_id, params)
        plan = {"rs": (params["r"],)} if bound_id == "B10" else {"qr_pairs": ((params["q"], params["r"]),)}
        with pytest.raises(InvalidParamsError, match=message):
            evaluate_all(c5, **plan)
        with pytest.raises(InvalidParamsError, match=message):
            SearchConfig(bound_id, 3, 5, 0.5, 0.5, samples=1, seed=0, params=params)

    def test_numpy_ints_and_bools_are_walk_orders(self, c5):
        evals = evaluate_all(c5, rs=(np.int64(3), True), qr_pairs=((np.int32(1), True),))
        params = [ev.params for ev in evals if ev.bound_id in ("B10", "B11")]
        assert params == [{"r": 3}, {"r": 1}, {"q": 1, "r": 1}]
        assert all(type(v) is int for p in params for v in p.values())
        single = evaluate_bound(c5, "B10", {"r": np.int64(3)})
        assert single.params == {"r": 3} and type(single.params["r"]) is int
        assert single == next(ev for ev in evaluate_all(c5, rs=(3,)) if ev.bound_id == "B10")


def _plan(rs=DEFAULT_B10_RS) -> list[tuple[str, dict]]:
    """The (bound id, params) that ``evaluate_all`` evaluates, in its order."""
    plan = []
    for bound_id in BOUND_ORDER:
        if bound_id == "B10":
            plan += [(bound_id, {"r": r}) for r in rs]
        elif bound_id == "B11":
            plan += [(bound_id, {"q": q, "r": r}) for q, r in DEFAULT_B11_QRS]
        elif bound_id == "B13":
            plan.append((bound_id, {"iters": 2, "seed": 0}))
        else:
            plan.append((bound_id, {}))
    return plan


def _shape(g: SignedGraph) -> tuple:
    return g.n, g.underlying_pairs


def _first_met(graphs, budget=None) -> list[int]:
    """For each graph of one memoised ``evaluate_all`` run over ``graphs``,
    the index of the first signing of its switching class that the run met,
    found by switching equivalence, not by the memo's key."""
    out, firsts = [], []  # firsts: first-met signings of the one underlying graph
    for i, g in enumerate(graphs):
        if firsts and _shape(graphs[firsts[0]]) != _shape(g):
            firsts = []  # a new underlying graph replaces the entry
        first = next((j for j in firsts if is_switching_equivalent(graphs[j], g)), None)
        if first is None:
            if len(firsts) == budget:
                firsts = []  # a class past the budget drops them all
            firsts.append(i)
            first = i
        out.append(first)
    return out


def _bits(ev) -> tuple:
    return (
        ev.bound_id, ev.hypothesis_met, ev.lhs.hex(), ev.rhs.hex(), ev.slack.hex(),
        ev.verdict, ev.tolerance.hex(), dict(ev.params), ev.note,
    )


def _check_rows(evals, own, first) -> None:
    """``evaluate_all`` rows of a signing against its own cold rows and the
    cold rows of the first signing of its class that the memo met."""
    assert len(evals) == len(own) == len(first)
    for ev, mine, theirs in zip(evals, own, first):
        if ev.bound_id == "B13":
            assert _bits(ev) == _bits(mine)
        elif ev.bound_id == "B11":  # its own walk sums, the class's rho
            assert ev.lhs.hex() == mine.lhs.hex() and ev.rhs.hex() == theirs.rhs.hex()
            assert (ev.slack, ev.tolerance) == (ev.rhs - ev.lhs, theirs.tolerance)
        else:
            assert _bits(ev) == _bits(theirs)
        for name in ("verdict", "hypothesis_met", "note", "params"):
            assert getattr(ev, name) == getattr(mine, name), (ev.bound_id, name)


def _sweep_strata(seed: int) -> list[SignedGraph]:
    """Every signing of one seeded connected labelled graph per (n, m)
    stratum with n <= 5 and m <= 6, as the bench sweep draws them."""
    strata: dict[tuple[int, int], list] = {}
    for n, pairs in connected_underlying_graphs(5):
        if len(pairs) <= 6:
            strata.setdefault((n, len(pairs)), []).append(pairs)
    rng = random.Random(f"sweep:{seed}")
    return [g for n, m in sorted(strata) for g in all_signings(n, rng.choice(strata[n, m]))]


class TestSwitchingClassMemo:
    """Values kept per underlying graph and per switching class."""

    @staticmethod
    def _shared(g: SignedGraph) -> tuple:
        ctx = bounds._Ctx(g, shared=True)
        b13 = evaluate_bound(g, "B13", {"iters": 2, "seed": 0})
        return ctx.eps, ctx.eps_r(3), ctx.omega_b, ctx.census, b13.lhs

    @given(signed_graphs(max_n=8), st.integers(0, 2**16))
    @settings(max_examples=80, deadline=None)
    def test_switching_invariance(self, g, seed):
        rng = random.Random(seed)
        switched = apply_switching(g, [rng.choice((1, -1)) for _ in range(g.n)])
        cold = []
        for h in (g, switched):
            _underlying.cache_clear()
            cold.append(self._shared(h))
            assert bounds._Ctx(h).clique == bounds._max_balanced_clique(h)
        assert cold[0] == cold[1]
        # with g's class filled, the switched graph reads g's entries
        _underlying.cache_clear()
        first, second = bounds._Ctx(g, shared=True), bounds._Ctx(switched, shared=True)
        assert first._class is second._class
        assert self._shared(g) == self._shared(switched) == cold[0]
        assert bounds._Ctx(switched, shared=True).clique == bounds._max_balanced_clique(switched)

    @staticmethod
    def _replay(graphs, budget=None) -> int:
        """Check one memoised ``evaluate_all`` run over ``graphs`` against
        cold runs; returns how many signings read another's rows."""
        cold = []
        for g in graphs:
            _underlying.cache_clear()
            cold.append(evaluate_all(g))
        _underlying.cache_clear()
        firsts = _first_met(graphs, budget)
        for g, own, first in zip(graphs, cold, firsts):
            evals = evaluate_all(g)
            assert len(_underlying(g.n, g.underlying_pairs)["classes"]) <= bounds._MAX_CLASSES
            _check_rows(evals, own, cold[first])
        return sum(first != i for i, first in enumerate(firsts))

    def test_sweep_strata_match_cold_runs(self):
        graphs = [g for seed in range(3) for g in _sweep_strata(seed)]
        assert self._replay(graphs) > len(graphs) // 2

    def test_evaluate_bound_reads_no_shared_row(self):
        # evaluate_all fills the class from g; evaluate_bound on a switching
        # h of g still returns h's own cold row, bit for bit, for every id,
        # where evaluate_all on h hands out some of g's rows instead
        moved = 0
        for g in random_graphs(40, max_n=9, seed=91, p=(0.5,), q=(0.5,)):
            rng = random.Random(g.to_sg())
            h = apply_switching(g, [rng.choice((1, -1)) for _ in range(g.n)])
            cold = []
            for bound_id, params in _plan():
                _underlying.cache_clear()
                cold.append(_bits(evaluate_bound(h, bound_id, params)))
            _underlying.cache_clear()
            evaluate_all(g)
            for (bound_id, params), row in zip(_plan(), cold):
                assert _bits(evaluate_bound(h, bound_id, params)) == row, (g.to_sg(), bound_id)
            moved += sum(map(tuple.__ne__, map(_bits, evaluate_all(h)), cold))
        assert moved > 0

    def test_rows_are_kept_per_guard_override(self, monkeypatch):
        # rows filled under one SIGNED_SPECTRA_MAX_N value are never read
        # under another, and those of each value stay
        g = erdos_renyi_signed(n=7, p=0.6, q_neg=0.5, seed=3)
        switched = apply_switching(g, [(-1) ** v for v in range(g.n)])
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
        monkeypatch.delenv("SIGNED_SPECTRA_MAX_N", raising=False)
        _underlying.cache_clear()
        plain = evaluate_all(g)
        monkeypatch.setenv("SIGNED_SPECTRA_MAX_N", "3")
        guarded = evaluate_all(switched)
        monkeypatch.delenv("SIGNED_SPECTRA_MAX_N")
        calls.clear()
        again = evaluate_all(switched)
        skipped = {ev.bound_id for ev in guarded if ev.verdict == "skipped"}
        assert skipped == {"B1", "B2", "B3", "B5", "B6", "B7", "B10", "B13"}
        assert all(ev.verdict != "skipped" for ev in plain + again)
        # the rows filled without the override are read, not recomputed
        assert calls == []
        for ev, mine in zip(again, plain):
            if ev.bound_id not in ("B11", "B13"):
                assert _bits(ev) == _bits(mine), ev.bound_id

    def test_rows_share_no_params(self, c5):
        # each result owns its rows' params: mutating one touches no other
        # result and no kept row; rows stay plain, picklable dataclasses
        switched = apply_switching(c5, [1, -1, 1, -1, 1])
        _underlying.cache_clear()
        results = [evaluate_all(c5), evaluate_all(switched), evaluate_all(c5)]
        params = [id(ev.params) for evals in results for ev in evals]
        assert len(set(params)) == len(params)
        for ev in results[0]:
            ev.params["r"] = 5
        assert [ev.params for ev in evaluate_all(switched)] == [p for _, p in _plan()]
        rows = results[1] + [evaluate_bound(c5, "B10", {"r": 2})]
        for ev in rows:
            assert type(ev.params) is dict
            assert pickle.loads(pickle.dumps(ev)) == ev == copy.deepcopy(ev)
            assert dataclasses.asdict(ev)["params"] == ev.params

    def test_shared_contexts_key_a_class_on_first_read(self, monkeypatch, tmp_path):
        # evaluate_bound keeps every value in its own context; evaluate_all
        # and invariants key the class on their first read of it
        bfs = []
        labels = bounds.propagation_labels

        def counted(g, **kw):
            bfs.append(g)
            return labels(g, **kw)

        monkeypatch.setattr(bounds, "propagation_labels", counted)
        g = erdos_renyi_signed(n=7, p=0.5, q_neg=0.5, seed=7)
        switched = apply_switching(g, [(-1) ** v for v in range(g.n)])
        key = bounds._class_key(g, labels(g, full=True)[0])
        _underlying.cache_clear()
        for bound_id in ("B2", "B3", "B5", "B10"):
            evaluate_bound(g, bound_id, {"r": 3})
        assert bfs == [] and _underlying.cache_info().currsize == 0
        path = tmp_path / "switched.sg"
        path.write_text(switched.to_sg(), encoding="utf-8")
        assert run_cli(["invariants", str(path)]) == 0
        assert len(bfs) == 1 and bfs[0] == switched
        classes = _underlying(g.n, g.underlying_pairs)["classes"]
        assert list(classes) == [key] and {"eps", "clique"} <= set(classes[key])
        evaluate_all(g)  # reads the class invariants filled
        assert len(bfs) == 2 and bfs[1] is g
        assert list(classes) == [key] and _underlying.cache_info().currsize == 1

    def test_class_budget_drops_the_classes(self, monkeypatch):
        # K4 plus a pendant edge: 2^7 signings in 2^3 classes
        graphs = list(all_signings(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]))
        expected = []
        for g in graphs:
            _underlying.cache_clear()
            expected.append(evaluate_all(g))
        for budget in (3, 1):
            monkeypatch.setattr(bounds, "_MAX_CLASSES", budget)
            _underlying.cache_clear()
            # these signings decompose to the same bytes, so every row is
            # also the signing's own cold row
            for g, evals in zip(graphs, expected):
                assert evaluate_all(g) == evals, (budget, g.to_sg())
                assert len(_underlying(g.n, g.underlying_pairs)["classes"]) <= budget
            assert self._replay(graphs, budget) > 0
        assert _underlying.cache_info().currsize == 1


def _check_b13_witness(g: SignedGraph) -> None:
    """B13 of ``evaluate_all`` reads the exact witness value, and the seeded
    restarts of ``ms_index_search`` stay at or below it but for roundoff."""
    b13 = next(ev for ev in evaluate_all(g) if ev.bound_id == "B13")
    assert b13.lhs == b13.rhs == float(ms_index(g)), g.to_sg()
    assert b13.slack == 0.0 and b13.verdict == "holds", g.to_sg()
    assert ms_index_search(g, iters=2, seed=0) <= b13.rhs + 1e-12, g.to_sg()


class TestB13Witness:
    def test_sweep_strata(self):
        for seed in range(2):
            for g in _sweep_strata(seed):
                _check_b13_witness(g)

    @given(signed_graphs(max_n=9))
    @settings(max_examples=150, deadline=None)
    def test_random_graphs(self, g):
        _check_b13_witness(g)


class _CountingEnviron(dict):
    """A copy of ``os.environ`` that counts the reads of SIGNED_SPECTRA_MAX_N."""

    def __init__(self, base):
        super().__init__(base)
        self.reads = 0

    def _count(self, key) -> None:
        self.reads += key == "SIGNED_SPECTRA_MAX_N"

    def get(self, key, default=None):
        self._count(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self._count(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self._count(key)
        return super().__contains__(key)


class TestGuardLimits:
    """The limits are read once per context, and never on a forced call."""

    @pytest.mark.parametrize("max_n", [None, "4", "30"])
    def test_environment_reads_per_call(self, monkeypatch, tmp_path, max_n):
        env = _CountingEnviron(os.environ)
        env.pop("SIGNED_SPECTRA_MAX_N", None)
        if max_n is not None:
            env["SIGNED_SPECTRA_MAX_N"] = max_n
        monkeypatch.setattr(os, "environ", env)
        g = paper_c5()
        path = tmp_path / "c5.sg"
        path.write_text(g.to_sg(), encoding="utf-8")

        def reads(call) -> int:
            env.reads = 0
            with contextlib.suppress(TooLargeError):
                call()
            return env.reads

        _underlying.cache_clear()
        assert reads(lambda: evaluate_all(g)) == 1
        assert reads(lambda: evaluate_all(g)) == 1  # rows read back from the memo
        for bound_id, params in _plan():
            assert reads(lambda: evaluate_bound(g, bound_id, params)) <= 1, bound_id
        search = ["search", "--target", "B8u", "--n", "3:7", "--p", "0.5", "--qneg", "0.5",
                  "--samples", "100", "--seed", "8"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert reads(lambda: run_cli(["invariants", str(path)])) == 1
            assert reads(lambda: run_cli(["bounds", str(path)])) == 1
            for argv in (["invariants", str(path), "--force"], ["spectrum", str(path)], search):
                assert reads(lambda: run_cli(argv)) == 0, argv

    def test_guards_are_checked_before_the_class_key(self, monkeypatch):
        # the class key's BFS is O(n), so a read past its guard must not reach it
        monkeypatch.setattr(bounds, "propagation_labels", lambda *a, **k: pytest.fail("class key"))
        ctx = bounds._Ctx(SignedGraph.from_edges(41, [(0, 1, -1)]), shared=True)
        for read in (lambda: ctx.eps, lambda: ctx.eps_b, lambda: ctx.clique, lambda: ctx.eps_r(3)):
            with pytest.raises(TooLargeError):
                read()

    @given(
        signed_graphs(max_n=12),
        st.one_of(st.none(), st.integers(0, 12)),
        st.integers(1, 4),
    )
    @settings(max_examples=80, deadline=None)
    def test_memo_guards_like_the_public_functions(self, g, max_n, r):
        # each guarded read of the memo raises TooLargeError exactly where its
        # public function does, with the same message, and else agrees with it
        pairs = {
            "eps": (lambda ctx: ctx.eps, frustration_index_exact),
            "eps_b": (lambda ctx: ctx.eps_b, edge_bipartiteness),
            "omega_b": (lambda ctx: ctx.omega_b, balanced_clique_number),
            "eps_r": (lambda ctx: ctx.eps_r(r), lambda h: r_frustration_index(h, r)),
        }

        def outcome(read):
            try:
                return read()
            except TooLargeError as exc:
                return "TooLargeError", str(exc), exc.n, exc.limit

        with pytest.MonkeyPatch.context() as mp:
            if max_n is None:
                mp.delenv("SIGNED_SPECTRA_MAX_N", raising=False)
            else:
                mp.setenv("SIGNED_SPECTRA_MAX_N", str(max_n))
            _underlying.cache_clear()
            for name, (memo, public) in pairs.items():
                for shared in (False, True):
                    mine = outcome(lambda: memo(bounds._Ctx(g, shared=shared)))
                    assert mine == outcome(lambda: public(g)), (name, shared, g.to_sg())


class TestJsonReport:
    def test_schema_and_significant_digits(self, c5):
        text = evaluations_to_json(evaluate_all(c5))
        data = json.loads(text)
        assert len(data) == 19
        expected_keys = [
            "bound_id",
            "hypothesis_met",
            "lhs",
            "rhs",
            "slack",
            "verdict",
            "tolerance",
            "params",
        ]
        for entry in data:
            assert list(entry.keys()) == expected_keys
        b8u = next(e for e in data if e["bound_id"] == "B8u")
        assert '"lhs": 5.2360679775' in text  # 12 significant digits of lhs
        assert b8u["verdict"] == "violated"

    def test_empty(self):
        assert evaluations_to_json([]) == "[]"

    def test_deterministic(self, c5):
        assert evaluations_to_json(evaluate_all(c5)) == evaluations_to_json(evaluate_all(c5))
