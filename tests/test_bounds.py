"""Registry evaluations, verdict semantics, JSON schema."""

import contextlib
import copy
import dataclasses
import gc
import io
import json
import math
import os
import pickle
import random
import re
import sys
import threading
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    paper_c5,
    r_frustration_index,
    signed_cycle,
    walk_census,
)
from signed_spectra import bounds, graph, invariants, spectral, switching
from signed_spectra.bounds import DEFAULT_B10_RS, DEFAULT_B11_QRS, _underlying
from signed_spectra.cli import run_cli
from signed_spectra.switching import _canonical_signing, propagation_labels

from .conftest import all_signings, connected_underlying_graphs, random_graphs, signed_graphs
from .oracles import ms_restarts, unsigned_lambda_n_by_all_positive


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

    def test_b13_witness_attains_the_closed_form(self, c5):
        # both sides are correctly rounded quotients of equal rationals, so equal to the bit
        for g, rhs in ((c5, 0.25), (_complete_multipartite(1, 1, 1, 1), 0.375), (_complete_multipartite(3, 3), 0.25)):
            ev = evaluate_bound(g, "B13")
            assert ev.verdict == "holds", g.to_sg()
            assert ev.lhs == ev.rhs == rhs and ev.slack == 0.0, g.to_sg()

    @pytest.mark.parametrize("bound_id", tuple(bounds.REGISTRY))
    def test_entries_without_eigenvalues_read_none(self, monkeypatch, c5, bound_id):
        # search skips the eigensolves for the entries that read none: with
        # every route to an eigenvalue raising, exactly those evaluate
        def unreachable(*args, **kwargs):
            raise AssertionError("eigenvalues read")

        monkeypatch.setattr(bounds._Ctx, "eigenvalues", property(unreachable))
        monkeypatch.setattr(bounds, "_eigenvalues", unreachable)
        params = {"q": 1, "r": 2}
        if not bounds.REGISTRY[bound_id].reads_eigenvalues:
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
        positions = [tuple(bounds.REGISTRY).index(i) for i in ids]
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
        # past eps_r's guard B10 skips on the guard before it steps any walk
        b10 = evaluate_all(all_negative_complete(21), rs=(60,))[10]
        assert (b10.bound_id, b10.verdict) == ("B10", "skipped")
        assert b10.note.startswith("skipped: r_frustration_index: n=21 exceeds"), b10.note

    def test_one_walk_chain_matches_walk_census(self):
        # every order steps the context's one walk state, in any order of reads
        for g in random_graphs(40, max_n=12, seed=17, p=(0.25, 0.5, 0.9), q=(0.2, 0.5)):
            ctx = bounds._Ctx(g)
            for r in (3, 1, 4, 2, 8, 5, 7, 6):
                census = walk_census(g, r)
                assert ctx.walks(r) == (census.w_total, census.w_signed), (g.to_sg(), r)
            assert len(ctx._walks[0]) == 8
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
                assert r <= 16 and ctx.walks(r) == (expected.w_total, expected.w_signed)
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
        # B13 reads the memo's clique instead of its own, and the memo builds
        # g's matrix once: eps, eps_b, eps_r and both spectra read that one
        _underlying.cache_clear()
        cliques, matrices = [], []
        clique_of, matrix_of = bounds._max_balanced_clique, graph._signed_matrix

        def counted_clique(h, **kwargs):
            cliques.append(h)
            return clique_of(h, **kwargs)

        def counted_matrix(h):
            matrices.append(h)
            return matrix_of(h)

        for module in (bounds, spectral):
            monkeypatch.setattr(module, "_max_balanced_clique", counted_clique)
        for module in (graph, bounds, invariants):  # every build of a matrix from a graph
            monkeypatch.setattr(module, "_signed_matrix", counted_matrix)
        g = erdos_renyi_signed(n=9, p=0.6, q_neg=0.4, seed=8)
        evals = evaluate_all(g)
        assert [h is g for h in cliques] == [True]
        assert [h for h in matrices if isinstance(h, SignedGraph)] == [g]
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

    @pytest.mark.parametrize("bad", (2.0, "2", np.float64(2.0)), ids=("float", "str", "numpy-float"))
    @pytest.mark.parametrize("where", ("rs", "q", "r"))
    def test_walk_orders_are_checked_on_every_call(self, c5, where, bad):
        # the plan is cached on checked integers; a cached plan for 2 must
        # not let an equal float or a string through on a later call
        def plan(value):
            if where == "rs":
                return {"rs": (value,)}
            return {"qr_pairs": ((value, 1) if where == "q" else (1, value),)}

        name = "q" if where == "q" else "r"
        message = re.escape(f"parameter {name!r} must be an integer, got {bad!r}")
        with pytest.raises(InvalidParamsError, match=message):
            evaluate_all(c5, **plan(bad))
        evaluate_all(c5, **plan(2))
        with pytest.raises(InvalidParamsError, match=message):
            evaluate_all(c5, **plan(bad))

    def test_lists_and_tuples_plan_the_same_rows(self, c5):
        lists = evaluate_all(c5, rs=list(DEFAULT_B10_RS), qr_pairs=[list(p) for p in DEFAULT_B11_QRS])
        assert lists == evaluate_all(c5, rs=tuple(DEFAULT_B10_RS), qr_pairs=tuple(DEFAULT_B11_QRS))
        assert [(ev.bound_id, ev.params) for ev in lists] == _plan()

    def test_numpy_ints_and_bools_are_walk_orders(self, c5):
        evals = evaluate_all(c5, rs=(np.int64(3), True), qr_pairs=((np.int32(1), True),))
        params = [ev.params for ev in evals if ev.bound_id in ("B10", "B11")]
        assert params == [{"r": 3}, {"r": 1}, {"q": 1, "r": 1}]
        assert all(type(v) is int for p in params for v in p.values())
        single = evaluate_bound(c5, "B10", {"r": np.int64(3)})
        assert single.params == {"r": 3} and type(single.params["r"]) is int
        assert single == next(ev for ev in evaluate_all(c5, rs=(3,)) if ev.bound_id == "B10")


def _plan(rs=DEFAULT_B10_RS, qr_pairs=DEFAULT_B11_QRS) -> list[tuple[str, dict]]:
    """The (bound id, params) that ``evaluate_all`` evaluates, in its order."""
    plan = []
    for bound_id in bounds.REGISTRY:
        if bound_id == "B10":
            plan += [(bound_id, {"r": r}) for r in rs]
        elif bound_id == "B11":
            plan += [(bound_id, {"q": q, "r": r}) for q, r in qr_pairs]
        elif bound_id == "B13":
            plan.append((bound_id, {"iters": 2, "seed": 0}))
        else:
            plan.append((bound_id, {}))
    return plan


def _shape(g: SignedGraph) -> tuple:
    return g.n, g.underlying_pairs


def _first_met(graphs) -> list[int]:
    """For each graph of one memoised ``evaluate_all`` run over ``graphs``,
    the index of the first signing of its switching class that the run met,
    found by switching equivalence, not by the memo's key.  The memo keeps
    every underlying graph of the run."""
    out, firsts = [], {}  # per underlying graph, the first-met signings of its classes
    for i, g in enumerate(graphs):
        met = firsts.setdefault(_shape(g), [])
        first = next((j for j in met if is_switching_equivalent(graphs[j], g)), None)
        if first is None:
            met.append(i)
            first = i
        out.append(first)
    return out


def _check_charges() -> None:
    """The memo charges each record it keeps for exactly what the record
    holds, its total is the sum of those charges, and it is within budget."""
    store = bounds._store
    for (n, pairs), record in store.records.items():
        items = 2 + n + len(pairs) + sum(2 + len(key) + len(kept.rows or ()) for key, kept in record.classes.items())
        assert record.nbytes == items * bounds._ITEM_BYTES, (n, sorted(pairs))
    assert store.nbytes == sum(record.nbytes for record in store.records.values()) <= bounds._MEMO_BYTES


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
        if ev.bound_id == "B11":  # its own walk sums, the class's rho
            assert ev.lhs.hex() == mine.lhs.hex() and ev.rhs.hex() == theirs.rhs.hex()
            assert (ev.slack, ev.tolerance) == (ev.rhs - ev.lhs, theirs.tolerance)
        else:
            assert _bits(ev) == _bits(theirs)
        if ev.bound_id == "B13":  # a class row that is also the signing's own
            assert _bits(ev) == _bits(mine)
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


def _k6_signings() -> list[SignedGraph]:
    """One signing per switching class of K6: its 2^10 classes are the
    signings of the edges off the BFS star at 0, which stays positive, so
    each signing is its class's canonical one."""
    star = [(0, v, 1) for v in range(1, 6)]
    rest = list(combinations(range(1, 6), 2))
    return [SignedGraph.from_edges(6, star + [(u, v, s) for (u, v), s in zip(rest, signs)])
            for signs in product((1, -1), repeat=10)]


# underlying graphs whose signings the memo tests interleave
_MEMO_SHAPES = [(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)]), (4, list(combinations(range(4), 2))),
                (4, [(0, 1), (1, 2), (0, 2), (2, 3)]), (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])]


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
    def _replay(graphs) -> int:
        """Check one memoised ``evaluate_all`` run over ``graphs`` against
        cold runs; returns how many signings read another's rows."""
        cold = []
        for g in graphs:
            _underlying.cache_clear()
            cold.append(evaluate_all(g))
        _underlying.cache_clear()
        firsts = _first_met(graphs)
        for g, own, first in zip(graphs, cold, firsts):
            _check_rows(evaluate_all(g), own, cold[first])
        _check_charges()
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
        # under another: the class keeps the rows of the last limits met
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
        # the override's rows replaced those filled without it, so the
        # switched graph's rows are its own; the next call reads them back
        assert calls == [1]
        for ev in again:
            if ev.bound_id != "B11":  # B11 reads the class's rho, filled from g
                assert _bits(ev) == _bits(evaluate_bound(switched, ev.bound_id, ev.params)), ev.bound_id
        calls.clear()
        assert [_bits(ev) for ev in evaluate_all(g) if ev.bound_id != "B11"] == [
            _bits(ev) for ev in again if ev.bound_id != "B11"
        ]
        assert calls == []

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
        labels = switching.propagation_labels

        def counted(g, **kw):
            bfs.append(g)
            return labels(g, **kw)

        g = erdos_renyi_signed(n=7, p=0.5, q_neg=0.5, seed=7)
        switched = apply_switching(g, [(-1) ** v for v in range(g.n)])
        key = _canonical_signing(g)[1]
        monkeypatch.setattr(switching, "propagation_labels", counted)
        _underlying.cache_clear()
        for bound_id in ("B2", "B3", "B5", "B10"):
            evaluate_bound(g, bound_id, {"r": 3})
        assert bfs == [] and _underlying.cache_info().currsize == 0
        path = tmp_path / "switched.sg"
        path.write_text(switched.to_sg(), encoding="utf-8")
        assert run_cli(["invariants", str(path)]) == 0
        assert len(bfs) == 1 and bfs[0] == switched
        classes = _underlying(g.n, g.underlying_pairs).classes
        assert list(classes) == [key] and None not in (classes[key].eps, classes[key].clique)
        evaluate_all(g)  # reads the class invariants filled, keyed on the kept forest with no BFS
        assert len(bfs) == 1
        assert list(classes) == [key] and _underlying.cache_info().currsize == 1

    def test_a_small_budget_drops_whole_graphs(self, monkeypatch):
        # K4 plus a pendant edge: 2^7 signings in 2^3 classes, met class by class
        graphs = sorted(all_signings(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]),
                        key=lambda g: sorted(_canonical_signing(g)[1]))
        expected = []
        for g in graphs:
            _underlying.cache_clear()
            expected.append(evaluate_all(g))
        decomposed = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: decomposed.append(1) or eigh(a))
        # room for the record (2 + n + m items) and about k classes of
        # 2 + |key| + 19 items each; a class past that drops the record
        for k in (3, 1):
            monkeypatch.setattr(bounds, "_MEMO_BYTES", (14 + 24 * k) * bounds._ITEM_BYTES)
            _underlying.cache_clear()
            reads = 0  # calls that read kept rows, so decompose nothing
            # these signings decompose to the same bytes, so every row is
            # also the signing's own cold row
            for g, evals in zip(graphs, expected):
                decomposed.clear()
                assert evaluate_all(g) == evals, (k, g.to_sg())
                reads += not decomposed
                _check_charges()
                assert len(_underlying(g.n, g.underlying_pairs).classes) <= k
            assert _underlying.cache_info().misses > 1  # the record was dropped and made again
            assert reads > 0
        assert _underlying.cache_info().currsize == 1

    # every class of K6, each holding the default plan's rows, stays within
    # this many bytes (about 8 KB a class)
    MAX_K6_BYTES = 9 * 2**20

    def test_a_full_memo_stays_within_its_byte_budget(self):
        signings = _k6_signings()
        evaluate_all(SignedGraph.from_edges(6, signings[1].edges))  # module caches other than the memo
        _underlying.cache_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for g in signings:
                evaluate_all(SignedGraph.from_edges(6, g.edges))
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        g = signings[0]
        assert len(_underlying(g.n, g.underlying_pairs).classes) == len(signings) == 1024
        _check_charges()
        assert grown <= self.MAX_K6_BYTES, grown

    def test_calls_with_other_walk_orders_keep_one_row_list(self, c5):
        # 4,000 plans, each a new (rs, qr_pairs); the class keeps the rows of
        # the last one, so the memo stays within 1 MiB however many it meets
        plans = [
            ((1 + i % 8, 1 + i // 8 % 8), ((1, 1 + i // 64 % 8), (3, 1 + i // 512)))
            for i in range(4000)
        ]
        evaluate_all(c5, rs=plans[-1][0], qr_pairs=plans[-1][1])  # module caches other than the memo
        _underlying.cache_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for rs, qr_pairs in plans:
                evaluate_all(c5, rs=rs, qr_pairs=qr_pairs)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        kept = _underlying(c5.n, c5.underlying_pairs).classes
        assert len(kept) == 1 and next(iter(kept.values())).rows_key[-2:] == plans[-1]
        _check_charges()  # each plan's rows refund the last one's
        assert grown <= 2**20, grown


class TestRecentGraphs:
    """The memo keeps the most recently used underlying graphs, each with
    its classes, within ``_MEMO_BYTES``."""

    def test_a_graph_met_again_reads_its_kept_rows(self, monkeypatch):
        g = erdos_renyi_signed(n=7, p=0.5, q_neg=0.5, seed=7)
        switched = apply_switching(g, [(-1) ** v for v in range(g.n)])
        others = [erdos_renyi_signed(n=6, p=0.5, q_neg=0.5, seed=seed) for seed in range(3)] + [paper_c5()]
        cold = []
        for h in (g, switched):
            _underlying.cache_clear()
            cold.append(evaluate_all(h))
        _underlying.cache_clear()
        evaluate_all(g)
        for h in others:  # other underlying graphs in between
            evaluate_all(h)
        calls = []
        eigh, kernel = np.linalg.eigh, invariants._max_switching_form
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append("eigh") or eigh(a))
        monkeypatch.setattr(invariants, "_max_switching_form", lambda *a: calls.append("kernel") or kernel(*a))
        again = evaluate_all(switched)
        assert calls == []
        _check_rows(again, cold[1], cold[0])
        assert _underlying.cache_info().currsize == 1 + len(others)

    @pytest.mark.parametrize("seed", range(3))
    def test_interleaved_calls_match_cold_evaluations(self, seed):
        # signings of a few underlying graphs, met in a seeded order
        rnd = random.Random(seed)
        graphs = [g for shape in _MEMO_SHAPES for g in rnd.sample(list(all_signings(*shape)), 12)]
        rnd.shuffle(graphs)
        _underlying.cache_clear()
        for g in graphs:
            for ev in evaluate_all(g):
                cold = evaluate_bound(g, ev.bound_id, ev.params)
                for name in ("verdict", "hypothesis_met", "note", "params"):
                    assert getattr(ev, name) == getattr(cold, name), (g.to_sg(), ev.bound_id, name)
                for name in ("lhs", "rhs"):  # integers exactly, other floats within roundoff
                    mine, theirs = getattr(ev, name), getattr(cold, name)
                    assert mine == theirs if theirs.is_integer() else math.isclose(mine, theirs, rel_tol=1e-9)
        assert _underlying.cache_info().currsize == len(_MEMO_SHAPES)
        _check_charges()

    def test_a_filled_memo_stays_within_its_budget(self):
        # K6's 1,024 classes, then trees with forests of up to 2,000
        # vertices, then graphs whose rows carry guard notes, then the
        # sweep's small graphs: together far past the budget
        rnd = random.Random(5)
        k6 = _k6_signings()
        trees = [SignedGraph.from_edges(n, [(rnd.randrange(v), v, rnd.choice((1, -1))) for v in range(1, n)])
                 for n in (2000, 1500, 1800, 2000, 1200, 1900, 2000, 1600)]
        guarded = [erdos_renyi_signed(n=n, p=0.3, q_neg=0.5, seed=n) for n in (26, 30, 34)]
        small = [g for seed in range(2) for g in _sweep_strata(seed)]
        evaluate_all(guarded[0])  # module caches other than the memo
        _underlying.cache_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for g in k6 + guarded:
                evaluate_all(g)
            for g in trees:
                bounds._Ctx(g, shared=True)._class
            for g in small:
                evaluate_all(g)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        _check_charges()
        assert _underlying.cache_info().misses > _underlying.cache_info().currsize  # some were dropped
        assert grown <= bounds._MEMO_BYTES, grown

    def test_two_callers_meeting_a_new_class_add_it_once(self, c5):
        # both callers look the class up before either adds it: one adds it
        # and is charged, the other finds it under the lock
        _underlying.cache_clear()
        record = _underlying(c5.n, c5.underlying_pairs)
        barrier, waited = threading.Barrier(2, timeout=10), set()

        class Meeting(dict):
            def get(self, key, default=None):
                value = super().get(key, default)
                if threading.get_ident() not in waited:  # each caller's first look
                    waited.add(threading.get_ident())
                    barrier.wait()
                return value

        record.classes = Meeting()
        found = []
        threads = [threading.Thread(target=lambda: found.append(bounds._Ctx(c5, shared=True)._class)) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert len(found) == 2 and found[0] is found[1] and len(record.classes) == 1
        _check_charges()

    def test_concurrent_callers_charge_each_record_once(self, monkeypatch):
        # threads interleave signings of a few graphs under a budget that
        # drops records as they go; the charges still match the contents
        graphs = [g for shape in _MEMO_SHAPES for g in all_signings(*shape)]
        expected = {}
        for g in graphs:
            _underlying.cache_clear()
            expected[g] = [(ev.verdict, ev.note) for ev in evaluate_all(g)]
        monkeypatch.setattr(bounds, "_MEMO_BYTES", 150 * bounds._ITEM_BYTES)
        _underlying.cache_clear()
        failures = []

        def run(order):
            for g in order:
                if [(ev.verdict, ev.note) for ev in evaluate_all(g)] != expected[g]:
                    failures.append(g)

        # two threads in one order meet each new class together, two in others
        orders = [random.Random(seed).sample(graphs, len(graphs)) for seed in (0, 0, 1, 2)]
        threads = [threading.Thread(target=run, args=(order,)) for order in orders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside the memo's steps too
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        _check_charges()


@st.composite
def underlying_shapes(draw, max_n: int = 7, max_m: int = 5) -> tuple[int, list]:
    """An underlying graph of at most ``max_m`` edges, so at most 2^max_m
    signings: n = 1 and m = 0, isolated vertices and several components
    among them."""
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=max_m)) if pairs else []
    return n, sorted(chosen)


def _signings(shape, rnd) -> list[SignedGraph]:
    """Every signing of ``shape``, in the order ``rnd`` shuffles them to."""
    graphs = list(all_signings(*shape))
    rnd.shuffle(graphs)
    return graphs


class TestKnownUnderlyingGraph:
    """A signing of an underlying graph the memo holds keys its class on the
    kept spanning forest and copies its class's kept rows."""

    @given(underlying_shapes(), st.randoms(use_true_random=False))
    @example((1, []), random.Random(0))
    @example((7, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)]), random.Random(1))
    @settings(max_examples=60, deadline=None)
    def test_the_key_is_the_bfs_key_with_no_bfs(self, shape, rnd):
        graphs = _signings(shape, rnd)
        # each key from a BFS on a copy, so the graphs read build nothing yet
        keys = [_canonical_signing(g)[1] for g in (SignedGraph.from_edges(h.n, h.edges) for h in graphs)]
        bfs, built = [], []
        adjacency = SignedGraph._signed_adjacency

        def counted(g):
            built.append(g)
            return adjacency.compute(g)

        _underlying.cache_clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(switching, "propagation_labels", lambda g, **kw: bfs.append(g) or propagation_labels(g, **kw))
            replacement = graph._memo(counted)
            replacement.__set_name__(SignedGraph, "_signed_adjacency")
            mp.setattr(SignedGraph, "_signed_adjacency", replacement)
            for g, key in zip(graphs, keys):
                ctx = bounds._Ctx(g, shared=True)
                assert ctx._class is _underlying(g.n, g.underlying_pairs).classes[key], g.to_sg()
            assert bfs == built == graphs[:1]
            for g in graphs:  # fills each class's rows
                evaluate_all(g)
            assert bfs == graphs[:1]
            # evaluate_all on a class whose rows it holds runs no BFS and
            # builds no adjacency tuples
            built.clear()
            for g in (SignedGraph.from_edges(h.n, h.edges) for h in graphs):
                evaluate_all(g)
            assert bfs == graphs[:1] and built == []

    @staticmethod
    def _census_or_overflow(read, r):
        try:
            return read(r)
        except OverflowError as exc:
            return str(exc)

    @staticmethod
    def _walk_sums(g, r):
        census = walk_census(g, r)
        return census.w_total, census.w_signed

    def _check_walks(self, first, second, r0, orders):
        """``_Ctx.walks`` of ``second`` against ``walk_census`` at every
        order, after a context of ``first`` read order ``r0``."""
        for shared in (True, False):
            _underlying.cache_clear()
            one = bounds._Ctx(first, shared=shared)
            self._census_or_overflow(one.walks, r0)
            # a shared context shares ``one``'s record; another keeps its own
            two = bounds._Ctx(second, shared=shared)
            assert (two._underlying_values is one._underlying_values) == shared
            for r in orders:
                mine = self._census_or_overflow(two.walks, r)
                assert mine == self._census_or_overflow(lambda r: self._walk_sums(second, r), r), (second.to_sg(), r)

    @given(signed_graphs(max_n=8), st.integers(1, 130), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_walks_on_the_kept_unsigned_sums(self, g, r0, rnd):
        h = SignedGraph.from_edges(g.n, [(u, v, rnd.choice((1, -1))) for u, v, _ in g.edges])
        orders = list(range(1, 131))
        rnd.shuffle(orders)
        self._check_walks(g, h, r0, orders)

    @pytest.mark.parametrize("r0", (1, 4, 16, 17, 123, 124, 130))
    def test_walks_at_the_overflow_orders(self, r0):
        # P3 leaves 64 bits at order 124 and K14 at 16; a graph of degree at
        # most 1 never does, and past 125 repeats with period 2
        p3 = [(0, 1), (1, 2)]
        k14 = list(combinations(range(14), 2))
        matching = [(0, 3), (1, 4)]
        for n, pairs in ((3, p3), (14, k14), (6, matching)):
            first = SignedGraph.from_edges(n, [(u, v, -1) for u, v in pairs])
            second = SignedGraph.from_edges(n, [(u, v, (-1) ** (u + v)) for u, v in pairs])
            self._check_walks(first, second, r0, [*range(1, 131), 10**9, 10**9 + 1, 15, 16, 17, 123, 124])

    @given(underlying_shapes(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_copied_rows_share_no_params(self, shape, rnd):
        _underlying.cache_clear()
        results = [evaluate_all(g) for g in _signings(shape, rnd) * 2]
        rows = [ev for evals in results for ev in evals]
        assert len({id(ev.params) for ev in rows}) == len(rows)
        assert all(type(ev.params) is dict for ev in rows)
        assert all([ev.params for ev in evals] == [p for _, p in _plan()] for evals in results)

    @given(underlying_shapes(max_n=6, max_m=4), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_another_plan_in_a_known_class_gets_its_own_rows(self, shape, rnd):
        # every class holds the default plan's rows; another plan, run over
        # the signings in reverse, keeps its own rows per class: those of the
        # first signing it meets there, from that signing's own eigenvalues
        rs, qr_pairs = (2, 5, 2), ((3, 2), (1, 1))
        plan = _plan(rs, qr_pairs)
        graphs = _signings(shape, rnd)
        _underlying.cache_clear()
        for g in graphs:
            evaluate_all(g)
        again = graphs[::-1]
        for g, first in zip(again, _first_met(again)):
            other = evaluate_all(g, rs=rs, qr_pairs=qr_pairs)
            assert [(ev.bound_id, ev.params) for ev in other] == plan
            for ev, (bound_id, params) in zip(other, plan):
                mine = evaluate_bound(g, bound_id, params)
                if bound_id == "B11":  # its own walk sums, the class's rho
                    assert ev.lhs.hex() == mine.lhs.hex(), g.to_sg()
                else:
                    assert _bits(ev) == _bits(evaluate_bound(again[first], bound_id, params)), (g.to_sg(), bound_id)
                assert (ev.verdict, ev.hypothesis_met, ev.note) == (mine.verdict, mine.hypothesis_met, mine.note)


    def test_another_plan_reads_the_signings_own_eigenvalues(self):
        # evaluate_all fills the class from g under the default plan; another
        # plan on a switching h of g returns h's own cold rows but B11's, bit
        # for bit, where the default plan on h hands out some of g's rows
        rs, qr_pairs = (2, 3), ((1, 1),)
        moved = 0
        for g in random_graphs(40, max_n=9, seed=91, p=(0.5,), q=(0.5,)):
            rng = random.Random(g.to_sg())
            h = apply_switching(g, [rng.choice((1, -1)) for _ in range(g.n)])
            _underlying.cache_clear()
            evaluate_all(g)
            for ev in evaluate_all(h, rs=rs, qr_pairs=qr_pairs):
                if ev.bound_id != "B11":
                    assert _bits(ev) == _bits(evaluate_bound(h, ev.bound_id, ev.params)), (g.to_sg(), ev.bound_id)
            cold = [_bits(evaluate_bound(h, *item)) for item in _plan()]
            moved += sum(map(tuple.__ne__, map(_bits, evaluate_all(h)), cold))
        assert moved > 0


def _complete_multipartite(*parts: int) -> SignedGraph:
    """The all-positive complete multipartite graph with parts of these sizes."""
    part = [i for i, size in enumerate(parts) for _ in range(size)]
    pairs = combinations(range(len(part)), 2)
    return SignedGraph.from_edges(len(part), [(u, v, 1) for u, v in pairs if part[u] != part[v]])


_TURAN_ROWS = ("B1", "B2", "B5", "B10", "B11", "B13")
_CLIQUE_ROWS = ("B1", "B2", "B5", "B6", "B7", "B10", "B11", "B13")
_BIPARTITE_ROWS = ("B1", "B2", "B3", "B4", "B5", "B8", "B9", "B10", "B11", "B12", "B13", "B14")

#: each all-positive family, and its rows that hold with equality: a bound
#: id (every one of its rows) or a bound id and params
EQUALITY_FAMILIES = {
    **{f"K_{n}": (_complete_multipartite(*(1,) * n), _CLIQUE_ROWS) for n in range(3, 13)},
    **{f"K_{{{a},{a}}}": (_complete_multipartite(a, a), _BIPARTITE_ROWS) for a in range(2, 7)},
    "K_{2,4}": (
        _complete_multipartite(2, 4),
        ("B2", "B3", "B8", "B9", ("B10", {"r": 2}), ("B11", {"q": 1, "r": 2}), "B12", "B13", "B14"),
    ),
    "T(6, 3)": (_complete_multipartite(2, 2, 2), _TURAN_ROWS),
    "T(8, 4)": (_complete_multipartite(2, 2, 2, 2), _TURAN_ROWS),
    "C_6": (signed_cycle(6), ("B11",)),  # w_k = 6 * 2^(k-1) and rho = 2
}


def _check_tight(g: SignedGraph, specs, skip: tuple[str, ...] = ()) -> None:
    """Each row that ``specs`` names, but those of the bounds in ``skip``,
    holds with |slack| within its tolerance, on rows that ``g`` computes
    itself, not rows kept for another signing."""
    _underlying.cache_clear()
    evals = evaluate_all(g)
    for spec in specs:
        bound_id, params = spec if isinstance(spec, tuple) else (spec, {})
        if bound_id in skip:
            continue
        rows = [ev for ev in evals if ev.bound_id == bound_id and params.items() <= ev.params.items()]
        assert rows, spec
        for ev in rows:
            assert ev.verdict == "holds" and abs(ev.slack) <= ev.tolerance, (g.to_sg(), ev)


class TestEqualityFamilies:
    """A right side that is too loose passes criterion 03 and the golden
    rows; on a family where its bound is tight it leaves the tolerance."""

    @pytest.mark.parametrize("family", EQUALITY_FAMILIES)
    def test_rows_hold_with_equality(self, family):
        _check_tight(*EQUALITY_FAMILIES[family])

    @pytest.mark.parametrize("family", EQUALITY_FAMILIES)
    def test_switchings_keep_every_row_but_b11_tight(self, family):
        # B11's walk counts are those of the signing, not of the class
        g, specs = EQUALITY_FAMILIES[family]
        rng = random.Random(family)
        for _ in range(5):
            h = apply_switching(g, [rng.choice((1, -1)) for _ in range(g.n)])
            _check_tight(h, specs, skip=("B11",))

    def test_a_looser_b7_constant_is_caught(self, monkeypatch):
        # B7 with its constant 1/2 cut to 1/4 still holds everywhere, so
        # criterion 03 passes it; every family tight on B7 catches it
        info = bounds.REGISTRY["B7"]

        def mutant(ctx, p):
            hyp, lhs, rhs, note, verdict = info.evaluator(ctx, p)
            return hyp, lhs, rhs + 0.25, note, verdict

        monkeypatch.setitem(bounds.REGISTRY, "B7", dataclasses.replace(info, evaluator=mutant))
        tight = [g for g, specs in EQUALITY_FAMILIES.values() if "B7" in specs]
        assert len(tight) == 10
        try:
            for g in tight:
                with pytest.raises(AssertionError):
                    _check_tight(g, ("B7",))
                _underlying.cache_clear()
                assert all(ev.verdict == "holds" for ev in evaluate_all(g) if ev.bound_id == "B7"), g
        finally:
            _underlying.cache_clear()  # no record keeps the mutant's rows


def _check_b13_witness(g: SignedGraph) -> None:
    """B13 of ``evaluate_all`` reads the exact witness value: its integer
    sides are the floats of the exact Fractions.  Seeded restarts on the l1
    sphere stay at or below it but for roundoff."""
    b13 = next(ev for ev in evaluate_all(g) if ev.bound_id == "B13")
    witness = spectral._clique_value(g, invariants._max_balanced_clique(g))
    assert b13.lhs == float(witness) == b13.rhs == float(ms_index(g)), g.to_sg()
    assert b13.slack == 0.0 and b13.verdict == "holds", g.to_sg()
    assert ms_restarts(g, iters=2, seed=0) <= b13.rhs + 1e-12, g.to_sg()


class TestB13PerClass:
    """B13's row is kept per switching class: within a class it is the same
    to the last bit, and it is each signing's own cold row."""

    B13 = ("B13", {"iters": 2, "seed": 0})

    @staticmethod
    def _row(evals) -> tuple:
        return _bits(next(ev for ev in evals if ev.bound_id == "B13"))

    def test_every_signing_of_the_sweep_strata(self):
        graphs = [g for seed in range(4) for g in _sweep_strata(seed)]
        _underlying.cache_clear()
        rows = [self._row(evaluate_all(g)) for g in graphs]
        for g, row, first in zip(graphs, rows, _first_met(graphs)):
            assert row == rows[first], g.to_sg()
            assert row == _bits(evaluate_bound(g, *self.B13)), g.to_sg()

    @given(signed_graphs(max_n=9), st.lists(st.sampled_from((1, -1)), min_size=9, max_size=9))
    @settings(max_examples=100, deadline=None)
    def test_switchings(self, g, eta):
        h = apply_switching(g, eta[: g.n])
        cold = _bits(evaluate_bound(h, *self.B13))
        _underlying.cache_clear()
        assert self._row(evaluate_all(g)) == _bits(evaluate_bound(g, *self.B13)) == cold
        assert self._row(evaluate_all(h)) == cold, (g.to_sg(), eta)


class TestB13Witness:
    def test_sweep_strata(self):
        for seed in range(2):
            for g in _sweep_strata(seed):
                _check_b13_witness(g)

    def test_seeded_gnp(self):
        for g in random_graphs(60, max_n=12, seed=30, p=(0.3, 0.6, 0.9), q=(0.0, 0.5, 1.0)):
            _check_b13_witness(g)

    @given(signed_graphs(max_n=9))
    @settings(max_examples=150, deadline=None)
    def test_random_graphs(self, g):
        _check_b13_witness(g)

    @pytest.mark.parametrize("reworded", [False, True])
    @pytest.mark.parametrize("edges, members, lhs, rhs, note", [
        # labels (1, 1, -1), pair sum 1: 1/9 against 2/6
        ([(0, 1, 1)], (0, 1, 2), 1 / 9, 1 / 3, "witness value 1/9 does not attain the closed form 1/3"),
        # labels (1, 1, 1, -1), pair sum 2: 2/16 against 3/8
        ([(0, 1, 1), (0, 2, 1)], (0, 1, 2, 3), 1 / 8, 3 / 8,
         "witness value 1/8 does not attain the closed form 3/8"),
    ])
    def test_a_witness_that_misses_is_violated(self, monkeypatch, edges, members, lhs, rhs, note, reworded):
        # a search that returned a non-clique: the cold row and the kept-row
        # copies name its value and the closed form in lowest terms, and the
        # verdict stays when the note is reworded
        n = len(members)
        g = SignedGraph.from_edges(n, edges)
        fake = (n, members, invariants._clique_labels(g, members))
        monkeypatch.setattr(bounds, "_max_balanced_clique", lambda g, force=False: fake)
        if reworded:
            _reword_notes(monkeypatch)
            note = "reworded"
        switched = apply_switching(g, [-1] + [1] * (n - 1))  # g is a forest: one class
        try:
            _underlying.cache_clear()
            rows = [evaluate_bound(g, *TestB13PerClass.B13)]
            rows += [next(ev for ev in evaluate_all(h) if ev.bound_id == "B13") for h in (g, g, switched)]
            for row in rows:
                assert (row.verdict, row.hypothesis_met, row.note) == ("violated", True, note)
                assert (row.lhs, row.rhs, row.slack) == (lhs, rhs, rhs - lhs)
            assert all(_bits(row) == _bits(rows[0]) for row in rows)
        finally:
            _underlying.cache_clear()  # no record keeps the fake clique


def _reword_notes(monkeypatch) -> None:
    """Every registry entry with its evaluator's note replaced by "reworded"."""
    def reworded(evaluator):
        def evaluate(ctx, p):
            hyp, lhs, rhs, _, verdict = evaluator(ctx, p)
            return hyp, lhs, rhs, "reworded", verdict
        return evaluate

    for bound_id, info in list(bounds.REGISTRY.items()):
        monkeypatch.setitem(bounds.REGISTRY, bound_id, dataclasses.replace(info, evaluator=reworded(info.evaluator)))


def _recomputed_verdict(ctx: bounds._Ctx, ev: BoundEvaluation) -> str:
    """``ev``'s verdict from its evaluator's own verdict, then its hypothesis,
    then its sides against its tolerance; a guard or a walk overflow skips."""
    try:
        own = bounds.REGISTRY[ev.bound_id].evaluator(ctx, ev.params)[4]
    except (TooLargeError, OverflowError):
        return "skipped"
    assert ev.tolerance == 1e-8 * max(1.0, abs(ev.rhs)), ev
    if own is not None:
        return own
    if not ev.hypothesis_met:
        return "hypothesis_not_met"
    return "holds" if ev.lhs <= ev.rhs + ev.tolerance else "violated"


class TestVerdictRule:
    """A verdict is the evaluator's own, then the hypothesis, then the
    tolerance rule; no note is read."""

    def test_reworded_notes_change_no_verdict(self, monkeypatch, c5):
        # C4 with alternating signs has w_3 = 0, so B11 at q = 3 skips
        cases = [(c5, {}), (signed_cycle(4, negative_edges=(1, 3)), {"qr_pairs": ((3, 1),)})]

        def rows(g, plan):
            _underlying.cache_clear()
            evals = evaluate_all(g, **plan)
            return evals + [evaluate_bound(g, ev.bound_id, ev.params) for ev in evals]

        before = [rows(g, plan) for g, plan in cases]
        _reword_notes(monkeypatch)
        try:
            after = [rows(g, plan) for g, plan in cases]
        finally:
            _underlying.cache_clear()  # no record keeps the reworded rows
        assert {ev.verdict for evals in before for ev in evals} == {
            "holds", "violated", "hypothesis_not_met", "skipped"
        }
        for old, new in zip(before, after):
            assert [ev.verdict for ev in new] == [ev.verdict for ev in old]
            assert all(ev.note == "reworded" for ev in new)

    @pytest.mark.parametrize("max_n", [None, "4"])
    def test_every_verdict_follows_from_the_outcome(self, monkeypatch, c5, max_n):
        if max_n is not None:
            monkeypatch.setenv("SIGNED_SPECTRA_MAX_N", max_n)
        cases = [(g, {}) for g in random_graphs(40, max_n=8, seed=23, q=(0.0, 0.5, 1.0))]
        cases += [(c5, {}), (signed_cycle(4, negative_edges=(1, 3)), {})]
        cases += [(all_negative_complete(14), {"rs": (2, 60), "qr_pairs": ((1, 60),)})]  # walks overflow
        verdicts = set()
        for g, plan in cases:
            ctx = bounds._Ctx(g)
            for ev in evaluate_all(g, **plan):
                assert ev.verdict == _recomputed_verdict(ctx, ev), (g.to_sg(), ev)
                verdicts.add(ev.verdict)
        assert verdicts == {"holds", "violated", "hypothesis_not_met", "skipped"}


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
        monkeypatch.setattr(bounds, "_canonical_signing", lambda *a, **k: pytest.fail("class key"))
        ctx = bounds._Ctx(SignedGraph.from_edges(41, [(0, 1, -1)]), shared=True)
        for read in (lambda: ctx.eps, lambda: ctx.eps_b, lambda: ctx.clique, lambda: ctx.eps_r(3)):
            with pytest.raises(TooLargeError):
                read()

    def test_a_bad_walk_order_is_invalid_at_any_n(self):
        # eps_r checks r >= 1 before its guard, as r_frustration_index does
        for n in (5, 30):
            g = erdos_renyi_signed(n=n, p=0.5, q_neg=0.5, seed=n)
            for read in (lambda: bounds._Ctx(g).eps_r(0), lambda: r_frustration_index(g, 0)):
                with pytest.raises(InvalidParamsError):
                    read()

    def test_no_class_key_or_adjacency_past_the_dense_guard(self, monkeypatch):
        # past MATRIX_MAX_N no eigenvalue row can be computed, so evaluate_all
        # keys no class (an O(n) BFS), builds no O(n) adjacency tuples, and
        # checks each row's guard before its O(n) triangle census or walks
        g = SignedGraph.from_edges(10**6, [(0, 1, -1)])
        monkeypatch.setattr(bounds, "_canonical_signing", lambda *a, **k: pytest.fail("class key"))
        monkeypatch.setattr(bounds, "triangle_census", lambda *a, **k: pytest.fail("triangle census"))
        monkeypatch.setattr(bounds, "_walk_sums", lambda *a, **k: pytest.fail("walk sums"))
        adjacency = property(lambda g: pytest.fail("adjacency tuples"))
        monkeypatch.setattr(SignedGraph, "_signed_adjacency", adjacency)
        assert not bounds._Ctx(g, shared=True)._shared
        rows = evaluate_all(g)
        assert len(rows) == 19 and {row.verdict for row in rows} == {"skipped"}
        assert {row.note for row in rows} == {
            "skipped: adjacency matrix guard: n=1000000 exceeds 2048",
            *(f"skipped: {name}: n=1000000 exceeds the exact-computation guard {limit} "
              "(pass force=True or set SIGNED_SPECTRA_MAX_N to override)"
              for name, limit in (("frustration_index_exact", 25), ("r_frustration_index", 20),
                                  ("balanced_clique_number", 40))),
        }

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


def _assert_like_constructed(value) -> None:
    """``value``, a frozen dataclass instance the package built without its
    constructor, behaves as the constructor's: equal, the same repr and
    fields in the same order, ``replace``, ``asdict`` and pickling work, and
    every field stays frozen."""
    names = [f.name for f in dataclasses.fields(value)]
    made = type(value)(**{name: getattr(value, name) for name in names})
    assert value == made and repr(value) == repr(made)
    assert list(vars(value)) == names == list(vars(made))
    assert dataclasses.replace(value) == made == pickle.loads(pickle.dumps(value))
    assert dataclasses.asdict(value) == dataclasses.asdict(made)
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, getattr(value, name))


class TestBuiltValues:
    """Rows skip the frozen constructor; each must still be the value the
    constructor would make, as a walk census is."""

    @given(signed_graphs(max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_rows_and_censuses_equal_constructed_ones(self, g):
        _underlying.cache_clear()
        fresh, kept = evaluate_all(g), evaluate_all(g)  # the second copies kept rows
        cold = [evaluate_bound(g, bound_id, params) for bound_id, params in _plan()]
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("SIGNED_SPECTRA_MAX_N", "2")
            guarded = evaluate_all(g)
        skipped = [row for row in guarded if "exceeds the exact-computation guard" in row.note]
        assert bool(skipped) == (g.n > 2)
        for row in fresh + kept + cold + guarded:
            _assert_like_constructed(row)
        for r in (1, 2, 3, 5, 126):
            with contextlib.suppress(OverflowError):  # r = 126 on a graph with a 2-path
                _assert_like_constructed(walk_census(g, r))


class TestPlan:
    """``evaluate_all``'s row plans: short ones are kept, long ones are
    built per call and leave nothing behind."""

    def test_default_and_cli_plans_are_kept(self, c5):
        bounds._kept_plan.cache_clear()
        evaluate_all(c5)
        evaluate_all(c5, rs=(3,), qr_pairs=((2, 3),))  # what ``bounds --q 2 --r 3`` asks for
        evaluate_all(c5)
        assert bounds._kept_plan.cache_info()[:2] == (1, 2)  # hits, misses
        assert len(bounds._plan(DEFAULT_B10_RS, DEFAULT_B11_QRS)) == 19

    def test_a_long_plan_is_not_kept(self, c5):
        # 2,001 walk orders make a plan of about 0.6 MB: kept per key, as
        # by an entry-bounded cache, each such call would leave its own
        evaluate_all(c5, rs=(1, 2))  # module state that any call sets up
        _underlying.cache_clear()
        tracemalloc.start()
        try:
            for k in (1, 2):
                assert len(evaluate_all(c5, rs=tuple(range(k, 2_002 + k)))) == 2_018
                _underlying.cache_clear()
                gc.collect()  # the skipped rows' exceptions sit in cycles
            left = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert left < 64 * 1024


class TestMemo:
    """``_Ctx``'s values are ``_memo``s: computed once per context, nothing
    stored by a read that raises, and an instance assignment wins."""

    NAMES = tuple(name for name, attr in vars(bounds._Ctx).items() if isinstance(attr, bounds._memo))

    @pytest.fixture
    def computes(self, monkeypatch):
        counts: dict[str, int] = {}
        for name in self.NAMES:
            memo = vars(bounds._Ctx)[name]

            def counted(ctx, name=name, compute=memo.compute):
                counts[name] = counts.get(name, 0) + 1
                return compute(ctx)

            monkeypatch.setattr(memo, "compute", counted)
        return counts

    @pytest.mark.parametrize("shared", (False, True))
    def test_each_value_is_computed_once_per_context(self, computes, c5, shared):
        assert len(self.NAMES) == 15
        _underlying.cache_clear()
        ctx = bounds._Ctx(c5, shared=shared)
        first = {name: getattr(ctx, name) for name in self.NAMES}
        for name in self.NAMES:
            assert getattr(ctx, name) is first[name]
        assert computes == dict.fromkeys(self.NAMES, 1)

    def test_a_read_past_its_guard_stores_nothing(self, computes):
        ctx = bounds._Ctx(SignedGraph.from_edges(26, [(0, 1, -1)]))
        for _ in range(3):
            with pytest.raises(TooLargeError):
                ctx.eps
        assert computes["eps"] == 3 and "eps" not in vars(ctx)
        assert ctx.omega_b == ctx.omega_b == 2 and computes["clique"] == 1  # its guard is 40

    def test_an_assignment_wins(self, monkeypatch, c5):
        monkeypatch.setattr(bounds, "_eigenvalues", lambda a: pytest.fail("decomposed"))
        ctx = bounds._Ctx(c5)
        vals = np.array([3.0, 2.0, -1.0, -1.5, -2.5])
        ctx.eigenvalues = vals
        assert ctx.eigenvalues is vals
        assert (ctx.lambda1, ctx.lambda2, ctx.lambda_n, ctx.rho) == (3.0, 2.0, -2.5, 3.0)


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
