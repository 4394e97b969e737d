"""Frustration, bipartiteness, balanced cliques, triangle and walk censuses."""

import random
from dataclasses import replace
from itertools import islice, product

import numpy as np
import pytest
from hypothesis import given, settings

from signed_spectra import invariants
from signed_spectra import (
    InvalidParamsError,
    SignedGraph,
    Switching,
    TooLargeError,
    all_negative,
    all_negative_complete,
    apply_switching,
    balanced_clique_number,
    edge_bipartiteness,
    erdos_renyi_signed,
    frustration_index_exact,
    frustration_index_upper,
    paper_c5,
    r_frustration_index,
    signed_cycle,
    triangle_census,
    walk_census,
)
from signed_spectra.bounds import _Ctx

from .conftest import random_graphs, signed_graphs
from .oracles import (
    brute_balanced_clique,
    deletion_frustration,
    enumerate_walks,
    frustration_upper_by_recount,
    greedy_balanced_clique_full_scan,
    min_negative_walks,
    walk_sums_by_matrix_power,
)


def k4_underlying(sign: int = 1) -> SignedGraph:
    return all_negative_complete(4) if sign < 0 else all_negative_complete(4).with_all_signs(1)


def switching_min_negative_edges(g: SignedGraph) -> int:
    """Least negative-edge count over the switchings, by plain enumeration."""
    return min(
        sum(1 for u, v, s in g.edges if x[u] * s * x[v] < 0)
        for x in ((1,) + bits for bits in product((1, -1), repeat=g.n - 1))
    )


#: Orders for the switching kernel: n = 1 leaves the H half empty, the rest
#: mix even and odd orders.
KERNEL_ORDERS = (1, 2, 3, 4, 5, 8, 9, 12, 13)


def kernel_graphs(n: int) -> list[SignedGraph]:
    return [
        erdos_renyi_signed(n=n, p=p, q_neg=0.5, seed=10 * n + i)
        for i, p in enumerate((0.3, 0.6, 1.0))
    ]


class TestFrustrationIndex:
    def test_all_positive_graph(self):
        g = SignedGraph.from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
        assert frustration_index_exact(g) == 0

    def test_paper_c5(self, c5):
        assert frustration_index_exact(c5) == 1

    def test_all_negative_k4(self):
        # frozen from the deletion oracle: two deletions leave a balanced C4
        assert frustration_index_exact(all_negative_complete(4)) == 2
        assert deletion_frustration(all_negative_complete(4)) == 2

    def test_guard(self):
        with pytest.raises(TooLargeError):
            frustration_index_exact(SignedGraph(26))

    def test_guard_env_override(self, monkeypatch):
        monkeypatch.setenv("SIGNED_SPECTRA_MAX_N", "30")
        assert frustration_index_exact(SignedGraph(26)) == 0
        monkeypatch.setenv("SIGNED_SPECTRA_MAX_N", "3")
        with pytest.raises(TooLargeError):
            frustration_index_exact(SignedGraph(4))

    def test_force_bypasses_guard(self):
        assert frustration_index_exact(SignedGraph(26), force=True) == 0

    def test_matches_deletion_oracle_on_corpus(self):
        for g in random_graphs(60, max_n=8, seed=41):
            assert frustration_index_exact(g) == deletion_frustration(g), g.to_sg()

    @given(signed_graphs(max_n=7))
    @settings(max_examples=60, deadline=None)
    def test_matches_deletion_oracle_property(self, g):
        assert frustration_index_exact(g) == deletion_frustration(g)

    @pytest.mark.parametrize("n", KERNEL_ORDERS)
    def test_kernel_matches_enumeration_with_certificate(self, n):
        for g in kernel_graphs(n):
            eps = frustration_index_exact(g)
            assert eps == switching_min_negative_edges(g), g.to_sg()
            best, x = invariants._max_switching_form(invariants._signed_matrix(g), 2 * g.m)
            assert x[0] == 1 and len(x) == n
            assert best == 2 * (g.m - 2 * eps)
            assert apply_switching(g, Switching(x)).m_minus == eps

    @pytest.mark.parametrize("n", (2, 5, 8, 9))
    def test_block_size_does_not_change_result(self, n, monkeypatch):
        graphs = kernel_graphs(n)
        expected = [frustration_index_exact(g) for g in graphs]
        monkeypatch.setattr(invariants, "_BLOCK_ENTRIES", 2)
        assert [frustration_index_exact(g) for g in graphs] == expected

    def test_blocks_tiled_on_both_axes(self, monkeypatch):
        # at n = 20 the left table has 2^9 rows and the right one 2^10 columns:
        # 2^20 entries take them in one block, 2^9 in blocks of 2^8 rows by 2
        # columns, and the default 2^15 in blocks of 2^8 rows by 2^7 columns
        graphs = kernel_graphs(20)
        monkeypatch.setattr(invariants, "_BLOCK_ENTRIES", 2**20)
        expected = [frustration_index_exact(g) for g in graphs]
        for entries in (2**9, 2**15):
            monkeypatch.setattr(invariants, "_BLOCK_ENTRIES", entries)
            assert [frustration_index_exact(g) for g in graphs] == expected

    def test_kernel_on_one_vertex(self):
        # the H half is empty: one switching, one value
        assert invariants._max_switching_form(np.zeros((1, 1), dtype=np.int64), 0) == (0, (1,))


class TestFrustrationUpper:
    def test_balanced_graph_reaches_zero(self):
        g = signed_cycle(4, negative_edges=(0, 1, 2, 3))
        assert frustration_index_upper(g, iters=1, seed=0) == 0

    def test_paper_c5(self, c5):
        assert frustration_index_upper(c5, iters=10, seed=0) == 1

    def test_never_below_exact(self):
        for g in random_graphs(40, max_n=9, seed=7):
            upper = frustration_index_upper(g, iters=5, seed=3)
            assert upper >= frustration_index_exact(g)

    def test_iters_validated(self, c5):
        with pytest.raises(InvalidParamsError):
            frustration_index_upper(c5, iters=0)

    def test_matches_full_recount(self):
        # incremental counts must follow the recounting search step for step
        for g in random_graphs(60, max_n=30, seed=41, p=(0.1, 0.3, 0.6), q=(0.3, 0.5)):
            for iters, seed in ((1, 0), (7, 3), (30, 11)):
                assert frustration_index_upper(g, iters=iters, seed=seed) == (
                    frustration_upper_by_recount(g, iters=iters, seed=seed)
                )

    @staticmethod
    def past_the_guard() -> list[SignedGraph]:
        """Seeded graphs with n = 26..45 and their all-negative signings, as
        the CLI's fallback sees them for eps and eps_b."""
        graphs = [
            erdos_renyi_signed(n=n, p=(0.1, 0.2, 0.3)[n % 3], q_neg=0.5, seed=n)
            for n in range(26, 46)
        ]
        return graphs + [all_negative(g) for g in graphs[::4]]

    def test_matches_recount_at_cli_settings(self):
        for g in self.past_the_guard():
            assert frustration_index_upper(g, iters=200, seed=0) == (
                frustration_upper_by_recount(g, iters=200, seed=0)
            ), g.to_sg()

    @pytest.mark.parametrize("rows", (1, 3))
    def test_block_size_does_not_change_result(self, rows, monkeypatch):
        graphs = self.past_the_guard()[::5]
        expected = [frustration_upper_by_recount(g, iters=200, seed=0) for g in graphs]
        for g, value in zip(graphs, expected):
            monkeypatch.setattr(invariants, "_BLOCK_ENTRIES", rows * g.n + g.n - 1)
            assert frustration_index_upper(g, iters=200, seed=0) == value, g.to_sg()

    def test_balanced_graph_returns_before_any_restart(self, monkeypatch):
        g = erdos_renyi_signed(n=30, p=0.3, q_neg=0.0, seed=3)
        g = apply_switching(g, tuple((1, -1)[v % 3 == 0] for v in range(g.n)))
        assert g.m_minus > 0

        def no_draw(rng, k):
            raise AssertionError("a restart was drawn")

        monkeypatch.setattr(invariants, "_choice_signs", no_draw)
        assert frustration_index_upper(g, iters=200, seed=0) == 0

    def test_edgeless_and_isolated_vertices(self):
        assert frustration_index_upper(SignedGraph(30), iters=200, seed=0) == 0
        assert frustration_index_upper(SignedGraph(0), iters=1, seed=0) == 0
        core = erdos_renyi_signed(n=12, p=0.5, q_neg=0.5, seed=12)
        g = SignedGraph.from_edges(30, [(u + 9, v + 9, s) for u, v, s in core.edges])
        for h in (g, all_negative(g)):
            assert frustration_index_upper(h, iters=200, seed=0) == (
                frustration_upper_by_recount(h, iters=200, seed=0)
            )


class TestChoiceSigns:
    @pytest.mark.parametrize("k", (0, 1, 7, 8000))
    def test_matches_choice_loop(self, k):
        rng, loop = random.Random(k), random.Random(k)
        drawn = invariants._choice_signs(rng, k)
        assert drawn.dtype == np.int64
        assert drawn.tolist() == [loop.choice((1, -1)) for _ in range(k)]
        assert rng.getstate() == loop.getstate()

    def test_blocks_continue_one_stream(self):
        rng, loop = random.Random(5), random.Random(5)
        sizes = (3, 40, 1, 0, 200)
        drawn = np.concatenate([invariants._choice_signs(rng, k) for k in sizes])
        assert drawn.tolist() == [loop.choice((1, -1)) for _ in range(sum(sizes))]
        assert rng.getstate() == loop.getstate()


class TestEdgeBipartiteness:
    def test_c4_already_bipartite(self):
        g = signed_cycle(4)
        assert edge_bipartiteness(g) == 0

    def test_triangle_needs_one(self):
        g = all_negative_complete(3)
        assert edge_bipartiteness(g) == 1

    def test_k4_needs_two(self):
        assert edge_bipartiteness(k4_underlying()) == 2

    def test_sign_independent(self, c5):
        assert edge_bipartiteness(c5) == edge_bipartiteness(c5.with_all_signs(1)) == 1

    @pytest.mark.parametrize("n", KERNEL_ORDERS)
    def test_matches_enumeration(self, n):
        for g in kernel_graphs(n):
            assert edge_bipartiteness(g) == switching_min_negative_edges(g.with_all_signs(-1))


class TestBalancedClique:
    def test_all_negative_triangle(self):
        assert balanced_clique_number(all_negative_complete(3)) == 2

    def test_paper_c5(self, c5):
        assert balanced_clique_number(c5) == 2

    def test_all_positive_k5(self):
        assert balanced_clique_number(all_negative_complete(5).with_all_signs(1)) == 5

    def test_edgeless_is_one(self):
        assert balanced_clique_number(SignedGraph(4)) == 1

    def test_empty_graph_rejected(self):
        with pytest.raises(InvalidParamsError):
            balanced_clique_number(SignedGraph(0))
        with pytest.raises(InvalidParamsError):
            invariants.greedy_balanced_clique(SignedGraph(0))

    def test_guard(self):
        with pytest.raises(TooLargeError):
            balanced_clique_number(SignedGraph(41))

    def test_matches_subset_oracle_on_corpus(self):
        for g in random_graphs(60, max_n=9, seed=43, p=(0.4, 0.7)):
            assert balanced_clique_number(g) == brute_balanced_clique(g), g.to_sg()


class TestGreedyBalancedClique:
    """The heuristic past ``CLIQUE_MAX_N`` offers each start only its
    neighbors, which is where every clique member lies."""

    def test_matches_full_scan(self):
        corpus = random_graphs(300, max_n=30, seed=47, p=(0.1, 0.3, 0.6, 0.9), q=(0.0, 0.3, 0.5))
        corpus += random_graphs(40, max_n=60, seed=53, p=(0.02, 0.05))
        for g in corpus:
            assert invariants.greedy_balanced_clique(g) == greedy_balanced_clique_full_scan(g), g.to_sg()

    def test_sparse_cost_follows_degrees(self, monkeypatch):
        # a planted positive K5 on a long path with random chords, n = 3000
        n = 3000
        rng = random.Random(59)
        pairs = {(u, u + 1) for u in range(n - 1)}
        pairs |= {(u, v) for u in range(5) for v in range(u + 1, 5)}
        while len(pairs) < 4500:
            u, v = sorted(rng.sample(range(n), 2))
            pairs.add((u, v))
        g = SignedGraph.from_edges(
            n, [(u, v, 1 if v < 5 else rng.choice((1, -1))) for u, v in pairs]
        )
        calls = 0
        has_edge = SignedGraph.has_edge

        def counting(self, u, v):
            nonlocal calls
            calls += 1
            return has_edge(self, u, v)

        monkeypatch.setattr(SignedGraph, "has_edge", counting)
        assert invariants.greedy_balanced_clique(g) >= 5
        assert calls <= sum(g.degree(v) ** 2 for v in range(n))


class TestTriangleCensus:
    def test_all_negative_triangle(self):
        census = triangle_census(all_negative_complete(3))
        assert (census.t_plus, census.t_minus, census.t_s) == (0, 1, -1)

    def test_triangle_free(self, c5):
        census = triangle_census(c5)
        assert (census.t_plus, census.t_minus, census.t_s) == (0, 0, 0)

    def test_all_positive_k4(self):
        census = triangle_census(k4_underlying())
        assert (census.t_plus, census.t_minus, census.t_s) == (4, 0, 4)

    @given(signed_graphs(max_n=8))
    @settings(max_examples=80, deadline=None)
    def test_trace_identity_exact(self, g):
        a = np.zeros((g.n, g.n), dtype=object)
        for u, v, s in g.edges:
            a[u, v] = a[v, u] = s
        trace_cubed = int(np.trace(a @ a @ a)) if g.n else 0
        assert 6 * triangle_census(g).t_s == trace_cubed


class TestWalkCensus:
    def test_r1_counts_vertices(self, c5):
        census = walk_census(c5, 1)
        assert (census.w_total, census.w_signed, census.w_neg) == (5, 5, 0)

    def test_positive_k2_r3(self):
        g = SignedGraph.from_edges(2, [(0, 1, 1)])
        census = walk_census(g, 3)
        assert (census.w_total, census.w_signed) == (2, 2)

    def test_paper_c5_r2(self, c5):
        census = walk_census(c5, 2)
        assert census.w_total == 2 * c5.m == 10
        assert census.w_signed == 2 * (c5.m_plus - c5.m_minus) == 6

    def test_matches_enumeration(self):
        for g in random_graphs(15, max_n=5, seed=11):
            for r in (1, 2, 3, 4):
                census = walk_census(g, r)
                assert (
                    census.w_total,
                    census.w_signed,
                    census.w_pos,
                    census.w_neg,
                ) == enumerate_walks(g, r)

    @given(signed_graphs(max_n=7))
    @settings(max_examples=50, deadline=None)
    def test_parity_and_nonnegativity(self, g):
        census = walk_census(g, 3)
        assert census.w_pos >= 0 and census.w_neg >= 0
        assert census.w_pos + census.w_neg == census.w_total
        assert census.w_total % 2 == census.w_signed % 2

    def test_r_validated(self, c5):
        with pytest.raises(InvalidParamsError):
            walk_census(c5, 0)

    def test_overflow_detected(self):
        g = all_negative_complete(14).with_all_signs(1)
        with pytest.raises(OverflowError):
            walk_census(g, 60)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_matrix_power_oracle(self, seed):
        # sparse to near-complete graphs, half of them with n > 64, so the
        # first order past 2^63 - 1 ranges from r = 12 to beyond r = 60
        p = (0.05, 0.15, 0.6, 0.95)
        graphs = random_graphs(3, max_n=70, seed=70 + seed, p=p) + random_graphs(
            3, max_n=70, seed=80 + seed, p=p, min_n=65
        )
        for g in graphs:
            for r in (*range(1, 9), 12, 20, 40, 60):
                w_total, w_signed = walk_sums_by_matrix_power(g, r)
                if w_total > 2**63 - 1:
                    with pytest.raises(OverflowError):
                        walk_census(g, r)
                    continue
                census = walk_census(g, r)
                assert (census.w_total, census.w_signed) == (w_total, w_signed), (g.to_sg(), r)

    def test_overflow_boundary_on_positive_k14(self):
        # 14 * 13^15 < 2^63 - 1 < 14 * 13^16
        g = all_negative_complete(14).with_all_signs(1)
        assert walk_census(g, 16).w_total == 14 * 13**15
        assert r_frustration_index(g, 16) == 0
        for walks in (walk_census, r_frustration_index):
            with pytest.raises(OverflowError):
                walks(g, 17)

    def test_orders_past_125_read_an_order_of_the_same_parity(self):
        # P3's unsigned walk count leaves 64 bits at order 124, and every graph
        # with a vertex of degree >= 2 contains P3
        p3 = SignedGraph.from_edges(3, [(0, 1, 1), (1, 2, -1)])
        assert walk_census(p3, 123).w_total == 3 * 2**61
        for r in (124, 125, 126, 127, 10**9):
            with pytest.raises(OverflowError):
                walk_census(p3, r)
            with pytest.raises(OverflowError):
                _Ctx(p3).walks(r)
        # with every degree at most 1 the chain never overflows, and order r
        # reads the census of order 124 or 125 under its own r
        rng = random.Random(124)
        for _ in range(40):
            n = rng.randint(1, 12)
            order = rng.sample(range(n), n)
            k = rng.randint(0, n // 2)
            g = SignedGraph.from_edges(n, [(*order[2 * i : 2 * i + 2], rng.choice((1, -1))) for i in range(k)])
            chain = list(islice(invariants._walk_chain(g), 300))
            ctx = _Ctx(g)
            for r in (*range(1, 16), *range(118, 134), 299):
                assert walk_census(g, r) == ctx.walks(r) == chain[r - 1], (g.to_sg(), r)
            for r in (10**9, 10**9 + 1, 2**70 + 1):
                expected = replace(chain[11 + r % 2], r=r)  # order 12 or 13
                assert walk_census(g, r) == ctx.walks(r) == expected, (g.to_sg(), r)


class TestRFrustration:
    def test_balanced_graph_any_r(self):
        g = signed_cycle(4, negative_edges=(0, 1))
        for r in (1, 2, 3, 4):
            assert r_frustration_index(g, r) == 0

    def test_r1_is_zero(self, c5):
        assert r_frustration_index(c5, 1) == 0

    def test_r_validated(self, c5):
        with pytest.raises(InvalidParamsError):
            r_frustration_index(c5, 0)

    def test_paper_c5_r2(self, c5):
        assert r_frustration_index(c5, 2) == 2
        assert min_negative_walks(c5, 2) == 2

    def test_matches_enumeration_oracle(self):
        for g in random_graphs(12, max_n=6, seed=17):
            for r in (2, 3):
                assert r_frustration_index(g, r) == min_negative_walks(g, r)

    @given(signed_graphs(max_n=7))
    @settings(max_examples=40, deadline=None)
    def test_eps2_is_twice_frustration(self, g):
        assert r_frustration_index(g, 2) == 2 * frustration_index_exact(g)

    def test_switching_invariant(self, c5):
        eta = Switching((1, -1, 1, -1, 1))
        assert r_frustration_index(apply_switching(c5, eta), 3) == r_frustration_index(c5, 3)

    def test_guard(self):
        with pytest.raises(TooLargeError):
            r_frustration_index(SignedGraph(21), 2)

    @pytest.mark.parametrize("n", KERNEL_ORDERS)
    def test_kernel_certificate(self, n):
        for g in kernel_graphs(n):
            for r in (2, 3, 4):
                eps_r = r_frustration_index(g, r)
                if g.m == 0:
                    assert eps_r == 0
                    continue
                census = walk_census(g, r)
                ps = np.linalg.matrix_power(invariants._signed_matrix(g), r - 1)
                best, x = invariants._max_switching_form(ps, census.w_total)
                assert eps_r == (census.w_total - best) // 2
                assert walk_census(apply_switching(g, Switching(x)), r).w_neg == eps_r

    @pytest.mark.parametrize("sign", (1, -1))
    @pytest.mark.parametrize(
        "r, low, high",
        ((8, 0, 2**24), (10, 2**24, 2**53), (20, 2**53, 2**63)),
        ids=("float32", "float64", "int64"),
    )
    def test_every_dtype_tier_matches_python_ints(self, r, low, high, sign):
        # K8 of either sign has w_total = 8 * 7^(r-1), which puts the kernel
        # in its float32 tier at r = 8, float64 at r = 10 and int64 at r = 20;
        # compare with Python-int enumeration
        g = all_negative_complete(8).with_all_signs(sign)
        a = [[0 if i == j else sign for j in range(8)] for i in range(8)]
        power = [[int(i == j) for j in range(8)] for i in range(8)]
        for _ in range(r - 1):
            power = [[sum(power[i][k] * a[k][j] for k in range(8)) for j in range(8)] for i in range(8)]
        w_total = 8 * 7 ** (r - 1)
        assert walk_census(g, r).w_total == w_total and low <= w_total < high
        best = max(
            sum(x[i] * power[i][j] * x[j] for i in range(8) for j in range(8))
            for x in ((1,) + bits for bits in product((1, -1), repeat=7))
        )
        expected = (w_total - best) // 2
        assert r_frustration_index(g, r) == expected
        if sign > 0:
            assert expected == 0


class TestPositiveEdgeLemma:
    """Every switching representative has at most m - eps positive edges."""

    def test_over_all_switchings(self):
        for g in random_graphs(20, max_n=7, seed=23):
            eps = frustration_index_exact(g)
            for bits in product((1, -1), repeat=max(g.n - 1, 0)):
                switched = apply_switching(g, Switching((1,) + bits))
                assert switched.m_plus <= g.m - eps


class TestInvariantReport:
    """The values ``invariants`` prints, read from the one per-graph memo."""

    def test_exact_under_guards(self, c5):
        ctx = _Ctx(c5)
        assert ctx.exact_or_bound("eps") == (1, True)
        assert ctx.exact_or_bound("eps_b") == (1, True)
        assert ctx.exact_or_bound("omega_b") == (2, True)
        assert ctx.census.t_s == 0

    def test_heuristic_fallback_over_guard(self, monkeypatch):
        monkeypatch.setenv("SIGNED_SPECTRA_MAX_N", "4")
        ctx = _Ctx(paper_c5())
        frustration, frustration_exact = ctx.exact_or_bound("eps")
        eps_b, eps_b_exact = ctx.exact_or_bound("eps_b")
        omega_b, omega_b_exact = ctx.exact_or_bound("omega_b")
        assert not frustration_exact and not eps_b_exact and not omega_b_exact
        assert frustration >= 1  # upper bound
        assert eps_b >= 1  # upper bound
        assert omega_b <= 2  # greedy lower bound
