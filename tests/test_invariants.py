"""Frustration, bipartiteness, balanced cliques, triangle and walk censuses."""

import random
import sys
import tracemalloc
from itertools import product

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
    spectrum_of,
    walk_census,
    walk_from_spectrum,
)
from signed_spectra.bounds import _Ctx, evaluate_all
from signed_spectra.switching import propagation_labels

from .conftest import exact_kernel_corpus, random_graphs, signed_graphs
from .oracles import (
    brute_balanced_clique,
    deletion_frustration,
    enumerate_walks,
    frustration_upper_by_recount,
    greedy_balanced_clique_full_scan,
    max_balanced_clique_by_dicts,
    max_switching_form_by_enumeration,
    max_switching_form_full_scan,
    min_negative_walks,
    triangle_census_by_sign_loop,
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


def kernel_forms(g: SignedGraph):
    """(M, bound, dtype tier) for the kernel's three forms on ``g``: A and
    -|A| with bound 2m, and A^(r-1) with bound w_total at r = 3 and at the
    first r whose w_total reaches 2^24 and 2^53, where the chain gets there
    before the 64-bit overflow."""
    def tier(bound):
        return "float32" if bound < 2**24 else "float64" if bound < 2**53 else "int64"

    a = invariants._signed_matrix(g)
    forms = [(a, 2 * g.m), (invariants._signed_matrix(all_negative(g)), 2 * g.m)]
    seen = {tier(walk_census(g, r).w_total) for r in (1, 2)}
    for r in range(3, 200):
        try:
            w_total = walk_census(g, r).w_total
        except OverflowError:
            break
        if r == 3 or tier(w_total) not in seen:
            seen.add(tier(w_total))
            forms.append((np.linalg.matrix_power(a, r - 1), w_total))
    return [(m, bound, tier(bound)) for m, bound in forms]


class TestSmallKernel:
    """The kernel's one-product path, which runs up to ``_PRODUCT_MAX_N``."""

    @pytest.mark.parametrize("n", range(1, invariants._PRODUCT_MAX_N + 1))
    def test_matches_blocked_path_and_enumeration(self, n, monkeypatch):
        tiers = set()
        for g in kernel_graphs(n):
            for m, bound, tier in kernel_forms(g):
                small = invariants._max_switching_form(m, bound)
                with monkeypatch.context() as patch:
                    patch.setattr(invariants, "_PRODUCT_MAX_N", 0)
                    assert invariants._max_switching_form(m, bound) == small, (g.to_sg(), bound)
                best, x = small
                assert best == max_switching_form_by_enumeration(m), (g.to_sg(), bound)
                assert x[0] == 1 and best == int(np.array(x) @ m @ np.array(x))
                tiers.add(tier)
        # K_n (p = 1.0) has a 2-path, so its walk counts pass every tier
        assert tiers == ({"float32", "float64", "int64"} if n >= 3 else {"float32"})

    def test_ties_keep_the_first_switching_of_the_scan(self):
        # every switching of the edgeless graph ties at 0: the first row wins
        for n in range(1, invariants._PRODUCT_MAX_N + 1):
            assert invariants._max_switching_form(np.zeros((n, n), dtype=np.int64), 0) == (0, (1,) * n)

    def test_tables_fill_per_order_and_dtype_on_first_use(self):
        invariants._switching_table.cache_clear()
        frustration_index_exact(signed_cycle(5, negative_edges=(0,)))
        assert invariants._switching_table.cache_info().currsize == 1
        frustration_index_exact(signed_cycle(5, negative_edges=(0, 2)))
        assert invariants._switching_table.cache_info().currsize == 1
        r_frustration_index(all_negative_complete(8), 10)  # w_total past 2^24: float64
        assert invariants._switching_table.cache_info().currsize == 2
        table = invariants._switching_table(4, np.float32)
        assert not table.flags.writeable  # shared by every later call
        # the blocked path's row-major order at n = 4: x_1 (the L half past
        # the pinned x_0) outer, x_2 x_3 (the H half) inner
        assert table.tolist() == [
            [1, 1, 1, 1], [1, 1, -1, 1], [1, 1, 1, -1], [1, 1, -1, -1],
            [1, -1, 1, 1], [1, -1, -1, 1], [1, -1, 1, -1], [1, -1, -1, -1],
        ]


def pruning_forms(n: int):
    """(name, M, bound) for the pruned kernel at order n: A, -|A|, A^2 and
    A^3 of G(n, 1/2), the zero matrix, the signed matrices of +K_n and -K_n,
    and those of C_n, all positive and with one negative edge."""
    g = erdos_renyi_signed(n, 0.5, 0.5, seed=n)
    a = invariants._signed_matrix(g)
    forms = [
        ("A", a, 2 * g.m),
        ("-|A|", -np.abs(a), 2 * g.m),
        ("A^2", a @ a, walk_census(g, 3).w_total),
        ("A^3", a @ a @ a, walk_census(g, 4).w_total),
        ("0", np.zeros((n, n), dtype=np.int64), 0),
    ]
    for name, h in (
        ("+K_n", all_negative_complete(n).with_all_signs(1)),
        ("-K_n", all_negative_complete(n)),
        ("C_n", signed_cycle(n)),
        ("C_n, one negative edge", signed_cycle(n, negative_edges=(0,))),
    ):
        forms.append((name, invariants._signed_matrix(h), 2 * h.m))
    return forms


class TestPrunedKernel:
    """Past ``_PRODUCT_MAX_N`` the kernel scans only the rows whose bound
    reaches the incumbent; ``max_switching_form_full_scan`` scans them all."""

    @pytest.mark.parametrize("n", (11, 14, 18, *range(19, 25)))
    def test_matches_full_scan_with_certificate(self, n):
        for name, m, bound in pruning_forms(n):
            assert invariants._max_switching_form(m, bound) == max_switching_form_full_scan(m, bound), name

    def test_every_dtype_tier(self):
        tiers = set()
        for g in kernel_graphs(19):
            for m, bound, tier in kernel_forms(g):
                assert invariants._max_switching_form(m, bound) == max_switching_form_full_scan(m, bound), tier
                tiers.add(tier)
        assert tiers == {"float32", "float64", "int64"}

    @pytest.mark.parametrize("n", (19, 20))
    def test_ties_at_the_incumbent_keep_their_rows(self, n):
        # on a balanced form every row that holds the maximum has a bound
        # equal to it, and so equal to the incumbent; on the zero matrix every
        # row does.  Pruning on equality would drop them all.
        for h in (all_negative_complete(n).with_all_signs(1), signed_cycle(n), all_negative_complete(n)):
            m = invariants._signed_matrix(h)
            assert invariants._max_switching_form(m, 2 * h.m) == max_switching_form_full_scan(m, 2 * h.m)
        zero = np.zeros((n, n), dtype=np.int64)
        assert invariants._max_switching_form(zero, 0) == (0, (1,) * n)

    def test_matches_full_scan_at_any_block_size(self, monkeypatch):
        # the column tiles set the scan order, and so the certificate on ties
        for entries in (2**5, 2**9, 2**20):
            monkeypatch.setattr(invariants, "_BLOCK_ENTRIES", entries)
            for name, m, bound in pruning_forms(20):
                assert invariants._max_switching_form(m, bound) == max_switching_form_full_scan(m, bound), (name, entries)

    def test_tie_certificates_attain_the_value_at_every_block_size(self, monkeypatch):
        # the certificate is the first maximiser of the tiled scan, so on
        # ties it moves with the block size (it does on -K_20): check that
        # each one attains the value, which stays the same
        graphs = [all_negative_complete(20), *(erdos_renyi_signed(20, 0.5, 0.5, seed=s) for s in range(3))]
        for g in graphs:
            m = invariants._signed_matrix(g)
            values = set()
            for entries in (2**9, 2**15, 2**20):
                monkeypatch.setattr(invariants, "_BLOCK_ENTRIES", entries)
                best, x = invariants._max_switching_form(m, 2 * g.m)
                assert x[0] == 1 and best == int(np.array(x) @ m @ np.array(x)), (g.to_sg(), entries)
                values.add(best)
            assert len(values) == 1, g.to_sg()

    def test_incumbent_pass_is_blocked(self):
        # a forced n = 30: one incumbent product over all 2^15 columns would
        # add 32 x 2^15 float32 entries (4 MiB) to the full scan's peak
        g = erdos_renyi_signed(30, 0.3, 0.5, seed=0)

        def peak(f):
            tracemalloc.start()
            try:
                return f(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        full, full_peak = peak(lambda: max_switching_form_full_scan(invariants._signed_matrix(g), 2 * g.m))
        eps, pruned_peak = peak(lambda: frustration_index_exact(g, force=True))
        assert eps == (g.m - full[0] // 2) // 2
        assert pruned_peak <= full_peak + 2**20


class TestKeptHalfTable:
    """The blocked kernel keeps the half table of the last (ceil(n/2),
    dtype) it met, within ``_KEPT_HALF_ENTRIES``; the slot never changes a
    value or a certificate."""

    @pytest.fixture(autouse=True)
    def cold(self, monkeypatch):
        monkeypatch.setattr(invariants, "_kept_half", (None, None))

    def test_cap_is_the_table_of_the_largest_guarded_order(self):
        kernel_guards = ("frustration_index_exact", "edge_bipartiteness", "r_frustration_index")
        a = (max(invariants._GUARDS[name] for name in kernel_guards) + 1) // 2
        assert invariants._KEPT_HALF_ENTRIES == a << a == 13 << 13
        table = invariants._half_table(25, np.float64)
        assert invariants._kept_half[1] is table and table.nbytes == 851_968

    def test_kept_table_is_read_only_and_shared(self):
        table = invariants._half_table(22, np.float32)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 2
        assert table.tolist() == (1 - 2 * ((np.arange(2**11)[:, None] >> np.arange(11)) & 1)).tolist()
        assert invariants._half_table(21, np.float32) is table  # ceil(21/2) = ceil(22/2)
        assert invariants._half_table(21, np.float64) is not table
        assert invariants._kept_half[0] == (11, np.float64)

    def test_values_and_certificates_do_not_depend_on_the_slot(self):
        forms = [m_bound for n in (21, 22) for _, *m_bound in pruning_forms(n)]
        forms += [(m, bound) for g in kernel_graphs(21)[2:] for m, bound, _ in kernel_forms(g)]  # every dtype at a = 11
        expected = []
        for m, bound in forms:
            invariants._kept_half = (None, None)
            expected.append(invariants._max_switching_form(m, bound))
            assert expected[-1] == max_switching_form_full_scan(m, bound)
        # the slot holding the table of the form before, of another order,
        # another dtype or the same, then warm with the form's own
        pairs = list(zip(forms, expected))
        for order in (pairs, pairs[::-1]):
            for (m, bound), want in order:
                assert invariants._max_switching_form(m, bound) == want
                assert invariants._max_switching_form(m, bound) == want

    def test_a_forced_kernel_past_the_cap_keeps_nothing(self):
        invariants._half_table(22, np.float32)
        held = invariants._kept_half
        g = erdos_renyi_signed(27, 0.2, 0.5, seed=27)  # a = 14: 2^14 x 14 float32 entries, 917 KB
        full, _ = max_switching_form_full_scan(invariants._signed_matrix(g), 2 * g.m)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            eps = frustration_index_exact(g, force=True)
            left = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert eps == (g.m - full // 2) // 2
        assert invariants._kept_half is held
        assert left < 64 * 1024


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

        def no_draw(rng, sizes):
            raise AssertionError("a restart was drawn")
            yield

        monkeypatch.setattr(invariants, "_choice_stream", no_draw)
        assert frustration_index_upper(g, iters=200, seed=0) == 0
        assert invariants._frustration_uppers((g, SignedGraph(30)), 200, 0) == (0, 0)

    def test_edgeless_and_isolated_vertices(self):
        assert frustration_index_upper(SignedGraph(30), iters=200, seed=0) == 0
        assert frustration_index_upper(SignedGraph(0), iters=1, seed=0) == 0
        core = erdos_renyi_signed(n=12, p=0.5, q_neg=0.5, seed=12)
        g = SignedGraph.from_edges(30, [(u + 9, v + 9, s) for u, v, s in core.edges])
        for h in (g, all_negative(g)):
            assert frustration_index_upper(h, iters=200, seed=0) == (
                frustration_upper_by_recount(h, iters=200, seed=0)
            )


class TestChoiceStream:
    @staticmethod
    def loop(seed: int, k: int) -> list[int]:
        rng = random.Random(seed)
        return [rng.choice((1, -1)) for _ in range(k)]

    @pytest.mark.parametrize("k", (0, 1, 7, 8000))
    def test_matches_choice_loop(self, k):
        (drawn,) = invariants._choice_stream(random.Random(k), (k,))
        assert drawn.dtype == np.int64
        assert drawn.tolist() == self.loop(k, k)

    @pytest.mark.parametrize(
        "sizes", ((3, 40, 1, 0, 200), (0, 0, 5), (1,) * 50, (7, 40, 1, 8040), (6000, 6000, 1800), (8040, 0, 3))
    )
    def test_any_split_into_blocks_reads_the_loops_picks(self, sizes):
        for seed in range(8):
            drawn = list(invariants._choice_stream(random.Random(seed), sizes))
            assert [len(signs) for signs in drawn] == list(sizes)
            assert np.concatenate(drawn).tolist() == self.loop(seed, sum(sizes)), (seed, sizes)

    @pytest.mark.parametrize("seed", range(21))
    def test_matches_choice_at_every_size(self, seed):
        # the restart sizes of ``frustration_index_upper`` at n = 30 and 40
        # among them, alone and as the second block after 8,040
        for k in (*range(1, 65), 6000, 8040):
            (drawn,) = invariants._choice_stream(random.Random(seed), (k,))
            assert drawn.tolist() == self.loop(seed, k), (seed, k)
            assert np.concatenate(list(invariants._choice_stream(random.Random(seed), (8040, k)))).tolist() == (
                self.loop(seed, 8040 + k)
            ), (seed, k)

    def test_a_round_that_falls_short_draws_on(self):
        # the first 18 words of seed 146572 all have their top bit set, so a
        # draw of one sign, which asks for 2 + 8 words at first, keeps none
        # of them and goes on to a second round
        rng = random.Random(146_572)
        assert all(rng.getrandbits(32) >> 31 for _ in range(18))
        assert [s.tolist() for s in invariants._choice_stream(random.Random(146_572), (1, 2))] == [
            self.loop(146_572, 1), self.loop(146_572, 3)[1:]
        ]

    def test_an_empty_split_draws_nothing(self):
        rng = random.Random(3)
        state = rng.getstate()
        assert list(invariants._choice_stream(rng, ())) == []
        assert rng.getstate() == state

    @pytest.mark.parametrize("rows", (1, 7))
    def test_blocks_of_restarts_match_the_recount(self, rows, monkeypatch):
        # eps and eps_b from one draw over several blocks, each drawn on from
        # where the last left rng, as each form alone and recounted reaches
        graphs = pair_corpus()[::4]
        for g in graphs:
            h, seed = all_negative(g), g.n % 3
            monkeypatch.setattr(invariants, "_BLOCK_ENTRIES", rows * g.n)
            expected = tuple(frustration_upper_by_recount(x, iters=20, seed=seed) for x in (g, h))
            assert invariants._frustration_uppers((g, h), 20, seed) == expected, g.to_sg()


def pair_corpus() -> list[SignedGraph]:
    """Seeded G(n, p) graphs with n = 26..60, p in {0.1, 0.3, 0.5} and
    q_neg in {0, 1/2, 1}, cycling through the nine pairs as n grows."""
    pairs = [(p, q) for p in (0.1, 0.3, 0.5) for q in (0.0, 0.5, 1.0)]
    return [erdos_renyi_signed(n, *pairs[n % 9], seed=n) for n in range(26, 61)]


def early_exits() -> dict[str, SignedGraph]:
    """n = 30 graphs on which one form, both or neither stops before any
    restart: (eps, eps_b) is (0, > 0), (> 0, 0), (0, 0) and (0, 0)."""
    return {
        "balanced, not bipartite": erdos_renyi_signed(30, 0.3, 0.0, seed=30),
        "bipartite, unbalanced": signed_cycle(30, negative_edges=(0,)),
        "balanced and bipartite": signed_cycle(30),
        "edgeless": SignedGraph(30),
    }


def descend_alone(g: SignedGraph, x) -> tuple[float, int]:
    """(x^T A x, flips) at the local minimum that steepest single-vertex
    flips reach from x on ``g``, lowest vertex on ties, recounting
    d_v = x_v (A x)_v after every flip."""
    a = invariants._signed_matrix(g)
    x = np.array(x, dtype=np.int64)
    flips = 0
    while True:
        d = x * (a @ x)
        v = int(d.argmin())
        if d[v] >= 0:
            return float(d.sum()), flips
        x[v] = -x[v]
        flips += 1


class TestSharedDraw:
    """``_frustration_uppers`` descends eps and eps_b from one draw of
    restarts; each value is the one its form reaches alone."""

    @pytest.fixture
    def draws(self, monkeypatch):
        """The number of restart signs of each block ``_choice_stream``
        yields."""
        sizes: list[int] = []
        choice_stream = invariants._choice_stream

        def counted(rng, blocks):
            for signs in choice_stream(rng, blocks):
                sizes.append(len(signs))
                yield signs

        monkeypatch.setattr(invariants, "_choice_stream", counted)
        return sizes

    @pytest.mark.parametrize("iters", (1, 7, 200))
    def test_matches_each_form_alone(self, iters):
        for g in pair_corpus():
            h, seed = all_negative(g), g.n % 3
            expected = (frustration_index_upper(g, iters, seed), frustration_index_upper(h, iters, seed))
            assert invariants._frustration_uppers((g, h), iters, seed) == expected, (g.to_sg(), seed)

    @pytest.mark.parametrize("iters", (1, 7))
    def test_matches_recount(self, iters):
        for g in pair_corpus():
            h = all_negative(g)
            for seed in range(3):
                expected = (frustration_upper_by_recount(g, iters, seed), frustration_upper_by_recount(h, iters, seed))
                assert invariants._frustration_uppers((g, h), iters, seed) == expected, (g.to_sg(), seed)

    def test_matches_recount_at_cli_settings(self):
        for g in pair_corpus()[::5]:
            h = all_negative(g)
            expected = (frustration_upper_by_recount(g, 200, 0), frustration_upper_by_recount(h, 200, 0))
            assert invariants._frustration_uppers((g, h), 200, 0) == expected, g.to_sg()

    @pytest.mark.parametrize("rows", (1, 3, 64))
    def test_one_draw_per_block(self, rows, draws, monkeypatch):
        for g in pair_corpus()[::6]:
            h = all_negative(g)
            expected = (frustration_upper_by_recount(g, 30, 1), frustration_upper_by_recount(h, 30, 1))
            monkeypatch.setattr(invariants, "_BLOCK_ENTRIES", rows * g.n + g.n - 1)
            draws.clear()
            assert invariants._frustration_uppers((g, h), 30, 1) == expected, g.to_sg()
            blocks = [min(rows, 30 - first) * g.n for first in range(0, 30, rows)]
            assert draws == blocks

    @pytest.mark.parametrize("rows", (1, 4))
    def test_matches_each_form_alone_over_several_blocks(self, rows, monkeypatch):
        # one form balanced, forms that stop at different steps, and the
        # restarts split over several blocks of one stream
        for g in (*pair_corpus()[::5], *early_exits().values()):
            h = all_negative(g)
            expected = tuple(frustration_upper_by_recount(f, 9, 1) for f in (g, h))
            monkeypatch.setattr(invariants, "_BLOCK_ENTRIES", rows * g.n)
            assert tuple(frustration_index_upper(f, 9, 1) for f in (g, h)) == expected, g.to_sg()
            assert invariants._frustration_uppers((g, h), 9, 1) == expected, g.to_sg()

    def test_blocks_draw_the_choice_stream(self, monkeypatch):
        g = pair_corpus()[4]
        drawn = []
        choice_stream = invariants._choice_stream

        def kept(rng, sizes):
            for signs in choice_stream(rng, sizes):
                drawn.append(signs.tolist())
                yield signs

        monkeypatch.setattr(invariants, "_choice_stream", kept)
        monkeypatch.setattr(invariants, "_BLOCK_ENTRIES", 7 * g.n)
        invariants._frustration_uppers((g, all_negative(g)), 30, 2)
        loop = random.Random(2)
        assert [s for signs in drawn for s in signs] == [loop.choice((1, -1)) for _ in range(30 * g.n)]
        assert [len(signs) for signs in drawn] == [7 * g.n] * 4 + [2 * g.n]  # 30 restarts in blocks of 7

    def test_stacked_rows_descend_as_each_alone(self):
        # each row of a two-form stack reaches the x^T A x it reaches alone,
        # on its own form's rows of the table, and the forms stop apart
        for g in pair_corpus()[::6]:
            n, h = g.n, all_negative(g)
            table = np.zeros((4 * n, n), np.float32)
            invariants._flip_table(g, table[: 2 * n])
            invariants._flip_table(h, table[2 * n :])
            rng = random.Random(n)
            x = np.array([[rng.choice((1, -1)) for _ in range(n)] for _ in range(2 * 9)], np.float32)
            alone = [descend_alone(f, row) for f, row in zip((g,) * 9 + (h,) * 9, x)]
            assert invariants._descend(table, x.copy(), [0, 2 * n]).tolist() == [value for value, _ in alone]
            for rows, base, want in ((x[:9], 0, alone[:9]), (x[9:], 2 * n, alone[9:])):
                assert invariants._descend(table, rows.copy(), [base]).tolist() == [value for value, _ in want]
            assert max(flips for _, flips in alone[:9]) != max(flips for _, flips in alone[9:]), g.to_sg()

    @pytest.mark.parametrize("name", tuple(early_exits()))
    def test_early_exits(self, name, draws):
        g = early_exits()[name]
        h = all_negative(g)
        values = invariants._frustration_uppers((g, h), 200, 0)
        assert values == (frustration_upper_by_recount(g, 200, 0), frustration_upper_by_recount(h, 200, 0))
        balanced = [propagation_labels(f)[1] is None for f in (g, h)]
        assert [value == 0 for value in values] == balanced
        # one draw of 200 restarts unless both forms stop before it
        assert draws == ([] if all(balanced) else [200 * g.n])

    def test_flip_table_rows(self):
        for g in (paper_c5(), *pair_corpus()[:3], early_exits()["edgeless"]):
            for h in (g, all_negative(g)):
                a = invariants._signed_matrix(h)
                table = invariants._flip_table(h, np.zeros((2 * h.n, h.n), np.float32))
                assert table.dtype == np.float32
                assert np.array_equal(table, np.concatenate((-2 * a, 2 * a)))


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

    def test_forced_search_has_no_depth_limit(self):
        # the search keeps its members in a list, not in stack frames, so a
        # clique deeper than the interpreter's recursion limit is found
        k = all_negative_complete(1200).with_all_signs(1)
        assert balanced_clique_number(k, force=True) == 1200

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


class TestBitParallelKernels:
    """The clique search on ``SignedGraph._masks`` and the triangle census
    on its own shifted masks against the dict-based kernels they replaced."""

    @given(signed_graphs(max_n=10))
    @settings(max_examples=150, deadline=None)
    def test_match_dict_kernels_property(self, g):
        assert invariants._max_balanced_clique(g) == max_balanced_clique_by_dicts(g)
        census = triangle_census(g)
        assert (census.t_plus, census.t_minus) == triangle_census_by_sign_loop(g)

    def test_match_dict_kernels_on_corpus(self):
        for g in exact_kernel_corpus():
            assert invariants._max_balanced_clique(g, force=True) == max_balanced_clique_by_dicts(g), g.to_sg()
            census = triangle_census(g)
            assert (census.t_plus, census.t_minus) == triangle_census_by_sign_loop(g), g.to_sg()

    def test_census_of_a_large_sparse_graph_keeps_no_masks(self):
        # the census's masks live for one call: on a sparse n = 5,000 graph it
        # peaks below one set of whole unsigned neighbour masks and leaves no
        # lookup structure on the graph
        rng = random.Random(0)
        pairs = {tuple(sorted(rng.sample(range(5000), 2))) for _ in range(10_000)}
        g = SignedGraph._unchecked(5000, frozenset((u, v, rng.choice((1, -1))) for u, v in pairs))
        whole = [0] * g.n
        for u, v, _ in g.edges:
            whole[u] |= 1 << v
            whole[v] |= 1 << u
        tracemalloc.start()
        try:
            census = triangle_census(g)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (census.t_plus, census.t_minus) == triangle_census_by_sign_loop(g)
        assert peak < sum(map(sys.getsizeof, whole))
        assert retained < 2**14 and vars(g).keys() == {"n", "edges"}

    def test_no_sign_lookup_on_the_exact_paths(self, monkeypatch):
        # the clique search, the census, the BFS and every exact row of
        # evaluate_all read masks and adjacency tuples, never a per-edge sign lookup
        def refuse(*args):
            raise AssertionError("per-edge sign lookup")

        monkeypatch.setattr(SignedGraph, "sign", refuse)
        monkeypatch.setattr(SignedGraph, "has_edge", refuse)
        graphs = [erdos_renyi_signed(n, 0.5, 0.5, seed=n) for n in (1, 5, 12, 40)]
        for g in graphs:
            invariants._max_balanced_clique(g)
            triangle_census(g)
            propagation_labels(g)
            propagation_labels(g, full=True)
        for g in graphs[:3] + [paper_c5()]:
            assert all(ev.verdict for ev in evaluate_all(g))


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
        # with every degree at most 1 the walk sums never overflow, and order
        # r reads the sums of order 124 or 125 under its own r
        rng = random.Random(124)
        for _ in range(40):
            n = rng.randint(1, 12)
            order = rng.sample(range(n), n)
            k = rng.randint(0, n // 2)
            g = SignedGraph.from_edges(n, [(*order[2 * i : 2 * i + 2], rng.choice((1, -1))) for i in range(k)])
            ctx = _Ctx(g)
            for r in (*range(1, 16), *range(118, 134), 299, 10**9, 10**9 + 1, 2**70 + 1):
                # the oracle takes whole powers, at order 12 or 13 past 299
                expected = walk_sums_by_matrix_power(g, r if r < 300 else 12 + r % 2)
                census = walk_census(g, r)
                assert census.r == r and (census.w_total, census.w_signed) == expected, (g.to_sg(), r)
                assert ctx.walks(r) == expected, (g.to_sg(), r)


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

    def test_trivial_cases_build_no_matrix(self):
        # r = 1 and an edgeless graph give 0 without the n x n matrix, which
        # at n = 10^6 cannot be allocated
        assert r_frustration_index(SignedGraph.from_edges(10**6, [(0, 1, -1)]), 1, force=True) == 0
        assert r_frustration_index(SignedGraph(10**6), 3, force=True) == 0

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


    def test_fallback_takes_both_bounds_from_one_draw(self, monkeypatch):
        g = erdos_renyi_signed(30, 0.3, 0.5, seed=3)
        expected = (frustration_index_upper(g, 200, 0), frustration_index_upper(all_negative(g), 200, 0))
        draws = []
        choice_stream = invariants._choice_stream

        def counted(rng, sizes):
            for signs in choice_stream(rng, sizes):
                draws.append(len(signs))
                yield signs

        monkeypatch.setattr(invariants, "_choice_stream", counted)
        ctx = _Ctx(g)
        assert (ctx.exact_or_bound("eps"), ctx.exact_or_bound("eps_b")) == ((expected[0], False), (expected[1], False))
        assert draws == [200 * g.n]

    def test_fallback_memory(self):
        # two float32 tables of (2n, n) entries take 16 n^2 bytes, what a
        # float64 A and 2A take; float64 tables would take twice that
        n = 600
        g = erdos_renyi_signed(n, 0.01, 0.5, seed=6)
        ctx = _Ctx(g)
        tracemalloc.start()
        try:
            values = ctx.exact_or_bound("eps"), ctx.exact_or_bound("eps_b")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values == ((425, False), (438, False))
        assert peak <= 16 * n * n + 2 * 2**20


_PARAM_CALLS = {
    "walk_census-r": lambda g, x: walk_census(g, x),
    "r_frustration_index-r": lambda g, x: r_frustration_index(g, x),
    "walk_from_spectrum-k": lambda g, x: walk_from_spectrum(spectrum_of(g), x),
    "frustration_index_upper-iters": lambda g, x: frustration_index_upper(g, x),
    "frustration_index_upper-seed": lambda g, x: frustration_index_upper(g, 4, x),
}


class TestIntegerParameters:
    """Orders, iteration counts and seeds of the public functions are
    integers in the sense of ``operator.index``; a float or a string raises
    InvalidParamsError naming the function and the parameter."""

    @pytest.mark.parametrize("bad", (2.0, 2.5, "2", np.float64(3.0)), ids=("whole-float", "float", "str", "numpy-float"))
    @pytest.mark.parametrize("call", tuple(_PARAM_CALLS))
    def test_non_integers_raise_invalid_params(self, c5, call, bad):
        owner, name = call.split("-")
        with pytest.raises(InvalidParamsError, match=f"{owner} parameter {name!r} must be an integer"):
            _PARAM_CALLS[call](c5, bad)

    @pytest.mark.parametrize("call", tuple(_PARAM_CALLS))
    def test_numpy_ints_and_bools_pass(self, c5, call):
        for value, same in ((np.int64(3), 3), (np.int8(2), 2), (True, 1)):
            assert _PARAM_CALLS[call](c5, value) == _PARAM_CALLS[call](c5, same), value

