"""Switching, balance certificates, cycle signs, switching equivalence."""

import numpy as np
import pytest
from itertools import combinations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from signed_spectra import (
    InvalidParamsError,
    LengthMismatchError,
    NotACycleError,
    SignedGraph,
    Switching,
    UnderlyingMismatchError,
    adjacency_matrix,
    apply_switching,
    cycle_sign,
    is_balanced,
    is_switching_equivalent,
    signed_cycle,
    spectrum_of,
)
from signed_spectra.invariants import balanced_clique_number, frustration_index_exact
from signed_spectra.switching import propagation_labels

from .conftest import exact_kernel_corpus, signed_graphs
from .oracles import balanced_by_dsu, propagation_labels_by_dicts, switching_equivalent_by_quotient


def random_switching(n: int, seed: int) -> Switching:
    import random

    rng = random.Random(seed)
    return Switching(tuple(rng.choice((1, -1)) for _ in range(n)))


class TestApplySwitching:
    def test_identity(self, c5):
        assert apply_switching(c5, Switching((1,) * 5)) == c5

    def test_single_edge_flip(self):
        neg_k2 = SignedGraph.from_edges(2, [(0, 1, -1)])
        assert apply_switching(neg_k2, Switching((1, -1))) == SignedGraph.from_edges(
            2, [(0, 1, 1)]
        )

    def test_length_mismatch(self, c5):
        with pytest.raises(LengthMismatchError):
            apply_switching(c5, Switching((1, -1)))

    def test_entries_validated(self):
        with pytest.raises(InvalidParamsError):
            Switching((1, 0))

    def test_length_is_the_number_of_signs(self):
        assert len(Switching((1, -1, -1))) == 3
        assert len(Switching(())) == 0

    def test_matches_diagonal_conjugation(self, c5):
        eta = random_switching(5, seed=3)
        d = np.diag(eta.signs)
        conjugated = d @ adjacency_matrix(c5).entries @ d
        assert np.array_equal(adjacency_matrix(apply_switching(c5, eta)).entries, conjugated)

    def test_spectrum_invariance_on_c5(self, c5):
        base = spectrum_of(c5).eigenvalues
        for seed in range(6):
            switched = apply_switching(c5, random_switching(5, seed))
            assert np.allclose(spectrum_of(switched).eigenvalues, base, atol=1e-9)

    @given(signed_graphs(max_n=7), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_spectrum_invariance_property(self, g, seed):
        eta = random_switching(g.n, seed)
        a = spectrum_of(g).eigenvalues
        b = spectrum_of(apply_switching(g, eta)).eigenvalues
        assert np.allclose(a, b, atol=1e-9)


class TestIsBalanced:
    def test_all_positive_graph(self):
        g = SignedGraph.from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
        cert = is_balanced(g)
        assert cert.balanced and cert.switching == Switching((1,) * 4)

    def test_paper_c5_unbalanced_with_negative_cycle(self, c5):
        cert = is_balanced(c5)
        assert not cert.balanced
        assert cert.negative_cycle is not None
        assert sorted(cert.negative_cycle) == [0, 1, 2, 3, 4]
        assert cycle_sign(c5, cert.negative_cycle) == -1

    def test_all_negative_c4_balanced(self):
        g = signed_cycle(4, negative_edges=(0, 1, 2, 3))
        cert = is_balanced(g)
        assert cert.balanced
        switched = apply_switching(g, cert.switching)
        assert switched.m_minus == 0

    @given(signed_graphs())
    @settings(max_examples=100, deadline=None)
    def test_certificates_check_out(self, g):
        cert = is_balanced(g)
        assert cert.balanced == balanced_by_dsu(g.n, g.sorted_edges())
        if cert.balanced:
            assert apply_switching(g, cert.switching).m_minus == 0
        else:
            assert cycle_sign(g, cert.negative_cycle) == -1

    @given(signed_graphs(max_n=8))
    @settings(max_examples=60, deadline=None)
    def test_balance_iff_zero_frustration(self, g):
        assert is_balanced(g).balanced == (frustration_index_exact(g) == 0)


class TestPropagationLabels:
    """The BFS over ``SignedGraph._signed_adjacency`` against the one that
    looked each edge's sign up in a dict: the same labels, conflict edge,
    parent map and stopping point."""

    @given(signed_graphs(max_n=10), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_dict_bfs_property(self, g, full):
        assert propagation_labels(g, full=full) == propagation_labels_by_dicts(g, full)

    def test_matches_dict_bfs_on_corpus(self):
        for g in exact_kernel_corpus():
            for full in (False, True):
                assert propagation_labels(g, full=full) == propagation_labels_by_dicts(g, full), g.to_sg()


class TestCycleSign:
    def test_positive_triangle(self):
        g = SignedGraph.from_edges(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        assert cycle_sign(g, (0, 1, 2)) == 1

    def test_paper_c5_cycle(self, c5):
        assert cycle_sign(c5, (0, 1, 2, 3, 4)) == -1

    def test_all_negative_c4(self):
        g = signed_cycle(4, negative_edges=(0, 1, 2, 3))
        assert cycle_sign(g, (0, 1, 2, 3)) == 1

    def test_missing_edge(self, c5):
        with pytest.raises(NotACycleError):
            cycle_sign(c5, (0, 1, 3))

    def test_too_few_distinct_vertices(self):
        g = SignedGraph.from_edges(2, [(0, 1, 1)])
        with pytest.raises(NotACycleError):
            cycle_sign(g, (0, 1))


@st.composite
def signing_pairs(draw, max_n: int = 9) -> tuple[SignedGraph, SignedGraph, SignedGraph]:
    """A signing g, a random switching of it and an independent signing of
    its underlying graph, which may have isolated vertices and several
    components."""
    n = draw(st.integers(1, max_n))
    candidates = list(combinations(range(n), 2))
    pairs = draw(st.lists(st.sampled_from(candidates), unique=True)) if candidates else []

    def signing() -> SignedGraph:
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(pairs), max_size=len(pairs)))
        return SignedGraph.from_edges(n, [(u, v, s) for (u, v), s in zip(pairs, signs)])

    g, other = signing(), signing()
    eta = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return g, apply_switching(g, eta), other


class TestSwitchingEquivalence:
    @given(signing_pairs())
    @example((
        SignedGraph.from_edges(8, [(0, 1, -1), (1, 2, 1), (0, 2, 1), (4, 5, -1), (5, 6, -1), (4, 6, -1)]),
        SignedGraph.from_edges(8, [(0, 1, 1), (1, 2, -1), (0, 2, 1), (4, 5, 1), (5, 6, 1), (4, 6, -1)]),
        SignedGraph.from_edges(8, [(0, 1, -1), (1, 2, 1), (0, 2, 1), (4, 5, 1), (5, 6, -1), (4, 6, -1)]),
    ))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_quotient_balance_oracle(self, graphs):
        g, switched, other = graphs
        for a, b in ((g, switched), (switched, g), (g, other), (other, switched)):
            assert is_switching_equivalent(a, b) == switching_equivalent_by_quotient(a, b), (a.to_sg(), b.to_sg())
        assert is_switching_equivalent(g, switched)

    @given(signed_graphs(min_n=1, max_n=8), st.integers(0, 2**16))
    @settings(max_examples=80, deadline=None)
    def test_switched_graph_is_equivalent(self, g, seed):
        eta = random_switching(g.n, seed)
        assert is_switching_equivalent(g, apply_switching(g, eta))

    def test_c5_not_equivalent_to_all_positive(self, c5):
        assert not is_switching_equivalent(c5, c5.with_all_signs(1))

    def test_reflexive(self, c5):
        assert is_switching_equivalent(c5, c5)

    def test_underlying_mismatch(self, c5):
        with pytest.raises(UnderlyingMismatchError):
            is_switching_equivalent(c5, SignedGraph(5))

    @given(signed_graphs(max_n=7), st.integers(0, 2**16))
    @settings(max_examples=50, deadline=None)
    def test_balanced_clique_switching_invariant(self, g, seed):
        if g.n == 0:
            return
        eta = random_switching(g.n, seed)
        assert balanced_clique_number(apply_switching(g, eta)) == balanced_clique_number(g)
