"""Eigensolver quality, named spectra, walk identity, MS-index."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from signed_spectra import (
    InvalidParamsError,
    NoConvergenceError,
    NotSymmetricError,
    SignedGraph,
    adjacency_matrix,
    all_negative_complete,
    balanced_clique_number,
    eigen_decomposition,
    ms_index,
    ms_index_search,
    ms_witness,
    spectrum_of,
    triangle_census,
    walk_census,
    walk_from_spectrum,
)
from signed_spectra.spectral import _face_peak, _ms_search

from .conftest import random_graphs, signed_graphs
from .oracles import (
    jacobi_eigenvalues,
    ms_restarts_four_sign_polish,
    ms_search_on_arrays,
    spectrum_by_numpy_reductions,
)

GOLDEN_RATIO = (1 + math.sqrt(5)) / 2


def positive_path3() -> SignedGraph:
    return SignedGraph.from_edges(3, [(0, 1, 1), (1, 2, 1)])


def random_sign_matrix(order: int, seed: int) -> np.ndarray:
    rng = random.Random(seed)
    a = np.zeros((order, order))
    for i in range(order):
        for j in range(i, order):
            a[i, j] = a[j, i] = rng.choice((-1, 0, 1))
    return a


class TestNamedSpectra:
    def test_paper_c5(self, c5):
        vals = spectrum_of(c5).eigenvalues
        expected = [GOLDEN_RATIO, GOLDEN_RATIO, 1 - GOLDEN_RATIO, 1 - GOLDEN_RATIO, -2]
        assert np.allclose(vals, expected, atol=1e-9)
        assert np.allclose(vals, [1.618, 1.618, -0.618, -0.618, -2], atol=1e-3)

    def test_negative_triangle(self):
        vals = spectrum_of(all_negative_complete(3)).eigenvalues
        assert np.allclose(vals, [1, 1, -2], atol=1e-8)

    def test_positive_path(self):
        vals = spectrum_of(positive_path3()).eigenvalues
        assert np.allclose(vals, [math.sqrt(2), 0, -math.sqrt(2)], atol=1e-8)


class TestJacobiQuality:
    """Quality of the library eigensolver (LAPACK), with a Jacobi oracle.

    The class keeps its name so that its test ids stay stable.
    """

    def test_not_symmetric_rejected(self):
        with pytest.raises(NotSymmetricError):
            eigen_decomposition(np.array([[0.0, 1.0], [0.5, 0.0]]))

    @pytest.mark.parametrize("bad", (math.inf, -math.inf, math.nan))
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidParamsError):
            eigen_decomposition(np.array([[0.0, bad], [bad, 0.0]]))

    def test_lapack_failure_raises_no_convergence(self, monkeypatch):
        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        with pytest.raises(NoConvergenceError, match="did not converge"):
            eigen_decomposition(np.eye(3))

    def test_reconstruction_and_orthogonality(self):
        rng = random.Random(5)
        for _ in range(25):
            order = rng.randint(1, 40)
            a = random_sign_matrix(order, rng.randint(0, 10**6))
            spec = eigen_decomposition(a)
            u, vals = spec.eigenvectors, spec.eigenvalues
            rebuilt = u @ np.diag(vals) @ u.T
            assert np.max(np.abs(rebuilt - a)) <= 1e-8
            assert np.max(np.abs(u.T @ u - np.eye(order))) <= 1e-10

    def test_edge_orders(self):
        for order in (0, 1):
            spec = eigen_decomposition(np.zeros((order, order)))
            assert len(spec.eigenvalues) == order
            assert spec.rho == 0.0

    def test_descending_order(self):
        for g in random_graphs(20, max_n=9, seed=2):
            vals = spectrum_of(g).eigenvalues
            assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(len(vals) - 1))

    def test_matches_lapack_eigenvalues(self):
        # the library's LAPACK eigenvalues against an independent Jacobi oracle
        rng = random.Random(17)
        for _ in range(30):
            order = rng.randint(1, 32)
            a = random_sign_matrix(order, rng.randint(0, 10**6))
            ours = eigen_decomposition(a).eigenvalues
            assert np.allclose(ours, jacobi_eigenvalues(a), atol=1e-9)


class TestPostProcessingBitForBit:
    """``eigen_decomposition`` post-processes LAPACK's output on Python
    floats; every field must equal the whole-array numpy reductions bit for
    bit."""

    @staticmethod
    def assert_same(a: np.ndarray) -> None:
        spec = eigen_decomposition(a)
        vals, vecs, coeffs, rho, inertia = spectrum_by_numpy_reductions(a)
        assert spec.eigenvalues.tobytes() == vals.tobytes()
        assert spec.eigenvectors.tobytes() == vecs.tobytes()
        assert spec.walk_coefficients.tobytes() == coeffs.tobytes()
        assert type(spec.rho) is float and spec.rho == rho
        assert spec.inertia == inertia
        assert all(type(k) is int for k in spec.inertia)

    def test_random_symmetric_across_scales(self):
        rng = np.random.default_rng(23)
        for exponent in range(-5, 6):
            for _ in range(40):
                order = int(rng.integers(1, 13))
                b = rng.standard_normal((order, order)) * 10.0**exponent
                self.assert_same((b + b.T) / 2.0)

    def test_low_rank_inertia_near_the_tolerance(self):
        # rank-deficient matrices put roundoff eigenvalues next to tau_z
        rng = np.random.default_rng(29)
        for _ in range(60):
            order = int(rng.integers(2, 10))
            b = rng.standard_normal((order, int(rng.integers(1, order))))
            self.assert_same(b @ b.T - (b[:, :1] @ b[:, :1].T) * 2.0)

    def test_fortran_order_and_tolerated_asymmetry(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            order = int(rng.integers(2, 10))
            b = rng.standard_normal((order, order))
            a = (b + b.T) / 2.0
            a[0, 1] += 1e-13
            self.assert_same(np.asfortranarray(a))
            self.assert_same(a)

    def test_empty_single_and_zero(self):
        for a in (np.zeros((0, 0)), np.array([[2.5]]), np.array([[-3.0]]), np.zeros((4, 4))):
            self.assert_same(a)

    def test_eigenvalues_exactly_at_the_tolerance(self):
        # ||A||_F < 1 puts tau_z at ZERO_TOL_FACTOR = 1e-8; +-1e-8 count as zero
        a = np.diag([1e-8, -1e-8, 0.5, -0.25, 0.0])
        self.assert_same(a)
        assert eigen_decomposition(a).inertia == (1, 1, 3)

    def test_repeated_eigenvalues_of_complete_graphs(self):
        for n in range(1, 12):
            for sign in (1, -1):
                self.assert_same(sign * (np.ones((n, n)) - np.eye(n)))

    def test_signed_adjacency_matrices(self):
        for g in random_graphs(60, max_n=12, seed=37):
            self.assert_same(adjacency_matrix(g).entries)


class TestSpectrumInvariants:
    @given(signed_graphs(max_n=9))
    @settings(max_examples=60, deadline=None)
    def test_sum_rules(self, g):
        spec = spectrum_of(g)
        assert abs(float(np.sum(spec.eigenvalues))) <= 1e-8
        assert abs(float(np.sum(spec.eigenvalues**2)) - 2 * g.m) <= 1e-6
        assert abs(float(np.sum(spec.walk_coefficients)) - g.n) <= 1e-6

    @given(signed_graphs(min_n=2, max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_interlacing_on_vertex_deleted_submatrices(self, g):
        a = adjacency_matrix(g)
        parent = np.sort(spectrum_of(g).eigenvalues)
        for drop in range(g.n):
            keep = [v for v in range(g.n) if v != drop]
            child = np.sort(eigen_decomposition(a.submatrix(keep)).eigenvalues)
            for k in range(g.n - 1):
                assert parent[k] <= child[k] + 1e-8
                assert child[k] <= parent[k + 1] + 1e-8

    def test_cubic_trace_matches_triangles(self):
        for g in random_graphs(25, max_n=9, seed=3, p=(0.5, 0.7)):
            spec = spectrum_of(g)
            assert abs(float(np.sum(spec.eigenvalues**3)) - 6 * triangle_census(g).t_s) <= 1e-6

    def test_inertia_c5(self, c5):
        assert spectrum_of(c5).inertia == (2, 3, 0)

    def test_s_plus_s_minus_split(self, c5):
        spec = spectrum_of(c5)
        assert abs(spec.s_plus + spec.s_minus - 2 * c5.m) <= 1e-6


class TestWalkIdentity:
    def test_k1_gives_n(self, c5):
        assert abs(walk_from_spectrum(spectrum_of(c5), 1) - 5) <= 1e-9

    def test_paper_c5_k2(self, c5):
        assert abs(walk_from_spectrum(spectrum_of(c5), 2) - 6) <= 1e-6

    def test_positive_k2_k3(self):
        g = SignedGraph.from_edges(2, [(0, 1, 1)])
        spec = spectrum_of(g)
        assert np.allclose(sorted(spec.walk_coefficients), [0, 2], atol=1e-9)
        assert abs(walk_from_spectrum(spec, 3) - 2) <= 1e-9

    def test_matches_walk_census(self):
        for g in random_graphs(20, max_n=10, seed=29):
            spec = spectrum_of(g)
            for k in range(1, 9):
                w = walk_census(g, k).w_signed
                assert abs(walk_from_spectrum(spec, k) - w) <= 1e-6 * max(1, abs(w))

    def test_k_validated(self, c5):
        with pytest.raises(InvalidParamsError):
            walk_from_spectrum(spectrum_of(c5), 0)


class TestMsIndex:
    def test_positive_triangle(self):
        g = all_negative_complete(3).with_all_signs(1)
        assert ms_index(g) == Fraction(1, 3)

    def test_negative_triangle(self):
        assert ms_index(all_negative_complete(3)) == Fraction(1, 4)

    def test_edgeless(self):
        assert ms_index(SignedGraph(3)) == 0

    def test_witness_attains_exact_value(self):
        for g in random_graphs(20, max_n=8, seed=31, p=(0.5, 0.8)):
            x, value = ms_witness(g)
            assert value == ms_index(g)
            a = adjacency_matrix(g).entries
            assert abs(float(x @ a @ x) / 2 - float(value)) <= 1e-12

    def test_search_on_positive_triangle(self):
        g = all_negative_complete(3).with_all_signs(1)
        found = ms_index_search(g, iters=8, seed=0)
        assert found >= 1 / 3 - 1e-9
        assert found <= 1 / 3 + 1e-9

    def test_search_on_edgeless(self):
        assert ms_index_search(SignedGraph(3), iters=1, seed=0) == 0.0

    def test_search_on_c5(self, c5):
        found = ms_index_search(c5, iters=8, seed=0)
        assert 1 / 4 - 1e-9 <= found <= 1 / 4 + 1e-9

    def test_search_matches_array_polish_bit_for_bit(self):
        for g in random_graphs(40, max_n=10, seed=43, p=(0.3, 0.6, 0.9), q=(0.3, 0.6)):
            for iters, seed in ((2, 0), (5, 9)):
                assert ms_index_search(g, iters=iters, seed=seed) == ms_search_on_arrays(
                    g, iters=iters, seed=seed
                )

    def test_face_finish(self):
        # on a positive triangle the all-positive face peaks at the uniform
        # witness; with one sign flipped the stationary point (-1, -1, 3) / 5
        # lies off that face, so the polished point is kept
        a = adjacency_matrix(all_negative_complete(3).with_all_signs(1)).entries
        x = np.array([0.5, 0.3, 0.2])
        assert np.allclose(_face_peak(a, x, (1, 1, 1)), [1 / 3, 1 / 3, 1 / 3], rtol=0, atol=1e-15)
        x = np.array([0.5, 0.3, -0.2])
        assert _face_peak(a, x, (1, 1, -1)) is x

    def test_search_never_exceeds_closed_form_beyond_roundoff(self):
        for g in random_graphs(1500, max_n=14, seed=41, p=(0.2, 0.5, 0.8), q=(0.0, 0.3, 0.6, 1.0)):
            assert ms_index_search(g, iters=3, seed=2) <= float(ms_index(g)) + 1e-12

    def test_restarts_catch_an_understated_omega_b(self):
        # B13 with omega_b understated by one: the witness then attains only
        # the wrong closed form, so the restarts alone (iters=2, as in
        # evaluate_all) must beat it.  The four-sign polish the search used
        # before its closed-form moves is the yardstick.  Each polish misses
        # 5-6% of this corpus: graphs where both restarts settle on a
        # maximal balanced clique one vertex short of a maximum one.
        corpus = [
            g
            for g in random_graphs(
                720, max_n=14, min_n=3, seed=47, p=(0.3, 0.5, 0.7, 0.9), q=(0.0, 0.3, 0.6, 1.0)
            )
            if g.m
        ][:600]
        assert len(corpus) == 600
        caught = old_caught = 0
        for g in corpus:
            omega = balanced_clique_number(g)
            wrong = float(Fraction(omega - 2, 2 * (omega - 1))) + 1e-8  # B13's tolerance
            caught += _ms_search(g, adjacency_matrix(g).entries, -math.inf, 2, 0) > wrong
            old_caught += ms_restarts_four_sign_polish(g, 2, 0) > wrong
        assert caught >= old_caught - len(corpus) // 100
        assert caught >= 0.94 * len(corpus)

    def test_search_never_exceeds_closed_form(self):
        for g in random_graphs(25, max_n=8, seed=37, p=(0.4, 0.7)):
            found = ms_index_search(g, iters=6, seed=1)
            exact = float(ms_index(g))
            assert found <= exact + 1e-9
            assert found >= 0.0
