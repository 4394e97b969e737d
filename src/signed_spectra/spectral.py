"""Dense symmetric eigendecomposition and spectrum-derived quantities.

The eigensolver is LAPACK's symmetric solver, called as ``numpy.linalg.eigh``.
Its contract is accuracy, not an algorithm: on symmetric matrices with
entries in {-1, 0, 1} up to order 64 the reconstruction error stays below
1e-8 and the eigenvector orthogonality error below 1e-10 (acceptance
criterion 08).  A LAPACK failure to converge is raised as
NoConvergenceError.  ``eigen_decomposition``, ``spectrum_of`` and
``Spectrum`` serve the ``spectrum`` command and the public API.  The
registry reads only eigenvalues, through ``_eigenvalues``: ``bounds._Ctx``
takes a graph's from one ``eigh`` of its int64 matrix, and the
counterexample search those of a block's samples of one order from one
``eigh`` call on their stack.  LAPACK decomposes a stack's matrices one by
one, and ``_eigenvalues`` sorts with ``eigen_decomposition``'s stable
argsort, so each matrix gets the eigenvalues ``eigen_decomposition`` gives
it, bit for bit.  Input is checked at the public boundary only:
``eigen_decomposition``, ``spectrum_of`` and ``SymmetricMatrix`` check
every matrix, while ``_eigenvalues`` takes only the int64 matrices that
``graph._signed_matrix`` builds from valid graphs, or their ``np.abs``,
which cannot fail those checks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InvalidParamsError, NoConvergenceError, _int_param
from .graph import SignedGraph, SymmetricMatrix, adjacency_matrix
from .invariants import _max_balanced_clique
from .switching import propagation_labels

ZERO_TOL_FACTOR = 1e-8


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues sorted descending with matching orthonormal eigenvectors.

    ``eigenvectors`` holds the eigenvector of ``eigenvalues[i]`` in column
    i.  ``walk_coefficients[i]`` is the squared entry sum of that column;
    within a degenerate eigenspace individual coefficients are basis
    dependent but their sum is not.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    rho: float
    inertia: tuple[int, int, int]
    walk_coefficients: np.ndarray

    @property
    def s_plus(self) -> float:
        """Sum of squared positive eigenvalues (zero-tolerance classified)."""
        n_pos = self.inertia[0]
        return float(np.sum(self.eigenvalues[:n_pos] ** 2))

    @property
    def s_minus(self) -> float:
        """Sum of squared negative eigenvalues (zero-tolerance classified)."""
        n_neg = self.inertia[1]
        return float(np.sum(self.eigenvalues[len(self.eigenvalues) - n_neg :] ** 2))


def eigen_decomposition(a: SymmetricMatrix | np.ndarray) -> Spectrum:
    """Full eigendecomposition of a symmetric matrix.

    The input must be finite (else InvalidParamsError) and symmetric within
    1e-12 (else NotSymmetricError).  Eigenvalues come back sorted
    descending (stable order on ties), with eigenvector columns permuted
    accordingly.  The inertia counts an eigenvalue as zero within
    tau_z = ZERO_TOL_FACTOR * max(1, ||A||_F).
    """
    entries = (a if isinstance(a, SymmetricMatrix) else SymmetricMatrix(a)).entries
    vals, vecs = _eigh(entries)
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    # Python floats from here: on tiny arrays numpy's per-call overhead
    # outweighs the work.  ``flat @ flat`` is the dot np.linalg.norm takes.
    flat = entries.ravel(order="K")
    tau_z = ZERO_TOL_FACTOR * max(1.0, math.sqrt(float(flat @ flat)))
    desc = vals.tolist()
    n_pos = sum(1 for v in desc if v > tau_z)
    n_neg = sum(1 for v in desc if v < -tau_z)
    coeffs = vecs.sum(axis=0) ** 2
    vals.setflags(write=False)
    vecs.setflags(write=False)
    coeffs.setflags(write=False)
    return Spectrum(
        eigenvalues=vals,
        eigenvectors=vecs,
        rho=max(abs(desc[0]), abs(desc[-1])) if desc else 0.0,
        inertia=(n_pos, n_neg, len(desc) - n_pos - n_neg),
        walk_coefficients=coeffs,
    )


def _eigenvalues(a: np.ndarray, ndim: int = 3) -> np.ndarray:
    """The eigenvalues of each matrix of a (k, n, n) stack, or with
    ``ndim`` 2 of one (n, n) matrix, sorted descending, as one read-only
    (k, n) or (n,) array from one ``eigh`` call, with no eigenvectors kept
    and no ``Spectrum`` built.  The counterexample search calls it once per
    order on each block of samples, and ``bounds._Ctx`` on a graph's int64
    matrix or its |A|.

    ``a`` is not checked: every caller passes an int64 matrix or stack
    that ``graph._signed_matrix`` built from valid graphs, or its
    ``np.abs``, so it is square, finite and exactly symmetric.  The result
    is bit for bit ``eigen_decomposition(a).eigenvalues`` (row i of it for
    ``a[i]`` of a stack): LAPACK decomposes a stack's matrices one by one,
    and the rows are sorted by the same stable argsort.  Reversing LAPACK's
    ascending order would not do, as it swaps a tie of -0.0 and 0.0; nor
    would ``eigvalsh``, as LAPACK's driver without eigenvectors moves the
    last bits.
    """
    vals, _ = _eigh(a)
    if ndim == 2:  # indexing one row costs about half of ``take_along_axis``
        vals = vals[np.argsort(-vals, kind="stable")]
    else:
        vals = np.take_along_axis(vals, np.argsort(-vals, axis=-1, kind="stable"), axis=-1)
    vals.setflags(write=False)
    return vals


def _eigh(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` of a matrix or a stack, with LAPACK's failure to
    converge raised as NoConvergenceError."""
    try:
        return np.linalg.eigh(entries)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigensolver did not converge: {exc}") from exc


def spectrum_of(g: SignedGraph) -> Spectrum:
    """Eigendecomposition of the signed adjacency matrix of ``g``."""
    return eigen_decomposition(adjacency_matrix(g))


def walk_from_spectrum(s: Spectrum, k: int) -> float:
    """Signed k-vertex walk count from the spectral identity sum(c_i l_i^(k-1))."""
    k = _int_param("walk_from_spectrum", "k", k)
    if k < 1:
        raise InvalidParamsError(f"walk order k must be >= 1, got {k}")
    return float(np.sum(s.walk_coefficients * s.eigenvalues ** (k - 1)))


# ---------------------------------------------------------------------------
# MS-index
# ---------------------------------------------------------------------------

def ms_index(g: SignedGraph) -> Fraction:
    """Closed form of the quadratic-form maximum over the unit l1 sphere.

    Exact rational (omega_b - 1) / (2 * omega_b).
    """
    omega = _max_balanced_clique(g)[0]
    return Fraction(omega - 1, 2 * omega)


def ms_witness(g: SignedGraph) -> tuple[np.ndarray, Fraction]:
    """Witness vector attaining the MS-index closed form, with exact value.

    Places +-1/omega_b on a maximum balanced clique, signed by the clique's
    consistent labeling (the switch that makes the clique all-positive,
    pulled back to the original graph).
    """
    clique = omega, members, labels = _max_balanced_clique(g)
    x = np.zeros(g.n)
    for v, lab in zip(members, labels):
        x[v] = lab / omega
    return x, _clique_value(g, clique)


def _clique_value(g: SignedGraph, clique: tuple[int, tuple[int, ...], tuple[int, ...]]) -> Fraction:
    """The exact value of ``ms_witness``'s vector for a (size, members,
    labels) balanced clique of ``g``, without building the vector."""
    omega, members, labels = clique
    total = sum(
        g.sign(u, members[j]) * labels[i] * labels[j]
        for i, u in enumerate(members)
        for j in range(i + 1, len(members))
    )
    return Fraction(total, omega * omega)


def ms_index_search(g: SignedGraph, iters: int = 16, seed: int = 0) -> float:
    """Lower-bound search for the MS-index.

    Starts from the balanced-clique witness (which already attains the
    closed form) and adds seeded random restarts of a pairwise
    mass-reallocation ascent on the unit l1 sphere.  The restarts run on
    the canonical signing D A D of the switching class of ``g`` (D switches
    a BFS spanning forest all-positive), so every signing of a class gets
    the same restarts.  That is still a lower bound for ``g``: a point x of
    the sphere maps to D x, also on the sphere, with (D x)^T A (D x) =
    x^T (D A D) x.  Every evaluated point is feasible, so the result never
    exceeds the true maximum beyond float roundoff.
    """
    iters = _int_param("ms_index_search", "iters", iters)
    seed = _int_param("ms_index_search", "seed", seed)
    exact = _clique_value(g, _max_balanced_clique(g))
    labels, _, _ = propagation_labels(g, full=True)
    canonical = _switched_entries(adjacency_matrix(g).entries, labels)
    return max(float(exact), _ms_search(canonical, iters, seed))


def _switched_entries(a: np.ndarray, labels: Sequence[int]) -> np.ndarray:
    """D A D for D = diag(labels): bit for bit the adjacency entries of the
    switched graph (``+ 0.0`` turns the products -1 * 0 back into 0.0)."""
    d = np.asarray(labels, dtype=float)
    return np.outer(d, d) * a + 0.0


def _ms_search(a: np.ndarray, iters: int, seed: int) -> float:
    """The best value of ``ms_index_search``'s restarts on the adjacency
    entries ``a`` themselves, without the witness; -inf when no restart runs."""
    if iters < 1:
        raise InvalidParamsError(f"iters must be >= 1, got {iters}")
    best = -math.inf
    n = len(a)
    if n < 2 or not a.any():
        return best
    rows = a.tolist()
    nbrs = [[(k, w) for k, w in enumerate(row) if w] for row in rows]
    # a sweep takes the pairs by index distance, so the first and noisiest
    # moves of a sweep do not all fall on vertex 0
    pairs = [(i, i + d, rows[i][i + d]) for d in range(1, n) for i in range(n - d)]
    rng = random.Random(seed)
    for _ in range(iters):
        x = np.array([rng.uniform(-1.0, 1.0) for _ in range(n)])
        norm = float(np.sum(np.abs(x)))
        if norm == 0.0:
            continue
        best = max(best, _polish(a, pairs, nbrs, x / norm))
    return best


def _polish(a: np.ndarray, pairs: list, nbrs: list, xa: np.ndarray) -> float:
    """Cyclic pair ascent from ``xa`` on the unit l1 sphere, at most 40
    sweeps over ``pairs``, the (i, j, A_ij) triples.

    A pair move keeps |x_i| + |x_j| = b and every other coordinate.  With
    g_i, g_j the gradients of 1/2 x^T A x off the pair and w = A_ij in
    {-1, 0, 1}, the pair terms x_i g_i + x_j g_j + w x_i x_j are largest at
    an endpoint (all of b on i or on j, signed by the gradient), unless
    w != 0 and |g_i - w g_j| < b.  Then, with su = sign(g_i + w g_j), the
    concave peak x_i = su r, x_j = su w (b - r), r = (b + su (g_i - w g_j)) / 2,
    beats both endpoints.  Once a sweep ends on the same signed support S
    as the one before, the stationary point of the face, A_SS z = sign(x_S),
    is tried once: z / ||z||_1 replaces x if it keeps every sign and does
    not lower the objective, and the next sweep confirms it.

    The pair loop runs on Python floats (``pairs``, ``nbrs`` and lists
    ``x`` and ``y = A x``): numpy scalar indexing costs more than the
    arithmetic.
    """
    x = xa.tolist()
    y = (a @ xa).tolist()
    last = tried = None
    for _ in range(40):
        improved = False
        for i, j, w in pairs:
            xi, xj = x[i], x[j]
            b = abs(xi) + abs(xj)
            if b == 0.0:
                continue
            gi = y[i] - w * xj
            gj = y[j] - w * xi
            cur = xi * gi + xj * gj + w * xi * xj
            if w != 0.0 and abs(gi - w * gj) < b:
                su = 1.0 if gi + w * gj >= 0.0 else -1.0
                r = (b + su * (gi - w * gj)) / 2.0
                val = su * w * gj * b + r * r
                new_i, new_j = su * r, su * w * (b - r)
            elif abs(gi) >= abs(gj):
                val = b * abs(gi)
                new_i, new_j = (b if gi >= 0.0 else -b), 0.0
            else:
                val = b * abs(gj)
                new_i, new_j = 0.0, (b if gj >= 0.0 else -b)
            if val > cur + 1e-13 * (1.0 + abs(cur)):
                x[i], x[j] = new_i, new_j
                d_i, d_j = new_i - xi, new_j - xj
                for k, w_k in nbrs[i]:
                    y[k] += w_k * d_i
                for k, w_k in nbrs[j]:
                    y[k] += w_k * d_j
                improved = True
        if not improved:
            break
        xa = np.array(x)
        xa /= float(np.sum(np.abs(xa)))
        signs = tuple((v > 0.0) - (v < 0.0) for v in x)
        if signs == last and signs != tried:
            tried = signs
            xa = _face_peak(a, xa, signs)
        last = signs
        x = xa.tolist()
        y = (a @ xa).tolist()
    xa = np.array(x)
    return float(xa @ (a @ xa) / 2.0)


def _face_peak(a: np.ndarray, xa: np.ndarray, signs: tuple[int, ...]) -> np.ndarray:
    """The stationary point of 1/2 x^T A x on the face of the l1 sphere with
    the sign pattern ``signs``, if it lies on that face and is no worse than
    ``xa``; else ``xa``."""
    support = [k for k, s in enumerate(signs) if s]
    s = np.array([signs[k] for k in support], dtype=float)
    try:
        z = np.linalg.solve(a[np.ix_(support, support)], s)
    except np.linalg.LinAlgError:
        return xa
    if not np.all(z * s > 0.0):
        return xa
    xz = np.zeros_like(xa)
    xz[support] = z / float(np.sum(np.abs(z)))
    return xz if xz @ (a @ xz) >= xa @ (a @ xa) else xa
