"""Dense symmetric eigendecomposition and spectrum-derived quantities.

The eigensolver is LAPACK's symmetric solver, called as ``numpy.linalg.eigh``.
Its contract is accuracy, not an algorithm: on symmetric matrices with
entries in {-1, 0, 1} up to order 64 the reconstruction error stays below
1e-8 and the eigenvector orthogonality error below 1e-10 (acceptance
criterion 08).  A LAPACK failure to converge is raised as
NoConvergenceError.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidParamsError, NoConvergenceError
from .graph import SignedGraph, SymmetricMatrix, adjacency_matrix
from .invariants import _max_balanced_clique

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
    try:
        vals, vecs = np.linalg.eigh(entries)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigensolver did not converge: {exc}") from exc
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


def spectrum_of(g: SignedGraph) -> Spectrum:
    """Eigendecomposition of the signed adjacency matrix of ``g``."""
    return eigen_decomposition(adjacency_matrix(g))


def walk_from_spectrum(s: Spectrum, k: int) -> float:
    """Signed k-vertex walk count from the spectral identity sum(c_i l_i^(k-1))."""
    if k < 1:
        raise InvalidParamsError(f"walk order k must be >= 1, got {k}")
    return float(np.sum(s.walk_coefficients * s.eigenvalues ** (k - 1)))


# ---------------------------------------------------------------------------
# MS-index
# ---------------------------------------------------------------------------

def ms_index(g: SignedGraph, *, force: bool = False) -> Fraction:
    """Closed form of the quadratic-form maximum over the unit l1 sphere.

    Exact rational (omega_b - 1) / (2 * omega_b).
    """
    omega = _max_balanced_clique(g, force=force)[0]
    return Fraction(omega - 1, 2 * omega)


def ms_witness(g: SignedGraph, *, force: bool = False) -> tuple[np.ndarray, Fraction]:
    """Witness vector attaining the MS-index closed form, with exact value.

    Places +-1/omega_b on a maximum balanced clique, signed by the clique's
    consistent labeling (the switch that makes the clique all-positive,
    pulled back to the original graph).
    """
    return _clique_witness(g, _max_balanced_clique(g, force=force))


def _clique_witness(
    g: SignedGraph, clique: tuple[int, tuple[int, ...], tuple[int, ...]]
) -> tuple[np.ndarray, Fraction]:
    """``ms_witness`` for a (size, members, labels) balanced clique of ``g``."""
    omega, members, labels = clique
    x = np.zeros(g.n)
    for v, lab in zip(members, labels):
        x[v] = lab / omega
    value = Fraction(0)
    for i, u in enumerate(members):
        for j in range(i + 1, len(members)):
            w = members[j]
            value += Fraction(g.sign(u, w) * labels[i] * labels[j], omega * omega)
    return x, value


def ms_index_search(
    g: SignedGraph, iters: int = 16, seed: int = 0, *, force: bool = False
) -> float:
    """Lower-bound search for the MS-index.

    Starts from the balanced-clique witness (which already attains the
    closed form) and adds seeded random restarts of a pairwise
    mass-reallocation ascent on the unit l1 sphere.  Every evaluated point
    is feasible, so the result never exceeds the true maximum beyond float
    roundoff.
    """
    _, exact = ms_witness(g, force=force)
    return _ms_search(g, adjacency_matrix(g).entries, float(exact), iters, seed)


def _ms_search(g: SignedGraph, a: np.ndarray, best: float, iters: int, seed: int) -> float:
    """``ms_index_search`` on the adjacency entries ``a`` of ``g``, starting
    from the value ``best`` (the witness value, unless a caller leaves it out)."""
    if iters < 1:
        raise InvalidParamsError(f"iters must be >= 1, got {iters}")
    if g.n < 2 or g.m == 0:
        return best
    rows = a.tolist()
    nbrs = [[(k, w) for k, w in enumerate(row) if w] for row in rows]
    # a sweep takes the pairs by index distance, so the first and noisiest
    # moves of a sweep do not all fall on vertex 0
    pairs = [(i, i + d, rows[i][i + d]) for d in range(1, g.n) for i in range(g.n - d)]
    rng = random.Random(seed)
    for _ in range(iters):
        x = np.array([rng.uniform(-1.0, 1.0) for _ in range(g.n)])
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
