"""Dense symmetric eigendecomposition and spectrum-derived quantities.

The eigensolver is LAPACK's symmetric solver, called as ``numpy.linalg.eigh``.
Its contract is accuracy, not an algorithm: on symmetric matrices with
entries in {-1, 0, 1} up to order 64 the reconstruction error stays below
1e-8 and the eigenvector orthogonality error below 1e-10 (acceptance
criterion 08).  A LAPACK failure to converge is raised as
NoConvergenceError.
"""

from __future__ import annotations

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
    fro = float(np.linalg.norm(entries))
    tau_z = ZERO_TOL_FACTOR * max(1.0, fro)
    n_pos = int(np.sum(vals > tau_z))
    n_neg = int(np.sum(vals < -tau_z))
    coeffs = vecs.sum(axis=0) ** 2
    vals.setflags(write=False)
    vecs.setflags(write=False)
    coeffs.setflags(write=False)
    return Spectrum(
        eigenvalues=vals,
        eigenvectors=vecs,
        rho=float(np.max(np.abs(vals))) if vals.size else 0.0,
        inertia=(n_pos, n_neg, len(vals) - n_pos - n_neg),
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
    mass-reallocation coordinate descent on the unit l1 sphere.  Every
    evaluated point is feasible, so the result never exceeds the true
    maximum beyond float roundoff.
    """
    if iters < 1:
        raise InvalidParamsError(f"iters must be >= 1, got {iters}")
    _, exact = ms_witness(g, force=force)
    best = float(exact)
    if g.n < 2 or g.m == 0:
        return best
    a = adjacency_matrix(g).entries
    rows = a.tolist()
    rng = random.Random(seed)

    # The pair loop runs on Python floats (rows of ``a``, lists ``x`` and
    # ``y``): numpy scalar indexing costs more than the arithmetic here.
    def polish(xa: np.ndarray) -> float:
        x = xa.tolist()
        y = (a @ xa).tolist()
        for _ in range(40):
            improved = False
            for i in range(g.n):
                row_i = rows[i]
                for j in range(i + 1, g.n):
                    budget = abs(x[i]) + abs(x[j])
                    if budget == 0.0:
                        continue
                    w = row_i[j]
                    gi = y[i] - w * x[j]
                    gj = y[j] - w * x[i]
                    cur = x[i] * gi + x[j] * gj + w * x[i] * x[j]
                    cand_val, cand = cur, None
                    for su in (1.0, -1.0):
                        for sj in (1.0, -1.0):
                            # value of the pair terms at x_i = su*rr,
                            # x_j = sj*(budget - rr) is a quadratic in rr
                            a2 = -su * sj * w
                            a1 = su * gi - sj * gj + su * sj * w * budget
                            a0 = sj * gj * budget
                            rrs = [0.0, budget]
                            if a2 < 0.0:
                                peak = -a1 / (2.0 * a2)
                                if 0.0 < peak < budget:
                                    rrs.append(peak)
                            for rr in rrs:
                                val = a0 + a1 * rr + a2 * rr * rr
                                if val > cand_val + 1e-13 * (1.0 + abs(cur)):
                                    cand_val, cand = val, (su * rr, sj * (budget - rr))
                    if cand is not None:
                        old_i, old_j = x[i], x[j]
                        x[i], x[j] = cand
                        d_i, d_j = x[i] - old_i, x[j] - old_j
                        row_j = rows[j]  # rows are columns: a is symmetric
                        for k in range(g.n):
                            y[k] += row_i[k] * d_i + row_j[k] * d_j
                        improved = True
            if not improved:
                break
            xa = np.array(x)
            norm = float(np.sum(np.abs(xa)))
            if norm > 0.0:
                xa /= norm
                x = xa.tolist()
                y = (a @ xa).tolist()
        xa = np.array(x)
        return float(xa @ (a @ xa) / 2.0)

    for _ in range(iters):
        x = np.array([rng.uniform(-1.0, 1.0) for _ in range(g.n)])
        norm = float(np.sum(np.abs(x)))
        if norm == 0.0:
            continue
        best = max(best, polish(x / norm))
    return best
