"""Dense symmetric eigendecomposition and spectrum-derived quantities.

The eigensolver is LAPACK's symmetric solver, called as ``numpy.linalg.eigh``.
Its contract is accuracy, not an algorithm: on symmetric matrices with
entries in {-1, 0, 1} up to order 64 the reconstruction error stays below
1e-8 and the eigenvector orthogonality error below 1e-10 (acceptance
criterion 08).  A LAPACK failure to converge is raised as
NoConvergenceError.  ``eigen_decomposition``, ``spectrum_of`` and
``Spectrum`` serve the ``spectrum`` command and the public API, and check
every matrix.  The registry and the counterexample search read only
eigenvalues, through ``_eigenvalues``, which checks none, as it takes only
int64 matrices built from valid graphs; it gives each matrix the
eigenvalues of ``eigen_decomposition``, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidParamsError, NoConvergenceError, _int_param
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


def _eigenvalues(a: np.ndarray) -> np.ndarray:
    """The eigenvalues of each matrix of a (k, n, n) stack, or of one (n, n)
    matrix, sorted descending, as one read-only (k, n) or (n,) array from
    one ``eigh`` call, with no eigenvectors kept and no ``Spectrum`` built.
    The counterexample search calls it once per order on each block of
    samples, and ``bounds._Ctx`` on a graph's int64 matrix or its |A|.

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
    if a.ndim == 2:  # indexing one row costs about half of ``take_along_axis``
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
    return _ms_closed_form(_max_balanced_clique(g)[0])


def _ms_closed_form(omega: int) -> Fraction:
    """(omega - 1) / (2 omega), the MS-index of a balanced clique number."""
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
    return Fraction(_clique_total(g, clique), clique[0] ** 2)


def _clique_total(g: SignedGraph, clique: tuple[int, tuple[int, ...], tuple[int, ...]]) -> int:
    """The integer sum of A_uw l_u l_w over the clique's pairs u < w."""
    _, members, labels = clique
    pos, neg = g._masks
    return sum(
        ((pos[u] >> w & 1) - (neg[u] >> w & 1)) * labels[i] * labels[j]  # A_uw
        for i, u in enumerate(members)
        for j, w in enumerate(members[i + 1 :], i + 1)
    )
