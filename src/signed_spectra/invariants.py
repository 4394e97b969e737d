"""Exact and heuristic computation of the combinatorial invariants.

Frustration index, edge bipartiteness and the r-frustration index are
minima over the switching class, and each is one maximisation of a
quadratic form x^T M x over the 2^(n-1) switchings x (vertex 0 is pinned,
x and -x coincide): M is the signed adjacency matrix A for eps, -|A| for
eps_b and A^(r-1) for eps_r.  One kernel, ``_max_switching_form``, does
every such maximisation exactly with blocked matrix products, in float32,
float64 or int64, the first that holds every partial sum.  Guards cap
the exponent: ``_GUARDS`` holds each exact function's limit on n, and
``_guard_limits`` the limits in force, all of them replaced by the
``SIGNED_SPECTRA_MAX_N`` environment variable when it is set.  ``force=True``
skips a guard and reads no limit.  Past a guard,
``bounds._Ctx.exact_or_bound`` falls back to the heuristic bounds
``frustration_index_upper`` and ``greedy_balanced_clique``.

Walk counts are exact integer walk sums, taken by matrix-vector steps on
Python integers; they raise OverflowError once the count of unsigned walks
exceeds 2^63 - 1, the one overflow rule of the walk layer.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, replace
from itertools import count, islice, product
from typing import Iterator

import numpy as np

from .errors import InvalidParamsError, TooLargeError
from .graph import SignedGraph, _signed_matrix, all_negative
from .switching import propagation_labels

#: the largest n each exact function takes unless forced, by its guard's name
_GUARDS = {
    "frustration_index_exact": 25,
    "edge_bipartiteness": 25,
    "r_frustration_index": 20,
    "balanced_clique_number": 40,
}

_INT64_MAX = 2**63 - 1
_WALK_OVERFLOW = "walk counts exceed the 64-bit integer range"
# entries per block: of one GEMM block of the switching kernel (256 KiB in
# float64, 128 KiB in float32), of the restarts ``frustration_index_upper``
# descends together, and of the samples ``search`` decomposes together
_BLOCK_ENTRIES = 1 << 15


def _guard_limits() -> dict[str, int]:
    """The limits in force: ``_GUARDS``, or ``SIGNED_SPECTRA_MAX_N`` for each."""
    raw = os.environ.get("SIGNED_SPECTRA_MAX_N")
    try:
        return _GUARDS if raw is None else dict.fromkeys(_GUARDS, int(raw))
    except ValueError:
        raise InvalidParamsError(f"SIGNED_SPECTRA_MAX_N must be an integer, got {raw!r}") from None


def _check_guard(n: int, what: str, limits: dict[str, int] | None = None, *, force: bool = False) -> None:
    """Check n against ``limits[what]`` (default: those in force) unless forced."""
    if force:
        return
    limit = (limits or _guard_limits())[what]
    if n > limit:
        raise TooLargeError(
            f"{what}: n={n} exceeds the exact-computation guard {limit} "
            "(pass force=True or set SIGNED_SPECTRA_MAX_N to override)",
            n=n,
            limit=limit,
        )


# ---------------------------------------------------------------------------
# Switching-class kernel
# ---------------------------------------------------------------------------

def _max_switching_form(mat: np.ndarray, bound: int) -> tuple[int, tuple[int, ...]]:
    """max x^T M x over x in {+-1}^n with x_0 = +1, and an x attaining it.

    ``mat`` is a symmetric int64 matrix with n >= 1 and ``bound`` is at
    least sum |M_ij|.  The vertices split into L = [0, a) and H = [a, n);
    with X_L and X_H the +-1 tables of the halves (x_0 pinned in X_L),

        x^T M x = q_L + q_H + x_L^T (2 M_LH) x_H,

    so the product of the rows [X_L 2M_LH | q_L | 1] with the columns
    [X_H | 1 | q_H] holds x^T M x for every switching.  It is taken one
    GEMM block of at most ``_BLOCK_ENTRIES`` values at a time.  Every
    partial sum is an integer of magnitude at most sum |M_ij|, and a float
    with a p-bit significand holds every integer up to 2^p, so the tables
    and products are exact in any summation order: they run in float32
    while ``bound`` is below 2^24, in float64 while it is below 2^53, and
    in int64 from there on.  A sign table that cannot be allocated raises
    TooLargeError.
    """
    n = mat.shape[0]
    a = (n + 1) // 2
    h = n - a
    dtype = np.float32 if bound < 1 << 24 else np.float64 if bound < 1 << 53 else np.int64
    m = mat.astype(dtype)
    try:
        table = np.empty((1 << a, a), dtype=dtype)
    except (MemoryError, ValueError):  # numpy's errors for a table past memory or past intp
        raise TooLargeError(
            f"switching-class kernel: n={n} needs a sign table of 2^{a} rows, "
            "which cannot be allocated",
            n=n,
        ) from None
    # row i of the table is the +-1 vector of the bits of i (bit v set <=> -1)
    table[:] = 1 - 2 * ((np.arange(1 << a)[:, None] >> np.arange(a)) & 1)
    xl, xh = table[::2], table[: 1 << h, :h]
    xl_m = xl @ m[:a]
    left = np.empty((len(xl), h + 2), dtype=dtype)
    left[:, :h] = 2 * xl_m[:, a:]
    left[:, h] = (xl_m[:, :a] * xl).sum(axis=1)
    left[:, h + 1] = 1
    right = np.empty((h + 2, len(xh)), dtype=dtype)
    right[:h] = xh.T
    right[h] = 1
    right[h + 1] = ((xh @ m[a:, a:]) * xh).sum(axis=1)
    # tile both axes: one-row blocks would stream all of ``right`` per row of xl
    col_step = min(len(xh), max(1, _BLOCK_ENTRIES >> 8))
    row_step = max(1, _BLOCK_ENTRIES // col_step)
    best, code = -bound - 1, 0
    for c0, r0 in product(range(0, len(xh), col_step), range(0, len(xl), row_step)):
        block = left[r0 : r0 + row_step] @ right[:, c0 : c0 + col_step]
        k = int(block.argmax())
        if block.flat[k] > best:
            best = int(block.flat[k])
            i, j = divmod(k, block.shape[1])
            code = (r0 + i) << 1 | (c0 + j) << a
        if best == bound:
            break
    return best, tuple(1 - 2 * (code >> v & 1) for v in range(n))


# ---------------------------------------------------------------------------
# Frustration index
# ---------------------------------------------------------------------------

def frustration_index_exact(g: SignedGraph, *, force: bool = False) -> int:
    """Minimum number of negative edges over the whole switching class.

    This equals the minimum number of edge deletions that leave a balanced
    graph; the deletion formulation is kept as an independent test oracle.
    A switching x leaves (m - x^T A x / 2) / 2 negative edges, so this is
    one switching-class maximisation.  Exponential in n (``_GUARDS``: n <= 25).
    """
    _check_guard(g.n, "frustration_index_exact", force=force)
    if g.m == 0:
        return 0
    best, _ = _max_switching_form(_signed_matrix(g), 2 * g.m)
    return (g.m - best // 2) // 2


def _choice_signs(rng: random.Random, k: int) -> np.ndarray:
    """``[rng.choice((1, -1)) for _ in range(k)]`` as an int64 array, drawn in bulk.

    Each try of ``choice`` over two items takes one 32-bit word w and keeps
    it when w >> 30 < 2, picking 1 for 0 and -1 for 1.  Every value still
    missing takes at least one more word, so asking ``getrandbits`` for one
    word per missing value never draws past the loop and leaves ``rng`` in
    the loop's state.
    """
    picks = np.empty(0, dtype=np.int64)
    while len(picks) < k:
        need = k - len(picks)
        words = np.frombuffer(rng.getrandbits(32 * need).to_bytes(4 * need, "little"), dtype="<u4")
        tries = (words >> 30).astype(np.int64)
        picks = np.concatenate((picks, tries[tries < 2]))
    return 1 - 2 * picks


def frustration_index_upper(g: SignedGraph, iters: int = 100, seed: int = 0) -> int:
    """Heuristic upper bound on the frustration index for graphs of any size.

    A balanced graph, an edgeless one among them, returns 0 at once:
    ``propagation_labels`` finds no conflict.  Otherwise steepest
    single-vertex-flip local search runs from the spanning-forest
    propagation labeling and from ``iters`` random restarts whose signs are
    the stream of ``random.Random(seed).choice((1, -1))``, n per restart.
    All of them descend together as the rows of one array, in blocks of at
    most max(1, ``_BLOCK_ENTRIES`` // n) restarts so memory stays bounded
    for any ``iters``; the labeling's row joins the first block.  Each row
    reaches what its start would reach alone.  Ties are broken by lowest
    vertex index.
    """
    if iters < 1:
        raise InvalidParamsError(f"iters must be >= 1, got {iters}")
    if g.m == 0:
        return 0
    a = _signed_matrix(g).astype(np.float64)  # for BLAS: every value is an integer of size <= 2m
    labels, conflict, _ = propagation_labels(g)
    if conflict is None:
        return 0
    a2 = 2 * a
    rng = random.Random(seed)
    block = max(1, _BLOCK_ENTRIES // g.n)
    best = g.m
    for first in range(0, iters, block):
        k = min(block, iters - first)
        x = _choice_signs(rng, k * g.n).reshape(k, g.n).astype(np.float64)
        if first == 0:
            x = np.concatenate(([labels], x))
        # with ax = x A, flipping v changes a row's negative-edge count by
        # d_v = x_v (ax)_v = deg v - 2 neg v, and subtracts 2 x_v A[v] from ax
        # (x_v the sign before the flip)
        ax = x @ a
        while len(x):
            d = x * ax
            v = d.argmin(axis=1)  # the lowest vertex on ties
            go = d[np.arange(len(x)), v] < 0
            if not go.all():  # a stopped row leaves (m - x^T A x / 2) / 2 negative edges
                best = min(best, (g.m - int(d[~go].sum(axis=1).max()) // 2) // 2)
                x, ax, v = x[go], ax[go], v[go]
            rows = np.arange(len(x))
            s = x[rows, v]
            x[rows, v] = -s
            ax -= s[:, None] * a2[v]
    return best


def edge_bipartiteness(g: SignedGraph, *, force: bool = False) -> int:
    """Least number of edge deletions making the underlying graph bipartite.

    Equals the frustration index of (G, -1): that graph is balanced exactly
    when G is bipartite.
    """
    _check_guard(g.n, "edge_bipartiteness", force=force)
    return frustration_index_exact(all_negative(g), force=True)


# ---------------------------------------------------------------------------
# Balanced clique number
# ---------------------------------------------------------------------------

def _max_balanced_clique(g: SignedGraph, *, force: bool = False) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Branch-and-bound maximum balanced clique.

    Returns (size, members, labels); labels are vertex signs with
    sign(u, v) = label(u) * label(v) on every clique edge, normalizing the
    lowest member to +1.  A clique admitting such labels is exactly a
    balanced complete subgraph.
    """
    _check_guard(g.n, "balanced_clique_number", force=force)
    if g.n == 0:
        raise InvalidParamsError("balanced clique number needs at least one vertex")
    best_size = 1
    best_members: tuple[int, ...] = (0,)
    best_labels: tuple[int, ...] = (1,)

    def extend(members: list[int], labels: list[int], cand: list[tuple[int, int]]) -> None:
        nonlocal best_size, best_members, best_labels
        if len(members) > best_size:
            best_size = len(members)
            best_members = tuple(members)
            best_labels = tuple(labels)
        for idx, (v, lv) in enumerate(cand):
            if len(members) + len(cand) - idx <= best_size:
                return
            nxt = [
                (w, lw)
                for w, lw in cand[idx + 1 :]
                if g.has_edge(v, w) and g.sign(v, w) == lv * lw
            ]
            extend(members + [v], labels + [lv], nxt)

    for v in range(g.n):
        if 1 + (g.n - v - 1) <= best_size:
            break
        cand = [(w, g.sign(v, w)) for w in g.neighbors(v) if w > v]
        extend([v], [1], cand)
    return best_size, best_members, best_labels


def balanced_clique_number(g: SignedGraph, *, force: bool = False) -> int:
    """Largest vertex count of a balanced complete subgraph (>= 1).

    A single vertex counts as a balanced clique, so an edgeless graph has
    value 1.  Guard: n <= 40 (``_GUARDS``).
    """
    return _max_balanced_clique(g, force=force)[0]


def greedy_balanced_clique(g: SignedGraph) -> int:
    """Deterministic greedy lower bound for the balanced clique number."""
    if g.n == 0:
        raise InvalidParamsError("balanced clique number needs at least one vertex")
    best = 1
    for start in range(g.n):
        members = [start]
        labels = {start: 1}
        # every member is adjacent to start, so only its neighbors can join
        for w in g.neighbors(start):
            if not all(g.has_edge(u, w) for u in members):
                continue
            lw = g.sign(members[0], w) * labels[members[0]]
            if all(g.sign(u, w) == labels[u] * lw for u in members):
                members.append(w)
                labels[w] = lw
        best = max(best, len(members))
    return best


# ---------------------------------------------------------------------------
# Triangle census
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TriangleCensus:
    """Counts of positive and negative triangles and their difference."""

    t_plus: int
    t_minus: int

    @property
    def t_s(self) -> int:
        return self.t_plus - self.t_minus

    @property
    def total(self) -> int:
        return self.t_plus + self.t_minus


def triangle_census(g: SignedGraph) -> TriangleCensus:
    """Enumerate all triangles; classify by the product of their edge signs.

    6 * t_s equals trace(A^3) exactly in integer arithmetic.
    """
    masks = [0] * g.n
    for u, v, _ in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    t_plus = t_minus = 0
    for u, v, s_uv in g.edges:
        common = masks[u] & masks[v] & ~((1 << (v + 1)) - 1)  # w > v only
        while common:
            w_bit = common & -common
            w = w_bit.bit_length() - 1
            common ^= w_bit
            if s_uv * g.sign(u, w) * g.sign(v, w) > 0:
                t_plus += 1
            else:
                t_minus += 1
    return TriangleCensus(t_plus, t_minus)


# ---------------------------------------------------------------------------
# Walk censuses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WalkCensus:
    """Counts of ordered r-vertex walks (length r-1), split by walk sign."""

    r: int
    w_total: int
    w_signed: int
    w_pos: int
    w_neg: int


def _walk_chain(g: SignedGraph) -> Iterator[WalkCensus]:
    """The walk censuses of ``g`` for r = 1, 2, 3, ..., exact and in order.

    Each order takes one matrix-vector step over the edges from the vectors
    of the order before, starting from the all-ones vector, and the chain
    raises OverflowError at the first order whose unsigned sum
    e^T |A|^(r-1) e leaves the 64-bit range.  From r = 2 on that sum never
    decreases: every vertex a walk reaches has a neighbour, so each walk
    extends by one more step.  So an entry of some |A|^k (k <= r - 1) above
    2^63 - 1 forces the sum at order r above it too, and the one rule "raise
    when e^T |A|^(r-1) e exceeds 2^63 - 1" is the same as checking every
    entry of every power.  The counts are exact, so the rule needs no
    prediction.
    """
    unsigned, signed = [1] * g.n, [1] * g.n
    for r in count(1):
        w_total, w_signed = sum(unsigned), sum(signed)
        if w_total > _INT64_MAX:
            raise OverflowError(_WALK_OVERFLOW)
        yield WalkCensus(r, w_total, w_signed, (w_total + w_signed) // 2, (w_total - w_signed) // 2)
        nu, ns = [0] * g.n, [0] * g.n
        for u, v, s in g.edges:
            nu[u] += unsigned[v]
            nu[v] += unsigned[u]
            ns[u] += s * signed[v]
            ns[v] += s * signed[u]
        unsigned, signed = nu, ns


def _walk_order(r: int) -> int:
    """The order of the chain that ``walk_census(g, r)`` reads: r itself up
    to 125, and past it 124 or 125, whichever has the parity of r.

    A graph with a vertex of degree >= 2 contains the path P3, whose
    unsigned walk count leaves the 64-bit range at order 124, and walk
    counts only grow on a supergraph, so its chain raises by order 124.  On
    any other graph every walk past its first vertex runs back and forth
    along one edge, so its censuses repeat with period 2 from order 2.
    """
    return r if r <= 125 else 124 + r % 2


def walk_census(g: SignedGraph, r: int) -> WalkCensus:
    """Exact walk counts: w_total = e^T |A|^(r-1) e, w_signed = e^T A^(r-1) e.

    Takes at most 124 matrix-vector steps for any r (``_walk_order``).
    """
    if r < 1:
        raise InvalidParamsError(f"walk order r must be >= 1, got {r}")
    return replace(next(islice(_walk_chain(g), _walk_order(r) - 1, None)), r=r)


def r_frustration_index(g: SignedGraph, r: int, *, force: bool = False) -> int:
    """Minimum count of negative r-walks over the switching class.

    Uses A(switched)^(r-1) = D A^(r-1) D: a switching x leaves
    (w_total - x^T A^(r-1) x) / 2 negative r-walks, so one integer matrix
    power and one switching-class maximisation suffice.  The power is taken
    in int64: binary powering multiplies only A^i by A^j with i + j <= r - 1,
    and every partial sum of such a product is bounded by an entry of
    |A|^(i+j), hence by w_total, which ``walk_census`` has checked.
    Guard: n <= 20 (``_GUARDS``).  Note the ordered-walk convention: every
    negative edge yields two negative 2-walks, hence eps_2 = 2 * eps.
    """
    if r < 1:
        raise InvalidParamsError(f"walk order r must be >= 1, got {r}")
    _check_guard(g.n, "r_frustration_index", force=force)
    if g.n == 0 or g.m == 0 or r == 1:
        return 0
    return _r_frustration(g, r, walk_census(g, r).w_total)


def _r_frustration(g: SignedGraph, r: int, w_total: int) -> int:
    """``r_frustration_index`` for r >= 2 and m >= 1, given w_total = e^T |A|^(r-1) e."""
    best, _ = _max_switching_form(np.linalg.matrix_power(_signed_matrix(g), r - 1), w_total)
    return (w_total - best) // 2
