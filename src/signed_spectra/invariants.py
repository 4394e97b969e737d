"""Exact and heuristic computation of the combinatorial invariants.

Frustration index, edge bipartiteness and the r-frustration index are
minima over the switching class, each one maximisation of x^T M x over the
2^(n-1) switchings x (vertex 0 pinned) by one kernel,
``_max_switching_form``: M is the signed adjacency matrix A for eps, -|A|
for eps_b and A^(r-1) for eps_r.  ``_GUARDS`` holds each exact function's
limit on n and ``_guard_limits`` the limits in force, all of them replaced
by the ``SIGNED_SPECTRA_MAX_N`` environment variable when it is set;
``force=True`` skips a guard and reads no limit.  Past a guard,
``bounds._Ctx.exact_or_bound`` falls back to the heuristic bounds of
``frustration_index_upper`` and ``greedy_balanced_clique``.

Walk counts are exact integers from ``_walk_sums``, which raises
OverflowError once the count of unsigned walks exceeds 2^63 - 1.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidParamsError, TooLargeError, _int_param
from .graph import SignedGraph, _dense_zeros, _signed_matrix
from .switching import propagation_labels

#: the largest n each exact function takes unless forced, by its guard's name
_GUARDS = {
    "frustration_index_exact": 25,
    "edge_bipartiteness": 25,
    "r_frustration_index": 20,
    "balanced_clique_number": 40,
}

_INT64_MAX = 2**63 - 1
# entries per block: of one GEMM block of the switching kernel (256 KiB in
# float64, 128 KiB in float32), of the restarts that each form of
# ``_frustration_uppers`` descends together (one draw per block, shared by
# the forms), and of the samples ``search`` decomposes together
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

# orders up to which ``_max_switching_form`` takes every switching in one
# product, which beats the blocked path there; past it the lead shrinks
# while each order doubles the table, and the cap keeps the tables of one
# dtype within about 40 KB in float32 (74 KB in float64 or int64).
_PRODUCT_MAX_N = 10

# rows of the largest bounds that give ``_max_switching_form`` its
# incumbent; 8 to 32 rows run level, and the pruning pays from about
# n = 18, costing a little more than it saves on smaller orders that no
# benchmark workload runs.
_INCUMBENT_ROWS = 32


@lru_cache(maxsize=None)  # n <= _PRODUCT_MAX_N and three dtypes: about 0.2 MB at most
def _switching_table(n: int, dtype: type) -> np.ndarray:
    """The +-1 rows of the 2^(n-1) switchings of order n with x_0 = +1, in
    the blocked path's scan order: row i 2^h + j is the switching of code
    (2i) | (j << a), a = ceil(n/2) and h = n - a (bit v set <=> x_v = -1)."""
    a, h = (n + 1) // 2, n // 2
    k = np.arange(1 << (n - 1))
    codes = (k >> h) << 1 | (k & ((1 << h) - 1)) << a
    table = (1 - 2 * ((codes[:, None] >> np.arange(n)) & 1)).astype(dtype)
    table.flags.writeable = False
    return table


def _max_switching_form(mat: np.ndarray, bound: int) -> tuple[int, tuple[int, ...]]:
    """max x^T M x over x in {+-1}^n with x_0 = +1, and an x attaining it.

    ``mat`` is a symmetric int64 matrix with n >= 1 and ``bound`` is at
    least sum |M_ij|.  Up to n = ``_PRODUCT_MAX_N`` one product takes every
    switching at once: with T the +-1 table of all 2^(n-1) switchings
    (``_switching_table``), x^T M x is row k of ((T M) * T) summed, and its
    first maximum is the certificate.  Past that the vertices split into
    L = [0, a) and H = [a, n); with X_L and X_H the +-1 tables of the halves
    (x_0 pinned in X_L),

        x^T M x = q_L + q_H + x_L^T (2 M_LH) x_H,

    so the product of the rows [X_L 2M_LH | q_L | 1] with the columns
    [X_H | 1 | q_H] holds x^T M x for every switching.  It is taken one
    GEMM block of at most ``_BLOCK_ENTRIES`` values at a time.  Up to the
    cap the whole product is one block, and T lists the switchings in that
    block's row-major order, so both paths return the same certificate on
    ties.  Past ``_PRODUCT_MAX_N`` the certificate is the first maximiser of
    the tiled scan, whose tiles follow ``_BLOCK_ENTRIES``: on ties it is
    some maximiser with x_0 = +1 and moves with that constant (it does on
    -K_20).  Every partial sum is an integer of magnitude at most
    sum |M_ij|, and a float with a p-bit significand holds every integer up
    to 2^p, so the tables and products are exact in any summation order:
    they run in float32 while ``bound`` is below 2^24, in float64 while it
    is below 2^53, and in int64 from there on.  A sign table that cannot be
    allocated raises TooLargeError.

    The blocked scan skips the left rows that cannot hold a maximiser.  No
    switching of a left row x_L beats

        q_L + max q_H + ||2 M_HL x_L||_1,

    whose partial sums are integers of magnitude at most sum |M_ij| too, so
    it is exact in every dtype.  The incumbent is the best value over the
    ``_INCUMBENT_ROWS`` rows of the largest bounds, taken in blocks of at
    most ``_BLOCK_ENTRIES`` values.  The scan then runs over the rows whose
    bound is at least the incumbent, in the full scan's order: every row
    that holds a maximiser is among them, so the first maximiser, and with
    it the certificate, is that of the full scan.
    """
    n = mat.shape[0]
    a = (n + 1) // 2
    h = n - a
    dtype = np.float32 if bound < 1 << 24 else np.float64 if bound < 1 << 53 else np.int64
    m = mat.astype(dtype)
    if n <= _PRODUCT_MAX_N:
        table = _switching_table(n, dtype)
        values = ((table @ m) * table) @ np.ones(n, dtype=dtype)
        k = int(values.argmax())
        return int(values[k]), tuple(table[k].astype(int).tolist())
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
    # scan only the left rows whose bound reaches the incumbent
    row_bound = left[:, h] + np.abs(left[:, :h]).sum(axis=1) + right[h + 1].max()
    top = left[np.argsort(row_bound)[-_INCUMBENT_ROWS:]]
    step = max(1, _BLOCK_ENTRIES // _INCUMBENT_ROWS)
    incumbent = max((top @ right[:, c0 : c0 + step]).max() for c0 in range(0, len(xh), step))
    rows = np.flatnonzero(row_bound >= incumbent)
    left = left[rows]
    # tile both axes: one-row blocks would stream all of ``right`` per row of xl
    col_step = min(len(xh), max(1, _BLOCK_ENTRIES >> 8))
    row_step = max(1, _BLOCK_ENTRIES // col_step)
    best, code = -bound - 1, 0
    for c0, r0 in product(range(0, len(xh), col_step), range(0, len(left), row_step)):
        block = left[r0 : r0 + row_step] @ right[:, c0 : c0 + col_step]
        k = int(block.argmax())
        if block.flat[k] > best:
            best = int(block.flat[k])
            i, j = divmod(k, block.shape[1])
            code = int(rows[r0 + i]) << 1 | (c0 + j) << a
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
    return _frustration(_signed_matrix(g), g.m)


def _frustration(a: np.ndarray, m: int) -> int:
    """The frustration index of the graph with m edges whose signed int64
    matrix is ``a``; with a = -|A|, its edge bipartiteness."""
    if m == 0:
        return 0
    best, _ = _max_switching_form(a, 2 * m)
    return (m - best // 2) // 2


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
    the stream of ``random.Random(seed).choice((1, -1))``, n per restart,
    with ties broken by lowest vertex index.  The restarts descend together
    in blocks, in float32: ``_frustration_uppers`` runs them, and
    ``bounds`` asks it for eps and eps_b at once, from one draw of the
    restarts.
    """
    iters = _int_param("frustration_index_upper", "iters", iters)
    seed = _int_param("frustration_index_upper", "seed", seed)
    if iters < 1:
        raise InvalidParamsError(f"iters must be >= 1, got {iters}")
    return _frustration_uppers((g,), iters, seed)[0]


def _frustration_uppers(graphs: Sequence[SignedGraph], iters: int, seed: int) -> tuple[int, ...]:
    """``frustration_index_upper(h, iters, seed)`` for each h of ``graphs``,
    graphs of one order and one edge count, from one draw of restarts.

    Each restart is drawn once and descends in every form, in blocks of
    at most max(1, ``_BLOCK_ENTRIES`` // n) restarts so memory stays bounded
    for any ``iters``; the labeling's row joins each form's first block.
    The rows of a block descend together, each reaching what its start
    would reach alone.  A form is the ``_flip_table`` of a graph that is
    neither edgeless nor balanced; no restart is drawn when none is left.
    The descent runs in float32, which is exact: every value it holds, an
    entry of x (2A) or a partial sum of one, is an integer of magnitude at
    most 2 deg v <= 2(n - 1), below 2^24 for every n <= 2^23, and past that
    a (2n, n) table of over 2^47 entries cannot be allocated.  Row totals are
    summed in float64.  The float32 tables of two forms take the 16 n^2
    bytes of one float64 A and 2A.  A table that cannot be allocated raises
    TooLargeError before the balance test.
    """
    n, m = graphs[0].n, graphs[0].m
    if m == 0:
        return (0,) * len(graphs)
    best = [0] * len(graphs)
    forms = []
    for i, h in enumerate(graphs):
        table = _flip_table(h)
        labels, conflict, _ = propagation_labels(h)
        if conflict is not None:
            best[i] = m
            forms.append((i, table, labels))
    rng = random.Random(seed)
    block = max(1, _BLOCK_ENTRIES // n)
    for first in range(0, iters if forms else 0, block):
        signs = _choice_signs(rng, min(block, iters - first) * n).reshape(-1, n).astype(np.float32)
        for i, table, labels in forms:
            x = np.concatenate((np.array([labels], np.float32), signs)) if first == 0 else signs.copy()
            best[i] = min(best[i], _descend(table, x, m))
    return tuple(best)


def _flip_table(g: SignedGraph) -> np.ndarray:
    """The float32 (2n, n) table whose rows v and n + v are -2 A[v] and
    2 A[v], for A the signed matrix of ``g``: the change to x A when x_v
    flips from +1 and from -1.  It is set from the edges; one that cannot
    be allocated raises TooLargeError."""
    n = g.n
    table = _dense_zeros(2, n, np.float32).reshape(2 * n, n)
    u, v, s = np.fromiter(chain.from_iterable(g.edges), np.intp, 3 * g.m).reshape(-1, 3).T
    table[u, v] = table[v, u] = -2 * s
    table[n + u, v] = table[n + v, u] = 2 * s
    return table


def _descend(table: np.ndarray, x: np.ndarray, m: int) -> int:
    """The fewest negative edges over the local minima that steepest
    single-vertex flips reach from the rows of x, on the graph with m edges
    whose ``_flip_table`` is ``table``; x is overwritten."""
    k, n = x.shape
    # with ax = x A, flipping v changes a row's negative-edge count by
    # d_v = x_v (ax)_v = deg v - 2 neg v, and ax by row v or n + v of the table
    ax = x @ table[n:]
    ax /= 2
    starts = np.arange(0, k * n, n)
    best = m
    while len(x):
        d = x * ax
        v = d.argmin(axis=1)  # the lowest vertex on ties
        at = starts[: len(x)] + v
        go = d.reshape(-1)[at] < 0
        if not go.all():  # a stopped row leaves (m - x^T A x / 2) / 2 negative edges
            best = min(best, (m - int(d[~go].sum(axis=1, dtype=np.float64).max()) // 2) // 2)
            x, ax, v = x[go], ax[go], v[go]
            at = starts[: len(x)] + v
        flat = x.reshape(-1)
        s = flat[at]
        flat[at] = -s
        ax += table.take(np.where(s > 0, v, v + n), axis=0)
    return best


def edge_bipartiteness(g: SignedGraph, *, force: bool = False) -> int:
    """Least number of edge deletions making the underlying graph bipartite.

    Equals the frustration index of (G, -1), whose signed matrix is -|A|:
    that graph is balanced exactly when G is bipartite.
    """
    _check_guard(g.n, "edge_bipartiteness", force=force)
    return _frustration(-np.abs(_signed_matrix(g)), g.m)


# ---------------------------------------------------------------------------
# Balanced clique number
# ---------------------------------------------------------------------------

def _max_balanced_clique(g: SignedGraph, *, force: bool = False) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Branch-and-bound maximum balanced clique.

    Returns (size, members, labels), members ascending.  The labels are
    vertex signs with sign(u, v) = label(u) * label(v) on every clique edge:
    +1 on the lowest member and, on every other member, its sign to the
    lowest (``_clique_labels``).  A clique admitting such labels is exactly
    a balanced complete subgraph.

    The candidates that may join the current clique are two bitmasks over
    ``SignedGraph._masks``, one per label they would take.  Each step takes
    the lowest candidate v, prunes when the clique plus every candidate left
    cannot beat the best, and passes on the later candidates whose edge to v
    has the sign their labels ask for.  The search is one loop over a list
    of members and a list of the masks saved at each descent, with no
    recursion, so it has no depth limit.
    """
    _check_guard(g.n, "balanced_clique_number", force=force)
    if g.n == 0:
        raise InvalidParamsError("balanced clique number needs at least one vertex")
    pos, neg = g._masks
    best: tuple[int, ...] = (0,)
    members = [0]
    saved: list[tuple[int, int]] = []  # each open level's candidates, less the member it added
    cp, cn = pos[0], neg[0]  # candidates with label +1 and -1
    while True:
        cand = cp | cn
        if cand and len(members) + cand.bit_count() > len(best):
            low = cand & -cand
            v = low.bit_length() - 1
            if cp & low:
                cp ^= low
                saved.append((cp, cn))
                cp, cn = cp & pos[v], cn & neg[v]
            else:
                cn ^= low
                saved.append((cp, cn))
                cp, cn = cp & neg[v], cn & pos[v]
            members.append(v)
            if len(members) > len(best):
                best = tuple(members)
        elif saved:
            cp, cn = saved.pop()
            members.pop()
        elif g.n - members[0] - 1 > len(best):  # a later lowest member may beat the best
            v = members[0] + 1
            members[0] = v
            above = -2 << v
            cp, cn = pos[v] & above, neg[v] & above
        else:
            return len(best), best, _clique_labels(g, best)


def _clique_labels(g: SignedGraph, members: Sequence[int]) -> tuple[int, ...]:
    """The labels of a balanced clique: +1 on its first member and, on every
    other member, its sign to the first."""
    positive = g._masks[0][members[0]]
    return (1, *(1 if positive >> v & 1 else -1 for v in members[1:]))


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
    """Count the triangles by the product of their edge signs.

    Per vertex u, two bitmasks hold its positive and its negative
    neighbours above it, bit i standing for vertex u + 1 + i, so they take
    about half the bits of whole neighbour masks and are dropped on return.
    For each edge uv with u < v, shifting u's masks by v - u lines them up
    with v's, and the common neighbours w > v joined to u and v by edges of
    one sign close a triangle of the sign of uv, the others one of the
    opposite sign.  6 * t_s equals trace(A^3) exactly in integer arithmetic.
    """
    pos, neg = [0] * g.n, [0] * g.n
    for u, v, s in g.edges:
        (pos if s > 0 else neg)[u] |= 1 << (v - u - 1)
    t_plus = t_minus = 0
    for u, v, s_uv in g.edges:
        pu, nu, pv, nv = pos[u] >> (v - u), neg[u] >> (v - u), pos[v], neg[v]
        same = (pu & pv) | (nu & nv)
        opposite = (pu & nv) | (nu & pv)
        if s_uv < 0:
            same, opposite = opposite, same
        t_plus += same.bit_count()
        t_minus += opposite.bit_count()
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


def _walk_totals(n: int) -> list:
    """The walk state of a graph of order n at order 1, the one argument
    ``_walk_sums`` reads and extends: ``[sums, unsigned vector, signed
    vector]``, with ``sums[k - 1]`` the pair of walk sums at order k."""
    return [[(n, n)], [1] * n, [1] * n]


def _walk_order(r: int) -> int:
    """The order whose sums ``_walk_sums`` returns for order r: r itself up
    to 125, and past it 124 or 125, whichever has the parity of r.

    A graph with a vertex of degree >= 2 contains the path P3, whose
    unsigned walk count leaves the 64-bit range at order 124, and walk
    counts only grow on a supergraph, so its walk sums overflow by order
    124.  On any other graph every walk past its first vertex runs back and
    forth along one edge, so its sums repeat with period 2 from order 2.
    """
    return r if r <= 125 else 124 + r % 2


def _walk_sums(g: SignedGraph, r: int, walks: list) -> tuple[int, int]:
    """(e^T |A|^(r-1) e, e^T A^(r-1) e), exact; r < 1 raises InvalidParamsError.

    ``walks`` is a ``_walk_totals`` state, stepped as far as order
    ``_walk_order(r)`` by one pass over the edges per order, which steps
    both vectors.  That step raises OverflowError, and keeps the state, at
    the first order whose unsigned sum leaves the 64-bit range.  From r = 2
    on that sum never decreases: every vertex a walk reaches has a
    neighbour, so each walk extends by one more step.  So an entry of some
    |A|^k (k <= r - 1) above 2^63 - 1 forces the sum at order r above it
    too, and the one rule "raise when e^T |A|^(r-1) e exceeds 2^63 - 1" is
    the same as checking every entry of every power; the signed sum is at
    most the unsigned one in magnitude.
    """
    if r < 1:
        raise InvalidParamsError(f"walk order r must be >= 1, got {r}")
    k = _walk_order(r)
    sums = walks[0]
    while len(sums) < k:
        y, x = walks[1], walks[2]
        ny, nx = [0] * g.n, [0] * g.n
        for u, v, s in g.edges:
            ny[u] += y[v]
            ny[v] += y[u]
            nx[u] += s * x[v]
            nx[v] += s * x[u]
        w_total = sum(ny)
        if w_total > _INT64_MAX:
            raise OverflowError("walk counts exceed the 64-bit integer range")
        sums.append((w_total, sum(nx)))
        walks[1], walks[2] = ny, nx
    return sums[k - 1]


def walk_census(g: SignedGraph, r: int) -> WalkCensus:
    """Exact walk counts: w_total = e^T |A|^(r-1) e, w_signed = e^T A^(r-1) e.

    Takes at most 124 matrix-vector steps for any r (``_walk_order``).
    """
    r = _int_param("walk_census", "r", r)
    w_total, w_signed = _walk_sums(g, r, _walk_totals(g.n))
    return WalkCensus(r, w_total, w_signed, (w_total + w_signed) // 2, (w_total - w_signed) // 2)


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
    r = _int_param("r_frustration_index", "r", r)
    if r < 1:
        raise InvalidParamsError(f"walk order r must be >= 1, got {r}")
    _check_guard(g.n, "r_frustration_index", force=force)
    return _r_frustration(lambda: _signed_matrix(g), r, walk_census(g, r).w_total)


def _r_frustration(matrix: Callable[[], np.ndarray], r: int, w_total: int) -> int:
    """``r_frustration_index`` for r >= 1 of the graph whose signed int64
    matrix ``matrix()`` gives, given w_total = e^T |A|^(r-1) e: 0 for r = 1,
    and for w_total = 0, which for r >= 2 means no edges.  Those two build
    no matrix, which on a large forced graph could not be allocated."""
    if r == 1 or w_total == 0:
        return 0
    best, _ = _max_switching_form(np.linalg.matrix_power(matrix(), r - 1), w_total)
    return (w_total - best) // 2
