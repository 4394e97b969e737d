"""Independent brute-force oracles.

Everything here is deliberately naive and separate from the library's
computation paths: balance by parity union-find instead of BFS labeling,
frustration by exhaustive edge deletion instead of switching enumeration,
cliques by subset enumeration, walks by explicit sequence enumeration,
the switching-class maximum of a quadratic form by Python-int enumeration
of every switching instead of float products,
walk sums by Python-int matrix powers instead of vector steps, eigenvalues
by cyclic Jacobi rotations instead of LAPACK, the frustration local search
with a full recount after every flip instead of incremental counts, the
maximum balanced clique cross-checked by seeded Motzkin-Straus restarts
on the unit l1 sphere, and the earlier forms of lean or merged paths:
spectrum post-processing by whole-array numpy reductions, the greedy
balanced clique scanning every vertex, the search sampling through
``from_edges`` and deduplicating by a linear scan over every kept finding,
the dense adjacency matrix filled into float zeros, the unsigned lambda_n
from the all-positive signing's own matrix, the signed G(n, p) draw
built through ``from_edges``, and the exact kernels before bitmasks and
pruning: the balanced-clique search, the triangle census and the BFS sign
propagation on sign and neighbour dicts, and the switching-class kernel
scanning every switching; and switching equivalence by the balance of the
quotient signing instead of canonical signings.
"""

from __future__ import annotations

import math
import random
from collections import deque
from itertools import combinations, product

import numpy as np

from signed_spectra import (
    SearchConfig,
    SearchFinding,
    SignedGraph,
    UnderlyingMismatchError,
    adjacency_matrix,
    eigen_decomposition,
    evaluate_bound,
    triangle_census,
)
from signed_spectra import invariants
from signed_spectra.bounds import VIOLATED
from signed_spectra.spectral import ZERO_TOL_FACTOR
from signed_spectra.switching import propagation_labels


def _find(parent, parity, x):
    """Root of x and the sign product along the path to it (no compression)."""
    sign = 1
    while parent[x] != x:
        sign *= parity[x]
        x = parent[x]
    return x, sign


def balanced_by_dsu(n: int, signed_edges) -> bool:
    """Balance check: merge endpoints requiring sign(u,v) = s(u) * s(v)."""
    parent = list(range(n))
    parity = [1] * n
    for u, v, s in signed_edges:
        ru, su = _find(parent, parity, u)
        rv, sv = _find(parent, parity, v)
        if ru == rv:
            if su * s * sv != 1:
                return False
        else:
            parent[ru] = rv
            parity[ru] = su * s * sv
    return True


def switching_equivalent_by_quotient(g1: SignedGraph, g2: SignedGraph) -> bool:
    """``is_switching_equivalent`` by the balance of the quotient signing
    sigma1(e) * sigma2(e) of the shared underlying graph, by union-find."""
    if g1.n != g2.n or g1.underlying_pairs != g2.underlying_pairs:
        raise UnderlyingMismatchError("graphs do not share the same underlying graph")
    return balanced_by_dsu(g1.n, [(u, v, s * g2.sign(u, v)) for u, v, s in g1.sorted_edges()])


def deletion_frustration(g: SignedGraph) -> int:
    """Minimum edge deletions to reach balance, by increasing subset size."""
    edges = g.sorted_edges()
    if balanced_by_dsu(g.n, edges):
        return 0
    for k in range(1, g.m + 1):
        for removed in combinations(range(g.m), k):
            gone = set(removed)
            kept = [e for i, e in enumerate(edges) if i not in gone]
            if balanced_by_dsu(g.n, kept):
                return k
    raise AssertionError("unreachable: deleting all edges always balances")


def brute_balanced_clique(g: SignedGraph) -> int:
    """Maximum balanced complete subgraph by subset enumeration (n <= 12)."""
    assert 1 <= g.n <= 12, "oracle is exponential in n"
    best = 1
    for size in range(2, g.n + 1):
        for subset in combinations(range(g.n), size):
            if not all(g.has_edge(u, v) for u, v in combinations(subset, 2)):
                continue
            induced = [(u, v, g.sign(u, v)) for u, v in combinations(subset, 2)]
            if balanced_by_dsu(g.n, induced):
                best = size
    return best


def enumerate_walks(g: SignedGraph, r: int) -> tuple[int, int, int, int]:
    """(total, signed, positive, negative) ordered r-vertex walk counts."""
    assert r >= 1
    pos = neg = 0
    for start in range(g.n):
        frontier = [(start, 1)]
        for _ in range(r - 1):
            nxt = []
            for v, sign in frontier:
                for w in g.neighbors(v):
                    nxt.append((w, sign * g.sign(v, w)))
            frontier = nxt
        for _, sign in frontier:
            if sign > 0:
                pos += 1
            else:
                neg += 1
    return pos + neg, pos - neg, pos, neg


def min_negative_walks(g: SignedGraph, r: int) -> int:
    """r-frustration oracle: enumerate all switchings and all walks."""
    assert g.n <= 7 and r <= 5, "oracle is doubly exponential"
    from signed_spectra import Switching, apply_switching

    best = None
    for bits in product((1, -1), repeat=max(g.n - 1, 0)):
        eta = Switching((1,) + bits)
        _, _, _, w_neg = enumerate_walks(apply_switching(g, eta), r)
        best = w_neg if best is None else min(best, w_neg)
    return 0 if best is None else best


def max_switching_form_by_enumeration(mat: np.ndarray) -> int:
    """max x^T M x over x in {+-1}^n with x_0 = +1, in Python ints."""
    m = [[int(v) for v in row] for row in mat]
    n = len(m)
    return max(
        sum(x[i] * m[i][j] * x[j] for i in range(n) for j in range(n))
        for x in ((1,) + bits for bits in product((1, -1), repeat=n - 1))
    )


def walk_sums_by_matrix_power(g: SignedGraph, r: int) -> tuple[int, int]:
    """(e^T |A|^(r-1) e, e^T A^(r-1) e) from whole matrix powers.

    Object dtype holds Python ints, so every entry stays exact at any size:
    no overflow check, no vector steps.
    """
    signed = np.zeros((g.n, g.n), dtype=object)
    for u, v, s in g.edges:
        signed[u, v] = signed[v, u] = s
    unsigned = abs(signed)
    return tuple(int(np.linalg.matrix_power(a, r - 1).sum()) for a in (unsigned, signed))


def jacobi_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, descending, by cyclic-by-row Jacobi.

    Sweeps until the off-diagonal Frobenius norm is below 1e-12 ||A||_F.
    """
    n = a.shape[0]
    work = np.array(a, dtype=float)
    threshold = 1e-12 * float(np.linalg.norm(work))
    for _ in range(64):
        if float(np.linalg.norm(work - np.diag(np.diag(work)))) <= threshold:
            return np.sort(np.diag(work))[::-1]
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = work[p, q]
                if apq == 0.0:
                    continue
                theta = (work[q, q] - work[p, p]) / (2.0 * apq)
                t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                col_p, col_q = work[:, p].copy(), work[:, q].copy()
                work[:, p] = c * col_p - s * col_q
                work[:, q] = s * col_p + c * col_q
                row_p, row_q = work[p, :].copy(), work[q, :].copy()
                work[p, :] = c * row_p - s * row_q
                work[q, :] = s * row_p + c * row_q
                work[p, q] = work[q, p] = 0.0
    raise AssertionError("Jacobi oracle did not converge in 64 sweeps")


def frustration_upper_by_recount(g: SignedGraph, iters: int, seed: int) -> int:
    """``frustration_index_upper`` recounting every vertex after each flip.

    Same trajectory as the library: start from the propagation labeling,
    then ``iters`` seeded random restarts, lowest-index tie-break.
    """
    if g.m == 0:
        return 0
    incident = [[] for _ in range(g.n)]
    for u, v, s in g.edges:
        incident[u].append((v, s))
        incident[v].append((u, s))

    def descend(eta):
        m_minus = sum(1 for u, v, s in g.edges if eta[u] * s * eta[v] < 0)
        while True:
            best_delta, best_v = 0, -1
            for v in range(g.n):
                neg_inc = sum(1 for w, s in incident[v] if eta[v] * s * eta[w] < 0)
                delta = (len(incident[v]) - neg_inc) - neg_inc
                if delta < best_delta:
                    best_delta, best_v = delta, v
            if best_v < 0:
                return m_minus
            eta[best_v] = -eta[best_v]
            m_minus += best_delta

    best = descend(list(propagation_labels(g)[0]))
    rng = random.Random(seed)
    for _ in range(iters):
        if best == 0:
            break
        best = min(best, descend([rng.choice((1, -1)) for _ in range(g.n)]))
    return best


def ms_restarts(g: SignedGraph, iters: int, seed: int) -> float:
    """Largest value of 1/2 x^T A x that ``iters`` seeded random points of
    the unit l1 sphere reach under ``_closed_form_polish`` (-inf if none).

    Every polished point is feasible, so the result never exceeds the
    Motzkin-Straus maximum (omega_b - 1) / (2 omega_b) beyond roundoff; a
    result above the closed form of an understated omega_b catches it.
    """
    a = adjacency_matrix(g).entries
    rng = random.Random(seed)
    best = float("-inf")
    for _ in range(iters):
        x = np.array([rng.uniform(-1.0, 1.0) for _ in range(g.n)])
        norm = float(np.sum(np.abs(x)))
        if norm == 0.0:
            continue
        best = max(best, _closed_form_polish(a, x / norm))
    return best


def _closed_form_polish(a: np.ndarray, x: np.ndarray) -> float:
    """Cyclic pair ascent from ``x`` on the unit l1 sphere, at most 40
    sweeps, on numpy arrays and scalars.

    Pairs are taken by index distance.  A pair move keeps |x_i| + |x_j| = b
    and goes to the best point of the pair's terms in closed form: an
    endpoint signed by the gradient, or, when A_ij = w != 0 and
    |g_i - w g_j| < b, the concave interior peak.  Once a sweep ends on the
    signed support of the sweep before, the face's stationary point
    A_SS z = sign(x_S) replaces x if it keeps every sign and does not lower
    the value.
    """
    n = len(x)
    y = a @ x
    last = tried = None
    for _ in range(40):
        improved = False
        for d in range(1, n):
            for i in range(n - d):
                j = i + d
                xi, xj = x[i], x[j]
                b = abs(xi) + abs(xj)
                if b == 0.0:
                    continue
                w = a[i, j]
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
                    y += a[:, i] * (new_i - xi)
                    y += a[:, j] * (new_j - xj)
                    improved = True
        if not improved:
            break
        signs = np.sign(x)
        x /= float(np.sum(np.abs(x)))
        key = signs.tobytes()
        if key == last and key != tried:
            tried = key
            on = signs != 0.0
            try:
                z = np.linalg.solve(a[on][:, on], signs[on])
            except np.linalg.LinAlgError:
                z = None
            if z is not None and np.all(z * signs[on] > 0.0):
                xz = np.zeros(n)
                xz[on] = z / float(np.sum(np.abs(z)))
                if xz @ (a @ xz) >= x @ (a @ x):
                    x = xz
        last = key
        y = a @ x
    return float(x @ (a @ x) / 2.0)


def spectrum_by_numpy_reductions(a: np.ndarray):
    """(eigenvalues, eigenvectors, walk coefficients, rho, inertia) of a
    symmetric matrix, post-processed by whole-array numpy reductions:
    ``np.linalg.norm`` for tau_z, ``np.sum`` of comparisons for the inertia
    and ``np.max(np.abs(...))`` for rho."""
    vals, vecs = np.linalg.eigh(a)
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    tau_z = ZERO_TOL_FACTOR * max(1.0, float(np.linalg.norm(a)))
    n_pos = int(np.sum(vals > tau_z))
    n_neg = int(np.sum(vals < -tau_z))
    rho = float(np.max(np.abs(vals))) if vals.size else 0.0
    coeffs = vecs.sum(axis=0) ** 2
    return vals, vecs, coeffs, rho, (n_pos, n_neg, len(vals) - n_pos - n_neg)


def greedy_balanced_clique_full_scan(g: SignedGraph) -> int:
    """Greedy balanced clique from every start, offering every vertex in
    index order (not only the start's neighbors)."""
    best = 1
    for start in range(g.n):
        members = [start]
        labels = {start: 1}
        for w in range(g.n):
            if w in labels:
                continue
            if not all(g.has_edge(u, w) for u in members):
                continue
            lw = g.sign(members[0], w) * labels[members[0]]
            if all(g.sign(u, w) == labels[u] * lw for u in members):
                members.append(w)
                labels[w] = lw
        best = max(best, len(members))
    return best


def sample_by_from_edges(cfg: SearchConfig, sample_index: int) -> SignedGraph:
    """The search's sample for one slot, built through ``from_edges``."""
    rng = random.Random(f"signed-spectra:{cfg.seed}:{sample_index}")
    n = rng.randint(cfg.n_min, cfg.n_max)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < cfg.edge_probability:
                sign = -1 if rng.random() < cfg.negative_probability else 1
                edges.append((u, v, sign))
    return SignedGraph.from_edges(n, edges)


def search_by_linear_scan(cfg: SearchConfig) -> list[SearchFinding]:
    """``search_counterexamples`` with every violation compared against
    every kept finding."""
    kept: list[tuple[SignedGraph, SearchFinding]] = []
    for index in range(cfg.samples):
        g = sample_by_from_edges(cfg, index)
        if cfg.triangle_free_filter and triangle_census(g).total > 0:
            continue
        ev = evaluate_bound(g, cfg.target, dict(cfg.params))
        if ev.verdict != VIOLATED:
            continue
        if any(
            other.n == g.n
            and other.underlying_pairs == g.underlying_pairs
            and switching_equivalent_by_quotient(other, g)
            for other, _ in kept
        ):
            continue
        finding = SearchFinding(
            graph=g.to_sg(),
            bound_id=cfg.target,
            lhs=ev.lhs,
            rhs=ev.rhs,
            slack=ev.slack,
            seed=cfg.seed,
            sample_index=index,
        )
        kept.append((g, finding))
    return [finding for _, finding in kept]


def adjacency_by_float_loop(g: SignedGraph) -> np.ndarray:
    """The signed adjacency matrix, filled edge by edge into float zeros."""
    a = np.zeros((g.n, g.n))
    for u, v, s in g.edges:
        a[u, v] = s
        a[v, u] = s
    return a


def unsigned_lambda_n_by_all_positive(g: SignedGraph) -> float:
    """Least eigenvalue of the all-positive signing, decomposed from its own
    float-loop matrix."""
    return float(eigen_decomposition(adjacency_by_float_loop(g.with_all_signs(1))).eigenvalues[-1])


def erdos_renyi_by_from_edges(n: int, p: float, q_neg: float, seed: int) -> SignedGraph:
    """``erdos_renyi_signed``'s draw, built through ``from_edges``."""
    rng = random.Random(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v, -1 if rng.random() < q_neg else 1))
    return SignedGraph.from_edges(n, edges)


def _dicts(g: SignedGraph) -> tuple[dict[tuple[int, int], int], list[list[int]]]:
    """The sign of every ``(u, v)`` pair with u < v, and every vertex's
    neighbours in ascending order, built from ``g.edges`` alone."""
    signs = {(u, v): s for u, v, s in g.edges}
    nbrs: list[list[int]] = [[] for _ in range(g.n)]
    for u, v, _ in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return signs, [sorted(a) for a in nbrs]


def max_balanced_clique_by_dicts(g: SignedGraph) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(size, members, labels) of the branch and bound over candidate lists
    of (vertex, label) pairs, with a dict lookup per candidate pair."""
    signs, nbrs = _dicts(g)

    def sign(u, v):
        return signs.get((u, v) if u < v else (v, u))

    best = (1, (0,), (1,))

    def extend(members, labels, cand):
        nonlocal best
        if len(members) > best[0]:
            best = (len(members), tuple(members), tuple(labels))
        for idx, (v, lv) in enumerate(cand):
            if len(members) + len(cand) - idx <= best[0]:
                return
            nxt = [(w, lw) for w, lw in cand[idx + 1 :] if sign(v, w) == lv * lw]
            extend(members + [v], labels + [lv], nxt)

    for v in range(g.n):
        if g.n - v <= best[0]:
            break
        extend([v], [1], [(w, sign(v, w)) for w in nbrs[v] if w > v])
    return best


def triangle_census_by_sign_loop(g: SignedGraph) -> tuple[int, int]:
    """(t_plus, t_minus): every triangle u < v < w found from its lowest
    edge, its sign the product of three dict lookups."""
    signs, nbrs = _dicts(g)
    t_plus = t_minus = 0
    for (u, v), s_uv in signs.items():
        for w in set(nbrs[u]) & set(nbrs[v]):
            if w > v:
                if s_uv * signs[(u, w)] * signs[(v, w)] > 0:
                    t_plus += 1
                else:
                    t_minus += 1
    return t_plus, t_minus


def propagation_labels_by_dicts(g: SignedGraph, full: bool = False):
    """``propagation_labels`` with a sign-dict lookup per edge visit."""
    signs, nbrs = _dicts(g)
    labels = [0] * g.n
    parent: dict[int, int] = {}
    conflict = None
    for root in range(g.n):
        if labels[root]:
            continue
        labels[root] = 1
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in nbrs[u]:
                s = signs[(u, v) if u < v else (v, u)]
                if labels[v] == 0:
                    labels[v] = labels[u] * s
                    parent[v] = u
                    queue.append(v)
                elif conflict is None and labels[u] * s * labels[v] == -1:
                    conflict = (u, v)
                    if not full:
                        return tuple(label or 1 for label in labels), conflict, parent
    return tuple(labels), conflict, parent


def max_switching_form_full_scan(mat: np.ndarray, bound: int) -> tuple[int, tuple[int, ...]]:
    """``invariants._max_switching_form`` past ``_PRODUCT_MAX_N``, scanning
    every left row: the blocked split, dtype tiers and tile order of the
    kernel, with no row bound and no incumbent."""
    n = mat.shape[0]
    a = (n + 1) // 2
    h = n - a
    dtype = np.float32 if bound < 1 << 24 else np.float64 if bound < 1 << 53 else np.int64
    m = mat.astype(dtype)
    table = np.empty((1 << a, a), dtype=dtype)
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
    col_step = min(len(xh), max(1, invariants._BLOCK_ENTRIES >> 8))
    row_step = max(1, invariants._BLOCK_ENTRIES // col_step)
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
