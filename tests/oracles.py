"""Independent brute-force oracles.

Everything here is deliberately naive and separate from the library's
computation paths: balance by parity union-find instead of BFS labeling,
frustration by exhaustive edge deletion instead of switching enumeration,
cliques by subset enumeration, walks by explicit sequence enumeration,
walk sums by Python-int matrix powers instead of vector steps, eigenvalues
by cyclic Jacobi rotations instead of LAPACK, the frustration local search
with a full recount after every flip instead of incremental counts, the
MS-index polish on numpy arrays instead of Python lists, the earlier
four-sign MS-index polish as a yardstick for the search's detection power,
and the earlier forms of three lean paths: spectrum post-processing by
whole-array numpy reductions, the greedy balanced clique scanning every
vertex, and the search sampling through ``from_edges`` and deduplicating
by a linear scan over every kept finding.
"""

from __future__ import annotations

import math
import random
from itertools import combinations, product

import numpy as np

from signed_spectra import (
    SearchConfig,
    SearchFinding,
    SignedGraph,
    adjacency_matrix,
    evaluate_bound,
    is_switching_equivalent,
    ms_witness,
    triangle_census,
)
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


def _ms_restarts(g: SignedGraph, iters: int, seed: int, polish) -> float:
    """Largest ``polish`` value over the library's seeded restarts (-inf if none)."""
    a = adjacency_matrix(g).entries
    rng = random.Random(seed)
    best = float("-inf")
    for _ in range(iters):
        x = np.array([rng.uniform(-1.0, 1.0) for _ in range(g.n)])
        norm = float(np.sum(np.abs(x)))
        if norm == 0.0:
            continue
        best = max(best, polish(a, x / norm))
    return best


def _closed_form_polish(a: np.ndarray, x: np.ndarray) -> float:
    """The library's pair polish on numpy arrays and scalars: pairs by index
    distance, the closed-form best move per pair, dense gradient updates one
    column at a time, and the face finish indexed by a boolean mask."""
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


def ms_search_on_arrays(g: SignedGraph, iters: int, seed: int) -> float:
    """``ms_index_search`` with the pair polish on numpy arrays and scalars.

    Same restarts and the same arithmetic in the same order as the library,
    so results must agree bit for bit.
    """
    best = float(ms_witness(g)[1])
    if g.n < 2 or g.m == 0:
        return best
    return max(best, _ms_restarts(g, iters, seed, _closed_form_polish))


def _four_sign_polish(a: np.ndarray, x: np.ndarray) -> float:
    """Cyclic pair ascent that scores every pair at 4 sign choices x 2-3
    candidate points, and renormalises after each improving sweep."""
    n = len(x)
    y = a @ x
    for _ in range(40):
        improved = False
        for i in range(n):
            for j in range(i + 1, n):
                budget = abs(x[i]) + abs(x[j])
                if budget == 0.0:
                    continue
                w = a[i, j]
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
                    y += a[:, i] * (x[i] - old_i) + a[:, j] * (x[j] - old_j)
                    improved = True
        if not improved:
            break
        norm = float(np.sum(np.abs(x)))
        if norm > 0.0:
            x /= norm
            y = a @ x
    return float(x @ (a @ x) / 2.0)


def ms_restarts_four_sign_polish(g: SignedGraph, iters: int, seed: int) -> float:
    """Best value of the seeded restarts of ``ms_index_search`` (no witness),
    each polished by the four-sign cyclic pair ascent the library used
    before its closed-form moves; -inf when no restart ran."""
    return _ms_restarts(g, iters, seed, _four_sign_polish)


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
            and is_switching_equivalent(other, g)
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
