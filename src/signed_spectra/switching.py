"""Switching functions, balance certificates and switching equivalence.

Switching by a vertex sign vector eta conjugates the adjacency matrix by
diag(eta), so it preserves the spectrum; it flips exactly the edge signs
across the bipartition {eta = +1} / {eta = -1}.  A signed graph is balanced
iff it can be switched to all-positive signs, and balance is decided here by
spanning-forest sign propagation, which also yields a certificate either
way.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    InvalidParamsError,
    LengthMismatchError,
    NotACycleError,
    UnderlyingMismatchError,
)
from .graph import SignedGraph


@dataclass(frozen=True)
class Switching:
    """A vertex sign vector eta in {+1, -1}^n.

    eta and -eta induce the same switched graph; no canonical representative
    is enforced.
    """

    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        for s in self.signs:
            if s not in (-1, 1):
                raise InvalidParamsError(f"switching entries must be +1 or -1, got {s!r}")

    def __len__(self) -> int:
        return len(self.signs)


@dataclass(frozen=True)
class BalanceCertificate:
    """Outcome of a balance test, with a checkable witness.

    If ``balanced``, ``switching`` turns every edge positive.  Otherwise
    ``negative_cycle`` is a vertex sequence whose closed walk has edge-sign
    product -1 (the fundamental cycle of the first inconsistent non-tree
    edge met by the BFS).
    """

    balanced: bool
    switching: Switching | None = None
    negative_cycle: tuple[int, ...] | None = None


def apply_switching(g: SignedGraph, eta: Switching | Sequence[int]) -> SignedGraph:
    """Switch ``g`` by ``eta``: edge (u, v) gets sign eta[u]*sign*eta[v]."""
    signs = eta.signs if isinstance(eta, Switching) else tuple(eta)
    if len(signs) != g.n:
        raise LengthMismatchError(
            f"switching has length {len(signs)}, graph has {g.n} vertices"
        )
    if not isinstance(eta, Switching):
        eta = Switching(signs)
    return SignedGraph._unchecked(
        g.n, frozenset((u, v, signs[u] * s * signs[v]) for u, v, s in g.edges)
    )


def propagation_labels(
    g: SignedGraph, *, full: bool = False
) -> tuple[tuple[int, ...], tuple[int, int] | None, dict[int, int]]:
    """Spanning-forest sign propagation.

    Returns ``(labels, conflict_edge, parent)`` where labels make every tree
    edge switch to positive, ``conflict_edge`` is the first non-tree edge
    (in BFS order, ascending roots and neighbors) that stays negative, or
    ``None`` if the graph is balanced, and ``parent`` maps each non-root
    visited vertex to its BFS parent (valid up to the conflict, and
    everywhere with ``full``).

    The BFS stops at the conflict and labels the vertices it has not
    reached +1, unless ``full``: then it labels the whole spanning forest,
    which depends on the underlying graph alone (``_canonical_signing``).

    It iterates the graph's cached ``(neighbour, sign)`` pairs
    (``SignedGraph._signed_adjacency``) directly, with no method call or
    sign lookup per edge visit, so time and memory stay linear in n + m.
    """
    labels = [0] * g.n  # first: past memory it fails at once, before n tuples are built
    adjacency = g._signed_adjacency
    parent: dict[int, int] = {}
    conflict = None
    for root in range(g.n):
        if labels[root]:
            continue
        labels[root] = 1
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v, s in adjacency[u]:
                if labels[v] == 0:
                    labels[v] = labels[u] * s
                    parent[v] = u
                    queue.append(v)
                elif conflict is None and labels[u] * s * labels[v] == -1:
                    conflict = (u, v)
                    if not full:
                        return tuple(label or 1 for label in labels), conflict, parent
    return tuple(labels), conflict, parent


def _canonical_signing(
    g: SignedGraph, forest: dict[int, int] | None = None
) -> tuple[Sequence[int], frozenset[tuple[int, int]], dict[int, int]]:
    """``(labels, key, forest)`` of the signing of g's switching class that
    is positive on a spanning forest of its underlying graph.

    ``forest`` maps each non-root vertex to its parent, parents first; by
    default it is the BFS forest of ``propagation_labels(g, full=True)``,
    the same for every signing of one underlying graph.  ``labels`` switch
    every forest edge positive, with each root +1, and ``key`` is the set
    of edges (u, v) left negative.  On one forest, two signings of an
    underlying graph have equal keys exactly when they are switching
    equivalent.  A given forest is labelled in one pass, with no BFS.
    """
    if forest is None:
        labels, _, forest = propagation_labels(g, full=True)
    else:
        labels = [1] * g.n
        edges = g.edges
        for v, p in forest.items():
            labels[v] = -labels[p] if ((p, v, -1) if p < v else (v, p, -1)) in edges else labels[p]
    key = frozenset((u, v) for u, v, s in g.edges if labels[u] * s * labels[v] < 0)
    return labels, key, forest


def _fundamental_cycle(u: int, v: int, parent: dict[int, int]) -> tuple[int, ...]:
    """Vertex sequence u .. lca .. v; the closing edge is (v, u)."""
    def path_to_root(x: int) -> list[int]:
        path = [x]
        while path[-1] in parent:
            path.append(parent[path[-1]])
        return path

    pu, pv = path_to_root(u), path_to_root(v)
    anc_v = set(pv)
    lca_idx = next(i for i, x in enumerate(pu) if x in anc_v)
    lca = pu[lca_idx]
    down = pv[: pv.index(lca)]
    return tuple(pu[: lca_idx + 1] + list(reversed(down)))


def is_balanced(g: SignedGraph) -> BalanceCertificate:
    """Balance test with certificate (linear time, BFS sign propagation)."""
    labels, conflict, parent = propagation_labels(g)
    if conflict is None:
        return BalanceCertificate(balanced=True, switching=Switching(labels))
    u, v = conflict
    return BalanceCertificate(balanced=False, negative_cycle=_fundamental_cycle(u, v, parent))


def cycle_sign(g: SignedGraph, cycle: Sequence[int]) -> int:
    """Product of edge signs along a closed walk given as a vertex sequence.

    The sequence must not repeat its first vertex at the end; consecutive
    pairs (including last-to-first) must all be edges of ``g`` and at least
    3 distinct vertices must appear.
    """
    verts = list(cycle)
    if len(set(verts)) < 3:
        raise NotACycleError(f"need at least 3 distinct vertices, got {verts!r}")
    sign = 1
    for a, b in zip(verts, verts[1:] + verts[:1]):
        if not (0 <= a < g.n and 0 <= b < g.n) or not g.has_edge(a, b):
            raise NotACycleError(f"({a}, {b}) is not an edge of the graph")
        sign *= g.sign(a, b)
    return sign


def is_switching_equivalent(g1: SignedGraph, g2: SignedGraph) -> bool:
    """Whether some switching of ``g1`` equals ``g2``; raises
    UnderlyingMismatchError unless they share their underlying graph.
    Linear time."""
    if g1.n != g2.n or g1.underlying_pairs != g2.underlying_pairs:
        raise UnderlyingMismatchError("graphs do not share the same underlying graph")
    _, key, forest = _canonical_signing(g1)
    return _canonical_signing(g2, forest)[1] == key
