"""Core signed-graph representation, validation, serialization and generators.

A signed graph is a simple undirected graph whose edges carry a sign of
``+1`` or ``-1``.  Graphs are value objects: immutable, hashable, and safe
to share between workers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DuplicateEdgeError,
    IndexOutOfRangeError,
    InvalidParamsError,
    MalformedLineError,
    NotSymmetricError,
    SelfLoopError,
    TooLargeError,
)

#: Dense matrices only; anything bigger than this is out of desk scale.
MATRIX_MAX_N = 2048

Edge = tuple[int, int, int]  # (u, v, sign) with u < v and sign in {-1, +1}


@dataclass(frozen=True)
class SignedGraph:
    """Simple undirected graph with every edge signed ``+1`` or ``-1``.

    Edges are canonical ``(u, v, sign)`` triples with ``u < v``; use
    :meth:`from_edges` to build from uncanonicalized input.
    """

    n: int
    edges: frozenset[Edge] = frozenset()

    def __post_init__(self) -> None:
        if self.n < 0:
            raise InvalidParamsError(f"vertex count must be nonnegative, got {self.n}")
        seen: set[tuple[int, int]] = set()
        for u, v, s in self.edges:
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise IndexOutOfRangeError(
                    f"edge ({u}, {v}) has a vertex outside [0, {self.n})"
                )
            if u > v:
                raise InvalidParamsError(
                    f"edges must be stored with u < v, got ({u}, {v}); use from_edges()"
                )
            if s not in (-1, 1):
                raise InvalidParamsError(f"edge sign must be +1 or -1, got {s!r}")
            if (u, v) in seen:
                raise DuplicateEdgeError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int, int]]) -> "SignedGraph":
        """Build a graph from ``(u, v, sign)`` triples given in any order."""
        canon: list[Edge] = []
        pairs: set[tuple[int, int]] = set()
        for u, v, s in edges:
            if u > v:
                u, v = v, u
            if (u, v) in pairs and u != v:
                raise DuplicateEdgeError(f"duplicate edge ({u}, {v})")
            pairs.add((u, v))
            canon.append((u, v, int(s)))
        return cls(n, frozenset(canon))

    def __repr__(self) -> str:  # keep pytest output readable for dense graphs
        return f"SignedGraph(n={self.n}, m={self.m}, m-={self.m_minus})"

    # -- size counters -------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def m_minus(self) -> int:
        return sum(1 for _, _, s in self.edges if s < 0)

    @property
    def m_plus(self) -> int:
        return self.m - self.m_minus

    # -- lookups -------------------------------------------------------

    @cached_property
    def _signs(self) -> dict[tuple[int, int], int]:
        return {(u, v): s for u, v, s in self.edges}

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v, _ in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(a)) for a in nbrs)

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self._signs

    def sign(self, u: int, v: int) -> int:
        """Sign of the edge between ``u`` and ``v``; KeyError if absent."""
        if u > v:
            u, v = v, u
        return self._signs[(u, v)]

    def neighbors(self, u: int) -> tuple[int, ...]:
        return self._adjacency[u]

    def degree(self, u: int) -> int:
        return len(self._adjacency[u])

    @cached_property
    def underlying_pairs(self) -> frozenset[tuple[int, int]]:
        """Edge set of the underlying unsigned graph."""
        return frozenset((u, v) for u, v, _ in self.edges)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    # -- derived graphs ------------------------------------------------

    def negate(self) -> "SignedGraph":
        """Same underlying graph with every edge sign flipped."""
        return SignedGraph(self.n, frozenset((u, v, -s) for u, v, s in self.edges))

    def with_all_signs(self, sign: int) -> "SignedGraph":
        """The signed graph (G, +1) or (G, -1) over the same underlying graph."""
        if sign not in (-1, 1):
            raise InvalidParamsError(f"sign must be +1 or -1, got {sign!r}")
        return SignedGraph(self.n, frozenset((u, v, sign) for u, v, _ in self.edges))

    def induced_subgraph(self, vertices: Sequence[int]) -> "SignedGraph":
        """Induced signed subgraph; kept vertices are relabeled 0..k-1 in sorted order."""
        keep = sorted(set(vertices))
        for v in keep:
            if not 0 <= v < self.n:
                raise IndexOutOfRangeError(f"vertex {v} outside [0, {self.n})")
        remap = {v: i for i, v in enumerate(keep)}
        kept = frozenset(
            (remap[u], remap[v], s)
            for u, v, s in self.edges
            if u in remap and v in remap
        )
        return SignedGraph(len(keep), kept)

    def to_sg(self) -> str:
        return serialize_signed_graph(self)


# ---------------------------------------------------------------------------
# .sg text format
# ---------------------------------------------------------------------------

def parse_signed_graph(text: str) -> SignedGraph:
    """Parse the ``.sg`` edge-list format.

    The first significant line is the vertex count ``n``; every following
    significant line is ``u v s`` with ``s`` one of ``+`` / ``-``.  ``#``
    starts a comment, blank lines are skipped, CRLF input is accepted.
    Rejects self-loops, duplicate edges and out-of-range indices, each with
    the offending line number.
    """
    n: int | None = None
    triples: list[Edge] = []
    seen: set[tuple[int, int]] = set()
    lineno = 0
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise MalformedLineError(
                    f"expected vertex count, got {line!r}", line=lineno
                ) from None
            if n < 0:
                raise MalformedLineError(
                    f"vertex count must be nonnegative, got {n}", line=lineno
                )
            continue
        parts = line.split()
        if len(parts) != 3:
            raise MalformedLineError(
                f"expected 'u v s', got {line!r}", line=lineno
            )
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise MalformedLineError(
                f"vertex indices must be integers, got {line!r}", line=lineno
            ) from None
        if parts[2] == "+":
            s = 1
        elif parts[2] == "-":
            s = -1
        else:
            raise MalformedLineError(
                f"edge sign must be '+' or '-', got {parts[2]!r}", line=lineno
            )
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}", line=lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise IndexOutOfRangeError(
                f"edge ({u}, {v}) has a vertex outside [0, {n})", line=lineno
            )
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise DuplicateEdgeError(f"duplicate edge ({u}, {v})", line=lineno)
        seen.add((u, v))
        triples.append((u, v, s))
    if n is None:
        raise MalformedLineError("missing vertex-count line", line=max(lineno, 1))
    return SignedGraph(n, frozenset(triples))


def serialize_signed_graph(g: SignedGraph) -> str:
    """Canonical ``.sg`` text: sorted edges, ``+``/``-`` signs, LF endings."""
    lines = [str(g.n)]
    for u, v, s in g.sorted_edges():
        lines.append(f"{u} {v} {'+' if s > 0 else '-'}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Dense symmetric matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SymmetricMatrix:
    """Dense symmetric real matrix with finite, read-only entries."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise NotSymmetricError(f"expected a square matrix, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise InvalidParamsError("matrix entries must be finite (no NaN or infinity)")
        if not (a == a.T).all() and float(np.max(np.abs(a - a.T))) > 1e-12:
            raise NotSymmetricError("matrix is not symmetric within 1e-12")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    def submatrix(self, keep: Sequence[int]) -> "SymmetricMatrix":
        """Principal submatrix on the given (distinct) indices."""
        idx = np.asarray(sorted(set(keep)), dtype=int)
        return SymmetricMatrix(self.entries[np.ix_(idx, idx)])


def adjacency_matrix(g: SignedGraph) -> SymmetricMatrix:
    """Signed adjacency matrix: entry (i, j) is the sign of edge ij, else 0."""
    if g.n > MATRIX_MAX_N:
        raise TooLargeError(
            f"adjacency matrix guard: n={g.n} exceeds {MATRIX_MAX_N}",
            n=g.n,
            limit=MATRIX_MAX_N,
        )
    a = np.zeros((g.n, g.n))
    for u, v, s in g.edges:
        a[u, v] = s
        a[v, u] = s
    return SymmetricMatrix(a)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def paper_c5() -> SignedGraph:
    """Five-cycle with exactly one negative edge.

    This is the standard small counterexample to the unsigned-style
    Bollobas-Nikiforov inequality when carried over to signed graphs.
    """
    return signed_cycle(5, negative_edges=(0,))


def signed_cycle(n: int, negative_edges: Iterable[int] = ()) -> SignedGraph:
    """Cycle 0-1-...-(n-1)-0; edge index i is the edge (i, (i+1) mod n)."""
    if n < 3:
        raise InvalidParamsError(f"a cycle needs at least 3 vertices, got n={n}")
    neg = set(negative_edges)
    bad = [i for i in neg if not 0 <= i < n]
    if bad:
        raise InvalidParamsError(f"negative edge indices {bad} outside [0, {n})")
    edges = []
    for i in range(n):
        u, v = i, (i + 1) % n
        edges.append((u, v, -1 if i in neg else 1))
    return SignedGraph.from_edges(n, edges)


def all_negative_complete(n: int) -> SignedGraph:
    """The signed graph (K_n, -1)."""
    if n < 0:
        raise InvalidParamsError(f"vertex count must be nonnegative, got {n}")
    edges = [(u, v, -1) for u in range(n) for v in range(u + 1, n)]
    return SignedGraph.from_edges(n, edges)


def all_negative(g: SignedGraph) -> SignedGraph:
    """The signed graph (G, -1) over the underlying graph of ``g``."""
    return g.with_all_signs(-1)


def erdos_renyi_signed(n: int, p: float, q_neg: float, seed: int = 0) -> SignedGraph:
    """G(n, p) underlying graph; each edge is negative with probability q_neg.

    Deterministic for fixed arguments: pairs are visited in lexicographic
    order and a fresh seeded RNG drives both draws.
    """
    if n < 0:
        raise InvalidParamsError(f"vertex count must be nonnegative, got {n}")
    if not (0.0 <= p <= 1.0 and 0.0 <= q_neg <= 1.0):
        raise InvalidParamsError(f"probabilities must lie in [0, 1], got p={p}, q_neg={q_neg}")
    rng = random.Random(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v, -1 if rng.random() < q_neg else 1))
    return SignedGraph.from_edges(n, edges)


_GENERATORS = {
    "paper_c5": lambda seed, **kw: paper_c5(**kw),
    "signed_cycle": lambda seed, **kw: signed_cycle(**kw),
    "all_negative_complete": lambda seed, **kw: all_negative_complete(**kw),
    "all_negative": lambda seed, **kw: all_negative(**kw),
    "erdos_renyi_signed": lambda seed, **kw: erdos_renyi_signed(seed=seed, **kw),
}


def generate(kind: str, seed: int = 0, **params) -> SignedGraph:
    """Named-instance and random-instance factory.

    ``kind`` is one of ``paper_c5``, ``signed_cycle(n, negative_edges)``,
    ``all_negative_complete(n)``, ``all_negative(g)``,
    ``erdos_renyi_signed(n, p, q_neg)``.  The result is deterministic for a
    fixed ``(kind, params, seed)``.
    """
    try:
        factory = _GENERATORS[kind]
    except KeyError:
        raise InvalidParamsError(
            f"unknown generator {kind!r}; known: {sorted(_GENERATORS)}"
        ) from None
    try:
        return factory(seed, **params)
    except TypeError as exc:
        raise InvalidParamsError(f"bad parameters for {kind!r}: {exc}") from None
