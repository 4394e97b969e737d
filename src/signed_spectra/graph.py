"""Core signed-graph representation, validation, serialization and generators.

A signed graph is a simple undirected graph whose edges carry a sign of
``+1`` or ``-1``.  Graphs are value objects: immutable, hashable, and safe
to share between workers.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    DuplicateEdgeError,
    IndexOutOfRangeError,
    InvalidParamsError,
    MalformedLineError,
    NotSymmetricError,
    SelfLoopError,
    TooLargeError,
    _int_param,
)

#: Dense matrices only; anything bigger than this is out of desk scale.
MATRIX_MAX_N = 2048

Edge = tuple[int, int, int]  # (u, v, sign) with u < v and sign in {-1, +1}


class _memo:
    """A cached property with no lock: the first read of the attribute
    computes it and stores it in the instance ``__dict__``, where every
    later read finds it before this non-data descriptor.  On Python 3.10
    and 3.11 the cached property of ``functools`` takes an RLock on each
    first read, which costs more than most of the values held here.  Every
    value held is a pure function of its instance, so two threads that race
    on a first read both compute it and store equal values; no lock is
    needed.  An exception stores nothing, and an instance assignment wins
    over the descriptor."""

    def __init__(self, compute: Callable):
        self.compute = compute
        self.__doc__ = compute.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


@dataclass(frozen=True)
class SignedGraph:
    """Simple undirected graph with every edge signed ``+1`` or ``-1``.

    Edges are canonical ``(u, v, sign)`` triples with ``u < v``; use
    :meth:`from_edges` to build from uncanonicalized input.  ``n``, the
    endpoints and the signs must be integers in the sense of
    ``operator.index``, as in :meth:`from_edges`, and are stored as ints.

    Four lookups are built on first use (a lock-free ``_memo``) and kept
    with the graph, which never changes: ``_signed_adjacency``, per vertex
    its ``(neighbour, sign)`` pairs in ascending neighbour order, linear in
    n + m, for :meth:`neighbors`, :meth:`degree` and the BFS of
    ``switching.propagation_labels``; ``_masks``, per vertex bitmasks of its
    positive and of its negative neighbours, for the balanced-clique search
    and the clique's labels and witness value; ``underlying_pairs``, the
    ``(u, v)`` pairs, which :meth:`has_edge` reads; and ``m_minus``.
    :meth:`sign` looks ``(u, v, +1)`` and ``(u, v, -1)`` up in ``edges``.
    The masks take up to n bits per vertex, O(n^2) bits in all, so only
    those clique paths, which are exponential in n and guarded, read them.
    """

    n: int
    edges: frozenset[Edge] = frozenset()

    def __post_init__(self) -> None:
        n = _order("SignedGraph", self.n)
        seen: set[tuple[int, int]] = set()
        edges = []
        for edge in self.edges:
            u, v, s = edge = _int_edge(*edge)
            if _edge(n, u, v, s, seen) != edge:
                raise InvalidParamsError(
                    f"edges must be stored with u < v, got ({u}, {v}); use from_edges()"
                )
            edges.append(edge)
        # the checked ints, so that a bool or a numpy int is written back as the int it is
        vars(self).update(n=n, edges=frozenset(edges))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int, int]]) -> "SignedGraph":
        """Build a graph from ``(u, v, sign)`` triples given in any order.

        Vertices and signs must be integers in the sense of ``operator.index``
        (Python and numpy ints, bools); anything else, a whole float too,
        raises InvalidParamsError.
        """
        n = _order("SignedGraph", n)
        seen: set[tuple[int, int]] = set()
        return cls._unchecked(n, frozenset([_edge(n, *_int_edge(u, v, s), seen) for u, v, s in edges]))

    @classmethod
    def _unchecked(cls, n: int, edges: frozenset[Edge]) -> "SignedGraph":
        """A graph from ``n`` and canonical ``edges`` that are known to be
        valid, without the checks of ``__post_init__``: for graphs derived
        from a valid graph, and for the builders that check each edge with
        ``_edge``."""
        g = object.__new__(cls)
        vars(g).update(n=n, edges=edges)
        return g

    def __repr__(self) -> str:  # keep pytest output readable for dense graphs
        return f"SignedGraph(n={self.n}, m={self.m}, m-={self.m_minus})"

    # -- size counters -------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    @_memo
    def m_minus(self) -> int:
        return sum(1 for _, _, s in self.edges if s < 0)

    @property
    def m_plus(self) -> int:
        return self.m - self.m_minus

    # -- lookups -------------------------------------------------------

    @_memo
    def _signed_adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        nbrs: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for u, v, s in self.edges:
            nbrs[u].append((v, s))
            nbrs[v].append((u, s))
        return tuple(tuple(sorted(a)) for a in nbrs)

    @_memo
    def _masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(pos, neg)``: bit w of ``pos[v]`` (``neg[v]``) is set when vw is
        a positive (negative) edge."""
        pos, neg = [0] * self.n, [0] * self.n
        for u, v, s in self.edges:
            side = pos if s > 0 else neg
            side[u] |= 1 << v
            side[v] |= 1 << u
        return tuple(pos), tuple(neg)

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self.underlying_pairs

    def sign(self, u: int, v: int) -> int:
        """Sign of the edge between ``u`` and ``v``; KeyError if absent."""
        if u > v:
            u, v = v, u
        if (u, v, 1) in self.edges:
            return 1
        if (u, v, -1) in self.edges:
            return -1
        raise KeyError((u, v))

    def neighbors(self, u: int) -> tuple[int, ...]:
        """The neighbours of ``u`` in ascending order; IndexOutOfRangeError
        for ``u`` outside [0, n)."""
        return tuple([v for v, _ in self._signed_adjacency[self._vertex(u)]])

    def degree(self, u: int) -> int:
        return len(self._signed_adjacency[self._vertex(u)])

    def _vertex(self, u: int) -> int:
        if not 0 <= u < self.n:
            raise IndexOutOfRangeError(f"vertex {u} outside [0, {self.n})")
        return u

    @_memo
    def underlying_pairs(self) -> frozenset[tuple[int, int]]:
        """Edge set of the underlying unsigned graph."""
        return frozenset((u, v) for u, v, _ in self.edges)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    # -- derived graphs ------------------------------------------------

    def negate(self) -> "SignedGraph":
        """Same underlying graph with every edge sign flipped."""
        return SignedGraph._unchecked(self.n, frozenset((u, v, -s) for u, v, s in self.edges))

    def with_all_signs(self, sign: int) -> "SignedGraph":
        """The signed graph (G, +1) or (G, -1) over the same underlying graph."""
        if sign not in (-1, 1):
            raise InvalidParamsError(f"sign must be +1 or -1, got {sign!r}")
        return SignedGraph._unchecked(self.n, frozenset((u, v, sign) for u, v, _ in self.edges))

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
        return SignedGraph._unchecked(len(keep), kept)

    def to_sg(self) -> str:
        return serialize_signed_graph(self)


def _int_edge(u: object, v: object, s: object) -> Edge:
    """An edge's endpoints and sign as integers in the sense of
    ``operator.index`` (Python and numpy ints, bools); anything else, a
    whole float too, raises InvalidParamsError."""
    try:
        return operator.index(u), operator.index(v), operator.index(s)
    except TypeError:
        raise InvalidParamsError(f"edge ({u!r}, {v!r}, {s!r}) must hold integers") from None


def _edge(n: int, u: int, v: int, s: int, seen: set[tuple[int, int]], line: int | None = None) -> Edge:
    """The canonical ``(min, max, s)`` of the integer edge ``(u, v, s)`` of a
    graph on ``n`` vertices whose pairs so far are ``seen``; adds the pair to
    ``seen``.  The one edge rule of every builder: raises, in this order,
    SelfLoopError, IndexOutOfRangeError, InvalidParamsError for a sign other
    than +1 or -1, and DuplicateEdgeError, the parse errors at ``line``."""
    if u == v:
        raise SelfLoopError(f"self-loop at vertex {u}", line=line)
    if not (0 <= u < n and 0 <= v < n):
        raise IndexOutOfRangeError(f"edge ({u}, {v}) has a vertex outside [0, {n})", line=line)
    if s not in (-1, 1):
        raise InvalidParamsError(f"edge sign must be +1 or -1, got {s!r}")
    if u > v:
        u, v = v, u
    if (u, v) in seen:
        raise DuplicateEdgeError(f"duplicate edge ({u}, {v})", line=line)
    seen.add((u, v))
    return u, v, s


def _order(owner: str, n: object) -> int:
    """``owner``'s vertex count ``n`` as an integer (``_int_param``); a
    negative one raises InvalidParamsError."""
    n = _int_param(owner, "n", n)
    if n < 0:
        raise InvalidParamsError(f"vertex count must be nonnegative, got {n}")
    return n


# ---------------------------------------------------------------------------
# .sg text format
# ---------------------------------------------------------------------------

def parse_signed_graph(text: str) -> SignedGraph:
    """Parse the ``.sg`` edge-list format.

    The first significant line is the vertex count ``n``; every following
    significant line is ``u v s`` with ``s`` one of ``+`` / ``-``.  ``#``
    starts a comment, blank lines are skipped, CRLF input is accepted.
    The parser's own checks are the layout of each line, the integer
    tokens, a nonnegative vertex count and the ``+``/``-`` sign; each edge
    then goes through the edge rule that every builder shares, which
    rejects self-loops, out-of-range indices and duplicate edges.  Every
    error names the offending line number.
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
        triples.append(_edge(n, u, v, s, seen, line=lineno))
    if n is None:
        raise MalformedLineError("missing vertex-count line", line=max(lineno, 1))
    return SignedGraph._unchecked(n, frozenset(triples))


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
        # a float64 copy, checked square, finite and symmetric within 1e-12
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


def _signed_matrix(graphs: SignedGraph | Sequence[SignedGraph]) -> np.ndarray:
    """The signed adjacency matrix A of one graph as int64, or those of
    graphs of one order as a (k, n, n) int64 stack, with no size guard.
    A stack that cannot be allocated raises TooLargeError.

    One graph is the stack of one.  The entries are set edge by edge: at
    these sizes a scatter from index arrays costs more than the Python
    loop that would build the arrays.
    """
    if isinstance(graphs, SignedGraph):
        return _signed_matrix((graphs,))[0]
    a = _dense_zeros(len(graphs), graphs[0].n, np.int64)
    for ak, g in zip(a, graphs):
        for u, v, s in g.edges:
            ak[u, v] = ak[v, u] = s
    return a


def _dense_zeros(k: int, n: int, dtype: type) -> np.ndarray:
    """A (k, n, n) stack of zero matrices; one that cannot be allocated
    raises TooLargeError."""
    try:
        return np.zeros((k, n, n), dtype=dtype)
    except (MemoryError, ValueError):  # numpy's errors for a stack past memory or past intp
        raise TooLargeError(
            f"dense matrix: n={n} needs {n}^2 entries, which cannot be allocated", n=n
        ) from None


def _check_dense(n: int) -> None:
    """Raise TooLargeError past the dense-matrix guard ``MATRIX_MAX_N``."""
    if n > MATRIX_MAX_N:
        raise TooLargeError(
            f"adjacency matrix guard: n={n} exceeds {MATRIX_MAX_N}",
            n=n,
            limit=MATRIX_MAX_N,
        )


def adjacency_matrix(g: SignedGraph) -> SymmetricMatrix:
    """Signed adjacency matrix: entry (i, j) is the sign of edge ij, else 0."""
    _check_dense(g.n)
    return SymmetricMatrix(_signed_matrix(g))


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
    n = _int_param("signed_cycle", "n", n)
    if n < 3:
        raise InvalidParamsError(f"a cycle needs at least 3 vertices, got n={n}")
    try:
        indices = iter(negative_edges)
    except TypeError:
        raise InvalidParamsError(
            f"signed_cycle parameter 'negative_edges' must be an iterable of integers, got {negative_edges!r}"
        ) from None
    neg = {_int_param("signed_cycle", "negative_edges", i) for i in indices}
    bad = [i for i in neg if not 0 <= i < n]
    if bad:
        raise InvalidParamsError(f"negative edge indices {bad} outside [0, {n})")
    edges = [(i, i + 1, -1 if i in neg else 1) for i in range(n - 1)]
    edges.append((0, n - 1, -1 if n - 1 in neg else 1))  # the closing edge, canonical
    return SignedGraph._unchecked(n, frozenset(edges))


def all_negative_complete(n: int) -> SignedGraph:
    """The signed graph (K_n, -1)."""
    n = _order("all_negative_complete", n)
    return SignedGraph._unchecked(n, frozenset((u, v, -1) for u in range(n) for v in range(u + 1, n)))


def all_negative(g: SignedGraph) -> SignedGraph:
    """The signed graph (G, -1) over the underlying graph of ``g``."""
    return g.with_all_signs(-1)


def erdos_renyi_signed(n: int, p: float, q_neg: float, seed: int = 0) -> SignedGraph:
    """G(n, p) underlying graph; each edge is negative with probability q_neg.

    Deterministic for fixed arguments: pairs are visited in lexicographic
    order and a fresh seeded RNG drives both draws.
    """
    n = _order("erdos_renyi_signed", n)
    seed = _int_param("erdos_renyi_signed", "seed", seed)
    if not (_unit_interval(p) and _unit_interval(q_neg)):
        raise InvalidParamsError(f"probabilities must lie in [0, 1], got p={p!r}, q_neg={q_neg!r}")
    return _signed_gnp(random.Random(seed), n, p, q_neg)


def _unit_interval(p: object) -> bool:
    """Whether ``p`` is a number in [0, 1]; False for NaN and non-numbers."""
    try:
        return 0.0 <= p <= 1.0
    except TypeError:
        return False


def _signed_gnp(rng: random.Random, n: int, p: float, q_neg: float) -> SignedGraph:
    """G(n, p) drawn from ``rng``, each edge negative with probability q_neg."""
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v, -1 if rng.random() < q_neg else 1))
    return SignedGraph._unchecked(n, frozenset(edges))


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
