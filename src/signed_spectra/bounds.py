"""Registry of eigenvalue inequalities as executable checkers.

Every registered inequality is evaluated as ``lhs <= rhs + tolerance`` with
exact integer/rational combinatorics on the right-hand data and floating
eigenvalues, tolerance 1e-8 relative to the right-hand side.  Identifiers
B1..B14 carry an enforced hypothesis and are expected to hold on every
input; B8u is the deliberately unconditional triangle-free inequality,
kept around because small unbalanced cycles violate it.

A row's verdict is, in this order: the evaluator's own when it decides one
(B11's ``skipped`` when w_q <= 0, B13's ``violated`` when its witness
misses the closed form); else ``hypothesis_not_met`` when the hypothesis
fails; else ``holds`` or ``violated`` by the tolerance rule.  In
``evaluate_all`` a guard or a walk overflow gives ``skipped``.  No verdict
reads a note.

Registry:
  B1   lambda_1 <= n (1 - 1/omega_b)
  B2   lambda_1^2 <= 2 (m - eps) (1 - 1/omega_b)
  B3   lambda_n(G)^2 <= m - eps_b(G)              (underlying unsigned graph)
  B4   |lambda_n(G)| <= k if n = 2k, sqrt(k(k+1)) if n = 2k+1   (unsigned)
  B5   m <= eps + (n^2/2) (1 - 1/omega_b)         (Turan-type)
  B6   lambda_1 <= sqrt(2 (m-eps) (1 - 1/floor(1/2 + sqrt(2(m-eps) + 1/4))))
  B7   lambda_1 <= sqrt(2 (m-eps) + 1/4) - 1/2    (Stanley-type)
  B8   lambda_1^2 + lambda_2^2 <= m   [no positive triangles, m >= 1,
                                       n >= 3, lambda_1 >= |lambda_n|]
  B8u  lambda_1^2 + lambda_2^2 <= m   [unconditional probe]
  B9   lambda_1^2 <= m + (6 t_s)^(2/3)            [t_s >= 0]
  B10  lambda_1^r <= (w_r(G) - eps_r) (1 - 1/omega_b)   (parameter r)
  B11  w_{q+r} / w_q <= rho^r                     [q odd; skipped if w_q <= 0]
  B12  min(lambda_1^2, lambda_n^2) <= m           (dichotomy)
  B13  x^T A x / 2 <= (omega_b - 1)/(2 omega_b) at the balanced-clique
       witness x, which attains it (exact rational lhs)
  B14  0 <= lambda_2   [no positive triangles, n >= 3, and a triangle or a
                        2-path in a triangle-free underlying graph]
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict, namedtuple
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import InvalidParamsError, MissingParamError, TooLargeError, UnknownBoundError, _int_param
from .graph import MATRIX_MAX_N, SignedGraph, _check_dense, _memo, _signed_matrix, all_negative
from .invariants import (
    TriangleCensus,
    _check_guard,
    _clique_labels,
    _frustration,
    _frustration_uppers,
    _guard_limits,
    _max_balanced_clique,
    _r_frustration,
    _walk_sums,
    _walk_totals,
    greedy_balanced_clique,
    triangle_census,
)
from .spectral import _clique_total, _clique_value, _eigenvalues, _ms_closed_form
from .switching import _canonical_signing

HOLDS = "holds"
VIOLATED = "violated"
HYPOTHESIS_NOT_MET = "hypothesis_not_met"
SKIPPED = "skipped"

_REL_TOL = 1e-8


@dataclass(frozen=True)
class BoundEvaluation:
    """One inequality instance: hypothesis status, sides, slack, verdict."""

    bound_id: str
    hypothesis_met: bool
    lhs: float
    rhs: float
    slack: float
    verdict: str
    tolerance: float
    params: Mapping[str, int] = field(default_factory=dict)
    note: str = ""


class _Underlying:
    """What every signing of one underlying graph shares, kept by
    ``_underlying`` for ``evaluate_all`` and ``invariants``:

    * ``key``, the ``(n, pairs)`` of the graph, None in a context's own;
    * ``forest``: the spanning forest of ``switching._canonical_signing``,
      from the first signing met, None until then;
    * ``lambda_n`` and ``eps_b`` of the unsigned graph, None until filled;
    * ``classes``: a ``_Class`` per switching class met, keyed by its
      canonical signing;
    * ``nbytes``: what the memo charges for the record and its classes.

    ``invariants`` reads only exact integers from the record.
    """

    forest = lambda_n = eps_b = None

    def __init__(self, key: tuple[int, frozenset[tuple[int, int]]] | None = None):
        self.key, self.classes, self.nbytes = key, {}, 0


class _Class:
    """What one switching class shares, each None until its first fill:
    ``eps``, ``clique`` (the size and members of a maximum balanced
    clique), ``census``, ``rho`` from the eigenvalues of the first signing
    that read it, ``rows_key``, the ``(*limits, rs, qr_pairs)`` of the last
    ``evaluate_all`` call on the class, and ``rows``, its rows in plan
    order, None in B11's slots and in those not yet filled.
    """

    eps = clique = census = rho = rows_key = rows = None


# The memo's whole budget.  Each record is charged _ITEM_BYTES for every vertex and
# edge of its graph and two more, and each class for every pair of its key, every slot
# of its rows and two more; past _MEMO_BYTES the least recently used records go, each
# with all its classes.  _ITEM_BYTES bounds the largest item, a kept row (about 450
# bytes).  A test fills the memo with K6's 1,024 classes, forests of up to 2,000
# vertices and other graphs, and holds what it keeps within _MEMO_BYTES.
_MEMO_BYTES = 16 * 2**20
_ITEM_BYTES = 512


class _Store:
    """The records ``_underlying`` keeps, least recently used first, the
    bytes charged for them, and the count of records it has made.  One lock
    guards them all, so concurrent callers charge each record and class
    once."""

    def __init__(self):
        self.records: OrderedDict[tuple, _Underlying] = OrderedDict()
        self.nbytes = self.misses = 0
        self.lock = threading.Lock()

    def info(self) -> _CacheInfo:
        return _CacheInfo(self.misses, len(self.records))

    def clear(self) -> None:
        with self.lock:
            self.records.clear()
            self.nbytes = self.misses = 0

    def charge(self, record: _Underlying, items: int) -> None:
        """Charge a kept ``record`` for ``items`` more items, then drop the
        least recently used records until the memo is within its budget.
        A record no longer kept is not charged.  The caller holds the lock."""
        if self.records.get(record.key) is not record:
            return
        record.nbytes += items * _ITEM_BYTES
        self.nbytes += items * _ITEM_BYTES
        while self.nbytes > _MEMO_BYTES:
            self.nbytes -= self.records.popitem(last=False)[1].nbytes


_CacheInfo = namedtuple("CacheInfo", "misses currsize")
_store = _Store()


def _underlying(n: int, pairs: frozenset[tuple[int, int]]) -> _Underlying:
    """The kept record of the underlying graph ``(n, pairs)``, made and
    charged on a miss, and now the most recently used.  As on an
    ``lru_cache``, ``cache_info()`` gives the ``misses`` and the
    ``currsize``, and ``cache_clear()`` empties the memo."""
    key = (n, pairs)
    with _store.lock:
        record = _store.records.get(key)
        if record is None:
            _store.misses += 1
            record = _store.records[key] = _Underlying(key)
            _store.charge(record, 2 + n + len(pairs))
        else:
            _store.records.move_to_end(record.key)
    return record


_underlying.cache_info, _underlying.cache_clear = _store.info, _store.clear


_HEURISTIC_ITERS, _HEURISTIC_SEED = 200, 0  # local-search fallback past the guards


def _kept(record: _Underlying | _Class, name: str, compute: Callable[[], object]):
    """``record``'s field ``name``, computed on the first read."""
    if getattr(record, name) is None:
        setattr(record, name, compute())
    return getattr(record, name)


class _Ctx:
    """Every quantity of one signed graph that ``bounds``, ``invariants`` and
    ``search`` read, each computed on its first read (a ``_memo``, which
    ``search`` may also set itself) and always under the guards, each
    checked before any O(n) work.  Every matrix quantity comes from one
    int64 matrix, ``matrix``, and of the spectrum it holds only the sorted
    eigenvalues.  A ``shared`` context keeps what switching keeps in
    ``_underlying``, for the other signings of its underlying graph; any
    other keeps it to itself, as does one past the dense-matrix guard,
    where no eigenvalue row can be computed."""

    def __init__(self, g: SignedGraph, shared: bool = False):
        self.g = g
        self._shared = shared and g.n <= MATRIX_MAX_N

    @_memo
    def matrix(self) -> np.ndarray:
        """g's signed adjacency matrix in int64, the one every matrix
        quantity is read from."""
        return _signed_matrix(self.g)

    @_memo
    def eigenvalues(self) -> np.ndarray:
        """Sorted descending; ``search`` sets them from a stacked ``eigh``."""
        _check_dense(self.g.n)
        return _eigenvalues(self.matrix)

    @_memo
    def _underlying_values(self) -> _Underlying:
        """The values of the underlying graph: the shared record, or this
        context's own."""
        return _underlying(self.g.n, self.g.underlying_pairs) if self._shared else _Underlying()

    @_memo
    def _class(self) -> _Class:
        """The values this signing shares with its switching class."""
        if not self._shared:
            return _Class()
        entry = self._underlying_values
        _, key, forest = _canonical_signing(self.g, entry.forest)
        kept = entry.classes.get(key)
        if kept is None:
            with _store.lock:  # so one caller adds the class and is charged for it
                entry.forest = forest  # the first signing's BFS forest, which the others label
                kept = entry.classes.get(key)
                if kept is None:
                    kept = entry.classes[key] = _Class()
                    _store.charge(entry, 2 + len(key))
        return kept

    @property
    def unsigned_lambda_n(self) -> float:
        def compute() -> float:
            if not self.g.m_minus:  # an all-positive g is its own unsigned graph
                return float(self.eigenvalues[-1])
            _check_dense(self.g.n)
            return float(_eigenvalues(np.abs(self.matrix))[-1])
        return _kept(self._underlying_values, "lambda_n", compute)

    @_memo
    def limits(self) -> dict[str, int]:
        return _guard_limits()

    @_memo
    def eps(self) -> int:
        _check_guard(self.g.n, "frustration_index_exact", self.limits)
        return _kept(self._class, "eps", lambda: _frustration(self.matrix, self.g.m))

    @_memo
    def eps_b(self) -> int:
        _check_guard(self.g.n, "edge_bipartiteness", self.limits)
        return _kept(self._underlying_values, "eps_b", lambda: _frustration(-np.abs(self.matrix), self.g.m))

    @_memo
    def clique(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        _check_guard(self.g.n, "balanced_clique_number", self.limits)
        size, members = _kept(self._class, "clique", lambda: _max_balanced_clique(self.g, force=True)[:2])
        return size, members, _clique_labels(self.g, members)

    @property
    def omega_b(self) -> int:
        return self.clique[0]

    @_memo
    def _upper_bounds(self) -> dict[str, int]:
        """Local-search upper bounds on eps and eps_b, from one draw of
        restarts: ``frustration_index_upper`` of g and of (G, -1)."""
        graphs = (self.g, all_negative(self.g))
        return dict(zip(("eps", "eps_b"), _frustration_uppers(graphs, _HEURISTIC_ITERS, _HEURISTIC_SEED)))

    def exact_or_bound(self, name: str) -> tuple[int, bool]:
        """``eps``, ``eps_b`` or ``omega_b`` and whether it is exact.

        Past its guard the value is a heuristic bound instead: local search
        gives upper bounds on eps and eps_b, both at once in
        ``_upper_bounds``, a greedy clique a lower bound on omega_b.  A
        bound is kept only in this context's ``_upper_bounds``: never under
        an exact name, in ``_underlying`` or in a class record.
        """
        try:
            return getattr(self, name), True
        except TooLargeError:
            if name == "omega_b":
                return greedy_balanced_clique(self.g), False
            return self._upper_bounds[name], False

    @_memo
    def census(self) -> TriangleCensus:
        # a triangle's sign, the product of its edge signs, survives switching
        return _kept(self._class, "census", lambda: triangle_census(self.g))

    @_memo
    def _walks(self) -> list:
        """The walk state ``walks`` steps (``invariants._walk_totals``)."""
        return _walk_totals(self.g.n)

    def walks(self, r: int) -> tuple[int, int]:
        """``walk_census(g, r)``'s (w_total, w_signed); an order already met
        is read back, and each new one steps on from the last one met."""
        sums = self._walks[0]
        if 0 < r <= len(sums):  # below 126, so ``_walk_order(r)`` is r
            return sums[r - 1]
        return _walk_sums(self.g, r, self._walks)

    def eps_r(self, r: int) -> int:
        if r < 1:
            raise InvalidParamsError(f"walk order r must be >= 1, got {r}")
        _check_guard(self.g.n, "r_frustration_index", self.limits)
        w_total, _ = self.walks(r)
        if r == 2:  # A^(r-1) = A, so eps_2 = 2 * eps exactly
            return 2 * self.eps
        return _r_frustration(lambda: self.matrix, r, w_total)

    @_memo
    def rho(self) -> float:
        return _kept(self._class, "rho", lambda: max(abs(self.lambda1), abs(self.lambda_n)))

    @_memo
    def lambda1(self) -> float:
        return float(self.eigenvalues[0])

    @_memo
    def lambda2(self) -> float:
        return float(self.eigenvalues[1]) if len(self.eigenvalues) > 1 else 0.0

    @_memo
    def lambda_n(self) -> float:
        return float(self.eigenvalues[-1])


_Outcome = tuple[bool, float, float, str, str | None]  # hypothesis_met, lhs, rhs, note, own verdict


def _eval_b1(ctx: _Ctx, p: Mapping[str, int]) -> _Outcome:
    return True, ctx.lambda1, ctx.g.n * (1.0 - 1.0 / ctx.omega_b), "", None


def _eval_b2(ctx: _Ctx, p: Mapping[str, int]) -> _Outcome:
    rhs = 2.0 * (ctx.g.m - ctx.eps) * (1.0 - 1.0 / ctx.omega_b)
    return True, ctx.lambda1 ** 2, rhs, "", None


def _eval_b3(ctx: _Ctx, p: Mapping[str, int]) -> _Outcome:
    return True, ctx.unsigned_lambda_n ** 2, float(ctx.g.m - ctx.eps_b), "", None


def _eval_b4(ctx: _Ctx, p: Mapping[str, int]) -> _Outcome:
    if ctx.g.n % 2 == 0:
        rhs = ctx.g.n / 2.0
    else:
        k = (ctx.g.n - 1) // 2
        rhs = math.sqrt(k * (k + 1))
    return True, abs(ctx.unsigned_lambda_n), rhs, "", None


def _eval_b5(ctx: _Ctx, p: Mapping[str, int]) -> _Outcome:
    rhs = ctx.eps + (ctx.g.n ** 2 / 2.0) * (1.0 - 1.0 / ctx.omega_b)
    return True, float(ctx.g.m), rhs, "", None


def _eval_b6(ctx: _Ctx, p: Mapping[str, int]) -> _Outcome:
    m_eff = ctx.g.m - ctx.eps
    k = (1 + math.isqrt(8 * m_eff + 1)) // 2
    rhs = math.sqrt(2.0 * m_eff * (1.0 - 1.0 / k))
    return True, ctx.lambda1, rhs, "", None


def _eval_b7(ctx: _Ctx, p: Mapping[str, int]) -> _Outcome:
    m_eff = ctx.g.m - ctx.eps
    return True, ctx.lambda1, math.sqrt(2.0 * m_eff + 0.25) - 0.5, "", None


def _b8_sides(ctx: _Ctx) -> tuple[float, float]:
    return ctx.lambda1 ** 2 + ctx.lambda2 ** 2, float(ctx.g.m)


def _eval_b8(ctx: _Ctx, p: Mapping[str, int]) -> _Outcome:
    lhs, rhs = _b8_sides(ctx)
    spectral_ok = ctx.lambda1 >= abs(ctx.lambda_n) - _REL_TOL * max(1.0, abs(ctx.lambda_n))
    hyp = ctx.census.t_plus == 0 and ctx.g.m >= 1 and ctx.g.n >= 3 and spectral_ok
    note = (
        "triangle-free underlying graph (t_s = 0 reading)"
        if ctx.census.total == 0
        else "negative triangles present (t_s < 0 reading)"
    )
    return hyp, lhs, rhs, note, None


def _eval_b8u(ctx: _Ctx, p: Mapping[str, int]) -> _Outcome:
    lhs, rhs = _b8_sides(ctx)
    return True, lhs, rhs, "unconditional probe; violations are expected", None


def _eval_b9(ctx: _Ctx, p: Mapping[str, int]) -> _Outcome:
    lhs = ctx.lambda1 ** 2  # the dense guard before the O(n) census
    t_s = ctx.census.t_s
    rhs = ctx.g.m + (6.0 * max(t_s, 0)) ** (2.0 / 3.0)
    return t_s >= 0, lhs, rhs, "", None


def _eval_b10(ctx: _Ctx, p: Mapping[str, int]) -> _Outcome:
    r = p["r"]
    eps_r = ctx.eps_r(r)  # its guard before the O(n) walk vectors
    rhs = (ctx.walks(r)[0] - eps_r) * (1.0 - 1.0 / ctx.omega_b)
    return True, ctx.lambda1 ** r, rhs, "", None


def _eval_b11(ctx: _Ctx, p: Mapping[str, int]) -> _Outcome:
    q, r = p["q"], p["r"]
    if r < 0:  # rho^r would divide by zero on an edgeless graph
        raise InvalidParamsError(f"B11 needs r >= 0, got {r}")
    if q < 1:
        raise InvalidParamsError(f"B11 needs q >= 1, got {q}")
    hyp = q % 2 == 1
    rhs = ctx.rho ** r  # the dense guard before the O(n) walk vectors
    _, w_q = ctx.walks(q)
    if hyp and w_q <= 0:
        return hyp, 0.0, rhs, f"skipped: w_{q} = {w_q} <= 0", SKIPPED
    lhs = ctx.walks(q + r)[1] / w_q if w_q > 0 else 0.0
    return hyp, lhs, rhs, "", None


def _eval_b12(ctx: _Ctx, p: Mapping[str, int]) -> _Outcome:
    lhs = min(ctx.lambda1 ** 2, ctx.lambda_n ** 2)
    return True, lhs, float(ctx.g.m), "", None


def _eval_b13(ctx: _Ctx, p: Mapping[str, int]) -> _Outcome:
    omega = ctx.clique[0]
    # Local maxima of the Motzkin-Straus program sit on maximal cliques, so no search over
    # the sphere beats the witness but by roundoff; each int / int side is correctly rounded
    total = _clique_total(ctx.g, ctx.clique)
    note, verdict = "", None
    if 2 * total != (omega - 1) * omega:  # total / omega^2 misses (omega - 1) / (2 omega)
        witness, exact = _clique_value(ctx.g, ctx.clique), _ms_closed_form(omega)
        note, verdict = f"witness value {witness} does not attain the closed form {exact}", VIOLATED
    return True, total / (omega * omega), (omega - 1) / (2 * omega), note, verdict


def _eval_b14(ctx: _Ctx, p: Mapping[str, int]) -> _Outcome:
    lambda2 = ctx.lambda2  # the dense guard before the O(n) census
    has_triangle = ctx.census.total > 0
    # some vertex has degree >= 2 exactly when one of the 2m endpoints repeats
    has_two_path = len({w for u, v, _ in ctx.g.edges for w in (u, v)}) < 2 * ctx.g.m
    hyp = ctx.census.t_plus == 0 and ctx.g.n >= 3 and (has_triangle or has_two_path)
    return hyp, 0.0, lambda2, "", None


@dataclass(frozen=True)
class BoundInfo:
    bound_id: str
    enforced: bool
    required_params: tuple[str, ...]
    evaluator: Callable[[_Ctx, Mapping[str, int]], _Outcome]
    reads_eigenvalues: bool = True  # False lets a search skip the eigensolves
    # True when a row is the signing's own (B11's signed walk sums).  Any other row is the
    # same for a whole switching class, B13's too: with the labels l_v = sign(m0, v), m0
    # the clique's lowest member, a pair term of ``_clique_total`` is 1 for a pair holding
    # m0 and else the sign of the triangle (m0, u, v), and switching keeps both.
    per_signing: bool = False


REGISTRY: dict[str, BoundInfo] = {
    info.bound_id: info
    for info in (
        BoundInfo("B1", True, (), _eval_b1),
        BoundInfo("B2", True, (), _eval_b2),
        BoundInfo("B3", True, (), _eval_b3),
        BoundInfo("B4", True, (), _eval_b4),
        BoundInfo("B5", True, (), _eval_b5, reads_eigenvalues=False),
        BoundInfo("B6", True, (), _eval_b6),
        BoundInfo("B7", True, (), _eval_b7),
        BoundInfo("B8", True, (), _eval_b8),
        BoundInfo("B8u", False, (), _eval_b8u),
        BoundInfo("B9", True, (), _eval_b9),
        BoundInfo("B10", True, ("r",), _eval_b10),
        BoundInfo("B11", True, ("q", "r"), _eval_b11, per_signing=True),
        BoundInfo("B12", True, (), _eval_b12),
        BoundInfo("B13", True, (), _eval_b13, reads_eigenvalues=False),
        BoundInfo("B14", True, (), _eval_b14),
    )
}

DEFAULT_B10_RS: tuple[int, ...] = (1, 2, 3)
DEFAULT_B11_QRS: tuple[tuple[int, int], ...] = ((1, 1), (1, 2), (3, 1))


def enforced_bound_ids() -> frozenset[str]:
    """Identifiers whose hypothesis is enforced; they must never be violated."""
    return frozenset(i for i, info in REGISTRY.items() if info.enforced)


def evaluate_bound(
    g: SignedGraph, bound_id: str, params: Mapping[str, int] | None = None
) -> BoundEvaluation:
    """Evaluate one registry entry on ``g``.

    Raises UnknownBoundError for unregistered ids, MissingParamError when a
    parametrized entry (B10, B11) lacks its parameters, InvalidParamsError
    when one of them is not an integer, and propagates TooLargeError from
    guarded invariants.
    """
    info = REGISTRY.get(bound_id)
    if info is None:
        raise UnknownBoundError(f"unknown bound id {bound_id!r}; known: {list(REGISTRY)}")
    params = dict(params or {})
    for name in info.required_params:
        if name not in params:
            raise MissingParamError(f"{bound_id} requires parameter {name!r}")
        params[name] = _int_param(bound_id, name, params[name])
    if g.n == 0:
        raise InvalidParamsError("bounds need at least one vertex")
    return _evaluate(_Ctx(g), info, params)


def _row(
    bound_id: str, hypothesis_met: bool, lhs: float, rhs: float, slack: float,
    verdict: str, tolerance: float, params: dict[str, int], note: str
) -> BoundEvaluation:
    """``BoundEvaluation(...)`` of values this module made, built by writing
    a new instance's ``__dict__`` key by key, which skips the frozen
    constructor's ``object.__setattr__`` calls.  Written in field order, the
    row shares its keys with the constructor's rows, which keeps it small."""
    row = object.__new__(BoundEvaluation)
    fields = row.__dict__
    fields["bound_id"] = bound_id
    fields["hypothesis_met"] = hypothesis_met
    fields["lhs"] = lhs
    fields["rhs"] = rhs
    fields["slack"] = slack
    fields["verdict"] = verdict
    fields["tolerance"] = tolerance
    fields["params"] = params
    fields["note"] = note
    return row


def _evaluate(ctx: _Ctx, info: BoundInfo, params: dict[str, int]) -> BoundEvaluation:
    hyp, lhs, rhs, note, verdict = info.evaluator(ctx, params)
    tolerance = _REL_TOL * max(1.0, abs(rhs))
    if verdict is None:
        if not hyp:
            verdict = HYPOTHESIS_NOT_MET
        elif lhs <= rhs + tolerance:
            verdict = HOLDS
        else:
            verdict = VIOLATED
    lhs, rhs = float(lhs), float(rhs)
    return _row(info.bound_id, hyp, lhs, rhs, rhs - lhs, verdict, tolerance, params, note)


# Params no evaluator reads, planned only because ``bench/reference.json`` records
# them, until ROADMAP item 1 re-records it without them.
_UNREAD_PARAMS = {"B13": {"iters": 2, "seed": 0}}


def _build_plan(rs: tuple[int, ...], qr_pairs: tuple[tuple[int, int], ...]) -> tuple[tuple[str, dict[str, int]], ...]:
    """The rows of ``evaluate_all`` for checked walk orders, in registry
    order: each entry's id and its params, which each row takes a copy of.
    An entry fans out over ``rs`` or ``qr_pairs`` by its ``required_params``.
    Ids, not entries, so each call reads the registry as it is."""
    values = {(): [()], ("r",): [(r,) for r in rs], ("q", "r"): qr_pairs}
    return tuple(
        (bound_id, dict(_UNREAD_PARAMS.get(bound_id, zip(info.required_params, v))))
        for bound_id, info in REGISTRY.items()
        for v in values[info.required_params]
    )


_DEFAULT_PLAN = _build_plan(DEFAULT_B10_RS, DEFAULT_B11_QRS)


def _walk_orders(rs: Sequence[int], qr_pairs: Sequence[tuple[int, int]]) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """``rs`` and ``qr_pairs`` as tuples of integers.  A value that is not a
    sequence of orders, or of (q, r) pairs, or an order that is not an
    integer, raises InvalidParamsError naming B10 or B11."""
    try:
        rs = tuple(_int_param("B10", "r", r) for r in rs)
    except TypeError:
        raise InvalidParamsError(f"B10 walk orders must be a sequence of integers, got {rs!r}") from None
    try:
        pairs = [(q, r) for q, r in qr_pairs]
    except (TypeError, ValueError):
        raise InvalidParamsError(f"B11 walk orders must be a sequence of (q, r) pairs, got {qr_pairs!r}") from None
    return rs, tuple((_int_param("B11", "q", q), _int_param("B11", "r", r)) for q, r in pairs)


def evaluate_all(
    g: SignedGraph,
    *,
    rs: Sequence[int] = DEFAULT_B10_RS,
    qr_pairs: Sequence[tuple[int, int]] = DEFAULT_B11_QRS,
) -> list[BoundEvaluation]:
    """Evaluate every registry entry in deterministic id order.

    B10 fans out over ``rs`` and B11 over ``qr_pairs``.  The default
    orders themselves use the plan built at import; any other ``rs`` or
    ``qr_pairs`` is checked by ``_walk_orders`` and planned on each call,
    so nothing a caller passes is kept but the rows' key.  Entries whose
    guarded invariants overflow their guard, or whose walk counts leave the
    64-bit range, come back with verdict ``skipped`` instead of aborting
    the sequence.  The memo keeps the most recently used underlying graphs,
    each with its switching classes, within ``_MEMO_BYTES``.  A signing of
    a class whose rows it keeps for the same walk orders and guard limits
    gets those rows for every entry but B11, and B11 the class's rho, all
    filled by whichever earlier call met the class first, so their floats
    may differ from ``g``'s own in the last bits, far inside the 1e-8
    tolerance.  B13 decides in integers: its witness attains the closed
    form exactly when its pair sum is (omega_b - 1) omega_b / 2.
    """
    if rs is DEFAULT_B10_RS and qr_pairs is DEFAULT_B11_QRS:
        plan = _DEFAULT_PLAN
    else:
        rs, qr_pairs = _walk_orders(rs, qr_pairs)
        plan = _build_plan(rs, qr_pairs)
    if g.n == 0:
        raise InvalidParamsError("bounds need at least one vertex")
    ctx = _Ctx(g, shared=True)
    kept = ctx._class
    key = (*ctx.limits.values(), rs, qr_pairs)  # a guard override can turn a row into a skip
    if kept.rows_key != key:
        with _store.lock:  # charged for the slots it adds, or refunded for those it drops
            _store.charge(ctx._underlying_values, len(plan) - len(kept.rows or ()))
            kept.rows_key, kept.rows = key, [None] * len(plan)
    rows = kept.rows
    out: list[BoundEvaluation] = []
    for i, ((bound_id, template), k) in enumerate(zip(plan, rows)):
        params = template.copy()
        if k is not None:  # the kept row with this call's own params, so no two results share them
            fields = k.__dict__.copy()
            fields["params"] = params
            row = object.__new__(BoundEvaluation)
            object.__setattr__(row, "__dict__", fields)
        else:
            info = REGISTRY[bound_id]
            try:
                row = _evaluate(ctx, info, params)
            except (TooLargeError, OverflowError) as exc:  # a guard or a walk overflow skips the row
                row = _row(bound_id, False, 0.0, 0.0, 0.0, SKIPPED, _REL_TOL, params, f"skipped: {exc}")
            if not info.per_signing:
                rows[i] = row
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# JSON report (bit-exact: floats at 12 significant digits)
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    return format(float(x), ".12g")


def evaluation_to_json(ev: BoundEvaluation) -> str:
    params = ", ".join(f'"{k}": {int(v)}' for k, v in sorted(ev.params.items()))
    return (
        "{"
        f'"bound_id": "{ev.bound_id}", '
        f'"hypothesis_met": {"true" if ev.hypothesis_met else "false"}, '
        f'"lhs": {_fmt_float(ev.lhs)}, '
        f'"rhs": {_fmt_float(ev.rhs)}, '
        f'"slack": {_fmt_float(ev.slack)}, '
        f'"verdict": "{ev.verdict}", '
        f'"tolerance": {_fmt_float(ev.tolerance)}, '
        '"params": {' + params + "}"
        "}"
    )


def _json_array(items: Sequence[str]) -> str:
    """JSON objects one per line inside brackets; ``[]`` when empty."""
    return "[\n  " + ",\n  ".join(items) + "\n]" if items else "[]"


def evaluations_to_json(evals: Sequence[BoundEvaluation]) -> str:
    return _json_array([evaluation_to_json(ev) for ev in evals])
