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
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import InvalidParamsError, MissingParamError, TooLargeError, UnknownBoundError, _int_param
from .graph import MATRIX_MAX_N, SignedGraph, _check_dense, _signed_matrix, all_negative
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
    ``_underlying`` for ``evaluate_all`` and ``invariants``; each field is
    None until its first fill:

    * ``forest``: the spanning forest of ``switching._canonical_signing``,
      from the first signing met;
    * ``lambda_n`` and ``eps_b`` of the unsigned graph;
    * ``classes``: a ``_Class`` per switching class, keyed by its canonical
      signing; past ``_MAX_CLASSES`` a new class drops them all.

    ``invariants`` reads only exact integers from the record.
    """

    forest = lambda_n = eps_b = classes = None


class _Class:
    """What one switching class shares, each None until its first fill:
    ``eps``, ``clique`` (the size and members of a maximum balanced
    clique), ``census``, ``rho`` from the eigenvalues of the first signing
    that read it, ``rows_key``, the ``(*limits, rs, qr_pairs)`` of the last
    ``evaluate_all`` call on the class, and ``rows``, its rows in plan
    order, None in B11's slots and in those not yet filled.
    """

    eps = clique = census = rho = rows_key = rows = None


# Classes kept for the one underlying graph; all are dropped when a new one
# would pass it.  A test holds the 1,024 classes of K6, filled with the
# default plan's rows, within 9 MiB.
_MAX_CLASSES = 1024


@lru_cache(maxsize=1)
def _underlying(n: int, pairs: frozenset[tuple[int, int]]) -> _Underlying:
    return _Underlying()


_HEURISTIC_ITERS, _HEURISTIC_SEED = 200, 0  # local-search fallback past the guards


def _kept(record: _Underlying | _Class, name: str, compute: Callable[[], object]):
    """``record``'s field ``name``, computed on the first read."""
    if getattr(record, name) is None:
        setattr(record, name, compute())
    return getattr(record, name)


class _memo:
    """``functools.cached_property`` without its lock: the first read of the
    attribute computes it and stores it in the instance ``__dict__``, where
    every later read finds it before this non-data descriptor.  On Python
    3.10 and 3.11 ``cached_property`` takes an RLock on each first read,
    which costs more than most of ``_Ctx``'s values; a context is never
    shared between threads, so it needs no lock.  An exception stores
    nothing, and an instance assignment wins over the descriptor."""

    def __init__(self, compute: Callable):
        self.compute = compute
        self.__doc__ = compute.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, ctx, owner=None):
        if ctx is None:
            return self
        value = ctx.__dict__[self.name] = self.compute(ctx)
        return value


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
        if entry.forest is None:  # the first signing met: one BFS, whose forest the others label
            entry.forest, entry.classes = forest, {}
        classes = entry.classes
        if key not in classes and len(classes) >= _MAX_CLASSES:
            classes.clear()
        return classes.get(key) or classes.setdefault(key, _Class())

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
    summary: str
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
        BoundInfo("B1", "lambda_1 <= n (1 - 1/omega_b)", True, (), _eval_b1),
        BoundInfo("B2", "lambda_1^2 <= 2 (m - eps) (1 - 1/omega_b)", True, (), _eval_b2),
        BoundInfo("B3", "lambda_n(G)^2 <= m - eps_b(G) on the unsigned graph", True, (), _eval_b3),
        BoundInfo("B4", "|lambda_n(G)| <= k or sqrt(k(k+1)) on the unsigned graph", True, (), _eval_b4),
        BoundInfo("B5", "m <= eps + (n^2/2)(1 - 1/omega_b)", True, (), _eval_b5, reads_eigenvalues=False),
        BoundInfo("B6", "lambda_1 <= sqrt(2 (m-eps) (1 - 1/floor(1/2 + sqrt(2(m-eps)+1/4))))", True, (), _eval_b6),
        BoundInfo("B7", "lambda_1 <= sqrt(2 (m-eps) + 1/4) - 1/2", True, (), _eval_b7),
        BoundInfo("B8", "lambda_1^2 + lambda_2^2 <= m under the no-positive-triangle hypothesis", True, (), _eval_b8),
        BoundInfo("B8u", "lambda_1^2 + lambda_2^2 <= m, unconditional probe", False, (), _eval_b8u),
        BoundInfo("B9", "lambda_1^2 <= m + (6 t_s)^(2/3) when t_s >= 0", True, (), _eval_b9),
        BoundInfo("B10", "lambda_1^r <= (w_r(G) - eps_r)(1 - 1/omega_b)", True, ("r",), _eval_b10),
        BoundInfo("B11", "w_(q+r)/w_q <= rho^r for odd q", True, ("q", "r"), _eval_b11, per_signing=True),
        BoundInfo("B12", "min(lambda_1^2, lambda_n^2) <= m", True, (), _eval_b12),
        BoundInfo("B13", "clique witness value <= (omega_b - 1)/(2 omega_b), and attains it", True, (), _eval_b13,
                  reads_eigenvalues=False),
        BoundInfo("B14", "0 <= lambda_2 under the no-positive-triangle hypothesis", True, (), _eval_b14),
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


@lru_cache(maxsize=16)
def _plan(rs: tuple[int, ...], qr_pairs: tuple[tuple[int, int], ...]) -> tuple[tuple[str, dict[str, int]], ...]:
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


def evaluate_all(
    g: SignedGraph,
    *,
    rs: Sequence[int] = DEFAULT_B10_RS,
    qr_pairs: Sequence[tuple[int, int]] = DEFAULT_B11_QRS,
) -> list[BoundEvaluation]:
    """Evaluate every registry entry in deterministic id order.

    B10 fans out over ``rs`` and B11 over ``qr_pairs``.  Entries whose
    guarded invariants overflow their guard, or whose walk counts leave the
    64-bit range, come back with verdict ``skipped`` instead of aborting
    the sequence.  A signing of a switching class whose rows the memo keeps
    for the same walk orders and guard limits gets those rows for every
    entry but B11, and B11 the class's rho, so their floats may differ from
    ``g``'s own in the last bits, far inside the 1e-8 tolerance.  B13
    decides in integers: its witness attains the closed form exactly when
    its pair sum is (omega_b - 1) omega_b / 2.
    """
    if rs is not DEFAULT_B10_RS:  # the defaults are integers already
        rs = tuple(_int_param("B10", "r", r) for r in rs)
    if qr_pairs is not DEFAULT_B11_QRS:
        qr_pairs = tuple((_int_param("B11", "q", q), _int_param("B11", "r", r)) for q, r in qr_pairs)
    if g.n == 0:
        raise InvalidParamsError("bounds need at least one vertex")
    ctx = _Ctx(g, shared=True)
    plan = _plan(rs, qr_pairs)
    kept = ctx._class
    key = (*ctx.limits.values(), rs, qr_pairs)  # a guard override can turn a row into a skip
    if kept.rows_key != key:
        kept.rows_key, kept.rows = key, [None] * len(plan)
    rows = kept.rows
    out: list[BoundEvaluation] = []
    for i, ((bound_id, template), k) in enumerate(zip(plan, rows)):
        params = template.copy()
        if k is not None:  # the kept row with this call's own params, so no two results share them
            row = object.__new__(BoundEvaluation)
            fields = row.__dict__
            fields.update(k.__dict__)
            fields["params"] = params
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
