"""Registry of eigenvalue inequalities as executable checkers.

Every registered inequality is evaluated as ``lhs <= rhs + tolerance`` with
exact integer/rational combinatorics on the right-hand data and floating
eigenvalues, tolerance 1e-8 relative to the right-hand side.  Identifiers
B1..B14 carry an enforced hypothesis and are expected to hold on every
input; B8u is the deliberately unconditional triangle-free inequality,
kept around because small unbalanced cycles violate it.

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
import operator
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import InvalidParamsError, MissingParamError, TooLargeError, UnknownBoundError
from .graph import SignedGraph, SymmetricMatrix, adjacency_matrix, all_negative
from .invariants import (
    TriangleCensus,
    WalkCensus,
    _WALK_OVERFLOW,
    _check_guard,
    _guard_limits,
    _max_balanced_clique,
    _r_frustration,
    _walk_chain,
    _walk_order,
    edge_bipartiteness,
    frustration_index_exact,
    frustration_index_upper,
    greedy_balanced_clique,
    triangle_census,
)
from .spectral import _clique_witness, eigen_decomposition
from .switching import propagation_labels

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


# Cross-graph sharing.  Switching (A -> D A D, D a +-1 diagonal) keeps the
# eigenvalues and every combinatorial quantity the registry reads except the
# signed walk sums (Zaslavsky, "Signed graphs", 1982).  Only ``evaluate_all``
# and ``invariants`` share across graphs, through ``_Ctx(g, shared=True)``:
# a sweep over all signings meets each class many times (the 307 graphs of
# the bench ``sweep`` fall into 74 classes), and ``invariants`` reads what
# ``bounds`` filled for the same file.  ``evaluate_bound`` and ``search``
# rarely meet an underlying graph twice, so they keep every value in their
# own context.  One entry suffices because sweeps visit all 2^m signings of
# an underlying graph in a row.  It keeps the unsigned lambda_n and eps_b,
# and under ``"classes"`` eps, eps_r, the balanced clique's members, rho,
# the triangle census and the rows of ``evaluate_all`` per switching class.
# A class is keyed by its canonical signing: the negative edges left after
# switching a BFS spanning forest all-positive.  rho lives in the class like the
# rest, so B11 of a shared context reads the rho of the first signing of its
# class that read one.  ``evaluate_all`` hands a later signing of a class the
# rows of the first one it met, except B11 and B13; ``eigh`` on D A D is not
# bit-identical to ``eigh`` on A, so those rows, and B11's rho, carry the
# first signing's roundoff.
# ``invariants`` reads only exact integers from the entry.

# Classes kept for the one underlying graph; all are dropped when a new one
# would pass it.  A class that holds the 16 shared rows of ``evaluate_all``
# takes about 7.7 KB (``tracemalloc``, n = 5 and 8), so the entry stays
# within about 8 MB.
_MAX_CLASSES = 1024


@lru_cache(maxsize=1)
def _underlying(n: int, pairs: frozenset[tuple[int, int]]) -> dict:
    return {}


_HEURISTIC_ITERS, _HEURISTIC_SEED = 200, 0  # local-search fallback past the guards


def _class_key(g: SignedGraph, labels: Sequence[int]) -> frozenset[tuple[int, int]]:
    """The negative edges of ``g`` switched by ``labels``; with the labels of
    ``propagation_labels(g, full=True)``, the same for a whole switching class."""
    return frozenset((u, v) for u, v, s in g.edges if labels[u] * s * labels[v] < 0)


def _kept(values: dict, name: object, compute: Callable[[], object]):
    """``values[name]``, computed on the first read."""
    if name not in values:
        values[name] = compute()
    return values[name]


class _Ctx:
    """Every quantity of one signed graph that ``bounds``, ``invariants`` and
    ``search`` read, computed once and always under the guards: it reads
    the limits on its first guarded read, checks each guarded value before
    the memo's O(n) class key, and fills the memo by forced calls.  Of the
    spectrum it holds only the sorted eigenvalues: the registry reads no
    more than lambda_1, lambda_2, lambda_n and rho.  A ``shared`` context
    keeps what switching keeps in ``_underlying``, for the other signings of
    its underlying graph; any other keeps it to itself."""

    def __init__(self, g: SignedGraph, shared: bool = False):
        self.g = g
        self._shared = shared
        self._walks: list[WalkCensus] = []

    @cached_property
    def adjacency(self) -> SymmetricMatrix:
        return adjacency_matrix(self.g)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Sorted descending; ``search`` sets them from a stacked ``eigh``."""
        return eigen_decomposition(self.adjacency).eigenvalues

    @cached_property
    def _underlying_values(self) -> dict:
        """The values of the underlying graph: the shared entry, or this
        context's own."""
        return _underlying(self.g.n, self.g.underlying_pairs) if self._shared else {}

    @cached_property
    def _class(self) -> dict:
        """The values this signing shares with its switching class."""
        if not self._shared:
            return {}
        classes = self._underlying_values.setdefault("classes", {})
        key = _class_key(self.g, propagation_labels(self.g, full=True)[0])
        if key not in classes and len(classes) >= _MAX_CLASSES:
            classes.clear()
        return classes.setdefault(key, {})

    @property
    def unsigned_lambda_n(self) -> float:
        def compute() -> float:
            if not self.g.m_minus:  # an all-positive g is its own unsigned graph
                return float(self.eigenvalues[-1])
            return float(eigen_decomposition(np.abs(self.adjacency.entries)).eigenvalues[-1])
        return _kept(self._underlying_values, "lambda_n", compute)

    @cached_property
    def limits(self) -> dict[str, int]:
        return _guard_limits()

    @cached_property
    def eps(self) -> int:
        _check_guard(self.g.n, "frustration_index_exact", self.limits)
        return _kept(self._class, "eps", lambda: frustration_index_exact(self.g, force=True))

    @cached_property
    def eps_b(self) -> int:
        _check_guard(self.g.n, "edge_bipartiteness", self.limits)
        return _kept(self._underlying_values, "eps_b", lambda: edge_bipartiteness(self.g, force=True))

    @cached_property
    def clique(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        _check_guard(self.g.n, "balanced_clique_number", self.limits)
        # the class keeps the members, the same for every signing; the labels
        # follow from the signs, sign(u, v) = label(u) label(v) on the clique
        size, members = _kept(self._class, "clique", lambda: _max_balanced_clique(self.g, force=True)[:2])
        return size, members, (1, *(self.g.sign(members[0], v) for v in members[1:]))

    @property
    def omega_b(self) -> int:
        return self.clique[0]

    def exact_or_bound(self, name: str) -> tuple[int, bool]:
        """``eps``, ``eps_b`` or ``omega_b`` and whether it is exact.

        Past its guard the value is a heuristic bound instead: local search
        gives upper bounds on eps and eps_b, a greedy clique a lower bound
        on omega_b.  A bound is never memoised, here or across graphs.
        """
        try:
            return getattr(self, name), True
        except TooLargeError:
            if name == "omega_b":
                return greedy_balanced_clique(self.g), False
            g = self.g if name == "eps" else all_negative(self.g)
            return frustration_index_upper(g, _HEURISTIC_ITERS, _HEURISTIC_SEED), False

    @cached_property
    def census(self) -> TriangleCensus:
        # a triangle's sign, the product of its edge signs, survives switching
        return _kept(self._class, "census", lambda: triangle_census(self.g))

    @cached_property
    def _chain(self) -> Iterator[WalkCensus]:
        """The walk censuses past those in ``_walks``, started on first read."""
        return _walk_chain(self.g)

    def walks(self, r: int) -> WalkCensus:
        """``walk_census(g, r)``; every order extends one chain from the
        all-ones vector, so r = 1..4 take three matrix-vector steps, and no r
        takes more than 124 (``_walk_order``)."""
        if r < 1:
            raise InvalidParamsError(f"walk order r must be >= 1, got {r}")
        k = _walk_order(r)
        for census in islice(self._chain, max(0, k - len(self._walks))):
            self._walks.append(census)
        if len(self._walks) < k:  # the chain ended at an overflow
            raise OverflowError(_WALK_OVERFLOW)
        return self._walks[k - 1] if k == r else replace(self._walks[k - 1], r=r)

    def eps_r(self, r: int) -> int:
        _check_guard(self.g.n, "r_frustration_index", self.limits)
        w_total = self.walks(r).w_total  # and r >= 1
        if r == 1 or self.g.m == 0:
            return 0
        if r == 2:  # A^(r-1) = A, so eps_2 = 2 * eps exactly
            return 2 * self.eps
        return _kept(self._class, ("eps_r", r), lambda: _r_frustration(self.g, r, w_total))

    @property
    def rho(self) -> float:
        return _kept(self._class, "rho", lambda: max(abs(self.lambda1), abs(self.lambda_n)))

    @cached_property
    def lambda1(self) -> float:
        return float(self.eigenvalues[0])

    @cached_property
    def lambda2(self) -> float:
        return float(self.eigenvalues[1]) if len(self.eigenvalues) > 1 else 0.0

    @cached_property
    def lambda_n(self) -> float:
        return float(self.eigenvalues[-1])


_Outcome = tuple[bool, float, float, str]  # hypothesis_met, lhs, rhs, note


def _eval_b1(ctx: _Ctx, p: Mapping[str, int]) -> _Outcome:
    return True, ctx.lambda1, ctx.g.n * (1.0 - 1.0 / ctx.omega_b), ""


def _eval_b2(ctx: _Ctx, p: Mapping[str, int]) -> _Outcome:
    rhs = 2.0 * (ctx.g.m - ctx.eps) * (1.0 - 1.0 / ctx.omega_b)
    return True, ctx.lambda1 ** 2, rhs, ""


def _eval_b3(ctx: _Ctx, p: Mapping[str, int]) -> _Outcome:
    return True, ctx.unsigned_lambda_n ** 2, float(ctx.g.m - ctx.eps_b), ""


def _eval_b4(ctx: _Ctx, p: Mapping[str, int]) -> _Outcome:
    if ctx.g.n % 2 == 0:
        rhs = ctx.g.n / 2.0
    else:
        k = (ctx.g.n - 1) // 2
        rhs = math.sqrt(k * (k + 1))
    return True, abs(ctx.unsigned_lambda_n), rhs, ""


def _eval_b5(ctx: _Ctx, p: Mapping[str, int]) -> _Outcome:
    rhs = ctx.eps + (ctx.g.n ** 2 / 2.0) * (1.0 - 1.0 / ctx.omega_b)
    return True, float(ctx.g.m), rhs, ""


def _eval_b6(ctx: _Ctx, p: Mapping[str, int]) -> _Outcome:
    m_eff = ctx.g.m - ctx.eps
    k = (1 + math.isqrt(8 * m_eff + 1)) // 2
    rhs = math.sqrt(2.0 * m_eff * (1.0 - 1.0 / k))
    return True, ctx.lambda1, rhs, ""


def _eval_b7(ctx: _Ctx, p: Mapping[str, int]) -> _Outcome:
    m_eff = ctx.g.m - ctx.eps
    return True, ctx.lambda1, math.sqrt(2.0 * m_eff + 0.25) - 0.5, ""


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
    return hyp, lhs, rhs, note


def _eval_b8u(ctx: _Ctx, p: Mapping[str, int]) -> _Outcome:
    lhs, rhs = _b8_sides(ctx)
    return True, lhs, rhs, "unconditional probe; violations are expected"


def _eval_b9(ctx: _Ctx, p: Mapping[str, int]) -> _Outcome:
    t_s = ctx.census.t_s
    hyp = t_s >= 0
    rhs = ctx.g.m + (6.0 * max(t_s, 0)) ** (2.0 / 3.0)
    return hyp, ctx.lambda1 ** 2, rhs, ""


def _eval_b10(ctx: _Ctx, p: Mapping[str, int]) -> _Outcome:
    r = p["r"]
    rhs = (ctx.walks(r).w_total - ctx.eps_r(r)) * (1.0 - 1.0 / ctx.omega_b)
    return True, ctx.lambda1 ** r, rhs, ""


def _eval_b11(ctx: _Ctx, p: Mapping[str, int]) -> _Outcome:
    q, r = p["q"], p["r"]
    if r < 0:  # rho^r would divide by zero on an edgeless graph
        raise InvalidParamsError(f"B11 needs r >= 0, got {r}")
    if q < 1:
        raise InvalidParamsError(f"B11 needs q >= 1, got {q}")
    hyp = q % 2 == 1
    w_q = ctx.walks(q).w_signed
    if hyp and w_q <= 0:
        return hyp, 0.0, ctx.rho ** r, f"skipped: w_{q} = {w_q} <= 0"
    lhs = ctx.walks(q + r).w_signed / w_q if w_q > 0 else 0.0
    return hyp, lhs, ctx.rho ** r, ""


def _eval_b12(ctx: _Ctx, p: Mapping[str, int]) -> _Outcome:
    lhs = min(ctx.lambda1 ** 2, ctx.lambda_n ** 2)
    return True, lhs, float(ctx.g.m), ""


def _eval_b13(ctx: _Ctx, p: Mapping[str, int]) -> _Outcome:
    clique = ctx.clique
    exact = Fraction(clique[0] - 1, 2 * clique[0])  # ms_index closed form
    # Local maxima of the Motzkin-Straus program sit on maximal cliques, so
    # no search over the sphere beats the witness but by roundoff
    _, witness_value = _clique_witness(ctx.g, clique)
    note = ""
    if witness_value != exact:
        note = f"witness value {witness_value} does not attain the closed form {exact}"
    return True, float(witness_value), float(exact), note


def _eval_b14(ctx: _Ctx, p: Mapping[str, int]) -> _Outcome:
    has_triangle = ctx.census.total > 0
    has_two_path = any(ctx.g.degree(v) >= 2 for v in range(ctx.g.n))
    hyp = ctx.census.t_plus == 0 and ctx.g.n >= 3 and (has_triangle or has_two_path)
    return hyp, 0.0, ctx.lambda2, ""


@dataclass(frozen=True)
class BoundInfo:
    bound_id: str
    summary: str
    enforced: bool
    required_params: tuple[str, ...]
    evaluator: Callable[[_Ctx, Mapping[str, int]], _Outcome]


REGISTRY: dict[str, BoundInfo] = {
    info.bound_id: info
    for info in (
        BoundInfo("B1", "lambda_1 <= n (1 - 1/omega_b)", True, (), _eval_b1),
        BoundInfo("B2", "lambda_1^2 <= 2 (m - eps) (1 - 1/omega_b)", True, (), _eval_b2),
        BoundInfo("B3", "lambda_n(G)^2 <= m - eps_b(G) on the unsigned graph", True, (), _eval_b3),
        BoundInfo("B4", "|lambda_n(G)| <= k or sqrt(k(k+1)) on the unsigned graph", True, (), _eval_b4),
        BoundInfo("B5", "m <= eps + (n^2/2)(1 - 1/omega_b)", True, (), _eval_b5),
        BoundInfo("B6", "lambda_1 <= sqrt(2 (m-eps) (1 - 1/floor(1/2 + sqrt(2(m-eps)+1/4))))", True, (), _eval_b6),
        BoundInfo("B7", "lambda_1 <= sqrt(2 (m-eps) + 1/4) - 1/2", True, (), _eval_b7),
        BoundInfo("B8", "lambda_1^2 + lambda_2^2 <= m under the no-positive-triangle hypothesis", True, (), _eval_b8),
        BoundInfo("B8u", "lambda_1^2 + lambda_2^2 <= m, unconditional probe", False, (), _eval_b8u),
        BoundInfo("B9", "lambda_1^2 <= m + (6 t_s)^(2/3) when t_s >= 0", True, (), _eval_b9),
        BoundInfo("B10", "lambda_1^r <= (w_r(G) - eps_r)(1 - 1/omega_b)", True, ("r",), _eval_b10),
        BoundInfo("B11", "w_(q+r)/w_q <= rho^r for odd q", True, ("q", "r"), _eval_b11),
        BoundInfo("B12", "min(lambda_1^2, lambda_n^2) <= m", True, (), _eval_b12),
        BoundInfo("B13", "clique witness value <= (omega_b - 1)/(2 omega_b), and attains it", True, (), _eval_b13),
        BoundInfo("B14", "0 <= lambda_2 under the no-positive-triangle hypothesis", True, (), _eval_b14),
    )
}

#: Evaluation order for evaluate_all: registry order with parameter fan-out.
BOUND_ORDER: tuple[str, ...] = tuple(REGISTRY)

DEFAULT_B10_RS: tuple[int, ...] = (1, 2, 3)
DEFAULT_B11_QRS: tuple[tuple[int, int], ...] = ((1, 1), (1, 2), (3, 1))


def enforced_bound_ids() -> frozenset[str]:
    """Identifiers whose hypothesis is enforced; they must never be violated."""
    return frozenset(i for i, info in REGISTRY.items() if info.enforced)


def _int_param(bound_id: str, name: str, value: object) -> int:
    """``value`` as an integer in the sense of ``operator.index`` (Python and
    numpy ints, bools); a float or a string raises InvalidParamsError."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidParamsError(f"{bound_id} parameter {name!r} must be an integer, got {value!r}") from None


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


def _evaluate(ctx: _Ctx, info: BoundInfo, params: dict[str, int]) -> BoundEvaluation:
    hyp, lhs, rhs, note = info.evaluator(ctx, params)
    tolerance = _REL_TOL * max(1.0, abs(rhs))
    if note.startswith("skipped"):
        verdict = SKIPPED
    elif not hyp:
        verdict = HYPOTHESIS_NOT_MET
    elif note.startswith("witness value"):
        verdict = VIOLATED
    elif lhs <= rhs + tolerance:
        verdict = HOLDS
    else:
        verdict = VIOLATED
    return BoundEvaluation(
        bound_id=info.bound_id,
        hypothesis_met=hyp,
        lhs=float(lhs),
        rhs=float(rhs),
        slack=float(rhs) - float(lhs),
        verdict=verdict,
        tolerance=tolerance,
        params=params,
        note=note,
    )


def _evaluate_or_skip(ctx: _Ctx, bound_id: str, params: dict[str, int]) -> BoundEvaluation:
    """``_evaluate``, with a guard or a walk overflow turned into a skipped row."""
    try:
        return _evaluate(ctx, REGISTRY[bound_id], params)
    except (TooLargeError, OverflowError) as exc:
        return BoundEvaluation(
            bound_id=bound_id,
            hypothesis_met=False,
            lhs=0.0,
            rhs=0.0,
            slack=0.0,
            verdict=SKIPPED,
            tolerance=_REL_TOL,
            params=params,
            note=f"skipped: {exc}",
        )


# B11's signed walk sums and the signs B13's clique witness is read on are a
# signing's own; every other row is the same for a whole switching class.
_PER_SIGNING = frozenset(("B11", "B13"))
# B5 reads only integers and B13 only its exact clique witness, so a search
# on them skips the eigensolves.
_NO_EIGENVALUES = frozenset(("B5", "B13"))


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
    the sequence.

    Within a switching class only B11's signed walk sums and B13's clique
    witness depend on the signing.  So a signing whose class this function
    has met gets the rows of the first signing it met for every other
    entry, and B11 takes that signing's rho: eigenvalue-derived floats may
    differ from a fresh decomposition of ``g`` in the last bits, far inside
    the 1e-8 tolerance.
    """
    plan: list[tuple[str, dict[str, int]]] = []
    for bound_id in BOUND_ORDER:
        if bound_id == "B10":
            plan.extend((bound_id, {"r": _int_param(bound_id, "r", r)}) for r in rs)
        elif bound_id == "B11":
            plan.extend(
                (bound_id, {"q": _int_param(bound_id, "q", q), "r": _int_param(bound_id, "r", r)})
                for q, r in qr_pairs
            )
        elif bound_id == "B13":
            plan.append((bound_id, {"iters": 2, "seed": 0}))
        else:
            plan.append((bound_id, {}))
    if g.n == 0:
        raise InvalidParamsError("bounds need at least one vertex")
    ctx = _Ctx(g, shared=True)
    # a guard override can turn a row into a skip, so rows are kept per limits
    rows = ctx._class.setdefault(("rows", *ctx.limits.values()), {})
    out: list[BoundEvaluation] = []
    for bound_id, params in plan:
        if bound_id in _PER_SIGNING:
            out.append(_evaluate_or_skip(ctx, bound_id, params))
            continue
        key = (bound_id, *sorted(params.items()))
        row = rows.get(key)
        if row is None:
            row = rows[key] = _evaluate_or_skip(ctx, bound_id, params)
        else:  # the kept row with this call's own params, so no two results share them
            row = BoundEvaluation(
                row.bound_id, row.hypothesis_met, row.lhs, row.rhs, row.slack,
                row.verdict, row.tolerance, params, row.note,
            )
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
