"""Seeded random search for inequality violations.

Samples signed Erdos-Renyi graphs, evaluates one registry entry per sample
and records every evaluation whose verdict is ``violated``.  Findings are
reproducible: the sampled graph depends only on (seed, sample_index), and
two runs with the same configuration produce identical output regardless
of how samples are scheduled.
"""

from __future__ import annotations

import json
import operator
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from . import invariants
from .bounds import REGISTRY, VIOLATED, _Ctx, _evaluate, _fmt_float, _json_array
from .errors import InvalidConfigError, _int_param
from .graph import MATRIX_MAX_N, SignedGraph, _signed_gnp, _signed_matrix, _unit_interval
from .spectral import _eigenvalues
from .switching import is_switching_equivalent


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of one counterexample search."""

    target: str
    n_min: int
    n_max: int
    edge_probability: float
    negative_probability: float
    samples: int
    seed: int
    triangle_free_filter: bool = False
    params: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.target not in REGISTRY:
            raise InvalidConfigError(
                f"unknown target bound {self.target!r}; known: {list(REGISTRY)}"
            )
        for name in ("n_min", "n_max", "samples", "seed"):
            value = getattr(self, name)
            try:
                operator.index(value)
            except TypeError:
                raise InvalidConfigError(f"{name} must be an integer, got {value!r}") from None
        if self.samples < 1:
            raise InvalidConfigError(f"samples must be >= 1, got {self.samples}")
        if not 1 <= self.n_min <= self.n_max:
            raise InvalidConfigError(
                f"need 1 <= n_min <= n_max, got [{self.n_min}, {self.n_max}]"
            )
        for name in ("edge_probability", "negative_probability"):
            value = getattr(self, name)
            if not _unit_interval(value):
                raise InvalidConfigError(f"{name} must lie in [0, 1], got {value!r}")
        missing = [p for p in REGISTRY[self.target].required_params if p not in self.params]
        if missing:
            raise InvalidConfigError(
                f"target {self.target} requires params {missing}; pass them in params"
            )
        for name in REGISTRY[self.target].required_params:
            _int_param(self.target, name, self.params[name])


@dataclass(frozen=True)
class SearchFinding:
    """One recorded violation; (seed, sample_index) replays the graph."""

    graph: str  # serialized .sg text
    bound_id: str
    lhs: float
    rhs: float
    slack: float
    seed: int
    sample_index: int


def sample_signed_graph(cfg: SearchConfig, sample_index: int) -> SignedGraph:
    """The graph drawn for one sample slot; pure function of (cfg, index)."""
    rng = random.Random(f"signed-spectra:{cfg.seed}:{sample_index}")
    n = rng.randint(cfg.n_min, cfg.n_max)
    return _signed_gnp(rng, n, cfg.edge_probability, cfg.negative_probability)


def _samples(cfg: SearchConfig) -> Iterator[tuple[int, _Ctx]]:
    """The samples that pass the triangle filter, with their contexts, in
    index order.

    They are drawn in blocks of at least one sample and at most
    ``invariants._BLOCK_ENTRIES`` matrix entries (the sum of n^2 over the
    samples that pass).  ``_decompose`` fills a block's eigenvalues before
    the block is handed out; it is handed out, and let go one context at a
    time, before the next one is drawn past its first sample.
    """
    block: deque[tuple[int, _Ctx]] = deque()
    entries = 0
    for index in range(cfg.samples):
        ctx = _Ctx(sample_signed_graph(cfg, index))
        if cfg.triangle_free_filter and ctx.census.total > 0:
            continue
        size = ctx.g.n * ctx.g.n
        if block and entries + size > invariants._BLOCK_ENTRIES:
            _decompose(block, cfg.target)
            while block:
                yield block.popleft()
            entries = 0
        block.append((index, ctx))
        entries += size
    _decompose(block, cfg.target)
    while block:
        yield block.popleft()


def _decompose(block: Sequence[tuple[int, _Ctx]], target: str) -> None:
    """Set the eigenvalues of the contexts in ``block`` with one ``eigh`` per
    order of two or more samples, unless ``target`` reads none.  A sample
    alone in its order, or past the adjacency guard, is left to
    ``_Ctx.eigenvalues``, which decomposes it, or raises the guard, only if
    the target reads them."""
    if not REGISTRY[target].reads_eigenvalues:
        return
    by_order: dict[int, list[_Ctx]] = {}
    for _, ctx in block:
        by_order.setdefault(ctx.g.n, []).append(ctx)
    for n, group in by_order.items():
        if len(group) > 1 and n <= MATRIX_MAX_N:
            for ctx, vals in zip(group, _eigenvalues(_signed_matrix([c.g for c in group]))):
                ctx.eigenvalues = vals


def search_counterexamples(cfg: SearchConfig) -> list[SearchFinding]:
    """Run the configured sweep, deduplicated up to switching equivalence.

    Ordered by sample_index; a later finding is dropped when an earlier one
    has the same underlying graph and is switching equivalent to it.
    """
    findings: list[SearchFinding] = []
    # kept graphs by underlying graph, the only ones a sample can switch to
    kept: dict[tuple[int, frozenset[tuple[int, int]]], list[SignedGraph]] = {}
    info, params = REGISTRY[cfg.target], dict(cfg.params)  # checked by SearchConfig
    for index, ctx in _samples(cfg):
        ev = _evaluate(ctx, info, params)
        if ev.verdict != VIOLATED:
            continue
        g = ctx.g
        same = kept.setdefault((g.n, g.underlying_pairs), [])
        if any(is_switching_equivalent(other, g) for other in same):
            continue
        same.append(g)
        findings.append(
            SearchFinding(
                graph=g.to_sg(),
                bound_id=cfg.target,
                lhs=ev.lhs,
                rhs=ev.rhs,
                slack=ev.slack,
                seed=cfg.seed,
                sample_index=index,
            )
        )
    return findings


def findings_to_json(findings: Sequence[SearchFinding]) -> str:
    """Deterministic JSON with floats at 12 significant digits."""
    return _json_array(
        [
            "{"
            f'"graph": {json.dumps(f.graph)}, '
            f'"bound_id": "{f.bound_id}", '
            f'"lhs": {_fmt_float(f.lhs)}, '
            f'"rhs": {_fmt_float(f.rhs)}, '
            f'"slack": {_fmt_float(f.slack)}, '
            f'"seed": {f.seed}, '
            f'"sample_index": {f.sample_index}'
            "}"
            for f in findings
        ]
    )
