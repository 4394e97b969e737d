"""Seeded random search for inequality violations.

Samples signed Erdos-Renyi graphs, evaluates one registry entry per sample
and records every evaluation whose verdict is ``violated``.  Findings are
reproducible: the sampled graph depends only on (seed, sample_index), and
two runs with the same configuration produce identical output regardless
of how samples are scheduled.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .bounds import REGISTRY, VIOLATED, _fmt_float, _json_array, evaluate_bound
from .errors import InvalidConfigError
from .graph import SignedGraph
from .invariants import triangle_census
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
        if self.samples < 1:
            raise InvalidConfigError(f"samples must be >= 1, got {self.samples}")
        if not 1 <= self.n_min <= self.n_max:
            raise InvalidConfigError(
                f"need 1 <= n_min <= n_max, got [{self.n_min}, {self.n_max}]"
            )
        for name, value in (
            ("edge_probability", self.edge_probability),
            ("negative_probability", self.negative_probability),
        ):
            if not 0.0 <= value <= 1.0:
                raise InvalidConfigError(f"{name} must lie in [0, 1], got {value}")
        missing = [p for p in REGISTRY[self.target].required_params if p not in self.params]
        if missing:
            raise InvalidConfigError(
                f"target {self.target} requires params {missing}; pass them in params"
            )


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
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < cfg.edge_probability:
                sign = -1 if rng.random() < cfg.negative_probability else 1
                edges.append((u, v, sign))
    return SignedGraph(n, frozenset(edges))


def search_counterexamples(cfg: SearchConfig) -> list[SearchFinding]:
    """Run the configured sweep, deduplicated up to switching equivalence.

    Ordered by sample_index; a later finding is dropped when an earlier one
    has the same underlying graph and is switching equivalent to it.
    """
    findings: list[SearchFinding] = []
    # kept graphs by underlying graph, the only ones a sample can switch to
    kept: dict[tuple[int, frozenset[tuple[int, int]]], list[SignedGraph]] = {}
    for index in range(cfg.samples):
        g = sample_signed_graph(cfg, index)
        if cfg.triangle_free_filter and triangle_census(g).total > 0:
            continue
        ev = evaluate_bound(g, cfg.target, dict(cfg.params))
        if ev.verdict != VIOLATED:
            continue
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
