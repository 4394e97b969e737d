"""Shared fixtures, corpora and hypothesis strategies."""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import strategies as st

from signed_spectra import SignedGraph, erdos_renyi_signed, paper_c5


@pytest.fixture
def c5() -> SignedGraph:
    return paper_c5()


def random_graphs(count: int, max_n: int, seed: int, p=(0.25, 0.5), q=(0.2, 0.4), min_n: int = 1):
    """Deterministic corpus of signed Erdos-Renyi graphs."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        out.append(
            erdos_renyi_signed(
                n=rng.randint(min_n, max_n),
                p=rng.choice(p),
                q_neg=rng.choice(q),
                seed=seed * 100_000 + i,
            )
        )
    return out


def exact_kernel_corpus() -> list[SignedGraph]:
    """Seeded graphs for the bitmask and adjacency kernels against their
    dict-based oracles: G(n, p) with n = 18..60, p in {0.1, 0.3, 0.5, 0.8}
    and q_neg in {0, 1/2, 1}, the all-negative signing of each, edgeless
    graphs, n = 1, and graphs with isolated vertices."""
    rng = random.Random(61)
    graphs = []
    for i, (p, q) in enumerate((p, q) for p in (0.1, 0.3, 0.5, 0.8) for q in (0.0, 0.5, 1.0)):
        for n in (18, rng.randint(19, 40), rng.randint(41, 60)):
            g = erdos_renyi_signed(n, p, q, seed=1000 * i + n)
            graphs += [g, g.with_all_signs(-1)]
    graphs += [SignedGraph(1), SignedGraph(2), SignedGraph(40)]
    graphs += [
        SignedGraph.from_edges(n, [(u, v, -s) for u, v, s in erdos_renyi_signed(n // 2, 0.6, 0.5, seed=n).edges])
        for n in (6, 25, 50)
    ]  # the upper half of the vertices isolated
    return graphs


def _connected(n: int, pairs) -> bool:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(n)}) <= 1


def connected_underlying_graphs(max_n: int):
    """All labeled connected graphs on 1..max_n vertices, as pair lists."""
    for n in range(1, max_n + 1):
        all_pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(all_pairs)):
            pairs = [p for i, p in enumerate(all_pairs) if mask >> i & 1]
            if _connected(n, pairs):
                yield n, pairs


def all_signings(n: int, pairs):
    """Every signing of the given underlying edge list."""
    for smask in range(1 << len(pairs)):
        yield SignedGraph.from_edges(
            n,
            [(u, v, -1 if smask >> i & 1 else 1) for i, (u, v) in enumerate(pairs)],
        )


@pytest.fixture(scope="session")
def small_corpus():
    """All signings of all connected labeled underlying graphs with n <= 5."""
    graphs = []
    for n, pairs in connected_underlying_graphs(5):
        graphs.extend(all_signings(n, pairs))
    return graphs


@st.composite
def signed_graphs(draw, min_n: int = 1, max_n: int = 8) -> SignedGraph:
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    chosen = sorted(draw(st.sets(st.sampled_from(pairs))) if pairs else [])
    signs = draw(
        st.lists(st.sampled_from((1, -1)), min_size=len(chosen), max_size=len(chosen))
    )
    return SignedGraph.from_edges(n, [(u, v, s) for (u, v), s in zip(chosen, signs)])


@st.composite
def switchings_for(draw, n: int):
    from signed_spectra import Switching

    return Switching(tuple(draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))))
