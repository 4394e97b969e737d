"""Counterexample search: determinism, replay, dedup, the C5 class."""

import pytest

from signed_spectra import bounds, search
from signed_spectra import (
    InvalidConfigError,
    SearchConfig,
    SignedGraph,
    findings_to_json,
    is_switching_equivalent,
    paper_c5,
    parse_signed_graph,
    sample_signed_graph,
    search_counterexamples,
    triangle_census,
)

from .oracles import sample_by_from_edges, search_by_linear_scan


def make_cfg(**overrides) -> SearchConfig:
    base = dict(
        target="B8u",
        n_min=5,
        n_max=5,
        edge_probability=0.5,
        negative_probability=0.5,
        samples=400,
        seed=11,
    )
    base.update(overrides)
    return SearchConfig(**base)


class TestConfigValidation:
    def test_zero_samples(self):
        with pytest.raises(InvalidConfigError):
            make_cfg(samples=0)

    def test_bad_probability(self):
        with pytest.raises(InvalidConfigError):
            make_cfg(edge_probability=1.5)

    def test_bad_range(self):
        with pytest.raises(InvalidConfigError):
            make_cfg(n_min=6, n_max=5)

    def test_unknown_target(self):
        with pytest.raises(InvalidConfigError):
            make_cfg(target="B99")

    def test_parametrized_target_needs_params(self):
        with pytest.raises(InvalidConfigError):
            make_cfg(target="B10")
        cfg = make_cfg(target="B10", params={"r": 2}, samples=5)
        assert search_counterexamples(cfg) == []


class TestDeterminism:
    def test_identical_runs(self):
        cfg = make_cfg(samples=150)
        a = search_counterexamples(cfg)
        b = search_counterexamples(cfg)
        assert a == b
        assert findings_to_json(a) == findings_to_json(b)

    def test_replay_regenerates_graph(self):
        cfg = make_cfg(samples=200)
        findings = search_counterexamples(cfg)
        assert findings
        for f in findings:
            regenerated = sample_signed_graph(cfg, f.sample_index)
            assert regenerated == parse_signed_graph(f.graph)

    def test_sampling_is_a_pure_function(self):
        cfg = make_cfg()
        assert sample_signed_graph(cfg, 17) == sample_signed_graph(cfg, 17)


class TestFindings:
    def test_b12_is_a_theorem_so_no_findings(self):
        cfg = make_cfg(target="B12", n_min=3, n_max=8, samples=300, seed=5)
        assert search_counterexamples(cfg) == []

    def test_enforced_b8_never_fires(self):
        cfg = make_cfg(target="B8", n_min=3, n_max=8, samples=300, seed=6)
        assert search_counterexamples(cfg) == []

    def test_unconditional_probe_finds_the_c5_class(self):
        cfg = make_cfg(samples=400)
        findings = search_counterexamples(cfg)
        assert findings
        c5_class = []
        for f in findings:
            g = parse_signed_graph(f.graph)
            if g.m == 5 and all(g.degree(v) == 2 for v in range(5)):
                c5_class.append(g)
        assert c5_class, "expected an unbalanced 5-cycle among the findings"
        for g in c5_class:
            # only unbalanced signings of C5 violate, and those form a single
            # switching class: the one-negative-edge representative
            assert is_switching_equivalent(_relabel_cycle(g), paper_c5())

    def test_findings_deduplicated_up_to_switching(self):
        cfg = make_cfg(samples=400)
        findings = [parse_signed_graph(f.graph) for f in search_counterexamples(cfg)]
        for i, a in enumerate(findings):
            for b in findings[i + 1 :]:
                if a.n == b.n and a.underlying_pairs == b.underlying_pairs:
                    assert not is_switching_equivalent(a, b)

    def test_triangle_free_filter(self):
        cfg = make_cfg(
            target="B8u",
            n_min=4,
            n_max=7,
            edge_probability=0.6,
            samples=250,
            seed=9,
            triangle_free_filter=True,
        )
        for f in search_counterexamples(cfg):
            assert triangle_census(parse_signed_graph(f.graph)).total == 0

    @pytest.mark.parametrize(
        "cfg",
        (
            make_cfg(samples=200, seed=4),
            make_cfg(target="B8", samples=200, seed=4, triangle_free_filter=True),
            make_cfg(target="B11", samples=200, seed=4, params={"q": 1, "r": 1}),
            make_cfg(target="B12", samples=200, seed=4),
        ),
        ids=("B8u", "triangle-free B8", "B11", "B12"),
    )
    def test_spectral_targets_leave_the_memo_alone(self, cfg):
        # B8u, B8, B11 and B12 read the signing's own spectrum, census and
        # walks, none of them shared across signings, so no search sample
        # reads the memo: not even the rho that evaluate_all shares
        bounds._underlying.cache_clear()
        search_counterexamples(cfg)
        assert bounds._underlying.cache_info().currsize == 0

    def test_triangle_filter_reads_the_memo_census(self, monkeypatch):
        calls = []
        census = bounds.triangle_census

        def counted(g):
            calls.append(g)
            return census(g)

        monkeypatch.setattr(bounds, "triangle_census", counted)
        # a filter that went around the memo would call a census of its own
        monkeypatch.setattr(search, "triangle_census", counted, raising=False)
        cfg = make_cfg(
            target="B8", n_min=4, n_max=8, edge_probability=0.4, samples=400, seed=2,
            triangle_free_filter=True,
        )
        search_counterexamples(cfg)
        assert len(calls) == cfg.samples


class TestGolden:
    """The search against its earlier form: samples built by ``from_edges``
    and duplicates found by a scan over every kept finding."""

    @pytest.mark.parametrize("seed", (3, 12))
    def test_b8u_many_sizes(self, seed):
        cfg = make_cfg(n_min=3, n_max=7, samples=1500, seed=seed)
        findings = search_counterexamples(cfg)
        # about a tenth of the violations repeat a kept switching class
        assert len(findings) > 200
        assert findings == search_by_linear_scan(cfg)

    @pytest.mark.parametrize("seed", (5, 21))
    def test_triangle_free_filter(self, seed):
        cfg = make_cfg(
            n_min=4, n_max=7, edge_probability=0.4, samples=600, seed=seed,
            triangle_free_filter=True,
        )
        findings = search_counterexamples(cfg)
        assert findings
        assert findings == search_by_linear_scan(cfg)

    def test_target_without_findings(self):
        cfg = make_cfg(target="B12", n_min=3, n_max=7, samples=300, seed=8)
        assert search_counterexamples(cfg) == search_by_linear_scan(cfg) == []

    def test_samples_equal_from_edges(self):
        cfg = make_cfg(n_min=1, n_max=9, edge_probability=0.5, samples=1)
        for index in range(300):
            assert sample_signed_graph(cfg, index) == sample_by_from_edges(cfg, index)


def _relabel_cycle(g: SignedGraph) -> SignedGraph:
    """Relabel a 5-cycle along its traversal so it shares paper_c5's underlying graph."""
    order = [0]
    prev = None
    while len(order) < g.n:
        nxts = [w for w in g.neighbors(order[-1]) if w != prev]
        prev = order[-1]
        order.append(nxts[0])
    remap = {v: i for i, v in enumerate(order)}
    return SignedGraph.from_edges(g.n, [(remap[u], remap[v], s) for u, v, s in g.edges])


class TestJson:
    def test_empty(self):
        assert findings_to_json([]) == "[]"

    def test_graph_text_round_trips_through_json(self):
        import json

        cfg = make_cfg(samples=200)
        findings = search_counterexamples(cfg)
        data = json.loads(findings_to_json(findings))
        assert len(data) == len(findings)
        for raw, f in zip(data, findings):
            assert parse_signed_graph(raw["graph"]) == parse_signed_graph(f.graph)
            assert raw["sample_index"] == f.sample_index
