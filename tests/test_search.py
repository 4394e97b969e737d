"""Counterexample search: determinism, replay, dedup, the C5 class."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signed_spectra import bounds, invariants, search, spectral
from signed_spectra import (
    InvalidConfigError,
    SearchConfig,
    SignedGraph,
    evaluate_all,
    findings_to_json,
    is_switching_equivalent,
    paper_c5,
    parse_signed_graph,
    sample_signed_graph,
    search_counterexamples,
    triangle_census,
)
from signed_spectra.cli import run_cli
from signed_spectra.graph import _signed_matrix

from .conftest import all_signings
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

    @pytest.mark.parametrize("field", ("edge_probability", "negative_probability"))
    @pytest.mark.parametrize("value", (1.5, -0.1, float("nan"), None, "x"))
    def test_probabilities_must_be_numbers_in_range(self, field, value):
        # None and "x" used to raise a bare TypeError from the range comparison
        with pytest.raises(InvalidConfigError, match=rf"{field} must lie in \[0, 1\], got {value!r}"):
            make_cfg(**{field: value})

    def test_bad_range(self):
        with pytest.raises(InvalidConfigError):
            make_cfg(n_min=6, n_max=5)

    def test_unknown_target(self):
        with pytest.raises(InvalidConfigError):
            make_cfg(target="B99")

    @pytest.mark.parametrize("field", ("n_min", "n_max", "samples", "seed"))
    @pytest.mark.parametrize("value", (2.5, 5.0, "5", None))
    def test_sizes_and_seed_must_be_integers(self, field, value):
        # samples=2.5 used to raise a bare TypeError from range, n_min=2.5 a
        # ValueError from randrange, and seed=1.5 went into the replay string
        with pytest.raises(InvalidConfigError, match=f"{field} must be an integer, got {value!r}"):
            make_cfg(**{field: value})

    def test_numpy_ints_are_sizes_and_seeds(self):
        cfg = make_cfg(n_min=np.int64(5), n_max=np.int32(5), samples=np.int64(40), seed=np.int64(11))
        assert search_counterexamples(cfg) == search_counterexamples(make_cfg(samples=40))

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
            # every other target; only B10 reads r
            *(
                make_cfg(target=target, samples=200, seed=4, params={"r": 3})
                for target in bounds.REGISTRY
                if target not in ("B8u", "B11")
            ),
        ),
        ids=lambda cfg: "triangle-free " * cfg.triangle_free_filter + cfg.target,
    )
    def test_spectral_targets_leave_the_memo_alone(self, cfg):
        # only evaluate_all and invariants share values across graphs: a
        # search keeps every value in its own sample's context, the spectra
        # of the spectral targets and the eps, eps_b, cliques and unsigned
        # lambda_n of the others alike
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

    @pytest.mark.parametrize("block_entries", (1, 40, None), ids=("block-1", "block-40", "default"))
    @pytest.mark.parametrize(
        "overrides",
        (
            dict(target="B3", n_min=2, n_max=8, negative_probability=0.2),
            dict(target="B9", n_min=3, n_max=8, edge_probability=0.3),
            dict(target="B10", n_min=3, n_max=8, params={"r": 3}),
            dict(target="B14", n_min=3, n_max=8, edge_probability=0.3, negative_probability=0.8),
            dict(n_min=1, n_max=7, edge_probability=0.7),
            dict(n_min=1, n_max=6, edge_probability=0.4, triangle_free_filter=True),
        ),
        ids=("B3", "B9", "B10-r3", "B14", "B8u-n1", "B8u-n1-triangle-free"),
    )
    def test_blocks_match_the_linear_scan(self, monkeypatch, block_entries, overrides):
        # one-sample blocks, and block boundaries in the middle of the search
        if block_entries is not None:
            monkeypatch.setattr(invariants, "_BLOCK_ENTRIES", block_entries)
        cfg = make_cfg(**{"samples": 250, "seed": 17, **overrides})
        rows = []
        evaluate = search._evaluate

        def recorded(ctx, *args):
            rows.append((ctx.g, evaluate(ctx, *args)))
            return rows[-1][1]

        monkeypatch.setattr(search, "_evaluate", recorded)
        bounds._underlying.cache_clear()
        findings = search_counterexamples(cfg)
        bounds._underlying.cache_clear()
        assert findings == search_by_linear_scan(cfg)
        assert (cfg.target != "B8u") or findings
        # every sample's row, not only the violations, is the one-graph row bit for bit
        for g, ev in rows:
            alone = bounds.evaluate_bound(g, cfg.target, dict(cfg.params))
            assert ev == alone and (ev.lhs.hex(), ev.rhs.hex()) == (alone.lhs.hex(), alone.rhs.hex())
        assert len(rows) == sum(
            not (cfg.triangle_free_filter and triangle_census(sample_signed_graph(cfg, i)).total)
            for i in range(cfg.samples)
        )

    @given(
        target=st.sampled_from((*bounds.REGISTRY, "B8u", "B8u")),
        seed=st.integers(0, 10**6),
        n_min=st.integers(1, 6),
        span=st.integers(0, 3),
        p=st.sampled_from((0.3, 0.5, 0.8)),
        triangle_free=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_output_does_not_depend_on_the_block_size(self, target, seed, n_min, span, p, triangle_free):
        # one-entry blocks put every sample alone, 100 entries mixes lone
        # samples with stacks, and the default block stacks nearly everything
        cfg = make_cfg(
            target=target, n_min=n_min, n_max=n_min + span, edge_probability=p, samples=80,
            seed=seed, triangle_free_filter=triangle_free, params={"q": 1, "r": 2},
        )
        runs = []
        for entries in (1, 100, invariants._BLOCK_ENTRIES):
            rows = []
            evaluate = search._evaluate

            def recorded(ctx, *args):
                rows.append(evaluate(ctx, *args))
                return rows[-1]

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(invariants, "_BLOCK_ENTRIES", entries)
                mp.setattr(search, "_evaluate", recorded)
                findings = search_counterexamples(cfg)
            bits = [(ev.lhs.hex(), ev.rhs.hex(), ev.verdict, ev.note) for ev in rows]
            runs.append((findings_to_json(findings), findings, bits))
        assert runs[0] == runs[1] == runs[2]

    def test_samples_equal_from_edges(self):
        cfg = make_cfg(n_min=1, n_max=9, edge_probability=0.5, samples=1)
        for index in range(300):
            assert sample_signed_graph(cfg, index) == sample_by_from_edges(cfg, index)


def _blocks_of_orders(cfg: SearchConfig, entries: int) -> list[dict[int, list[SignedGraph]]]:
    """The samples of each order in each block, orders in order of first
    appearance: consecutive samples, at least one per block, at most
    ``entries`` matrix entries (the sum of n^2)."""
    blocks: list[dict[int, list[SignedGraph]]] = []
    used = 0
    for index in range(cfg.samples):
        g = sample_signed_graph(cfg, index)
        if not blocks or used + g.n * g.n > entries:
            blocks.append({})
            used = 0
        blocks[-1].setdefault(g.n, []).append(g)
        used += g.n * g.n
    return blocks


def _expected_eigh_shapes(cfg: SearchConfig, entries: int) -> list[tuple[int, ...]]:
    """The ``eigh`` calls of a search whose target reads the eigenvalues of
    every sample: per block, one stacked call per order of two or more
    samples before the block is evaluated, then one call for each sample
    alone in its order, as the evaluation reads it."""
    shapes: list[tuple[int, ...]] = []
    for block in _blocks_of_orders(cfg, entries):
        shapes += [(len(gs), n, n) for n, gs in block.items() if len(gs) > 1]
        shapes += [(n, n) for n, gs in block.items() if len(gs) == 1]
    return shapes


class TestStackedSpectra:
    """The search sets the eigenvalues of a block's samples with one
    ``eigh`` per order of two or more samples before it evaluates them; a
    sample alone in its order is decomposed only if the target reads it."""

    @pytest.fixture
    def eigh_calls(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        return calls

    @pytest.mark.parametrize("target", tuple(bounds.REGISTRY))
    def test_every_target_runs_one_eigh_per_order_per_block(self, monkeypatch, eigh_calls, target):
        monkeypatch.setattr(invariants, "_BLOCK_ENTRIES", 100)
        cfg = make_cfg(target=target, n_min=3, n_max=7, samples=120, seed=3, params={"q": 1, "r": 2})
        search_counterexamples(cfg)
        expected = _expected_eigh_shapes(cfg, 100)
        stacked = [shape for shape in expected if len(shape) == 3]
        groups = [gs for block in _blocks_of_orders(cfg, 100) for gs in block.values()]
        alone = [gs[0] for gs in groups if len(gs) == 1]
        assert stacked and alone  # the block size leaves both kinds
        if target in ("B5", "B13"):  # they read no eigenvalues
            assert eigh_calls == []
        elif target in ("B3", "B4"):
            # they read only the unsigned lambda_n: the signed eigenvalues
            # when every sign is positive, else one call of its own for |A|
            assert [shape for shape in eigh_calls if len(shape) == 3] == stacked
            negative = sum(g.m_minus > 0 for gs in groups for g in gs)
            assert len(eigh_calls) == len(stacked) + negative + sum(g.m_minus == 0 for g in alone)
        else:
            assert eigh_calls == expected

    @pytest.mark.parametrize("entries", (None, 40, 50, 72, 200))
    def test_one_eigh_per_order_per_block(self, monkeypatch, eigh_calls, entries):
        if entries is not None:
            monkeypatch.setattr(invariants, "_BLOCK_ENTRIES", entries)
        cfg = make_cfg(n_min=5, n_max=7, samples=300, seed=5)
        search_counterexamples(cfg)
        blocks = _blocks_of_orders(cfg, invariants._BLOCK_ENTRIES)
        if entries is None:  # the default block holds the whole search
            assert len(blocks) == 1
        assert eigh_calls == _expected_eigh_shapes(cfg, invariants._BLOCK_ENTRIES)
        assert sum(shape[0] if len(shape) == 3 else 1 for shape in eigh_calls) == cfg.samples

    def test_default_b8u_search_builds_no_spectrum(self, monkeypatch):
        # the bench search: one block whose orders all hold many samples, so
        # every sample's eigenvalues come from a stack: the memo's own route
        # (``bounds._eigenvalues``) never runs and no Spectrum is built
        calls = []
        decompose, spectrum = spectral._eigenvalues, spectral.Spectrum
        monkeypatch.setattr(bounds, "_eigenvalues", lambda a: calls.append(a) or decompose(a))
        monkeypatch.setattr(spectral, "Spectrum", lambda **kw: calls.append(kw) or spectrum(**kw))
        cfg = make_cfg(n_min=5, n_max=7, samples=500, seed=0)
        assert search_counterexamples(cfg)
        assert calls == []

    @pytest.mark.parametrize("target", ("B5", "B13"))
    def test_lone_sample_of_a_target_without_eigenvalues_runs_no_eigh(self, eigh_calls, target):
        cfg = make_cfg(target=target, n_min=3, n_max=9, samples=1, seed=2)
        search_counterexamples(cfg)
        assert eigh_calls == []

    def test_lapack_failure_in_a_block_exits_2(self, monkeypatch, capsys):
        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        argv = "search --target B8u --n 5:7 --p 0.5 --qneg 0.5 --samples 50 --json".split()
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: eigensolver did not converge: Eigenvalues did not converge\n"
        assert captured.out == ""

    def test_adjacency_guard_exits_3(self, capsys):
        argv = "search --target B8u --n 2049:2049 --p 0 --qneg 0.5 --samples 1".split()
        assert run_cli(argv) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: guard exceeded: adjacency matrix guard: n=2049 exceeds 2048\n"
        assert captured.out == ""

    def test_walk_order_zero_exits_2(self, capsys):
        argv = "search --target B10 --r 0 --n 3:5 --p 0.5 --qneg 0.5 --samples 5".split()
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: walk order r must be >= 1, got 0\n"
        assert captured.out == ""


class TestEigenvalueInputs:
    """``spectral._eigenvalues`` checks nothing, so its callers must pass only
    what ``_signed_matrix`` builds: the int64 matrix or stack of the graphs
    at hand, or its ``np.abs``."""

    @pytest.fixture
    def inputs(self, monkeypatch):
        calls = []
        decompose = spectral._eigenvalues

        def recorded(a):
            calls.append((a.copy(), a.ndim))
            return decompose(a)

        monkeypatch.setattr(bounds, "_eigenvalues", recorded)
        monkeypatch.setattr(search, "_eigenvalues", recorded)
        return calls

    @staticmethod
    def assert_built(a, ndim, graphs) -> str:
        """Which of the graphs' matrices ``a`` is: "signed" or "abs"."""
        assert a.dtype == np.int64 and a.ndim == ndim
        built = _signed_matrix(graphs)
        if np.array_equal(a, built):
            return "signed"
        assert np.array_equal(a, np.abs(built)), graphs
        return "abs"

    def test_evaluate_all_over_every_signing_up_to_n_4(self, inputs):
        bounds._underlying.cache_clear()
        kinds = []
        for n in range(1, 5):
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                # all-negative first, so the unsigned lambda_n comes from |A|
                signings = all_signings(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
                for g in reversed(list(signings)):
                    inputs.clear()
                    evaluate_all(g)
                    kinds += [self.assert_built(a, ndim, g) for a, ndim in inputs]
                    assert all(ndim == 2 for _, ndim in inputs)
        assert "signed" in kinds and "abs" in kinds

    def test_b8u_search_of_200_samples(self, monkeypatch, inputs):
        # small blocks leave samples alone in their order, which the memo
        # decomposes itself, next to the stacks of the others
        monkeypatch.setattr(invariants, "_BLOCK_ENTRIES", 100)
        cfg = make_cfg(n_min=3, n_max=7, samples=200, seed=7)
        search_counterexamples(cfg)
        expected = []
        for block in _blocks_of_orders(cfg, 100):
            expected += [(gs, 3) for gs in block.values() if len(gs) > 1]
            expected += [(gs[0], 2) for gs in block.values() if len(gs) == 1]
        ndims = [ndim for _, ndim in inputs]
        assert ndims == [ndim for _, ndim in expected] and 2 in ndims and 3 in ndims
        for (a, _), (graphs, ndim) in zip(inputs, expected):
            assert self.assert_built(a, ndim, graphs) == "signed"


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
