"""Parsing, serialization, adjacency matrices and generators."""

import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signed_spectra import (
    DuplicateEdgeError,
    IndexOutOfRangeError,
    InvalidParamsError,
    MalformedLineError,
    ParseError,
    SelfLoopError,
    SignedGraph,
    SymmetricMatrix,
    TooLargeError,
    adjacency_matrix,
    all_negative_complete,
    apply_switching,
    erdos_renyi_signed,
    generate,
    paper_c5,
    parse_signed_graph,
    serialize_signed_graph,
    signed_cycle,
)
from signed_spectra.graph import _signed_gnp

from .conftest import random_graphs, signed_graphs
from .oracles import adjacency_by_float_loop, erdos_renyi_by_from_edges

# .sg-like text: lines of vertex indices, signs, comments, odd whitespace,
# unicode digits and numbers past int()'s digit limit
_SG_TOKEN = st.one_of(
    st.sampled_from(
        ["+", "-", "*", "#", "x", "", "\t", "\r", "\x0c", "\x85", "1_0", "+2", "00", "\u0663", "9" * 5000]
    ),
    st.integers(-3, 12).map(str),
    st.text(max_size=3),
)
_SG_LIKE = st.lists(st.lists(_SG_TOKEN, max_size=4).map(" ".join), max_size=8).map("\n".join)

C5_TEXT = "5\n0 1 -\n1 2 +\n2 3 +\n3 4 +\n4 0 +"

# The 5x5 counterexample matrix: one negative edge on the 5-cycle.
C5_MATRIX = np.array(
    [
        [0, -1, 0, 0, 1],
        [-1, 0, 1, 0, 0],
        [0, 1, 0, 1, 0],
        [0, 0, 1, 0, 1],
        [1, 0, 0, 1, 0],
    ],
    dtype=float,
)


class TestParse:
    def test_c5_document(self):
        g = parse_signed_graph(C5_TEXT)
        assert (g.n, g.m, g.m_minus) == (5, 5, 1)
        assert g == paper_c5()

    def test_single_vertex(self):
        g = parse_signed_graph("1\n")
        assert (g.n, g.m) == (1, 0)

    def test_all_negative_triangle(self):
        g = parse_signed_graph("3\n0 1 -\n1 2 -\n2 0 -")
        assert (g.n, g.m, g.m_minus) == (3, 3, 3)

    def test_comments_blank_lines_crlf(self):
        text = "# header\r\n\r\n3\r\n0 1 +  # inline\r\n\r\n1 2 -\r\n"
        g = parse_signed_graph(text)
        assert (g.n, g.m, g.m_minus) == (3, 2, 1)

    @pytest.mark.parametrize(
        "text, exc, line",
        [
            ("x\n0 1 +", MalformedLineError, 1),
            ("3\n0 1", MalformedLineError, 2),
            ("3\n0 1 *", MalformedLineError, 2),
            ("3\n0 one +", MalformedLineError, 2),
            ("3\n0 1 +\n1 1 -", SelfLoopError, 3),
            ("3\n0 3 +", IndexOutOfRangeError, 2),
            ("3\n0 1 +\n1 0 -", DuplicateEdgeError, 3),
            ("-2\n", MalformedLineError, 1),
            ("", MalformedLineError, 1),
        ],
    )
    def test_errors_carry_line_numbers(self, text, exc, line):
        with pytest.raises(exc) as info:
            parse_signed_graph(text)
        assert info.value.line == line

    @given(signed_graphs())
    def test_round_trip(self, g):
        assert parse_signed_graph(serialize_signed_graph(g)) == g

    def test_serialization_is_canonical(self):
        g = SignedGraph.from_edges(3, [(2, 1, -1), (1, 0, 1)])
        assert g.to_sg() == "3\n0 1 +\n1 2 -\n"

    @given(st.one_of(st.text(), _SG_LIKE))
    @example("3\r0 1 +")
    @example("1_0\n\u0663 2 -\n")
    @example("2\n0 1 + #\n" + "9" * 5000 + " 1 +")
    @settings(max_examples=400, deadline=None)
    def test_fuzzed_text_round_trips_or_names_its_line(self, text):
        try:
            g = parse_signed_graph(text)
        except ParseError as exc:
            assert type(exc.line) is int and 1 <= exc.line <= text.count("\n") + 1, exc
            return
        canonical = serialize_signed_graph(g)
        assert parse_signed_graph(canonical) == g
        assert serialize_signed_graph(parse_signed_graph(canonical)) == canonical


class TestConstruction:
    def test_from_edges_detects_duplicates_across_orders(self):
        with pytest.raises(DuplicateEdgeError):
            SignedGraph.from_edges(3, [(0, 1, 1), (1, 0, -1)])

    @pytest.mark.parametrize(
        "edge",
        [(0, 1, 1.5), (0, 1, float("nan")), (0.5, 1, 1), (0, 1.0, 1), (0, 1, np.float64(1.0)),
         (0, 1, "1"), (0, 1, None), ("0", 1, -1)],
        ids=["sign-1.5", "sign-nan", "u-0.5", "v-whole-float", "sign-numpy-float",
             "sign-str", "sign-none", "u-str"],
    )
    def test_from_edges_checks_integers_instead_of_coercing(self, edge):
        with pytest.raises(InvalidParamsError, match="must hold integers"):
            SignedGraph.from_edges(3, [(0, 2, 1), edge])

    @pytest.mark.parametrize(
        "n, edges, match",
        [
            (5.0, frozenset(), "'n' must be an integer, got 5.0"),
            ("3", frozenset(), "'n' must be an integer, got '3'"),
            (np.float64(3.0), frozenset(), "'n' must be an integer"),
            (3, frozenset({(0, 1.0, 1)}), "must hold integers"),
            (3, frozenset({(0.0, 1, 1)}), "must hold integers"),
            (3, frozenset({(0, 1, 1.0)}), "must hold integers"),
            (3, frozenset({(0, 1, np.float64(-1.0))}), "must hold integers"),
            (3, frozenset({(0, 1, "+")}), "must hold integers"),
        ],
        ids=["n-whole-float", "n-str", "n-numpy-float", "v-whole-float", "u-whole-float",
             "sign-whole-float", "sign-numpy-float", "sign-str"],
    )
    def test_constructor_checks_integers(self, n, edges, match):
        with pytest.raises(InvalidParamsError, match=match):
            SignedGraph(n, edges)

    def test_constructor_accepts_integer_types(self):
        g = SignedGraph(np.int64(3), frozenset({(np.int64(0), np.int32(2), np.int8(-1)), (False, True, True)}))
        assert g == SignedGraph(3, frozenset({(0, 2, -1), (0, 1, 1)}))
        assert type(g.n) is int and all(type(x) is int for e in g.edges for x in e)

    @pytest.mark.parametrize(
        "n, edges, text",
        [
            (True, frozenset(), "1\n"),
            (2, frozenset({(False, True, 1)}), "2\n0 1 +\n"),
            (np.int64(3), frozenset({(np.int8(0), np.int64(2), np.int32(-1)), (np.int16(1), 2, True)}),
             "3\n0 2 -\n1 2 +\n"),
            (3, frozenset({(0, 1, -1), (1, 2, 1)}), "3\n0 1 -\n1 2 +\n"),
        ],
        ids=["bool-n", "bool-edge", "numpy-ints", "plain-ints"],
    )
    def test_constructor_graphs_round_trip_through_text(self, n, edges, text):
        # the constructor stores the ints it checked, so to_sg writes them
        # as the parser reads them
        g = SignedGraph(n, edges)
        assert g.to_sg() == text
        assert parse_signed_graph(g.to_sg()) == g
        assert parse_signed_graph(g.to_sg()).to_sg() == text

    @pytest.mark.parametrize(
        "edge",
        [(0, 1, -1), (np.int64(1), np.int32(0), np.int8(-1)), (False, True, -1), (1, 0, np.int64(-1))],
        ids=["ints", "numpy-ints", "bools", "numpy-sign"],
    )
    def test_from_edges_accepts_integer_types(self, edge):
        g = SignedGraph.from_edges(2, [edge])
        assert g.edges == frozenset({(0, 1, -1)})
        assert all(type(x) is int for e in g.edges for x in e)

    def test_negative_n_rejected(self):
        with pytest.raises(InvalidParamsError):
            SignedGraph(-1)

    @pytest.mark.parametrize(
        "edges, exc, message, line",
        [
            ([(1, 1, 1)], SelfLoopError, "self-loop at vertex 1", 2),
            ([(0, 3, 1)], IndexOutOfRangeError, "edge (0, 3) has a vertex outside [0, 3)", 2),
            ([(0, 1, 1), (0, 1, -1)], DuplicateEdgeError, "duplicate edge (0, 1)", 3),
            ([(0, 1, 0)], InvalidParamsError, "edge sign must be +1 or -1, got 0", None),
        ],
        ids=["self-loop", "out-of-range", "both-signs", "sign-0"],
    )
    def test_every_builder_rejects_a_faulty_edge_alike(self, edges, exc, message, line):
        # one fault at n = 3: the constructor, from_edges and the parser
        # (where the sign can be given) raise one class with one message
        builders = [lambda: SignedGraph(3, frozenset(edges)), lambda: SignedGraph.from_edges(3, edges)]
        for build in builders:
            with pytest.raises(exc) as info:
                build()
            assert type(info.value) is exc and str(info.value) == message
        if line is not None:
            text = "3\n" + "".join(f"{u} {v} {'+' if s > 0 else '-'}\n" for u, v, s in edges)
            with pytest.raises(exc) as info:
                parse_signed_graph(text)
            assert type(info.value) is exc and info.value.line == line
            assert str(info.value) == f"line {line}: {message}"

    def test_only_the_constructor_rejects_u_above_v(self):
        with pytest.raises(InvalidParamsError) as info:
            SignedGraph(3, frozenset({(2, 1, -1)}))
        assert str(info.value) == "edges must be stored with u < v, got (2, 1); use from_edges()"
        expected = SignedGraph(3, frozenset({(1, 2, -1)}))
        assert SignedGraph.from_edges(3, [(2, 1, -1)]) == parse_signed_graph("3\n2 1 -\n") == expected

    @pytest.mark.parametrize(
        "n, message",
        [(-1, "vertex count must be nonnegative, got -1"),
         (3.0, "SignedGraph parameter 'n' must be an integer, got 3.0")],
        ids=["negative", "float"],
    )
    def test_from_edges_names_a_bad_n_before_a_bad_edge(self, n, message):
        with pytest.raises(InvalidParamsError) as info:
            SignedGraph.from_edges(n, [(1, 1, 1), (0, 5, 0.5)])
        assert str(info.value) == message

    def test_from_edges_checks_each_edge_once(self, monkeypatch):
        from signed_spectra import graph

        checked = []
        edge = graph._edge
        monkeypatch.setattr(graph, "_edge", lambda *args: checked.append(args[1:4]) or edge(*args))
        monkeypatch.setattr(SignedGraph, "__post_init__", lambda self: pytest.fail("second pass"))
        g = SignedGraph.from_edges(4, [(1, 0, 1), (2, 3, -1), (3, 0, 1)])
        assert checked == [(1, 0, 1), (2, 3, -1), (3, 0, 1)]
        assert g.edges == frozenset({(0, 1, 1), (2, 3, -1), (0, 3, 1)})

    @given(signed_graphs(max_n=9), st.data())
    @settings(max_examples=150, deadline=None)
    def test_internal_builders_equal_checked_construction(self, g, data):
        # graphs built from valid graphs, and by the parser, skip the
        # constructor's checks; each equals the checked graph of its fields
        signs = st.lists(st.sampled_from((1, -1)), min_size=g.n, max_size=g.n)
        eta = data.draw(signs)
        keep = data.draw(st.lists(st.integers(0, g.n - 1), max_size=g.n))
        p, q = data.draw(st.sampled_from((0.0, 0.3, 1.0))), data.draw(st.sampled_from((0.0, 0.5, 1.0)))
        built = [
            apply_switching(g, eta),
            _signed_gnp(random.Random(data.draw(st.integers(0, 2**16))), g.n, p, q),
            g.negate(),
            g.with_all_signs(1),
            g.with_all_signs(-1),
            g.induced_subgraph(keep),
            parse_signed_graph(g.to_sg()),
        ]
        assert len(built) == 7
        for h in built:
            assert type(h.edges) is frozenset
            assert h == SignedGraph(h.n, h.edges), h.to_sg()

    def test_counters(self):
        g = parse_signed_graph(C5_TEXT)
        assert g.m_plus + g.m_minus == g.m
        assert g.neighbors(0) == (1, 4)
        assert g.sign(1, 0) == -1 and g.sign(4, 0) == 1

    def test_induced_subgraph_relabels(self):
        g = paper_c5()
        h = g.induced_subgraph([1, 2, 3])
        assert h.n == 3 and h.m == 2
        assert h.sign(0, 1) == 1 and h.sign(1, 2) == 1


class TestLookups:
    """``neighbors``, ``degree`` and the cached ``_signed_adjacency`` and
    ``_masks`` they and the exact kernels read."""

    @pytest.mark.parametrize("u", (-1, -5, 5, 6))
    def test_vertex_outside_range_rejected(self, u):
        g = paper_c5()
        with pytest.raises(IndexOutOfRangeError):
            g.neighbors(u)
        with pytest.raises(IndexOutOfRangeError):
            g.degree(u)

    def test_both_ends_of_the_range(self):
        g = paper_c5()
        assert g.neighbors(0) == (1, 4) and g.neighbors(4) == (0, 3)
        assert g.degree(0) == g.degree(4) == 2
        with pytest.raises(IndexOutOfRangeError):
            SignedGraph(0).neighbors(0)

    def test_agree_with_has_edge_and_sign_on_every_pair(self):
        graphs = random_graphs(40, max_n=40, seed=67, p=(0.1, 0.5, 0.9), q=(0.0, 0.5, 1.0))
        graphs += [SignedGraph(1), SignedGraph(3), all_negative_complete(6), paper_c5()]
        for g in graphs:
            pos, neg = g._masks
            assert type(pos) is type(neg) is tuple and len(pos) == len(neg) == g.n
            for u in range(g.n):
                assert [v for v, _ in g._signed_adjacency[u]] == list(g.neighbors(u))
                assert g.neighbors(u) == tuple(v for v in range(g.n) if g.has_edge(u, v))
                assert g.degree(u) == (pos[u] | neg[u]).bit_count()
                for v, s in g._signed_adjacency[u]:
                    assert s == g.sign(u, v)
                for v in range(g.n):
                    p_bit, n_bit = pos[u] >> v & 1, neg[u] >> v & 1
                    assert p_bit - n_bit == (g.sign(u, v) if g.has_edge(u, v) else 0), g.to_sg()
                    assert not (p_bit and n_bit)
                assert pos[u] >> g.n == neg[u] >> g.n == 0

    def test_sign_of_a_non_edge_is_a_key_error(self):
        g = paper_c5()
        assert g.sign(1, 0) == g.sign(0, 1) == -1
        with pytest.raises(KeyError) as info:
            g.sign(3, 0)
        assert info.value.args == ((0, 3),)

    def test_induced_subgraph_rejects_a_vertex_outside_range(self):
        g = paper_c5()
        assert g.induced_subgraph([4, 0, 0, 1]) == SignedGraph.from_edges(3, [(0, 1, -1), (0, 2, 1)])
        for v in (-1, 5):
            with pytest.raises(IndexOutOfRangeError, match=rf"vertex {v} outside \[0, 5\)"):
                g.induced_subgraph([0, v])

    def test_repr_names_the_sizes(self):
        assert repr(paper_c5()) == "SignedGraph(n=5, m=5, m-=1)"
        assert repr(SignedGraph(0)) == "SignedGraph(n=0, m=0, m-=0)"

    def test_built_once_per_graph_as_immutable_tuples(self):
        g = erdos_renyi_signed(12, 0.5, 0.5, seed=3)
        masks, adjacency = g._masks, g._signed_adjacency
        assert g._masks is masks and g._signed_adjacency is adjacency
        assert all(type(side) is tuple and all(type(x) is int for x in side) for side in masks)
        assert type(adjacency) is tuple and all(type(a) is tuple for a in adjacency)
        # a graph equal to g has its own, equal structures
        h = SignedGraph(g.n, g.edges)
        assert h._masks == masks and h._masks is not masks and h == g


class TestAdjacency:
    def test_c5_matrix_matches_reference(self):
        a = adjacency_matrix(paper_c5())
        assert np.array_equal(a.entries, C5_MATRIX)

    def test_edgeless_is_zero(self):
        a = adjacency_matrix(SignedGraph(3))
        assert np.array_equal(a.entries, np.zeros((3, 3)))

    def test_positive_k2(self):
        g = SignedGraph.from_edges(2, [(0, 1, 1)])
        assert np.array_equal(adjacency_matrix(g).entries, [[0, 1], [1, 0]])

    def test_entries_read_only(self):
        a = adjacency_matrix(paper_c5())
        with pytest.raises(ValueError):
            a.entries[0, 0] = 7.0

    def test_guard(self):
        with pytest.raises(TooLargeError):
            adjacency_matrix(SignedGraph(2049))

    def test_entries_equal_the_float_loop_bit_for_bit(self):
        graphs = [SignedGraph(0), SignedGraph(1), SignedGraph(6)]
        graphs += [all_negative_complete(7), all_negative_complete(7).with_all_signs(1)]
        graphs += random_graphs(60, max_n=12, seed=71, p=(0.2, 0.5, 0.9), q=(0.0, 0.5, 1.0))
        for g in graphs:
            entries, expected = adjacency_matrix(g).entries, adjacency_by_float_loop(g)
            assert entries.dtype == expected.dtype and entries.shape == expected.shape
            assert entries.tobytes() == expected.tobytes(), g.to_sg()

    def test_non_square_rejected(self):
        from signed_spectra import NotSymmetricError

        with pytest.raises(NotSymmetricError):
            SymmetricMatrix(np.zeros((2, 3)))

    def test_symmetry_validation(self):
        from signed_spectra import NotSymmetricError

        with pytest.raises(NotSymmetricError):
            SymmetricMatrix(np.array([[0.0, 1.0], [0.5, 0.0]]))

    @pytest.mark.parametrize("bad", (np.inf, np.nan))
    def test_non_finite_rejected(self, bad):
        from signed_spectra import InvalidParamsError

        with pytest.raises(InvalidParamsError):
            SymmetricMatrix(np.array([[bad, 1.0], [1.0, 0.0]]))

    def test_symmetry_tolerance(self):
        from signed_spectra import NotSymmetricError

        a = np.array([[0.0, 1.0, 0.5], [1.0, 2.0, -1.0], [0.5, -1.0, 0.0]])
        near = a.copy()
        near[0, 2] += 1e-13
        assert SymmetricMatrix(near).entries[0, 2] == near[0, 2]
        far = a.copy()
        far[0, 2] += 1e-11
        with pytest.raises(NotSymmetricError):
            SymmetricMatrix(far)

    @given(signed_graphs(max_n=6))
    def test_negation_negates_matrix(self, g):
        assert np.array_equal(
            adjacency_matrix(g.negate()).entries, -adjacency_matrix(g).entries
        )


class TestNegate:
    def test_flips_all_signs(self):
        g = all_negative_complete(3)
        assert g.negate() == g.with_all_signs(1)

    @pytest.mark.parametrize("sign", (0, 2, -2, "+", 1.5))
    def test_with_all_signs_takes_only_plus_or_minus_one(self, sign):
        with pytest.raises(InvalidParamsError, match=f"sign must be \\+1 or -1, got {re.escape(repr(sign))}"):
            paper_c5().with_all_signs(sign)

    @given(signed_graphs())
    def test_involution(self, g):
        assert g.negate().negate() == g

    def test_spectrum_reverses_and_negates(self):
        from signed_spectra import spectrum_of

        neg_tri = spectrum_of(all_negative_complete(3)).eigenvalues
        pos_tri = spectrum_of(all_negative_complete(3).with_all_signs(1)).eigenvalues
        assert np.allclose(neg_tri, [1, 1, -2], atol=1e-9)
        assert np.allclose(pos_tri, [2, -1, -1], atol=1e-9)
        assert np.allclose(pos_tri, -neg_tri[::-1], atol=1e-9)


class TestGenerators:
    def test_paper_c5_exact_edges(self):
        g = generate("paper_c5")
        assert g.sorted_edges() == [
            (0, 1, -1),
            (0, 4, 1),
            (1, 2, 1),
            (2, 3, 1),
            (3, 4, 1),
        ]

    def test_all_negative_complete(self):
        g = generate("all_negative_complete", n=3)
        assert (g.n, g.m, g.m_minus) == (3, 3, 3)

    def test_erdos_renyi_deterministic(self):
        a = generate("erdos_renyi_signed", n=8, p=0.5, q_neg=0.3, seed=7)
        b = generate("erdos_renyi_signed", n=8, p=0.5, q_neg=0.3, seed=7)
        assert a == b
        c = generate("erdos_renyi_signed", n=8, p=0.5, q_neg=0.3, seed=8)
        assert a != c  # overwhelmingly likely, fixed seeds make it stable

    def test_erdos_renyi_equals_from_edges(self):
        for n in (0, 1, 2, 5, 9, 17):
            for p in (0.0, 0.3, 0.7, 1.0):
                for q_neg in (0.0, 0.5, 1.0):
                    for seed in (0, 1, 29):
                        expected = erdos_renyi_by_from_edges(n, p, q_neg, seed)
                        assert erdos_renyi_signed(n, p, q_neg, seed=seed) == expected

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("erdos_renyi_signed", {"n": 4, "p": 1.5, "q_neg": 0.0}),
            ("erdos_renyi_signed", {"n": 4, "p": 0.5, "q_neg": -0.1}),
            ("erdos_renyi_signed", {"n": -1, "p": 0.5, "q_neg": 0.5}),
            ("all_negative_complete", {"n": -2}),
            ("signed_cycle", {"n": 2}),
            ("signed_cycle", {"n": 5, "negative_edges": (9,)}),
            ("no_such_kind", {}),
            ("paper_c5", {"bogus": 1}),
            ("erdos_renyi_signed", {"n": 5.0, "p": 0.5, "q_neg": 0.5}),
            ("erdos_renyi_signed", {"n": 5, "p": 0.5, "q_neg": 0.5, "seed": 1.5}),
            ("erdos_renyi_signed", {"n": 5, "p": None, "q_neg": 0.5}),
            ("erdos_renyi_signed", {"n": 5, "p": 0.5, "q_neg": "x"}),
            ("all_negative_complete", {"n": 3.0}),
            ("signed_cycle", {"n": 5.0}),
            ("signed_cycle", {"n": 5, "negative_edges": (1.0,)}),
        ],
    )
    def test_invalid_params(self, kind, params):
        with pytest.raises(InvalidParamsError):
            generate(kind, **params)

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda: erdos_renyi_signed(5.0, 0.5, 0.5), "'n' must be an integer, got 5.0"),
            (lambda: erdos_renyi_signed(5, 0.5, 0.5, seed=1.5), "'seed' must be an integer, got 1.5"),
            (lambda: erdos_renyi_signed(5, 0.5, 0.5, seed="1"), "'seed' must be an integer, got '1'"),
            (lambda: erdos_renyi_signed(5, None, 0.5), r"probabilities must lie in \[0, 1\], got p=None"),
            (lambda: all_negative_complete(3.0), "'n' must be an integer, got 3.0"),
            (lambda: signed_cycle(5.0), "'n' must be an integer, got 5.0"),
            (lambda: signed_cycle(5, negative_edges=(1.0,)), "'negative_edges' must be an integer, got 1.0"),
            (lambda: signed_cycle(5, negative_edges=3), "'negative_edges' must be an iterable of integers, got 3"),
        ],
    )
    def test_direct_calls_reject_non_integers(self, call, match):
        # each used to raise a bare TypeError, or to take the value silently
        with pytest.raises(InvalidParamsError, match=match):
            call()

    def test_numpy_ints_are_sizes_seeds_and_edge_indices(self):
        assert erdos_renyi_signed(np.int64(9), 0.5, 0.5, seed=np.int32(4)) == erdos_renyi_signed(9, 0.5, 0.5, seed=4)
        assert all_negative_complete(np.int64(4)) == all_negative_complete(4)
        assert signed_cycle(np.int64(5), negative_edges=(np.int8(1),)) == signed_cycle(5, negative_edges=(1,))

    def test_built_without_checks_equal_the_from_edges_builds(self):
        # both skip __post_init__'s per-edge checks; the closing edge is (0, n - 1)
        for n in range(10):
            complete = [(v, u, -1) for u in range(n) for v in range(u)]
            assert all_negative_complete(n) == SignedGraph.from_edges(n, complete)
            if n < 3:
                with pytest.raises(InvalidParamsError):
                    signed_cycle(n)
                continue
            for neg in ((), (0,), (n - 1,), (1, n - 1), tuple(range(n))):
                cycle = [(i, (i + 1) % n, -1 if i in neg else 1) for i in range(n)]
                assert signed_cycle(n, negative_edges=neg) == SignedGraph.from_edges(n, cycle), (n, neg)

    def test_signed_cycle_sign_layout(self):
        g = signed_cycle(4, negative_edges=(0, 3))
        assert g.sign(0, 1) == -1 and g.sign(3, 0) == -1
        assert g.sign(1, 2) == 1 and g.sign(2, 3) == 1
