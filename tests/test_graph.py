"""Parsing, serialization, adjacency matrices and generators."""

import numpy as np
import pytest
from hypothesis import given

from signed_spectra import (
    DuplicateEdgeError,
    IndexOutOfRangeError,
    InvalidParamsError,
    MalformedLineError,
    SelfLoopError,
    SignedGraph,
    SymmetricMatrix,
    TooLargeError,
    adjacency_matrix,
    all_negative_complete,
    generate,
    paper_c5,
    parse_signed_graph,
    serialize_signed_graph,
    signed_cycle,
)

from .conftest import signed_graphs

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


class TestConstruction:
    def test_from_edges_detects_duplicates_across_orders(self):
        with pytest.raises(DuplicateEdgeError):
            SignedGraph.from_edges(3, [(0, 1, 1), (1, 0, -1)])

    def test_negative_n_rejected(self):
        with pytest.raises(InvalidParamsError):
            SignedGraph(-1)

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
        ],
    )
    def test_invalid_params(self, kind, params):
        with pytest.raises(InvalidParamsError):
            generate(kind, **params)

    def test_signed_cycle_sign_layout(self):
        g = signed_cycle(4, negative_edges=(0, 3))
        assert g.sign(0, 1) == -1 and g.sign(3, 0) == -1
        assert g.sign(1, 2) == 1 and g.sign(2, 3) == 1
