import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddnnf import (
    NodeKind,
    brute_force_count,
    count_all_features,
    count_total,
    detect_format,
    parse_c2d,
    parse_d4,
    parse_text,
    preprocess,
    validate,
    write_c2d,
)
from ddnnf.errors import (
    AmbiguousRoot,
    CycleDetected,
    EmptyCircuit,
    EmptyInput,
    IndexOutOfRange,
    LiteralOutOfRange,
    MalformedHeader,
    MalformedLine,
    MissingSentinel,
    UnknownNodeIndex,
)

from conftest import RUNNING_EXAMPLE_C2D, RUNNING_EXAMPLE_D4, build_circuit, fixture_texts
from helpers import c2d_to_d4, random_c2d_text


class TestParseC2d:
    def test_running_example(self):
        d = parse_c2d(RUNNING_EXAMPLE_C2D)
        assert len(d.nodes) == 12
        assert d.root == 11
        assert count_total(preprocess(d)) == 4

    def test_single_literal(self):
        d = preprocess(parse_c2d("nnf 1 0 1\nL 1\n"))
        assert count_total(d) == 1

    def test_two_literal_and(self):
        d = preprocess(parse_c2d("nnf 3 2 2\nL 1\nL 2\nA 2 0 1\n"))
        assert count_total(d) == 1  # only both-true satisfies

    def test_decision_variable_retained(self):
        d = parse_c2d(RUNNING_EXAMPLE_C2D)
        assert d.decision[10] == 4
        assert d.decision[9] == 0

    def test_empty_and_is_true(self):
        d = parse_c2d("nnf 1 0 0\nA 0\n")
        assert d.kind[0] is NodeKind.TRUE

    def test_empty_or_is_false(self):
        d = parse_c2d("nnf 1 0 2\nO 0 0\n")
        assert d.kind[0] is NodeKind.FALSE
        assert count_total(preprocess(d)) == 0

    def test_header_node_count_mismatch_tolerated(self):
        # the running-example header says 11 nodes but lists 12 records
        assert len(parse_c2d(RUNNING_EXAMPLE_C2D).nodes) == 12

    def test_malformed_header(self):
        with pytest.raises(MalformedHeader):
            parse_c2d("cnf 3 2 2\nL 1\n")
        with pytest.raises(MalformedHeader):
            parse_c2d("")

    def test_negative_variable_count(self):
        # like --num-variables -1, a header cannot declare fewer than 0
        with pytest.raises(MalformedHeader) as err:
            parse_c2d("nnf 1 0 -1\nA 0\n")
        assert err.value.line == 1

    def test_empty_circuit(self):
        with pytest.raises(EmptyCircuit):
            parse_c2d("nnf 0 0 0\n")

    def test_forward_child_reference(self):
        with pytest.raises(IndexOutOfRange) as err:
            parse_c2d("nnf 3 2 2\nL 1\nA 2 0 2\nL 2\n")
        assert err.value.line == 3

    def test_literal_out_of_range(self):
        with pytest.raises(LiteralOutOfRange):
            parse_c2d("nnf 1 0 2\nL 3\n")

    def test_override_declares_omitted_variables(self):
        d = preprocess(parse_c2d("nnf 1 0 1\nL 1\n", num_variables_override=3))
        assert d.omitted == {2, 3}
        assert count_total(d) == 4

    def test_arity_mismatch(self):
        with pytest.raises(MalformedLine):
            parse_c2d("nnf 3 2 2\nL 1\nL 2\nA 3 0 1\n")

    def test_unknown_record(self):
        with pytest.raises(MalformedLine) as err:
            parse_c2d("nnf 2 0 2\nL 1\nX 2\n")
        assert err.value.line == 3

    def test_truncated_records(self):
        with pytest.raises(MalformedLine):
            parse_c2d("nnf 1 0 1\nA\n")
        with pytest.raises(MalformedLine):
            parse_c2d("nnf 1 0 1\nO 0\n")
        with pytest.raises(MalformedLine):
            parse_c2d("nnf 1 0 1\nL\n")


class TestParseD4:
    def test_running_example(self):
        d = preprocess(parse_d4(RUNNING_EXAMPLE_D4, 4))
        assert count_total(d) == 4

    def test_true_circuit(self):
        assert count_total(preprocess(parse_d4("t 1 0\n", 0))) == 1

    def test_false_with_omitted(self):
        assert count_total(preprocess(parse_d4("f 1 0\n", 2))) == 0

    def test_edge_literals_materialize_and_node(self):
        d = parse_d4("o 1 0\nt 2 0\n1 2 3 -4 0\n1 2 -3 4 0\n", 4)
        ands = [i for i in d.nodes if d.kind[i] is NodeKind.AND]
        assert len(ands) == 2
        assert all(len(d.children[i]) == 3 for i in ands)
        # xor over 3,4 has 2 models; omitted variables 1,2 double each
        assert count_total(preprocess(d)) == 8

    def test_edgeless_nodes_are_constants(self):
        # an edgeless a is True and an edgeless o False, as A 0 and O d 0
        # are in c2d; the twin declares the constants as t and f
        edges = "1 2 1 0\n1 3 0\n"
        edgeless = parse_d4("o 1 0\na 2 0\no 3 0\n" + edges, 2)
        twin = parse_d4("o 1 0\nt 2 0\nf 3 0\n" + edges, 2)
        assert edgeless.kind == twin.kind
        assert {NodeKind.TRUE, NodeKind.FALSE} <= set(edgeless.kind)
        assert edgeless.children == twin.children
        assert validate(edgeless) == validate(twin) == []
        # smoothing adds no gadget under the False
        assert len(preprocess(edgeless).nodes) == len(preprocess(twin).nodes) == 5
        assert count_total(edgeless) == count_total(twin) == 2
        assert count_all_features(edgeless) == count_all_features(twin) == [(1, 2), (2, 1)]

    def test_shared_literal_nodes(self):
        d = parse_d4("o 1 0\nt 2 0\n1 2 3 0\n1 2 -3 3 0\n", 3)
        lits = [d.literal[i] for i in d.nodes if d.kind[i] is NodeKind.LITERAL]
        assert sorted(lits) == [-3, 3]  # the two edges share one +3 node

    def test_equal_edges_share_one_and_node(self):
        # (x1 and x3) or (not x1 and x3): both a nodes take the edge "4 3",
        # so they share its And node; the edge "4 -3" lists other literals
        text = (
            "o 1 0\na 2 0\na 3 0\nt 4 0\n1 2 1 0\n1 3 -1 0\n"
            "2 4 3 0\n3 4 3 0\n"
        )
        d = parse_d4(text, 3)
        (shared,) = [  # the one And over True and x3
            i for i in d.nodes if d.children[i] and d.kind[d.children[i][0]] is NodeKind.TRUE
        ]
        assert d.children.count((shared,)) == 2  # both a nodes read it
        assert len(d.nodes) == 10  # 4 declared, 3 literal leaves, 3 edge Ands
        assert count_total(preprocess(d)) == brute_force_count(parse_d4(text, 3)) == 4
        # an order of literals the first edge did not list is another And
        assert len(parse_d4(text.replace("3 4 3 0", "3 4 3 -2 0"), 3).nodes) == 12

    def test_root_falls_back_to_unique_parentless(self):
        text = "o 7 0\nt 2 0\n7 2 1 0\n7 2 -1 0\n"
        d = parse_d4(text, 1)
        assert count_total(preprocess(d)) == 2

    def test_ambiguous_root(self):
        text = "a 2 0\na 3 0\nt 4 0\n2 4 1 0\n3 4 1 0\n"
        with pytest.raises(AmbiguousRoot):
            parse_d4(text, 1)

    def test_missing_sentinel(self):
        with pytest.raises(MissingSentinel):
            parse_d4("o 1\n", 1)

    def test_unknown_node_index(self):
        with pytest.raises(UnknownNodeIndex):
            parse_d4("o 1 0\n1 5 0\n", 1)

    def test_cycle_detected(self):
        with pytest.raises(CycleDetected):
            parse_d4("o 1 0\no 2 0\n1 2 0\n2 1 0\n", 1)

    def test_literal_out_of_range(self):
        with pytest.raises(LiteralOutOfRange):
            parse_d4("o 1 0\nt 2 0\n1 2 9 0\n", 2)

    def test_duplicate_declaration(self):
        with pytest.raises(MalformedLine):
            parse_d4("o 1 0\no 1 0\n", 1)

    def test_empty(self):
        with pytest.raises(EmptyCircuit):
            parse_d4("", 1)

    def test_topological_order(self):
        d = parse_d4(RUNNING_EXAMPLE_D4, 4)
        for i in d.nodes:
            assert all(c < i for c in d.children[i])


class TestDetectFormat:
    def test_c2d(self):
        assert detect_format(RUNNING_EXAMPLE_C2D) == "c2d"

    def test_d4(self):
        assert detect_format(RUNNING_EXAMPLE_D4) == "d4"

    def test_empty(self):
        with pytest.raises(EmptyInput):
            detect_format("")
        with pytest.raises(EmptyInput):
            detect_format("   \n# only a comment\n")

    # blank lines, comments and a comment longer than the first prefix
    # detect_format splits, with \r\n and \r line ends among them
    LEADING = "\n  \r\n# a comment\r\t\n#" + "x" * 5000 + "\n\n"

    def test_leading_blank_and_comment_lines(self):
        assert detect_format(self.LEADING + RUNNING_EXAMPLE_C2D) == "c2d"
        assert detect_format(self.LEADING + RUNNING_EXAMPLE_D4) == "d4"
        with pytest.raises(EmptyInput):
            detect_format(self.LEADING)
        # the parsers still number the lines of the whole text
        with pytest.raises(IndexOutOfRange) as err:
            parse_text(self.LEADING + "nnf 2 1 1\nL 1\nA 1 5\n")
        assert err.value.line == 9

    def test_first_line_at_every_prefix_cut(self):
        # whichever character a prefix ends on, the first whole line decides
        for pad in range(240, 280):
            text = "#" * pad + "\r\n" + RUNNING_EXAMPLE_D4
            assert detect_format(text) == "d4"
            assert detect_format("\n" * pad + RUNNING_EXAMPLE_C2D) == "c2d"
        assert detect_format("#" * 300 + "\rnnf 1 0 1\nL 1\n") == "c2d"

    def test_parse_text_dispatch(self):
        assert count_total(preprocess(parse_text(RUNNING_EXAMPLE_C2D))) == 4
        assert count_total(preprocess(parse_text(RUNNING_EXAMPLE_D4, num_variables=4))) == 4
        with pytest.raises(ValueError):
            parse_text(RUNNING_EXAMPLE_D4)  # d4 needs num_variables


class TestWriteC2d:
    def test_round_trip_running_example(self):
        d = preprocess(parse_c2d(RUNNING_EXAMPLE_C2D))
        again = preprocess(parse_c2d(write_c2d(d)))
        assert len(again.nodes) == len(d.nodes)
        assert count_total(again) == 4

    def test_single_literal_byte_stable(self):
        text = "nnf 1 0 1\nL 1\n"
        assert write_c2d(parse_c2d(text)) == text

    def test_smoothed_circuit_reparses_smooth(self, circuits):
        d = circuits["unsmooth_pair"]
        again = parse_c2d(write_c2d(d))
        assert [v for v in validate(again) if v.kind == "smoothness"] == []
        assert count_total(preprocess(again)) == count_total(d)

    def test_round_trip_preserves_query_matrix(self, circuits):
        for name, d in circuits.items():
            again = preprocess(parse_c2d(write_c2d(d)))
            assert count_total(again) == count_total(d), name
            assert count_all_features(again) == count_all_features(d), name

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.sampled_from([4, 8, 14, 24]),
        omit=st.integers(0, 3),
        d4=st.booleans(),
    )
    def test_round_trip_preserves_table_on_random_circuits(self, seed, n, omit, d4):
        text = random_c2d_text(seed, n, omit=omit, tree_budget=400)
        d = preprocess(parse_d4(c2d_to_d4(text), n) if d4 else parse_c2d(text))
        again = preprocess(parse_c2d(write_c2d(d)))
        assert again.num_variables == d.num_variables
        assert count_all_features(again) == count_all_features(d)

    def test_unreferenced_records_dropped_on_write(self):
        # lenient parse keeps the unreferenced duplicate literal; the writer
        # must still put the real root last
        text = "nnf 4 2 2\nL 1\nL 2\nA 2 0 1\nL 1\n"
        d = parse_c2d(text)
        assert len(d.nodes) == 4 and d.root == 3
        d.root = 2  # the And is the meaningful root here
        out = write_c2d(d)
        again = preprocess(parse_c2d(out))
        assert len(again.nodes) == 3
        assert count_total(again) == 1


def test_cross_format_agreement():
    c2d = preprocess(parse_c2d(RUNNING_EXAMPLE_C2D))
    d4 = preprocess(parse_d4(RUNNING_EXAMPLE_D4, 4))
    assert count_total(c2d) == count_total(d4) == 4
    expected = [(1, 4), (2, 2), (3, 2), (4, 2)]
    assert count_all_features(c2d) == expected
    assert count_all_features(d4) == expected


def test_every_fixture_parses_and_counts_match_oracle():
    for name, (fmt, text, n) in fixture_texts().items():
        d = build_circuit(fmt, text, n)
        expected = brute_force_count(d)
        preprocess(d)
        assert count_total(d) == expected, name
