import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddnnf import (
    Assumptions,
    Ddnnf,
    ExhaustiveCounter,
    NodeKind,
    brute_force_count,
    compute_baseline,
    compute_core_dead,
    count_all_features,
    count_feature,
    count_total,
    index_literals,
    link_parents,
    link_readers,
    parse_c2d,
    parse_d4,
    preprocess,
    prune,
    query,
    smooth,
    validate,
    write_c2d,
)
from ddnnf.cli import StreamSession
from ddnnf.engine import NO_PARTIAL_TRAVERSAL, OptimizationConfig
from ddnnf.errors import DecomposabilityViolation, NotSmooth

from conftest import (
    RUNNING_EXAMPLE_C2D,
    RUNNING_EXAMPLE_D4,
    SHARED_SUBTREE_C2D,
    UNSMOOTH_PAIR_C2D,
    build_circuit,
    fixture_texts,
)
from helpers import (
    REPEATED_RECORDS_C2D,
    UNREFERENCED_C2D,
    UNREFERENCED_D4,
    c2d_to_d4,
    random_c2d_text,
    tape_readers,
    with_duplicates,
    with_unreferenced_c2d,
    with_unreferenced_d4,
)


class TestSmooth:
    def test_unsmooth_pair_gains_one_gadget_per_branch(self):
        d = smooth(parse_c2d(UNSMOOTH_PAIR_C2D))
        assert [v for v in validate(d) if v.kind == "smoothness"] == []
        # 7 original nodes + per missing variable one Or and two literals,
        # less the two original leaves the gadgets' leaves merge with
        assert len(d.nodes) == 11
        root_or = next(
            i for i in d.nodes
            if d.kind[i] is NodeKind.OR and len(d.children[i]) == 2
            and all(d.kind[c] is NodeKind.AND for c in d.children[i])
        )
        for c in d.children[root_or]:
            assert len(d.children[c]) == 3  # extended with one gadget

    def test_already_smooth_adds_nothing(self):
        d = parse_c2d(RUNNING_EXAMPLE_C2D)
        before = len(d.nodes)
        assert len(smooth(d).nodes) == before

    def test_idempotent(self):
        d = smooth(parse_c2d(UNSMOOTH_PAIR_C2D))
        assert len(smooth(d).nodes) == len(d.nodes)

    def test_preserves_counts(self):
        raw = parse_c2d(UNSMOOTH_PAIR_C2D)
        before = brute_force_count(raw)
        smoothed = smooth(parse_c2d(UNSMOOTH_PAIR_C2D))
        assert brute_force_count(smoothed) == before == 4

    def test_naive_traversal_needs_smoothing(self):
        # Or(A, not-A and B): the branches differ in variables, so counting
        # without gadgets would answer 2 instead of 3
        text = "nnf 5 4 2\nL 1\nL -1\nL 2\nA 2 1 2\nO 1 2 0 3\n"
        d = preprocess(parse_c2d(text))
        assert count_total(d) == brute_force_count(d) == 3

    def test_refuses_undecomposable(self):
        d = Ddnnf(
            kind=[NodeKind.LITERAL, NodeKind.LITERAL, NodeKind.AND],
            literal=[1, 1, 0],
            children=[(), (), (0, 1)],
            num_variables=1,
            root=2,
        )
        with pytest.raises(DecomposabilityViolation):
            smooth(d)

    def test_violation_leaves_circuit_unchanged(self):
        # the Or (A and B) or not-A misses B in its second branch and sits
        # below an And that shares B with its sibling, so the refusal comes
        # after a smoothing decision has been found
        text = "nnf 7 7 2\nL 1\nL 2\nA 2 0 1\nL -1\nO 1 2 2 3\nL -2\nA 2 4 5\n"
        d = parse_c2d(text)
        before = (list(d.kind), list(d.literal), list(d.children), list(d.decision), d.root)
        with pytest.raises(DecomposabilityViolation):
            smooth(d)
        assert (d.kind, d.literal, d.children, d.decision, d.root) == before

    def test_growth_drops_lists_of_later_steps(self):
        d = compute_baseline(link_parents(parse_c2d(UNSMOOTH_PAIR_C2D)))
        smooth(d)
        assert (d.readers, d.baseline, d.tape) == ([], [], [])
        assert count_total(preprocess(d)) == 4

    def test_false_child_needs_no_gadgets(self):
        # Or(False, A and B): False's count absorbs any completion, so no
        # gadget is added; folding drops the False and the Or it leaves
        # with one child, so A and B is the root
        text = "nnf 5 4 2\nO 0 0\nL 1\nL 2\nA 2 1 2\nO 0 2 0 3\n"
        d = smooth(parse_c2d(text))
        assert d.literal == [1, 2, 0] and d.children == [(), (), (0, 1)] and d.root == 2
        assert count_total(preprocess(d)) == brute_force_count(parse_c2d(text)) == 1

    def test_deficient_literal_child_is_wrapped(self):
        # Or((A and B), not-A): the literal child cannot be extended in place
        text = "nnf 5 4 2\nL 1\nL 2\nA 2 0 1\nL -1\nO 1 2 2 3\n"
        d = parse_c2d(text)
        expected = brute_force_count(d)
        preprocess(d)
        # gadget (Or plus two literals, one merged with the original B) and
        # one wrapper And
        assert len(d.nodes) == 8
        assert count_total(d) == expected == 3
        assert [v for v in validate(d) if v.kind == "smoothness"] == []

    def test_shared_deficient_and_child_is_wrapped(self):
        # S = (B and C) is a direct child of two Or nodes; under the first it
        # misses D, and having two references it must be wrapped, not extended
        text = (
            "nnf 15 15 4\n"
            "L 2\nL 3\nA 2 0 1\nL -3\nL 4\nA 3 0 3 4\nO 2 2 2 5\n"
            "L -2\nA 2 7 1\nO 2 2 2 8\n"
            "L 1\nL -1\nA 2 10 6\nA 2 11 9\nO 1 2 12 13\n"
        )
        d = parse_c2d(text)
        expected = brute_force_count(d)
        preprocess(d)
        assert count_total(d) == expected == 7
        # one shared gadget (3 nodes, one merged with the original D) plus
        # one wrapper
        assert len(d.nodes) == 18
        assert [v for v in validate(d) if v.kind == "smoothness"] == []


ALWAYS_PARTIAL = OptimizationConfig(traversal_bypass_fraction=1.0)


def _assert_merged(d):
    """No two nodes of ``d`` are equal, one node holds each literal, and the
    reader graph is the exact inverse of the tape."""
    nodes = list(zip(d.kind, d.literal, d.children))
    assert len(set(nodes)) == len(nodes)
    assert sorted(d.literal_index.values()) == [i for i, lit in enumerate(d.literal) if lit]
    assert all(d.literal[i] == lit for lit, i in d.literal_index.items())
    assert link_readers(d) == tape_readers(d)


class TestMerge:
    def test_repeated_records_merge(self):
        d = preprocess(parse_c2d(REPEATED_RECORDS_C2D))
        _assert_merged(d)
        assert len(d.nodes) == 12
        assert count_total(d) == brute_force_count(parse_c2d(REPEATED_RECORDS_C2D)) == 8
        assert count_all_features(d) == [(1, 4), (2, 4), (3, 8), (4, 4)]

    def test_and_over_two_equal_true_nodes(self):
        # the And drops both True operands, so it is True itself
        d = preprocess(parse_c2d("nnf 3 2 1\nA 0\nA 0\nA 2 0 1\n"))
        _assert_merged(d)
        assert d.kind == [NodeKind.TRUE] and d.root == 0 and d.tape == []
        assert count_total(d) == 2
        assert count_all_features(d) == [(1, 1)]
        assert query(d, Assumptions.of(set(), {1})).count == 1

    def test_or_over_two_equal_false_nodes(self):
        # beside x1's own branches, so the Or's count, 0, absorbs x1, and
        # validate reads it as constant False as smoothing does
        text = "nnf 6 5 1\nL 1\nL -1\nO 0 0\nO 0 0\nO 0 2 2 3\nO 1 3 0 1 4\n"
        assert validate(parse_c2d(text)) == []
        d = preprocess(parse_c2d(text))
        _assert_merged(d)
        # the Or over two False records is constant False, so smoothing adds
        # it no gadget, and folding drops it: x1's two leaves and the root
        assert d.kind == [NodeKind.LITERAL, NodeKind.LITERAL, NodeKind.OR]
        assert d.children == [(), (), (0, 1)] and d.tape == [(~2, 0, 1)]
        assert count_total(d) == brute_force_count(parse_c2d(text)) == 2
        assert count_all_features(d) == [(1, 1)]
        for a in (Assumptions.of({1}), Assumptions.of(set(), {1})):
            assert query(d, a, ALWAYS_PARTIAL).count == query(d, a, NO_PARTIAL_TRAVERSAL).count == 1

    def test_merge_keeps_the_first_decision(self):
        # two equal Or nodes with different decision variables merge into the
        # first; the decision is metadata and never changes a count
        text = (
            "nnf 9 10 2\nL 1\nL -1\nO 3 2 0 1\nO 0 2 0 1\nL 2\nL -2\n"
            "A 2 4 2\nA 2 5 3\nO 2 2 6 7\n"
        )
        d = smooth(parse_c2d(text))
        assert len(d.nodes) == 8 and d.children.count((0, 1)) == 1
        assert d.decision[d.children.index((0, 1))] == 3
        assert count_total(preprocess(d)) == brute_force_count(parse_c2d(text)) == 4

    def test_smooth_circuit_with_duplicates_is_merged(self):
        # nothing to smooth, but the merging renumber still runs: the And
        # drops its two True operands, and its one child x1 is the root
        d = smooth(parse_c2d("nnf 4 3 1\nL 1\nA 0\nA 0\nA 3 0 1 2\n"))
        assert d.kind == [NodeKind.LITERAL] and d.root == 0
        assert count_total(preprocess(d)) == 1

    def test_merged_circuit_is_left_as_it_is(self):
        # a circuit with nothing to smooth or merge keeps its lists, its
        # preprocessed state and its tape's indexes
        d = preprocess(parse_c2d(REPEATED_RECORDS_C2D))
        # a partial query links the reader graph and stores the order of -2
        query(d, (2,), OptimizationConfig(traversal_bypass_fraction=1.0))
        lists = (d.kind, d.literal, d.children, d.decision, d.tape, d.baseline)
        indexes = (d.readers, d.writes_node, d.ancestor_orders, d.ancestor_entries)
        assert d.readers and list(d.ancestor_orders) == [-2]
        smooth(d)
        assert (d.kind, d.literal, d.children, d.decision, d.tape, d.baseline) == lists
        assert all(a is b for a, b in zip((d.kind, d.children, d.tape), lists[::2]))
        assert d.preprocessed
        kept = (d.readers, d.writes_node, d.ancestor_orders, d.ancestor_entries)
        assert all(a is b for a, b in zip(kept, indexes))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.sampled_from([4, 8, 12]),
    omit=st.integers(0, 2),
    d4=st.booleans(),
    copies=st.sampled_from([0.1, 0.3, 0.6]),
)
def test_duplicated_subcircuits_merge(seed, n, omit, d4, copies):
    # some nodes are copied and some parents point at the copies; after
    # preprocessing no two nodes are equal, and every count, table row and
    # session reply equals the original circuit's and the oracle's
    text = random_c2d_text(seed, n, omit=omit, tree_budget=300)

    def parse():
        return parse_d4(c2d_to_d4(text), n) if d4 else parse_c2d(text)

    original = preprocess(parse())
    rng = random.Random(seed)
    duplicated = with_duplicates(parse(), rng, copies)
    oracle = ExhaustiveCounter(duplicated)
    d = preprocess(duplicated)
    _assert_merged(d)
    assert count_all_features(d) == count_all_features(original) == [
        (v, oracle.count(Assumptions.of({v}))) for v in range(1, n + 1)
    ]
    lines = ["count", "info"]
    for _ in range(8):
        chosen = rng.sample(range(1, n + 1), rng.randint(1, min(4, n)))
        lines.append("count v " + " ".join(str(rng.choice((v, -v))) for v in chosen))
    merged, kept = StreamSession(d), StreamSession(original)
    for line in lines:
        reply = merged.handle(line)
        if line != "info":  # the node counts may differ
            assert reply == kept.handle(line), line
        if line.startswith("count v"):
            a = Assumptions.from_literals(int(t) for t in line.split()[2:])
            assert reply == (str(oracle.count(a)), False), line
            assert query(d, a, ALWAYS_PARTIAL).count == oracle.count(a), line


# (x2 and x1) or (not x1 and x2), with x3 omitted, in d4 with literals on
# the edges into the t node 3 and into a one-child a node 2.  The parser
# gives 9 nodes: the 3 declared, the leaves 1, -1 and 2, and the edge Ands
# (a2, 1), (t3, -1, 2) and (t3, 2).  Folding drops True from the two edge
# Ands over it, which leaves (t3, 2) and then a2 with one child, so both
# become the leaf 2: 6 nodes, three two-child nodes, three instructions
FOLDED_D4 = "o 1 0\na 2 0\nt 3 0\n1 2 1 0\n1 3 -1 2 0\n2 3 2 0\n"


def _assert_folded(d):
    """No one-child And or Or, no True under an And or False under an Or,
    at most one node of each constant, and no instruction reading one but
    an And's reading False: folding keeps an And's False operand, which
    drops no literal."""
    kind, children = d.kind, d.children
    true, false = NodeKind.TRUE, NodeKind.FALSE
    inner = [i for i in d.nodes if kind[i] in (NodeKind.AND, NodeKind.OR)]
    assert all(len(children[i]) != 1 for i in inner)
    for i in inner:
        dropped = true if kind[i] is NodeKind.AND else false
        assert all(kind[c] is not dropped for c in children[i]), i
    assert kind.count(true) <= 1 and kind.count(false) <= 1
    constants = {i for i in d.nodes if kind[i] in (true, false)}
    for dst, a, b in d.tape:
        for x in {a, b} & constants:
            assert dst >= 0 and kind[x] is false, (dst, a, b)


class TestFold:
    def test_d4_edges_into_a_true_node(self):
        d = preprocess(parse_d4(FOLDED_D4, 3))
        _assert_folded(d)
        assert len(d.nodes) == 6 and NodeKind.TRUE not in d.kind
        assert len(d.tape) == 3 and d.scratch_slots == 0
        assert sorted(d.literal_index) == [-1, 1, 2]
        oracle = ExhaustiveCounter(parse_d4(FOLDED_D4, 3))
        assert count_total(d) == oracle.count() == 4
        assert count_all_features(d) == [(1, 2), (2, 4), (3, 2)]
        assert d.core == {2} and d.omitted == {3}

    def test_constant_root(self):
        # an Or of False alone folds to False; the root is placed last
        d = preprocess(parse_c2d("nnf 3 2 2\nO 0 0\nO 0 1 0\nO 0 1 1\n"))
        assert d.kind == [NodeKind.FALSE] and d.root == 0
        assert count_total(d) == 0

    def test_tape_refuses_a_one_child_node(self):
        # the tape has no instruction for a one-child node, and smoothing
        # leaves none
        d = parse_c2d("nnf 2 1 1\nL 1\nO 1 1 0\n")
        with pytest.raises(NotSmooth):
            link_parents(d)
        assert link_parents(smooth(d)).tape == [] and d.kind == [NodeKind.LITERAL]
        # nor for a childless And or Or, which no parser returns and smoothing
        # folds into its constant: x1 and True is x1, x1 and False counts 0
        for k, total in ((NodeKind.AND, 1), (NodeKind.OR, 0)):
            kinds = [NodeKind.LITERAL, k, NodeKind.AND]
            d = Ddnnf(kinds, [1, 0, 0], [(), (), (0, 1)], 1, root=2)
            with pytest.raises(NotSmooth):
                link_parents(d)
            assert count_total(preprocess(d)) == total

    def test_kept_constants_are_placed_once(self):
        # x1 and False, and (x2 and False): the And keeps its False operand,
        # which drops no literal, so x1 and x2 stay present
        text = "nnf 6 5 2\nL 1\nO 0 0\nL 2\nO 0 0\nA 2 2 3\nA 3 0 1 4\n"
        d = preprocess(parse_c2d(text))
        _assert_merged(d)
        assert d.kind.count(NodeKind.FALSE) == 1
        assert count_total(d) == 0 and sorted(d.literal_index) == [1, 2]
        assert count_all_features(d) == [(1, 0), (2, 0)]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.sampled_from([4, 8, 14]),
    omit=st.integers(0, 2),
)
def test_folded_circuits_on_random_circuits(seed, n, omit):
    # a generator circuit and its d4 twin, whose literals sit under And
    # nodes over one True node, fold to the same circuit, and every count
    # equals the oracle's
    text = random_c2d_text(seed, n, omit=omit, tree_budget=300)
    oracle = ExhaustiveCounter(parse_c2d(text))
    rng = random.Random(seed)
    queries = []
    for _ in range(6):
        chosen = rng.sample(range(1, n + 1), rng.randint(1, min(4, n)))
        queries.append(Assumptions.from_literals(rng.choice((v, -v)) for v in chosen))
    twins = [preprocess(parse_c2d(text)), preprocess(parse_d4(c2d_to_d4(text), n))]
    for d in twins:
        _assert_folded(d)
        assert count_total(d) == oracle.count()
        assert count_all_features(d) == [
            (v, oracle.count(Assumptions.of({v}))) for v in range(1, n + 1)
        ]
        for a in queries:
            assert query(d, a).count == query(d, a, ALWAYS_PARTIAL).count == oracle.count(a)
    c2d, d4 = twins
    assert (c2d.kind, c2d.literal, c2d.children, c2d.tape) == (
        d4.kind, d4.literal, d4.children, d4.tape
    )


class TestLinkParents:
    def test_shared_node_has_two_parents(self):
        d = link_parents(smooth(parse_c2d(SHARED_SUBTREE_C2D)))
        link_readers(d)
        shared = next(
            i for i in d.nodes
            if d.kind[i] is NodeKind.OR
            and sorted(d.literal[c] for c in d.children[i]) == [-3, 3]
            and len(d.readers[i]) == 2
        )
        # two instructions read it, and each writes one of its parents
        first, second = d.readers[shared]
        assert first < second
        assert shared in d.tape[first][1:] and shared in d.tape[second][1:]

    def test_single_literal_root(self):
        d = link_parents(smooth(parse_c2d("nnf 1 0 1\nL 1\n")))
        link_readers(d)
        assert d.tape == [] and d.writes_node == b""
        assert d.readers == [()]  # the literal, the one slot
        assert d.root == 0

    def test_running_example_or_node_parent(self):
        # the root And 11 over (0, 9, 10) compiles to instruction 4, which
        # reads 0 and 9 into scratch slot 12 (the first after the 12 nodes),
        # and instruction 5, which reads 12 and 10 into 11
        d = link_parents(smooth(parse_c2d(RUNNING_EXAMPLE_C2D)))
        link_readers(d)
        assert d.children[11] == (0, 9, 10)
        assert d.tape[4] == (12, 0, 9) and d.tape[5] == (11, 12, 10)
        assert d.readers[9] == (4,) and d.readers[12] == (5,)
        assert d.readers[10] is d.readers[12]  # instruction 5's one tuple
        assert d.writes_node[4] == 0 and d.writes_node[5] == 1


class TestIndexLiterals:
    def test_running_example(self, running_example):
        d = running_example
        for lit in (2, -2):
            assert d.literal[d.literal_index[lit]] == lit and d.literal.count(lit) == 1

    def test_omitted_variable_absent(self, circuits):
        d = circuits["single_omitted"]
        assert 2 not in d.literal_index and -2 not in d.literal_index
        assert d.omitted == {2, 3}

    def test_smoothing_gadget_adds_entry(self, circuits):
        d = circuits["unsmooth_pair"]
        assert -3 in d.literal_index  # the gadget's new literal
        # the gadget leaf merged with the original
        assert d.literal[d.literal_index[3]] == 3 and d.literal.count(3) == 1


class TestCoreDead:
    def test_running_example(self, running_example):
        assert running_example.core == {1}
        assert running_example.dead == frozenset()

    def test_single_negative_literal(self, circuits):
        assert circuits["single_neg"].dead == {1}

    def test_smoothed_unsmooth_pair_has_neither(self, circuits):
        d = circuits["unsmooth_pair"]
        assert d.core == frozenset() and d.dead == frozenset()

    def test_requires_smooth(self):
        d = index_literals(link_parents(parse_c2d(RUNNING_EXAMPLE_C2D)))
        with pytest.raises(NotSmooth):
            compute_core_dead(d)

    def test_core_soundness_on_every_fixture(self, circuits):
        for name, d in circuits.items():
            total = count_total(d)
            for v in d.core:
                assert count_feature(d, v) == total, name
            for v in d.dead:
                assert count_feature(d, v) == 0, name


class TestBaseline:
    def test_running_example_annotations(self, running_example):
        assert running_example.baseline[11] == 4
        assert running_example.baseline[9] == 2
        assert running_example.baseline[10] == 2

    def test_false_circuit(self, circuits):
        d = circuits["false_n2"]
        assert d.baseline[d.root] == 0

    def test_d4_running_example(self):
        d = preprocess(parse_d4(RUNNING_EXAMPLE_D4, 4))
        assert d.baseline[d.root] == 4

    def test_every_baseline_filled(self, circuits):
        for name, d in circuits.items():
            assert len(d.baseline) == len(d.nodes) + d.scratch_slots, name
            assert all(isinstance(b, int) for b in d.baseline), name


class TestPreprocess:
    def test_running_example_total(self):
        assert count_total(preprocess(parse_c2d(RUNNING_EXAMPLE_C2D))) == 4

    def test_true_all_omitted(self):
        assert count_total(preprocess(parse_d4("t 1 0\n", 3))) == 8

    def test_unsmooth_pair_total(self):
        assert count_total(preprocess(parse_c2d(UNSMOOTH_PAIR_C2D))) == 4

    def test_idempotent(self):
        d = preprocess(parse_c2d(UNSMOOTH_PAIR_C2D))
        nodes, baselines = len(d.nodes), list(d.baseline)
        preprocess(d)
        assert len(d.nodes) == nodes
        assert d.baseline == baselines

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.sampled_from([4, 8, 14, 24]),
        omit=st.integers(0, 3),
        d4=st.booleans(),
    )
    def test_idempotent_on_random_circuits(self, seed, n, omit, d4):
        text = random_c2d_text(seed, n, omit=omit, tree_budget=400)
        d = preprocess(parse_d4(c2d_to_d4(text), n) if d4 else parse_c2d(text))
        before = _lists(d)
        preprocess(d)
        assert _lists(d) == before


def _lists(d):
    """Everything preprocessing fills or may rewrite, as plain values."""
    return (
        d.kind, d.literal, d.children, d.decision, d.readers, d.baseline,
        d.tape, d.literal_index, d.core, d.dead, d.omitted, d.root,
    )


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_smoothing_preserves_counts_on_random_circuits(seed):
    text = random_c2d_text(seed, num_variables=7, tree_budget=200)
    raw = parse_c2d(text)
    smoothed = smooth(parse_c2d(text))
    rng = random.Random(seed)
    assumptions = [Assumptions()]
    for _ in range(5):
        variables = rng.sample(range(1, 8), rng.randint(1, 4))
        assumptions.append(
            Assumptions.of(
                {v for v in variables if rng.random() < 0.5},
                {v for v in variables if rng.random() >= 0.5},
            )
        )
    for a in assumptions:
        assert brute_force_count(smoothed, a) == brute_force_count(raw, a)


def test_baseline_matches_oracle_on_random_circuits():
    for seed in range(40, 60):
        d = parse_c2d(random_c2d_text(seed, num_variables=9, tree_budget=300))
        expected = brute_force_count(d)
        assert count_total(preprocess(d)) == expected, seed


class TestPrune:
    @pytest.mark.parametrize("text,total,without_2", UNREFERENCED_C2D)
    def test_unreferenced_records_count_nothing(self, text, total, without_2):
        d = preprocess(parse_c2d(text))
        assert count_total(d) == brute_force_count(parse_c2d(text)) == total
        assert query(d, Assumptions.of(set(), {2})).count == without_2
        for v in (1, 2):
            for a in (Assumptions.of({v}), Assumptions.of(set(), {v})):
                assert query(d, a).count == brute_force_count(parse_c2d(text), a)

    def test_unreferenced_d4_gadget(self):
        d = preprocess(parse_d4(UNREFERENCED_D4, 2))
        assert count_total(d) == brute_force_count(parse_d4(UNREFERENCED_D4, 2)) == 2
        assert count_all_features(d) == [(1, 2), (2, 1)]
        assert d.omitted == {2}

    def test_keeps_order_and_root_last(self):
        d = prune(parse_c2d("nnf 4 1 2\nL 2\nL 1\nL -1\nO 1 2 1 2\n"))
        assert d.literal[:2] == [1, -1]
        assert d.children[d.root] == (0, 1) and d.root == 2

    def test_complete_circuit_untouched(self, circuits):
        d = circuits["running_c2d"]
        before = [d.kind, d.literal, d.children, d.readers, d.baseline]
        prune(d)
        after = [d.kind, d.literal, d.children, d.readers, d.baseline]
        assert all(a is b for a, b in zip(after, before))


def _profile(d, rng):
    """Total, feature table and a few queries of a preprocessed circuit."""
    n = d.num_variables
    queries = []
    for _ in range(6):
        variables = rng.sample(range(1, n + 1), rng.randint(1, min(4, n)))
        include = {v for v in variables if rng.random() < 0.5}
        queries.append(Assumptions.of(include, set(variables) - include))
    return (
        count_total(d),
        count_all_features(d),
        [query(d, a).count for a in queries],
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(3, 12),
    omit=st.integers(0, 2),
    extra=st.integers(1, 8),
    d4=st.booleans(),
)
def test_unreferenced_records_change_no_count(seed, n, omit, extra, d4):
    text = random_c2d_text(seed, num_variables=n, omit=omit, tree_budget=200)
    rng = random.Random(seed)
    if d4:
        text = c2d_to_d4(text)
        polluted = with_unreferenced_d4(text, rng, extra, n)
        clean_d, polluted_d = parse_d4(text, n), parse_d4(polluted, n)
    else:
        polluted = with_unreferenced_c2d(text, rng, extra)
        clean_d, polluted_d = parse_c2d(text), parse_c2d(polluted)
    clean = _profile(preprocess(clean_d), random.Random(seed))
    assert _profile(preprocess(polluted_d), random.Random(seed)) == clean


def _check_emitted_order(d):
    """The order and the contents a preprocessed circuit must have."""
    assert all(c < i for i in d.nodes for c in d.children[i])
    assert d.root == len(d.nodes) - 1
    assert [v for v in validate(d) if v.kind == "smoothness"] == []
    lists = (list(d.kind), list(d.literal), list(d.children), list(d.decision))
    smooth(d)
    assert (d.kind, d.literal, d.children, d.decision) == lists

    again = preprocess(parse_c2d(write_c2d(d), d.num_variables))
    assert count_all_features(again) == count_all_features(d)
    assumptions = [Assumptions()] + [
        Assumptions.from_literals([lit])
        for v in range(1, d.num_variables + 1)
        for lit in (v, -v)
    ]
    oracle, reparsed = ExhaustiveCounter(d), ExhaustiveCounter(again)
    assert [oracle.count(a) for a in assumptions] == [reparsed.count(a) for a in assumptions]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.sampled_from([4, 8, 14]),
    omit=st.integers(0, 2),
    d4=st.booleans(),
)
def test_emitted_order_on_random_circuits(seed, n, omit, d4):
    text = random_c2d_text(seed, n, omit=omit, tree_budget=300)
    _check_emitted_order(preprocess(parse_d4(c2d_to_d4(text), n) if d4 else parse_c2d(text)))


@pytest.mark.parametrize("name", sorted(fixture_texts()))
def test_emitted_order_on_fixtures(name):
    _check_emitted_order(preprocess(build_circuit(*fixture_texts()[name])))
