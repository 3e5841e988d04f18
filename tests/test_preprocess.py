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
    UNREFERENCED_C2D,
    UNREFERENCED_D4,
    c2d_to_d4,
    random_c2d_text,
    with_unreferenced_c2d,
    with_unreferenced_d4,
)


class TestSmooth:
    def test_unsmooth_pair_gains_one_gadget_per_branch(self):
        d = smooth(parse_c2d(UNSMOOTH_PAIR_C2D))
        assert [v for v in validate(d) if v.kind == "smoothness"] == []
        # 7 original nodes + per missing variable one Or and two literals
        assert len(d.nodes) == 13
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
        assert (d.parents, d.baseline, d.tape) == ([], [], [])
        assert count_total(preprocess(d)) == 4

    def test_false_child_needs_no_gadgets(self):
        # Or(False, A and B): False's count absorbs any completion
        text = "nnf 5 4 2\nO 0 0\nL 1\nL 2\nA 2 1 2\nO 0 2 0 3\n"
        d = parse_c2d(text)
        before = len(d.nodes)
        smooth(d)
        assert len(d.nodes) == before
        assert count_total(preprocess(d)) == brute_force_count(d) == 1

    def test_deficient_literal_child_is_wrapped(self):
        # Or((A and B), not-A): the literal child cannot be extended in place
        text = "nnf 5 4 2\nL 1\nL 2\nA 2 0 1\nL -1\nO 1 2 2 3\n"
        d = parse_c2d(text)
        expected = brute_force_count(d)
        preprocess(d)
        # gadget (Or plus two literals) and one wrapper And
        assert len(d.nodes) == 9
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
        assert len(d.nodes) == 19  # one shared gadget (3 nodes) plus one wrapper
        assert [v for v in validate(d) if v.kind == "smoothness"] == []


class TestLinkParents:
    def test_shared_node_has_two_parents(self):
        d = link_parents(smooth(parse_c2d(SHARED_SUBTREE_C2D)))
        link_readers(d)
        shared = next(
            i for i in d.nodes
            if d.kind[i] is NodeKind.OR
            and sorted(d.literal[c] for c in d.children[i]) == [-3, 3]
            and len(d.parents[i]) == 2
        )
        assert len(d.parents[shared]) == 2

    def test_single_literal_root(self):
        d = link_parents(smooth(parse_c2d("nnf 1 0 1\nL 1\n")))
        link_readers(d)
        assert d.parents[d.root] == ()
        assert d.root == 0

    def test_running_example_or_node_parent(self):
        # the root And 11 over (0, 9, 10) reads 0 and 9 through scratch
        # slot 13, after the 12 nodes and the constant slot 12
        d = link_parents(smooth(parse_c2d(RUNNING_EXAMPLE_C2D)))
        link_readers(d)
        assert d.children[11] == (0, 9, 10)
        assert d.parents[9] == (13,) and d.parents[13] == (11,)
        assert d.parents[10] == (11,)


class TestIndexLiterals:
    def test_running_example(self, running_example):
        assert len(running_example.literal_index[2]) == 1
        assert len(running_example.literal_index[-2]) == 1

    def test_omitted_variable_absent(self, circuits):
        d = circuits["single_omitted"]
        assert 2 not in d.literal_index and -2 not in d.literal_index
        assert d.omitted == {2, 3}

    def test_smoothing_gadget_adds_entry(self, circuits):
        d = circuits["unsmooth_pair"]
        assert len(d.literal_index[3]) == 2  # original leaf plus gadget leaf


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
            assert len(d.baseline) == len(d.nodes), name
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
        d.kind, d.literal, d.children, d.decision, d.parents, d.baseline,
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
        before = [d.kind, d.literal, d.children, d.parents, d.baseline]
        prune(d)
        after = [d.kind, d.literal, d.children, d.parents, d.baseline]
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
