import pytest

from ddnnf import (
    Assumptions,
    Ddnnf,
    NodeKind,
    brute_force_count,
    validate,
)
from ddnnf.core import mask_variables, present_variables, renumber
from ddnnf.engine import FULL, NO_PARTIAL_TRAVERSAL, link_readers
from ddnnf.errors import OracleLimitExceeded, VariableOutOfRange

from conftest import UNSMOOTH_PAIR_C2D, RUNNING_EXAMPLE_C2D, fixture_texts
from helpers import node_parents
from ddnnf import count_all_features, parse_c2d, preprocess, query


def test_from_literals_reads_a_generator_once():
    a = Assumptions.from_literals(lit for lit in [1, -2])
    assert a == Assumptions.of(include={1}, exclude={2})


def test_from_literals_keeps_zero_for_the_range_check(running_example):
    # a literal 0 names no variable: queries reject it as Assumptions.of does
    assert Assumptions.from_literals([0, 2]) == Assumptions.of(include={0, 2})
    for a in (Assumptions.from_literals([0]), Assumptions.of(include={0})):
        with pytest.raises(VariableOutOfRange):
            query(running_example, a)


def test_validate_running_example_clean(running_example):
    assert validate(running_example) == []


def test_validate_decomposability_violation():
    d = Ddnnf(
        kind=[NodeKind.LITERAL, NodeKind.LITERAL, NodeKind.AND],
        literal=[1, 1, 0],
        children=[(), (), (0, 1)],
        num_variables=1,
        root=2,
    )
    kinds = [v.kind for v in validate(d)]
    assert kinds == ["decomposability"]


def test_validate_smoothness_finding_pre_smoothing():
    d = parse_c2d(UNSMOOTH_PAIR_C2D)
    findings = validate(d)
    assert [v.kind for v in findings] == ["smoothness"]
    assert findings[0].node == 6  # the root Or
    assert findings[0].severity == "info"


def test_validate_smoothness_is_error_after_smoothing():
    d = parse_c2d(UNSMOOTH_PAIR_C2D)
    d.is_smooth = True  # claim smoothness without running the pass
    assert [v.severity for v in validate(d)] == ["error"]


def test_validate_dangling_and_cycle():
    d = Ddnnf(
        kind=[NodeKind.LITERAL, NodeKind.AND, NodeKind.OR],
        literal=[1, 0, 0],
        children=[(), (0, 7), (2, 1)],
        num_variables=1,
        root=2,
    )
    kinds = sorted(v.kind for v in validate(d))
    assert "dangling-child" in kinds
    assert "cycle" in kinds


def test_brute_force_running_example(running_example):
    assert brute_force_count(running_example) == 4
    assert brute_force_count(running_example, Assumptions.of({2})) == 2
    assert brute_force_count(running_example, Assumptions.of({4}, {3})) == 1


def test_brute_force_contradiction(running_example):
    assert brute_force_count(running_example, Assumptions.of({2}, {2})) == 0


def test_brute_force_omitted_assumptions(circuits):
    d = circuits["single_omitted"]  # L 1 with n=3: count 4
    assert brute_force_count(d) == 4
    assert brute_force_count(d, Assumptions.of({2})) == 2
    assert brute_force_count(d, Assumptions.of({2}, {3})) == 1
    assert brute_force_count(d, Assumptions.of(set(), {1})) == 0


def test_brute_force_limit():
    d = Ddnnf(kind=[NodeKind.TRUE], literal=[0], children=[()], num_variables=30, root=0)
    with pytest.raises(OracleLimitExceeded):
        brute_force_count(d)
    assert brute_force_count(d, limit=30) == 2**30


def test_assumptions_from_literals():
    a = Assumptions.from_literals([1, -3, 4])
    assert a.include == {1, 4}
    assert a.exclude == {3}
    assert not a.contradictory
    assert Assumptions.from_literals([2, -2]).contradictory


def test_topological_order_everywhere(circuits):
    for name, d in circuits.items():
        for i in d.nodes:
            assert all(c < i for c in d.children[i]), name


def test_parent_child_duality(circuits):
    # readers invert the tape's reads slot by slot, and, passing through the
    # scratch slots of wide nodes, the child relation node by node
    for name, d in circuits.items():
        link_readers(d)
        n = len(d.nodes)
        slots = n + d.scratch_slots
        reads: list[list[int]] = [[] for _ in range(slots)]
        for j, (dst, a, b) in enumerate(d.tape):
            reads[a].append(j)
            reads[b].append(j)
        assert [list(r) for r in d.readers] == reads, name
        written = [~dst if dst < 0 else dst for dst, _, _ in d.tape]
        assert list(d.writes_node) == [int(s < n) for s in written], name
        # the slots that one instruction reads share its one-element tuple
        ones: dict[int, tuple[int]] = {}
        for r in d.readers:
            if len(r) == 1:
                assert ones.setdefault(r[0], r) is r, name
        up = []
        for i in d.nodes:
            found, stack = set(), list(d.readers[i])
            while stack:
                s = written[stack.pop()]
                if s < n:
                    found.add(s)
                else:
                    stack.extend(d.readers[s])
            up.append(found)
        assert up == node_parents(d), name


def test_root_covers_all_non_omitted_variables(circuits):
    for name, d in circuits.items():
        # after pruning every node is in the root's cone
        covered = present_variables(d) | set(d.omitted)
        assert covered == set(range(1, d.num_variables + 1)), name


def test_present_variables_running_example():
    d = parse_c2d(RUNNING_EXAMPLE_C2D)
    assert present_variables(d) == {1, 2, 3, 4}


def test_mask_variables_sparse_mask():
    assert list(mask_variables(1 | 1 << 999)) == [1, 1000]
    assert list(mask_variables(0)) == []



def test_renumber_empties_preprocessed_lists(circuits):
    # leaves first is another topological order; once preprocessing refills
    # the lists, queries must not notice
    d = preprocess(parse_c2d(fixture_texts()["rand_n12a"][1]))
    queries = [Assumptions.of({v}, {v % 12 + 1}) for v in range(1, 13)]
    queries = [(a, cfg) for a in queries for cfg in (FULL, NO_PARTIAL_TRAVERSAL)]
    before = [query(d, a, cfg) for a, cfg in queries]
    table = count_all_features(d)
    assert d.feature_counts is not None
    leaves = [i for i in d.nodes if not d.children[i]]
    order = leaves + [i for i in d.nodes if d.children[i]]
    assert order != list(d.nodes)
    renumber(d, order)
    assert (d.readers, d.baseline, d.tape, d.literal_index) == ([], [], [], {})
    assert d.scratch_slots == 0 and d.writes_node == b""
    assert not d.preprocessed
    assert validate(d) == []
    preprocess(d)
    assert d.feature_counts is None
    assert all(not d.children[i] for i in range(len(leaves)))
    assert [query(d, a, cfg) for a, cfg in queries] == before
    assert count_all_features(d) == table == count_all_features(circuits["rand_n12a"])
