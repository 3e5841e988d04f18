import pytest

from ddnnf import (
    Assumptions,
    Ddnnf,
    NodeKind,
    brute_force_count,
    validate,
)
from ddnnf.core import mask_variables, present_variables, renumber
from ddnnf.engine import FULL, NO_PARTIAL_TRAVERSAL
from ddnnf.errors import OracleLimitExceeded

from conftest import UNSMOOTH_PAIR_C2D, RUNNING_EXAMPLE_C2D, fixture_texts
from helpers import node_parents
from ddnnf import count_all_features, parse_c2d, preprocess, query


def test_from_literals_reads_a_generator_once():
    a = Assumptions.from_literals(lit for lit in [1, -2])
    assert a == Assumptions.of(include={1}, exclude={2})


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
    # parents invert the tape's reads slot by slot, and, passing through the
    # scratch slots of wide nodes, the child relation node by node
    for name, d in circuits.items():
        slots = len(d.nodes) + 1 + len(d.scratch_baseline)
        assert len(d.parents) == len(d.writer) == slots, name
        assert len(d.writes_node) == len(d.tape), name
        for j, (dst, a, b) in enumerate(d.tape):
            dst = ~dst if dst < 0 else dst
            assert d.writer[dst] == j, name
            assert d.writes_node[j] == (dst < len(d.nodes)), name
            assert dst in d.parents[a] and dst in d.parents[b], name
        for s in range(slots):
            for p in d.parents[s]:
                assert s in d.tape[d.writer[p]][1:], name
        up = node_parents(d)
        for i in d.nodes:
            for c in d.children[i]:
                assert i in up[c], name
            for p in up[i]:
                assert i in d.children[p], name


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
    assert d.derivative_sums is not None
    leaves = [i for i in d.nodes if not d.children[i]]
    order = leaves + [i for i in d.nodes if d.children[i]]
    assert order != list(d.nodes)
    renumber(d, order)
    assert (d.parents, d.baseline, d.tape, d.literal_index) == ([], [], [], {})
    assert d.scratch_baseline == [] and d.writes_node == b""
    assert not d.preprocessed
    assert validate(d) == []
    preprocess(d)
    assert d.derivative_sums is None
    assert all(not d.children[i] for i in range(len(leaves)))
    assert [query(d, a, cfg) for a, cfg in queries] == before
    assert count_all_features(d) == table == count_all_features(circuits["rand_n12a"])
