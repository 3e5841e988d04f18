import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddnnf import (
    Assumptions,
    Ddnnf,
    ExhaustiveCounter,
    NodeKind,
    OptimizationConfig,
    SessionState,
    brute_force_count,
    count_all_features,
    count_feature,
    count_total,
    link_parents,
    link_readers,
    mark_ancestors,
    parse_c2d,
    parse_d4,
    preprocess,
    query,
    smooth,
    write_c2d,
)
from ddnnf.core import ORACLE_LIMIT_DEFAULT, compile_adjoint, renumber, sweep, validate
from ddnnf.engine import (
    ANCESTOR_ORDER_BUDGET,
    FULL,
    NAIVE,
    NO_CORE_DEAD,
    NO_PARTIAL_TRAVERSAL,
    VARIANTS,
    _derivatives,
)
from ddnnf.errors import DdnnfError, VariableOutOfRange

from conftest import RUNNING_EXAMPLE_C2D, fixture_texts
from helpers import (
    UNREFERENCED_C2D,
    UNREFERENCED_D4,
    c2d_to_d4,
    gadget_chain_c2d,
    random_c2d_text,
    recompute,
    shannon_chain_c2d,
    tape_nodes,
    tape_order,
    wide_c2d_text,
)

ALWAYS_PARTIAL = OptimizationConfig(traversal_bypass_fraction=1.0)


class TestCountTotal:
    def test_running_example(self, running_example):
        assert count_total(running_example) == 4

    def test_false_circuit(self, circuits):
        assert count_total(circuits["false_n2"]) == 0

    def test_unsmooth_two_branch(self, circuits):
        assert count_total(circuits["unsmooth_pair"]) == 4


class TestQuery:
    def test_feature_b_partial(self, running_example):
        result = query(running_example, Assumptions.of({2}), ALWAYS_PARTIAL)
        assert result.count == 2
        assert result.strategy == "partial"
        assert result.nodes_marked == 4
        assert len(running_example.nodes) == 12

    def test_core_shortcut(self, running_example):
        result = query(running_example, Assumptions.of({1}))
        assert result.count == 4
        assert result.strategy == "shortcut"
        assert result.nodes_visited == 0

    def test_partial_configuration(self, running_example):
        assert query(running_example, Assumptions.of({4}, {3})).count == 1

    def test_contradiction(self, running_example):
        result = query(running_example, Assumptions.of({2}, {2}))
        assert result.count == 0
        assert result.strategy == "contradiction"

    def test_two_included_conflicting(self, running_example):
        assert query(running_example, Assumptions.of({2, 3})).count == 0

    def test_variable_out_of_range(self, running_example):
        with pytest.raises(VariableOutOfRange):
            query(running_example, Assumptions.of({9}))

    def test_variables_below_one_stay_out_of_range(self, running_example):
        # an included -3 or an excluded 0 must not turn into the literal -3
        # or 0 that the conversion to signed literals would make of them
        for a in (
            Assumptions.of(include={-3}),
            Assumptions.of(exclude={-3}),
            Assumptions.of(exclude={0}),
            Assumptions.of(include={2}, exclude={0}),
        ):
            with pytest.raises(VariableOutOfRange):
                query(running_example, a)

    def test_literals_and_assumptions_agree(self, running_example):
        # query takes signed literals as well, repeats allowed
        for literals in ([4, -3], [2, 2], [2, -2], [-1], [1, 4, 4, -3]):
            a = Assumptions.from_literals(literals)
            assert query(running_example, literals) == query(running_example, a)
        for literals in ([0], [2, 5], [-5]):
            with pytest.raises(VariableOutOfRange):
                query(running_example, literals)

    def test_dead_shortcut(self, circuits):
        d = circuits["single_neg"]
        result = query(d, Assumptions.of({1}))
        assert result.count == 0 and result.strategy == "shortcut"

    def test_core_excluded_shortcut(self, running_example):
        result = query(running_example, Assumptions.of(set(), {1}))
        assert result.count == 0 and result.strategy == "shortcut"

    def test_omitted_variable_halves(self, circuits):
        d = circuits["single_omitted"]  # count 4 with two omitted variables
        assert query(d, Assumptions.of({2})).count == 2
        assert query(d, Assumptions.of({2}, {3})).count == 1
        assert query(d, Assumptions.of(set(), {2})).count == 2

    def test_empty_assumptions_is_shortcut(self, running_example):
        result = query(running_example, Assumptions())
        assert result.count == 4 and result.nodes_visited == 0


class TestCountFeature:
    def test_running_example(self, running_example):
        assert count_feature(running_example, 2) == 2
        assert count_feature(running_example, 3) == 2

    def test_dead_feature(self, circuits):
        assert count_feature(circuits["single_neg"], 1) == 0

    def test_out_of_range(self, running_example):
        with pytest.raises(VariableOutOfRange):
            count_feature(running_example, 0)


# Circuits for the tape's corner cases: (format, text, num_variables).
TAPE_CIRCUITS = {
    # x1 under a one-child And, and (x2 or not x2) under a one-child Or
    "one_child_nodes": (
        "c2d", "nnf 7 6 2\nL 1\nA 1 0\nL 2\nL -2\nO 2 2 2 3\nO 0 1 4\nA 2 1 5\n", None,
    ),
    # the root is a one-child And over a one-child Or
    "one_child_root": ("c2d", "nnf 5 4 2\nL 1\nL 2\nA 2 0 1\nO 0 1 2\nA 1 3\n", None),
    # a four-child Or over the cells of x1, x2 under a three-child And
    "wide_nodes": (
        "c2d",
        "nnf 14 17 4\nL 1\nL -1\nL 2\nL -2\nL 3\nL 4\nL -3\nA 2 0 2\nA 2 0 3\n"
        "A 2 1 2\nA 2 1 3\nO 0 4 7 8 9 10\nO 3 2 4 6\nA 3 11 12 5\n",
        None,
    ),
    # a five-child And with two False children, first and fourth
    "false_in_wide_and": (
        "c2d",
        "nnf 9 12 3\nL 1\nL 2\nO 0 0\nL 3\nO 0 0\nA 5 2 0 1 4 3\nL -1\nA 3 6 1 3\n"
        "O 1 2 5 7\n",
        None,
    ),
    # d4 nodes without edges: an empty And is True, an empty Or is False
    "childless_nodes": ("d4", "o 1 0\na 2 0\no 3 0\n1 2 1 0\n1 3 0\n", 1),
    # the same circuit built directly, with a childless And and a childless
    # Or, which no parser returns but a library caller may build
    "childless_and_or": (
        "built",
        lambda: Ddnnf(
            [NodeKind.AND, NodeKind.LITERAL, NodeKind.AND, NodeKind.OR, NodeKind.OR],
            [0, 1, 0, 0, 0],
            [(), (), (0, 1), (), (2, 3)],
            1,
            root=4,
        ),
        None,
    ),
    # x1 and x2 and False and x3, or not x1 and (x2 or not x2) and x3: the
    # False child zeroes the wide And's chain after x1, whose count is 0
    "one_false_in_wide_and": (
        "c2d",
        "nnf 10 11 3\nL 1\nL 2\nO 0 0\nL 3\nA 4 0 1 2 3\nL -1\nL -2\nO 2 2 1 6\n"
        "A 3 5 7 3\nO 1 2 4 8\n",
        None,
    ),
    # the root is a leaf, so the tape is empty; x1 is omitted
    "leaf_root": ("c2d", "nnf 1 0 2\nL -2\n", None),
}


def _assert_tape_structure(d):
    """Every slot is written once, and only after what it reads, and each
    node's instructions form a balanced binary tree over its children."""
    n = len(d.nodes)
    inner = [
        i for i in d.nodes
        if d.kind[i] in (NodeKind.AND, NodeKind.OR) and d.children[i]
    ]
    widths = [len(d.children[i]) for i in inner]
    # no node has one child, and a k-child node takes k - 1 instructions,
    # k - 2 of them into scratch slots numbered after the nodes
    assert 1 not in widths
    assert len(d.tape) == sum(k - 1 for k in widths)
    assert d.scratch_slots == sum(k - 2 for k in widths)
    scratch = range(n, n + d.scratch_slots)
    childless = {i for i in d.nodes if not d.children[i]}
    written = set()
    for dst, a, b in d.tape:
        for operand in (a, b):
            assert operand in childless or operand in written
        dst = ~dst if dst < 0 else dst
        assert dst not in written
        written.add(dst)
    assert written == set(inner) | set(scratch)
    # each node's instructions run together and end with the node; inside
    # them every scratch slot is read once, the operands left over are the
    # node's children, and the tree is ⌈log2 k⌉ deep for k children
    group = []
    for instruction in d.tape:
        group.append(instruction)
        dst = instruction[0]
        slot = ~dst if dst < 0 else dst
        if slot >= n:
            continue
        ch = d.children[slot]
        depth, unread, leaves = {}, set(), []
        for g_dst, a, b in group:
            assert (g_dst < 0) == (dst < 0)  # one operation throughout
            for operand in (a, b):
                if operand in unread:
                    unread.remove(operand)
                else:
                    leaves.append(operand)
            g_slot = ~g_dst if g_dst < 0 else g_dst
            depth[g_slot] = 1 + max(depth.get(a, 0), depth.get(b, 0))
            unread.add(g_slot)
        assert unread == {slot}
        assert sorted(leaves) == sorted(ch), slot
        assert depth[slot] == (len(ch) - 1).bit_length(), slot
        group = []
    assert group == []


def _tape_circuit(name):
    fmt, text, n = TAPE_CIRCUITS[name]
    if fmt == "built":
        return preprocess(text())
    return preprocess(parse_c2d(text) if fmt == "c2d" else parse_d4(text, n))


class TestCountAllFeatures:
    def test_running_example(self, running_example):
        assert count_all_features(running_example) == [(1, 4), (2, 2), (3, 2), (4, 2)]

    def test_false_circuit(self, circuits):
        assert count_all_features(circuits["false_n2"]) == [(1, 0), (2, 0)]

    def test_true_omitted(self, circuits):
        d = circuits["true_omitted3"]
        assert count_all_features(d) == [(1, 4), (2, 4), (3, 4)]

    def test_fixtures_match_per_feature_queries(self, circuits):
        extra = [preprocess(parse_c2d(text)) for text, _, _ in UNREFERENCED_C2D]
        extra.append(preprocess(parse_d4(UNREFERENCED_D4, 2)))
        cases = list(circuits.values()) + extra
        # the cases reach every shortcut of the table and a False leaf
        assert all(any(getattr(d, kind) for d in cases) for kind in ("core", "dead", "omitted"))
        assert any(NodeKind.FALSE in d.kind for d in cases)
        for d in cases:
            _assert_table_exact(d)

    @pytest.mark.parametrize("name", sorted(TAPE_CIRCUITS))
    def test_tape_corner_cases(self, name):
        d = _tape_circuit(name)
        _assert_table_exact(d)
        # a second table, after the first stored its sums
        _assert_table_exact(d)

    def test_leaf_root_has_empty_tape(self):
        d = _tape_circuit("leaf_root")
        assert d.tape == [] and d.scratch_slots == 0
        assert count_all_features(d) == [(1, 1), (2, 0)]

    @pytest.mark.parametrize("name", ["childless_nodes", "childless_and_or"])
    def test_childless_or_reads_as_false(self, name):
        # x1 and <empty And>, or <empty Or>: the empty Or counts 0, so its
        # sibling needs no gadget; folding drops the True operand, the False
        # operand and the two one-child nodes they leave, so x1 is all that
        # remains
        if name == "childless_and_or":
            assert validate(TAPE_CIRCUITS[name][1]()) == []
        d = _tape_circuit(name)
        assert d.kind == [NodeKind.LITERAL] and d.root == 0 and d.tape == []
        assert validate(d) == []
        assert count_total(d) == 1
        assert count_all_features(d) == [(1, 1)]

    def test_deep_chain_known_answer(self):
        # the per-feature path takes tens of seconds here, so compare to 2**2999
        d = preprocess(parse_c2d(gadget_chain_c2d(3000)))
        assert count_all_features(d) == [(v, 2**2999) for v in range(1, 3001)]

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.sampled_from([4, 8, 14, 24, 60]),
        omit=st.integers(0, 3),
        d4=st.booleans(),
    )
    def test_random_circuits_match_per_feature_queries(self, seed, n, omit, d4):
        text = random_c2d_text(seed, n, omit=omit, tree_budget=400)
        d = parse_d4(c2d_to_d4(text), n) if d4 else parse_c2d(text)
        _assert_table_exact(preprocess(d))


def _assert_adjoint_structure(d):
    """The adjoint program hands derivatives from the root down exactly the
    slots whose cones hold a negative literal, with the multipliers of the
    values under no assumptions, and holds no int the tape, the values or
    the root do not already hold."""
    program = compile_adjoint(d)
    values = d.baseline
    # the slots whose cones hold a negative literal, by a forward scan
    wanted = {i for lit, i in d.literal_index.items() if lit < 0}
    operands = {}  # slot -> (is an Or, first operand, second operand)
    for dst, a, b in d.tape:
        slot = ~dst if dst < 0 else dst
        operands[slot] = (dst < 0, a, b)
        if a in wanted or b in wanted:
            wanted.add(slot)
    known = {id(x) for t in d.tape for x in t}
    known |= {id(x) for x in values} | {id(d.root), id(-1), id(1)}
    reached = {d.root}
    kept = set()
    for instruction in program:
        assert all(id(x) in known for x in instruction), instruction
        dst, a, ma, b, mb = instruction
        assert dst in reached and dst not in kept
        kept.add(dst)
        is_or, x, y = operands[dst]
        handed = [(a, ma)] + ([(b, mb)] if b >= 0 else [])
        assert sorted(c for c, _ in handed) == sorted(c for c in (x, y) if c in wanted)
        for c, m in handed:
            assert m == (1 if is_or else values[y if c == x else x])
            reached.add(c)
        assert b >= 0 or mb == 1
    assert kept == {s for s in operands if s in wanted and s in reached}
    return program


def _with_core_and_dead(text):
    """The c2d circuit conjoined with ``x(n+1)`` and ``-x(n+2)``, over n + 2
    variables, so it has a core and a dead variable besides its own."""
    header, *records = text.splitlines()
    _, _, edges, n = header.split()
    n, root = int(n), len(records) - 1
    records += [f"L {n + 1}", f"L {-(n + 2)}", f"A 3 {root} {root + 1} {root + 2}"]
    return f"nnf {len(records)} {int(edges) + 3} {n + 2}\n" + "\n".join(records) + "\n"


class TestAdjointProgram:
    """The backward pass runs a program the first table compiles; every
    exact-table check also checks its structure (_assert_table_exact)."""

    def test_no_negative_literal_gives_empty_program(self):
        # x1 and (x2 and True), which folds to x1 and x2: nothing is ever
        # summed, so nothing is kept
        d = preprocess(parse_c2d("nnf 5 4 2\nL 1\nL 2\nA 0\nA 2 1 2\nA 2 0 3\n"))
        assert d.tape == [(2, 0, 1)] and _assert_adjoint_structure(d) == []
        assert count_all_features(d) == [(1, 1), (2, 1)]
        assert d.adjoint == [] and d.feature_counts == [1, 1]

    def test_negative_literal_root(self):
        # the root's own derivative is the sum, with no instruction to run
        d = preprocess(parse_c2d("nnf 1 0 1\nL -1\n"))
        assert d.tape == [] and _assert_adjoint_structure(d) == []
        assert count_all_features(d) == [(1, 0)]
        assert d.adjoint == [] and _derivatives(d) == [1]
        assert d.feature_counts == [0]
        assert count_feature(d, 1) == 0

    def test_false_operand_gives_zero_multiplier(self):
        # (not x1 and False) or x1: the And hands not x1 its derivative times
        # the False leaf's value 0; x1 needs no derivative
        d = preprocess(parse_c2d("nnf 5 4 1\nL -1\nO 0 0\nA 2 0 1\nL 1\nO 1 2 2 3\n"))
        assert len(d.nodes) == 5 and d.kind[1] is NodeKind.FALSE
        assert _assert_adjoint_structure(d) == [(4, 2, 1, -1, 1), (2, 0, 0, -1, 1)]
        _assert_table_exact(d)
        assert _derivatives(d)[d.literal_index[-1]] == 0
        assert d.feature_counts == [1]

    def test_only_tables_build_the_program(self):
        # set-up, queries and lookups before a table never pay for it
        d = preprocess(parse_c2d(fixture_texts()["rand_n12a"][1]))
        query(d, Assumptions.of({1}, {2}), NO_PARTIAL_TRAVERSAL)
        query(d, Assumptions.of({1}), ALWAYS_PARTIAL)
        count_feature(d, 3)
        assert d.adjoint is None
        count_all_features(d)
        assert d.adjoint is not None
        # the program is call history, which equality ignores
        assert d == preprocess(parse_c2d(fixture_texts()["rand_n12a"][1]))


class TestFeatureLookups:
    """count_feature reads the feature counts a table caches on the circuit."""

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.sampled_from([4, 8, 14, 20]),
        omit=st.integers(1, 3),
        d4=st.booleans(),
        data=st.data(),
    )
    def test_lookups_match_oracle_query_and_table(self, seed, n, omit, d4, data):
        text = _with_core_and_dead(random_c2d_text(seed, n, omit=omit, tree_budget=400))
        n += 2
        d = preprocess(parse_d4(c2d_to_d4(text), n) if d4 else parse_c2d(text))
        assert d.omitted and {n - 1} <= d.core and {n} <= d.dead
        variables = range(1, n + 1)
        # a lookup before any table is a partial query and fills nothing
        before = [count_feature(d, v) for v in variables]
        assert d.feature_counts is None
        table = count_all_features(d)
        assert d.feature_counts == before
        lookups = [count_feature(d, v) for v in variables]
        assert lookups == before
        assert table == list(zip(variables, lookups))
        oracle = ExhaustiveCounter(d)
        for v in variables:
            a = Assumptions.of({v})
            assert lookups[v - 1] == oracle.count(a) == query(d, a).count, v

        # re-rooting renumbers; the second preprocess must not read the old counts
        inner = [i for i in d.nodes if d.children[i] and i != d.root]
        if inner:
            d.root = data.draw(st.sampled_from(inner))
            fresh = preprocess(parse_c2d(write_c2d(d)))
            preprocess(d)
            assert count_all_features(d) == count_all_features(fresh)
            want = [count_feature(fresh, v) for v in variables]
            assert [count_feature(d, v) for v in variables] == want
            oracle = ExhaustiveCounter(fresh)
            assert want == [oracle.count(Assumptions.of({v})) for v in variables]

    def test_reroot_does_not_read_stale_sums(self):
        # the running example's left Or, (B and not C) or (not B and C), as
        # the root: A and D become omitted, and B counts 1 * 4.  The old
        # counts would give 2 for B.
        d = preprocess(parse_c2d(RUNNING_EXAMPLE_C2D))
        assert count_all_features(d) == [(1, 4), (2, 2), (3, 2), (4, 2)]
        d.root = next(
            i for i in d.nodes
            if d.kind[i] is NodeKind.OR and d.decision[i] == 0
        )
        preprocess(d)
        assert count_all_features(d) == [(1, 4), (2, 4), (3, 4), (4, 4)]
        assert count_feature(d, 2) == 4

    def test_preprocess_drops_sums_without_renumber(self):
        # x1 and (x2 or not x2); swapping the names x1 and x2 changes the
        # table but keeps every node, and the circuit smooth, folded and
        # merged, so nothing renumbers.  The old counts would give x1 2.
        d = preprocess(parse_c2d("nnf 5 4 2\nL 1\nL 2\nL -2\nO 2 2 1 2\nA 2 0 3\n"))
        assert count_all_features(d) == [(1, 2), (2, 1)]
        assert d.feature_counts == [2, 1]
        children = d.children
        d.literal[:3] = [2, 1, -1]
        preprocess(d)
        assert d.children is children
        assert d.adjoint is None and d.feature_counts is None
        assert count_feature(d, 1) == 1
        want = preprocess(parse_c2d("nnf 5 4 2\nL 2\nL 1\nL -1\nO 1 2 1 2\nA 2 0 3\n"))
        assert count_all_features(d) == count_all_features(want) == [(1, 1), (2, 2)]
        assert d.feature_counts == [1, 2]

    def test_table_fills_one_sum_per_negative_literal(self):
        # the program leaves a derivative at every negative literal's node;
        # A is core, so -1 labels no node, and its count needs none
        d = preprocess(parse_c2d(RUNNING_EXAMPLE_C2D))
        count_all_features(d)
        derivative = _derivatives(d)
        assert sorted(-lit for lit in d.literal_index if lit < 0) == [2, 3, 4]
        # forcing -2 to zero removes the two models with not B
        assert derivative[d.literal_index[-2]] == 2
        assert d.feature_counts == [4, 2, 2, 2]

    def test_every_table_takes_the_sweep(self):
        # a later table runs the program the first one compiled and stores
        # fresh, equal counts instead of reading the stored ones
        d = preprocess(parse_c2d(RUNNING_EXAMPLE_C2D))
        table = count_all_features(d)
        first, program = d.feature_counts, d.adjoint
        want = list(table)
        # a returned table is the caller's: mutating it changes neither
        # later lookups nor the next table
        table[1] = (2, 99)
        table.append((5, 1))
        assert [count_feature(d, v) for v in range(1, 5)] == [4, 2, 2, 2]
        assert count_all_features(d) == want
        assert d.feature_counts == first and d.feature_counts is not first
        assert d.adjoint is program

    def test_requires_preprocessing(self):
        d = parse_c2d(RUNNING_EXAMPLE_C2D)
        with pytest.raises(DdnnfError):
            count_feature(d, 2)
        with pytest.raises(DdnnfError):
            count_all_features(d)

    @pytest.mark.parametrize("v", [0, 5, -2])
    def test_out_of_range(self, v):
        d = preprocess(parse_c2d(RUNNING_EXAMPLE_C2D))
        with pytest.raises(VariableOutOfRange):
            count_feature(d, v)
        count_all_features(d)
        with pytest.raises(VariableOutOfRange):
            count_feature(d, v)


def test_concurrent_first_tables_fill_one_cache(circuits):
    # tables racing on an empty cache each store one complete, correct
    # counts list, and lookups racing with them read either the counts or a
    # partial query
    from concurrent.futures import ThreadPoolExecutor

    text = fixture_texts()["rand_n24"][1]
    reference = circuits["rand_n24"]
    want = count_all_features(reference)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            d = preprocess(parse_c2d(text))
            with ThreadPoolExecutor(max_workers=8) as pool:
                tables = [pool.submit(count_all_features, d) for _ in range(4)]
                lookups = [pool.submit(count_feature, d, v) for v in range(1, 25)]
                assert [f.result(timeout=60) for f in tables] == [want] * 4
                assert [f.result(timeout=60) for f in lookups] == [c for _, c in want]
            assert d.feature_counts == [c for _, c in want]
            assert count_all_features(d) == want
            assert d.adjoint == compile_adjoint(d)
    finally:
        sys.setswitchinterval(interval)


def _assert_table_exact(d):
    """The table equals per-feature queries, and the oracle where it fits."""
    table = count_all_features(d)
    assert d.adjoint == _assert_adjoint_structure(d)
    variables = range(1, d.num_variables + 1)
    assert table == [(v, query(d, Assumptions.of({v})).count) for v in variables]
    if d.num_variables <= ORACLE_LIMIT_DEFAULT:
        oracle = ExhaustiveCounter(d)
        assert table == [(v, oracle.count(Assumptions.of({v}))) for v in variables]


class TestMarkAncestors:
    """Marking returns the tape instructions a forward scan finds."""

    def test_running_example(self, running_example):
        marked = mark_ancestors(running_example, {-2})
        assert marked == set(tape_order(running_example, {-2}))
        assert len(tape_nodes(running_example, {-2})) == 4

    def test_empty(self, running_example):
        assert mark_ancestors(running_example, set()) == set()

    def test_shared_subtree_marks_both_parents(self, circuits):
        d = circuits["shared_subtree"]
        shared = next(
            i for i in d.nodes
            if d.kind[i] is NodeKind.OR
            and sorted(d.literal[c] for c in d.children[i]) == [-3, 3]
        )
        marked = mark_ancestors(d, {-3})
        assert marked == set(tape_order(d, {-3}))
        assert len(d.readers[shared]) == 2
        for j in d.readers[shared]:
            assert j in marked

    def test_monotone(self, running_example):
        small = mark_ancestors(running_example, {-2})
        large = mark_ancestors(running_example, {-2, 3})
        assert small <= large == set(tape_order(running_example, {-2, 3}))


def _assert_orders_exact(d):
    """Every stored order holds the tape instructions that depend on its
    literal, found by a forward scan of the tape, and the nodes marking
    reaches; the count adds the orders up."""
    for lit, (order, marked) in d.ancestor_orders.items():
        assert order.typecode == "i"
        assert list(order) == tape_order(d, (lit,)), lit
        assert marked == len(tape_nodes(d, (lit,))), lit
    assert d.ancestor_entries == sum(len(order) for order, _ in d.ancestor_orders.values())
    assert d.ancestor_entries <= ANCESTOR_ORDER_BUDGET * _slots(d)


def _slots(d):
    """The tape's slot count, the unit of the order budget."""
    return len(d.nodes) + d.scratch_slots


@pytest.fixture()
def mark_calls(monkeypatch):
    """The literal sets the engine marks, through the name a tracer wraps."""
    import ddnnf.engine

    calls = []
    marking = ddnnf.engine.mark_ancestors
    monkeypatch.setattr(
        ddnnf.engine, "mark_ancestors",
        lambda d, literals: calls.append(set(literals)) or marking(d, literals),
    )
    return calls


class TestAncestorOrders:
    """One-literal partial queries keep their literal's order on the circuit."""

    def test_miss_marks_and_stores_hit_reads(self, mark_calls):
        d = preprocess(parse_c2d(RUNNING_EXAMPLE_C2D))
        assert d.ancestor_orders == {} and d.ancestor_entries == 0
        first = query(d, Assumptions.of({2}), ALWAYS_PARTIAL)
        assert mark_calls == [{-2}]
        assert list(d.ancestor_orders) == [-2]
        order = d.ancestor_orders[-2]
        assert query(d, Assumptions.of({2}), ALWAYS_PARTIAL) == first
        assert mark_calls == [{-2}]  # the hit marks nothing
        assert d.ancestor_orders[-2] is order
        _assert_orders_exact(d)

    def test_multi_literal_resets_mark_and_store_nothing(self, mark_calls):
        d = preprocess(parse_c2d(RUNNING_EXAMPLE_C2D))
        for _ in range(2):
            result = query(d, Assumptions.of({2}, {4}), ALWAYS_PARTIAL)
            assert result.count == 1 and result.strategy == "partial"
        assert mark_calls == [{-2, 4}, {-2, 4}]
        assert d.ancestor_orders == {} and d.ancestor_entries == 0

    def test_visits_equal_marking(self, circuits):
        # the reported work does not depend on whether the orders were cached:
        # at each v, a pair of v + 1 and v + 2 finds neither cached, v's
        # literals miss and then hit, a pair of v - 1 and v finds both cached,
        # and a pair of v and v + 1 finds v cached and v + 1 not yet (where
        # the budget allowed the stores)
        for name, d in circuits.items():
            n = d.num_variables
            for v in range(1, n + 1):
                cases = [Assumptions.of({v + 1, v + 2})] if v + 2 <= n else []
                cases += [Assumptions.of({v}), Assumptions.of(set(), {v})]
                for w in (v - 1, v + 1):
                    if 1 <= w <= n:
                        cases += [
                            Assumptions.of({v, w}), Assumptions.of(set(), {v, w}),
                            Assumptions.of({v}, {w}), Assumptions.of({w}, {v}),
                        ]
                for a in cases:
                    zero = {-u for u in a.include} | set(a.exclude)
                    for _ in range(2):  # a miss, then a hit where stored
                        result = query(d, a, ALWAYS_PARTIAL)
                        if result.strategy != "partial":
                            continue
                        want = len(tape_nodes(d, zero))
                        assert result.nodes_visited == result.nodes_marked == want, (name, a)
            _assert_orders_exact(d)

    def test_all_cached_resets_mark_nothing(self, mark_calls):
        d = preprocess(parse_c2d(RUNNING_EXAMPLE_C2D))
        query(d, Assumptions.of({2}), ALWAYS_PARTIAL)
        query(d, Assumptions.of(set(), {4}), ALWAYS_PARTIAL)
        assert mark_calls == [{-2}, {4}]
        stored = dict(d.ancestor_orders)
        result = query(d, Assumptions.of({2}, {4}), ALWAYS_PARTIAL)
        assert result.count == 1 and result.strategy == "partial"
        assert result.nodes_marked == result.nodes_visited == len(tape_nodes(d, {-2, 4}))
        assert mark_calls == [{-2}, {4}]  # the union of the two cached orders
        assert d.ancestor_orders == stored
        _assert_orders_exact(d)

    def test_one_uncached_literal_is_marked_alone_and_stored(self, mark_calls):
        d = preprocess(parse_c2d(RUNNING_EXAMPLE_C2D))
        query(d, Assumptions.of({2}), ALWAYS_PARTIAL)
        result = query(d, Assumptions.of({2}, {4}), ALWAYS_PARTIAL)
        assert result.count == 1 and result.strategy == "partial"
        assert result.nodes_marked == result.nodes_visited == len(tape_nodes(d, {-2, 4}))
        assert mark_calls == [{-2}, {4}]
        assert sorted(d.ancestor_orders) == [-2, 4]
        _assert_orders_exact(d)

    def test_one_uncached_literal_past_the_budget_stores_nothing(self, mark_calls, monkeypatch):
        import ddnnf.engine

        d = preprocess(parse_c2d(RUNNING_EXAMPLE_C2D))
        query(d, Assumptions.of({2}), ALWAYS_PARTIAL)
        budget = d.ancestor_entries / _slots(d)  # spent
        monkeypatch.setattr(ddnnf.engine, "ANCESTOR_ORDER_BUDGET", budget)
        for _ in range(2):  # nothing stored, so it marks again
            result = query(d, Assumptions.of({2}, {4}), ALWAYS_PARTIAL)
            assert result.count == 1 and result.strategy == "partial"
            assert result.nodes_marked == len(tape_nodes(d, {-2, 4}))
        assert mark_calls == [{-2}, {4}, {4}]
        assert list(d.ancestor_orders) == [-2]
        _assert_orders_exact(d)

    def test_uncached_stateless_query_marks_once(self, mark_calls):
        # marking each of k uncached literals alone, to store its order, would
        # climb their shared ancestors k times: a one-shot --config query
        # marks its zero set once, and so does a reset with two or more
        # uncached literals beside cached ones
        d = preprocess(parse_c2d(fixture_texts()["rand_n24"][1]))
        free = [v for v in range(1, 25) if v not in d.core | d.dead | d.omitted]
        zero = {-v for v in free[:4]}
        a = Assumptions.of(set(free[:4]))
        want = query(d, a, NO_PARTIAL_TRAVERSAL).count
        result = query(d, a, ALWAYS_PARTIAL)
        assert result.count == want and result.strategy == "partial"
        assert mark_calls == [zero]
        assert d.ancestor_orders == {}
        query(d, Assumptions.of({free[0]}), ALWAYS_PARTIAL)
        del mark_calls[:]
        result = query(d, a, ALWAYS_PARTIAL)
        assert result.count == want
        assert result.nodes_marked == len(tape_nodes(d, zero))
        assert mark_calls == [zero]
        assert list(d.ancestor_orders) == [-free[0]]
        _assert_orders_exact(d)

    def test_preprocess_after_edit_empties_the_cache(self):
        # re-rooting at the running example's left Or renumbers the nodes, so
        # a kept order would recompute the wrong ones
        d = preprocess(parse_c2d(RUNNING_EXAMPLE_C2D))
        for v in (2, 3, 4):
            query(d, Assumptions.of({v}), ALWAYS_PARTIAL)
        assert sorted(d.ancestor_orders) == [-4, -3, -2]
        d.root = next(
            i for i in d.nodes
            if d.kind[i] is NodeKind.OR and d.decision[i] == 0
        )
        preprocess(d)
        assert d.ancestor_orders == {} and d.ancestor_entries == 0
        want = preprocess(parse_c2d(write_c2d(d)))
        for v in (2, 3, 4):
            for a in (Assumptions.of({v}), Assumptions.of(set(), {v})):
                assert query(d, a, ALWAYS_PARTIAL).count == query(want, a).count, a
        _assert_orders_exact(d)

    def test_deep_chain_stays_within_budget(self):
        # 300 Shannon levels are 900 deep: keeping every literal's order would
        # take about 180 entries per node, so the budget of 32 stops the stores
        k = 300
        d = preprocess(parse_c2d(shannon_chain_c2d(k)))
        every = sum(len(tape_order(d, (lit,))) for lit in d.literal_index)
        assert every > 4 * ANCESTOR_ORDER_BUDGET * len(d.nodes)
        for v in range(1, k + 1):
            for a in (Assumptions.of({v}), Assumptions.of(set(), {v})):
                result = query(d, a, ALWAYS_PARTIAL)
                assert result.count == 2 ** (k - 1) and result.strategy == "partial"
        assert 0 < len(d.ancestor_orders) < len(d.literal_index)
        _assert_orders_exact(d)
        # a miss past the budget still answers exactly, and stores nothing
        stored = dict(d.ancestor_orders)
        for v in range(1, k + 1):
            assert query(d, Assumptions.of(set(), {v}), ALWAYS_PARTIAL).count == 2 ** (k - 1)
        assert d.ancestor_orders == stored

    @pytest.mark.parametrize("name", ["rand_n24", "chain"])
    def test_racing_misses_leave_complete_orders(self, name):
        # threads racing one-literal stateless queries on an empty cache each
        # answer exactly, and leave complete orders whose count adds up.  So
        # do two-literal ones whose first literal is cached: each marks and
        # stores its second literal, racing the others and the one-literal
        # misses on it
        from concurrent.futures import ThreadPoolExecutor

        text = shannon_chain_c2d(80) if name == "chain" else fixture_texts()[name][1]
        reference = preprocess(parse_c2d(text))
        n = reference.num_variables
        cases = []
        for v in range(1, n + 1):
            if v % 2 == 0:  # just before the one-literal misses on v
                cases += [Assumptions.of({v - 1}, {v}), Assumptions.of(set(), {v - 1, v})]
            cases += [Assumptions.of({v}), Assumptions.of(set(), {v})]
        want = [query(reference, a, NO_PARTIAL_TRAVERSAL).count for a in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                d = preprocess(parse_c2d(text))
                for v in range(1, n, 2):  # the pairs' first literals, cached
                    query(d, Assumptions.of({v}), ALWAYS_PARTIAL)
                    query(d, Assumptions.of(set(), {v}), ALWAYS_PARTIAL)
                with ThreadPoolExecutor(max_workers=8) as pool:
                    # each literal three times running, so its misses race
                    futures = [
                        pool.submit(query, d, a, ALWAYS_PARTIAL)
                        for a in cases for _ in range(3)
                    ]
                    counts = [f.result(timeout=60).count for f in futures]
                assert counts == [c for c in want for _ in range(3)]
                assert d.ancestor_orders
                if name == "chain":  # every order would take ~48 entries per node
                    assert len(d.ancestor_orders) < len(d.literal_index)
                _assert_orders_exact(d)
        finally:
            sys.setswitchinterval(interval)


def _order_circuit(source: str, seed: int):
    """A generator circuit (``c2d``), its d4 twin, or a wide-node circuit."""
    n = 12 if source != "wide" else 24
    if source == "wide":
        text = wide_c2d_text(seed, n)
    else:
        text = random_c2d_text(seed, n, tree_budget=400)
    return preprocess(parse_d4(c2d_to_d4(text), n) if source == "d4" else parse_c2d(text))


@settings(max_examples=60, deadline=None)
@given(
    source=st.sampled_from(["c2d", "d4", "wide"]),
    seed=st.integers(0, 10_000),
    uncached=st.sampled_from(["none", "one", "several"]),
    data=st.data(),
)
def test_multi_literal_orders_match_a_forward_scan(source, seed, uncached, data):
    import ddnnf.engine

    # a reset of two to six literals runs the union of their cached orders
    # (none uncached), marks the one uncached literal alone and takes the
    # union (one), or marks them all together (several).  Each way, the
    # instructions it runs are the ones a forward scan of the tape finds,
    # and it reports the nodes that scan reaches
    d = _order_circuit(source, seed)
    free = [v for v in range(1, d.num_variables + 1) if v not in d.core | d.dead | d.omitted]
    if len(free) < 2:
        return
    k = data.draw(st.integers(2, min(6, len(free))))
    chosen = data.draw(st.lists(st.sampled_from(free), min_size=k, max_size=k, unique=True))
    delta = [v if data.draw(st.booleans()) else -v for v in chosen]  # the zero literals
    a = Assumptions.of({-lit for lit in delta if lit < 0}, {lit for lit in delta if lit > 0})
    if uncached == "several":
        missing = data.draw(st.integers(2, k))
    else:
        missing = 0 if uncached == "none" else 1
    cached = delta[missing:]
    for lit in cached:  # a one-literal reset stores its literal's order
        one = Assumptions.of({-lit}) if lit < 0 else Assumptions.of(set(), {lit})
        query(d, one, ALWAYS_PARTIAL)
    assert sorted(d.ancestor_orders) == sorted(cached)
    ran = []

    def recording_sweep(instructions, values):
        ran.append(list(instructions))
        sweep(ran[-1], values)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ddnnf.engine, "sweep", recording_sweep)
        result = query(d, a, ALWAYS_PARTIAL)
    assert result.strategy == "partial"
    assert ran == [[d.tape[j] for j in tape_order(d, delta)]]
    assert result.nodes_marked == result.nodes_visited == len(tape_nodes(d, delta))
    assert result.count == query(d, a, NO_PARTIAL_TRAVERSAL).count
    stored = cached + delta[:1] if missing == 1 else cached
    assert sorted(d.ancestor_orders) == sorted(stored)
    _assert_orders_exact(d)


def _unlinked(d) -> bool:
    return d.readers == [] and d.writes_node == b""


def _graph(d):
    return d.readers, d.writes_node


def _partial_cases(n):
    """One and two literals per variable: with n >= 10 every reset that
    is not a shortcut takes the partial rung under FULL."""
    return [
        a
        for v in range(1, n + 1)
        for a in (
            Assumptions.of({v}),
            Assumptions.of(set(), {v}),
            Assumptions.of({v}, {v % n + 1}),
        )
    ]


class TestReaderGraph:
    """Only the partial rung reads readers and writes_node, so the first
    partial-rung use links them, once."""

    TEXT = fixture_texts()["rand_n12a"][1]

    def test_setup_counts_tables_lookups_and_full_sweeps_leave_it_unlinked(
        self, reader_links
    ):
        d = preprocess(parse_c2d(self.TEXT))
        assert _unlinked(d)
        count_total(d)
        count_all_features(d)
        for v in range(1, d.num_variables + 1):
            count_feature(d, v)  # after a table, a dict read
        state = SessionState()
        for a in _partial_cases(d.num_variables):
            query(d, a, NO_PARTIAL_TRAVERSAL)
            query(d, a, NO_PARTIAL_TRAVERSAL, state)
        assert _unlinked(d) and reader_links == []

    def test_first_partial_query_links_it_once(self, reader_links):
        d = preprocess(parse_c2d(self.TEXT))
        cases = _partial_cases(d.num_variables)
        want = [query(d, a, NO_PARTIAL_TRAVERSAL).count for a in cases]
        results = [query(d, a) for a in cases]
        assert [r.count for r in results] == want
        assert [r.strategy for r in results].count("partial") > len(cases) // 2
        assert reader_links == [d] and not _unlinked(d)

    def test_racing_first_partial_queries_link_one_graph(self, reader_links):
        from concurrent.futures import ThreadPoolExecutor

        reference = preprocess(parse_c2d(self.TEXT))
        cases = _partial_cases(reference.num_variables)
        want = [query(reference, a, NO_PARTIAL_TRAVERSAL).count for a in cases]
        link_readers(reference)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                d = preprocess(parse_c2d(self.TEXT))
                reader_links.clear()
                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [pool.submit(query, d, a) for a in cases for _ in range(3)]
                    counts = [f.result(timeout=60).count for f in futures]
                assert counts == [c for c in want for _ in range(3)]
                assert reader_links == [d]
                assert _graph(d) == _graph(reference)
                _assert_orders_exact(d)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("step", ["smooth", "renumber", "link_parents"])
    def test_steps_that_rewrite_the_tape_drop_it(self, step, reader_links):
        d = preprocess(parse_c2d(self.TEXT))
        cases = _partial_cases(d.num_variables)
        want = [query(d, a, NO_PARTIAL_TRAVERSAL).count for a in cases]
        assert [query(d, a).count for a in cases] == want
        assert not _unlinked(d) and d.ancestor_orders
        if step == "smooth":
            # a smooth circuit: nothing changes, the tape's indexes included
            readers, orders = d.readers, d.ancestor_orders
            smooth(d)
            assert d.readers is readers and d.ancestor_orders is orders
            assert [query(d, a).count for a in cases] == want
            assert reader_links == [d]
            return
        if step == "renumber":
            renumber(d, list(d.nodes))
        else:
            link_parents(d)
        # the graph and the orders index one tape and go together
        assert _unlinked(d) and d.ancestor_orders == {} and d.ancestor_entries == 0
        preprocess(d)
        assert [query(d, a).count for a in cases] == want
        assert len(reader_links) == 2 and not _unlinked(d)


def test_or_folding_engine_path():
    # root is a four-child Or over the guard cells AB, A!B, !AB, !A!B; the
    # query I={C} changes exactly one of them, on the partial rung
    text = (
        "nnf 12 18 3\n"
        "L 1\nL 2\nL 3\n"
        "A 3 0 1 2\n"
        "L -2\n"
        "A 3 0 4 2\n"
        "L -1\n"
        "A 3 6 1 2\n"
        "L -3\n"
        "O 3 2 2 8\n"
        "A 3 6 4 9\n"
        "O 0 4 3 5 7 10\n"
    )
    d = preprocess(parse_c2d(text))
    assert count_total(d) == brute_force_count(d) == 5
    for a in (
        Assumptions.of({3}),
        Assumptions.of(set(), {3}),
        Assumptions.of({1}, {2}),
    ):
        assert query(d, a, ALWAYS_PARTIAL).count == brute_force_count(d, a)
    single_change = query(d, Assumptions.of({3}), ALWAYS_PARTIAL)
    assert single_change.count == 4 and single_change.strategy == "partial"


class TestWorkBounds:
    def test_partial_bounded_by_marking(self, circuits):
        for name, d in circuits.items():
            if count_total(d) == 0 or d.num_variables == 0:
                continue
            result = query(d, Assumptions.of({1}), ALWAYS_PARTIAL)
            assert result.nodes_visited <= result.nodes_marked <= len(d.nodes), name

    def test_full_pass_visits_every_node(self, circuits):
        d = circuits["running_c2d"]
        result = query(d, Assumptions.of({2}), NO_PARTIAL_TRAVERSAL)
        assert result.nodes_visited == len(d.nodes)


class TestVariantAgreement:
    def test_all_variants_same_counts(self, circuits):
        rng = random.Random(7)
        for name in ("running_c2d", "unsmooth_pair", "rand_n8", "rand_n10", "gadget_chain8"):
            d = circuits[name]
            n = d.num_variables
            queries = [Assumptions()]
            queries += [Assumptions.of({v}) for v in range(1, n + 1)]
            for _ in range(10):
                variables = rng.sample(range(1, n + 1), rng.randint(1, min(4, n)))
                queries.append(
                    Assumptions.of(
                        {v for v in variables if rng.random() < 0.5},
                        {v for v in variables if rng.random() >= 0.5},
                    )
                )
            for a in queries:
                counts = {query(d, a, cfg).count for cfg in VARIANTS.values()}
                assert len(counts) == 1, (name, a)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.sampled_from([4, 8, 14, 20]),
        omit=st.integers(0, 3),
        d4=st.booleans(),
        data=st.data(),
    )
    def test_every_rung_matches_oracle(self, seed, n, omit, d4, data):
        # full sweep, partial traversal and the exhaustive oracle agree on
        # random multi-literal assumptions
        text = random_c2d_text(seed, n, omit=omit, tree_budget=400)
        d = preprocess(parse_d4(c2d_to_d4(text), n) if d4 else parse_c2d(text))
        oracle = ExhaustiveCounter(d)
        configs = {
            "full": FULL,
            "no-partial-traversal": NO_PARTIAL_TRAVERSAL,
            "always-partial": ALWAYS_PARTIAL,
        }
        literal = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
        for _ in range(4):
            literals = data.draw(st.lists(literal, min_size=1, max_size=n))
            a = Assumptions.from_literals(literals)
            want = oracle.count(a)
            results = {name: query(d, a, cfg) for name, cfg in configs.items()}
            for name, result in results.items():
                assert result.count == want, (name, literals)
            # the same reset literals that the partial rung climbs from run
            # the tape when the bypass fraction is 0
            if results["always-partial"].strategy == "partial":
                assert results["no-partial-traversal"].strategy == "full", literals

    def test_monotone_in_assumptions(self, circuits):
        rng = random.Random(13)
        d = circuits["rand_n12a"]
        total = count_total(d)
        for _ in range(25):
            variables = rng.sample(range(1, 13), 4)
            include = {v for v in variables[:2] if rng.random() < 0.7}
            exclude = {v for v in variables[2:] if rng.random() < 0.7}
            small = Assumptions.of(include, exclude)
            bigger = Assumptions.of(
                include | {variables[2]}, exclude
            )
            assert query(d, bigger).count <= query(d, small).count <= total


def test_core_dead_shortcut_equals_forced_traversal(circuits):
    for name, d in circuits.items():
        total = count_total(d)
        for v in d.core:
            forced = query(d, Assumptions.of({v}), NAIVE).count
            assert count_feature(d, v) == forced == total, name
        for v in d.dead:
            forced = query(d, Assumptions.of({v}), NAIVE).count
            assert count_feature(d, v) == forced == 0, name
        for v in d.core:
            assert query(d, Assumptions.of(set(), {v})).count == 0, name
            assert query(d, Assumptions.of(set(), {v}), NO_CORE_DEAD).count == 0, name


def test_bypass_threshold_switches_strategy(running_example):
    off = OptimizationConfig(traversal_bypass_fraction=0)
    assert query(running_example, Assumptions.of({2}), off).strategy == "full"
    narrow = OptimizationConfig(traversal_bypass_fraction=0.2)
    assert query(running_example, Assumptions.of({2}), narrow).strategy == "full"
    wide = OptimizationConfig(traversal_bypass_fraction=0.5)
    assert query(running_example, Assumptions.of({2}), wide).strategy == "partial"


class TestTape:
    @pytest.mark.parametrize("name", sorted(TAPE_CIRCUITS))
    def test_corner_cases_match_oracle_and_partial_rung(self, name):
        d = _tape_circuit(name)
        _assert_tape_structure(d)
        oracle = ExhaustiveCounter(d)
        assert count_total(d) == oracle.count()
        n = d.num_variables
        for signs in itertools.product((0, 1, -1), repeat=n):
            literals = [v * sign for v, sign in zip(range(1, n + 1), signs) if sign]
            a = Assumptions.from_literals(literals)
            full = query(d, a, NAIVE)  # no shortcut, bypass fraction 0
            if literals and set(map(abs, literals)) - d.omitted:
                assert full.strategy == "full", literals
            assert full.count == query(d, a, ALWAYS_PARTIAL).count == oracle.count(a)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.sampled_from([4, 8, 14, 20]),
        omit=st.integers(0, 3),
        d4=st.booleans(),
        data=st.data(),
    )
    def test_sweep_matches_recompute_of_every_node(self, seed, n, omit, d4, data):
        # a per-node evaluation of every And and Or node from its children
        # is the reference for the tape, from arbitrary leaf weights, zeros
        # included; the scratch slots start with arbitrary values too
        text = random_c2d_text(seed, n, omit=omit, tree_budget=400)
        d = preprocess(parse_d4(c2d_to_d4(text), n) if d4 else parse_c2d(text))
        values = d.baseline[: len(d.nodes)]
        for i in d.nodes:
            if d.kind[i] is NodeKind.LITERAL:
                values[i] = data.draw(st.integers(0, 3))
        reference = values.copy()
        recompute(d, reference)
        scratch = d.scratch_slots
        values += data.draw(st.lists(st.integers(0, 3), min_size=scratch, max_size=scratch))
        sweep(d.tape, values)
        assert values[: len(d.nodes)] == reference

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.sampled_from([4, 8, 14, 20]),
        omit=st.integers(0, 3),
    )
    def test_structure_on_random_circuits(self, seed, n, omit):
        text = random_c2d_text(seed, n, omit=omit, tree_budget=400)
        for d in (parse_c2d(text), parse_d4(c2d_to_d4(text), n)):
            _assert_tape_structure(preprocess(d))

    @pytest.mark.parametrize("name", sorted(TAPE_CIRCUITS))
    def test_setup_keeps_scratch_baselines(self, name):
        # set-up keeps its sweep's value list whole, every node and then the
        # scratch slots, with no spare capacity, and a table reads it
        # without sweeping or replacing it
        d = _tape_circuit(name)
        _assert_tape_structure(d)
        assert len(d.baseline) == len(d.nodes) + d.scratch_slots
        assert sys.getsizeof(d.baseline) == sys.getsizeof(d.baseline[:])
        values = [0 if d.children[i] else d.baseline[i] for i in d.nodes]
        values += [0] * d.scratch_slots
        sweep(d.tape, values)
        assert d.baseline == values
        baseline = d.baseline
        before = baseline.copy()
        count_all_features(d)
        assert d.baseline is baseline and baseline == before


def test_full_sweep_on_deep_chain():
    # 3000 Shannon levels are 9000 deep; the full sweep must not recurse
    d = preprocess(parse_c2d(shannon_chain_c2d(3000)))
    result = query(d, Assumptions.of({2}), NO_PARTIAL_TRAVERSAL)
    assert result.count == 2**2999
    assert result.strategy == "full"


def test_scratch_buffers_leave_circuit_untouched(running_example):
    before = list(running_example.baseline)
    query(running_example, Assumptions.of({2}), ALWAYS_PARTIAL)
    query(running_example, Assumptions.of({4}, {3}))
    assert running_example.baseline == before


def test_concurrent_mixed_queries_match_serial(circuits):
    from concurrent.futures import ThreadPoolExecutor

    d = circuits["rand_n12a"]
    rng = random.Random(3)
    cases = []
    for _ in range(40):
        variables = rng.sample(range(1, 13), rng.randint(1, 5))
        include = {v for v in variables if rng.random() < 0.5}
        cases.append(Assumptions.of(include, set(variables) - include))
    serial = [query(d, a, ALWAYS_PARTIAL).count for a in cases]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda a: query(d, a, ALWAYS_PARTIAL).count, cases))
    assert parallel == serial
