import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddnnf import (
    Assumptions,
    ExhaustiveCounter,
    OptimizationConfig,
    SessionState,
    count_all_features,
    parse_c2d,
    parse_d4,
    preprocess,
    query,
)
import ddnnf.engine
from ddnnf.cli import StreamSession, build_parser, run_stream
from ddnnf.engine import NAIVE, NO_CORE_DEAD, NO_PARTIAL_TRAVERSAL
from ddnnf.errors import VariableOutOfRange

from conftest import RUNNING_EXAMPLE_C2D, build_circuit, fixture_texts
from helpers import (
    c2d_to_d4,
    fresh_values,
    random_c2d_text,
    tape_nodes,
    tape_order,
    wide_c2d_text,
    written_slots,
)


def session():
    return StreamSession(preprocess(parse_c2d(RUNNING_EXAMPLE_C2D)))


def test_count_total():
    assert session().handle("count") == ("4", False)


def test_count_with_assumptions():
    s = session()
    assert s.handle("count v 2") == ("2", False)
    assert s.handle("count v 4 -3") == ("1", False)


def test_contradiction_is_an_answer():
    assert session().handle("count v 2 -2") == ("0", False)


def test_core_and_dead():
    s = session()
    assert s.handle("core") == ("1", False)
    assert s.handle("dead") == ("", False)


def test_info():
    assert session().handle("info") == ("nodes=12 vars=4 count=4", False)


def test_exit():
    assert session().handle("exit") == ("bye", True)


def test_variable_out_of_range():
    s = session()
    assert s.handle("count v 99") == ("error variable-out-of-range 99", False)
    assert s.handle("count v 0") == ("error variable-out-of-range 0", False)
    assert s.handle("count v -7") == ("error variable-out-of-range 7", False)


def test_out_of_range_names_the_lines_first_offender():
    # the range is checked once per line, by the query; the reply still
    # names the first offender in line order, and the erring line leaves
    # the kept values alone
    s = session()
    assert s.handle("count v 2") == ("2", False)
    kept = list(s.state.values)
    assert s.handle("count v 1 -9 99") == ("error variable-out-of-range 9", False)
    assert s.handle("count v 3 0 -5") == ("error variable-out-of-range 0", False)
    assert s.handle("count v 4 5 -4") == ("error variable-out-of-range 5", False)
    assert s.state.values == kept and s.state.zero_literals == {-2}
    assert s.handle("count v 2 4") == ("1", False)


def test_malformed_lines_survive():
    s = session()
    for line in ("bogus", "", "count v", "count v x", "core 1", "exit now"):
        response, stop = s.handle(line)
        assert response == "error unknown-command"
        assert not stop
    assert s.handle("count") == ("4", False)  # session still alive


def test_run_stream_one_response_per_line(tmp_path):
    path = tmp_path / "c.nnf"
    path.write_text(RUNNING_EXAMPLE_C2D)
    stdin = io.StringIO("count\nnope\ncount v 2\nexit\ncount\n")
    stdout = io.StringIO()
    code = run_stream(build_parser().parse_args([str(path), "--stream"]), stdin, stdout)
    assert code == 0
    # the line after exit is never answered
    assert stdout.getvalue() == "4\nerror unknown-command\n2\nbye\n"


def test_run_stream_eof_without_exit(tmp_path):
    path = tmp_path / "c.nnf"
    path.write_text(RUNNING_EXAMPLE_C2D)
    stdout = io.StringIO()
    args = build_parser().parse_args([str(path), "--stream"])
    run_stream(args, io.StringIO("count\n"), stdout)
    assert stdout.getvalue() == "4\n"


def test_cli_and_stream_agree(tmp_path, capsys):
    from ddnnf.cli import main

    path = tmp_path / "c.nnf"
    path.write_text(RUNNING_EXAMPLE_C2D)
    s = session()
    for args, line in (
        (["--count"], "count"),
        (["--feature", "2"], "count v 2"),
        (["--config", "4 -3"], "count v 4 -3"),
        (["--config", "2 -2"], "count v 2 -2"),
    ):
        assert main([str(path), *args]) == 0
        assert capsys.readouterr().out == s.handle(line)[0] + "\n"


def _random_circuit(seed, n, omit, d4):
    text = random_c2d_text(seed, n, omit=omit, tree_budget=400)
    return preprocess(parse_d4(c2d_to_d4(text), n) if d4 else parse_c2d(text))


STEPS = (
    "add", "add", "add", "deselect", "fresh", "large",
    "contradiction", "exclude-core", "include-dead", "count", "core", "info",
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 59),
    n=st.sampled_from([8, 12]),
    omit=st.integers(0, 2),
    d4=st.booleans(),
    steps=st.lists(st.sampled_from(STEPS), min_size=10, max_size=40),
    data=st.data(),
)
def test_session_walk_matches_oracle_and_stateless_query(seed, n, omit, d4, steps, data):
    # one session keeps its values across every kind of line; each reply
    # must equal the oracle's and a fresh stateless query's
    d = _random_circuit(seed, n, omit, d4)
    oracle = ExhaustiveCounter(d)
    s = StreamSession(d)
    variables = range(1, n + 1)
    signed = st.sampled_from(variables).flatmap(lambda v: st.sampled_from([v, -v]))
    selection: list[int] = []
    for step in steps:
        line = selection
        if step == "add":
            chosen = {abs(lit) for lit in selection}
            free = [v for v in variables if v not in chosen]
            if free:
                v = data.draw(st.sampled_from(free))
                selection = line = selection + [data.draw(st.sampled_from([v, -v]))]
        elif step == "deselect" and selection:
            dropped = data.draw(st.sampled_from(selection))
            selection = line = [lit for lit in selection if lit != dropped]
        elif step == "fresh":
            selection = line = data.draw(st.lists(signed, min_size=1, max_size=3))
        elif step == "large":
            # past the bypass of 0.2 * n: the line takes the full sweep
            size = data.draw(st.integers(n // 5 + 1, n))
            chosen = data.draw(st.permutations(variables))[:size]
            selection = line = [data.draw(st.sampled_from([v, -v])) for v in chosen]
        elif step == "contradiction":
            v = data.draw(st.sampled_from(variables))
            line = selection + [v, -v]
        elif step == "exclude-core" and d.core:
            line = selection + [-data.draw(st.sampled_from(sorted(d.core)))]
        elif step == "include-dead" and d.dead:
            line = selection + [data.draw(st.sampled_from(sorted(d.dead)))]
        elif step in ("count", "core", "info"):
            assert s.handle(step) == StreamSession(d).handle(step)
            continue
        if not line:
            assert s.handle("count") == (str(oracle.count()), False)
            continue
        a = Assumptions.from_literals(line)
        want = oracle.count(a)
        assert query(d, a).count == want, line
        assert s.handle("count v " + " ".join(map(str, line))) == (str(want), False), line


def _uncached_count(d, a):
    """``query(d, a).count`` with no ancestor order kept from earlier calls."""
    d.ancestor_orders, d.ancestor_entries = {}, 0
    return query(d, a).count


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 59),
    n=st.sampled_from([8, 12]),
    omit=st.integers(0, 2),
    d4=st.booleans(),
    data=st.data(),
)
def test_select_deselect_session_reads_exact_orders(seed, n, omit, d4, data):
    # each line selects or deselects one literal, so it resets one literal
    # and reads or stores that literal's ancestor order; every reply equals
    # the oracle and a circuit that keeps no order, and every stored order
    # holds the tape instructions that depend on its literal
    d = _random_circuit(seed, n, omit, d4)
    fresh = _random_circuit(seed, n, omit, d4)
    oracle = ExhaustiveCounter(d)
    s = StreamSession(d)
    selection: list[int] = []
    for _ in range(data.draw(st.integers(5, 30))):
        chosen = {abs(lit) for lit in selection}
        free = [v for v in range(1, n + 1) if v not in chosen]
        if selection and (not free or data.draw(st.booleans())):
            dropped = data.draw(st.sampled_from(selection))
            selection = [lit for lit in selection if lit != dropped]
        else:
            v = data.draw(st.sampled_from(free))
            selection = selection + [data.draw(st.sampled_from([v, -v]))]
        if not selection:
            continue
        a = Assumptions.from_literals(selection)
        want = oracle.count(a)
        assert _uncached_count(fresh, a) == want, selection
        assert s.handle("count v " + " ".join(map(str, selection))) == (str(want), False)
    for lit, (order, marked) in d.ancestor_orders.items():
        assert list(order) == tape_order(d, (lit,))
        assert marked == len(tape_nodes(d, (lit,)))
    assert d.ancestor_entries == sum(len(order) for order, _ in d.ancestor_orders.values())


@pytest.mark.parametrize("d4", [False, True])
@pytest.mark.parametrize("seed", range(8))
def test_session_alternates_full_and_partial_lines(seed, d4):
    # the tape leaves its value list, scratch slots included, in the session
    # state; lines that flip one literal run the partial pass from it, and
    # lines that flip a third of them run the tape from it again
    n = 12
    d = _random_circuit(seed, n, 0, d4)
    oracle = ExhaustiveCounter(d)
    s, state = StreamSession(d), SessionState()
    rng = random.Random(seed)
    free = [v for v in range(1, n + 1) if v not in d.core | d.dead | d.omitted]
    taken = []
    selection: list[int] = []
    for step in range(12):
        if step % 3 == 0:  # near-complete, every sign the other way
            sign = 1 if step % 6 == 0 else -1
            selection = [sign * v for v in rng.sample(free, len(free) - 1)]
        else:
            flips = set(rng.sample(selection, 1 if step % 3 == 1 else len(selection) // 3))
            selection = [-lit if lit in flips else lit for lit in selection]
        a = Assumptions.from_literals(selection)
        kept = state.values
        taken.append(query(d, a, state=state).strategy)
        taken.append(state.values is kept)
        want = str(oracle.count(a))
        assert s.handle("count v " + " ".join(map(str, selection))) == (want, False)
    # (rung, whether the line started from the kept value list)
    assert taken == ["full", False, "partial", True, "full", True] * 4


@pytest.mark.parametrize("d4", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_partial_lines_leave_scratch_stale_and_unread(seed, d4):
    # full lines (NAIVE) and partial lines alternate on one kept vector.  A
    # partial line reruns the instructions of the scratch slots it marks and
    # leaves every other scratch slot as it stood, which is never stale:
    # after each line every slot equals a full sweep from the baselines.
    # Tables between the lines read the circuit's own scratch baselines,
    # never the session's.
    n = 12
    d = _random_circuit(seed, n, 0, d4)
    assert d.scratch_slots
    oracle = ExhaustiveCounter(d)
    table = count_all_features(d)
    always_partial = OptimizationConfig(traversal_bypass_fraction=1.0)
    state = SessionState()
    rng = random.Random(seed)
    free = [v for v in range(1, n + 1) if v not in d.core | d.dead | d.omitted]
    assert len(free) >= 3
    selection = [rng.choice((v, -v)) for v in free]
    scratch = slice(len(d.nodes), None)
    for step in range(10):
        if step:
            flip = rng.choice(selection)
            selection = [-lit if lit == flip else lit for lit in selection]
        a = Assumptions.from_literals(selection)
        kept = state.values
        before = kept[scratch] if kept else None
        result = query(d, a, always_partial if step % 2 else NAIVE, state)
        assert result.count == oracle.count(a), selection
        assert result.strategy == ("partial" if step % 2 else "full")
        assert step == 0 or state.values is kept  # each line starts from the last
        assert len(state.values) == len(d.nodes) + d.scratch_slots
        assert state.values == fresh_values(d, state.zero_literals)
        if step % 2:
            rerun = written_slots(d, tape_order(d, {flip, -flip}))
            for i, (old, new) in enumerate(zip(before, state.values[scratch])):
                assert old == new or i + len(d.nodes) in rerun
        assert count_all_features(d) == table


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 59),
    n=st.sampled_from([8, 12]),
    d4=st.booleans(),
    order=st.permutations(range(1, 13)),
    signs=st.lists(st.booleans(), min_size=12, max_size=12),
)
def test_superset_chain_marks_no_more_than_stateless(seed, n, d4, order, signs):
    # growing one literal at a time, a line marks only the ancestors of its
    # new literal, so never more than the whole set does from the baselines
    d = _random_circuit(seed, n, 0, d4)
    always_partial = OptimizationConfig(traversal_bypass_fraction=1.0)
    state, full_state = SessionState(), SessionState()
    literals = [v if sign else -v for v, sign in zip(order, signs) if v <= n]
    for k in range(1, len(literals) + 1):
        a = Assumptions.from_literals(literals[:k])
        kept = query(d, a, always_partial, state)
        fresh = query(d, a, always_partial)
        assert kept.count == fresh.count
        assert kept.nodes_marked <= fresh.nodes_marked, literals[:k]
        assert kept.nodes_marked <= len(tape_nodes(d, {-literals[k - 1]}))
        kept, fresh = query(d, a, state=full_state), query(d, a)
        assert kept.count == fresh.count
        assert kept.nodes_visited <= fresh.nodes_visited, literals[:k]


# the lines of a session in test_session_vectors_stay_exact, each with the
# rung it asks for: a one-literal change, a change of two to four literals,
# a change of two or three literals whose orders are cached, or of one or
# two cached and one not (all on the partial rung), a full sweep, or
# spending the order budget
LINE_KINDS = ("one", "one", "one", "several", "cached", "partly", "full", "spend")


def _one_literal_edits(d, selection, free, cached):
    """(variable, literal) for each edit of ``selection`` that moves one
    zero literal into or out of the zero set, whose order is cached or not
    as ``cached`` says: selecting a free variable with either sign, or
    dropping a selected one."""
    edits = []
    for v in free:
        literals = [-v if selection[v] else v] if v in selection else [-v, v]
        edits += [(v, lit) for lit in literals if (lit in d.ancestor_orders) == cached]
    return edits


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.sampled_from([12, 24, 45]),
    d4=st.booleans(),
    data=st.data(),
)
def test_session_vectors_stay_exact(seed, n, d4, data):
    # wide And and Or nodes read their children through scratch slots, and
    # a partial line reads an unmarked scratch slot as it stands, so after
    # every line the kept vector must equal a full sweep of its zero set on
    # every slot.  One-literal lines hit and miss the order cache, several-
    # literal lines mark or run the union of cached orders, full lines
    # sweep, and after "spend" misses find the budget spent and store
    # nothing.
    text = wide_c2d_text(seed, n)
    d = preprocess(parse_d4(c2d_to_d4(text), n) if d4 else parse_c2d(text))
    assert max(map(len, d.children)) >= 3
    always_partial = OptimizationConfig(traversal_bypass_fraction=1.0)
    state = SessionState()
    free = [v for v in range(1, n + 1) if v not in d.core | d.dead | d.omitted]
    if not free:
        return
    start = data.draw(st.lists(st.sampled_from(free), max_size=4, unique=True))
    selection = {v: data.draw(st.booleans()) for v in start}  # variable -> sign
    kinds = ["one", "one", "several", "full", "one", "cached", "one", "partly"]
    kinds += ["spend", "one", "partly", "cached"]
    kinds += data.draw(st.lists(st.sampled_from(LINE_KINDS), max_size=12))
    with pytest.MonkeyPatch.context() as patch:
        for kind in kinds:
            if kind == "spend":
                patch.setattr(ddnnf.engine, "ANCESTOR_ORDER_BUDGET", 0)
                continue
            if kind in ("cached", "partly"):
                edits = _one_literal_edits(d, selection, free, cached=True)
                low, high = (2, 3) if kind == "cached" else (1, 2)
                low = min(low, len({v for v, _ in edits}))
                edits = data.draw(st.lists(
                    st.sampled_from(edits), min_size=low, max_size=high,
                    unique_by=lambda edit: edit[0],
                )) if edits else []
                if kind == "partly":
                    others = [
                        edit for edit in _one_literal_edits(d, selection, free, cached=False)
                        if edit[0] not in {v for v, _ in edits}
                    ]
                    if others:
                        edits.append(data.draw(st.sampled_from(others)))
                for v, lit in edits:  # the zero literal lit enters or leaves
                    if v in selection:
                        del selection[v]
                    else:
                        selection[v] = lit < 0
            else:
                low, high = (1, 1) if kind == "one" else (min(2, len(free)), 4)
                changed = data.draw(st.lists(
                    st.sampled_from(free), min_size=low, max_size=high, unique=True
                ))
                for v in changed:  # add it with either sign, drop it, or flip it
                    if v not in selection:
                        selection[v] = data.draw(st.booleans())
                    elif data.draw(st.booleans()):
                        del selection[v]
                    else:
                        selection[v] = not selection[v]
            a = Assumptions.from_literals([v if sign else -v for v, sign in selection.items()])
            cfg = NO_PARTIAL_TRAVERSAL if kind == "full" else always_partial
            entries = d.ancestor_entries
            result = query(d, a, cfg, state)
            assert result.count == query(d, a, NO_PARTIAL_TRAVERSAL).count
            if kind == "full":
                assert result.strategy in ("full", "shortcut")
            if state.values is not None:
                assert state.values == fresh_values(d, state.zero_literals)
            if ddnnf.engine.ANCESTOR_ORDER_BUDGET == 0:
                assert d.ancestor_entries == entries


# the literal kinds a line of test_literal_lines_match_oracle_and_assumptions
# draws from; a kind the circuit lacks falls back to an out-of-range literal
LITERAL_KINDS = (
    "free", "free", "free", "core", "dead", "omitted",
    "repeat", "contradict", "out-of-range", "zero",
)


def _literal_circuits():
    """(name, builder) for the circuits the literal front end is checked on:
    generator seeds with and without omitted variables, their d4 twins,
    and the fixtures."""
    out = []
    for seed, n, omit in ((48, 12, 0), (7, 10, 2), (19, 8, 1), (33, 12, 3)):
        text = random_c2d_text(seed, n, omit=omit, tree_budget=400)
        out.append((f"seed{seed}", lambda text=text: parse_c2d(text, None)))
        out.append((f"seed{seed}-d4", lambda text=text, n=n: parse_d4(c2d_to_d4(text), n)))
    for name, (fmt, text, n) in fixture_texts().items():
        out.append((name, lambda fmt=fmt, text=text, n=n: build_circuit(fmt, text, n)))
    return out


LITERAL_CIRCUITS = _literal_circuits()


def _expected_strategy(d, literals, cfg):
    """The rung a stateless query of ``literals`` takes, from the circuit's
    core, dead and omitted sets rather than its literal table."""
    if any(-lit in literals for lit in literals):
        return "contradiction"
    if cfg.core_dead_shortcuts and any(
        (lit < 0 and -lit in d.core) or (lit > 0 and lit in d.dead) for lit in literals
    ):
        return "shortcut"
    zero = {-lit for lit in literals if abs(lit) not in d.omitted}
    if cfg.core_dead_shortcuts:
        zero = {lit for lit in zero if abs(lit) not in d.core | d.dead}
    if not zero:
        return "shortcut"
    return "partial" if len(zero) <= cfg.traversal_bypass_fraction * d.num_variables else "full"


@settings(max_examples=80, deadline=None)
@given(
    circuit=st.sampled_from(LITERAL_CIRCUITS),
    lines=st.lists(
        st.lists(st.sampled_from(LITERAL_KINDS), min_size=1, max_size=10),
        min_size=1, max_size=8,
    ),
    data=st.data(),
)
def test_literal_lines_match_oracle_and_assumptions(circuit, lines, data):
    # count v lines mixing free, core, dead (both signs), omitted, repeated,
    # contradictory, out-of-range and 0 literals: each reply equals the
    # oracle's count, or names the line's first out-of-range variable; a
    # list of literals and the same Assumptions answer the same result
    # under every shortcut setting, with the rung the old set algebra
    # picked; and the session keeps an exact vector of the line's zero set
    name, build = circuit
    d = preprocess(build())
    n = d.num_variables
    oracle = ExhaustiveCounter(d)
    s = StreamSession(d)
    free = [v for v in range(1, n + 1) if v not in d.core | d.dead | d.omitted]
    pools = {
        "free": free,
        "core": sorted(d.core),
        "dead": sorted(d.dead),
        "omitted": sorted(d.omitted),
    }
    for kinds in lines:
        line: list[int] = []
        for kind in kinds:
            if kind in pools and pools[kind]:
                v = data.draw(st.sampled_from(pools[kind]))
                line.append(data.draw(st.sampled_from([v, -v])))
            elif kind == "repeat" and line:
                line.append(data.draw(st.sampled_from(line)))
            elif kind == "contradict" and line:
                line.append(-data.draw(st.sampled_from(line)))
            elif kind == "zero":
                line.append(0)
            else:
                line.append(data.draw(st.sampled_from([n + 1, -(n + 1), n + 7])))
        reply = s.handle("count v " + " ".join(map(str, line)))
        bad = [abs(lit) for lit in line if not 1 <= abs(lit) <= n]
        if bad:
            assert reply == (f"error variable-out-of-range {bad[0]}", False), (name, line)
            with pytest.raises(VariableOutOfRange):
                query(d, line)
            continue
        a = Assumptions.from_literals(line)
        assert reply == (str(oracle.count(a)), False), (name, line)
        for cfg in (ddnnf.engine.FULL, NO_CORE_DEAD, NAIVE):
            result = query(d, line, cfg)
            assert result == query(d, a, cfg), (name, line, cfg)
            assert result.strategy == _expected_strategy(d, set(line), cfg), (name, line)
        if s.state.values is not None:
            assert s.state.values == fresh_values(d, s.state.zero_literals), (name, line)
        if _expected_strategy(d, set(line), ddnnf.engine.FULL) not in ("contradiction", "shortcut"):
            zero = {-lit for lit in line if abs(lit) not in d.core | d.dead | d.omitted}
            assert s.state.zero_literals == zero, (name, line)


def test_nodeless_literals_take_the_shortcut():
    # core {2, 8}, dead {1, 3}: no node holds +1 (a dead variable included)
    # or -2 (a core one excluded), yet each rules out every model; without
    # shortcuts the zero literal they force reaches a node and counts 0 too
    d = preprocess(parse_c2d(random_c2d_text(48, 12, tree_budget=400)))
    assert {2, 8} <= d.core and {1, 3} <= d.dead
    assert 1 not in d.literal_index and -2 not in d.literal_index
    s = StreamSession(d)
    for line in ([1], [-2], [4, 1], [4, -5, -2], [1, 1]):
        assert s.handle("count v " + " ".join(map(str, line))) == ("0", False)
        assert query(d, line).strategy == "shortcut"
        assert query(d, line, NO_CORE_DEAD).count == 0
    # the other signs change nothing, with shortcuts or without
    total = str(ddnnf.engine.count_total(d))
    for line in ([-1], [2], [2, -3, 8]):
        assert s.handle("count v " + " ".join(map(str, line))) == (total, False)
        assert query(d, line) == query(d, Assumptions.from_literals(line))
        assert query(d, line, NO_CORE_DEAD).count == int(total)


# the stream session over five.nnf in the CI job's installed-cli step:
# tokens int() accepts answer as their canonical forms do
FIVE_NNF = (
    "nnf 16 15 5\nL 1\nL -1\nO 1 2 0 1\nL 2\nL -2\nO 2 2 3 4\nL 3\nL -3\nO 3 2 6 7\n"
    "L 4\nL -4\nO 4 2 9 10\nL 5\nL -5\nO 5 2 12 13\nA 5 2 5 8 11 14\n"
)
NON_CANONICAL_LINES = [
    ("count v +2", "16"),
    ("count v 02", "16"),
    ("count v 2 -0_3", "8"),
    ("count v ２", "16"),  # a full-width 2
    ("count v 2 -2", "0"),
    ("count v 2 7 -2", "error variable-out-of-range 7"),
    ("count v 2 x", "error unknown-command"),
    ("count v -0", "error variable-out-of-range 0"),
    ("count v 2 2 2", "16"),
    ("exit", "bye"),
]


def test_non_canonical_tokens_answer_as_their_values(tmp_path):
    path = tmp_path / "five.nnf"
    path.write_text(FIVE_NNF)
    stdin = io.StringIO("".join(line + "\n" for line, _ in NON_CANONICAL_LINES))
    stdout = io.StringIO()
    args = build_parser().parse_args([str(path), "--stream"])
    assert run_stream(args, stdin, stdout) == 0
    assert stdout.getvalue() == "".join(reply + "\n" for _, reply in NON_CANONICAL_LINES)
