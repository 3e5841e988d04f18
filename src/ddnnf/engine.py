"""Counting queries over a preprocessed circuit.

The baseline pass already holds every node's count under no assumptions, so
a query only has to account for the literals it forces to zero.  The engine
picks the rung for each query itself:

* core/dead shortcuts: a query including a dead variable or excluding a core
  one is 0 without touching the circuit; included-core and excluded-dead
  assumptions change nothing and are dropped before marking.
* partial traversal: climb the tape's reader graph from the reset
  literal nodes, mark the tape instructions whose value depends on them,
  and rerun only those, reading every unmarked slot's value as it stands
  (its baseline, or its kept value in a session).  A reset reads those
  instructions from the circuit's cache instead of marking wherever the
  cache holds its literals' orders (see below).
  Skipped when the reset literals exceed ``traversal_bypass_fraction`` of
  the variables, where marking overhead stops paying off.

A query is a set of signed literals; an :class:`~ddnnf.core.Assumptions`
is turned into one after its variables are checked against the range.  The
front end reads them through the circuit's
:class:`~ddnnf.core.LiteralTable`, built at set-up, with a few set
operations that run in C over the query's literals.  The table's ``free``
dict maps each literal of a variable that is neither core nor dead to its
negation, so one pass through it builds the zero-literal set, and one
difference leaves the few literals that are not free, those of core,
dead and omitted variables and those out of range.  Only these few meet
the other checks, in this order: those outside the table's present
literals pin omitted variables (each halves the omitted factor) or are
out of range; a zero literal that the query names, or a literal among the
few whose negation is among them too, is a contradiction, since a literal
is free exactly when its negation is; meeting the table's conflicting
literals gives the core/dead shortcut; and an empty zero set answers
without the circuit.  Without shortcuts (``NO_CORE_DEAD``) the negations
of the present ones among the few join the zero set, so it keeps the
literals of core and dead variables, nodeless ones too, and they count
toward the bypass fraction.  Loops in Python run only over the pinned
literals and over the reset literals, one node each.

:class:`OptimizationConfig` exists for the variant matrix, which switches
rungs off one at a time to measure what each saves; every other caller
runs ``FULL``.

The tape (:func:`~ddnnf.core.compile_tape`) is the only evaluator.  Both
rungs start from a value list with one entry per tape slot whose literal
nodes are right: the nodes, then the scratch slots of the balanced trees
that wide nodes compile to.  The full sweep runs the whole tape as
set-up's baseline pass did: as ``Ddnnf.runs``, the tape's instructions in
level order split into runs of one operation, so the loop
(:func:`~ddnnf.core.sweep_runs`) tests a kind once per run, not once per
instruction.  The partial pass runs the marked instructions in tape order,
or a reset's passes one after the other, through
:func:`~ddnnf.core.sweep`, which reads each instruction's operation off
the sign of its destination.  ``Ddnnf.readers`` maps every
slot to the instructions that read it, so marking climbs instruction by
instruction from a changed child through the scratch slots on its path to
the root: a wide node with k children costs about log2 k instructions,
not k - 1.  Only this rung reads ``readers`` and ``writes_node``, the
tape's reader graph, so set-up leaves them empty and the first partial-rung use links them
(:func:`link_readers`); ``count``, the full rung, the shortcuts and the
tables never pay for it, and a stream session links it in set-up.  An
unmarked sibling's scratch slot holds the product or sum of children that
did not change, and the pass reads it as it stands, so every value list
keeps every slot current.  Every configuration returns identical counts;
only the work differs.

Without a :class:`SessionState`, that list is a copy of every slot's value
under no assumptions (``Ddnnf.baseline``), with the zero literals' nodes
set to 0: one store per literal, through ``Ddnnf.literal_index``, which
maps each literal to its one node.  With one, the state holds the zero
literals and the value list of the last line it evaluated, and a query may
start from that list instead: it resets only the symmetric difference of
the old and new zero-literal sets (0 entering, baseline leaving), when that
is smaller than the new set; on a tie it starts from the baselines.  A kept
set at least twice the size of the new one cannot be closer, so it is not
intersected.  The reset set, not the whole zero set, picks the rung and
seeds the marking.  An empty reset set answers the kept root times the
omitted factor as a ``"shortcut"`` with no visits.  Shortcut and
contradiction lines, and lines with no zero literal, leave the state alone.

A configurator's lines mostly reset one literal, and the same literals
recur, so a one-literal reset reads that literal's order from
``Ddnnf.ancestor_orders``: a tuple of the tape's own instructions to
rerun, in tape order, which the pass runs as it stands.  A miss marks
with :func:`mark_ancestors`, gathers the marked instructions once, and
stores the tuple, while the circuit's orders stay within
:data:`ANCESTOR_ORDER_BUDGET` entries per tape slot in total; past that a
miss marks and stores nothing, with no eviction.  A reset of several
literals runs their orders as passes when the cache lacks at most one of
them, and that one is marked alone and stored as a one-literal miss would
be.  The orders are walked from last to first, and each keeps only the
instructions no later order holds, so each instruction of the union runs
once, in the pass of the last order that holds it, with no union built
and no sort (see :func:`_union_order`).  When the cache lacks two or
more, the reset marks all its literals together once and stores nothing,
as a stateless query of k literals does: storing each literal's order
would mark each closure on its own, where one marking covers their union.
``nodes_marked`` and ``nodes_visited`` report the circuit nodes marking
reaches, counted the same way for a marked order and for passes: the
instructions that write a node, plus one node for each reset literal that
a node holds (without shortcuts a reset literal may have none); scratch
slots are not nodes and do not count.

Queries never mutate the circuit's lists.  A stateless query keeps its
values in a local buffer, so such queries may run concurrently; a state is
updated in place and serves one caller at a time.  The reader graph and
the order cache are the two things a query writes to the circuit, and
their stores are idempotent.  Racing first partial queries wait on one
lock while the first of them links the graph, which is published whole.
Racing misses on one literal compute equal orders and store one of them,
and each store and its entry count are made under the same lock, so the
count stays exact and the budget holds however queries race.  A linked
graph and a stored order are never changed, so readers need no lock.

The cardinality of every feature at once does not go through the ladder.
It is one backward pass (Darwiche's differential approach): on a smooth,
decomposable circuit the count is multilinear in each literal's
indicator, so forcing ``-v`` to zero removes exactly the partial
derivative of the root count with respect to that literal.  The pass is
the tape run in reverse.  Every tape slot is written once, so each
instruction ``(dst, a, b)`` hands ``dst``'s finished derivative to its two
operands: an Or instruction adds it to both, an And instruction adds it
times the other operand's value.  No division is needed, and a zero value
just multiplies.  The values are every slot's under no assumptions,
which set-up's sweep keeps as ``Ddnnf.baseline``, so no table sweeps
forward.

Those values are fixed once set-up ends, so the first
:func:`count_all_features` call compiles the reversed tape into an adjoint
program (:func:`~ddnnf.core.compile_adjoint`) with each multiplier baked
in, and keeps only the instructions that lead to a negative literal; it
stores the program as ``Ddnnf.adjoint``, and later tables only run it.
The first table therefore costs about one pass more than the rest.  A
table reads the derivative at the node of each free ``-v`` (a literal has
one node) from the program's per-slot list, and keeps its counts on the
circuit as ``Ddnnf.feature_counts``, one entry per variable.  Every table
runs the program and stores a fresh list; ``--count``, streams and set-up
never pay for either.  Both stores are idempotent: racing first tables
each compile an equal program and store one complete list, and racing
tables each compute the same counts and store one complete list, so
concurrent stateless readers stay safe.  Once a table has stored the
counts, :func:`count_feature` reads them, and a lookup is a list read;
before that a lookup is one partial query, which costs far less than the
pass, and the first such query links the reader graph.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from operator import itemgetter, neg
from threading import Lock

from .core import Assumptions, Ddnnf, compile_adjoint, sweep, sweep_runs
from .errors import DdnnfError, VariableOutOfRange


@dataclass(frozen=True)
class OptimizationConfig:
    """The rungs a query may take.

    The partial rung runs when the zero literals number at most
    ``traversal_bypass_fraction`` of the variables.  A fraction of 0 switches
    it off, as the removed ``partial_traversal=False`` did: an empty
    zero-literal set is answered before the check, and a non-empty one
    always exceeds ``0 * n``.
    """

    core_dead_shortcuts: bool = True
    traversal_bypass_fraction: float = 0.2

    def __post_init__(self):
        if not 0 <= self.traversal_bypass_fraction <= 1:
            raise ValueError("traversal_bypass_fraction must be in [0, 1]")


FULL = OptimizationConfig()
NAIVE = OptimizationConfig(core_dead_shortcuts=False, traversal_bypass_fraction=0)
NO_PARTIAL_TRAVERSAL = OptimizationConfig(traversal_bypass_fraction=0)
NO_CORE_DEAD = OptimizationConfig(core_dead_shortcuts=False)

#: The benchmark variants, weakest first.  ``naive`` and ``reusing-subtrees``
#: run the same queries; they differ only in the visits the variant matrix
#: reports for a full re-evaluation (see :func:`ddnnf.oracle.run_variant_matrix`).
VARIANTS: dict[str, OptimizationConfig] = {
    "naive": NAIVE,
    "reusing-subtrees": NAIVE,
    "no-partial-traversal": NO_PARTIAL_TRAVERSAL,
    "no-core-dead": NO_CORE_DEAD,
    "full": FULL,
}


@dataclass(frozen=True)
class QueryResult:
    count: int
    nodes_visited: int
    nodes_marked: int
    strategy: str  # "shortcut" | "partial" | "full" | "contradiction"


def _require_preprocessed(d: Ddnnf) -> None:
    if not d.preprocessed:
        raise DdnnfError("circuit must be preprocessed first")


def count_total(d: Ddnnf) -> int:
    """Cardinality of the whole model; O(1) after preprocessing."""
    _require_preprocessed(d)
    return d.baseline[d.root] * d.omitted_factor


# makes a store and its count one step, so racing misses keep the count
# exact, and makes the reader graph's first link one step
_store_lock = Lock()


def link_readers(d: Ddnnf) -> list[tuple[int, ...]]:
    """The tape's reader graph, linked on first use; returns ``d.readers``.

    Only the partial rung reads the graph, so set-up leaves it empty and the
    first call links it (:func:`_link_readers`) under the store lock.  A
    linked graph is returned as it is, so racing first calls link it once.
    """
    readers = d.readers
    if not readers:
        with _store_lock:
            readers = d.readers or _link_readers(d)  # a racing call may have linked it
    return readers


def _link_readers(d: Ddnnf) -> list[tuple[int, ...]]:
    """Build ``readers`` and ``writes_node`` in one pass over the tape, and
    store them, ``readers`` last.

    ``readers`` is the exact inverse of the tape's reads over every slot:
    the nodes and the scratch slots, each mapped to the indices of the
    instructions that read it, each index once.  An instruction names one
    slot twice only where merging left a node over two equal children,
    such as an And over one False node twice.
    ``writes_node`` flags the instructions that write a node, so a set of
    instructions names the nodes it writes.  A reader that finds
    ``readers`` filled finds ``writes_node`` filled too.
    """
    n = len(d.kind)
    tape = d.tape
    # most slots have one reader, and the slots only instruction j reads
    # share one (j,); only slots read twice get a list, since a tuple or a
    # list per slot would raise the memory the graph keeps
    readers: list[tuple[int, ...]] = [()] * (n + d.scratch_slots)
    more: dict[int, list[int]] = {}
    writes_node = bytearray(len(tape))
    for j, (dst, a, b) in enumerate(tape):
        if (~dst if dst < 0 else dst) < n:
            writes_node[j] = 1
        one = (j,)
        if not readers[a]:
            readers[a] = one
        elif a in more:
            more[a].append(j)
        else:
            more[a] = [*readers[a], j]
        if b == a:  # an instruction reads a slot once, however often it names it
            continue
        if not readers[b]:  # the same for the second operand
            readers[b] = one
        elif b in more:
            more[b].append(j)
        else:
            more[b] = [*readers[b], j]
    for s, js in more.items():
        readers[s] = tuple(js)
    d.writes_node = bytes(writes_node)
    d.readers = readers
    return readers


def mark_ancestors(d: Ddnnf, literals) -> set[int]:
    """The tape instructions whose value depends on the nodes holding the
    given literals, as a set of instruction indices.

    Marking climbs ``d.readers``, which :func:`link_readers` links on the
    first call: it starts from the readers of the literals' nodes, and from
    each marked instruction climbs the readers of the slot it writes.  The
    marked instructions are the ones that write the literals' ancestor
    nodes and the scratch slots on the way.  Only literals whose nodes
    change value are worth seeding: those forced to zero, and in a session
    those restored to their baseline.  A literal forced to one equals its
    baseline and changes nothing upstream.
    """
    readers = link_readers(d)
    tape = d.tape
    marked: set[int] = set()
    index = d.literal_index
    stack = [j for lit in literals if lit in index for j in readers[index[lit]]]
    while stack:
        j = stack.pop()
        if j not in marked:
            marked.add(j)
            dst = tape[j][0]
            stack.extend(readers[~dst if dst < 0 else dst])
    return marked


def _marked_order(d: Ddnnf, literals) -> tuple[tuple[tuple[int, int, int], ...], int]:
    """The tape instructions to rerun when ``literals`` are reset, in tape
    order, and the number of nodes marking them reaches.

    Marks with :func:`mark_ancestors`, which links the reader graph on
    first use, once for all of ``literals``: a one-literal miss marks here,
    and so does a reset of several literals when the cache lacks two or
    more of their orders (see :func:`_union_order`).  Tape order is a
    topological order, so each instruction reads final values.  The
    instructions are the tape's own tuples, gathered once here, so a stored
    order runs with no index lookup.  The nodes are the marked
    instructions that write a node, plus the literals' own nodes: every
    instruction writes one slot and each literal has one node, or none
    when no node holds it, so nothing is counted twice.
    """
    order = sorted(mark_ancestors(d, literals))
    flags = d.writes_node
    # itemgetter of two or more indices returns a tuple, in a third of the
    # time that map takes over an order of some 350 instructions
    marked = sum(
        itemgetter(*order)(flags) if len(order) > 1 else map(flags.__getitem__, order)
    )
    marked += sum(map(d.literal_index.__contains__, literals))
    return tuple(map(d.tape.__getitem__, order)), marked


#: The ancestor orders kept on one circuit hold at most this many
#: instruction entries per tape slot (node or scratch slot) in total.  An
#: entry is a reference to one of the tape's own tuples, 8 bytes, so the
#: budget bounds the orders at about 256 bytes per slot.  On circuits
#: shaped like compiled feature models, four passes of a configurator
#: session's script keep 18-20 entries per slot, but the total grows with
#: the square of the depth: about 1200 per slot on a 2000-level Shannon
#: chain.  Merging equal nodes shrinks the node count far more than the
#: slot count, so a budget per node would shrink faster than the orders do.
ANCESTOR_ORDER_BUDGET = 32


def _ancestor_order(d: Ddnnf, lit: int) -> tuple[tuple[tuple[int, int, int], ...], int]:
    """:func:`_marked_order` of ``lit`` alone.

    Read from ``d.ancestor_orders``.  A miss marks and stores the order
    while the circuit's orders stay within :data:`ANCESTOR_ORDER_BUDGET`
    entries per tape slot; once that is spent, a miss marks and stores
    nothing.
    A one-literal reset calls it, and so does a reset of several literals
    for the one literal whose order the cache lacks, if it lacks only one.
    """
    kept = d.ancestor_orders.get(lit)
    if kept is None:
        kept = order, _ = _marked_order(d, (lit,))
        budget = ANCESTOR_ORDER_BUDGET * (len(d.kind) + d.scratch_slots)
        with _store_lock:
            # a racing miss on the same literal may have stored an equal order
            if lit not in d.ancestor_orders and d.ancestor_entries + len(order) <= budget:
                d.ancestor_orders[lit] = kept
                d.ancestor_entries += len(order)
    return kept


_destination = itemgetter(0)


def _union_order(d: Ddnnf, literals) -> tuple[list, int]:
    """The instructions to rerun when several ``literals`` are reset, as
    passes to run one after the other, each in tape order, and the number
    of nodes marking them reaches.

    When ``d.ancestor_orders`` lacks at most one of the literals' orders,
    the passes come from the cached orders, and the literals the cache
    holds mark nothing; one uncached literal is marked alone and stored by
    :func:`_ancestor_order`.  The orders are walked from last to first, and
    each keeps only the instructions that no later order holds, found
    through the set of the later orders' destinations (an instruction is
    the one writer of its destination).  So each instruction of the union
    runs once, in the pass of the last order that holds it.  Its operands
    are final by then: an instruction that no later order holds depends on
    none of their literals, so each operand's writer runs in an earlier
    pass or earlier in its own.  The nodes are the last order's stored
    count, plus the earlier passes' instructions that write a node (a
    destination in ``range(-n, n)``) and the earlier literals' own nodes.

    With two or more uncached, every literal is marked together once and
    nothing is stored, which gives one pass: marking them one by one would
    climb their shared ancestors once per literal, and marking only the
    uncached ones costs nearly what marking all of them does.
    """
    kept = d.ancestor_orders
    hits, missing = [], None
    for lit in literals:
        if lit in kept:
            hits.append(lit)
        elif missing is None:
            missing = lit
        else:
            order, marked = _marked_order(d, literals)
            return [order], marked
    order, marked = _ancestor_order(d, hits.pop() if missing is None else missing)
    later = set(map(_destination, order))
    passes = [order]
    is_node = range(-len(d.kind), len(d.kind)).__contains__
    for lit in reversed(hits):
        run = [instruction for instruction in kept[lit][0] if instruction[0] not in later]
        passes.append(run)
        dsts = [*map(_destination, run)]
        later.update(dsts)
        marked += sum(map(is_node, dsts))
    passes.reverse()
    return passes, marked + sum(map(d.literal_index.__contains__, hits))


@dataclass
class SessionState:
    """What a session keeps between lines for :func:`query` to start from.

    ``zero_literals`` is the zero-literal set of the last line that
    :func:`query` evaluated, and ``values`` that line's value of every tape
    slot: every node and the scratch slots (``None`` before the first
    line).  Every slot is current, scratch slots too, because a partial
    line reruns every instruction whose value changed, and the next
    partial line reads an unmarked scratch slot as it stands.
    A state belongs to one circuit, and :func:`query` updates it in place,
    so it serves one caller at a time.
    """

    zero_literals: set[int] = field(default_factory=set)
    values: list[int] | None = None


def _assumed_literals(d: Ddnnf, assumptions: Assumptions) -> list[int]:
    """The signed literals of ``assumptions``: ``+v`` for an included
    ``v``, ``-v`` for an excluded one.

    Every variable is checked against the range first, since a variable
    below 1 would turn into a valid literal: an included -3 into ``-3``.
    """
    n = d.num_variables
    for v in assumptions.variables():
        if not 1 <= v <= n:
            raise VariableOutOfRange(f"variable {v} outside 1..{n}")
    return [*assumptions.include, *map(neg, assumptions.exclude)]


def query(
    d: Ddnnf,
    assumptions: Assumptions | Iterable[int],
    cfg: OptimizationConfig = FULL,
    state: SessionState | None = None,
) -> QueryResult:
    """Cardinality of the partial configuration given by ``assumptions``:
    an :class:`~ddnnf.core.Assumptions`, or signed literals (``+v``
    includes ``v``, ``-v`` excludes it; repeats are allowed).

    A literal whose variable lies outside ``1..n`` raises
    :class:`~ddnnf.errors.VariableOutOfRange`.  Contradictory assumptions
    legitimately count 0 and are answered without touching the circuit.
    The zero-literal set is one pass of the literals through the literal
    table's ``free`` dict; only the literals it does not hold meet the
    range check, the contradiction test and the core/dead shortcut (see the
    module docstring).  The full rung sweeps ``d.runs``, and the partial
    rung the tape instructions it marks or reads from the order cache.
    Assumptions on omitted variables never reach the traversal: pinning a
    free variable exactly halves the omitted-variable correction factor.
    The count is identical under every configuration.

    With a ``state``, the query may start from the kept value vector of the
    previous line instead of the baselines (see the module docstring), and
    keeps its own vector there for the next line.
    """
    _require_preprocessed(d)
    if isinstance(assumptions, Assumptions):
        assumptions = _assumed_literals(d, assumptions)
    literals = set(assumptions)
    table = d.literal_table
    free = table.free
    # the literals of core, dead and omitted variables and those out of range
    rest = literals.difference(free)
    pinned = rest - table.present  # omitted variables, or out of range
    if pinned:
        n = d.num_variables
        for lit in pinned:
            if not 1 <= abs(lit) <= n:
                raise VariableOutOfRange(f"variable {abs(lit)} outside 1..{n}")
    zero_literals = set(map(free.get, literals))
    zero_literals.discard(None)  # what the literals in ``rest`` mapped to
    # a literal is free exactly when its negation is, so a contradiction
    # meets a free literal's negation in the zero set or lies within rest
    if not zero_literals.isdisjoint(literals) or not rest.isdisjoint(map(neg, rest)):
        return QueryResult(0, 0, 0, "contradiction")
    # no contradiction is left, so each pinned literal pins its own variable
    factor = d.omitted_factor >> len(pinned)

    if cfg.core_dead_shortcuts:
        if not table.conflicting.isdisjoint(rest):
            return QueryResult(0, 0, 0, "shortcut")
    else:
        # core and dead variables' literals stay, nodeless ones too
        zero_literals.update(map(neg, rest - pinned))
    if not zero_literals:
        return QueryResult(d.baseline[d.root] * factor, 0, 0, "shortcut")

    # reset the leaves that differ from the kept vector's when they are fewer
    # than those that differ from the baselines'; a tie starts from the
    # baselines.  The symmetric difference has len(zero_literals) + len(old)
    # - 2 * shared literals, so only a line that takes the kept vector builds
    # it, and a kept set at least twice as large cannot win (shared is at
    # most len(zero_literals)), so it is not intersected.
    node = d.literal_index.get  # None for a zero literal no node holds
    kept = state is not None and state.values is not None
    if kept:
        old = state.zero_literals
        if len(old) >= 2 * len(zero_literals):
            kept = False
        else:
            shared = len(zero_literals & old)
            if shared == len(zero_literals) == len(old):
                return QueryResult(state.values[d.root] * factor, 0, 0, "shortcut")
            kept = len(old) < 2 * shared
    if kept:
        # an interrupted update must not leave a half-updated vector behind
        values, state.values = state.values, None
        delta, baseline = zero_literals ^ old, d.baseline
        for lit in delta:
            i = node(lit)
            if i is not None:
                values[i] = 0 if lit in zero_literals else baseline[i]
    else:
        # every slot under no assumptions, then the reset literals zeroed
        delta, values = zero_literals, d.baseline.copy()
        for i in map(node, delta):
            if i is not None:
                values[i] = 0

    if len(delta) <= cfg.traversal_bypass_fraction * d.num_variables:
        if len(delta) == 1:
            (lit,) = delta
            order, marked = _ancestor_order(d, lit)
            sweep(order, values)
        else:
            passes, marked = _union_order(d, delta)
            for order in passes:
                sweep(order, values)
        result = QueryResult(values[d.root] * factor, marked, marked, "partial")
    else:
        sweep_runs(d.runs, values)
        result = QueryResult(values[d.root] * factor, len(d.nodes), 0, "full")
    if state is not None:
        state.zero_literals, state.values = zero_literals, values
    return result


def _derivatives(d: Ddnnf) -> list[int]:
    """Every slot's derivative entry after the circuit's adjoint program
    has run once; the entry of a negative literal's node is its
    derivative.

    The first call on a preprocessed circuit compiles the program
    (:func:`~ddnnf.core.compile_adjoint`) and stores it as ``d.adjoint``.
    The run starts from the root's derivative 1.  Since every slot is
    written once, a slot's derivative is complete when the program reaches
    the instruction that wrote it; the instruction hands it on, unchanged
    where the multiplier is 1 and stored as it is into a slot that still
    holds 0, so an Or or a leaf-guarded And allocates no product, and a
    slot's first share no sum.  The slot's entry is then reset to 0, so
    inner derivatives do not all live at once.  Leaves write nothing, so
    their entries stay.
    """
    program = d.adjoint
    if program is None:
        # racing first tables each compile an equal program and store it whole
        program = d.adjoint = compile_adjoint(d)
    derivative = [0] * len(d.baseline)
    derivative[d.root] = 1
    for dst, a, ma, b, mb in program:
        g = derivative[dst]
        if g:
            derivative[dst] = 0
            x = g if ma == 1 else g * ma
            y = derivative[a]
            derivative[a] = y + x if y else x
            if b >= 0:
                x = g if mb == 1 else g * mb
                y = derivative[b]
                derivative[b] = y + x if y else x
    return derivative


def count_feature(d: Ddnnf, feature: int) -> int:
    """Cardinality of one feature: models that include it.

    Equals ``query(d, Assumptions.of({feature})).count``.  Once a table has
    stored the feature counts it is their entry ``feature - 1``, and
    before that it is that query.
    """
    _require_preprocessed(d)
    n = d.num_variables
    if not 1 <= feature <= n:
        raise VariableOutOfRange(f"variable {feature} outside 1..{n}")
    counts = d.feature_counts
    if counts is None:
        return query(d, (feature,)).count
    return counts[feature - 1]


def count_all_features(d: Ddnnf) -> list[tuple[int, int]]:
    """(variable, cardinality) for every variable, ascending.

    Every table runs the circuit's adjoint program (:func:`_derivatives`),
    whose per-slot list lives only until the counts are taken, and stores
    the counts as ``d.feature_counts`` for later lookups.  The first table
    on a preprocessed circuit also compiles the program, about one more
    pass; later tables only run it, and read neither counts an earlier
    table stored nor a forward sweep.  Each count takes the shortcuts
    :func:`query` takes: an omitted variable halves the omitted factor, a
    dead one counts 0 and a core one every model.  The other variables are
    the free ones, whose literals the literal table's ``free`` dict holds:
    a free ``v`` has both literals in the circuit, and counts the root
    baseline minus the derivative at the node of ``-v``, times the omitted
    factor.  So the counts start as every model's, the omitted and dead
    entries are written from their sets, and the free entries from the
    negative free literals, with no membership test per variable.
    """
    _require_preprocessed(d)
    derivative = _derivatives(d)
    root_count, factor = d.baseline[d.root], d.omitted_factor
    every = root_count * factor
    half = root_count * (factor >> 1)  # read only when something is omitted
    counts = [every] * d.num_variables  # a core variable's count
    for v in d.omitted:
        counts[v - 1] = half
    for v in d.dead:
        counts[v - 1] = 0
    node = d.literal_index
    for lit in d.literal_table.free:
        if lit < 0:  # -v for each free v, whose entry is ~lit = v - 1
            counts[~lit] = (root_count - derivative[node[lit]]) * factor
    d.feature_counts = counts
    return list(enumerate(counts, 1))
