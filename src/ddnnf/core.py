"""In-memory d-DNNF circuit model and the exhaustive counting oracle.

A circuit is a set of parallel per-node lists in topological order (children
always precede their parents); node indices are the only node identity, and
no per-node object exists.  Counts are plain Python ints, so
arbitrary-precision arithmetic is exact everywhere.

Variables are the 1-based integers ``1..num_variables``.  A signed literal is
``+v`` (variable true) or ``-v`` (variable false).  Variables that are
declared but never occur in the circuit are *omitted*: they are free, and
every count is corrected by a power-of-two factor instead of rewriting the
circuit.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

from .errors import NotSmooth, OracleLimitExceeded

ORACLE_LIMIT_DEFAULT = 24


class NodeKind(Enum):
    AND = "and"
    OR = "or"
    LITERAL = "literal"
    TRUE = "true"
    FALSE = "false"


# The members as module globals.  Per-node loops compare against these,
# because looking up ``NodeKind.AND`` goes through the Enum class and cost
# 212 ns a lookup on CPython 3.11.
AND, OR, LITERAL = NodeKind.AND, NodeKind.OR, NodeKind.LITERAL
TRUE, FALSE = NodeKind.TRUE, NodeKind.FALSE


@dataclass(frozen=True)
class LiteralTable:
    """What each literal of a query does, keyed by both signs of every
    *present* variable, one that occurs in the circuit.

    A query literal ``lit`` forces the literal ``-lit`` to zero.
    ``conflicting`` holds the present literals that rule out every model:
    ``-v`` for a core ``v`` and ``+v`` for a dead one.  ``free`` holds both
    signs of the present variables that are neither core nor dead; the
    other present literals (``+v`` for a core ``v``, ``-v`` for a dead one)
    change no count.  A literal outside ``present`` pins an omitted
    variable if its variable is in range, and names no variable otherwise.
    ``present`` and ``free`` hold both signs of each of their variables,
    so a query negates its literals once and intersects the result with
    them (see :func:`ddnnf.engine.query`).
    """

    present: frozenset[int] = frozenset()
    free: frozenset[int] = frozenset()
    conflicting: frozenset[int] = frozenset()

    @classmethod
    def build(cls, literals, core, dead) -> "LiteralTable":
        """The table of a circuit whose nodes hold ``literals``, with the
        given core and dead variables."""
        present = frozenset(literals)
        present |= frozenset([-lit for lit in present])
        fixed = {*core, *dead}
        fixed |= {-v for v in fixed}
        conflicting = frozenset([-v for v in core] + [*dead])
        return cls(present, present - fixed, conflicting)


EMPTY_TABLE = LiteralTable()


@dataclass(slots=True)
class Ddnnf:
    """A d-DNNF circuit plus the lookup structures built by preprocessing.

    Node ``i`` is the ``i``-th entry of each parallel list:

    * ``kind[i]``: its :class:`NodeKind`;
    * ``literal[i]``: the signed literal of a LITERAL node, 0 otherwise;
    * ``children[i]``: a tuple of child indices, all below ``i``;
    * ``decision[i]``: the decision variable some formats attach to Or nodes,
      0 otherwise; metadata only, never consulted for counting.

    The parsers fill these, ``num_variables`` and ``root``; a missing
    ``decision`` list means all zeros.  Preprocessing fills the next fields:

    * ``tape``: the And and Or nodes compiled to the instructions of one
      forward sweep (see :func:`compile_tape`); a value list for it holds
      one entry per *slot*: every node, then the ``scratch_slots`` scratch
      slots the tape writes for nodes with three or more children;
    * ``baseline[s]``: every slot's value under no assumptions, one list
      at exact size: each node's count, then the scratch slots' values;
    * ``literal_index``: maps every literal that occurs in the circuit to
      the one node holding it (a preprocessed circuit holds one node per
      literal);
    * ``core``, ``dead`` and ``omitted``: the variables in every model, in
      none, and declared but absent from the circuit;
    * ``literal_table``: the :class:`LiteralTable` a query reads its
      literals through.

    The other fields are filled by the calls that answer queries, not by
    preprocessing (see :mod:`ddnnf.engine`), and every preprocess empties
    them again: ``link_parents`` the tape's indexes (the reader graph and
    the ancestor orders, which index one tape and are dropped together by
    :func:`drop_tape_indexes`), and ``compute_baseline`` the rest.  The
    first partial-rung query links the tape's *reader graph*, two fields
    built together by :func:`ddnnf.engine.link_readers`; a stream session
    links it in set-up:

    * ``readers[s]``: for every slot ``s``, a tuple of the indices of the
      tape instructions that read it, ascending and each once, the exact
      inverse of the tape's reads; the slots that only instruction ``j``
      reads share one ``(j,)`` tuple;
    * ``writes_node[j]``: 1 when tape instruction ``j`` writes a node, 0
      when it writes a scratch slot.

    Tables and partial queries keep four more:

    * ``adjoint``: the backward pass compiled from the tape and the values
      under no assumptions (see :func:`compile_adjoint`), built by the first
      all-features table;
    * ``feature_counts[v - 1]``: the cardinality of variable ``v``, one
      entry per variable; every table stores a fresh list;
    * ``ancestor_orders``: maps a literal to ``(order, marked)``: the
      indices of the tape instructions that write its nodes' ancestor
      slots, ascending, as an ``array("i")``, which the partial rung runs
      when that literal alone is reset, and the number of nodes marking
      that literal reaches.  A one-literal partial query stores it on a
      miss while the stored orders stay within
      ``engine.ANCESTOR_ORDER_BUDGET`` entries per tape slot in total, and
      ``ancestor_entries`` counts the entries they hold.

    Per-query values and marks live in query-local buffers, never here.
    """

    kind: list[NodeKind]
    literal: list[int]
    children: list[tuple[int, ...]]
    num_variables: int
    root: int
    decision: list[int] = field(default_factory=list)
    baseline: list[int] = field(default_factory=list)
    tape: list[tuple[int, int, int]] = field(default_factory=list)
    scratch_slots: int = 0
    literal_index: dict[int, int] = field(default_factory=dict)
    core: frozenset[int] = frozenset()
    dead: frozenset[int] = frozenset()
    omitted: frozenset[int] = frozenset()
    literal_table: LiteralTable = EMPTY_TABLE
    # filled by call history, not by the circuit, so equality ignores them
    readers: list[tuple[int, ...]] = field(default_factory=list, compare=False)
    writes_node: bytes = field(default=b"", compare=False)
    adjoint: list[tuple[int, int, int, int, int]] | None = field(
        default=None, compare=False
    )
    feature_counts: list[int] | None = field(default=None, compare=False)
    ancestor_orders: dict[int, tuple[array, int]] = field(
        default_factory=dict, compare=False
    )
    ancestor_entries: int = field(default=0, compare=False)
    is_smooth: bool = False
    preprocessed: bool = False

    def __post_init__(self):
        if not self.decision:
            self.decision = [0] * len(self.kind)

    @property
    def nodes(self) -> range:
        """The node indices; ``len(d.nodes)`` is the node count."""
        return range(len(self.kind))

    @property
    def omitted_factor(self) -> int:
        """Each omitted variable is free and doubles every count."""
        return 1 << len(self.omitted)


@dataclass(frozen=True)
class Assumptions:
    """A set of included and excluded variables.

    Overlapping sets are representable; such assumptions are *contradictory*
    and every counting operation answers 0 for them rather than raising.
    """

    include: frozenset[int] = frozenset()
    exclude: frozenset[int] = frozenset()

    @classmethod
    def of(cls, include=(), exclude=()) -> "Assumptions":
        return cls(frozenset(include), frozenset(exclude))

    @classmethod
    def from_literals(cls, literals) -> "Assumptions":
        """Build from signed literals: +v includes v, -v excludes v.

        ``literals`` may be any iterable, a generator too; it is read once.
        A literal 0 names no variable; it is included as variable 0, so a
        query rejects it as out of range instead of dropping it.
        """
        literals = tuple(literals)
        inc = frozenset(lit for lit in literals if lit >= 0)
        exc = frozenset(-lit for lit in literals if lit < 0)
        return cls(inc, exc)

    @property
    def contradictory(self) -> bool:
        return bool(self.include & self.exclude)

    def variables(self) -> frozenset[int]:
        return self.include | self.exclude

    def __len__(self) -> int:
        return len(self.include) + len(self.exclude)


EMPTY_ASSUMPTIONS = Assumptions()


@dataclass(frozen=True)
class Violation:
    """One structural defect found by :func:`validate`.

    ``severity`` is "error" except for smoothness findings on a circuit that
    has not been smoothed yet, which are merely informational.
    """

    kind: str
    node: int
    message: str
    severity: str = "error"


def mask_variables(mask: int):
    """Yield the variables of a bitmask in ascending order.

    Walks the set bits only, lowest first, so a sparse mask over many
    variables costs one step per variable it holds.
    """
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def root_cone(d: Ddnnf) -> list[int]:
    """Indices of the nodes reachable from the root, ascending.

    One sweep from the root down suffices, because children precede their
    parents; ascending order keeps it that way.
    """
    children = d.children
    root = d.root
    reached = [False] * (root + 1)
    reached[root] = True
    for i in range(root, -1, -1):
        if reached[i]:
            for c in children[i]:
                reached[c] = True
    return [i for i, r in enumerate(reached) if r]


# The positions a merging renumber gives the nodes that fold to True or to
# False until a node keeps one as a child; a placed node is never below 0.
_FOLDED_TRUE, _FOLDED_FALSE = -2, -3


def renumber(d: Ddnnf, order: Sequence[int], merge: bool = False) -> None:
    """Keep the nodes listed in ``order``, in that order, as nodes 0, 1, ...

    Every child of a kept node must be kept too, and listed before it.  The
    tape, its indexes, the baselines and the literal index no longer match
    the new indices, so they are emptied, the literal table with the
    index, and the circuit counts as not preprocessed; preprocessing
    refills them, and the first partial query links the graph again.

    With ``merge``, the pass is also a unique table that folds constants.
    A node whose kind, literal and renumbered children (in their order)
    equal those of a node already placed is not kept, and its parents and
    the root point at that node instead, which keeps its own decision
    variable.  Before the lookup, an And drops its True children and an Or
    its False children (a childless And and a TRUE leaf are both True, a
    childless Or and a FALSE leaf both False); an And or Or left with no
    child is that constant, and one left with one child is not kept: its
    parents and the root point at the child.  An And with a False child and
    an Or with a True child keep it, so folding drops no literal
    occurrence.  The True and the False node are each placed once, just
    before the first node that keeps it as a child, or last when the root
    is that constant, so no constant is left without a reader.  Children
    are renumbered before their parents, so structurally identical
    subcircuits merge whole, and the result holds no two equal nodes, one
    node per literal, no one-child And or Or and no constant operand that
    folding drops.  Every count stays the same, since equal nodes count
    equally under any assumptions and a dropped operand is the identity of
    its node's operation.  When the result equals the circuit, the circuit
    is left wholly as it is, its tape's indexes included.
    """
    kind, literal, decision, children = d.kind, d.literal, d.decision, d.children
    position = [-1] * len(kind)
    if merge:
        new_kind: list[NodeKind] = []
        new_literal: list[int] = []
        new_decision: list[int] = []
        renamed: list[tuple[int, ...]] = []
        # one table per kind of key: And and Or nodes by their children,
        # literal leaves by their literal, and the placed constants by the
        # position their folded nodes take until one is kept as a child
        ands: dict = {}
        ors: dict = {}
        leaves: dict = {}
        constants: dict = {}

        def constant(folded: int) -> int:
            new = constants.get(folded)
            if new is None:
                new = constants[folded] = len(renamed)
                new_kind.append(TRUE if folded == _FOLDED_TRUE else FALSE)
                new_literal.append(0)
                new_decision.append(0)
                renamed.append(())
            return new

        def fold(old: int, k, ch: tuple[int, ...]) -> tuple[int, ...] | None:
            # the children a node keeps once the constants that do not change
            # it are dropped, or None when it is not kept
            unit = _FOLDED_TRUE if k is AND or k is TRUE else _FOLDED_FALSE
            ch = tuple([c for c in ch if c != unit])
            if len(ch) < 2:
                position[old] = ch[0] if ch else unit
                return None
            return tuple([c if c >= 0 else constant(c) for c in ch])

        for old in order:
            k = kind[old]
            if k is LITERAL:
                lit = literal[old]
                placed = len(renamed)
                new = position[old] = leaves.setdefault(lit, placed)
                if new == placed:
                    new_kind.append(k)
                    new_literal.append(lit)
                    new_decision.append(decision[old])
                    renamed.append(())
                continue
            ch = children[old]
            if len(ch) == 2:  # most nodes: no inner loop
                a, b = ch
                a = position[a]
                b = position[b]
                if a | b >= 0:  # neither is a folded constant
                    ch = (a, b)
                else:
                    unit = _FOLDED_TRUE if k is AND else _FOLDED_FALSE
                    if a == unit:
                        position[old] = b
                        continue
                    if b == unit:
                        position[old] = a
                        continue
                    ch = (a if a >= 0 else constant(a), b if b >= 0 else constant(b))
            else:
                ch = tuple([position[c] for c in ch])
                if len(ch) < 2 or min(ch) < 0:
                    ch = fold(old, k, ch)
                    if ch is None:
                        continue
            table = ands if k is AND else ors
            placed = len(renamed)
            new = position[old] = table.setdefault(ch, placed)
            if new == placed:
                new_kind.append(k)
                new_literal.append(0)
                new_decision.append(decision[old])
                renamed.append(ch)
        del ands, ors, leaves
        root = position[d.root]
        if root < 0:
            root = constant(root)
        if (
            len(renamed) == len(kind) and root == d.root and renamed == children
            and new_kind == kind and new_literal == literal and new_decision == decision
        ):
            return
        d.kind, d.literal, d.decision = new_kind, new_literal, new_decision
        d.root = root
    else:
        for new, old in enumerate(order):
            position[old] = new
        d.kind = [kind[i] for i in order]
        d.literal = [literal[i] for i in order]
        d.decision = [decision[i] for i in order]
        renamed = []
        for i in order:
            ch = children[i]
            if len(ch) == 2:  # most nodes: no inner loop
                a, b = ch
                renamed.append((position[a], position[b]))
            else:
                renamed.append(tuple([position[c] for c in ch]))
        d.root = position[d.root]
    d.children = renamed
    d.baseline, d.tape, d.literal_index = [], [], {}
    d.literal_table = EMPTY_TABLE
    d.scratch_slots = 0
    drop_tape_indexes(d)
    d.preprocessed = False


def drop_tape_indexes(d: Ddnnf) -> None:
    """Empty the tape's indexes: the reader graph (``readers`` and
    ``writes_node``) and the ancestor orders (``ancestor_orders`` and
    ``ancestor_entries``).

    Both index one tape, and a union of cached orders reads the graph's
    ``writes_node``, so they are dropped together.  The first partial query
    links the graph again, and queries store orders anew.
    """
    d.readers, d.writes_node = [], b""
    d.ancestor_orders, d.ancestor_entries = {}, 0


def compile_tape(d: Ddnnf) -> tuple[list[tuple[int, int, int]], int]:
    """Compile the And and Or nodes into the instructions of one forward sweep.

    An instruction ``(dst, a, b)`` sets ``values[dst] = values[a] * values[b]``
    for an And node, and an Or node's ``(~dst, a, b)`` sets
    ``values[dst] = values[a] + values[b]``.  The instructions follow node
    order, so each reads final values, and every slot is written by one
    instruction at most.  A node with k >= 3 children takes k - 1
    instructions through k - 2 fresh scratch slots numbered after the
    nodes, from ``len(d.nodes)`` on, laid out as a balanced binary tree:
    the operands are paired level by level, ``s1 = c0 . c1``,
    ``s2 = c2 . c3``, ..., an odd one out rising to the next level as it
    is, until the last pair writes the node.  The tree is ⌈log2 k⌉ deep, so
    a change to one child reaches the node through that many instructions,
    not up to k - 1.  An And or Or with fewer than two children has no
    instruction to take and raises :class:`~ddnnf.errors.NotSmooth`;
    smoothing leaves none, since its renumbering folds a one-child node
    into its child and a childless one into its constant (see
    :func:`renumber`).

    Returns the tape and its scratch slot count.  A value list for
    :func:`sweep` holds every node, then the scratch slots, one entry per slot;
    a full sweep writes each scratch slot before any instruction reads it.
    Set-up's sweep keeps every slot's value under no assumptions as
    ``Ddnnf.baseline``.  Because every slot is written once, the tape run
    backwards is the reverse-mode derivative of the sweep, which reads those
    values; :func:`compile_adjoint` compiles that run once per circuit.  Run
    forwards from a changed slot, the instructions that depend on it are its
    readers, their destinations' readers, and so on:
    :func:`ddnnf.engine.link_readers` links each slot's readers, and the
    partial rung climbs them.

    The tape is data, not code: building it costs one pass over the nodes,
    and :func:`sweep` pays no per-node kind test or child-count branch.
    """
    kind, children = d.kind, d.children
    free = len(kind)  # the next scratch slot
    tape: list[tuple[int, int, int]] = []
    append = tape.append
    for i in range(len(kind)):
        k = kind[i]
        if k is AND:
            dst = i
        elif k is OR:
            dst = ~i
        else:
            continue
        ch = children[i]
        if len(ch) == 2:  # most nodes: one instruction
            a, b = ch
            append((dst, a, b))
        elif len(ch) > 2:
            level = list(ch)
            while len(level) > 2:
                up = []
                for j in range(1, len(level), 2):
                    append((free if dst >= 0 else ~free, level[j - 1], level[j]))
                    up.append(free)
                    free += 1
                if len(level) % 2:
                    up.append(level[-1])
                level = up
            a, b = level
            append((dst, a, b))
        else:
            raise NotSmooth(
                f"node {i} has fewer than two children; smooth the circuit first"
            )
    return tape, free - len(kind)


def compile_adjoint(d: Ddnnf) -> list[tuple[int, int, int, int, int]]:
    """Compile the tape's reverse run into the all-features backward pass.

    Only the derivatives of negative-literal nodes are ever summed, so the
    program keeps an instruction only when its destination is in the root's
    cone and its own cone holds a negative-literal node, and hands a derivative
    only to the operands whose cones hold one.  Each kept tape instruction,
    taken in reverse order, becomes ``(dst, a, ma, b, mb)``: add ``g * ma`` to
    ``a``'s derivative and ``g * mb`` to ``b``'s, where ``g`` is ``dst``'s
    finished derivative; ``b`` is -1 when only one operand needs a derivative.
    The multipliers are baked from the values under no assumptions: 1 for an
    Or, the other operand's value for an And (its entry of ``Ddnnf.baseline``),
    so the program serves only the unconditioned table.  In a wide And's
    balanced tree the other operand is a subproduct of some of the node's
    children, never a running product of all the children before it, so the
    baked multipliers stay short.  Every int the program holds is one the tape
    or the values already hold: an Or's destination is the positive slot index
    its parent's instruction reads.
    """
    tape, values = d.tape, d.baseline
    # wanted[s]: slot s's cone holds a negative-literal node
    wanted = bytearray(len(values))
    for i, lit in enumerate(d.literal):
        if lit < 0:
            wanted[i] = 1
    for dst, a, b in tape:
        if wanted[a] or wanted[b]:
            wanted[~dst if dst < 0 else dst] = 1
    # name[s]: slot s as an int the tape holds, once an instruction kept
    # before it reads s; None means no derivative ever reaches s
    name: list[int | None] = [None] * len(values)
    name[d.root] = d.root
    program: list[tuple[int, int, int, int, int]] = []
    append = program.append
    for dst, a, b in reversed(tape):
        if dst < 0:
            dst = name[~dst]
            ma = mb = 1
        else:
            dst = name[dst]
            ma, mb = values[b], values[a]
        if dst is None:  # outside the root's cone, or no negative literal below
            continue
        if wanted[a]:
            name[a] = a
            if wanted[b]:
                name[b] = b
                append((dst, a, ma, b, mb))
            else:
                append((dst, a, ma, -1, 1))
        elif wanted[b]:
            name[b] = b
            append((dst, b, mb, -1, 1))
    return program


def sweep(tape, values: list[int]) -> None:
    """Run the instructions of a :func:`compile_tape` tape over ``values``.

    ``values`` holds every slot and is updated in place.  ``tape`` may be
    the whole tape or any part of it in tape order, such as the
    instructions a partial query marks: each instruction reads the values
    as they stand, so every slot it reads must be current.
    """
    for dst, a, b in tape:
        if dst < 0:
            values[~dst] = values[a] + values[b]
        else:
            values[dst] = values[a] * values[b]


def present_variables(d: Ddnnf) -> set[int]:
    """Variables that occur in at least one literal node."""
    return {abs(lit) for lit in d.literal if lit}


def validate(d: Ddnnf) -> list[Violation]:
    """Check structural invariants; violations are data, not exceptions.

    Reported kinds: "dangling-child" (index outside the node list), "cycle"
    (child index not strictly below its parent, which is the only way the
    flat lists can loop), "decomposability" (And children share variables)
    and "smoothness" (Or children differ in variable set).  Children that
    are constant False are ignored, since their count, 0, absorbs any
    completion: a FALSE leaf, a childless Or, and an Or whose children are
    all constant False, the rule :func:`ddnnf.preprocess.smooth` follows.
    Determinism is a trust assumption on the compiler and is not checked.

    One pass in node order computes each node's variable mask (bit v-1
    stands for variable v), reading only children below the node, and frees
    a mask once its last such parent has read it, so the masks live at any
    time stay few however wide they are.
    """
    out: list[Violation] = []
    kind, literal, children = d.kind, d.literal, d.children
    n = len(kind)
    uses = [0] * n
    for i in range(n):
        for c in children[i]:
            if 0 <= c < i:
                uses[c] += 1
    masks = [0] * n
    zero: set[int] = set()  # the nodes that are constant False
    for i in range(n):
        k = kind[i]
        if k is LITERAL:
            masks[i] = 1 << (abs(literal[i]) - 1)
        elif k is FALSE:
            zero.add(i)
        below = []
        for c in children[i]:
            if 0 <= c < i:
                below.append(c)
            elif not 0 <= c < n:
                out.append(Violation("dangling-child", i, f"child {c} outside node list"))
            else:
                out.append(Violation("cycle", i, f"child {c} does not precede node {i}"))
        if k is AND:
            union, shared = 0, False
            for c in below:
                m = masks[c]
                if union & m:
                    shared = True
                union |= m
            masks[i] = union
            if shared:
                out.append(Violation("decomposability", i, "children share variables"))
        elif k is OR:
            union = 0
            for c in below:
                union |= masks[c]
            masks[i] = union
            if all(c in zero for c in below):
                zero.add(i)
            elif len({masks[c] for c in below if c not in zero}) > 1:
                severity = "error" if d.is_smooth else "info"
                out.append(
                    Violation(
                        "smoothness", i, "children differ in variable set", severity
                    )
                )
        for c in below:
            uses[c] -= 1
            if not uses[c]:
                masks[c] = 0
    return out


def _single_variable_mask(position: int, width_log2: int) -> int:
    """Truth-table column for the variable at ``position``: a bit per
    assignment over ``2**width_log2`` assignments, set where the variable is
    true.  Built by doubling, so construction is O(width_log2) big-int ops.
    """
    block = 1 << position
    m = ((1 << block) - 1) << block
    span = block << 1
    total = 1 << width_log2
    while span < total:
        m |= m << span
        span <<= 1
    return m


class ExhaustiveCounter:
    """Exhaustive ground truth: count satisfying total assignments.

    Evaluates the circuit as a boolean function over every assignment of the
    variables that occur in it, vectorized as one truth-table bitmask per
    node; a query restricts the root's table by the assumption columns and
    counts bits.  Assignments of omitted variables contribute a factor of
    two each unless the assumption pins them.  Never consults baseline
    counts, so it is independent of the traversal engine it checks.

    Construction does the expensive table build; instances answer any number
    of queries cheaply.
    """

    def __init__(self, d: Ddnnf, limit: int = ORACLE_LIMIT_DEFAULT):
        if d.num_variables > limit:
            raise OracleLimitExceeded(
                f"{d.num_variables} variables exceed the oracle limit of {limit}"
            )
        self.num_variables = d.num_variables
        present = sorted(present_variables(d))
        self._position = {v: i for i, v in enumerate(present)}
        p = len(present)
        self._full = (1 << (1 << p)) - 1
        self._columns: dict[int, int] = {}

        # Remaining-use counters let big tables be freed as soon as every
        # parent has consumed them.
        kind, literal, children = d.kind, d.literal, d.children
        n = len(kind)
        uses = [0] * n
        for ch in children:
            for c in ch:
                uses[c] += 1
        uses[d.root] += 1

        tables: list[int | None] = [None] * n
        for i in range(n):
            k = kind[i]
            if k is LITERAL:
                col = self._column(abs(literal[i]))
                t = col if literal[i] > 0 else self._full ^ col
            elif k is TRUE:
                t = self._full
            elif k is FALSE:
                t = 0
            elif k is AND:
                t = self._full
                for c in children[i]:
                    t &= tables[c]  # type: ignore[operator]
            else:
                t = 0
                for c in children[i]:
                    t |= tables[c]  # type: ignore[operator]
            tables[i] = t
            for c in children[i]:
                uses[c] -= 1
                if uses[c] == 0:
                    tables[c] = None
        self._root_table: int = tables[d.root]  # type: ignore[assignment]

    def _column(self, v: int) -> int:
        m = self._columns.get(v)
        if m is None:
            p = len(self._position)
            m = self._columns[v] = _single_variable_mask(self._position[v], p)
        return m

    def count(self, assumptions: Assumptions = EMPTY_ASSUMPTIONS) -> int:
        if assumptions.contradictory:
            return 0
        m = self._root_table
        position = self._position
        for v in assumptions.include:
            if v in position:
                m &= self._column(v)
        for v in assumptions.exclude:
            if v in position:
                m &= self._full ^ self._column(v)
        count = m.bit_count()

        constrained = assumptions.variables()
        free_omitted = (
            self.num_variables
            - len(position)
            - sum(
                1
                for v in constrained
                if 1 <= v <= self.num_variables and v not in position
            )
        )
        return count << free_omitted


def brute_force_count(
    d: Ddnnf,
    assumptions: Assumptions = EMPTY_ASSUMPTIONS,
    limit: int = ORACLE_LIMIT_DEFAULT,
) -> int:
    """One-shot exhaustive count; see :class:`ExhaustiveCounter`."""
    return ExhaustiveCounter(d, limit).count(assumptions)
