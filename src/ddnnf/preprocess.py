"""Pipeline that turns a parsed circuit into query-ready form.

Six steps, in order: prune the circuit to the root's cone, smooth it,
compile the tape, index the literal nodes, detect core and dead variables
(and build the literal table queries read), and run the tape for every
node's baseline count under no assumptions.  That is all set-up builds,
and all that ``--count``, the all-features tables and ``--save-smoothed``
read.  The tape's reader graph, which maps
each slot to the tape instructions that read it, serves only the partial
rung, so the first partial-rung query links it
(:func:`ddnnf.engine.link_readers`); a stream session links it in set-up,
so that its first line does not pay.
Each step is one pass over node lists that are already in topological
order, and each keeps that order: pruning drops nodes, and smoothing places
the nodes it adds where their children precede them, so nothing is sorted.
Smoothing's renumbering also folds constants and merges equal nodes, so
every later step, and every query, runs over a circuit with no two equal
nodes, one node per literal, no one-child And or Or, no True under an And
and no False under an Or.
Preprocessing is the only phase that mutates shared circuit state;
afterwards the circuit is read-only and queries may run concurrently.  The
later writes, the reader graph, the adjoint program the first
all-features table compiles, the feature counts each table stores and the
ancestor orders one-literal queries store, are idempotent (see
:mod:`ddnnf.engine`).
"""

from __future__ import annotations

from .core import (
    AND,
    FALSE,
    LITERAL,
    OR,
    Ddnnf,
    LiteralTable,
    compile_tape,
    drop_tape_indexes,
    mask_variables,
    renumber,
    root_cone,
    sweep,
)
from .errors import DecomposabilityViolation, NotSmooth

# Smoothing emits its order directly, so ``parse_d4`` is toposort's only
# caller.  The name stays importable here because perfbench's tracer wraps it
# by module and attribute, and fails to install when the attribute is missing.
from .parsing import toposort  # noqa: F401


def prune(d: Ddnnf) -> Ddnnf:
    """Drop every node the root does not reach, keeping topological order.

    Lenient inputs may carry unreferenced records.  They never change a
    count, but the later steps read variables off the whole node list, so a
    variable occurring only outside the root's cone would otherwise be
    neither smoothed in nor treated as omitted.
    """
    keep = root_cone(d)
    if len(keep) < len(d.kind):
        renumber(d, keep)
    return d


def _shares_variables(node: int) -> DecomposabilityViolation:
    return DecomposabilityViolation(f"And node {node} has children sharing variables")


def _note_deficits(deficits, i: int, ch, union: int, masks, zero) -> None:
    """Append Or node ``i`` and the variables each child that is not
    constant False lacks."""
    lacking = [
        (slot, tuple(mask_variables(union ^ masks[c])))
        for slot, c in enumerate(ch)
        if masks[c] != union and c not in zero
    ]
    if lacking:
        deficits.append((i, lacking))


def smooth(d: Ddnnf) -> Ddnnf:
    """Equalize the variable sets of every Or node's children.

    A child missing variables gets conjoined with one shared ``(v or not v)``
    gadget per missing variable; the gadgets are tautologies, so the formula
    is unchanged.  A missing-variable And child with a single reference is
    extended in place, anything else is wrapped in a fresh And node.  A
    child that is constant False needs no gadgets because its count, 0,
    absorbs any completion: a FALSE leaf, a childless Or, or an Or whose
    children are all constant False (the rule :func:`~ddnnf.core.validate`
    follows).  Idempotent: smoothing a smooth circuit without equal nodes,
    one-child nodes or constant operands to fold changes nothing, its
    tape's indexes included.

    One bottom-up pass over the nodes, which are in topological order,
    computes every node's variable mask, flags the nodes that are constant
    False, checks decomposability at And nodes and notes the variables each
    Or child lacks.  A mask is freed as soon as its last parent has read it,
    so the masks live at any time stay few however wide they are.  The
    circuit changes only after the pass: a :class:`DecomposabilityViolation`
    leaves it as it was.  The circuit is then renumbered once, with every
    gadget node first (their children are only gadget leaves), then the
    original nodes in their order, each wrapper And just before its Or; a
    circuit that needed no gadget keeps its order.  The renumbering folds
    constants and merges equal nodes (see :func:`~ddnnf.core.renumber`).  An
    And drops its True children and an Or its False children, a node left
    with one child becomes that child, and a node whose kind, literal and
    children equal those of a node placed before it becomes that node.  So a
    d4 edge's ``And(True, L v)`` becomes the leaf, an original ``L v`` leaf
    merges into the gadget's leaf placed before it, an original ``(v or not
    v)`` Or with its children in the gadget's order into the gadget, and the
    copies of a repeated subcircuit into one.  A smoothed circuit holds no
    two equal nodes, one node per literal and no one-child And or Or; an And
    over False keeps it, so no literal occurrence is dropped.
    """
    kind, literal, children = d.kind, d.literal, d.children
    original = len(kind)
    uses = [0] * original
    for ch in children:
        for c in ch:
            uses[c] += 1
    refs = uses.copy()

    # (Or node, [(slot, variables the child lacks), ...]) in node order
    deficits: list[tuple[int, list[tuple[int, tuple[int, ...]]]]] = []
    masks = [0] * original
    # the nodes that are constant False: a FALSE leaf, a childless Or, and an
    # Or whose children all are; each has no variables, so its mask is 0
    zero: set[int] = set()
    for i in range(original):
        k = kind[i]
        if k is LITERAL:
            masks[i] = 1 << (abs(literal[i]) - 1)
            continue
        ch = children[i]
        if len(ch) == 2:  # most nodes: no inner loops
            a, b = ch
            ma, mb = masks[a], masks[b]
            if k is AND and ma & mb:
                raise _shares_variables(i)
            union = masks[i] = ma | mb
            if k is OR:
                if ma != mb:
                    _note_deficits(deficits, i, ch, union, masks, zero)
                elif not union and a in zero and b in zero:
                    zero.add(i)
            uses[a] -= 1
            if not uses[a]:
                masks[a] = 0
            uses[b] -= 1
            if not uses[b]:
                masks[b] = 0
            continue
        union = 0
        if k is AND:
            for c in ch:
                m = masks[c]
                if union & m:
                    raise _shares_variables(i)
                union |= m
        else:
            for c in ch:
                union |= masks[c]
            if k is OR:
                if not union and all(c in zero for c in ch):
                    zero.add(i)
                else:
                    _note_deficits(deficits, i, ch, union, masks, zero)
            elif k is FALSE:
                zero.add(i)
        masks[i] = union
        for c in ch:
            uses[c] -= 1
            if not uses[c]:
                masks[c] = 0
    # every use is spent; the lists go before renumbering, set-up's memory peak
    del masks, uses, zero

    if deficits:
        decision = d.decision
        front: list[int] = []  # the gadget nodes

        def add(k, lit: int, ch: tuple[int, ...], dec: int) -> int:
            kind.append(k)
            literal.append(lit)
            children.append(ch)
            decision.append(dec)
            return len(kind) - 1

        gadget_for: dict[int, int] = {}

        def gadget(v: int) -> int:
            idx = gadget_for.get(v)
            if idx is None:
                pos = add(LITERAL, v, (), 0)
                neg = add(LITERAL, -v, (), 0)
                idx = gadget_for[v] = add(OR, 0, (pos, neg), v)
                front.extend((pos, neg, idx))
            return idx

        rest: list[int] = []  # the original nodes and the wrapper Ands
        placed = 0  # the original nodes below this one are in ``rest``
        for i, lacking in deficits:
            slots = list(children[i])
            wrappers = []
            for slot, variables in lacking:
                c = slots[slot]
                gadgets = tuple([gadget(v) for v in variables])
                if kind[c] is AND and refs[c] == 1:
                    children[c] += gadgets
                else:
                    slots[slot] = add(AND, 0, (c,) + gadgets, 0)
                    wrappers.append(slots[slot])
            children[i] = tuple(slots)
            if wrappers:
                rest.extend(range(placed, i))
                rest.extend(wrappers)
                placed = i
        rest.extend(range(placed, original))
        front += rest
        order = front
        del rest
    else:
        order = range(original)
    del refs, deficits
    renumber(d, order, merge=True)
    d.is_smooth = True
    return d


def link_parents(d: Ddnnf) -> Ddnnf:
    """Compile the tape, and empty its reader graph.

    The stage once also linked the tape's reader graph, which maps each
    slot to the instructions that read it.  Only the partial rung reads
    that graph, so the first partial-rung query links it now
    (:func:`ddnnf.engine.link_readers`), and ``--count``, the tables and
    ``--save-smoothed`` never pay for it.  The circuit must be smoothed
    first: :func:`~ddnnf.core.compile_tape` takes no And or Or with fewer
    than two children.  The name stays because perfbench's tracer wraps it
    by module and attribute, and its layer metrics read this stage's span
    from every set-up window.  The reader graph and the ancestor orders
    that queries keep index the old tape, so they are dropped
    (:func:`~ddnnf.core.drop_tape_indexes`).
    """
    d.tape, d.scratch_slots = compile_tape(d)
    drop_tape_indexes(d)
    return d


def index_literals(d: Ddnnf) -> Ddnnf:
    """Map every signed literal to the node holding it, and note the
    omitted variables.

    Smoothing merged equal nodes, so a literal has one node.
    """
    index = {lit: i for i, lit in enumerate(d.literal) if lit}
    d.literal_index = index
    present = {abs(lit) for lit in index}
    d.omitted = frozenset(
        v for v in range(1, d.num_variables + 1) if v not in present
    )
    return d


def compute_core_dead(d: Ddnnf) -> tuple[frozenset[int], frozenset[int]]:
    """Classify variables by literal polarity in one pass, and build the
    literal table queries read.

    On a smooth circuit a variable appearing only positively is core (in
    every satisfying assignment) and one appearing only negatively is dead
    (in none).  Sound only after smoothing, hence the guard.  Omitted
    variables are free: neither core nor dead.  The
    :class:`~ddnnf.core.LiteralTable` says what each present literal does
    in a query, given these two sets.
    """
    if not d.is_smooth:
        raise NotSmooth("core/dead detection requires a smoothed circuit")
    index = d.literal_index
    positive = {lit for lit in index if lit > 0}
    negative = {-lit for lit in index if lit < 0}
    d.core = frozenset(positive - negative)
    d.dead = frozenset(negative - positive)
    d.literal_table = LiteralTable.build(index, d.core, d.dead)
    return d.core, d.dead


def compute_baseline(d: Ddnnf) -> Ddnnf:
    """Store every slot's value under no assumptions as the baseline.

    Runs the tape that :func:`link_parents` compiled, the one forward
    sweep (:func:`~ddnnf.core.sweep`), once, over the slot count that
    :func:`~ddnnf.core.compile_tape` returned.  Leaves start at their own
    count: False at 0, a literal and True at 1.  And and Or nodes and the
    scratch slots start at 1 too, and the tape overwrites them before any
    instruction reads them.  The sweep's value list is kept whole, at
    exact size, as ``baseline``: every node, then the tape's scratch
    slots.  Every query's start list and the all-features tables' backward
    pass read it.  The adjoint program and the feature counts that tables
    keep belong to the old baselines, so they are dropped.
    """
    kind = d.kind
    d.adjoint = d.feature_counts = None
    values = [1] * (len(kind) + d.scratch_slots)
    for i, k in enumerate(kind):
        if k is FALSE:
            values[i] = 0
    sweep(d.tape, values)
    d.baseline = values
    return d


def preprocess(d: Ddnnf) -> Ddnnf:
    """Run the full pipeline; the result answers queries in place.

    The result holds no two nodes of equal kind, literal and children, one
    node per literal, no one-child And or Or and no constant operand that
    leaves its node's value unchanged (see :func:`smooth`), so its node
    count can be below the input's; every count is the input's.
    """
    prune(d)
    smooth(d)
    link_parents(d)
    index_literals(d)
    compute_core_dead(d)
    compute_baseline(d)
    d.preprocessed = True
    return d
