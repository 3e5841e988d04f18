"""Pipeline that turns a parsed circuit into query-ready form.

Six steps, in order: prune the circuit to the root's cone, smooth it, link
child-to-parent pointers, index the literal nodes, detect core and dead
variables, and compute every node's baseline count under no assumptions.
Preprocessing is the only phase that mutates shared circuit state;
afterwards the circuit is read-only and queries may run concurrently.  The
one later write, the derivative-sum cache each all-features table stores,
is idempotent (see :mod:`ddnnf.engine`).
"""

from __future__ import annotations

from .core import (
    AND,
    FALSE,
    LITERAL,
    OR,
    Ddnnf,
    mask_variables,
    recompute,
    renumber,
    root_cone,
    variable_masks,
)
from .errors import DecomposabilityViolation, NotSmooth
from .parsing import toposort


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


def smooth(d: Ddnnf) -> Ddnnf:
    """Equalize the variable sets of every Or node's children.

    A child missing variables gets conjoined with one shared ``(v or not v)``
    gadget per missing variable; the gadgets are tautologies, so the formula
    is unchanged.  A missing-variable And child with a single reference is
    extended in place, anything else is wrapped in a fresh And node.  False
    children need no gadgets because their count absorbs any completion.
    Idempotent: smoothing a smooth circuit adds no nodes.
    """
    kind, literal, children, decision = d.kind, d.literal, d.children, d.decision
    masks = variable_masks(d)
    for i in range(len(kind)):
        if kind[i] is AND:
            seen = 0
            for c in children[i]:
                if seen & masks[c]:
                    raise DecomposabilityViolation(
                        f"And node {i} has children sharing variables"
                    )
                seen |= masks[c]

    original = len(kind)
    refs = [0] * original
    for ch in children:
        for c in ch:
            refs[c] += 1

    def add(k, lit: int, ch: tuple[int, ...], dec: int, mask: int) -> int:
        kind.append(k)
        literal.append(lit)
        children.append(ch)
        decision.append(dec)
        masks.append(mask)
        return len(kind) - 1

    gadget_for: dict[int, int] = {}

    def gadget(v: int) -> int:
        idx = gadget_for.get(v)
        if idx is None:
            bit = 1 << (v - 1)
            pos = add(LITERAL, v, (), 0, bit)
            neg = add(LITERAL, -v, (), 0, bit)
            idx = gadget_for[v] = add(OR, 0, (pos, neg), v, bit)
        return idx

    grew = False
    for i in range(original):
        if kind[i] is not OR:
            continue
        union = 0
        for c in children[i]:
            if kind[c] is not FALSE:
                union |= masks[c]
        slots = list(children[i])
        for slot, c in enumerate(slots):
            if kind[c] is FALSE:
                continue
            missing = union & ~masks[c]
            if not missing:
                continue
            gadgets = tuple([gadget(v) for v in mask_variables(missing)])
            if kind[c] is AND and refs[c] == 1:
                children[c] += gadgets
                masks[c] = union
            else:
                slots[slot] = add(AND, 0, (c,) + gadgets, 0, union)
            grew = True
        children[i] = tuple(slots)

    if grew:
        toposort(d)
    d.is_smooth = True
    return d


def link_parents(d: Ddnnf) -> Ddnnf:
    """Fill ``parents`` with the exact inverse of the child relation."""
    children = d.children
    parents: list[list[int]] = [[] for _ in children]
    for i in range(len(children)):
        for c in children[i]:
            parents[c].append(i)
    d.parents = [tuple(p) for p in parents]
    return d


def index_literals(d: Ddnnf) -> Ddnnf:
    """Map every signed literal to the node indices holding it."""
    index: dict[int, list[int]] = {}
    for i, lit in enumerate(d.literal):
        if lit:
            index.setdefault(lit, []).append(i)
    d.literal_index = index
    present = {abs(lit) for lit in index}
    d.omitted = frozenset(
        v for v in range(1, d.num_variables + 1) if v not in present
    )
    return d


def compute_core_dead(d: Ddnnf) -> tuple[frozenset[int], frozenset[int]]:
    """Classify variables by literal polarity in one pass.

    On a smooth circuit a variable appearing only positively is core (in
    every satisfying assignment) and one appearing only negatively is dead
    (in none).  Sound only after smoothing, hence the guard.  Omitted
    variables are free: neither core nor dead.
    """
    if not d.is_smooth:
        raise NotSmooth("core/dead detection requires a smoothed circuit")
    positive = {lit for lit in d.literal_index if lit > 0}
    negative = {-lit for lit in d.literal_index if lit < 0}
    d.core = frozenset(positive - negative)
    d.dead = frozenset(negative - positive)
    return d.core, d.dead


def compute_baseline(d: Ddnnf) -> Ddnnf:
    """Store every node's count under no assumptions as its baseline.

    Leaves start at their own count (a literal and True count 1, False 0),
    then :func:`~ddnnf.core.recompute` evaluates the And and Or nodes in
    order; their indices are kept as ``inner`` for the queries' full sweep.
    The derivative sums are taken from the baselines, so they are dropped.
    """
    kind = d.kind
    d.derivative_sums = None
    d.inner = [i for i, k in enumerate(kind) if k is AND or k is OR]
    d.baseline = [0 if k is FALSE else 1 for k in kind]
    recompute(d, d.baseline, d.inner)
    return d


def preprocess(d: Ddnnf) -> Ddnnf:
    """Run the full pipeline; the result answers queries in place."""
    prune(d)
    smooth(d)
    link_parents(d)
    index_literals(d)
    compute_core_dead(d)
    compute_baseline(d)
    d.preprocessed = True
    return d
