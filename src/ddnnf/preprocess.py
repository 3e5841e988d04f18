"""Pipeline that turns a parsed circuit into query-ready form.

Six steps, in order: prune the circuit to the root's cone, smooth it, link
child-to-parent pointers, index the literal nodes, detect core and dead
variables, and compute every node's baseline count under no assumptions.
Preprocessing is the only phase that mutates shared circuit state;
afterwards the circuit is read-only and queries may run concurrently.
"""

from __future__ import annotations

from .core import (
    Ddnnf,
    Node,
    NodeKind,
    forward_counts,
    mask_variables,
    root_cone,
    variable_masks,
)
from .errors import DecomposabilityViolation, MultipleRoots, NotSmooth
from .parsing import toposort


def prune(d: Ddnnf) -> Ddnnf:
    """Drop every node the root does not reach, keeping topological order.

    Lenient inputs may carry unreferenced records.  They never change a
    count, but the later steps read variables off the whole node list, so a
    variable occurring only outside the root's cone would otherwise be
    neither smoothed in nor treated as omitted.  Without a designated root
    nothing is dropped; :func:`link_parents` resolves the root then.
    """
    if d.root is None:
        return d
    keep = root_cone(d)
    if len(keep) == len(d.nodes):
        return d
    position = {old: new for new, old in enumerate(keep)}
    nodes = [d.nodes[i] for i in keep]
    for nd in nodes:
        nd.children = [position[c] for c in nd.children]
    d.nodes = nodes
    d.root = position[d.root]
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
    masks = variable_masks(d)
    for i, nd in enumerate(d.nodes):
        if nd.kind is NodeKind.AND:
            seen = 0
            for c in nd.children:
                if seen & masks[c]:
                    raise DecomposabilityViolation(
                        f"And node {i} has children sharing variables"
                    )
                seen |= masks[c]

    nodes = d.nodes
    original = len(nodes)
    refs = [0] * original
    for nd in nodes:
        for c in nd.children:
            refs[c] += 1

    gadget_for: dict[int, int] = {}

    def gadget(v: int) -> int:
        idx = gadget_for.get(v)
        if idx is None:
            pos = len(nodes)
            nodes.append(Node(NodeKind.LITERAL, literal=v))
            masks.append(1 << (v - 1))
            nodes.append(Node(NodeKind.LITERAL, literal=-v))
            masks.append(1 << (v - 1))
            idx = len(nodes)
            nodes.append(Node(NodeKind.OR, children=[pos, pos + 1], decision=v))
            masks.append(1 << (v - 1))
            gadget_for[v] = idx
        return idx

    grew = False
    for i in range(original):
        nd = nodes[i]
        if nd.kind is not NodeKind.OR:
            continue
        union = 0
        for c in nd.children:
            if nodes[c].kind is not NodeKind.FALSE:
                union |= masks[c]
        for slot, c in enumerate(nd.children):
            if nodes[c].kind is NodeKind.FALSE:
                continue
            missing = union & ~masks[c]
            if not missing:
                continue
            gadgets = [gadget(v) for v in mask_variables(missing)]
            if nodes[c].kind is NodeKind.AND and refs[c] == 1:
                nodes[c].children.extend(gadgets)
                masks[c] = union
            else:
                wrapper = len(nodes)
                nodes.append(Node(NodeKind.AND, children=[c] + gadgets))
                masks.append(union)
                nd.children[slot] = wrapper
            grew = True

    if grew:
        toposort(d)
    d.is_smooth = True
    return d


def link_parents(d: Ddnnf) -> Ddnnf:
    """Fill every node's parents with the exact inverse of the child relation.

    Resolves the root to the unique parentless node when no root was
    designated by the parser; extra parentless nodes are tolerated otherwise
    (lenient inputs may carry unreferenced records).
    """
    for nd in d.nodes:
        nd.parents = []
    for i, nd in enumerate(d.nodes):
        for c in nd.children:
            d.nodes[c].parents.append(i)
    if d.root is None:
        parentless = [i for i, nd in enumerate(d.nodes) if not nd.parents]
        if len(parentless) != 1:
            raise MultipleRoots(f"{len(parentless)} parentless nodes, no designated root")
        d.root = parentless[0]
    return d


def index_literals(d: Ddnnf) -> Ddnnf:
    """Map every signed literal to the node indices holding it."""
    index: dict[int, list[int]] = {}
    for i, nd in enumerate(d.nodes):
        if nd.kind is NodeKind.LITERAL:
            index.setdefault(nd.literal, []).append(i)
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

    This is :func:`~ddnnf.core.forward_counts` with no literal forced to zero.
    """
    for nd, value in zip(d.nodes, forward_counts(d.nodes)):
        nd.baseline = value
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
