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

from dataclasses import dataclass, field
from enum import Enum

from .errors import OracleLimitExceeded

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
    ``decision`` list means all zeros.  Preprocessing fills every other field:

    * ``parents[i]``: a tuple of parent indices, the inverse of ``children``;
    * ``baseline[i]``: the node's count under no assumptions;
    * ``inner``: the indices of the And and Or nodes, ascending, which is
      the order a bottom-up pass recomputes them in;
    * ``literal_index``, ``core``, ``dead`` and ``omitted``.

    ``derivative_sums`` maps each variable ``v`` to the partial derivative
    of the root count summed over the nodes holding ``-v``: the models that
    forcing ``-v`` to zero removes.  It is ``None`` until an all-features
    table stores it (see :mod:`ddnnf.engine`), and
    ``compute_baseline``, which every preprocess runs, empties it again.

    Per-query values and marks live in query-local buffers, never here.
    """

    kind: list[NodeKind]
    literal: list[int]
    children: list[tuple[int, ...]]
    num_variables: int
    root: int
    decision: list[int] = field(default_factory=list)
    parents: list[tuple[int, ...]] = field(default_factory=list)
    baseline: list[int] = field(default_factory=list)
    inner: list[int] = field(default_factory=list)
    literal_index: dict[int, list[int]] = field(default_factory=dict)
    core: frozenset[int] = frozenset()
    dead: frozenset[int] = frozenset()
    omitted: frozenset[int] = frozenset()
    # filled by call history, not by the circuit, so equality ignores it
    derivative_sums: dict[int, int] | None = field(default=None, compare=False)
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
        """
        literals = tuple(literals)
        inc = frozenset(lit for lit in literals if lit > 0)
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


def variable_masks(d: Ddnnf) -> list[int]:
    """Per-node variable sets as bitmasks (bit v-1 stands for variable v).

    Tolerates malformed child references (they contribute nothing) so that
    :func:`validate` can run on broken circuits.
    """
    kind, literal, children = d.kind, d.literal, d.children
    masks = [0] * len(kind)
    for i in range(len(kind)):
        k = kind[i]
        if k is LITERAL:
            masks[i] = 1 << (abs(literal[i]) - 1)
        elif k is AND or k is OR:
            m = 0
            for c in children[i]:
                if 0 <= c < i:
                    m |= masks[c]
            masks[i] = m
    return masks


def mask_variables(mask: int):
    """Yield the variables of a bitmask in ascending order.

    Walks the set bits only, lowest first, so a sparse mask over many
    variables costs one step per variable it holds.
    """
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def variable_set(d: Ddnnf, node: int) -> set[int]:
    """Variables of all literals reachable from ``node``."""
    return set(mask_variables(variable_masks(d)[node]))


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


def renumber(d: Ddnnf, order: list[int]) -> None:
    """Keep the nodes listed in ``order``, in that order, as nodes 0, 1, ...

    Every child of a kept node must be kept too.  Parents, baselines,
    ``inner`` and the literal index no longer match the new indices, so they
    are emptied and the circuit counts as not preprocessed; preprocessing
    refills them.
    """
    position = [-1] * len(d.kind)
    for new, old in enumerate(order):
        position[old] = new
    d.kind = [d.kind[i] for i in order]
    d.literal = [d.literal[i] for i in order]
    d.decision = [d.decision[i] for i in order]
    children = d.children
    renamed: list[tuple[int, ...]] = []
    for i in order:
        ch = children[i]
        if len(ch) == 2:  # most nodes: no inner loop
            a, b = ch
            renamed.append((position[a], position[b]))
        else:
            renamed.append(tuple([position[c] for c in ch]))
    d.children = renamed
    d.root = position[d.root]
    d.parents, d.baseline, d.inner, d.literal_index = [], [], [], {}
    d.preprocessed = False


def recompute(d: Ddnnf, values: list[int], order) -> None:
    """Recompute the And and Or nodes in ``order`` from their children.

    ``values`` holds a count for every node; ``order`` lists And and Or
    nodes only, ascending, so each node reads its children's final values.
    And nodes multiply, stopping at the first zero factor, and Or nodes add,
    in place.  This one loop serves the baseline pass, the full sweep and
    the partial pass of a query.
    """
    kind, children = d.kind, d.children
    for i in order:
        ch = children[i]
        if len(ch) == 2:  # most nodes: no inner loop
            a, b = ch
            if kind[i] is OR:
                values[i] = values[a] + values[b]
            else:
                values[i] = values[a] * values[b]
        elif kind[i] is OR:
            total = 0
            for c in ch:
                total += values[c]
            values[i] = total
        else:
            product = 1
            for c in ch:
                product *= values[c]
                if not product:
                    break
            values[i] = product


def present_variables(d: Ddnnf) -> set[int]:
    """Variables that occur in at least one literal node."""
    return {abs(lit) for lit in d.literal if lit}


def validate(d: Ddnnf) -> list[Violation]:
    """Check structural invariants; violations are data, not exceptions.

    Reported kinds: "dangling-child" (index outside the node list), "cycle"
    (child index not strictly below its parent, which is the only way the
    flat lists can loop), "decomposability" (And children share variables)
    and "smoothness" (Or children differ in variable set; False children are
    ignored since their count absorbs any completion).  Determinism is a
    trust assumption on the compiler and is not checked.
    """
    out: list[Violation] = []
    masks = variable_masks(d)
    kind, children = d.kind, d.children
    n = len(kind)
    for i in range(n):
        for c in children[i]:
            if not 0 <= c < n:
                out.append(Violation("dangling-child", i, f"child {c} outside node list"))
            elif c >= i:
                out.append(Violation("cycle", i, f"child {c} does not precede node {i}"))
        if kind[i] is AND:
            seen = 0
            for c in children[i]:
                if not 0 <= c < i:
                    continue
                if seen & masks[c]:
                    out.append(
                        Violation("decomposability", i, "children share variables")
                    )
                    break
                seen |= masks[c]
        elif kind[i] is OR:
            child_masks = {
                masks[c]
                for c in children[i]
                if 0 <= c < i and kind[c] is not FALSE
            }
            if len(child_masks) > 1:
                severity = "error" if d.is_smooth else "info"
                out.append(
                    Violation(
                        "smoothness", i, "children differ in variable set", severity
                    )
                )
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
