"""In-memory d-DNNF circuit model and the exhaustive counting oracle.

A circuit is a flat list of nodes in topological order (children always
precede their parents); node indices are the only node identity.  Counts are
plain Python ints, so arbitrary-precision arithmetic is exact everywhere.

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


@dataclass(slots=True)
class Node:
    """One circuit node.

    ``literal`` is the signed literal for LITERAL nodes and 0 otherwise.
    ``decision`` keeps the decision variable some formats attach to Or nodes;
    it is metadata only and never consulted for counting.  ``baseline`` is the
    model count under no assumptions, filled in by preprocessing.  Per-query
    values and marks live in query-local buffers, never on the node.
    """

    kind: NodeKind
    literal: int = 0
    children: list[int] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)
    decision: int = 0
    baseline: int | None = None

    @property
    def variable(self) -> int:
        return abs(self.literal)


@dataclass(slots=True)
class Ddnnf:
    """A d-DNNF circuit plus the lookup structures built by preprocessing.

    The parsers fill ``nodes``, ``num_variables`` and usually ``root``; every
    other field, ``omitted`` included, is filled by preprocessing.
    """

    nodes: list[Node]
    num_variables: int
    root: int | None = None
    literal_index: dict[int, list[int]] = field(default_factory=dict)
    core: frozenset[int] = frozenset()
    dead: frozenset[int] = frozenset()
    omitted: frozenset[int] = frozenset()
    is_smooth: bool = False
    preprocessed: bool = False

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
        """Build from signed literals: +v includes v, -v excludes v."""
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
    masks = [0] * len(d.nodes)
    for i, nd in enumerate(d.nodes):
        if nd.kind is NodeKind.LITERAL:
            masks[i] = 1 << (nd.variable - 1)
        elif nd.kind is NodeKind.AND or nd.kind is NodeKind.OR:
            m = 0
            for c in nd.children:
                if 0 <= c < i:
                    m |= masks[c]
            masks[i] = m
    return masks


def mask_variables(mask: int):
    """Yield the variables of a bitmask in ascending order."""
    v = 1
    while mask:
        if mask & 1:
            yield v
        mask >>= 1
        v += 1


def variable_set(d: Ddnnf, node: int) -> set[int]:
    """Variables of all literals reachable from ``node``."""
    return set(mask_variables(variable_masks(d)[node]))


def root_cone(d: Ddnnf) -> list[int]:
    """Indices of the nodes reachable from the root, ascending.

    Without a designated root the last node stands in, as in c2d files.
    One sweep from the root down suffices, because children precede their
    parents; ascending order keeps it that way.
    """
    root = d.root if d.root is not None else len(d.nodes) - 1
    reached = [False] * (root + 1)
    reached[root] = True
    for i in range(root, -1, -1):
        if reached[i]:
            for c in d.nodes[i].children:
                reached[c] = True
    return [i for i, r in enumerate(reached) if r]


def forward_counts(nodes: list[Node], zero_literals=frozenset()) -> list[int]:
    """Every node's count with the given literals forced to zero.

    One sweep over the topologically ordered node list: And nodes multiply,
    Or nodes add, literals count 1 unless forced to zero, True counts 1 and
    False 0.  Children come first, so each node is visited exactly once.
    """
    values = [0] * len(nodes)
    for i, nd in enumerate(nodes):
        kind = nd.kind
        if kind is NodeKind.LITERAL:
            values[i] = 0 if nd.literal in zero_literals else 1
        elif kind is NodeKind.AND:
            value = 1
            for c in nd.children:
                value *= values[c]
                if value == 0:
                    break
            values[i] = value
        elif kind is NodeKind.OR:
            values[i] = sum(values[c] for c in nd.children)
        elif kind is NodeKind.TRUE:
            values[i] = 1
    return values


def present_variables(d: Ddnnf) -> set[int]:
    """Variables that occur in at least one literal node."""
    return {nd.variable for nd in d.nodes if nd.kind is NodeKind.LITERAL}


def validate(d: Ddnnf) -> list[Violation]:
    """Check structural invariants; violations are data, not exceptions.

    Reported kinds: "dangling-child" (index outside the node list), "cycle"
    (child index not strictly below its parent, which is the only way the
    flat list can loop), "decomposability" (And children share variables) and
    "smoothness" (Or children differ in variable set; False children are
    ignored since their count absorbs any completion).  Determinism is a
    trust assumption on the compiler and is not checked.
    """
    out: list[Violation] = []
    masks = variable_masks(d)
    for i, nd in enumerate(d.nodes):
        for c in nd.children:
            if not 0 <= c < len(d.nodes):
                out.append(Violation("dangling-child", i, f"child {c} outside node list"))
            elif c >= i:
                out.append(Violation("cycle", i, f"child {c} does not precede node {i}"))
        if nd.kind is NodeKind.AND:
            seen = 0
            for c in nd.children:
                if not 0 <= c < i:
                    continue
                if seen & masks[c]:
                    out.append(
                        Violation("decomposability", i, "children share variables")
                    )
                    break
                seen |= masks[c]
        elif nd.kind is NodeKind.OR:
            child_masks = {
                masks[c]
                for c in nd.children
                if 0 <= c < i and d.nodes[c].kind is not NodeKind.FALSE
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
        uses = [0] * len(d.nodes)
        for nd in d.nodes:
            for c in nd.children:
                uses[c] += 1
        root = d.root if d.root is not None else len(d.nodes) - 1
        uses[root] += 1

        tables: list[int | None] = [None] * len(d.nodes)
        for i, nd in enumerate(d.nodes):
            kind = nd.kind
            if kind is NodeKind.LITERAL:
                col = self._column(nd.variable)
                t = col if nd.literal > 0 else self._full ^ col
            elif kind is NodeKind.TRUE:
                t = self._full
            elif kind is NodeKind.FALSE:
                t = 0
            elif kind is NodeKind.AND:
                t = self._full
                for c in nd.children:
                    t &= tables[c]  # type: ignore[operator]
            else:
                t = 0
                for c in nd.children:
                    t |= tables[c]  # type: ignore[operator]
            tables[i] = t
            for c in nd.children:
                uses[c] -= 1
                if uses[c] == 0:
                    tables[c] = None
        self._root_table: int = tables[root]  # type: ignore[assignment]

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
