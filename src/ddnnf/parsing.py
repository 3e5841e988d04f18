"""Parsers and writer for the two on-disk d-DNNF formats.

c2d format: a header ``nnf v e n`` (node count, edge count, variable count)
followed by one node record per line, where child references are 0-based
record indices and always point upward in the file:

    L x        literal node for the signed literal x
    A n i...   And node with n children at record indices i...
    A 0        the constant True
    O d n i... Or node with decision variable d (0 = none) and n children
    O 0 0      the constant False

d4 format: every line is terminated by a sentinel ``0``.  Node declarations
are ``o|a|t|f idx 0`` with explicit 1-based indices; edge lines are
``p c lit... 0`` and attach one operand to node p, namely the conjunction of
node c with the listed literals.  The format does not declare the variable
count, so the caller must supply it.

Both parsers are deliberately lenient about cosmetics: tokens may be
separated by any run of blanks, ``#`` starts a comment, blank lines are
skipped, a c2d header whose node count disagrees with the actual number of
records is tolerated (some compilers emit such files), and duplicate or
unreferenced records are accepted as long as child references stay behind
the referencing record.  No semantic repair is attempted.
"""

from __future__ import annotations

import heapq

from .core import AND, FALSE, LITERAL, OR, TRUE, Ddnnf, NodeKind, renumber, root_cone
from .errors import (
    AmbiguousRoot,
    CycleDetected,
    EmptyCircuit,
    EmptyInput,
    IndexOutOfRange,
    LiteralOutOfRange,
    MalformedHeader,
    MalformedLine,
    MissingSentinel,
    UnknownNodeIndex,
)

C2D = "c2d"
D4 = "d4"


def _content_lines(text: str):
    """Yield (1-based line number, tokens) for non-blank, non-comment lines."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens = body.split()
        if tokens:
            yield lineno, tokens


def detect_format(text: str) -> str:
    """"c2d" iff the first non-blank line starts with ``nnf``, else "d4".

    Reads a prefix of ``text`` that doubles until it holds a whole content
    line, so a large file is not split into lines only to read its first.
    """
    size = 256
    while True:
        whole = size >= len(text)
        # unless it is all of text, the prefix may cut its last line short
        prefix = text if whole else text[: text.rfind("\n", 0, size) + 1]
        for _, tokens in _content_lines(prefix):
            return C2D if tokens[0] == "nnf" else D4
        if whole:
            raise EmptyInput("no content", 1)
        size *= 2


def _int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise MalformedLine(f"expected integer, got {token!r}", lineno) from None


def parse_c2d(text: str, num_variables_override: int | None = None) -> Ddnnf:
    """Parse c2d text into an unpreprocessed circuit.

    The last record is the root.  ``num_variables_override`` replaces the
    header's variable count, which declares extra omitted variables.
    """
    lines = _content_lines(text)
    try:
        header_lineno, header = next(lines)
    except StopIteration:
        raise MalformedHeader("empty input", 1) from None
    if len(header) != 4 or header[0] != "nnf":
        raise MalformedHeader("expected 'nnf v e n'", header_lineno)
    # node and edge counts are validated as numbers but otherwise ignored:
    # some compilers emit headers that disagree with the actual record count
    num_variables = [_int(tok, header_lineno) for tok in header[1:]][2]
    if num_variables < 0:
        raise MalformedHeader(f"variable count {num_variables} is below 0", header_lineno)
    if num_variables_override is not None:
        num_variables = num_variables_override

    kind: list[NodeKind] = []
    literal: list[int] = []
    children: list[tuple[int, ...]] = []
    decision: list[int] = []
    for lineno, tokens in lines:
        tag = tokens[0]
        index = len(kind)
        if tag == "L":
            if len(tokens) != 2:
                raise MalformedLine("literal record takes one argument", lineno)
            lit = _int(tokens[1], lineno)
            if lit == 0 or abs(lit) > num_variables:
                raise LiteralOutOfRange(f"literal {lit} outside 1..{num_variables}", lineno)
            kind.append(LITERAL)
            literal.append(lit)
            children.append(())
            decision.append(0)
        elif tag == "A":
            if len(tokens) < 2:
                raise MalformedLine("And record takes 'A n i...'", lineno)
            arity = _int(tokens[1], lineno)
            ch = tuple([_int(t, lineno) for t in tokens[2:]])
            if arity != len(ch):
                raise MalformedLine(
                    f"And declares {arity} children but lists {len(ch)}", lineno
                )
            _check_children(ch, index, lineno)
            kind.append(AND if ch else TRUE)
            literal.append(0)
            children.append(ch)
            decision.append(0)
        elif tag == "O":
            if len(tokens) < 3:
                raise MalformedLine("Or record takes 'O d n i...'", lineno)
            dec = _int(tokens[1], lineno)
            arity = _int(tokens[2], lineno)
            ch = tuple([_int(t, lineno) for t in tokens[3:]])
            if arity != len(ch):
                raise MalformedLine(
                    f"Or declares {arity} children but lists {len(ch)}", lineno
                )
            _check_children(ch, index, lineno)
            kind.append(OR if ch else FALSE)
            literal.append(0)
            children.append(ch)
            decision.append(dec)
        else:
            raise MalformedLine(f"unknown record type {tag!r}", lineno)

    if not kind:
        raise EmptyCircuit("header but no node records", header_lineno)
    return Ddnnf(
        kind, literal, children, num_variables, root=len(kind) - 1, decision=decision
    )


def _check_children(children: tuple[int, ...], index: int, lineno: int) -> None:
    for c in children:
        if c < 0 or c >= index:
            raise IndexOutOfRange(
                f"child {c} does not precede record {index}", lineno
            )


_D4_KINDS = {"o": OR, "a": AND, "t": TRUE, "f": FALSE}


def parse_d4(text: str, num_variables: int) -> Ddnnf:
    """Parse d4 text into an unpreprocessed circuit.

    Each edge ``p c lit... 0`` contributes one operand to node p: the child c
    conjoined with the listed literals.  An edge with literals materializes an
    implicit And node wrapping the child plus one literal leaf per listed
    literal; literal leaves are shared across edges.  The root is the node
    declared with index 1 when it is parentless, otherwise the unique
    parentless node.  Node order in the file carries no meaning, so the
    result is topologically sorted before returning.
    """
    declared: dict[int, int] = {}  # d4 index -> node position
    kind: list[NodeKind] = []
    literal: list[int] = []
    # child lists grow edge by edge; toposort turns them into tuples
    children: list = []
    literal_nodes: dict[int, int] = {}
    has_parent: set[int] = set()
    any_line = False

    def literal_node(lit: int, lineno: int) -> int:
        if lit == 0 or abs(lit) > num_variables:
            raise LiteralOutOfRange(f"literal {lit} outside 1..{num_variables}", lineno)
        idx = literal_nodes.get(lit)
        if idx is None:
            idx = len(kind)
            kind.append(LITERAL)
            literal.append(lit)
            children.append(())
            literal_nodes[lit] = idx
        return idx

    for lineno, tokens in _content_lines(text):
        any_line = True
        if tokens[-1] != "0":
            raise MissingSentinel("line must end with 0", lineno)
        body = tokens[:-1]
        if not body:
            raise MalformedLine("blank record", lineno)
        if body[0] in _D4_KINDS:
            if len(body) != 2:
                raise MalformedLine("node declaration takes 'kind idx 0'", lineno)
            d4_index = _int(body[1], lineno)
            if d4_index <= 0:
                raise MalformedLine(f"node index {d4_index} must be positive", lineno)
            if d4_index in declared:
                raise MalformedLine(f"node {d4_index} declared twice", lineno)
            declared[d4_index] = len(kind)
            k = _D4_KINDS[body[0]]
            kind.append(k)
            literal.append(0)
            children.append([] if k is AND or k is OR else ())
        else:
            if len(body) < 2:
                raise MalformedLine("edge takes 'p c lit... 0'", lineno)
            p = _int(body[0], lineno)
            c = _int(body[1], lineno)
            for ref in (p, c):
                if ref not in declared:
                    raise UnknownNodeIndex(f"edge references undeclared node {ref}", lineno)
            parent = declared[p]
            if kind[parent] is not AND and kind[parent] is not OR:
                raise MalformedLine(f"node {p} cannot take children", lineno)
            literals = [_int(t, lineno) for t in body[2:]]
            operand = declared[c]
            if literals:
                members = [operand] + [literal_node(lit, lineno) for lit in literals]
                operand = len(kind)
                kind.append(AND)
                literal.append(0)
                children.append(members)
                has_parent.update(members)
            children[parent].append(operand)
            has_parent.add(operand)

    if not any_line:
        raise EmptyCircuit("no records", 1)
    if not declared:
        raise EmptyCircuit("no node declarations", 1)

    root_pos = declared.get(1)
    if root_pos is None or root_pos in has_parent:
        parentless = [
            pos for pos in declared.values() if pos not in has_parent
        ]
        if not parentless:
            # every node has a parent, so the finite edge relation must loop
            raise CycleDetected("no parentless node exists")
        if len(parentless) > 1:
            raise AmbiguousRoot(
                f"{len(parentless)} parentless declared nodes and node 1 is no root"
            )
        root_pos = parentless[0]

    d = Ddnnf(kind, literal, children, num_variables, root=root_pos)
    toposort(d)
    return d


def toposort(d: Ddnnf) -> None:
    """Reorder the nodes so every child precedes its parents.

    Stable: among ready nodes the one with the lowest current index goes
    first, so already-ordered circuits come out unchanged.  Its only caller
    is :func:`parse_d4`, whose file order carries no meaning; the stable
    order fixes the node numbers ``--validate`` reports for d4 input.
    """
    children = d.children
    n = len(children)
    missing = [len(ch) for ch in children]
    dependants: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for c in children[i]:
            dependants[c].append(i)
    ready = [i for i in range(n) if missing[i] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for parent in dependants[i]:
            missing[parent] -= 1
            if missing[parent] == 0:
                heapq.heappush(ready, parent)
    if len(order) != n:
        raise CycleDetected("circuit edges form a cycle")
    renumber(d, order)


def write_c2d(d: Ddnnf) -> str:
    """Serialize to c2d text; ``parse_c2d`` of the result counts identically.

    Only nodes reachable from the root are written: the format defines the
    last record as the root, and children-precede-parents order guarantees
    every reachable node sits at or below the root's index, so the root
    always comes out last.  Unreachable records never influence a count.
    """
    keep = root_cone(d)
    position = {old: new for new, old in enumerate(keep)}
    kind, children = d.kind, d.children

    lines = []
    edges = sum(len(children[i]) for i in keep)
    lines.append(f"nnf {len(keep)} {edges} {d.num_variables}")
    for i in keep:
        k = kind[i]
        ch = [position[c] for c in children[i]]
        if k is LITERAL:
            lines.append(f"L {d.literal[i]}")
        elif k is TRUE:
            lines.append("A 0")
        elif k is FALSE:
            lines.append("O 0 0")
        elif k is AND:
            lines.append("A " + " ".join(map(str, [len(ch)] + ch)))
        else:
            lines.append(
                "O " + " ".join(map(str, [d.decision[i], len(ch)] + ch))
            )
    return "\n".join(lines) + "\n"


def parse_text(
    text: str, fmt: str = "auto", num_variables: int | None = None
) -> Ddnnf:
    """Parse either format; ``fmt="auto"`` sniffs with :func:`detect_format`.

    d4 input requires ``num_variables``; for c2d it is the optional override.
    """
    if fmt == "auto":
        fmt = detect_format(text)
    if fmt == C2D:
        return parse_c2d(text, num_variables)
    if fmt == D4:
        if num_variables is None:
            raise ValueError("d4 input requires num_variables")
        return parse_d4(text, num_variables)
    raise ValueError(f"unknown format {fmt!r}")
