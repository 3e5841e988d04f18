"""Test-only builders and references: random d-DNNF circuits, tiny
hand-made texts, and evaluators that check the engine's tape without it.

The generators emit c2d text for circuits that are decomposable and
deterministic by construction (Shannon splits and conjunctions over disjoint
variable groups) but usually not smooth, so the smoothing pass gets real
work.  ``tree_budget`` caps the tree expansion of the DAG, and with it the
number of records, so the fixtures stay small however the seed falls.
"""

from __future__ import annotations

import random

from ddnnf.core import AND, OR, Ddnnf, sweep


def random_c2d_text(
    seed: int,
    num_variables: int,
    omit: int = 0,
    tree_budget: int = 1200,
    keep_probability: float = 0.8,
) -> str:
    """Random circuit over variables 1..num_variables-omit, declaring
    num_variables in the header so the last ``omit`` variables are omitted.
    Deterministic in ``seed``."""
    rng = random.Random(seed)
    records: list[str] = []
    tree_sizes: list[int] = []
    literal_cache: dict[int, int] = {}
    memo: dict[tuple[int, ...], int] = {}

    def emit(record: str, tree: int) -> int:
        records.append(record)
        tree_sizes.append(tree)
        return len(records) - 1

    def literal(lit: int) -> int:
        idx = literal_cache.get(lit)
        if idx is None:
            idx = literal_cache[lit] = emit(f"L {lit}", 1)
        return idx

    def subset(variables: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(v for v in variables if rng.random() < keep_probability)

    def build(variables: tuple[int, ...], budget: int) -> int:
        if not variables:
            if rng.random() < 0.05:
                return emit("O 0 0", 1)  # False
            return emit("A 0", 1)  # True
        if variables in memo and rng.random() < 0.4:
            return memo[variables]
        if len(variables) == 1 or budget < 8 or rng.random() < 0.1:
            v = variables[rng.randrange(len(variables))]
            roll = rng.random()
            if roll < 0.4:
                idx = literal(v)
            elif roll < 0.7:
                idx = literal(-v)
            else:
                pos, neg = literal(v), literal(-v)
                idx = emit(f"O {v} 2 {pos} {neg}", 3)
        elif rng.random() < 0.35 and len(variables) >= 2:
            shuffled = list(variables)
            rng.shuffle(shuffled)
            cut = rng.randrange(1, len(shuffled))
            groups = [tuple(sorted(shuffled[:cut])), tuple(sorted(shuffled[cut:]))]
            children = [build(g, budget // 2) for g in groups]
            tree = 1 + sum(tree_sizes[c] for c in children)
            idx = emit(f"A {len(children)} {children[0]} {children[1]}", tree)
        else:
            v = variables[rng.randrange(len(variables))]
            rest = tuple(u for u in variables if u != v)
            hi_sub = build(subset(rest), budget // 2)
            lo_sub = build(subset(rest), budget // 2)
            hi = emit(
                f"A 2 {literal(v)} {hi_sub}", 2 + tree_sizes[hi_sub]
            )
            lo = emit(
                f"A 2 {literal(-v)} {lo_sub}", 2 + tree_sizes[lo_sub]
            )
            idx = emit(f"O {v} 2 {hi} {lo}", 1 + tree_sizes[hi] + tree_sizes[lo])
        memo[variables] = idx
        return idx

    used = tuple(range(1, num_variables - omit + 1))
    build(used, tree_budget)
    edges = sum(
        len(rec.split()) - 2 - (rec.startswith("O ") and 1)
        for rec in records
        if rec[0] in "AO"
    )
    header = f"nnf {len(records)} {edges} {num_variables}"
    return "\n".join([header] + records) + "\n"


def gadget_chain_c2d(k: int) -> str:
    """And of k independent (v or not v) gadgets: count is exactly 2**k."""
    records = []
    ors = []
    for v in range(1, k + 1):
        records.append(f"L {v}")
        records.append(f"L {-v}")
        base = 3 * (v - 1)
        records.append(f"O {v} 2 {base} {base + 1}")
        ors.append(len(records) - 1)
    records.append(f"A {k} " + " ".join(map(str, ors)))
    edges = 2 * k + k
    return "\n".join([f"nnf {len(records)} {edges} {k}"] + records) + "\n"


def shannon_chain_c2d(k: int) -> str:
    """Chain of k Shannon levels ``(x_v and f) or (not x_v and f)``, with ``f``
    the level below shared by both branches and True at the bottom.

    The count is exactly 2**k.  The DAG has 5k + 1 records and depth 3k, but
    its tree expansion grows like 2**k.
    """
    records = ["A 0"]
    for v in range(1, k + 1):
        below = len(records) - 1
        pos, neg = len(records), len(records) + 1
        records += [f"L {v}", f"L {-v}", f"A 2 {pos} {below}", f"A 2 {neg} {below}"]
        records.append(f"O {v} 2 {pos + 2} {pos + 3}")
    edges = 6 * k
    return "\n".join([f"nnf {len(records)} {edges} {k}"] + records) + "\n"


def wide_c2d_text(
    seed: int, num_variables: int, max_width: int = 40, tree_budget: int = 300
) -> str:
    """Random circuit over variables 1..num_variables with wide nodes.

    Like :func:`random_c2d_text` it is decomposable and deterministic by
    construction and usually not smooth.  And nodes split their variables
    into up to ``max_width`` groups, and Or nodes take up to ``max_width``
    branches, each the conjunction of a distinct cube over a few split
    variables with a sub-circuit over some of the rest, so the branches
    exclude each other.  Deterministic in ``seed``.
    """
    rng = random.Random(seed)
    records: list[str] = []
    literal_cache: dict[int, int] = {}

    def emit(record: str) -> int:
        records.append(record)
        return len(records) - 1

    def literal(lit: int) -> int:
        idx = literal_cache.get(lit)
        if idx is None:
            idx = literal_cache[lit] = emit(f"L {lit}")
        return idx

    def conjoin(children: list[int]) -> int:
        if len(children) == 1:
            return children[0]
        return emit(f"A {len(children)} " + " ".join(map(str, children)))

    def leaf(v: int) -> int:
        roll = rng.random()
        if roll < 0.4:
            return literal(v)
        if roll < 0.6:
            return literal(-v)
        return emit(f"O {v} 2 {literal(v)} {literal(-v)}")

    def build(variables: list[int], budget: int) -> int:
        if not variables:
            return emit("O 0 0" if rng.random() < 0.05 else "A 0")
        if len(variables) == 1 or budget < 4 or rng.random() < 0.15:
            return conjoin([leaf(v) for v in variables])
        rng.shuffle(variables)
        if rng.random() < 0.5:
            k = rng.randint(2, min(max_width, len(variables)))
            cuts = sorted(rng.sample(range(1, len(variables)), k - 1))
            bounds = zip([0] + cuts, cuts + [len(variables)])
            return conjoin([build(variables[a:b], budget // k) for a, b in bounds])
        m = rng.randint(1, min(6, len(variables) - 1))
        split, rest = variables[:m], variables[m:]
        cubes = rng.sample(range(1 << m), rng.randint(2, min(max_width, 1 << m)))
        branches = []
        for cube in cubes:
            lits = [v if cube >> bit & 1 else -v for bit, v in enumerate(split)]
            sub = build([v for v in rest if rng.random() < 0.8], budget // len(cubes))
            branches.append(conjoin([literal(lit) for lit in lits] + [sub]))
        return emit(f"O 0 {len(branches)} " + " ".join(map(str, branches)))

    build(list(range(1, num_variables + 1)), tree_budget)
    edges = sum(
        len(rec.split()) - 2 - (rec.startswith("O ") and 1)
        for rec in records
        if rec[0] in "AO"
    )
    header = f"nnf {len(records)} {edges} {num_variables}"
    return "\n".join([header] + records) + "\n"


def recompute(d, values: list[int]) -> None:
    """Evaluate every And and Or node from its children, node by node.

    ``values`` holds a count for every node, leaves right, and is updated
    in place: an And multiplies its children, an Or adds them.  It reads
    ``children``, not the tape, so it is the reference the tape is checked
    against.
    """
    for i, ch in enumerate(d.children):
        if d.kind[i] is AND:
            product = 1
            for c in ch:
                product *= values[c]
            values[i] = product
        elif d.kind[i] is OR:
            values[i] = sum(values[c] for c in ch)


def tape_order(d, literals) -> list[int]:
    """The tape instructions whose value depends on the nodes of
    ``literals``, ascending, found by one forward scan of the tape rather
    than by climbing the reader graph."""
    changed = {d.literal_index[lit] for lit in literals if lit in d.literal_index}
    order = []
    for j, (dst, a, b) in enumerate(d.tape):
        if a in changed or b in changed:
            order.append(j)
            changed.add(~dst if dst < 0 else dst)
    return order


def written_slots(d, instructions) -> set[int]:
    """The slots the given tape instructions write."""
    return {~d.tape[j][0] if d.tape[j][0] < 0 else d.tape[j][0] for j in instructions}


def tape_nodes(d, literals) -> set[int]:
    """The nodes whose value depends on the nodes of ``literals``, by the
    forward scan of :func:`tape_order`: the literals' own nodes and the
    nodes its instructions write."""
    own = {d.literal_index[lit] for lit in literals if lit in d.literal_index}
    return own | {s for s in written_slots(d, tape_order(d, literals)) if s < len(d.nodes)}


def node_parents(d) -> list[set[int]]:
    """Each node's parent nodes, read off ``children``."""
    out: list[set[int]] = [set() for _ in d.nodes]
    for i, ch in enumerate(d.children):
        for c in ch:
            out[c].add(i)
    return out


def fresh_values(d, zero_literals) -> list[int]:
    """Every slot's value under ``zero_literals``, by a full sweep from the
    baselines."""
    values = d.baseline.copy()
    for lit in zero_literals:
        if lit in d.literal_index:
            values[d.literal_index[lit]] = 0
    sweep(d.tape, values)
    return values


def with_duplicates(d, rng: random.Random, copies: float = 0.3, repoint: float = 0.5):
    """A new unpreprocessed circuit with the models of ``d`` in which some
    nodes occur twice.

    Walks the nodes in order and places each one, then, with probability
    ``copies``, a copy of it right after.  Each child reference of either
    points at the child's copy, where the child has one, with probability
    ``repoint``, so copies sit under copies and whole subcircuits repeat
    under different parents.  The root stays the original root.
    """
    kind, literal, children, decision = [], [], [], []
    position, copy_of = {}, {}

    def place(i: int) -> int:
        kind.append(d.kind[i])
        literal.append(d.literal[i])
        decision.append(d.decision[i])
        children.append(tuple([
            copy_of[c] if c in copy_of and rng.random() < repoint else position[c]
            for c in d.children[i]
        ]))
        return len(kind) - 1

    for i in d.nodes:
        position[i] = place(i)
        if rng.random() < copies:
            copy_of[i] = place(i)
    return Ddnnf(
        kind, literal, children, d.num_variables, root=position[d.root], decision=decision
    )


def tape_readers(d) -> list[tuple[int, ...]]:
    """Each slot's reading instructions, ascending and each once, by one
    scan of the tape."""
    out: list[list[int]] = [[] for _ in range(len(d.nodes) + d.scratch_slots)]
    for j, (_, a, b) in enumerate(d.tape):
        out[a].append(j)
        if b != a:
            out[b].append(j)
    return [tuple(js) for js in out]


# A c2d circuit whose gadgets and literal records repeat under different
# parents: (x1 and (x2 or not x2) and x3) or (not x1 and (x2 or not x2) and
# x3 and (x4 or not x4)), each branch with its own records.  Smoothing adds
# an (x4 or not x4) gadget to the first branch.  8 models; features 4, 4, 8,
# 4.  The 16 records and 3 gadget nodes merge to 12 nodes.
REPEATED_RECORDS_C2D = """nnf 16 15 4
L 1
L 2
L -2
O 2 2 1 2
L 3
A 3 0 3 4
L -1
L 2
L -2
O 2 2 7 8
L 3
L 4
L -4
O 4 2 11 12
A 4 6 9 10 13
O 1 2 5 14
"""


# Files whose unreferenced records hold variables the root's cone lacks:
# (text, model count, --config -2 count), counts from the exhaustive oracle.
UNREFERENCED_C2D = [
    ("nnf 2 0 2\nL 2\nL 1\n", 2, 1),
    ("nnf 3 0 2\nL -2\nL 1\nL 2\n", 2, 0),
    ("nnf 2 0 2\nL -2\nL 1\n", 2, 1),
]
# d4 root x1 beside an unreferenced (x2 or not x2) gadget; n = 2.
UNREFERENCED_D4 = "a 1 0\nt 2 0\n1 2 1 0\no 3 0\n3 2 2 0\n3 2 -2 0\n"


def c2d_to_d4(text: str) -> str:
    """Rewrite c2d text as d4 text with the same models.

    Record i becomes node ``len(records) - i``, so the c2d root is node 1;
    a literal becomes an And node over one extra True node conjoined with
    the literal.
    """
    records = [line.split() for line in text.splitlines()[1:] if line.strip()]
    count = len(records)
    true_node = count + 1
    lines = [f"t {true_node} 0"]
    for i, rec in enumerate(records):
        idx = count - i
        if rec[0] == "L":
            lines += [f"a {idx} 0", f"{idx} {true_node} {rec[1]} 0"]
            continue
        children = rec[2:] if rec[0] == "A" else rec[3:]
        if not children:
            lines.append(f"{'t' if rec[0] == 'A' else 'f'} {idx} 0")
            continue
        lines.append(f"{'a' if rec[0] == 'A' else 'o'} {idx} 0")
        lines += [f"{idx} {count - int(c)} 0" for c in children]
    return "\n".join(lines) + "\n"


def _random_record(rng: random.Random, below: int, num_variables: int) -> str:
    """One c2d record over earlier records, not necessarily decomposable."""
    roll = rng.random()
    if roll < 0.4 or below == 0:
        if roll < 0.05:
            return "A 0"
        if roll < 0.1:
            return "O 0 0"
        return f"L {rng.choice((1, -1)) * rng.randint(1, num_variables)}"
    children = [rng.randrange(below) for _ in range(rng.randint(1, 3))]
    body = f"{len(children)} " + " ".join(map(str, children))
    return f"A {body}" if roll < 0.7 else f"O 0 {body}"


def with_unreferenced_c2d(text: str, rng: random.Random, extra: int) -> str:
    """Insert ``extra`` random records just before the root record.

    They may reference any earlier record but nothing references them, so
    the file describes the same models.
    """
    lines = text.splitlines()
    header, records = lines[0].split(), lines[1:]
    num_variables = int(header[3])
    root = records.pop()
    for _ in range(extra):
        records.append(_random_record(rng, len(records), num_variables))
    records.append(root)
    header[1] = str(len(records))
    return "\n".join([" ".join(header)] + records) + "\n"


def with_unreferenced_d4(text: str, rng: random.Random, extra: int, num_variables: int) -> str:
    """Append ``extra`` random d4 nodes that nothing references.

    The root must be node 1; new nodes may point at any node but it.
    """
    declared = [
        int(tokens[1]) for tokens in (line.split() for line in text.splitlines())
        if tokens and tokens[0] in ("o", "a", "t", "f")
    ]
    lines = text.splitlines()
    for _ in range(extra):
        new = max(declared) + 1
        kind = rng.choice("oatf")
        lines.append(f"{kind} {new} 0")
        targets = [i for i in declared if i != 1]
        if kind in "oa" and targets:
            for _ in range(rng.randint(1, 3)):
                literals = [
                    rng.choice((1, -1)) * rng.randint(1, num_variables)
                    for _ in range(rng.randint(0, 2))
                ]
                lines.append(" ".join(map(str, [new, rng.choice(targets), *literals, 0])))
        declared.append(new)
    return "\n".join(lines) + "\n"
