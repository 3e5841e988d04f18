"""Seeded, stdlib-only inputs for the benchmark: circuits and query scripts.

The circuit imitates a compiled feature model.  Top-level decision variables
(cross-tree constraints) form a layered Shannon spine, SPINE_WIDTH nodes
wide.  Each spine leaf conjoins one sub-circuit per feature block: most
blocks are shared by every leaf, and a few per leaf are rebuilt as variants.
Blocks are small random d-DNNFs made of decompositions and Shannon splits
whose branches drop some variables, so the circuit is decomposable and
deterministic by construction but not smooth.  The root conjoins the spine
with the core (positive) and dead (negative) literals; omitted variables are
declared but never used.  There are no False nodes, so a variable is core or
dead exactly when its literals in the smoothed circuit have one polarity.

Everything here depends only on the seed.  Expected answers come from
:mod:`reference`, never from ``ddnnf``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

from reference import Circuit, Reference

NUM_VARIABLES = 1000
CORE = DEAD = OMITTED = 20
SPINE_VARIABLES = 10
SPINE_WIDTH = 8
BLOCK_SIZES = (16, 30)
VARIANTS_PER_LEAF = 20
SHANNON_MAX = 16
KEEP = 0.88
MEMO_REUSE = 0.5
# Circuits are redrawn until their c2d record count lies within
# RECORDS_TOLERANCE of RECORDS_TARGET, so that set-up and query times do not
# swing with the seed's luck.
RECORDS_TARGET = 14000
RECORDS_TOLERANCE = 0.02
# The d4 form of a circuit parses into about 1.7x the nodes of its c2d form
# (every edge with literals becomes an And node), so the batch circuit is
# drawn smaller: a run must answer >= 1000 full-sweep lines, which takes
# about 15 s on a 2-core Xeon VM.
BATCH_VARIANTS_PER_LEAF = 3
BATCH_RECORDS_TARGET = 6000

TRUE = 0


class _Builder:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.kinds = ["t"]
        self.edges: list[list[tuple[int, tuple[int, ...]]]] = [[]]
        self.memo: dict[tuple[int, ...], int] = {}

    def node(self, kind: str, edges) -> int:
        self.kinds.append(kind)
        self.edges.append(list(edges))
        return len(self.kinds) - 1

    def leaf(self, variables) -> int:
        """Each variable fixed true, fixed false or free."""
        fixed = []
        edges = []
        for v in variables:
            roll = self.rng.random()
            if roll < 0.2:
                fixed.append(v)
            elif roll < 0.3:
                fixed.append(-v)
            else:
                edges.append((self.node("o", [(TRUE, (v,)), (TRUE, (-v,))]), ()))
        if fixed:
            edges.append((TRUE, tuple(fixed)))
        if len(edges) == 1 and not edges[0][1]:
            return edges[0][0]
        return self.node("a", edges)

    def block(self, variables: tuple[int, ...]) -> int:
        rng = self.rng
        if not variables:
            return TRUE
        if variables in self.memo and rng.random() < MEMO_REUSE:
            return self.memo[variables]
        n = len(variables)
        roll = rng.random()
        if n <= 2 or roll < 0.15:
            idx = self.leaf(variables)
        elif n > SHANNON_MAX or roll < 0.45:
            shuffled = list(variables)
            rng.shuffle(shuffled)
            parts = rng.randint(2, min(4, n))
            cuts = sorted(rng.sample(range(1, n), parts - 1))
            groups = [
                tuple(sorted(shuffled[a:b]))
                for a, b in zip([0] + cuts, cuts + [n])
            ]
            idx = self.node("a", [(self.block(g), ()) for g in groups])
        else:
            v = variables[rng.randrange(n)]
            rest = [u for u in variables if u != v]
            hi = self.block(tuple(u for u in rest if rng.random() < KEEP))
            lo = self.block(tuple(u for u in rest if rng.random() < KEEP))
            idx = self.node("o", [(hi, (v,)), (lo, (-v,))])
        self.memo[variables] = idx
        return idx


def generate_circuit(
    seed: int, variants: int = VARIANTS_PER_LEAF, records: int = RECORDS_TARGET
) -> Circuit:
    """A circuit whose c2d form has ``records`` records, within tolerance;
    ``variants`` must be the matching size knob (about 475 records each)."""
    rng = random.Random(seed)
    while True:
        c = _draw_circuit(rng, variants)
        if abs(c2d_records(c) - records) <= RECORDS_TOLERANCE * records:
            return c


def c2d_records(c: Circuit) -> int:
    return write_c2d(c).count("\n") - 1


def _draw_circuit(rng: random.Random, variants: int) -> Circuit:
    variables = list(range(1, NUM_VARIABLES + 1))
    rng.shuffle(variables)
    core = sorted(variables[:CORE])
    dead = sorted(variables[CORE : CORE + DEAD])
    used = variables[CORE + DEAD + OMITTED :]
    spine = used[:SPINE_VARIABLES]
    rest = used[SPINE_VARIABLES:]

    blocks = []
    while rest:
        size = rng.randint(*BLOCK_SIZES)
        blocks.append(tuple(sorted(rest[:size])))
        rest = rest[size:]

    b = _Builder(rng)
    shared = [b.block(vs) for vs in blocks]

    # Layered spine: level j splits on spine[j]; each level holds at most
    # SPINE_WIDTH nodes and every node of a level has a parent above it.
    level = []
    for _ in range(min(SPINE_WIDTH, 2 ** len(spine))):
        members = list(shared)
        for k in rng.sample(range(len(blocks)), variants):
            members[k] = b.block(tuple(v for v in blocks[k] if rng.random() < KEEP))
        level.append(b.node("a", [(m, ()) for m in members]))
    for depth in reversed(range(len(spine))):
        width = min(SPINE_WIDTH, 2**depth)
        picks = list(range(len(level))) + [
            rng.randrange(len(level)) for _ in range(2 * width - len(level))
        ]
        rng.shuffle(picks)
        v = spine[depth]
        level = [
            b.node("o", [(level[picks[2 * j]], (v,)), (level[picks[2 * j + 1]], (-v,))])
            for j in range(width)
        ]
    top = level[0]
    root = b.node("a", [(top, tuple(core) + tuple(-v for v in dead))])
    return Circuit(NUM_VARIABLES, b.kinds, b.edges, root)


def reachable(c: Circuit) -> list[int]:
    """Nodes in the root's cone, ascending.  Only these are written: a shared
    block that every spine leaf replaced by a variant is left out."""
    seen = set()
    stack = [c.root]
    while stack:
        i = stack.pop()
        if i not in seen:
            seen.add(i)
            stack.extend(child for child, _ in c.edges[i])
    return sorted(seen)


def write_c2d(c: Circuit) -> str:
    """c2d text; literal children of And nodes are spliced in directly."""
    records: list[str] = []
    literal_records: dict[int, int] = {}
    node_records: dict[int, int] = {}

    def emit(record: str) -> int:
        records.append(record)
        return len(records) - 1

    def literal(lit: int) -> int:
        if lit not in literal_records:
            literal_records[lit] = emit(f"L {lit}")
        return literal_records[lit]

    def record(i: int) -> int:
        if i not in node_records:
            node_records[i] = emit("A 0")  # only True is ever referenced early
        return node_records[i]

    for i in reachable(c):
        if c.kinds[i] == "t":
            continue
        children: list[int] = []
        for child, lits in c.edges[i]:
            lit_records = [literal(lit) for lit in lits]
            if c.kinds[i] == "a":
                if child != TRUE or not lits:
                    children.append(record(child))
                children.extend(lit_records)
            elif child == TRUE and len(lits) == 1:
                children.append(lit_records[0])
            elif not lits:
                children.append(record(child))
            else:
                members = ([] if child == TRUE else [record(child)]) + lit_records
                children.append(emit(f"A {len(members)} " + " ".join(map(str, members))))
        body = " ".join(map(str, children))
        if c.kinds[i] == "a":
            node_records[i] = emit(f"A {len(children)} {body}")
        else:
            node_records[i] = emit(f"O 0 {len(children)} {body}")
    edges = sum(len(r.split()) - 2 - r.startswith("O") for r in records if r[0] in "AO")
    header = f"nnf {len(records)} {edges} {c.num_variables}"
    return "\n".join([header] + records) + "\n"


def write_d4(c: Circuit) -> str:
    """d4 text; the root is declared as node 1, literals stay on edges."""
    cone = reachable(c)
    ids = {c.root: 1}
    for i in cone[:-1]:
        ids[i] = len(ids) + 1
    order = sorted(cone, key=ids.get)
    lines = [f"{c.kinds[i]} {ids[i]} 0" for i in order]
    for i in order:
        for child, lits in c.edges[i]:
            lines.append(" ".join(map(str, [ids[i], ids[child], *lits, 0])))
    return "\n".join(lines) + "\n"



def sample_model(c: Circuit, ref: Reference, rng: random.Random) -> dict[int, bool]:
    """A uniformly drawn model: each Or edge is taken with the share of the
    models it carries, and free variables are set by a coin."""
    model: dict[int, bool] = {}

    def coin(mask: int) -> None:
        v = 1
        while mask:
            if mask & 1:
                model[v] = rng.random() < 0.5
            mask >>= 1
            v += 1

    stack = [c.root]
    while stack:
        i = stack.pop()
        edges = c.edges[i]
        if c.kinds[i] == "o":
            weights = [ref.base[child] << missing.bit_count()
                       for child, _, _, missing in ref.edges[i]]
            pick = rng.randrange(sum(weights))
            k = 0
            while pick >= weights[k]:
                pick -= weights[k]
                k += 1
            coin(ref.edges[i][k][3])
            edges = [edges[k]]
        for child, lits in edges:
            for lit in lits:
                model[abs(lit)] = lit > 0
            stack.append(child)
    coin(((1 << c.num_variables) - 1) & ~ref.masks[c.root])
    return model


# Script shapes.  A configure session selects one literal of a sampled model
# at a time; now and then the user tries a conflicting selection or lists
# core/dead features.  Batch lines assign 30-100% of the variables, above the
# engine's 0.2*n partial-traversal bypass, so every line takes the full sweep.
CONFIGURE_SESSIONS = 40
SELECTIONS = (28, 32)
CONFLICT_P = 0.08
LISTING_P = 0.06
BATCH_LINES = 100
BATCH_BLOCK = 10
BATCH_FLIP_P = 0.3
# plan_work() a configure script must reach, within WORK_TOLERANCE; about
# the median over seeds without this condition.
CONFIGURE_WORK_TARGET = 425
WORK_TOLERANCE = 0.02


class _Answers:
    """Reference answers for one circuit, with its core/dead/omitted sets."""

    def __init__(self, c: Circuit):
        self.ref = Reference(c)
        n = c.num_variables
        self.total = self.ref.count()
        self.features = [self.ref.count([v]) for v in range(1, n + 1)]
        self.core = [v for v in range(1, n + 1) if self.features[v - 1] == self.total]
        self.dead = [v for v in range(1, n + 1) if self.features[v - 1] == 0]
        root_mask = self.ref.masks[c.root]
        self.omitted = [v for v in range(1, n + 1) if not root_mask >> (v - 1) & 1]

    def count_line(self, lits) -> tuple[str, str]:
        return "count v " + " ".join(map(str, lits)), str(self.ref.count(lits))


def _cones(c: Circuit, ref: Reference) -> list[int]:
    """Per variable, the set (as a bitmask over ``reachable(c)``) of nodes
    whose scope holds it: the nodes a query on it has to revisit."""
    cones = [0] * (c.num_variables + 1)
    for k, i in enumerate(reachable(c)):
        mask = ref.masks[i]
        while mask:
            low = mask & -mask
            cones[low.bit_length()] |= 1 << k
            mask ^= low
    return cones


def _configure_plan(c: Circuit, a: _Answers, rng: random.Random) -> list:
    """One draw of the sessions: (literals or a listing command, session)."""
    n = c.num_variables
    plan: list = []
    for session in range(CONFIGURE_SESSIONS):
        plan.append(("count", session))
        model = sample_model(c, a.ref, rng)
        order = rng.sample(range(1, n + 1), rng.randint(*SELECTIONS))
        selection: list[int] = []
        for v in order:
            selection.append(v if model[v] else -v)
            plan.append((list(selection), session))
            if rng.random() < CONFLICT_P:
                kind = rng.randrange(4)
                if kind == 0:
                    extra = -rng.choice(a.core)
                elif kind == 1:
                    extra = rng.choice(a.dead)
                elif kind == 2:
                    extra = -rng.choice(selection)
                else:
                    u = rng.randrange(1, n + 1)
                    extra = -u if model[u] else u
                plan.append((selection + [extra], session))
            if rng.random() < LISTING_P:
                plan.append((rng.choice(("core", "dead")), session))
    return plan


def plan_work(plan: list, cones: list[int]) -> float:
    """Mean, over the plan's lines, of the nodes in the cones of a line's
    variables.  It tracks the engine's marked and visited nodes per line
    closely (across seeds, both varied by about +-5% together)."""
    total = 0
    for item, _ in plan:
        if isinstance(item, list):
            union = 0
            for lit in item:
                union |= cones[abs(lit)]
            total += union.bit_count()
    return total / len(plan)


def configure_script(c: Circuit, a: _Answers, rng: random.Random):
    """(line, expected reply, session) triples.

    Sessions are redrawn until their plan_work() lies within WORK_TOLERANCE
    of CONFIGURE_WORK_TARGET, so that query times do not follow how costly
    the literals that a seed happens to select are."""
    cones = _cones(c, a.ref)
    while True:
        plan = _configure_plan(c, a, rng)
        work = plan_work(plan, cones)
        if abs(work - CONFIGURE_WORK_TARGET) <= WORK_TOLERANCE * CONFIGURE_WORK_TARGET:
            break
    out = []
    for item, session in plan:
        if item == "count":
            out.append(("count", str(a.total), session))
        elif item == "core":
            out.append(("core", " ".join(map(str, a.core)), session))
        elif item == "dead":
            out.append(("dead", " ".join(map(str, a.dead)), session))
        else:
            out.append((*a.count_line(item), session))
    return out


def batch_script(c: Circuit, a: _Answers, rng: random.Random):
    """(line, expected reply, block) triples; BATCH_BLOCK lines per block."""
    n = c.num_variables
    special = set(a.core) | set(a.dead) | set(a.omitted)
    out = []
    for k in range(BATCH_LINES):
        model = sample_model(c, a.ref, rng)
        while True:
            chosen = rng.sample(range(1, n + 1), rng.randint(-(-3 * n // 10), n))
            plain = [v for v in chosen if v not in special]
            if len(plain) > n // 5:
                break
        lits = [v if model[v] else -v for v in chosen]
        if rng.random() < BATCH_FLIP_P:
            v = rng.choice(plain)
            lits[chosen.index(v)] = -lits[chosen.index(v)]
        out.append((*a.count_line(lits), k // BATCH_BLOCK))
    return out


def _code_version() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    h = hashlib.sha256()
    for name in ("gen.py", "reference.py"):
        with open(os.path.join(here, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:12]


def prepare(workload: str, seed: int, workdir: str) -> dict:
    """Write the workload's inputs for ``seed`` under ``workdir`` (cached).

    Returns the manifest: the circuit path plus the expected answers.
    """
    out_dir = os.path.join(workdir, f"{workload}-{seed}-{_code_version()}")
    manifest_path = os.path.join(out_dir, "manifest.json")
    if os.path.exists(manifest_path):
        with open(manifest_path, encoding="utf-8") as f:
            return json.load(f)

    rng = random.Random(f"{workload}-{seed}")
    if workload == "batch":
        c = generate_circuit(rng.getrandbits(64), BATCH_VARIANTS_PER_LEAF, BATCH_RECORDS_TARGET)
    else:
        c = generate_circuit(rng.getrandbits(64))
    a = _Answers(c)
    manifest = {
        "num_variables": c.num_variables,
        "total": str(a.total),
        "core": a.core,
        "dead": a.dead,
        "omitted": a.omitted,
    }
    if workload == "batch":
        circuit_text = write_d4(c)
        manifest["circuit"] = os.path.join(out_dir, "circuit.d4")
        manifest["lines"] = batch_script(c, a, rng)
    else:
        circuit_text = write_c2d(c)
        manifest["circuit"] = os.path.join(out_dir, "circuit.nnf")
        if workload == "configure":
            manifest["lines"] = configure_script(c, a, rng)
        else:
            manifest["features"] = [str(x) for x in a.features]
            # every variable once, so that the lookups' cost does not follow
            # which variables a seed happens to draw
            manifest["lookups"] = rng.sample(range(1, c.num_variables + 1), c.num_variables)

    os.makedirs(out_dir, exist_ok=True)
    with open(manifest["circuit"], "w", encoding="utf-8") as f:
        f.write(circuit_text)
    tmp = manifest_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(manifest, f)
    os.replace(tmp, manifest_path)
    return manifest
