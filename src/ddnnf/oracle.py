"""Independent ground-truth machinery and the variant benchmark harness.

:func:`evaluate` gives the circuit's plain boolean semantics, one assignment
at a time; summed over all assignments it must agree with
:func:`ddnnf.core.brute_force_count`, and both must agree with the traversal
engine.  Keeping three independent routes to the same number is the whole
point: none of them shares code with the others.

Random assumption sets are generated with a self-contained xorshift64*
generator (seed mixed through one splitmix64 step) so batches replicate
bit-for-bit across platforms and processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import AND, LITERAL, OR, TRUE, Assumptions, Ddnnf
from .errors import DdnnfError, PartialAssignment, VoidCircuit
from .engine import VARIANTS, OptimizationConfig, QueryResult, count_total, query

_MASK64 = (1 << 64) - 1


class XorShift64Star:
    """Deterministic 64-bit PRNG: xorshift64* with splitmix64 seeding."""

    def __init__(self, seed: int):
        z = (seed + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
        self._state = z or 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def below(self, n: int) -> int:
        """Uniform-ish integer in [0, n); modulo bias is irrelevant here."""
        return self.next_u64() % n

    def bit(self) -> int:
        return self.next_u64() & 1


@dataclass(frozen=True)
class AssumptionBatch:
    configs: list[Assumptions]
    chunk_sizes: list[int]
    seed: int


def evaluate(d: Ddnnf, assignment) -> bool:
    """Boolean value of the circuit under a total assignment.

    ``assignment`` maps every variable occurring in the circuit to a bool;
    a missing variable raises.
    """
    kind, literal, children = d.kind, d.literal, d.children
    values = [False] * len(kind)
    for i, k in enumerate(kind):
        if k is LITERAL:
            lit = literal[i]
            try:
                truth = assignment[abs(lit)]
            except KeyError:
                raise PartialAssignment(f"no value for variable {abs(lit)}") from None
            values[i] = bool(truth) if lit > 0 else not truth
        elif k is AND:
            values[i] = all([values[c] for c in children[i]])
        elif k is OR:
            values[i] = any([values[c] for c in children[i]])
        elif k is TRUE:
            values[i] = True
    return values[d.root]


def _extend_config(d: Ddnnf, rng: XorShift64Star, size: int) -> Assumptions:
    """One satisfiable assumption set of ``size`` distinct variables.

    Iteratively pick a random variable and polarity; keep the literal if the
    configuration stays satisfiable, otherwise discard just that literal and
    draw again, giving up after 10 * num_variables failed draws.
    """
    include: set[int] = set()
    exclude: set[int] = set()
    chosen: set[int] = set()
    retries = 0
    cap = 10 * d.num_variables
    while len(chosen) < size:
        v = 1 + rng.below(d.num_variables)
        if v in chosen:
            continue
        side = include if rng.bit() else exclude
        side.add(v)
        if query(d, Assumptions.of(include, exclude)).count > 0:
            chosen.add(v)
        else:
            side.discard(v)
            retries += 1
            if retries > cap:
                raise DdnnfError("gave up extending a partial configuration")
    return Assumptions.of(include, exclude)


def generate_satisfiable_configs(
    d: Ddnnf,
    chunk_sizes,
    count_per_chunk: int,
    seed: int,
) -> AssumptionBatch:
    """Seeded batch of satisfiable assumption sets, grouped by size.

    Chunk sizes not strictly below the variable count are skipped: such a
    configuration would not be partial.  Identical seeds yield identical
    batches.
    """
    if count_total(d) == 0:
        raise VoidCircuit("cannot draw satisfiable configurations")
    rng = XorShift64Star(seed)
    configs: list[Assumptions] = []
    for size in chunk_sizes:
        if size >= d.num_variables:
            continue
        for _ in range(count_per_chunk):
            configs.append(_extend_config(d, rng, size))
    return AssumptionBatch(configs=configs, chunk_sizes=list(chunk_sizes), seed=seed)


def generate_unsat_configs(d: Ddnnf, count: int, seed: int) -> list[Assumptions]:
    """Assumption sets guaranteed to count zero.

    Built by contradicting a known fact: exclude a core variable, include a
    dead one, or include and exclude the same variable.  Requires a
    satisfiable circuit with at least one variable.
    """
    if d.num_variables == 0:
        raise DdnnfError("no variables to contradict")
    rng = XorShift64Star(seed)
    core = sorted(d.core)
    dead = sorted(d.dead)
    out: list[Assumptions] = []
    for _ in range(count):
        base_size = min(2, d.num_variables - 1)
        base = _extend_config(d, rng, base_size)
        include = set(base.include)
        exclude = set(base.exclude)
        style = rng.below(3)
        if style == 0 and core:
            exclude.add(core[rng.below(len(core))])
        elif style == 1 and dead:
            include.add(dead[rng.below(len(dead))])
        else:
            pool = sorted(include | exclude) or [1 + rng.below(d.num_variables)]
            v = pool[rng.below(len(pool))]
            include.add(v)
            exclude.add(v)
        out.append(Assumptions.of(include, exclude))
    return out


def _label(assumptions: Assumptions) -> str:
    literals = sorted(assumptions.include) + sorted(-v for v in assumptions.exclude)
    literals.sort(key=abs)
    return "q" + "_".join(str(lit) for lit in literals)


@dataclass
class VariantMatrixReport:
    """Per-variant results over one query set.

    ``rows`` hold (variant, query label, count, nodes visited) in a fixed
    order; ``totals`` sum the visits per variant; ``all_equal`` is the
    correctness verdict: every variant returned the same count for every
    query.
    """

    rows: list[tuple[str, str, int, int]] = field(default_factory=list)
    totals: dict[str, int] = field(default_factory=dict)
    all_equal: bool = True

    def to_csv(self) -> str:
        lines = ["variant,query,count,nodes_visited"]
        for variant, label, count, visited in self.rows:
            lines.append(f"{variant},{label},{count},{visited}")
        return "\n".join(lines) + "\n"


def _tree_size(d: Ddnnf) -> int:
    """Nodes a recursive evaluation without memoisation visits from the root.

    That is the sum over all nodes of their root-to-node path counts, which
    one sweep from the root down computes: the root has one path, and each
    child gains its parent's paths once per edge.
    """
    children = d.children
    paths = [0] * len(children)
    paths[d.root] = 1
    for i in range(d.root, -1, -1):
        if paths[i]:
            for c in children[i]:
                paths[c] += paths[i]
    return sum(paths)


def run_variant_matrix(d: Ddnnf, batch: AssumptionBatch) -> VariantMatrixReport:
    """Run every optimization variant over features, batch, and unsat sets.

    Inequality between variants is reported via ``all_equal``, never raised.
    The unsatisfiable companion set is derived from the batch seed, so the
    whole report is reproducible; an empty batch runs features only.

    ``naive`` and ``reusing-subtrees`` stand for recursive evaluation from
    the root, without and with memoisation of shared subtrees.  Such an
    evaluation never short-circuits, so its visits are a property of the
    circuit: the tree size, and the root's cone (every node after
    preprocessing).  Their full re-evaluations report those counts instead
    of running the recursion, which would be exponential, or overflow the
    stack on deep circuits.  Variants with the same configuration, such as
    these two, run each query once and share the results.
    """
    queries: list[tuple[str, Assumptions]] = [
        (f"f{v}", Assumptions.of(include={v}))
        for v in range(1, d.num_variables + 1)
    ]
    queries.extend((_label(a), a) for a in batch.configs)
    if batch.configs:
        unsat = generate_unsat_configs(
            d, min(10, len(batch.configs)), batch.seed ^ 0xDEAD
        )
        queries.extend((_label(a) + "_unsat", a) for a in unsat)

    recursive_visits = {"naive": _tree_size(d), "reusing-subtrees": len(d.nodes)}
    report = VariantMatrixReport()
    counts_by_query: dict[str, set[int]] = {}
    results_by_config: dict[OptimizationConfig, list[QueryResult]] = {}
    for name, cfg in VARIANTS.items():
        results = results_by_config.get(cfg)
        if results is None:  # variants sharing a config share its results
            results = [query(d, assumptions, cfg) for _, assumptions in queries]
            results_by_config[cfg] = results
        total_visited = 0
        for (label, _), result in zip(queries, results):
            visited = result.nodes_visited
            if result.strategy == "full":
                visited = recursive_visits.get(name, visited)
            total_visited += visited
            report.rows.append((name, label, result.count, visited))
            counts_by_query.setdefault(label, set()).add(result.count)
        report.totals[name] = total_visited
    report.all_equal = all(len(seen) == 1 for seen in counts_by_query.values())
    return report
