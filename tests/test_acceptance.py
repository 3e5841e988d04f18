"""Acceptance suite: one test per shipped guarantee, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Expected values come from three sources only: the running example's
known counts, hand-checkable constants, and the exhaustive oracle.
"""

import subprocess
import sys
import time
from pathlib import Path

from ddnnf import (
    Assumptions,
    ExhaustiveCounter,
    OptimizationConfig,
    count_all_features,
    count_feature,
    count_total,
    mark_ancestors,
    parse_c2d,
    parse_d4,
    preprocess,
    query,
    validate,
)
from ddnnf.engine import VARIANTS
from ddnnf.oracle import generate_satisfiable_configs, generate_unsat_configs

from conftest import UNSMOOTH_PAIR_C2D, RUNNING_EXAMPLE_C2D, RUNNING_EXAMPLE_D4
from helpers import gadget_chain_c2d, written_slots

DATA = Path(__file__).parent / "data"

CHUNK_SIZES = (2, 5, 10)
PER_CHUNK = 50
SEED = 1234


def _passed(number: int, text: str) -> None:
    print(f"criterion {number:2d} PASS: {text}")


def _criterion3_queries(d):
    queries = [Assumptions()]
    queries += [Assumptions.of({v}) for v in range(1, d.num_variables + 1)]
    if count_total(d) > 0 and d.num_variables > min(CHUNK_SIZES):
        batch = generate_satisfiable_configs(d, CHUNK_SIZES, PER_CHUNK, seed=SEED)
        queries += batch.configs
    return queries


def test_criterion_01_running_example_counts():
    for d in (
        preprocess(parse_c2d(RUNNING_EXAMPLE_C2D)),
        preprocess(parse_d4(RUNNING_EXAMPLE_D4, 4)),
    ):
        calls = (
            lambda: count_total(d),
            lambda: count_feature(d, 2),
            lambda: query(d, Assumptions.of({4}, {3})).count,
        )
        for call, expected in zip(calls, (4, 2, 1)):
            elapsed = []
            for _ in range(5):
                started = time.perf_counter()
                assert call() == expected
                elapsed.append(time.perf_counter() - started)
            assert min(elapsed) < 1e-3, elapsed
    _passed(1, "both formats give 4 / 2 / 1 in under 1 ms per query")


def test_criterion_02_cross_format_equivalence():
    c2d = preprocess(parse_c2d(RUNNING_EXAMPLE_C2D))
    d4 = preprocess(parse_d4(RUNNING_EXAMPLE_D4, 4))
    assert count_total(c2d) == count_total(d4)
    assert count_all_features(c2d) == count_all_features(d4)
    _passed(2, "c2d and d4 circuits agree on the total and all four features")


def test_criterion_03_oracle_equivalence(circuits):
    started = time.perf_counter()
    assert len(circuits) >= 20
    checked = 0
    for name, d in circuits.items():
        assert d.num_variables <= 24, name
        oracle = ExhaustiveCounter(d)
        for a in _criterion3_queries(d):
            assert query(d, a).count == oracle.count(a), (name, a)
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60, elapsed
    _passed(
        3,
        f"{checked} queries on {len(circuits)} circuits match the oracle"
        f" exactly in {elapsed:.1f}s",
    )


def test_criterion_04_variant_matrix_equality(circuits):
    for name, d in circuits.items():
        queries = _criterion3_queries(d)
        if count_total(d) > 0 and d.num_variables >= 1:
            queries += generate_unsat_configs(d, 10, seed=SEED)
        totals = {}
        reference = None
        for variant, cfg in VARIANTS.items():
            visited = 0
            counts = []
            for a in queries:
                result = query(d, a, cfg)
                visited += result.nodes_visited
                counts.append(result.count)
            if reference is None:
                reference = counts
            else:
                assert counts == reference, (name, variant)
            totals[variant] = visited
        for variant, visited in totals.items():
            assert totals["full"] <= visited, (name, variant)
    _passed(4, "all five variants agree everywhere and full does the least work")


def test_criterion_05_partial_traversal_sharpness():
    d = preprocess(parse_c2d(RUNNING_EXAMPLE_C2D))
    assert len(d.nodes) == 12
    # marking reaches the nodes its instructions write, and B's own node
    written = written_slots(d, mark_ancestors(d, {-2}))
    assert len({i for i in written if i < len(d.nodes)} | {d.literal_index[-2]}) == 4
    result = query(d, Assumptions.of({2}), OptimizationConfig(traversal_bypass_fraction=1.0))
    assert result.nodes_marked == 4 and result.count == 2
    _passed(5, "feature query on B marks exactly 4 of 12 nodes")


def test_criterion_06_core_dead_rule(circuits):
    running_example = circuits["running_c2d"]
    assert running_example.core == {1}
    forced = OptimizationConfig(core_dead_shortcuts=False, traversal_bypass_fraction=0)

    def forced_count(d, v):
        return query(d, Assumptions.of({v}), forced).count

    assert count_feature(running_example, 1) == forced_count(running_example, 1) == 4
    for name, d in circuits.items():
        total = count_total(d)
        for v in d.core:
            assert count_feature(d, v) == forced_count(d, v) == total, name
        for v in d.dead:
            assert count_feature(d, v) == forced_count(d, v) == 0, name
    _passed(6, "core/dead cardinalities match via shortcut and full traversal")


def test_criterion_07_smoothing_correctness():
    before = ExhaustiveCounter(parse_c2d(UNSMOOTH_PAIR_C2D)).count()
    d = preprocess(parse_c2d(UNSMOOTH_PAIR_C2D))
    assert [v for v in validate(d) if v.kind == "smoothness"] == []
    after = ExhaustiveCounter(d).count()
    assert after == before == count_total(d) == 4
    _passed(
        7,
        f"smoothing leaves zero findings and preserves the oracle count ({after})",
    )


def test_criterion_08_big_count_capability():
    k = 1000
    text = gadget_chain_c2d(k)
    started = time.perf_counter()
    d = preprocess(parse_c2d(text))
    total = count_total(d)
    elapsed = time.perf_counter() - started
    assert total == 2**k
    assert len(str(total)) == 302
    assert elapsed < 1.0, elapsed
    _passed(8, f"2**{k} (302 digits) computed exactly in {elapsed * 1000:.0f} ms")


def test_criterion_09_protocol_conformance(tmp_path):
    circuit = tmp_path / "running_example.nnf"
    circuit.write_text(RUNNING_EXAMPLE_C2D)
    session_input = (DATA / "stream_session_input.txt").read_bytes()
    golden = (DATA / "stream_session_golden.txt").read_bytes()
    proc = subprocess.run(
        [sys.executable, "-m", "ddnnf", str(circuit), "--stream"],
        input=session_input,
        capture_output=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == golden
    _passed(9, "scripted stream session is byte-identical to the golden file")
