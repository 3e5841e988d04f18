"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import collections
import json
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import gen  # noqa: E402
from reference import Circuit, Reference  # noqa: E402

import ddnnf  # noqa: E402
from ddnnf import Assumptions, brute_force_count, parse_c2d, parse_d4  # noqa: E402


def test_generator_is_deterministic_per_seed():
    a, b, other = (gen.generate_circuit(s) for s in (5, 5, 6))
    assert gen.write_c2d(a) == gen.write_c2d(b)
    assert gen.write_d4(a) == gen.write_d4(b)
    assert gen.write_c2d(a) != gen.write_c2d(other)
    answers = gen._Answers(a)
    first = gen.configure_script(a, answers, random.Random(3))
    assert first == gen.configure_script(a, answers, random.Random(3))
    assert gen.batch_script(a, answers, random.Random(3)) == gen.batch_script(
        a, answers, random.Random(3)
    )


def tiny_circuit(seed: int) -> Circuit:
    """A random block over 7 variables, conjoined with one core and one dead
    literal, declaring two more variables that stay omitted."""
    rng = random.Random(seed)
    b = gen._Builder(rng)
    top = b.block(tuple(range(1, 8)))
    root = b.node("a", [(top, (8, -9))])
    return Circuit(11, b.kinds, b.edges, root)


@pytest.mark.parametrize("seed", range(40))
def test_reference_matches_brute_force(seed):
    c = tiny_circuit(seed)
    ref = Reference(c)
    from_c2d = parse_c2d(gen.write_c2d(c))
    from_d4 = parse_d4(gen.write_d4(c), c.num_variables)
    rng = random.Random(seed)
    queries = [[]] + [
        [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 12), rng.randint(1, 5))]
        for _ in range(30)
    ]
    for lits in queries:
        want = ref.count(lits)
        a = Assumptions.from_literals(lits)
        assert brute_force_count(from_c2d, a) == want, lits
        assert brute_force_count(from_d4, a) == want, lits


def run_script(workload: str, tmp_path):
    """Replay a workload's whole script in-process; (strategies, wrong replies)."""
    from ddnnf.cli import StreamSession

    manifest = gen.prepare(workload, 7, str(tmp_path))
    with open(manifest["circuit"], encoding="utf-8") as f:
        d = ddnnf.preprocess(ddnnf.parse_text(f.read(), "auto", manifest["num_variables"]))
    session = StreamSession(d)
    engine = sys.modules["ddnnf.engine"]
    strategies = collections.Counter()
    query = engine.query

    def counting_query(*args, **kwargs):
        result = query(*args, **kwargs)
        strategies[result.strategy] += 1
        return result

    engine.query = counting_query
    try:
        wrong = [line for line, want, _ in manifest["lines"] if session.handle(line)[0] != want]
    finally:
        engine.query = query
    return strategies, wrong


def test_configure_uses_shortcut_and_partial_rungs_only(tmp_path):
    strategies, wrong = run_script("configure", tmp_path)
    assert wrong == []
    assert strategies["full"] == 0
    assert strategies["shortcut"] > 0
    assert strategies["partial"] > 10 * strategies["shortcut"]


def test_batch_takes_the_full_sweep_every_time(tmp_path):
    strategies, wrong = run_script("batch", tmp_path)
    assert wrong == []
    assert set(strategies) == {"full"}
    assert strategies["full"] == gen.BATCH_LINES


@pytest.mark.parametrize("workload", ["configure", "features", "batch"])
def test_emitted_metric_names_match_benchmark_json(workload):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=300,
        )
        result = json.loads(out.stdout.decode().strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in bench[key]
        }


def test_percentiles_refuse_short_inputs():
    import run

    assert run.percentile(list(range(100)), 90) == pytest.approx(89.1)
    with pytest.raises(ValueError):
        run.percentile(list(range(99)), 90)
    assert run.p99(list(range(1000))) == pytest.approx(989.01)
    with pytest.raises(ValueError):
        run.p99(list(range(999)))


def test_compare_needs_ten_runs_and_a_gain_beyond_the_spread():
    import run

    parent = [10.0 + 0.01 * k for k in range(10)]
    assert run.verdict(parent, [x * 0.5 for x in parent], True, 0.1)[1] == "better"
    assert run.verdict(parent, [x * 1.5 for x in parent], True, 0.1)[1] == "worse"
    assert run.verdict(parent, list(parent), True, 0.1)[1] == "same"
    # one run a side resolves nothing, however far apart
    assert run.verdict(parent[:1], [5.0], True, 0.1)[1] == "unresolved"
    # every run better, but by less than the parent's own spread
    wide = [10.0 + 0.5 * k for k in range(10)]
    assert run.verdict(wide, [9.9 + 0.001 * k for k in range(10)], True, 0.1)[1] == "same"
    # a spread above the bound leaves it open
    assert run.verdict(wide, list(wide), True, 0.1)[1] == "unresolved"


def test_compare_flags_a_change_that_fails_more(tmp_path, capsys):
    import run

    def record(path, failed):
        with open(path, "w", encoding="utf-8") as f:
            for seed in range(10):
                f.write(json.dumps({
                    "workload": "batch", "seed": seed, "trace": 0, "attempted": 100,
                    "failed": failed, "metrics": {"setup_s": {"value": 1.0 + seed / 1e3, "unit": "s"}},
                }) + "\n")

    record(tmp_path / "a.jsonl", 0)
    record(tmp_path / "b.jsonl", 1)
    run.compare([str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")])
    line = next(x for x in capsys.readouterr().out.splitlines() if "setup_s" in x)
    assert line.endswith("invalid")


def test_tracer_alternates_passes():
    from tracing import Tracer

    t = Tracer(period=3)
    assert [t.traced(r) for r in range(1, 12)] == [
        True, True, True, True, False, False, False, True, True, True, False
    ]
    assert all(Tracer().traced(r) for r in range(1, 12))


def test_speed_scales_each_block_by_its_neighbouring_samples():
    from calibrate import REFERENCE_S, Speed

    s = Speed()
    s.samples = [REFERENCE_S, 2 * REFERENCE_S, 2 * REFERENCE_S]
    assert s.scale(1) == pytest.approx(2 / 3)
    assert s.scale(2) == pytest.approx(1 / 2)
    assert s.scale(3) == pytest.approx(1 / 2)
    assert s.scale(2, reach=2) == pytest.approx(3 / 5)
    assert s.run_scale() == pytest.approx(1 / 2)
