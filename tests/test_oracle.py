from collections import Counter
from itertools import product

import pytest

from ddnnf import brute_force_count, count_total, parse_c2d, preprocess, query
from ddnnf import oracle
from ddnnf.engine import FULL, NAIVE, VARIANTS
from ddnnf.errors import PartialAssignment, VoidCircuit
from ddnnf.oracle import (
    AssumptionBatch,
    XorShift64Star,
    evaluate,
    generate_satisfiable_configs,
    generate_unsat_configs,
    run_variant_matrix,
)

from helpers import shannon_chain_c2d


class TestEvaluate:
    def test_running_example_assignments(self, running_example):
        assert evaluate(running_example, {1: True, 2: True, 3: False, 4: True})
        assert not evaluate(running_example, {1: False, 2: True, 3: False, 4: True})
        assert not evaluate(running_example, {1: True, 2: True, 3: True, 4: False})

    def test_partial_assignment(self, running_example):
        with pytest.raises(PartialAssignment):
            evaluate(running_example, {1: True, 2: True})

    def test_sum_over_assignments_matches_brute_force(self, circuits):
        for name in ("running_c2d", "unsmooth_pair", "xor_pair", "rand_n8", "rand_n10"):
            d = circuits[name]
            n = d.num_variables
            total = sum(
                evaluate(d, dict(zip(range(1, n + 1), bits)))
                for bits in product((False, True), repeat=n)
            )
            assert total == brute_force_count(d) == count_total(d), name


class TestPrng:
    def test_deterministic(self):
        a = XorShift64Star(42)
        b = XorShift64Star(42)
        assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]

    def test_seeds_differ(self):
        assert XorShift64Star(1).next_u64() != XorShift64Star(2).next_u64()

    def test_zero_seed_works(self):
        values = {XorShift64Star(0).next_u64() for _ in range(1)}
        assert values != {0}

    def test_below_range(self):
        rng = XorShift64Star(9)
        assert all(0 <= rng.below(7) < 7 for _ in range(100))


class TestGenerateSatisfiable:
    def test_every_config_satisfiable(self, circuits):
        for name in ("running_c2d", "rand_n10", "rand_n12a"):
            d = circuits[name]
            batch = generate_satisfiable_configs(d, [2, 5], 5, seed=7)
            for a in batch.configs:
                assert query(d, a).count > 0, name

    def test_deterministic(self, circuits):
        d = circuits["rand_n10"]
        one = generate_satisfiable_configs(d, [2, 5], 10, seed=3)
        two = generate_satisfiable_configs(d, [2, 5], 10, seed=3)
        assert one.configs == two.configs

    def test_chunk_not_below_variable_count_skipped(self, running_example):
        batch = generate_satisfiable_configs(running_example, [2, 4, 5], 3, seed=1)
        assert len(batch.configs) == 3  # only the size-2 chunk fits

    def test_all_chunks_too_big(self, running_example):
        batch = generate_satisfiable_configs(running_example, [5], 3, seed=1)
        assert batch.configs == []

    def test_requested_sizes(self, circuits):
        d = circuits["rand_n12a"]
        batch = generate_satisfiable_configs(d, [2, 5], 4, seed=11)
        assert [len(a) for a in batch.configs] == [2] * 4 + [5] * 4

    def test_void_circuit(self, circuits):
        with pytest.raises(VoidCircuit):
            generate_satisfiable_configs(circuits["false_n2"], [1], 1, seed=1)


class TestGenerateUnsat:
    def test_all_zero(self, circuits):
        for name in ("running_c2d", "rand_n10"):
            d = circuits[name]
            for a in generate_unsat_configs(d, 8, seed=5):
                assert query(d, a).count == 0, name


class TestVariantMatrix:
    def test_running_example_all_equal(self, running_example):
        batch = generate_satisfiable_configs(running_example, [2], 5, seed=21)
        report = run_variant_matrix(running_example, batch)
        assert report.all_equal
        assert report.totals["full"] <= report.totals["naive"]

    def test_naive_never_cheaper(self, circuits):
        d = circuits["rand_n10"]
        batch = generate_satisfiable_configs(d, [2, 5], 5, seed=23)
        report = run_variant_matrix(d, batch)
        assert report.all_equal
        for name, total in report.totals.items():
            assert report.totals["full"] <= total, name

    def test_empty_batch_covers_features_only(self, running_example):
        report = run_variant_matrix(running_example, AssumptionBatch([], [2], seed=0))
        labels = {label for _, label, _, _ in report.rows}
        assert labels == {"f1", "f2", "f3", "f4"}

    def test_csv_shape(self, running_example):
        batch = generate_satisfiable_configs(running_example, [2], 2, seed=2)
        csv = run_variant_matrix(running_example, batch).to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "variant,query,count,nodes_visited"
        # 5 variants x (4 features + 2 configs + 2 unsat)
        assert len(lines) == 1 + 5 * 8
        assert all(line.count(",") == 3 for line in lines)

    def test_report_reproducible(self, circuits):
        d = circuits["rand_n8"]
        one = run_variant_matrix(d, generate_satisfiable_configs(d, [2], 5, seed=17))
        two = run_variant_matrix(d, generate_satisfiable_configs(d, [2], 5, seed=17))
        assert one.to_csv() == two.to_csv()

    def test_shared_config_runs_each_query_once(self, circuits, monkeypatch):
        # naive and reusing-subtrees share NAIVE; its queries run once
        d = circuits["rand_n8"]
        batch = generate_satisfiable_configs(d, [2], 5, seed=17)
        calls = Counter()

        def counting_query(d, assumptions, cfg=FULL):
            calls[cfg] += 1
            return query(d, assumptions, cfg)

        monkeypatch.setattr(oracle, "query", counting_query)
        report = run_variant_matrix(d, batch)
        per_variant = len(report.rows) // len(VARIANTS)
        assert calls[NAIVE] == per_variant
        for name, cfg in VARIANTS.items():
            if cfg not in (NAIVE, FULL):  # FULL also draws the unsat set
                assert calls[cfg] == per_variant, name
        monkeypatch.undo()
        assert report.to_csv() == run_variant_matrix(d, batch).to_csv()


class TestRecursiveVisits:
    """The recursive variants' visits are counted, not run."""

    def test_naive_visits_are_root_to_node_paths(self):
        d = preprocess(parse_c2d(shannon_chain_c2d(12)))
        paths = [0] * len(d.nodes)

        def walk(i):  # one visit per root-to-node path; depth 36 is safe
            paths[i] += 1
            for c in d.children[i]:
                walk(c)

        walk(d.root)
        report = run_variant_matrix(d, AssumptionBatch([], [], seed=0))
        visits = {(name, label): visited for name, label, _, visited in report.rows}
        for v in range(1, 13):
            assert visits["naive", f"f{v}"] == sum(paths), v
            assert visits["reusing-subtrees", f"f{v}"] == len(d.nodes), v
        assert report.all_equal

    def test_deep_chain_matrix_is_linear(self):
        # the tree expansion of 40 levels is 6 * 2**40 - 5 nodes
        d = preprocess(parse_c2d(shannon_chain_c2d(40)))
        report = run_variant_matrix(d, AssumptionBatch([], [], seed=0))
        assert report.totals["naive"] == 40 * (6 * 2**40 - 5)
        assert report.totals["reusing-subtrees"] == 40 * len(d.nodes)
        assert {count for _, _, count, _ in report.rows} == {2**39}
