"""The features workload's program process: an analysis script on the library.

    python perfbench/features_worker.py MANIFEST.json SECONDS SETUPS MIN_LOOKUPS [SPANS.json]

Sets the circuit up SETUPS times (read, parse, preprocess), then runs rounds
of one ``count_all_features`` table followed by LOOKUPS_PER_TABLE
single-feature ``count_feature`` lookups, until SECONDS have passed and at
least MIN_LOOKUPS lookups are timed.  Every answer is checked against the
manifest outside the timed calls.  Every time is scaled to the reference
machine speed measured around it (calibrate.py).  Prints one JSON line.

With SPANS.json the rounds alternate between traced and untraced, so that
the same process prices its own tracing.
"""

import json
import sys
import time

from calibrate import Speed
from rss import peak_rss_kib

# The benchmark reports every end-to-end metric on every workload, so
# features needs single operations for its query percentiles.  The number of
# lookups per table is an assumption, not taken from a source.
LOOKUPS_PER_TABLE = 100
WARMUP_LOOKUPS = 20
GIVE_UP_S = 90.0
# A table takes about a second, during which the machine's speed changes
# several times; the samples of two rounds on each side (before and after
# each table) estimate its mean speed better than the two next to it.
TABLE_REACH = 4
ROUND_PAIRS = 2  # traced/untraced pairs a traced run needs at least


def main() -> int:
    manifest_path, seconds, setups, min_lookups, *rest = sys.argv[1:]
    spans_path = rest[0] if rest else None
    with open(manifest_path, encoding="utf-8") as f:
        manifest = json.load(f)

    tracer = None
    if spans_path:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    from ddnnf import parse_text, preprocess

    engine = sys.modules["ddnnf.engine"]
    speed = Speed()  # around set-ups and tables
    per_op = Speed.per_operation()  # after every lookup

    def setup():
        with open(manifest["circuit"], encoding="utf-8") as f:
            text = f.read()
        return preprocess(parse_text(text))

    setup_s = []
    for _ in range(int(setups)):
        d = None  # drop the previous circuit, so that two never share memory
        speed.sample()
        block = speed.block()
        start = time.perf_counter()
        d = tracer.call("setup", setup) if tracer else setup()
        took = time.perf_counter() - start
        speed.sample()
        setup_s.append(took * speed.scale(block))

    expected_table = [(v, int(c)) for v, c in enumerate(manifest["features"], start=1)]
    lookups = manifest["lookups"]
    clock = time.perf_counter
    out = {"attempted": 0, "failed": 0}

    def lookup(j: int) -> float:
        v = lookups[j % len(lookups)]
        start = clock()
        count = engine.count_feature(d, v)
        took = clock() - start
        out["attempted"] += 1
        out["failed"] += count != expected_table[v - 1][1]
        return took

    for j in range(WARMUP_LOOKUPS):
        lookup(j)

    # rounds[k] = (block, table seconds, [(block, lookup seconds)]); unscaled
    rounds = []
    start = clock()
    deadline, give_up = start + float(seconds), start + float(seconds) + GIVE_UP_S
    while True:
        now = clock()
        done = len(rounds) >= 2 * ROUND_PAIRS if tracer else (
            len(rounds) * LOOKUPS_PER_TABLE >= int(min_lookups)
        )
        if now >= deadline and done or now >= give_up:
            break
        if tracer:
            tracer.enable(len(rounds) % 2 == 0)
        speed.sample()
        block = speed.block()
        if tracer:
            tracer.request += 1
        t0 = clock()
        table = engine.count_all_features(d)
        table_s = clock() - t0
        speed.sample()
        out["attempted"] += len(expected_table)
        out["failed"] += sum(row != want for row, want in zip(table, expected_table))
        out["failed"] += abs(len(table) - len(expected_table))
        lookup_s = []
        per_op.sample()
        for _ in range(LOOKUPS_PER_TABLE):
            if tracer:
                tracer.request += 1
            took = lookup(len(rounds) * LOOKUPS_PER_TABLE + len(lookup_s))
            per_op.sample()
            lookup_s.append((per_op.block() - 1, took))
        rounds.append((block, table_s, lookup_s))
    speed.sample()
    maxrss_kib = peak_rss_kib("self")

    scaled = [
        (table_s * speed.scale(block, TABLE_REACH), [t * per_op.scale(b) for b, t in lookup_s])
        for block, table_s, lookup_s in rounds
    ]
    tables = [t for t, _ in scaled]
    lookup_times = [t for _, ls in scaled for t in ls]
    out.update(
        setup_s=setup_s,
        table_s=tables,
        lookup_s=lookup_times,
        busy_s=sum(tables) + sum(lookup_times),
        answers=len(tables) * len(expected_table) + len(lookup_times),
        maxrss_kib=maxrss_kib,
        scale=speed.run_scale(),
    )
    if tracer:
        tracer.uninstall()
        tracer.dump(spans_path)
        # even rounds ran traced, odd ones untraced; compare complete pairs
        pairs = len(scaled) // 2
        busy = [t + sum(ls) for t, ls in scaled]
        out["overhead_share"] = sum(busy[0:2 * pairs:2]) / sum(busy[1:2 * pairs:2]) - 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
