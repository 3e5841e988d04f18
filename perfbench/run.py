"""The ddnnf benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload configure --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py ... --record results.jsonl
    python3 perfbench/run.py --compare before.jsonl after.jsonl

Run from the root of a checkout.  The program is the checkout's own
``src/ddnnf``; inputs are generated from the seed under ``.perfbench_work``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md for
the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")

sys.path.insert(0, HERE)

import features_worker  # noqa: E402
import gen  # noqa: E402
from calibrate import Speed  # noqa: E402
from rss import peak_rss_kib  # noqa: E402
from tracing import STAGES, self_times  # noqa: E402

WORKLOADS = ("configure", "features", "batch")
SETUPS = 7
WARMUP_LINES = 50
REPLY_TIMEOUT_S = 30.0
EXIT_TIMEOUT_S = 10.0
P99_WINDOW = 1000
# The timed phase lasts --seconds, and longer until it has MIN_TIMED_OPS
# operations, so that a slow run still has 10 samples beyond its p99; it
# gives up EXTRA_S after --seconds.
MIN_TIMED_OPS = P99_WINDOW
EXTRA_S = 90.0
# A traced stream run alternates traced and untraced passes over its script
# and needs two of each after the first pair, which the warm-up cuts.
TRACED_PASSES = 6


def percentile(values, p: int) -> float:
    """The p-th percentile; refuses one with fewer than 10 samples beyond it."""
    if len(values) * (100 - p) < 1000:
        raise ValueError(f"p{p} of {len(values)} samples has fewer than 10 beyond it")
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def p99(values) -> float:
    """Median, over consecutive windows of at least P99_WINDOW operations, of
    each window's 99th percentile.  Every estimate has >= 10 samples beyond
    it, and a burst of outside load on the machine moves one window rather
    than the result."""
    if len(values) < P99_WINDOW:
        raise ValueError(f"p99 needs {P99_WINDOW} samples, got {len(values)}")
    k = len(values) // P99_WINDOW
    size = len(values) // k
    return statistics.median(percentile(values[j * size:(j + 1) * size], 99) for j in range(k))


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def mean_or_zero(values) -> float:
    return statistics.fmean(values) if values else 0.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


class Program:
    """One ``--stream`` process driven over pipes by a closed-loop client."""

    def __init__(self, argv: list[str]):
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT
        )
        self._in = self.proc.stdin.fileno()
        self._out = self.proc.stdout.fileno()
        self._buf = bytearray()
        self.alive = True

    def ask(self, line: str) -> tuple[str | None, float]:
        """Reply line and the round trip in seconds.

        No reply within REPLY_TIMEOUT_S, end of output or a closed pipe give
        None and mark the program as no longer alive."""
        data = (line + "\n").encode()
        start = time.perf_counter()
        try:
            while data:
                data = data[os.write(self._in, data):]
            reply = self._readline(start + REPLY_TIMEOUT_S)
        except BrokenPipeError:
            reply = None
        self.alive = reply is not None
        return reply, time.perf_counter() - start

    def _readline(self, deadline: float) -> str | None:
        buf = self._buf
        while True:
            end = buf.find(b"\n")
            if end >= 0:
                line = buf[:end].decode()
                del buf[: end + 1]
                return line
            wait = deadline - time.perf_counter()
            if wait <= 0 or not select.select([self._out], [], [], wait)[0]:
                return None
            chunk = os.read(self._out, 1 << 16)
            if not chunk:
                return None
            buf += chunk

    def close(self) -> tuple[int, int]:
        """Send ``exit``, reap the process; (exit code, peak RSS in KiB).

        A process that stopped answering or does not end in time is killed
        and reports -9."""
        peak = peak_rss_kib(self.proc.pid) if self.alive else 0
        if self.alive:
            self.ask("exit")
        if not self.alive:
            self.proc.kill()
        self.proc.stdin.close()
        deadline = time.monotonic() + EXIT_TIMEOUT_S
        while True:
            pid, status = os.waitpid(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                pid, status = os.waitpid(self.proc.pid, 0)
                break
            time.sleep(0.01)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        return self.proc.returncode, peak


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool) -> bool:
        self.attempted += 1
        self.failed += not ok
        return ok


def stream_argv(manifest: dict, spans: str | None) -> list[str]:
    args = [manifest["circuit"], "--stream"]
    if manifest["circuit"].endswith(".d4"):
        args += ["--num-variables", str(manifest["num_variables"])]
    if spans is None:
        return [sys.executable, "-m", "ddnnf", *args]
    period = str(len(manifest["lines"]))
    return [sys.executable, os.path.join(HERE, "traced_cli.py"), spans, period, "--", *args]


def start_program(manifest: dict, spans: str | None, tally: Tally):
    """Spawn, ask ``info``; (program, set-up seconds)."""
    p = Program(stream_argv(manifest, spans))
    reply, _ = p.ask("info")
    took = time.perf_counter() - p.spawned
    want = f" vars={manifest['num_variables']} count={manifest['total']}"
    tally.check(reply is not None and reply.startswith("nodes=") and reply.endswith(want))
    return p, took


def run_stream(workload: str, manifest: dict, seconds: float, trace: bool) -> dict:
    """configure and batch: closed-loop protocol lines over pipes.

    Every time is scaled to the reference machine speed measured just before
    and after it (calibrate.py): a set-up by full units, a line by short
    ones."""
    tally = Tally()
    speed = Speed()
    lines = manifest["lines"]
    spans_paths = [
        os.path.join(WORKDIR, f"spans-{workload}-{k}.json") if trace else None
        for k in range(SETUPS)
    ]
    setup_s = []
    for k, spans in enumerate(spans_paths):
        speed.sample()
        block = speed.block()
        p, took = start_program(manifest, spans, tally)
        speed.sample()
        setup_s.append(took * speed.scale(block))
        if k < SETUPS - 1:
            code, _ = p.close()
            tally.check(code == 0)

    # The client's own garbage collections would land inside round trips;
    # the program's interpreter is left as it is.
    gc.disable()
    try:
        i = 0
        while i < WARMUP_LINES and p.alive:
            line, want, _ = lines[i % len(lines)]
            tally.check(p.ask(line)[0] == want)
            i += 1
        first = i
        raw: list[float] = []  # seconds per timed line
        speed.sample()
        per_op = Speed.per_operation()
        per_op.sample()
        clock = time.perf_counter
        start = clock()
        deadline, give_up = start + seconds, start + seconds + EXTRA_S
        while p.alive:
            now = clock()
            if now >= deadline and (
                i >= TRACED_PASSES * len(lines) if trace else len(raw) >= MIN_TIMED_OPS
            ) or now >= give_up:
                break
            line, want, _ = lines[i % len(lines)]
            reply, took = p.ask(line)
            per_op.sample()
            tally.check(reply == want)
            raw.append(took)
            i += 1
        speed.sample()
    finally:
        gc.enable()
    if not raw:
        raise RuntimeError("the program answered no timed line")
    code, maxrss_kib = p.close()
    tally.check(code == 0)

    # line k ran between per-operation samples k and k + 1
    latencies = [took * per_op.scale(k + 1) for k, took in enumerate(raw)]
    groups: dict[tuple[int, int], float] = {}
    passes: dict[int, float] = {}
    for k, took in enumerate(latencies, start=first):
        pass_ = k // len(lines)
        key = (pass_, lines[k % len(lines)][2])
        groups[key] = groups.get(key, 0.0) + took
        passes[pass_] = passes.get(pass_, 0.0) + took
    # the first and last groups may be cut by the warm-up or the deadline
    tables = list(groups.values())[1:-1] or list(groups.values())

    result = {"tally": tally, "scale": speed.run_scale()}
    if not trace:
        result["metrics"] = {
            "setup_s": (statistics.median(setup_s), "s"),
            "query_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "query_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
            "query_p99_ms": (p99(latencies) * 1e3, "ms"),
            "queries_per_s": (len(latencies) / sum(latencies), "1/s"),
            "table_p50_ms": (statistics.median(tables) * 1e3, "ms"),
            "peak_rss_mb": (maxrss_kib / 1024, "MiB"),
        }
        return result

    # Even passes over the script ran traced, odd ones untraced, in the same
    # process (tracing.Tracer.traced).  Pass 0 is cut by the warm-up, so the
    # overhead pairs passes 2 and 3, 4 and 5, and so on.
    complete = [k for k in passes if first <= k * len(lines) and (k + 1) * len(lines) <= i]
    pairs = [k for k in complete if k % 2 == 0 and k >= 2 and k + 1 in complete]
    if not pairs:
        raise RuntimeError("the traced run did not finish a traced and an untraced pass")
    overhead = sum(passes[k] for k in pairs) / sum(passes[k + 1] for k in pairs) - 1

    setup_runs = []
    for path in spans_paths:
        with open(path, encoding="utf-8") as f:
            spans = json.load(f)
        os.remove(path)
        loop = next(s for s in spans if s[0] == "cli.run_stream")
        first_handle = next(s for s in spans if s[0] == "cli.handle")
        setup_runs.append((spans, loop[1], first_handle[1]))
    # request 1 is the set-up's ``info``; script line k is request k + 2
    result["metrics"] = layer_metrics(
        setup_runs,
        spans,
        counted=lambda r: 2 <= r < len(lines) + 2,
        timed=lambda r: r >= WARMUP_LINES + 2,
        overhead=overhead,
        scale=speed.run_scale(),
        tally=tally,
    )
    return result


def run_features(manifest: dict, seconds: float, trace: bool, manifest_path: str) -> dict:
    """features: the library in a worker process, timed (and scaled) from inside."""
    tally = Tally()
    argv = [sys.executable, os.path.join(HERE, "features_worker.py"), manifest_path,
            str(seconds), str(SETUPS), str(MIN_TIMED_OPS)]
    spans_path = os.path.join(WORKDIR, "spans-features.json")
    if trace:
        argv.append(spans_path)
    proc = subprocess.run(
        argv, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
        timeout=seconds + EXTRA_S + 60, check=False,
    )
    tally.check(proc.returncode == 0)
    if proc.returncode != 0:
        raise RuntimeError(f"features worker exited with {proc.returncode}")
    out = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    tally.attempted += out["attempted"]
    tally.failed += out["failed"]

    result = {"tally": tally, "scale": out["scale"]}
    if not trace:
        lookups = out["lookup_s"]
        result["metrics"] = {
            "setup_s": (statistics.median(out["setup_s"]), "s"),
            "query_p50_ms": (statistics.median(lookups) * 1e3, "ms"),
            "query_p90_ms": (percentile(lookups, 90) * 1e3, "ms"),
            "query_p99_ms": (p99(lookups) * 1e3, "ms"),
            "queries_per_s": (out["answers"] / out["busy_s"], "1/s"),
            "table_p50_ms": (statistics.median(out["table_s"]) * 1e3, "ms"),
            "peak_rss_mb": (out["maxrss_kib"] / 1024, "MiB"),
        }
        return result

    with open(spans_path, encoding="utf-8") as f:
        spans = json.load(f)
    os.remove(spans_path)
    setup_runs = [(spans, s[1], s[2]) for s in spans if s[0] == "setup"]
    # request 1 is the first table, 2..101 its lookups; all repeat exactly
    per_round = 1 + features_worker.LOOKUPS_PER_TABLE
    result["metrics"] = layer_metrics(
        setup_runs,
        spans,
        counted=lambda r: 1 <= r <= per_round,
        timed=lambda r: r >= 1,
        overhead=out["overhead_share"],
        scale=out["scale"],
        tally=tally,
    )
    return result


LAYER_UNITS = {
    "parsing.parse_s": "s",
    "parsing.records": "count",
    "preprocess.smooth_s": "s",
    "preprocess.link_parents_s": "s",
    "preprocess.index_literals_s": "s",
    "preprocess.core_dead_s": "s",
    "preprocess.baseline_s": "s",
    "preprocess.nodes": "count",
    "preprocess.growth": "1",
    "preprocess.core_vars": "count",
    "preprocess.dead_vars": "count",
    "preprocess.omitted_vars": "count",
    "engine.shortcut_share": "1",
    "engine.shortcut_p50_us": "us",
    "engine.partial_share": "1",
    "engine.partial_p50_ms": "ms",
    "engine.mark_p50_ms": "ms",
    "engine.marked_per_query": "count",
    "engine.full_share": "1",
    "engine.full_p50_ms": "ms",
    "engine.visited_per_query": "count",
    "engine.visited_fraction": "1",
    "engine.all_features_s": "s",
    "engine.feature_visits": "count",
    "cli.handle_self_p50_us": "us",
    "cli.response_digits": "count",
    "trace.overhead_share": "1",
    "trace.setup_coverage": "1",
    "failed_share": "1",
}

STAGE_METRICS = {
    "preprocess.smooth": "preprocess.smooth_s",
    "preprocess.link_parents": "preprocess.link_parents_s",
    "preprocess.index_literals": "preprocess.index_literals_s",
    "preprocess.compute_core_dead": "preprocess.core_dead_s",
    "preprocess.compute_baseline": "preprocess.baseline_s",
}


def setup_stages(spans, begin: float, end: float) -> dict:
    """Stage durations, counts and coverage of one set-up window."""
    inside = [s for s in spans if begin <= s[1] and s[2] <= end]
    out: dict = {"coverage": 0.0}
    for s in inside:
        name, counts = s[0], s[5] or {}
        parent = spans[s[3]][0] if s[3] >= 0 else None
        if name in STAGES and parent not in STAGES:
            out["coverage"] += (s[2] - s[1]) / (end - begin)
        if name in ("parsing.parse_c2d", "parsing.parse_d4"):
            out["parsing.parse_s"] = s[2] - s[1]
            out["records"] = counts["records"]
        elif name in STAGE_METRICS:
            out[STAGE_METRICS[name]] = s[2] - s[1]
            out.update(counts)
    return out


def layer_metrics(
    setup_runs, spans, counted, timed, overhead: float, scale: float, tally: Tally
) -> dict:
    """Per-layer metrics from the set-up windows and the session's spans.

    Shares and counts use the ``counted`` requests, which repeat exactly for
    a seed; times use the ``timed`` requests and are multiplied by ``scale``,
    the run's calibration (calibrate.Speed.run_scale).
    """
    stages = [setup_stages(*run) for run in setup_runs]
    m: dict[str, float] = {
        key: statistics.median(st[key] for st in stages)
        for key in ["parsing.parse_s", *STAGE_METRICS.values()]
    }
    last = stages[-1]
    m["parsing.records"] = last["records"]
    m["preprocess.nodes"] = last["nodes"]
    m["preprocess.growth"] = last["nodes"] / last["records"]
    m["preprocess.core_vars"] = last["core"]
    m["preprocess.dead_vars"] = last["dead"]
    m["preprocess.omitted_vars"] = last["omitted"]

    own = self_times(spans)
    queries = [s for s in spans if s[0] == "engine.query"]
    counted_q = [s for s in queries if counted(s[4])]
    timed_q = [s for s in queries if timed(s[4])]

    def rung(s) -> str:
        strategy = s[5]["strategy"]
        return "shortcut" if strategy == "contradiction" else strategy

    for name in ("shortcut", "partial", "full"):
        share = sum(rung(s) == name for s in counted_q) / len(counted_q) if counted_q else 0.0
        m[f"engine.{name}_share"] = share
    durations = {
        name: [s[2] - s[1] for s in timed_q if rung(s) == name]
        for name in ("shortcut", "partial", "full")
    }
    m["engine.shortcut_p50_us"] = median_or_zero(durations["shortcut"]) * 1e6
    m["engine.partial_p50_ms"] = median_or_zero(durations["partial"]) * 1e3
    m["engine.full_p50_ms"] = median_or_zero(durations["full"]) * 1e3
    m["engine.mark_p50_ms"] = median_or_zero(
        [s[2] - s[1] for s in spans if s[0] == "engine.mark_ancestors" and timed(s[4])]
    ) * 1e3
    m["engine.marked_per_query"] = mean_or_zero(
        [s[5]["marked"] for s in counted_q if rung(s) == "partial"]
    )
    full = [s[5] for s in counted_q if rung(s) == "full"]
    m["engine.visited_per_query"] = mean_or_zero([c["visited"] for c in full])
    m["engine.visited_fraction"] = mean_or_zero([c["visited"] / c["nodes"] for c in full])

    tables = [k for k, s in enumerate(spans) if s[0] == "engine.count_all_features"]
    m["engine.all_features_s"] = median_or_zero(
        [spans[k][2] - spans[k][1] for k in tables if timed(spans[k][4])]
    )
    first = next((k for k in tables if counted(spans[k][4])), None)
    m["engine.feature_visits"] = sum(s[5]["visited"] for s in queries if s[3] == first)

    handles = [k for k, s in enumerate(spans) if s[0] == "cli.handle"]
    m["cli.handle_self_p50_us"] = median_or_zero(
        [own[k] for k in handles if timed(spans[k][4])]
    ) * 1e6
    m["cli.response_digits"] = mean_or_zero(
        [spans[k][5]["digits"] for k in handles
         if counted(spans[k][4]) and spans[k][5]["digits"]]
    )
    m["trace.overhead_share"] = overhead
    m["trace.setup_coverage"] = statistics.median(st["coverage"] for st in stages)
    m["failed_share"] = tally.failed / tally.attempted
    return {
        name: (m[name] * scale if unit in ("s", "ms", "us") else m[name], unit)
        for name, unit in LAYER_UNITS.items()
    }


def pin_to_one_cpu() -> None:
    """Keep the benchmark and the processes it starts on one CPU.

    On a VM, a reply that wakes a process on the other, idle CPU costs a
    variable few milliseconds that have nothing to do with the program; on
    one CPU, a round trip is two plain context switches.  It also puts the
    calibration (calibrate.py) on the CPU the program runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, float]:
    """The result to print, and the run's calibration scale."""
    os.makedirs(WORKDIR, exist_ok=True)
    manifest = gen.prepare(workload, seed, WORKDIR)
    manifest_path = os.path.join(os.path.dirname(manifest["circuit"]), "manifest.json")
    pin_to_one_cpu()
    if workload == "features":
        result = run_features(manifest, seconds, trace, manifest_path)
    else:
        result = run_stream(workload, manifest, seconds, trace)
    tally = result["tally"]
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }, result["scale"]


MIN_RUNS = 10


class ResultSet:
    """The end-to-end records of one ``--record`` file, per workload."""

    def __init__(self, path: str):
        self.values: dict[str, dict[str, list[float]]] = {}
        self.attempted: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        with open(path, encoding="utf-8") as f:
            for line in f:
                if not line.strip():
                    continue
                rec = json.loads(line)
                if rec.get("trace"):
                    continue
                w = rec["workload"]
                per = self.values.setdefault(w, {})
                for name, m in rec["metrics"].items():
                    per.setdefault(name, []).append(m["value"])
                self.attempted[w] = self.attempted.get(w, 0) + rec["attempted"]
                self.failed[w] = self.failed.get(w, 0) + rec["failed"]

    def failed_share(self, workload: str) -> float:
        return self.failed.get(workload, 0) / max(1, self.attempted.get(workload, 0))


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent: list[float], change: list[float], lower: bool, bound: float) -> tuple[float, str]:
    """How much worse the change's median is (share of the parent's), and
    the verdict (choosing-metrics guide, sections 6.5 and 8)."""
    (q1a, a, q3a), (q1b, b, q3b) = summary(parent), summary(change)
    worse = ((b - a) if lower else (a - b)) / a
    spread_a, spread_b = (q3a - q1a) / a, (q3b - q1b) / b
    beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
    if min(len(parent), len(change)) < MIN_RUNS:
        return worse, "unresolved"
    if max(spread_a, spread_b) > bound and not beats_all:
        return worse, "unresolved"
    if worse > bound:
        return worse, "worse"
    if -worse > spread_a:
        return worse, "better"
    return worse, "same"


def compare(paths: list[str]) -> None:
    """Per workload and end-to-end metric: medians, quartiles and a verdict.

    The spread is the quartile distance over the median.  With fewer than
    MIN_RUNS runs on a side, or a spread above the bound on either side
    (unless every run of the change beats every run of the parent), the
    verdict is "unresolved".  A gain must exceed the parent's spread.  A
    change that fails a larger share of operations than its parent is
    "invalid".
    """
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    sets = [ResultSet(p) for p in paths]
    for workload in sorted(set().union(*(s.values for s in sets))):
        shares = [s.failed_share(workload) for s in sets]
        print(f"== {workload}  failed share: " + " | ".join(f"{x:.4g}" for x in shares))
        for metric in bench["end_to_end"]:
            name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
            sides = [s.values.get(workload, {}).get(name) for s in sets]
            if not all(sides):
                continue
            cells = []
            for values in sides:
                q1, med, q3 = summary(values)
                cells.append(
                    f"{med:11.4g} [{q1:.4g}, {q3:.4g}] n={len(values)} spread={(q3 - q1) / med:.3f}"
                )
            line = f"  {name:14s} bound={bound:<5} " + " | ".join(cells)
            if len(sides) == 2:
                worse, says = verdict(sides[0], sides[1], lower, bound)
                if shares[1] > shares[0]:
                    says = "invalid"
                line += f" | worse by {worse:+.3f}: {says}"
            print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="FILE", help="append the result as one JSON line")
    parser.add_argument("--compare", nargs="+", metavar="FILE",
                        help="summarize one or compare two --record files")
    ns = parser.parse_args(argv)
    if ns.compare:
        if len(ns.compare) > 2:
            parser.error("--compare takes one or two files")
        compare(ns.compare)
        return 0
    if ns.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "ddnnf", "__init__.py")):
        print(f"error: no program at {SRC}/ddnnf; run from a checkout", file=sys.stderr)
        return 2
    result, scale = run(ns.workload, ns.seed, ns.seconds, bool(ns.trace))
    if ns.record:
        with open(ns.record, "a", encoding="utf-8") as f:
            f.write(json.dumps({"workload": ns.workload, "seed": ns.seed, "trace": ns.trace,
                                "scale": scale, **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
