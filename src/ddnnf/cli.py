"""Command line front end: one-shot computations and the streaming protocol.

One-shot modes parse the circuit, preprocess it once, run the requested
computation and terminate; results go to stdout or, with ``--csv``, to a
file.  Streaming mode keeps the preprocessed circuit loaded and answers one
newline-terminated command per line on stdin with exactly one line on
stdout, flushed per response:

    count                 total model count
    count v LIT...        count under assumptions; +v includes, -v excludes
    core                  core variables, ascending (empty line if none)
    dead                  dead variables, ascending (empty line if none)
    info                  "nodes=<N> vars=<n> count=<total>"
    exit                  "bye", then the session ends

Unknown or malformed lines answer "error unknown-command"; a variable
outside 1..n answers "error variable-out-of-range <v>"; contradictory
assumptions are a legitimate query and answer "0".

A session (``--stream`` or ``--queries``) keeps one
:class:`~ddnnf.engine.SessionState`: the zero literals and node values of
the last ``count v`` line it evaluated.  The next such line starts from
those values when fewer literals change than from the baselines, so a
selection that grows by one literal recomputes only that literal's
ancestors.  A line whose zero literals equal the kept ones (it adds only
core, dead-excluded or omitted variables) answers from the kept root.  The
other modes answer each query from the baselines.

Exit codes: 0 success, 1 parse error (the message names the line; a circuit
or ``--queries`` file that is not UTF-8 text is one too), 2 bad options, 3
I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

from . import engine, oracle, parsing
from .core import Assumptions, Ddnnf, validate
from .errors import DdnnfError, ParseError, VariableOutOfRange
from .preprocess import preprocess

DEFAULT_CHUNK_SIZES = (2, 5, 10, 20, 50)
DEFAULT_PER_CHUNK = 50


@dataclass
class CliOptions:
    input_path: str
    format: str = "auto"
    num_variables: int | None = None
    mode: str = "count"
    feature: int | None = None
    config_literals: list[int] = field(default_factory=list)
    queries_path: str | None = None
    save_path: str | None = None
    csv_path: str | None = None
    seed: int = 42
    chunk_sizes: tuple[int, ...] = DEFAULT_CHUNK_SIZES
    per_chunk: int = DEFAULT_PER_CHUNK


class _UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddnnf",
        description="Count models of a compiled d-DNNF circuit.",
    )
    parser.add_argument("input", help="circuit file (c2d or d4 format)")
    parser.add_argument(
        "--format", choices=["auto", "c2d", "d4"], default="auto",
        help="input format; auto sniffs the header",
    )
    parser.add_argument(
        "--num-variables", type=int, default=None, metavar="N",
        help="variable count: required for d4 input, optional override for c2d",
    )

    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--count", action="store_true", help="total count (default)")
    mode.add_argument("--feature", type=int, metavar="V", help="cardinality of one variable")
    mode.add_argument(
        "--config", metavar="LITS",
        help="cardinality of a partial configuration, e.g. --config '1 -3'",
    )
    mode.add_argument("--all-features", action="store_true", help="cardinality of every variable")
    mode.add_argument(
        "--queries", metavar="FILE",
        help="answer one stream-grammar query per line of FILE",
    )
    mode.add_argument("--stream", action="store_true", help="interactive streaming mode")
    mode.add_argument(
        "--save-smoothed", metavar="FILE", help="write the smoothed circuit as c2d text"
    )
    mode.add_argument("--validate", action="store_true", help="report structural violations")
    mode.add_argument(
        "--variant-matrix", action="store_true",
        help="run every optimization variant over a generated query set",
    )

    parser.add_argument("--csv", metavar="FILE", help="write results to FILE instead of stdout")
    parser.add_argument("--seed", type=int, default=42, help="seed for generated query sets")
    parser.add_argument(
        "--chunk-sizes", default=",".join(map(str, DEFAULT_CHUNK_SIZES)),
        metavar="SIZES", help="comma-separated configuration sizes for --variant-matrix",
    )
    parser.add_argument(
        "--per-chunk", type=int, default=DEFAULT_PER_CHUNK, metavar="N",
        help="configurations per chunk size for --variant-matrix",
    )
    return parser


def _options(ns: argparse.Namespace) -> CliOptions:
    opts = CliOptions(
        input_path=ns.input,
        format=ns.format,
        num_variables=ns.num_variables,
        csv_path=ns.csv,
        seed=ns.seed,
        per_chunk=ns.per_chunk,
    )
    try:
        opts.chunk_sizes = tuple(int(t) for t in ns.chunk_sizes.split(",") if t)
    except ValueError:
        raise _UsageError(f"bad --chunk-sizes {ns.chunk_sizes!r}") from None
    if any(size < 1 for size in opts.chunk_sizes):
        raise _UsageError(f"--chunk-sizes takes sizes of at least 1, got {ns.chunk_sizes!r}")
    if ns.num_variables is not None and ns.num_variables < 0:
        raise _UsageError(f"--num-variables takes a count of at least 0, got {ns.num_variables}")
    if ns.per_chunk < 0:
        raise _UsageError(f"--per-chunk takes a count of at least 0, got {ns.per_chunk}")

    if ns.feature is not None:
        opts.mode, opts.feature = "feature", ns.feature
    elif ns.config is not None:
        try:
            opts.config_literals = [int(t) for t in ns.config.split()]
        except ValueError:
            raise _UsageError(f"bad --config {ns.config!r}") from None
        if not opts.config_literals or 0 in opts.config_literals:
            raise _UsageError("--config takes non-zero signed literals")
        opts.mode = "config"
    elif ns.all_features:
        opts.mode = "all_features"
    elif ns.queries is not None:
        opts.mode, opts.queries_path = "queries", ns.queries
    elif ns.stream:
        opts.mode = "stream"
    elif ns.save_smoothed is not None:
        opts.mode, opts.save_path = "save_smoothed", ns.save_smoothed
    elif ns.validate:
        opts.mode = "validate"
    elif ns.variant_matrix:
        opts.mode = "variant_matrix"
    return opts


def _read_text(path: str) -> str:
    """The file as text-mode ``open`` reads it: UTF-8, universal newlines.

    A byte sequence that is not UTF-8 raises :class:`ParseError` naming its
    line, instead of escaping as a decoding traceback.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        message = f"byte 0x{data[exc.start]:02x} is not UTF-8 text"
        raise ParseError(message, data.count(b"\n", 0, exc.start) + 1) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _load(opts: CliOptions) -> Ddnnf:
    text = _read_text(opts.input_path)
    fmt = opts.format
    if fmt == "auto":
        fmt = parsing.detect_format(text)
    if fmt == parsing.D4 and opts.num_variables is None:
        raise _UsageError("d4 input requires --num-variables")
    return parsing.parse_text(text, fmt, opts.num_variables)


def _emit(text: str, opts: CliOptions) -> None:
    if opts.csv_path:
        with open(opts.csv_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


class StreamSession:
    """Answers one protocol line at a time over a preprocessed circuit.

    The session keeps one :class:`~ddnnf.engine.SessionState`, so each
    ``count v ...`` line may start from the previous line's values.  One
    session serves one caller at a time.
    """

    def __init__(self, d: Ddnnf):
        self.d = d
        self.state = engine.SessionState()

    def handle(self, line: str) -> tuple[str, bool]:
        """Response line and whether the session should end."""
        tokens = line.split()
        d = self.d
        if not tokens:
            return "error unknown-command", False
        command = tokens[0]
        if command == "exit" and len(tokens) == 1:
            return "bye", True
        if command == "count":
            if len(tokens) == 1:
                return str(engine.count_total(d)), False
            if tokens[1] == "v" and len(tokens) > 2:
                try:
                    literals = [int(t) for t in tokens[2:]]
                except ValueError:
                    return "error unknown-command", False
                for lit in literals:
                    if not 1 <= abs(lit) <= d.num_variables:
                        return f"error variable-out-of-range {abs(lit)}", False
                a = Assumptions.from_literals(literals)
                return str(engine.query(d, a, state=self.state).count), False
            return "error unknown-command", False
        if command == "core" and len(tokens) == 1:
            return " ".join(map(str, sorted(d.core))), False
        if command == "dead" and len(tokens) == 1:
            return " ".join(map(str, sorted(d.dead))), False
        if command == "info" and len(tokens) == 1:
            return (
                f"nodes={len(d.nodes)} vars={d.num_variables}"
                f" count={engine.count_total(d)}"
            ), False
        return "error unknown-command", False


def run_stream(opts: CliOptions, stdin=None, stdout=None) -> int:
    """Load once, then answer queries line by line until exit or EOF."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    d = preprocess(_load(opts))
    session = StreamSession(d)
    for raw in stdin:
        response, stop = session.handle(raw.rstrip("\r\n"))
        stdout.write(response + "\n")
        stdout.flush()
        if stop:
            break
    return 0


def run_once(opts: CliOptions) -> int:
    """Parse, preprocess, run one mode, write results, terminate."""
    d = _load(opts)
    if opts.mode == "validate":
        lines = [
            f"{v.severity} {v.kind} node={v.node}: {v.message}"
            for v in validate(d)
        ]
        _emit(("\n".join(lines) + "\n") if lines else "ok\n", opts)
        return 0

    preprocess(d)
    if opts.mode == "count":
        _emit(f"{engine.count_total(d)}\n", opts)
    elif opts.mode == "feature":
        _emit(f"{engine.count_feature(d, opts.feature)}\n", opts)
    elif opts.mode == "config":
        a = Assumptions.from_literals(opts.config_literals)
        _emit(f"{engine.query(d, a).count}\n", opts)
    elif opts.mode == "all_features":
        rows = engine.count_all_features(d)
        body = "".join(f"{v},{count}\n" for v, count in rows)
        _emit("feature,cardinality\n" + body, opts)
    elif opts.mode == "queries":
        session = StreamSession(d)
        lines = _read_text(opts.queries_path).split("\n")
        if not lines[-1]:
            lines.pop()  # the text ends with a newline, or is empty
        responses = [session.handle(line)[0] for line in lines]
        _emit("".join(r + "\n" for r in responses), opts)
    elif opts.mode == "save_smoothed":
        with open(opts.save_path, "w", encoding="utf-8") as handle:
            handle.write(parsing.write_c2d(d))
    elif opts.mode == "variant_matrix":
        try:
            batch = oracle.generate_satisfiable_configs(
                d, opts.chunk_sizes, opts.per_chunk, opts.seed
            )
        except DdnnfError:
            batch = oracle.AssumptionBatch([], list(opts.chunk_sizes), opts.seed)
        report = oracle.run_variant_matrix(d, batch)
        _emit(report.to_csv(), opts)
        print(f"all-equal: {str(report.all_equal).lower()}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    # counts can run to tens of thousands of digits; lift the int-to-str guard
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        opts = _options(ns)
        if opts.mode == "stream":
            return run_stream(opts)
        return run_once(opts)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except VariableOutOfRange as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DdnnfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
