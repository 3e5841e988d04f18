"""Command line front end: one-shot computations and the streaming protocol.

One-shot modes parse the circuit, preprocess it once, run the requested
computation and terminate; results go to stdout or, with ``--csv``, to a
file.  ``--save-smoothed`` writes only its own file.  Streaming mode keeps
the preprocessed circuit loaded and answers one newline-terminated command
per line on stdin with exactly one line on stdout, flushed per response;
neither takes ``--csv``.  ``--queries FILE`` runs the same loop over the
lines of FILE, so it too stops at ``exit``:

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
:class:`~ddnnf.engine.SessionState`: the zero literals and tape slot
values of the last ``count v`` line it evaluated.  The next such line
starts from those values when fewer literals change than from the
baselines, so a selection that grows by one literal reruns only the tape
instructions on that literal's paths to the root.  A line whose zero literals equal the kept ones (it adds only
core, dead-excluded or omitted variables) answers from the kept root.  The
other modes answer each query from the baselines.

Parsing and preprocessing run with the cyclic garbage collector off, and a
one-shot mode keeps it off until it has answered; a session turns it back
on before it answers its first line.  A session's set-up also links the
reader graph that the partial rung climbs
(:func:`~ddnnf.engine.link_readers`), so its first line does not pay for
it; a one-shot mode links it only if its query takes the partial rung.

Exit codes: 0 success, 1 parse error (the message names the line; a circuit
or ``--queries`` file that is not UTF-8 text is one too), 2 bad options, 3
I/O failure.
"""

from __future__ import annotations

import argparse
import gc
import io
import sys
from contextlib import contextmanager, nullcontext

from . import engine, parsing
from .core import Assumptions, Ddnnf, validate
from .errors import DdnnfError, ParseError, VariableOutOfRange
from .preprocess import preprocess

DEFAULT_CHUNK_SIZES = (2, 5, 10, 20, 50)
DEFAULT_PER_CHUNK = 50


class _UsageError(Exception):
    pass


def _count(text: str) -> int:
    """A count of at least 0, for ``--num-variables`` and ``--per-chunk``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a count, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"takes a count of at least 0, got {value}")
    return value


def _sizes(text: str) -> tuple[int, ...]:
    """Comma-separated configuration sizes of at least 1."""
    try:
        sizes = tuple(int(t) for t in text.split(",") if t)
    except ValueError:
        message = f"expected comma-separated sizes, got {text!r}"
        raise argparse.ArgumentTypeError(message) from None
    if any(size < 1 for size in sizes):
        raise argparse.ArgumentTypeError(f"takes sizes of at least 1, got {text!r}")
    return sizes


def _literals(text: str) -> list[int]:
    """Blank-separated non-zero signed literals, at least one."""
    try:
        literals = [int(t) for t in text.split()]
    except ValueError:
        literals = []
    if not literals or 0 in literals:
        raise argparse.ArgumentTypeError(f"takes non-zero signed literals, got {text!r}")
    return literals


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddnnf",
        description="Count models of a compiled d-DNNF circuit.",
    )
    parser.add_argument("input", help="circuit file (c2d or d4 format, read from the header)")
    parser.add_argument(
        "--num-variables", type=_count, default=None, metavar="N",
        help="variable count: required for d4 input, optional override for c2d",
    )

    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--count", action="store_true", help="total count (default)")
    mode.add_argument("--feature", type=int, metavar="V", help="cardinality of one variable")
    mode.add_argument(
        "--config", type=_literals, metavar="LITS",
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

    parser.add_argument(
        "--csv", metavar="FILE",
        help="write results to FILE instead of stdout; serves --count, --feature,"
        " --config, --all-features, --queries, --validate and --variant-matrix,"
        " and is a usage error with --stream or --save-smoothed",
    )
    parser.add_argument("--seed", type=int, default=42, help="seed for generated query sets")
    parser.add_argument(
        "--chunk-sizes", type=_sizes, default=DEFAULT_CHUNK_SIZES,
        metavar="SIZES", help="comma-separated configuration sizes for --variant-matrix",
    )
    parser.add_argument(
        "--per-chunk", type=_count, default=DEFAULT_PER_CHUNK, metavar="N",
        help="configurations per chunk size for --variant-matrix",
    )
    return parser


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


def _load(args: argparse.Namespace) -> Ddnnf:
    text = _read_text(args.input)
    if parsing.detect_format(text) == parsing.C2D:
        return parsing.parse_c2d(text, args.num_variables)
    if args.num_variables is None:
        raise _UsageError("d4 input requires --num-variables")
    return parsing.parse_d4(text, args.num_variables)


@contextmanager
def _cyclic_gc_off():
    """Switch the cyclic garbage collector off for the block.

    Set-up allocates hundreds of thousands of tuples and ints that form no
    cycles, and each allocation threshold they cross sets off a collection
    that scans them all.  The CLI owns its process, so it may switch the
    collector off; it restores the state it found, and the library never
    touches it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@contextmanager
def _output(args: argparse.Namespace):
    """The ``--csv`` file, or stdout without one."""
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as handle:
            yield handle
    else:
        yield sys.stdout


def _emit(text: str, args: argparse.Namespace) -> None:
    with _output(args) as out:
        out.write(text)


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


def run_stream(args: argparse.Namespace, stdin=None, stdout=None) -> int:
    """Load once, then answer protocol lines until ``exit`` or the end.

    ``--stream`` reads stdin and writes stdout.  ``--queries`` reads its
    file, whole and before the first answer, and writes the ``--csv`` file
    or stdout.
    """
    with _cyclic_gc_off():  # back on before the first line is answered
        d = preprocess(_load(args))
        engine.link_readers(d)
    session = StreamSession(d)
    if args.queries is None:
        lines = stdin if stdin is not None else sys.stdin
        sink = nullcontext(stdout if stdout is not None else sys.stdout)
    else:
        lines, sink = io.StringIO(_read_text(args.queries)), _output(args)
    with sink as out:
        for raw in lines:
            response, stop = session.handle(raw.rstrip("\r\n"))
            out.write(response + "\n")
            out.flush()
            if stop:
                break
    return 0


def run_once(args: argparse.Namespace) -> int:
    """Parse, preprocess, run one mode, write results, terminate."""
    d = _load(args)
    if args.validate:
        lines = [
            f"{v.severity} {v.kind} node={v.node}: {v.message}"
            for v in validate(d)
        ]
        _emit(("\n".join(lines) + "\n") if lines else "ok\n", args)
        return 0

    preprocess(d)
    if args.feature is not None:
        _emit(f"{engine.count_feature(d, args.feature)}\n", args)
    elif args.config is not None:
        a = Assumptions.from_literals(args.config)
        _emit(f"{engine.query(d, a).count}\n", args)
    elif args.all_features:
        rows = engine.count_all_features(d)
        body = "".join(f"{v},{count}\n" for v, count in rows)
        _emit("feature,cardinality\n" + body, args)
    elif args.save_smoothed is not None:
        with open(args.save_smoothed, "w", encoding="utf-8") as handle:
            handle.write(parsing.write_c2d(d))
    elif args.variant_matrix:
        from . import oracle  # only this mode uses it; it costs the others import time

        try:
            batch = oracle.generate_satisfiable_configs(
                d, args.chunk_sizes, args.per_chunk, args.seed
            )
        except DdnnfError:
            batch = oracle.AssumptionBatch([], list(args.chunk_sizes), args.seed)
        report = oracle.run_variant_matrix(d, batch)
        _emit(report.to_csv(), args)
        print(f"all-equal: {str(report.all_equal).lower()}", file=sys.stderr)
    else:
        _emit(f"{engine.count_total(d)}\n", args)
    return 0


def main(argv=None) -> int:
    # counts can run to tens of thousands of digits; lift the int-to-str guard
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.csv is not None and (args.stream or args.save_smoothed is not None):
            mode = "--stream" if args.stream else "--save-smoothed"
            parser.error(f"argument --csv: not allowed with argument {mode}")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.stream or args.queries is not None:
            return run_stream(args)
        with _cyclic_gc_off():
            return run_once(args)
    except (_UsageError, VariableOutOfRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except DdnnfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
