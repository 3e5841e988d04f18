"""Run the ``ddnnf`` command line under the tracer.

    python perfbench/traced_cli.py SPANS.json PERIOD -- <ddnnf arguments>

Behaves like ``python -m ddnnf <arguments>`` and writes the spans to
SPANS.json when the program ends.  Protocol lines alternate between traced
and untraced passes of PERIOD lines (``tracing.Tracer.traced``).
"""

import sys

from tracing import Tracer


def main() -> int:
    spans_path, period, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS.json PERIOD -- ARGS...")
    tracer = Tracer(int(period))
    tracer.install()
    from ddnnf import cli

    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
