"""Run one ``ctbnlearn`` command with tracing on.

Usage: python3 bench/traced_cli.py TRACE_OUT COMMAND [ARGS...]

Installs the tracer, runs ``ctbnlearn.cli.main`` on the arguments, writes
the spans and counts to TRACE_OUT and exits with the command's code.
"""
import json
import sys

from tracer import Tracer


def main(argv) -> int:
    trace_out, args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    from ctbnlearn import cli

    with tracer.span(f"cli.{args[0]}"):
        code = cli.main(args)
    tracer.uninstall()
    with open(trace_out, "w") as fh:
        json.dump(tracer.export(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
