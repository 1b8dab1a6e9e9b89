"""A traced cold CLI process for cli-cold with --trace 1.

    cli_child.py SPANS_FILE OP <rmfact arguments...>

Installs the span recorder, runs the command under an `op.<OP>` span,
writes the span totals as JSON to SPANS_FILE, and exits with the
command's exit code.
"""

import json
import sys

import rmfact.cli
from spans import Tracer


def main(argv):
    spans_file, op, args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span(f"op.{op}"):
            code = rmfact.cli.run_command(args)
    finally:
        tracer.uninstall()
    with open(spans_file, "w", encoding="utf-8") as fh:
        json.dump(tracer.sums(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
