"""Run the logsae CLI in-process with the layer tracer installed.

Usage: python3 perfbench/traced_cli.py STEM -- CLI-ARGUMENTS...

Spans are written to STEM.npz and names, counters and absent layers to
STEM.json when the command ends.  The exit code is the CLI's.
"""

from __future__ import annotations

import sys

from layers import LAYERS
from tracer import Tracer


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    stem, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install(LAYERS)
    if "cli.main" in tracer.absent:
        print("logsae.cli.main is missing; nothing to trace", file=sys.stderr)
        return 2
    import logsae.cli

    try:
        return logsae.cli.main(cli_args)
    finally:
        tracer.write(stem)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
