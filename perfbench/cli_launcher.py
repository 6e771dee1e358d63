"""Traced CLI entry point for the cli workload's traced run.

usage: cli_launcher.py DUMP ARGS...

Runs ``alhlab.cli.main(ARGS)`` as ``python -m alhlab.cli ARGS`` would,
with the benchmark's span wrappers installed, then writes DUMP.json and
DUMP.spans (see spans.py) and exits with the CLI's exit code.
"""

import sys

from spans import Tracer


def main(dump, argv):
    tracer = Tracer()
    tracer.install()
    import alhlab.cli
    try:
        return alhlab.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.write(dump)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
