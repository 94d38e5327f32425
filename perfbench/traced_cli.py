"""Run one ozonet CLI command with the benchmark's tracer installed.

    python perfbench/traced_cli.py TRACE.json <ozonet arguments...>

Behaves like `python -m ozonet.cli <arguments...>` (same exit code, same
outputs) and writes the trace aggregates and spans to TRACE.json when the
command ends. The wrappers are removed before the trace is written.
"""

import sys

from tracer import Tracer, instrument


def main(argv) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    instrument(tracer)
    from ozonet import cli
    try:
        return cli.main(cli_args)
    finally:
        tracer.restore()
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
