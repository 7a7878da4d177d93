"""Run one gmspectra CLI command with a span around every layer call.

Usage: python3 -m perfbench.traced_cli SPANS_JSON RUN_ID CLI_ARG...

The command runs through ``gmspectra.cli.main`` exactly as the ``gmspectra``
entry point runs it; the spans and counters are written to SPANS_JSON when
it returns, and the exit code is passed on.
"""

import json
import sys

from perfbench.tracing import Tracer, instrument


def main() -> int:
    spans_path, run_id, *argv = sys.argv[1:]
    from gmspectra import cli

    tracer = Tracer(run_id)
    instrument(tracer)
    rc = 1
    try:
        with tracer.span("cli.main"):
            rc = cli.main(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.to_json(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
