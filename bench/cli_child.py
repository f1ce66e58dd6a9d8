"""A traced `reccost` CLI process for the cli-cold workload's traced run.

    python bench/cli_child.py TRACE.json <reccost arguments...>

Imports reccost.cli, wraps the layer entry points with the benchmark's
tracer, runs ``reccost.cli.run`` on the arguments and writes the summed
spans to TRACE.json.  Exits with the CLI's exit code.
"""

import json
import sys

import reccost.cli

import tracer as tracing


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code, _ = reccost.cli.run(argv)
    finally:
        tracer.uninstall()
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"sums": tracing.summarize(tracer.take()),
                       "unwrapped": tracer.unwrapped}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
