"""Run one ``nvecho`` CLI command with layer tracing, in a fresh interpreter.

    python3 perfbench/cli_traced.py SPANS_JSON CLI_ARG...

Times the import of ``nvecho.cli`` as the ``cli.import`` span, runs
``nvecho.cli.main`` on the remaining arguments with every layer hook
installed, writes the spans and counters to SPANS_JSON and exits with the
command's exit code.  ``nvecho`` must be importable (the benchmark sets
PYTHONPATH to the checkout's ``src``).
"""

import sys
import time


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    import nvecho.cli
    end = time.perf_counter()

    from spans import Tracer, installed

    tracer = Tracer()
    tracer.record("cli.import", start, end)
    with installed(tracer):
        code = nvecho.cli.main(cli_args)
    tracer.dump(out_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
