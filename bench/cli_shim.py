"""Traced stand-in for `python -m convexval.cli`, used by traced cli episodes.

    python3 bench/cli_shim.py TRACE_JSON <cli arguments...>

Times `import convexval.cli`, wraps the library's public functions with
`spans.Tracer`, runs `convexval.cli.run` on the arguments, writes the span
sums to TRACE_JSON and the spans next to it, and exits with the CLI's code
(or, when the CLI raises, with the interpreter's traceback and code 1).
"""

import json
import sys
import time

started = time.perf_counter()
import convexval.cli as cli  # noqa: E402

import_s = time.perf_counter() - started

import spans  # noqa: E402


def main(trace_path, argv):
    """Run the CLI traced; an exception still escapes, as it does without the shim."""
    tracer = spans.Tracer()
    tracer.install()
    t0 = time.perf_counter()
    try:
        return tracer.op(0, cli.run, argv)
    finally:
        run_s = time.perf_counter() - t0
        tracer.uninstall()
        sys.stdout.flush()
        sums = tracer.summary()
        sums["cli.import_s"] = import_s
        sums["cli.run_s"] = run_s
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(sums, fh)
        tracer.dump(trace_path[: -len(".json")] + ".tsv.gz")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
