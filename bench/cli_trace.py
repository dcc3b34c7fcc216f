"""Traced stand-in for `python -m tautorder.cli ARGS`, used by the traced run.

    python -S bench/cli_trace.py SPAN_FILE OP_ID ALLOC ARGS...

Times the import of tautorder.cli as the span `cli.import`, wraps the public
functions (see tracing.py), runs `cli.run(ARGS)` and exits with its code, as
`cli.main` does.  The spans are written to SPAN_FILE as JSON even when the
command raises.  ALLOC=1 turns on tracemalloc for the chern_symbolics peak.
"""
import sys
import time
import tracemalloc

import tracing


def main() -> None:
    span_file, op, alloc, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4:]
    tracer = tracing.Tracer()
    tracer.op = op
    if alloc:
        tracemalloc.start()
    start = time.perf_counter_ns()
    import tautorder.cli

    tracer.add_span("cli.import", start, time.perf_counter_ns())
    tracer.install()
    try:
        code = tautorder.cli.run(argv)
    finally:
        import json  # not before: `cli.import` must pay for json as a cold call does

        with open(span_file, "w") as fh:
            json.dump(tracer.dump(), fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
