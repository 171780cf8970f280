"""Traced stand-in for ``python -m wignerlab.cli``.

Usage: ``python launcher.py SPANS_JSON OP_INDEX -- CLI_ARGS...``.  Times
``import wignerlab.cli``, installs the span wrappers, runs ``cli.main`` on
the remaining arguments and writes the spans, tagged with the op index, to
SPANS_JSON on exit.  The exit code is the CLI's.
"""

import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    import wignerlab
    import wignerlab.cli

    import_ms = (time.perf_counter() - start) * 1e3

    import spans

    spans_path, op_index, separator, *cli_args = sys.argv[1:]
    if separator != "--":
        sys.exit("usage: launcher.py SPANS_JSON OP_INDEX -- CLI_ARGS...")
    tracer = spans.Tracer()
    tracer.op = int(op_index)
    spans.install(tracer, wignerlab)
    code = 2
    try:
        code = wignerlab.cli.main(cli_args)
    finally:
        tracer.dump(spans_path, import_ms=import_ms)
    sys.exit(code)
