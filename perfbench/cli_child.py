"""Run one wakexp CLI command with the layer tracer installed.

    python perfbench/cli_child.py SPAN_FILE CALL_ID ARGV...

Stdout, stderr and the exit code are those of ``python -m wakexp.cli
ARGV...``.  The spans, the import time of ``wakexp.cli``, the time in
``main`` and the time spent after it (the one-worker rerun of each process
map, and writing the spans) go to SPAN_FILE.
"""

import sys
import time

t0 = time.perf_counter()
import wakexp.cli  # noqa: E402

import_s = time.perf_counter() - t0

import tracing  # noqa: E402


def main() -> int:
    span_file, call_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = tracing.Tracer(call_id)
    restore = tracing.install(tracer)
    t1 = time.perf_counter()
    code = 1
    try:
        code = wakexp.cli.main(argv)
    finally:
        t2 = time.perf_counter()
        sys.stdout.flush()
        tracer.run_deferred()
        restore()
        extra = {"import_s": import_s, "main_s": t2 - t1, "exit": code}
        extra["post_s"] = time.perf_counter() - t2
        tracing.dump(tracer, span_file, extra)
    return code


if __name__ == "__main__":
    sys.exit(main())
