"""Run one comlie CLI request with span tracing installed.

Used for the traced pass of the ``cli_cached`` workload in place of
``python -m comlie``:

    python perfbench/trace_entry.py SPANS_JSON ARGV...

It times the comlie import, installs the same wrappers as in-process
tracing, calls ``comlie.cli.main(ARGV)`` inside one request span, writes the
import time and the spans to SPANS_JSON, and exits with the CLI's code.
"""

import json
import sys
import time
from pathlib import Path

_t0 = time.perf_counter()
import comlie  # noqa: E402
import comlie.cli  # noqa: E402
IMPORT_S = time.perf_counter() - _t0

import spans  # noqa: E402


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = spans.Tracer()
    try:
        with spans.traced(tracer), tracer.root(0):
            code = comlie.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    out.write_text(json.dumps({"import_s": IMPORT_S, "spans": tracer.spans}))
    return code


if __name__ == "__main__":
    sys.exit(main())
