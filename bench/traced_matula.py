"""Run the matula CLI with every layer traced.

Usage: python bench/traced_matula.py <matula arguments>

Behaves like ``python -m matula``; when the CLI returns, the per-span
totals are written to stderr as one line starting with TRACE_MARKER.
"""

import json
import sys
import time

from tracer import Tracer, install

TRACE_MARKER = "#matula-trace "


def main(argv: list[str]) -> int:
    tracer = Tracer()
    start = time.perf_counter()
    import matula.cli

    import_s = time.perf_counter() - start
    install(tracer)
    try:
        return matula.cli.main(argv)
    finally:
        sys.stdout.flush()
        summary = tracer.summary()
        summary["import_s"] = import_s
        sys.stderr.write(TRACE_MARKER + json.dumps(summary) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
