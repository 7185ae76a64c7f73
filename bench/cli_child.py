"""Traced ``cpsim`` process for the cli_cold workload.

Usage: python bench/cli_child.py SPANS_OUT cpsim-args...

Runs what ``python -m cpsim cpsim-args...`` runs, with the benchmark's
wrappers installed, and writes the spans and counts it recorded to
SPANS_OUT as JSON once cli_main has returned.
"""

import json
import sys
import threading
import time

from tracing import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    t0 = time.perf_counter()
    import cpsim.cli
    tracer.spans.append((tracer.op, 0, "cli.import", t0, time.perf_counter(), None,
                         threading.get_ident(), None))
    tracer.install()
    try:
        code = cpsim.cli.cli_main(argv)
    finally:
        restored = tracer.uninstall()
    dump = tracer.dump()
    dump["restored"] = restored
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(dump, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
