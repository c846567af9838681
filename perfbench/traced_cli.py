"""Run one `orbitlab` command line with boundary tracing.

Usage: python3 perfbench/traced_cli.py TRACE_FILE TRACE_ID <orbitlab arguments>

Behaves like `orbitlab <orbitlab arguments>` and writes the spans, boundary
totals and counts of the process to TRACE_FILE as JSON. The process's root
span has id 1 and hangs below span 0, the job span the caller records.
"""

import json
import sys
from pathlib import Path

from orbitlab import cli
from tracing import Tracer


def main() -> int:
    trace_file, trace_id, argv = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.job(trace_id, "cli.process", span_id=1, parent=0):
            code = cli.main(argv)
    finally:
        tracer.uninstall()
        trace_file.write_text(json.dumps(tracer.dump()))
    return code


if __name__ == "__main__":
    sys.exit(main())
