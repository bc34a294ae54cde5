"""``python -m qwsearch`` with span recording, for the traced cli workload.

Usage: ``cli_traced.py ARGS...`` runs ``qwsearch.cli.main(ARGS)`` with the
benchmark's tracer installed.  The CLI's report goes to stdout unchanged;
the spans and the time of ``import qwsearch`` follow on the last line of
stderr, after a marker.
"""

import json
import sys
from time import perf_counter

started = perf_counter()
import qwsearch  # noqa: E402  (the import is what is being timed)

IMPORT_S = perf_counter() - started

import qwsearch.cli  # noqa: E402

from qwbench.tracer import Tracer  # noqa: E402
from qwbench.workloads import TRACE_MARK  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.op = 0
    tracer.install()
    try:
        code = qwsearch.cli.main(sys.argv[1:])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    finally:
        tracer.restore()
    sys.stdout.flush()
    payload = {"import_s": IMPORT_S, "spans": tracer.records(), "absent": tracer.absent}
    sys.stderr.write("\n" + TRACE_MARK + json.dumps(payload) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
