"""One benchmark sample: a single ``ontominer mine`` call in a fresh process.

Usage: python3 perfbench/child.py RESULT_JSON TRACE -- ONTOMINER_ARGS...

Imports ``ontominer.cli`` (from ``PYTHONPATH``), installs the layer trace
when TRACE is 1, times ``ontominer.cli.main`` from the call that loads the
KB to the return after the three output files are written, and writes the
exit code, the wall time, this process's peak RSS and, when traced, the
layer figures to RESULT_JSON.  Interpreter start-up and imports are outside
the timed region.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main() -> int:
    result_path, trace, sep = sys.argv[1:4]
    if sep != "--" or trace not in ("0", "1"):
        print(__doc__, file=sys.stderr)
        return 2
    from ontominer import __file__ as package_file
    from ontominer.cli import main as cli_main

    rec = None
    if trace == "1":
        import tracing
        rec = tracing.install()
    started = time.perf_counter()
    rc = cli_main(sys.argv[4:])
    wall_s = time.perf_counter() - started
    result = {
        "rc": rc,
        "wall_s": wall_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "package": package_file,
    }
    if rec is not None:
        result["layers"] = tracing.report(rec)
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
