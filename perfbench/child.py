"""One repetition: a fresh interpreter that imports and runs the serrant CLI.

    python3 child.py RESULT_JSON import
    python3 child.py RESULT_JSON run -- CLI_ARGS...
    python3 child.py RESULT_JSON trace SPANS_TSV -- CLI_ARGS...

``serrant`` must be importable (the parent puts ``src`` on PYTHONPATH).
The result file holds the CLOCK_MONOTONIC reading taken right after
``serrant.cli`` is imported, so the parent, which read the same clock
before starting this process, gets the set-up time.  ``run`` and ``trace``
also record the time, CPU and peak memory of ``serrant.cli.main``.
"""

import sys
import time

import serrant.cli

IMPORTED_NS = time.monotonic_ns()

import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    result_path, mode = Path(sys.argv[1]), sys.argv[2]
    result = {"imported_ns": IMPORTED_NS}
    if mode != "import":
        cli_args = sys.argv[sys.argv.index("--") + 1 :]
        entry = serrant.cli.main
        tracer = None
        if mode == "trace":
            from tracing import ROOT, Tracer

            tracer = Tracer(run_id=1)
            tracer.install()
            entry = tracer.wrap(ROOT, entry)
        before = resource.getrusage(resource.RUSAGE_SELF)
        started = time.perf_counter()
        result["exit_code"] = entry(cli_args)
        result["main_s"] = time.perf_counter() - started
        after = resource.getrusage(resource.RUSAGE_SELF)
        workers = resource.getrusage(resource.RUSAGE_CHILDREN)
        result["cpu_s"] = (
            after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
            + workers.ru_utime + workers.ru_stime
        )
        result["peak_rss_mb"] = after.ru_maxrss / 1024  # Linux reports KiB
        if tracer is not None:
            tracer.write(Path(sys.argv[3]))
            result["untraced_sites"] = tracer.missing
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
