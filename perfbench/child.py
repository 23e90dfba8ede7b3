"""Run one ``medsens`` command in this fresh interpreter and time it from inside.

Usage: child.py TIMING_JSON SRC_DIR [--trace ROWS_JSON] [CLI ARGS...]

Writes ``{"import_s", "main_s", "peak_rss_mb", "code"}`` to TIMING_JSON:
the time to ``import medsens.cli`` from SRC_DIR, the wall time of
``medsens.cli.main``, and this process's peak resident set.  With no CLI
arguments only the import is timed.  With ``--trace``, every layer is
traced (``tracing.py``) and the spans and counts are added to TIMING_JSON;
ROWS_JSON maps each input path to its row count.  The command's stdout
and stderr pass through untouched and the exit code is the command's.
"""

import json
import sys
import time


def peak_rss_mb() -> float:
    """High-water RSS of this process's own memory map.

    The parent's ``wait4`` rusage would do, except that Linux carries the
    parent's high-water mark into a child spawned with vfork, as
    ``subprocess`` does; ``VmHWM`` counts only the map made by ``exec``.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return float("nan")


start = time.perf_counter()
timing_path, src, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
rows_path = None
if argv[:1] == ["--trace"]:
    rows_path, argv = argv[1], argv[2:]
sys.path.insert(0, src)
import medsens.cli  # noqa: E402

timing = {"import_s": time.perf_counter() - start}
tracer = None
if rows_path is not None:
    from tracing import Tracer, instrument

    with open(rows_path) as fh:
        rows = json.load(fh)
    tracer = Tracer()
code = 0
main_start = time.perf_counter()
try:
    if tracer is not None:
        with instrument(tracer, rows):
            code = tracer.call("cli.main", medsens.cli.main, argv)
    elif argv:
        code = medsens.cli.main(argv)
except SystemExit as exc:  # argparse rejects bad arguments this way
    code = exc.code
finally:
    timing["main_s"] = time.perf_counter() - main_start
    timing["code"] = code
    timing["peak_rss_mb"] = peak_rss_mb()
    sys.stdout.flush()
    if tracer is not None:
        timing["spans"] = tracer.spans
        timing["counts"] = tracer.counts
    with open(timing_path, "w") as fh:
        json.dump(timing, fh)
sys.exit(code)
