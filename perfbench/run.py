"""Benchmark of the ``medsens`` command line over three seeded workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``):

* ``unit-records``   -- about 100k subject rows; ingest and row-level
  bootstrap resampling do almost all of the work.
* ``grouped-counts`` -- the same population as 48 weighted rows; effects,
  bounds and report serialization do most of the work.
* ``oracle-battery`` -- the brute-force verification battery at small and
  large cardinalities, plus the log-linear reference grid.

Load is a closed loop with one client: each command runs in a fresh
interpreter (``child.py``) and the next starts when it has exited.  The
workload's command sequence (a pass) runs at least twice and repeats until
another pass would overrun ``--seconds``; each command's figures are
medians over passes.  Times are scaled to a reference host speed (see
:func:`speed_sample`); raw times are in the metadata.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
command twice per pass, untraced and then traced (``tracing.py``), each in
a fresh interpreter, and reports per-layer self times, counts and shares;
end-to-end metrics never come from a traced run.

Every output is checked (``workloads.py``).  A failed check, a wrong exit
code, or stdout that differs between passes (or between the traced and
untraced run) counts the command as failed; the run goes on.  ``correct``
is false when any number or exit code is wrong; a report that is only
malformed (for example non-standard JSON) counts as failed but not as
incorrect.

The last line of stdout is the result object; the line before it holds the
run's metadata (versions, machine, input digests, per-command medians).
Inputs and spans are written under ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# every layer runs single-threaded, in the children and in this process;
# numpy reads these when it loads
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".perfbench"
#: import-only interpreters started before the timed passes; each command's
#: own import time is pooled with these into setup_s
IMPORT_SAMPLES = 8
#: nominal duration of :func:`speed_sample` on a quiet host
SPEED_REF_S = 0.1

END_TO_END = {
    "pipeline_s": "s",
    "first_answer_s": "s",
    "focus_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_ratio": "ratio",
}


@dataclass
class Outcome:
    """One execution of one command."""

    label: str
    wall_s: float
    import_s: float
    main_s: float
    rss_mb: float
    stdout: bytes
    problems: list = field(default_factory=list)
    #: SPEED_REF_S over the speed samples taken around this command
    scale: float = 1.0
    #: spans and counts, when the command ran traced
    trace: dict = field(default_factory=dict)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("MEDSENS_SEED", None)
    env.pop("PYTHONPATH", None)
    return env


def run_child(argv: tuple[str, ...], tmp: Path, env: dict[str, str], label: str = "",
              rows_json: Path | None = None) -> Outcome:
    """Run one command in a fresh interpreter and collect what it measured of itself."""
    timing, out_path, err_path = tmp / "timing.json", tmp / "stdout", tmp / "stderr"
    timing.unlink(missing_ok=True)
    trace_args = () if rows_json is None else ("--trace", str(rows_json))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(CHILD), str(timing), str(SRC),
                                 *trace_args, *argv],
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    try:
        inner = json.loads(timing.read_text())
    except (OSError, ValueError):  # the child died early; the exit code fails the command
        inner = {"import_s": math.nan, "main_s": 0.0}
    outcome = Outcome(label, wall, inner["import_s"], inner["main_s"],
                      inner.get("peak_rss_mb", usage.ru_maxrss / 1024.0), out_path.read_bytes(),
                      trace={k: inner[k] for k in ("spans", "counts") if k in inner})
    if code != 0:
        stderr = err_path.read_text(errors="replace").strip().splitlines()
        outcome.problems.append(("value", f"exit code {code}: {stderr[-1] if stderr else ''}"))
    return outcome


def checked(check, *args) -> list:
    """The problems ``check`` finds; a check that raises is one more problem."""
    try:
        return check(*args)
    except Exception as exc:  # a malformed report must fail its command, not the run
        return [("value", f"check raised {exc!r}")]


def speed_sample() -> float:
    """Seconds this process now takes for a fixed mix of interpreter and small numpy work.

    The host's speed drifts by a factor of up to two over tens of seconds
    as other tenants load it.  Timing this loop right before and after each
    command, on the same CPU, and scaling the command's times by
    SPEED_REF_S over the result cancels most of that drift.
    """
    import numpy as np

    values = np.arange(16.0)
    table = {}
    acc = 0.0
    start = time.perf_counter()
    for i in range(150_000):
        row = (i * 0.5, i % 7, float(i))
        acc += math.fsum(row) / (1.0 + row[1])
        table[i % 97] = row
        if i % 10 == 0:
            acc += float((values * row[0]).sum())
    return time.perf_counter() - start


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    lines = sum(len(p.read_bytes().splitlines()) for p in sorted((SRC / "medsens").rglob("*.py")))
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu_model": cpu, "src_medsens_lines": lines}


def median(values) -> float:
    return statistics.median(values) if values else 0.0


class Run:
    """One benchmark run: set-up, timed passes, checks and metrics."""

    def __init__(self, workload: workloads.Workload, tmp: Path, trace: bool):
        self.workload = workload
        self.tmp = tmp
        self.env = child_env()
        self.rows_json = None
        if trace:
            self.rows_json = tmp / "rows.json"
            self.rows_json.write_text(json.dumps({str(f.path): f.rows for f in workload.inputs}))
        self.references: dict[str, bytes] = {}
        self.first_stdout: dict[str, bytes] = {}
        self.outcomes: list[Outcome] = []
        self.setup_problems: list = []
        self.import_samples: list[float] = []
        self.speed_samples = [speed_sample()]
        self.passes: list[dict] = []
        #: spans of the last traced pass, by command label
        self.spans: dict[str, list] = {}

    def child(self, argv: tuple[str, ...], label: str = "", rows_json: Path | None = None) -> Outcome:
        """run_child, scaled by the speed samples taken just before and after it."""
        outcome = run_child(argv, self.tmp, self.env, label, rows_json)
        self.speed_samples.append(speed_sample())
        outcome.scale = 2.0 * SPEED_REF_S / sum(self.speed_samples[-2:])
        return outcome

    def record_import(self, outcome: Outcome) -> None:
        if math.isfinite(outcome.import_s):
            self.import_samples.append(outcome.import_s * outcome.scale)

    def set_up(self) -> None:
        run_child((), self.tmp, self.env)  # fills the bytecode cache; not timed
        for _ in range(IMPORT_SAMPLES):
            self.record_import(self.child(()))
        for ref in self.workload.references:
            outcome = run_child(ref.argv, self.tmp, self.env, ref.label)
            outcome.problems += checked(ref.check, outcome.stdout)
            self.setup_problems += [(k, f"{ref.label}: {m}") for k, m in outcome.problems]
            self.references[ref.label] = outcome.stdout

    def run_command(self, cmd: workloads.Command) -> Outcome:
        outcome = self.child(cmd.argv, cmd.label)
        self.record_import(outcome)
        outcome.problems += checked(cmd.check, outcome.stdout)
        if cmd.same_strata_as:
            outcome.problems += checked(workloads.strata_agree, outcome.stdout,
                                        self.references[cmd.same_strata_as])
        if outcome.stdout != self.first_stdout.setdefault(cmd.label, outcome.stdout):
            outcome.problems.append(("value", "stdout differs from the first pass"))
        self.outcomes.append(outcome)
        return outcome

    def one_pass(self) -> dict:
        outcomes, traced = [], []
        for cmd in self.workload.commands:
            outcome = self.run_command(cmd)
            outcomes.append(outcome)
            if self.rows_json is not None:
                twin = self.child(cmd.argv, cmd.label, self.rows_json)
                if twin.stdout != outcome.stdout or twin.problems:
                    outcome.problems.append(("value", "traced run differs from untraced"))
                traced.append(twin)
        result = {"raw_s": sum(o.wall_s for o in outcomes)}
        if traced:
            result["layers"] = layer_metrics(outcomes, traced)
            self.spans = {t.label: t.trace.get("spans", []) for t in traced}
        return result

    def measure(self, seconds: float) -> None:
        """Run passes until another would overrun ``seconds``; at least two, so
        that every command's output is compared with a repetition."""
        start = time.perf_counter()
        while True:
            self.passes.append(self.one_pass())
            elapsed = time.perf_counter() - start
            longest = max(p["raw_s"] for p in self.passes)
            if len(self.passes) >= 2 and elapsed + longest > seconds:
                break

    def per_command(self, value) -> dict[str, float]:
        """Median over passes of ``value(outcome)``, by command label."""
        return {cmd.label: median([value(o) for o in self.outcomes if o.label == cmd.label])
                for cmd in self.workload.commands}

    def end_to_end(self) -> dict[str, float]:
        walls = self.per_command(lambda o: o.wall_s * o.scale)
        commands = self.workload.commands
        attempted = len(self.outcomes)
        return {
            "pipeline_s": sum(walls.values()),
            "first_answer_s": walls[commands[0].label],
            "focus_s": sum(walls[c.label] for c in commands if c.focus),
            "peak_rss_mb": max(self.per_command(lambda o: o.rss_mb).values()),
            "setup_s": median(self.import_samples),
            "ok_ratio": sum(1 for o in self.outcomes if not o.problems) / attempted,
        }

    def result(self) -> dict:
        kinds = {k for o in self.outcomes for k, _ in o.problems}
        kinds |= {k for k, _ in self.setup_problems}
        if self.rows_json is not None:
            layers = self.passes[0]["layers"]
            metrics = {n: (median([p["layers"][n][0] for p in self.passes]), unit)
                       for n, (_, unit) in layers.items()}
        else:
            metrics = {n: (v, END_TO_END[n]) for n, v in self.end_to_end().items()}
        return {
            "correct": "value" not in kinds,
            "attempted": len(self.outcomes),
            "failed": sum(1 for o in self.outcomes if o.problems),
            "metrics": {n: {"value": v, "unit": unit} for n, (v, unit) in metrics.items()},
        }

    def metadata(self) -> dict:
        columns = {
            "wall_s": lambda o: o.wall_s,
            "scaled_wall_s": lambda o: o.wall_s * o.scale,
            "main_s": lambda o: o.main_s,
            "import_s": lambda o: o.import_s,
            "peak_rss_mb": lambda o: o.rss_mb,
        }
        medians = {name: self.per_command(value) for name, value in columns.items()}
        problems = sorted({f"{o.label}: {k}: {m}" for o in self.outcomes for k, m in o.problems})
        problems += [f"{k}: {m}" for k, m in self.setup_problems]
        return {
            "workload": self.workload.name,
            "passes": len(self.passes),
            "pass_raw_s": [p["raw_s"] for p in self.passes],
            "speed_sample_s": median(self.speed_samples),
            "setup_samples": len(self.import_samples),
            "inputs": [f.describe() for f in self.workload.inputs],
            "commands": {cmd.label: {"argv": " ".join(cmd.argv)[:200],
                                     **{name: m[cmd.label] for name, m in medians.items()}}
                         for cmd in self.workload.commands},
            "problems": problems[:20],
            **machine(),
        }


def layer_metrics(untraced: list[Outcome], traced: list[Outcome]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as (value, unit)."""
    self_times: dict[str, float] = {}
    counts: dict[str, int] = {}
    for outcome in traced:
        tracing.self_times(outcome.trace.get("spans", []), self_times)
        for name, n in outcome.trace.get("counts", {}).items():
            counts[name] = counts.get(name, 0) + n
    out = {f"{name}.self_s": (self_times.get(name, 0.0), "s") for name in tracing.SELF_TIME_SPANS}
    out.update({name: (float(counts.get(name, 0)), unit) for name, unit in tracing.COUNTS.items()})
    replicates = counts.get("bootstrap.replicates", 0)
    attempts = replicates + counts.get("bootstrap.degenerate_redraws", 0)
    out["bootstrap.useful_ratio"] = (replicates / attempts if attempts else 0.0, "ratio")
    main_s = sum(o.main_s for o in untraced)
    out["cli.main_s"] = (main_s, "s")
    out["cli.process_overhead_s"] = (sum(o.wall_s for o in untraced) - main_s, "s")
    out["trace.overhead_ratio"] = (sum(o.main_s for o in traced) / main_s, "ratio")
    total = sum(self_times.values())
    for layer in tracing.LAYERS:
        share = sum(v for k, v in self_times.items() if k.split(".")[0] == layer)
        out[f"{layer}.self_share"] = (share / total if total else 0.0, "ratio")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "medsens" / "cli.py").is_file():
        print(f"error: no medsens sources under {SRC}", file=sys.stderr)
        return 2
    # the commands and the speed samples share one CPU, so the samples see
    # the same contention the commands do
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = workloads.build(args.workload, args.seed, tmp, args.size)
        run = Run(workload, tmp, bool(args.trace))
        run.set_up()
        run.measure(args.seconds)
        if run.spans:
            trace_file = WORK / f"trace-{args.workload}.json"  # the latest run only
            trace_file.write_text(json.dumps(run.spans))
        print(json.dumps({"meta": run.metadata()}))
        print(json.dumps(run.result()))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
