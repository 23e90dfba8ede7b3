"""Seeded inputs, command sequences and output checks for the three workloads.

Each workload is a fixed sequence of ``medsens`` CLI commands over inputs
generated from the workload seed.  Every command carries a checker that
reads the command's stdout and returns the problems it found; a problem
never aborts a run, it only counts the command as failed.

Problems come in two kinds.  A ``value`` problem means a number (or an exit
code) is wrong.  A ``format`` problem means the report itself is malformed,
for example JSON that carries the non-standard ``Infinity`` token; the
checker then still parses the report leniently and checks its numbers.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("unit-records", "grouped-counts", "oracle-battery")

C_CARD = 3
M_CARD = 4
#: every stratum weight is at least this, so no stratum is rare
C_FLOOR = 0.25
#: every pr(m | a, c) is at least this, so every (c, a, m) cell is weighted
#: and, at the sizes used here, holds dozens of records or more
M_FLOOR = 0.1
#: relative tolerance of every numeric output check
REL_TOL = 1e-12
#: parametric's reference grid: 6 (beta0, beta1) pairs times 7 beta3 values
PARAMETRIC_ROWS = 42

SWEEP_CSV_HEADER = ["rr_au", "rr_uy", "bf", "c", "nde_rr_lower", "nie_rr_upper",
                    "nde_rd_lower", "nie_rd_upper"]
SWEEP_ESTIMATES_HEADER = ["rr_au", "rr_uy", "bf", "nde_rr_lower", "nie_rr_upper"]
PARAMETRIC_HEADER = ["beta0", "beta1", "beta3", "rr_au", "ratio_to_exp_beta3",
                     "ratio_to_exp_beta1"]

#: sizes of the measured workloads and of the quick self-test runs
SIZES = {
    "full": {
        "rows": 100_000,
        "unit_replicates": 100,
        "grouped_replicates": 2000,
        "sweep_csv_grid": 150,
        "sweep_estimates_grid": 300,
        "oracle_small_iterations": 20_000,
        "oracle_large_iterations": 3000,
    },
    "tiny": {
        "rows": 3000,
        "unit_replicates": 100,
        "grouped_replicates": 100,
        "sweep_csv_grid": 10,
        "sweep_estimates_grid": 12,
        "oracle_small_iterations": 200,
        "oracle_large_iterations": 30,
    },
}

Problem = tuple[str, str]  # (kind, message), kind is "value" or "format"
Checker = Callable[[bytes], list[Problem]]


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload."""

    label: str
    argv: tuple[str, ...]
    check: Checker
    #: part of the work the workload exists to stress (summed into focus_s)
    focus: bool = False
    #: label of a reference command whose strata this report must equal exactly
    same_strata_as: str | None = None


@dataclass(frozen=True)
class InputFile:
    path: Path
    rows: int
    bytes: int
    sha256: str

    def describe(self) -> dict:
        return {"file": self.path.name, "rows": self.rows, "bytes": self.bytes,
                "sha256": self.sha256}


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    inputs: tuple[InputFile, ...]
    #: commands whose stdout other checks compare against, run once untimed
    references: tuple[Command, ...] = ()


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def population_counts(rng: np.random.Generator, rows: int) -> np.ndarray:
    """Cell counts ``n[c, a, m, y]`` of a population of about ``rows`` subjects.

    The exposed arm shifts mediator mass toward higher levels and the
    outcome rises with the mediator and with exposure, so every observed
    effect is well away from its null.  Every cell is forced to at least one
    record, so weighted cells are non-empty by design at any size.
    """
    p_c = C_FLOOR + (1.0 - C_FLOOR * C_CARD) * rng.dirichlet(np.ones(C_CARD))
    p_a1 = rng.uniform(0.35, 0.65, C_CARD)
    p_m = np.empty((C_CARD, 2, M_CARD))
    p_y = np.empty((C_CARD, 2, M_CARD))
    levels = np.arange(M_CARD) / (M_CARD - 1)
    for c in range(C_CARD):
        base = np.sort(rng.dirichlet(np.ones(M_CARD)))
        p_m[c, 0] = M_FLOOR + (1.0 - M_FLOOR * M_CARD) * base[::-1]
        p_m[c, 1] = M_FLOOR + (1.0 - M_FLOOR * M_CARD) * base
        p_y[c, 0] = rng.uniform(0.15, 0.3) + rng.uniform(0.1, 0.25) * levels
        p_y[c, 1] = p_y[c, 0] * rng.uniform(1.3, 1.6)
    p_a = np.stack([1.0 - p_a1, p_a1], axis=1)
    cell = p_c[:, None, None] * p_a[:, :, None] * p_m
    probs = np.stack([cell * (1.0 - p_y), cell * p_y], axis=3)
    counts = rng.multinomial(rows, probs.ravel() / probs.sum()).reshape(probs.shape)
    return np.maximum(counts, 1)


def _write(path: Path, data: bytes, rows: int) -> InputFile:
    path.write_bytes(data)
    return InputFile(path, rows, len(data), hashlib.sha256(data).hexdigest())


def write_grouped_csv(path: Path, counts: np.ndarray) -> InputFile:
    """The population as one weighted row per (a, m, y, c) cell."""
    lines = ["a,m,y,c,count"]
    for c, a, m, y in np.ndindex(counts.shape):
        lines.append(f"{a},{m},{y},{c},{counts[c, a, m, y]}")
    return _write(path, ("\n".join(lines) + "\n").encode(), counts.size)


def write_unit_csv(path: Path, counts: np.ndarray, rng: np.random.Generator) -> InputFile:
    """The population as one shuffled row per subject (no count column)."""
    c, a, m, y = np.indices(counts.shape).reshape(4, -1)
    codes = np.stack([a, m, y, c], axis=1).repeat(counts.ravel(), axis=0)
    codes = codes[rng.permutation(len(codes))]
    text = np.empty((len(codes), 8), dtype=np.uint8)
    text[:, 0:8:2] = codes + ord("0")  # every code is a single digit
    text[:, 1:7:2] = ord(",")
    text[:, 7] = ord("\n")
    return _write(path, b"a,m,y,c\n" + text.tobytes(), len(codes))


def reference_sums(counts: np.ndarray) -> dict[int, tuple[float, float, float]]:
    """Per stratum (sum y1*w0, sum y0*w0, sum y1*w1), straight from the counts."""
    n = counts.astype(np.float64)
    cell = n.sum(axis=3)
    w = cell / cell.sum(axis=2, keepdims=True)
    y = n[..., 1] / cell
    n10 = (y[:, 1] * w[:, 0]).sum(axis=1)
    n00 = (y[:, 0] * w[:, 0]).sum(axis=1)
    n11 = (y[:, 1] * w[:, 1]).sum(axis=1)
    return {c: (float(n10[c]), float(n00[c]), float(n11[c])) for c in range(len(cell))}


def reference_effects(sums: dict[int, tuple[float, float, float]]) -> dict[int, dict[str, float]]:
    out = {}
    for c, (n10, n00, n11) in sums.items():
        nde_rr, nie_rr = n10 / n00, n11 / n10
        out[c] = {"nde_rr": nde_rr, "nie_rr": nie_rr, "te_rr": nde_rr * nie_rr,
                  "nde_rd": n10 - n00, "nie_rd": n11 - n10, "te_rd": n11 - n00}
    return out


def bounding_factor(rr_au: float, rr_uy: float) -> float:
    """bf = rr_au*rr_uy / (rr_au + rr_uy - 1), with 1 and inf handled exactly."""
    if rr_au == 1.0 or rr_uy == 1.0:
        return 1.0
    if math.isinf(rr_au):
        return rr_uy
    if math.isinf(rr_uy):
        return rr_au
    return rr_au * rr_uy / (rr_au + rr_uy - 1.0)


def reference_bounds(sums, rr_au: float, rr_uy: float) -> dict[int, dict[str, float]]:
    bf = bounding_factor(rr_au, rr_uy)
    out = {}
    for c, (n10, n00, n11) in sums.items():
        cross = 0.0 if math.isinf(bf) else n10 / bf
        out[c] = {"bf": bf, "nde_rr_lower": (n10 / n00) / bf, "nie_rr_upper": (n11 / n10) * bf,
                  "nde_rd_lower": cross - n00, "nie_rd_upper": n11 - cross}
    return out


def grid(rng: np.random.Generator, size: int) -> tuple[float, ...]:
    """Strictly ascending sensitivity-parameter grid starting at 1."""
    steps = rng.uniform(0.01, 0.08, size - 1)
    return tuple(float(v) for v in np.concatenate([[1.0], 1.0 + np.cumsum(steps)]))


def _grid_arg(values: tuple[float, ...]) -> str:
    return ",".join(repr(v) for v in values)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON constant {token}")


def parse_report(stdout: bytes, problems: list[Problem]) -> dict | None:
    """Parse a JSON report strictly; fall back to a lenient parse to go on checking."""
    text = stdout.decode("utf-8", errors="replace")
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        problems.append(("format", f"report is not strict JSON: {exc}"))
    try:
        return json.loads(text)
    except ValueError as exc:
        problems.append(("value", f"report does not parse at all: {exc}"))
        return None


def parse_csv(stdout: bytes, header: list[str], problems: list[Problem]) -> list[list[float]]:
    rows = list(csv.reader(io.StringIO(stdout.decode("utf-8", errors="replace"))))
    if not rows or rows[0] != header:
        problems.append(("value", f"csv header {rows[0] if rows else None} != {header}"))
        return []
    if any(len(row) != len(header) for row in rows):
        problems.append(("value", "csv rows differ in length from the header"))
        return []
    try:
        return [[float(v) for v in row] for row in rows[1:]]
    except ValueError as exc:
        problems.append(("value", f"non-numeric csv cell: {exc}"))
        return []


def _close(got, want: float) -> bool:
    return isinstance(got, (int, float)) and math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)


def _compare(what: str, got: dict, want: dict[str, float], problems: list[Problem]) -> None:
    for field, value in want.items():
        if not _close(got.get(field), value):
            problems.append(("value", f"{what} {field} = {got.get(field)!r}, expected {value!r}"))


def _strata(doc: dict | None, problems: list[Problem]) -> dict[int, dict]:
    try:
        return {row["c"]: row for row in doc["result"]["strata"]}
    except (KeyError, TypeError) as exc:
        problems.append(("value", f"report has no strata: {exc!r}"))
        return {}


def _check_strata_keys(strata: dict, expected, problems: list[Problem]) -> bool:
    if sorted(strata) != sorted(expected):
        problems.append(("value", f"strata {sorted(strata)} != {sorted(expected)}"))
        return False
    return True


def check_estimate(effects: dict[int, dict[str, float]]) -> Checker:
    def check(stdout: bytes) -> list[Problem]:
        problems: list[Problem] = []
        strata = _strata(parse_report(stdout, problems), problems)
        if _check_strata_keys(strata, effects, problems):
            for c, want in effects.items():
                _compare(f"c={c}", strata[c], want, problems)
        return problems

    return check


def strata_agree(stdout: bytes, reference: bytes) -> list[Problem]:
    """The two reports' per-stratum results are identical, bit for bit."""
    problems: list[Problem] = []
    ours = _strata(parse_report(stdout, []), problems)
    if ours != _strata(parse_report(reference, []), problems):
        problems.append(("value", "strata differ from the reference report"))
    return problems


def check_bound(effects, bounds_ref) -> Checker:
    def check(stdout: bytes) -> list[Problem]:
        problems: list[Problem] = []
        strata = _strata(parse_report(stdout, problems), problems)
        if _check_strata_keys(strata, effects, problems):
            for c in effects:
                _compare(f"c={c} observed", strata[c].get("observed", {}), effects[c], problems)
                _compare(f"c={c}", strata[c], bounds_ref[c], problems)
        return problems

    return check


def check_sweep_csv(effects, au_grid, uy_grid) -> Checker:
    def check(stdout: bytes) -> list[Problem]:
        problems: list[Problem] = []
        rows = parse_csv(stdout, SWEEP_CSV_HEADER, problems)
        expected = {(au, uy, c) for au in au_grid for uy in uy_grid for c in effects}
        if len(rows) != len(expected):
            problems.append(("value", f"{len(rows)} sweep rows, expected {len(expected)}"))
        seen = set()
        for au, uy, bf, c, nde_lower, *_ in rows:
            key = (au, uy, int(c))
            seen.add(key)
            want_bf = bounding_factor(au, uy)
            if key not in expected or not _close(bf, want_bf) or not _close(
                nde_lower, effects[int(c)]["nde_rr"] / want_bf
            ):
                problems.append(("value", f"sweep row {key}: bf={bf!r}, nde_rr_lower={nde_lower!r}"))
                break
        if rows and seen != expected:
            problems.append(("value", f"sweep misses {len(expected - seen)} grid cells"))
        return problems

    return check


def check_sweep_estimates(nde_rr: float, nie_rr: float, au_grid, uy_grid) -> Checker:
    def check(stdout: bytes) -> list[Problem]:
        problems: list[Problem] = []
        rows = parse_csv(stdout, SWEEP_ESTIMATES_HEADER, problems)
        expected = [(au, uy) for au in au_grid for uy in uy_grid]
        if len(rows) != len(expected):
            problems.append(("value", f"{len(rows)} sweep rows, expected {len(expected)}"))
        elif {(r[0], r[1]) for r in rows} != set(expected):
            problems.append(("value", "sweep rows do not cover the grid"))
        for au, uy, bf, nde_lower, nie_upper in rows:
            want_bf = bounding_factor(au, uy)
            if not (_close(bf, want_bf) and _close(nde_lower, nde_rr / want_bf)
                    and _close(nie_upper, nie_rr * want_bf)):
                problems.append(("value", f"sweep row ({au}, {uy}): {bf!r}, {nde_lower!r}, {nie_upper!r}"))
                break
        return problems

    return check


def check_bootstrap(replicates: int, effects, bounds_ref) -> Checker:
    def check(stdout: bytes) -> list[Problem]:
        problems: list[Problem] = []
        doc = parse_report(stdout, problems)
        if doc is None:
            return problems
        if doc.get("result", {}).get("replicates") != replicates:
            problems.append(("value", f"replicates not echoed as {replicates}"))
        strata = _strata(doc, problems)
        if not _check_strata_keys(strata, effects, problems):
            return problems
        for c, row in strata.items():
            stats = row.get("stats", {})
            points = {k: v.get("point") for k, v in stats.items()}
            want = {**effects[c], **{k: v for k, v in bounds_ref[c].items() if k != "bf"}}
            if sorted(stats) != sorted(want):
                problems.append(("value", f"c={c}: statistics {sorted(stats)}"))
                continue
            _compare(f"c={c} point", points, want, problems)
            for name, v in stats.items():
                lo, hi = v.get("lower"), v.get("upper")
                if not (isinstance(lo, float) and isinstance(hi, float)
                        and math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                    problems.append(("value", f"c={c} {name}: interval [{lo!r}, {hi!r}]"))
        return problems

    return check


def check_oracle(iterations: int) -> Checker:
    def check(stdout: bytes) -> list[Problem]:
        problems: list[Problem] = []
        doc = parse_report(stdout, problems)
        try:
            result = doc["result"]
            if result["config"]["iterations"] != iterations or \
                    result["bound_validity"]["iterations"] != iterations:
                problems.append(("value", f"iterations not echoed as {iterations}"))
            sections = [result["bound_validity"], result["ratio_bound_dominance"]]
            if result["definition_equivalence"] is not None:
                sections.append(result["definition_equivalence"])
            violations = sum(s["violations"] for s in sections)
        except (KeyError, TypeError) as exc:
            problems.append(("value", f"oracle report incomplete: {exc!r}"))
            return problems
        if violations:
            problems.append(("value", f"{violations} bound violations"))
        return problems

    return check


def check_parametric(stdout: bytes) -> list[Problem]:
    problems: list[Problem] = []
    rows = parse_csv(stdout, PARAMETRIC_HEADER, problems)
    if len(rows) != PARAMETRIC_ROWS:
        problems.append(("value", f"{len(rows)} parametric rows, expected {PARAMETRIC_ROWS}"))
    for _, beta1, beta3, rr_au, to_beta3, to_beta1 in rows:
        if not (rr_au >= 1.0 and _close(to_beta3, rr_au / math.exp(beta3))
                and _close(to_beta1, rr_au / math.exp(beta1))):
            problems.append(("value", f"parametric row beta1={beta1}, beta3={beta3}: rr_au={rr_au!r}"))
            break
    return problems


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def build(name: str, seed: int, work: Path, size: str = "full") -> Workload:
    """Generate the inputs of workload ``name`` in ``work`` and return its commands."""
    sz = SIZES[size]
    if name == "oracle-battery":
        return _oracle_battery(seed, sz)
    # both record workloads draw the population first, so one seed gives one population
    rng = np.random.default_rng(seed)
    counts = population_counts(rng, sz["rows"])
    sums = reference_sums(counts)
    effects = reference_effects(sums)
    bounds_2_2 = reference_bounds(sums, 2.0, 2.0)
    grouped = write_grouped_csv(work / "grouped.csv", counts)
    if name == "unit-records":
        units = write_unit_csv(work / "units.csv", counts, rng)
        path = str(units.path)
        reference = Command("estimate-grouped", ("estimate", "--csv", str(grouped.path)),
                            check_estimate(effects))
        commands = (
            Command("estimate", ("estimate", "--csv", path), check_estimate(effects),
                    same_strata_as=reference.label),
            Command("bound", ("bound", "--csv", path, "--rr-au", "2", "--rr-uy", "2"),
                    check_bound(effects, bounds_2_2)),
            Command("bootstrap", ("bootstrap", "--csv", path, "--replicates",
                                  str(sz["unit_replicates"]), "--rr-au", "2", "--rr-uy", "2",
                                  "--seed", str(seed)),
                    check_bootstrap(sz["unit_replicates"], effects, bounds_2_2), focus=True),
        )
        return Workload(name, commands, (units, grouped), (reference,))
    if name != "grouped-counts":
        raise ValueError(f"unknown workload {name!r}")
    path = str(grouped.path)
    csv_grid = grid(rng, sz["sweep_csv_grid"])
    est_grid = grid(rng, sz["sweep_estimates_grid"])
    commands = (
        Command("estimate", ("estimate", "--csv", path), check_estimate(effects)),
        Command("bound", ("bound", "--csv", path, "--rr-au", "2", "--rr-uy", "2"),
                check_bound(effects, bounds_2_2)),
        Command("bound-inf", ("bound", "--csv", path, "--rr-au", "inf", "--rr-uy", "2"),
                check_bound(effects, reference_bounds(sums, math.inf, 2.0))),
        Command("sweep-csv", ("sweep", "--csv", path, "--rr-au-grid", _grid_arg(csv_grid),
                              "--rr-uy-grid", _grid_arg(csv_grid)),
                check_sweep_csv(effects, csv_grid, csv_grid), focus=True),
        Command("sweep-estimates", ("sweep", "--nde-rr", "1.72", "--nie-rr", "1.3",
                                    "--rr-au-grid", _grid_arg(est_grid),
                                    "--rr-uy-grid", _grid_arg(est_grid)),
                check_sweep_estimates(1.72, 1.3, est_grid, est_grid), focus=True),
        Command("bootstrap", ("bootstrap", "--csv", path, "--replicates",
                              str(sz["grouped_replicates"]), "--rr-au", "2", "--rr-uy", "2",
                              "--seed", str(seed)),
                check_bootstrap(sz["grouped_replicates"], effects, bounds_2_2)),
    )
    return Workload(name, commands, (grouped,))


def _oracle_battery(seed: int, sz: dict) -> Workload:
    small, large = sz["oracle_small_iterations"], sz["oracle_large_iterations"]
    commands = (
        Command("oracle-small", ("oracle", "--iterations", str(small), "--seed", str(seed)),
                check_oracle(small), focus=True),
        Command("oracle-large", ("oracle", "--iterations", str(large), "--u-card", "6",
                                 "--m-card", "8", "--extreme", "--dependent-exposure",
                                 "--seed", str(seed)),
                check_oracle(large), focus=True),
        Command("parametric", ("parametric",), check_parametric),
    )
    return Workload("oracle-battery", commands, ())
