"""Self-tests of the benchmark: tiny runs complete and every checker catches corruption.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_completes(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace,
                 "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    meta, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 6  # every command, in at least two passes
    # the only tolerated failure: `bound --rr-au inf` reports carry the Infinity token
    assert all(p.startswith("bound-inf: format:") for p in meta["meta"]["problems"])
    kind = "end_to_end" if trace == "0" else "per_layer"
    assert {m["name"]: m["unit"] for m in SPEC[kind]} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "oracle-battery", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------


def cli(argv) -> bytes:
    import medsens.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert medsens.cli.main(list(argv)) == 0
    return out.getvalue().encode()


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """Each command of the tiny record and oracle workloads, with its real report."""
    out = {}
    for name in workloads.WORKLOADS:
        work = tmp_path_factory.mktemp(name)
        for cmd in workloads.build(name, 5, work, "tiny").commands:
            out[(name, cmd.label)] = (cmd, cli(cmd.argv))
    return out


def test_real_reports_pass(reports):
    for (name, label), (cmd, stdout) in reports.items():
        problems = cmd.check(stdout)
        if label == "bound-inf":  # reports still carry the non-standard Infinity token
            assert all(kind == "format" for kind, _ in problems), problems
        else:
            assert problems == [], (name, label, problems)


def kinds(cmd, stdout: bytes) -> set[str]:
    return {kind for kind, _ in cmd.check(stdout)}


def test_changed_estimate_digit_is_caught(reports):
    cmd, stdout = reports[("unit-records", "estimate")]
    text = stdout.decode()
    value = re.search(r'"nde_rr": (\d\.\d{5})', text)
    changed = value.group(1)[:-1] + str((int(value.group(1)[-1]) + 1) % 10)
    corrupted = text.replace(value.group(1), changed, 1).encode()
    assert kinds(cmd, corrupted) == {"value"}


def test_missing_sweep_row_is_caught(reports):
    for label in ("sweep-csv", "sweep-estimates"):
        cmd, stdout = reports[("grouped-counts", label)]
        lines = stdout.splitlines(keepends=True)
        assert kinds(cmd, b"".join(lines[:5] + lines[6:])) == {"value"}


def test_oracle_violation_is_caught(reports):
    cmd, stdout = reports[("oracle-battery", "oracle-small")]
    doc = json.loads(stdout)
    doc["result"]["bound_validity"]["violations"] = 1
    assert kinds(cmd, json.dumps(doc).encode()) == {"value"}


def test_infinity_token_is_caught(reports):
    cmd, stdout = reports[("grouped-counts", "bound")]
    corrupted = re.sub(rb'"rr_au": [0-9.]+', b'"rr_au": Infinity', stdout)
    assert corrupted != stdout
    assert "format" in kinds(cmd, corrupted)


def test_bootstrap_interval_order_is_checked(reports):
    cmd, stdout = reports[("unit-records", "bootstrap")]
    doc = json.loads(stdout)
    stats = doc["result"]["strata"][0]["stats"]["nde_rr"]
    stats["lower"], stats["upper"] = stats["upper"] + 1.0, stats["lower"]
    assert kinds(cmd, json.dumps(doc).encode()) == {"value"}


def test_record_workloads_share_one_population(tmp_path):
    (tmp_path / "u").mkdir()
    (tmp_path / "g").mkdir()
    unit = workloads.build("unit-records", 9, tmp_path / "u", "tiny")
    grouped = workloads.build("grouped-counts", 9, tmp_path / "g", "tiny")
    assert unit.inputs[1].sha256 == grouped.inputs[0].sha256
    unit_estimate, grouped_estimate = cli(unit.commands[0].argv), cli(grouped.commands[0].argv)
    assert unit_estimate != grouped_estimate  # the input digests differ
    assert workloads.strata_agree(unit_estimate, grouped_estimate) == []
