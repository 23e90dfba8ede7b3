import argparse
import hashlib
import inspect
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    expand_to_records,
    observed_tables,
    plain_bounds,
    stratum_effects,
    worked_model,
)
from medsens.bounds import SensitivitySpec, bounding_factor, cornfield_rr
from medsens import oracle, report
from medsens.bootstrap import run_bootstrap
from medsens.cli import _build_parser, main
from medsens.loglinear import collider_ratio_grid
from medsens.oracle import validity_battery
from medsens.tables import RecordTable, estimate_from_records, read_records_csv


def write_worked_csv(path, denominator=1000):
    records = expand_to_records(worked_model(), denominator)
    lines = ["a,m,y,c,count"]
    lines += [f"{a},{m},{y},{c},{n}" for (c, a, m, y), n in np.ndenumerate(records.counts) if n]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def write_strata_csv(path, strata=3, m_card=3, seed=5):
    counts = np.random.default_rng(seed).integers(1, 40, size=(strata, 2, m_card, 2))
    lines = ["a,m,y,c,count"]
    lines += [f"{a},{m},{y},{c},{n}" for (c, a, m, y), n in np.ndenumerate(counts)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def write_two_strata_csv(path):
    """Two strata with pr(Y=1|a=0) of 0.45 and 0.1, and direct-effect ratios 0.85/0.45 and 3.5."""
    model = observed_tables(y=[[[0.4, 0.5], [0.8, 0.9]], [[0.1, 0.1], [0.3, 0.4]]],
                            w=[[[0.5, 0.5], [0.5, 0.5]]] * 2)
    records = expand_to_records(model, 100)
    lines = ["a,m,y,c,count"]
    lines += [f"{a},{m},{y},{c},{n}" for (c, a, m, y), n in np.ndenumerate(records.counts) if n]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def reference_sweep_csv(au_text, uy_text, csv=None, relabel=False, smoothing=0.0,
                        nde_rr=None, nie_rr=None):
    """A sweep as the row-at-a-time writer gave it: every cell of every row through repr."""
    au_grid = [float(v) for v in au_text.split(",")]
    uy_grid = [float(v) for v in uy_text.split(",")]
    au, uy = (v.ravel() for v in np.meshgrid(au_grid, uy_grid, indexing="ij"))
    spec = SensitivitySpec(au, uy)
    bf = bounding_factor(spec)
    cells = list(itertools.product(au_grid, uy_grid))
    if csv is None:
        header = ["rr_au", "rr_uy", "bf", "nde_rr_lower"]
        columns = [bf.tolist(), (nde_rr / bf).tolist()]
        if nie_rr is not None:
            header.append("nie_rr_upper")
            columns.append((nie_rr * bf).tolist())
        rows = [(*cell, *values) for cell, values in zip(cells, zip(*columns))]
    else:
        header = ["rr_au", "rr_uy", "bf", "c", "nde_rr_lower", "nie_rr_upper",
                  "nde_rd_lower", "nie_rd_upper"]
        records, _ = read_records_csv(csv)
        if relabel:
            records = RecordTable(records.counts[:, ::-1])
        model = estimate_from_records(records, smoothing)
        effects = [stratum_effects(model, c) for c in range(records.c_card)]
        rows = [(au_i, uy_i, bf_i, c, *plain_bounds(e, bf_i).values())
                for (au_i, uy_i), bf_i in zip(cells, bf.tolist()) for c, e in enumerate(effects)]
    return "".join(line + "\n" for line in [",".join(header), *(",".join(map(repr, r)) for r in rows)])


def reject_constant(token):
    raise ValueError(f"report is not strict JSON: {token}")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def run_fresh(*argv, input=None):
    """The CLI in a fresh interpreter with default warning filters, as a user runs it."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    return subprocess.run([sys.executable, "-m", "medsens.cli", *argv],
                          capture_output=True, text=True, env=env, input=input)


class TestEstimate:
    def test_worked_example_counts(self, capsys, tmp_path):
        csv = write_worked_csv(tmp_path / "d.csv")
        code, doc = run_json(capsys, "estimate", "--csv", csv)
        assert code == 0
        row = doc["result"]["strata"][0]
        assert math.isclose(row["nde_rr"], 1.818182, abs_tol=1e-3)
        model = estimate_from_records(read_records_csv(csv)[0])
        assert row["nde_rr"] == stratum_effects(model, 0)["nde_rr"]

    def test_null_data(self, capsys, tmp_path):
        p = tmp_path / "null.csv"
        p.write_text("a,m,y,c,count\n0,0,1,0,5\n0,0,0,0,5\n0,1,1,0,5\n0,1,0,0,5\n"
                     "1,0,1,0,5\n1,0,0,0,5\n1,1,1,0,5\n1,1,0,0,5\n")
        code, doc = run_json(capsys, "estimate", "--csv", str(p))
        assert code == 0
        row = doc["result"]["strata"][0]
        assert row["nde_rr"] == row["nie_rr"] == row["te_rr"] == 1.0
        assert row["nde_rd"] == row["nie_rd"] == row["te_rd"] == 0.0

    def test_parse_error_exit_code_and_line(self, capsys, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,m,y,c\n0,0,1,0\n5,0,1,0\n")
        code = main(["estimate", "--csv", str(p)])
        err = capsys.readouterr().err
        assert code == 2
        assert "line 3" in err

    @pytest.mark.parametrize("data", [
        b"a,m,y,c\n0,0,0,0\n1,\xff,1,0\n",
        b"a,m,y,c\n0,0,0,0\n1," + b"1" * 200_000 + b",1,0\n",
    ], ids=["non-utf8", "oversized-field"])
    def test_unreadable_line_exits_2(self, capsys, tmp_path, data):
        p = tmp_path / "bad.csv"
        p.write_bytes(data)
        assert main(["estimate", "--csv", str(p)]) == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [("", "empty file"), ("a,m,y,c\n", "no data rows")],
                             ids=["empty", "header-only"])
    def test_file_without_data_rows_exits_2(self, capsys, tmp_path, text, message):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        assert main(["estimate", "--csv", str(p)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{p}: {message}" in err

    def test_oversized_category_code_exits_2(self, capsys, tmp_path):
        # past int64, past the address space, and past the count-tensor cap
        for code in (10**20, 2**62, 200_000):
            p = tmp_path / "big.csv"
            p.write_text(f"a,m,y,c\n0,0,1,0\n1,{code},0,0\n")
            assert main(["estimate", "--csv", str(p)]) == 2
            assert f"m={code}" in capsys.readouterr().err

    def test_scale_filter(self, capsys, tmp_path):
        csv = write_worked_csv(tmp_path / "d.csv")
        code, doc = run_json(capsys, "estimate", "--csv", csv, "--scale", "rr")
        row = doc["result"]["strata"][0]
        assert "nde_rr" in row and "nde_rd" not in row

    def test_csv_format(self, capsys, tmp_path):
        csv = write_worked_csv(tmp_path / "d.csv")
        code, out = run(capsys, "estimate", "--csv", csv, "--format", "csv", "--scale", "rr")
        lines = out.strip().splitlines()
        assert lines[0] == "c,nde_rr,nie_rr,te_rr"
        assert len(lines) == 2

    def test_relabel_exposure(self, capsys, tmp_path):
        csv = write_worked_csv(tmp_path / "d.csv")
        code, doc = run_json(capsys, "estimate", "--csv", csv, "--relabel-exposure")
        assert any("relabeled" in w for w in doc["warnings"])
        te = doc["result"]["strata"][0]["te_rr"]
        assert math.isclose(te, 0.275 / 0.7, rel_tol=1e-12)

    def test_relabel_exposure_reads_like_the_file_with_a_rewritten(self, capsys, tmp_path):
        csv = write_strata_csv(tmp_path / "d.csv")
        header, *lines = Path(csv).read_text().splitlines()
        rewritten = tmp_path / "swapped.csv"
        rewritten.write_text("\n".join([header, *(str(1 - int(line[0])) + line[1:]
                                                   for line in lines)]) + "\n")
        _, relabeled = run_json(capsys, "estimate", "--csv", csv, "--relabel-exposure")
        _, swapped = run_json(capsys, "estimate", "--csv", str(rewritten))
        assert relabeled["result"]["strata"] == swapped["result"]["strata"]

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
    def test_piped_records_get_the_digest_of_their_bytes(self, tmp_path):
        # a pipe can be read only once, so the digest must come from the read that parses it
        data = Path(write_worked_csv(tmp_path / "d.csv")).read_bytes()
        for argv in (("estimate",), ("bootstrap", "--replicates", "100")):
            done = run_fresh(*argv, "--csv", "/dev/stdin", input=data.decode("ascii"))
            assert (done.returncode, done.stderr) == (0, "")
            assert json.loads(done.stdout)["input_digest"] == hashlib.sha256(data).hexdigest()


class TestBound:
    def test_unit_rr_uy_reduces_to_estimate(self, capsys, tmp_path):
        csv = write_worked_csv(tmp_path / "d.csv")
        code, doc = run_json(capsys, "bound", "--csv", csv, "--rr-au", "7", "--rr-uy", "1")
        row = doc["result"]["strata"][0]
        assert row["bf"] == 1.0
        assert row["nde_rr_lower"] == row["observed"]["nde_rr"]
        assert row["nie_rr_upper"] == row["observed"]["nie_rr"]

    def test_infinite_parameter_flag(self, capsys, tmp_path):
        csv = write_worked_csv(tmp_path / "d.csv")
        code, out = run(capsys, "bound", "--csv", csv, "--rr-au", "inf", "--rr-uy", "2.5")
        doc = json.loads(out, parse_constant=reject_constant)
        assert doc["result"]["strata"][0]["bf"] == 2.5
        assert doc["result"]["rr_au"] == "inf"

    def test_estimates_only_mode(self, capsys):
        code, doc = run_json(
            capsys, "bound", "--nde-rr", "1.72", "--nde-rr-ci", "1.34", "2.21",
            "--rr-au", "2", "--rr-uy", "2",
        )
        assert code == 0
        res = doc["result"]
        assert math.isclose(res["bf"], 4 / 3, rel_tol=1e-15)
        assert math.isclose(res["nde_rr_lower"]["point"], 1.29, abs_tol=1e-9)
        lo, hi = res["nde_rr_lower"]["ci"]
        assert math.isclose(lo, 1.005, abs_tol=1e-9)
        assert math.isclose(hi, 1.6575, abs_tol=1e-9)

    def test_estimates_digest_covers_the_limits(self, capsys):
        argv = ("bound", "--rr-au", "2", "--rr-uy", "2", "--nde-rr", "1.72", "--nde-rr-ci")
        digests = {run_json(capsys, *argv, *ci)[1]["input_digest"]
                   for ci in (("1.34", "2.21"), ("1.5", "2.21"), ("1.34", "2.0"))}
        assert len(digests) == 3

    def test_matches_library_exactly(self, capsys, tmp_path):
        csv = write_worked_csv(tmp_path / "d.csv")
        code, doc = run_json(capsys, "bound", "--csv", csv, "--rr-au", "2", "--rr-uy", "3")
        e = stratum_effects(estimate_from_records(read_records_csv(csv)[0]), 0)
        bf = bounding_factor(SensitivitySpec(2, 3))
        row = doc["result"]["strata"][0]
        assert row["bf"] == bf
        want = plain_bounds(e, bf)
        assert row["nde_rr_lower"] == want["nde_rr_lower"]
        assert row["nde_rd_lower"] == want["nde_rd_lower"]
        assert row["cornfield_rr"]["max_must_exceed"] == cornfield_rr(e["nde_rr"]).max_must_exceed
        assert doc["result"]["envelopes"]["nde_rr_lower"]["heterogeneous"] == row["nde_rr_lower"]

    def test_huge_parameters_bound_a_huge_effect(self, capsys):
        # rr_au * rr_uy overflows; bf is 1e200 and divides the effect down to 1
        code, doc = run_json(capsys, "bound", "--nde-rr", "1e200", "--rr-au", "2e200",
                             "--rr-uy", "2e200")
        assert code == 0
        assert doc["result"]["nde_rr_lower"]["point"] == 1.0

    def test_missing_inputs_rejected(self, capsys):
        code = main(["bound", "--rr-au", "2", "--rr-uy", "2"])
        assert code == 2

    @pytest.mark.parametrize("flags, named", [
        (("--nde-rr", "1.72", "--nde-rr-ci", "2.21", "1.34"), "--nde-rr-ci"),
        (("--nde-rr", "1.72", "--nde-rr-ci", "1.8", "2.2"), "--nde-rr-ci"),
        (("--nie-rr", "1.3", "--nie-rr-ci", "1.5", "1.1"), "--nie-rr-ci"),
        (("--nie-rr", "1.3", "--nie-rr-ci", "1.4", "1.6"), "--nie-rr-ci"),
        (("--nde-rr-ci", "1.34", "2.21"), "--nde-rr-ci"),
        (("--nde-rr", "inf"), "--nde-rr"),
        (("--nie-rr", "nan"), "--nie-rr"),
        (("--nde-rr", "1.72", "--nde-rr-ci", "0", "2.21"), "--nde-rr-ci"),
    ])
    def test_bad_observed_effect_or_limits_exit_2(self, capsys, flags, named):
        assert main(["bound", "--rr-au", "2", "--rr-uy", "2", *flags]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("flags, named", [
        (("--nde-rr", "1.5"), "--nde-rr"),
        (("--nde-rr", "1.5", "--nde-rr-ci", "1.2", "1.8"), "--nde-rr"),
        (("--nde-rr-ci", "1.2", "1.8"), "--nde-rr-ci"),
        (("--nie-rr", "1.2"), "--nie-rr"),
        (("--nie-rr", "1.2", "--nie-rr-ci", "1.1", "1.3"), "--nie-rr"),
    ])
    def test_observed_effect_with_records_exits_2(self, capsys, tmp_path, flags, named):
        # a records report has no place for an observed effect, so the flag would be dropped
        csv = write_worked_csv(tmp_path / "d.csv")
        assert main(["bound", "--csv", csv, "--rr-au", "2", "--rr-uy", "2", *flags]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{named} " in err and "--csv" in err


class TestCornfield:
    def test_nonpositive_target_denominator_names_stratum(self, capsys, tmp_path):
        csv = write_two_strata_csv(tmp_path / "d.csv")
        assert main(["cornfield", "--csv", csv, "--target", "-0.2"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert re.search(r"stratum c=1: target -0\.2 plus pr\(Y=1\|a=0\) = \S+ is not positive",
                         err)

    def test_negative_target_in_exponent_form_after_equals_sign(self, capsys, tmp_path):
        # argparse reads only -digits and -digits.digits as negative numbers; with "=" the
        # value is attached to its flag, so any form reaches the stratum check
        csv = write_two_strata_csv(tmp_path / "d.csv")
        assert main(["cornfield", "--csv", csv, "--target=-2e-1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert re.search(r"stratum c=1: target -0\.2 plus pr\(Y=1\|a=0\) = \S+ is not positive",
                         err)

    def test_records_partner_infeasible_in_every_stratum_exits_3(self, capsys, tmp_path):
        csv = write_two_strata_csv(tmp_path / "d.csv")
        code, doc = run_json(capsys, "cornfield", "--csv", csv, "--fixed-param", "1.5")
        assert code == 3
        assert [row["required_partner"] for row in doc["result"]["strata"]] == [None, None]
        assert len(doc["warnings"]) == 2
        assert all("no finite partner" in w for w in doc["warnings"])

    def test_nan_target_with_records_exits_2(self, capsys, tmp_path):
        csv = write_worked_csv(tmp_path / "d.csv")
        assert main(["cornfield", "--csv", csv, "--target", "nan"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "target effect must be a real number" in err

    def test_target_so_small_the_ratio_overflows_exits_3(self, capsys):
        code, doc = run_json(capsys, "cornfield", "--nde-rr", "1.5", "--target", "1e-320",
                             "--fixed-param", "2")
        assert code == 3
        assert doc["result"]["both_must_exceed"] == "inf"
        assert doc["result"]["required_partner"] is None
        assert doc["warnings"] == [
            "required partner for fixed 2.0: no finite bounding factor reaches an infinite target"]

    @pytest.mark.parametrize("value", ["0.5", "nan"])
    @pytest.mark.parametrize("source", [("--nde-rr", "1.5"), ("--csv", "missing.csv")],
                             ids=["estimates", "records"])
    def test_bad_fixed_param_is_named_before_any_read(self, capsys, tmp_path, value, source):
        # with --csv the flag is checked before the file, which does not exist, is opened
        source = [str(tmp_path / v) if v.endswith(".csv") else v for v in source]
        assert main(["cornfield", *source, "--fixed-param", value]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"--fixed-param must be >= 1 (or +inf), got {float(value)!r}" in err

    def test_huge_observed_effect_keeps_a_finite_threshold(self, capsys):
        code, doc = run_json(capsys, "cornfield", "--nde-rr", "1e200")
        assert code == 0
        assert doc["result"]["max_must_exceed"] == 2e200

    def test_huge_partner_is_solved_without_a_warning(self):
        done = run_fresh("cornfield", "--nde-rr", "5e307", "--fixed-param", "1e308")
        assert done.returncode == 0
        assert done.stderr == ""
        assert json.loads(done.stdout)["result"]["required_partner"] == 1e308

    def test_partner_solve(self, capsys):
        code, doc = run_json(capsys, "cornfield", "--nde-rr", "1.34", "--fixed-param", "1.40")
        assert code == 0
        assert math.isclose(doc["result"]["required_partner"], 8.93, abs_tol=5e-3)

    @pytest.mark.parametrize("argv", [("--nde-rr", "1.5", "--target", "2"), ("--nde-rr", "0.8")])
    def test_nothing_to_explain_needs_no_partner(self, capsys, argv):
        # observed at or below the target: thresholds (1, 1), and a partner of 1 suffices
        code, doc = run_json(capsys, "cornfield", *argv, "--fixed-param", "3")
        assert code == 0
        result = doc["result"]
        assert (result["both_must_exceed"], result["max_must_exceed"]) == (1.0, 1.0)
        assert result["required_partner"] == 1.0
        assert doc["warnings"] == []

    def test_infinite_observed_effect_exits_2(self, capsys):
        assert main(["cornfield", "--nde-rr", "inf"]) == 2
        assert "--nde-rr" in capsys.readouterr().err

    def test_infeasible_partner_warns_and_exits_3(self, capsys):
        code, doc = run_json(capsys, "cornfield", "--nde-rr", "1.72", "--fixed-param", "1.40")
        assert code == 3
        assert doc["result"]["required_partner"] is None
        assert any("no finite partner" in w for w in doc["warnings"])

    def test_observed_effect_with_records_exits_2(self, capsys, tmp_path):
        csv = write_worked_csv(tmp_path / "d.csv")
        assert main(["cornfield", "--csv", csv, "--nde-rr", "1.5"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--nde-rr " in err and "--csv" in err

    def test_difference_scale_from_records(self, capsys, tmp_path):
        csv = write_worked_csv(tmp_path / "d.csv")
        code, doc = run_json(capsys, "cornfield", "--csv", csv, "--target", "0.125")
        row = doc["result"]["strata"][0]
        assert math.isclose(row["both_must_exceed"], 1.25, rel_tol=1e-9)
        assert math.isclose(row["max_must_exceed"], 1.809017, abs_tol=1e-6)


class TestSweep:
    def test_unit_grid_recovers_observed(self, capsys, tmp_path):
        csv = write_worked_csv(tmp_path / "d.csv")
        code, out = run(capsys, "sweep", "--csv", csv, "--rr-au-grid", "1", "--rr-uy-grid", "1")
        header, row = out.strip().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        e = stratum_effects(estimate_from_records(read_records_csv(csv)[0]), 0)
        assert float(values["bf"]) == 1.0
        assert math.isclose(float(values["nde_rr_lower"]), e["nde_rr"], rel_tol=1e-12)
        assert math.isclose(float(values["nde_rd_lower"]), e["nde_rd"], abs_tol=1e-12)

    def test_point_value_in_grid(self, capsys):
        code, out = run(
            capsys, "sweep", "--nde-rr", "1.72",
            "--rr-au-grid", "1,2", "--rr-uy-grid", "1,3",
        )
        lines = out.strip().splitlines()
        assert lines[0] == "rr_au,rr_uy,bf,nde_rr_lower"
        last = lines[-1].split(",")
        assert float(last[2]) == 1.5
        assert math.isclose(float(last[3]), 1.72 / 1.5, rel_tol=1e-12)

    def test_bf_monotone_along_grid(self, capsys, tmp_path):
        csv = write_worked_csv(tmp_path / "d.csv")
        code, out = run(
            capsys, "sweep", "--csv", csv,
            "--rr-au-grid", "1,1.5,2,4", "--rr-uy-grid", "1,2,8",
        )
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        by_uy = {}
        for r in rows:
            by_uy.setdefault(r[1], []).append(float(r[2]))
        for series in by_uy.values():
            assert all(a <= b + 1e-15 for a, b in zip(series, series[1:]))

    @pytest.mark.parametrize("block", [None, 1, 2, 7])  # 1 and 2 rows hold fewer than 3 strata
    @pytest.mark.parametrize("au, uy, flags", [
        ("1,1.5,2,4", "1,2,8", ()),
        ("1,2.5", "1,3", ("--relabel-exposure",)),
        ("1,2", "1,3,5", ("--smoothing", "0.5")),
        ("1", "1", ()),
        ("1,2.5,1e300", "1,3", ()),
    ], ids=["strata", "relabel", "smoothing", "one-cell", "1e300"])
    def test_records_sweep_matches_row_wise_reference(self, capsys, tmp_path, monkeypatch,
                                                      block, au, uy, flags):
        if block is not None:
            monkeypatch.setattr(report, "CSV_BLOCK", block)
        csv = write_strata_csv(tmp_path / "d.csv")
        code, out = run(capsys, "sweep", "--csv", csv, "--rr-au-grid", au, "--rr-uy-grid", uy,
                        *flags)
        assert code == 0
        expected = reference_sweep_csv(au, uy, csv, relabel="--relabel-exposure" in flags,
                                       smoothing=0.5 if "--smoothing" in flags else 0.0)
        assert out == expected

    @pytest.mark.parametrize("block", [None, 1, 2, 7])
    @pytest.mark.parametrize("nie_rr", [None, 1.3])
    def test_estimates_sweep_matches_row_wise_reference(self, capsys, monkeypatch, block, nie_rr):
        if block is not None:
            monkeypatch.setattr(report, "CSV_BLOCK", block)
        au, uy = "1,1.5,2,1e300", "1,2,8"
        flags = () if nie_rr is None else ("--nie-rr", repr(nie_rr))
        code, out = run(capsys, "sweep", "--nde-rr", "1.72", *flags,
                        "--rr-au-grid", au, "--rr-uy-grid", uy)
        assert code == 0
        assert out == reference_sweep_csv(au, uy, nde_rr=1.72, nie_rr=nie_rr)

    @pytest.mark.parametrize("source", [("--csv",), ("--nde-rr", "1.72", "--nie-rr", "1.3")])
    def test_json_rows_equal_csv_rows(self, capsys, tmp_path, monkeypatch, source):
        if source == ("--csv",):
            source = ("--csv", write_strata_csv(tmp_path / "d.csv"))
        grid = ("--rr-au-grid", "1,2.5,1e300", "--rr-uy-grid", "1,3")
        for block in (report.CSV_BLOCK, 2):  # 2 rows hold fewer than the 3 strata
            monkeypatch.setattr(report, "CSV_BLOCK", block)
            code, out = run(capsys, "sweep", *source, *grid)
            code, doc = run_json(capsys, "sweep", *source, *grid, "--format", "json")
            header, *lines = out.splitlines()
            assert doc["result"]["header"] == header.split(",")
            assert [",".join(v if isinstance(v, str) else repr(v) for v in row)
                    for row in doc["result"]["rows"]] == lines

    def test_empty_stratum_exits_2_before_any_output(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,m,y,c\n" + "".join(
            f"{a},0,{y},{c}\n" for c in (0, 2) for a in (0, 1) for y in (0, 1)))
        assert main(["sweep", "--csv", str(path), "--rr-au-grid", "1,2", "--rr-uy-grid", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "c=1" in err

    @pytest.mark.parametrize("flag", ["--nde-rr", "--nie-rr"])
    def test_observed_effect_with_records_exits_2(self, capsys, tmp_path, flag):
        csv = write_worked_csv(tmp_path / "d.csv")
        code = main(["sweep", "--csv", csv, flag, "1.5", "--rr-au-grid", "1,2", "--rr-uy-grid", "1"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{flag} " in err and "--csv" in err

    @pytest.mark.parametrize("au, uy, message", [
        ("1,x", "1", "rr_au grid must be comma-separated numbers, got '1,x'"),
        ("0.5", "1", "rr_au grid values must be finite and >= 1"),
        ("1", "1,inf", "rr_uy grid values must be finite and >= 1"),
    ])
    def test_bad_grid_value_exits_2(self, capsys, au, uy, message):
        code = main(["sweep", "--nde-rr", "1.5", "--rr-au-grid", au, "--rr-uy-grid", uy])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert message in err

    def test_indirect_effect_alone(self, capsys):
        code, out = run(capsys, "sweep", "--nie-rr", "1.3", "--rr-au-grid", "1,2",
                        "--rr-uy-grid", "1,3")
        assert code == 0
        header, *rows = out.splitlines()
        assert header == "rr_au,rr_uy,bf,nie_rr_upper"
        assert [float(row.split(",")[3]) for row in rows] == [1.3, 1.3, 1.3, 1.3 * 1.5]

    def test_unsorted_grid_rejected(self, capsys):
        code = main(["sweep", "--nde-rr", "1.5", "--rr-au-grid", "2,1", "--rr-uy-grid", "1"])
        assert code == 2

    @pytest.mark.parametrize("au, uy", [("1,1", "2"), ("1,2", "2,3,3")])
    def test_repeated_grid_value_rejected(self, capsys, au, uy):
        code = main(["sweep", "--nde-rr", "1.5", "--rr-au-grid", au, "--rr-uy-grid", uy])
        assert code == 2
        assert "strictly ascending" in capsys.readouterr().err


class TestParametric:
    def test_emits_full_grid_as_csv(self, capsys):
        code, out = run(capsys, "parametric")
        lines = out.strip().splitlines()
        assert lines[0] == "beta0,beta1,beta3,rr_au,ratio_to_exp_beta3,ratio_to_exp_beta1"
        assert len(lines) == 1 + 42
        grid = collider_ratio_grid()
        first = lines[1].split(",")
        assert float(first[3]) == grid[0]["rr_au"]

    def test_json_format(self, capsys):
        code, doc = run_json(capsys, "parametric", "--format", "json")
        assert len(doc["result"]["rows"]) == 42

    def test_negative_offset_in_exponent_form_after_equals_sign(self, capsys):
        code, doc = run_json(capsys, "parametric", "--beta-c=-1e-1", "--format", "json")
        assert code == 0
        assert doc["result"]["beta_c"] == -0.1

    def test_probability_above_one_exits_3_naming_the_cell(self, capsys):
        # the first cell at or above 1; e^1000 overflows a float
        for beta_c, cell in (("0.8", "a=1, u=1"), ("1000", "a=0, u=0")):
            assert main(["parametric", "--beta-c", beta_c]) == 3
            out, err = capsys.readouterr()
            assert out == ""
            assert f"cell {cell}: linear predictor" in err and ">= 1" in err
            assert len(err.splitlines()) == 1, err


class TestOracle:
    def test_clean_run_exits_zero(self, capsys):
        code, doc = run_json(
            capsys, "oracle", "--seed", "11", "--iterations", "60",
            "--ratio-iterations", "40", "--sharpness-iterations", "4",
        )
        assert code == 0
        assert doc["result"]["bound_validity"]["violations"] == 0
        assert doc["result"]["ratio_bound_dominance"]["violations"] == 0

    def test_dependent_exposure_mode(self, capsys):
        code, doc = run_json(
            capsys, "oracle", "--seed", "11", "--iterations", "40",
            "--ratio-iterations", "10", "--sharpness-iterations", "2",
            "--dependent-exposure",
        )
        assert code == 0
        assert doc["result"]["definition_equivalence"] is None
        assert "unexposed_nde_rr_lower_vs_true" in doc["result"]["bound_validity"]["worst_slack"]

    @pytest.mark.parametrize("value", ["-1", "1.5"])
    def test_seed_that_is_not_a_non_negative_integer_exits_2(self, capsys, value):
        with pytest.raises(SystemExit) as exit:
            main(["oracle", "--iterations", "5", "--seed", value])
        assert exit.value.code == 2
        assert f"--seed: must be a non-negative integer, got '{value}'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--iterations", "0"), ("--iterations", "-5"), ("--u-card", "0"), ("--m-card", "0"),
        ("--ratio-iterations", "0"), ("--sharpness-iterations", "0"),
    ])
    def test_counts_below_one_exit_2(self, capsys, flag, value):
        code = main(["oracle", "--ratio-iterations", "5", "--sharpness-iterations", "1",
                     flag, value])
        assert code == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err

    @pytest.mark.parametrize("u_card, m_card", [("100000", "100000"), ("1", "4097")])
    def test_cardinalities_above_the_cap_exit_2(self, capsys, u_card, m_card):
        code = main(["oracle", "--iterations", "1", "--u-card", u_card, "--m-card", m_card])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert "--u-card" in err and "--m-card" in err and "4096" in err

    def test_single_confounder_level_is_independent_of_exposure(self, capsys):
        # a lone level has pr(u|A=a) = 1 in both arms: all four checks and both
        # forms of the collider parameter apply
        code, doc = run_json(capsys, "oracle", "--u-card", "1", "--dependent-exposure",
                             "--iterations", "20", "--ratio-iterations", "5",
                             "--sharpness-iterations", "1")
        assert code == 0
        assert doc["result"]["definition_equivalence"] == {
            "max_relative_difference": 0.0, "violations": 0}
        assert list(doc["result"]["bound_validity"]["worst_slack"]) == [
            "nde_rd_lower_vs_true", "nde_rr_lower_vs_true", "nie_rd_true_vs_upper",
            "nie_rr_true_vs_upper"]

    def test_single_mediator_level_runs(self, capsys):
        # pr(m=0|a) of a lone level sums over u to one give or take an ulp
        code, doc = run_json(capsys, "oracle", "--u-card", "3", "--m-card", "1",
                             "--iterations", "256")
        assert code == 0
        assert doc["result"]["bound_validity"]["violations"] == 0

    def test_cardinalities_at_the_cap_run(self, capsys):
        code = main(["oracle", "--iterations", "1", "--u-card", "64", "--m-card", "64",
                     "--ratio-iterations", "1", "--sharpness-iterations", "1"])
        assert code == 0

    @pytest.mark.parametrize("violations, expected", [(1, 4), (0, 0)], ids=["one", "none"])
    def test_any_stage_that_counts_a_violation_exits_4(self, capsys, monkeypatch, violations,
                                                        expected):
        # a stage added to the battery gates the exit code without the command naming it
        monkeypatch.setattr(oracle, "validity_battery", lambda seed, **params: validity_battery(
            seed, **params) | {"added_stage": {"violations": violations}})
        code, doc = run_json(capsys, "oracle", "--iterations", "8", "--ratio-iterations", "1",
                             "--sharpness-iterations", "1")
        assert (code, doc["result"]["added_stage"]) == (expected, {"violations": violations})
        assert doc["result"]["bound_validity"]["violations"] == 0


class TestBootstrapCommand:
    def test_intervals_and_determinism(self, capsys, tmp_path):
        csv = write_worked_csv(tmp_path / "d.csv", denominator=200)
        args = ("bootstrap", "--csv", csv, "--replicates", "120", "--seed", "4",
                "--rr-au", "2", "--rr-uy", "2")
        code1, out1 = run(capsys, *args)
        code2, out2 = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        stats = doc["result"]["strata"][0]["stats"]
        assert set(stats) >= {"nde_rr", "nde_rr_lower", "nie_rr_upper"}
        for entry in stats.values():
            assert entry["lower"] <= entry["upper"]

    def test_requires_both_parameters(self, capsys, tmp_path):
        csv = write_worked_csv(tmp_path / "d.csv", denominator=200)
        for flag in ("--rr-au", "--rr-uy"):
            code = main(["bootstrap", "--csv", csv, "--replicates", "100", flag, "2"])
            assert (code, *capsys.readouterr()) == (
                2, "", "error: bootstrap needs both --rr-au and --rr-uy or neither\n")

    @pytest.mark.parametrize("params, message", [
        (("--rr-au", "0.5", "--rr-uy", "2"), "rr_au must be >= 1 (or +inf), got 0.5"),
        (("--rr-au", "2"), "bootstrap needs both --rr-au and --rr-uy or neither"),
    ], ids=["rr-au-below-1", "rr-au-alone"])
    def test_parameters_are_checked_before_the_file_is_read(self, capsys, tmp_path, params,
                                                            message):
        missing = str(tmp_path / "missing.csv")
        code = main(["bootstrap", "--csv", missing, "--replicates", "100", *params])
        assert (code, *capsys.readouterr()) == (2, "", f"error: {message}\n")

    def test_level_outside_the_unit_interval_exits_2(self, capsys, tmp_path):
        csv = write_worked_csv(tmp_path / "d.csv", denominator=200)
        code = main(["bootstrap", "--csv", csv, "--replicates", "100", "--level", "1.5"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert "level must be in (0, 1), got 1.5" in err

    def test_replicates_too_many_to_allocate_exit_2(self, capsys, tmp_path):
        csv = write_worked_csv(tmp_path / "d.csv", denominator=200)
        code = main(["bootstrap", "--csv", csv, "--replicates", str(10**13)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert f"replicates={10**13} needs a table of {10**13} x 1 strata x 6 statistics" in err

    def test_negative_seed_exits_2(self, capsys, tmp_path):
        csv = write_worked_csv(tmp_path / "d.csv", denominator=200)
        with pytest.raises(SystemExit) as exit:
            main(["bootstrap", "--csv", csv, "--replicates", "100", "--seed", "-3"])
        assert exit.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_exhausted_redraw_budget_exits_2(self, capsys, tmp_path):
        # eight strata whose exposed arm is one record: nearly every resample drops one
        path = tmp_path / "d.csv"
        path.write_text("a,m,y,c,count\n" + "".join(
            f"0,0,0,{c},10\n0,0,1,{c},10\n1,0,1,{c},1\n" for c in range(8)))
        code = main(["bootstrap", "--csv", str(path), "--replicates", "100"])
        assert code == 2
        assert "1001 degenerate replicates exceeded the redraw budget 1000" in capsys.readouterr().err

    def test_replicates_without_an_unexposed_event_are_redrawn(self, capsys, tmp_path):
        # two events among 400 unexposed records: about 13% of replicates draw none, so
        # n00 = 0 there, though every cell the estimate needs has records
        path = tmp_path / "rare.csv"
        path.write_text("a,m,y,c,count\n0,0,0,0,199\n0,0,1,0,1\n0,1,0,0,199\n0,1,1,0,1\n"
                        "1,0,0,0,180\n1,0,1,0,20\n1,1,0,0,160\n1,1,1,0,40\n")
        code, doc = run_json(capsys, "estimate", "--csv", str(path))
        assert (code, doc["result"]["strata"][0]["nde_rr"]) == (0, 30.000000000000004)
        code, doc = run_json(capsys, "bootstrap", "--csv", str(path), "--replicates", "100",
                             "--seed", "1")
        assert code == 0
        assert doc["result"]["degenerate_redraws"] > 0
        limits = [entry[end] for entry in doc["result"]["strata"][0]["stats"].values()
                  for end in ("lower", "upper")]
        assert len(limits) == 12 and all(math.isfinite(x) for x in limits)


class TestHugeParameters:
    def test_sweep_reaches_the_largest_grid_values(self):
        done = run_fresh("sweep", "--nde-rr", "1.5", "--rr-au-grid", "1,1e308",
                         "--rr-uy-grid", "1,1e308")
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.splitlines()[-1] == f"1e+308,1e+308,5e+307,{1.5 / 5e307!r}"

    def test_bound_with_huge_parameters(self):
        done = run_fresh("bound", "--nde-rr", "1.5", "--rr-au", "1e200", "--rr-uy", "1e200")
        assert (done.returncode, done.stderr) == (0, "")
        result = json.loads(done.stdout)["result"]
        assert result["bf"] == 5e199
        assert result["nde_rr_lower"]["point"] == 1.5 / 5e199

    @pytest.mark.parametrize("argv", [
        ("bound", "--nie-rr", "1e300", "--rr-au", "1e10", "--rr-uy", "1e10"),
        ("sweep", "--nde-rr", "1e-300", "--nie-rr", "1e300", "--rr-au-grid", "1,1e17,1e300",
         "--rr-uy-grid", "1,2.5,1e20"),
    ], ids=["bound", "sweep"])
    def test_overflowing_indirect_upper_bound_is_inf_without_a_warning(self, argv):
        done = run_fresh(*argv)
        assert (done.returncode, done.stderr) == (0, "")
        assert "inf" in done.stdout

    @pytest.mark.parametrize("command", ["estimate", "bootstrap"])
    @pytest.mark.parametrize("m_card", [3, 1], ids=["three-levels", "one-level"])
    def test_overflowing_smoothing_exits_2(self, capsys, tmp_path, command, m_card):
        # n + k*M overflows with three mediator levels, n + 2k with one
        csv = write_strata_csv(tmp_path / "d.csv", m_card=m_card)
        argv = [command, "--csv", csv, *(("--replicates", "100") if command == "bootstrap" else ())]
        assert main([*argv, "--smoothing", "1e308"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "smoothing 1e+308" in err
        assert main([*argv, "--smoothing", "1e300"]) == 0


class TestFormatGuard:
    def test_csv_rejected_for_nested_reports(self, capsys):
        with pytest.raises(SystemExit) as exit:
            main(["cornfield", "--nde-rr", "1.5", "--format", "csv"])
        assert exit.value.code == 2
        assert "--format" in capsys.readouterr().err


#: flags some subcommands take, with a value each accepts there
FLAG_VALUES = {"--scale": ("rr",), "--relabel-exposure": (), "--smoothing": ("1",),
               "--seed": ("4",), "--format": ("json",)}


def valid_argv(command, tmp_path):
    """A run of ``command`` that exits 0, from the worked records or estimates."""
    csv = ("--csv", write_worked_csv(tmp_path / "d.csv", denominator=200))
    return [command, *{
        "estimate": csv,
        "bound": ("--nde-rr", "1.5", "--rr-au", "2", "--rr-uy", "2"),
        "cornfield": ("--nde-rr", "1.5"),
        "sweep": ("--nde-rr", "1.5", "--rr-au-grid", "1", "--rr-uy-grid", "1"),
        "parametric": (),
        "oracle": ("--iterations", "1", "--ratio-iterations", "1", "--sharpness-iterations", "1"),
        "bootstrap": (*csv, "--replicates", "100"),
    }[command]]


#: each subcommand's flags, apart from -h and --help, and which of them it requires
COMMAND_FLAGS = {
    "estimate": ("--csv --relabel-exposure --smoothing --scale --format", "--csv"),
    "bound": ("--csv --relabel-exposure --smoothing --scale --nde-rr --nde-rr-ci --nie-rr "
              "--nie-rr-ci --rr-au --rr-uy", "--rr-au --rr-uy"),
    "cornfield": ("--csv --relabel-exposure --smoothing --nde-rr --target --fixed-param", ""),
    "sweep": ("--csv --relabel-exposure --smoothing --nde-rr --nie-rr --rr-au-grid --rr-uy-grid "
              "--format", "--rr-au-grid --rr-uy-grid"),
    "parametric": ("--beta-c --format", ""),
    "oracle": ("--seed --iterations --u-card --m-card --extreme --outcome --dependent-exposure "
               "--ratio-iterations --sharpness-iterations", ""),
    "bootstrap": ("--csv --relabel-exposure --smoothing --seed --replicates --level --rr-au "
                  "--rr-uy", "--csv --replicates"),
}


class TestFlagSurface:
    def test_each_command_takes_exactly_its_flags(self):
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(COMMAND_FLAGS)
        for command, parser in sub.choices.items():
            actions = [a for a in parser._actions if a.option_strings != ["-h", "--help"]]
            taken = {flag for a in actions for flag in a.option_strings}
            required = {flag for a in actions if a.required for flag in a.option_strings}
            flags, needed = COMMAND_FLAGS[command]
            assert (taken, required) == (set(flags.split()), set(needed.split())), command

    @pytest.mark.parametrize("argv, message", [
        (("sweep", "--nde-rr", "1.5", "--rr-au", "2", "--rr-uy", "3"),
         "the following arguments are required: --rr-au-grid, --rr-uy-grid"),
        (("oracle", "--iter", "3"), "unrecognized arguments: --iter 3"),
    ], ids=["sweep", "oracle"])
    def test_abbreviated_flag_exits_2(self, capsys, argv, message):
        # a unique prefix of a flag is not that flag: --rr-au is not --rr-au-grid
        with pytest.raises(SystemExit) as exit:
            main(list(argv))
        out, err = capsys.readouterr()
        assert (exit.value.code, out) == (2, "")
        assert err.endswith(f"error: {message}\n")

    @pytest.mark.parametrize("command, flag", [
        ("estimate", "--seed"),
        ("bound", "--seed"), ("bound", "--format"),
        ("cornfield", "--scale"), ("cornfield", "--seed"), ("cornfield", "--format"),
        ("sweep", "--scale"), ("sweep", "--seed"),
        ("parametric", "--scale"), ("parametric", "--relabel-exposure"),
        ("parametric", "--smoothing"), ("parametric", "--seed"),
        ("oracle", "--scale"), ("oracle", "--relabel-exposure"), ("oracle", "--smoothing"),
        ("oracle", "--format"),
        ("bootstrap", "--scale"), ("bootstrap", "--format"),
    ])
    def test_flag_the_command_does_not_read_exits_2(self, capsys, tmp_path, command, flag):
        argv = valid_argv(command, tmp_path)
        assert main(argv) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit:
            main([*argv, flag, *FLAG_VALUES[flag]])
        assert exit.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("flag, command", [
        *((flag, command) for flag in ("--relabel-exposure", "--smoothing")
          for command in ("bound", "cornfield", "sweep")),
        ("--scale", "bound"),
    ])
    def test_record_flag_without_records_exits_2(self, capsys, tmp_path, flag, command):
        # estimates-only mode reads no records, so the flag would be dropped
        code = main([*valid_argv(command, tmp_path), flag, *FLAG_VALUES[flag]])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert f"{flag} " in err and "--csv" in err

    @pytest.mark.parametrize("argv, message", [
        (("bound", "--rr-au", "2", "--rr-uy", "2"), "bound needs --csv or --nde-rr or --nie-rr"),
        (("cornfield", "--target", "1.1"), "cornfield needs --csv or --nde-rr"),
        (("sweep", "--rr-au-grid", "1", "--rr-uy-grid", "1"),
         "sweep needs --csv or --nde-rr or --nie-rr"),
    ], ids=["bound", "cornfield", "sweep"])
    def test_missing_input_exits_2(self, capsys, argv, message):
        code = main(list(argv))
        out, err = capsys.readouterr()
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_flags_are_the_library_parameters_they_pass_by_name(self, capsys):
        # a battery parameter without its flag, a flag without its parameter, or a battery
        # default written into the parser as well fails here
        parser = _build_parser()
        every = ["oracle", "--iterations", "1", "--u-card", "1", "--m-card", "1", "--extreme",
                 "--outcome", "mean", "--dependent-exposure", "--ratio-iterations", "1",
                 "--sharpness-iterations", "1"]
        oracle_flags = set(vars(parser.parse_args(every))) - {"command", "func", "seed"}
        battery = inspect.signature(validity_battery).parameters
        assert oracle_flags == set(battery) - {"seed"}
        assert set(vars(parser.parse_args(["oracle"]))) == {"command", "func", "seed"}
        code, doc = run_json(capsys, "oracle", "--seed", "3", "--iterations", "5",
                             "--ratio-iterations", "5", "--sharpness-iterations", "1")
        assert code == 0
        given = {"seed": 3, "iterations": 5, "ratio_iterations": 5, "sharpness_iterations": 1}
        defaults = {k: p.default for k, p in battery.items() if k not in given}
        assert doc["result"]["config"] == given | defaults
        bootstrap_flags = set(vars(parser.parse_args(["bootstrap", "--csv", "d.csv",
                                                      "--replicates", "100"])))
        passed = {"replicates", "level", "smoothing"}
        assert passed <= bootstrap_flags & set(inspect.signature(run_bootstrap).parameters)

    def test_seed_environment_not_read_without_a_seed(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("MEDSENS_SEED", "123")
        for command in ("oracle", "bootstrap"):
            code, doc = run_json(capsys, *valid_argv(command, tmp_path))
            assert (code, doc["seed"]) == (0, 0)



class TestFlagsBeforeRecords:
    """A flag whose rule needs no data is refused before the records file is read."""

    @pytest.mark.parametrize("argv, message", [
        (("bootstrap", "--replicates", "5"),
         "need at least 100 replicates for percentile intervals"),
        (("bootstrap", "--replicates", "200", "--level", "1.5"),
         "level must be in (0, 1), got 1.5"),
        (("estimate", "--smoothing", "-1"), "smoothing must be a finite nonnegative real, got -1.0"),
        (("bootstrap", "--replicates", "200", "--smoothing", "inf"),
         "smoothing must be a finite nonnegative real, got inf"),
        (("sweep", "--rr-au-grid", "1", "--rr-uy-grid", "1", "--smoothing", "nan"),
         "smoothing must be a finite nonnegative real, got nan"),
        (("cornfield", "--target", "nan"), "target effect must be a real number"),
    ], ids=["replicates", "level", "smoothing", "bootstrap-smoothing", "sweep-smoothing",
            "target"])
    def test_flag_is_checked_before_the_file_is_read(self, capsys, tmp_path, argv, message):
        missing = str(tmp_path / "missing.csv")
        code = main([*argv, "--csv", missing])
        assert (code, *capsys.readouterr()) == (2, "", f"error: {message}\n")
