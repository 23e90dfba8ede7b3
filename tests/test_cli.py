import json
import math

import numpy as np
import pytest

from medsens.bounds import SensitivitySpec, bound_report, bounding_factor
from medsens import report
from medsens.cli import main
from medsens.effects import observed_effects, observed_effects_all
from medsens.loglinear import collider_ratio_grid
from medsens.tables import (
    ConditionalModel,
    estimate_from_records,
    expand_to_records,
    read_records_csv,
)


def worked_model():
    return ConditionalModel(y=[[[0.2, 0.5], [0.4, 0.8]]], w=[[[0.75, 0.25], [0.25, 0.75]]])


def write_worked_csv(path, denominator=1000):
    records = expand_to_records(worked_model(), denominator)
    lines = ["a,m,y,c,count"]
    lines += [f"{a},{m},{y},{c},{n}" for (c, a, m, y), n in np.ndenumerate(records.counts) if n]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def reject_constant(token):
    raise ValueError(f"report is not strict JSON: {token}")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestEstimate:
    def test_worked_example_counts(self, capsys, tmp_path):
        csv = write_worked_csv(tmp_path / "d.csv")
        code, doc = run_json(capsys, "estimate", "--csv", csv)
        assert code == 0
        row = doc["result"]["strata"][0]
        assert math.isclose(row["nde_rr"], 1.818182, abs_tol=1e-3)
        model = estimate_from_records(read_records_csv(csv))
        assert row["nde_rr"] == observed_effects(model, 0).nde_rr

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

    def test_oversized_category_code_exits_2(self, capsys, tmp_path):
        # past int64, and a count tensor past the address space
        for code in (10**20, 2**62):
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

    def test_matches_library_exactly(self, capsys, tmp_path):
        csv = write_worked_csv(tmp_path / "d.csv")
        code, doc = run_json(capsys, "bound", "--csv", csv, "--rr-au", "2", "--rr-uy", "3")
        model = estimate_from_records(read_records_csv(csv))
        rep = bound_report(model, 0, SensitivitySpec(2, 3))
        row = doc["result"]["strata"][0]
        assert row["bf"] == rep.bf
        assert row["nde_rr_lower"] == rep.nde_rr_lower
        assert row["nde_rd_lower"] == rep.nde_rd_lower
        assert row["cornfield_rr"]["max_must_exceed"] == rep.cornfield_rr.max_must_exceed
        assert doc["result"]["envelopes"]["nde_rr_lower"]["heterogeneous"] == rep.nde_rr_lower

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


class TestCornfield:
    def test_partner_solve(self, capsys):
        code, doc = run_json(capsys, "cornfield", "--nde-rr", "1.34", "--fixed-param", "1.40")
        assert code == 0
        assert math.isclose(doc["result"]["required_partner"], 8.93, abs_tol=5e-3)

    def test_infinite_observed_effect_exits_2(self, capsys):
        assert main(["cornfield", "--nde-rr", "inf"]) == 2
        assert "--nde-rr" in capsys.readouterr().err

    def test_infeasible_partner_warns_and_exits_3(self, capsys):
        code, doc = run_json(capsys, "cornfield", "--nde-rr", "1.72", "--fixed-param", "1.40")
        assert code == 3
        assert doc["result"]["required_partner"] is None
        assert any("no finite partner" in w for w in doc["warnings"])

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
        e = observed_effects_all(estimate_from_records(read_records_csv(csv)))[0]
        assert float(values["bf"]) == 1.0
        assert math.isclose(float(values["nde_rr_lower"]), e.nde_rr, rel_tol=1e-12)
        assert math.isclose(float(values["nde_rd_lower"]), e.nde_rd, abs_tol=1e-12)

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

    def test_input_hashed_once(self, capsys, tmp_path, monkeypatch):
        csv = write_worked_csv(tmp_path / "d.csv")
        digest_file = report.digest_file
        calls = []
        monkeypatch.setattr(report, "digest_file",
                            lambda path: calls.append(path) or digest_file(path))
        code, doc = run_json(capsys, "sweep", "--csv", csv, "--format", "json",
                             "--rr-au-grid", "1,2", "--rr-uy-grid", "1,3")
        assert code == 0
        assert calls == [csv]
        assert doc["input_digest"] == digest_file(csv)

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
        assert "unexposed_nde_rr_ratio_vs_bf" in doc["result"]["bound_validity"]["worst_slack"]

    def test_seed_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("MEDSENS_SEED", "123")
        code, doc = run_json(
            capsys, "oracle", "--iterations", "10",
            "--ratio-iterations", "5", "--sharpness-iterations", "1",
        )
        assert doc["seed"] == 123

    def test_bad_seed_in_environment_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("MEDSENS_SEED", "abc")
        code = main(["oracle", "--iterations", "5", "--ratio-iterations", "5",
                     "--sharpness-iterations", "1"])
        assert code == 2
        assert "MEDSENS_SEED" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--iterations", "0"), ("--iterations", "-5"), ("--u-card", "0"), ("--m-card", "0"),
        ("--ratio-iterations", "0"), ("--sharpness-iterations", "0"),
    ])
    def test_counts_below_one_exit_2(self, capsys, flag, value):
        code = main(["oracle", "--ratio-iterations", "5", "--sharpness-iterations", "1",
                     flag, value])
        assert code == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err


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
        code = main(["bootstrap", "--csv", csv, "--replicates", "120", "--rr-au", "2"])
        assert code == 2

    def test_exhausted_redraw_budget_exits_2(self, capsys, tmp_path):
        # eight strata whose exposed arm is one record: nearly every resample drops one
        path = tmp_path / "d.csv"
        path.write_text("a,m,y,c,count\n" + "".join(
            f"0,0,0,{c},10\n0,0,1,{c},10\n1,0,1,{c},1\n" for c in range(8)))
        code = main(["bootstrap", "--csv", str(path), "--replicates", "100"])
        assert code == 2
        assert "1001 degenerate replicates exceeded the redraw budget 1000" in capsys.readouterr().err


class TestFormatGuard:
    def test_csv_rejected_for_nested_reports(self, capsys):
        code = main(["cornfield", "--nde-rr", "1.5", "--format", "csv"])
        assert code == 2
        assert "csv output is not available" in capsys.readouterr().err
