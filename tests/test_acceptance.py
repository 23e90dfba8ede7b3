"""Acceptance gate: every release criterion, one test each, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.

Criterion 1b checks the explain-away thresholds at the lower confidence
limit 1.34: both parameters must exceed 1.34, and the larger must exceed the
exact closed form 1.34 + sqrt(1.34 * 0.34) = 2.0149815 (to 1e-12), the value
t at which bf(t, t) equals 1.34.  The published reference 2.02 differs
because its square root was taken of the product rounded to three decimals:
1.34 + sqrt(0.456) = 2.01528, which rounds to 2.02, whereas the exact value
rounds to 2.01.  A confounder at bf(2.02, 2.02) = 1.3422 explains away
1.3422, not 1.34, so the published figure is reported but not asserted.
"""

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from helpers import bernoulli_instance, rr_au_posterior_per_mediator
from medsens.bounds import SensitivitySpec, bounding_factor, cornfield_rr, required_partner
from medsens.cli import main
from medsens.errors import Infeasible
from medsens.loglinear import (
    DEFAULT_CONFOUNDER_COEFFS,
    DEFAULT_INTERCEPT_EXPOSURE_PAIRS,
    collider_ratio_grid,
)
from medsens.loglinear import interaction_bound
from medsens.oracle import (
    EQUIV_TOL,
    rr_au_mediator_ratio,
    rr_au_posterior,
    sample_ratio_instances,
    sample_scm,
    sharpness_search,
    verify_bounds,
)

SEED = 20260808


def report_line(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# shared oracle sweeps (criteria 4, 7, 8, 9 draw on the same model streams)
# ---------------------------------------------------------------------------


@dataclass
class SweepResults:
    prob_violations: int = 0
    mean_violations: int = 0
    unexposed_violations: int = 0
    equivalence_max: float = 0.0
    interaction_violations: int = 0
    #: (observed, true or None), each a batch: dicts from effect name to per-model arrays
    effect_pairs: list = field(default_factory=list)
    elapsed: float = 0.0


#: the sweep's model groups, 5000 models each: (outcome mode, exposure dependent on U, m_card)
SWEEP_GROUPS = tuple(
    (mode, dependent, m_card)
    for mode, dependent in (("probability", False), ("mean", False), ("probability", True))
    for m_card in (2, 3)
)


def _all_hold(rep) -> np.ndarray:
    """Per model of a checked batch: whether every check holds."""
    return np.logical_and.reduce([c.holds for c in rep.checks])


def _interaction_violations(scm) -> int:
    """Models of the batch whose posterior collider ratio exceeds the model-free cap at some m."""
    violations = np.zeros(scm.batch_shape, dtype=bool)
    for m, values in rr_au_posterior_per_mediator(scm).items():
        violations |= values > interaction_bound(scm.m_given[..., m]) * (1 + 1e-12)
    return int(violations.sum())


@pytest.fixture(scope="session")
def sweep() -> SweepResults:
    t0 = time.time()
    res = SweepResults()
    # one generator per group, so that each group is drawn and checked as one batch
    streams = np.random.SeedSequence(SEED).spawn(len(SWEEP_GROUPS))
    for (mode, dependent, m_card), stream in zip(SWEEP_GROUPS, streams):
        scm = sample_scm(
            np.random.default_rng(stream), u_card=2, m_card=m_card, mode=mode,
            dependent_exposure=dependent, shape=(5000,),
        )
        rep = verify_bounds(scm)
        if dependent:
            res.unexposed_violations += int(np.count_nonzero(~_all_hold(rep)))
            res.effect_pairs.append((rep.observed, None))
            continue
        res.effect_pairs.append((rep.observed, rep.true))
        if mode == "mean":
            res.mean_violations += int(np.count_nonzero(~_all_hold(rep)))
            continue
        res.prob_violations += int(np.count_nonzero(~_all_hold(rep)))
        # two definitions of the collider parameter, and the model-free cap
        post = rr_au_posterior(scm)
        ratio = rr_au_mediator_ratio(scm)
        res.equivalence_max = max(
            res.equivalence_max, float(np.max(np.abs(post - ratio) / np.maximum(1.0, post)))
        )
        res.interaction_violations += _interaction_violations(scm)
    res.elapsed = time.time() - t0
    return res


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01a_cornfield_point_estimate():
    th = cornfield_rr(1.72, 1.0)
    ok = abs(th.both_must_exceed - 1.72) <= 0.005 and abs(th.max_must_exceed - 2.83) <= 0.005
    report_line("1a", ok, f"cornfield(1.72) = ({th.both_must_exceed:.6f}, {th.max_must_exceed:.6f}) vs (1.72, 2.83) +-0.005")
    assert ok


def test_criterion_01b_cornfield_lower_confidence_limit():
    r = 1.34
    th = cornfield_rr(r, 1.0)
    t = th.max_must_exceed
    closed_form = r + math.sqrt(r * (r - 1.0))
    # defining property: a confounder with both parameters at t explains r away
    # exactly, and any slightly weaker one does not
    bf_at_t = bounding_factor(SensitivitySpec(t, t))
    t_below = t * (1.0 - 1e-9)
    bf_below = bounding_factor(SensitivitySpec(t_below, t_below))
    ok_both = th.both_must_exceed == r
    ok_max = abs(t - closed_form) <= 1e-12
    ok_bf = abs(bf_at_t - r) <= 1e-12 and bf_below < r
    report_line(
        "1b",
        ok_both and ok_max and ok_bf,
        f"cornfield(1.34) = ({th.both_must_exceed:.6f}, {t:.7f}) vs (1.34, "
        f"1.34+sqrt(1.34*0.34) = {closed_form:.7f}) at 1e-12; bf(t, t) = {bf_at_t:.12f}, "
        f"bf at t*(1-1e-9) = {bf_below:.12f}; the published 2.02 takes sqrt of the "
        f"rounded product 0.456 (1.34+sqrt(0.456) = {r + math.sqrt(0.456):.5f}), "
        f"and bf(2.02, 2.02) = {bounding_factor(SensitivitySpec(2.02, 2.02)):.5f}",
    )
    assert ok_both
    assert ok_max
    assert ok_bf


def test_criterion_02_required_partner(capsys):
    partner = required_partner(1.40, 1.34)
    ok_value = abs(partner - 8.93) <= 0.005
    with pytest.raises(Infeasible):
        required_partner(1.40, 1.72)
    # the infeasibility must be documented in the report warnings
    code = main(["cornfield", "--nde-rr", "1.72", "--fixed-param", "1.40"])
    doc = json.loads(capsys.readouterr().out)
    ok_doc = (
        code == 3
        and doc["result"]["required_partner"] is None
        and any("no finite partner" in w for w in doc["warnings"])
    )
    ok = ok_value and ok_doc
    with capsys.disabled():
        report_line(
            "2",
            ok,
            f"required_partner(1.40, 1.34) = {partner:.6f} vs 8.93 +-0.005; "
            f"required_partner(1.40, 1.72) infeasible, documented in warnings, exit 3",
        )
    assert ok


# Reference grids: collider parameter divided by exp(beta3) and by exp(beta1),
# rows indexed by (beta0, beta1), columns by beta3 = 0.1 .. 0.7.
RATIO_TO_EXP_BETA3 = (
    (0.91, 0.82, 0.74, 0.68, 0.61, 0.56, 0.50),
    (0.91, 0.82, 0.75, 0.68, 0.62, 0.56, 0.51),
    (0.91, 0.82, 0.75, 0.68, 0.62, 0.56, 0.51),
    (0.91, 0.83, 0.75, 0.69, 0.63, 0.57, 0.52),
    (0.91, 0.83, 0.76, 0.70, 0.64, 0.58, 0.54),
    (0.92, 0.84, 0.77, 0.71, 0.66, 0.61, 0.56),
)
RATIO_TO_EXP_BETA1 = (
    (0.82, 0.82, 0.82, 0.82, 0.83, 0.83, 0.83),
    (0.82, 0.82, 0.82, 0.83, 0.83, 0.83, 0.84),
    (0.67, 0.68, 0.68, 0.68, 0.69, 0.69, 0.69),
    (0.67, 0.68, 0.68, 0.69, 0.69, 0.70, 0.71),
    (0.50, 0.50, 0.51, 0.52, 0.52, 0.53, 0.54),
    (0.50, 0.51, 0.52, 0.53, 0.54, 0.55, 0.56),
)


def test_criterion_03_reference_table_reproduction(capsys):
    t0 = time.time()
    # the closed form is confirmed against the brute-force definition within
    # EQUIV_TOL = 1e-10 inside collider_ratio_grid; a disagreement raises
    assert EQUIV_TOL == 1e-10
    grid = collider_ratio_grid()
    assert len(grid) == 42
    # the subcommand output must carry the same 42 rows
    code = main(["parametric"])
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 43
    mismatches = 0
    worst = 0.0
    for i, (b0, b1) in enumerate(DEFAULT_INTERCEPT_EXPOSURE_PAIRS):
        for j, b3 in enumerate(DEFAULT_CONFOUNDER_COEFFS):
            row = grid[i * 7 + j]
            assert (row["beta0"], row["beta1"], row["beta3"]) == (b0, b1, b3)
            for key, table in (
                ("ratio_to_exp_beta3", RATIO_TO_EXP_BETA3),
                ("ratio_to_exp_beta1", RATIO_TO_EXP_BETA1),
            ):
                got = row[key]
                want = table[i][j]
                worst = max(worst, abs(got - want))
                if round(got, 2) != want:
                    mismatches += 1
    ok = mismatches == 0
    with capsys.disabled():
        report_line(
            "3",
            ok,
            f"84/84 grid entries reproduce to two decimals "
            f"(worst abs deviation {worst:.5f}), brute-force confirmed at 1e-10, "
            f"{time.time() - t0:.2f}s",
        )
    assert ok


def test_criterion_04_bound_validity(sweep):
    ok = sweep.prob_violations == 0 and sweep.mean_violations == 0
    report_line(
        "4",
        ok,
        f"10000 probability-mode + 10000 mean-mode models (binary U, M in {{2,3}}): "
        f"{sweep.prob_violations} + {sweep.mean_violations} violations at 1e-10 slack "
        f"(sweep total {sweep.elapsed:.1f}s)",
    )
    assert ok


def test_criterion_05_sharpness():
    t0 = time.time()
    rep = sharpness_search(seed=SEED, iterations=200)
    values = tuple(rep.best_attainment.values())
    ok = all(0.999 <= v <= 1.0 + 1e-10 for v in values)
    report_line(
        "5",
        ok,
        "best attainment (nde_rr, nie_rr, nde_rd, nie_rd) = "
        + ", ".join(f"{v:.6f}" for v in values)
        + f" over {rep.evaluated} recipe models, {time.time() - t0:.2f}s",
    )
    assert ok


def test_criterion_06_discrete_ratio_oracle():
    t0 = time.time()
    rng = np.random.default_rng(SEED + 3)
    report = verify_bounds(sample_ratio_instances(rng, 10_000))
    violations = sum(int(np.count_nonzero(~c.holds)) for c in report.checks)
    worst_gap = 0.0
    for _ in range(500):
        density_ratio = float(rng.uniform(1.0, 50.0))
        spread = float(rng.uniform(1.0, 50.0))
        check = verify_bounds(bernoulli_instance(density_ratio, spread)).checks[0]
        worst_gap = max(worst_gap, abs(check.lhs - check.rhs) / max(1.0, check.rhs))
    ok = violations == 0 and worst_gap <= 1e-12
    report_line(
        "6",
        ok,
        f"10000 random instances: {violations} violations; two-point family "
        f"attains equality within {worst_gap:.2e} (<= 1e-12), {time.time() - t0:.2f}s",
    )
    assert ok


def test_criterion_07_parameter_definition_equivalence(sweep):
    ok = sweep.equivalence_max <= 1e-10 and sweep.interaction_violations == 0
    report_line(
        "7",
        ok,
        f"posterior vs mediator-ratio forms agree within {sweep.equivalence_max:.2e} "
        f"(<= 1e-10) on 10000 models; interaction-bound cap violations: "
        f"{sweep.interaction_violations}",
    )
    assert ok


def test_criterion_08_unexposed_population_bound(sweep):
    ok = sweep.unexposed_violations == 0
    report_line(
        "8",
        ok,
        f"10000 exposure-dependent models: {sweep.unexposed_violations} violations "
        f"of the unexposed-population bounds",
    )
    assert ok


def test_criterion_09_decomposition_identities(sweep):
    worst_rr = 0.0
    worst_rd = 0.0
    for obs, true in sweep.effect_pairs:
        for eff in (obs, true):
            if eff is None:
                continue
            rel_rr = np.abs(eff["te_rr"] - eff["nde_rr"] * eff["nie_rr"]) / np.abs(eff["te_rr"])
            worst_rr = max(worst_rr, float(rel_rr.max()))
            worst_rd = max(worst_rd,
                           float(np.abs(eff["te_rd"] - (eff["nde_rd"] + eff["nie_rd"])).max()))
    ok = worst_rr <= 1e-12 and worst_rd <= 1e-12
    report_line(
        "9",
        ok,
        f"decompositions on every observed and true effect bundle encountered: "
        f"worst ratio-scale rel err {worst_rr:.2e}, worst difference-scale abs err "
        f"{worst_rd:.2e} (<= 1e-12)",
    )
    assert ok


def test_criterion_10_determinism(capsys):
    args = [
        "oracle", "--seed", str(SEED), "--iterations", "300",
        "--ratio-iterations", "300", "--sharpness-iterations", "10",
    ]
    code1 = main(list(args))
    out1 = capsys.readouterr().out
    code2 = main(list(args))
    out2 = capsys.readouterr().out
    ok = code1 == code2 == 0 and out1.encode() == out2.encode()
    with capsys.disabled():
        report_line(
            "10",
            ok,
            f"two oracle runs with seed {SEED}: byte-identical = "
            f"{out1.encode() == out2.encode()} ({len(out1.encode())} bytes)",
        )
    assert ok
