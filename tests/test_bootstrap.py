import math
import re
from fractions import Fraction

import numpy as np
import pytest

from helpers import stratum_effects, worked_model
from medsens import bootstrap
from medsens.bootstrap import BOUND_STATS, EFFECT_STATS, run_bootstrap
from medsens.bounds import (
    SensitivitySpec,
    adjust_nde_rr,
    adjust_nie_rr,
    bound_nde_rd,
    bound_nie_rd,
    bounding_factor,
)
from medsens.errors import BadParameter, DegenerateResample, EmptyCell, ZeroDenominator
from medsens.tables import RecordTable, estimate_from_records


#: two strata; the a=1 arm of stratum 1 is small, so some replicates are redrawn
REDRAW_COUNTS = np.array([[[[9, 4], [6, 5]], [[3, 7], [5, 8]]],
                          [[[8, 6], [7, 4]], [[1, 1], [0, 1]]]])


def fragile_strata():
    """Five strata whose exposed arm is one record: about 9 in 10 resamples drop one of them."""
    counts = np.zeros((5, 2, 1, 2), dtype=np.int64)
    counts[:, 0, 0, :] = 10
    counts[:, 1, 0, 1] = 1
    return RecordTable(counts)


def one_at_a_time(records, replicates, seed, smoothing=0.0, spec=None, level=0.95):
    """Reference bootstrap: one multinomial draw, estimate and report per replicate."""

    def statistics(model):
        out = {}
        for c in range(model.c_card):
            eff = stratum_effects(model, c)
            out[c] = {name: getattr(eff, name) for name in EFFECT_STATS}
            if spec is not None:
                bf = bounding_factor(spec)
                bounds = (adjust_nde_rr(eff.nde_rr, bf), adjust_nie_rr(eff.nie_rr, bf),
                          bound_nde_rd(eff.n10, eff.n00, bf), bound_nie_rd(eff.n10, eff.n11, bf))
                out[c].update(zip(BOUND_STATS, bounds))
        return out

    rng = np.random.default_rng(seed)
    total = records.total()
    probs = records.counts.ravel() / total
    budget = bootstrap.MAX_REDRAW_FACTOR * replicates
    draws, redraws = [], 0
    while len(draws) < replicates:
        replicate = RecordTable(rng.multinomial(total, probs).reshape(records.counts.shape))
        try:
            draws.append(statistics(estimate_from_records(replicate, smoothing)))
        except EmptyCell:
            redraws += 1
            if redraws > budget:
                raise DegenerateResample(f"{redraws} over {budget}") from None
    point = statistics(estimate_from_records(records, smoothing))
    lo_q = 100.0 * (1.0 - level) / 2.0
    intervals = {}
    for c, stats in point.items():
        intervals[c] = {}
        for name, value in stats.items():
            lo, hi = np.percentile([draw[c][name] for draw in draws], [lo_q, 100.0 - lo_q])
            intervals[c][name] = (lo, value, hi)
    return intervals, redraws


class TestBasics:
    def test_zero_variance_collapses_to_point(self):
        records = RecordTable.from_rows([(1, 0, 1, 0, 5), (0, 0, 1, 0, 5)], m_card=1)
        result = run_bootstrap(records, replicates=100, seed=1)
        for stat, (lo, point, hi) in result.intervals[0].items():
            assert lo == point == hi, stat

    def test_deterministic_given_seed(self):
        records = RecordTable.from_rows(
            [(a, m, y, 0, 3 + a + 2 * m + y) for a in (0, 1) for m in (0, 1) for y in (0, 1)]
        )
        r1 = run_bootstrap(records, replicates=150, seed=9)
        r2 = run_bootstrap(records, replicates=150, seed=9)
        assert r1 == r2
        r3 = run_bootstrap(records, replicates=150, seed=10)
        assert r3 != r1

    def test_degenerate_replicates_are_redrawn_and_counted(self):
        # the a=1 arm holds a single record; many resamples drop it entirely
        rows = [(0, 0, 1, 0, 30), (0, 0, 0, 0, 30), (1, 0, 1, 0, 1)]
        records = RecordTable.from_rows(rows, m_card=1)
        result = run_bootstrap(records, replicates=100, seed=2)
        assert result.degenerate_redraws > 0
        assert all(len(v) == 3 for v in result.intervals[0].values())

    def test_grouping_of_rows_does_not_change_results(self):
        # one population as shuffled unit rows and as one weighted row per cell
        cells = [(a, m, y, c, int(n)) for (c, a, m, y), n in np.ndenumerate(REDRAW_COUNTS) if n]
        units = [(a, m, y, c, 1) for a, m, y, c, n in cells for _ in range(n)]
        units = [units[i] for i in np.random.default_rng(0).permutation(len(units))]
        spec = SensitivitySpec(2.0, 2.0)
        grouped = run_bootstrap(RecordTable.from_rows(cells), replicates=100, seed=6, spec=spec)
        unit = run_bootstrap(RecordTable.from_rows(units), replicates=100, seed=6, spec=spec)
        assert grouped.degenerate_redraws > 0
        assert unit.degenerate_redraws == grouped.degenerate_redraws
        assert unit.intervals == grouped.intervals

    def test_replicate_floor(self):
        records = RecordTable.from_rows([(1, 0, 1, 0, 5), (0, 0, 1, 0, 5)], m_card=1)
        with pytest.raises(BadParameter):
            run_bootstrap(records, replicates=50)

    def test_bound_statistics_match_adjusted_point(self):
        rows = [(a, m, y, 0, 5 + a + 2 * m + 3 * y) for a in (0, 1) for m in (0, 1) for y in (0, 1)]
        records = RecordTable.from_rows(rows)
        spec = SensitivitySpec(2.0, 3.0)
        result = run_bootstrap(records, replicates=100, seed=3, spec=spec)
        stats = result.intervals[0]
        model = estimate_from_records(records)
        obs = stratum_effects(model, 0)
        assert math.isclose(stats["nde_rr_lower"][1], obs.nde_rr / 1.5, rel_tol=1e-12)
        assert math.isclose(stats["nie_rr_upper"][1], obs.nie_rr * 1.5, rel_tol=1e-12)
        assert stats["nde_rr_lower"][0] <= stats["nde_rr_lower"][1] <= stats["nde_rr_lower"][2]


class TestBatches:
    @pytest.mark.parametrize("batch_cells", [bootstrap.BATCH_CELLS, 7 * REDRAW_COUNTS.size])
    @pytest.mark.parametrize("smoothing, spec", [
        (0.0, None), (0.0, SensitivitySpec(2.0, 3.0)), (0.5, SensitivitySpec(1.5, 4.0)),
    ])
    def test_batches_equal_one_replicate_at_a_time(self, monkeypatch, batch_cells, smoothing, spec):
        monkeypatch.setattr(bootstrap, "BATCH_CELLS", batch_cells)
        records = RecordTable(REDRAW_COUNTS)
        result = run_bootstrap(records, replicates=300, seed=6, smoothing=smoothing, spec=spec)
        intervals, redraws = one_at_a_time(records, 300, 6, smoothing, spec)
        assert result.intervals == intervals
        assert result.degenerate_redraws == redraws
        assert redraws > 0 or smoothing > 0

    def test_zero_denominator_names_the_first_replicate_that_has_one(self):
        # stratum 2 has one unexposed y=1 record; strata 0 and 1 have four, which
        # some replicates of the batch also lose
        counts = np.zeros((3, 2, 2, 2), dtype=np.int64)
        counts[..., 0], counts[..., 1] = 5, 2
        counts[2, 0, :, 1] = [1, 0]
        records = RecordTable(counts)
        with pytest.raises(ZeroDenominator) as reference:
            one_at_a_time(records, 100, seed=0)
        assert "c=2" in str(reference.value)
        with pytest.raises(ZeroDenominator, match=f"^{re.escape(str(reference.value))}$"):
            run_bootstrap(records, replicates=100, seed=0)


class TestRedrawBudget:
    @pytest.mark.parametrize("seed", range(4))
    def test_raises_when_the_reference_exceeds_the_budget(self, seed):
        # seeds 0 and 3 stay within the budget; seeds 1 and 2 exceed it
        records = fragile_strata()
        try:
            intervals, redraws = one_at_a_time(records, 100, seed)
        except DegenerateResample:
            with pytest.raises(DegenerateResample, match="exceeded the redraw budget 1000$"):
                run_bootstrap(records, replicates=100, seed=seed)
        else:
            result = run_bootstrap(records, replicates=100, seed=seed)
            assert (result.intervals, result.degenerate_redraws) == (intervals, redraws)

    def test_budget_boundary_is_exact(self, monkeypatch):
        records = fragile_strata()
        redraws = run_bootstrap(records, replicates=100, seed=0).degenerate_redraws
        assert 0 < redraws <= 1000
        monkeypatch.setattr(bootstrap, "MAX_REDRAW_FACTOR", Fraction(redraws, 100))
        assert run_bootstrap(records, replicates=100, seed=0).degenerate_redraws == redraws
        monkeypatch.setattr(bootstrap, "MAX_REDRAW_FACTOR", Fraction(redraws - 1, 100))
        message = f"^{redraws} degenerate replicates exceeded the redraw budget {redraws - 1}$"
        with pytest.raises(DegenerateResample, match=message):
            run_bootstrap(records, replicates=100, seed=0)


class TestCoverage:
    def test_intervals_cover_truth_at_about_nominal_rate(self):
        # data generated from a known model with a 50/50 exposure split;
        # the 95% interval for the ratio-scale direct effect should cover
        # the model's own value in roughly 95% of the meta-replications
        model = worked_model()
        y_tab, w_tab = model.y[0], model.w[0]
        truth = stratum_effects(model, 0).nde_rr
        cells = []
        probs = []
        for a in (0, 1):
            for m in (0, 1):
                for y in (0, 1):
                    share = y_tab[a][m] if y == 1 else 1.0 - y_tab[a][m]
                    cells.append((a, m, y, 0))
                    probs.append(0.5 * w_tab[a][m] * share)
        probs_arr = np.array(probs)
        rng = np.random.default_rng(20260808)
        n, meta, covered = 4000, 200, 0
        for rep in range(meta):
            counts = rng.multinomial(n, probs_arr)
            rows = [(a, m, y, c, int(k)) for (a, m, y, c), k in zip(cells, counts) if k > 0]
            records = RecordTable.from_rows(rows, m_card=2, c_card=1)
            result = run_bootstrap(records, replicates=150, seed=rep)
            lo, _, hi = result.intervals[0]["nde_rr"]
            covered += lo <= truth <= hi
        assert 0.88 <= covered / meta <= 1.0
