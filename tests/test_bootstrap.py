import math

import numpy as np
import pytest

from medsens.bootstrap import run_bootstrap
from medsens.bounds import SensitivitySpec
from medsens.effects import observed_effects
from medsens.errors import BadParameter
from medsens.tables import ConditionalModel, RecordTable, estimate_from_records


def worked_model():
    return ConditionalModel(y=[[[0.2, 0.5], [0.4, 0.8]]], w=[[[0.75, 0.25], [0.25, 0.75]]])


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
        # one population as shuffled unit rows and as one weighted row per cell;
        # the a=1 arm of stratum 1 is small, so some replicates are redrawn
        counts = np.array([[[[9, 4], [6, 5]], [[3, 7], [5, 8]]],
                           [[[8, 6], [7, 4]], [[1, 1], [0, 1]]]])
        cells = [(a, m, y, c, int(n)) for (c, a, m, y), n in np.ndenumerate(counts) if n]
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
        obs = observed_effects(model, 0)
        assert math.isclose(stats["nde_rr_lower"][1], obs.nde_rr / 1.5, rel_tol=1e-12)
        assert math.isclose(stats["nie_rr_upper"][1], obs.nie_rr * 1.5, rel_tol=1e-12)
        assert stats["nde_rr_lower"][0] <= stats["nde_rr_lower"][1] <= stats["nde_rr_lower"][2]


class TestCoverage:
    def test_intervals_cover_truth_at_about_nominal_rate(self):
        # data generated from a known model with a 50/50 exposure split;
        # the 95% interval for the ratio-scale direct effect should cover
        # the model's own value in roughly 95% of the meta-replications
        model = worked_model()
        y_tab, w_tab = model.stratum(0)
        truth = observed_effects(model, 0).nde_rr
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
