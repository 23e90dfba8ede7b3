import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import plain_bounds, stratum_effects, tally_records, worked_model
from medsens import bootstrap, tables
from medsens.bootstrap import EFFECT_STATS, run_bootstrap
from medsens.bounds import BOUND_STATS, SensitivitySpec, bounding_factor
from medsens.cli import main
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


def reject_constant(token):
    raise ValueError(f"report is not strict JSON: {token}")


def one_at_a_time(records, replicates, seed, smoothing=0.0, spec=None, level=0.95):
    """Reference bootstrap: one multinomial draw, estimate and report per replicate."""

    def statistics(model):
        out = {}
        for c in range(records.c_card):
            eff = stratum_effects(model, c)
            out[c] = {name: eff[name] for name in EFFECT_STATS}
            if spec is not None:
                out[c].update(plain_bounds(eff, bounding_factor(spec)))
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
        except (EmptyCell, ZeroDenominator):
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
        records = tally_records([(1, 0, 1, 0, 5), (0, 0, 1, 0, 5)])
        result = run_bootstrap(records, replicates=100, seed=1)
        for stat, (lo, point, hi) in result.intervals[0].items():
            assert lo == point == hi, stat

    def test_deterministic_given_seed(self):
        records = tally_records(
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
        records = tally_records(rows)
        result = run_bootstrap(records, replicates=100, seed=2)
        assert result.degenerate_redraws > 0
        assert all(len(v) == 3 for v in result.intervals[0].values())

    def test_grouping_of_rows_does_not_change_results(self):
        # one population as shuffled unit rows and as one weighted row per cell
        cells = [(a, m, y, c, int(n)) for (c, a, m, y), n in np.ndenumerate(REDRAW_COUNTS) if n]
        units = [(a, m, y, c, 1) for a, m, y, c, n in cells for _ in range(n)]
        units = [units[i] for i in np.random.default_rng(0).permutation(len(units))]
        spec = SensitivitySpec(2.0, 2.0)
        grouped = run_bootstrap(tally_records(cells), replicates=100, seed=6, spec=spec)
        unit = run_bootstrap(tally_records(units), replicates=100, seed=6, spec=spec)
        assert grouped.degenerate_redraws > 0
        assert unit.degenerate_redraws == grouped.degenerate_redraws
        assert unit.intervals == grouped.intervals

    def test_replicate_floor(self):
        records = tally_records([(1, 0, 1, 0, 5), (0, 0, 1, 0, 5)])
        with pytest.raises(BadParameter):
            run_bootstrap(records, replicates=50)

    @pytest.mark.parametrize("replicates", [10**13, 2**62], ids=["no-memory", "past-index-range"])
    def test_a_table_too_large_to_allocate_is_named(self, replicates):
        # both fail when the table is allocated, before anything is drawn
        records = tally_records([(1, 0, 1, 0, 5), (0, 0, 1, 0, 5)])
        named = f"replicates={replicates} needs a table of {replicates} x 1 strata x 6 statistics"
        with pytest.raises(BadParameter, match=f"^{named} floats"):
            run_bootstrap(records, replicates=replicates)

    def test_bound_statistics_match_adjusted_point(self):
        rows = [(a, m, y, 0, 5 + a + 2 * m + 3 * y) for a in (0, 1) for m in (0, 1) for y in (0, 1)]
        records = tally_records(rows)
        spec = SensitivitySpec(2.0, 3.0)
        result = run_bootstrap(records, replicates=100, seed=3, spec=spec)
        stats = result.intervals[0]
        obs = stratum_effects(estimate_from_records(records), 0)
        assert math.isclose(stats["nde_rr_lower"][1], obs["nde_rr"] / 1.5, rel_tol=1e-12)
        assert math.isclose(stats["nie_rr_upper"][1], obs["nie_rr"] * 1.5, rel_tol=1e-12)
        assert stats["nde_rr_lower"][0] <= stats["nde_rr_lower"][1] <= stats["nde_rr_lower"][2]

    def test_infinite_parameters_report_infinite_limits(self, capsys, tmp_path):
        # at bf = inf every replicate's nie_rr_upper is inf, where the lerp gives inf - inf
        path = tmp_path / "d.csv"
        path.write_text("a,m,y,c,count\n" + "".join(
            f"{a},{m},{y},0,{count}\n" for (a, m, y), count in np.ndenumerate(REDRAW_COUNTS[0])))
        code = main(["bootstrap", "--csv", str(path), "--replicates", "200", "--seed", "0",
                     "--rr-au", "inf", "--rr-uy", "inf"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
        stats = doc["result"]["strata"][0]["stats"]
        assert stats.pop("nie_rr_upper") == {"lower": "inf", "point": "inf", "upper": "inf"}
        with np.errstate(invalid="ignore"):  # the reference's own lerp meets inf - inf
            intervals, _ = one_at_a_time(RecordTable(REDRAW_COUNTS[:1]), 200, 0,
                                         spec=SensitivitySpec(math.inf, math.inf))
        assert stats == {name: dict(zip(("lower", "point", "upper"), values))
                         for name, values in intervals[0].items() if name != "nie_rr_upper"}
        assert stats["nde_rr_lower"] == {"lower": 0.0, "point": 0.0, "upper": 0.0}

    def test_a_huge_bound_factor_reports_finite_json(self, capsys, tmp_path):
        # bf = 1.77e308 takes some replicates' nie_rr_upper past the float range, and the
        # lerp between a finite one and inf gave NaN, which strict JSON refuses
        path = tmp_path / "d.csv"
        path.write_text("a,m,y,c,count\n0,0,0,0,60\n0,0,1,0,40\n0,1,0,0,50\n0,1,1,0,50\n"
                        "1,0,0,0,40\n1,0,1,0,60\n1,1,0,0,45\n1,1,1,0,55\n")
        code = main(["bootstrap", "--csv", str(path), "--replicates", "200", "--seed", "1",
                     "--rr-au", "1.77e308", "--rr-uy", "inf"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
        upper = doc["result"]["strata"][0]["stats"]["nie_rr_upper"]
        assert math.isfinite(upper["lower"]) and upper["upper"] == "inf"


class TestBatches:
    # the budget, one that takes seven replicates, and one below a replicate's cells
    @pytest.mark.parametrize("batch_cells", [tables.BATCH_CELLS, 7 * REDRAW_COUNTS.size, 1])
    @pytest.mark.parametrize("smoothing, spec", [
        (0.0, None), (0.0, SensitivitySpec(2.0, 3.0)), (0.5, SensitivitySpec(1.5, 4.0)),
    ])
    def test_batches_equal_one_replicate_at_a_time(self, monkeypatch, batch_cells, smoothing, spec):
        monkeypatch.setattr(tables, "BATCH_CELLS", batch_cells)
        records = RecordTable(REDRAW_COUNTS)
        result = run_bootstrap(records, replicates=300, seed=6, smoothing=smoothing, spec=spec)
        intervals, redraws = one_at_a_time(records, 300, 6, smoothing, spec)
        assert result.intervals == intervals
        assert result.degenerate_redraws == redraws
        assert redraws > 0 or smoothing > 0

    def test_zero_denominator_replicates_are_redrawn_like_empty_cells(self):
        # stratum 2 has one unexposed y=1 record; strata 0 and 1 have four, which
        # some replicates of the batch also lose: each such replicate has n00 = 0
        counts = np.zeros((3, 2, 2, 2), dtype=np.int64)
        counts[..., 0], counts[..., 1] = 5, 2
        counts[2, 0, :, 1] = [1, 0]
        records = RecordTable(counts)
        intervals, redraws = one_at_a_time(records, 100, seed=0)
        result = run_bootstrap(records, replicates=100, seed=0)
        assert result.degenerate_redraws == redraws > 0
        assert result.intervals == intervals


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


#: the values one lane of a replicate table draws from: one repeated infinity,
#: infinities mixed with NaN or with each other, and anything at all
LANE_VALUES = [
    st.just(math.inf), st.just(-math.inf), st.sampled_from([math.inf, math.nan]),
    st.sampled_from([-math.inf, math.inf]),
    st.sampled_from([0.0, -0.0, 1.0, math.inf, -math.inf, math.nan])
    | st.floats(allow_nan=True, allow_infinity=True),
]


@st.composite
def replicate_tables(draw):
    """A table ``x[replicate, c, stat]`` whose lanes each draw from one of ``LANE_VALUES``."""
    n, c_card, s_card = draw(st.integers(1, 300)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    lanes = [draw(hnp.arrays(float, n, elements=draw(st.sampled_from(LANE_VALUES))))
             for _ in range(c_card * s_card)]
    return np.stack(lanes, axis=-1).reshape(n, c_card, s_card)


def limits_and_numpy(x, level):
    """``(ours, theirs)`` for one table: ``_limits`` on a copy (it partitions its
    argument) and ``np.percentile`` at the same two percentages on the untouched table."""
    q = np.array([100.0 * (1.0 - level) / 2.0, 100.0 - 100.0 * (1.0 - level) / 2.0])
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, as numpy's lerp meets it
        theirs = np.percentile(x, q, axis=0)
    return bootstrap._limits(x.copy(), level), theirs


class TestPercentiles:
    @given(replicate_tables(), st.floats(0.5, 0.999))
    def test_equal_numpy_bit_for_bit(self, x, level):
        # numpy's bits wherever its limit is finite or its lane holds a NaN: equal values
        # (0.0 and -0.0, NaNs of any payload) must land where numpy puts them
        ours, theirs = limits_and_numpy(x, level)
        numpy = np.isfinite(theirs) | np.isnan(x).any(axis=0)
        assert ours[numpy].tobytes() == theirs[numpy].tobytes()

    @given(replicate_tables(), st.floats(0.5, 0.999))
    def test_equal_numpy_or_the_exact_neighbour(self, x, level):
        # where numpy's limit is not finite and its lane holds no NaN, numpy's lerp met a
        # difference that is not finite, and the limit is the exact interpolation of the
        # neighbours from np.sort: low * (1 - w) + high * w where both are finite (their
        # difference overflowed), else the lower one at weight 0 or when it is -inf, and
        # the upper one otherwise, as exact interpolation gives next to an infinity
        ours, theirs = limits_and_numpy(x, level)
        q = np.array([100.0 * (1.0 - level) / 2.0, 100.0 - 100.0 * (1.0 - level) / 2.0])
        n, ordered = len(x), np.sort(x, axis=0)
        index = (n - 1) * (q / 100)
        below = np.floor(index).astype(int)
        low, high = ordered[below], ordered[np.minimum(below + 1, n - 1)]
        w = (index - below).reshape(2, 1, 1)
        numpy = np.isfinite(theirs) | np.isnan(x).any(axis=0)
        with np.errstate(invalid="ignore"):  # inf * 0 in the lanes next to an infinity
            interpolated = low * (1 - w) + high * w
        exact = np.where(np.isfinite(low) & np.isfinite(high), interpolated,
                         np.where((w == 0) | (low == -np.inf), low, high))
        assert (ours[~numpy] == exact[~numpy]).all()

    @given(replicate_tables(), st.floats(0.5, 0.999))
    def test_limits_give_a_constant_infinity_as_both_limits(self, x, level):
        # a lane that is one infinity throughout gives that infinity as both limits,
        # where numpy's lerp gives inf + w * (inf - inf) = NaN
        x[:, 0, 0] = math.inf if x[0, 0, 0] > 0 else -math.inf
        ours = bootstrap._limits(x.copy(), level)
        assert ours[:, 0, 0].tolist() == [x[0, 0, 0]] * 2
        constant = np.isinf(x[0]) & (x == x[0]).all(axis=0)
        assert (ours[:, constant] == x[0][constant]).all()

    def test_a_finite_neighbour_of_an_infinite_replicate_is_kept(self):
        # the upper limit of 201 replicates falls exactly on the 2.0, next to an inf:
        # numpy's lerp gives 2.0 + 0 * inf = NaN
        x = np.array([1.0] * 195 + [2.0] + [math.inf] * 5)
        assert bootstrap._limits(x, 0.95).tolist() == [1.0, 2.0]

    def test_finite_neighbours_whose_difference_overflows_are_interpolated(self):
        # 1e308 - (-1e308) passes the float range: numpy gives [inf, -inf], out of order
        assert bootstrap._limits(np.array([-1e308, 1e308]), 0.5).tolist() == [-5e307, 5e307]

    def test_bootstrap_leaves_numpy_ma_unimported(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,m,y,c,count\n" + "".join(
            f"{a},{m},{y},0,{count}\n" for (a, m, y), count in np.ndenumerate(REDRAW_COUNTS[0])))
        script = (
            "import contextlib, io, sys\n"
            "import medsens.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = medsens.cli.main(['bootstrap', '--csv', {str(path)!r}, '--replicates', '200',"
            " '--rr-au', '2', '--rr-uy', '2'])\n"
            "print(code, 'numpy.ma' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env)
        assert done.stderr == ""
        assert done.stdout == "0 False\n"


class TestMemory:
    def test_peak_is_one_replicate_table_and_one_small_batch(self):
        # 48 cells (3 strata, 4 mediator levels): the 2000 x 3 x 10 table of replicate
        # statistics is 480 kB, and a batch of count tensors and its estimates must
        # stay small next to it
        counts = (np.arange(48).reshape(3, 2, 4, 2) % 7 + 5) * 11
        records, spec = RecordTable(counts), SensitivitySpec(2.0, 2.0)
        run_bootstrap(records, replicates=100, spec=spec)  # first-call set-up is not the table's
        table = 2000 * 3 * len(EFFECT_STATS + BOUND_STATS) * 8
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run_bootstrap(records, replicates=2000, seed=1, spec=spec)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak <= 2.5 * table, f"peak {peak} B is {peak / table:.2f} replicate tables"


class TestCoverage:
    def test_intervals_cover_truth_at_about_nominal_rate(self):
        # data generated from a known model with a 50/50 exposure split;
        # the 95% interval for the ratio-scale direct effect should cover
        # the model's own value in roughly 95% of the meta-replications
        model = worked_model()
        y_tab, w_tab = (table[0] for table in model)
        truth = stratum_effects(model, 0)["nde_rr"]
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
            records = tally_records(rows)
            result = run_bootstrap(records, replicates=150, seed=rep)
            lo, _, hi = result.intervals[0]["nde_rr"]
            covered += lo <= truth <= hi
        assert 0.88 <= covered / meta <= 1.0
