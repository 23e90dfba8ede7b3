import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import worked_model
from medsens import tables
from medsens.errors import (
    BadCode,
    BadParameter,
    EmptyCell,
    NotNormalized,
    OutOfRangeProbability,
    ParseError,
)
from medsens.tables import (
    ConditionalModel,
    RecordTable,
    crossworld_sums,
    estimate_from_records,
    read_records_csv,
    swap_exposure_records,
)


class TestRecordTable:
    def test_infers_cardinalities(self):
        t = RecordTable.from_rows([(0, 2, 1, 1, 3), (1, 0, 0, 0, 1)])
        assert t.m_card == 3
        assert t.c_card == 2
        assert t.total() == 4

    def test_rejects_bad_codes(self):
        with pytest.raises(BadCode):
            RecordTable.from_rows([(2, 0, 0, 0, 1)], m_card=1, c_card=1)
        with pytest.raises(BadCode):
            RecordTable.from_rows([(0, 1, 0, 0, 1)], m_card=1, c_card=1)
        with pytest.raises(BadParameter):
            RecordTable.from_rows([(0, 0, 0, 0, 0)], m_card=1, c_card=1)


    def test_codes_past_the_cell_cap_rejected(self, monkeypatch):
        monkeypatch.setattr(tables, "MAX_CELLS", 4 * 6)  # c_card * 2 * m_card * 2
        assert RecordTable.from_rows([(0, 2, 0, 1, 1)]).counts.shape == (2, 2, 3, 2)
        assert RecordTable.from_rows([(0, 5, 0, 0, 1)]).m_card == 6
        zeros = mock.Mock(side_effect=AssertionError("allocated"))
        monkeypatch.setattr(tables.np, "zeros", zeros)
        for row, named in (((0, 6, 0, 0, 1), "m=6"), ((0, 2, 0, 2, 1), "c=2")):
            with pytest.raises(BadCode, match=f"{named}.*recode"):
                RecordTable.from_rows([row])
        with pytest.raises(BadCode, match="recode"):
            RecordTable.from_rows([(0, 0, 0, 0, 1)], m_card=7)
        zeros.assert_not_called()

    def test_counts_are_checked_and_frozen(self):
        for bad in (np.zeros((1, 2, 1, 2), int), -np.ones((1, 2, 1, 2), int),
                    np.ones((1, 3, 1, 2), int), np.ones((2, 1, 2)), np.ones((1, 2, 1, 2))):
            with pytest.raises(BadParameter):
                RecordTable(bad)
        counts = np.ones((1, 2, 1, 2), dtype=np.int32)
        t = RecordTable(counts)
        counts[0, 0, 0, 0] = 9
        assert t.counts.dtype == np.int64 and t.total() == 4
        with pytest.raises(ValueError):
            t.counts[0, 0, 0, 0] = 9


class TestCsv:
    def test_roundtrip(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,m,y,c,count\n1,0,1,0,3\n0,1,0,0,2\n")
        t = read_records_csv(str(p))
        expected = RecordTable.from_rows([(1, 0, 1, 0, 3), (0, 1, 0, 0, 2)])
        assert np.array_equal(t.counts, expected.counts)

    def test_count_defaults_to_one(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,m,y,c\n1,0,1,0\n1,0,1,0\n")
        t = read_records_csv(str(p))
        assert t.total() == 2

    def test_bad_code_names_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,m,y,c\n1,0,1,0\n3,0,1,0\n")
        with pytest.raises(ParseError, match="line 3"):
            read_records_csv(str(p))

    def test_non_integer_field(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,m,y,c\n1,0,x,0\n")
        with pytest.raises(ParseError, match="line 2"):
            read_records_csv(str(p))

    def test_total_beyond_int64_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text(f"a,m,y,c,count\n1,0,1,0,{2**62}\n0,0,1,0,{2**62}\n")
        with pytest.raises(BadParameter, match="int64"):
            read_records_csv(str(p))

    def test_bom_crlf_blank_lines_and_spaces_read_like_the_plain_file(self, tmp_path):
        plain = tmp_path / "plain.csv"
        plain.write_text("a,m,y,c,count\n1,0,1,0,3\n0,1,0,0,2\n1,0,1,0,1\n0,1,0,1,4\n")
        messy = tmp_path / "messy.csv"
        messy.write_bytes(
            "\ufeffa, m ,y,c,count\r\n1, 0,1 ,0,3\r\n\r\n   \r\n 0,1,0,0 , 2\r\n"
            " , ,\t, \r\n1,0,1,0,1\r\n\r\n0 ,1, 0,1,4\r\n".encode("utf-8")
        )
        counts = read_records_csv(str(plain)).counts
        assert np.array_equal(read_records_csv(str(messy)).counts, counts)
        assert np.array_equal(counts, RecordTable.from_rows(
            [(1, 0, 1, 0, 4), (0, 1, 0, 0, 2), (0, 1, 0, 1, 4)]).counts)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ParseError, match="header"):
            read_records_csv(str(p))

    @pytest.mark.parametrize("data, line", [
        (b"a,m,y,c\n0,0,0,0\n1,\xff,1,0\n", 3),
        (b"a,m,y,c\n0,0,0,0\n1,0,1,0\n\xfe\n1,2,x,0\n", 4),
        (b"a,m,\xffy,c\n0,0,0,0\n", 1),
    ], ids=["record", "blank-like-record", "header"])
    def test_non_utf8_bytes_name_their_line(self, tmp_path, data, line):
        p = tmp_path / "d.csv"
        p.write_bytes(data)
        with pytest.raises(ParseError, match=f"line {line}:"):
            read_records_csv(str(p))

    def test_oversized_field_names_its_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,m,y,c\n0,0,0,0\n1," + "1" * 200_000 + ",1,0\n0,1,0,0\n")
        with pytest.raises(ParseError, match="line 3:.*field limit"):
            read_records_csv(str(p))

    def test_bad_line_before_an_oversized_field_is_named_first(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,m,y,c\n0,0,0,0\n7,0,1,0\n1," + "1" * 200_000 + ",1,0\n")
        with pytest.raises(ParseError, match="line 3:"):
            read_records_csv(str(p))


ROW = st.tuples(
    st.integers(0, 1), st.integers(0, 2), st.integers(0, 1), st.integers(0, 2), st.integers(1, 4)
)
#: malformed a,m,y,c fields: bad exposure, bad outcome, negative code, non-integer, too few
BAD_FIELDS = ("2,0,0,0", "0,0,3,0", "0,-1,0,0", "0,0,x,0", "0,0,0")


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(ROW, min_size=1, max_size=20), data=st.data())
def test_csv_ingest_matches_independent_tally(rows, data):
    # each row is written as unit lines or split across duplicate weighted lines
    unit = data.draw(st.booleans())
    lines = []
    for a, m, y, c, n in rows:
        if unit:
            lines += [f"{a},{m},{y},{c}"] * n
        else:
            first = data.draw(st.integers(0, n - 1))
            lines += [f"{a},{m},{y},{c},{k}" for k in (first, n - first) if k]
    lines = data.draw(st.permutations(lines))
    header = "a,m,y,c" if unit else "a,m,y,c,count"

    tally = np.zeros((max(r[3] for r in rows) + 1, 2, max(r[1] for r in rows) + 1, 2), int)
    a, m, y, c, n = np.array(rows).T
    np.add.at(tally, (c, a, m, y), n)

    # ingest blocks from one record to more than the file holds
    block = data.draw(st.integers(1, 100))
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(tables, "READ_BLOCK", block):
        path = os.path.join(tmp, "d.csv")
        with open(path, "w") as fh:
            fh.write("\n".join([header, *lines]) + "\n")
        counts = read_records_csv(path).counts
        assert np.array_equal(counts, tally)
        assert np.array_equal(counts, RecordTable.from_rows(rows).counts)

        # the bad line is written twice; the first one is named
        bad_lines = list(BAD_FIELDS) if unit else [f + ",1" for f in BAD_FIELDS] + ["0,0,0,0,0"]
        bad = data.draw(st.integers(0, len(lines) - 1))
        lines[bad] = data.draw(st.sampled_from(bad_lines))
        lines.insert(data.draw(st.integers(bad + 1, len(lines))), lines[bad])
        with open(path, "w") as fh:
            fh.write("\n".join([header, *lines]) + "\n")
        with pytest.raises(ParseError, match=f"line {bad + 2}:"):
            read_records_csv(path)


class TestEstimate:
    def test_direct_frequency(self):
        rows = [
            (1, 1, 1, 0, 3),
            (1, 1, 0, 0, 1),
            (1, 0, 1, 0, 1),
            (1, 0, 0, 0, 1),
            (0, 0, 1, 0, 2),
            (0, 1, 0, 0, 2),
        ]
        model = estimate_from_records(RecordTable.from_rows(rows))
        y, w = model.y[0], model.w[0]
        assert y[1][1] == 3 / 4
        assert tuple(w[1]) == (2 / 6, 4 / 6)

    def test_duplicate_rows_merge(self):
        rows = [(1, 0, 1, 0, 2), (0, 0, 1, 0, 1), (0, 0, 0, 0, 1)]
        split = [(1, 0, 1, 0, 1), (1, 0, 1, 0, 1), (0, 0, 1, 0, 1), (0, 0, 0, 0, 1)]
        a = estimate_from_records(RecordTable.from_rows(rows, m_card=1, c_card=1))
        b = estimate_from_records(RecordTable.from_rows(split, m_card=1, c_card=1))
        assert np.array_equal(a.y, b.y) and np.array_equal(a.w, b.w)

    def test_matches_independent_tally(self):
        # second, independently coded counting pass over a random table
        rng = np.random.default_rng(7)
        rows = [
            (int(rng.integers(2)), int(rng.integers(3)), int(rng.integers(2)),
             int(rng.integers(2)), int(rng.integers(1, 5)))
            for _ in range(200)
        ]
        records = RecordTable.from_rows(rows, m_card=3, c_card=2)
        model = estimate_from_records(records)
        for code in range(model.c_card):
            y_tab, w_tab = model.y[code], model.w[code]
            for a in (0, 1):
                assert math.isclose(sum(w_tab[a]), 1.0, abs_tol=1e-12)
                arm = [(m, y, n) for (aa, m, y, c, n) in rows if aa == a and c == code]
                total = sum(n for _, _, n in arm)
                for m in range(3):
                    cell = sum(n for mm, _, n in arm if mm == m)
                    assert math.isclose(w_tab[a][m], cell / total, abs_tol=1e-12)
                    if cell:
                        ones = sum(n for mm, y, n in arm if mm == m and y == 1)
                        assert math.isclose(y_tab[a][m], ones / cell, abs_tol=1e-12)

    def test_empty_arm_raises(self):
        records = RecordTable.from_rows([(1, 0, 1, 0, 1)], m_card=1, c_card=1)
        with pytest.raises(EmptyCell):
            estimate_from_records(records)

    def test_empty_required_cell_raises(self):
        # m=1 occurs under a=0, so pr(Y=1|a=1,m=1) is needed but inestimable
        rows = [(0, 0, 1, 0, 1), (0, 1, 1, 0, 1), (1, 0, 1, 0, 1)]
        with pytest.raises(EmptyCell, match="a=1, m=1"):
            estimate_from_records(RecordTable.from_rows(rows))

    def test_unweighted_cell_is_filled_not_raised(self):
        # m=1 never occurs under a=0: pr(Y=1|a=0,m=1) carries no weight
        rows = [(0, 0, 1, 0, 2), (1, 0, 1, 0, 1), (1, 1, 0, 0, 1)]
        model = estimate_from_records(RecordTable.from_rows(rows))
        assert model.y[0, 0, 1] == 0.0

    def test_smoothing_rescues_empty_cells(self):
        records = RecordTable.from_rows([(1, 0, 1, 0, 1)], m_card=2, c_card=1)
        model = estimate_from_records(records, smoothing=1.0)
        y, w = model.y[0], model.w[0]
        assert tuple(w[0]) == (0.5, 0.5)
        assert tuple(y[0]) == (0.5, 0.5)

    def test_large_smoothing_tends_uniform(self):
        rows = [(a, m, y, 0, 1 + a + m + y) for a in (0, 1) for m in (0, 1, 2) for y in (0, 1)]
        model = estimate_from_records(RecordTable.from_rows(rows), smoothing=1e9)
        y, w = model.y[0], model.w[0]
        for a in (0, 1):
            for m in range(3):
                assert math.isclose(w[a][m], 1 / 3, abs_tol=1e-6)
                assert math.isclose(y[a][m], 0.5, abs_tol=1e-6)

    def test_missing_stratum_code_raises_whatever_the_smoothing(self):
        # c codes {0, 2}: stratum 1 has no records and must not become a null effect
        rows = [(a, 0, y, c, 1) for a in (0, 1) for y in (0, 1) for c in (0, 2)]
        records = RecordTable.from_rows(rows)
        for k in (0.0, 1.0):
            with pytest.raises(EmptyCell, match="stratum c=1"):
                estimate_from_records(records, smoothing=k)

    def test_negative_smoothing_rejected(self):
        records = RecordTable.from_rows([(0, 0, 0, 0, 1), (1, 0, 0, 0, 1)])
        with pytest.raises(BadParameter):
            estimate_from_records(records, smoothing=-1.0)


class TestValidate:
    def test_accepts_normalized(self):
        _, n00, n11 = crossworld_sums(worked_model().y[0], worked_model().w[0])
        marg = (n00, n11)  # the outcome marginals pr(Y=1|a), a = 0, 1
        assert math.isclose(marg[0], 0.275, abs_tol=1e-15)
        assert math.isclose(marg[1], 0.7, abs_tol=1e-15)

    def test_rejects_unnormalized_mediator(self):
        with pytest.raises(NotNormalized, match="a=0"):
            ConditionalModel(y=[[[0.2, 0.5], [0.4, 0.8]]], w=[[[0.3, 0.8], [0.5, 0.5]]])

    def test_out_of_range_probability_mode(self):
        with pytest.raises(OutOfRangeProbability, match="a=1,m=0"):
            ConditionalModel(y=[[[0.2, 0.5], [1.2, 0.8]]], w=[[[0.5, 0.5], [0.5, 0.5]]])

    def test_mediator_probability_may_round_above_one(self):
        model = ConditionalModel(y=[[[0.2], [0.4]]], w=[[[1.0000000000000002], [1.0]]])
        assert model.w[0, 0, 0] > 1.0

    def test_mediator_probability_above_one_rejected(self):
        with pytest.raises(OutOfRangeProbability, match="m=0"):
            ConditionalModel(y=[[[0.2, 0.5], [0.4, 0.8]]], w=[[[1.0 + 1e-9, -1e-9], [0.5, 0.5]]])

    def test_mean_mode_allows_values_above_one(self):
        model = ConditionalModel(
            y=[[[0.2, 0.5], [1.2, 0.8]]], w=[[[0.5, 0.5], [0.5, 0.5]]], mode="mean"
        )
        assert math.isfinite(crossworld_sums(model.y[0], model.w[0])[2])


class TestSwapExposure:
    def test_involution(self):
        records = RecordTable.from_rows([(1, 0, 1, 0, 2), (0, 1, 0, 0, 1), (1, 1, 1, 1, 3)])
        twice = swap_exposure_records(swap_exposure_records(records))
        assert np.array_equal(twice.counts, records.counts)

    def test_records_swap(self):
        records = RecordTable.from_rows([(1, 0, 1, 0, 2), (0, 0, 0, 0, 1)])
        swapped = swap_exposure_records(records)
        expected = RecordTable.from_rows([(0, 0, 1, 0, 2), (1, 0, 0, 0, 1)])
        assert np.array_equal(swapped.counts, expected.counts)
