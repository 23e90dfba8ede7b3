import contextlib
import math
import os
import re
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import tally_records, worked_model
from medsens import tables
from medsens.cli import main
from medsens.errors import (
    BadCode,
    BadParameter,
    EmptyCell,
    NotNormalized,
    OutOfRangeProbability,
    ParseError,
)
from medsens.loglinear import interaction_bound
from medsens.oracle import Scm, sample_scm, validity_battery
from medsens.tables import (
    ConditionalModel,
    RecordTable,
    crossworld_sums,
    estimate_from_records,
    read_records_csv,
    swap_exposure_records,
)


def read_csv_text(tmp_path, text: str) -> RecordTable:
    """:func:`read_records_csv` of a file that holds ``text``."""
    path = tmp_path / "d.csv"
    path.write_text(text)
    return read_records_csv(str(path))


class TestRecordTable:
    """Record data becomes a ``RecordTable``: the reader's rules, then the tensor's own."""

    def test_infers_cardinalities(self, tmp_path):
        t = read_csv_text(tmp_path, "a,m,y,c,count\n0,2,1,1,3\n1,0,0,0,1\n")
        assert t.m_card == 3
        assert t.c_card == 2
        assert t.total() == 4

    def test_rejects_bad_codes(self, tmp_path):
        for line, message in (("-1,0,0,0,1", "exposure code must be 0 or 1, got -1"),
                              ("0,0,0,0,-2", "count must be positive, got -2")):
            with pytest.raises(ParseError, match=f"line 2: {message}$"):
                read_csv_text(tmp_path, f"a,m,y,c,count\n{line}\n")

    @pytest.mark.parametrize("line, message", [
        ("0,-3,0,0", "mediator code must be >= 0, got -3"),
        ("0,1,0,-2", "stratum code must be >= 0, got -2"),
        ("2,0,0,0", "exposure code must be 0 or 1, got 2"),
        ("0,0,-1,0", "outcome code must be 0 or 1, got -1"),
    ], ids=["m", "c", "a", "y"])
    def test_bad_code_names_its_range(self, tmp_path, line, message):
        with pytest.raises(ParseError, match=f"line 3: {re.escape(message)}$"):
            read_csv_text(tmp_path, f"a,m,y,c\n0,0,0,0\n{line}\n")

    def test_no_rows_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="no data rows$"):
            read_csv_text(tmp_path, "a,m,y,c\n\n  \n")

    def test_codes_past_the_cell_cap_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tables, "MAX_CELLS", 4 * 6)  # c_card * 2 * m_card * 2
        assert read_csv_text(tmp_path, "a,m,y,c\n0,2,0,1\n").counts.shape == (2, 2, 3, 2)
        assert read_csv_text(tmp_path, "a,m,y,c\n0,5,0,0\n").m_card == 6
        zeros = mock.Mock(side_effect=AssertionError("allocated"))
        monkeypatch.setattr(tables.np, "zeros", zeros)
        # a code past int64 is past the cap too
        for line, named in (("0,6,0,0", "m=6"), ("0,2,0,2", "c=2"),
                            (f"0,0,0,{10**20}", f"c={10**20}")):
            with pytest.raises(BadCode, match=f"{named}.*recode"):
                read_csv_text(tmp_path, f"a,m,y,c\n{line}\n")
        zeros.assert_not_called()

    def test_bad_counts_are_named(self):
        counts = np.ones((2, 2, 3, 2), dtype=np.int64)
        counts[1, 0, 2, 1] = counts[1, 1, 0, 0] = -1
        message = "record counts must be nonnegative: counts[1, 0, 2, 1] = -1"
        with pytest.raises(BadParameter, match=f"^{re.escape(message)}$"):
            RecordTable(counts)
        with pytest.raises(BadParameter, match="^record counts must have a positive total, got 0$"):
            RecordTable(np.zeros((2, 2, 3, 2), dtype=np.int64))

    @pytest.mark.parametrize("cells", [(tables.INT64_MAX,) * 3 + (1,),
                                       (tables.INT64_MAX, 1, 1, 1)],
                             ids=["wraps-to-positive", "wraps-to-negative"])
    def test_total_beyond_int64_is_rejected_not_wrapped(self, cells):
        # an int64 sum of these counts wraps to 9223372036854775806 and -9223372036854775806
        counts = np.array(cells, dtype=np.int64).reshape(1, 2, 1, 2)
        with pytest.raises(BadParameter, match="^total record count exceeds the int64 range$"):
            RecordTable(counts)

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
        expected = tally_records([(1, 0, 1, 0, 3), (0, 1, 0, 0, 2)])
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

    @pytest.mark.parametrize("field", ["1_0", "+1", "\u0661", "1.0", "- 1"])
    def test_integer_is_ascii_digits_with_an_optional_minus(self, tmp_path, field):
        # Python's int() takes the first three; c=10, c=1 and c=1 would be read
        p = tmp_path / "d.csv"
        p.write_bytes(f"a,m,y,c\n0,0,0,0\n1,0,1,{field}\n".encode("utf-8"))
        with pytest.raises(ParseError, match="line 3: non-integer field"):
            read_records_csv(str(p))

    def test_total_beyond_int64_rejected(self, tmp_path):
        # two cells whose int64 sum wraps, one line past int64, and one cell summed past it
        for lines in (f"1,0,1,0,{2**62}\n0,0,1,0,{2**62}\n", f"1,0,1,0,{2**63}\n",
                      f"1,0,1,0,{2**62}\n" * 2):
            with pytest.raises(BadParameter, match="^total record count exceeds the int64 range$"):
                read_csv_text(tmp_path, "a,m,y,c,count\n" + lines)

    def test_bom_crlf_blank_lines_and_spaces_read_like_the_plain_file(self, tmp_path):
        plain = tmp_path / "plain.csv"
        plain.write_text("a,m,y,c,count\n1,0,1,0,3\n0,1,0,0,2\n1,0,1,0,1\n0,1,0,1,4\n")
        messy = tmp_path / "messy.csv"
        messy.write_bytes(
            "\ufeffa, m ,y,c,count\r\n1, 0,1 ,0,3\r\n\r\n   \r 0,1,0,0 , 2\r"
            ' , ,\t, \r\n"1",0,"1",0,1\r\n\r0 ,1, 0,1,4\r'.encode("utf-8")
        )
        counts = read_records_csv(str(plain)).counts
        assert np.array_equal(read_records_csv(str(messy)).counts, counts)
        assert np.array_equal(counts, tally_records(
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

    @pytest.mark.parametrize("data, line", [
        (b'a,m,y,c\n0,0,0,0\n1,"0\n",1,0\n0,0,0,0\n', 3),
        (b'a,m,y,c\r0,0,0,0\r1,0,0,0\r0,0,1,"0\r\n"\r', 4),
        (b'a,"m\r\n",y,c\r\n0,0,0,0\r\n', 1),
        (b'a,m,y,c\n0,0,0,0\n1,0,1,"0', 3),
    ], ids=["record", "record-lone-cr", "header", "unterminated-last-line"])
    def test_quoted_line_break_names_its_line(self, tmp_path, data, line):
        # a record is one line, even where a quoted break only pads an integer
        p = tmp_path / "d.csv"
        p.write_bytes(data)
        with pytest.raises(ParseError, match=f"line {line}: a quoted field runs past the end"):
            read_records_csv(str(p))

    def test_ingest_memory_is_bounded_by_one_block(self, tmp_path):
        # every line is distinct, so only the block size keeps the tally small
        p = tmp_path / "d.csv"
        rows = (f"{i % 2},{i % 4},{i // 2 % 2},{i % 3},{i + 1}" for i in range(20_000))
        p.write_text("\n".join(["a,m,y,c,count", *rows]) + "\n")
        tracemalloc.start()
        try:
            assert read_records_csv(str(p)).total() == 20_000 * 20_001 // 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    @pytest.mark.parametrize("source", ["records", "estimates"])
    def test_sweep_memory_is_bounded_by_one_block(self, tmp_path, source):
        # 250 x 250 x 3 = 187,500 and 400 x 400 = 160,000 rows: a table formed whole takes 14.6
        # and 11.2 MB, one block under 2 MB; a 250-point estimates table would take only 4.4 MB
        p = tmp_path / "d.csv"
        p.write_text("a,m,y,c,count\n" + "".join(
            f"{a},{m},{y},{c},{1 + (a + m + y + c) % 5}\n"
            for c in range(3) for a in (0, 1) for m in range(3) for y in (0, 1)))
        points = {"records": 250, "estimates": 400}[source]
        grid = ",".join(repr(1.0 + i / 8) for i in range(points))
        flags = ["--csv", str(p)] if source == "records" else ["--nde-rr", "1.72", "--nie-rr", "1.3"]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                assert main(["sweep", *flags, "--rr-au-grid", grid, "--rr-uy-grid", grid]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 4 << 20

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
#: malformed a,m,y,c fields: bad exposure, bad outcome, negative code, non-integers, too few
BAD_FIELDS = ("2,0,0,0", "0,0,3,0", "0,-1,0,0", "0,0,x,0", "0,1_0,0,0", "+1,0,0,0", "0,0,0")


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
        model = estimate_from_records(tally_records(rows))
        y, w = model.y[0], model.w[0]
        assert y[1][1] == 3 / 4
        assert tuple(w[1]) == (2 / 6, 4 / 6)

    def test_duplicate_rows_merge(self):
        rows = [(1, 0, 1, 0, 2), (0, 0, 1, 0, 1), (0, 0, 0, 0, 1)]
        split = [(1, 0, 1, 0, 1), (1, 0, 1, 0, 1), (0, 0, 1, 0, 1), (0, 0, 0, 0, 1)]
        a = estimate_from_records(tally_records(rows))
        b = estimate_from_records(tally_records(split))
        assert np.array_equal(a.y, b.y) and np.array_equal(a.w, b.w)

    def test_matches_independent_tally(self):
        # second, independently coded counting pass over a random table
        rng = np.random.default_rng(7)
        rows = [
            (int(rng.integers(2)), int(rng.integers(3)), int(rng.integers(2)),
             int(rng.integers(2)), int(rng.integers(1, 5)))
            for _ in range(200)
        ]
        records = tally_records(rows)
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
        records = tally_records([(1, 0, 1, 0, 1)])
        with pytest.raises(EmptyCell):
            estimate_from_records(records)

    def test_empty_required_cell_raises(self):
        # m=1 occurs under a=0, so pr(Y=1|a=1,m=1) is needed but inestimable
        rows = [(0, 0, 1, 0, 1), (0, 1, 1, 0, 1), (1, 0, 1, 0, 1)]
        with pytest.raises(EmptyCell, match="a=1, m=1"):
            estimate_from_records(tally_records(rows))

    def test_unweighted_cell_is_filled_not_raised(self):
        # m=1 never occurs under a=0: pr(Y=1|a=0,m=1) carries no weight
        rows = [(0, 0, 1, 0, 2), (1, 0, 1, 0, 1), (1, 1, 0, 0, 1)]
        model = estimate_from_records(tally_records(rows))
        assert model.y[0, 0, 1] == 0.0

    def test_smoothing_rescues_empty_cells(self):
        # no records under a=0; the second row makes m_card 2
        records = tally_records([(1, 0, 1, 0, 1), (1, 1, 0, 0, 1)])
        model = estimate_from_records(records, smoothing=1.0)
        y, w = model.y[0], model.w[0]
        assert tuple(w[0]) == (0.5, 0.5)
        assert tuple(y[0]) == (0.5, 0.5)

    def test_large_smoothing_tends_uniform(self):
        rows = [(a, m, y, 0, 1 + a + m + y) for a in (0, 1) for m in (0, 1, 2) for y in (0, 1)]
        model = estimate_from_records(tally_records(rows), smoothing=1e9)
        y, w = model.y[0], model.w[0]
        for a in (0, 1):
            for m in range(3):
                assert math.isclose(w[a][m], 1 / 3, abs_tol=1e-6)
                assert math.isclose(y[a][m], 0.5, abs_tol=1e-6)

    def test_missing_stratum_code_raises_whatever_the_smoothing(self):
        # c codes {0, 2}: stratum 1 has no records and must not become a null effect
        rows = [(a, 0, y, c, 1) for a in (0, 1) for y in (0, 1) for c in (0, 2)]
        records = tally_records(rows)
        for k in (0.0, 1.0):
            with pytest.raises(EmptyCell, match="stratum c=1"):
                estimate_from_records(records, smoothing=k)

    def test_negative_smoothing_rejected(self):
        records = tally_records([(0, 0, 0, 0, 1), (1, 0, 0, 0, 1)])
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

    @pytest.mark.parametrize("y, w", [
        ([[[0.2, 0.5], [0.4, 0.8]]], [[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]]),
        ([[[0.2], [0.4], [0.6]]], [[[1.0], [1.0], [1.0]]]),
        ([[0.2, 0.5], [0.4, 0.8]], [[0.5, 0.5], [0.5, 0.5]]),
    ], ids=["mismatched", "three-arms", "no-strata"])
    def test_rejects_bad_shapes(self, y, w):
        with pytest.raises(BadParameter, match="one shape"):
            ConditionalModel(y=y, w=w)

    def test_mean_mode_allows_values_above_one(self):
        model = ConditionalModel(
            y=[[[0.2, 0.5], [1.2, 0.8]]], w=[[[0.5, 0.5], [0.5, 0.5]]], mode="mean"
        )
        assert math.isfinite(crossworld_sums(model.y[0], model.w[0])[2])


#: each type that validates a table: how it is built from its tables, valid tables, and
#: per table the entry a test makes NaN with its name, and the row it puts off by 1e-6
#: with its name (None for a table without rows)
TABLE_OWNERS = [
    ("ConditionalModel", ConditionalModel,
     {"y": [[[0.2, 0.5], [0.4, 0.8]]] * 2, "w": [[[0.5, 0.5], [0.25, 0.75]]] * 2},
     {"y": ((1, 0, 1), "pr(Y=1|a=0,m=1,c=1)", None, None),
      "w": ((1, 0, 1), "pr(m=1|a=0,c=1)", (1, 0), "pr(m|a=0,c=1)")}),
    ("Scm", Scm,
     {"u_given_a": ((0.4, 0.6), (0.4, 0.6)),
      "m_given": (((0.75, 0.25), (0.75, 0.25)), ((0.25, 0.75), (0.25, 0.75))),
      "y_given": (((0.2, 0.2), (0.5, 0.5)), ((0.4, 0.4), (0.8, 0.8)))},
     {"u_given_a": ((1, 1), "pr(u=1|A=1)", (1,), "pr(u|A=1)"),
      "m_given": ((1, 0, 1), "pr(m=1|a=1,u=0)", (1, 0), "pr(m|a=1,u=0)"),
      "y_given": ((1, 0, 1), "pr(Y=1|a=1,m=0,u=1)", None, None)}),
    ("interaction_bound", interaction_bound,
     {"p": ((0.2, 0.4), (0.3, 0.9))},
     {"p": ((1, 0), "pr(m|a=1,u=0)", None, None)}),
]


def table_cases(rows: bool) -> list:
    """One case per table: build, valid tables, table name, and its entry or row with the name."""
    return [pytest.param(build, valid, name, *cells[name][2:] if rows else cells[name][:2],
                         id=f"{owner}.{name}")
            for owner, build, valid, cells in TABLE_OWNERS for name in cells
            if not rows or cells[name][2] is not None]


class TestOneTableCheck:
    """Every table is checked by ``tables.check_table``, so its errors read alike."""

    @pytest.mark.parametrize("build, valid, name, entry, named", table_cases(rows=False))
    def test_nan_entry_is_out_of_range_and_named(self, build, valid, name, entry, named):
        tables = {k: np.array(v, dtype=float) for k, v in valid.items()}
        build(**tables)
        tables[name][entry] = math.nan
        with pytest.raises(OutOfRangeProbability, match=f"^{re.escape(named)} = nan$"):
            build(**tables)

    @pytest.mark.parametrize("build, valid, name, row, named", table_cases(rows=True))
    def test_row_off_by_a_millionth_is_not_normalized_and_named(self, build, valid, name, row,
                                                                 named):
        tables = {k: np.array(v, dtype=float) for k, v in valid.items()}
        tables[name][row + (0,)] += 1e-6
        with pytest.raises(NotNormalized, match=rf"^{re.escape(named)} sums to \S+, not 1$"):
            build(**tables)


#: each caller that takes an outcome mode, building from the mode it is given; the
#: ConditionalModel's y holds 1.5, a mean but not a probability, so no mode may be guessed
MODE_TAKERS = {
    "ConditionalModel": lambda mode: ConditionalModel(
        y=[[[0.2, 0.5], [1.5, 0.8]]], w=[[[0.5, 0.5], [0.5, 0.5]]], mode=mode),
    "Scm": lambda mode: Scm(**TABLE_OWNERS[1][2], mode=mode),
    "sample_scm": lambda mode: sample_scm(np.random.default_rng(0), mode=mode),
    "validity_battery": lambda mode: validity_battery(
        1, 1, mode=mode, ratio_iterations=1, sharpness_iterations=1),
}


class TestOneOutcomeModeRule:
    """Every outcome mode is read by one rule, which refuses all but its two modes."""

    @pytest.mark.parametrize("mode", ["probabilty", "Mean", "means"])
    @pytest.mark.parametrize("build", MODE_TAKERS.values(), ids=list(MODE_TAKERS))
    def test_misspelled_mode_is_refused(self, build, mode):
        named = f"outcome mode must be 'probability' or 'mean', got {mode!r}"
        with pytest.raises(BadParameter, match=f"^{re.escape(named)}$"):
            build(mode)


class TestSwapExposure:
    def test_involution(self):
        records = tally_records([(1, 0, 1, 0, 2), (0, 1, 0, 0, 1), (1, 1, 1, 1, 3)])
        twice = swap_exposure_records(swap_exposure_records(records))
        assert np.array_equal(twice.counts, records.counts)

    def test_records_swap(self):
        records = tally_records([(1, 0, 1, 0, 2), (0, 0, 0, 0, 1)])
        swapped = swap_exposure_records(records)
        expected = tally_records([(0, 0, 1, 0, 2), (1, 0, 0, 0, 1)])
        assert np.array_equal(swapped.counts, expected.counts)
