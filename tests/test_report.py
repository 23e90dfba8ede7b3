"""The writers: the JSON envelope, and CSV where every cell reads exactly as Python's ``repr``."""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import medsens
from medsens import report

LARGEST = sys.float_info.max


def cells(values, dtype=float):
    """The CSV cells of one column of ``values``."""
    return report.to_csv([np.array(values, dtype=dtype)]).splitlines()


def neighbours(x, count=50):
    """``x`` and its ``count`` nearest doubles on each side."""
    out = [x]
    for toward in (-math.inf, math.inf):
        y = x
        for _ in range(count):
            y = math.nextafter(y, toward)
            out.append(y)
    return out


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=64))
def test_float_cells_equal_repr(values):
    assert cells(values) == [repr(v) for v in values]


def test_notation_boundaries_and_special_values():
    values = [0.0, -0.0, math.inf, -math.inf, math.nan]
    for anchor in (1e-4, 1e16, 2.0**53, 5e-324, LARGEST):
        values += neighbours(anchor)
        values += [-v for v in neighbours(anchor)]
    assert len(values) == 5 + 5 * 2 * 101
    assert cells(values) == [repr(v) for v in values]


def test_write_json_builds_the_envelope():
    out = io.StringIO()
    report.write_json(out, "bound", {"bf": math.inf, "rows": (1.5, -math.inf)}, input_digest="ab",
                      seed=3, warnings=("relabeled", "smoothed"))
    text = out.getvalue()
    assert text.endswith("}\n") and not text.endswith("\n\n")
    doc = json.loads(text, parse_constant=lambda name: pytest.fail(f"non-standard {name}"))
    assert list(doc) == sorted(doc) == ["command", "input_digest", "result", "schema", "seed",
                                        "tool_version", "warnings"]
    assert doc == {"command": "bound", "input_digest": "ab", "schema": report.SCHEMA, "seed": 3,
                   "result": {"bf": "inf", "rows": [1.5, "-inf"]},
                   "tool_version": medsens.__version__, "warnings": ["relabeled", "smoothed"]}
    out = io.StringIO()
    report.write_json(out, "parametric", {})
    doc = json.loads(out.getvalue())
    assert (doc["input_digest"], doc["seed"], doc["warnings"], doc["result"]) == (None, None, [], {})


def test_write_json_refuses_nan_and_writes_nothing():
    out = io.StringIO()
    with pytest.raises(ValueError):
        report.write_json(out, "oracle", {"rows": [0.5, math.nan]})
    assert out.getvalue() == ""


def test_int_cells_equal_repr():
    values = [0, 1, -1, 7, 10**16, -(10**16), 2**63 - 1, -(2**63)]
    assert cells(values, dtype=np.int64) == [repr(v) for v in values]


def test_blocks_join_into_one_table():
    ints, floats = np.arange(5), np.array([0.5, 1e-5, 2e16, math.inf, -3.25])
    out = io.StringIO()
    report.write_csv(out, ["c", "x"], ([ints[i:i + 2], floats[i:i + 2]] for i in range(0, 5, 2)))
    rows = [f"{c},{x!r}" for c, x in zip(ints.tolist(), floats.tolist())]
    assert out.getvalue() == "\n".join(["c,x", *rows]) + "\n"


def test_no_rows_gives_the_header_alone():
    out = io.StringIO()
    report.write_csv(out, ["c", "x"], [[np.arange(0), np.zeros(0)]])
    assert out.getvalue() == "c,x\n"


def test_an_error_in_the_first_block_writes_nothing():
    def blocks():
        raise ValueError("no block")
        yield [np.arange(1)]

    out = io.StringIO()
    with pytest.raises(ValueError, match="no block"):
        report.write_csv(out, ["c"], blocks())
    assert out.getvalue() == ""


def test_json_commands_leave_orjson_unimported():
    script = (
        "import contextlib, io, sys\n"
        "import medsens.cli\n"
        "for fmt in ('json', 'csv'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = medsens.cli.main(['parametric', '--format', fmt])\n"
        "    print(code, 'orjson' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert done.stderr == ""
    assert done.stdout.split("\n") == ["0 False", "0 True", ""]
