"""The README's examples hold, so a name or flag they use cannot vanish unnoticed."""

import argparse
import re
from pathlib import Path

import pytest

from medsens import oracle, tables
from medsens.cli import _build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The first python block of the README's ``## Library`` section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    lines = ["a,m,y,c,count"]
    for c in range(2):
        for a in range(2):
            for m in range(2):
                for y in range(2):
                    lines.append(f"{a},{m},{y},{c},{10 + (3 * c + 5 * a + 7 * m + 11 * y) % 13}")
    (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
    monkeypatch.chdir(tmp_path)
    exec(compile(library_example(), str(README), "exec"), {})
    out = capsys.readouterr().out
    assert "True" in out and "unexposed_nde_rr_lower_vs_true" in out


def test_command_line_flags_are_taken():
    """Every flag on a line of the ``## Command line`` block is one its subcommand takes."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    shown = 0
    for line in block.splitlines():
        command = line.split()[1]
        taken = {flag for action in sub.choices[command]._actions for flag in action.option_strings}
        flags = re.findall(r"--[a-z][a-z-]*", line.split("#")[0])
        assert set(flags) <= taken, f"{command} does not take {sorted(set(flags) - taken)}"
        shown += len(flags)
    assert shown > 20


#: each number the README quotes for a module constant or a batch size: its value, and a
#: pattern of the quoting text whose group is the number. A stage's batch size, which
#: tables.BATCH_CELLS sets, is keyed by the name of the constant that once set it alone.
QUOTED_CONSTANTS = {
    "tables.BATCH_CELLS": (tables.BATCH_CELLS, r"`tables\.BATCH_CELLS` \(([\d,]+)\)"),
    "bootstrap.BATCH_CELLS": (tables.BATCH_CELLS,
                              r"at most\s+`tables\.BATCH_CELLS` \(([\d,]+)\) count-tensor cells"),
    # pr(m | a, u) holds 2 * u * m cells per model
    "oracle.BATTERY_CELLS": (tables.BATCH_CELLS // 2,
                             r"random battery runs in blocks of ([\d,]+)\s+confounder-by-mediator"),
    # 10 recipe models of 2 x 2 x 2 cells per iteration
    "oracle.SHARPNESS_BATCH": (tables.BATCH_CELLS // (10 * 8),
                               r"sharpness search in\s+blocks of ([\d,]+) iterations"),
    # six confounder levels, one mediator level
    "oracle.RATIO_BATCH": (tables.BATCH_CELLS // (2 * 6),
                           r"scalar\s+inequality in blocks of ([\d,]+) instances"),
    "oracle.MAX_CARD_PRODUCT": (oracle.MAX_CARD_PRODUCT,
                                r"exceeds ([\d,]+)\s+\(`oracle\.MAX_CARD_PRODUCT`\)"),
}


@pytest.mark.parametrize("value, quote", QUOTED_CONSTANTS.values(), ids=list(QUOTED_CONSTANTS))
def test_quoted_constant_matches_the_code(value, quote):
    """A constant that changes without the sentence that quotes it fails here."""
    quoted = re.findall(quote, README.read_text(encoding="utf-8"))
    assert quoted, f"the README no longer quotes it as {quote!r}"
    assert [int(number.replace(",", "")) for number in quoted] == [value] * len(quoted)
