"""The README's library example runs as written, so a name it uses cannot vanish unnoticed."""

import re
from pathlib import Path

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
    assert "True" in out and "unexposed_nde_rr_ratio_vs_bf" in out
