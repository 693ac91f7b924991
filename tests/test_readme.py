"""The README's library quick start runs, and gives the values its comments state."""

import pathlib
import re
from fractions import Fraction as F

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _quick_start() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start():
    code = _quick_start()
    # the values checked below are the ones the block's comments state
    for stated in ("(True, ", "Fraction(0, 1)", "('ok', (1/5, 2/5, 2/5))", "(41, True)"):
        assert f"# {stated}" in code, stated
    ns: dict = {}
    exec(compile(code, "README.md", "exec"), ns)
    assert ns["verdict"] is True
    assert ns["delta"](ns["a"]) == 0
    res, report = ns["res"], ns["report"]
    assert (res.status, res.solution.x) == ("ok", (F(1, 5), F(2, 5), F(2, 5)))
    assert (len(report.classes), report.complete) == (41, True)
