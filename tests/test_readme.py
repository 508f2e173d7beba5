"""The README's library example runs as written."""

import ast
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    # the shifted peak and its predicted location, one grid cell apart at most
    peak, predicted = (ast.literal_eval(line) for line in capsys.readouterr().out.splitlines())
    assert math.dist(peak, predicted) <= 2 * 0.085 / 128
