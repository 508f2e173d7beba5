"""What a command imports beyond numpy.

numpy 2.x imports numpy.ma inside np.unique (and the set routines built on
it), which cost a fresh process 11-20 ms; no command needs it. Each command
runs in a fresh interpreter and is compared with a bare `import numpy` in
that same interpreter, so a numpy that imports numpy.ma itself still
passes. One `compare` reads a map of more rows than one block of the CSV
reader, so its max_rows path is covered too, and one reads a map with its
rows shuffled, which leaves the reader's written path for its plain one.
"""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from mwmusic import harness, music

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """\
import json, sys
import numpy
bare = set(sys.modules)
from mwmusic import cli
code = cli.main(sys.argv[1:])
added = sorted(m for m in set(sys.modules) - bare if m.split(".")[0] == "numpy")
print(json.dumps([code, added]))
"""


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    root = tmp_path_factory.mktemp("startup")
    plain = root / "plain.ini"
    plain.write_text("[imaging]\nresolution = 32\n")
    noisy = root / "noisy.ini"
    noisy.write_text("[imaging]\nresolution = 32\n[noise]\nsnr_db = 20\nseed = 3\n")
    harness.run_experiment(
        harness.load_config(plain, out_dir=root / "saved"), log=lambda *_: None
    )
    # a norm map of more rows than one block of the reader
    resolution = math.isqrt(2 * music._READ_ROWS)
    harness.run_experiment(
        harness.load_config(plain, out_dir=root / "blocks", resolution=resolution),
        log=lambda *_: None,
    )
    body = (root / "blocks" / "norm-permeability-1.csv").read_text().split("x,y,value\n", 1)[1]
    assert body.count("\n") > music._READ_ROWS
    # the rows of the 32^2 norm map in another order
    lines = (root / "saved" / "norm-permeability-1.csv").read_text().splitlines(keepends=True)
    body = lines[4:]
    random.Random(5).shuffle(body)
    (root / "shuffled").mkdir()
    (root / "shuffled" / "norm-permeability-1.csv").write_text("".join(lines[:4] + body))
    return root


@pytest.mark.parametrize("argv,allowed", [
    (["run", "plain.ini", "--out", "exact"], ()),
    (["run", "plain.ini", "--out", "plane", "--variant", "plane"], ()),
    (["run", "noisy.ini", "--out", "noisy", "--preset", "fig-sigma-double"], ("numpy.random",)),
    (["validate", "plain.ini"], ()),
    (["compare", "saved/norm-permeability-1.csv", "plain.ini"], ()),
    (["compare", "blocks/norm-permeability-1.csv", "plain.ini"], ()),
    (["compare", "shuffled/norm-permeability-1.csv", "plain.ini"], ()),
], ids=["run-exact", "run-plane", "run-noisy", "validate", "compare", "compare-blocks",
        "compare-shuffled"])
def test_numpy_modules_a_command_adds(configs, argv, allowed):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, *argv],
        cwd=configs, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    code, added = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    unexpected = [m for m in added if not any(m == a or m.startswith(a + ".") for a in allowed)]
    assert unexpected == []
