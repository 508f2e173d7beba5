"""The traced benchmark wraps package functions by name; each name must exist.

`bench/spans.py` replaces attributes of package modules at run time, so a
rename or removal under `src/` breaks every traced benchmark pass without
failing anything else. This reads the wrap list and the span recorder and
changes nothing under `bench/`.
"""

import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

from mwmusic import cli

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@functools.lru_cache(maxsize=None)
def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name,attr", [(m, a) for m, a, _, _ in _spans().WRAP_POINTS])
def test_wrap_point_exists(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


def test_traced_pass(tmp_path):
    # one small sweep through the CLI with every wrap point installed, as a
    # traced benchmark pass runs it
    spans = _spans()
    ini = tmp_path / "empty.ini"
    ini.write_text("")
    argv = ["run", str(ini), "--preset", "fig-mu-single", "--resolution", "32",
            "--out", str(tmp_path / "out")]
    with spans.installed(spans.Recorder()) as recorder:
        assert cli.main(argv) == 0
    assert spans.check_spans(recorder.spans) == []
    times = spans.span_times(recorder.spans)
    assert times["forward.incident_field_matrix"]["calls"] > 0
    assert times["music.write_map_csv"]["calls"] > 0
