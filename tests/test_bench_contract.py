"""The traced benchmark wraps package functions by name; each name must exist.

`bench/spans.py` replaces attributes of package modules at run time, so a
rename or removal under `src/` breaks every traced benchmark pass without
failing anything else. This reads the wrap list and changes nothing.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _wrap_points():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAP_POINTS


@pytest.mark.parametrize("module_name,attr", [(m, a) for m, a, _, _ in _wrap_points()])
def test_wrap_point_exists(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))
