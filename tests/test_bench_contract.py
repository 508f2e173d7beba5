"""The benchmark's contract with the package, checked in-process in tier-1.

The traced benchmark wraps package functions by name; each name must exist.
`bench/spans.py` replaces attributes of package modules at run time, so a
rename or removal under `src/` breaks every traced benchmark pass without
failing anything else. Every benchmark pass is also checked against the
signal_dim and peak cells in `bench/reference.json`, so a change that moves
a peak fails every pass of that workload, and every compare pass parses the
`key: value` lines that `mwmusic compare` prints. This reads the wrap list,
the span recorder, the workloads, the reference and the compare parser,
and changes nothing under `bench/`.
"""

import dataclasses
import functools
import importlib
import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

from mwmusic import cli, harness

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS_PATH = BENCH / "spans.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@functools.lru_cache(maxsize=None)
def _spans():
    return _load("bench_spans", SPANS_PATH)


@functools.lru_cache(maxsize=None)
def _bench_run():
    # bench/run.py imports its sibling `spans` by plain name
    if str(BENCH) not in sys.path:
        sys.path.append(str(BENCH))
    return _load("bench_run", BENCH / "run.py")


@pytest.mark.parametrize("module_name,attr", [(m, a) for m, a, _, _ in _spans().WRAP_POINTS])
def test_wrap_point_exists(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


def _traced_run(tmp_path, name, *options, resolution=32):
    # one small sweep through the CLI with every wrap point installed, as a
    # traced benchmark pass runs it
    spans = _spans()
    ini = tmp_path / "empty.ini"
    ini.write_text("")
    argv = ["run", str(ini), "--preset", "fig-mu-single", "--resolution", str(resolution),
            "--out", str(tmp_path / name), *options]
    with spans.installed(spans.Recorder()) as recorder:
        assert cli.main(argv) == 0
    assert spans.check_spans(recorder.spans) == []
    return spans.span_times(recorder.spans)


def test_traced_pass(tmp_path):
    times = _traced_run(tmp_path, "exact")
    assert times["forward.incident_field_matrix"]["calls"] > 0
    assert times["music.write_map_csv"]["calls"] > 0
    # the steering span holds exact-field tables only: plane-wave rows
    # never build one
    times = _traced_run(tmp_path, "plane", "--variant", "plane")
    assert times["forward.incident_field_matrix"]["calls"] == 0
    assert times["music.write_map_csv"]["calls"] > 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="maps are written inline without os.fork")
def test_traced_pass_with_forked_writers(tmp_path):
    # above the fork threshold the sweep's writer process writes the maps'
    # reciprocal CSVs, and the norm CSVs and PGMs of the maps it takes
    # whole; its spans end with it. How many of those the run writes itself
    # depends on when the writer is idle, so the trace only bounds them; the
    # last map's are always the run's
    times = _traced_run(tmp_path, "forked", resolution=80)
    ratios = len(harness.PRESETS["fig-mu-single"][1])
    assert 1 <= times["music.write_map_csv"]["calls"] <= ratios
    assert 1 <= times["music.write_map_pgm"]["calls"] <= ratios
    assert len(list((tmp_path / "forked").glob("map-*.csv"))) == 6


def test_compare_prints_the_report_closed_form(tmp_path, capsys):
    # a compare pass parses the printed lines of each norm map and holds
    # them to that ratio's closed_form in the generating run's report.json,
    # float for float
    bench = _bench_run()
    ini, out = tmp_path / "empty.ini", tmp_path / "out"
    ini.write_text("")
    argv = ["run", str(ini), "--preset", "fig-mu-single", "--resolution", "32", "--out", str(out)]
    assert cli.main(argv) == 0
    records = json.loads((out / "report.json").read_text())["records"]
    expected = {f"{r['ratio']:g}": r["closed_form"] for r in records}
    csvs = sorted(out.glob("norm-*.csv"))
    assert len(csvs) == len(records) == 6
    capsys.readouterr()
    for csv in csvs:
        assert cli.main(["compare", str(csv), str(ini)]) == 0
        stdout = capsys.readouterr().out
        assert [line.partition(": ")[0] for line in stdout.splitlines()] == list(
            bench.COMPARISON_KEYS
        )
        assert bench.parse_comparisons(stdout) == [expected[csv.stem.rsplit("-", 1)[1]]]


@pytest.mark.parametrize("workload", sorted(_bench_run().WORKLOADS))
def test_workload_matches_reference(tmp_path, workload):
    # the workload's run without noise, at its bench resolution, must give
    # exactly the signal_dim and peak cells its benchmark passes are held to
    bench = _bench_run()
    wl = dataclasses.replace(bench.WORKLOADS[workload], snr_db=None)
    ini, out = tmp_path / "workload.ini", tmp_path / "out"
    bench.write_ini(wl, 0, out, ini)
    assert cli.main(["run", str(ini), "--preset", wl.preset]) == 0
    summary = bench.report_summary(bench.load_report(out / "report.json"))
    assert summary == json.loads(bench.REFERENCE.read_text())[workload]
