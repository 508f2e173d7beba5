"""Self-test of the benchmark at a tiny size (resolution 32, two ratios).

    python3 bench/selftest.py

Checks that the JSON line carries exactly the metric names of
BENCHMARK.json in each mode, that the trace arithmetic is consistent (self
time >= 0, children of a span sum to no more than the span), that the
check of the noisy workload takes peaks near the noiseless ones and refuses
peaks moved further or a wrong ``signal_dim``, and that a config the CLI
rejects with exit code 2 is counted as failed without stopping the run.
Exits 1 if any check fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

import run
import spans

TINY = dict(resolution=32, ratios=(1.0, 2.0))


def check(ok: bool, what: str, failures: list) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def emitted(outcome: dict, trace: bool) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        return run.report(outcome, trace, 0)


def synthetic_spans() -> list:
    """Two nested wrapped calls with known sleeps."""
    recorder = spans.Recorder()
    inner = recorder.wrap("inner", lambda: time.sleep(0.02))

    def body():
        inner()
        inner()
        time.sleep(0.01)

    recorder.wrap("outer", body)()
    return recorder.spans


def main() -> int:
    failures: list[str] = []
    contract = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    for trace in (False, True):
        for wl in (run.Workload("tiny-run", **TINY),
                   run.Workload("tiny-compare", compare=True, **TINY)):
            outcome = run.run_workload(wl, 0, 0.0, trace, None)
            result = emitted(outcome, trace)
            check(result["correct"] and result["failed"] == 0,
                  f"{wl.name} trace {int(trace)}: every pass correct {outcome['problems']}",
                  failures)
            units = {m["name"]: m["unit"] for m in contract["per_layer" if trace else "end_to_end"]}
            check({k: v["unit"] for k, v in result["metrics"].items()} == units,
                  f"{wl.name} trace {int(trace)}: emits exactly the BENCHMARK.json metrics and units",
                  failures)
            if trace:
                passes = outcome["spans"]
                check(bool(passes) and all(not spans.check_spans(s) for s in passes),
                      f"{wl.name}: children of every span sum to no more than the span",
                      failures)
                check(all(t["self_s"] >= 0 for s in passes for t in spans.span_times(s).values()),
                      f"{wl.name}: every self time is >= 0", failures)

    synthetic = synthetic_spans()
    times = spans.span_times(synthetic)
    outer, inner = times["outer"], times["inner"]
    check(inner["calls"] == 2 and abs(outer["self_s"] - (outer["total_s"] - inner["total_s"])) < 1e-9
          and 0.005 < outer["self_s"] < inner["total_s"],
          "synthetic nesting: outer self = outer total - inner total", failures)

    reference = {"1": {"signal_dim": 6, "peak_cells": [[108, 89], [61, 42]]},
                 "10": {"signal_dim": 6, "peak_cells": [[98, 86], [101, 89]]}}
    noisy = run.Run(run.WORKLOADS["sigma-double"], run.WORK, reference)
    near = {"1": {"signal_dim": 5, "peak_cells": [[61, 44], [107, 89]]},
            "10": {"signal_dim": 6, "peak_cells": [[60, 20], [101, 89]]}}
    check(noisy.check_summary(near) == [],
          "noisy check: peaks within 2 cells on ratio 1 and anywhere on ratio 10 pass", failures)
    for what, ratio, changed in (("a peak 3 cells off", "1", {"peak_cells": [[108, 89], [61, 45]]}),
                                 ("signal_dim 4", "10", {"signal_dim": 4}),
                                 ("one peak fewer", "10", {"peak_cells": [[98, 86]]})):
        moved = {**near, ratio: {**near[ratio], **changed}}
        check(len(noisy.check_summary(moved)) == 1, f"noisy check: {what} fails", failures)

    bad = run.run_workload(run.Workload("tiny-bad", resolution=8), 0, 0.0, False, None)
    result = emitted(bad, False)
    check(result["attempted"] >= run.MIN_PASSES and result["failed"] == result["attempted"]
          and not result["correct"],
          f"resolution 8: all {result['attempted']} operations counted as failed", failures)
    check(any("exit codes [2]" in p for p in bad["problems"]),
          "resolution 8: the CLI exit code 2 is what failed the passes", failures)

    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
