"""Benchmark of the mismatch sweeps, run through ``mwmusic.cli.main``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --write-reference

Every pass runs in a fresh interpreter (``bench/child.py``), one at a time:
a closed loop with one client, as a user invoking the CLI would. Passes
repeat while the next one is expected to end within ``--seconds`` (at
least three). The seed reaches the program only through the INI file this
script writes.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics: ``sweep_s`` (median pass time), ``cells_per_s``
(imaged cells x ratios over ``sweep_s``), ``peak_rss_mb`` (median peak RSS
of the pass processes) and ``setup_s`` (median time of the child processes
from spawn to having imported mwmusic and loaded the config). With
``--trace 1`` the passes alternate untraced and traced, and the JSON holds
the per-layer metrics of ``bench/spans.py`` as medians per traced pass, plus
``trace.overhead_frac``. The lines above it repeat the metrics with
quartiles and the raw wall times, the failure ratio, the accuracy figures
and a provenance block.

Each pass is checked against ``bench/reference.json``, which
``--write-reference`` records from noiseless passes of every workload. A
noiseless workload must match it exactly. The noisy one must keep the
noiseless peak count, a ``signal_dim`` in ``NOISY_SIGNAL_DIMS``, and on the
ratios in ``NOISY_PEAK_RATIOS`` every peak within ``NOISY_PEAK_TOLERANCE``
cells of a noiseless peak.

Times are calibrated to a reference speed. A shared host runs in phases,
seconds to minutes long, that make every process 25-40% faster or slower;
the longer ones no sampling inside one run averages out. Right before and
after its pass every child times a fixed probe of the same kinds of work
(``speed_probe`` in ``bench/child.py``, code no change to the package can
touch), and the child's wall times are scaled by ``PROBE_REF_S`` over the
probes' mean. A time in the JSON is thus the wall time the pass would take
when the probe takes ``PROBE_REF_S``; the raw wall times are printed beside
it.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"

ROI_RADIUS = 0.085
# anomaly D1 of the fig-*-single presets; a preset replaces it with its own list
D1 = {"center_x_m": 0.01, "center_y_m": 0.03, "radius_m": 0.01,
      "rel_permittivity": 55, "conductivity_s_per_m": 1.2}
MIN_PASSES = 3
PROBE_REF_S = 0.057  # typical child.speed_probe() time on the 2-core host the bench was tuned on
PASS_TIMEOUT_S = 150
COMPARISON_KEYS = ("rms", "max_abs", "argmin_distance_cells", "pearson")
# sigma-double at 30 dB SNR against its noiseless reference, over seeds 0-29,
# 100-110 and 200-319: signal_dim is 6 or 5 (the noise floor can hide the
# weakest singular value), and on ratios 1 and 0.2 each noiseless peak has a
# peak within 1 cell. On ratios 2, 10, 20 and 0.1 noise moves a peak by
# tens of cells on some seeds, so only the peak count is checked there.
NOISY_SIGNAL_DIMS = (5, 6)
NOISY_PEAK_RATIOS = ("1", "0.2")
NOISY_PEAK_TOLERANCE = 2  # cells, Chebyshev distance


@dataclass(frozen=True)
class Workload:
    """One set of inputs. Without a preset the sweep is ratios of the
    permeability over D1. Why each workload is there: BENCHMARK.json."""

    name: str
    resolution: int
    preset: str | None = None
    count: int = 16
    snr_db: float | None = None  # None is noiseless
    compare: bool = False  # time `mwmusic compare` over the norm maps of one run
    ratios: tuple[float, ...] = (1.0,)

    @property
    def noiseless(self) -> bool:
        return self.snr_db is None


# Each layer that the roadmap plans to optimise does most of the work in one
# workload and little in another (shares of self time from traced passes).
# Grids are smaller than the paper figures so that a run holds several passes.
WORKLOADS = {w.name: w for w in (
    Workload("mu-single", 112, "fig-mu-single"),
    Workload("sigma-double", 160, "fig-sigma-double", snr_db=30.0),
    Workload("array64", 48, "fig-eps-double", count=64),
    Workload("compare", 144, "fig-mu-single", compare=True),
)}


def write_ini(wl: Workload, seed: int, out_dir: Path, path: Path) -> None:
    lines = [
        "[scene]", f"roi_radius_m = {ROI_RADIUS!r}",
        "[array]", f"count = {wl.count}",
        "[anomaly:D1]", *(f"{k} = {v!r}" for k, v in D1.items()),
        "[sweep]", "kind = permeability", "ratios = " + ", ".join(f"{r!r}" for r in wl.ratios),
        "[imaging]", f"resolution = {wl.resolution}",
        "[noise]", f"snr_db = {'inf' if wl.noiseless else repr(wl.snr_db)}", f"seed = {seed}",
        "[output]", f"directory = {out_dir}",
    ]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def roi_cells(resolution: int) -> int:
    """Unmasked cells of the imaging grid (cell centres inside the ROI disk)."""
    h = 2.0 * ROI_RADIUS / resolution
    ticks = -ROI_RADIUS + h * (np.arange(resolution) + 0.5)
    xx, yy = np.meshgrid(ticks, ticks)
    return int(np.count_nonzero(np.hypot(xx, yy) <= ROI_RADIUS))


def run_child(job: dict, workdir: Path) -> dict:
    """Run one pass in a fresh interpreter; a crash comes back as an error."""
    job_path = workdir / f"job-{job['pass_id']}.json"
    job["result"] = str(workdir / f"result-{job['pass_id']}.json")
    job_path.write_text(json.dumps(job))
    Path(job["result"]).unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), str(job_path), repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"pass timed out after {PASS_TIMEOUT_S} s"}
    if proc.returncode != 0 or not Path(job["result"]).is_file():
        return {"error": f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(Path(job["result"]).read_text())


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text}")
    return value


def load_report(path: Path) -> dict:
    """report.json, refusing NaN and infinities anywhere in it."""
    return json.loads(path.read_text(), parse_float=_finite, parse_constant=_finite)


def report_summary(report: dict) -> dict:
    """signal_dim and peak cells (row, column) per ratio; what the reference pins."""
    cfg = report["config"]
    half, res = cfg["roi_radius_m"], cfg["resolution"]
    h = 2.0 * half / res

    def cell(x, y):
        return [round((y + half) / h - 0.5), round((x + half) / h - 0.5)]

    return {
        f"{rec['ratio']:g}": {
            "signal_dim": rec["signal_dim"],
            "peak_cells": [cell(p[0], p[1]) for p in rec["peaks"]],
        }
        for rec in report["records"]
    }


def fingerprint(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.is_file()}


def parse_comparisons(stdout: str) -> list[dict]:
    """The `key: value` blocks that `mwmusic compare` prints, in order."""
    values = []
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key in COMPARISON_KEYS:
            values.append((key, float(value)))
    return [dict(values[i:i + len(COMPARISON_KEYS)])
            for i in range(0, len(values), len(COMPARISON_KEYS))]


@dataclass
class Run:
    """State of one benchmark run: its inputs, reference and pass results."""

    wl: Workload
    workdir: Path
    reference: dict | None
    passes: list = field(default_factory=list)
    setup_samples: list = field(default_factory=list)  # (wall, reference-speed) pairs
    problems: list = field(default_factory=list)
    setup_ops: int = 0
    generator: dict | None = None  # compare: report of the generating run
    csvs: list = field(default_factory=list)

    @property
    def ini(self) -> Path:
        return self.workdir / "workload.ini"

    @property
    def out_dir(self) -> Path:
        return self.workdir / "out"

    def run_argvs(self) -> list[list[str]]:
        preset = ["--preset", self.wl.preset] if self.wl.preset else []
        return [["run", str(self.ini), *preset]]

    def job(self, pass_id: int, argvs, trace: bool) -> dict:
        return {"src": str(SRC), "config": str(self.ini), "preset": self.wl.preset,
                "argvs": argvs, "trace": trace, "pass_id": pass_id}

    def check_summary(self, summary: dict) -> list[str]:
        """Problems of a report_summary against the reference."""
        if self.reference is None:  # recording a reference, or the self-test
            self.reference = summary
        if self.wl.noiseless:
            if summary == self.reference:
                return []
            return [f"signal_dim or peak cells differ from the reference: {summary} != {self.reference}"]
        if summary.keys() != self.reference.keys():
            return [f"ratios {sorted(summary)} != reference {sorted(self.reference)}"]
        problems = []
        for ratio, ref in self.reference.items():
            got = summary[ratio]
            if got["signal_dim"] not in NOISY_SIGNAL_DIMS:
                problems.append(f"ratio {ratio}: signal_dim {got['signal_dim']} not in {NOISY_SIGNAL_DIMS}")
            if len(got["peak_cells"]) != len(ref["peak_cells"]):
                problems.append(f"ratio {ratio}: peaks {got['peak_cells']}, reference {ref['peak_cells']}")
            elif ratio in NOISY_PEAK_RATIOS and any(
                    min(max(abs(p[0] - q[0]), abs(p[1] - q[1])) for q in got["peak_cells"])
                    > NOISY_PEAK_TOLERANCE for p in ref["peak_cells"]):
                problems.append(f"ratio {ratio}: peaks {got['peak_cells']} not within "
                                f"{NOISY_PEAK_TOLERANCE} cells of {ref['peak_cells']}")
        return problems

    def check(self, res: dict, compare: bool) -> list[str]:
        """Problems with one `run` or `compare` pass; none means it is correct."""
        if res.get("error"):
            return [res["error"].strip().splitlines()[-1]]
        if any(code != 0 for code in res["exit_codes"]):
            return [f"exit codes {res['exit_codes']}: {res['stdout'].strip()[-500:]}"]
        problems = spans.check_spans(res["spans"]) if "spans" in res else []
        if not compare:
            try:
                res["report"] = load_report(self.out_dir / "report.json")
            except (OSError, ValueError) as exc:
                return problems + [f"report.json: {exc}"]
            return problems + self.check_summary(report_summary(res["report"]))
        if self.generator is None:
            return problems + ["no generating run to compare against"]
        expected = {f"{r['ratio']:g}": r["closed_form"] for r in self.generator["records"]}
        printed = parse_comparisons(res["stdout"])
        if len(printed) != len(self.csvs):
            return problems + [f"{len(printed)} comparisons printed for {len(self.csvs)} maps"]
        for csv, got in zip(self.csvs, printed):
            want = expected.get(csv.stem.rsplit("-", 1)[1])
            if got != want:
                problems.append(f"{csv.name}: printed {got} != report {want}")
        return problems

    def child(self, job: dict) -> dict:
        """run_child, with the speed scale from the child's probe."""
        res = run_child(job, self.workdir)
        res["scale"] = PROBE_REF_S / res["probe_s"] if "probe_s" in res else 1.0
        if "setup_s" in res:
            self.setup_samples.append((res["setup_s"], res["setup_s"] * res["scale"]))
        return res

    def generate(self) -> None:
        """compare: one untimed `mwmusic run` that writes the norm maps; a
        failure counts."""
        res = self.child(self.job(-1, self.run_argvs(), False))
        self.setup_ops += 1
        self.problems += [f"set-up: {p}" for p in self.check(res, compare=False)]
        self.generator = res.get("report")
        self.csvs = sorted(self.out_dir.glob("norm-*.csv"))

    def one_pass(self, trace: bool) -> dict:
        pass_id = len(self.passes)
        if self.wl.compare:
            argvs = [["compare", str(csv), str(self.ini)] for csv in self.csvs]
        else:
            shutil.rmtree(self.out_dir, ignore_errors=True)
            argvs = self.run_argvs()
        res = self.child(self.job(pass_id, argvs, trace))
        res["traced"] = trace
        res["problems"] = self.check(res, self.wl.compare)
        if self.wl.compare:
            res["fingerprint"] = {"stdout": hashlib.sha256(res.get("stdout", "").encode()).hexdigest()}
        elif not res["problems"]:
            res["fingerprint"] = fingerprint(self.out_dir)
        self.passes.append(res)
        return res


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(traced: list[dict]) -> dict[str, float]:
    """Medians per traced pass of every span's calls/total/self and counters."""
    per_pass = []
    for res in traced:
        times = spans.span_times(res["spans"])
        row = {}
        for name in spans.SPAN_NAMES:
            for key, value in times[name].items():
                row[f"{name}.{key}"] = value * res["scale"] if key != "calls" else value
        row.update(res["counters"])
        evals = res["counters"]["specfun.hankel2_0.evals"]
        row["specfun.hankel2_0.ns_per_eval"] = (
            row["specfun.hankel2_0.self_s"] * 1e9 / evals if evals else 0.0
        )
        per_pass.append(row)
    return {key: median([row[key] for row in per_pass]) for key in per_pass[0]}


def accuracy(run: Run, good: list[dict]) -> tuple[float, float | None]:
    """Largest peak error (cells) and closed-form rms of the run's report."""
    report = run.generator if run.wl.compare else (good[0]["report"] if good else None)
    if report is None:
        return math.nan, None
    peak = max(max(r["peak_error_cells"]) for r in report["records"])
    rms = [r["closed_form"]["rms"] for r in report["records"] if r["closed_form"]]
    return peak, (max(rms) if rms else None)


def blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        return "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return None


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 reference: dict | None) -> dict:
    """Set up, run passes for `seconds`, check them; returns the outcome."""
    compileall.compile_dir(SRC / "mwmusic", quiet=1)
    load_start = loadavg()
    workdir = WORK / f"{wl.name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run = Run(wl, workdir, reference)
    try:
        write_ini(wl, seed, run.out_dir, run.ini)
        if wl.compare:
            run.generate()
        # stop before a pass would end past `seconds`, once there are enough
        start = time.monotonic()
        lengths = []
        while True:
            t0 = time.monotonic()
            run.one_pass(trace and len(run.passes) % 2 == 1)
            lengths.append(time.monotonic() - t0)
            done = [p for p in run.passes if p["traced"] == trace]
            late = time.monotonic() - start + statistics.median(lengths) > seconds
            if late and len(done) >= MIN_PASSES - trace:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [p for p in run.passes if p["problems"]]
    good = [p for p in run.passes if not p["problems"]] or run.passes
    plain = [p for p in good if not p["traced"]] or good
    sweeps = [p["sweep_s"] * p["scale"] for p in plain if "sweep_s" in p]
    # imaged cells x ratios: compare images every saved map once
    cells = roi_cells(wl.resolution) * (len(run.csvs) if wl.compare else len(run.reference or ()))
    sweep_q = quartiles(sweeps) if sweeps else (math.nan,) * 3
    peak_error, rms = accuracy(run, [p for p in run.passes if "report" in p])
    outcome = {
        "workload": wl.name,
        "attempted": len(run.passes) + run.setup_ops,
        "failed": len(failed) + len(run.problems),
        "problems": run.problems + [f"pass {i}: {msg}" for i, p in enumerate(run.passes)
                                    for msg in p["problems"]],
        "sweep_quartiles": sweep_q,
        "sweep_samples": sweeps,
        "setup_samples": run.setup_samples,
        "wall": {
            "sweep_s": median([p["sweep_s"] for p in plain if "sweep_s" in p]),
            "setup_s": median([wall for wall, _ in run.setup_samples]),
            "speed": median([1 / p["scale"] for p in run.passes]),
        },
        "metrics": {
            "sweep_s": (sweep_q[1], "s"),
            "cells_per_s": (cells / sweep_q[1], "cells/s"),
            "peak_rss_mb": (median([p["maxrss_kb"] / 1024 for p in plain if "maxrss_kb" in p]), "MB"),
            "setup_s": (median([ref for _, ref in run.setup_samples]), "s"),
        },
        "accuracy": {"peak_error_cells_max": peak_error, "closed_form_rms_max": rms},
        "reference": run.reference,
        "fingerprints": [p.get("fingerprint") for p in run.passes],
        "provenance": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas_name(),
            "blas_threads": {k: os.environ.get(k) for k in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "loadavg_start": load_start,
            "loadavg_end": loadavg(),
            "commit": git_commit(),
            "seed": seed,
            "resolution": wl.resolution,
            "cells": cells,
            "signal_dims": sorted({s["signal_dim"] for s in (run.reference or {}).values()}),
            "artifacts_identical": len({json.dumps(p["fingerprint"], sort_keys=True)
                                        for p in run.passes if "fingerprint" in p}) == 1,
        },
    }
    if trace:
        traced = [p for p in good if p["traced"] and "spans" in p]
        layers = layer_metrics(traced) if traced else {}
        traced_sweep = median([p["sweep_s"] * p["scale"] for p in traced])
        layers["trace.overhead_frac"] = traced_sweep / sweep_q[1] - 1.0 if traced else math.nan
        layers["harness.run_experiment.peak_error_cells_max"] = peak_error
        layers["theory.compare_maps.rms_max"] = rms if rms is not None else 0.0
        outcome["layers"] = layers
        outcome["spans"] = [p["spans"] for p in run.passes if "spans" in p]
    return outcome


def write_reference(seconds: float) -> int:
    """Record signal_dim and peak cells of every workload without noise."""
    reference = {}
    for wl in WORKLOADS.values():
        out = run_workload(replace(wl, snr_db=None), 0, seconds, False, None)
        if out["failed"]:
            print("\n".join(out["problems"]), file=sys.stderr)
            return 1
        reference[wl.name] = out["reference"]
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def report(outcome: dict, trace: bool, seconds: float) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    name = outcome["workload"]
    q1, q2, q3 = outcome["sweep_quartiles"]
    n = outcome["attempted"]
    passes = len(outcome["fingerprints"])
    print(f"workload {name}: {passes} passes, trace {int(trace)}, {seconds:g} s")
    for key, (value, unit) in outcome["metrics"].items():
        print(f"  {key:<22} {value:.6g} {unit}")
    print(f"  {'sweep_s quartiles':<22} {q1:.6g} / {q2:.6g} / {q3:.6g} s")
    wall = outcome["wall"]
    print(f"  {'wall times':<22} sweep {wall['sweep_s']:.6g} s, setup {wall['setup_s']:.6g} s, "
          f"host at {wall['speed']:.3g}x the reference probe time")
    print(f"  {'failed_ops':<22} {outcome['failed'] / max(n, 1):.6g} ratio "
          f"({outcome['failed']}/{n} operations, set-up included)")
    acc = outcome["accuracy"]
    print(f"  {'peak_error_cells_max':<22} {acc['peak_error_cells_max']:.6g} cells")
    rms = acc["closed_form_rms_max"]
    print(f"  {'closed_form_rms_max':<22} {'n/a (two anomalies)' if rms is None else f'{rms:.6g} 1'}")
    for problem in outcome["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("provenance: " + json.dumps(outcome["provenance"], sort_keys=True))
    if trace:
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in outcome["layers"].items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in outcome["metrics"].items()}
    return {"correct": outcome["failed"] == 0, "attempted": max(n, 1),
            "failed": outcome["failed"], "metrics": metrics}


def _unit(metric: str) -> str:
    suffix = metric.rsplit(".", 1)[1]
    return {"total_s": "s", "self_s": "s", "ns_per_eval": "ns", "bytes": "bytes",
            "overhead_frac": "1", "peak_error_cells_max": "cells", "rms_max": "1",
            "q_max": "order"}.get(suffix, "count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record bench/reference.json from noiseless passes")
    args = parser.parse_args(argv)
    if not (SRC / "mwmusic" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'mwmusic'}", file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference(args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    wl = WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text())[wl.name]
    outcome = run_workload(wl, args.seed, args.seconds, bool(args.trace), reference)
    WORK.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    spans_out = outcome.pop("spans", None)
    (WORK / f"result-{stem}.json").write_text(json.dumps(outcome, indent=1, default=str))
    if spans_out is not None:
        (WORK / f"trace-{stem}.json").write_text(json.dumps(
            {"columns": ["name", "start_ns", "end_ns", "parent", "pass"],
             "passes": spans_out, "layers": outcome["layers"]}))
    result = report(outcome, bool(args.trace), args.seconds)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
