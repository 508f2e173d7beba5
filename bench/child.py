"""One benchmark pass in a fresh interpreter.

    python3 bench/child.py JOB.json SPAWN_MONOTONIC

The job names the package source directory, the workload config, and the
``mwmusic.cli.main`` argument lists that make up the pass. The child writes
a JSON result next to the job:

- ``setup_s``: from the parent's spawn time to ``import mwmusic`` plus
  loading the config, which every CLI invocation pays;
- ``sweep_s``: wall time of the ``cli.main`` calls;
- ``exit_codes``, ``error`` and the captured standard output;
- ``maxrss_kb``: this process's peak RSS, which only a fresh process can
  attribute to one pass;
- ``probe_s``: the mean time of a fixed probe run right before and right
  after the pass, which tells how fast the host ran meanwhile;
- with tracing on, the spans and counters of the pass.

The probe runs here, not in the parent, because only a probe in the same
process tracks the pass's speed: over 52 child processes that each ran 7
decompositions of a 64x64 matrix on a shared 2-core host, in-process
probes cut the quartile spread of their time from 32% to 13%, while probes
timed in the parent around each child left it at 27%. The probe's arrays
hold 10k elements, far below any pass's footprint, so ``maxrss_kb`` is the
pass's own peak. It calls no BLAS routine and no package code, so the
pass's caches and thread pools are not in its path.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np


def speed_probe() -> float:
    """Seconds taken by a fixed mix of the program's kinds of work: complex
    and long-double numpy arithmetic, a Python loop, float formatting."""
    start = time.perf_counter()
    for _ in range(20):
        x = np.linspace(0.1, 50.0, 10_000)
        z = x * (1 - 0.05j)
        np.abs(np.exp(-1j * z) * np.sqrt(z)).sum()
        ld = x.astype(np.longdouble)
        (ld * ld / (ld + 1)).sum()
        total = 0.0
        for i in range(7_500):
            total += (i % 7) * 0.5
        ",".join(repr(v) for v in x[:2_000].tolist())
    return time.perf_counter() - start


def main() -> int:
    spawn = float(sys.argv[2])
    job = json.loads(Path(sys.argv[1]).read_text())
    src = Path(job["src"])
    sys.path.insert(0, str(src))

    import mwmusic
    from mwmusic import cli, harness

    if not Path(mwmusic.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"imported mwmusic from {mwmusic.__file__}, not from {src}")
    result = {"exit_codes": [], "error": None}
    try:
        harness.load_config(job["config"], preset=job["preset"])
    except mwmusic.MwMusicError:
        pass  # the CLI reports it with exit code 2
    result["setup_s"] = time.monotonic() - spawn

    out = io.StringIO()
    recorder = None
    tracing = contextlib.nullcontext()
    if job["trace"]:
        import spans

        recorder = spans.Recorder(pass_id=job["pass_id"])
        tracing = spans.installed(recorder)
    probe_before = speed_probe()
    start = time.perf_counter()
    try:
        with tracing, contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            for argv in job["argvs"]:
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse rejects a command line
                    code = exc.code
                result["exit_codes"].append(code)
    except Exception:
        result["error"] = traceback.format_exc()
    result["sweep_s"] = time.perf_counter() - start
    result["probe_s"] = 0.5 * (probe_before + speed_probe())
    result["stdout"] = out.getvalue()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if recorder is not None:
        result["spans"] = recorder.spans
        result["counters"] = recorder.counters
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
