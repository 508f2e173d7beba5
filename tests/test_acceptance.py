"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance here is pinned, not calibrated at runtime.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np

from mwmusic import forward as fw
from mwmusic import harness
from mwmusic import music as mu
from mwmusic import scene as sc
from mwmusic import specfun
from mwmusic import theory as th

from conftest import bessel_j_row, image_from_data, make_scene
from oracles import argmax_point, far_field_normalization, onesided_jacobi_singular_values


def _criterion(tag: str, ok: bool, elapsed: float, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[{tag}] {status} ({elapsed:.2f}s) {detail}")
    assert ok, f"{tag}: {detail}"


def _grid(resolution=128):
    return mu.grid_for_roi(0.085, resolution)


def _mismatch(scene, kind, ratio):
    return th.mismatched_wavenumber(scene.background, scene.omega, kind, ratio)


def test_a1_matched_wavenumber_localization():
    t0 = time.perf_counter()
    scene = make_scene(1)
    k_bw = scene.background_wavenumber()
    grid = _grid()
    image = image_from_data(fw.scattering_matrix(scene, k_bw), k_bw, scene.array, grid)
    err_cells = math.dist(argmax_point(image), (0.01, 0.03)) / grid.cell_size
    elapsed = time.perf_counter() - t0
    _criterion(
        "A1",
        err_cells <= 1.0 and elapsed <= 5.0,
        elapsed,
        f"argmax error {err_cells:.2f} cells (tol 1); runtime limit 5 s",
    )


def test_a2_two_anomaly_localization():
    t0 = time.perf_counter()
    scene = make_scene(2)
    k_bw = scene.background_wavenumber()
    grid = _grid()
    image = image_from_data(fw.scattering_matrix(scene, k_bw), k_bw, scene.array, grid)
    peaks = mu.extract_peaks(image, 2)
    errs = [
        min(math.dist(pt, target) for pt, _ in peaks) / grid.cell_size
        for target in ((0.01, 0.03), (-0.04, -0.02))
    ]
    elapsed = time.perf_counter() - t0
    _criterion(
        "A2",
        len(peaks) == 2 and max(errs) <= 2.0 and elapsed <= 5.0,
        elapsed,
        f"peak errors {errs[0]:.2f} / {errs[1]:.2f} cells (tol 2, threshold-rule subspace)",
    )


def test_a3_permeability_shift_law():
    t0 = time.perf_counter()
    scene = make_scene(1)
    k_bw = scene.background_wavenumber()
    grid = _grid()
    data = fw.scattering_matrix(scene, k_bw)
    errs = {}
    for ratio in (0.5, 2.0):
        k_aw = _mismatch(scene, "permeability", ratio)
        image = image_from_data(data, k_aw, scene.array, grid)
        pred = (0.01 / math.sqrt(ratio), 0.03 / math.sqrt(ratio))
        errs[ratio] = math.dist(argmax_point(image), pred) / grid.cell_size
    elapsed = time.perf_counter() - t0
    _criterion(
        "A3",
        max(errs.values()) <= 2.0 and elapsed <= 10.0,
        elapsed,
        f"shift-law errors {errs} cells (tol 2)",
    )


def test_a4_permittivity_shift_law():
    t0 = time.perf_counter()
    scene = make_scene(1)
    k_bw = scene.background_wavenumber()
    grid = _grid()
    data = fw.scattering_matrix(scene, k_bw)
    errs = {}
    for ratio in (0.5, 2.0):
        k_aw = _mismatch(scene, "permittivity", ratio)
        image = image_from_data(data, k_aw, scene.array, grid)
        pred = th.predicted_peak(k_bw, k_aw, (0.01, 0.03))
        errs[ratio] = math.dist(argmax_point(image), pred) / grid.cell_size
    elapsed = time.perf_counter() - t0
    _criterion(
        "A4",
        max(errs.values()) <= 2.0 and elapsed <= 10.0,
        elapsed,
        f"complex-ratio predicted-peak errors {errs} cells (tol 2)",
    )


def test_a5_conductivity_robustness(tmp_path):
    t0 = time.perf_counter()
    scene = make_scene(1)
    k_bw = scene.background_wavenumber()
    grid = _grid()
    data = fw.scattering_matrix(scene, k_bw)
    k_aw = _mismatch(scene, "conductivity", 0.1)
    image = image_from_data(data, k_aw, scene.array, grid)
    err = math.dist(argmax_point(image), (0.01, 0.03)) / grid.cell_size
    # the large-conductivity maps are reproduced as artifacts only
    saved = []
    for ratio in (10.0, 20.0):
        big = image_from_data(data, _mismatch(scene, "conductivity", ratio), scene.array, grid)
        path = tmp_path / f"sigma-{ratio:g}.pgm"
        mu.write_map_pgm(big, path)
        saved.append(path.exists())
    elapsed = time.perf_counter() - t0
    _criterion(
        "A5",
        err <= 2.0 and all(saved) and elapsed <= 10.0,
        elapsed,
        f"sigma-ratio-0.1 error {err:.2f} cells (tol 2); large-sigma maps saved: {all(saved)}",
    )


def test_a6_theorem_closed_form():
    t0 = time.perf_counter()
    scene = make_scene(1)
    k_bw = scene.background_wavenumber()
    grid = _grid()
    waves = (k_bw, k_bw, (0.01, 0.03))
    plan = mu.symmetry_plan(grid, scene.array)
    # proof-matched path: far-field data, plane-wave steering, one retained
    # direction (the noise projector is defined from U_1 alone)
    asym = fw.scattering_matrix(scene, k_bw, fw.ASYMPTOTIC)
    image_pw = image_from_data(asym, k_bw, scene.array, grid, variant=mu.PLANE_WAVE, signal_dim=1)
    cmp_pw = th.compare_maps(image_pw, plan, *waves)
    # production path: full point-source data and exact-field steering
    full = fw.scattering_matrix(scene, k_bw, fw.FULL_HANKEL)
    image_ex = image_from_data(full, k_bw, scene.array, grid, variant=mu.EXACT_FIELD, signal_dim=1)
    cmp_ex = th.compare_maps(image_ex, plan, *waves)
    elapsed = time.perf_counter() - t0
    _criterion(
        "A6",
        cmp_pw["rms"] <= 0.05
        and cmp_pw["argmin_distance_cells"] <= 1.0
        and cmp_ex["rms"] <= 0.15
        and elapsed <= 10.0,
        elapsed,
        f"plane/asym RMS {cmp_pw['rms']:.4f} (tol 0.05), argmin shift "
        f"{cmp_pw['argmin_distance_cells']:.1f} cells (tol 1); "
        f"exact/full RMS {cmp_ex['rms']:.4f} (tol 0.15)",
    )


def test_a7_c_identity():
    # In far-field mode the data matrix is K = coef * D (J - I) D, with
    # coef = a^2 O k_bw e^{-2 i k_bw R} / (32 R omega mu),
    # D = diag(e^{i k_bw theta_n . r*}) and J the all-ones matrix. D is
    # unitary only for a real k_bw. With w_n = |D_nn| = e^{-Im(k_bw) theta_n . r*}
    # the leading singular value is tau_1 = |coef| lambda_1, where lambda_1 is
    # the root of the secular equation sum_n w_n^2 / (lambda + w_n^2) = 1
    # (solved by the oracle, not by an SVD). So the reported C (N-1)^2 is
    # ((N-1)/lambda_1)^2, and on the lossy reference scene the identity to
    # check is C lambda_1^2 = C (N-1)^2 (lambda_1/(N-1))^2 = 1. The stated form
    # C (N-1)^2 = 1 holds where lambda_1 = N-1: the same geometry with a
    # lossless background (sigma_b = 0).
    t0 = time.perf_counter()

    def stated_value(scene):
        k_bw = scene.background_wavenumber()
        mat = fw.scattering_matrix(scene, k_bw, fw.ASYMPTOTIC)
        tau1 = float(mu.svd_leading(mat).singular_values[0])
        return th.c_identity_check(mat, scene, k_bw, tau1)

    stated, corrected, lossless = {}, {}, {}
    for count in (8, 16):
        scene = make_scene(1, count=count)
        stated[count] = stated_value(scene)
        lam1 = far_field_normalization(
            scene.array.angles, scene.anomalies[0].center, scene.background_wavenumber()
        )
        corrected[count] = stated[count] * (lam1 / (count - 1)) ** 2
        clear = replace(scene, background=replace(scene.background, conductivity=0.0))
        lossless[count] = stated_value(clear)
    elapsed = time.perf_counter() - t0
    checked = [*corrected.values(), *lossless.values()]
    ok = all(0.9 <= v <= 1.1 for v in checked) and elapsed <= 2.0
    _criterion(
        "A7",
        ok,
        elapsed,
        f"lossy C(N-1)^2 = {stated[8]:.4f} / C lambda_1^2 = {corrected[8]:.4f} (N=8), "
        f"{stated[16]:.4f} / {corrected[16]:.4f} (N=16); "
        f"lossless C(N-1)^2 = {lossless[8]:.4f} (N=8), {lossless[16]:.4f} (N=16); "
        "window [0.9, 1.1]",
    )


def test_a8_jacobi_anger_suite():
    t0 = time.perf_counter()
    thetas = np.linspace(0.0, 2 * np.pi, 720, endpoint=False)
    worst = 0.0
    for x in (0.5, 1.0, 5.0, 10.0, 20.0):
        big_q = specfun.jacobi_anger_truncation(x, 1e-10)
        row = bessel_j_row(x, max(big_q, 1))
        direct = np.exp(1j * x * np.cos(thetas))
        partial = np.full_like(direct, row[0])
        for q in range(1, big_q + 1):
            partial += (1j**q) * row[q] * np.exp(1j * q * thetas)
            partial += (1j**-q) * ((-1.0) ** q * row[q]) * np.exp(-1j * q * thetas)
        worst = max(worst, float(np.max(np.abs(direct - partial))))
    # recurrence and normalization invariants
    rec_worst = 0.0
    for x in (0.1, 1.0, 7.0, 23.0, 50.0):
        row = bessel_j_row(x, 31)
        for q in range(1, 30):
            rec_worst = max(rec_worst, abs(row[q - 1] + row[q + 1] - (2 * q / x) * row[q]))
    norm_worst = 0.0
    for x in (0.5, 5.0, 12.5, 20.0):
        row = bessel_j_row(x, specfun.Q_MAX)
        norm_worst = max(norm_worst, abs(row[0] ** 2 + 2 * np.sum(row[1:] ** 2) - 1.0))
    elapsed = time.perf_counter() - t0
    _criterion(
        "A8",
        worst <= 1e-9 and rec_worst <= 1e-9 and norm_worst <= 1e-10 and elapsed <= 2.0,
        elapsed,
        f"expansion residual {worst:.2e} (tol 1e-9); recurrence {rec_worst:.2e}; "
        f"normalization {norm_worst:.2e}",
    )


def test_a9_linear_algebra_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 17))
        mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        dec = mu.svd_leading(mat)
        ref = onesided_jacobi_singular_values(mat)
        worst = max(worst, float(np.max(np.abs(dec.singular_values - ref)) / ref[0]))
    elapsed = time.perf_counter() - t0
    _criterion(
        "A9",
        worst <= 1e-10 and elapsed <= 5.0,
        elapsed,
        f"worst singular-value deviation {worst:.2e} of tau_1 (tol 1e-10), 50 matrices",
    )


def test_a10_origin_invariance():
    t0 = time.perf_counter()
    base = make_scene(1)
    scene = sc.Scene(
        background=base.background,
        roi_radius=base.roi_radius,
        array=base.array,
        anomalies=(sc.Anomaly((0.0, 0.0), 0.01, base.anomalies[0].medium),),
        frequency=base.frequency,
    )
    k_bw = scene.background_wavenumber()
    grid = _grid()
    data = fw.scattering_matrix(scene, k_bw)
    errs = {}
    for ratio in (0.5, 1.0, 2.0):
        k_aw = _mismatch(scene, "permeability", ratio)
        image = image_from_data(data, k_aw, scene.array, grid)
        errs[ratio] = math.hypot(*argmax_point(image)) / grid.cell_size
    elapsed = time.perf_counter() - t0
    _criterion(
        "A10",
        max(errs.values()) <= 1.0 and elapsed <= 10.0,
        elapsed,
        f"origin-anomaly argmax offsets {errs} cells (tol 1)",
    )


def test_a11_determinism_and_scale_invariance(tmp_path):
    t0 = time.perf_counter()
    cfg_file = tmp_path / "empty.ini"
    cfg_file.write_text("")
    outs = []
    for name in ("first", "second"):
        config = harness.load_config(cfg_file, resolution=64, out_dir=tmp_path / name, seed=1)
        harness.run_experiment(config, log=lambda *_: None)
        outs.append(tmp_path / name)
    identical = all(
        (outs[0] / f.name).read_bytes() == (outs[1] / f.name).read_bytes()
        for f in sorted(outs[0].glob("*"))
    )
    report = json.loads((outs[0] / "report.json").read_text())
    scene = make_scene(1)
    k_bw = scene.background_wavenumber()
    grid = _grid(64)
    data = fw.scattering_matrix(scene, k_bw)
    base = image_from_data(data, k_bw, scene.array, grid)
    rng = np.random.default_rng(7)
    c = complex(rng.standard_normal(), rng.standard_normal())
    scaled = image_from_data(
        fw.ScatteringMatrix(n=data.n, entries=c * data.entries, mode=data.mode),
        k_bw,
        scene.array,
        grid,
    )
    mask = grid.mask
    dev = float(np.max(np.abs(scaled.values[mask] - base.values[mask]) / base.values[mask]))
    elapsed = time.perf_counter() - t0
    _criterion(
        "A11",
        identical and report["report_version"] == 1 and dev <= 1e-9 and elapsed <= 5.0,
        elapsed,
        f"byte-identical artifacts: {identical}; scale-invariance deviation {dev:.2e} (tol 1e-9)",
    )
