"""Closed-form structure of the imaging function and the peak-shift laws.

For a uniform circular array with unit directions theta_n, the anomaly at r*
spans the one-dimensional signal space of s_n = e^{i k_bw theta_n . r*}, and
the plane-wave steering vector at r is w_n(r) = e^{i k_aw theta_n . r}. The
projection norm is then

    |P_noise W(r)| ~ (N^2-2N)/(N^2-2N+1) * sqrt(1 - g(r)^2),
    g(r) = |s^H w(r)| / (|s| |w(r)|),

so the reciprocal map peaks where g reaches 1, near Re(k_bw/k_aw) r*. The
root sqrt(1 - g^2) is the projection norm of the unit row w(r) off the unit
signal row s, so this module computes it with the imaging kernel
(`music._image_norms`), s as a one-column basis, on the plane-wave rows of
the steering (`music._unit_phasors`, overflow-safe for lossy wavenumbers)
and in the same walk over the fundamental domain of a `music.SymmetryPlan`
(`SymmetryPlan.over_domain`); near the minimum the kernel's residual form
keeps it exact. The paper states the same quantity as a Bessel-harmonic
series: with z = k_aw r - conj(k_bw) r*, rho = sqrt(z . z) and
e^{i phi} = (z_x + i z_y) / rho, the Jacobi-Anger expansion (DLMF 10.12)
of each term gives

    s^H w = N (J_0(rho) + E(rho, phi)),
    E(rho, phi) = (1/N) sum_n sum_{q != 0} i^q J_q(rho) e^{iq(theta_n - phi)},

which stays the test suite's check of the direct sum. The module also gives
the predicted peak location under a permeability / permittivity /
conductivity mismatch and the quantitative agreement between an empirical
norm map and the closed form.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import replace

import numpy as np

from .errors import DegenerateDataError, DomainError
from .forward import ASYMPTOTIC, ScatteringMatrix
from .music import (
    _READ_ROWS, PLANE_WAVE, ImageMap, SymmetryPlan, _image_norms, _unit_phasors, steering_evaluators
)
from .scene import Medium, Scene, contrast, wavenumber
# not used here: the traced benchmark wraps these two names in this module
from .specfun import bessel_j_grid, jacobi_anger_truncation  # noqa: F401

MISMATCH_KINDS = ("permeability", "permittivity", "conductivity")


def mismatched_wavenumber(background: Medium, omega: float, kind: str, ratio: float) -> complex:
    """Wavenumber computed with one background parameter, kind, replaced by
    ratio * true; the mismatch kinds are the Medium field names. A ratio
    whose wavenumber overflows raises DomainError, as an overflowing
    background wavenumber does."""
    if kind not in MISMATCH_KINDS:
        raise DomainError(f"kind must be one of {MISMATCH_KINDS}, got {kind!r}")
    if not (math.isfinite(ratio) and ratio > 0):
        raise DomainError(f"ratio must be finite and > 0, got {ratio!r}")
    k = wavenumber(replace(background, **{kind: ratio * getattr(background, kind)}), omega)
    if not cmath.isfinite(k):
        raise DomainError(f"the wavenumber at {kind} ratio {ratio!r} is not finite: {k}")
    return k


def closed_form_norm_map(plan: SymmetryPlan, k_bw: complex, k_aw: complex, r_star) -> np.ndarray:
    """Predicted |P_noise W| over plan.grid (NaN at masked cells) for the
    anomaly at r_star, imaged with k_aw in the background k_bw by the
    antennas of plan.array.

    sqrt(1 - g(r)^2) is the projection norm of the unit row w(r) against
    the unit signal row s as a one-column basis, so it comes from the
    imaging kernel (`music._image_norms`) in the plan's walk over its
    fundamental domain (`SymmetryPlan.over_domain`), as the norms of
    `music.imaging_map` do, and is exact near its minimum through the
    kernel's residual form.
    """
    s = _unit_phasors(k_bw, np.asarray([r_star], dtype=float), plan.array.directions)[0]
    (rows_of,) = steering_evaluators([k_aw], plan, PLANE_WAVE)
    norms = plan.over_domain(rows_of, s.conj()[:, None], _image_norms)
    n = plan.array.count
    norms *= (n * n - 2 * n) / (n * n - 2 * n + 1)
    return plan.grid.raster(norms)


def predicted_peak(k_bw: complex, k_aw: complex, r_star) -> tuple[float, float]:
    """Shifted peak location Re(k_bw / k_aw) * r*.

    The real part of the complex ratio is the only component with a
    geometric meaning as a location scale; under the low-loss condition it
    differs from the modulus by well under a percent.
    """
    if k_aw == 0:
        raise DomainError("alternative wavenumber must be nonzero")
    scale = (k_bw / k_aw).real
    return (scale * float(r_star[0]), scale * float(r_star[1]))


def compare_maps(
    empirical: ImageMap, plan: SymmetryPlan, k_bw: complex, k_aw: complex, r_star
) -> dict:
    """Agreement between measured projection norms and the closed-form
    prediction (`closed_form_norm_map` of the other arguments) over the
    unmasked cells: the dict of rms, max_abs, argmin_distance_cells (between
    the two minima) and pearson, in that order.

    The empirical map must carry the raw projection norms (values in [0, 1]),
    not the clipped reciprocal map, over plan.grid.
    """
    grid = plan.grid
    if empirical.grid != grid:
        raise DomainError("empirical map and comparison grid do not match")
    emp = empirical.raw_norm if empirical.raw_norm is not None else empirical.values
    mask = grid.mask
    emp_vals = emp[mask]
    if np.any(emp_vals > 1.0 + 1e-9) or np.any(emp_vals < 0.0):
        raise DomainError("expected a projection-norm map with values in [0, 1]")
    theo_vals = closed_form_norm_map(plan, k_bw, k_aw, r_star)[mask]
    pearson = _pearson(emp_vals, theo_vals)
    diff = emp_vals - theo_vals
    np.abs(diff, out=diff)
    max_abs = float(np.max(diff))
    np.square(diff, out=diff)
    rms = float(np.sqrt(np.mean(diff)))
    # the first minimum in mask order is the first in row-major order
    ey, ex = _mask_cell(mask, int(np.argmin(emp_vals)))
    ty, tx = _mask_cell(mask, int(np.argmin(theo_vals)))
    return {
        "rms": rms,
        "max_abs": max_abs,
        "argmin_distance_cells": math.hypot(ey - ty, ex - tx),
        "pearson": pearson,
    }


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation of two vectors, from their means and then the
    centred sums, in blocks of the CSV reader's _READ_ROWS entries, so
    one block size bounds the transient memory of both: no copy of either
    vector, and no BLAS dot, whose threads would spin on the core of a
    sweep's writer process. Clipped to [-1, 1] as np.corrcoef does."""
    mean_a, mean_b = a.mean(), b.mean()
    s_ab = s_aa = s_bb = 0.0
    for start in range(0, len(a), _READ_ROWS):
        da = a[start:start + _READ_ROWS] - mean_a
        db = b[start:start + _READ_ROWS] - mean_b
        s_ab += np.sum(da * db)
        s_aa += np.sum(da * da)
        s_bb += np.sum(db * db)
    return float(np.clip(s_ab / np.sqrt(s_aa) / np.sqrt(s_bb), -1.0, 1.0))


def _mask_cell(mask: np.ndarray, index: int) -> tuple[int, int]:
    """(row, column) of the index-th unmasked cell in mask order."""
    ends = np.cumsum(np.count_nonzero(mask, axis=1))
    iy = int(np.searchsorted(ends, index, side="right"))
    before = int(ends[iy - 1]) if iy else 0
    return iy, int(np.flatnonzero(mask[iy])[index - before])


def c_identity_check(
    k_asym: ScatteringMatrix, scene: Scene, k_bw: complex, tau1: float
) -> float:
    """C (N-1)^2 with C = |a^2 O k_bw e^{-2 i k_bw R} / (32 R omega mu tau_1)|^2.

    The far-field data matrix is (a^2 O k_bw e^{-2 i k_bw R} / (32 R omega mu))
    times a phase matrix whose leading singular value is N-1 for a real
    wavenumber, which makes the product exactly 1 in that regime. The
    propagation factor e^{-2 i k_bw R} must stay inside the modulus: it is
    unimodular only for lossless backgrounds, and dropping it for a lossy
    background multiplies the result by e^{-4 Im(k) R} (about 0.049 for the
    reference configuration). For lossy backgrounds the remaining deviation
    from 1 measures the modulus spread e^{-2 Im(k) theta_n . r*} that the
    rank-one normalization ignores; it vanishes for an anomaly at the origin.

    Exact lossy form: the phase matrix is D (J - I) D with
    D = diag(e^{i k_bw theta_n . r*}) and J the all-ones matrix. With
    w_n = |D_nn| = e^{-Im(k_bw) theta_n . r*} its leading singular value is
    lambda_1, the root of the secular equation

        sum_n w_n^2 / (lambda + w_n^2) = 1,

    so tau_1 = |coef| lambda_1 and the returned value is ((N-1)/lambda_1)^2
    (0.9007 at N=8 and 0.8855 at N=16 for the reference configuration).
    lambda_1 = N-1 exactly when Im(k_bw) = 0 or r* = 0.

    Requires a single-anomaly scene and far-field-mode data; tau1 is the
    leading singular value of that data matrix.
    """
    if k_asym.mode != ASYMPTOTIC:
        raise DomainError("the identity applies to the far-field-mode data matrix")
    if len(scene.anomalies) != 1:
        raise DomainError("the identity applies to single-anomaly scenes")
    if not (math.isfinite(tau1) and tau1 > 0):
        raise DegenerateDataError("tau_1 must be positive")
    an = scene.anomalies[0]
    omega = scene.omega
    o_val = contrast(an, scene.background, omega)
    big_r = scene.array.radius
    coef = (
        an.radius**2
        * o_val
        * k_bw
        * np.exp(-2j * k_bw * big_r)
        / (32.0 * big_r * omega * scene.background.permeability * tau1)
    )
    return abs(coef) ** 2 * (scene.array.count - 1) ** 2
