"""Closed-form structure of the imaging function and the peak-shift laws.

For a uniform circular array with unit directions theta_n, the anomaly at r*
spans the one-dimensional signal space of s_n = e^{i k_bw theta_n . r*}, and
the plane-wave steering vector at r is w_n(r) = e^{i k_aw theta_n . r}. The
projection norm is then

    |P_noise W(r)| ~ (N^2-2N)/(N^2-2N+1) * sqrt(1 - g(r)^2),
    g(r) = |s^H w(r)| / (|s| |w(r)|),

so the reciprocal map peaks where g reaches 1, near Re(k_bw/k_aw) r*.
sqrt(1 - g^2) is the projection norm of the unit plane-wave row w(r) off
the one-column basis s, so the closed form is the prefactor times the
plane-wave map of `--variant plane` against s (`music._plane_wave_norms`):
the per-axis products of its tables over the grid, with the imaging
kernel's residual form at the cells near the minimum. s is the unit row of
`music._plane_wave_rows` on the one-point lattice {x*} x {y*}. The closed
form needs no symmetry plan. The paper states the same quantity as a
Bessel-harmonic series: with z = k_aw r - conj(k_bw) r*, rho = sqrt(z . z) and
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

from .errors import DomainError
from .music import (
    _READ_ROWS,
    ImageMap,
    ImagingGrid,
    _axis_tables,
    _plane_wave_norms,
    _plane_wave_rows,
)
from .scene import AntennaArray, Medium, Scene, wavenumber
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


def closed_form_norm_map(
    grid: ImagingGrid, array: AntennaArray, k_bw: complex, k_aw: complex, r_star
) -> np.ndarray:
    """Predicted |P_noise W| at the unmasked cells of grid, in mask order
    (as `ImageMap.norms` holds a map's), for the anomaly at r_star, imaged
    with k_aw in the background k_bw by the antennas of array: the
    prefactor (N^2-2N)/(N^2-2N+1) times the plane-wave norms of k_aw
    against the one-column basis s (`music._plane_wave_norms`), s the unit
    plane-wave row of k_bw at r_star (`music._plane_wave_rows` on the
    one-point lattice {x*} x {y*}).
    """
    n = array.count
    x, y = (np.asarray([float(c)]) for c in r_star)
    at = np.zeros(1, dtype=np.intp)
    s = _plane_wave_rows(_axis_tables(k_bw, array.directions, x, y), at, at)
    norms = _plane_wave_norms(k_aw, array.directions, grid, s.T)
    norms *= (n * n - 2 * n) / (n * n - 2 * n + 1)
    return norms


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
    empirical: ImageMap, array: AntennaArray, k_bw: complex, k_aw: complex, r_star
) -> dict:
    """Agreement between the projection norms of a map and the closed-form
    prediction (`closed_form_norm_map` over the map's grid with the other
    arguments) over the unmasked cells: the dict of rms, max_abs,
    argmin_distance_cells (between the two minima) and pearson, in that
    order.

    The norms must lie in [0, 1], which refuses the reciprocal map of a
    `map-*.csv` read as norms.
    """
    grid = empirical.grid
    mask = grid.mask
    emp_vals = empirical.norms
    if np.any(emp_vals > 1.0 + 1e-9) or np.any(emp_vals < 0.0):
        raise DomainError("expected a projection-norm map with values in [0, 1]")
    theo_vals = closed_form_norm_map(grid, array, k_bw, k_aw, r_star)
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


def c_identity_check(scene: Scene, k_bw: complex) -> float:
    """C (N-1)^2 of a single-anomaly scene in the background k_bw, with
    C = |coef / tau_1|^2 and tau_1 the leading singular value of its
    far-field (`forward.ASYMPTOTIC`) data matrix coef * D (J - I) D, where
    coef = a^2 O k_bw e^{-2 i k_bw R} / (32 R omega mu),
    D = diag(e^{i k_bw theta_n . r*}) and J is the all-ones matrix.

    With w_n = |D_nn| = e^{-Im(k_bw) theta_n . r*}, tau_1 = |coef| lambda_1,
    where lambda_1 is the root of the secular equation (Golub 1973)

        sum_n w_n^2 / (lambda + w_n^2) = 1,

    so the value is ((N-1)/lambda_1)^2, with neither the matrix nor its
    SVD. The left side minus 1, f, falls and is convex on lambda > 0, and
    f >= 0 at S - max w^2 (S = sum w_n^2), so Newton's method from there
    rises to the root without passing it; it stops at the first step that
    does not rise (4-5 steps for N from 8 to 1024). lambda_1 = N-1 and the
    value is 1 when Im(k_bw) = 0 or r* = 0; on the lossy reference
    configuration it is 0.9007 at N=8 and 0.8855 at N=16, the modulus
    spread of the lossy plane waves that the rank-one normalization ignores.
    """
    if len(scene.anomalies) != 1:
        raise DomainError("the identity applies to single-anomaly scenes")
    r_star = np.asarray(scene.anomalies[0].center, dtype=float)
    w2 = np.exp(-2.0 * complex(k_bw).imag * (scene.array.directions @ r_star))
    lam = w2.sum() - w2.max()
    while True:
        shifted = lam + w2
        terms = w2 / shifted
        # -f / f', with f' = -sum w_n^2 / (lambda + w_n^2)^2
        step = (terms.sum() - 1.0) / np.sum(terms / shifted)
        if not lam + step > lam:
            return float(((scene.array.count - 1) / lam) ** 2)
        lam += step
