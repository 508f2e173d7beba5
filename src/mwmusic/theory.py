"""Closed-form structure of the imaging function and the peak-shift laws.

For a uniform circular array with unit directions theta_n, the anomaly at r*
spans the one-dimensional signal space of s_n = e^{i k_bw theta_n . r*}, and
the plane-wave steering vector at r is w_n(r) = e^{i k_aw theta_n . r}. The
projection norm is then

    |P_noise W(r)| ~ (N^2-2N)/(N^2-2N+1) * sqrt(1 - g(r)^2),
    g(r) = |s^H w(r)| / (|s| |w(r)|),

so the reciprocal map peaks where g reaches 1, near Re(k_bw/k_aw) r*. This
module evaluates g as that direct sum over the N antennas, exact for lossy
wavenumbers too, from the same overflow-safe unit rows
(`music._unit_phasors`) that the plane-wave steering uses. The paper
states the same quantity as a Bessel-harmonic series: with
z = k_aw r - conj(k_bw) r*, rho = sqrt(z . z) and
e^{i phi} = (z_x + i z_y) / rho, the Jacobi-Anger expansion (DLMF 10.12) of
each term gives

    s^H w = N (J_0(rho) + E(rho, phi)),
    E(rho, phi) = (1/N) sum_n sum_{q != 0} i^q J_q(rho) e^{iq(theta_n - phi)},

which the test suite checks against the direct sum. The module also gives
the predicted peak location under a permeability / permittivity /
conductivity mismatch and the quantitative agreement between an empirical
norm map and the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateDataError, DomainError
from .forward import ASYMPTOTIC, ScatteringMatrix
from .music import ImageMap, ImagingGrid, _unit_phasors
from .scene import AntennaArray, Medium, Scene, Wavenumber, contrast, wavenumber
# not used here: the traced benchmark wraps these two names in this module
from .specfun import bessel_j_grid, jacobi_anger_truncation  # noqa: F401

MISMATCH_KINDS = ("permeability", "permittivity", "conductivity")


@dataclass(frozen=True)
class MismatchSpec:
    """One wrong-background assumption: which parameter and by what ratio."""

    kind: str
    ratio: float

    def __post_init__(self):
        if self.kind not in MISMATCH_KINDS:
            raise DomainError(f"kind must be one of {MISMATCH_KINDS}, got {self.kind!r}")
        if not (math.isfinite(self.ratio) and self.ratio > 0):
            raise DomainError(f"ratio must be finite and > 0, got {self.ratio!r}")


def mismatched_wavenumber(background: Medium, omega: float, spec: MismatchSpec) -> Wavenumber:
    """Wavenumber computed with one background parameter replaced by ratio * true."""
    if spec.kind == "permeability":
        med = Medium(
            background.permittivity, background.conductivity, spec.ratio * background.permeability
        )
    elif spec.kind == "permittivity":
        med = Medium(
            spec.ratio * background.permittivity, background.conductivity, background.permeability
        )
    else:
        med = Medium(
            background.permittivity, spec.ratio * background.conductivity, background.permeability
        )
    return wavenumber(med, omega)


@dataclass(frozen=True)
class TheoryContext:
    """Everything the closed form needs: both wavenumbers, the anomaly
    location and the array geometry."""

    k_bw: Wavenumber
    k_aw: Wavenumber
    r_star: tuple[float, float]
    array: AntennaArray

    def __post_init__(self):
        object.__setattr__(self, "r_star", (float(self.r_star[0]), float(self.r_star[1])))

    @cached_property
    def _norm_prefactor(self) -> float:
        n = self.array.count
        return (n * n - 2 * n) / (n * n - 2 * n + 1)


def _norm_factor(ctx: TheoryContext, points: np.ndarray) -> np.ndarray:
    """g(r) = |s^H w(r)| / (|s| |w(r)|) per point, clamped into [0, 1]."""
    dirs = ctx.array.directions
    s = _unit_phasors(ctx.k_bw.value, np.asarray([ctx.r_star]), dirs)[0]
    w = _unit_phasors(ctx.k_aw.value, points, dirs)
    return np.minimum(np.abs(w @ s.conj()), 1.0)


def closed_form_norm_map(ctx: TheoryContext, grid: ImagingGrid) -> np.ndarray:
    """Predicted |P_noise W| over the grid (NaN at masked cells)."""
    g = _norm_factor(ctx, grid.cell_centers)
    out = np.full((grid.resolution, grid.resolution), np.nan)
    out[grid.mask] = ctx._norm_prefactor * np.sqrt(np.clip(1.0 - g * g, 0.0, None))
    return out


def predicted_peak(k_bw: Wavenumber, k_aw: Wavenumber, r_star) -> tuple[float, float]:
    """Shifted peak location Re(k_bw / k_aw) * r*.

    The real part of the complex ratio is the only component with a
    geometric meaning as a location scale; under the low-loss condition it
    differs from the modulus by well under a percent.
    """
    if k_aw.value == 0:
        raise DomainError("alternative wavenumber must be nonzero")
    scale = (k_bw.value / k_aw.value).real
    return (scale * float(r_star[0]), scale * float(r_star[1]))


@dataclass(frozen=True)
class MapComparison:
    """Agreement metrics between an empirical norm map and the closed form."""

    rms: float
    max_abs: float
    argmin_distance_cells: float
    pearson: float

    def as_dict(self) -> dict:
        return {
            "rms": self.rms,
            "max_abs": self.max_abs,
            "argmin_distance_cells": self.argmin_distance_cells,
            "pearson": self.pearson,
        }

    def as_text(self) -> str:
        return "\n".join(f"{key}: {value!r}" for key, value in self.as_dict().items())


def compare_maps(empirical: ImageMap, ctx: TheoryContext, grid: ImagingGrid) -> MapComparison:
    """RMS / max / argmin-shift / correlation between measured projection
    norms and the closed-form prediction, over unmasked cells.

    The empirical map must carry the raw projection norms (values in [0, 1]),
    not the clipped reciprocal map.
    """
    if empirical.grid != grid:
        raise DomainError("empirical map and comparison grid do not match")
    emp = empirical.raw_norm if empirical.raw_norm is not None else empirical.values
    mask = grid.mask
    emp_vals = emp[mask]
    if np.any(emp_vals > 1.0 + 1e-9) or np.any(emp_vals < 0.0):
        raise DomainError("expected a projection-norm map with values in [0, 1]")
    theo = closed_form_norm_map(ctx, grid)
    theo_vals = theo[mask]
    diff = emp_vals - theo_vals
    rms = float(np.sqrt(np.mean(diff**2)))
    max_abs = float(np.max(np.abs(diff)))

    def argmin_cell(field):
        filled = np.where(mask, field, np.inf)
        return np.unravel_index(int(np.argmin(filled)), filled.shape)

    ey, ex = argmin_cell(emp)
    ty, tx = argmin_cell(theo)
    dist_cells = math.hypot(ey - ty, ex - tx)
    pearson = float(np.corrcoef(emp_vals, theo_vals)[0, 1])
    return MapComparison(rms=rms, max_abs=max_abs, argmin_distance_cells=dist_cells, pearson=pearson)


def c_identity_check(
    k_asym: ScatteringMatrix, scene: Scene, k_bw: Wavenumber, tau1: float
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
        * k_bw.value
        * np.exp(-2j * k_bw.value * big_r)
        / (32.0 * big_r * omega * scene.background.permeability * tau1)
    )
    return abs(coef) ** 2 * (scene.array.count - 1) ** 2
