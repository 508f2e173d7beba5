"""Synthetic scattered-field S-parameter data.

The measured quantity between transmitter m and receiver n is modeled, for
small low-contrast anomalies, as a sum of single-anomaly terms

    S(n, m) = sum_D  (i a^2 k^2 pi / (4 omega mu)) * O_D * u(a_m, r_D) * u(a_n, r_D)

with u either the exact point-source field (i/4) H_0^(2)(k |r - r'|)
("full_hankel" mode) or its far-field plane-wave reduction ("asymptotic"
mode). The N x N matrix of these values is symmetric with an identically
zero diagonal (monostatic entries are not part of the data).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularityError
from .scene import Scene, Wavenumber, contrast
from .specfun import hankel2_0, hankel2_0_ray

FULL_HANKEL = "full_hankel"
ASYMPTOTIC = "asymptotic"
MODES = (FULL_HANKEL, ASYMPTOTIC)

# snr_db sentinel meaning "no noise"
NOISELESS = math.inf


@dataclass(frozen=True)
class ScatteringMatrix:
    """Complex N x N scattered-field S-parameters, zero diagonal, symmetric."""

    n: int
    entries: np.ndarray
    mode: str

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.complex128)
        if e.shape != (self.n, self.n):
            raise DomainError(f"entries must be {self.n}x{self.n}, got {e.shape}")
        if self.mode not in MODES:
            raise DomainError(f"mode must be one of {MODES}, got {self.mode!r}")
        if np.any(np.diagonal(e) != 0):
            raise DomainError("diagonal entries must be identically zero")
        if not np.array_equal(e, e.T):
            raise DomainError("scattering matrix must be symmetric")
        e.flags.writeable = False
        object.__setattr__(self, "entries", e)


def incident_field(k: Wavenumber, r, r_src) -> complex:
    """Point-source field (i/4) H_0^(2)(k |r - r_src|); symmetric in its two points."""
    d = math.dist(tuple(r), tuple(r_src))
    if d == 0.0:
        raise SingularityError("incident field evaluated at its source point")
    return 0.25j * hankel2_0(k.value * d)


def incident_field_matrix(k: Wavenumber, points: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Point-source field (i/4) H_0^(2)(k |r - r_src|) at every point for every
    source, shape (len(points), len(sources)).

    All arguments lie on the one ray k * d, so the table comes from the
    piecewise Chebyshev interpolant `hankel2_0_ray` (within ~2e-10 of
    `hankel2_0`, which `incident_field` calls directly).
    """
    points = np.asarray(points, dtype=float)
    sources = np.asarray(sources, dtype=float)
    d = np.hypot(
        points[:, None, 0] - sources[None, :, 0],
        points[:, None, 1] - sources[None, :, 1],
    )
    if np.any(d == 0.0):
        raise SingularityError("incident field evaluated at a source point")
    return 0.25j * hankel2_0_ray(k.value, d)


def asymptotic_incident_field(k: Wavenumber, antenna, r) -> complex:
    """Far-field reduction of the point-source field at antenna position a:

        (-1+i) e^{-ik|a|} / (4 sqrt(k pi |a|)) * e^{ik (a/|a|) . r}

    The wavenumber passed in drives both the amplitude and the plane-wave phase.
    """
    ax, ay = float(antenna[0]), float(antenna[1])
    big_r = math.hypot(ax, ay)
    if big_r == 0.0:
        raise DomainError("antenna position must be nonzero")
    rx, ry = float(r[0]), float(r[1])
    phase = (ax * rx + ay * ry) / big_r
    kv = k.value
    return (
        (-1 + 1j)
        * cmath.exp(-1j * kv * big_r)
        / (4.0 * cmath.sqrt(kv * math.pi * big_r))
        * cmath.exp(1j * kv * phase)
    )


def _antenna_field_vector(scene: Scene, k: Wavenumber, center, mode: str) -> np.ndarray:
    """u(k, a_n, r*) over all antennas, per the requested mode."""
    if mode == FULL_HANKEL:
        return np.array([incident_field(k, pos, center) for pos in scene.array.positions])
    if mode == ASYMPTOTIC:
        return np.array(
            [asymptotic_incident_field(k, pos, center) for pos in scene.array.positions]
        )
    raise DomainError(f"unknown mode {mode!r}")


def _anomaly_terms(scene: Scene, k_bw: Wavenumber, mode: str):
    """Per-anomaly (weight, field-vector) pairs of the first-order model."""
    omega = scene.omega
    mu = scene.background.permeability
    for an in scene.anomalies:
        weight = (
            1j * an.radius**2 * k_bw.value**2 * math.pi / (4.0 * omega * mu)
        ) * contrast(an, scene.background, omega)
        yield weight, _antenna_field_vector(scene, k_bw, an.center, mode)


def born_sparam(scene: Scene, k_bw: Wavenumber, m: int, n: int, mode: str = FULL_HANKEL) -> complex:
    """Scattered-field S-parameter between antennas m and n (0-based indices)."""
    if m == n:
        raise DomainError("monostatic (m == n) entries are excluded from the data")
    count = scene.array.count
    if not (0 <= m < count and 0 <= n < count):
        raise DomainError(f"antenna indices must lie in [0, {count})")
    if not scene.anomalies:
        raise DomainError("scene must contain at least one anomaly")
    total = 0.0 + 0.0j
    for weight, u in _anomaly_terms(scene, k_bw, mode):
        total += weight * (u[m] * u[n])
    return total


def scattering_matrix(scene: Scene, k_bw: Wavenumber, mode: str = FULL_HANKEL) -> ScatteringMatrix:
    """Assemble the full N x N data matrix; no anomalies gives the zero matrix."""
    count = scene.array.count
    entries = np.zeros((count, count), dtype=np.complex128)
    # fill the upper triangle and mirror it, so reciprocity holds bit for bit
    iu, ju = np.triu_indices(count, k=1)
    for weight, u in _anomaly_terms(scene, k_bw, mode):
        entries[iu, ju] += weight * (u[iu] * u[ju])
    entries[ju, iu] = entries[iu, ju]
    return ScatteringMatrix(n=count, entries=entries, mode=mode)


def add_noise(k_mat: ScatteringMatrix, snr_db: float, seed: int) -> ScatteringMatrix:
    """Perturb off-diagonal entries with circularly-symmetric complex Gaussian noise.

    The same draw is used for (n, m) and (m, n), keeping the matrix
    symmetric; the variance is set so that mean signal power over mean noise
    power equals 10^(snr_db/10). snr_db = +inf returns the input unchanged.
    Deterministic for a fixed seed.
    """
    snr_db = float(snr_db)
    if math.isnan(snr_db):
        raise DomainError("snr_db must not be NaN")
    if snr_db == NOISELESS:
        return k_mat
    n = k_mat.n
    off_mask = ~np.eye(n, dtype=bool)
    signal_power = float(np.mean(np.abs(k_mat.entries[off_mask]) ** 2))
    noise_power = signal_power / 10.0 ** (snr_db / 10.0)
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    draws = math.sqrt(noise_power / 2.0) * (
        rng.standard_normal(iu.size) + 1j * rng.standard_normal(iu.size)
    )
    noise = np.zeros((n, n), dtype=np.complex128)
    noise[iu, ju] = draws
    noise[ju, iu] = draws
    return ScatteringMatrix(n=n, entries=k_mat.entries + noise, mode=k_mat.mode)


# ---------------------------------------------------------------------------
# Text serialization: count line, mode line, then N^2 "re,im" rows
# (row-major), printed with 17 significant digits for lossless round-trips.
# ---------------------------------------------------------------------------

def save_matrix(k_mat: ScatteringMatrix, path) -> None:
    lines = [str(k_mat.n), k_mat.mode]
    for value in k_mat.entries.ravel():
        lines.append(f"{value.real:.17g},{value.imag:.17g}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_matrix(path) -> ScatteringMatrix:
    with open(path, "r", encoding="ascii") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if len(lines) < 2:
        raise DomainError(f"{path}: truncated scattering-matrix file")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise DomainError(f"{path}: bad count line {lines[0]!r}") from exc
    mode = lines[1]
    body = lines[2:]
    if len(body) != n * n:
        raise DomainError(f"{path}: expected {n * n} entries, found {len(body)}")
    values = np.empty(n * n, dtype=np.complex128)
    for i, row in enumerate(body):
        try:
            re_s, im_s = row.split(",")
            values[i] = complex(float(re_s), float(im_s))
        except ValueError as exc:
            raise DomainError(f"{path}: bad entry {row!r} at row {i}") from exc
    return ScatteringMatrix(n=n, entries=values.reshape(n, n), mode=mode)
