"""Synthetic scattered-field S-parameter data.

The measured quantity between transmitter m and receiver n is modeled, for
small low-contrast anomalies, as a sum of single-anomaly terms

    S(n, m) = sum_D  (i a^2 k^2 pi / (4 omega mu)) * O_D * u(a_m, r_D) * u(a_n, r_D)

with u either the exact point-source field (i/4) H_0^(2)(k |r - r'|)
("full_hankel" mode) or its far-field plane-wave reduction ("asymptotic"
mode). The N x N matrix of these values is symmetric with an identically
zero diagonal (monostatic entries are not part of the data).

Every field is one table over points x antennas. The data matrix takes
its (anomalies x antennas) table from one exact `hankel2_0` call on the
distance table, or from `asymptotic_field_matrix`; the exact-field
steering table of the imaging step, `incident_field_matrix`, takes the
same field from a Chebyshev interpolant of `specfun.ray_interpolant`
that the caller passes in. The imaging step builds it once per wavenumber
over the distance range of the whole grid and evaluates it chunk by
chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularityError
from .scene import Scene, contrast
from .specfun import hankel2_0

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


def _distances(points: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """|r - r_src| for every point and source, shape (len(points), len(sources))."""
    points = np.asarray(points, dtype=float)
    sources = np.asarray(sources, dtype=float)
    d = np.hypot(
        points[:, None, 0] - sources[None, :, 0],
        points[:, None, 1] - sources[None, :, 1],
    )
    if np.any(d == 0.0):
        raise SingularityError("incident field evaluated at a source point")
    return d


def incident_field_matrix(ray, points: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Point-source field (i/4) H_0^(2)(k |r - r_src|) at every point for every
    source, shape (len(points), len(sources)).

    All arguments lie on the one ray k * d, so the table comes from `ray`,
    the piecewise Chebyshev interpolant `specfun.ray_interpolant(k, d_min,
    d_max)` over a distance range that covers the table (within ~2e-10 of
    `hankel2_0`, which the data matrix calls directly).
    """
    return 0.25j * ray(_distances(points, sources))


def asymptotic_field_matrix(k: complex, points: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Far-field reduction of the point-source field at every point for every
    source a, shape (len(points), len(sources)):

        (-1+i) e^{-ik|a|} / (4 sqrt(k pi |a|)) * e^{ik (a/|a|) . r}

    The wavenumber passed in drives both the amplitude and the plane-wave phase.
    """
    points = np.asarray(points, dtype=float)
    sources = np.asarray(sources, dtype=float)
    big_r = np.hypot(sources[:, 0], sources[:, 1])
    if np.any(big_r == 0.0):
        raise DomainError("antenna position must be nonzero")
    amplitude = (-1 + 1j) * np.exp(-1j * k * big_r) / (4.0 * np.sqrt(k * math.pi * big_r))
    return amplitude * np.exp(1j * k * ((points @ sources.T) / big_r))


def scattering_matrix(scene: Scene, k_bw: complex, mode: str = FULL_HANKEL) -> ScatteringMatrix:
    """Assemble the full N x N data matrix; no anomalies gives the zero matrix."""
    centers = np.array([an.center for an in scene.anomalies], dtype=float).reshape(-1, 2)
    positions = scene.array.positions
    if mode == FULL_HANKEL:
        fields = 0.25j * hankel2_0(k_bw * _distances(centers, positions))
    elif mode == ASYMPTOTIC:
        fields = asymptotic_field_matrix(k_bw, centers, positions)
    else:
        raise DomainError(f"unknown mode {mode!r}")
    omega = scene.omega
    mu = scene.background.permeability
    count = scene.array.count
    entries = np.zeros((count, count), dtype=np.complex128)
    # fill the upper triangle and mirror it, so reciprocity holds bit for bit
    iu, ju = np.triu_indices(count, k=1)
    for an, u in zip(scene.anomalies, fields):
        weight = (
            1j * an.radius**2 * k_bw**2 * math.pi / (4.0 * omega * mu)
        ) * contrast(an, scene.background, omega)
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
