"""Synthetic scattered-field S-parameter data.

The measured quantity between transmitter m and receiver n is modeled, for
small low-contrast anomalies, as a sum of single-anomaly terms

    S(n, m) = sum_D  (i a^2 k^2 pi / (4 omega mu)) * O_D * u(a_m, r_D) * u(a_n, r_D)

with u either the exact point-source field (i/4) H_0^(2)(k |r - r'|)
("full_hankel" mode) or its far-field plane-wave reduction ("asymptotic"
mode). The data matrix is the read-only complex N x N ndarray of these
values, symmetric with an identically zero diagonal by construction
(monostatic entries are not part of the data).

Every field is one table over points x antennas. The data matrix takes
its (anomalies x antennas) table from one exact `hankel2_0` call on the
distance table, or from `asymptotic_field_matrix`; the exact-field
steering table of the imaging step, `incident_field_matrix`, takes the
same field from a Chebyshev interpolant of `specfun.ray_interpolants`
that the caller passes in. A sweep builds the interpolants of all its
wavenumbers at once, over the distance range of the whole grid, and each
map evaluates its own chunk by chunk.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, SingularityError
from .scene import Scene, contrast
from .specfun import hankel2_0

FULL_HANKEL = "full_hankel"
ASYMPTOTIC = "asymptotic"
MODES = (FULL_HANKEL, ASYMPTOTIC)

# snr_db sentinel meaning "no noise"
NOISELESS = math.inf
# largest |snr_db| of a noisy matrix: the power ratio 10^(snr_db/10) stays a
# finite, normal double (10^-300 to 10^300), far past the +-320 dB beyond
# which the noise or the signal falls below the other's last bit
SNR_DB_LIMIT = 3000.0


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
    the piecewise Chebyshev interpolant of k from `specfun.ray_interpolants`
    over a distance range that covers the table (within ~2e-10 of
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


def scattering_matrix(scene: Scene, k_bw: complex, mode: str = FULL_HANKEL) -> np.ndarray:
    """The read-only N x N data matrix; no anomalies gives the zero matrix."""
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
    entries.flags.writeable = False
    return entries


def add_noise(k_mat: np.ndarray, snr_db: float, seed: int) -> np.ndarray:
    """Perturb off-diagonal entries with circularly-symmetric complex Gaussian
    noise; a new read-only matrix.

    The same draw is used for (n, m) and (m, n), keeping the matrix
    symmetric; the variance is set so that mean signal power over mean noise
    power equals 10^(snr_db/10). snr_db = +inf returns the input unchanged;
    any other snr_db outside [-SNR_DB_LIMIT, SNR_DB_LIMIT] raises DomainError.
    Deterministic for a fixed seed.
    """
    snr_db = float(snr_db)
    if snr_db == NOISELESS:
        return k_mat
    if not abs(snr_db) <= SNR_DB_LIMIT:
        raise DomainError(
            f"snr_db must be inf or lie in [-{SNR_DB_LIMIT:g}, {SNR_DB_LIMIT:g}], got {snr_db!r}"
        )
    n = len(k_mat)
    off_mask = ~np.eye(n, dtype=bool)
    signal_power = float(np.mean(np.abs(k_mat[off_mask]) ** 2))
    noise_power = signal_power / 10.0 ** (snr_db / 10.0)
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    draws = math.sqrt(noise_power / 2.0) * (
        rng.standard_normal(iu.size) + 1j * rng.standard_normal(iu.size)
    )
    noise = np.zeros((n, n), dtype=np.complex128)
    noise[iu, ju] = draws
    noise[ju, iu] = draws
    noisy = k_mat + noise
    noisy.flags.writeable = False
    return noisy
