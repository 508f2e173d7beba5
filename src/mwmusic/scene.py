"""Scene model: media, wavenumbers, the circular antenna array, and anomalies.

All quantities are SI. A scene is a disk-shaped homogeneous region of
interest centered at the origin, probed by a uniform circular array of
antennas placed outside it, and containing small circular anomalies that
differ from the background in permittivity and conductivity only (the
permeability is uniform).

Every type here is immutable after construction and every operation is a
pure function, so concurrent use needs no synchronization. A scene caches
the one table its diagnostics need that no wavenumber changes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, DomainError

# vacuum permittivity [F/m]
VACUUM_PERMITTIVITY = 8.854e-12
# uniform magnetic permeability of the modeled region [H/m]
BACKGROUND_PERMEABILITY = 1.257e-6

# "much greater than" proxies used by the scene diagnostics: the loss
# condition omega*eps >> sigma is accepted at a factor of 5 (the reference
# configuration sits at ~5.6), the far-field hypothesis at a factor of 10.
LOSS_FACTOR = 5.0
FAR_FIELD_FACTOR = 10.0
# cells per side of the coarse grid over which the far-field margin is checked
DIAGNOSTIC_RESOLUTION = 33
# antenna positions match under a symmetry of the array within this fraction
# of R (`music._antenna_permutation`); an array keeps its antennas more than
# twice as far apart, so no two antennas can match one partner
_SYMMETRY_TOL = 1e-9


def _finite(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class Medium:
    """Material triple (permittivity [F/m], conductivity [S/m], permeability [H/m])."""

    permittivity: float
    conductivity: float
    permeability: float = BACKGROUND_PERMEABILITY

    def __post_init__(self):
        if _finite(self.permittivity, "permittivity") < 0:
            raise DomainError("permittivity must be >= 0")
        if _finite(self.conductivity, "conductivity") < 0:
            raise DomainError("conductivity must be >= 0")
        if _finite(self.permeability, "permeability") <= 0:
            raise DomainError("permeability must be > 0")


def wavenumber(medium: Medium, omega: float) -> complex:
    """Principal-branch wavenumber k [1/m] with k^2 = omega^2 mu (eps + i sigma/omega).

    Re k > 0 always and Im k >= 0, with Im k = 0 exactly when sigma = 0.
    """
    omega = _finite(omega, "omega")
    if omega <= 0:
        raise DomainError(f"omega must be > 0, got {omega!r}")
    k2 = omega**2 * medium.permeability * complex(
        medium.permittivity, medium.conductivity / omega
    )
    return cmath.sqrt(k2)


@dataclass(frozen=True, eq=False)
class AntennaArray:
    """Antenna ring: radius R and positions a_n (N, 2) on the circle |a| = R."""

    radius: float
    positions: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, AntennaArray):
            return NotImplemented
        return self.radius == other.radius and np.array_equal(self.positions, other.positions)

    def __post_init__(self):
        if _finite(self.radius, "radius") <= 0:
            raise ConfigurationError("array radius must be > 0")
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2 or len(pos) < 3:
            raise ConfigurationError(f"positions must have shape (N, 2), N >= 3, got {pos.shape}")
        radii = np.hypot(pos[:, 0], pos[:, 1])
        if not np.allclose(radii, self.radius, rtol=1e-12, atol=0.0):
            raise ConfigurationError("all antennas must sit on the array circle")
        # on the circle the nearest pair are neighbours in angle, the last
        # and the first included; argsort, not np.unique: numpy 2.x imports
        # numpy.ma there
        ring = pos[np.argsort(np.arctan2(pos[:, 1], pos[:, 0]))]
        chords = np.hypot(*(ring - np.roll(ring, 1, axis=0)).T)
        if chords.min() <= 2 * _SYMMETRY_TOL * self.radius:
            raise ConfigurationError(f"antennas must be more than {2 * _SYMMETRY_TOL:g} R apart")
        pos.flags.writeable = False
        object.__setattr__(self, "positions", pos)

    @property
    def count(self) -> int:
        """Number of antennas N."""
        return len(self.positions)

    @property
    def directions(self) -> np.ndarray:
        """Unit vectors a_n / |a_n|, shape (N, 2)."""
        return self.positions / self.radius


def uniform_circular_array(count: int, radius: float) -> AntennaArray:
    """N equispaced antennas at angles theta_n = 2 pi n / N, n = 1..N."""
    if count < 3:
        raise ConfigurationError(f"count must be >= 3, got {count}")
    if not math.isfinite(radius) or radius <= 0:
        raise ConfigurationError(f"radius must be finite and > 0, got {radius!r}")
    angles = 2.0 * np.pi * np.arange(1, count + 1) / count
    positions = radius * np.column_stack([np.cos(angles), np.sin(angles)])
    return AntennaArray(radius=float(radius), positions=positions)


@dataclass(frozen=True)
class Anomaly:
    """Small circular anomaly: center [m], radius [m], and its material."""

    center: tuple[float, float]
    radius: float
    medium: Medium

    def __post_init__(self):
        cx, cy = self.center
        _finite(cx, "center x")
        _finite(cy, "center y")
        if _finite(self.radius, "anomaly radius") <= 0:
            raise DomainError("anomaly radius must be > 0")
        object.__setattr__(self, "center", (float(cx), float(cy)))


@dataclass(frozen=True)
class Scene:
    """Background disk, antenna array, anomalies, and the operating frequency [Hz]."""

    background: Medium
    roi_radius: float
    array: AntennaArray
    anomalies: tuple[Anomaly, ...] = field(default_factory=tuple)
    frequency: float = 1.0e9

    def __post_init__(self):
        if _finite(self.roi_radius, "roi_radius") <= 0:
            raise ConfigurationError("roi_radius must be > 0")
        if _finite(self.frequency, "frequency") <= 0:
            raise ConfigurationError("frequency must be > 0")
        try:
            k = self.background_wavenumber()
        except OverflowError:
            k = complex("inf")
        # a k of 0 (omega^2 mu underflows) would divide by 0 in `validate_scene`
        if not cmath.isfinite(k) or k == 0:
            raise ConfigurationError(
                f"the background wavenumber at {self.frequency:g} Hz is {'0' if k == 0 else 'not finite'}"
            )
        if self.array.radius <= self.roi_radius:
            raise ConfigurationError("antennas must be placed outside the region of interest")
        anomalies = tuple(self.anomalies)
        for an in anomalies:
            if math.hypot(*an.center) + an.radius >= self.roi_radius:
                raise ConfigurationError(
                    f"anomaly at {an.center} does not lie strictly inside the region of interest"
                )
        for i in range(len(anomalies)):
            for j in range(i + 1, len(anomalies)):
                d = math.dist(anomalies[i].center, anomalies[j].center)
                if d <= anomalies[i].radius + anomalies[j].radius:
                    raise ConfigurationError("anomaly disks must be pairwise disjoint")
        object.__setattr__(self, "anomalies", anomalies)

    @property
    def omega(self) -> float:
        return 2.0 * math.pi * self.frequency

    def background_wavenumber(self) -> complex:
        return wavenumber(self.background, self.omega)

    @cached_property
    def interior_antenna_distances(self) -> np.ndarray:
        """Distance to the nearest antenna of every point of the
        DIAGNOSTIC_RESOLUTION^2 grid over [-roi, roi]^2 that lies in the
        region of interest, in row-major order."""
        ticks = np.linspace(-self.roi_radius, self.roi_radius, DIAGNOSTIC_RESOLUTION)
        gx, gy = np.meshgrid(ticks, ticks)
        inside = np.hypot(gx, gy) <= self.roi_radius
        pos = self.array.positions
        d = np.hypot(
            gx[inside][:, None] - pos[None, :, 0],
            gy[inside][:, None] - pos[None, :, 1],
        ).min(axis=1)
        d.flags.writeable = False
        return d


def contrast(anomaly: Anomaly, background: Medium, omega: float) -> complex:
    """Complex material contrast (eps* - eps_b)/eps_b + i (sigma* - sigma_b)/(omega eps_b)."""
    if background.permittivity <= 0:
        raise DomainError("background permittivity must be > 0 for the contrast")
    omega = _finite(omega, "omega")
    if omega <= 0:
        raise DomainError("omega must be > 0")
    eb, sb = background.permittivity, background.conductivity
    ea, sa = anomaly.medium.permittivity, anomaly.medium.conductivity
    return complex((ea - eb) / eb, (sa - sb) / (omega * eb))


def _diagnostic(condition: str, passed: bool, measured: float, threshold: float, detail: str) -> dict:
    """One validation outcome as report.json holds it; status is 'pass' or
    'warn', never fatal. Strict JSON has no Infinity (e.g. the loss ratio of
    a lossless background), so a non-finite number is None."""
    return {
        "condition": condition,
        "status": "pass" if passed else "warn",
        "measured": measured if math.isfinite(measured) else None,
        "threshold": threshold if math.isfinite(threshold) else None,
        "detail": detail,
    }


def validate_scene(scene: Scene, k_aw: complex) -> list[dict]:
    """Check the applicability conditions of the imaging model; one dict
    per condition (`_diagnostic`).

    (a) low-loss background: omega eps_b >= LOSS_FACTOR * sigma_b;
    (b) electrically small anomalies: 2 alpha sqrt(eps*/eps_b) below the
        background wavelength 2 pi / Re(k_bw);
    (c) far-field margin: every anomaly center keeps
        min_n |a_n - r*| >= FAR_FIELD_FACTOR * max(1/(4|k_bw|), 1/(4|k_aw|)).
        Points near the rim of the region of interest sit closer to the
        array than this margin for typical geometries, so the status is
        decided at the anomaly centers (where the scattering data is
        formed); the fraction of a coarse interior grid satisfying the
        margin is reported in the detail string.

    Diagnostics only; nothing here raises for a physically questionable scene.
    """
    omega = scene.omega
    k_bw = scene.background_wavenumber()

    # (a) loss condition
    we = omega * scene.background.permittivity
    sb = scene.background.conductivity
    ratio = math.inf if sb == 0 else we / sb
    loss = _diagnostic(
        "background_loss", ratio >= LOSS_FACTOR, ratio, LOSS_FACTOR,
        f"omega*eps_b/sigma_b = {ratio:.3g} (want >= {LOSS_FACTOR:g})",
    )

    # (b) anomaly size against the wavelength
    wavelength = 2.0 * math.pi / k_bw.real
    worst = 0.0
    for an in scene.anomalies:
        worst = max(worst, 2.0 * an.radius * math.sqrt(an.medium.permittivity / scene.background.permittivity))
    size = _diagnostic(
        "anomaly_size", worst < wavelength, worst, wavelength,
        f"max 2a*sqrt(eps*/eps_b) = {worst:.4g} m vs wavelength {wavelength:.4g} m",
    )

    # (c) far-field margin
    margin = FAR_FIELD_FACTOR * max(1.0 / (4.0 * abs(k_bw)), 1.0 / (4.0 * abs(k_aw)))
    pos = scene.array.positions
    closest = math.inf
    for an in scene.anomalies:
        c = np.asarray(an.center)
        closest = min(closest, float(np.min(np.hypot(*(pos - c).T))))
    grid_frac = _far_field_grid_fraction(scene, margin)
    far_field = _diagnostic(
        "far_field", closest >= margin, closest, margin,
        f"min antenna-to-anomaly distance {closest:.4g} m vs margin {margin:.4g} m; "
        f"{100.0 * grid_frac:.0f}% of interior grid points satisfy the margin",
    )
    return [loss, size, far_field]


def _far_field_grid_fraction(scene: Scene, margin: float) -> float:
    return float(np.mean(scene.interior_antenna_distances >= margin))
