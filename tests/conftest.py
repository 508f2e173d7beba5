import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from mwmusic import music as mu
from mwmusic import scene as sc
from mwmusic import specfun

# Reference simulation configuration used across the suite: 16 antennas on a
# 0.09 m ring at 1 GHz around a 0.085 m disk with (20 eps0, 0.2 S/m), and two
# candidate anomalies.
EPS0 = sc.VACUUM_PERMITTIVITY
MU_B = sc.BACKGROUND_PERMEABILITY
FREQ = 1.0e9
ROI_RADIUS = 0.085
ARRAY_RADIUS = 0.09
N_ANTENNAS = 16

D1_CENTER = (0.01, 0.03)
D2_CENTER = (-0.04, -0.02)
ANOMALY_RADIUS = 0.01


def make_background() -> sc.Medium:
    return sc.Medium(permittivity=20 * EPS0, conductivity=0.2, permeability=MU_B)


def make_d1() -> sc.Anomaly:
    return sc.Anomaly(
        center=D1_CENTER,
        radius=ANOMALY_RADIUS,
        medium=sc.Medium(permittivity=55 * EPS0, conductivity=1.2, permeability=MU_B),
    )


def make_d2() -> sc.Anomaly:
    return sc.Anomaly(
        center=D2_CENTER,
        radius=ANOMALY_RADIUS,
        medium=sc.Medium(permittivity=45 * EPS0, conductivity=1.0, permeability=MU_B),
    )


def uniform_angles(count: int = N_ANTENNAS) -> np.ndarray:
    """The antenna angles theta_n = 2 pi n / N of `uniform_circular_array`."""
    return 2.0 * np.pi * np.arange(1, count + 1) / count


def make_scene(n_anomalies: int = 1, count: int = N_ANTENNAS) -> sc.Scene:
    anomalies = (make_d1(), make_d2())[:n_anomalies]
    return sc.Scene(
        background=make_background(),
        roi_radius=ROI_RADIUS,
        array=sc.uniform_circular_array(count, ARRAY_RADIUS),
        anomalies=anomalies,
        frequency=FREQ,
    )


def bessel_j_row(x: float, q_max: int) -> np.ndarray:
    """J_0(x)..J_{q_max}(x) at one point, the row of the package's one J_q
    entry point (`specfun.bessel_j_grid`)."""
    return specfun.bessel_j_grid(np.asarray([x], dtype=float), q_max)[0]


def raster(grid, values) -> np.ndarray:
    """The (res, res) array with values, in mask order (y rows, x fastest),
    at the unmasked cells of grid and NaN at the masked ones."""
    out = np.full((grid.resolution, grid.resolution), np.nan)
    out[grid.mask] = values
    return out


def steering(k_aw, grid, array, variant=mu.EXACT_FIELD):
    """The steering evaluator of `music.imaging_map` for the one wavenumber
    k_aw over grid and array."""
    (rows,) = mu.steering_evaluators([k_aw], grid, array, variant)
    return rows


def image_of(basis, k_aw, grid, array, variant=mu.EXACT_FIELD):
    """The `music.imaging_map` of basis with the steering evaluator of k_aw."""
    return mu.imaging_map(basis, k_aw, grid, array, steering(k_aw, grid, array, variant))


def image_from_data(data, k_aw, array, grid, variant=mu.EXACT_FIELD, signal_dim=None):
    """Decompose the data and image it from the leading signal_dim left
    singular vectors (the threshold rule when signal_dim is None)."""
    taus, vecs = mu.svd_leading(data)
    m = mu.signal_subspace_dim(taus) if signal_dim is None else signal_dim
    return image_of(vecs[:, :m], k_aw, grid, array, variant)


@pytest.fixture
def background():
    return make_background()


@pytest.fixture
def single_scene():
    return make_scene(1)


@pytest.fixture
def double_scene():
    return make_scene(2)
