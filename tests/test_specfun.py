import functools
import math

import mpmath as mp
import numpy as np
import pytest

from mwmusic import harness, music as mu
from mwmusic import scene as sc
from mwmusic import specfun, theory as th
from mwmusic.errors import DomainError, SingularityError, TruncationError

from conftest import ARRAY_RADIUS, ROI_RADIUS, bessel_j_row, make_scene
from oracles import (
    bessel_j_oracle,
    cell_centers,
    hankel2_0_oracle,
    jacobi_anger_partial,
    ray_interpolant,
    table_ray,
)


# frozen from the ascending-series oracle
J0_AT_1 = 0.76519768655796655
H02_AT_1 = 0.76519768655796655 - 0.08825696421567696j


class TestBesselJ:
    def test_origin(self):
        assert bessel_j_row(0.0, 0)[0] == 1.0
        for q in (1, 2, 7, 3, 64):
            assert bessel_j_row(0.0, q)[q] == 0.0

    def test_j0_at_one_matches_series_oracle(self):
        assert bessel_j_row(1.0, 0)[0] == pytest.approx(J0_AT_1, abs=1e-14)

    @pytest.mark.parametrize("q", [0, 1, 2, 5, 11, 30, 64])
    @pytest.mark.parametrize("x", [0.05, 0.5, 1.0, 3.0, 7.5, 12.0, 14.9, 15.1, 22.0, 50.0, 100.0])
    def test_against_series_oracle(self, q, x):
        assert bessel_j_row(x, q)[q] == pytest.approx(bessel_j_oracle(q, x), abs=1e-12)

    @pytest.mark.parametrize("q,x", [(0, 1000.0), (1, 1000.0), (3, 9999.0), (128, 40.0), (128, 5.0)])
    def test_wide_range(self, q, x):
        # mpmath's own Bessel routine: the ascending series needs thousands of
        # digits at x = 9999
        assert bessel_j_row(x, q)[q] == pytest.approx(float(mp.besselj(q, x)), abs=1e-11)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_j_row(-0.5, 0)
        with pytest.raises(DomainError):
            bessel_j_row(float("nan"), 0)
        with pytest.raises(DomainError):
            bessel_j_row(1.5e4, 0)
        with pytest.raises(DomainError):
            bessel_j_row(1.0, specfun.Q_MAX + 1)

    def test_grid_matches_scalar(self):
        # the whole table at once against the series oracle, tiny and zero
        # arguments included
        xs = np.array([0.0, 1e-14, 0.3, 2.0, 9.0, 15.5, 28.0])
        table = specfun.bessel_j_grid(xs, 40)
        for i, x in enumerate(xs):
            for q in (0, 1, 2, 17, 40):
                assert table[i, q] == pytest.approx(bessel_j_oracle(q, float(x)), abs=1e-12)

    def test_recurrence_residual(self):
        # |J_{q-1} + J_{q+1} - (2q/x) J_q| <= 1e-9
        rng = np.random.default_rng(7)
        xs = np.concatenate([[0.1, 50.0], rng.uniform(0.1, 50.0, 40)])
        for x in xs:
            row = bessel_j_row(float(x), 31)
            for q in range(1, 30):
                resid = row[q - 1] + row[q + 1] - (2 * q / x) * row[q]
                assert abs(resid) <= 1e-9

    def test_normalization_sum(self):
        # J_0^2 + 2 sum_{q>=1} J_q^2 = 1
        for x in (0.5, 1.0, 4.0, 9.5, 14.0, 20.0):
            row = bessel_j_row(x, specfun.Q_MAX)
            total = row[0] ** 2 + 2.0 * np.sum(row[1:] ** 2)
            assert total == pytest.approx(1.0, abs=1e-10)


class TestHankel2:
    def test_at_one(self):
        val = specfun.hankel2_0(1.0)
        assert val == pytest.approx(H02_AT_1, rel=1e-12)

    def test_large_argument_modulus(self):
        # leading asymptotic modulus sqrt(2/(pi x))
        val = specfun.hankel2_0(100.0)
        assert abs(val) * math.sqrt(math.pi * 100.0 / 2.0) == pytest.approx(1.0, abs=1e-3)

    def test_imag_negative_where_y0_positive(self):
        # Y_0 > 0 on (0.8936, 3.9577); H_0^(2) = J_0 - i Y_0 has Im < 0 there
        for x in np.linspace(0.9, 2.1, 25):
            assert specfun.hankel2_0(float(x)).imag < 0.0

    def test_against_series_oracle_random_complex(self):
        # draws over the closed first quadrant, the domain of hankel2_0, plus
        # draws with arg z near pi/2 and with |z| near the series/asymptotic
        # crossover at 15
        rng = np.random.default_rng(42)
        mags = rng.uniform(0.01, 30.0, 500)
        args = rng.uniform(0.0, np.pi / 2, 500)
        steep = rng.uniform(0.01, 5.0, 50) * np.exp(1j * (np.pi / 2 - rng.uniform(0, 0.05, 50)))
        near_crossover = rng.uniform(14.5, 15.5, 50) * np.exp(1j * rng.uniform(0.0, 0.32, 50))
        zs = np.concatenate([mags * np.exp(1j * args), steep, near_crossover])
        zs = np.where(zs.imag > 5.0, zs.real + 5.0j, zs)
        zs = zs[np.abs(zs) >= 0.01]
        assert np.all(zs.real > 0.0) and np.all(zs.imag >= 0.0)
        vals = specfun.hankel2_0(zs)
        for z, v in zip(zs, vals):
            ref = hankel2_0_oracle(complex(z))
            assert abs(v - ref) <= 1e-9 * abs(ref)

    def test_vector_and_scalar_agree(self):
        zs = np.array([0.5 + 0.1j, 14.9 + 2.0j, 15.1 + 2.0j, 300.0 + 10.0j])
        vec = specfun.hankel2_0(zs)
        for z, v in zip(zs, vec):
            assert specfun.hankel2_0(complex(z)) == v

    def test_errors(self):
        with pytest.raises(SingularityError):
            specfun.hankel2_0(0.0)
        with pytest.raises(DomainError):
            specfun.hankel2_0(2.0e6)
        with pytest.raises(DomainError):
            specfun.hankel2_0(complex(float("inf"), 0.0))

    @pytest.mark.parametrize("z", [
        1.0 - 0.5j, 20.0 - 1e-9j,  # Im z < 0
        -1.0, -20.0 + 0.5j,  # Re z < 0
        2.0j, 20.0j,  # Re z = 0
        np.array([1.0, 0.5 + 0.1j, 3.0 - 1e-3j]),
    ], ids=["lower", "lower-asymptotic", "negative-real", "left", "imaginary-axis",
            "imaginary-axis-asymptotic", "array"])
    def test_outside_first_quadrant(self, z):
        with pytest.raises(DomainError, match=r"Re z > 0 and Im z >= 0"):
            specfun.hankel2_0(z)


def _preset_sweep(name):
    kind, ratios, _ = harness.PRESETS[name]
    return [(kind, r) for r in ratios]


# (resolution, antenna count, swept parameter, ratio) of the steering tables
# of the benchmark workloads (mu-single, sigma-double, array64, compare),
# which between them cover every preset ratio; mu x300 is the largest ratio
# the harness tests sweep
_RAY_TABLES = (
    [(112, 16, *kr) for kr in _preset_sweep("fig-mu-single") + [("permeability", 300.0)]]
    + [(160, 16, *kr) for kr in _preset_sweep("fig-sigma-double")]
    + [(48, 64, *kr) for kr in _preset_sweep("fig-eps-double")]
    + [(144, 16, *kr) for kr in _preset_sweep("fig-mu-single")]
)
# worst measured over _RAY_TABLES: 1.9e-10 (eps x10, resolution 48, 64 antennas) at
# |kd| = 15.0, the series/asymptotic crossover of hankel2_0, where hankel2_0
# is 1.2e-10 and the interpolant 6.7e-11 off mpmath
_RAY_VS_HANKEL_REL = 4e-10


@functools.lru_cache(maxsize=None)
def _distances(resolution, count):
    points = cell_centers(mu.grid_for_roi(ROI_RADIUS, resolution))
    sources = sc.uniform_circular_array(count, ARRAY_RADIUS).positions
    return np.hypot(
        points[:, None, 0] - sources[None, :, 0], points[:, None, 1] - sources[None, :, 1]
    )


def _wavenumber(kind, ratio):
    scene = make_scene(1)
    return th.mismatched_wavenumber(scene.background, scene.omega, kind, ratio)


@pytest.mark.parametrize("resolution,count,kind,ratio", _RAY_TABLES)
class TestHankel2Ray:
    def test_sampled_entries_against_oracle(self, resolution, count, kind, ratio):
        k = _wavenumber(kind, ratio)
        d = _distances(resolution, count).ravel()
        rng = np.random.default_rng(resolution + count)
        picks = np.concatenate([[np.argmin(d), np.argmax(d)], rng.integers(0, d.size, 8)])
        # the panels follow the whole table's range, so pick from the table
        table = table_ray(k, d)(d)
        for i, v in zip(picks, table[picks]):
            ref = hankel2_0_oracle(complex(k * d[i]))
            assert abs(v - ref) <= 1e-9 * abs(ref)

    def test_whole_table_matches_hankel2_0(self, resolution, count, kind, ratio):
        k = _wavenumber(kind, ratio)
        d = _distances(resolution, count)
        table = table_ray(k, d)(d)
        ref = specfun.hankel2_0(k * d)
        assert table.shape == d.shape
        assert np.max(np.abs(table - ref) / np.abs(ref)) <= _RAY_VS_HANKEL_REL

    def test_sweep_evaluator_bit_identical(self, resolution, count, kind, ratio):
        # the evaluators of a sweep, built together, are those built one k
        # at a time: each k's nodes stop their sums at their own terms
        d = _distances(resolution, count)
        sweep = [_wavenumber(*t[2:]) for t in _RAY_TABLES if t[:2] == (resolution, count)]
        k = _wavenumber(kind, ratio)
        together = specfun.ray_interpolants(sweep, d.min(), d.max())[sweep.index(k)]
        assert together(d).tobytes() == table_ray(k, d)(d).tobytes()


class TestHankel2RayEdges:
    def test_lossless_sweep_bit_identical(self):
        # real wavenumbers put every node on the real axis, the edge of the
        # quadrant that hankel2_0 accepts
        scene = make_scene(1)
        lossless = sc.Medium(scene.background.permittivity, 0.0)
        ks = [th.mismatched_wavenumber(lossless, scene.omega, "permittivity", r)
              for r in (1.0, 2.0, 10.0, 0.5, 0.2, 0.1)]
        assert all(k.imag == 0.0 for k in ks)
        d = _distances(128, 16)
        for k, together in zip(ks, specfun.ray_interpolants(ks, d.min(), d.max())):
            assert together(d).tobytes() == table_ray(k, d)(d).tobytes()

    def test_failed_wavenumber_leaves_the_others(self):
        # a k out of range is its own entry; the sweep's other rays form
        ks = [94.0 + 8.0j, 1.0e5 * (94.0 + 8.0j), 188.0 + 4.0j]
        rays = specfun.ray_interpolants(ks, 0.05, 0.2)
        assert isinstance(rays[1], DomainError)
        d = np.linspace(0.05, 0.2, 7)
        for k, ray in zip(ks[::2], rays[::2]):
            assert ray(d).tobytes() == ray_interpolant(k, 0.05, 0.2)(d).tobytes()

    def test_all_equal_distances(self):
        # every distance from the array centre is the ring radius
        k = _wavenumber("permeability", 1.0)
        d = np.full((3, 16), ARRAY_RADIUS)
        table = ray_interpolant(k, ARRAY_RADIUS, ARRAY_RADIUS)(d)
        assert np.all(table == table[0, 0])
        # measured 4.5e-14: the one distance is the end of the last panel,
        # which no Chebyshev node reaches, so its value is interpolated
        assert table[0, 0] == pytest.approx(specfun.hankel2_0(k * ARRAY_RADIUS), rel=1e-13, abs=0)

    def test_empty_table(self):
        ray = ray_interpolant(94.0 + 8.0j, 0.05, 0.2)
        table = ray(np.empty((0, 16)))
        assert table.shape == (0, 16)
        assert table.dtype == np.complex128

    def test_out_of_range_argument(self):
        # |k d| past 1e6 only at the far end of the range
        with pytest.raises(DomainError):
            ray_interpolant(100.0, 0.01, 1.001e4)
        # the permeability x1e10 wavenumber of the harness failure test
        with pytest.raises(DomainError):
            ray_interpolant(1.0e5 * (94.0 + 8.0j), 0.05, 0.2)

    def test_outside_first_quadrant(self):
        # a wavenumber below the real axis, and a negative distance
        with pytest.raises(DomainError, match=r"Re z > 0 and Im z >= 0"):
            ray_interpolant(94.0 - 8.0j, 0.05, 0.1)
        with pytest.raises(DomainError, match=r"Re z > 0 and Im z >= 0"):
            ray_interpolant(94.0 + 8.0j, -0.05, 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_distance(self, bad):
        # at either end of the range
        with pytest.raises(DomainError):
            ray_interpolant(94.0 + 8.0j, 0.05, bad)
        with pytest.raises(DomainError):
            ray_interpolant(94.0 + 8.0j, bad, 0.1)

    def test_non_finite_wavenumber(self):
        with pytest.raises(DomainError):
            ray_interpolant(complex(math.nan, 1.0), 0.05, 0.1)

    def test_zero_distance(self):
        with pytest.raises(SingularityError):
            ray_interpolant(94.0 + 8.0j, 0.0, 0.1)


class TestJacobiAngerTruncation:
    def test_zero_argument(self):
        assert specfun.jacobi_anger_truncation(0.0, 1e-10) == 0

    def test_residual_meets_tolerance(self):
        x = 10.0
        big_q = specfun.jacobi_anger_truncation(x, 1e-10)
        thetas = np.linspace(0.0, 2 * np.pi, 360, endpoint=False)
        row = bessel_j_row(x, big_q)
        for theta in thetas:
            partial = row[0] + sum(
                (1j**q) * row[q] * np.exp(1j * q * theta)
                + (1j**-q) * ((-1.0) ** q * row[q]) * np.exp(-1j * q * theta)
                for q in range(1, big_q + 1)
            )
            assert abs(np.exp(1j * x * np.cos(theta)) - partial) <= 1e-10

    def test_monotone_in_x(self):
        qs = [specfun.jacobi_anger_truncation(float(x), 1e-10) for x in range(1, 21)]
        assert all(a <= b for a, b in zip(qs, qs[1:]))

    def test_matches_oracle_partial_sum(self):
        x = 5.0
        big_q = specfun.jacobi_anger_truncation(x, 1e-10)
        for theta in (0.0, 0.7, 2.2):
            ref = jacobi_anger_partial(x, theta, big_q)
            direct = np.exp(1j * x * np.cos(theta))
            assert abs(direct - ref) <= 1e-10

    def test_truncation_error_reports_requirement(self):
        with pytest.raises(TruncationError) as err:
            specfun.jacobi_anger_truncation(200.0, 1e-10)
        assert err.value.required > specfun.Q_MAX

    def test_tol_domain(self):
        with pytest.raises(DomainError):
            specfun.jacobi_anger_truncation(1.0, 0.0)
        with pytest.raises(DomainError):
            specfun.jacobi_anger_truncation(1.0, 0.5)
