import dataclasses
import math
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest

from mwmusic import forward as fw
from mwmusic import harness
from mwmusic import music as mu
from mwmusic import scene as sc
from mwmusic import specfun
from mwmusic import theory as th
from mwmusic.errors import (
    ConfigurationError,
    DegenerateDataError,
    DomainError,
    NumericalError,
)

from conftest import image_from_data, image_of, make_scene, raster, steering
from oracles import (
    argmax_point,
    cell_centers,
    direct_closed_form_norm_map,
    direct_norms,
    direct_rows,
    greedy_peaks,
    map_csv_text,
    map_csv_values,
    onesided_jacobi_singular_values,
    projection_norm,
    ray_interpolant,
    unit_phasors,
)


def _grid(resolution=128):
    return mu.grid_for_roi(0.085, resolution)


# the k_aw of a map built from given norms: the reference background's
_K_AW = 94.0 + 8.0j


class TestSvdLeading:
    def test_zero_matrix(self):
        taus, _ = mu.svd_leading(np.zeros((6, 6), dtype=complex))
        assert np.all(taus == 0)

    def test_rank_one_symmetric(self):
        # The SVD acts on K itself, not on K K^H, so nothing is squared:
        # the exactly-zero singular values come out at rounding level
        # (measured 8.5e-17 tau_1 here).
        rng = np.random.default_rng(0)
        x = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        taus, vecs = mu.svd_leading(np.outer(x, x))
        nrm2 = float(np.sum(np.abs(x) ** 2))
        assert taus[0] == pytest.approx(nrm2, rel=1e-12)
        assert np.all(taus[1:] <= 1e-13 * taus[0])
        overlap = abs(np.vdot(vecs[:, 0], x / np.linalg.norm(x)))
        assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_random_matrix_against_onesided_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        taus, _ = mu.svd_leading(a)
        ref = onesided_jacobi_singular_values(a)
        assert np.max(np.abs(taus - ref)) <= 1e-10 * ref[0]

    def test_eigen_residual_and_orthonormality(self, double_scene):
        k = double_scene.background_wavenumber()
        mat = fw.scattering_matrix(double_scene, k)
        taus, vecs = mu.svd_leading(mat)
        gram = mat @ mat.conj().T
        tau1 = taus[0]
        for j in range(len(mat)):
            u = vecs[:, j]
            resid = np.linalg.norm(gram @ u - taus[j] ** 2 * u)
            assert resid <= 1e-8 * tau1**2
        eye_dev = np.abs(vecs.conj().T @ vecs - np.eye(len(mat)))
        assert np.max(eye_dev) <= 1e-10

    def test_descending_order(self, single_scene):
        k = single_scene.background_wavenumber()
        taus, _ = mu.svd_leading(fw.scattering_matrix(single_scene, k))
        assert np.all(np.diff(taus) <= 0)

    def test_nan_entry_raises(self, single_scene):
        k = single_scene.background_wavenumber()
        entries = fw.scattering_matrix(single_scene, k).copy()
        entries[2, 5] = np.nan
        with pytest.raises(NumericalError):
            mu.svd_leading(entries)

    def test_too_small_matrix(self):
        with pytest.raises(DomainError):
            mu.svd_leading(np.zeros((2, 2), dtype=complex))


class TestSignalSubspaceDim:
    def test_single_dominant(self):
        assert mu.signal_subspace_dim([1.0, 1e-12, 1e-13], 0.1) == 1

    def test_zero_ratio_keeps_all(self):
        assert mu.signal_subspace_dim([1.0, 0.5, 0.01, 0.0], 0.0) == 4

    def test_degenerate(self):
        with pytest.raises(DegenerateDataError):
            mu.signal_subspace_dim([0.0, 0.0], 0.1)

    def test_unsorted_rejected(self):
        with pytest.raises(DomainError):
            mu.signal_subspace_dim([0.5, 1.0], 0.1)

    def test_reference_two_anomaly_data(self, double_scene):
        # The secondary cluster produced by zeroing the diagonal sits at about
        # 0.10-0.12 of tau_1 for this configuration, so the 0.1 threshold
        # retains part of it: recomputed dimensions are 6 (full_hankel) and
        # 7 (asymptotic), not the naive one-per-anomaly count.
        k = double_scene.background_wavenumber()
        taus_full = mu.svd_leading(fw.scattering_matrix(double_scene, k))[0]
        assert mu.signal_subspace_dim(taus_full) == 6
        taus_asym = mu.svd_leading(fw.scattering_matrix(double_scene, k, fw.ASYMPTOTIC))[0]
        assert mu.signal_subspace_dim(taus_asym) == 7
        # the two anomaly directions always dominate the cluster
        assert taus_full[1] / taus_full[0] > 0.5
        assert taus_full[2] / taus_full[0] < 0.15


def _disk_points(rng, radius, count):
    pts = []
    for _ in range(count):
        rad = radius * math.sqrt(rng.uniform())
        ang = rng.uniform(0, 2 * math.pi)
        pts.append((rad * math.cos(ang), rad * math.sin(ang)))
    return np.array(pts)


class TestTestVector:
    # the (points, N) steering table of the imaging map
    def test_plane_wave_at_origin(self, single_scene):
        k = single_scene.background_wavenumber()
        w = direct_rows(k, np.zeros((1, 2)), single_scene.array, mu.PLANE_WAVE)
        assert np.allclose(w, 1.0 / 4.0, rtol=0, atol=0)

    @pytest.mark.parametrize("variant", [mu.EXACT_FIELD, mu.PLANE_WAVE])
    def test_unit_norm(self, single_scene, variant):
        k = single_scene.background_wavenumber()
        pts = _disk_points(np.random.default_rng(2), 0.084, 100)
        w = direct_rows(k, pts, single_scene.array, variant)
        assert np.max(np.abs(np.linalg.norm(w, axis=1) - 1.0)) <= 1e-14

    def test_variants_agree_in_direction(self, single_scene):
        # |<W_exact, W_plane>| near unity over the inner half disk. At this
        # geometry (array ~1.35 wavelengths across) the calibrated deviation
        # is max 0.046 over this sample, 0.067 over 2000 points; recorded
        # bound 0.08.
        k = single_scene.background_wavenumber()
        pts = _disk_points(np.random.default_rng(3), 0.0425, 50)
        we = direct_rows(k, pts, single_scene.array, mu.EXACT_FIELD)
        wp = direct_rows(k, pts, single_scene.array, mu.PLANE_WAVE)
        assert np.max(np.abs(1.0 - np.abs(np.sum(we.conj() * wp, axis=1)))) <= 0.08

    def test_at_antenna_rejected(self, single_scene):
        k = single_scene.background_wavenumber()
        array = single_scene.array
        ray = ray_interpolant(k, 0.01, 0.2)
        with pytest.raises(DomainError):
            mu._exact_rows(ray, array.positions, array.positions[:1])

    @pytest.mark.parametrize("preset", ["fig-mu-single", "fig-eps-single", "fig-sigma-single"])
    def test_exact_rows_scaled_bit_identically(self, preset):
        # a row is scaled by a power of two before its norm, which moves no
        # bit wherever the unscaled table's norm is finite
        kind, ratios, _ = harness.PRESETS[preset]
        scene = make_scene(1)
        _, array, plan = _plan(16, 64)
        distances = mu._distance_range(plan.points, array, plan.chunks)
        for ratio in ratios:
            k = th.mismatched_wavenumber(scene.background, scene.omega, kind, ratio)
            ray = ray_interpolant(k, *distances)
            for chunk in plan.chunks:
                points = plan.points[chunk]
                rows = fw.incident_field_matrix(ray, points, array.positions)
                want = rows / np.linalg.norm(rows, axis=1, keepdims=True)
                assert mu._exact_rows(ray, array.positions, points).tobytes() == want.tobytes()

    def test_exact_rows_of_a_huge_table(self, single_scene):
        # entries near 1e200, whose squares overflow the unscaled norm: the
        # rows still come out unit rows in the direction of the table's
        array = single_scene.array
        ray = ray_interpolant(single_scene.background_wavenumber(), 0.005, 0.18)
        pts = _disk_points(np.random.default_rng(4), 0.084, 50)
        rows = mu._exact_rows(lambda d: 4e200 * ray(d), array.positions, pts)
        assert np.all(np.abs(rows) > 0)
        assert np.max(np.abs(np.linalg.norm(rows, axis=1) - 1.0)) <= 1e-15
        assert np.max(np.abs(rows - mu._exact_rows(ray, array.positions, pts))) <= 1e-15


def _domain_rows(k, plan, array):
    """The production plane-wave rows of the plan's representatives, from
    the per-axis tables over the grid's ticks."""
    ticks = plan.grid.ticks
    tables = mu._axis_tables(k, array.directions, ticks, ticks)
    ix, iy = (np.searchsorted(ticks, plan.points[:, axis]) for axis in (0, 1))
    return mu._plane_wave_rows(tables, ix, iy)


class TestPlaneWaveRows:
    # The per-axis tables of `music._plane_wave_rows` against one complex
    # exponential per entry (`unit_phasors`) over the fundamental domain at
    # 128^2. The builder rounds the phase Re k (x c_n + y s_n) as two terms,
    # so rows differ by the rounding of the phase: measured worst 3.4e-15
    # over every ratio of the six presets, 1.8e-13 and 5.7e-13 at
    # conductivity x1e5 and x1e6, whose phases reach ~750 and ~2400 rad.
    @pytest.mark.parametrize("kind,ratios", sorted({v[:2] for v in harness.PRESETS.values()}))
    def test_preset_ratios_match_the_reference(self, kind, ratios):
        scn = make_scene(1)
        plan = mu.symmetry_plan(_grid(128), scn.array)
        for ratio in ratios:
            k = _mismatched(scn, kind, ratio)
            want = unit_phasors(k, plan.points, scn.array.directions)
            assert np.max(np.abs(_domain_rows(k, plan, scn.array) - want)) <= 1e-14

    @pytest.mark.parametrize("ratio,bound", [(1e5, 1e-12), (1e6, 2e-12)])
    def test_high_loss_rows_finite_with_unit_norm(self, ratio, bound):
        # e^{-Im k theta . r} alone overflows here: the shift of each row's
        # exponent by its maximum keeps the rows finite
        scn = make_scene(1)
        plan = mu.symmetry_plan(_grid(128), scn.array)
        k = _mismatched(scn, "conductivity", ratio)
        rows = _domain_rows(k, plan, scn.array)
        assert np.all(np.isfinite(rows))
        assert np.max(np.abs(np.linalg.norm(rows, axis=1) - 1.0)) <= 1e-14
        assert np.max(np.abs(rows - unit_phasors(k, plan.points, scn.array.directions))) <= bound

    @pytest.mark.parametrize("point", [(0.0123456789, -0.0301234), (-0.07, 0.031)])
    def test_off_grid_point_on_its_own_lattice(self, point):
        # the closed form's signal row: r* alone as the lattice {x*} x {y*};
        # measured worst 3.5e-16
        scn = make_scene(1)
        k = scn.background_wavenumber()
        x, y, at = np.array(point[:1]), np.array(point[1:]), np.zeros(1, dtype=int)
        got = mu._plane_wave_rows(mu._axis_tables(k, scn.array.directions, x, y), at, at)
        assert np.max(np.abs(got - unit_phasors(k, [point], scn.array.directions))) <= 1e-15


class TestProjectionNorm:
    # the imaging walk's kernel with the identity alone
    @staticmethod
    def _norm(basis, w):
        return mu._image_norms(basis.conj()[:, None, :], np.atleast_2d(w))[0, 0]

    def _basis(self, scene, m=1):
        k = scene.background_wavenumber()
        return mu.svd_leading(fw.scattering_matrix(scene, k))[1][:, :m]

    def test_signal_vector_maps_to_zero(self, single_scene):
        basis = self._basis(single_scene)
        assert self._norm(basis, basis[:, 0]) <= 1e-10

    def test_noise_vector_maps_to_one(self, single_scene):
        full = self._basis(single_scene, m=16)
        assert self._norm(full[:, :1], full[:, -1]) == pytest.approx(1.0, abs=1e-10)

    def test_full_signal_space_annihilates(self, single_scene):
        basis = self._basis(single_scene, m=16)
        rng = np.random.default_rng(4)
        w = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        w /= np.linalg.norm(w)
        assert self._norm(basis, w) <= 1e-10

    def test_bounded_by_one(self, single_scene):
        basis = self._basis(single_scene)
        rng = np.random.default_rng(5)
        for _ in range(50):
            w = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            w /= np.linalg.norm(w)
            val = self._norm(basis, w)
            assert -1e-12 <= val <= 1.0 + 1e-12


# (resolution, antenna count, preset) of the three imaging workloads of the
# benchmark: mu-single, sigma-double and array64
_WORKLOAD_GRIDS = [(112, 16, "fig-mu-single"), (160, 16, "fig-sigma-double"), (48, 64, "fig-eps-double")]


def _pulled_back(basis, plan):
    """The stack conj(U_g) (N, |G|, M) that `SymmetryPlan.over_domain`
    hands `music._image_norms`."""
    moved = np.empty((basis.shape[0], len(plan.perms), basis.shape[1]), dtype=complex)
    moved[plan.perms.T, np.arange(len(plan.perms))] = basis.conj()[:, None]
    return moved


class TestImageNorms:
    # The Gram form 1 - |U^H w|^2 of the imaging kernel against the residual
    # form of projection_norm, on the full-grid steering tables of every
    # ratio of the workload's sweep, both variants. Above the floor of 1e-4
    # the Gram form loses at most ~1e-12 relative; measured worst 8.9e-14
    # (48^2, 64 antennas, M = 6).
    @pytest.mark.parametrize("resolution,count,preset", _WORKLOAD_GRIDS)
    @pytest.mark.parametrize("m", [1, 2, 6])
    def test_matches_the_residual_form(self, resolution, count, preset, m):
        kind, ratios, _ = harness.PRESETS[preset]
        scn = make_scene(2, count=count)
        k_bw = scn.background_wavenumber()
        basis = mu.svd_leading(fw.scattering_matrix(scn, k_bw))[1][:, :m]
        points = cell_centers(_grid(resolution))
        for ratio in ratios:
            k_aw = _mismatched(scn, kind, ratio)
            for variant in mu.VARIANTS:
                rows = direct_rows(k_aw, points, scn.array, variant)
                got = mu._image_norms(basis.conj()[:, None, :], rows)[0]
                want = projection_norm(basis, rows)
                assert np.max(np.abs(got - want) / want) <= 2.5e-13

    # The signal space of each image holds its own basis columns, the
    # permuted columns of U: their Gram values cancel to rounding, below the
    # floor, where 1 - |U_g^H w|^2 alone would give norms near 1e-8 or NaN
    @pytest.mark.parametrize("count", [16, 64])
    @pytest.mark.parametrize("m", [1, 2, 6, 16])
    def test_signal_vectors_through_the_floor(self, count, m):
        plan = mu.symmetry_plan(_grid(48), sc.uniform_circular_array(count, 0.09))
        rng = np.random.default_rng(count + m)
        basis, _ = np.linalg.qr(rng.standard_normal((count, m)) + 1j * rng.standard_normal((count, m)))
        moved = _pulled_back(basis, plan)
        images = len(plan.perms)
        # rows g * m to (g + 1) * m are the columns of U_g
        rows = moved.conj().transpose(1, 2, 0).reshape(images * m, count)
        norms = mu._image_norms(moved, rows)
        for g in range(images):
            assert np.all(norms[g, g * m:(g + 1) * m] <= 1e-10)
        # and every other image of the walk is left to its own value
        for g in range(images):
            want = projection_norm(moved[:, g].conj(), rows)
            assert np.allclose(norms[g], want, rtol=0, atol=1e-10)


class TestImagingGrid:
    # the mask and the plan's centres come from the ticks without a meshgrid;
    # they must equal the meshgrid form bit for bit
    def test_mask_matches_disk(self):
        for resolution in (64, 113, 512):
            grid = _grid(resolution)
            xx, yy = np.meshgrid(grid.ticks, grid.ticks)
            assert np.array_equal(grid.mask, np.hypot(xx, yy) <= 0.085)

    def test_centers_match_meshgrid(self):
        # with no symmetry every cell is its own representative, in mask order
        for resolution in (64, 113, 512):
            grid = _grid(resolution)
            plan = mu.symmetry_plan(grid, _nudged_array())
            assert np.array_equal(plan.points, cell_centers(grid))

    def test_centers_strictly_inside_bounds(self):
        grid = _grid(32)
        assert np.all(np.abs(grid.ticks) < grid.half_extent)

    def test_cell_size(self):
        assert _grid(128).cell_size == pytest.approx(2 * 0.085 / 128, rel=0)


# antenna counts with |G| = 8, 8, 2 and 4 on grids with an even and an odd
# number of cells per side
_SYMMETRY_CASES = [
    (count, resolution) for count in (16, 64, 7, 10) for resolution in (48, 113)
]
_GROUP_ORDER = {16: 8, 64: 8, 7: 2, 10: 4}


def _plan(count, resolution):
    grid = _grid(resolution)
    array = sc.uniform_circular_array(count, 0.09)
    return grid, array, mu.symmetry_plan(grid, array)


def _rebuilt(rows, plan, cells):
    """Full-grid table from the representatives' rows: row g . r is row r
    with its columns permuted by pi_g."""
    out = np.empty((cells, rows.shape[1]), dtype=rows.dtype)
    for idx, perm in zip(plan.cells, plan.perms):
        out[idx] = rows[:, perm]
    return out


def _mismatched(scn, kind, ratio):
    return th.mismatched_wavenumber(scn.background, scn.omega, kind, ratio)


def _nudged_array(count=16):
    """A uniform ring with one antenna moved by 1e-3 rad: no symmetry left."""
    angles = 2 * np.pi * np.arange(1, count + 1) / count
    angles[3] += 1e-3
    positions = 0.09 * np.column_stack([np.cos(angles), np.sin(angles)])
    return sc.AntennaArray(radius=0.09, positions=positions)


class TestSymmetryPlan:
    @pytest.mark.parametrize("count,resolution", _SYMMETRY_CASES)
    def test_images_cover_every_cell(self, count, resolution):
        grid, _, plan = _plan(count, resolution)
        centers = cell_centers(grid)
        assert np.array_equal(np.unique(plan.cells), np.arange(len(centers)))
        assert np.array_equal(plan.points, centers[plan.cells[0]])
        for idx in plan.cells:  # each group element is one-to-one on the domain
            assert np.unique(idx).size == idx.size

    def test_near_coincident_antennas_rejected(self):
        # antennas 0 and 1 lie 1e-10 R apart, below the matching tolerance:
        # under y -> -y both would find antenna 0 as their partner, so the
        # array itself is refused
        angles = np.array([0.0, 1e-10, np.pi / 2, np.pi, 3 * np.pi / 2])
        positions = np.column_stack([np.cos(angles), np.sin(angles)])
        with pytest.raises(ConfigurationError, match="R apart"):
            sc.AntennaArray(radius=1.0, positions=positions)

    @pytest.mark.parametrize("count,resolution", _SYMMETRY_CASES)
    def test_group_order(self, count, resolution):
        _, _, plan = _plan(count, resolution)
        assert plan.cells.shape[0] == plan.perms.shape[0] == _GROUP_ORDER[count]
        assert np.array_equal(plan.perms[0], np.arange(count))

    @pytest.mark.parametrize("count,resolution", _SYMMETRY_CASES)
    def test_exact_rows_rebuilt(self, count, resolution):
        # the ray interpolant's panel layout follows the table's distance
        # range, which the representatives reach only to the last bit, so
        # agreement is the ray's own tolerance (measured worst 3.9e-11)
        grid, array, plan = _plan(count, resolution)
        k = make_scene(1).background_wavenumber()
        for kv in (k, 2.0 * k):
            full = direct_rows(kv, cell_centers(grid), array, mu.EXACT_FIELD)
            rows = direct_rows(kv, plan.points, array, mu.EXACT_FIELD)
            rebuilt = _rebuilt(rows, plan, full.shape[0])
            assert np.max(np.abs(rebuilt - full) / np.abs(full)) <= 4e-10

    @pytest.mark.parametrize("count,resolution", _SYMMETRY_CASES)
    def test_plane_rows_rebuilt(self, count, resolution):
        grid, array, plan = _plan(count, resolution)
        k = make_scene(1).background_wavenumber()
        full = direct_rows(k, cell_centers(grid), array, mu.PLANE_WAVE)
        rows = direct_rows(k, plan.points, array, mu.PLANE_WAVE)
        assert np.max(np.abs(_rebuilt(rows, plan, full.shape[0]) - full)) <= 1e-14

    @pytest.mark.parametrize("count,resolution", _SYMMETRY_CASES)
    def test_arrays_read_only(self, count, resolution):
        # one plan serves every ratio of a sweep: a write through any of its
        # arrays would change every later map
        grid, array, plan = _plan(count, resolution)
        arrays = [getattr(plan, f.name) for f in dataclasses.fields(plan)]
        arrays = [a for a in arrays if isinstance(a, np.ndarray)]
        arrays += [grid.ticks, grid.mask, array.positions]
        assert len(arrays) == 6
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a.flat[0] = a.flat[0]

    def test_asymmetric_array_has_trivial_group(self):
        grid = _grid(48)
        plan = mu.symmetry_plan(grid, _nudged_array())
        assert plan.cells.shape[0] == 1
        assert np.array_equal(plan.cells[0], np.arange(np.count_nonzero(grid.mask)))

    # exact field only: a plane-wave map takes no plan walk, and
    # TestPlaneWaveMap holds it on this array to the residual form
    @pytest.mark.parametrize("variant", [mu.EXACT_FIELD])
    @pytest.mark.parametrize("n_anomalies", [1, 2])
    def test_asymmetric_array_images_bit_identically(self, variant, n_anomalies):
        base = make_scene(n_anomalies)
        scn = sc.Scene(
            background=base.background,
            roi_radius=base.roi_radius,
            array=_nudged_array(),
            anomalies=base.anomalies,
            frequency=base.frequency,
        )
        k = scn.background_wavenumber()
        basis = mu.svd_leading(fw.scattering_matrix(scn, k))[1][:, :n_anomalies]
        grid = _grid(64)
        image = image_of(basis, k, grid, scn.array, variant)
        want = direct_norms(basis, k, scn.array, grid, variant)
        assert np.array_equal(image.norms, want)

    def test_asymmetric_array_closed_form_matches_direct(self):
        scn = make_scene(1)
        k_bw = scn.background_wavenumber()
        k_aw = _mismatched(scn, "permittivity", 2.0)
        array = _nudged_array()
        grid = _grid(64)
        got = th.closed_form_norm_map(grid, array, k_bw, k_aw, (0.01, 0.03))
        want = direct_closed_form_norm_map(grid, array, k_bw, k_aw, (0.01, 0.03))
        assert got.shape == (np.count_nonzero(grid.mask),)
        assert np.max(np.abs(got - want)) <= 1e-13

    # The norm is 1-Lipschitz in the unit row, so the exact field inherits the
    # rows' 4e-10 (measured worst 5.5e-12 at N = 10); the plane-wave map's
    # per-axis products and the closed form agree at rounding level
    # (measured worst 1.1e-15 and 1.4e-14).
    @pytest.mark.parametrize("count", [16, 7, 10])
    def test_symmetric_maps_match_direct(self, count):
        scn = make_scene(2, count=count)
        k_bw = scn.background_wavenumber()
        k_aw = _mismatched(scn, "permeability", 2.0)
        basis = mu.svd_leading(fw.scattering_matrix(scn, k_bw))[1][:, :2]
        grid = _grid(113)
        for variant, bound in ((mu.EXACT_FIELD, 4e-10), (mu.PLANE_WAVE, 1e-13)):
            image = image_of(basis, k_aw, grid, scn.array, variant)
            want = direct_norms(basis, k_aw, scn.array, grid, variant)
            assert np.max(np.abs(image.norms - want)) <= bound
        got = th.closed_form_norm_map(grid, scn.array, k_bw, k_aw, (0.01, 0.03))
        want = direct_closed_form_norm_map(grid, scn.array, k_bw, k_aw, (0.01, 0.03))
        assert np.max(np.abs(got - want)) <= 1e-13


def _scene_with(array, n_anomalies):
    base = make_scene(n_anomalies)
    return sc.Scene(
        background=base.background,
        roi_radius=base.roi_radius,
        array=array,
        anomalies=base.anomalies,
        frequency=base.frequency,
    )


_CHUNK_ARRAYS = {
    "ring16": lambda: sc.uniform_circular_array(16, 0.09),
    "nudged16": _nudged_array,
}


def _product_logger(products: list) -> type:
    """An ndarray view type that appends the operand shapes of every matrix
    product taken of its arrays, or of any array computed from them (in
    place too), to products."""

    class Logged(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                products.append((inputs[0].shape, inputs[1].shape))
            inputs = [np.asarray(x) for x in inputs]
            outs = kwargs.get("out")
            if outs:
                kwargs["out"] = tuple(np.asarray(x) for x in outs)
            if isinstance(kwargs.get("where"), np.ndarray):
                kwargs["where"] = np.asarray(kwargs["where"])
            result = getattr(ufunc, method)(*inputs, **kwargs)
            return outs[0] if outs else result.view(Logged)

    return Logged


class TestPlaneWaveMap:
    # A plane-wave map (`_plane_wave_norms`: per-axis products, the unit
    # rows of the cells near the signal space through the imaging kernel)
    # against the residual form |w - U U^H w| of the full-grid rows
    # (`projection_norm` of `direct_rows`) at 128^2, relative: measured
    # worst 2.4e-14 over the preset ratios and 9.1e-14 at conductivity
    # x1e6, both at M = 6 on the nudged array
    @pytest.mark.parametrize("array_name", sorted(_CHUNK_ARRAYS))
    @pytest.mark.parametrize("m", [1, 2, 6])
    def test_matches_the_residual_form(self, array_name, m):
        scn = _scene_with(_CHUNK_ARRAYS[array_name](), 2)
        basis = mu.svd_leading(fw.scattering_matrix(scn, scn.background_wavenumber()))[1][:, :m]
        grid = _grid(128)
        presets = sorted({v[:2] for v in harness.PRESETS.values()})
        cases = [(kind, r, 5e-14) for kind, ratios in presets for r in ratios]
        for kind, ratio, bound in cases + [("conductivity", 1e6, 2e-13)]:
            k_aw = _mismatched(scn, kind, ratio)
            image = image_of(basis, k_aw, grid, scn.array, mu.PLANE_WAVE)
            want = projection_norm(basis, direct_rows(k_aw, cell_centers(grid), scn.array, mu.PLANE_WAVE))
            assert np.max(np.abs(image.norms - want) / want) <= bound


class TestChunks:
    # Three representatives per chunk (the last chunk shorter) against one
    # chunk over the whole domain: every row and every norm comes from that
    # row alone, and the exact-field interpolant spans the whole domain in
    # both, so the maps must agree bit for bit.
    @pytest.mark.parametrize("variant", mu.VARIANTS)
    @pytest.mark.parametrize("n_anomalies", [1, 2])
    @pytest.mark.parametrize("array_name", sorted(_CHUNK_ARRAYS))
    def test_imaging_map_bit_identical(self, monkeypatch, variant, n_anomalies, array_name):
        scn = _scene_with(_CHUNK_ARRAYS[array_name](), n_anomalies)
        k_bw = scn.background_wavenumber()
        k_aw = _mismatched(scn, "permeability", 2.0)
        basis = mu.svd_leading(fw.scattering_matrix(scn, k_bw))[1][:, :n_anomalies]
        grid = _grid(61)
        maps = []
        for entries in (10**9, 3 * scn.array.count):
            monkeypatch.setattr(mu, "_CHUNK_ENTRIES", entries)
            maps.append(image_of(basis, k_aw, grid, scn.array, variant))
        whole, chunked = maps
        assert np.array_equal(chunked.norms, whole.norms)
        assert np.array_equal(chunked.values, whole.values)

    # conductivity x1e6 sends cells of the 61^2 grid to their unit rows
    # (`_plane_wave_norms`), which are taken in one chunk per block or in
    # chunks of three cells: the closed form and a plane-wave map at M = 2
    # must not depend on that
    @pytest.mark.parametrize("array_name", sorted(_CHUNK_ARRAYS))
    def test_closed_form_bit_identical(self, monkeypatch, array_name):
        scn = _scene_with(_CHUNK_ARRAYS[array_name](), 2)
        k_bw = scn.background_wavenumber()
        k_aw = _mismatched(scn, "conductivity", 1e6)
        basis = mu.svd_leading(fw.scattering_matrix(scn, k_bw))[1][:, :2]
        grid = _grid(61)
        routed = []
        rows = mu._plane_wave_rows
        monkeypatch.setattr(mu, "_plane_wave_rows", lambda *a: routed.append(len(a[-1])) or rows(*a))
        maps, calls, cells = [], [], []
        for entries in (10**9, 3 * scn.array.count):
            monkeypatch.setattr(mu, "_CHUNK_ENTRIES", entries)
            routed.clear()
            maps.append(th.closed_form_norm_map(grid, scn.array, k_bw, k_aw, (0.01, 0.03)))
            maps.append(image_of(basis, k_aw, grid, scn.array, mu.PLANE_WAVE).norms)
            calls.append(len(routed))
            cells.append(sum(routed))
        # the same cells in both, in more calls when the chunks are small
        assert cells[0] == cells[1] > 0 and calls[1] > calls[0]
        assert np.array_equal(maps[2], maps[0], equal_nan=True)
        assert np.array_equal(maps[3], maps[1], equal_nan=True)

    # the range of the chunks must be the extremes of the whole table of
    # `forward._distances` exactly: the interpolant's panel layout, and so
    # every steering row, follows them
    @pytest.mark.parametrize("count,resolution", _SYMMETRY_CASES)
    @pytest.mark.parametrize("radius", [0.09, 0.0851])
    def test_distance_range_exact(self, count, resolution, radius):
        grid = _grid(resolution)
        array = sc.uniform_circular_array(count, radius)
        plan = mu.symmetry_plan(grid, array)
        table = fw._distances(plan.points, array.positions)
        want = (float(table.min()), float(table.max()))
        assert mu._distance_range(plan.points, array, plan.chunks) == want
        assert plan.chunks == mu._chunks(len(plan.points), count)
        assert mu._distance_range(plan.points, array, [slice(None)]) == want

    # a rows @ vector product of the walk wakes OpenBLAS threads from 4096
    # table entries on, and a rows @ matrix product from a volume of
    # points x antennas x columns = 65536 on; no chunk of a plan and no
    # product of a map may reach these, whatever the antenna count and the
    # signal dimension M, except that a basis of more than 16 columns is
    # still projected one image per product
    @pytest.mark.parametrize("count", [4, 16, 64, 100])
    def test_chunks_below_the_blas_thread_boundary(self, count):
        array = sc.uniform_circular_array(count, 0.09)
        plan = mu.symmetry_plan(_grid(128), array)
        assert sum(len(plan.points[chunk]) for chunk in plan.chunks) == len(plan.points)
        assert all(len(plan.points[chunk]) * count < 4096 for chunk in plan.chunks)

        products = []
        Logged = _product_logger(products)
        k = make_scene(1, count=count).background_wavenumber()
        ray = ray_interpolant(k, *mu._distance_range(plan.points, array, plan.chunks))
        rows_of = partial(mu._exact_rows, ray, array.positions)
        logged = partial(plan.over_domain, lambda points: rows_of(points).view(Logged))
        # the first column of each basis is the steering row of the first
        # representative, which therefore falls below the Gram floor
        row = rows_of(plan.points[:1])
        rng = np.random.default_rng(count)
        for m in (m for m in (1, 2, 6, 16, 32) if m <= count):
            basis, _ = np.linalg.qr(np.column_stack([row.T, rng.standard_normal((count, m - 1))]))
            products.clear()
            if m == count:
                # the basis spans every row: no noise space, no product
                with pytest.raises(DomainError, match="no noise subspace"):
                    mu.imaging_map(basis, k, plan.grid, array, logged)
                assert products == []
                continue
            mu.imaging_map(basis, k, plan.grid, array, logged)
            # the residual form's products (points, M) @ (M, N) ran too
            assert any(inner == m for (_, inner), _ in products)
            for (points, inner), (_, columns) in products:
                assert inner in (count, m)
                if m <= 16:
                    assert points * inner * columns < 65536
                else:
                    assert columns in (count, m) and points * count < 4096

    # the products of a plane-wave map's per-axis tables, for the closed
    # form and for plane-wave maps at M = 1, 2, 6 and 16: a matrix product
    # stays below the volume of 65536, and a product with one row or one
    # column, a matrix-vector product, below 4096 entries; the blocks tile
    # the grid
    @pytest.mark.parametrize("count", [3, 16, 64, 100])
    def test_closed_form_below_the_blas_thread_boundary(self, monkeypatch, count):
        products = []
        Logged = _product_logger(products)
        tables = mu._axis_tables
        monkeypatch.setattr(mu, "_axis_tables", lambda *a: [t.view(Logged) for t in tables(*a)])
        scn = make_scene(2, count=count)
        k_bw = scn.background_wavenumber()
        vecs = mu.svd_leading(fw.scattering_matrix(scn, k_bw))[1]
        # conductivity x1e6 takes most cells of the small grid to their unit
        # rows and the kernel's products (`_image_norms`)
        lossy = _mismatched(scn, "conductivity", 1e6)
        maps = [(61, lossy, None), (2048, k_bw, None)]
        maps += [(resolution, k_aw, m) for resolution, k_aw in ((61, lossy), (256, k_bw))
                 for m in (1, 2, 6, 16) if m < count]
        for resolution, k_aw, m in maps:
            products.clear()
            grid = _grid(resolution)
            if m is None:
                th.closed_form_norm_map(grid, scn.array, k_bw, k_aw, (0.01, 0.03))
            else:
                image_of(vecs[:, :m], k_aw, grid, scn.array, mu.PLANE_WAVE)
            blocks = mu._blocks(resolution, count)
            cells = sum((b.stop - b.start) * (c.stop - c.start) for b, c in blocks)
            assert cells == resolution**2
            assert len(products) >= ((m or 1) + 1) * len(blocks)
            assert k_aw != lossy or any(columns == (m or 1) for _, (_, columns) in products)
            for (rows, inner), (_, columns) in products:
                if rows == 1 or columns == 1:
                    assert rows * inner * columns < 4096
                else:
                    assert rows * inner * columns < 65536
        # the tiling of other grids: two rows or more per block, each below
        # the volume
        for resolution in (16, 17, 1023, 2047):
            blocks = mu._blocks(resolution, count)
            sizes = [(b.stop - b.start, c.stop - c.start) for b, c in blocks]
            assert sum(rows * columns for rows, columns in sizes) == resolution**2
            assert all(rows >= 2 and rows * count * columns < 65536 for rows, columns in sizes)

    def test_walk_independent_of_the_chunk_size(self, monkeypatch):
        # a 112^2 fig-mu-single map and its closed form's unit rows, walked
        # in chunks of 8192 entries, on two BLAS threads, and of
        # _CHUNK_ENTRIES, on one
        scn = make_scene(1)
        k_bw = scn.background_wavenumber()
        k_aw = _mismatched(scn, "permeability", 2.0)
        basis = mu.svd_leading(fw.scattering_matrix(scn, k_bw))[1][:, :1]
        maps, closed, chunks = [], [], []
        for entries in (mu._CHUNK_ENTRIES, 8192):
            monkeypatch.setattr(mu, "_CHUNK_ENTRIES", entries)
            grid = _grid(112)
            maps.append(image_of(basis, k_aw, grid, scn.array))
            closed.append(th.closed_form_norm_map(grid, scn.array, k_bw, k_aw, (0.01, 0.03)))
            chunks.append(len(mu.symmetry_plan(grid, scn.array).chunks))
        assert chunks[0] > chunks[1] > 1
        assert np.array_equal(maps[1].norms, maps[0].norms)
        assert np.array_equal(maps[1].values, maps[0].values)
        assert np.array_equal(closed[1], closed[0], equal_nan=True)

    def test_interpolant_built_once(self, monkeypatch):
        # the ray interpolant's node values are one Hankel evaluation, made
        # when the steering evaluator is built; an exact-field map makes
        # none, however many chunks the domain takes
        scn = make_scene(1)
        k = scn.background_wavenumber()
        basis = mu.svd_leading(fw.scattering_matrix(scn, k))[1][:, :1]
        calls = []
        hankel = specfun._hankel2_0
        monkeypatch.setattr(specfun, "_hankel2_0", lambda z: calls.append(1) or hankel(z))
        monkeypatch.setattr(mu, "_CHUNK_ENTRIES", 3 * scn.array.count)
        grid = _grid(61)
        evaluator = steering(k, grid, scn.array)
        assert len(calls) == 1
        mu.imaging_map(basis, k, grid, scn.array, evaluator)
        assert len(calls) == 1


class TestImagingMap:
    def test_reference_single_anomaly_localization(self, single_scene):
        k = single_scene.background_wavenumber()
        mat = fw.scattering_matrix(single_scene, k)
        grid = _grid(128)
        image = image_from_data(mat, k, single_scene.array, grid)
        err = math.dist(argmax_point(image), (0.01, 0.03))
        assert err <= grid.cell_size

    def test_origin_anomaly_with_wrong_permeability(self):
        base = make_scene(1)
        scn = sc.Scene(
            background=base.background,
            roi_radius=base.roi_radius,
            array=base.array,
            anomalies=(sc.Anomaly((0.0, 0.0), 0.01, base.anomalies[0].medium),),
            frequency=base.frequency,
        )
        k_bw = scn.background_wavenumber()
        k_aw = sc.wavenumber(
            sc.Medium(
                scn.background.permittivity,
                scn.background.conductivity,
                2 * scn.background.permeability,
            ),
            scn.omega,
        )
        grid = _grid(128)
        image = image_from_data(fw.scattering_matrix(scn, k_bw), k_aw, scn.array, grid)
        assert math.hypot(*argmax_point(image)) <= grid.cell_size

    def test_values_at_least_one(self, single_scene):
        k = single_scene.background_wavenumber()
        image = image_from_data(
            fw.scattering_matrix(single_scene, k), k, single_scene.array, _grid(64)
        )
        assert np.min(image.values) >= 1.0 - 1e-9

    def test_scale_invariance(self, single_scene):
        k = single_scene.background_wavenumber()
        mat = fw.scattering_matrix(single_scene, k)
        grid = _grid(64)
        base = image_from_data(mat, k, single_scene.array, grid)
        c = -0.37 + 1.91j
        scaled_mat = c * mat
        scaled = image_from_data(scaled_mat, k, single_scene.array, grid)
        assert np.max(np.abs(scaled.values - base.values) / base.values) <= 1e-9

    def test_full_signal_dim_leaves_no_noise_space(self, single_scene):
        # a basis of all 16 columns spans every steering row: no map
        k = single_scene.background_wavenumber()
        data = fw.scattering_matrix(single_scene, k)
        for variant in (mu.EXACT_FIELD, mu.PLANE_WAVE):
            with pytest.raises(DomainError, match="no noise subspace"):
                image_from_data(data, k, single_scene.array, _grid(32), variant, signal_dim=16)

    def test_rotational_covariance(self):
        base = make_scene(1)
        k = base.background_wavenumber()
        grid = _grid(128)
        step = 2 * math.pi / 16
        rot = np.array([[math.cos(step), -math.sin(step)], [math.sin(step), math.cos(step)]])
        center = rot @ np.array([0.01, 0.03])
        rotated = sc.Scene(
            background=base.background,
            roi_radius=base.roi_radius,
            array=base.array,
            anomalies=(sc.Anomaly(tuple(center), 0.01, base.anomalies[0].medium),),
            frequency=base.frequency,
        )
        p1 = argmax_point(image_from_data(fw.scattering_matrix(base, k), k, base.array, grid))
        p2 = argmax_point(image_from_data(fw.scattering_matrix(rotated, k), k, base.array, grid))
        assert math.dist(rot @ np.array(p1), p2) <= grid.cell_size

    def test_low_resolution_rejected(self, single_scene):
        k = single_scene.background_wavenumber()
        with pytest.raises(ConfigurationError):
            image_from_data(
                fw.scattering_matrix(single_scene, k), k, single_scene.array, _grid(8)
            )

    def test_antenna_count_mismatch_rejected(self, single_scene):
        k = single_scene.background_wavenumber()
        basis = np.eye(12, 1, dtype=complex)
        with pytest.raises(DomainError):
            image_of(basis, k, _grid(32), single_scene.array)

    def test_overflowing_steering_raises(self, single_scene):
        # conductivity x1e5 gives Im(k_aw) ~ 8.9e3 /m, so the exact field
        # overflows across the ring instead of yielding a NaN norm map; its
        # interpolant's nodes already do, so no RuntimeWarning comes first
        k = single_scene.background_wavenumber()
        _, vecs = mu.svd_leading(fw.scattering_matrix(single_scene, k))
        k_aw = sc.wavenumber(
            sc.Medium(
                single_scene.background.permittivity,
                1e5 * single_scene.background.conductivity,
                single_scene.background.permeability,
            ),
            single_scene.omega,
        )
        with pytest.raises(NumericalError, match=r"^steering field at k_aw = 8887\.3\+8886\.8j: "):
            image_of(vecs[:, :1], k_aw, _grid(16), single_scene.array)

    def test_raw_norm_bounded(self, single_scene):
        k = single_scene.background_wavenumber()
        image = image_from_data(
            fw.scattering_matrix(single_scene, k), k, single_scene.array, _grid(64)
        )
        vals = image.norms
        assert np.all(vals >= 0.0)
        assert np.all(vals <= 1.0 + 1e-12)

    def test_map_holds_the_norms_in_out(self, single_scene):
        # the map is its mask-order norms: a read-only view of the buffer
        # they were computed into, not a copy; its values derive from them
        k = single_scene.background_wavenumber()
        basis = mu.svd_leading(fw.scattering_matrix(single_scene, k))[1][:, :1]
        grid = _grid(32)
        buf = np.empty(np.count_nonzero(grid.mask))
        evaluator = steering(k, grid, single_scene.array)
        image = mu.imaging_map(basis, k, grid, single_scene.array, evaluator, buf)
        assert np.shares_memory(image.norms, buf)
        assert not image.norms.flags.writeable and buf.flags.writeable
        assert np.array_equal(image.norms, image_of(basis, k, grid, single_scene.array).norms)
        assert not image.values.flags.writeable
        assert np.array_equal(image.values, np.minimum(1.0 / buf, mu.DEFAULT_CEILING))

    def test_norms_of_one_per_unmasked_cell(self):
        grid = _grid(32)
        cells = np.count_nonzero(grid.mask)
        with pytest.raises(DomainError, match=f"shape \\({cells},\\)"):
            mu.ImageMap(grid, np.ones(cells + 1), _K_AW)
        with pytest.raises(DomainError):
            mu.ImageMap(grid, raster(grid, np.ones(cells)), _K_AW)


class TestExtractPeaks:
    def test_single_peak_is_argmax(self, single_scene):
        k = single_scene.background_wavenumber()
        image = image_from_data(
            fw.scattering_matrix(single_scene, k), k, single_scene.array, _grid(64)
        )
        peaks = mu.extract_peaks(image, 1)
        assert peaks[0][0] == argmax_point(image)

    def test_two_anomaly_localization(self, double_scene):
        k = double_scene.background_wavenumber()
        grid = _grid(128)
        image = image_from_data(fw.scattering_matrix(double_scene, k), k, double_scene.array, grid)
        peaks = mu.extract_peaks(image, 2)
        assert len(peaks) == 2
        dists = sorted(
            min(math.dist(pt, target) for pt, _ in peaks)
            for target in ((0.01, 0.03), (-0.04, -0.02))
        )
        assert all(d <= 2 * grid.cell_size for d in dists)

    def test_constant_map_tie_break(self):
        grid = _grid(24)
        image = mu.ImageMap(grid, np.full(np.count_nonzero(grid.mask), 1 / 3.5), _K_AW)
        peaks = mu.extract_peaks(image, 1)
        iy, ix = np.argwhere(grid.mask)[0]
        assert peaks[0][0] == grid.point_of(int(iy), int(ix))

    def test_suppression_radius(self):
        grid = _grid(24)
        norms = raster(grid, 1.0)
        # two maxima 3 cells apart: the second must be suppressed
        norms[12, 12] = 1 / 5.0
        norms[12, 15] = 1 / 4.0
        norms[12, 18] = 1 / 3.0
        image = mu.ImageMap(grid, norms[grid.mask], _K_AW)
        peaks = mu.extract_peaks(image, 3)
        assert peaks[0][0] == grid.point_of(12, 12)
        assert peaks[1][0] == grid.point_of(12, 18)

    # few distinct values, so most cells tie; every count up to past the
    # number of cells suppression leaves open (the last counts stop early)
    @pytest.mark.parametrize("levels", [2, 5, 1000])
    @pytest.mark.parametrize("resolution", [17, 24, 40])
    def test_matches_greedy_reference(self, levels, resolution):
        grid = _grid(resolution)
        rng = np.random.default_rng(levels * resolution)
        norms = (rng.integers(0, levels, grid.mask.shape)[grid.mask] + 1) / 7.0
        image = mu.ImageMap(grid, norms, _K_AW)
        most = len(greedy_peaks(image, grid.mask.size))
        assert most < np.count_nonzero(grid.mask)
        for count in (1, 2, 3, most - 1, most, most + 1, grid.mask.size):
            assert mu.extract_peaks(image, count) == greedy_peaks(image, count)

    def test_count_validation(self, single_scene):
        k = single_scene.background_wavenumber()
        image = image_from_data(
            fw.scattering_matrix(single_scene, k), k, single_scene.array, _grid(32)
        )
        with pytest.raises(DomainError):
            mu.extract_peaks(image, 0)


class TestImageMapIO:
    def _image(self, resolution=32):
        scn = make_scene(1)
        k = scn.background_wavenumber()
        return image_from_data(
            fw.scattering_matrix(scn, k), k, scn.array, _grid(resolution)
        )

    def test_csv_round_trip(self, tmp_path):
        image = self._image()
        path = tmp_path / "map.csv"
        mu.write_map_csv(image, path)
        back = mu.read_map_csv(path, roi_radius=0.085)
        assert back.grid == image.grid
        assert back.k_aw == image.k_aw
        assert np.array_equal(back.norms, image.values)

    def test_csv_norm_layer(self, tmp_path):
        image = self._image()
        path = tmp_path / "norm.csv"
        mu.write_map_csv(image, path, which="norms")
        back = mu.read_map_csv(path, roi_radius=0.085)
        assert np.array_equal(back.norms, image.norms)

    @pytest.mark.parametrize("where", ["written", "perturbed"])
    def test_csv_nul_after_a_text_refused(self, tmp_path, where):
        # a bytes field drops the NULs that end a text, so the first x text
        # with a NUL after it would read as its tick on the written path;
        # the file is refused as it is when a perturbed row sends it to the
        # plain path
        image = self._image()
        path = tmp_path / "norm.csv"
        mu.write_map_csv(image, path, which="norms")
        lines = path.read_text().splitlines(keepends=True)
        x, rest = lines[4].split(",", 1)
        lines[4] = f"{x}\x00,{rest}"
        if where == "perturbed":
            x, y, value = lines[-1].rstrip("\n").split(",")
            lines[-1] = f"{float(x) + 1e-6!r},{y},{value}\n"
        path.write_text("".join(lines))
        with pytest.raises(DomainError, match=r"bad data row: could not convert string '[^']*\\x00'"):
            mu.read_map_csv(path, roi_radius=0.085)

    @staticmethod
    def _perturb(path, grid):
        """Rewrite the map CSV at path with its rows shuffled and moved off
        their cell centres by up to 0.45 cell; returns the new text."""
        lines = path.read_text().splitlines()
        rng = np.random.default_rng(9)
        rows = np.array([[float(t) for t in line.split(",")] for line in lines[4:]])
        rows[:, :2] += rng.uniform(-0.45, 0.45, (len(rows), 2)) * grid.cell_size
        rows = rows[rng.permutation(len(rows))]
        text = "\n".join(lines[:4] + [",".join(repr(v) for v in row) for row in rows.tolist()]) + "\n"
        path.write_text(text)
        return text

    def test_csv_read_matches_row_loop(self, tmp_path):
        image = self._image()
        path = tmp_path / "map.csv"
        mu.write_map_csv(image, path)
        text = self._perturb(path, image.grid)
        back = mu.read_map_csv(path, roi_radius=0.085)
        assert np.array_equal(back.norms, map_csv_values(text, image.grid))
        assert np.array_equal(back.norms, image.values)

    def test_csv_read_in_blocks_matches_row_loop(self, tmp_path, monkeypatch):
        # shuffled and perturbed rows, five to a block
        monkeypatch.setattr(mu, "_READ_ROWS", 5)
        image = self._image()
        path = tmp_path / "map.csv"
        mu.write_map_csv(image, path)
        text = self._perturb(path, image.grid)
        back = mu.read_map_csv(path, roi_radius=0.085)
        assert np.array_equal(back.norms, map_csv_values(text, image.grid))
        assert np.array_equal(back.norms, image.values)

    @staticmethod
    def _spy_blocks(monkeypatch):
        """Patch np.loadtxt to default to encoding="bytes", numpy 1.x's
        default, and record per block of the reader whether it took the
        written path; returns the list of these decisions."""
        loadtxt = np.loadtxt
        written_block = mu._written_block
        written = []

        def bytes_default(*args, encoding="bytes", **kwargs):
            return loadtxt(*args, encoding=encoding, **kwargs)

        def spy(*args):
            count = written_block(*args)
            written.append(count is not None)
            return count

        monkeypatch.setattr(np, "loadtxt", bytes_default)
        monkeypatch.setattr(mu, "_written_block", spy)
        return written

    def test_csv_cache_gets_str_whatever_the_default_encoding(self, tmp_path, monkeypatch):
        # the reader passes its own encoding, so a written map takes the
        # written path under numpy 1.x's default too
        written = self._spy_blocks(monkeypatch)
        image = self._image()
        path = tmp_path / "map.csv"
        mu.write_map_csv(image, path)
        back = mu.read_map_csv(path, roi_radius=0.085)
        assert written == [True]
        assert np.array_equal(back.norms, image.values)

    @pytest.mark.parametrize("perturbed", [False, True], ids=["written", "perturbed"])
    def test_csv_cache_kept_while_texts_repeat(self, tmp_path, monkeypatch, perturbed):
        # every block of 1024 rows of a written 128^2 map takes the written
        # path; a shuffled and perturbed file leaves it at its first block,
        # and the whole body is then parsed by numpy as floats
        monkeypatch.setattr(mu, "_READ_ROWS", 1024)
        written = self._spy_blocks(monkeypatch)
        image = self._image(128)
        path = tmp_path / "map.csv"
        mu.write_map_csv(image, path)
        text = self._perturb(path, image.grid) if perturbed else path.read_text()
        back = mu.read_map_csv(path, roi_radius=0.085)
        if perturbed:
            assert written == [False]
        else:
            assert written == [True] * (np.count_nonzero(image.grid.mask) // 1024 + 1)
        assert np.array_equal(back.norms, map_csv_values(text, image.grid))
        assert np.array_equal(back.norms, image.values)

    def test_csv_underscore_refused_in_a_later_cached_block(self, tmp_path, monkeypatch):
        # numpy's parser refuses "0.0_1", which float() would read; the
        # block holding it leaves the written path, and the message names
        # the row counted from the body's first
        monkeypatch.setattr(mu, "_READ_ROWS", 1024)
        written = self._spy_blocks(monkeypatch)
        path = tmp_path / "map.csv"
        mu.write_map_csv(self._image(128), path)
        lines = path.read_text().splitlines()
        lines[4 + 3000] = "0.0_1,0.02,1.0"
        path.write_text("\n".join(lines) + "\n")
        message = ("bad data row: could not convert string '0.0_1' to float64"
                   " at row 3000, column 1")
        with pytest.raises(DomainError, match=re.escape(f"{path}: {message}")):
            mu.read_map_csv(path, roi_radius=0.085)
        assert written == [True, True, False]

    def test_csv_other_roi_takes_the_plain_path(self, tmp_path, monkeypatch):
        # the rows of a map written at ROI 0.085 are not the cells of a grid
        # at 0.08: the first block leaves the written path, and the rows
        # outside the smaller disk fail the coverage check
        written = self._spy_blocks(monkeypatch)
        path = tmp_path / "map.csv"
        mu.write_map_csv(self._image(), path)
        with pytest.raises(DomainError, match="do not cover exactly the unmasked cells"):
            mu.read_map_csv(path, roi_radius=0.08)
        assert written == [False]

    @pytest.mark.parametrize("block", [None, 7], ids=["one-block", "blocks"])
    def test_csv_equal_valued_texts_take_the_plain_path(self, tmp_path, monkeypatch, block):
        # "0.0100" for "0.01": the same coordinates in other texts
        if block:
            monkeypatch.setattr(mu, "_READ_ROWS", block)
        written = self._spy_blocks(monkeypatch)
        image = self._image()
        path = tmp_path / "map.csv"
        mu.write_map_csv(image, path)
        lines = path.read_text().splitlines()
        lines[4:] = [line.replace(",", "00,", 1) for line in lines[4:]]
        path.write_text("\n".join(lines) + "\n")
        back = mu.read_map_csv(path, roi_radius=0.085)
        assert written == [False]
        assert np.array_equal(back.norms, image.values)

    @pytest.mark.parametrize("block", [7, None], ids=["short-last", "empty-last"])
    def test_csv_round_trip_in_blocks(self, tmp_path, monkeypatch, block):
        # blocks of 7 rows leave a short last block; one block of exactly
        # the rows is followed by an empty one; every block takes the
        # written path
        image = self._image()
        cells = int(np.count_nonzero(image.grid.mask))
        monkeypatch.setattr(mu, "_READ_ROWS", block or cells)
        written = self._spy_blocks(monkeypatch)
        path = tmp_path / "map.csv"
        mu.write_map_csv(image, path)
        back = mu.read_map_csv(path, roi_radius=0.085)
        assert written == [True] * (cells // (block or cells) + 1)
        assert back.grid == image.grid
        assert back.k_aw == image.k_aw
        assert np.array_equal(back.norms, image.values)

    @pytest.mark.parametrize("block", [None, 7], ids=["one-block", "blocks"])
    def test_csv_body_without_final_newline(self, tmp_path, monkeypatch, block):
        if block:
            monkeypatch.setattr(mu, "_READ_ROWS", block)
        image = self._image()
        path = tmp_path / "map.csv"
        mu.write_map_csv(image, path)
        path.write_text(path.read_text().rstrip("\n"))
        back = mu.read_map_csv(path, roi_radius=0.085)
        assert np.array_equal(back.norms, image.values)

    # an edit of the written lines and the check of read_map_csv it must trip;
    # lines 0-3 are the resolution, bounds and k_aw rows and x,y,value
    _CSV_DEFECTS = {
        "no-column-row": (lambda lines: lines[:3] + lines[4:], "missing x,y,value"),
        "malformed-header": (lambda lines: ["# resolution,thirty-two"] + lines[1:],
                             "malformed CSV header"),
        "missing-header-key": (lambda lines: lines[1:], "malformed CSV header"),
        "asymmetric-bounds": (lambda lines: [lines[0], "# bounds,-0.085,0.09"] + lines[2:],
                              "bounds must be symmetric"),
        "short-row": (lambda lines: lines[:9] + ["0.01,0.02"] + lines[10:], "bad data row"),
        "non-numeric-row": (lambda lines: lines[:9] + ["0.01,zero,1.0"] + lines[10:],
                            "bad data row"),
        # float() reads "0.0_1" as 0.01; numpy's parser does not
        "underscore-digits": (lambda lines: lines[:9] + ["0.0_1,0.02,1.0"] + lines[10:],
                              "bad data row"),
        "extra-field": (lambda lines: lines[:4] + [line + ",0" for line in lines[4:]],
                        "bad data row"),
        "outside-grid": (lambda lines: lines + ["0.5,0.0,1.0"], "falls outside the grid"),
        "nan-coordinate": (lambda lines: lines[:9] + ["nan,0.0,0.5"] + lines[10:],
                           r"point \(nan, 0\.0\) falls outside the grid"),
        "incomplete": (lambda lines: lines[:-1], "do not cover exactly the unmasked cells"),
        "empty-body": (lambda lines: lines[:4], "do not cover exactly the unmasked cells"),
        "infinite-value": (lambda lines: lines[:9] + [lines[9].rsplit(",", 1)[0] + ",inf"]
                           + lines[10:], "do not cover exactly the unmasked cells"),
    }

    @pytest.mark.parametrize("defect", sorted(_CSV_DEFECTS))
    def test_csv_read_rejects(self, tmp_path, defect):
        edit, message = self._CSV_DEFECTS[defect]
        path = tmp_path / "map.csv"
        mu.write_map_csv(self._image(), path)
        lines = path.read_text().splitlines()
        assert lines[3] == "x,y,value"
        path.write_text("\n".join(edit(lines)) + "\n")
        with pytest.raises(DomainError, match=message) as err:
            mu.read_map_csv(path, roi_radius=0.085)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("defect", sorted(_CSV_DEFECTS))
    def test_csv_read_rejects_in_a_later_block(self, tmp_path, monkeypatch, defect):
        # with blocks of 4 rows an edit of body row 5 (line 9) falls in the
        # second block and an appended row in the last; the message is the
        # one of a single-block read, its row numbers included
        edit, message = self._CSV_DEFECTS[defect]
        path = tmp_path / "map.csv"
        mu.write_map_csv(self._image(), path)
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(DomainError, match=message) as whole:
            mu.read_map_csv(path, roi_radius=0.085)
        monkeypatch.setattr(mu, "_READ_ROWS", 4)
        with pytest.raises(DomainError, match=message) as blocks:
            mu.read_map_csv(path, roi_radius=0.085)
        assert str(blocks.value) == str(whole.value)
        assert str(path) in str(blocks.value)

    def _clipped_image(self):
        # a signal basis spanned by one cell's own steering vector drives that
        # cell's projection norm to rounding level, past DEFAULT_CEILING
        scn = make_scene(1)
        k = scn.background_wavenumber()
        grid = _grid(32)
        w = direct_rows(k, np.array([grid.point_of(20, 12)]), scn.array, mu.EXACT_FIELD)
        return image_of(w.T, k, grid, scn.array)

    @pytest.mark.parametrize("which", ["values", "norms"])
    @pytest.mark.parametrize("clipped", [False, True], ids=["plain", "clipped"])
    def test_csv_bytes_match_reference(self, tmp_path, which, clipped):
        image = self._clipped_image() if clipped else self._image()
        if clipped:
            assert raster(image.grid, image.values)[20, 12] == mu.DEFAULT_CEILING
        path = tmp_path / "map.csv"
        mu.write_map_csv(image, path, which=which)
        assert path.read_bytes() == map_csv_text(image, which).encode("ascii")

    def test_csv_unknown_layer_rejected(self, tmp_path):
        path = tmp_path / "map.csv"
        for which in ("norm", "raw_norm"):
            with pytest.raises(DomainError, match=f"unknown map layer '{which}'"):
                mu.write_map_csv(self._image(), path, which=which)
        assert not path.exists()

    def test_csv_writer_memory(self, tmp_path):
        # the body is written one grid row at a time: the traced peak at
        # 1024^2 (824k rows, ~40 MB of text) stays within 1 MB; building the
        # map caches the grid's ticks and mask before tracing starts
        grid = _grid(1024)
        rng = np.random.default_rng(3)
        image = mu.ImageMap(grid, rng.uniform(0.0, 1.0, (1024, 1024))[grid.mask], _K_AW)
        tracemalloc.start()
        try:
            mu.write_map_csv(image, tmp_path / "map.csv", which="norms")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20

    @pytest.mark.parametrize("perturbed", [False, True], ids=["written", "perturbed"])
    def test_csv_reader_memory(self, tmp_path, monkeypatch, perturbed):
        # the body is read _READ_ROWS rows at a time: with blocks of 2048
        # rows the traced peak of a 256^2 read (51k rows) is 1.2 MB, for a
        # written map and for a shuffled and perturbed one alike, 0.5 MB of
        # it the raster; holding every row at once took 3.3 MB
        monkeypatch.setattr(mu, "_READ_ROWS", 2048)
        grid = _grid(256)
        rng = np.random.default_rng(3)
        norms = rng.uniform(0.0, 1.0, (256, 256))[grid.mask]
        path = tmp_path / "map.csv"
        mu.write_map_csv(mu.ImageMap(grid, norms, _K_AW), path, which="norms")
        if perturbed:
            self._perturb(path, grid)
        tracemalloc.start()
        try:
            back = mu.read_map_csv(path, roi_radius=0.085)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.norms, norms)
        assert peak <= 2 * 2**20

    def test_pgm_layout(self, tmp_path):
        image = self._image(128)
        path = tmp_path / "map.pgm"
        mu.write_map_pgm(image, path)
        blob = path.read_bytes()
        header = b"P5\n128 128\n255\n"
        assert blob.startswith(header)
        assert len(blob) == len(header) + 128 * 128

    def test_pgm_constant_map_saturates(self, tmp_path):
        grid = _grid(20)
        image = mu.ImageMap(grid, np.full(np.count_nonzero(grid.mask), 0.5), _K_AW)
        path = tmp_path / "const.pgm"
        mu.write_map_pgm(image, path)
        blob = path.read_bytes()
        pixels = np.frombuffer(blob[len(b"P5\n20 20\n255\n") :], dtype=np.uint8).reshape(20, 20)
        flipped = pixels[::-1, :]
        assert np.all(flipped[grid.mask] == 255)
        assert np.all(flipped[~grid.mask] == 0)

    def test_pgm_deterministic(self, tmp_path):
        image = self._image()
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        mu.write_map_pgm(image, p1)
        mu.write_map_pgm(image, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestMemory:
    # tracemalloc peak of one default map (one anomaly, M = 1, exact field)
    # at 1024^2, its steering evaluator built beforehand, as a sweep builds
    # them before its first map: 7.1 MB measured, 6.3 MB of it the
    # mask-order norms the map keeps; 24.1 MB while the map also kept two
    # res^2 layers, 35.7 MB with the cells-sized temporaries of np.where and
    # np.minimum. The plane-wave map measured 8.0 MB (24.1 MB with the
    # layers).
    PEAK_MB = 27
    # tracemalloc peak of that map, its peak extraction and its PGM at
    # 1024^2: 20.9 MB measured, the norms, their reciprocals and the one
    # res^2 raster the peaks are searched in; 29.6 MB while the map kept
    # two res^2 layers and the PGM scaled in three temporaries
    RENDERED_PEAK_MB = 24
    # tracemalloc peak of the exact-field evaluator of one k at 1024^2, its
    # symmetry plan and the grid's mask included: 31.8 MB measured
    EVALUATOR_PEAK_MB = 36

    def test_default_map_at_1024(self):
        assert self._peak(mu.EXACT_FIELD) <= self.PEAK_MB * 2**20

    def test_plane_wave_map_at_1024(self):
        assert self._peak(mu.PLANE_WAVE) <= self.PEAK_MB * 2**20

    def test_map_peaks_and_pgm_at_1024(self, tmp_path):
        def render(image):
            mu.extract_peaks(image, 1)
            mu.write_map_pgm(image, tmp_path / "map.pgm")

        assert self._peak(mu.EXACT_FIELD, render) <= self.RENDERED_PEAK_MB * 2**20

    def test_exact_field_evaluator_at_1024(self):
        scn = make_scene(1)
        k = scn.background_wavenumber()
        grid = mu.grid_for_roi(scn.roi_radius, 1024)
        tracemalloc.start()
        try:
            mu.steering_evaluators([k], grid, scn.array, mu.EXACT_FIELD)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.EVALUATOR_PEAK_MB * 2**20

    def test_closed_form_at_1024(self):
        # the closed form holds its per-axis tables and one band beside its
        # mask-order norms: 9.0 MB measured with the grid's mask built inside
        # the trace, 6.3 MB of it the norms (15.3 MB while it also returned
        # them as a res^2 raster)
        scn = make_scene(1)
        k_bw = scn.background_wavenumber()
        k_aw = _mismatched(scn, "permeability", 2.0)
        grid = mu.grid_for_roi(scn.roi_radius, 1024)
        tracemalloc.start()
        try:
            th.closed_form_norm_map(grid, scn.array, k_bw, k_aw, (0.01, 0.03))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.PEAK_MB * 2**20

    @staticmethod
    def _peak(variant, then=lambda image: None) -> int:
        """The traced peak of one map at 1024^2 and then(map)."""
        scn = make_scene(1)
        k = scn.background_wavenumber()
        basis = mu.svd_leading(fw.scattering_matrix(scn, k))[1][:, :1]
        grid = mu.grid_for_roi(scn.roi_radius, 1024)
        evaluator = steering(k, grid, scn.array, variant)
        grid.mask  # cached before the trace, as a sweep caches it before its first map
        tracemalloc.start()
        try:
            then(mu.imaging_map(basis, k, grid, scn.array, evaluator))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
