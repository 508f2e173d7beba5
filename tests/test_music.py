import math

import numpy as np
import pytest

from mwmusic import forward as fw
from mwmusic import music as mu
from mwmusic import scene as sc
from mwmusic import theory as th
from mwmusic.errors import (
    ConfigurationError,
    DegenerateDataError,
    DomainError,
    NumericalError,
)

from conftest import image_from_data, make_scene
from oracles import (
    direct_closed_form_norm_map,
    direct_norms,
    map_csv_text,
    map_csv_values,
    onesided_jacobi_singular_values,
)


def _grid(resolution=128):
    return mu.grid_for_roi(0.085, resolution)


class TestSvdLeading:
    def test_zero_matrix(self):
        dec = mu.svd_leading(np.zeros((6, 6), dtype=complex))
        assert np.all(dec.singular_values == 0)

    def test_rank_one_symmetric(self):
        # The SVD acts on K itself, not on K K^H, so nothing is squared:
        # the exactly-zero singular values come out at rounding level
        # (measured 8.5e-17 tau_1 here).
        rng = np.random.default_rng(0)
        x = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        dec = mu.svd_leading(np.outer(x, x))
        nrm2 = float(np.sum(np.abs(x) ** 2))
        assert dec.singular_values[0] == pytest.approx(nrm2, rel=1e-12)
        assert np.all(dec.singular_values[1:] <= 1e-13 * dec.singular_values[0])
        overlap = abs(np.vdot(dec.left_vectors[:, 0], x / np.linalg.norm(x)))
        assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_random_matrix_against_onesided_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        dec = mu.svd_leading(a)
        ref = onesided_jacobi_singular_values(a)
        assert np.max(np.abs(dec.singular_values - ref)) <= 1e-10 * ref[0]

    def test_eigen_residual_and_orthonormality(self, double_scene):
        k = double_scene.background_wavenumber()
        mat = fw.scattering_matrix(double_scene, k)
        dec = mu.svd_leading(mat)
        gram = mat.entries @ mat.entries.conj().T
        tau1 = dec.singular_values[0]
        for j in range(mat.n):
            u = dec.left_vectors[:, j]
            resid = np.linalg.norm(gram @ u - dec.singular_values[j] ** 2 * u)
            assert resid <= 1e-8 * tau1**2
        eye_dev = np.abs(dec.left_vectors.conj().T @ dec.left_vectors - np.eye(mat.n))
        assert np.max(eye_dev) <= 1e-10

    def test_descending_order(self, single_scene):
        k = single_scene.background_wavenumber()
        dec = mu.svd_leading(fw.scattering_matrix(single_scene, k))
        assert np.all(np.diff(dec.singular_values) <= 0)

    def test_nan_entry_raises(self, single_scene):
        k = single_scene.background_wavenumber()
        entries = fw.scattering_matrix(single_scene, k).entries.copy()
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
        taus_full = mu.svd_leading(fw.scattering_matrix(double_scene, k)).singular_values
        assert mu.signal_subspace_dim(taus_full) == 6
        taus_asym = mu.svd_leading(
            fw.scattering_matrix(double_scene, k, fw.ASYMPTOTIC)
        ).singular_values
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
        w = mu._steering_rows(k, np.zeros((1, 2)), single_scene.array, mu.PLANE_WAVE)
        assert np.allclose(w, 1.0 / 4.0, rtol=0, atol=0)

    @pytest.mark.parametrize("variant", [mu.EXACT_FIELD, mu.PLANE_WAVE])
    def test_unit_norm(self, single_scene, variant):
        k = single_scene.background_wavenumber()
        pts = _disk_points(np.random.default_rng(2), 0.084, 100)
        w = mu._steering_rows(k, pts, single_scene.array, variant)
        assert np.max(np.abs(np.linalg.norm(w, axis=1) - 1.0)) <= 1e-14

    def test_variants_agree_in_direction(self, single_scene):
        # |<W_exact, W_plane>| near unity over the inner half disk. At this
        # geometry (array ~1.35 wavelengths across) the calibrated deviation
        # is max 0.046 over this sample, 0.067 over 2000 points; recorded
        # bound 0.08.
        k = single_scene.background_wavenumber()
        pts = _disk_points(np.random.default_rng(3), 0.0425, 50)
        we = mu._steering_rows(k, pts, single_scene.array, mu.EXACT_FIELD)
        wp = mu._steering_rows(k, pts, single_scene.array, mu.PLANE_WAVE)
        assert np.max(np.abs(1.0 - np.abs(np.sum(we.conj() * wp, axis=1)))) <= 0.08

    def test_at_antenna_rejected(self, single_scene):
        k = single_scene.background_wavenumber()
        array = single_scene.array
        with pytest.raises(DomainError):
            mu._steering_rows(k, array.positions[:1], array, mu.EXACT_FIELD)


class TestProjectionNorm:
    def _basis(self, scene, m=1):
        k = scene.background_wavenumber()
        return mu.svd_leading(fw.scattering_matrix(scene, k)).left_vectors[:, :m]

    def test_signal_vector_maps_to_zero(self, single_scene):
        basis = self._basis(single_scene)
        assert mu.projection_norm(basis, basis[:, 0]) <= 1e-10

    def test_noise_vector_maps_to_one(self, single_scene):
        full = self._basis(single_scene, m=16)
        assert mu.projection_norm(full[:, :1], full[:, -1]) == pytest.approx(1.0, abs=1e-10)

    def test_full_signal_space_annihilates(self, single_scene):
        basis = self._basis(single_scene, m=16)
        rng = np.random.default_rng(4)
        w = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        w /= np.linalg.norm(w)
        assert mu.projection_norm(basis, w) <= 1e-10

    def test_bounded_by_one(self, single_scene):
        basis = self._basis(single_scene)
        rng = np.random.default_rng(5)
        for _ in range(50):
            w = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            w /= np.linalg.norm(w)
            val = mu.projection_norm(basis, w)
            assert -1e-12 <= val <= 1.0 + 1e-12


class TestImagingGrid:
    def test_mask_matches_disk(self):
        grid = _grid(64)
        xx, yy = np.meshgrid(grid.ticks, grid.ticks)
        assert np.array_equal(grid.mask, np.hypot(xx, yy) <= 0.085)

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
    return th.mismatched_wavenumber(scn.background, scn.omega, th.MismatchSpec(kind, ratio))


def _nudged_array(count=16):
    """A uniform ring with one antenna moved by 1e-3 rad: no symmetry left."""
    angles = sc.uniform_circular_array(count, 0.09).angles.copy()
    angles[3] += 1e-3
    positions = 0.09 * np.column_stack([np.cos(angles), np.sin(angles)])
    return sc.AntennaArray(radius=0.09, count=count, positions=positions, angles=angles)


class TestSymmetryPlan:
    @pytest.mark.parametrize("count,resolution", _SYMMETRY_CASES)
    def test_images_cover_every_cell(self, count, resolution):
        grid, _, plan = _plan(count, resolution)
        cells = grid.cell_centers.shape[0]
        assert np.array_equal(np.unique(plan.cells), np.arange(cells))
        assert np.array_equal(plan.points, grid.cell_centers[plan.cells[0]])
        for idx in plan.cells:  # each group element is one-to-one on the domain
            assert np.unique(idx).size == idx.size

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
        for kv in (k, sc.Wavenumber(k.omega, 2.0 * k.value)):
            full = mu._steering_rows(kv, grid.cell_centers, array, mu.EXACT_FIELD)
            rows = mu._steering_rows(kv, plan.points, array, mu.EXACT_FIELD)
            rebuilt = _rebuilt(rows, plan, full.shape[0])
            assert np.max(np.abs(rebuilt - full) / np.abs(full)) <= 4e-10

    @pytest.mark.parametrize("count,resolution", _SYMMETRY_CASES)
    def test_plane_rows_rebuilt(self, count, resolution):
        grid, array, plan = _plan(count, resolution)
        k = make_scene(1).background_wavenumber()
        full = mu._steering_rows(k, grid.cell_centers, array, mu.PLANE_WAVE)
        rows = mu._steering_rows(k, plan.points, array, mu.PLANE_WAVE)
        assert np.max(np.abs(_rebuilt(rows, plan, full.shape[0]) - full)) <= 1e-14

    def test_asymmetric_array_has_trivial_group(self):
        grid = _grid(48)
        plan = mu.symmetry_plan(grid, _nudged_array())
        assert plan.cells.shape[0] == 1
        assert np.array_equal(plan.cells[0], np.arange(grid.cell_centers.shape[0]))

    @pytest.mark.parametrize("variant", mu.VARIANTS)
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
        dec = mu.svd_leading(fw.scattering_matrix(scn, k))
        basis = dec.left_vectors[:, :n_anomalies]
        grid = _grid(64)
        image = mu.imaging_map(basis, k, scn.array, grid, variant=variant)
        want = direct_norms(basis, k, scn.array, grid, variant)
        assert np.array_equal(image.raw_norm[grid.mask], want)

    def test_asymmetric_array_closed_form_bit_identical(self):
        scn = make_scene(1)
        k_bw = scn.background_wavenumber()
        k_aw = _mismatched(scn, "permittivity", 2.0)
        ctx = th.TheoryContext(k_bw=k_bw, k_aw=k_aw, r_star=(0.01, 0.03), array=_nudged_array())
        grid = _grid(64)
        got = th.closed_form_norm_map(ctx, grid)
        assert np.array_equal(got, direct_closed_form_norm_map(ctx, grid), equal_nan=True)

    # The norm is 1-Lipschitz in the unit row, so the exact field inherits the
    # rows' 4e-10 (measured worst 5.5e-12 at N = 10); plane-wave rows and the
    # closed form agree at rounding level (measured worst 1.8e-15 and 4.9e-15).
    @pytest.mark.parametrize("count", [16, 7, 10])
    def test_symmetric_maps_match_direct(self, count):
        scn = make_scene(2, count=count)
        k_bw = scn.background_wavenumber()
        k_aw = _mismatched(scn, "permeability", 2.0)
        basis = mu.svd_leading(fw.scattering_matrix(scn, k_bw)).left_vectors[:, :2]
        grid = _grid(113)
        for variant, bound in ((mu.EXACT_FIELD, 4e-10), (mu.PLANE_WAVE, 1e-13)):
            image = mu.imaging_map(basis, k_aw, scn.array, grid, variant=variant)
            want = direct_norms(basis, k_aw, scn.array, grid, variant)
            assert np.max(np.abs(image.raw_norm[grid.mask] - want)) <= bound
        ctx = th.TheoryContext(k_bw=k_bw, k_aw=k_aw, r_star=(0.01, 0.03), array=scn.array)
        got = th.closed_form_norm_map(ctx, grid)[grid.mask]
        want = direct_closed_form_norm_map(ctx, grid)[grid.mask]
        assert np.max(np.abs(got - want)) <= 1e-13


class TestImagingMap:
    def test_reference_single_anomaly_localization(self, single_scene):
        k = single_scene.background_wavenumber()
        mat = fw.scattering_matrix(single_scene, k)
        grid = _grid(128)
        image = image_from_data(mat, k, single_scene.array, grid)
        err = math.dist(image.argmax_point(), (0.01, 0.03))
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
        assert math.hypot(*image.argmax_point()) <= grid.cell_size

    def test_values_at_least_one(self, single_scene):
        k = single_scene.background_wavenumber()
        image = image_from_data(
            fw.scattering_matrix(single_scene, k), k, single_scene.array, _grid(64)
        )
        assert np.nanmin(image.values) >= 1.0 - 1e-9

    def test_scale_invariance(self, single_scene):
        k = single_scene.background_wavenumber()
        mat = fw.scattering_matrix(single_scene, k)
        grid = _grid(64)
        base = image_from_data(mat, k, single_scene.array, grid)
        c = -0.37 + 1.91j
        scaled_mat = fw.ScatteringMatrix(n=mat.n, entries=c * mat.entries, mode=mat.mode)
        scaled = image_from_data(scaled_mat, k, single_scene.array, grid)
        mask = grid.mask
        assert np.max(np.abs(scaled.values[mask] - base.values[mask]) / base.values[mask]) <= 1e-9

    def test_full_signal_dim_is_flat_at_ceiling(self, single_scene):
        k = single_scene.background_wavenumber()
        image = image_from_data(
            fw.scattering_matrix(single_scene, k),
            k,
            single_scene.array,
            _grid(32),
            signal_dim=16,
        )
        assert np.all(image.values[image.grid.mask] == mu.DEFAULT_CEILING)

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
        p1 = image_from_data(fw.scattering_matrix(base, k), k, base.array, grid).argmax_point()
        p2 = image_from_data(fw.scattering_matrix(rotated, k), k, base.array, grid).argmax_point()
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
            mu.imaging_map(basis, k, single_scene.array, _grid(32))

    def test_overflowing_steering_raises(self, single_scene):
        # conductivity x1e5 gives Im(k_aw) ~ 8.9e3 /m, so the exact field
        # overflows across the ring instead of yielding a NaN norm map
        k = single_scene.background_wavenumber()
        dec = mu.svd_leading(fw.scattering_matrix(single_scene, k))
        k_aw = sc.wavenumber(
            sc.Medium(
                single_scene.background.permittivity,
                1e5 * single_scene.background.conductivity,
                single_scene.background.permeability,
            ),
            single_scene.omega,
        )
        with pytest.raises(NumericalError), pytest.warns(RuntimeWarning):
            mu.imaging_map(dec.left_vectors[:, :1], k_aw, single_scene.array, _grid(16))

    def test_raw_norm_bounded(self, single_scene):
        k = single_scene.background_wavenumber()
        image = image_from_data(
            fw.scattering_matrix(single_scene, k), k, single_scene.array, _grid(64)
        )
        vals = image.raw_norm[image.grid.mask]
        assert np.all(vals >= 0.0)
        assert np.all(vals <= 1.0 + 1e-12)


class TestExtractPeaks:
    def test_single_peak_is_argmax(self, single_scene):
        k = single_scene.background_wavenumber()
        image = image_from_data(
            fw.scattering_matrix(single_scene, k), k, single_scene.array, _grid(64)
        )
        peaks = mu.extract_peaks(image, 1)
        assert peaks[0][0] == image.argmax_point()

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
        values = np.where(grid.mask, 3.5, np.nan)
        image = mu.ImageMap(grid=grid, values=values)
        peaks = mu.extract_peaks(image, 1)
        iy, ix = np.argwhere(grid.mask)[0]
        assert peaks[0][0] == grid.point_of(int(iy), int(ix))

    def test_suppression_radius(self):
        grid = _grid(24)
        values = np.where(grid.mask, 1.0, np.nan)
        # two maxima 3 cells apart: the second must be suppressed
        values[12, 12] = 5.0
        values[12, 15] = 4.0
        values[12, 18] = 3.0
        image = mu.ImageMap(grid=grid, values=values)
        peaks = mu.extract_peaks(image, 3)
        assert peaks[0][0] == grid.point_of(12, 12)
        assert peaks[1][0] == grid.point_of(12, 18)

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
        mask = image.grid.mask
        assert np.array_equal(back.values[mask], image.values[mask])

    def test_csv_norm_layer(self, tmp_path):
        image = self._image()
        path = tmp_path / "norm.csv"
        mu.write_map_csv(image, path, which="raw_norm")
        back = mu.read_map_csv(path, roi_radius=0.085)
        mask = image.grid.mask
        assert np.array_equal(back.values[mask], image.raw_norm[mask])

    def test_csv_read_matches_row_loop(self, tmp_path):
        # rows shuffled and moved off their cell centres by up to 0.45 cell
        image = self._image()
        path = tmp_path / "map.csv"
        mu.write_map_csv(image, path)
        lines = path.read_text().splitlines()
        rng = np.random.default_rng(9)
        rows = np.array([[float(t) for t in line.split(",")] for line in lines[4:]])
        rows[:, :2] += rng.uniform(-0.45, 0.45, (len(rows), 2)) * image.grid.cell_size
        rows = rows[rng.permutation(len(rows))]
        text = "\n".join(lines[:4] + [",".join(repr(v) for v in row) for row in rows.tolist()]) + "\n"
        path.write_text(text)
        back = mu.read_map_csv(path, roi_radius=0.085)
        assert np.array_equal(back.values, map_csv_values(text, image.grid), equal_nan=True)
        assert np.array_equal(back.values, image.values, equal_nan=True)

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
        "extra-field": (lambda lines: lines[:4] + [line + ",0" for line in lines[4:]],
                        "bad data row"),
        "outside-grid": (lambda lines: lines + ["0.5,0.0,1.0"], "falls outside the grid"),
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

    def _clipped_image(self):
        # a signal basis spanned by one cell's own steering vector drives that
        # cell's projection norm to rounding level, past DEFAULT_CEILING
        scn = make_scene(1)
        k = scn.background_wavenumber()
        grid = _grid(32)
        w = mu._steering_rows(k, np.array([grid.point_of(20, 12)]), scn.array, mu.EXACT_FIELD)
        return mu.imaging_map(w.T, k, scn.array, grid)

    @pytest.mark.parametrize("which", ["values", "raw_norm"])
    @pytest.mark.parametrize("clipped", [False, True], ids=["plain", "clipped"])
    def test_csv_bytes_match_reference(self, tmp_path, which, clipped):
        image = self._clipped_image() if clipped else self._image()
        if clipped:
            assert image.values[20, 12] == mu.DEFAULT_CEILING
        path = tmp_path / "map.csv"
        mu.write_map_csv(image, path, which=which)
        assert path.read_bytes() == map_csv_text(image, which).encode("ascii")

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
        values = np.where(grid.mask, 2.0, np.nan)
        image = mu.ImageMap(grid=grid, values=values)
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
