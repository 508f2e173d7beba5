import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mwmusic import forward as fw
from mwmusic import music as mu
from mwmusic import scene as sc
from mwmusic import theory as th
from mwmusic.errors import DomainError

from conftest import D1_CENTER, image_from_data, make_scene, raster, uniform_angles
from oracles import (
    bessel_series_norm_factor,
    bessel_series_terms,
    c_identity_svd,
    cell_centers,
    closed_form_norm_oracle,
    direct_closed_form_norm_map,
    direct_norm_factor,
    far_field_normalization,
    norm_prefactor,
)


def _waves(scene, kind=None, ratio=1.0, r_star=(0.01, 0.03)):
    """(k_bw, k_aw, r_star) of the closed form, k_aw mismatched by ratio in kind."""
    k_bw = scene.background_wavenumber()
    if kind is None:
        k_aw = k_bw
    else:
        k_aw = th.mismatched_wavenumber(scene.background, scene.omega, kind, ratio)
    return k_bw, k_aw, r_star


def _g(array, waves, r):
    """The norm factor g at one point, from the rows of the direct map that
    the closed form is held to."""
    return float(direct_norm_factor([r], array, *waves)[0])


class TestMismatchedWavenumber:
    def test_permeability_scales_exactly(self, single_scene):
        k_bw = single_scene.background_wavenumber()
        k_aw = th.mismatched_wavenumber(
            single_scene.background, single_scene.omega, "permeability", 4.0
        )
        assert k_aw == pytest.approx(2 * k_bw, rel=1e-14)

    def test_conductivity_only_changes_imag_part_mostly(self, single_scene):
        k_aw = th.mismatched_wavenumber(
            single_scene.background, single_scene.omega, "conductivity", 0.0001
        )
        k_bw = single_scene.background_wavenumber()
        assert abs(k_aw.imag) < 0.01 * abs(k_bw.imag)

    @pytest.mark.parametrize("kind", th.MISMATCH_KINDS)
    @pytest.mark.parametrize("ratio", [0.1, 2.0, 1e5])
    def test_scales_only_its_own_field(self, single_scene, kind, ratio):
        bg = single_scene.background
        fields = {name: getattr(bg, name) for name in th.MISMATCH_KINDS}
        fields[kind] *= ratio
        got = th.mismatched_wavenumber(bg, single_scene.omega, kind, ratio)
        assert got == sc.wavenumber(sc.Medium(**fields), single_scene.omega)

    def test_invalid_kind(self, single_scene):
        with pytest.raises(DomainError):
            th.mismatched_wavenumber(single_scene.background, single_scene.omega, "frequency", 2.0)

    def test_invalid_ratio(self, single_scene):
        with pytest.raises(DomainError):
            th.mismatched_wavenumber(
                single_scene.background, single_scene.omega, "permeability", 0.0
            )

    @pytest.mark.parametrize("kind", th.MISMATCH_KINDS)
    def test_overflowing_wavenumber_rejected(self, single_scene, kind):
        # a finite ratio whose wavenumber is not: inf + inf j would reach
        # the steering rows
        with pytest.raises(DomainError, match="not finite"):
            th.mismatched_wavenumber(single_scene.background, single_scene.omega, kind, 1e308)


class TestErrorSeries:
    # E is the harmonic error term of the theorem: s^H w / N = J_0(rho) + E
    def test_zero_at_matched_location(self, single_scene):
        # lossless background, k_aw = k_bw and r = r*: the difference
        # argument z vanishes, so E = 0 and J_0 = 1
        bg = single_scene.background
        lossless = sc.Medium(bg.permittivity, 0.0, bg.permeability)
        k = sc.wavenumber(lossless, single_scene.omega)
        assert k.imag == 0
        r_star = (0.01, 0.03)
        j0, error = bessel_series_terms(k, k, r_star, r_star, uniform_angles())
        assert error == 0
        assert j0 == 1
        assert _g(single_scene.array, (k, k, r_star), r_star) == pytest.approx(1.0, abs=1e-12)

    def test_j0_plus_error_is_one_at_match(self, single_scene):
        # k_aw = k_bw and r = r*: s and w are the same vector. For the lossy
        # background z = 2i Im(k) r* is not zero, so J_0 + E is a nontrivial
        # series that must still normalize to 1.
        waves = _waves(single_scene)
        k, _, r_star = waves
        angles = uniform_angles()
        j0, error = bessel_series_terms(k, k, r_star, r_star, angles)
        assert error != 0
        series = bessel_series_norm_factor(k, k, r_star, r_star, angles)
        assert series == pytest.approx(1.0, abs=1e-12)
        assert _g(single_scene.array, waves, r_star) == pytest.approx(1.0, abs=1e-12)


class TestNormFactor:
    def test_matches_bessel_series_oracle(self, single_scene):
        # cornerstone identity: the direct antenna sum equals the theorem's
        # Bessel-harmonic series at 200 random samples
        rng = np.random.default_rng(17)
        kinds = ("permeability", "permittivity", "conductivity")
        angles = uniform_angles()
        worst = 0.0
        for trial in range(200):
            waves = _waves(single_scene, kinds[trial % 3], float(rng.uniform(0.2, 5.0)))
            rad = 0.084 * math.sqrt(rng.uniform())
            ang = rng.uniform(0, 2 * math.pi)
            r = (rad * math.cos(ang), rad * math.sin(ang))
            got = _g(single_scene.array, waves, r)
            want = bessel_series_norm_factor(*waves, r, angles)
            worst = max(worst, abs(got - want))
        assert worst <= 1e-9


def _argmin_point(norms, grid):
    """The centre of the cell of the least of the mask-order norms."""
    iy, ix = np.nonzero(grid.mask)
    cell = int(np.argmin(norms))
    return grid.point_of(int(iy[cell]), int(ix[cell]))


class TestClosedFormMap:
    # the argmax of the reciprocal map is the argmin of the norm map

    def test_prefactor_value(self, single_scene):
        # the map over sqrt(1 - g^2) is the prefactor (N^2-2N)/(N^2-2N+1)
        waves = _waves(single_scene)
        assert norm_prefactor(single_scene.array.count) == pytest.approx(224 / 225, rel=0)
        grid = mu.grid_for_roi(0.085, 64)
        norm = th.closed_form_norm_map(grid, single_scene.array, *waves)
        assert np.max(norm) <= 224 / 225 + 1e-12
        g = direct_norm_factor(cell_centers(grid), single_scene.array, *waves)
        shape = np.sqrt(1.0 - g * g)
        kept = shape > 0.5
        assert np.max(np.abs(norm[kept] / shape[kept] - 224 / 225)) <= 1e-12

    def test_argmax_follows_shift_law(self, single_scene):
        grid = mu.grid_for_roi(0.085, 128)
        waves = _waves(single_scene, "permeability", 2.0)
        norm = th.closed_form_norm_map(grid, single_scene.array, *waves)
        pred = (0.01 / math.sqrt(2), 0.03 / math.sqrt(2))
        assert math.dist(_argmin_point(norm, grid), pred) <= grid.cell_size

    @pytest.mark.parametrize("kind", ["permeability", "permittivity"])
    @pytest.mark.parametrize("ratio", [0.2, 0.5, 2.0, 10.0])
    def test_argmax_law_across_ratios(self, single_scene, kind, ratio):
        grid = mu.grid_for_roi(0.085, 128)
        waves = _waves(single_scene, kind, ratio)
        norm = th.closed_form_norm_map(grid, single_scene.array, *waves)
        pred = th.predicted_peak(*waves)
        assert math.dist(_argmin_point(norm, grid), pred) <= 2 * grid.cell_size

    @pytest.mark.parametrize("delta", [3e-9, 3e-8, 3e-7])
    def test_exact_near_the_minimum(self, single_scene, delta):
        # a 4 x 4 grid over [-L, L]^2 with L = 4 (0.01 + delta) has a cell
        # centre at (0.01 + delta, 0.03 + 3 delta), sqrt(10) delta from the
        # matched minimum r*: where g^2 is within 1e-10 of 1, the closed form
        # must not lose the digits that 1 - g^2 cancels
        grid = mu.ImagingGrid(resolution=4, half_extent=4 * (0.01 + delta), roi_radius=0.085)
        waves = _waves(single_scene)
        norm = th.closed_form_norm_map(grid, single_scene.array, *waves)
        r = grid.point_of(3, 2)
        assert math.dist(r, D1_CENTER) <= 1e-6
        want = closed_form_norm_oracle(single_scene.array, *waves, r)
        assert abs(raster(grid, norm)[3, 2] - want) <= 1e-15

    def test_finite_for_high_loss(self, single_scene):
        # conductivity x1e6 gives Im(k_aw) ~ 2.8e4 /m, so e^{-Im(k) theta . r}
        # alone would overflow across the region of interest
        grid = mu.grid_for_roi(0.085, 32)
        waves = _waves(single_scene, "conductivity", 1e6)
        norm = th.closed_form_norm_map(grid, single_scene.array, *waves)
        assert norm.shape == (np.count_nonzero(grid.mask),)
        assert np.all(np.isfinite(norm))

    def test_underflowing_cells_take_their_unit_rows(self, single_scene, monkeypatch):
        # at conductivity x1e6 and a cell size of 0.05 m, |w|^2 of the
        # per-axis scaled tables underflows the closed form's floor at every
        # cell, so every norm comes from the cell's unit row, as the imaging
        # kernel's
        grid = mu.grid_for_roi(0.4, 16)
        waves = _waves(single_scene, "conductivity", 1e6)
        routed = []
        rows = mu._plane_wave_rows
        monkeypatch.setattr(
            mu, "_plane_wave_rows", lambda *args: routed.append(len(args[-1])) or rows(*args)
        )
        norm = th.closed_form_norm_map(grid, single_scene.array, *waves)
        # every unmasked cell (the signal row is built in `theory`)
        assert sum(routed) == np.count_nonzero(grid.mask)
        want = direct_closed_form_norm_map(grid, single_scene.array, *waves)
        assert np.max(np.abs(norm - want)) <= 1e-13

    def test_invariant_under_antenna_relabeling(self, single_scene):
        grid = mu.grid_for_roi(0.085, 32)
        waves = _waves(single_scene, "permittivity", 2.0)
        base = th.closed_form_norm_map(grid, single_scene.array, *waves)
        rng = np.random.default_rng(8)
        perm = rng.permutation(single_scene.array.count)
        shuffled = sc.AntennaArray(
            radius=single_scene.array.radius, positions=single_scene.array.positions[perm]
        )
        other = th.closed_form_norm_map(grid, shuffled, *waves)
        assert np.max(np.abs(base - other)) <= 1e-12 * np.max(base)


class TestPredictedPeak:
    def test_matched_returns_r_star(self, single_scene):
        k_bw = single_scene.background_wavenumber()
        assert th.predicted_peak(k_bw, k_bw, (0.01, 0.03)) == (0.01, 0.03)

    def test_permeability_law_exact(self, single_scene):
        k_bw = single_scene.background_wavenumber()
        for c in (0.2, 0.5, 2.0, 10.0):
            k_aw = th.mismatched_wavenumber(
                single_scene.background, single_scene.omega, "permeability", c
            )
            got = th.predicted_peak(k_bw, k_aw, (0.01, 0.03))
            want = (0.01 / math.sqrt(c), 0.03 / math.sqrt(c))
            assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0)
            assert got[1] == pytest.approx(want[1], rel=1e-12, abs=0)

    def test_permittivity_law_near_sqrt(self, single_scene):
        # Complex ratio against the lossless sqrt(eps_b/eps_a) approximation.
        # Recomputed deviations: 0.50% at c=2 but 2.56% at c=0.5 (halving
        # eps_a doubles the loss tangent); recorded bound 3%.
        k_bw = single_scene.background_wavenumber()
        for c in (0.5, 2.0):
            k_aw = th.mismatched_wavenumber(
                single_scene.background, single_scene.omega, "permittivity", c
            )
            got = th.predicted_peak(k_bw, k_aw, (0.01, 0.03))
            approx = (0.01 / math.sqrt(c), 0.03 / math.sqrt(c))
            assert math.dist(got, approx) <= 0.03 * math.hypot(*approx)

    def test_conductivity_near_invariance(self, single_scene):
        k_bw = single_scene.background_wavenumber()
        r_star = (0.01, 0.03)
        for c in (0.1, 0.2, 2.0):
            k_aw = th.mismatched_wavenumber(
                single_scene.background, single_scene.omega, "conductivity", c
            )
            got = th.predicted_peak(k_bw, k_aw, r_star)
            assert math.dist(got, r_star) <= 0.1 * math.hypot(*r_star)

    def test_real_part_vs_modulus_choice(self, single_scene):
        # the two scalings differ by well under a percent in the low-loss regime
        k_bw = single_scene.background_wavenumber()
        for kind, c in (("permittivity", 0.5), ("permittivity", 2.0), ("conductivity", 2.0)):
            k_aw = th.mismatched_wavenumber(
                single_scene.background, single_scene.omega, kind, c
            )
            ratio = k_bw / k_aw
            assert abs(abs(ratio) - ratio.real) <= 0.005 * abs(ratio)


class TestCompareMaps:
    def test_self_comparison(self, single_scene):
        grid = mu.grid_for_roi(0.085, 64)
        waves = _waves(single_scene)
        theo_norm = th.closed_form_norm_map(grid, single_scene.array, *waves)
        image = mu.ImageMap(grid, theo_norm, waves[1])
        cmp = th.compare_maps(image, single_scene.array, *waves)
        assert list(cmp) == ["rms", "max_abs", "argmin_distance_cells", "pearson"]
        assert cmp["rms"] == 0.0
        assert cmp["max_abs"] == 0.0
        assert cmp["argmin_distance_cells"] == 0.0
        assert cmp["pearson"] == pytest.approx(1.0, abs=1e-12)

    def test_far_field_plane_wave_agreement(self, single_scene):
        # proof-matched setting: far-field data, plane-wave steering, one
        # retained direction
        grid = mu.grid_for_roi(0.085, 128)
        k_bw = single_scene.background_wavenumber()
        mat = fw.scattering_matrix(single_scene, k_bw, fw.ASYMPTOTIC)
        image = image_from_data(
            mat, k_bw, single_scene.array, grid, variant=mu.PLANE_WAVE, signal_dim=1
        )
        cmp = th.compare_maps(image, single_scene.array, *_waves(single_scene))
        assert cmp["rms"] <= 0.05
        assert cmp["argmin_distance_cells"] <= 1.0

    def test_full_data_exact_field_agreement(self, single_scene):
        grid = mu.grid_for_roi(0.085, 128)
        k_bw = single_scene.background_wavenumber()
        mat = fw.scattering_matrix(single_scene, k_bw, fw.FULL_HANKEL)
        image = image_from_data(
            mat, k_bw, single_scene.array, grid, variant=mu.EXACT_FIELD, signal_dim=1
        )
        cmp = th.compare_maps(image, single_scene.array, *_waves(single_scene))
        assert cmp["rms"] <= 0.15

    @pytest.mark.parametrize("block", [None, 1000], ids=["one-block", "blocks"])
    def test_pearson_matches_corrcoef(self, single_scene, monkeypatch, block):
        # the centred sums, over one block or several, against np.corrcoef
        if block:
            monkeypatch.setattr(th, "_READ_ROWS", block)
        grid = mu.grid_for_roi(0.085, 64)
        k_bw = single_scene.background_wavenumber()
        mat = fw.scattering_matrix(single_scene, k_bw, fw.FULL_HANKEL)
        image = image_from_data(mat, k_bw, single_scene.array, grid, signal_dim=1)
        waves = _waves(single_scene, "permeability", 0.5)
        theo = th.closed_form_norm_map(grid, single_scene.array, *waves)
        for emp in (image.norms, 1.0 - theo):
            cmp = th.compare_maps(mu.ImageMap(grid, emp, waves[1]), single_scene.array, *waves)
            want = np.corrcoef(emp, theo)[0, 1]
            assert abs(cmp["pearson"] - want) <= 1e-12

    def test_memory_at_512(self, single_scene):
        # tracemalloc peak of one comparison at 512^2 (206k cells), the closed
        # form included: 4.7 MB with both maps' norms in mask order as they
        # are and the Pearson sums taken blockwise, 4.8 MB while the map's
        # norms were gathered from a raster, 5.1 MB while the closed form's
        # also went into one, 7.9 MB while np.corrcoef copied both vectors
        grid = mu.grid_for_roi(0.085, 512)
        waves = _waves(single_scene)
        theo_norm = th.closed_form_norm_map(grid, single_scene.array, *waves)
        image = mu.ImageMap(grid, theo_norm, waves[1])
        tracemalloc.start()
        try:
            th.compare_maps(image, single_scene.array, *waves)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20

    def test_reciprocal_map_rejected(self, single_scene):
        # the clipped reciprocal map taken as norms, as `read_map_csv` reads
        # a map-*.csv, fails fast
        grid = mu.grid_for_roi(0.085, 64)
        k_bw = single_scene.background_wavenumber()
        mat = fw.scattering_matrix(single_scene, k_bw)
        image = image_from_data(mat, k_bw, single_scene.array, grid)
        stripped = mu.ImageMap(grid, image.values, image.k_aw)
        with pytest.raises(DomainError):
            th.compare_maps(stripped, single_scene.array, *_waves(single_scene))


class TestCIdentity:
    def _value(self, count):
        scene = make_scene(1, count=count)
        return th.c_identity_check(scene, scene.background_wavenumber())

    def test_reference_values(self):
        # Recomputed for the reference lossy background: the modulus spread
        # e^{-2 Im(k) theta.r*} inflates tau_1, so the identity holds to
        # ~10% at N=8 and ~11.5% at N=16 (not exact).
        assert self._value(8) == pytest.approx(0.9007, abs=0.002)
        assert self._value(16) == pytest.approx(0.8855, abs=0.002)

    @pytest.mark.parametrize("count", [8, 16, 64, 256])
    def test_matches_svd_form(self, count):
        # tau_1 from LAPACK's SVD of the far-field data matrix, as the value
        # was computed before the secular equation
        scene = make_scene(1, count=count)
        k_bw = scene.background_wavenumber()
        expected = c_identity_svd(scene, k_bw)
        assert self._value(count) == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_matches_secular_normalization(self):
        # tau_1 = |coef| lambda_1 with lambda_1 the root of
        # sum_n w_n^2 / (lambda + w_n^2) = 1, w_n = e^{-Im(k) theta_n . r*},
        # so the stated value is ((N-1)/lambda_1)^2; this is where the pinned
        # 0.9007 and 0.8855 of test_reference_values come from.
        base = make_scene(1)
        k = base.background_wavenumber()
        clear = replace(base.background, conductivity=0.0)
        k_clear = sc.wavenumber(clear, base.omega)
        for count in (8, 16, 64, 256):
            angles = uniform_angles(count)
            lam1 = far_field_normalization(angles, D1_CENTER, k)
            expected = ((count - 1) / lam1) ** 2
            assert self._value(count) == pytest.approx(expected, rel=1e-14, abs=0.0)
            assert far_field_normalization(angles, D1_CENTER, k_clear) == count - 1
            assert far_field_normalization(angles, (0.0, 0.0), k) == count - 1
            scene = make_scene(1, count=count)
            lossless = replace(scene, background=clear)
            assert th.c_identity_check(lossless, k_clear) == pytest.approx(1.0, abs=1e-15)

    def test_origin_anomaly_is_exact(self):
        base = make_scene(1)
        scene = sc.Scene(
            background=base.background,
            roi_radius=base.roi_radius,
            array=base.array,
            anomalies=(sc.Anomaly((0.0, 0.0), 0.01, base.anomalies[0].medium),),
            frequency=base.frequency,
        )
        k_bw = scene.background_wavenumber()
        assert th.c_identity_check(scene, k_bw) == pytest.approx(1.0, abs=1e-15)
        assert c_identity_svd(scene, k_bw) == pytest.approx(1.0, abs=1e-10)

    def test_scale_invariance_in_anomaly_radius(self):
        # the anomaly's radius scales coef and tau_1 alike, so the SVD form
        # does not see it, and the secular equation has no radius in it
        base = make_scene(1)
        k_bw = base.background_wavenumber()
        expected = th.c_identity_check(base, k_bw)
        for alpha in (0.01, 0.02):
            scene = sc.Scene(
                background=base.background,
                roi_radius=base.roi_radius,
                array=base.array,
                anomalies=(sc.Anomaly((0.01, 0.03), alpha, base.anomalies[0].medium),),
                frequency=base.frequency,
            )
            assert th.c_identity_check(scene, k_bw) == expected
            assert c_identity_svd(scene, k_bw) == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_errors(self, double_scene):
        with pytest.raises(DomainError):
            th.c_identity_check(double_scene, double_scene.background_wavenumber())
