import cmath
import math

import numpy as np
import pytest

from mwmusic import forward as fw
from mwmusic import scene as sc
from mwmusic.errors import DomainError, SingularityError
from mwmusic.specfun import hankel2_0, ray_interpolant

from conftest import MU_B, make_background
from oracles import hankel2_0_oracle, onesided_jacobi_singular_values, table_ray

OMEGA = 2 * math.pi * 1.0e9


def _k_bw():
    return sc.wavenumber(make_background(), OMEGA)


class TestIncidentField:
    # each table takes an interpolant over its own distance range, as the
    # imaging step passes one over the whole grid's
    def test_source_receiver_symmetry(self):
        k = _k_bw()
        a, b = np.array([[0.09, 0.0]]), np.array([[0.01, 0.03]])
        ray = table_ray(k, fw._distances(a, b))
        assert fw.incident_field_matrix(ray, a, b) == fw.incident_field_matrix(ray, b, a)

    def test_reference_distance_against_oracle(self):
        # real k = 93.74 at the array radius 0.09 -> argument 8.4366
        ray = ray_interpolant(93.74 + 0.0j, 0.09, 0.09)
        val = fw.incident_field_matrix(ray, np.array([[0.09, 0.0]]), np.array([[0.0, 0.0]]))[0, 0]
        ref = 0.25j * hankel2_0_oracle(complex(93.74 * 0.09))
        assert abs(val - ref) <= 1e-9 * abs(ref)

    def test_depends_only_on_distance(self):
        k = _k_bw()
        pts, src = np.array([[0.05, 0.0], [0.03, 0.04]]), np.zeros((1, 2))
        v = fw.incident_field_matrix(table_ray(k, fw._distances(pts, src)), pts, src)
        assert abs(v[0, 0]) == pytest.approx(abs(v[1, 0]), rel=1e-13, abs=0)

    def test_coincident_points_rejected(self):
        ray = ray_interpolant(_k_bw(), 0.01, 0.1)
        with pytest.raises(SingularityError):
            fw.incident_field_matrix(ray, np.array([[0.01, 0.01]]), np.array([[0.01, 0.01]]))

    def test_matrix_matches_scalar(self):
        # the interpolated steering table against one scalar hankel2_0 call
        # per entry, within the ray interpolant's pinned tolerance
        # (test_specfun's _RAY_VS_HANKEL_REL; measured worst 5.3e-12 here)
        k = _k_bw()
        pts = np.array([[0.0, 0.0], [0.01, 0.03], [-0.02, 0.04]])
        srcs = sc.uniform_circular_array(5, 0.09).positions
        mat = fw.incident_field_matrix(table_ray(k, fw._distances(pts, srcs)), pts, srcs)
        for i, p in enumerate(pts):
            for j, s in enumerate(srcs):
                ref = 0.25j * hankel2_0(k * math.dist(p, s))
                assert mat[i, j] == pytest.approx(ref, rel=4e-10, abs=0)


class TestAsymptoticIncidentField:
    def test_value_at_origin(self):
        k = _k_bw()
        a = np.array([[0.09, 0.0]])
        val = fw.asymptotic_field_matrix(k, np.zeros((1, 2)), a)[0, 0]
        expected = (-1 + 1j) * cmath.exp(-1j * k * 0.09) / (
            4.0 * cmath.sqrt(k * math.pi * 0.09)
        )
        assert val == pytest.approx(expected, rel=1e-14, abs=0)

    def test_plane_wave_phase_shift(self):
        # moving by delta along the antenna direction multiplies by e^{ik delta}
        k = _k_bw()
        a = np.array([0.0, 0.09])
        theta = a / 0.09
        r = np.array([0.01, -0.02])
        delta = 0.007
        v1, v2 = fw.asymptotic_field_matrix(k, np.array([r, r + delta * theta]), a[None, :])[:, 0]
        assert v2 / v1 == pytest.approx(cmath.exp(1j * k * delta), rel=1e-12)

    def test_deviation_sweep_recorded_bound(self, single_scene):
        # Far-field reduction vs exact field over 100 points with |r| <= half
        # the ROI radius. The ring is only ~1.35 wavelengths across, so the
        # deviation is large; calibrated sweep (seed 0) measured max 0.861,
        # mean 0.296. The recorded bound guards against regressions.
        k = single_scene.background_wavenumber()
        rng = np.random.default_rng(0)
        rad = 0.0425 * np.sqrt(rng.uniform(0, 1, 100))
        ang = rng.uniform(0, 2 * np.pi, 100)
        pts = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
        positions = single_scene.array.positions
        ray = table_ray(k, fw._distances(pts, positions))
        exact = fw.incident_field_matrix(ray, pts, positions)
        rels = np.abs(fw.asymptotic_field_matrix(k, pts, positions) - exact) / np.abs(exact)
        assert rels.max() <= 0.90
        assert np.mean(rels) <= 0.35


class TestBornSparam:
    # single entries of the data matrix
    def test_zero_contrast_gives_zero(self):
        bg = make_background()
        neutral = sc.Anomaly((0.01, 0.03), 0.01, bg)
        scn = sc.Scene(
            background=bg,
            roi_radius=0.085,
            array=sc.uniform_circular_array(16, 0.09),
            anomalies=(neutral,),
            frequency=1e9,
        )
        assert fw.scattering_matrix(scn, scn.background_wavenumber()).entries[0, 5] == 0

    def test_transmit_receive_swap(self, single_scene):
        entries = fw.scattering_matrix(single_scene, single_scene.background_wavenumber()).entries
        assert entries[3, 7] == entries[7, 3]

    def test_against_independent_formula_path(self, single_scene):
        # separately composed: series-oracle Hankel values into the prefactor
        k = single_scene.background_wavenumber()
        an = single_scene.anomalies[0]
        omega = single_scene.omega
        o_val = sc.contrast(an, single_scene.background, omega)
        pref = 1j * an.radius**2 * k**2 * math.pi / (4 * omega * MU_B)
        us = []
        for idx in (1, 2):
            d = math.dist(single_scene.array.positions[idx], an.center)
            us.append(0.25j * hankel2_0_oracle(k * d))
        ref = pref * o_val * us[0] * us[1]
        got = fw.scattering_matrix(single_scene, k).entries[1, 2]
        assert abs(got - ref) <= 1e-12 * abs(ref)

    def test_multi_anomaly_superposition(self, double_scene, single_scene):
        k = double_scene.background_wavenumber()
        only_d2 = sc.Scene(
            background=double_scene.background,
            roi_radius=double_scene.roi_radius,
            array=double_scene.array,
            anomalies=double_scene.anomalies[1:],
            frequency=double_scene.frequency,
        )
        total = fw.scattering_matrix(double_scene, k).entries[0, 4]
        parts = (
            fw.scattering_matrix(single_scene, k).entries[0, 4]
            + fw.scattering_matrix(only_d2, k).entries[0, 4]
        )
        assert total == pytest.approx(parts, rel=1e-14, abs=0)

    def test_diagonal_rejected(self, single_scene):
        # monostatic entries are not data: a nonzero diagonal is refused
        mat = fw.scattering_matrix(single_scene, single_scene.background_wavenumber())
        entries = mat.entries.copy()
        entries[4, 4] = 1.0
        with pytest.raises(DomainError):
            fw.ScatteringMatrix(n=mat.n, entries=entries, mode=mat.mode)


class TestScatteringMatrix:
    def test_no_anomalies_zero_matrix(self):
        scn = sc.Scene(
            background=make_background(),
            roi_radius=0.085,
            array=sc.uniform_circular_array(16, 0.09),
            anomalies=(),
            frequency=1e9,
        )
        mat = fw.scattering_matrix(scn, scn.background_wavenumber())
        assert np.all(mat.entries == 0)

    def test_exact_symmetry_and_zero_diagonal(self, double_scene):
        k = double_scene.background_wavenumber()
        for mode in fw.MODES:
            mat = fw.scattering_matrix(double_scene, k, mode)
            assert np.array_equal(mat.entries, mat.entries.T)
            assert np.all(np.diagonal(mat.entries) == 0)
            assert mat.mode == mode

    def test_rank_one_before_diagonal_removal(self, single_scene):
        # the far-field model without the zeroed diagonal is an exact outer
        # product, hence rank 1
        k = single_scene.background_wavenumber()
        an = single_scene.anomalies[0]
        omega = single_scene.omega
        pref = (
            1j * an.radius**2 * k**2 * math.pi / (4 * omega * MU_B)
        ) * sc.contrast(an, single_scene.background, omega)
        u = fw.asymptotic_field_matrix(k, np.array([an.center]), single_scene.array.positions)[0]
        full = pref * np.outer(u, u)
        svals = onesided_jacobi_singular_values(full)
        assert svals[1] <= 1e-10 * svals[0]

    def test_modes_agree_within_recorded_bound(self, single_scene):
        # Calibrated against the deviation sweep: entrywise relative gap
        # between full_hankel and asymptotic data measured max 0.929 for the
        # reference configuration (Fresnel-zone array). Recorded bound 1.0.
        k = single_scene.background_wavenumber()
        full = fw.scattering_matrix(single_scene, k, fw.FULL_HANKEL).entries
        asym = fw.scattering_matrix(single_scene, k, fw.ASYMPTOTIC).entries
        off = ~np.eye(16, dtype=bool)
        rel = np.abs(asym[off] - full[off]) / np.abs(full[off])
        assert rel.max() <= 1.0

    def test_contrast_scaling_linearity(self):
        # doubling both material differences doubles every entry
        bg = sc.Medium(2e-11, 0.25, MU_B)
        base = sc.Anomaly((0.01, 0.03), 0.01, sc.Medium(4e-11, 0.5, MU_B))
        scaled = sc.Anomaly((0.01, 0.03), 0.01, sc.Medium(6e-11, 0.75, MU_B))
        common = dict(
            roi_radius=0.085,
            array=sc.uniform_circular_array(16, 0.09),
            frequency=1e9,
        )
        s1 = sc.Scene(background=bg, anomalies=(base,), **common)
        s2 = sc.Scene(background=bg, anomalies=(scaled,), **common)
        k = s1.background_wavenumber()
        k1 = fw.scattering_matrix(s1, k).entries
        k2 = fw.scattering_matrix(s2, k).entries
        off = ~np.eye(16, dtype=bool)
        assert np.allclose(k2[off], 2 * k1[off], rtol=1e-13, atol=0)

    def test_complex_contrast_rotation(self):
        # rotating the contrast by i (swap real/imag parts appropriately)
        # rotates every entry by i
        bg = sc.Medium(2e-11, 0.25, MU_B)
        omega = 2 * math.pi * 1e9
        base_med = sc.Medium(4e-11, 0.3125, MU_B)
        o_base = sc.contrast(sc.Anomaly((0, 0), 0.01, base_med), bg, omega)
        rotated = 1j * o_base
        rot_med = sc.Medium(
            bg.permittivity * (1 + rotated.real),
            bg.conductivity + omega * bg.permittivity * rotated.imag,
            MU_B,
        )
        common = dict(
            roi_radius=0.085,
            array=sc.uniform_circular_array(16, 0.09),
            frequency=1e9,
        )
        s1 = sc.Scene(background=bg, anomalies=(sc.Anomaly((0.01, 0.03), 0.01, base_med),), **common)
        s2 = sc.Scene(background=bg, anomalies=(sc.Anomaly((0.01, 0.03), 0.01, rot_med),), **common)
        k = s1.background_wavenumber()
        k1 = fw.scattering_matrix(s1, k).entries
        k2 = fw.scattering_matrix(s2, k).entries
        off = ~np.eye(16, dtype=bool)
        assert np.allclose(k2[off], 1j * k1[off], rtol=1e-12, atol=0)


class TestAddNoise:
    def test_noiseless_sentinel_returns_input(self, single_scene):
        k = single_scene.background_wavenumber()
        mat = fw.scattering_matrix(single_scene, k)
        assert fw.add_noise(mat, fw.NOISELESS, seed=5) is mat

    def test_deterministic_per_seed(self, single_scene):
        k = single_scene.background_wavenumber()
        mat = fw.scattering_matrix(single_scene, k)
        a = fw.add_noise(mat, 20.0, seed=11)
        b = fw.add_noise(mat, 20.0, seed=11)
        c = fw.add_noise(mat, 20.0, seed=12)
        assert np.array_equal(a.entries, b.entries)
        assert not np.array_equal(a.entries, c.entries)

    def test_noise_is_symmetric_with_zero_diagonal(self, single_scene):
        k = single_scene.background_wavenumber()
        mat = fw.scattering_matrix(single_scene, k)
        noisy = fw.add_noise(mat, 10.0, seed=3)
        assert np.array_equal(noisy.entries, noisy.entries.T)
        assert np.all(np.diagonal(noisy.entries) == 0)

    def test_empirical_snr(self, single_scene):
        k = single_scene.background_wavenumber()
        mat = fw.scattering_matrix(single_scene, k)
        off = ~np.eye(mat.n, dtype=bool)
        sig = np.mean(np.abs(mat.entries[off]) ** 2)
        noise_acc = 0.0
        for seed in range(100):
            noisy = fw.add_noise(mat, 20.0, seed=seed)
            noise_acc += np.mean(np.abs((noisy.entries - mat.entries)[off]) ** 2)
        measured_db = 10 * math.log10(sig / (noise_acc / 100))
        assert abs(measured_db - 20.0) <= 1.0

    def test_nan_rejected(self, single_scene):
        k = single_scene.background_wavenumber()
        mat = fw.scattering_matrix(single_scene, k)
        with pytest.raises(DomainError):
            fw.add_noise(mat, float("nan"), seed=0)

