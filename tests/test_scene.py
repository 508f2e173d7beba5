import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwmusic import scene as sc
from mwmusic.errors import ConfigurationError, DomainError

from conftest import EPS0, MU_B, make_background, make_d1, make_scene, uniform_angles
from oracles import far_field_grid_fraction

OMEGA = 2 * math.pi * 1.0e9

# frozen from direct high-precision evaluation of omega*sqrt(mu(eps + i sigma/omega))
K_BW_REFERENCE = 94.11643925686902 + 8.391694366559148j
# frozen contrast of the reference anomaly: 1.75 + 1.0/(omega eps_b) i
D1_CONTRAST = 1.75 + 0.8987742437988216j


class TestWavenumber:
    def test_reference_background(self, background):
        k = sc.wavenumber(background, OMEGA)
        assert k == pytest.approx(K_BW_REFERENCE, rel=1e-12)

    def test_square_identity(self, background):
        k = sc.wavenumber(background, OMEGA)
        expected = OMEGA**2 * MU_B * (background.permittivity + 1j * background.conductivity / OMEGA)
        assert k**2 == pytest.approx(expected, rel=1e-12)

    def test_lossless_is_real(self):
        med = sc.Medium(permittivity=20 * EPS0, conductivity=0.0, permeability=MU_B)
        k = sc.wavenumber(med, OMEGA)
        assert k.imag == 0.0
        assert k.real == pytest.approx(OMEGA * math.sqrt(MU_B * med.permittivity), rel=1e-14)

    def test_permeability_scaling_doubles_k(self):
        med1 = sc.Medium(permittivity=20 * EPS0, conductivity=0.0, permeability=MU_B)
        med4 = sc.Medium(permittivity=20 * EPS0, conductivity=0.0, permeability=4 * MU_B)
        k1 = sc.wavenumber(med1, OMEGA)
        k4 = sc.wavenumber(med4, OMEGA)
        assert k4 == 2 * k1

    @settings(max_examples=200, deadline=None)
    @given(
        eps_rel=st.floats(0.5, 100.0),
        # sub-denormal conductivities underflow in sigma/omega; stay physical
        sigma=st.one_of(st.just(0.0), st.floats(1e-9, 5.0)),
        mu_scale=st.floats(0.1, 10.0),
        freq_ghz=st.floats(0.2, 5.0),
    )
    def test_branch_and_square_properties(self, eps_rel, sigma, mu_scale, freq_ghz):
        med = sc.Medium(eps_rel * EPS0, sigma, mu_scale * MU_B)
        omega = 2 * math.pi * freq_ghz * 1e9
        k = sc.wavenumber(med, omega)
        assert k.real > 0
        assert k.imag >= 0
        assert (k.imag == 0) == (sigma == 0)
        expected = omega**2 * med.permeability * (med.permittivity + 1j * sigma / omega)
        assert k**2 == pytest.approx(expected, rel=1e-12)

    def test_random_media_square_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            med = sc.Medium(
                permittivity=rng.uniform(1, 80) * EPS0,
                conductivity=rng.uniform(0, 3),
                permeability=rng.uniform(0.2, 5) * MU_B,
            )
            omega = 2 * math.pi * rng.uniform(0.1, 10) * 1e9
            k = sc.wavenumber(med, omega)
            expected = omega**2 * med.permeability * (med.permittivity + 1j * med.conductivity / omega)
            assert abs(k**2 - expected) <= 1e-12 * abs(expected)

    def test_domain_errors(self, background):
        with pytest.raises(DomainError):
            sc.wavenumber(background, 0.0)
        with pytest.raises(DomainError):
            sc.wavenumber(background, float("nan"))
        with pytest.raises(DomainError):
            sc.Medium(permittivity=float("inf"), conductivity=0.0)
        with pytest.raises(DomainError):
            sc.Medium(permittivity=1e-11, conductivity=-0.1)
        with pytest.raises(DomainError):
            sc.Medium(permittivity=1e-11, conductivity=0.0, permeability=0.0)


class TestUniformCircularArray:
    def test_reference_sixteenth_antenna(self):
        arr = sc.uniform_circular_array(16, 0.09)
        assert arr.positions[-1] == pytest.approx([0.09, 0.0], abs=1e-16)

    def test_quarter_turns(self):
        arr = sc.uniform_circular_array(4, 1.0)
        expected = [(0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (1.0, 0.0)]
        assert np.allclose(arr.positions, expected, atol=1e-15)

    @pytest.mark.parametrize("count,radius", [(3, 0.5), (16, 0.09), (64, 2.0), (7, 1.3)])
    def test_centroid_and_radius(self, count, radius):
        arr = sc.uniform_circular_array(count, radius)
        assert np.all(np.abs(np.hypot(*arr.positions.T) - radius) <= 1e-15 * radius)
        assert np.linalg.norm(arr.positions.sum(axis=0)) <= 1e-12 * radius
        assert arr.count == count
        assert np.unique(np.arctan2(arr.positions[:, 1], arr.positions[:, 0])).size == count

    def test_too_few_antennas(self):
        with pytest.raises(ConfigurationError):
            sc.uniform_circular_array(2, 1.0)

    def test_positions_read_only(self):
        arr = sc.uniform_circular_array(8, 1.0)
        with pytest.raises(ValueError):
            arr.positions[0, 0] = 5.0


class TestAntennaArrayChecks:
    """The package computes with the positions alone; no two antennas may
    share one."""

    @staticmethod
    def _ring(angles, radius=1.0):
        angles = np.asarray(angles, dtype=float)
        positions = radius * np.column_stack([np.cos(angles), np.sin(angles)])
        return sc.AntennaArray(radius=radius, positions=positions)

    def test_uniform_ring_accepted(self):
        assert self._ring(uniform_angles(8)) == sc.uniform_circular_array(8, 1.0)

    @pytest.mark.parametrize("gap,accepted", [(1e-10, False), (1.9e-9, False), (2.1e-9, True)])
    def test_nearest_pair_across_angle_zero(self, gap, accepted):
        # the last and the first of the sorted angles are neighbours too;
        # antennas within 2e-9 R could both match one partner under a symmetry
        angles = [gap / 2, 2.0, 4.0, 2 * np.pi - gap / 2]
        if accepted:
            self._ring(angles)
        else:
            with pytest.raises(ConfigurationError, match="R apart"):
                self._ring(angles)

    @pytest.mark.parametrize("shape", [(2, 2), (4,), (3, 3)])
    def test_positions_not_n_by_2_rejected(self, shape):
        with pytest.raises(ConfigurationError, match="shape"):
            sc.AntennaArray(radius=1.0, positions=np.ones(shape))

    def test_coincident_antennas_rejected(self):
        # antenna 1 moved onto antenna 0
        ring = sc.uniform_circular_array(8, 1.0)
        positions = ring.positions.copy()
        positions[1] = positions[0]
        with pytest.raises(ConfigurationError, match="R apart"):
            sc.AntennaArray(radius=1.0, positions=positions)


class TestContrast:
    def test_null_contrast(self, background):
        an = sc.Anomaly(center=(0.0, 0.0), radius=0.01, medium=background)
        assert sc.contrast(an, background, OMEGA) == 0.0

    def test_reference_anomaly(self, background):
        assert sc.contrast(make_d1(), background, OMEGA) == pytest.approx(D1_CONTRAST, rel=1e-12)

    def test_linearity_in_permittivity_difference(self, background):
        eb = background.permittivity
        an1 = sc.Anomaly((0, 0), 0.01, sc.Medium(eb + 10 * EPS0, background.conductivity))
        an2 = sc.Anomaly((0, 0), 0.01, sc.Medium(eb + 20 * EPS0, background.conductivity))
        c1 = sc.contrast(an1, background, OMEGA)
        c2 = sc.contrast(an2, background, OMEGA)
        assert c2.real == pytest.approx(2 * c1.real, rel=1e-14, abs=0)
        assert c2.imag == c1.imag == 0.0

    @settings(max_examples=100, deadline=None)
    @given(de=st.floats(-0.9, 4.0), ds=st.floats(-0.19, 2.0))
    def test_additive_decomposition(self, de, ds):
        bg = make_background()
        eb, sb = bg.permittivity, bg.conductivity
        both = sc.Anomaly((0, 0), 0.01, sc.Medium(eb * (1 + de), sb + ds))
        only_e = sc.Anomaly((0, 0), 0.01, sc.Medium(eb * (1 + de), sb))
        only_s = sc.Anomaly((0, 0), 0.01, sc.Medium(eb, sb + ds))
        total = sc.contrast(both, bg, OMEGA)
        parts = sc.contrast(only_e, bg, OMEGA) + sc.contrast(only_s, bg, OMEGA)
        assert total == parts


class TestSceneValidation:
    def test_reference_scene_all_pass(self, single_scene):
        k_aw = single_scene.background_wavenumber()
        diags = sc.validate_scene(single_scene, k_aw)
        assert [d["condition"] for d in diags] == ["background_loss", "anomaly_size", "far_field"]
        assert all(d["status"] == "pass" for d in diags)

    def test_loss_condition_warns(self):
        bg = sc.Medium(permittivity=20 * EPS0, conductivity=OMEGA * 20 * EPS0)
        scn = sc.Scene(
            background=bg,
            roi_radius=0.085,
            array=sc.uniform_circular_array(16, 0.09),
            anomalies=(make_d1(),),
            frequency=1.0e9,
        )
        diags = sc.validate_scene(scn, scn.background_wavenumber())
        assert diags[0]["status"] == "warn"

    def test_size_condition_warns(self):
        # wavelength is ~0.067 m; a near-ROI-sized anomaly breaks the bound
        big = sc.Anomaly(
            center=(0.0, 0.0),
            radius=0.085 / 1.01 - 1e-6,
            medium=sc.Medium(55 * EPS0, 1.2),
        )
        scn = sc.Scene(
            background=make_background(),
            roi_radius=0.085,
            array=sc.uniform_circular_array(16, 0.09),
            anomalies=(big,),
            frequency=1.0e9,
        )
        diags = sc.validate_scene(scn, scn.background_wavenumber())
        assert diags[1]["status"] == "warn"
        assert diags[1]["threshold"] == pytest.approx(0.0668, abs=2e-4)

    def test_far_field_warns_for_rim_anomaly(self):
        rim = sc.Anomaly(center=(0.08, 0.0), radius=0.004, medium=sc.Medium(55 * EPS0, 1.2))
        scn = sc.Scene(
            background=make_background(),
            roi_radius=0.085,
            array=sc.uniform_circular_array(16, 0.09),
            anomalies=(rim,),
            frequency=1.0e9,
        )
        diags = sc.validate_scene(scn, scn.background_wavenumber())
        assert diags[2]["status"] == "warn"

    def test_diagnostics_never_raise(self, double_scene):
        k_aw = sc.wavenumber(sc.Medium(2000 * EPS0, 50.0), OMEGA)
        diags = sc.validate_scene(double_scene, k_aw)
        assert len(diags) == 3

    @pytest.mark.parametrize("count", [7, 16, 64])
    def test_far_field_fraction_matches_direct(self, count):
        # margins inside and beyond the distance table, and equal to its
        # least, middle and largest entries, where >= decides a point exactly
        scn = make_scene(2, count=count)
        table = np.sort(scn.interior_antenna_distances)
        entries = table[[0, len(table) // 2, -1]].tolist()
        for margin in [0.0, *entries, *np.linspace(0.001, 0.1, 9).tolist(), 0.2]:
            assert sc._far_field_grid_fraction(scn, margin) == far_field_grid_fraction(scn, margin)

    def test_far_field_detail_matches_direct(self, double_scene):
        bg = double_scene.background
        for ratio in (0.01, 0.1, 0.2, 1.0, 2.0, 10.0, 100.0):
            k_aw = sc.wavenumber(
                sc.Medium(bg.permittivity, bg.conductivity, ratio * bg.permeability), OMEGA
            )
            diag = sc.validate_scene(double_scene, k_aw)[2]
            percent = 100.0 * far_field_grid_fraction(double_scene, diag["threshold"])
            want = f"{percent:.0f}% of interior grid points satisfy the margin"
            assert diag["detail"].endswith(want)

    def test_empty_scene_diagnostics_pass(self):
        scn = sc.Scene(
            background=make_background(),
            roi_radius=0.085,
            array=sc.uniform_circular_array(16, 0.09),
            anomalies=(),
            frequency=1.0e9,
        )
        diags = sc.validate_scene(scn, scn.background_wavenumber())
        assert all(d["status"] == "pass" for d in diags)
        # no anomaly is nearest to the array: strict JSON has no Infinity
        assert diags[2]["measured"] is None

    def test_lossless_loss_ratio_is_none(self):
        bg = sc.Medium(permittivity=20 * EPS0, conductivity=0.0)
        scn = sc.Scene(
            background=bg,
            roi_radius=0.085,
            array=sc.uniform_circular_array(16, 0.09),
            anomalies=(make_d1(),),
            frequency=1.0e9,
        )
        loss = sc.validate_scene(scn, scn.background_wavenumber())[0]
        assert loss["status"] == "pass"
        assert loss["measured"] is None and loss["threshold"] == sc.LOSS_FACTOR


class TestSceneStructure:
    def test_antennas_must_be_outside(self):
        with pytest.raises(ConfigurationError):
            sc.Scene(
                background=make_background(),
                roi_radius=0.1,
                array=sc.uniform_circular_array(16, 0.09),
                anomalies=(),
                frequency=1e9,
            )

    def test_anomaly_must_fit_inside(self):
        bad = sc.Anomaly(center=(0.08, 0.0), radius=0.01, medium=make_background())
        with pytest.raises(ConfigurationError):
            make_scene(0).__class__(
                background=make_background(),
                roi_radius=0.085,
                array=sc.uniform_circular_array(16, 0.09),
                anomalies=(bad,),
                frequency=1e9,
            )

    def test_overlapping_anomalies_rejected(self):
        a = sc.Anomaly(center=(0.0, 0.0), radius=0.01, medium=make_background())
        b = sc.Anomaly(center=(0.015, 0.0), radius=0.01, medium=make_background())
        with pytest.raises(ConfigurationError):
            sc.Scene(
                background=make_background(),
                roi_radius=0.085,
                array=sc.uniform_circular_array(16, 0.09),
                anomalies=(a, b),
                frequency=1e9,
            )

    @pytest.mark.parametrize("frequency", [1e160, 1e300])
    def test_overflowing_wavenumber_rejected(self, frequency):
        # omega^2 overflows: the scene is rejected before any k is used
        with pytest.raises(ConfigurationError, match="wavenumber .* is not finite"):
            sc.Scene(
                background=make_background(),
                roi_radius=0.085,
                array=sc.uniform_circular_array(16, 0.09),
                anomalies=(),
                frequency=frequency,
            )

    def test_omega(self, single_scene):
        assert single_scene.omega == pytest.approx(2 * math.pi * 1e9, rel=0)
