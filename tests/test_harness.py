import codecs
import contextlib
import dataclasses
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mwmusic import cli, forward as fw, harness, music as mu, scene as sc, specfun
from mwmusic.errors import ConfigurationError, NumericalError

from conftest import EPS0


@pytest.fixture
def empty_config(tmp_path):
    path = tmp_path / "empty.ini"
    path.write_text("")
    return path


class TestLoadConfig:
    def test_empty_config_reference_defaults(self, empty_config):
        config = harness.load_config(empty_config)
        scene = config.scene
        assert scene.frequency == 1.0e9
        assert scene.roi_radius == 0.085
        assert scene.array.count == 16
        assert scene.array.radius == 0.09
        assert scene.background.permittivity == pytest.approx(20 * EPS0)
        assert scene.background.conductivity == 0.2
        assert len(scene.anomalies) == 1
        d1 = scene.anomalies[0]
        assert d1.center == (0.01, 0.03)
        assert d1.radius == 0.01
        assert d1.medium.permittivity == pytest.approx(55 * EPS0)
        assert d1.medium.conductivity == 1.2
        assert config.ratios == (1.0,)
        assert config.resolution == 128
        assert config.forward_mode == fw.FULL_HANKEL
        assert config.snr_db == math.inf

    def test_preset_ratio_lists(self, empty_config):
        mu_cfg = harness.load_config(empty_config, preset="fig-mu-single")
        assert mu_cfg.sweep_kind == "permeability"
        assert mu_cfg.ratios == (1.0, 2.0, 10.0, 0.5, 0.2, 0.1)
        assert len(mu_cfg.scene.anomalies) == 1
        sig_cfg = harness.load_config(empty_config, preset="fig-sigma-double")
        assert sig_cfg.sweep_kind == "conductivity"
        assert sig_cfg.ratios == (1.0, 2.0, 10.0, 20.0, 0.2, 0.1)
        assert len(sig_cfg.scene.anomalies) == 2
        assert sig_cfg.scene.anomalies[1].center == (-0.04, -0.02)

    def test_full_config_round_trip(self, tmp_path):
        path = tmp_path / "full.ini"
        path.write_text(
            """
[scene]
frequency_hz = 2e9
roi_radius_m = 0.05
background_rel_permittivity = 10
background_conductivity_s_per_m = 0.05

[array]
count = 12
radius_m = 0.06

[anomaly:left]
center_x_m = -0.01
center_y_m = 0.0
radius_m = 0.005
rel_permittivity = 30
conductivity_s_per_m = 0.5

[sweep]
kind = permittivity
ratios = 0.5, 1, 2

[imaging]
resolution = 64
forward_mode = asymptotic
test_vector = plane_wave
signal_dim = 1

[noise]
snr_db = 25
seed = 7

[output]
directory = artifacts
"""
        )
        config = harness.load_config(path)
        assert config.scene.frequency == 2e9
        assert config.scene.array.count == 12
        assert config.sweep_kind == "permittivity"
        assert config.ratios == (0.5, 1.0, 2.0)
        assert config.forward_mode == fw.ASYMPTOTIC
        assert config.test_variant == mu.PLANE_WAVE
        assert config.signal_dim == 1
        assert config.snr_db == 25.0
        assert config.seed == 7
        assert config.out_dir.name == "artifacts"

    def test_negative_ratio_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[sweep]\nratios = 1, -2\n")
        with pytest.raises(ConfigurationError):
            harness.load_config(path)

    def test_unknown_preset(self, empty_config):
        with pytest.raises(ConfigurationError):
            harness.load_config(empty_config, preset="fig-nothing")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            harness.load_config(tmp_path / "absent.ini")

    def test_overrides(self, empty_config, tmp_path):
        config = harness.load_config(
            empty_config,
            resolution=32,
            forward_mode=fw.ASYMPTOTIC,
            out_dir=tmp_path / "o",
            seed=3,
        )
        assert config.resolution == 32
        assert config.forward_mode == fw.ASYMPTOTIC
        assert config.seed == 3

    def test_overrides_of_the_sweep_and_scene(self, empty_config):
        scene = harness.load_config(empty_config, preset="fig-mu-double").scene
        config = harness.load_config(
            empty_config, ratios=(0.5, 3.0), sweep_kind="conductivity", scene=scene
        )
        assert config.ratios == (0.5, 3.0)
        assert config.sweep_kind == "conductivity"
        assert config.scene is scene
        # a name that is not a field
        with pytest.raises(ConfigurationError):
            harness.load_config(empty_config, ratio=(2.0,))

    def test_overrides_apply_after_the_preset(self, empty_config):
        config = harness.load_config(empty_config, preset="fig-sigma-double", ratios=(2.0,))
        assert config.ratios == (2.0,)
        assert config.sweep_kind == "conductivity"
        assert len(config.scene.anomalies) == 2


class TestRunExperiment:
    def test_single_ratio_record(self, empty_config, tmp_path):
        config = harness.load_config(empty_config, resolution=64, out_dir=tmp_path / "run")
        report = harness.run_experiment(config, log=lambda *_: None)
        assert len(report["records"]) == 1
        rec = report["records"][0]
        assert rec["ratio"] == 1.0
        # regression guard: the matched-background run localizes the anomaly
        assert rec["peak_error_cells"][0] <= 2.0
        assert rec["signal_dim"] == 1
        assert rec["c_identity"] is not None
        assert rec["closed_form"] is not None
        assert len(rec["diagnostics"]) == 3
        for name in ("map-permeability-1.csv", "norm-permeability-1.csv", "map-permeability-1.pgm"):
            assert (tmp_path / "run" / name).exists()
        payload = json.loads((tmp_path / "run" / "report.json").read_text())
        assert payload["report_version"] == 1
        assert len(payload["records"]) == 1
        assert "elapsed_s" not in json.dumps(payload)
        assert payload == report

    def test_every_ratio_once(self, empty_config, tmp_path):
        config = harness.load_config(
            empty_config, preset="fig-mu-single", resolution=32, out_dir=tmp_path / "sweep"
        )
        report = harness.run_experiment(config, log=lambda *_: None)
        assert tuple(r["ratio"] for r in report["records"]) == config.ratios
        # peaks track the predicted (shifted) location whenever that location
        # lies inside the imaged disk (ratio 0.1 predicts |r| = 0.1 m, outside)
        for rec in report["records"]:
            pred = rec["predicted_peaks"][0]
            if math.hypot(*pred) < 0.085 - 0.005:
                assert rec["peak_error_cells"][0] <= 2.0
            assert len(rec["diagnostics"]) == 3

    def test_deterministic_artifacts(self, empty_config, tmp_path):
        outs = []
        for name in ("a", "b"):
            config = harness.load_config(
                empty_config, resolution=48, out_dir=tmp_path / name, seed=5
            )
            harness.run_experiment(config, log=lambda *_: None)
            outs.append(tmp_path / name)
        for fname in ("map-permeability-1.csv", "norm-permeability-1.csv",
                      "map-permeability-1.pgm", "report.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_partial_artifacts_removed_on_failure(self, tmp_path, monkeypatch):
        # the second ratio's record fails after the first ratio has written
        # its files, which the failed sweep removes
        _fail_after_first_record(monkeypatch)
        path = tmp_path / "fail.ini"
        path.write_text("[sweep]\nkind = permeability\nratios = 1, 2\n")
        config = harness.load_config(path, resolution=32, out_dir=tmp_path / "broken")
        with pytest.raises(NumericalError, match="non-finite report value"):
            harness.run_experiment(config, log=lambda *_: None)
        leftover = [p.name for p in (tmp_path / "broken").glob("*") if p.suffix != ""]
        assert leftover == []

    # ratio 1e10 scales k_aw by 1e5, so the steering Hankel arguments leave
    # the supported range: the sweep fails in `prepare`, after the output
    # directory is made and before any map
    def test_failed_run_removes_directories_it_created(self, tmp_path):
        path = tmp_path / "fail.ini"
        path.write_text("[sweep]\nkind = permeability\nratios = 1, 1e10\n")
        config = harness.load_config(path, resolution=32, out_dir=tmp_path / "new" / "out")
        with pytest.raises(NumericalError):
            harness.run_experiment(config, log=lambda *_: None)
        assert not (tmp_path / "new").exists()

    def test_failed_run_keeps_existing_directory(self, tmp_path):
        path = tmp_path / "fail.ini"
        path.write_text("[sweep]\nkind = permeability\nratios = 1, 1e10\n")
        out = tmp_path / "existing"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
        config = harness.load_config(path, resolution=32, out_dir=out)
        with pytest.raises(NumericalError):
            harness.run_experiment(config, log=lambda *_: None)
        assert [p.name for p in out.iterdir()] == ["notes.txt"]

    def test_unusable_out_dir_fails_before_computing(self, empty_config, tmp_path, monkeypatch):
        # out_dir is created before the forward data are computed
        blocker = tmp_path / "file"
        blocker.write_text("kept\n")
        config = harness.load_config(empty_config, resolution=32, out_dir=blocker)

        def computed(*_args, **_kwargs):
            raise AssertionError("the forward data were computed")

        monkeypatch.setattr(fw, "scattering_matrix", computed)
        with pytest.raises(ConfigurationError, match="cannot create output directory"):
            harness.run_experiment(config, log=lambda *_: None)
        assert blocker.read_text() == "kept\n"

    def test_large_ratio_has_closed_form(self, tmp_path):
        # the direct-sum closed form has no truncation order to run out of
        path = tmp_path / "large.ini"
        path.write_text("[sweep]\nkind = permeability\nratios = 1, 300\n")
        config = harness.load_config(path, resolution=32, out_dir=tmp_path / "large")
        report = harness.run_experiment(config, log=lambda *_: None)
        assert [r["ratio"] for r in report["records"]] == [1.0, 300.0]
        for rec in report["records"]:
            assert rec["closed_form"] is not None
            assert all(math.isfinite(v) for v in rec["closed_form"].values())

    def test_lossless_background_report_is_strict_json(self, tmp_path):
        # sigma_b = 0 makes the loss diagnostic unbounded; the report must
        # still be strict JSON (no Infinity literals)
        path = tmp_path / "lossless.ini"
        path.write_text("[scene]\nbackground_conductivity_s_per_m = 0\n")
        config = harness.load_config(path, resolution=32, out_dir=tmp_path / "ll")
        harness.run_experiment(config, log=lambda *_: None)
        text = (tmp_path / "ll" / "report.json").read_text()
        assert "Infinity" not in text
        payload = json.loads(text)
        assert payload["records"][0]["diagnostics"][0]["measured"] is None

    def test_noise_is_seeded(self, tmp_path):
        path = tmp_path / "noisy.ini"
        path.write_text("[noise]\nsnr_db = 15\nseed = 9\n")
        cfg_a = harness.load_config(path, resolution=32, out_dir=tmp_path / "na")
        cfg_b = harness.load_config(path, resolution=32, out_dir=tmp_path / "nb")
        ra = harness.run_experiment(cfg_a, log=lambda *_: None)
        rb = harness.run_experiment(cfg_b, log=lambda *_: None)
        assert ra["records"][0]["singular_values"] == rb["records"][0]["singular_values"]

    def test_two_anomaly_sweep_reports_both(self, empty_config, tmp_path):
        config = harness.load_config(
            empty_config, preset="fig-eps-double", resolution=64, out_dir=tmp_path / "dbl"
        )
        config = harness.ExperimentConfig(
            scene=config.scene,
            resolution=config.resolution,
            sweep_kind=config.sweep_kind,
            ratios=(1.0,),
            forward_mode=config.forward_mode,
            test_variant=config.test_variant,
            out_dir=config.out_dir,
        )
        report = harness.run_experiment(config, log=lambda *_: None)
        rec = report["records"][0]
        assert len(rec["peaks"]) == 2
        assert len(rec["predicted_peaks"]) == 2
        assert max(rec["peak_error_cells"]) <= 2.0
        assert rec["closed_form"] is None
        assert rec["c_identity"] is None

    @pytest.mark.parametrize("preset,calls", [("fig-mu-single", 2), ("fig-mu-double", 1)])
    def test_decomposes_once_per_sweep(self, empty_config, tmp_path, monkeypatch, preset, calls):
        # one anomaly: the data matrix plus the far-field matrix of the C
        # identity; two anomalies: the data matrix only, however many ratios
        seen = []
        svd_leading = mu.svd_leading

        def counting(k_mat):
            seen.append(k_mat)
            return svd_leading(k_mat)

        monkeypatch.setattr(mu, "svd_leading", counting)
        config = harness.load_config(
            empty_config, preset=preset, resolution=32, out_dir=tmp_path / "once"
        )
        report = harness.run_experiment(config, log=lambda *_: None)
        assert len(report["records"]) == 6
        assert len(seen) == calls

    @pytest.mark.parametrize("variant,evaluations", [(mu.EXACT_FIELD, 1), (mu.PLANE_WAVE, 0)])
    def test_one_node_evaluation_per_sweep(
        self, empty_config, tmp_path, monkeypatch, variant, evaluations
    ):
        # the exact-field interpolants of the six ratios come from one
        # Hankel evaluation of their stacked nodes; far-field data makes no
        # other, and plane-wave steering none at all
        seen = []
        hankel = specfun._hankel2_0
        monkeypatch.setattr(specfun, "_hankel2_0", lambda z: seen.append(z.shape) or hankel(z))
        config = harness.load_config(
            empty_config, preset="fig-mu-single", resolution=32, out_dir=tmp_path / "nodes",
            forward_mode=fw.ASYMPTOTIC, test_variant=variant,
        )
        report = harness.run_experiment(config, log=lambda *_: None)
        assert len(report["records"]) == 6
        assert len(seen) == evaluations
        assert all(shape[0] == 6 for shape in seen)


    @pytest.mark.parametrize("variant,built", [(mu.EXACT_FIELD, 1), (mu.PLANE_WAVE, 0)])
    @pytest.mark.parametrize("preset", ["fig-mu-single", "fig-mu-double"])
    def test_one_plan_per_sweep(self, empty_config, tmp_path, monkeypatch, preset, variant, built):
        # every exact-field map of the six ratios shares the one plan its
        # steering evaluators are built over, with its distance range found
        # once; plane-wave maps and the closed form of the single anomaly
        # need no plan, so a plane-wave sweep builds none
        plans, found = [], []
        symmetry_plan, distance_range = mu.symmetry_plan, mu._distance_range

        def counting(grid, array):
            plans.append(symmetry_plan(grid, array))
            return plans[-1]

        monkeypatch.setattr(mu, "symmetry_plan", counting)
        monkeypatch.setattr(mu, "_distance_range", lambda *a: found.append(a) or distance_range(*a))
        config = harness.load_config(
            empty_config, preset=preset, resolution=32, out_dir=tmp_path / "plan",
            test_variant=variant,
        )
        report = harness.run_experiment(config, log=lambda *_: None)
        assert len(report["records"]) == 6
        assert len(plans) == built
        assert len(found) == built


def _fail_after_first_record(monkeypatch):
    """Give every record after the first a NaN predicted peak, so that the
    `analyse` of a sweep's second ratio fails (NumericalError) once the
    first ratio's map is imaged and its files are handed on."""
    predicted, calls = harness.th.predicted_peak, []

    def nan_after_first(k_bw, k_aw, center):
        calls.append(k_aw)
        return predicted(k_bw, k_aw, center) if len(calls) == 1 else (math.nan, math.nan)

    monkeypatch.setattr(harness.th, "predicted_peak", nan_after_first)


def _no_child_left():
    # every child of this process has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _cells(resolution):
    return int(mu.grid_for_roi(harness.DEFAULT_ROI_RADIUS, resolution).mask.sum())


def _assert_same_files(a, b, count):
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    assert len(names) == count
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="maps are written inline without os.fork")
class TestForkedWriter:
    # 80^2 has 5024 unmasked cells, above the fork threshold; 32^2 has 812
    ABOVE = 80

    def test_threshold_between_the_resolutions(self):
        assert _cells(32) < harness._FORK_MIN_CELLS <= _cells(self.ABOVE)

    @pytest.mark.parametrize("resolution,forks", [(32, 0), (ABOVE, 1)])
    def test_forked_and_inline_bytes_identical(
        self, empty_config, tmp_path, monkeypatch, resolution, forks
    ):
        # one writer for the whole sweep above the threshold, none below it
        pids = []
        fork = os.fork

        def counting():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting)
        config = harness.load_config(
            empty_config, preset="fig-mu-single", resolution=resolution, out_dir=tmp_path / "a"
        )
        harness.run_experiment(config, log=lambda *_: None)
        assert len(pids) == forks
        _no_child_left()
        monkeypatch.delattr(os, "fork")
        harness.run_experiment(
            dataclasses.replace(config, out_dir=tmp_path / "b"), log=lambda *_: None
        )
        _assert_same_files(tmp_path / "a", tmp_path / "b", 19)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_noisy_forked_and_inline_bytes_identical(self, empty_config, tmp_path, monkeypatch, seed):
        # two anomalies in 30 dB noise, the bench's sigma-double sweep: a
        # near-tie of the noisy norms that moved by a last bit could reorder
        # its peaks, so the written bytes must not depend on who writes them
        config = harness.load_config(
            empty_config, preset="fig-sigma-double", resolution=self.ABOVE,
            out_dir=tmp_path / "a", snr_db=30.0, seed=seed,
        )
        forked = harness.run_experiment(config, log=lambda *_: None)
        assert {r["signal_dim"] for r in forked["records"]} <= {5, 6}
        _no_child_left()
        monkeypatch.delattr(os, "fork")
        inline = harness.run_experiment(
            dataclasses.replace(config, out_dir=tmp_path / "b"), log=lambda *_: None
        )
        assert inline == forked
        _assert_same_files(tmp_path / "a", tmp_path / "b", 19)

    @pytest.mark.parametrize(
        "blocked", ["map-permeability-1.csv", "norm-permeability-1.csv"], ids=["writer", "run"]
    )
    def test_unwritable_artifact_exits_2(self, empty_config, tmp_path, capfd, blocked):
        # a directory in the way of a file that the writer, or the run beside
        # it, writes: exit 2, the inline path's one error line with the file
        # and the reason, on file descriptor 2 (where the writer would print
        # too), and the run's other artifacts removed around the directory
        # it cannot remove
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        argv = ["run", str(empty_config), "--out", str(out), "--resolution", str(self.ABOVE)]
        assert cli.main(argv) == 2
        _one_error_line(capfd, "cannot write", blocked, "Is a directory")
        assert [p.name for p in out.iterdir()] == [blocked]
        _no_child_left()

    @pytest.mark.parametrize("idle,norms_in_run", [(True, 1), (False, 6)], ids=["whole", "split"])
    def test_whole_and_split_maps_bytes_identical(
        self, empty_config, tmp_path, monkeypatch, idle, norms_in_run
    ):
        # an idle writer takes all three files of every map but the last;
        # a busy one leaves every norm CSV and PGM to the run. The run's own
        # calls are counted: the writer's die with it
        written_here = []
        write_map_csv = mu.write_map_csv

        def counting(image, path, which="values"):
            written_here.append(Path(path).name)
            write_map_csv(image, path, which)

        monkeypatch.setattr(mu, "write_map_csv", counting)
        monkeypatch.setattr(harness._Writer, "idle", lambda self: idle)
        config = harness.load_config(
            empty_config, preset="fig-mu-single", resolution=self.ABOVE, out_dir=tmp_path / "a"
        )
        harness.run_experiment(config, log=lambda *_: None)
        assert len(written_here) == norms_in_run
        assert all(name.startswith("norm-") for name in written_here)
        _no_child_left()
        monkeypatch.delattr(os, "fork")
        harness.run_experiment(
            dataclasses.replace(config, out_dir=tmp_path / "b"), log=lambda *_: None
        )
        _assert_same_files(tmp_path / "a", tmp_path / "b", 19)

    def test_failed_writer_raises_and_cleans_up(self, tmp_path, monkeypatch):
        # the writer inherits the patch; the run's norm CSVs pass
        write_map_csv = mu.write_map_csv

        def failing(image, path, which="values"):
            if Path(path).name.startswith("map-"):
                raise OSError("no space left")
            write_map_csv(image, path, which)

        monkeypatch.setattr(mu, "write_map_csv", failing)
        path = tmp_path / "two.ini"
        path.write_text("[sweep]\nkind = permeability\nratios = 1, 2\n")
        config = harness.load_config(
            path, resolution=self.ABOVE, out_dir=tmp_path / "new" / "out"
        )
        with pytest.raises(OSError, match=r"the writer failed on .*map-permeability-1\.csv"):
            harness.run_experiment(config, log=lambda *_: None)
        assert not (tmp_path / "new").exists()
        _no_child_left()

    def test_partial_artifacts_removed_while_writer_runs(self, tmp_path, monkeypatch):
        # as test_partial_artifacts_removed_on_failure, with the first ratio's
        # files handed to the writer when the second ratio's record fails,
        # after the first map forked the writer
        _fail_after_first_record(monkeypatch)
        pids, logged = [], []
        fork = os.fork

        def counting():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting)
        path = tmp_path / "fail.ini"
        path.write_text("[sweep]\nkind = permeability\nratios = 1, 2\n")
        out = tmp_path / "existing"
        out.mkdir()
        config = harness.load_config(path, resolution=self.ABOVE, out_dir=out)
        with pytest.raises(NumericalError, match="non-finite report value"):
            harness.run_experiment(config, log=logged.append)
        assert list(out.iterdir()) == []
        _no_child_left()
        assert len(pids) == 1
        assert len(logged) == 1 and logged[0].startswith("[permeability-1]")

    def test_unformable_ratio_fails_before_any_map(self, tmp_path, monkeypatch):
        # ratio 1e10 scales k_aw by 1e5, past the range of hankel2_0 on the
        # steering rays: at 40^2, above the fork threshold, the sweep fails
        # in `prepare`, so it images no map, forks no writer, logs no ratio
        # and leaves no directory
        calls, logged = [], []
        imaging_map, fork = mu.imaging_map, os.fork

        def counted(real, name):
            def call(*args):
                calls.append(name)
                return real(*args)
            return call

        monkeypatch.setattr(mu, "imaging_map", counted(imaging_map, "imaging_map"))
        monkeypatch.setattr(os, "fork", counted(fork, "fork"))
        path = tmp_path / "fail.ini"
        path.write_text("[sweep]\nkind = permeability\nratios = 1, 1e10\n")
        out = tmp_path / "new"
        config = harness.load_config(path, resolution=40, out_dir=out)
        assert _cells(40) >= harness._FORK_MIN_CELLS
        with pytest.raises(NumericalError, match=r"^steering field at k_aw = .*: hankel2_0 supports"):
            harness.run_experiment(config, log=logged.append)
        assert calls == [] and logged == []
        assert not out.exists()
        _no_child_left()

    def test_interrupt_reaps_writer(self, empty_config, tmp_path, monkeypatch):
        # an interrupt while the run writes the norm CSV of its one map
        # reaps the writer, which writes the map CSV, then removes every
        # artifact and the directory the run created
        def interrupted(image, path, which="values"):
            raise KeyboardInterrupt

        fork = os.fork

        def fork_then_interrupt():
            pid = fork()
            if pid:
                monkeypatch.setattr(mu, "write_map_csv", interrupted)
            return pid

        monkeypatch.setattr(os, "fork", fork_then_interrupt)
        config = harness.load_config(
            empty_config, resolution=self.ABOVE, out_dir=tmp_path / "out"
        )
        with pytest.raises(KeyboardInterrupt):
            harness.run_experiment(config, log=lambda *_: None)
        _no_child_left()
        assert list(tmp_path.iterdir()) == [empty_config]


class TestCompareSavedMap:
    def test_round_trip_comparison(self, empty_config, tmp_path):
        config = harness.load_config(empty_config, resolution=64, out_dir=tmp_path / "c")
        harness.run_experiment(config, log=lambda *_: None)
        result = harness.compare_saved_map(tmp_path / "c" / "norm-permeability-1.csv", config)
        assert 0.0 <= result["rms"] <= 0.15
        assert result["pearson"] > 0.9

    def test_reciprocal_map_rejected(self, empty_config, tmp_path):
        config = harness.load_config(empty_config, resolution=64, out_dir=tmp_path / "r")
        harness.run_experiment(config, log=lambda *_: None)
        with pytest.raises(Exception):
            harness.compare_saved_map(tmp_path / "r" / "map-permeability-1.csv", config)


# D1 moved and a lossy D2: the two-anomaly scene of the lossy CLI runs
_D1_D2 = (
    "[anomaly:D1]\ncenter_x_m = 0.01\ncenter_y_m = 0.03\n"
    "[anomaly:D2]\ncenter_x_m = -0.04\ncenter_y_m = -0.02\n"
    "rel_permittivity = 45\nconductivity_s_per_m = 1.0\n"
)


class TestCli:
    def test_run_and_exit_codes(self, empty_config, tmp_path, capsys):
        code = cli.main(
            [
                "run",
                str(empty_config),
                "--out",
                str(tmp_path / "cli"),
                "--resolution",
                "32",
            ]
        )
        assert code == 0
        assert (tmp_path / "cli" / "report.json").exists()

    def test_validate(self, empty_config, capsys):
        assert cli.main(["validate", str(empty_config)]) == 0
        out = capsys.readouterr().out
        assert "background_loss" in out and "far_field" in out

    # tau_2/tau_1 of one anomaly's zero-diagonal data is at least 1/(N - 1):
    # validate warns when the threshold rule is to split at or below it
    @pytest.mark.parametrize("ini,warned", [
        ("[array]\ncount = 8\n", True),
        ("[array]\ncount = 9\n", True),
        ("[array]\ncount = 10\n", True),
        ("[array]\ncount = 16\n", False),
        ("[array]\ncount = 8\n[imaging]\nsignal_dim = 1\n", False),
    ], ids=["N8", "N9", "N10", "N16", "N8-signal_dim"])
    def test_validate_warns_below_the_diagonal_floor(self, tmp_path, capsys, ini, warned):
        cfg = tmp_path / "floor.ini"
        cfg.write_text(ini)
        assert cli.main(["validate", str(cfg)]) == 0
        warns = [line for line in capsys.readouterr().out.splitlines() if line.startswith("warn:")]
        assert len(warns) == warned

    def test_validate_measures_far_field_table_once(self, tmp_path, monkeypatch, capsys):
        # only the margin depends on the ratio: one table for six ratios
        table = sc.Scene.interior_antenna_distances
        scenes = []

        def counting(scene):
            scenes.append(scene)
            return table.func(scene)

        counted = functools.cached_property(counting)
        counted.__set_name__(sc.Scene, "interior_antenna_distances")
        monkeypatch.setattr(sc.Scene, "interior_antenna_distances", counted)
        cfg = tmp_path / "six.ini"
        cfg.write_text("[sweep]\nratios = 1, 2, 10, 0.5, 0.2, 0.1\n")
        assert cli.main(["validate", str(cfg)]) == 0
        assert capsys.readouterr().out.count(" far_field: ") == 6
        assert len(scenes) == 1

    def test_noiseless_run_takes_a_negative_seed(self, tmp_path):
        # the seed draws nothing without noise; the benchmark passes its
        # own seed into every workload's config
        cfg = tmp_path / "seeded.ini"
        cfg.write_text("[noise]\nseed = -1\n")
        out = tmp_path / "seeded-out"
        argv = ["run", str(cfg), "--out", str(out), "--resolution", "16", "--seed", "-7"]
        assert cli.main(argv) == 0
        assert json.loads((out / "report.json").read_text())["config"]["seed"] == -7

    def test_bad_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[sweep]\nratios = hello\n")
        assert cli.main(["validate", str(bad)]) == 2

    def test_numerical_failure_exits_3(self, tmp_path):
        # an anomaly made of the background medium scatters nothing, so the
        # data matrix is zero
        bad = tmp_path / "void.ini"
        bad.write_text("[anomaly:D1]\nrel_permittivity = 20\nconductivity_s_per_m = 0.2\n")
        assert (
            cli.main(["run", str(bad), "--out", str(tmp_path / "t"), "--resolution", "32"]) == 3
        )
        # the data fails before any artifact is written
        assert not (tmp_path / "t").exists()

    def test_failed_run_leaves_no_directory(self, tmp_path):
        # a steering argument out of range fails the sweep before its first
        # map, and the directory the run created goes
        bad = tmp_path / "range.ini"
        bad.write_text("[sweep]\nratios = 1, 1e10\n")
        out = tmp_path / "range-out"
        assert cli.main(["run", str(bad), "--out", str(out), "--resolution", "32"]) == 3
        assert not out.exists()

    def test_non_finite_report_value_exits_3(self, empty_config, tmp_path, monkeypatch):
        # a NaN that reaches a record stops the run before report.json is
        # written, and the directory the run created goes with its artifacts
        monkeypatch.setattr(harness.th, "predicted_peak", lambda *args: (math.nan, math.nan))
        out = tmp_path / "nan-out"
        assert cli.main(["run", str(empty_config), "--out", str(out), "--resolution", "32"]) == 3
        assert not out.exists()

    def test_zero_background_permittivity_exits_2(self, tmp_path):
        # the contrast is undefined: a domain failure of the config, exit 2
        bad = tmp_path / "vacuum.ini"
        bad.write_text("[scene]\nbackground_rel_permittivity = 0\n")
        out = tmp_path / "vacuum-out"
        assert cli.main(["run", str(bad), "--out", str(out), "--resolution", "32"]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("anomalies", ["", _D1_D2], ids=["D1", "D1-D2"])
    def test_overflowing_steering_exits_3(self, tmp_path, capsys, anomalies):
        # conductivity x1e5 makes Im(k_aw) times the antenna distance pass
        # ~709, so the exact-field steering overflows at its interpolant's
        # nodes; the run stops in `prepare` with one line on stderr and no
        # RuntimeWarning, instead of imaging NaN norms
        bad = tmp_path / "lossy.ini"
        bad.write_text("[sweep]\nkind = conductivity\nratios = 1e5\n" + anomalies)
        out = tmp_path / "lossy-out"
        capsys.readouterr()
        code = cli.main(["run", str(bad), "--out", str(out), "--resolution", "32"])
        assert code == 3
        assert not out.exists()
        (line,) = capsys.readouterr().err.splitlines()
        assert re.fullmatch(
            r"numerical failure: steering field at k_aw = \S+: H_0\^\(2\)\(k d\) overflows "
            r"at the nodes of its interpolant", line
        )

    @pytest.mark.parametrize("anomalies", ["", _D1_D2], ids=["D1", "D1-D2"])
    def test_lossy_exact_field_images(self, tmp_path, capsys, anomalies):
        # conductivity x2e4 keeps the table finite at 32^2 while the squares
        # of its rows overflow (Im(k_aw) d_max past ~355): each row is scaled
        # by a power of two before its norm, so the map is not flat, the
        # report finite and stderr empty (RuntimeWarnings fail the test)
        cfg = tmp_path / "lossy.ini"
        cfg.write_text("[sweep]\nkind = conductivity\nratios = 2e4\n" + anomalies)
        out = tmp_path / "lossy-out"
        capsys.readouterr()
        assert cli.main(["run", str(cfg), "--out", str(out), "--resolution", "32"]) == 0
        assert capsys.readouterr().err == ""
        body = (out / "norm-conductivity-20000.csv").read_text().splitlines()[4:]
        assert len({line.split(",")[2] for line in body}) > 1

    def test_plane_wave_survives_high_loss(self, tmp_path):
        # e^{i k theta . r} alone would overflow at conductivity x1e6; the
        # plane-wave steering divides the row maximum out first
        cfg = tmp_path / "lossy.ini"
        cfg.write_text("[sweep]\nkind = conductivity\nratios = 1e6\n")
        out = tmp_path / "plane-out"
        argv = ["run", str(cfg), "--out", str(out), "--resolution", "32",
                "--mode", "asymptotic", "--variant", "plane"]
        assert cli.main(argv) == 0

        def reject(token):
            raise ValueError(f"non-finite value {token} in the report")

        payload = json.loads((out / "report.json").read_text(), parse_constant=reject)
        record = payload["records"][0]
        assert all(math.isfinite(v) for v in record["closed_form"].values())
        assert all(math.isfinite(v) for p in record["peaks"] for v in p)

    def test_compare_with_the_run_preset(self, tmp_path, capsys):
        # the config's own anomaly is not the preset's D1: only the preset
        # reproduces the closed form the run reported for each norm map
        cfg = tmp_path / "elsewhere.ini"
        cfg.write_text("[anomaly:D1]\ncenter_x_m = -0.03\ncenter_y_m = 0.02\n")
        out = tmp_path / "preset-out"
        argv = ["run", str(cfg), "--preset", "fig-mu-single", "--resolution", "32", "--out", str(out)]
        assert cli.main(argv) == 0
        records = json.loads((out / "report.json").read_text())["records"]
        capsys.readouterr()
        def printed():
            lines = capsys.readouterr().out.splitlines()
            return {key: float(value) for key, value in (line.split(": ") for line in lines)}

        for record in records:
            csv = str(out / f"norm-permeability-{record['ratio']:g}.csv")
            assert cli.main(["compare", csv, str(cfg), "--preset", "fig-mu-single"]) == 0
            assert printed() == record["closed_form"]
            assert cli.main(["compare", csv, str(cfg)]) == 0
            assert printed() != record["closed_form"]

    def test_compare_cli(self, empty_config, tmp_path, capsys):
        assert (
            cli.main(
                ["run", str(empty_config), "--out", str(tmp_path / "cc"), "--resolution", "32"]
            )
            == 0
        )
        code = cli.main(
            ["compare", str(tmp_path / "cc" / "norm-permeability-1.csv"), str(empty_config)]
        )
        assert code == 0
        assert "rms:" in capsys.readouterr().out

    def test_compare_reproduces_the_report_for_m_above_one(self, tmp_path, capsys):
        # the report compares the rank-M map the norm CSV holds, so compare
        # on that CSV prints the report's closed_form for any M
        cfg = tmp_path / "m2.ini"
        cfg.write_text("[imaging]\nsignal_dim = 2\n")
        out = tmp_path / "m2-out"
        assert cli.main(["run", str(cfg), "--out", str(out), "--resolution", "32"]) == 0
        (record,) = json.loads((out / "report.json").read_text())["records"]
        assert record["signal_dim"] == 2
        capsys.readouterr()
        assert cli.main(["compare", str(out / "norm-permeability-1.csv"), str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        printed = {key: float(value) for key, value in (line.split(": ") for line in lines)}
        assert printed == record["closed_form"]

    # with the default threshold the zero diagonal of the data keeps every
    # singular value at 8 and 9 antennas (M = N), and 7 of them at 10; a
    # threshold of 0 keeps every one at 16
    @pytest.mark.parametrize("ini,code", [
        ("[array]\ncount = 8\n", 3),
        ("[array]\ncount = 9\n", 3),
        ("[imaging]\nthreshold_ratio = 0\n", 3),
        ("[array]\ncount = 10\n", 0),
    ], ids=["N8", "N9", "threshold-0", "N10"])
    def test_empty_noise_space_exits_3(self, tmp_path, capsys, ini, code):
        cfg = tmp_path / "noise.ini"
        cfg.write_text(ini)
        out = tmp_path / "noise-out"
        assert cli.main(["run", str(cfg), "--out", str(out), "--resolution", "32"]) == code
        if code:
            assert capsys.readouterr().err.startswith("numerical failure: no noise subspace")
            assert not out.exists()
        else:
            (record,) = json.loads((out / "report.json").read_text())["records"]
            assert record["signal_dim"] == 7

    @pytest.mark.parametrize("signal_dim", [0, 15, 16, 17])
    def test_signal_dim_range(self, tmp_path, capsys, signal_dim):
        cfg = tmp_path / "dim.ini"
        cfg.write_text(f"[imaging]\nsignal_dim = {signal_dim}\n")
        out = tmp_path / "dim-out"
        code = cli.main(["run", str(cfg), "--out", str(out), "--resolution", "32"])
        assert code == (0 if signal_dim == 15 else 2)
        if code:
            _one_error_line(capsys, "signal_dim must lie in [1, antenna count - 1]")
            assert not out.exists()

    def test_compare_builds_no_plan(self, empty_config, tmp_path, capsys, monkeypatch):
        # the closed form needs no symmetry plan: compare prints the run's
        # four closed_form values without one
        out = tmp_path / "noplan"
        argv = ["run", str(empty_config), "--out", str(out), "--resolution", "32"]
        assert cli.main(argv) == 0
        (record,) = json.loads((out / "report.json").read_text())["records"]
        capsys.readouterr()

        def refuse(*_):
            raise AssertionError("compare built a symmetry plan")

        monkeypatch.setattr(mu, "symmetry_plan", refuse)
        assert cli.main(["compare", str(out / "norm-permeability-1.csv"), str(empty_config)]) == 0
        lines = capsys.readouterr().out.splitlines()
        printed = {key: float(value) for key, value in (line.split(": ") for line in lines)}
        assert printed == record["closed_form"]


def _one_error_line(capsys, *names):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert all(name in err[0] for name in names), err


@functools.cache
def _norm_csv_16() -> str:
    """The text of the projection-norm CSV of a default run at 16^2."""
    with tempfile.TemporaryDirectory() as root:
        config, out = Path(root) / "empty.ini", Path(root) / "out"
        config.write_text("")
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["run", str(config), "--out", str(out), "--resolution", "16"]) == 0
        return (out / "norm-permeability-1.csv").read_text()


def _with_k_aw(text: str, k_aw: str) -> str:
    """A map CSV's text with the k_aw header line's values replaced."""
    return "".join(
        f"# k_aw,{k_aw}\n" if line.startswith("# k_aw,") else line
        for line in text.splitlines(keepends=True)
    )


def _opens_utf8():
    with open(os.devnull, encoding=io.text_encoding(None)) as fh:
        return codecs.lookup(fh.encoding).name == "utf-8"


class TestInputFailuresExit2:
    """A config, CSV or output directory that cannot be used exits 2 with
    one error line, and leaves no directory behind."""

    @pytest.mark.parametrize("kind", [
        "directory",
        pytest.param("not-utf8", marks=pytest.mark.skipif(
            not _opens_utf8(), reason="the config encoding is not UTF-8")),
    ])
    def test_unreadable_config(self, tmp_path, monkeypatch, capsys, kind):
        # ConfigParser.read skips such a file: the default sweep would run
        # and write into ./out
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "config.ini"
        if kind == "directory":
            config.mkdir()
        else:
            config.write_bytes(b"[imaging]\nresolution = 32\n; caf\xe9\n")
        assert cli.main(["run", str(config)]) == 2
        _one_error_line(capsys, str(config))
        assert list(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize("ratios,label", [
        ("1.0000001, 1.0000002", "'permeability-1'"),
        ("2, 0.5, 2", "'permeability-2'"),
    ], ids=["same-label", "duplicate"])
    def test_ratios_sharing_an_artifact_label(self, tmp_path, capsys, ratios, label):
        # the two ratios would write one set of files twice, the run and its
        # writer process the same norm CSV at once
        config = tmp_path / "config.ini"
        config.write_text(f"[sweep]\nratios = {ratios}\n")
        out = tmp_path / "out"
        assert cli.main(["run", str(config), "--out", str(out), "--resolution", "40"]) == 2
        _one_error_line(capsys, label)
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-ascii"])
    def test_unreadable_compare_csv(self, empty_config, tmp_path, capsys, kind):
        csv = tmp_path / "norm.csv"
        if kind == "directory":
            csv.mkdir()
        elif kind == "not-ascii":
            csv.write_bytes(b"# resolution,32\n# caf\xe9\nx,y,value\n")
        assert cli.main(["compare", str(csv), str(empty_config)]) == 2
        _one_error_line(capsys, str(csv))

    @pytest.mark.parametrize("resolution", ["1000000", "8"])
    def test_compare_csv_resolution_out_of_range(self, empty_config, tmp_path, capsys, resolution):
        # the header's resolution sizes the raster: bounded as a run's is,
        # before anything is allocated for it
        csv = tmp_path / "norm.csv"
        csv.write_text(
            f"# resolution,{resolution}\n# bounds,-0.085,0.085\n# k_aw,94.1,8.4\n"
            "x,y,value\n0.0,0.0,0.5\n"
        )
        assert cli.main(["compare", str(csv), str(empty_config)]) == 2
        _one_error_line(capsys, str(csv), "resolution")

    @pytest.mark.parametrize("k_aw", ["nan,0.0", "inf,0.0", "0.0,0.0", "-94.0,-8.0"])
    def test_compare_csv_wavenumber_out_of_range(self, empty_config, tmp_path, capsys, k_aw):
        # no scene has such a wavenumber: the comparison printed NaN metrics,
        # or metrics against a meaningless closed form, and exited 0
        csv = tmp_path / "norm.csv"
        csv.write_text(_with_k_aw(_norm_csv_16(), k_aw))
        assert cli.main(["compare", str(csv), str(empty_config)]) == 2
        _one_error_line(capsys, str(csv), "k_aw")

    @pytest.mark.parametrize("command", ["validate", "run", "compare"])
    def test_underflowing_frequency(self, tmp_path, capsys, command):
        # omega^2 underflows and k_bw is 0: validate divided by it, run
        # failed on H_0^(2) at 0 and compare compared against k_bw = 0
        config = tmp_path / "cold.ini"
        config.write_text("[scene]\nfrequency_hz = 1e-160\n")
        csv = tmp_path / "norm.csv"
        csv.write_text(_norm_csv_16())
        out = tmp_path / "cold-out"
        argv = {
            "validate": ["validate", str(config)],
            "run": ["run", str(config), "--out", str(out), "--resolution", "16"],
            "compare": ["compare", str(csv), str(config)],
        }[command]
        assert cli.main(argv) == 2
        _one_error_line(capsys, "wavenumber at 1e-160 Hz is 0")
        assert not out.exists()

    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_out_not_a_directory(self, empty_config, tmp_path, capsys, out):
        (tmp_path / "file").write_text("")
        argv = ["run", str(empty_config), "--out", str(tmp_path / out), "--resolution", "32"]
        assert cli.main(argv) == 2
        _one_error_line(capsys, str(tmp_path / out))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.ini", "file"]

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_overflowing_mismatched_wavenumber(self, tmp_path, capsys, command):
        # a finite ratio whose wavenumber overflows: validate must not pass
        # what run cannot image
        config = tmp_path / "huge.ini"
        config.write_text("[sweep]\nkind = permeability\nratios = 1e300\n")
        out = tmp_path / "huge-out"
        argv = [command, str(config)]
        if command == "run":
            argv += ["--out", str(out), "--resolution", "32"]
        assert cli.main(argv) == 2
        _one_error_line(capsys, "wavenumber", "not finite")
        assert not out.exists()

    def test_unwritable_artifact(self, empty_config, tmp_path, capsys):
        # a directory in the way of an artifact that the run writes inline:
        # the run stops there, and its clean-up skips the directory
        out = tmp_path / "out"
        (out / "map-permeability-1.csv").mkdir(parents=True)
        argv = ["run", str(empty_config), "--out", str(out), "--resolution", "32"]
        assert cli.main(argv) == 2
        _one_error_line(capsys, "cannot write", "map-permeability-1.csv", "Is a directory")
        assert [p.name for p in out.iterdir()] == ["map-permeability-1.csv"]

    def test_overflowing_frequency(self, tmp_path, capsys):
        config = tmp_path / "hot.ini"
        config.write_text("[scene]\nfrequency_hz = 1e300\n")
        out = tmp_path / "hot-out"
        assert cli.main(["run", str(config), "--out", str(out), "--resolution", "32"]) == 2
        _one_error_line(capsys, "wavenumber")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("noise,names", [
        ("snr_db = -inf", ("snr_db", "-inf")),  # 10^(snr_db/10) is 0
        ("snr_db = -4000", ("snr_db", "-4000")),  # ... underflows to 0
        ("snr_db = 4000", ("snr_db", "4000")),  # ... overflows
        ("snr_db = 20\nseed = -1", ("seed", "-1")),  # numpy takes no negative seed
    ], ids=["minus-inf", "minus-4000", "4000", "negative-seed"])
    def test_unusable_noise(self, tmp_path, capsys, command, noise, names):
        config = tmp_path / "noisy.ini"
        config.write_text(f"[noise]\n{noise}\n")
        out = tmp_path / "noisy-out"
        argv = [command, str(config)]
        if command == "run":
            argv += ["--out", str(out), "--resolution", "16"]
        assert cli.main(argv) == 2
        _one_error_line(capsys, *names)
        assert not out.exists()


class TestExitCodes:
    """Every failure maps to exit code 2 or 3: any snr_db and any seed
    either run or fail cleanly, and a failed run leaves no directory."""

    @settings(max_examples=100, deadline=None)
    @given(snr_db=st.floats(), seed=st.integers())
    def test_any_snr_and_seed(self, snr_db, seed):
        with tempfile.TemporaryDirectory() as root:
            config = Path(root) / "noisy.ini"
            config.write_text(f"[noise]\nsnr_db = {snr_db!r}\nseed = {seed}\n")
            out = Path(root) / "out"
            code = cli.main(["run", str(config), "--out", str(out), "--resolution", "16"])
            assert code in (0, 2, 3)
            assert code == 0 or not out.exists()

    @settings(max_examples=100, deadline=None)
    @given(frequency=st.floats(min_value=0.0, exclude_min=True))
    @example(frequency=5e-324)  # the least subnormal
    @example(frequency=1e-160)  # k_bw underflows to 0
    @example(frequency=1e300)  # omega^2 overflows
    def test_any_frequency(self, frequency):
        with tempfile.TemporaryDirectory() as root:
            config = Path(root) / "f.ini"
            config.write_text(f"[scene]\nfrequency_hz = {frequency!r}\n")
            code, printed = _quiet_main(["validate", str(config)])
        assert code in (0, 2, 3)
        assert "nan" not in printed

    @settings(max_examples=100, deadline=None)
    @given(k_aw=st.tuples(st.floats(), st.floats()))
    @example(k_aw=(math.nan, 0.0))
    @example(k_aw=(math.inf, 0.0))
    @example(k_aw=(-math.inf, math.inf))
    @example(k_aw=(0.0, 0.0))
    def test_any_csv_wavenumber(self, k_aw):
        with tempfile.TemporaryDirectory() as root:
            config, csv = Path(root) / "empty.ini", Path(root) / "norm.csv"
            config.write_text("")
            csv.write_text(_with_k_aw(_norm_csv_16(), f"{k_aw[0]!r},{k_aw[1]!r}"))
            code, printed = _quiet_main(["compare", str(csv), str(config)])
        assert code in (0, 2, 3)
        assert "nan" not in printed


def _quiet_main(argv) -> tuple[int, str]:
    """cli.main's exit code and what it printed on standard output: the
    results, where an error prints on standard error."""
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv), out.getvalue()


class TestMemory:
    # Peak RSS of one default run (one anomaly, ratio 1, exact field) at 512²
    # in a fresh interpreter: 54.4 MB measured with chunked imaging and the
    # streamed CSV writer, 103 MB while the fundamental domain was one table
    # and the CSV one string. The bound leaves 25% headroom over the
    # measurement. The peak is the child's VmHWM: its ru_maxrss would start
    # at the high-water mark of the process that spawned it, here pytest's.
    # The run's writer process is held to the same bound through the peak
    # RSS of the run's reaped children, which counts the pages it shares
    # with the run (measured: run 50.8 MB, writer 35.5 MB).
    PEAK_RSS_MB = 68

    def test_default_run_at_512(self, tmp_path, empty_config):
        script = (
            "import resource, sys\n"
            "from mwmusic import cli\n"
            "code = cli.main(sys.argv[1:])\n"
            "hwm_kb = open('/proc/self/status').read().split('VmHWM:')[1].split()[0]\n"
            "writer_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
            "print(code, hwm_kb, writer_kb)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        argv = ["run", str(empty_config), "--resolution", "512", "--out", str(tmp_path / "out")]
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert proc.returncode == 0, proc.stderr
        code, hwm_kb, writer_kb = proc.stdout.split()[-3:]
        assert code == "0"
        print(f"run VmHWM {int(hwm_kb) / 1024:.1f} MB, writer ru_maxrss {int(writer_kb) / 1024:.1f} MB")
        assert int(hwm_kb) / 1024 <= self.PEAK_RSS_MB
        assert 0 < int(writer_kb) / 1024 <= self.PEAK_RSS_MB
