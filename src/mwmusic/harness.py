"""Configuration-driven experiment runner.

A run sweeps one mismatched background parameter over a list of ratios,
images the same synthetic data with each wrong wavenumber, and writes per
ratio a reciprocal-map CSV, a projection-norm CSV, and a PGM rendering,
plus one JSON report. `prepare` does the work no ratio changes once per
sweep (the data and its decomposition, the imaging grid, and the k_aw
and steering evaluator of every ratio), so a ratio that cannot be imaged
fails the sweep there, before any file is written; `analyse` images one
ratio, sets a single anomaly's map against the closed form and returns
the map and its record, and `run_experiment` writes the artifacts. A
report and its records are the plain dicts report.json holds.

Runs are deterministic for a fixed config and seed. Wall-clock timings
are printed but kept out of the artifacts, so repeated runs stay
byte-identical. The files of a ratio are named by its label
(`_artifact_label`), which no two ratios of a sweep may share.

A sweep whose maps have at least _FORK_MIN_CELLS unmasked cells forks one
writer process (`_Writer`) once its first map is imaged, so the sweep keeps
two cores busy: the run images each map into one of two shared-memory slots
and hands it over, and the writer writes the map's files while the run
images the next. The writer takes all three files of a map when it has
nothing else queued and another map follows; otherwise it takes the
reciprocal-map CSV, and the run writes the projection-norm CSV and the PGM
meanwhile. Smaller maps, and platforms without os.fork, write inline; the
bytes are the same either way, as both paths hold the map as its
mask-order norms (`music.ImageMap`) and call the same writers. The writer
is reaped before report.json is written, before a failed or interrupted
run removes its artifacts, and before run_experiment returns or raises.

Config file format (INI; every key optional, defaults reproduce the
reference configuration):

    [scene]
    frequency_hz = 1e9
    roi_radius_m = 0.085
    background_rel_permittivity = 20
    background_conductivity_s_per_m = 0.2
    background_permeability_h_per_m = 1.257e-6

    [array]
    count = 16
    radius_m = 0.09

    [anomaly:D1]                  ; one section per anomaly, any label
    center_x_m = 0.01
    center_y_m = 0.03
    radius_m = 0.01
    rel_permittivity = 55
    conductivity_s_per_m = 1.2

    [sweep]
    kind = permeability           ; permeability | permittivity | conductivity
    ratios = 1, 2, 10, 0.5, 0.2, 0.1

    [imaging]
    resolution = 128
    forward_mode = full_hankel    ; full_hankel | asymptotic
    test_vector = exact_field     ; exact_field | plane_wave
    signal_dim =                  ; empty = threshold rule
    threshold_ratio = 0.1

    [noise]
    snr_db = inf                  ; inf disables noise; else within +-3000
    seed = 0                      ; >= 0 when noise is on

    [output]
    directory = out

An empty file (or missing sections) yields the reference scene with the
single anomaly D1 and a ratio-1 sweep. Named presets replace the sweep and
the anomaly list with the bundled experiment definitions.
"""

from __future__ import annotations

import configparser
import contextlib
import encodings.ascii  # noqa: F401  the artifacts' codec, loaded before any writer is forked
import io
import json
import math
import mmap
import os
import shutil
import time
from collections import namedtuple
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import forward as fw
from . import music as mu
from . import theory as th
from .errors import ConfigurationError, DegenerateDataError, MwMusicError, NumericalError
from .scene import (
    BACKGROUND_PERMEABILITY,
    VACUUM_PERMITTIVITY,
    Anomaly,
    Medium,
    Scene,
    uniform_circular_array,
    validate_scene,
)

REPORT_VERSION = 1

# reference configuration values (defaults for every config key)
DEFAULT_FREQUENCY = 1.0e9
DEFAULT_ROI_RADIUS = 0.085
DEFAULT_ARRAY_COUNT = 16
DEFAULT_ARRAY_RADIUS = 0.09
DEFAULT_BG_REL_PERMITTIVITY = 20.0
DEFAULT_BG_CONDUCTIVITY = 0.2

D1 = dict(center=(0.01, 0.03), radius=0.01, rel_permittivity=55.0, conductivity=1.2)
D2 = dict(center=(-0.04, -0.02), radius=0.01, rel_permittivity=45.0, conductivity=1.0)

# unmasked cells from which a sweep's maps are written by a forked writer.
# The writer costs the sweep one fork and a few pipe messages per map; in
# fresh-process fig-mu-single sweeps on a 2-core host (15 alternating pairs)
# it was even at 20^2 (316 cells) and ahead by 4-13% at 24^2 to 40^2 (448
# to 1264 cells). The threshold keeps a margin of ~3x above the break-even,
# for a fork from a larger process; below it a sweep forgoes at most ~12 ms
_FORK_MIN_CELLS = 1000

_MU_EPS_RATIOS = (1.0, 2.0, 10.0, 0.5, 0.2, 0.1)
_SIGMA_RATIOS = (1.0, 2.0, 10.0, 20.0, 0.2, 0.1)

PRESETS = {
    "fig-mu-single": ("permeability", _MU_EPS_RATIOS, (D1,)),
    "fig-mu-double": ("permeability", _MU_EPS_RATIOS, (D1, D2)),
    "fig-eps-single": ("permittivity", _MU_EPS_RATIOS, (D1,)),
    "fig-eps-double": ("permittivity", _MU_EPS_RATIOS, (D1, D2)),
    "fig-sigma-single": ("conductivity", _SIGMA_RATIOS, (D1,)),
    "fig-sigma-double": ("conductivity", _SIGMA_RATIOS, (D1, D2)),
}


@dataclass(frozen=True)
class ExperimentConfig:
    scene: Scene
    resolution: int = 128
    sweep_kind: str = "permeability"
    ratios: tuple[float, ...] = (1.0,)
    forward_mode: str = fw.FULL_HANKEL
    test_variant: str = mu.EXACT_FIELD
    signal_dim: int | None = None
    threshold_ratio: float = mu.DEFAULT_THRESHOLD_RATIO
    snr_db: float = fw.NOISELESS
    seed: int = 0
    out_dir: Path = field(default_factory=lambda: Path("out"))

    def __post_init__(self):
        if not (mu.MIN_RESOLUTION <= self.resolution <= mu.MAX_RESOLUTION):
            raise ConfigurationError(
                f"resolution must lie in [{mu.MIN_RESOLUTION}, {mu.MAX_RESOLUTION}], "
                f"got {self.resolution}"
            )
        if self.sweep_kind not in th.MISMATCH_KINDS:
            raise ConfigurationError(f"sweep kind must be one of {th.MISMATCH_KINDS}")
        if not self.ratios:
            raise ConfigurationError("the sweep needs at least one ratio")
        labelled = {}  # the ratio of each artifact label
        for ratio in self.ratios:
            if not (math.isfinite(ratio) and ratio > 0):
                raise ConfigurationError(f"ratios must be finite and > 0, got {ratio!r}")
            label = _artifact_label(self.sweep_kind, ratio)
            if label in labelled:
                raise ConfigurationError(
                    f"ratios {labelled[label]!r} and {ratio!r} share the artifact label {label!r}"
                )
            labelled[label] = ratio
        if self.forward_mode not in fw.MODES:
            raise ConfigurationError(f"forward_mode must be one of {fw.MODES}")
        if self.test_variant not in mu.VARIANTS:
            raise ConfigurationError(f"test_vector must be one of {mu.VARIANTS}")
        if self.signal_dim is not None and not (1 <= self.signal_dim < self.scene.array.count):
            raise ConfigurationError("signal_dim must lie in [1, antenna count - 1]")
        if not (0.0 <= self.threshold_ratio <= 1.0):
            raise ConfigurationError("threshold_ratio must lie in [0, 1]")
        if self.snr_db != fw.NOISELESS:
            limit = fw.SNR_DB_LIMIT
            if not abs(self.snr_db) <= limit:
                raise ConfigurationError(
                    f"snr_db must be inf or lie in [-{limit:g}, {limit:g}], got {self.snr_db!r}"
                )
            if self.seed < 0:
                raise ConfigurationError(f"the seed of noisy data must be >= 0, got {self.seed}")
        object.__setattr__(self, "out_dir", Path(self.out_dir))


def _artifact_label(kind: str, ratio: float) -> str:
    """The label in the file names of the maps of ratio (`_artifacts`)."""
    return f"{kind}-{ratio:g}"


def _get(parser: configparser.ConfigParser, section: str, key: str, cast, default=None):
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key).strip()
    if raw == "":
        return default
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigurationError(f"[{section}] {key}: cannot parse {raw!r}") from exc


def _build_anomaly(fields: dict) -> Anomaly:
    return Anomaly(
        center=tuple(fields["center"]),
        radius=float(fields["radius"]),
        medium=Medium(
            permittivity=float(fields["rel_permittivity"]) * VACUUM_PERMITTIVITY,
            conductivity=float(fields["conductivity"]),
            permeability=BACKGROUND_PERMEABILITY,
        ),
    )


# the config keys of the ExperimentConfig fields other than the scene:
# field -> (section, key, cast)
_FIELD_KEYS = {
    "resolution": ("imaging", "resolution", int),
    "sweep_kind": ("sweep", "kind", str),
    "ratios": ("sweep", "ratios", lambda raw: tuple(map(float, raw.replace(",", " ").split()))),
    "forward_mode": ("imaging", "forward_mode", str),
    "test_variant": ("imaging", "test_vector", str),
    "signal_dim": ("imaging", "signal_dim", int),
    "threshold_ratio": ("imaging", "threshold_ratio", float),
    "snr_db": ("noise", "snr_db", lambda raw: math.inf if raw.lower() == "none" else float(raw)),
    "seed": ("noise", "seed", int),
    "out_dir": ("output", "directory", Path),
}


def load_config(path, preset: str | None = None, **overrides) -> ExperimentConfig:
    """Parse a config file, apply an optional preset and keyword overrides.

    The fields are the keys the file sets, then the preset's, then every
    override that is not None, by ExperimentConfig field name (scene,
    ratios, ...); ExperimentConfig holds the default of any other field.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file {path} does not exist")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        # the encoding ConfigParser.read uses; unlike read, a file that
        # cannot be opened or decoded is an error, not an empty config
        with open(path, encoding=io.text_encoding(None)) as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(
            f"cannot read config file {path}: not {exc.encoding} text ({exc.reason})"
        ) from exc
    except configparser.Error as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc

    frequency = _get(parser, "scene", "frequency_hz", float, DEFAULT_FREQUENCY)
    roi_radius = _get(parser, "scene", "roi_radius_m", float, DEFAULT_ROI_RADIUS)
    rel_eps = _get(parser, "scene", "background_rel_permittivity", float, DEFAULT_BG_REL_PERMITTIVITY)
    sigma = _get(parser, "scene", "background_conductivity_s_per_m", float, DEFAULT_BG_CONDUCTIVITY)
    mu_b = _get(parser, "scene", "background_permeability_h_per_m", float, BACKGROUND_PERMEABILITY)
    count = _get(parser, "array", "count", int, DEFAULT_ARRAY_COUNT)
    radius = _get(parser, "array", "radius_m", float, DEFAULT_ARRAY_RADIUS)
    fields = {name: _get(parser, *key) for name, key in _FIELD_KEYS.items()}
    anomalies = [
        {
            "center": (
                _get(parser, section, "center_x_m", float, 0.0),
                _get(parser, section, "center_y_m", float, 0.0),
            ),
            "radius": _get(parser, section, "radius_m", float, 0.01),
            "rel_permittivity": _get(parser, section, "rel_permittivity", float, 55.0),
            "conductivity": _get(parser, section, "conductivity_s_per_m", float, 1.2),
        }
        for section in parser.sections() if section.startswith("anomaly")
    ] or [D1]
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigurationError(
                f"unknown preset {preset!r}; available: {', '.join(sorted(PRESETS))}"
            )
        fields["sweep_kind"], fields["ratios"], anomalies = PRESETS[preset]
    fields.update({k: v for k, v in overrides.items() if v is not None})
    try:
        if "scene" not in fields:
            fields["scene"] = Scene(
                background=Medium(rel_eps * VACUUM_PERMITTIVITY, sigma, mu_b),
                roi_radius=roi_radius,
                array=uniform_circular_array(count, radius),
                anomalies=tuple(_build_anomaly(a) for a in anomalies),
                frequency=frequency,
            )
        return ExperimentConfig(**{k: v for k, v in fields.items() if v is not None})
    except MwMusicError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


# what `prepare` computes once for every map of a sweep: grid is the imaging
# grid of every map, ks the k_aw of each ratio and evaluators its steering
# evaluator over grid, both in the order of config.ratios
Sweep = namedtuple(
    "Sweep", "config k_bw grid singular_values left_vectors signal_dim c_identity ks evaluators"
)


def _config_echo(config: ExperimentConfig) -> dict:
    scene = config.scene
    return {
        "frequency_hz": scene.frequency,
        "roi_radius_m": scene.roi_radius,
        "array_count": scene.array.count,
        "array_radius_m": scene.array.radius,
        "background": {
            "permittivity": scene.background.permittivity,
            "conductivity": scene.background.conductivity,
            "permeability": scene.background.permeability,
        },
        "anomalies": [
            {
                "center": list(an.center),
                "radius": an.radius,
                "permittivity": an.medium.permittivity,
                "conductivity": an.medium.conductivity,
            }
            for an in scene.anomalies
        ],
        "sweep_kind": config.sweep_kind,
        "ratios": list(config.ratios),
        "resolution": config.resolution,
        "forward_mode": config.forward_mode,
        "test_variant": config.test_variant,
        "signal_dim": config.signal_dim,
        "threshold_ratio": config.threshold_ratio,
        "snr_db": None if config.snr_db == fw.NOISELESS else config.snr_db,
        "seed": config.seed,
    }


def _match_peaks(predicted, peaks):
    """Greedy nearest assignment of extracted peaks to predicted locations."""
    available = list(range(len(peaks)))
    errors = []
    for pred in predicted:
        if not available:
            errors.append(math.inf)
            continue
        best = min(available, key=lambda i: math.dist(pred, peaks[i][0]))
        errors.append(math.dist(pred, peaks[best][0]))
        available.remove(best)
    return errors


def _artifacts(out_dir: Path, label: str):
    """(path, write) for each file of one map, in the order a writer takes
    them: the reciprocal-map CSV, the projection-norm CSV, then the PGM.
    write(image, path) looks the writer up when it runs."""
    return (
        (out_dir / f"map-{label}.csv", lambda image, path: mu.write_map_csv(image, path)),
        (
            out_dir / f"norm-{label}.csv",
            lambda image, path: mu.write_map_csv(image, path, which="norms"),
        ),
        (out_dir / f"map-{label}.pgm", lambda image, path: mu.write_map_pgm(image, path)),
    )


class _Writer:
    """A forked process that writes the artifacts of a sweep's maps.

    The run images each map into a slot (`slot`): two buffers of shared
    memory, each of one float per unmasked cell, alternate between the
    maps. `submit` hands the map to the writer by its slot, k_aw, the label
    of its files and how many of them the writer takes (`_artifacts`) over
    a pipe of job lines; the writer wraps the slot's norms in the map
    (`music.ImageMap`) that `imaging_map` returns for them and calls the
    same writers, so the bytes are those of the inline path. It answers
    each job on a second pipe with "." or, when a file cannot be written,
    with the index of that file and its errno, and exits; the run raises
    the inline path's OSError from them. The run images into a slot only once the writer has
    answered the job that held it.

    The first job forks the writer, after the first map is imaged, when
    the run has touched most of the pages it will write to (fewer pages
    are copied on write). The fork also stops OpenBLAS's thread pool (its
    atfork handler), so no BLAS thread woken before it spins beside the
    writer.

    Only the forking thread exists in the child, so a lock that another
    thread of the parent held at the fork stays held there. The child
    therefore only formats floats, takes numpy reductions and writes files:
    it makes no BLAS call, starts no thread and imports nothing (the ascii
    codec is loaded with this module), which is what makes forking a parent
    with BLAS threads safe here. It ends in os._exit on every path, 0 at the
    end of the job pipe and 1 on a failed write or, after a line on file
    descriptor 2, on any other exception; so it never returns into the
    parent's code, runs no atexit handler and flushes none of the parent's
    buffers.
    """

    def __init__(self, grid: mu.ImagingGrid, out_dir: Path):
        self._grid, self._out_dir = grid, out_dir
        cells = int(grid.mask.sum())
        self._maps = [mmap.mmap(-1, 8 * cells) for _ in range(2)]
        self._slots = [np.frombuffer(m) for m in self._maps]
        self._next = 0  # the slot of the next job
        self._pending: list[tuple[Path, ...]] = []  # the files of unanswered jobs, oldest first
        self.pid = None  # until the first job

    def _fork(self) -> None:
        jobs, self._jobs = os.pipe()
        self._replies, replies = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (jobs, self._jobs, self._replies, replies):
                os.close(fd)
            raise
        if self.pid == 0:
            status = 1
            try:
                os.close(self._jobs)
                os.close(self._replies)
                status = self._serve(jobs, replies)
            except BaseException as exc:
                os.write(2, f"mwmusic: the writer failed: {exc!r}\n".encode(errors="replace"))
            finally:
                os._exit(status)
        os.close(jobs)
        os.close(replies)

    def _serve(self, jobs: int, replies: int) -> int:
        """Write the files of every job; the child's exit status."""
        with open(jobs, "rb") as lines:
            for line in lines:
                slot, k_re, k_im, taken, label = line.split()
                files = _artifacts(self._out_dir, label.decode())[:int(taken)]
                k_aw = complex(float(k_re), float(k_im))
                image = mu.ImageMap(self._grid, self._slots[int(slot)], k_aw)
                for index, (path, write) in enumerate(files):
                    try:
                        write(image, path)
                    except OSError as exc:
                        os.write(replies, f"{index} {exc.errno or 0}".encode())
                        return 1
                os.write(replies, b".")
        return 0

    def slot(self) -> np.ndarray:
        """The slot for the next map's norms, once no unanswered job holds it."""
        while len(self._pending) == len(self._slots):
            self._collect(block=True)
        return self._slots[self._next]

    def idle(self) -> bool:
        """True when the writer has answered every job, without waiting."""
        if self._pending:
            self._collect(block=False)
        return not self._pending

    def submit(self, k_aw: complex, label: str, taken: int) -> None:
        """Hand the map in the current slot to the writer, which writes the
        first `taken` of its files (`_artifacts`). The first job forks the
        writer."""
        if self.pid is None:
            self._fork()
        line = f"{self._next} {k_aw.real!r} {k_aw.imag!r} {taken} {label}\n"
        try:
            os.write(self._jobs, line.encode())
        except BrokenPipeError:
            # the writer has ended; its answer names the file that failed
            self._collect(block=True)
            raise
        self._pending.append(tuple(path for path, _ in _artifacts(self._out_dir, label)[:taken]))
        self._next = (self._next + 1) % len(self._slots)

    def _collect(self, block: bool) -> None:
        """Read the writer's answers; the OSError of a file it could not
        write, or one naming the oldest job when it ended without answering.
        A failure is its last answer, written at once after at most one
        other, so one read takes all of it."""
        os.set_blocking(self._replies, block)
        try:
            answers = os.read(self._replies, 64).decode()
        except BlockingIOError:
            return
        if not answers:
            named = f" before writing {self._pending[0][0]}" if self._pending else ""
            raise OSError(f"the writer ended{named}")
        failure = answers.lstrip(".")
        for _ in range(len(answers) - len(failure)):
            self._pending.pop(0)
        if failure:
            index, code = map(int, failure.split())
            path = self._pending.pop(0)[index]
            if code:
                raise OSError(code, os.strerror(code), str(path))
            raise OSError(f"the writer failed on {path}")

    def close(self) -> None:
        """Let the writer finish its jobs, then reap it; OSError naming the
        file of a job that failed. Does nothing once the writer is reaped."""
        if self.pid is None:
            return
        os.close(self._jobs)
        try:
            while self._pending:
                self._collect(block=True)
        finally:
            _, status = os.waitpid(self.pid, 0)
            self.pid = None
            os.close(self._replies)
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            raise OSError(f"the writer exited with status {code}")


def sweep_wavenumber(config: ExperimentConfig, ratio: float) -> complex:
    """The assumed wavenumber of the sweep of config at ratio."""
    scene = config.scene
    return th.mismatched_wavenumber(scene.background, scene.omega, config.sweep_kind, ratio)


def prepare(config: ExperimentConfig) -> Sweep:
    """The work of a sweep that no ratio changes: the data and its one
    decomposition (`music.svd_leading`), the imaging grid, the C identity
    of a single anomaly, and every ratio's k_aw and steering evaluator from
    one call of `music.steering_evaluators`, so that an exact-field sweep
    builds one symmetry plan and evaluates its interpolants' nodes once.
    A sweep fails here, before its first map, when the threshold keeps
    every singular value (DegenerateDataError), or with the error of the
    first ratio whose k_aw or steering cannot be formed."""
    scene = config.scene
    k_bw = scene.background_wavenumber()
    grid = mu.grid_for_roi(scene.roi_radius, config.resolution)
    data = fw.scattering_matrix(scene, k_bw, config.forward_mode)
    if config.snr_db != fw.NOISELESS:
        data = fw.add_noise(data, config.snr_db, config.seed)
    c_identity = None
    if len(scene.anomalies) == 1:
        asym = fw.scattering_matrix(scene, k_bw, fw.ASYMPTOTIC)
        tau1_asym = float(mu.svd_leading(asym)[0][0])
        c_identity = th.c_identity_check(scene, k_bw, tau1_asym)
    taus, vecs = mu.svd_leading(data)
    m_used = config.signal_dim
    if m_used is None:
        m_used = mu.signal_subspace_dim(taus, config.threshold_ratio)
    if m_used == len(taus):
        raise DegenerateDataError(f"no noise subspace: all {m_used} singular values pass the threshold")
    ks = tuple(sweep_wavenumber(config, ratio) for ratio in config.ratios)
    evaluators = tuple(mu.steering_evaluators(ks, grid, scene.array, config.test_variant))
    return Sweep(config, k_bw, grid, taus, vecs, m_used, c_identity, ks, evaluators)


def analyse(sweep: Sweep, index: int, out: np.ndarray | None = None) -> tuple[mu.ImageMap, dict]:
    """The map of config.ratios[index] of a prepared sweep, its norms in out
    when given (`music.imaging_map`), and its record of report.json, whose
    closed_form compares that map, the one the norm CSV holds, for a single
    anomaly; NumericalError when a value of the record is not finite."""
    config, k_bw, grid, taus, vecs, m_used, c_identity, ks, evaluators = sweep
    scene = config.scene
    k_aw = ks[index]
    image = mu.imaging_map(vecs[:, :m_used], k_aw, grid, scene.array, evaluators[index], out)
    peaks = mu.extract_peaks(image, max(len(scene.anomalies), 1))
    predicted = [th.predicted_peak(k_bw, k_aw, an.center) for an in scene.anomalies]
    errors_m = _match_peaks(predicted, peaks)
    closed_form = None
    if len(scene.anomalies) == 1:
        closed_form = th.compare_maps(image, scene.array, k_bw, k_aw, scene.anomalies[0].center)
    record = {
        "ratio": float(config.ratios[index]),
        "k_aw": [k_aw.real, k_aw.imag],
        "singular_values": [float(v) for v in taus],
        "signal_dim": int(m_used),
        "peaks": [[x, y, value] for (x, y), value in peaks],
        "predicted_peaks": [list(p) for p in predicted],
        "peak_error_m": errors_m,
        "peak_error_cells": [e / grid.cell_size for e in errors_m],
        "closed_form": closed_form,
        "c_identity": c_identity,
        "diagnostics": validate_scene(scene, k_aw),
    }
    try:
        json.dumps(record, allow_nan=False)
    except ValueError as exc:
        raise NumericalError("run produced a non-finite report value") from exc
    return image, record


def run_experiment(config: ExperimentConfig, log=print) -> dict:
    """Execute the sweep, write artifacts into config.out_dir and return
    the report that report.json holds.

    Raises with partial artifacts removed if any ratio fails; a directory
    the run created is removed with them, and a path that cannot be
    removed is left. No forked writer outlives the call.
    """
    out_dir = Path(config.out_dir)
    # before any computation, so an unusable out_dir is reported at once;
    # created is the outermost directory this run creates, if any
    created = next((p for p in (*reversed(out_dir.parents), out_dir) if not p.exists()), None)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output directory {out_dir}: {exc.strerror}") from exc
    writer = None
    written: list[Path] = []
    records: list[dict] = []
    try:
        sweep = prepare(config)
        grid = sweep.grid
        if hasattr(os, "fork") and int(grid.mask.sum()) >= _FORK_MIN_CELLS:
            writer = _Writer(grid, out_dir)
        for index, ratio in enumerate(config.ratios):
            t0 = time.perf_counter()
            image, record = analyse(sweep, index, writer.slot() if writer else None)
            label = _artifact_label(config.sweep_kind, ratio)
            artifacts = _artifacts(out_dir, label)
            written += [path for path, _ in artifacts]
            # the writer takes the whole map while it has nothing else to
            # write and the run has another map to image; otherwise it takes
            # the map CSV, and the run writes the norm CSV and the PGM
            # meanwhile (the PGM takes the run about as long as rebuilding
            # the map takes the writer)
            taken = 0
            if writer:
                taken = 3 if index + 1 < len(config.ratios) and writer.idle() else 1
                writer.submit(image.k_aw, label, taken)
            for path, write in artifacts[taken:]:
                write(image, path)
            records.append(record)
            log(
                f"[{label}] peaks={[(round(x, 4), round(y, 4)) for x, y, _ in record['peaks']]} "
                f"M={record['signal_dim']} "
                f"err_cells={[round(e, 2) for e in record['peak_error_cells']]} "
                f"({time.perf_counter() - t0:.2f}s)"
            )

        if writer:
            writer.close()
        report = {
            "report_version": REPORT_VERSION,
            "config": _config_echo(config),
            "records": records,
            "artifacts": sorted(p.name for p in written),
        }
        (out_dir / "report.json").write_text(
            json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="ascii"
        )
        return report
    except BaseException:
        # an interrupt or exit cleans up as a failure does; the writer is
        # reaped first, or it could recreate a file removed here, and the
        # exception on its way is the one to report
        if writer:
            with contextlib.suppress(OSError):
                writer.close()
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        for p in written:
            # e.g. a directory in the way of the artifact
            with contextlib.suppress(OSError):
                p.unlink(missing_ok=True)
        raise


def compare_saved_map(csv_path, config: ExperimentConfig) -> dict:
    """Theory comparison (`theory.compare_maps`) for a saved projection-norm
    CSV.

    The CSV must be a norm map (values in [0, 1]); the closed form is that
    of the config scene, imaged with the k_aw recorded in the CSV header.
    """
    scene = config.scene
    if len(scene.anomalies) != 1:
        raise ConfigurationError("theory comparison needs a single-anomaly scene")
    loaded = mu.read_map_csv(csv_path, roi_radius=scene.roi_radius)
    return th.compare_maps(
        loaded, scene.array, scene.background_wavenumber(), loaded.k_aw, scene.anomalies[0].center
    )
