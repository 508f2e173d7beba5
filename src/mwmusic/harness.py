"""Configuration-driven experiment runner.

A run sweeps one mismatched background parameter over a list of ratios,
images the same synthetic data with each wrong wavenumber, and writes per
ratio a reciprocal-map CSV, a projection-norm CSV, and a PGM rendering,
plus one JSON report. Runs are deterministic for a fixed config and seed;
wall-clock timings are printed but kept out of the artifacts so repeated
runs stay byte-identical.

A sweep whose maps have at least _FORK_MIN_CELLS unmasked cells forks one
writer process (`_Writer`) once its first map is imaged, so the sweep keeps
two cores busy: the run images each map into one of two shared-memory slots
and hands it over, and the writer writes the map's files while the run
images the next. The writer takes all three files of a map when it has
nothing else queued and another map follows; otherwise it takes the
reciprocal-map CSV, and the run writes the projection-norm CSV and the PGM
meanwhile. Smaller maps, and platforms without os.fork, write inline; the
bytes are the same either way, as both paths build the map with
`music.map_from_norms` and call the same writers. The writer is reaped
before report.json is written, before a failed or interrupted run removes
its artifacts, and before run_experiment returns or raises.

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
    snr_db = inf                  ; inf disables noise
    seed = 0

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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import forward as fw
from . import music as mu
from . import theory as th
from .errors import ConfigurationError, MwMusicError, NumericalError
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
        for ratio in self.ratios:
            if not (math.isfinite(ratio) and ratio > 0):
                raise ConfigurationError(f"ratios must be finite and > 0, got {ratio!r}")
        if self.forward_mode not in fw.MODES:
            raise ConfigurationError(f"forward_mode must be one of {fw.MODES}")
        if self.test_variant not in mu.VARIANTS:
            raise ConfigurationError(f"test_vector must be one of {mu.VARIANTS}")
        if self.signal_dim is not None and not (1 <= self.signal_dim <= self.scene.array.count):
            raise ConfigurationError("signal_dim must lie in [1, antenna count]")
        if not (0.0 <= self.threshold_ratio <= 1.0):
            raise ConfigurationError("threshold_ratio must lie in [0, 1]")
        if math.isnan(self.snr_db):
            raise ConfigurationError("snr_db must be a number or inf")
        object.__setattr__(self, "out_dir", Path(self.out_dir))


def _get(parser: configparser.ConfigParser, section: str, key: str, cast, default):
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


def load_config(path, preset: str | None = None, **overrides) -> ExperimentConfig:
    """Parse a config file, apply an optional preset and keyword overrides.

    Overrides accept the ExperimentConfig field names (resolution,
    forward_mode, test_variant, signal_dim, seed, out_dir, ...).
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

    anomaly_sections = [s for s in parser.sections() if s.startswith("anomaly")]
    anomalies = []
    for section in anomaly_sections:
        anomalies.append(
            {
                "center": (
                    _get(parser, section, "center_x_m", float, 0.0),
                    _get(parser, section, "center_y_m", float, 0.0),
                ),
                "radius": _get(parser, section, "radius_m", float, 0.01),
                "rel_permittivity": _get(parser, section, "rel_permittivity", float, 55.0),
                "conductivity": _get(parser, section, "conductivity_s_per_m", float, 1.2),
            }
        )
    if not anomalies:
        anomalies = [D1]

    kind = _get(parser, "sweep", "kind", str, "permeability")
    ratios_raw = _get(parser, "sweep", "ratios", str, "1")
    try:
        ratios = tuple(float(tok) for tok in ratios_raw.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigurationError(f"[sweep] ratios: cannot parse {ratios_raw!r}") from exc

    if preset is not None:
        if preset not in PRESETS:
            raise ConfigurationError(
                f"unknown preset {preset!r}; available: {', '.join(sorted(PRESETS))}"
            )
        kind, ratios, anomalies = PRESETS[preset]

    def parse_snr(raw: str) -> float:
        return math.inf if raw.lower() in ("inf", "+inf", "none") else float(raw)

    settings = dict(
        resolution=_get(parser, "imaging", "resolution", int, 128),
        forward_mode=_get(parser, "imaging", "forward_mode", str, fw.FULL_HANKEL),
        test_variant=_get(parser, "imaging", "test_vector", str, mu.EXACT_FIELD),
        signal_dim=_get(parser, "imaging", "signal_dim", int, None),
        threshold_ratio=_get(parser, "imaging", "threshold_ratio", float, mu.DEFAULT_THRESHOLD_RATIO),
        snr_db=_get(parser, "noise", "snr_db", parse_snr, fw.NOISELESS),
        seed=_get(parser, "noise", "seed", int, 0),
        out_dir=Path(_get(parser, "output", "directory", str, "out")),
    )
    settings.update({k: v for k, v in overrides.items() if v is not None})

    try:
        scene = Scene(
            background=Medium(rel_eps * VACUUM_PERMITTIVITY, sigma, mu_b),
            roi_radius=roi_radius,
            array=uniform_circular_array(count, radius),
            anomalies=tuple(_build_anomaly(a) for a in anomalies),
            frequency=frequency,
        )
        return ExperimentConfig(scene=scene, sweep_kind=kind, ratios=tuple(ratios), **settings)
    except MwMusicError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class RatioRecord:
    ratio: float
    k_aw: complex
    singular_values: tuple[float, ...]
    signal_dim: int
    peaks: tuple[tuple[float, float, float], ...]  # (x, y, value)
    predicted_peaks: tuple[tuple[float, float], ...]
    peak_error_m: tuple[float, ...]
    peak_error_cells: tuple[float, ...]
    closed_form: dict | None
    c_identity: float | None
    diagnostics: tuple[dict, ...]
    elapsed_s: float

    def to_json_dict(self) -> dict:
        # elapsed_s deliberately omitted: artifacts must be byte-identical
        # across reruns
        return {
            "ratio": self.ratio,
            "k_aw": [self.k_aw.real, self.k_aw.imag],
            "singular_values": list(self.singular_values),
            "signal_dim": self.signal_dim,
            "peaks": [list(p) for p in self.peaks],
            "predicted_peaks": [list(p) for p in self.predicted_peaks],
            "peak_error_m": list(self.peak_error_m),
            "peak_error_cells": list(self.peak_error_cells),
            "closed_form": self.closed_form,
            "c_identity": self.c_identity,
            "diagnostics": list(self.diagnostics),
        }


@dataclass(frozen=True)
class RunReport:
    config_echo: dict
    records: tuple[RatioRecord, ...]
    artifacts: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "report_version": REPORT_VERSION,
            "config": self.config_echo,
            "records": [r.to_json_dict() for r in self.records],
            "artifacts": list(self.artifacts),
        }


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


def _ratio_label(kind: str, ratio: float) -> str:
    return f"{kind}-{ratio:g}"


def _artifacts(out_dir: Path, label: str):
    """(path, write) for each file of one map, in the order a writer takes
    them: the reciprocal-map CSV, the projection-norm CSV, then the PGM.
    write(image, path) looks the writer up when it runs."""
    return (
        (out_dir / f"map-{label}.csv", lambda image, path: mu.write_map_csv(image, path)),
        (
            out_dir / f"norm-{label}.csv",
            lambda image, path: mu.write_map_csv(image, path, which="raw_norm"),
        ),
        (out_dir / f"map-{label}.pgm", lambda image, path: mu.write_map_pgm(image, path)),
    )


class _Writer:
    """A forked process that writes the artifacts of a sweep's maps.

    The run images each map into a slot (`slot`): two buffers of shared
    memory, each of one float per unmasked cell, alternate between the
    maps. `submit` hands the map to the writer by its slot, k_aw, the label
    of its files and how many of them the writer takes (`_artifacts`) over
    a pipe of job lines; the writer rebuilds the layers those files need
    from the norms with `music.map_from_norms`, as `imaging_map` does, so
    the bytes are those of the inline path. It answers each job on a
    second pipe with "." or, on a failure, with the index of the file that
    failed, and exits. The run images into a slot only once the writer has
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
    end of the job pipe and 1 on any exception, after a line on file
    descriptor 2; so it never returns into the parent's code, runs no
    atexit handler and flushes none of the parent's buffers.
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
                self._serve(jobs, replies)
                status = 0
            except BaseException as exc:
                os.write(2, f"mwmusic: the writer failed: {exc!r}\n".encode(errors="replace"))
            finally:
                os._exit(status)
        os.close(jobs)
        os.close(replies)

    def _serve(self, jobs: int, replies: int) -> None:
        with open(jobs, "rb") as lines:
            for line in lines:
                slot, k_re, k_im, taken, label = line.split()
                files = _artifacts(self._out_dir, label.decode())[:int(taken)]
                # the raw-norm layer only for a job that takes the norm CSV
                image = mu.map_from_norms(
                    self._grid, self._slots[int(slot)], complex(float(k_re), float(k_im)),
                    raw=len(files) > 1,
                )
                for index, (path, write) in enumerate(files):
                    try:
                        write(image, path)
                    except BaseException as exc:
                        os.write(replies, str(index).encode())
                        raise OSError(f"writing {path} failed: {exc!r}") from exc
                os.write(replies, b".")

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
        """Read the writer's answers; OSError naming the file of a failed
        job, or of the oldest job when the writer ended without answering."""
        os.set_blocking(self._replies, block)
        try:
            answers = os.read(self._replies, 64)
        except BlockingIOError:
            return
        if not answers:
            named = f" before writing {self._pending[0][0]}" if self._pending else ""
            raise OSError(f"the writer ended{named}")
        for answer in answers:
            files = self._pending.pop(0)
            if answer != ord("."):
                raise OSError(f"the writer failed on {files[answer - ord('0')]}")

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


def run_experiment(config: ExperimentConfig, log=print) -> RunReport:
    """Execute the sweep and write artifacts into config.out_dir.

    Raises with partial artifacts removed if any ratio fails; a directory
    the run created is removed with them. No forked writer outlives the
    call.
    """
    scene = config.scene
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
    records: list[RatioRecord] = []
    try:
        k_bw = scene.background_wavenumber()
        data = fw.scattering_matrix(scene, k_bw, config.forward_mode)
        if config.snr_db != fw.NOISELESS:
            data = fw.add_noise(data, config.snr_db, config.seed)
        grid = mu.grid_for_roi(scene.roi_radius, config.resolution)
        # the geometry of every map of the sweep; only k_aw changes per ratio
        plan = mu.symmetry_plan(grid, scene.array)

        single = len(scene.anomalies) == 1
        c_identity = None
        if single:
            asym = fw.scattering_matrix(scene, k_bw, fw.ASYMPTOTIC)
            tau1_asym = float(mu.svd_leading(asym).singular_values[0])
            c_identity = th.c_identity_check(asym, scene, k_bw, tau1_asym)

        dec = mu.svd_leading(data)
        m_used = (
            config.signal_dim
            if config.signal_dim is not None
            else mu.signal_subspace_dim(dec.singular_values, config.threshold_ratio)
        )
        basis = dec.left_vectors[:, :m_used]

        if hasattr(os, "fork") and int(grid.mask.sum()) >= _FORK_MIN_CELLS:
            writer = _Writer(grid, out_dir)
        for index, ratio in enumerate(config.ratios):
            t0 = time.perf_counter()
            k_aw = th.mismatched_wavenumber(scene.background, scene.omega, config.sweep_kind, ratio)
            diags = validate_scene(scene, k_aw)
            image = mu.imaging_map(
                basis, k_aw, plan, variant=config.test_variant,
                out=writer.slot() if writer else None,
            )
            n_peaks = max(len(scene.anomalies), 1)
            peaks = mu.extract_peaks(image, n_peaks)
            predicted = [
                th.predicted_peak(k_bw, k_aw, an.center) for an in scene.anomalies
            ]
            errors_m = _match_peaks(predicted, peaks)
            errors_cells = [e / grid.cell_size for e in errors_m]

            closed_form = None
            if single:
                # the closed form corresponds to the one-direction projector,
                # so the comparison map always uses U[:, :1] alone
                norm_image = image if m_used == 1 else mu.imaging_map(
                    dec.left_vectors[:, :1], k_aw, plan, variant=config.test_variant
                )
                closed_form = th.compare_maps(
                    norm_image, plan, k_bw, k_aw, scene.anomalies[0].center
                )

            label = _ratio_label(config.sweep_kind, ratio)
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

            elapsed = time.perf_counter() - t0
            record = RatioRecord(
                ratio=float(ratio),
                k_aw=k_aw,
                singular_values=tuple(float(v) for v in dec.singular_values),
                signal_dim=int(m_used),
                peaks=tuple((p[0][0], p[0][1], p[1]) for p in peaks),
                predicted_peaks=tuple((p[0], p[1]) for p in predicted),
                peak_error_m=tuple(errors_m),
                peak_error_cells=tuple(errors_cells),
                closed_form=closed_form,
                c_identity=c_identity,
                diagnostics=tuple(
                    {
                        "condition": d.condition,
                        "status": d.status,
                        # strict JSON has no Infinity (e.g. lossless background)
                        "measured": d.measured if math.isfinite(d.measured) else None,
                        "threshold": d.threshold if math.isfinite(d.threshold) else None,
                        "detail": d.detail,
                    }
                    for d in diags
                ),
                elapsed_s=elapsed,
            )
            _require_finite_record(record)
            records.append(record)
            log(
                f"[{label}] peaks={[(round(p[0], 4), round(p[1], 4)) for p, _ in peaks]} "
                f"M={m_used} err_cells={[round(e, 2) for e in errors_cells]} ({elapsed:.2f}s)"
            )

        if writer:
            writer.close()
        report = RunReport(
            config_echo=_config_echo(config),
            records=tuple(records),
            artifacts=tuple(sorted(p.name for p in written)),
        )
        report_path = out_dir / "report.json"
        report_path.write_text(
            json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n",
            encoding="ascii",
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
            p.unlink(missing_ok=True)
        raise


def _require_finite_record(record: RatioRecord) -> None:
    flat = [record.ratio, record.k_aw.real, record.k_aw.imag]
    flat += list(record.singular_values)
    for p in record.peaks:
        flat += list(p)
    for p in record.predicted_peaks:
        flat += list(p)
    flat += list(record.peak_error_m) + list(record.peak_error_cells)
    if record.c_identity is not None:
        flat.append(record.c_identity)
    if record.closed_form is not None:
        flat += list(record.closed_form.values())
    if not all(math.isfinite(v) for v in flat):
        raise NumericalError("run produced a non-finite report value")


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
    # compare_maps reads the values layer when a map has no raw_norm layer
    return th.compare_maps(
        loaded,
        mu.symmetry_plan(loaded.grid, scene.array),
        scene.background_wavenumber(),
        loaded.k_aw,
        scene.anomalies[0].center,
    )
