"""Configuration-driven experiment runner.

A run sweeps one mismatched background parameter over a list of ratios,
images the same synthetic data with each wrong wavenumber, and writes per
ratio a reciprocal-map CSV, a projection-norm CSV, and a PGM rendering,
plus one JSON report. Runs are deterministic for a fixed config and seed;
wall-clock timings are printed but kept out of the artifacts so repeated
runs stay byte-identical.

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
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path


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
    Wavenumber,
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
        if not (16 <= self.resolution <= 2048):
            raise ConfigurationError(f"resolution must lie in [16, 2048], got {self.resolution}")
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
        parser.read(path)
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


def run_experiment(config: ExperimentConfig, log=print) -> RunReport:
    """Execute the sweep and write artifacts into config.out_dir.

    Raises with partial artifacts removed if any ratio fails; a directory
    the run created is removed with them.
    """
    scene = config.scene
    out_dir = Path(config.out_dir)
    k_bw = scene.background_wavenumber()
    data = fw.scattering_matrix(scene, k_bw, config.forward_mode)
    if config.snr_db != fw.NOISELESS:
        data = fw.add_noise(data, config.snr_db, config.seed)
    grid = mu.grid_for_roi(scene.roi_radius, config.resolution)

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

    # the outermost directory this run creates, if any
    created = next((p for p in (*reversed(out_dir.parents), out_dir) if not p.exists()), None)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    records: list[RatioRecord] = []
    try:
        for ratio in config.ratios:
            t0 = time.perf_counter()
            k_aw = th.mismatched_wavenumber(
                scene.background, scene.omega, th.MismatchSpec(config.sweep_kind, ratio)
            )
            diags = validate_scene(scene, k_aw)
            image = mu.imaging_map(basis, k_aw, scene.array, grid, variant=config.test_variant)
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
                    dec.left_vectors[:, :1], k_aw, scene.array, grid,
                    variant=config.test_variant,
                )
                ctx = th.TheoryContext(
                    k_bw=k_bw, k_aw=k_aw, r_star=scene.anomalies[0].center, array=scene.array
                )
                closed_form = th.compare_maps(norm_image, ctx, grid).as_dict()

            label = _ratio_label(config.sweep_kind, ratio)
            map_path = out_dir / f"map-{label}.csv"
            norm_path = out_dir / f"norm-{label}.csv"
            pgm_path = out_dir / f"map-{label}.pgm"
            mu.write_map_csv(image, map_path)
            mu.write_map_csv(image, norm_path, which="raw_norm")
            mu.write_map_pgm(image, pgm_path)
            written += [map_path, norm_path, pgm_path]

            elapsed = time.perf_counter() - t0
            record = RatioRecord(
                ratio=float(ratio),
                k_aw=k_aw.value,
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
    except Exception:
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


def compare_saved_map(csv_path, config: ExperimentConfig) -> th.MapComparison:
    """Theory comparison for a saved projection-norm CSV.

    The CSV must be a norm map (values in [0, 1]); the context is rebuilt
    from the config scene and the k_aw recorded in the CSV header.
    """
    scene = config.scene
    if len(scene.anomalies) != 1:
        raise ConfigurationError("theory comparison needs a single-anomaly scene")
    loaded = mu.read_map_csv(csv_path, roi_radius=scene.roi_radius)
    k_bw = scene.background_wavenumber()
    ctx = th.TheoryContext(
        k_bw=k_bw,
        k_aw=Wavenumber(omega=scene.omega, value=loaded.k_aw),
        r_star=scene.anomalies[0].center,
        array=scene.array,
    )
    empirical = mu.ImageMap(
        grid=loaded.grid, values=loaded.values, raw_norm=loaded.values, k_aw=loaded.k_aw
    )
    return th.compare_maps(empirical, ctx, loaded.grid)
