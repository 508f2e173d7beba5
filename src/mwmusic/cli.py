"""Command line interface.

    mwmusic run <config> [--preset NAME] [--out DIR] [--resolution N]
                [--mode full|asymptotic] [--variant exact|plane]
                [--signal-dim M] [--seed S]
    mwmusic validate <config>
    mwmusic compare <empirical.csv> <config> [--preset NAME]

Exit codes: 0 success, 2 configuration/validation failure or an artifact
that cannot be written, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from . import forward as fw
from . import harness
from . import music as mu
from .errors import (
    ConfigurationError,
    DegenerateDataError,
    DomainError,
    NumericalError,
    TruncationError,
)
from .scene import validate_scene

_MODE_ALIASES = {"full": fw.FULL_HANKEL, "asymptotic": fw.ASYMPTOTIC}
_VARIANT_ALIASES = {"exact": mu.EXACT_FIELD, "plane": mu.PLANE_WAVE}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mwmusic", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a mismatch sweep and write artifacts")
    run.add_argument("config", help="experiment config file (INI)")
    run.add_argument("--preset", choices=sorted(harness.PRESETS), default=None)
    run.add_argument("--out", default=None, help="output directory")
    run.add_argument("--resolution", type=int, default=None)
    run.add_argument("--mode", choices=sorted(_MODE_ALIASES), default=None)
    run.add_argument("--variant", choices=sorted(_VARIANT_ALIASES), default=None)
    run.add_argument("--signal-dim", type=int, default=None)
    run.add_argument("--seed", type=int, default=None)

    val = sub.add_parser("validate", help="check a config and print scene diagnostics")
    val.add_argument("config")

    cmp_cmd = sub.add_parser("compare", help="theory comparison for a saved norm-map CSV")
    cmp_cmd.add_argument("empirical", help="projection-norm CSV written by a run")
    cmp_cmd.add_argument("config")
    cmp_cmd.add_argument("--preset", choices=sorted(harness.PRESETS), default=None)
    return parser


def _load(args) -> harness.ExperimentConfig:
    # load_config ignores the overrides that are None
    return harness.load_config(
        args.config,
        preset=getattr(args, "preset", None),
        out_dir=getattr(args, "out", None),
        resolution=getattr(args, "resolution", None),
        forward_mode=_MODE_ALIASES.get(getattr(args, "mode", None)),
        test_variant=_VARIANT_ALIASES.get(getattr(args, "variant", None)),
        signal_dim=getattr(args, "signal_dim", None),
        seed=getattr(args, "seed", None),
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = _load(args)
            report = harness.run_experiment(config)
            print(f"report: {config.out_dir / 'report.json'} ({len(report['records'])} records)")
            return 0
        if args.command == "validate":
            config = _load(args)
            k_bw = config.scene.background_wavenumber()
            print(f"k_bw = {k_bw:.6g}")
            for ratio in config.ratios:
                k_aw = harness.sweep_wavenumber(config, ratio)
                for diag in validate_scene(config.scene, k_aw):
                    print(f"[{config.sweep_kind}={ratio:g}] {diag['condition']}: "
                          f"{diag['status']} ({diag['detail']})")
            floor = 1.0 / (config.scene.array.count - 1)  # loss only raises it
            if config.signal_dim is None and config.threshold_ratio <= floor:
                print(f"warn: threshold_ratio {config.threshold_ratio:g} <= 1/(N - 1) = {floor:.3g}, "
                      "the least tau_2/tau_1 of one anomaly's zero-diagonal data; set signal_dim")
            return 0
        if args.command == "compare":
            config = _load(args)
            for key, value in harness.compare_saved_map(args.empirical, config).items():
                print(f"{key}: {value!r}")
            return 0
        raise AssertionError("unreachable")
    except (ConfigurationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an artifact the run or its writer cannot write
        named = f"cannot write {exc.filename}: {exc.strerror}" if exc.filename else exc
        print(f"error: {named}", file=sys.stderr)
        return 2
    except (NumericalError, TruncationError, DegenerateDataError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
