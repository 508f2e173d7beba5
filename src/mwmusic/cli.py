"""Command line interface.

    mwmusic run <config> [--preset NAME] [--out DIR] [--resolution N]
                [--mode full|asymptotic] [--variant exact|plane]
                [--signal-dim M] [--seed S]
    mwmusic validate <config>
    mwmusic compare <empirical.csv> <config>

Exit codes: 0 success, 2 configuration/validation failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from . import forward as fw
from . import harness
from . import music as mu
from . import theory as th
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
    return parser


def _load(args) -> harness.ExperimentConfig:
    overrides = {}
    if getattr(args, "out", None) is not None:
        overrides["out_dir"] = args.out
    if getattr(args, "resolution", None) is not None:
        overrides["resolution"] = args.resolution
    if getattr(args, "mode", None) is not None:
        overrides["forward_mode"] = _MODE_ALIASES[args.mode]
    if getattr(args, "variant", None) is not None:
        overrides["test_variant"] = _VARIANT_ALIASES[args.variant]
    if getattr(args, "signal_dim", None) is not None:
        overrides["signal_dim"] = args.signal_dim
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    return harness.load_config(args.config, preset=getattr(args, "preset", None), **overrides)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = _load(args)
            report = harness.run_experiment(config)
            print(f"report: {config.out_dir / 'report.json'} ({len(report.records)} records)")
            return 0
        if args.command == "validate":
            config = _load(args)
            k_bw = config.scene.background_wavenumber()
            print(f"k_bw = {k_bw:.6g}")
            for ratio in config.ratios:
                k_aw = th.mismatched_wavenumber(
                    config.scene.background, config.scene.omega, config.sweep_kind, ratio
                )
                for diag in validate_scene(config.scene, k_aw):
                    print(f"[{config.sweep_kind}={ratio:g}] {diag.condition}: "
                          f"{diag.status} ({diag.detail})")
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
    except (NumericalError, TruncationError, DegenerateDataError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
