"""Command line interface: select, ablate, synth.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
Log verbosity comes from the SARA_LOG environment variable (a standard
logging level name; default WARNING).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

from .config import SaraConfig, load_config
from .errors import SaraError
from .pipeline import run_ablation, run_select
from .synth import dump_scene, generate_orbit_scene

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    # argparse defaults to exit code 2 on usage errors; this tool reserves
    # 2 for data errors, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    # one flag per config field, named, typed and described by the field
    for f in dataclasses.fields(SaraConfig):
        parser.add_argument(f"--{f.name.replace('_', '-')}", default=None,
                            type=float if f.type == "float" else int,
                            help=f.metadata["help"])


def _assemble_config(args: argparse.Namespace) -> SaraConfig:
    config = load_config(args.config) if args.config else SaraConfig()
    overrides = {f.name: value for f in dataclasses.fields(SaraConfig)
                 if (value := getattr(args, f.name, None)) is not None}
    return dataclasses.replace(config, **overrides) if overrides else config


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sara",
                     description="Geometry-aware image pair selection")
    sub = parser.add_subparsers(dest="command", required=True)

    p_select = sub.add_parser("select", help="select match pairs for a dataset")
    p_select.add_argument("--manifest", required=True)
    p_select.add_argument("--out-pairs", required=True)
    p_select.add_argument("--out-report", required=True)
    p_select.add_argument("--out-run-report", default=None,
                          help="also write the run report JSON here")
    p_select.add_argument("--config", default=None, help="JSON config file")
    _add_config_flags(p_select)

    p_ablate = sub.add_parser("ablate", help="run all augmentation on/off variants")
    p_ablate.add_argument("--manifest", required=True)
    p_ablate.add_argument("--out-dir", required=True)
    p_ablate.add_argument("--config", default=None, help="JSON config file")
    _add_config_flags(p_ablate)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--out-dir", required=True)
    p_synth.add_argument("--n-cameras", type=int, default=20)
    p_synth.add_argument("--n-points", type=int, default=400)
    p_synth.add_argument("--radius", type=float, default=5.0)
    p_synth.add_argument("--noise-px", type=float, default=0.0)
    p_synth.add_argument("--noise-desc", type=float, default=0.0)
    p_synth.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_select(args) -> int:
    config = _assemble_config(args)
    report = run_select(args.manifest, config, args.out_pairs, args.out_report)
    text = report.to_json()
    if args.out_run_report:
        with open(args.out_run_report, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK


def _cmd_ablate(args) -> int:
    config = _assemble_config(args)
    reports = run_ablation(args.manifest, config, args.out_dir)
    summaries = {name: r.summary for name, r in reports.items()}
    print(json.dumps(summaries, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_synth(args) -> int:
    scene = generate_orbit_scene(
        n_cameras=args.n_cameras, n_points=args.n_points, radius=args.radius,
        noise_px=args.noise_px, seed=args.seed, noise_desc=args.noise_desc)
    manifest_path = dump_scene(scene, args.out_dir)
    print(manifest_path)
    return EXIT_OK


def main(argv=None) -> int:
    level = os.environ.get("SARA_LOG", "WARNING").upper()
    if not isinstance(logging.getLevelName(level), int):
        level = "WARNING"  # unknown names fall back instead of crashing
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"select": _cmd_select, "ablate": _cmd_ablate, "synth": _cmd_synth}
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        # bad parameter or config values are usage problems
        print(f"sara: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SaraError, OSError) as exc:
        print(f"sara: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - defensive
        print(f"sara: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
