"""Command-line interface.

    emitpair run <config-or-preset> [--set section.key=value]... [--workers N]
                 [--resume CHECKPOINT] [--out PATH] [--format csv|json]
                 [--no-timestamp]
    emitpair presets list
    emitpair validate <config-or-preset>

``--out``, ``--format`` and ``--workers`` set ``output.path``,
``output.format`` and ``run.workers`` and win over ``--set``.  ``run`` and
``validate`` both build the emitter's atomic model first, so an emitter the
model builders reject, or whose steady state the solver cannot certify, is a
configuration error.

Exit codes: 0 success, 1 configuration error, 2 runtime error, 3 success with
flagged points present in the output.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources

from .config import ConfigError, load_config, parse_overrides
from .liouville import SolverError, atomic_model
from .sweep import SweepInterrupted, run_sweep, write_result

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_PARTIAL = 3


def _preset_files():
    root = resources.files("emitpair").joinpath("presets")
    return sorted(
        (entry.name[:-4], entry) for entry in root.iterdir() if entry.name.endswith(".cfg")
    )


def _preset_description(entry):
    for line in entry.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line.startswith("#"):
            return line.lstrip("# ").strip()
        if line:
            break
    return ""


def _resolve_source(name):
    """A config argument is a file path first, then a preset name."""
    import os

    if os.path.exists(name):
        try:
            with open(name, "r", encoding="utf-8") as fh:
                return fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {name}: {exc}") from exc
    for preset, entry in _preset_files():
        if preset == name:
            return entry.read_text(encoding="utf-8")
    raise ConfigError(
        f"{name!r} is neither an existing config file nor a known preset "
        "(see: emitpair presets list)"
    )


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="emitpair",
        description="Spectra and photon-photon correlations of a driven "
        "coupled emitter pair.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a sweep configuration")
    run.add_argument("config", help="config file path or preset name")
    run.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override a config value (repeatable)",
    )
    run.add_argument("--workers", default=None, help="sets run.workers")
    run.add_argument("--resume", default=None, metavar="CHECKPOINT")
    run.add_argument("--out", default=None, help="sets output.path")
    run.add_argument("--format", default=None, help="sets output.format")
    run.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit timing header lines for byte-identical reruns",
    )

    presets = sub.add_parser("presets", help="preset management")
    presets.add_argument("action", choices=("list",))

    validate = sub.add_parser("validate", help="check a config and echo defaults")
    validate.add_argument("config", help="config file path or preset name")
    validate.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="K=V"
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "presets":
        for name, entry in _preset_files():
            print(f"{name:22s} {_preset_description(entry)}")
        return EXIT_OK

    try:
        overrides = parse_overrides(args.overrides)
        if args.command == "run":  # the flags win over --set
            flags = (("output", "path", args.out), ("output", "format", args.format),
                     ("run", "workers", args.workers))
            for sect, key, value in flags:
                if value is not None:
                    overrides.setdefault(sect, {})[key] = value
        cfg = load_config(_resolve_source(args.config), overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        atomic_model(cfg.emitter)
    except (SolverError, ValueError) as exc:
        print(f"config error: emitter: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "validate":
        for key, value in cfg.echo.items():
            print(f"{key} = {value}")
        return EXIT_OK

    try:
        table = run_sweep(cfg, resume_from=args.resume, timestamp=not args.no_timestamp)
        write_result(table, cfg.output_path, cfg.output_format)
    except SweepInterrupted as exc:
        print(f"interrupted: {exc} (resume with --resume {exc.checkpoint_path})",
              file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    flagged = table.flagged_count
    if flagged:
        print(f"wrote {cfg.output_path} ({len(table.rows)} rows, {flagged} flagged)")
        return EXIT_PARTIAL
    print(f"wrote {cfg.output_path} ({len(table.rows)} rows)")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
