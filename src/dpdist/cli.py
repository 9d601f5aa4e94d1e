"""Command-line experiment harness.

Two subcommands::

    dpdist list
    dpdist run --experiment NAME [--config FILE] [--seed S] [flags...]

Config files are flat ``key = value`` text (``#`` starts a comment); every
key can also be given as a command-line flag of the same name, which takes
precedence.  Output is UTF-8 CSV with the fixed header
``experiment,trial,param_json,metric,value``; identical (config, seed)
pairs produce byte-identical files.  Floats are printed with 17 significant
digits so they round-trip.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import typing
from typing import Any, Dict, Optional, Sequence

import numpy as np

from .experiments import EXPERIMENTS, ExperimentConfig, experiment_def, run_rows

__all__ = ["main", "run_experiment", "list_experiments", "render_csv"]

CSV_HEADER = ["experiment", "trial", "param_json", "metric", "value"]

# The flag and config-key schema: every ExperimentConfig field, with the
# type its value is parsed as (int, float or str).
_FIELD_TYPES = {
    name: next((a for a in typing.get_args(hint) if a is not type(None)), hint)
    for name, hint in typing.get_type_hints(ExperimentConfig).items()
}
_FLAG_HELP = {
    "experiment": "experiment name (see `dpdist list`)",
    "seed": "64-bit master seed (default 0)",
    "out": "output CSV path (default: stdout)",
}


def _format_value(v: Any) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def render_csv(experiment: str, params: Dict[str, Any], rows) -> str:
    """Render result rows to the stable CSV schema."""
    param_json = json.dumps(params, sort_keys=True, separators=(",", ":"))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(
        (experiment, trial, param_json, metric, _format_value(value)) for trial, metric, value in rows
    )
    return buf.getvalue()


def run_experiment(cfg: ExperimentConfig) -> str:
    """Run one experiment and return (and optionally write) its CSV text."""
    params, rows = run_rows(cfg)
    text = render_csv(cfg.experiment, params, rows)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text


def list_experiments() -> None:
    """Print the experiment registry with what each run reproduces."""
    width = max(len(name) for name in EXPERIMENTS)
    for name in sorted(EXPERIMENTS):
        e = EXPERIMENTS[name]
        print(f"{name:<{width}}  {e.description}")
        print(f"{'':<{width}}  reproduces: {e.reproduces}")


def parse_config_file(path: str) -> Dict[str, Any]:
    """Parse a flat key = value config file."""
    out: Dict[str, Any] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {raw.rstrip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key.replace("-", "_")] = _coerce(key.replace("-", "_"), value, path, lineno)
    return out


def _coerce(key: str, value: str, path: str, lineno: int) -> Any:
    if key not in _FIELD_TYPES:
        raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
    try:
        return _FIELD_TYPES[key](value)
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: {key}: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpdist",
        description="Run the distributed-privacy experiments and emit CSV results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list registered experiments")
    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("--config", help="flat key = value config file")
    for name, kind in _FIELD_TYPES.items():
        run.add_argument("--" + name.replace("_", "-"), type=kind, help=_FLAG_HELP.get(name))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        list_experiments()
        return 0

    settings: Dict[str, Any] = {}
    try:
        if args.config:
            settings.update(parse_config_file(args.config))
    except (OSError, ValueError) as exc:
        print(f"dpdist: {exc}", file=sys.stderr)
        return 2
    for name in _FIELD_TYPES:
        value = getattr(args, name)
        if value is not None:
            settings[name] = value
    if "experiment" not in settings:
        print("dpdist: --experiment is required (or set it in the config file)", file=sys.stderr)
        return 2

    try:
        experiment_def(settings["experiment"])
    except KeyError as exc:
        print(f"dpdist: {exc.args[0]}", file=sys.stderr)
        return 2
    try:
        cfg = ExperimentConfig(**settings)
        text = run_experiment(cfg)
    except ValueError as exc:
        print(f"dpdist: invalid parameters: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"dpdist: {exc}", file=sys.stderr)
        return 2
    if not cfg.out:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
