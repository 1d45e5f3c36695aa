"""Command-line interface for the simulation and verification experiments.

Every subcommand builds an ExperimentConfig from a flat key=value config
file (if given) overridden by flags, runs the experiment, writes CSV/JSON
outputs, and exits 0 exactly when all enabled checks pass.
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .distributions import ModelParams, WLaw

_RUNNERS = {
    "limit-sample": harness.run_limit_sample,
    "occupancy": harness.run_occupancy_sim,
    "renewal": harness.run_renewal,
    "verify-bounds": harness.run_verify_bounds,
    "theorem-main": harness.run_theorem_main,
    "theorem-2": harness.run_theorem2,
    "theorem-3": harness.run_theorem3,
    "fixed-level": harness.run_fixed_level_link,
    "appendix": harness.run_appendix_checks,
}

_FORMATS = ("csv", "json", "both")

# flag and config-file keys that differ from the ExperimentConfig field they set
_RENAMED = {"log_n": "log_n_list", "j": "j_list", "u": "u_list"}


def _read_config_file(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line (want key=value): {line!r}")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sievesim",
        description="simulate and verify nested occupancy schemes with "
                    "heavy-tailed stick-breaking")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key=value config file; flags override")
        p.add_argument("--alpha", type=float)
        p.add_argument("--c", type=float)
        p.add_argument("--kappa", type=float)
        p.add_argument("--case", choices=["a", "b", "pareto"])
        p.add_argument("--log-n", type=float, action="append",
                       help="repeatable; doubles as the horizon t for walk-time runs")
        p.add_argument("--j", type=int, action="append",
                       help="repeatable, one per --log-n (single value applies to all)")
        p.add_argument("--u", type=float, action="append")
        p.add_argument("--replicas", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--workers", type=int)
        p.add_argument("--out", default=".")
        p.add_argument("--format", choices=_FORMATS)
    return parser


def _merged_settings(args) -> dict:
    """Config-file entries overridden by flags, keyed by ExperimentConfig
    field name; case, alpha, c and kappa set the model parameters, and
    format the output format."""
    settings = _read_config_file(args.config) if args.config else {}
    settings.update((key, val) for key, val in vars(args).items()
                    if val is not None and key not in ("command", "config", "out"))
    return {_RENAMED.get(key, key): val for key, val in settings.items()}


def _number(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def _convert(key, val, default):
    """A flag value or config-file string as the type of the field default;
    a tuple when the default is a tuple or None.  A value that does not
    convert raises ValueError naming the key."""
    try:
        if default is None or isinstance(default, tuple):
            items = val.split(",") if isinstance(val, str) else val
            return tuple(_number(x.strip()) if isinstance(x, str) else x for x in items)
        return type(default)(val)
    except ValueError as exc:
        raise ValueError(f"bad value for {key!r}: {exc}") from None


def _build_config(settings: dict) -> harness.ExperimentConfig:
    """ExperimentConfig from merged settings; an unknown key raises ValueError."""
    settings = dict(settings)
    params = ModelParams(law=WLaw(settings.pop("case", "a")),
                         **{key: _convert(key, settings.pop(key), 0.0)
                            for key in ("alpha", "c", "kappa") if key in settings})
    fields = harness.ExperimentConfig.__dataclass_fields__
    kwargs = {}
    for key, val in settings.items():
        if key not in fields or key == "params":
            raise ValueError(f"unknown config key {key!r}")
        kwargs[key] = _convert(key, val, fields[key].default)
    if len(kwargs.get("j_list", ())) == 1:  # one depth applies to every log_n
        n_logn = len(kwargs.get("log_n_list", fields["log_n_list"].default))
        kwargs["j_list"] *= n_logn
    return harness.ExperimentConfig(params=params, **kwargs)


def main(argv=None) -> int:
    args = _parser().parse_args(sys.argv[1:] if argv is None else argv)
    settings = _merged_settings(args)
    fmt = settings.pop("format", "both")
    if fmt not in _FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    extra = [key for key in settings if key != "seed"]
    if args.command == "appendix" and extra:
        raise ValueError(f"appendix takes only seed and format, not {extra[0]!r}")
    report = _RUNNERS[args.command](_build_config(settings))
    paths = harness.emit(report, fmt, args.out)
    for check in report.checks:
        state = "PASS" if check["passed"] else "FAIL"
        print(f"[{state}] {check['name']}: {check['value']} (threshold {check['threshold']})")
    for path in paths:
        print(f"wrote {path}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
