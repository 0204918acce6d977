"""Command-line entry point: simulations, single-stream evaluation, boosting
factors, adversarial sharpness runs, and oracle cross-checks.

Each subcommand declares its options once, in a table of config key, type,
default, choices and help.  Every flag is also a config key, written with
dashes or underscores (``--batch-size`` is ``batch-size`` or ``batch_size``),
and a config-file value is read with the flag's type and choices; a key
appears once in a file.
`simulate`'s flags other than --procedures, --pi-a (a grid) and --output
are the fields of ``GaussianSetupConfig``, with its defaults.

Config precedence: command-line flags > config file (flat key=value lines,
`#` comments) > built-in defaults.

Exit status: 0 on success, 1 for a bad score in `stream` or a solver
failure in `boost-factor` or `simulate`, 2 for bad usage or configuration.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from dataclasses import fields
from typing import NamedTuple

from .simulate import GaussianSetupConfig

CSV_COLUMNS = ("procedure", "pi_a", "mu_a", "q", "alpha", "metric", "value",
               "stderr", "n", "m", "seed")

_FLAGS = {"true": True, "1": True, "false": False, "0": False}


class _Option(NamedTuple):
    """A subcommand option; its flag is its config key with dashes.  A bool
    option is a flag without a value.  ``check`` raises ValueError for a
    value its command will refuse (pi_a's grid), so that a file value is
    refused with its line."""
    type: type
    default: object = None
    choices: tuple | None = None
    help: str | None = None
    check: object = None


def _read_config(path: str) -> dict:
    """key -> (value, line number) of a flat key=value file, in which a key,
    with dashes or underscores, appears once."""
    cfg = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key in cfg:
                raise ValueError(f"{path}:{lineno}: config key {key!r} "
                                 f"repeats line {cfg[key][1]}")
            cfg[key] = (value.strip(), lineno)
    return cfg


def _merge(args: argparse.Namespace, options: dict) -> dict:
    """flags > config file > defaults; argparse leaves unset flags as None.
    A file value is read with its option's type and must be one of its
    choices."""
    merged = {key: opt.default for key, opt in options.items()}
    if args.config:
        for key, (value, lineno) in _read_config(args.config).items():
            where = f"{args.config}:{lineno}: config key {key!r}"
            if key not in options:
                raise ValueError(f"{where} is unknown")
            opt = options[key]
            if opt.type is bool:
                # bool("false") is True, so flags are read by name
                if value.lower() not in _FLAGS:
                    raise ValueError(f"{where} must be true, false, 1 or 0, got {value!r}")
                value = _FLAGS[value.lower()]
            else:
                try:
                    value = opt.type(value)
                except ValueError:
                    raise ValueError(f"{where} expects {opt.type.__name__}, "
                                     f"got {value!r}") from None
            if opt.choices and value not in opt.choices:
                raise ValueError(f"{where} must be {' or '.join(opt.choices)}, "
                                 f"got {value!r}")
            if opt.check is not None:
                try:
                    opt.check(value)
                except ValueError as exc:
                    raise ValueError(f"{where}: {exc}") from None
            merged[key] = value
    for key in options:
        value = getattr(args, key)
        if value is not None:
            merged[key] = value
    return merged


def _parse_grid(spec: str) -> list:
    """A single float or start:stop:step (inclusive stop, within rounding)."""
    def number(part):
        try:
            return float(part)
        except ValueError:
            raise ValueError(f"grid {spec!r}: {part!r} is not a number") from None

    if ":" not in spec:
        return [number(spec)]
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be value or start:stop:step, got {spec!r}")
    start, stop, step = map(number, parts)
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError(f"grid {spec!r}: start, stop and step must be finite")
    if step <= 0:
        raise ValueError("grid step must be positive")
    if step < 1e-12:
        raise ValueError(f"grid {spec!r}: step below 1e-12, finer than its 12-digit rounding")
    # rounding moves a point by at most 5e-13 <= step / 2, so no point past
    # index span + 1 is within the stop's 1e-9 slack
    span = (stop + 1e-9 - start) / step
    if span >= 1e6:
        raise ValueError(f"grid {spec!r}: more than a million points")
    out = []
    for i in range(math.floor(span) + 2):
        v = round(start + i * step, 12)
        if v > stop + 1e-9:
            break
        out.append(v)
    if not out:
        raise ValueError(f"grid {spec!r} has no points: stop is below start")
    return out


def _write_csv(path: str | None, rows: list):
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c])
                              for c in CSV_COLUMNS))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    # never leave a partial file at the target: write to temp, rename
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# GaussianSetupConfig's fields and defaults; pi_a keeps its place but is a grid
SIMULATE_OPTIONS = {
    "procedures": _Option(str, "oe-bh,e-lond", help="comma list or 'all'"),
    **{f.name: _Option(type(f.default), f.default) for f in fields(GaussianSetupConfig)},
    "pi_a": _Option(str, "0.1", help="value or start:stop:step", check=_parse_grid),
    "output": _Option(str, help="CSV path (stdout if omitted)"),
}


def cmd_simulate(cfg: dict) -> int:
    from .boosting import SolverError
    from .simulate import ALL_PROCEDURES, run_experiment

    names = (list(ALL_PROCEDURES) if cfg["procedures"] == "all"
             else [p.strip() for p in cfg["procedures"].split(",") if p.strip()])
    pi_as = _parse_grid(cfg["pi_a"])
    base = GaussianSetupConfig(**{f.name: cfg[f.name] for f in fields(GaussianSetupConfig)
                                  if f.name != "pi_a"}, pi_a=pi_as[0])
    try:
        rows = run_experiment(base, names, pi_as, cache={})
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_csv(cfg["output"], rows)
    return 0


STREAM_OPTIONS = {"kind": _Option(str, "e", ("p", "e")), "alpha": _Option(float, 0.05),
                  "gamma": _Option(str, "geometric:0.99", help="uniform:K or geometric:q")}


def cmd_stream(cfg: dict) -> int:
    from .core import InputError, WeightSequence
    from .e_procedures import OnlineEBH
    from .p_procedures import OnlineBH

    family, _, param = cfg["gamma"].partition(":")
    families = {"uniform": (int, WeightSequence.uniform_finite),
                "geometric": (float, WeightSequence.geometric)}
    try:
        parse, make = families[family]
        param = parse(param)
    except (KeyError, ValueError):
        raise ValueError("gamma must be uniform:K or geometric:q, "
                         f"got {cfg['gamma']!r}") from None
    cls = OnlineEBH if cfg["kind"] == "e" else OnlineBH
    proc = cls(make(param), cfg["alpha"])
    for lineno, raw in enumerate(sys.stdin, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rejected = proc.step(float(line))
        except (ValueError, InputError) as exc:
            print(f"line {lineno}: invalid score {line!r}: {exc}", file=sys.stderr)
            return 1
        shown = "{" + ",".join(map(str, rejected.indices)) + "}"
        new = "{" + ",".join(map(str, proc.newly_rejected)) + "}"
        print(f"t={proc.t} k*={proc.k_star} rejected={shown} new={new}")
    return 0


_BOOST_PRESET = (
    # (variant, s, lag)
    ("plus", 10, None), ("plus", 100, None),
    ("minus", 10, None), ("minus", 100, None),
    ("local_plus", 100, 2), ("local_plus", 100, 10),
    ("local_minus", 100, 2), ("local_minus", 100, 10),
)

BOOST_FACTOR_OPTIONS = {
    "preset": _Option(str, help="'example' prints the reference table"),
    "variant": _Option(str, "plus", ("plus", "minus", "local_plus", "local_minus", "prds")),
    "alpha": _Option(float, 0.05), "gamma": _Option(float, 0.01), "s": _Option(int, 100),
    "lag": _Option(int), "delta": _Option(float, 3.0)}


def cmd_boost_factor(cfg: dict) -> int:
    from .boosting import (_RESIDUAL_MAX, GaussianLRModel, SolverError,
                           TruncationSpec, TruncationVariant, solve_boost_factor)
    from .oracles import expected_truncated_reference

    if cfg["preset"] is not None and cfg["preset"] != "example":
        raise ValueError(f"unknown preset {cfg['preset']!r}")
    if cfg["preset"] == "example":
        cases = [(v, s, lag, 0.05, 0.01, 3.0) for v, s, lag in _BOOST_PRESET]
    else:
        cases = [tuple(cfg[key] for key in ("variant", "s", "lag", "alpha", "gamma", "delta"))]
    print(f"{'variant':<12} {'s':>5} {'lag':>4} {'b':>10} {'residual':>10}")
    status = 0
    for variant, s, lag, alpha, gamma, delta in cases:
        try:
            spec = TruncationSpec(TruncationVariant(variant), alpha, gamma,
                                  s=s, lag_kstar=lag)
            model = GaussianLRModel(delta)
            b = solve_boost_factor(model, spec)
            # against the bracket sum, not the solver's own curve
            residual = expected_truncated_reference(model, spec, b) - 1.0
            lag_str = "-" if lag is None else str(lag)
            print(f"{variant:<12} {s:>5} {lag_str:>4} {b:>10.4f} {residual:>10.2e}")
            if not abs(residual) <= _RESIDUAL_MAX:
                print(f"{variant} s={s} lag={lag}: residual against the "
                      f"reference exceeds {_RESIDUAL_MAX}", file=sys.stderr)
                status = 1
        except (SolverError, ValueError) as exc:
            print(f"{variant} s={s} lag={lag}: {exc}", file=sys.stderr)
            status = 1
    return status


ADVERSARIAL_OPTIONS = {"k0": _Option(int, 1000), "alpha": _Option(float, 0.05),
                       "m": _Option(int, 500), "seed": _Option(int, 0), "k": _Option(int)}


def cmd_adversarial(cfg: dict) -> int:
    from .simulate import AdversarialConfig, run_adversarial

    acfg = AdversarialConfig(K0=cfg["k0"], alpha=cfg["alpha"], m=cfg["m"],
                             seed=cfg["seed"], K=cfg["k"])
    res = run_adversarial(acfg)
    print(f"K0={acfg.K0} K={acfg.total} alpha={acfg.alpha} m={acfg.m}")
    print(f"mean_fdp={res['mean_fdp']:.6f} se={res['se']:.6f} "
          f"trials={res['n_trials']} infeasible={res['n_infeasible']} "
          f"fdp_over_alpha={res['mean_fdp'] / acfg.alpha:.3f}")
    return 0


ORACLE_CHECK_OPTIONS = {"k": _Option(int, 50), "instances": _Option(int, 1000),
                        "alpha": _Option(float, 0.1), "lam": _Option(float, 0.5),
                        "seed": _Option(int, 0)}


def cmd_oracle_check(cfg: dict) -> int:
    import numpy as np

    from .core import WeightSequence
    from .e_procedures import OnlineEBH
    from .oracles import offline_bh, offline_ebh, offline_storey_bh
    from .p_procedures import OnlineBH, OnlineStoreyBH

    K, inst, alpha, lam = cfg["k"], cfg["instances"], cfg["alpha"], cfg["lam"]
    rng = np.random.default_rng(cfg["seed"])
    weights = WeightSequence.uniform_finite(K)
    mismatches = 0
    for _ in range(inst):
        p = rng.random(K)
        e = np.exp(3.0 * rng.standard_normal(K) - 4.5)
        checks = (
            (set(OnlineBH(weights, alpha).run(p).rejection_set().indices),
             offline_bh(p, alpha)),
            (set(OnlineEBH(weights, alpha).run(e).rejection_set().indices),
             offline_ebh(e, alpha)),
            (set(OnlineStoreyBH(weights, alpha, lam).run(p).rejection_set().indices),
             offline_storey_bh(p, alpha, lam)),
        )
        mismatches += sum(1 for online, offline in checks if online != offline)
    print(f"K={K} instances={inst} mismatches={mismatches}")
    return 0 if mismatches == 0 else 1


COMMANDS = {  # name: (run, help, options)
    "simulate": (cmd_simulate, "run the Gaussian Monte-Carlo setup, emit CSV",
                 SIMULATE_OPTIONS),
    "stream": (cmd_stream, "evaluate scores from stdin, one per line", STREAM_OPTIONS),
    "boost-factor": (cmd_boost_factor, "solve Gaussian boosting factors",
                     BOOST_FACTOR_OPTIONS),
    "adversarial": (cmd_adversarial, "sharpness construction for online BH",
                    ADVERSARIAL_OPTIONS),
    "oracle-check": (cmd_oracle_check, "online vs offline agreement check",
                     ORACLE_CHECK_OPTIONS),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcfdr",
        description="Online accept-to-reject-changes multiple testing toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config")
        for key, opt in options.items():
            flag = "--" + key.replace("_", "-")
            if opt.type is bool:
                p.add_argument(flag, action="store_const", const=True, help=opt.help)
            else:
                p.add_argument(flag, type=opt.type, choices=opt.choices, help=opt.help)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    run, _, options = COMMANDS[args.subcommand]
    try:
        return run(_merge(args, options))
    except BrokenPipeError:
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
