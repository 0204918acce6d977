"""Command-line entry point: simulations, single-stream evaluation, boosting
factors, adversarial sharpness runs, and oracle cross-checks.

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
from bisect import insort

CSV_COLUMNS = ("procedure", "pi_a", "mu_a", "q", "alpha", "metric", "value",
               "stderr", "n", "m", "seed")

_FLAGS = {"true": True, "1": True, "false": False, "0": False}
_KINDS = ("p", "e")


def _read_config(path: str) -> dict:
    """key -> (value, line number) of a flat key=value file."""
    cfg = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = line.split("=", 1)
            cfg[key.strip().replace("-", "_")] = (value.strip(), lineno)
    return cfg


def _merge(args: argparse.Namespace, defaults: dict, choices=None) -> dict:
    """flags > config file > defaults; argparse leaves unset flags as None.
    A file value of a key in choices must be one of the values listed."""
    choices = choices or {}
    merged = dict(defaults)
    if getattr(args, "config", None):
        path = args.config
        for key, (value, lineno) in _read_config(path).items():
            where = f"{path}:{lineno}: config key {key!r}"
            if key not in defaults:
                raise ValueError(f"{where} is unknown")
            default = defaults[key]
            if isinstance(default, bool):
                # bool("false") is True, so flags are read by name
                if value.lower() not in _FLAGS:
                    raise ValueError(f"{where} must be true, false, 1 or 0, got {value!r}")
                value = _FLAGS[value.lower()]
            elif default is not None:
                try:
                    value = type(default)(value)
                except ValueError:
                    raise ValueError(f"{where} expects {type(default).__name__}, "
                                     f"got {value!r}") from None
            if key in choices and value not in choices[key]:
                raise ValueError(f"{where} must be {' or '.join(choices[key])}, "
                                 f"got {value!r}")
            merged[key] = value
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _parse_grid(spec: str) -> list:
    """A single float or start:stop:step (inclusive stop, within rounding)."""
    if ":" not in spec:
        return [float(spec)]
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be value or start:stop:step, got {spec!r}")
    start, stop, step = (float(p) for p in parts)
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


def cmd_simulate(args) -> int:
    from .boosting import SolverError
    from .simulate import ALL_PROCEDURES, GaussianSetupConfig, run_experiment

    defaults = {"procedures": "oe-bh,e-lond", "mu_a": 3.5, "pi_a": "0.1",
                "n": 1000, "m": 100, "q": 0.99, "alpha": 0.05, "lam": 0.5,
                "batch_size": 20, "rho": 0.5, "seed": 0, "p_from_z": False,
                "output": None}
    cfg = _merge(args, defaults)
    names = (list(ALL_PROCEDURES) if cfg["procedures"] == "all"
             else [p.strip() for p in str(cfg["procedures"]).split(",") if p.strip()])
    pi_as = _parse_grid(str(cfg["pi_a"]))
    base = GaussianSetupConfig(
        n=int(cfg["n"]), m=int(cfg["m"]), mu_a=float(cfg["mu_a"]),
        pi_a=pi_as[0], batch_size=int(cfg["batch_size"]), rho=float(cfg["rho"]),
        q=float(cfg["q"]), alpha=float(cfg["alpha"]), lam=float(cfg["lam"]),
        seed=int(cfg["seed"]), p_from_z=bool(cfg["p_from_z"]))
    try:
        rows = run_experiment(base, names, pi_as, cache={})
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_csv(cfg["output"], rows)
    return 0


def cmd_stream(args) -> int:
    from .core import InputError, WeightSequence
    from .e_procedures import OnlineEBH
    from .p_procedures import OnlineBH

    defaults = {"kind": "e", "alpha": 0.05, "gamma": "geometric:0.99"}
    cfg = _merge(args, defaults, choices={"kind": _KINDS})
    gspec = str(cfg["gamma"])
    if gspec.startswith("uniform:"):
        weights = WeightSequence.uniform_finite(int(gspec.split(":", 1)[1]))
    elif gspec.startswith("geometric:"):
        weights = WeightSequence.geometric(float(gspec.split(":", 1)[1]))
    else:
        raise ValueError(f"gamma must be uniform:K or geometric:q, got {gspec!r}")
    cls = OnlineEBH if cfg["kind"] == "e" else OnlineBH
    proc = cls(weights, float(cfg["alpha"]))
    rejected = []  # R_t in ascending order, kept here as every line prints it
    for lineno, raw in enumerate(sys.stdin, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            value = float(line)
            proc.step(value)
        except (ValueError, InputError) as exc:
            print(f"line {lineno}: invalid score {line!r}: {exc}", file=sys.stderr)
            return 1
        for i in proc.newly_rejected:
            insort(rejected, i)
        shown = "{" + ",".join(str(i) for i in rejected) + "}"
        new = "{" + ",".join(str(i) for i in proc.newly_rejected) + "}"
        print(f"t={proc.t} k*={proc.k_star} rejected={shown} new={new}")
    return 0


_BOOST_PRESET = (
    # (variant, s, lag)
    ("plus", 10, None), ("plus", 100, None),
    ("minus", 10, None), ("minus", 100, None),
    ("local_plus", 100, 2), ("local_plus", 100, 10),
    ("local_minus", 100, 2), ("local_minus", 100, 10),
)


def cmd_boost_factor(args) -> int:
    from .boosting import (_RESIDUAL_MAX, GaussianLRModel, SolverError,
                           TruncationSpec, TruncationVariant, solve_boost_factor)
    from .oracles import expected_truncated_reference

    defaults = {"preset": None, "variant": "plus", "alpha": 0.05,
                "gamma": 0.01, "s": 100, "lag": None, "delta": 3.0}
    cfg = _merge(args, defaults)
    if cfg["preset"] is not None and cfg["preset"] != "example":
        raise ValueError(f"unknown preset {cfg['preset']!r}")
    if cfg["preset"] == "example":
        cases = [(v, s, lag, 0.05, 0.01, 3.0) for v, s, lag in _BOOST_PRESET]
    else:
        cases = [(str(cfg["variant"]), int(cfg["s"]),
                  None if cfg["lag"] is None else int(cfg["lag"]),
                  float(cfg["alpha"]), float(cfg["gamma"]), float(cfg["delta"]))]
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


def cmd_adversarial(args) -> int:
    from .simulate import AdversarialConfig, run_adversarial

    defaults = {"k0": 1000, "alpha": 0.05, "m": 500, "seed": 0, "k": None}
    cfg = _merge(args, defaults)
    acfg = AdversarialConfig(K0=int(cfg["k0"]), alpha=float(cfg["alpha"]),
                             m=int(cfg["m"]), seed=int(cfg["seed"]),
                             K=None if cfg["k"] is None else int(cfg["k"]))
    res = run_adversarial(acfg)
    print(f"K0={acfg.K0} K={acfg.total} alpha={acfg.alpha} m={acfg.m}")
    print(f"mean_fdp={res['mean_fdp']:.6f} se={res['se']:.6f} "
          f"trials={res['n_trials']} infeasible={res['n_infeasible']} "
          f"fdp_over_alpha={res['mean_fdp'] / acfg.alpha:.3f}")
    return 0


def cmd_oracle_check(args) -> int:
    import numpy as np

    from .core import WeightSequence
    from .e_procedures import OnlineEBH
    from .oracles import offline_bh, offline_ebh, offline_storey_bh
    from .p_procedures import OnlineBH, OnlineStoreyBH

    defaults = {"k": 50, "instances": 1000, "alpha": 0.1, "lam": 0.5, "seed": 0}
    cfg = _merge(args, defaults)
    K, inst = int(cfg["k"]), int(cfg["instances"])
    alpha, lam = float(cfg["alpha"]), float(cfg["lam"])
    rng = np.random.default_rng(int(cfg["seed"]))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcfdr",
        description="Online accept-to-reject-changes multiple testing toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="run the Gaussian Monte-Carlo setup, emit CSV")
    p.add_argument("--config")
    p.add_argument("--procedures", help="comma list or 'all'")
    p.add_argument("--mu-a", dest="mu_a", type=float)
    p.add_argument("--pi-a", dest="pi_a", help="value or start:stop:step")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--q", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--lam", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--rho", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--p-from-z", dest="p_from_z", action="store_const", const=True)
    p.add_argument("--output", help="CSV path (stdout if omitted)")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("stream", help="evaluate scores from stdin, one per line")
    p.add_argument("--config")
    p.add_argument("--kind", choices=_KINDS)
    p.add_argument("--alpha", type=float)
    p.add_argument("--gamma", help="uniform:K or geometric:q")
    p.set_defaults(fn=cmd_stream)

    p = sub.add_parser("boost-factor", help="solve Gaussian boosting factors")
    p.add_argument("--config")
    p.add_argument("--preset", help="'example' prints the reference table")
    p.add_argument("--variant", choices=("plus", "minus", "local_plus",
                                         "local_minus", "prds"))
    p.add_argument("--alpha", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--s", type=int)
    p.add_argument("--lag", type=int)
    p.add_argument("--delta", type=float)
    p.set_defaults(fn=cmd_boost_factor)

    p = sub.add_parser("adversarial", help="sharpness construction for online BH")
    p.add_argument("--config")
    p.add_argument("--k0", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--m", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--k", type=int)
    p.set_defaults(fn=cmd_adversarial)

    p = sub.add_parser("oracle-check", help="online vs offline agreement check")
    p.add_argument("--config")
    p.add_argument("--k", type=int)
    p.add_argument("--instances", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--lam", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
