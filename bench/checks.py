"""Output checks for the benchmark workloads.

Each check takes plain results (first-rejection times, k* paths, the set the
last step() returned, simulate result rows) and returns a dict mapping what
the failure covers -- a procedure name or a simulate cell -- to messages.
An empty dict means every check passed.  selftest.py shows that each check
rejects a deliberately corrupted result.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import defaultdict

from arcfdr.core import ScoreKind, WeightSequence, is_self_consistent
from arcfdr.oracles import offline_bh, offline_ebh, offline_storey_bh

SIMULATE_METRICS = ("power", "fdr", "sup_fdr")


def digest(rejection_times: dict, kstar_path: list) -> str:
    """Hash of the rejection times and the k* path, for bit-identity checks."""
    payload = json.dumps([sorted(rejection_times.items()), list(kstar_path)])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _rejection_counts(rejection_times: dict, n: int) -> list:
    per_t = [0] * (n + 1)
    for t in rejection_times.values():
        per_t[t] += 1
    counts, total = [], 0
    for t in range(1, n + 1):
        total += per_t[t]
        counts.append(total)
    return counts


def _check_common(name: str, res: dict, n: int, out: dict):
    """The set step() returned last must be the recorded final set, and every
    rejection time must lie in 1..n."""
    rt = res["rejection_times"]
    if tuple(res["last_set"]) != tuple(sorted(rt)):
        out[name].append("last step() set differs from the recorded rejections")
    bad = [i for i, t in rt.items() if not (i <= t <= n)]
    if bad:
        out[name].append(f"rejection time outside i..n for index {bad[0]}")
    if len(res["kstar_path"]) != n:
        out[name].append(f"k* path has {len(res['kstar_path'])} entries, not {n}")


def check_stream(evalues, pvalues, results: dict, alpha: float, lam: float) -> dict:
    """stream: final sets equal the offline oracles at K, e-LOND is dominated
    by online e-BH at every t, and k*_t equals |R_t| for the step-ups."""
    n = len(evalues)
    out = defaultdict(list)
    for name, res in results.items():
        _check_common(name, res, n, out)
    oracles = {"OnlineEBH": offline_ebh(evalues, alpha),
               "OnlineBH": offline_bh(pvalues, alpha),
               "OnlineStoreyBH": offline_storey_bh(pvalues, alpha, lam)}
    for name, expected in oracles.items():
        final = set(results[name]["rejection_times"])
        if final != expected:
            out[name].append(f"final set differs from the offline oracle in "
                             f"{len(final ^ expected)} indices")
        if results[name]["kstar_path"] != _rejection_counts(
                results[name]["rejection_times"], n):
            out[name].append("k*_t differs from |R_t| at some t")
    ebh = results["OnlineEBH"]["rejection_times"]
    for i, t in results["ELond"]["rejection_times"].items():
        if ebh.get(i, math.inf) > t:
            out["ELond"].append(f"index {i} rejected at t={t} by ELond "
                                f"but not by OnlineEBH")
            break
    return dict(out)


def check_deadlines(scores: dict, results: dict, window: int, alpha: float) -> dict:
    """deadlines: every rejection by its deadline t + window, k* nondecreasing,
    and each final set self-consistent.  scores maps a procedure to its
    (kind, values)."""
    out = defaultdict(list)
    for name, res in results.items():
        kind, values = scores[name]
        n = len(values)
        _check_common(name, res, n, out)
        late = [i for i, t in res["rejection_times"].items() if t > i + window]
        if late:
            out[name].append(f"index {late[0]} rejected after its deadline")
        path = res["kstar_path"]
        if any(a > b for a, b in zip(path, path[1:])):
            out[name].append("k* path decreases")
        if not is_self_consistent(res["rejection_times"], values,
                                  WeightSequence.uniform_finite(n), alpha,
                                  kind=ScoreKind(kind)):
            out[name].append("final set is not self-consistent")
    return dict(out)


def check_simulate(rows: list, procedures, pi_as) -> dict:
    """simulate: every procedure x cell x metric row present with a value in
    [0, 1], and power(oe-bh-boost) >= power(oe-bh) in every cell."""
    out = defaultdict(list)
    seen = {}
    for row in rows:
        seen[(row["procedure"], row["pi_a"], row["metric"])] = row["value"]
    for pi_a in pi_as:
        cell = f"pi_a={pi_a}"
        for name in procedures:
            for metric in SIMULATE_METRICS:
                value = seen.get((name, pi_a, metric))
                if value is None:
                    out[cell].append(f"missing row {name}/{metric}")
                elif not (0.0 <= value <= 1.0):
                    out[cell].append(f"{name}/{metric}={value} outside [0, 1]")
        boost = seen.get(("oe-bh-boost", pi_a, "power"))
        base = seen.get(("oe-bh", pi_a, "power"))
        if boost is not None and base is not None and boost < base:
            out[cell].append(f"power(oe-bh-boost)={boost} < power(oe-bh)={base}")
    return dict(out)
