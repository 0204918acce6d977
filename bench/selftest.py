"""Self-test of the benchmark: each output check passes on real results and
rejects a deliberately corrupted one; repeated and traced runs of a unit give
identical digests; keeping run_trials' output for the simulate digests
leaves the rows of simulate.run_experiment unchanged; span self times
subtract child spans; the tracer skips a name that is gone; the commit is
found in a loose or packed ref; and BENCHMARK.json names exactly the metrics
the benchmark prints.

    python3 bench/selftest.py        # from the root of a checkout

Exits 0 when every case passes.  It uses small inputs and takes a few seconds.
"""

from __future__ import annotations

import copy
import json
import os
import sys
from pathlib import Path

from params import BLAS_CAPS, GAUSSIAN, WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
os.environ.update(BLAS_CAPS)  # before numpy loads

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

FAILURES = []


def expect(ok: bool, what: str):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def results_of(unit: worker.StreamUnit) -> dict:
    return {name: {"rejection_times": dict(proc.rejection_times),
                   "kstar_path": list(proc.kstar_path),
                   "last_set": unit.last[name].indices}
            for name, (proc, _) in unit.procs.items()}


def drop_last_rejection(res: dict, name: str) -> dict:
    """One index dropped from a procedure's final set (and its last step)."""
    res = copy.deepcopy(res)
    i = max(res[name]["rejection_times"])
    del res[name]["rejection_times"][i]
    res[name]["last_set"] = tuple(j for j in res[name]["last_set"] if j != i)
    return res


def stream_cases():
    from arcfdr import ELond, OnlineBH, OnlineEBH, OnlineStoreyBH, WeightSequence

    n, alpha, lam = 400, GAUSSIAN["alpha"], WORKLOADS["stream"]["lam"]
    trial = worker._trial(seed=7, unit=0, n=n)
    e, p = trial.evalues.tolist(), trial.pvalues.tolist()
    w = WeightSequence.uniform_finite(n)

    def make_unit():
        procs = {"OnlineEBH": (OnlineEBH(w, alpha), e), "ELond": (ELond(w, alpha), e),
                 "OnlineBH": (OnlineBH(w, alpha), p),
                 "OnlineStoreyBH": (OnlineStoreyBH(w, alpha, lam), p)}
        return worker.StreamUnit(procs, n, lambda r: checks.check_stream(e, p, r, alpha, lam))

    unit = make_unit()
    unit.run(None)
    good = results_of(unit)
    check = lambda r: checks.check_stream(e, p, r, alpha, lam)
    expect(check(good) == {}, "stream: checks pass on real results")
    expect(all(len(r["rejection_times"]) > 0 for r in good.values()),
           "stream: every procedure rejects something, so the corruptions bite")
    for name in ("OnlineEBH", "OnlineBH", "OnlineStoreyBH"):
        expect(name in check(drop_last_rejection(good, name)),
               f"stream: {name} with one index dropped from its final set is caught")
    bad = copy.deepcopy(good)
    extra = next(i for i in range(1, n + 1) if i not in bad["OnlineEBH"]["rejection_times"])
    bad["ELond"]["rejection_times"][extra] = extra
    bad["ELond"]["last_set"] = tuple(sorted(bad["ELond"]["rejection_times"]))
    expect("ELond" in check(bad), "stream: ELond rejecting outside OnlineEBH is caught")
    bad = copy.deepcopy(good)
    bad["OnlineBH"]["kstar_path"][n // 2] += 1
    expect("OnlineBH" in check(bad), "stream: k*_t differing from |R_t| is caught")
    bad = copy.deepcopy(good)
    bad["ELond"]["last_set"] = bad["ELond"]["last_set"][1:]
    expect("ELond" in check(bad), "stream: a last step() set short of the record is caught")

    failed, failures, record = unit.check()
    again = make_unit()
    again.run(None)
    expect(failed == 0 and failures == {}, "stream: StreamUnit.check reports no failure")
    expect(again.check()[2] == record, "stream: a repeated unit gives identical digests")
    traced = make_unit()
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        traced.run(tracer)
    finally:
        tracer.restore()
    expect(traced.check()[2] == record, "stream: the traced unit gives identical digests")
    layers = spans.layer_metrics(tracer, streams=True)
    expect(layers["core.minimal_k.calls"] == 2 * n and
           layers["core.rejection_set.calls"] == 4 * n,
           "stream: traced call counts match one call per step")


def deadline_cases():
    from arcfdr import DeadlineSchedule, EToad, ShapeFunction, Toad, WeightSequence

    n, window, alpha = 300, 10, GAUSSIAN["alpha"]
    trial = worker._trial(seed=7, unit=0, n=n)
    e, p = trial.evalues.tolist(), trial.pvalues.tolist()
    w = WeightSequence.uniform_finite(n)
    sched = DeadlineSchedule(lambda t: t + window)
    procs = {"EToad": (EToad(w, alpha, sched), e),
             "Toad": (Toad(w, alpha, sched, ShapeFunction.identity()), p)}
    scores = {"EToad": ("e", e), "Toad": ("p", p)}
    check = lambda r: checks.check_deadlines(scores, r, window, alpha)
    unit = worker.StreamUnit(procs, n, check)
    unit.run(None)
    good = results_of(unit)
    expect(check(good) == {}, "deadlines: checks pass on real results")
    for name in good:
        bad = copy.deepcopy(good)
        i = min(bad[name]["rejection_times"])
        bad[name]["rejection_times"][i] = min(n, i + window + 1)
        expect(name in check(bad), f"deadlines: {name} rejecting after a deadline is caught")
        bad = copy.deepcopy(good)
        path = bad[name]["kstar_path"]
        path[-1] = path[-2] - 1
        expect(name in check(bad), f"deadlines: {name} with a decreasing k* path is caught")
        bad = copy.deepcopy(good)
        values = scores[name][1]
        weakest = min(range(1, n + 1), key=lambda i: values[i - 1]) if name == "EToad" \
            else max(range(1, n + 1), key=lambda i: values[i - 1])
        bad[name]["rejection_times"][weakest] = weakest  # within its deadline
        bad[name]["last_set"] = tuple(sorted(bad[name]["rejection_times"]))
        expect(name in check(bad), f"deadlines: {name} with a non-self-consistent set is caught")


def simulate_cases():
    from arcfdr.simulate import ALL_PROCEDURES, GaussianSetupConfig, run_experiment

    grid = [0.1, 0.3]
    cfg = GaussianSetupConfig(n=60, m=3, q=0.99, lam=0.5, seed=5,
                              **dict(GAUSSIAN, pi_a=grid[0]))
    unit = worker.SimulateUnit(cfg, list(ALL_PROCEDURES), grid)
    unit.run(None)
    expect(unit.rows == run_experiment(cfg, list(ALL_PROCEDURES), grid, cache={}),
           "simulate: keeping run_trials' output leaves the rows unchanged")
    failed, failures, record = unit.check()
    expect(failed == 0 and failures == {} and set(record) == {"rows", *ALL_PROCEDURES},
           "simulate: the job passes its checks and records every procedure")
    check = lambda rows: checks.check_simulate(rows, ALL_PROCEDURES, grid)
    expect(check(unit.rows) == {}, "simulate: checks pass on real rows")
    expect(check(unit.rows[1:]) != {}, "simulate: a missing row is caught")
    bad = copy.deepcopy(unit.rows)
    bad[0]["value"] = 1.5
    expect(check(bad) != {}, "simulate: a value outside [0, 1] is caught")
    bad = copy.deepcopy(unit.rows)
    for row in bad:
        if row["procedure"] == "oe-bh-boost" and row["metric"] == "power":
            base = next(r["value"] for r in bad if r["procedure"] == "oe-bh"
                        and r["metric"] == "power" and r["pi_a"] == row["pi_a"])
            row["value"] = base - 0.01
    expect(len(check(bad)) == len(grid), "simulate: power(oe-bh-boost) < power(oe-bh) is caught")
    again = worker.SimulateUnit(cfg, list(ALL_PROCEDURES), grid)
    again.run(None)
    expect(again.check()[2] == unit.check()[2], "simulate: a repeated job gives identical digests")


def tracer_cases():
    ticks = iter(range(0, 1000, 10))
    tr = spans.Tracer(clock=lambda: next(ticks))
    inner = tr.span("inner", lambda: None)
    outer = tr.span("outer", lambda: (inner(), inner()))
    outer()  # outer 0..50, inner 10..20 and 30..40
    agg = tr.aggregate()
    expect(agg["outer"] == [1, 50, 30] and agg["inner"] == [2, 20, 20],
           "spans: self time is the duration minus child spans")
    expect(spans.step_growth([1] * 10 + [3] * 80 + [4] * 10) == 4.0,
           "spans: step_growth compares the last tenth to the first")

    class Owner:
        present = staticmethod(lambda: 1)

    tr = spans.Tracer()
    tr.wrap(Owner, "gone", lambda fn: tr.span("gone", fn))
    tr.wrap(None, "gone", lambda fn: tr.span("gone", fn))
    tr.wrap(Owner, "present", lambda fn: tr.span("present", fn))
    expect(len(tr._undo) == 1, "spans: a name that is not there is skipped")
    tr.restore()


def commit_cases():
    import tempfile

    sha = "0123456789abcdef0123456789abcdef01234567"
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        expect(run.commit(root) is None, "commit: no .git gives null")
        (root / ".git" / "refs" / "heads").mkdir(parents=True)
        (root / ".git" / "HEAD").write_text("ref: refs/heads/main\n")
        expect(run.commit(root) is None, "commit: a ref that cannot be found gives null")
        (root / ".git" / "packed-refs").write_text(
            f"# pack-refs with: peeled fully-peeled sorted\n{sha} refs/heads/main\n")
        expect(run.commit(root) == sha, "commit: a packed ref is found")
        (root / ".git" / "refs" / "heads" / "main").write_text(sha[::-1] + "\n")
        expect(run.commit(root) == sha[::-1], "commit: a loose ref wins over a packed one")


def benchmark_json_cases():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect({m["name"] for m in spec["per_layer"]} == set(spans.LAYER_UNITS),
           "BENCHMARK.json per_layer names what the traced run prints")
    expect(all(spans.LAYER_UNITS[m["name"]] == m["unit"] for m in spec["per_layer"]),
           "BENCHMARK.json per_layer units match")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS,
           "BENCHMARK.json end_to_end names and units match what the run prints")
    expect({w["name"] for w in spec["workloads"]} <= set(WORKLOADS),
           "BENCHMARK.json workloads are workloads of params.WORKLOADS")


def main() -> int:
    for case in (stream_cases, deadline_cases, simulate_cases, tracer_cases,
                 commit_cases, benchmark_json_cases):
        case()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
