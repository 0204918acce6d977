"""One benchmark worker: a fresh process that sets up one unit of a workload,
runs it in a closed loop, checks its outputs and prints one JSON record as
the last line of its standard output.

    PYTHONPATH=src python3 bench/worker.py \
        '{"workload": "stream", "seed": 1, "unit": 0, "trace": false, "spans_path": null}'

run.py starts the workers one at a time.  A unit is one generated stream fed
score by score through step() of every procedure of the workload (stream,
deadlines; unit i uses trial i of the seed), or one `arcfdr simulate` job over
the whole roster and the pi_a grid with a cold solver cache (simulate).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from params import BLAS_CAPS, GAUSSIAN, WORKLOADS

MAX_ERRORS = 5  # exception messages kept per worker


def _trial(seed: int, unit: int, n: int):
    """Trial `unit` of the seed: one stream of n scores."""
    from arcfdr.simulate import GaussianSetupConfig, generate_gaussian_trial, trial_rng

    cfg = GaussianSetupConfig(n=n, m=1, seed=seed, **GAUSSIAN)
    return generate_gaussian_trial(cfg, trial_rng(seed, unit))


class StreamUnit:
    """Feeds one stream through step() of each procedure, one arrival at a
    time; the latency sample of arrival t is the time to step every
    procedure once."""

    def __init__(self, procs: dict, n: int, check):
        self.procs = procs  # name -> (procedure, list of scores)
        self.n = n
        self._check = check
        self.last = {}
        self.raised = dict.fromkeys(procs, 0)
        self.errors = []

    def run(self, tracer) -> dict:
        names = list(self.procs)
        steps = [(self.procs[k][0].step, self.procs[k][1]) for k in names]
        n, last, clock = self.n, self.last, time.perf_counter_ns
        lat = [0] * n
        start = time.perf_counter()
        for t in range(n):
            if tracer:
                tracer.op = t + 1
            t0 = clock()
            for name, (step, xs) in zip(names, steps):
                try:
                    last[name] = step(xs[t])
                except Exception as exc:  # a failed operation, counted below
                    self.raised[name] += 1
                    if len(self.errors) < MAX_ERRORS:
                        self.errors.append(f"{name} step {t + 1}: {exc!r}")
            lat[t] = clock() - t0
        elapsed = time.perf_counter() - start
        return {"ops": n * len(names), "elapsed_s": elapsed, "latency_ns": lat}

    def check(self) -> tuple:
        """(failed operations, failures by procedure, per-procedure record)."""
        from checks import digest

        results, record = {}, {}
        for name, (proc, _) in self.procs.items():
            rt, path = dict(proc.rejection_times), list(proc.kstar_path)
            last = self.last.get(name)
            results[name] = {"rejection_times": rt, "kstar_path": path,
                             "last_set": last.indices if last is not None else ()}
            record[name] = {"rejections": len(rt), "final_kstar": proc.k_star,
                            "digest": digest(rt, path)}
        failures = self._check(results)
        failed = sum(self.n if failures.get(name) else self.raised[name]
                     for name in self.procs)
        return failed, failures, record


def setup_stream(spec) -> StreamUnit:
    from arcfdr import ELond, OnlineBH, OnlineEBH, OnlineStoreyBH, WeightSequence
    from checks import check_stream

    p = WORKLOADS["stream"]
    n, alpha, lam = p["n"], GAUSSIAN["alpha"], p["lam"]
    trial = _trial(spec["seed"], spec["unit"], n)
    e, pv = trial.evalues.tolist(), trial.pvalues.tolist()
    w = WeightSequence.uniform_finite(n)
    procs = {"OnlineEBH": (OnlineEBH(w, alpha), e),
             "ELond": (ELond(w, alpha), e),
             "OnlineBH": (OnlineBH(w, alpha), pv),
             "OnlineStoreyBH": (OnlineStoreyBH(w, alpha, lam), pv)}
    return StreamUnit(procs, n, lambda res: check_stream(e, pv, res, alpha, lam))


def setup_deadlines(spec) -> StreamUnit:
    from arcfdr import DeadlineSchedule, EToad, ShapeFunction, Toad, WeightSequence
    from checks import check_deadlines

    p = WORKLOADS["deadlines"]
    n, window, alpha = p["n"], p["window"], GAUSSIAN["alpha"]
    trial = _trial(spec["seed"], spec["unit"], n)
    e, pv = trial.evalues.tolist(), trial.pvalues.tolist()
    w = WeightSequence.uniform_finite(n)
    schedule = DeadlineSchedule(lambda t: t + window)
    procs = {"EToad": (EToad(w, alpha, schedule), e),
             "Toad": (Toad(w, alpha, schedule, ShapeFunction.identity()), pv)}
    scores = {"EToad": ("e", e), "Toad": ("p", pv)}
    return StreamUnit(procs, n, lambda res: check_deadlines(scores, res, window, alpha))


class SimulateUnit:
    """One `arcfdr simulate --procedures all` job over the pi_a grid: one call
    of simulate.run_experiment with a solver cache that starts cold, as the
    CLI makes it.  The job is timed as a whole; one operation is one trial,
    one generated trial run through the whole roster."""

    def __init__(self, cfg, names, grid):
        self.cfg, self.names, self.grid = cfg, names, grid
        self.rows = []
        self.cells = []  # what each run_trials call returned, for the digests
        self.raised = False
        self.errors = []

    def run(self, tracer) -> dict:
        from arcfdr import simulate

        # run_trials hands each cell's runs to run_experiment; keep them on
        # the way through, so the record can hold exact per-procedure counts
        run_trials = vars(simulate).get("run_trials")
        if run_trials is not None:
            def keeping(*args, **kwargs):
                out = run_trials(*args, **kwargs)
                self.cells.append(out)
                return out
            simulate.run_trials = keeping
        start = time.perf_counter()
        try:
            self.rows = simulate.run_experiment(self.cfg, self.names, self.grid, cache={})
        except Exception as exc:  # a failed job fails all of its trials
            self.raised = True
            self.errors.append(f"run_experiment: {exc!r}")
        finally:
            elapsed = time.perf_counter() - start
            if run_trials is not None:
                simulate.run_trials = run_trials
        return {"ops": len(self.grid) * self.cfg.m, "elapsed_s": elapsed,
                "latency_ns": []}

    def check(self) -> tuple:
        import hashlib

        from checks import check_simulate, digest

        failures = check_simulate(self.rows, self.names, self.grid)
        failed = (len(self.grid) * self.cfg.m if self.raised else
                  sum(self.cfg.m for pi_a in self.grid if failures.get(f"pi_a={pi_a}")))
        rows = json.dumps(self.rows, sort_keys=True).encode()
        record = {"rows": {"count": len(self.rows),
                           "digest": hashlib.sha256(rows).hexdigest()[:16]}}
        for name in self.names:
            runs = [r for runs, _ in self.cells for r in runs.get(name, [])]
            if not runs:
                continue
            h = hashlib.sha256("".join(digest(r.rejection_times, r.kstar_path)
                                       for r in runs).encode())
            record[name] = {"rejections": sum(len(r.rejection_times) for r in runs),
                            "final_kstar": sum(r.kstar_path[-1] for r in runs),
                            "digest": h.hexdigest()[:16]}
        return failed, failures, record


def setup_simulate(spec) -> SimulateUnit:
    from arcfdr.simulate import ALL_PROCEDURES, GaussianSetupConfig

    p = WORKLOADS["simulate"]
    gauss = dict(GAUSSIAN, pi_a=p["pi_a_grid"][0])
    cfg = GaussianSetupConfig(n=p["n"], m=p["m"], q=p["q"], lam=p["lam"],
                              seed=spec["seed"], **gauss)
    return SimulateUnit(cfg, list(ALL_PROCEDURES), list(p["pi_a_grid"]))


SETUP = {"stream": setup_stream, "deadlines": setup_deadlines,
         "simulate": setup_simulate}


def main() -> int:
    spec = json.loads(sys.argv[1])
    os.environ.update(BLAS_CAPS)  # before numpy loads
    import numpy
    import scipy

    unit = SETUP[spec["workload"]](spec)
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    ready = time.monotonic()
    try:
        measured = unit.run(tracer)
    finally:
        if tracer:
            tracer.restore()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, failures, procedures = unit.check()
    record = {"ready": ready, "unit": spec["unit"], "trace": spec["trace"],
              "failed": failed, "checks": failures, "errors": unit.errors,
              "procedures": procedures, "rss_mb": rss_mb,
              "versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__, "scipy": scipy.__version__},
              **measured}
    if tracer:
        record["layers"] = spans.layer_metrics(tracer, streams=isinstance(unit, StreamUnit))
        if spec.get("spans_path"):
            tracer.write(spec["spans_path"])
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
