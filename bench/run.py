"""arcfdr benchmark entry point.

    python3 bench/run.py --workload {stream,deadlines,simulate} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  It starts fresh worker processes
(bench/worker.py) one after another until S seconds have passed, at least
MIN_WORKERS of them, so the load is one process with one thread.  Each worker
sets up one unit of the workload, runs it in a closed loop, checks its
outputs and reports back.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced workers on unit 0 and prints the per-layer metrics with the tracing
overhead.  The full record (environment,
per-worker counts and digests, check failures) is printed as one JSON line
and written to .bench_out/; the last line of standard output is the result
object {correct, attempted, failed, metrics}.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from params import BLAS_CAPS, GAUSSIAN, MIN_WORKERS, WORKLOADS
from spans import LAYER_UNITS

HERE = Path(__file__).resolve().parent
RUN_LIMIT_S = 170  # every run must end within 180 s
STREAM_UNITS = 2   # untraced stream workers cycle over this many units
E2E_UNITS = {"setup_s": "s", "throughput_per_s": "1/s", "step_p50_us": "us",
             "step_p99_us": "us", "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    """A worker exited abnormally or printed no record."""


def percentile(sorted_values: list, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(0, math.ceil(p / 100.0 * len(sorted_values)) - 1)
    return sorted_values[min(k, len(sorted_values) - 1)]


def commit(root: Path):
    """HEAD of a git checkout, read without starting git (loose or packed
    ref); None when there is no .git or the ref cannot be found."""
    git = root / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return None


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "arcfdr").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def spawn(root: Path, env: dict, spec: dict, deadline: float) -> dict:
    """Run one worker to completion and return its record with setup_s."""
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=root, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {spec} exceeded the run limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {spec} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    rec = json.loads(lines[-1])
    rec["setup_s"] = rec.pop("ready") - t_spawn
    return rec


def run_workers(root, env, spec_of, seconds, deadline, min_workers) -> list:
    """Workers one after another until `seconds` have passed (and at least
    min_workers); worker i runs spec_of(i)."""
    start = time.monotonic()
    records = []
    while len(records) < min_workers or time.monotonic() - start < seconds:
        records.append(spawn(root, env, spec_of(len(records)), deadline))
    return records


def repeat_failures(records: list):
    """Workers that ran the same unit must agree bit for bit; a worker that
    disagrees with the first on its unit fails all of its operations."""
    first = {}
    for rec in records:
        digests = {k: v["digest"] for k, v in rec["procedures"].items()}
        ref = first.setdefault(rec["unit"], digests)
        if digests != ref:
            rec["checks"]["repeat"] = ["digests differ from an earlier run of the same unit"]
            rec["failed"] = rec["ops"]


def throughput(rec: dict) -> float:
    return rec["ops"] / rec["elapsed_s"]


def end_to_end(records: list, batch: bool) -> tuple:
    """On streams each latency percentile is taken per worker and the median
    over the workers is reported, so a burst of contention on the shared host
    during one worker does not move it.  A batch job (simulate) has no
    per-operation latency: its one sample per worker is the job's time per
    trial, and the percentiles are taken over the workers."""
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "throughput_per_s": (sum(r["ops"] for r in records)
                             / sum(r["elapsed_s"] for r in records)),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in records),
    }
    if batch:
        per_trial = sorted(r["elapsed_s"] / r["ops"] * 1e6 for r in records)
        metrics["step_p50_us"] = statistics.median(per_trial)
        metrics["step_p99_us"] = percentile(per_trial, 99)
        detail = {"latency_samples": len(per_trial),
                  "latency_note": "one sample per job: the job's time per trial"}
    else:
        lats = [sorted(r["latency_ns"]) for r in records]
        metrics["step_p50_us"] = statistics.median(percentile(x, 50) for x in lats) / 1e3
        metrics["step_p99_us"] = statistics.median(percentile(x, 99) for x in lats) / 1e3
        detail = {"latency_samples": sum(len(x) for x in lats),
                  "latency_samples_per_worker": min(len(x) for x in lats)}
    return metrics, detail


def traced_metrics(records: list) -> tuple:
    """Per-layer metrics of the last traced worker, with the tracing overhead:
    median traced over median untraced throughput on the same unit."""
    traced = [throughput(r) for r in records if r["trace"]]
    untraced = [throughput(r) for r in records if not r["trace"]]
    layers = [r["layers"] for r in records if r["trace"]][-1]
    metrics = dict(layers, **{"trace.overhead_ratio":
                              statistics.median(traced) / statistics.median(untraced)})
    detail = {"untraced_throughput_per_s": untraced, "traced_throughput_per_s": traced}
    return metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t0 = time.monotonic()
    deadline = t0 + RUN_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "arcfdr" / "__init__.py").is_file():
        print(f"no arcfdr sources under {root / 'src'}: run from a checkout root",
              file=sys.stderr)
        return 2
    env = dict(os.environ, **BLAS_CAPS, PYTHONPATH=str(root / "src"))
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spec = {"workload": args.workload, "seed": args.seed, "trace": False,
            "spans_path": None}

    try:
        if args.trace:
            # untraced and traced workers alternate on the same unit, so the
            # overhead ratio compares like with like under the same host
            # drift, and the counts repeat exactly
            spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.tsv"
            traced = dict(spec, unit=0, trace=True, spans_path=str(spans_path))
            records = run_workers(root, env,
                                  lambda i: traced if i % 2 else dict(spec, unit=0),
                                  args.seconds, deadline, 2 * MIN_WORKERS)
            metrics, detail = traced_metrics(records)
            units = LAYER_UNITS
        else:
            # simulate repeats one job; stream workers cycle over a few
            # units, so every unit's digests are compared across workers
            batch = args.workload == "simulate"
            records = run_workers(root, env,
                                  lambda i: dict(spec, unit=0 if batch else i % STREAM_UNITS),
                                  args.seconds, deadline, MIN_WORKERS)
            metrics, detail = end_to_end(records, batch)
            units = E2E_UNITS
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1

    repeat_failures(records)
    attempted = sum(r["ops"] for r in records)
    failed = sum(r["failed"] for r in records)
    correct = failed == 0 and not any(r["checks"] or r["errors"] for r in records)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "failed_frac": failed / attempted,
        "wall_s": time.monotonic() - t0, **detail,
        "environment": {
            "commit": commit(root), "source_sha256": source_digest(root),
            **records[0]["versions"],
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "blas_caps": BLAS_CAPS, "inputs": GAUSSIAN,
            "params": WORKLOADS[args.workload],
        },
        "workers": [{k: r[k] for k in ("unit", "trace", "setup_s", "elapsed_s", "ops",
                                       "failed", "checks", "errors", "procedures")}
                    for r in records],
        "result": result,
    }
    (out_dir / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
