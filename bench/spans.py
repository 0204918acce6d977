"""In-memory span tracer for the benchmark's traced run.

The tracer wraps entry points from outside the program: module attributes
that one arcfdr module imports by name from another (for example
``e_procedures.minimal_k_evalue``), class methods (``StreamProcedure.step``,
``ShapeFunction.beta``) and the simulate and metrics functions that a
simulate job calls.  A name that a later version of arcfdr no longer has is
skipped, and the layer metrics built from it read 0.  Each
wrapped call records a span (name, start, end, parent span, operation id);
very hot, tiny calls only bump a counter.  Spans stay in memory until the
worker writes them out after the run.  A span's self time is its duration
minus the durations of its child spans, which nest because the load is one
thread.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict
from functools import wraps

E_CLASSES = ("OnlineEBH", "ELond", "EToad")
P_CLASSES = ("OnlineBH", "OnlineStoreyBH", "Toad")
GROWTH_CLASSES = ("e_procedures.OnlineEBH", "e_procedures.EToad",
                  "p_procedures.OnlineBH", "p_procedures.Toad")

# Every per-layer metric the traced run reports, with its unit.  A layer that
# does not run on a workload reports 0.
LAYER_UNITS = {
    "core.minimal_k.calls": "count",
    "core.minimal_k.self_s": "s",
    "core.rejection_set.calls": "count",
    "core.rejection_set.indices": "count",
    "core.rejection_set.self_s": "s",
    **{f"e_procedures.{c}.self_s": "s" for c in E_CLASSES},
    "e_procedures.self_s": "s",
    **{f"p_procedures.{c}.self_s": "s" for c in P_CLASSES},
    "p_procedures.self_s": "s",
    **{f"{c}.step_growth": "ratio" for c in GROWTH_CLASSES},
    "p_procedures.ShapeFunction.beta_calls": "count",
    "boosting.solves": "count",
    "boosting.solve_s": "s",
    "boosting.expected_value_calls": "count",
    "boosting.cache_lookups": "count",
    "boosting.cache_hit_ratio": "ratio",
    "simulate.generate_s": "s",
    "simulate.truncate_s": "s",
    "simulate.run_procedure_self_s": "s",
    "metrics.fdp_path_s": "s",
    "metrics.estimate_s": "s",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Spans kept as parallel lists; ``op`` is the current operation id."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._undo: list = []

    def _begin(self, name: str) -> int:
        i = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(0)
        self._stack.append(i)
        self.starts.append(self.clock())
        return i

    def _end(self, i: int):
        self.ends[i] = self.clock()
        self._stack.pop()

    def span(self, name, fn, new_op=False):
        """Wrap fn so each call records a span.  name may be a function of the
        call's first argument (the instance, for methods).  With new_op, each
        call starts the next operation id."""
        name_of = name if callable(name) else None

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if new_op:
                self.op += 1
            i = self._begin(name_of(args[0]) if name_of else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(i)
        return wrapper

    def counter(self, name: str, fn, amount=None):
        """Wrap fn so each call adds 1 (or amount(*args)) to counts[name]."""
        @wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1 if amount is None else amount(*args, **kwargs)
            return fn(*args, **kwargs)
        return wrapper

    def wrap(self, owner, attr: str, make):
        """Replace owner.attr by make(owner.attr).  A name that is not there is
        skipped, so the layer metrics built from it read 0."""
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            return
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def aggregate(self) -> dict:
        """name -> [calls, inclusive ns, self ns]."""
        child = [0] * len(self.starts)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        agg = defaultdict(lambda: [0, 0, 0])
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            a = agg[name]
            a[0] += 1
            a[1] += dur
            a[2] += dur - child[i]
        return agg

    def durations(self, name: str) -> list:
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name]

    def write(self, path):
        """Write the spans as tab-separated name, start_ns, end_ns, parent, op."""
        with open(path, "w") as f:
            f.write("name\tstart_ns\tend_ns\tparent\top\n")
            for row in zip(self.names, self.starts, self.ends, self.parents, self.ops):
                f.write("\t".join(map(str, row)) + "\n")


def _module_of(obj) -> str:
    return type(obj).__module__.rsplit(".", 1)[-1]


def install(tracer: Tracer):
    """Wrap the arcfdr entry points the per-layer metrics are built from.
    Modules look these names up at call time, so each module's own binding
    is wrapped: simulate calls simulate.fdp_path_from_rejection_times, not
    the one in metrics."""
    from arcfdr import boosting, e_procedures, metrics, p_procedures, simulate

    t = tracer
    for mod, attr in ((e_procedures, "minimal_k_evalue"),
                      (e_procedures, "minimal_k_pvalue"),
                      (p_procedures, "minimal_k_pvalue")):
        t.wrap(mod, attr, lambda fn: t.span("core.minimal_k", fn))
    t.wrap(e_procedures, "RejectionSet",
           lambda cls: t.counter("core.rejection_set.indices",
                                 t.span("core.rejection_set", cls),
                                 amount=lambda indices, *a, **k: len(indices)))
    stream_procedure = getattr(e_procedures, "StreamProcedure", None)
    for method in ("step", "run"):
        t.wrap(stream_procedure, method, lambda fn, m=method: t.span(
            lambda proc: f"{_module_of(proc)}.{type(proc).__name__}.{m}", fn))
    t.wrap(getattr(p_procedures, "ShapeFunction", None), "beta",
           lambda fn: t.counter("p_procedures.ShapeFunction.beta", fn))
    for attr in ("solve_boost_factor", "_fast_local_minus_boost"):
        t.wrap(simulate, attr, lambda fn: t.span("boosting.solve", fn))
    t.wrap(boosting, "expected_truncated_value",
           lambda fn: t.counter("boosting.expected_value", fn))
    t.wrap(simulate, "_boost_factors",
           lambda fn: t.counter("boosting.lookups", fn,
                                amount=lambda cfg, variant, ts, *a, **k: len(ts)))
    # each generated trial starts the next operation of a simulate job
    t.wrap(simulate, "generate_gaussian_trial",
           lambda fn: t.span("simulate.generate", fn, new_op=True))
    for attr, name in (("_truncate_minus_stream", "simulate.truncate"),
                       ("_run_procedure", "simulate.run_procedure"),
                       ("fdp_path_from_rejection_times", "metrics.fdp_path")):
        t.wrap(simulate, attr, lambda fn, name=name: t.span(name, fn))
    t.wrap(metrics, "estimate_metrics", lambda fn: t.span("metrics.estimate", fn))


def step_growth(durations: list) -> float:
    """Median step time over the last tenth of a stream divided by the median
    over the first tenth; 0 when the stream is too short to say."""
    tenth = len(durations) // 10
    if tenth < 1:
        return 0.0
    first = statistics.median(durations[:tenth])
    return statistics.median(durations[-tenth:]) / first if first else 0.0


def layer_metrics(tracer: Tracer, streams: bool) -> dict:
    """Per-layer metrics from the spans and counters of one traced unit.
    streams says whether the benchmark stepped one stream per procedure, the
    case in which step_growth is defined."""
    agg = tracer.aggregate()
    counts = tracer.counts

    def calls(name):
        return agg[name][0] if name in agg else 0

    def seconds(name, col=2):
        return agg[name][col] / 1e9 if name in agg else 0.0

    def self_prefix(prefix):
        return sum(a[2] for n, a in agg.items() if n.startswith(prefix)) / 1e9

    lookups = counts["boosting.lookups"]
    solves = calls("boosting.solve")
    m = {
        "core.minimal_k.calls": calls("core.minimal_k"),
        "core.minimal_k.self_s": seconds("core.minimal_k"),
        "core.rejection_set.calls": calls("core.rejection_set"),
        "core.rejection_set.indices": counts["core.rejection_set.indices"],
        "core.rejection_set.self_s": seconds("core.rejection_set"),
        "e_procedures.self_s": self_prefix("e_procedures."),
        "p_procedures.self_s": self_prefix("p_procedures."),
        "p_procedures.ShapeFunction.beta_calls": counts["p_procedures.ShapeFunction.beta"],
        "boosting.solves": solves,
        "boosting.solve_s": seconds("boosting.solve", col=1),
        "boosting.expected_value_calls": counts["boosting.expected_value"],
        "boosting.cache_lookups": lookups,
        "boosting.cache_hit_ratio": (lookups - solves) / lookups if lookups else 0.0,
        "simulate.generate_s": seconds("simulate.generate"),
        "simulate.truncate_s": seconds("simulate.truncate"),
        "simulate.run_procedure_self_s": seconds("simulate.run_procedure"),
        "metrics.fdp_path_s": seconds("metrics.fdp_path"),
        "metrics.estimate_s": seconds("metrics.estimate"),
        "trace.spans": len(tracer.starts),
    }
    for c in E_CLASSES:
        m[f"e_procedures.{c}.self_s"] = self_prefix(f"e_procedures.{c}.")
    for c in P_CLASSES:
        m[f"p_procedures.{c}.self_s"] = self_prefix(f"p_procedures.{c}.")
    for c in GROWTH_CLASSES:
        m[f"{c}.step_growth"] = step_growth(tracer.durations(f"{c}.step")) if streams else 0.0
    return m
