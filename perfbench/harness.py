"""Timed and traced passes over one workload.

A pass runs every function of the workload at least once (see
FN_PASS_S), in one thread, each operation starting when the previous one
has finished (a closed loop with one client).  The untraced phase times whole synth(fn) calls and gives the
end-to-end metrics.  The traced phase makes the same calls with wrappers
from this file around every call synth makes into another layer, records
a span per call, and derives the per-layer metrics from the spans.  Every
time is also scaled to the reference host by the host probes around it
(see hostprobe).  Every netlist is re-simulated by refcheck, outside the
timed spans.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import resource
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

from tritsynth import CostModel, synth
from tritsynth.bench import rows_to_json, run_benchmarks

import hostprobe
import refcheck
import workloads

# The module, not the function that tritsynth/__init__ re-exports as synth.
_synth_mod = importlib.import_module("tritsynth.synth")
RULE_IDS = tuple(range(1, 11))
COLLECTOR_KINDS = ("max", "min")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def collectors(nl) -> int:
    return sum(1 for g in nl.gates if g.kind in COLLECTOR_KINDS)


def rule_steps(rep) -> dict[int, int]:
    counts = Counter(step.rule_id for tr in rep.traces.values() for step in tr.steps)
    return {r: counts[r] for r in RULE_IDS}


def quality_row(rep) -> dict:
    """One function's circuit quality; identical on every pass and run."""
    nl = rep.netlist
    kinds = Counter(g.kind for g in nl.gates)
    return {
        "name": rep.name,
        "cost_paper": rep.cost,
        "cost_honest": rep.cost_honest,
        "ancillae": rep.reduced_ancilla,
        "ancilla_bound": rep.max_ancilla,
        "depth": rep.depth,
        "gates": len(nl.gates),
        "gates_by_kind": dict(sorted(kinds.items())),
        "collectors": collectors(nl),
        "reversible": nl.reversible,
        "paths": dict(sorted(rep.paths.items())),
        "rule_steps": rule_steps(rep),
        "netlist_sha256": sha256(nl.to_json()),
    }


def check_report(rep, fn, columns, cache) -> Optional[str]:
    """None if the report is right, else why not.

    The reference simulation runs once per distinct netlist of a function;
    later passes that return the same bytes reuse its verdict.
    """
    if not rep.verified:
        return "synth returned verified=False"
    text = rep.netlist.to_json()
    key = (fn.name, sha256(text))
    if key not in cache:
        cache[key] = refcheck.check_netlist(text, fn.arity, columns)
    if cache[key] is not None:
        return f"reference check: {cache[key]}"
    n = collectors(rep.netlist)
    if rep.netlist.reversible != (n == 0):
        return f"reversible={rep.netlist.reversible} with {n} collectors"
    return None


@dataclass
class Phase:
    """What one phase measured, plus everything that went wrong in it."""

    # function name -> op times in ms: wall, and scaled to the reference
    # host by the probes around each op (see hostprobe)
    samples_ms: dict = field(default_factory=dict)
    scaled_ms: dict = field(default_factory=dict)
    busy_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    passes: int = 0
    rows: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    pass_s: list = field(default_factory=list)
    # CPU seconds of each pass, next to its wall seconds.  A slow spell
    # spent waiting for a CPU raises only the wall seconds; one spent on a
    # CPU slowed by other tenants raises both.
    pass_cpu_s: list = field(default_factory=list)
    # the host probes' ms of each op, in order (see hostprobe.Timed)
    probe_ms: list = field(default_factory=list)

    def record_row(self, row):
        """Keep the first row per function; a later differing one is
        nondeterminism."""
        prev = self.rows.setdefault(row["name"], row)
        if prev != row:
            self.problems.append(f"nondeterminism: {row['name']} quality row changed between passes")


# A pass calls each function again until it has spent this many wall
# seconds on it, probes and checks included.  Each call of a cheap
# function is then one of many in a run, and its median steady.
FN_PASS_S = 0.25


def timed_phase(fns, columns, seconds, cache, between=None) -> Phase:
    """Whole passes of synth(fn) with default options until `seconds` of
    operation wall time have been measured.  between(busy seconds so far),
    if given, is called before each operation, outside its timing."""
    ph = Phase()
    while not ph.passes or ph.busy_s < seconds:
        start, cpu = ph.busy_s, 0.0
        for fn, cols in zip(fns, columns):
            deadline = time.perf_counter() + FN_PASS_S
            while True:
                if between is not None:
                    between(ph.busy_s)
                cpu += timed_operation(ph, fn, cols, cache)
                if time.perf_counter() >= deadline:
                    break
        ph.pass_s.append(ph.busy_s - start)
        ph.pass_cpu_s.append(cpu)
        ph.passes += 1
    return ph


def timed_operation(ph: Phase, fn, cols, cache) -> float:
    """One synth(fn) call, timed, checked and recorded in ph; returns its
    CPU seconds."""
    ph.attempted += 1
    # Start every operation from an empty young generation, as a fresh
    # `tritsynth synth` process would, so that the previous operation's
    # garbage is not collected on this one's clock.
    gc.collect()
    rep = None
    try:
        with hostprobe.Timed() as tm:
            rep = synth(fn)
    except Exception as exc:  # a failed operation is counted, not fatal
        err = f"synth raised {type(exc).__name__}: {exc}"
    ph.probe_ms.append(tm.probes_ms)
    ph.busy_s += tm.wall_s
    if rep is not None:
        ph.samples_ms.setdefault(fn.name, []).append(tm.wall_s * 1e3)
        ph.scaled_ms.setdefault(fn.name, []).append(tm.ref_s * 1e3)
        err = check_report(rep, fn, cols, cache)
    if err:
        ph.failed += 1
        ph.problems.append(f"{fn.name}: {err}")
    else:
        ph.record_row(quality_row(rep))
    return tm.cpu_s


class Tracer:
    """Spans kept in memory, (op id, name, parent name, start, end), and
    per-pass counts taken where each layer returns.  scale maps an op id
    to the factor from wall to reference-host time (see hostprobe) for the
    spans of that op."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.counts = Counter()
        self.scale = {}

    @contextmanager
    def probed(self, op):
        """Make op the current op id, with host probes around the block
        but none inside it, where they would land in the spans."""
        self.op = op
        tm = hostprobe.Timed(interval_s=0)
        try:
            with tm:
                yield
        finally:
            self.scale[op] = tm.ref_s / tm.wall_s

    @contextmanager
    def span(self, name):
        parent = self.stack[-1] if self.stack else None
        self.stack.append(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans.append((self.op, name, parent, t0, t1))

    def self_times(self) -> Counter:
        """Reference-host seconds per span name, each span minus its direct
        children."""
        out = Counter()
        for op, name, parent, t0, t1 in self.spans:
            dt = (t1 - t0) * self.scale[op]
            out[name] += dt
            if parent is not None:
                out[parent] -= dt
        return out


def _count_linear(c, args, hit):
    c["truthtables.affine_outputs"] += hit is not None


def _count_minterms(c, args, expr):
    c["expr.minterms"] += len(expr.terms)


def _count_simplify(c, args, result):
    (expr,), (reduced, trace) = args, result
    c["simplify.steps"] += len(trace.steps)
    c["simplify.terms_out"] += len(reduced.terms)
    c["simplify.factors_out"] += sum(len(t.factors) for t in reduced.terms)
    c["simplify.soundness_rows_bound"] += len(trace.steps) * 3**expr.arity
    for step in trace.steps:
        c[f"simplify.rule_{step.rule_id}_steps"] += 1


def _count_check(c, args, res):
    c["sim.rows_checked"] += res.checked
    c["sim.row_gate_evals"] += res.checked * len(args[0].gates)


# (owner, attribute, span name, counter).  synth looks these public
# functions up in its own module namespace, and prices netlists through
# CostModel.netlist_cost, so wrapping them there puts a span around every
# call synth makes into another layer.  If synth stops calling one of them,
# that layer reads 0 and its time shows in synth.self_ms instead.
_HOOKS = (
    (_synth_mod, "linear_detect", "truthtables.linear_detect", _count_linear),
    (_synth_mod, "minterm_extract", "expr.minterm_extract", _count_minterms),
    (_synth_mod, "simplify", "simplify", _count_simplify),
    (_synth_mod, "netlist_depth", "gates.cost_depth", None),
    (CostModel, "netlist_cost", "gates.cost_depth", None),
    (_synth_mod, "exhaustive_check", "sim.exhaustive_check", _count_check),
)


def _wrap(tracer, fn, name, count):
    def traced(*args, **kwargs):
        with tracer.span(name):
            out = fn(*args, **kwargs)
        if count is not None:
            count(tracer.counts, args, out)
        return out

    return traced


@contextmanager
def hooked(tracer):
    """Route synth's calls into the other layers through tracer spans."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in _HOOKS]
    try:
        for (owner, attr, name, count), (_, _, orig) in zip(_HOOKS, saved):
            setattr(owner, attr, _wrap(tracer, orig, name, count))
        yield
    finally:
        for owner, attr, orig in saved:
            setattr(owner, attr, orig)


def bench_digest() -> tuple[str, float]:
    """sha256 of `tritsynth bench --json` bytes, and the reference-host
    seconds it took."""
    with hostprobe.Timed() as tm:
        text = rows_to_json(run_benchmarks())
    return sha256(text), tm.ref_s


@dataclass
class TracedPhase:
    passes: list = field(default_factory=list)  # per pass: (ms per span name, counts)
    busy_s: float = 0.0
    problems: list = field(default_factory=list)
    bench_shas: set = field(default_factory=set)
    spans: list = field(default_factory=list)


def traced_pass(tp, specs, rows, cache, op):
    """One pass: build the tables, then one traced synth(fn) per function."""
    tracer = Tracer()
    with tracer.probed(None), tracer.span("truthtables.build"):
        fns = workloads.build(specs)
    for spec, fn in zip(specs, fns):
        op += 1
        gc.collect()
        try:
            with tracer.probed(op), hooked(tracer), tracer.span("synth"):
                rep = synth(fn)
        except Exception as exc:  # a failed operation is counted, not fatal
            tp.problems.append(f"{fn.name}: traced synth raised {type(exc).__name__}: {exc}")
            continue
        nl = rep.netlist
        c = tracer.counts
        paths = Counter(rep.paths.values())
        c["synth.path_linear"] += paths["linear"]
        c["synth.path_sop"] += len(rep.paths) - paths["linear"]
        c["gates.count"] += len(nl.gates)
        c["gates.collectors"] += collectors(nl)
        c["gates.irreversible_netlists"] += not nl.reversible
        err = check_report(rep, fn, workloads.reference_columns(spec, fn), cache)
        if err:
            tp.problems.append(f"{fn.name}: {err}")
        elif quality_row(rep) != rows.get(fn.name):
            tp.problems.append(f"nondeterminism: {fn.name} traced quality row differs")
    sha, bench_s = bench_digest()
    tp.bench_shas.add(sha)
    times = tracer.self_times()
    times["bench.run_benchmarks"] = bench_s
    times["op"] = sum((t1 - t0) * tracer.scale[o] for o, n, p, t0, t1 in tracer.spans
                      if n == "synth" and p is None)
    tp.busy_s += times["op"]
    tp.passes.append((times, tracer.counts))
    tp.spans += tracer.spans
    return op


def traced_phase(specs, rows, seconds, cache) -> TracedPhase:
    """Whole traced passes until `seconds` of traced operation time.

    rows are the untraced phase's quality rows; a traced report must
    match them.
    """
    tp = TracedPhase()
    op = 0
    while not tp.passes or tp.busy_s < seconds:
        op = traced_pass(tp, specs, rows, cache, op)
    first_counts = tp.passes[0][1]
    if any(c != first_counts for _, c in tp.passes[1:]):
        tp.problems.append("nondeterminism: layer counts changed between traced passes")
    if len(tp.bench_shas) > 1:
        tp.problems.append("nondeterminism: bench rows JSON changed between passes")
    return tp


def per_layer_metrics(tp: TracedPhase, untraced_pass_ms: float) -> dict:
    """Times are reference-host ms per pass (median over passes); counts
    are per pass.  untraced_pass_ms is the untraced phase's pass_ms()."""

    def ms(key):
        return statistics.median(t[key] for t, _ in tp.passes) * 1e3

    counts = tp.passes[0][1]
    m = {
        "truthtables.build_ms": (ms("truthtables.build"), "ms"),
        "truthtables.linear_detect_ms": (ms("truthtables.linear_detect"), "ms"),
        "truthtables.affine_outputs": (counts["truthtables.affine_outputs"], "count"),
        "expr.minterm_extract_ms": (ms("expr.minterm_extract"), "ms"),
        "expr.minterms": (counts["expr.minterms"], "count"),
        "simplify.ms": (ms("simplify"), "ms"),
        "simplify.steps": (counts["simplify.steps"], "count"),
        "simplify.terms_out": (counts["simplify.terms_out"], "count"),
        "simplify.factors_out": (counts["simplify.factors_out"], "count"),
    }
    for r in RULE_IDS:
        m[f"simplify.rule_{r}_steps"] = (counts[f"simplify.rule_{r}_steps"], "count")
    m.update({
        "simplify.soundness_rows_bound": (counts["simplify.soundness_rows_bound"], "count"),
        "synth.self_ms": (ms("synth"), "ms"),
        "synth.path_linear": (counts["synth.path_linear"], "count"),
        "synth.path_sop": (counts["synth.path_sop"], "count"),
        "gates.cost_depth_ms": (ms("gates.cost_depth"), "ms"),
        "gates.count": (counts["gates.count"], "count"),
        "gates.collectors": (counts["gates.collectors"], "count"),
        "gates.irreversible_netlists": (counts["gates.irreversible_netlists"], "count"),
        "sim.exhaustive_check_ms": (ms("sim.exhaustive_check"), "ms"),
        "sim.rows_checked": (counts["sim.rows_checked"], "count"),
        "sim.row_gate_evals": (counts["sim.row_gate_evals"], "count"),
        "bench.run_benchmarks_ms": (ms("bench.run_benchmarks"), "ms"),
        "trace.op_ms": (ms("op"), "ms"),
        "trace.overhead_pct": ((ms("op") / untraced_pass_ms - 1) * 100, "%"),
    })
    return m


def fn_times_ms(ph: Phase) -> list:
    """Each function's time: the median of its calls' reference-host ms."""
    return [statistics.median(xs) for xs in ph.scaled_ms.values()]


def pass_ms(ph: Phase) -> float:
    """Reference-host ms of a pass that calls each function once."""
    return sum(fn_times_ms(ph))


def timing_metrics(per_fn_ms: list, tail_p: int) -> dict:
    """synth_ms_p50, synth_ms_tail and fn_per_s from one time per function.

    Both percentiles are read over the workload's functions, each counted
    once.  Such a percentile is continuous in the per-function times: it
    stays put when two functions of similar cost swap places, and the
    number of calls does not move it.  On catalog a percentile of the raw
    samples would instead follow how often each cheap function is called.
    In a closed loop with one client, throughput is the reciprocal of the
    mean latency of a pass that calls each function once.
    """
    return {
        "synth_ms_p50": (statistics.median(per_fn_ms), "ms"),
        "synth_ms_tail": (statistics.quantiles(per_fn_ms, n=100, method="inclusive")[tail_p - 1], "ms"),
        "fn_per_s": (len(per_fn_ms) / (sum(per_fn_ms) / 1e3), "1/s"),
    }


def end_to_end_metrics(ph: Phase, tail_p: int, setup_s: float, peak_rss_mb: float) -> tuple[dict, dict]:
    """Metrics, and how the tail percentile was read.

    Each function is timed by the median over the run of its calls'
    reference-host times (see hostprobe).  The same figures from the
    median wall times go into the tail record, under "wall".
    """
    fn_ms = fn_times_ms(ph)
    rows = ph.rows.values()
    m = {
        "setup_s": (setup_s, "s"),
        **timing_metrics(fn_ms, tail_p),
        "ok_ratio": ((ph.attempted - ph.failed) / ph.attempted, "ratio"),
        "cost_paper_total": (sum(r["cost_paper"] for r in rows), "count"),
        "cost_honest_total": (sum(r["cost_honest"] for r in rows), "count"),
        "ancillae_total": (sum(r["ancillae"] for r in rows), "count"),
        "depth_total": (sum(r["depth"] for r in rows), "count"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    wall_ms = [statistics.median(xs) for xs in ph.samples_ms.values()]
    tail = {
        "percentile": tail_p,
        "functions": len(fn_ms),
        "functions_beyond": len(fn_ms) * (100 - tail_p) / 100,
        "samples_per_function": sorted(len(xs) for xs in ph.scaled_ms.values()),
        "wall": {k: v for k, (v, _) in timing_metrics(wall_ms, tail_p).items()},
    }
    return m, tail


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def quality_digest(rows: dict) -> str:
    return sha256(json.dumps([rows[k] for k in sorted(rows)], sort_keys=True))
