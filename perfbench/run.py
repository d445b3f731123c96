"""tritsynth benchmark: time to a verified netlist, and its quality.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

The package is imported from the checkout's src/ directory; nothing needs
installing.  The last line of standard output is one JSON object with
"correct", "attempted", "failed" and "metrics" (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1).  A full record, including
one quality row per function, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostprobe  # this file's directory, which is first on sys.path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
STATE = OUT / "state.json"

SETUP_PROBES = 15
READY = "perfbench-ready"


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_package():
    """Put the checkout's src/ first on the path and make sure tritsynth
    comes from there, never from an installed copy."""
    pkg = SRC / "tritsynth"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: no tritsynth sources at {pkg}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import tritsynth

    if Path(tritsynth.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: imported tritsynth from {tritsynth.__file__}, not {pkg}")


def setup_probe(workload, seed) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter to the point where it
    would start its first operation (imports plus table generation): wall,
    and on the reference host.  The child takes the host probes itself, on
    the CPU doing the work, and reports them; their time is left out."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        word, _, report = proc.stdout.readline().partition(" ")
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if word != READY or code != 0:
        sys.exit(f"perfbench: setup probe failed (exit {code}, said {word!r})")
    probes_ms = json.loads(report)
    wall_s = elapsed - sum(probes_ms) / 1e3
    return wall_s, hostprobe.ref_seconds(wall_s, probes_ms)


class SetupProbes:
    """SETUP_PROBES setup probes spread over the timed phase, one each time
    another 1/SETUP_PROBES of its operation time has passed.  The host's
    slow spells last seconds, so probes taken back to back mostly sample
    one spell; spread out, their median samples the whole run."""

    def __init__(self, workload, seed, seconds):
        self.args = (workload, seed)
        self.every = seconds / SETUP_PROBES
        self.times = []

    def __call__(self, busy_s):
        if len(self.times) < SETUP_PROBES and busy_s >= len(self.times) * self.every:
            self.times.append(setup_probe(*self.args))

    def finish(self) -> list[tuple[float, float]]:
        """(wall, reference-host) seconds of every probe."""
        while len(self.times) < SETUP_PROBES:
            self.times.append(setup_probe(*self.args))
        return self.times


def code_digest() -> str:
    """sha256 over the package and benchmark sources.  Cross-run digests are
    kept per code version, so a deliberate change to the program's output
    in a reused checkout is not mistaken for nondeterminism."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "tritsynth").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(path.read_bytes())
    return h.hexdigest()


def load_state():
    try:
        return json.loads(STATE.read_text()).get(code_digest(), {})
    except FileNotFoundError:
        return {}


def save_state(state):
    try:
        versions = json.loads(STATE.read_text())
    except FileNotFoundError:
        versions = {}
    versions[code_digest()] = state
    tmp = STATE.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(versions, indent=1, sort_keys=True))
    os.replace(tmp, STATE)


def check_across_runs(state, key, value, what, problems):
    """Remember value under key; report a differing remembered value."""
    old = state.setdefault(key, value)
    if old != value:
        problems.append(f"nondeterminism: {what} differs from an earlier run ({old} != {value})")


def format_rows(rows) -> list[str]:
    lines = [f"{'function':12} {'paper':>6} {'honest':>6} {'anc':>5} {'bound':>6} {'depth':>5} "
             f"{'gates':>5} {'coll':>4} rev  kinds"]
    for r in rows:
        kinds = " ".join(f"{k}={v}" for k, v in r["gates_by_kind"].items())
        lines.append(
            f"{r['name']:12} {r['cost_paper']:>6} {r['cost_honest']:>6} {r['ancillae']:>5} "
            f"{r['ancilla_bound']:>6} {r['depth']:>5} {r['gates']:>5} {r['collectors']:>4} "
            f"{'yes' if r['reversible'] else 'no ':3}  {kinds}"
        )
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    # A setup probe child times its imports and table build (see setup_probe).
    child = hostprobe.Timed().start() if "--setup-probe" in argv else None
    import_package()
    import harness
    import workloads

    args = parse_args(argv, workloads.WORKLOADS)
    specs = workloads.make_specs(args.workload, args.seed)
    if child is not None:
        workloads.build(specs)
        child.stop()
        print(READY, json.dumps(child.probes_ms), flush=True)
        return 0

    fns = workloads.build(specs)
    columns = [workloads.reference_columns(s, f) for s, f in zip(specs, fns)]
    cache = {}
    if args.trace:
        # An untraced phase, the baseline for the tracing overhead, then the
        # traced phase.  Traced runs report no setup_s, so they skip the probes.
        ph = harness.timed_phase(fns, columns, args.seconds / 2, cache)
        setup_times = []
    else:
        probes = SetupProbes(args.workload, args.seed, args.seconds)
        ph = harness.timed_phase(fns, columns, args.seconds, cache, probes)
        setup_times = probes.finish()
    rss = harness.peak_rss_mb()
    problems = list(ph.problems)
    if len(ph.rows) != len(fns):
        problems.append(f"only {len(ph.rows)} of {len(fns)} functions produced a checked netlist")

    OUT.mkdir(exist_ok=True)
    state = load_state()
    run_key = f"{args.workload}:{args.seed}"
    quality_sha = harness.quality_digest(ph.rows)
    check_across_runs(state, f"quality:{run_key}", quality_sha, "quality rows digest", problems)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "machine": f"{platform.machine()} {platform.processor() or ''}".strip(),
        "cpus": os.cpu_count(),
        "setup_probes_s": setup_times,
        "passes": ph.passes,
        "pass_s": ph.pass_s,
        "pass_cpu_s": ph.pass_cpu_s,
        "probe_reference_ms": hostprobe.REFERENCE_MS,
        "probe_ms": ph.probe_ms,
        "quality_digest": quality_sha,
    }
    if args.trace:
        tp = harness.traced_phase(specs, ph.rows, args.seconds / 2, cache)
        problems += tp.problems
        bench_sha = next(iter(tp.bench_shas))
        check_across_runs(state, f"rows_checked:{run_key}", tp.passes[0][1]["sim.rows_checked"],
                          "sim.rows_checked", problems)
        metrics = harness.per_layer_metrics(tp, harness.pass_ms(ph))
        record["traced_passes"] = len(tp.passes)
        t_base = tp.spans[0][3]
        record["spans"] = [[op, name, parent, round((t0 - t_base) * 1e3, 3), round((t1 - t0) * 1e3, 3)]
                           for op, name, parent, t0, t1 in tp.spans]
    else:
        bench_sha, _ = harness.bench_digest()
        metrics, tail = harness.end_to_end_metrics(
            ph, workloads.TAIL_PERCENTILE[args.workload], statistics.median([s for _, s in setup_times]), rss)
        record["tail"] = tail
        record["samples_ms"] = dict(sorted(ph.samples_ms.items()))
        record["scaled_ms"] = dict(sorted(ph.scaled_ms.items()))
    check_across_runs(state, "bench_rows_json_sha256", bench_sha, "bench rows JSON sha256", problems)
    save_state(state)

    rows = [ph.rows[k] for k in sorted(ph.rows)]
    record.update(
        bench_rows_json_sha256=bench_sha,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        problems=problems,
        quality_rows=rows,
    )
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {ph.passes} passes, "
          f"{ph.attempted} ops, {ph.failed} failed; record in {out_file.relative_to(ROOT)}")
    probes = [p for pair in ph.probe_ms for p in pair]
    print(f"host probe: median {statistics.median(probes):.2f} ms, fastest {min(probes):.2f} ms, "
          f"reference {hostprobe.REFERENCE_MS} ms; {len(probes)} probes")
    if not args.trace:
        print(f"tail: p{tail['percentile']} of {tail['functions']} per-function medians "
              f"({tail['functions_beyond']:g} beyond), {min(tail['samples_per_function'])} to "
              f"{max(tail['samples_per_function'])} calls each")
        print("wall (unscaled): " + ", ".join(f"{k} {v:.4g}" for k, v in tail["wall"].items()))
    print(f"bench rows JSON sha256 {bench_sha}")
    for line in format_rows(rows):
        print(line)
    for msg in problems:
        print(f"PROBLEM {msg}")
    print(json.dumps({
        "correct": not problems,
        "attempted": ph.attempted,
        "failed": ph.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
