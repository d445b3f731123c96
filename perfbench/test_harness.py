"""Tests of the benchmark's own checks.  Run: python3 -m pytest perfbench"""

import dataclasses
import json
import signal
import time

import pytest
import tritsynth
from tritsynth import BUFFER, MultiGTG, builtin, synth

import harness
import hostprobe
import refcheck
import workloads


def _catalog(*names):
    specs = [workloads.Spec(n, "builtin") for n in names]
    fns = workloads.build(specs)
    return fns, [workloads.reference_columns(s, f) for s, f in zip(specs, fns)]


def _mute_first_multigtg(rep):
    """Turn the first MultiGTG into a no-op, leaving verified=True."""
    gates = rep.netlist.gates
    k = next(i for i, g in enumerate(gates) if isinstance(g, MultiGTG))
    gates[k] = dataclasses.replace(gates[k], shifts=(BUFFER, BUFFER, BUFFER))
    return rep


def test_refcheck_accepts_synthesized_netlists():
    fns, cols = _catalog("mul2", "tfadd", "sum4", "avg3")
    for fn, col in zip(fns, cols):
        assert refcheck.check_netlist(synth(fn).netlist.to_json(), fn.arity, col) is None


def test_refcheck_rejects_one_mutated_gate():
    (fn,), (col,) = _catalog("mul2")
    rep = _mute_first_multigtg(synth(fn))
    assert "expected" in refcheck.check_netlist(rep.netlist.to_json(), fn.arity, col)


def test_refcheck_names_unknown_gate_kind():
    (fn,), (col,) = _catalog("mul2")
    doc = json.loads(synth(fn).netlist.to_json())
    doc["gates"][0]["kind"] = "warp"
    assert "unknown gate kind 'warp'" in refcheck.check_netlist(json.dumps(doc), fn.arity, col)


def test_mutated_netlist_raises_fail_ratio(monkeypatch):
    fns, cols = _catalog("mul2", "thadd")
    clean = harness.timed_phase(fns, cols, 0.0, {})
    assert clean.failed == 0 and not clean.problems

    monkeypatch.setattr(harness, "synth", lambda fn: _mute_first_multigtg(synth(fn)))
    ph = harness.timed_phase(fns, cols, 0.0, {})
    assert ph.attempted >= 2 and ph.failed == ph.attempted
    metrics, _ = harness.end_to_end_metrics(
        dataclasses.replace(ph, rows=clean.rows), 50, setup_s=1.0, peak_rss_mb=1.0
    )
    assert metrics["ok_ratio"][0] == 0.0
    assert all("reference check" in p for p in ph.problems)


def test_changed_quality_row_is_nondeterminism():
    ph = harness.Phase()
    row = harness.quality_row(synth(builtin("mul2")))
    ph.record_row(row)
    ph.record_row(dict(row, depth=row["depth"] + 1))
    assert ph.problems and "nondeterminism" in ph.problems[0]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tail_percentile_leaves_two_functions_beyond(workload):
    p = workloads.TAIL_PERCENTILE[workload]
    n_fns = len(workloads.make_specs(workload, 1))
    assert n_fns * (100 - p) / 100 >= 2


def test_wide_seeds_rename_sparse_inputs_only():
    a, b = workloads.make_specs("wide", 1), workloads.make_specs("wide", 2)
    assert a != b
    for fa, fb in zip(a, b):
        for oa, ob in zip(fa.outputs, fb.outputs):
            assert oa == ob if oa.kind == "affine" else sorted(oa.data) == sorted(ob.data)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_is_seeded_and_reference_columns_match_tables(workload):
    specs = workloads.make_specs(workload, 7)
    assert specs == workloads.make_specs(workload, 7)
    for spec, fn in zip(specs, workloads.build(specs)):
        cols = workloads.reference_columns(spec, fn)
        assert cols == {o.name: tuple(int(v) for v in o.values) for o in fn.outputs}


def test_traced_self_times_add_up_to_the_operation():
    specs = [workloads.Spec("tfadd", "builtin"), workloads.Spec("sum4", "builtin")]
    fns, cols = _catalog("tfadd", "sum4")
    rows = harness.timed_phase(fns, cols, 0.0, {}).rows
    tp = harness.TracedPhase()
    harness.traced_pass(tp, specs, rows, {}, 0)
    assert not tp.problems
    times, counts = tp.passes[0]
    layers = ("truthtables.linear_detect", "expr.minterm_extract", "simplify",
              "synth", "gates.cost_depth", "sim.exhaustive_check")
    assert all(times[k] > 0 for k in layers)
    assert sum(times[k] for k in layers) == pytest.approx(times["op"])
    assert counts["sim.rows_checked"] == 3**3 + 3**4
    assert counts["truthtables.affine_outputs"] == 2 and counts["synth.path_sop"] == 1
    assert harness._synth_mod.simplify is tritsynth.simplify


def test_timed_probes_inside_a_long_block_and_leaves_out_their_time():
    handler = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    with hostprobe.Timed(interval_s=0.02) as tm:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    # The loop ran 0.2 s of wall time, probes inside included.
    inside_s = sum(tm.probes_ms[1:-1]) / 1e3
    assert len(tm.probes_ms) >= 5
    assert tm.wall_s == pytest.approx(0.2 - inside_s, abs=0.02)
    assert time.perf_counter() - t0 > 0.2
    assert tm.ref_s == pytest.approx(
        tm.wall_s * sum(hostprobe.REFERENCE_MS / p for p in tm.probes_ms) / len(tm.probes_ms))
    assert signal.getsignal(signal.SIGALRM) is handler
