"""Gate semantics, netlist plumbing, cost models, depth."""

import copy
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritsynth.core import (
    ALL_SHIFTS,
    BUFFER,
    DUAL_SHIFT,
    SELF_SHIFT,
    SELF_SINGLE_SHIFT,
    SINGLE_SHIFT,
    TRITS,
    Trit,
    shift_by_name,
)
from tritsynth.gates import (
    C2NOT,
    COST_MODELS,
    GTG,
    Feynman,
    Gate,
    MSGate,
    MaxGate,
    MinGate,
    MultiGTG,
    Netlist,
    PAPER_COST,
    STRICT_COST,
    Toffoli,
    gate_from_dict,
    netlist_depth,
)
from tritsynth.sim import simulate


def run_gate(gate, **wire_values):
    state = {w: Trit(v) for w, v in wire_values.items()}
    gate.apply(state)
    return state


def test_ms_gate_fires_only_on_control_two():
    g = MSGate("c", "t")
    for c, t in itertools.product(range(3), repeat=2):
        out = run_gate(g, c=c, t=t)["t"]
        assert out == ((t + 1) % 3 if c == 2 else t)


def test_feynman_adds_control_into_target():
    g = Feynman("a", "b")
    for a, b in itertools.product(range(3), repeat=2):
        assert run_gate(g, a=a, b=b)["b"] == (a + b) % 3
        assert run_gate(g, a=a, b=b)["a"] == a


def test_toffoli_fires_only_on_double_two():
    g = Toffoli("c1", "c2", "t")
    for c1, c2, t in itertools.product(range(3), repeat=3):
        out = run_gate(g, c1=c1, c2=c2, t=t)["t"]
        assert out == ((t + 1) % 3 if c1 == c2 == 2 else t)


def test_gtg_selects_shift_by_control_value():
    g = GTG("c", "t", (BUFFER, DUAL_SHIFT, SELF_SINGLE_SHIFT))
    expect = {0: lambda t: t, 1: lambda t: (t + 2) % 3, 2: lambda t: (2 * t + 1) % 3}
    for c, t in itertools.product(range(3), repeat=2):
        assert run_gate(g, c=c, t=t)["t"] == expect[c](t)
    assert run_gate(g, c=0, t=1)["t"] == 1


def test_multigtg_fires_only_on_unanimous_controls():
    g = MultiGTG(("x", "y"), "t", (SINGLE_SHIFT, BUFFER, SELF_SHIFT))
    for x, y, t in itertools.product(range(3), repeat=3):
        out = run_gate(g, x=x, y=y, t=t)["t"]
        if x == y:
            assert out == g.shifts[x].apply(t)
        else:
            assert out == t


def test_multigtg_single_control_degenerates_to_gtg():
    shifts = (DUAL_SHIFT, SINGLE_SHIFT, BUFFER)
    m = MultiGTG(("c",), "t", shifts)
    g = GTG("c", "t", shifts)
    for c, t in itertools.product(range(3), repeat=2):
        assert run_gate(m, c=c, t=t)["t"] == run_gate(g, c=c, t=t)["t"]


def test_c2not_firing_set():
    g = C2NOT("a", "b", "t")
    for a, b, t in itertools.product(range(3), repeat=3):
        out = run_gate(g, a=a, b=b, t=t)["t"]
        if (a, b) in ((1, 2), (2, 1)):
            assert out == (t + 1) % 3
        else:
            assert out == t


def test_max_min_collectors():
    mx = MaxGate(("a", "b"), "t")
    mn = MinGate(("a", "b"), "t")
    for a, b, t in itertools.product(range(3), repeat=3):
        assert run_gate(mx, a=a, b=b, t=t)["t"] == max(a, b, t)
        assert run_gate(mn, a=a, b=b, t=t)["t"] == min(a, b, t)
    assert not mx.reversible and not mn.reversible


def test_reversible_gates_are_bijections():
    gates = [
        MSGate("w0", "w1"),
        Feynman("w0", "w1"),
        GTG("w0", "w1", (SELF_SHIFT, SINGLE_SHIFT, DUAL_SHIFT)),
        Toffoli("w0", "w1", "w2"),
        C2NOT("w0", "w1", "w2"),
        MultiGTG(("w0", "w1"), "w2", (SINGLE_SHIFT, SELF_SHIFT, BUFFER)),
    ]
    for g in gates:
        ws = sorted(set(g.wires()))
        seen = set()
        for vals in itertools.product(range(3), repeat=len(ws)):
            state = {w: Trit(v) for w, v in zip(ws, vals)}
            g.apply(state)
            seen.add(tuple(state[w] for w in ws))
        assert len(seen) == 3 ** len(ws), f"{g.kind} not a bijection"


def test_gtg_with_inverse_shifts_undoes_itself():
    shifts = (SELF_SINGLE_SHIFT, DUAL_SHIFT, SINGLE_SHIFT)
    fwd = GTG("c", "t", shifts)
    back = GTG("c", "t", tuple(s.inverse() for s in shifts))
    for c, t in itertools.product(range(3), repeat=2):
        state = {"c": Trit(c), "t": Trit(t)}
        fwd.apply(state)
        back.apply(state)
        assert state == {"c": c, "t": t}


def test_three_ms_gates_cancel():
    g = MSGate("c", "t")
    for c, t in itertools.product(range(3), repeat=2):
        state = {"c": Trit(c), "t": Trit(t)}
        for _ in range(3):
            g.apply(state)
        assert state["t"] == t


def test_wires_must_be_distinct():
    with pytest.raises(ValueError, match="distinct"):
        MSGate("a", "a")
    with pytest.raises(ValueError, match="distinct"):
        Toffoli("a", "b", "a")
    with pytest.raises(ValueError, match="distinct"):
        MaxGate(("a", "b"), "b")
    with pytest.raises(ValueError, match="need at least one input"):
        MinGate((), "t")


def test_gtg_needs_exactly_three_shifts():
    with pytest.raises(ValueError, match="one shift per control value"):
        GTG("c", "t", (BUFFER, BUFFER))
    with pytest.raises(TypeError, match="not a shift: 'Buffer'"):
        GTG("c", "t", (BUFFER, "Buffer", BUFFER))
    with pytest.raises(ValueError):
        MultiGTG((), "t", (BUFFER, BUFFER, BUFFER))


def test_shift_by_name_round_trip():
    for s in ALL_SHIFTS:
        assert shift_by_name(s.name) == s
    with pytest.raises(ValueError, match="unknown shift"):
        shift_by_name("Nonsense")


def test_netlist_validation():
    with pytest.raises(ValueError, match="duplicate"):
        Netlist(input_names=("a", "a"))
    with pytest.raises(ValueError, match="collides"):
        Netlist(input_names=("a",), ancilla_init={"a": Trit(0)})
    for bad in (3, -1, 1.0, True):
        with pytest.raises(ValueError, match="ancilla 'x': trit value"):
            Netlist(input_names=("a",), ancilla_init={"x": bad})
    assert Netlist(input_names=("a",), ancilla_init={"x": 2}).ancilla_init["x"] is TRITS[2]
    nl = Netlist(input_names=("a",))
    with pytest.raises(ValueError, match="unknown wires"):
        nl.append(MSGate("a", "ghost"))


def test_add_ancilla_mints_fresh_names():
    nl = Netlist(input_names=("a", "b"))
    w0 = nl.add_ancilla("anc", 0)
    w1 = nl.add_ancilla("anc", 2)
    assert w0 == "anc0" and w1 == "anc1"
    assert nl.ancilla_init == {"anc0": 0, "anc1": 2}
    assert nl.ancilla_count == 2


def test_netlist_json_round_trip():
    nl = Netlist(input_names=("a", "b"))
    t = nl.add_ancilla("anc", 0)
    nl.append(MultiGTG(("a", "b"), t, (SINGLE_SHIFT, BUFFER, SELF_SHIFT)))
    nl.append(C2NOT("a", "b", t))
    nl.append(Feynman("a", "b"))
    nl.append(MaxGate(("a",), t))
    nl.outputs["f"] = t
    back = Netlist.from_json(nl.to_json())
    assert back.input_names == nl.input_names
    assert back.ancilla_init == nl.ancilla_init
    assert back.gates == nl.gates
    assert back.outputs == nl.outputs


def test_gate_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown gate kind"):
        gate_from_dict({"kind": "quux"})


def _every_kind_netlist():
    nl = Netlist(input_names=("a", "b"))
    t = nl.add_ancilla("anc", 0)
    nl.append(MSGate("a", t))
    nl.append(Feynman("a", "b"))
    nl.append(Toffoli("a", "b", t))
    nl.append(GTG("a", t, (SINGLE_SHIFT, BUFFER, SELF_SHIFT)))
    nl.append(MultiGTG(("a", "b"), t, (SINGLE_SHIFT, BUFFER, SELF_SHIFT)))
    nl.append(C2NOT("a", "b", t))
    nl.append(MaxGate(("a",), t))
    nl.append(MinGate(("a", "b"), t))
    nl.outputs["f"] = t
    return nl


def test_every_gate_kind_round_trips_through_json():
    nl = _every_kind_netlist()
    assert Netlist.from_json(nl.to_json()).to_json() == nl.to_json()


@pytest.mark.parametrize(
    "gate, message",
    [
        (7, "a gate must be an object"),
        ({"kind": ["gtg"]}, "unknown gate kind"),
        ({"kind": "toffoli", "control_a": "a", "target": "b"}, "toffoli gate needs fields"),
        ({"kind": "feynman", "control": "a", "target": "b", "extra": 1}, "got control, extra, target"),
        ({"kind": "multigtg", "controls": "ab", "target": "t", "shifts": []}, "'controls' must be a list"),
        ({"kind": "ms", "control": 2, "target": "t"}, "'control' must be a wire name"),
        ({"kind": "gtg", "control": "a", "target": "t", "shifts": ["Buffer"]}, "gtg gate: need one shift"),
        ({"kind": "gtg", "control": "a", "target": "t", "shifts": ["Warp"] * 3}, "unknown shift name"),
        ({"kind": "max", "inputs": [], "target": "t"}, "max gate: need at least one input"),
    ],
)
def test_gate_from_dict_names_the_problem(gate, message):
    with pytest.raises(ValueError, match=message):
        gate_from_dict(gate)


_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 3) | st.sampled_from(["a", "t", "zz", "feynman", "Buffer"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["kind", "target", "x"]), inner, max_size=3),
    max_leaves=6,
)


def _json_paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _json_paths(value, prefix + (key,))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_netlist_json_with_any_part_replaced_or_dropped_fails_cleanly(data):
    # Malformed netlist input of any shape must raise ValueError (exit 2
    # at the command line), never another exception.
    doc = json.loads(_every_kind_netlist().to_json())
    path = data.draw(st.sampled_from(list(_json_paths(doc))))
    drop = bool(path) and data.draw(st.booleans())
    value = None if drop else data.draw(_ANY_JSON)
    if not path:
        doc = value
    else:
        doc = copy.deepcopy(doc)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if drop:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    try:
        Netlist.from_json(json.dumps(doc))
    except ValueError:
        pass


def test_flat_gate_costs():
    assert PAPER_COST.gate_cost(MSGate("c", "t")) == 1
    assert PAPER_COST.gate_cost(Feynman("c", "t")) == 4
    assert PAPER_COST.gate_cost(Toffoli("a", "b", "t")) == 5
    assert PAPER_COST.gate_cost(GTG("c", "t", (BUFFER, BUFFER, BUFFER))) == 5
    assert PAPER_COST.gate_cost(
        MultiGTG(("a", "b", "c"), "t", (BUFFER, BUFFER, BUFFER))
    ) == 5
    assert PAPER_COST.gate_cost(C2NOT("a", "b", "t")) == 8
    assert PAPER_COST.gate_cost(MaxGate(("a", "b"), "t")) == 0
    assert PAPER_COST.gate_cost(MinGate(("a", "b", "c"), "t")) == 0


def test_strict_costs_scale_with_fanin():
    assert STRICT_COST.gate_cost(
        MultiGTG(("a", "b", "c"), "t", (BUFFER, BUFFER, BUFFER))
    ) == 15
    assert STRICT_COST.gate_cost(MaxGate(("a", "b", "c"), "t")) == 15
    assert STRICT_COST.gate_cost(MinGate(("a",), "t")) == 5
    assert STRICT_COST.gate_cost(C2NOT("a", "b", "t")) == 8


def test_unknown_gate_has_no_cost():
    class Mystery(Gate):
        kind = "mystery"

    for gate in (Mystery(), object()):
        for model in (PAPER_COST, STRICT_COST):
            with pytest.raises(TypeError, match="no cost"):
                model.gate_cost(gate)


def test_c2not_pair_fusing():
    nl = Netlist(input_names=("a", "b"))
    t = nl.add_ancilla("anc", 0)
    nl.append(C2NOT("a", "b", t))
    nl.append(C2NOT("a", "b", t))
    # Identical pairs merge into one priced unit under the flat model.
    assert PAPER_COST.netlist_cost(nl) == 8
    assert STRICT_COST.netlist_cost(nl) == 16
    nl.append(C2NOT("a", "b", t))
    assert PAPER_COST.netlist_cost(nl) == 16
    # A C2NOT on different wires is its own group.
    u = nl.add_ancilla("anc", 0)
    nl.append(C2NOT("a", "b", u))
    assert PAPER_COST.netlist_cost(nl) == 24


def test_c2not_fusing_ignores_interleaving():
    nl = Netlist(input_names=("a", "b"))
    t = nl.add_ancilla("anc", 0)
    u = nl.add_ancilla("anc", 0)
    nl.append(C2NOT("a", "b", t))
    nl.append(C2NOT("a", "b", u))
    nl.append(C2NOT("a", "b", t))
    nl.append(C2NOT("a", "b", u))
    assert PAPER_COST.netlist_cost(nl) == 16


def test_cost_model_registry():
    assert set(COST_MODELS) == {"paper", "strict"}
    assert COST_MODELS["paper"].fuse_c2not_pairs
    assert not COST_MODELS["strict"].fuse_c2not_pairs


def test_depth_counts_wire_conflicts():
    nl = Netlist(input_names=("a", "b", "c", "d"))
    assert netlist_depth(nl) == 0
    nl.append(Feynman("a", "b"))
    nl.append(Feynman("c", "d"))
    # Disjoint wires share a level.
    assert netlist_depth(nl) == 1
    nl.append(Feynman("b", "c"))
    assert netlist_depth(nl) == 2
    # a and d were last touched at level 1, so this slots in beside b-c.
    nl.append(Feynman("a", "d"))
    assert netlist_depth(nl) == 2
    nl.append(Feynman("a", "b"))
    assert netlist_depth(nl) == 3


def test_simulate_two_gtg_double_then_add_one():
    # Feed a through two gates onto a zero ancilla: first copy via add,
    # then conditionally self-shift.  Checks sequencing end to end.
    nl = Netlist(input_names=("a",))
    t = nl.add_ancilla("anc", 0)
    nl.append(Feynman("a", t))
    nl.append(GTG("a", t, (BUFFER, BUFFER, SELF_SHIFT)))
    nl.outputs["f"] = t
    got = [int(simulate(nl, (x,)).outputs["f"]) for x in range(3)]
    # a=2: copy gives 2, self-shift maps 2 to 1.
    assert got == [0, 1, 1]
