"""Simulator and exhaustive checker."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritsynth.core import BUFFER, SELF_SHIFT, SINGLE_SHIFT, Trit
from tritsynth.gates import C2NOT, Feynman, MultiGTG, Netlist, Toffoli
from tritsynth.sim import CheckResult, SimResult, exhaustive_check, simulate
from tritsynth.synth import SynthOptions, synth
from tritsynth.truthtables import TernaryFunction, all_inputs, builtin, lex_index


def _feynman_netlist():
    nl = Netlist(input_names=("a", "b"))
    t = nl.add_ancilla("anc", 0)
    nl.append(Feynman("a", t))
    nl.append(Feynman("b", t))
    nl.outputs["sum2"] = t
    return nl


def test_simulate_accepts_sequence_and_dict():
    nl = _feynman_netlist()
    by_seq = simulate(nl, (1, 2))
    by_map = simulate(nl, {"a": 1, "b": 2})
    assert by_seq.outputs == by_map.outputs == {"sum2": 0}
    assert by_seq.state["a"] == 1 and by_seq.state["anc0"] == 0


def test_simulate_validates_inputs():
    nl = _feynman_netlist()
    with pytest.raises(ValueError, match="expected 2 inputs"):
        simulate(nl, (1,))
    with pytest.raises(ValueError, match="unexpected input wires"):
        simulate(nl, {"a": 1, "b": 2, "zz": 0})
    with pytest.raises(ValueError):
        simulate(nl, (1, 7))
    # Wire names are checked before any value is read.
    for partial in ({"a": 1}, {"a": 1, "zz": 0}, {"a": 7}):
        with pytest.raises(ValueError, match=r"missing input wires: \['b'\]"):
            simulate(nl, partial)


def test_ancilla_values_written_after_construction_are_checked():
    nl = _feynman_netlist()
    nl.ancilla_init["anc0"] = 5
    with pytest.raises(ValueError, match="got 5"):
        simulate(nl, (1, 2))
    with pytest.raises(ValueError, match="got 5"):
        exhaustive_check(nl, builtin("sum2"))


def test_exhaustive_check_accepts_correct_netlist():
    res = exhaustive_check(_feynman_netlist(), builtin("sum2"))
    assert res.ok
    assert res.checked == 9
    assert res.counterexample is None
    assert res.message() == "ok (9 assignments)"


def test_exhaustive_check_reports_first_mismatch():
    # A Toffoli is not a Feynman: it only ever bumps the target on 2s.
    nl = Netlist(input_names=("a", "b"))
    t = nl.add_ancilla("anc", 0)
    nl.append(Toffoli("a", "b", t))
    nl.outputs["sum2"] = t
    res = exhaustive_check(nl, builtin("sum2"))
    assert not res.ok
    assert res.counterexample == (0, 1)
    assert res.checked == 2
    assert res.expected == 1 and res.got == 0
    assert "expected 1, got 0" in res.message()


def test_exhaustive_check_single_output_wrapping():
    nl = _feynman_netlist()
    fn = TernaryFunction.from_callable("anything", 2, lambda a, b: (a + b) % 3)
    assert exhaustive_check(nl, fn).ok


def test_exhaustive_check_positional_matching():
    # Anonymous reference outputs pair up with netlist outputs in order.
    nl = Netlist(input_names=("a", "b"))
    s = nl.add_ancilla("anc", 0)
    c = nl.add_ancilla("anc", 0)
    nl.append(Feynman("a", s))
    nl.append(Feynman("b", s))
    nl.append(C2NOT("a", "b", c))
    nl.append(MultiGTG(("a", "b"), c, (BUFFER, BUFFER, SINGLE_SHIFT)))
    nl.outputs["x"] = s
    nl.outputs["y"] = c
    assert exhaustive_check(nl, builtin("thadd")).ok


def test_exhaustive_check_name_matching_beats_position():
    nl = Netlist(input_names=("a", "b"))
    s = nl.add_ancilla("anc", 0)
    c = nl.add_ancilla("anc", 0)
    nl.append(Feynman("a", s))
    nl.append(Feynman("b", s))
    nl.append(C2NOT("a", "b", c))
    nl.append(MultiGTG(("a", "b"), c, (BUFFER, BUFFER, SINGLE_SHIFT)))
    # Intentionally declared carry-first; names still line up.
    nl.outputs["carryh"] = c
    nl.outputs["sumh"] = s
    assert exhaustive_check(nl, builtin("thadd")).ok


def test_exhaustive_check_arity_and_count_validation():
    nl = _feynman_netlist()
    with pytest.raises(ValueError, match="arity mismatch"):
        exhaustive_check(nl, builtin("sum3"))
    with pytest.raises(ValueError, match="output count mismatch"):
        exhaustive_check(nl, builtin("thadd"))


def test_reversible_netlist_is_injective_on_register():
    nl = Netlist(input_names=("a", "b"))
    t = nl.add_ancilla("anc", 1)
    nl.append(Feynman("a", "b"))
    nl.append(C2NOT("a", "b", t))
    nl.append(MultiGTG(("a", "b"), t, (SELF_SHIFT, SINGLE_SHIFT, BUFFER)))
    assert nl.reversible
    images = set()
    for a, b in itertools.product(range(3), repeat=2):
        st = simulate(nl, (a, b)).state
        images.add((st["a"], st["b"], st["t"] if "t" in st else st["anc0"]))
    assert len(images) == 9


def test_results_are_plain_dataclasses():
    res = simulate(_feynman_netlist(), (0, 0))
    assert isinstance(res, SimResult)
    chk = exhaustive_check(_feynman_netlist(), builtin("sum2"))
    assert isinstance(chk, CheckResult)


def _first_mismatch_pointwise(netlist, fn):
    """Reference for exhaustive_check: (row, output) of the first mismatch."""
    for row in all_inputs(fn.arity):
        outputs = simulate(netlist, row).outputs
        for out in fn.outputs:
            if outputs[out.name] != out.eval(row):
                return row, out.name
    return None


SMALL_BUILTINS = [
    "g_example", "mul2", "thadd", "tfadd", "sqsum3", "avg3", "a2bcc", "mul3", "prod3",
]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SMALL_BUILTINS), st.sampled_from(["max", "shared"]), st.data())
def test_checked_counts_rows_up_to_the_first_mismatch_of_a_mutated_netlist(name, combine, data):
    fn = builtin(name)
    nl = synth(fn, SynthOptions(combine=combine)).netlist
    del nl.gates[data.draw(st.integers(0, len(nl.gates) - 1))]
    res = exhaustive_check(nl, fn)
    want = _first_mismatch_pointwise(nl, fn)
    if want is None:
        assert res.ok and res.checked == 3**fn.arity
    else:
        assert (res.counterexample, res.output_name) == want
        assert res.checked == lex_index(res.counterexample) + 1
