"""Netlist simulation and exhaustive verification.

Simulation walks the gate list over a wire-value dict.  Verification
compares a netlist against a reference function on every input
assignment; register widths here are small enough that nothing cleverer
is warranted.  Both entry points check the ancilla values once per
call; simulate also checks its inputs, while exhaustive_check feeds the
rows of all_inputs, which are Trits already, straight to the gates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import Trit
from .truthtables import all_inputs, as_multi_output


class VerificationError(RuntimeError):
    """A netlist disagreed with its reference function."""

    def __init__(self, message, counterexample=None):
        super().__init__(message)
        self.counterexample = counterexample


@dataclass(frozen=True)
class SimResult:
    outputs: dict[str, Trit]
    state: dict[str, Trit]


def simulate(netlist, inputs) -> SimResult:
    """Run the netlist on one input assignment.

    inputs is either a sequence ordered like netlist.input_names or a
    mapping from input name to value.
    """
    names = netlist.input_names
    if isinstance(inputs, dict):
        missing = [name for name in names if name not in inputs]
        if missing:
            raise ValueError(f"missing input wires: {missing}")
        extra = set(inputs) - set(names)
        if extra:
            raise ValueError(f"unexpected input wires: {sorted(extra)}")
        vals = tuple(inputs[name] for name in names)
    else:
        vals = tuple(inputs)
        if len(vals) != len(names):
            raise ValueError(f"expected {len(names)} inputs, got {len(vals)}")
    state = _run(netlist, _ancillas(netlist), tuple(Trit(v) for v in vals))
    outputs = {name: state[wire] for name, wire in netlist.outputs.items()}
    return SimResult(outputs=outputs, state=state)


def _ancillas(netlist):
    """The ancilla start values, checked again: ancilla_init is a plain
    dict that callers may have written to since Netlist checked it."""
    return {wire: Trit(v) for wire, v in netlist.ancilla_init.items()}


def _run(netlist, ancillas, row):
    """Wire values after the gates run on row (Trits ordered like
    netlist.input_names) and the given ancilla values; checks nothing."""
    state = dict(zip(netlist.input_names, row))
    state.update(ancillas)
    for gate in netlist.gates:
        gate.apply(state)
    return state


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    checked: int
    counterexample: Optional[tuple[Trit, ...]] = None
    output_name: Optional[str] = None
    expected: Optional[Trit] = None
    got: Optional[Trit] = None

    def message(self):
        if self.ok:
            return f"ok ({self.checked} assignments)"
        row = "".join(str(int(t)) for t in self.counterexample)
        return (
            f"mismatch on output {self.output_name!r} at input {row}: "
            f"expected {int(self.expected)}, got {int(self.got)}"
        )


def _output_pairs(netlist, fn):
    """Match netlist outputs to reference outputs.

    By name when the two name sets coincide, otherwise positionally in
    declaration order (tables read from disk carry anonymous outputs).
    """
    net_names = list(netlist.outputs)
    ref_names = list(fn.output_names)
    if len(net_names) != len(ref_names):
        raise ValueError(
            f"output count mismatch: netlist has {len(net_names)}, "
            f"reference has {len(ref_names)}"
        )
    if set(net_names) == set(ref_names):
        return [(n, n) for n in net_names]
    return list(zip(net_names, ref_names))


def exhaustive_check(netlist, fn) -> CheckResult:
    """Compare a netlist with a reference over all input assignments.

    fn may be a MultiOutputFunction or a single TernaryFunction.
    Returns the first mismatch in lexicographic input order, if any.
    """
    fn = as_multi_output(fn)
    if len(netlist.input_names) != fn.arity:
        raise ValueError(
            f"arity mismatch: netlist has {len(netlist.input_names)} inputs, "
            f"reference has {fn.arity}"
        )
    columns = [
        (net, netlist.outputs[net], fn.output(ref).values)
        for net, ref in _output_pairs(netlist, fn)
    ]
    ancillas = _ancillas(netlist)
    for index, row in enumerate(all_inputs(fn.arity)):
        state = _run(netlist, ancillas, row)
        for net_name, wire, values in columns:
            want = values[index]
            got = state[wire]
            if got != want:
                return CheckResult(
                    ok=False,
                    checked=index + 1,
                    counterexample=row,
                    output_name=net_name,
                    expected=want,
                    got=got,
                )
    return CheckResult(ok=True, checked=3**fn.arity)
