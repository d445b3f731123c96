"""Gate primitives and netlists for ternary reversible circuits.

A netlist is a straight-line sequence of gates over named wires.  Wires
come in two flavors: primary inputs and ancilla wires with a fixed
initial value.  Output wires are designated by name.  Most gates here
are bijections on the full register; MAX and MIN are the deliberate
exceptions and are flagged as non-reversible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from .core import SINGLE_SHIFT, TRITS, ShiftOp, Trit, shift_by_name


class Gate:
    """Base class; concrete gates implement wires() and apply(state),
    which updates a wire-value dict in place.

    apply() trusts the dict: every value in it is already a Trit (the
    simulator checks inputs and ancilla values once per call), so gates
    index TRITS and ShiftOp.image instead of re-validating on every row."""

    kind = "gate"
    reversible = True

    def _check_distinct(self):
        ws = list(self.wires())
        if len(set(ws)) != len(ws):
            raise ValueError(f"{self.kind} gate wires must be distinct: {ws}")

    def to_dict(self):
        """JSON form: "kind", then each field in declaration order, with
        tuples as lists and shifts by name (see gate_from_dict)."""
        d = {"kind": self.kind}
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "shifts":
                v = [s.name for s in v]
            d[f.name] = list(v) if isinstance(v, tuple) else v
        return d


@dataclass(frozen=True)
class MSGate(Gate):
    """Single-shift on target iff control holds 2."""

    control: str
    target: str
    kind = "ms"

    def __post_init__(self):
        self._check_distinct()

    def wires(self):
        return (self.control, self.target)

    def apply(self, state):
        if state[self.control] == 2:
            state[self.target] = SINGLE_SHIFT.image[state[self.target]]


@dataclass(frozen=True)
class Feynman(Gate):
    """Controlled add: target becomes (control + target) mod 3."""

    control: str
    target: str
    kind = "feynman"

    def __post_init__(self):
        self._check_distinct()

    def wires(self):
        return (self.control, self.target)

    def apply(self, state):
        state[self.target] = TRITS[(state[self.control] + state[self.target]) % 3]


@dataclass(frozen=True)
class Toffoli(Gate):
    """Single-shift on target iff both controls hold 2."""

    control_a: str
    control_b: str
    target: str
    kind = "toffoli"

    def __post_init__(self):
        self._check_distinct()

    def wires(self):
        return (self.control_a, self.control_b, self.target)

    def apply(self, state):
        if state[self.control_a] == 2 and state[self.control_b] == 2:
            state[self.target] = SINGLE_SHIFT.image[state[self.target]]


def _validate_shifts(shifts):
    if len(shifts) != 3:
        raise ValueError("need one shift per control value")
    for s in shifts:
        if not isinstance(s, ShiftOp):
            raise TypeError(f"not a shift: {s!r}")


@dataclass(frozen=True)
class GTG(Gate):
    """General ternary gate: the control value selects which of three
    shifts acts on the target."""

    control: str
    target: str
    shifts: tuple[ShiftOp, ShiftOp, ShiftOp]
    kind = "gtg"

    def __post_init__(self):
        self._check_distinct()
        _validate_shifts(self.shifts)

    def wires(self):
        return (self.control, self.target)

    def apply(self, state):
        op = self.shifts[state[self.control]]
        state[self.target] = op.image[state[self.target]]


@dataclass(frozen=True)
class MultiGTG(Gate):
    """GTG lifted to several controls.  shifts[v] acts on the target iff
    every control holds the same value v; mixed controls leave it alone."""

    controls: tuple[str, ...]
    target: str
    shifts: tuple[ShiftOp, ShiftOp, ShiftOp]
    kind = "multigtg"

    def __post_init__(self):
        if not self.controls:
            raise ValueError("need at least one control")
        self._check_distinct()
        _validate_shifts(self.shifts)

    def wires(self):
        return self.controls + (self.target,)

    def apply(self, state):
        v = state[self.controls[0]]
        if all(state[c] == v for c in self.controls[1:]):
            state[self.target] = self.shifts[v].image[state[self.target]]


@dataclass(frozen=True)
class C2NOT(Gate):
    """Single-shift on target iff the controls hold {1,2} in either order."""

    control_a: str
    control_b: str
    target: str
    kind = "c2not"

    def __post_init__(self):
        self._check_distinct()

    def wires(self):
        return (self.control_a, self.control_b, self.target)

    def apply(self, state):
        if (state[self.control_a], state[self.control_b]) in ((1, 2), (2, 1)):
            state[self.target] = SINGLE_SHIFT.image[state[self.target]]


@dataclass(frozen=True)
class MaxGate(Gate):
    """target := max(inputs, target).  Erases information; not reversible."""

    inputs: tuple[str, ...]
    target: str
    kind = "max"
    reversible = False

    def __post_init__(self):
        if not self.inputs:
            raise ValueError("need at least one input")
        self._check_distinct()

    def wires(self):
        return self.inputs + (self.target,)

    def apply(self, state):
        state[self.target] = max(state[w] for w in self.wires())


@dataclass(frozen=True)
class MinGate(Gate):
    """target := min(inputs, target).  Erases information; not reversible."""

    inputs: tuple[str, ...]
    target: str
    kind = "min"
    reversible = False

    def __post_init__(self):
        if not self.inputs:
            raise ValueError("need at least one input")
        self._check_distinct()

    def wires(self):
        return self.inputs + (self.target,)

    def apply(self, state):
        state[self.target] = min(state[w] for w in self.wires())


_GATE_KINDS = {
    "ms": MSGate,
    "feynman": Feynman,
    "toffoli": Toffoli,
    "gtg": GTG,
    "multigtg": MultiGTG,
    "c2not": C2NOT,
    "max": MaxGate,
    "min": MinGate,
}


_NAME_LISTS = ("controls", "inputs", "shifts")


def _is_names(v):
    return isinstance(v, list) and all(isinstance(n, str) for n in v)


def gate_from_dict(d):
    """Inverse of Gate.to_dict; raises ValueError naming the kind and the
    field at fault."""
    if not isinstance(d, dict):
        raise ValueError(f"a gate must be an object, got {d!r}")
    kind = d.get("kind")
    if not isinstance(kind, str) or kind not in _GATE_KINDS:
        raise ValueError(f"unknown gate kind {kind!r}")
    want = [f.name for f in fields(_GATE_KINDS[kind])]
    got = sorted(set(d) - {"kind"})
    if got != sorted(want):
        raise ValueError(f"{kind} gate needs fields {', '.join(want)}, got {', '.join(got) or 'none'}")
    for name in want:
        listed = name in _NAME_LISTS
        if not (_is_names(d[name]) if listed else isinstance(d[name], str)):
            shape = "a list of names" if listed else "a wire name"
            raise ValueError(f"{kind} gate field {name!r} must be {shape}, got {d[name]!r}")
    args = {name: tuple(d[name]) if name in _NAME_LISTS else d[name] for name in want}
    try:
        if "shifts" in args:
            args["shifts"] = tuple(shift_by_name(n) for n in args["shifts"])
        return _GATE_KINDS[kind](**args)
    except ValueError as exc:
        raise ValueError(f"{kind} gate: {exc}") from None


@dataclass
class Netlist:
    """Wires, gates, and designated outputs.

    input_names are free wires; ancilla_init maps ancilla wires to their
    fixed starting trit (checked here and in add_ancilla).  outputs maps
    result names to wire names.
    """

    input_names: tuple[str, ...]
    ancilla_init: dict[str, Trit] = field(default_factory=dict)
    gates: list[Gate] = field(default_factory=list)
    outputs: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        seen = set(self.input_names)
        if len(seen) != len(self.input_names):
            raise ValueError("duplicate input names")
        for w, v in self.ancilla_init.items():
            if w in seen:
                raise ValueError(f"ancilla name collides with input: {w}")
            seen.add(w)
            try:
                self.ancilla_init[w] = Trit(v)
            except ValueError as exc:
                raise ValueError(f"ancilla {w!r}: {exc}") from None

    def all_wires(self):
        return tuple(self.input_names) + tuple(self.ancilla_init)

    def add_ancilla(self, prefix, init):
        """Mint a fresh ancilla wire with the given initial value."""
        init = Trit(init)
        n = 0
        existing = set(self.all_wires())
        while f"{prefix}{n}" in existing:
            n += 1
        name = f"{prefix}{n}"
        self.ancilla_init[name] = init
        return name

    def append(self, gate):
        known = set(self.all_wires())
        missing = [w for w in gate.wires() if w not in known]
        if missing:
            raise ValueError(f"{gate.kind} gate uses unknown wires: {missing}")
        self.gates.append(gate)

    @property
    def reversible(self):
        return all(g.reversible for g in self.gates)

    @property
    def ancilla_count(self):
        return len(self.ancilla_init)

    def to_json(self, indent=None):
        doc = {
            "inputs": list(self.input_names),
            "ancillas": {w: int(v) for w, v in self.ancilla_init.items()},
            "gates": [g.to_dict() for g in self.gates],
            "outputs": dict(self.outputs),
        }
        return json.dumps(doc, indent=indent)

    @classmethod
    def from_json(cls, text):
        """Inverse of to_json; raises ValueError naming the first problem."""
        doc = json.loads(text)
        keys = ("inputs", "ancillas", "gates", "outputs")
        if not isinstance(doc, dict) or any(k not in doc for k in keys):
            raise ValueError("a netlist must be a JSON object with keys " + ", ".join(keys))
        if not _is_names(doc["inputs"]):
            raise ValueError("netlist 'inputs' must be a list of names")
        for key, shape in (("ancillas", dict), ("gates", list), ("outputs", dict)):
            if not isinstance(doc[key], shape):
                raise ValueError(f"netlist {key!r} must be a JSON {'object' if shape is dict else 'list'}")
        gates, outputs = doc["gates"], doc["outputs"]
        nl = cls(
            input_names=tuple(doc["inputs"]),
            ancilla_init=dict(doc["ancillas"]),
            outputs=dict(outputs),
        )
        for i, gd in enumerate(gates):
            try:
                nl.append(gate_from_dict(gd))
            except ValueError as exc:
                raise ValueError(f"gate {i}: {exc}") from None
        for name, wire in outputs.items():
            if not isinstance(wire, str) or wire not in nl.all_wires():
                raise ValueError(f"output {name!r} names unknown wire {wire!r}")
        return nl


# Cost accounting.  The flat model prices every controlled gate at the
# cost of its uncontrolled core plus a fixed control surcharge and
# treats the irreversible collectors as free wiring; the strict model
# scales with fan-in and drops the pairing discount.  Every model shares
# these prices; a MultiGTG's is per control when not flat.
_PRICE = {"ms": 1, "feynman": 4, "toffoli": 5, "gtg": 5, "multigtg": 5, "c2not": 8}


@dataclass(frozen=True)
class CostModel:
    name: str
    multigtg_flat: bool = True
    collector_unit: int = 0
    fuse_c2not_pairs: bool = True

    def gate_cost(self, gate):
        kind = getattr(gate, "kind", None)
        if kind in ("max", "min"):
            return self.collector_unit * len(gate.inputs)
        if kind not in _PRICE:
            raise TypeError(f"no cost for {gate!r}")
        if kind == "multigtg" and not self.multigtg_flat:
            return _PRICE[kind] * len(gate.controls)
        return _PRICE[kind]

    def netlist_cost(self, netlist):
        total = 0
        c2not_groups: dict[tuple[str, str, str], int] = {}
        for g in netlist.gates:
            if self.fuse_c2not_pairs and isinstance(g, C2NOT):
                key = (g.control_a, g.control_b, g.target)
                c2not_groups[key] = c2not_groups.get(key, 0) + 1
            else:
                total += self.gate_cost(g)
        for count in c2not_groups.values():
            total += ((count + 1) // 2) * _PRICE["c2not"]
        return total


PAPER_COST = CostModel(name="paper")
STRICT_COST = CostModel(
    name="strict",
    multigtg_flat=False,
    collector_unit=5,
    fuse_c2not_pairs=False,
)
# Flat pricing with the pairing discount switched off; reports carry this
# next to the headline number so the discount is never hidden.
HONEST_COST = CostModel(name="honest", fuse_c2not_pairs=False)

COST_MODELS = {"paper": PAPER_COST, "strict": STRICT_COST}


def netlist_depth(netlist):
    """Greedy ASAP leveling: a gate sits one level above the deepest
    earlier gate it shares a wire with."""
    level: dict[str, int] = {}
    depth = 0
    for g in netlist.gates:
        lv = 1 + max((level.get(w, 0) for w in g.wires()), default=0)
        for w in g.wires():
            level[w] = lv
        depth = max(depth, lv)
    return depth
