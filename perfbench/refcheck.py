"""Independent reference simulator for netlist JSON.

Re-simulates a netlist from Netlist.to_json() text on every input row and
compares each output with the expected column.  It carries its own gate
semantics and its own copy of the six shift permutations, and imports
nothing from tritsynth, so a defect shared by the synthesizer and
tritsynth.sim cannot hide here.
"""

from __future__ import annotations

import json
from itertools import product
from typing import Optional

# name -> image of (0, 1, 2); the affine maps x -> (m*x + a) mod 3, m != 0.
SHIFTS = {
    "Buffer": (0, 1, 2),
    "SingleShift": (1, 2, 0),
    "DualShift": (2, 0, 1),
    "SelfShift": (0, 2, 1),
    "SelfSingleShift": (1, 0, 2),
    "SelfDualShift": (2, 1, 0),
}

SINGLE = SHIFTS["SingleShift"]


class NetlistRejected(ValueError):
    """The netlist is malformed or computes a different function."""


def _compile(gate, slot):
    """One closure per gate over a list of wire values."""
    kind = gate.get("kind")
    try:
        if kind == "ms":
            c, t = slot[gate["control"]], slot[gate["target"]]

            def ms(s):
                if s[c] == 2:
                    s[t] = SINGLE[s[t]]
            return ms
        if kind == "feynman":
            c, t = slot[gate["control"]], slot[gate["target"]]

            def feynman(s):
                s[t] = (s[c] + s[t]) % 3
            return feynman
        if kind == "toffoli":
            a, b, t = slot[gate["control_a"]], slot[gate["control_b"]], slot[gate["target"]]

            def toffoli(s):
                if s[a] == 2 and s[b] == 2:
                    s[t] = SINGLE[s[t]]
            return toffoli
        if kind == "c2not":
            a, b, t = slot[gate["control_a"]], slot[gate["control_b"]], slot[gate["target"]]

            def c2not(s):
                if s[a] + s[b] == 3:  # the controls hold {1, 2} in either order
                    s[t] = SINGLE[s[t]]
            return c2not
        if kind in ("gtg", "multigtg"):
            ctrls = [gate["control"]] if kind == "gtg" else list(gate["controls"])
            cs = [slot[w] for w in ctrls]
            t = slot[gate["target"]]
            perms = [SHIFTS[n] for n in gate["shifts"]]
            if len(perms) != 3 or not cs:
                raise NetlistRejected(f"malformed {kind} gate: {gate}")
            head, rest = cs[0], cs[1:]

            def gtg(s):
                v = s[head]
                if all(s[c] == v for c in rest):
                    s[t] = perms[v][s[t]]
            return gtg
        if kind in ("max", "min"):
            ws = [slot[w] for w in gate["inputs"]] + [slot[gate["target"]]]
            t = ws[-1]
            pick = max if kind == "max" else min

            def collect(s):
                s[t] = pick(s[w] for w in ws)
            return collect
    except KeyError as exc:
        raise NetlistRejected(f"{kind} gate names unknown wire or field {exc}") from None
    raise NetlistRejected(f"unknown gate kind {kind!r}")


def check_netlist(text: str, arity: int, columns: dict[str, tuple[int, ...]]) -> Optional[str]:
    """None if the netlist computes every column exactly, else the reason."""
    try:
        doc = json.loads(text)
        inputs = list(doc["inputs"])
        ancillas = {w: int(v) for w, v in doc["ancillas"].items()}
        outputs = dict(doc["outputs"])
        wires = inputs + list(ancillas)
        slot = {w: i for i, w in enumerate(wires)}
        if len(slot) != len(wires):
            return "duplicate wire names"
        if len(inputs) != arity:
            return f"netlist has {len(inputs)} inputs, expected {arity}"
        if set(outputs) != set(columns):
            return f"outputs {sorted(outputs)} differ from expected {sorted(columns)}"
        if any(v not in (0, 1, 2) for v in ancillas.values()):
            return "ancilla initial value outside {0, 1, 2}"
        out_slots = [(name, slot[outputs[name]]) for name in columns]
        gates = [_compile(g, slot) for g in doc["gates"]]
    except NetlistRejected as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed netlist: {type(exc).__name__}: {exc}"

    init = [0] * arity + list(ancillas.values())
    for idx, row in enumerate(product(range(3), repeat=arity)):
        s = list(init)
        s[:arity] = row
        for g in gates:
            g(s)
        for name, k in out_slots:
            if s[k] != columns[name][idx]:
                return (
                    f"output {name!r} at input {''.join(map(str, row))}: "
                    f"expected {columns[name][idx]}, got {s[k]}"
                )
    return None
