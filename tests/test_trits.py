"""Where trits come from: three interned objects, checked at the API boundary.

Trit(v) returns TRITS[v], so no other Trit object exists.  Values are
checked where they enter the package, by the public functions below;
the loops behind them trust what they are given (tests/test_hygiene.py
keeps Trit() calls out of them).
"""

import gc

import pytest

from tritsynth.core import (
    SINGLE_SHIFT,
    TRITS,
    ProjFamily,
    ShiftOp,
    Trit,
    gf3_add,
    gf3_mul,
    proj,
    t_and,
    t_not,
    t_or,
)
from tritsynth.expr import Const, Expr, Fused, Proj, make_term
from tritsynth.gates import Feynman, Netlist
from tritsynth.sim import simulate
from tritsynth.synth import SynthOptions, synth
from tritsynth.truthtables import TernaryFunction, builtin, lex_index

L = ProjFamily.L


def test_trit_returns_the_interned_object():
    for v in range(3):
        assert Trit(v) is TRITS[v]
        assert Trit(TRITS[v]) is TRITS[v]
        assert TernaryFunction("f", 1, (v, v, v)).values[0] is TRITS[v]


def test_no_trit_exists_beyond_the_three_interned_ones():
    # Everything built stays referenced while the heap is scanned.
    held = (
        TernaryFunction.from_callable("wide", 8, lambda *xs: (sum(xs) + xs[0] * xs[7]) % 3),
        builtin("prod7"),
        synth(builtin("prod7"), SynthOptions(verify=True)),
    )
    assert held[2].verified
    strays = [o for o in gc.get_objects() if isinstance(o, Trit) and not any(o is t for t in TRITS)]
    assert strays == []


def _sum2():
    nl = Netlist(input_names=("a", "b"))
    t = nl.add_ancilla("anc", 0)
    nl.append(Feynman("a", t))
    nl.append(Feynman("b", t))
    nl.outputs["sum2"] = t
    return nl


# Each public entry point that takes a trit, called with `v` in one
# operand position.
BOUNDARIES = {
    "Trit": lambda v: Trit(v),
    "proj level": lambda v: proj(L, v, 0),
    "proj value": lambda v: proj(L, 0, v),
    "ShiftOp": lambda v: ShiftOp(1, v),
    "ShiftOp.apply": lambda v: SINGLE_SHIFT.apply(v),
    "t_and": lambda v: t_and(0, v),
    "t_or": lambda v: t_or(v, 0),
    "t_not": lambda v: t_not(v),
    "gf3_add": lambda v: gf3_add(v, 1),
    "gf3_mul": lambda v: gf3_mul(1, v),
    "lex_index": lambda v: lex_index((0, v)),
    "TernaryFunction": lambda v: TernaryFunction("f", 1, (0, 1, v)),
    "from_callable": lambda v: TernaryFunction.from_callable("f", 1, lambda a: v if a == 2 else a),
    "simulate sequence": lambda v: simulate(_sum2(), (1, v)),
    "simulate mapping": lambda v: simulate(_sum2(), {"a": v, "b": 1}),
    "add_ancilla": lambda v: Netlist(input_names=("a",)).add_ancilla("anc", v),
    "Proj": lambda v: Proj(L, v, 0),
    "Fused": lambda v: Fused(L, v, (0, 1)),
    "Const": lambda v: Const(v),
    "Expr.eval": lambda v: Expr((make_term([Proj(L, 1, 0)]),), 1).eval((v,)),
}


@pytest.mark.parametrize("value", [3, -1, 1.0, True], ids=repr)
@pytest.mark.parametrize("call", BOUNDARIES.values(), ids=BOUNDARIES.keys())
def test_public_functions_reject_non_trits(call, value):
    with pytest.raises(ValueError):
        call(value)
