"""Netlist synthesis from truth tables.

Three routes.  Affine columns (f = c + sum of coefficient*input mod 3)
become Feynman chains accumulating onto an input wire where possible,
onto a constant-initialized ancilla otherwise.  Product columns
(f = product of three or more inputs mod 3) become a balanced tree of
two-input product nodes; each node is the reduced expression of
x*y mod 3 and is emitted like any other expression.  Everything else
goes through minterm extraction, rewrite-rule reduction, and a direct
factor-by-factor mapping onto controlled shift gates:

  unprimed projection or fused group  one MultiGTG onto a zero ancilla
  primed projection                   two MultiGTGs, one per firing level
  crossed pair, 1-valued              one C2NOT
  crossed pair, 2-valued              two C2NOTs

Multi-factor terms collect their factor wires through a MIN into an
ancilla started at 2; terms are then OR-combined by chaining MAX gates
into the first term's wire.  The alternative shared-accumulator mode
drops all the collectors when every term is a single factor and no two
terms ever fire on the same assignment, writing every firing shift onto
one output ancilla.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .core import (
    BUFFER,
    DUAL_SHIFT,
    SELF_SHIFT,
    SINGLE_SHIFT,
    ProjFamily,
    ShiftOp,
)
from .expr import Expr, Fused, Pair, Proj, Term, minterm_extract, sop_column
from .gates import (
    C2NOT,
    COST_MODELS,
    GTG,
    HONEST_COST,
    Feynman,
    MaxGate,
    MinGate,
    MultiGTG,
    Netlist,
    netlist_depth,
)
from .sim import VerificationError, exhaustive_check
from .simplify import RewriteTrace, simplify
from .truthtables import (
    MultiOutputFunction,
    TernaryFunction,
    as_multi_output,
    linear_detect,
    monomial_detect,
)

__all__ = [
    "SynthOptions",
    "SynthReport",
    "synth",
    "max_ancilla",
]


@dataclass(frozen=True)
class SynthOptions:
    combine: str = "max"
    cost_model: str = "paper"
    verify: bool = True

    def __post_init__(self):
        if self.combine not in ("max", "shared"):
            raise ValueError(f"combine must be 'max' or 'shared', got {self.combine!r}")
        if self.cost_model not in COST_MODELS:
            raise ValueError(f"unknown cost model {self.cost_model!r}")


@dataclass
class SynthReport:
    name: str
    netlist: Netlist
    max_ancilla: int
    reduced_ancilla: int
    cost: int
    cost_honest: int
    depth: int
    cost_model: str
    paths: dict[str, str]
    expressions: dict[str, Expr]
    traces: dict[str, RewriteTrace]
    verified: bool


def max_ancilla(fn: MultiOutputFunction) -> int:
    """Worst-case ancilla budget: one wire per factor of every minterm,
    before any reduction."""
    return sum(out.nonzero_rows() * fn.arity for out in fn.outputs)


_FIRE = {ProjFamily.L: SINGLE_SHIFT, ProjFamily.J: DUAL_SHIFT}


def _standard_profile(family, level):
    shifts = [None, None, None]
    level = int(level)
    shifts[level] = _FIRE[family]
    shifts[(level + 1) % 3] = BUFFER
    shifts[(level + 2) % 3] = SELF_SHIFT
    return tuple(shifts)


def _buffer_profile(family, level):
    shifts = [BUFFER, BUFFER, BUFFER]
    shifts[int(level)] = _FIRE[family]
    return tuple(shifts)


def _emit_factor_gates(nl, factor, var_names, target, profile):
    """Append the gates that add the factor's value onto target.

    factor is a Proj, Fused or Pair: simplify leaves no Const factor in
    a non-affine output's expression.  target must hold 0 whenever any
    of these gates fires.  profile picks the idle shifts of the
    MultiGTGs: "standard" parks SelfShift on the second idle level,
    "buffer" keeps every idle level inert and is required whenever the
    target wire is shared with other firings.
    """
    if isinstance(factor, (Proj, Fused)):
        controls = tuple(var_names[v] for v in factor.vars_used())
        fam = factor.family
        if not fam.primed:
            prof = _standard_profile if profile == "standard" else _buffer_profile
            nl.append(MultiGTG(controls, target, prof(fam, factor.level)))
        else:
            # Fires on the two complementary levels; the second gate must
            # not disturb what the first deposited, so both stay inert
            # away from their own firing level.
            base = fam.base
            for lv in ((factor.level + 1) % 3, (factor.level + 2) % 3):
                nl.append(MultiGTG(controls, target, _buffer_profile(base, lv)))
    else:
        wa, wb = var_names[factor.var_a], var_names[factor.var_b]
        nl.append(C2NOT(wa, wb, target))
        if factor.family is ProjFamily.J:
            nl.append(C2NOT(wa, wb, target))


def _emit_factor(nl, factor, var_names):
    anc = nl.add_ancilla("anc", 0)
    _emit_factor_gates(nl, factor, var_names, anc, "standard")
    return anc


def _emit_term(nl, term, var_names):
    if len(term.factors) == 1:
        return _emit_factor(nl, term.factors[0], var_names)
    factor_wires = tuple(_emit_factor(nl, f, var_names) for f in term.factors)
    t = nl.add_ancilla("anc", 2)
    nl.append(MinGate(factor_wires, t))
    return t


def _emit_expr_max(nl, expr, var_names):
    term_wires = [_emit_term(nl, t, var_names) for t in expr.terms]
    acc = term_wires[0]
    for w in term_wires[1:]:
        nl.append(MaxGate((w,), acc))
    return acc


def _emit_expr_shared(nl, expr, var_names):
    """One accumulator for the whole expression, or None if unsafe.

    Safe only when every term is a single factor and no two terms fire
    on the same assignment, so each firing writes the term's value onto
    a wire that still holds 0.
    """
    terms = expr.terms
    if any(len(t.factors) != 1 for t in terms):
        return None
    fired: set[int] = set()
    for t in terms:
        rows = [i for i, v in enumerate(sop_column((t,), expr.arity)) if v]
        if not fired.isdisjoint(rows):
            return None
        fired.update(rows)
    acc = nl.add_ancilla("anc", 0)
    for t in terms:
        _emit_factor_gates(nl, t.factors[0], var_names, acc, "buffer")
    return acc


def _emit_expr(nl, expr, var_names, combine):
    """Emit expr under the combine mode; returns (wire, shared), shared
    saying whether the single-accumulator form was safe and used."""
    wire = _emit_expr_shared(nl, expr, var_names) if combine == "shared" else None
    if wire is None:
        return _emit_expr_max(nl, expr, var_names), False
    return wire, True


# x*y mod 3 over two wires, in the form simplify reduces the prod2
# minterms to: 1 where both are 1 or both are 2, 2 where they are mixed.
_PRODUCT_NODE = Expr(
    (
        Term((Fused(ProjFamily.L, 1, (0, 1)),)),
        Term((Fused(ProjFamily.L, 2, (0, 1)),)),
        Term((Pair(ProjFamily.J, 0, 1),)),
    ),
    2,
)


def _emit_product_tree(nl, wires, combine):
    """Product of the wires mod 3 as a balanced tree of product nodes;
    an odd wire out moves up a level unchanged."""
    level = list(wires)
    while len(level) > 1:
        pairs = zip(level[::2], level[1::2])
        nxt = [_emit_expr(nl, _PRODUCT_NODE, pair, combine)[0] for pair in pairs]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def _emit_linear(nl, c, lams, claimed, later_reads):
    """Feynman chain for an affine column.

    Accumulates in place on the first coefficient-1 input wire that no
    later affine output still needs to read; falls back to an ancilla
    initialized to the constant term.
    """
    names = nl.input_names
    wire_idx = None
    for i, lam in enumerate(lams):
        if lam == 1 and i not in claimed and i not in later_reads:
            wire_idx = i
            break
    if wire_idx is None:
        acc = nl.add_ancilla("anc", c)
        for i, lam in enumerate(lams):
            for _ in range(int(lam)):
                nl.append(Feynman(names[i], acc))
        return acc
    claimed.add(wire_idx)
    w = names[wire_idx]
    for i, lam in enumerate(lams):
        if i == wire_idx:
            continue
        for _ in range(int(lam)):
            nl.append(Feynman(names[i], w))
    if c != 0:
        # Unconditional add: same shift on every control value, so any
        # other wire serves as the (unread) control.
        dummy = next((n for n in names if n != w), None)
        if dummy is None:
            dummy = nl.add_ancilla("anc", 0)
        bump = ShiftOp(1, c)
        nl.append(GTG(dummy, w, (bump, bump, bump)))
    return w


def synth(fn: Union[MultiOutputFunction, TernaryFunction], options: Optional[SynthOptions] = None) -> SynthReport:
    """Build a verified netlist for every output of fn."""
    fn = as_multi_output(fn)
    opts = options or SynthOptions()
    var_names = tuple(fn.var_names)
    nl = Netlist(input_names=var_names)

    linear_outs = []
    other_outs = []
    for out in fn.outputs:
        hit = linear_detect(out)
        if hit is None:
            other_outs.append(out)
        else:
            linear_outs.append((out, hit))

    paths: dict[str, str] = {}
    expressions: dict[str, Expr] = {}
    traces: dict[str, RewriteTrace] = {}
    out_wires: dict[str, str] = {}

    # Non-affine outputs first: their gates only read the input wires,
    # while affine accumulation may overwrite them.  A two-input product
    # stays on the generic path, which emits exactly one product node.
    for out in other_outs:
        support = monomial_detect(out)
        if support is not None and len(support) >= 3:
            leaves = [var_names[i] for i in support]
            out_wires[out.name] = _emit_product_tree(nl, leaves, opts.combine)
            paths[out.name] = "blocks"
            continue
        reduced, trace = simplify(minterm_extract(out))
        expressions[out.name] = reduced
        traces[out.name] = trace
        out_wires[out.name], shared = _emit_expr(nl, reduced, var_names, opts.combine)
        paths[out.name] = "sum-of-products/shared" if shared else "sum-of-products"

    claimed: set[int] = set()
    for k, (out, (c, lams)) in enumerate(linear_outs):
        later_reads = {
            i
            for _, (_, later_lams) in linear_outs[k + 1 :]
            for i, lam in enumerate(later_lams)
            if lam != 0
        }
        out_wires[out.name] = _emit_linear(nl, c, lams, claimed, later_reads)
        paths[out.name] = "linear"

    for out in fn.outputs:
        nl.outputs[out.name] = out_wires[out.name]

    verified = False
    if opts.verify:
        res = exhaustive_check(nl, fn)
        if not res.ok:
            raise VerificationError(
                f"netlist for {fn.name!r} failed: {res.message()}",
                res.counterexample,
            )
        verified = True

    model = COST_MODELS[opts.cost_model]
    return SynthReport(
        name=fn.name,
        netlist=nl,
        max_ancilla=max_ancilla(fn),
        reduced_ancilla=nl.ancilla_count,
        cost=model.netlist_cost(nl),
        cost_honest=HONEST_COST.netlist_cost(nl),
        depth=netlist_depth(nl),
        cost_model=model.name,
        paths=paths,
        expressions=expressions,
        traces=traces,
        verified=verified,
    )
