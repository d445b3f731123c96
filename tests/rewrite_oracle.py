"""The rewrite engine as it was before its rules shared two site finders.

The ten ``_find_rule_N`` functions below are the per-rule finders of that
engine, kept verbatim (with the helpers they read) as the reference that
``test_rewrite_oracle.py`` compares ``tritsynth.simplify`` against: every
rule must find the same step, and ``simplify`` must take the same trace.
Rule 10 here still raises ``ValueError`` on a term whose same-level group
names only one variable (``L0(a)L0(a)``); the engine skips such groups.
"""

from __future__ import annotations

from typing import Optional, Sequence

from tritsynth.core import TRITS, ProjFamily, Trit
from tritsynth.expr import Const, Expr, Factor, Fused, Pair, Proj, Term, make_term
from tritsynth.simplify import PRIORITY, RewriteStep, _apply_step

_L = ProjFamily.L
_J = ProjFamily.J


def _is_const(f: Factor, value: int) -> bool:
    return isinstance(f, Const) and f.value_ == value


def _l_valued(f: Factor) -> bool:
    """True when the factor can only evaluate to 0 or 1."""
    if isinstance(f, Const):
        return f.value_ <= 1
    return f.base_family is _L


def _j_valued(f: Factor) -> bool:
    """True when the factor can only evaluate to 0 or 2."""
    if isinstance(f, Const):
        return f.value_ in (0, 2)
    return f.base_family is _J


def _without(factors: Sequence[Factor], *drop: Factor) -> list[Factor]:
    """Multiset difference: remove one occurrence of each listed factor."""
    out = list(factors)
    for f in drop:
        out.remove(f)
    return out


def _find_rule_1(terms: list[Term]) -> Optional[RewriteStep]:
    for i, t in enumerate(terms):
        if len(t.factors) >= 2 and any(_is_const(f, 0) for f in t.factors):
            return RewriteStep(1, i, None, ())
    return None


def _find_rule_2(terms: list[Term]) -> Optional[RewriteStep]:
    for i, t in enumerate(terms):
        for const_val, valued in ((1, _L), (2, _J)):
            redundant = next((f for f in t.factors if _is_const(f, const_val)), None)
            if redundant is None:
                continue
            if any(f.base_family is valued for f in t.factors if not isinstance(f, Const)):
                return RewriteStep(2, i, None, (make_term(_without(t.factors, redundant)),))
    return None


def _find_rule_3(terms: list[Term]) -> Optional[RewriteStep]:
    for i, t in enumerate(terms):
        if len(t.factors) == 1 and _is_const(t.factors[0], 0):
            return RewriteStep(3, i, None, ())
    return None


def _find_rule_4(terms: list[Term]) -> Optional[RewriteStep]:
    for const_val, term_pred in ((1, _l_valued), (2, _j_valued)):
        dominator = next(
            (k for k, t in enumerate(terms)
             if len(t.factors) == 1 and _is_const(t.factors[0], const_val)),
            None,
        )
        if dominator is None:
            continue
        for i, t in enumerate(terms):
            if i != dominator and all(term_pred(f) for f in t.factors):
                return RewriteStep(4, i, None, (), context=(dominator,))
    return None


def _find_rule_5(terms: list[Term]) -> Optional[RewriteStep]:
    for i, t in enumerate(terms):
        projs = {(f.family, f.level, f.var) for f in t.factors if isinstance(f, Proj)}
        for family, level, var in projs:
            if not family.primed and (family.complement, level, var) in projs:
                return RewriteStep(5, i, None, ())
    return None


def _find_rule_6(terms: list[Term]) -> Optional[RewriteStep]:
    for i, t in enumerate(terms):
        if len(t.factors) != 1 or not isinstance(t.factors[0], Proj):
            continue
        f = t.factors[0]
        partner = (Proj(f.family.complement, f.level, f.var),)
        for j in range(i + 1, len(terms)):
            if terms[j].factors == partner:
                const = Const(f.base_family.active_value)
                return RewriteStep(6, i, j, (make_term([const]),))
    return None


def _find_rule_7(terms: list[Term]) -> Optional[RewriteStep]:
    index_of: dict[tuple[Factor, ...], list[int]] = {}
    for idx, t in enumerate(terms):
        index_of.setdefault(t.factors, []).append(idx)
    for i, t in enumerate(terms):
        best = None  # (partner index, literal, other level)
        for f in t.factors:
            if not isinstance(f, Proj) or f.family.primed:
                continue
            rest = _without(t.factors, f)
            for other in TRITS:
                if other == f.level:
                    continue
                sibling = make_term(rest + [Proj(f.family, other, f.var)]).factors
                for j in index_of.get(sibling, ()):
                    if j > i and (best is None or j < best[0]):
                        best = (j, f, other)
                    if j > i:
                        break
        if best is not None:
            j, f, other = best
            missing = Trit(3 - int(f.level) - int(other))
            contracted = make_term(
                _without(t.factors, f) + [Proj(f.family.complement, missing, f.var)]
            )
            return RewriteStep(7, i, j, (contracted,))
    return None


def _find_rule_8(terms: list[Term]) -> Optional[RewriteStep]:
    index_of: dict[tuple[Factor, ...], list[int]] = {}
    for idx, t in enumerate(terms):
        index_of.setdefault(t.factors, []).append(idx)
    for i, t in enumerate(terms):
        best = None  # (partner index, level-1 literal, level-2 literal)
        for family in (_L, _J):
            ones = [f for f in t.factors
                    if isinstance(f, Proj) and f.family is family and f.level == 1]
            twos = [f for f in t.factors
                    if isinstance(f, Proj) and f.family is family and f.level == 2]
            for fu in ones:
                for fv in twos:
                    if fu.var == fv.var:
                        continue
                    rest = _without(t.factors, fu, fv)
                    crossed = make_term(
                        rest + [Proj(family, TRITS[2], fu.var), Proj(family, TRITS[1], fv.var)]
                    ).factors
                    for j in index_of.get(crossed, ()):
                        if j > i and (best is None or j < best[0]):
                            best = (j, fu, fv)
                        if j > i:
                            break
        if best is not None:
            j, fu, fv = best
            fused = make_term(
                _without(t.factors, fu, fv) + [Pair(fu.family, fu.var, fv.var)]
            )
            return RewriteStep(8, i, j, (fused,))
    return None


def _find_rule_9(terms: list[Term]) -> Optional[RewriteStep]:
    for i, t in enumerate(terms):
        for k in range(len(t.factors) - 1):
            if t.factors[k] == t.factors[k + 1]:  # canonical order keeps equals adjacent
                kept = t.factors[:k] + t.factors[k + 1:]
                return RewriteStep(9, i, None, (Term(kept),))
    return None


def _find_rule_10(terms: list[Term]) -> Optional[RewriteStep]:
    for i, t in enumerate(terms):
        groups: dict[tuple[ProjFamily, Trit], list[Factor]] = {}
        order: list[tuple[ProjFamily, Trit]] = []
        for f in t.factors:
            if isinstance(f, Proj) and not f.family.primed:
                key = (f.family, f.level)
            elif isinstance(f, Fused):
                key = (f.family, f.level)
            else:
                continue
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(f)
        for key in order:
            group = groups[key]
            if len(group) < 2:
                continue
            family, level = key
            merged_vars: set[int] = set()
            for f in group:
                merged_vars.update(f.vars_used())
            rest = _without(t.factors, *group)
            fused = Fused(family, level, tuple(sorted(merged_vars)))
            return RewriteStep(10, i, None, (make_term(rest + [fused]),))
    return None


OLD_FINDERS = {
    1: _find_rule_1,
    2: _find_rule_2,
    3: _find_rule_3,
    4: _find_rule_4,
    5: _find_rule_5,
    6: _find_rule_6,
    7: _find_rule_7,
    8: _find_rule_8,
    9: _find_rule_9,
    10: _find_rule_10,
}


def old_simplify_states(e: Expr) -> list[tuple[list[Term], Optional[RewriteStep]]]:
    """The old engine's run: each state it visited with the step it took
    there; the last state is the fixpoint, paired with None."""
    terms = list(e.terms)
    states = []
    while True:
        step = None
        for rule_id in PRIORITY:
            step = OLD_FINDERS[rule_id](terms)
            if step is not None:
                break
        states.append((terms, step))
        if step is None:
            return states
        terms = _apply_step(terms, step)
