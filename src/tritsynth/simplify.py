"""Fixpoint simplification of sum-of-products expressions.

Ten rewrite rules shrink an expression while preserving its truth table:

  1  a term containing the constant 0 factor is dropped
  2  constant 1 factors are redundant beside L-kind factors, constant 2
     factors beside J-kind factors
  3  a bare constant-0 term is dropped from the sum
  4  a bare constant-1 term absorbs L-valued terms, constant-2 absorbs
     J-valued terms
  5  a term containing both F_i(v) and F'_i(v) is identically 0
  6  the term pair F_i(v) + F'_i(v) collapses to the family constant
  7  two terms equal but for complementary levels on one variable contract
     into one term with a primed literal at the remaining level
  8  the crossed pair F_1(u)F_2(v) + F_2(u)F_1(v) (same co-factors) fuses
     into a single Pair factor
  9  duplicate factors inside a term are dropped
 10  same-family same-level projections on distinct variables fuse into one
     joint projection factor

The engine applies rules to a fixpoint under a fixed priority with leftmost
site selection, so results are deterministic.  Every applied step is checked
pointwise against the affected terms over the full input space; a failed
check raises instead of producing a wrong expression.  Each step strictly
shrinks (term count, factor count) lexicographically, which bounds the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .core import TRITS, ProjFamily, Trit
from .expr import Const, Expr, Factor, Fused, Proj, Term, make_pair, make_term, sop_column
from .truthtables import default_var_names, first_difference

__all__ = [
    "RewriteStep",
    "RewriteTrace",
    "RewriteRule",
    "RewriteSoundnessError",
    "RULES",
    "PRIORITY",
    "simplify",
    "apply_rule",
    "replay",
]

_L = ProjFamily.L
_J = ProjFamily.J


class RewriteSoundnessError(RuntimeError):
    """A rewrite step changed the function; carries the failing input."""

    def __init__(self, rule_id: int, counterexample: tuple[Trit, ...]) -> None:
        super().__init__(
            f"rule {rule_id} produced a non-equivalent rewrite; "
            f"first differing input {tuple(int(x) for x in counterexample)}"
        )
        self.rule_id = rule_id
        self.counterexample = counterexample


@dataclass(frozen=True)
class RewriteStep:
    """One applied rewrite.

    Replaces terms[index] with the replacement terms (empty tuple deletes)
    and, for two-term rules, also deletes terms[partner] (always > index).
    context lists indices of untouched terms that justify the step (rule 4's
    dominating constant term); they participate in the soundness check.
    """

    rule_id: int
    index: int
    partner: Optional[int]
    replacement: tuple[Term, ...]
    context: tuple[int, ...] = ()

    def describe(self, terms_before: Sequence[Term], names: Sequence[str]) -> str:
        involved = [terms_before[self.index]]
        if self.partner is not None:
            involved.append(terms_before[self.partner])
        before = " + ".join(t.render(names) for t in involved)
        after = " + ".join(t.render(names) for t in self.replacement) or "(dropped)"
        where = f"term {self.index}" if self.partner is None else f"terms {self.index},{self.partner}"
        return f"rule {self.rule_id:>2} at {where}: {before} -> {after}"


@dataclass(frozen=True)
class RewriteTrace:
    steps: tuple[RewriteStep, ...]

    def render(self, initial: Expr, names: Optional[Sequence[str]] = None) -> str:
        """Human-readable step list, reconstructed by replaying the trace."""
        if names is None:
            names = default_var_names(initial.arity)
        terms = list(initial.terms)
        lines = []
        for step in self.steps:
            lines.append(step.describe(terms, names))
            terms = _apply_step(terms, step)
        return "\n".join(lines)


@dataclass(frozen=True)
class RewriteRule:
    id: int
    description: str
    find: Callable[[list[Term]], Optional[RewriteStep]]


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
                _without(t.factors, fu, fv) + [make_pair(fu.family, fu.var, fv.var)]
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


RULES: dict[int, RewriteRule] = {
    1: RewriteRule(1, "term with a 0 factor vanishes", _find_rule_1),
    2: RewriteRule(2, "family identity constant factor is redundant", _find_rule_2),
    3: RewriteRule(3, "constant-0 term is dropped from the sum", _find_rule_3),
    4: RewriteRule(4, "family constant term absorbs same-family terms", _find_rule_4),
    5: RewriteRule(5, "complementary literals annihilate a term", _find_rule_5),
    6: RewriteRule(6, "complementary literal terms sum to the family constant", _find_rule_6),
    7: RewriteRule(7, "complementary level pair contracts to a primed literal", _find_rule_7),
    8: RewriteRule(8, "crossed 1/2 term pair fuses into a Pair factor", _find_rule_8),
    9: RewriteRule(9, "duplicate factor inside a term is dropped", _find_rule_9),
    10: RewriteRule(10, "same-level projections fuse into a joint projection", _find_rule_10),
}

# Cleanup and annihilation first, then the term-pair fusions (8, 10), and the
# level contraction (7) last.  Running 7 any earlier eats the crossed pairs
# and level groups that 8 and 10 exist to recognize, which changes the
# canonical reduced forms of the two-variable benchmark functions.
PRIORITY: tuple[int, ...] = (1, 3, 9, 5, 2, 6, 4, 8, 10, 7)


def _apply_step(terms: list[Term], step: RewriteStep) -> list[Term]:
    out = list(terms)
    if step.partner is not None:
        if step.partner <= step.index:
            raise ValueError("step partner must come after its index")
        del out[step.partner]
    out[step.index:step.index + 1] = list(step.replacement)
    return out


def _unsound_at(arity: int, terms: list[Term], step: RewriteStep) -> Optional[tuple[Trit, ...]]:
    """First input where the step changes the affected sub-sum, or None.

    Comparing only the touched terms (plus any context terms) is enough: the
    expression is a max over terms, so equal sub-sums leave it unchanged.
    """
    before = [terms[step.index]]
    if step.partner is not None:
        before.append(terms[step.partner])
    ctx = [terms[k] for k in step.context]
    after = list(step.replacement)
    return first_difference(arity, sop_column(before + ctx, arity), sop_column(after + ctx, arity))


def _measure(terms: list[Term]) -> tuple[int, int]:
    return len(terms), sum(len(t.factors) for t in terms)


def simplify(e: Expr) -> tuple[Expr, RewriteTrace]:
    """Rewrite to a fixpoint; returns the reduced expression and its trace."""
    terms = list(e.terms)
    steps: list[RewriteStep] = []
    while True:
        step = None
        for rule_id in PRIORITY:
            step = RULES[rule_id].find(terms)
            if step is not None:
                break
        if step is None:
            break
        bad = _unsound_at(e.arity, terms, step)
        if bad is not None:
            raise RewriteSoundnessError(step.rule_id, bad)
        new_terms = _apply_step(terms, step)
        if not _measure(new_terms) < _measure(terms):
            raise RewriteSoundnessError(step.rule_id, (TRITS[0],) * e.arity)
        terms = new_terms
        steps.append(step)
    return Expr(tuple(terms), e.arity), RewriteTrace(tuple(steps))


def apply_rule(e: Expr, rule_id: int) -> Optional[Expr]:
    """Apply one rule at its first site, or return None if it has no site."""
    if rule_id not in RULES:
        raise ValueError(f"rule id must be 1..10, got {rule_id}")
    terms = list(e.terms)
    step = RULES[rule_id].find(terms)
    if step is None:
        return None
    bad = _unsound_at(e.arity, terms, step)
    if bad is not None:
        raise RewriteSoundnessError(rule_id, bad)
    return Expr(tuple(_apply_step(terms, step)), e.arity)


def replay(initial: Expr, trace: RewriteTrace) -> Expr:
    """Re-run a recorded trace; reproduces simplify's result mechanically."""
    terms = list(initial.terms)
    for step in trace.steps:
        terms = _apply_step(terms, step)
    return Expr(tuple(terms), initial.arity)
