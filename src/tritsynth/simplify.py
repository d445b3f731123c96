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

Rules 1, 2, 3, 5, 9 and 10 rewrite one term, and one finder (_each_term)
takes the first term, in order, that the rule rewrites.  Rules 6, 7 and 8
rewrite a term together with a later partner term whose factors they name,
and one finder (_with_partner) takes the leftmost term that has a partner,
paired with its nearest later partner.  Rule 4 reads a constant term
anywhere in the sum and keeps a finder of its own.

The engine applies rules to a fixpoint under a fixed priority, so results
are deterministic.  Every step, in simplify and in apply_rule alike, is
checked against the affected terms over the full input space and must
strictly shrink (term count, factor count) lexicographically, which bounds
the run; a failed check raises instead of producing a wrong expression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .core import TRITS, ProjFamily, Trit
from .expr import Const, Expr, Factor, Fused, Pair, Proj, Term, make_term, sop_column
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


def _valued(f: Factor, const_val: int, family: ProjFamily) -> bool:
    """True when the factor can only evaluate to 0 or const_val, the active
    value of family (1 for L, 2 for J)."""
    if isinstance(f, Const):
        return f.value_ in (0, const_val)
    return f.base_family is family


def _without(factors: Sequence[Factor], *drop: Factor) -> list[Factor]:
    """Multiset difference: remove one occurrence of each listed factor."""
    out = list(factors)
    for f in drop:
        out.remove(f)
    return out


def _each_term(rule_id: int, rewrite: Callable[[Term], Optional[tuple[Term, ...]]]):
    """find for a one-term rule: the first term, in order, that rewrite
    replaces; rewrite returns the replacement terms, or None."""

    def find(terms: list[Term]) -> Optional[RewriteStep]:
        for i, t in enumerate(terms):
            replacement = rewrite(t)
            if replacement is not None:
                return RewriteStep(rule_id, i, None, replacement)
        return None

    return find


def _with_partner(rule_id: int, sites, build: Callable[[Term, object], Term]):
    """find for a two-term rule.

    sites(term) yields (partner factor tuple, site) pairs: the term rewrites
    with a later term whose factors equal the partner tuple.  The leftmost
    term with a partner wins, paired with its nearest later partner (the
    first site wins ties); build(term, site) makes the replacement term.
    """

    def find(terms: list[Term]) -> Optional[RewriteStep]:
        index_of: Optional[dict[tuple[Factor, ...], list[int]]] = None
        for i, t in enumerate(terms):
            best = None  # (partner index, site)
            for partner, site in sites(t):
                if index_of is None:
                    index_of = {}
                    for k, u in enumerate(terms):
                        index_of.setdefault(u.factors, []).append(k)
                for j in index_of.get(partner, ()):
                    if j > i:
                        if best is None or j < best[0]:
                            best = (j, site)
                        break
            if best is not None:
                return RewriteStep(rule_id, i, best[0], (build(t, best[1]),))
        return None

    return find


def _rule_1(t: Term) -> Optional[tuple[Term, ...]]:
    if len(t.factors) >= 2 and any(_is_const(f, 0) for f in t.factors):
        return ()
    return None


def _rule_2(t: Term) -> Optional[tuple[Term, ...]]:
    for const_val, family in ((1, _L), (2, _J)):
        redundant = next((f for f in t.factors if _is_const(f, const_val)), None)
        if redundant is not None and any(
            f.base_family is family for f in t.factors if not isinstance(f, Const)
        ):
            return (make_term(_without(t.factors, redundant)),)
    return None


def _rule_3(t: Term) -> Optional[tuple[Term, ...]]:
    if len(t.factors) == 1 and _is_const(t.factors[0], 0):
        return ()
    return None


def _find_rule_4(terms: list[Term]) -> Optional[RewriteStep]:
    for const_val, family in ((1, _L), (2, _J)):
        dominator = next(
            (k for k, t in enumerate(terms)
             if len(t.factors) == 1 and _is_const(t.factors[0], const_val)),
            None,
        )
        if dominator is None:
            continue
        for i, t in enumerate(terms):
            if i != dominator and all(_valued(f, const_val, family) for f in t.factors):
                return RewriteStep(4, i, None, (), context=(dominator,))
    return None


def _rule_5(t: Term) -> Optional[tuple[Term, ...]]:
    projs = {(f.family, f.level, f.var) for f in t.factors if isinstance(f, Proj)}
    for family, level, var in projs:
        if not family.primed and (family.complement, level, var) in projs:
            return ()
    return None


def _rule_6_sites(t: Term):
    if len(t.factors) == 1 and isinstance(t.factors[0], Proj):
        f = t.factors[0]
        yield (Proj(f.family.complement, f.level, f.var),), None


def _rule_6_build(t: Term, site: None) -> Term:
    return make_term([Const(t.factors[0].base_family.active_value)])


def _rule_7_sites(t: Term):
    for f in t.factors:
        if isinstance(f, Proj) and not f.family.primed:
            rest = _without(t.factors, f)
            for other in TRITS:
                if other != f.level:
                    yield make_term(rest + [Proj(f.family, other, f.var)]).factors, (f, other)


def _rule_7_build(t: Term, site: tuple[Proj, Trit]) -> Term:
    f, other = site
    missing = TRITS[3 - f.level - other]
    return make_term(_without(t.factors, f) + [Proj(f.family.complement, missing, f.var)])


def _rule_8_sites(t: Term):
    for family in (_L, _J):
        ones = [f for f in t.factors
                if isinstance(f, Proj) and f.family is family and f.level == 1]
        twos = [f for f in t.factors
                if isinstance(f, Proj) and f.family is family and f.level == 2]
        for fu in ones:
            for fv in twos:
                if fu.var != fv.var:
                    rest = _without(t.factors, fu, fv)
                    crossed = [Proj(family, TRITS[2], fu.var), Proj(family, TRITS[1], fv.var)]
                    yield make_term(rest + crossed).factors, (fu, fv)


def _rule_8_build(t: Term, site: tuple[Proj, Proj]) -> Term:
    fu, fv = site
    return make_term(_without(t.factors, fu, fv) + [Pair(fu.family, fu.var, fv.var)])


def _rule_9(t: Term) -> Optional[tuple[Term, ...]]:
    fs = t.factors
    for k in range(len(fs) - 1):
        if fs[k] == fs[k + 1]:  # canonical order keeps equals adjacent
            return (Term(fs[:k] + fs[k + 1:]),)
    return None


def _rule_10(t: Term) -> Optional[tuple[Term, ...]]:
    groups: dict[tuple[ProjFamily, Trit], list[Factor]] = {}  # in first-seen order
    for f in t.factors:
        if isinstance(f, Fused) or (isinstance(f, Proj) and not f.family.primed):
            groups.setdefault((f.family, f.level), []).append(f)
    for (family, level), group in groups.items():
        merged_vars = {v for f in group for v in f.vars_used()}
        # A repeated literal such as L0(a)L0(a) names one variable; rule 9 drops it.
        if len(group) >= 2 and len(merged_vars) >= 2:
            fused = Fused(family, level, tuple(sorted(merged_vars)))
            return (make_term(_without(t.factors, *group) + [fused]),)
    return None


RULES: dict[int, RewriteRule] = {
    1: RewriteRule(1, "term with a 0 factor vanishes", _each_term(1, _rule_1)),
    2: RewriteRule(2, "family identity constant factor is redundant", _each_term(2, _rule_2)),
    3: RewriteRule(3, "constant-0 term is dropped from the sum", _each_term(3, _rule_3)),
    4: RewriteRule(4, "family constant term absorbs same-family terms", _find_rule_4),
    5: RewriteRule(5, "complementary literals annihilate a term", _each_term(5, _rule_5)),
    6: RewriteRule(6, "complementary literal terms sum to the family constant",
                   _with_partner(6, _rule_6_sites, _rule_6_build)),
    7: RewriteRule(7, "complementary level pair contracts to a primed literal",
                   _with_partner(7, _rule_7_sites, _rule_7_build)),
    8: RewriteRule(8, "crossed 1/2 term pair fuses into a Pair factor",
                   _with_partner(8, _rule_8_sites, _rule_8_build)),
    9: RewriteRule(9, "duplicate factor inside a term is dropped", _each_term(9, _rule_9)),
    10: RewriteRule(10, "same-level projections fuse into a joint projection",
                    _each_term(10, _rule_10)),
}

# Cleanup and annihilation first, then the term-pair fusions (8, 10), and the
# level contraction (7) last.  Measured on the nine two-input catalog outputs:
# moving 7 before 8 changes the reduced forms of avg2, sqsum2, carryh and
# g_example; moving it only before 10 changes g_example alone.
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


def _checked_step(
    arity: int, terms: list[Term], rule_ids: Sequence[int]
) -> Optional[tuple[RewriteStep, list[Term]]]:
    """The first site of the first rule in rule_ids that has one, checked
    and applied: (step, new terms), or None when no rule has a site."""
    for rule_id in rule_ids:
        step = RULES[rule_id].find(terms)
        if step is not None:
            break
    else:
        return None
    bad = _unsound_at(arity, terms, step)
    if bad is not None:
        raise RewriteSoundnessError(step.rule_id, bad)
    new_terms = _apply_step(terms, step)
    if not _measure(new_terms) < _measure(terms):
        raise RewriteSoundnessError(step.rule_id, (TRITS[0],) * arity)
    return step, new_terms


def simplify(e: Expr) -> tuple[Expr, RewriteTrace]:
    """Rewrite to a fixpoint; returns the reduced expression and its trace."""
    terms = list(e.terms)
    steps: list[RewriteStep] = []
    while (done := _checked_step(e.arity, terms, PRIORITY)) is not None:
        step, terms = done
        steps.append(step)
    return Expr(tuple(terms), e.arity), RewriteTrace(tuple(steps))


def apply_rule(e: Expr, rule_id: int) -> Optional[Expr]:
    """Apply one rule at its first site, or return None if it has no site."""
    if rule_id not in RULES:
        raise ValueError(f"rule id must be 1..10, got {rule_id}")
    done = _checked_step(e.arity, list(e.terms), (rule_id,))
    return None if done is None else Expr(tuple(done[1]), e.arity)


def replay(initial: Expr, trace: RewriteTrace) -> Expr:
    """Re-run a recorded trace; reproduces simplify's result mechanically."""
    terms = list(initial.terms)
    for step in trace.steps:
        terms = _apply_step(terms, step)
    return Expr(tuple(terms), initial.arity)
