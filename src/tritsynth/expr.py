"""Sum-of-products expressions over projection literals.

An Expr is a max (ternary OR) of Terms; a Term is a min (ternary AND) of
Factors.  Factors come in four shapes: a single projection literal, a fused
multi-variable projection (fires only when all of its variables sit at one
level), a crossed pair firing on the two mixed {1,2} assignments of two
variables, and a constant.  Fused and Pair exist so the simplification rules
have somewhere to land; minterm extraction emits only plain projections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .core import TRITS, ProjFamily, Trit, _proj
from .truthtables import TernaryFunction, all_inputs, default_var_names, first_difference

__all__ = [
    "Proj",
    "Fused",
    "Pair",
    "Const",
    "Factor",
    "Term",
    "Expr",
    "make_term",
    "factor_key",
    "minterm_extract",
    "expr_equiv",
    "sop_column",
]


@dataclass(frozen=True)
class Proj:
    """A single projection literal, e.g. L1(a) or J'0(b)."""

    family: ProjFamily
    level: Trit
    var: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "level", Trit(self.level))
        if self.var < 0:
            raise ValueError(f"variable index must be >= 0, got {self.var}")

    def value(self, assignment: Sequence[int]) -> int:
        return _proj(self.family, self.level, assignment[self.var])

    def vars_used(self) -> tuple[int, ...]:
        return (self.var,)

    @property
    def base_family(self) -> ProjFamily:
        return self.family.base

    def render(self, names: Sequence[str]) -> str:
        return f"{self.family}{int(self.level)}({names[self.var]})"


@dataclass(frozen=True)
class Fused:
    """A joint projection over several variables.

    Fires (to the family's active value) exactly when every listed variable
    equals the level; rendered like L1(a,b).  Only unprimed families fuse.
    """

    family: ProjFamily
    level: Trit
    vars: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "level", Trit(self.level))
        object.__setattr__(self, "vars", tuple(sorted(self.vars)))
        if self.family.primed:
            raise ValueError("fused factors use the unprimed families only")
        if len(self.vars) < 2:
            raise ValueError("fused factor needs at least two variables")
        if len(set(self.vars)) != len(self.vars):
            raise ValueError(f"fused factor variables must be distinct: {self.vars}")
        if any(v < 0 for v in self.vars):
            raise ValueError(f"variable index must be >= 0: {self.vars}")

    def value(self, assignment: Sequence[int]) -> int:
        if all(assignment[v] == self.level for v in self.vars):
            return self.family.active_value
        return 0

    def vars_used(self) -> tuple[int, ...]:
        return self.vars

    @property
    def base_family(self) -> ProjFamily:
        return self.family

    def render(self, names: Sequence[str]) -> str:
        inner = ",".join(names[v] for v in self.vars)
        return f"{self.family}{int(self.level)}({inner})"


@dataclass(frozen=True)
class Pair:
    """A crossed two-variable factor firing on the mixed {1,2} assignments.

    Pair(L,a,b) is 1 when (a,b) is (1,2) or (2,1) and 0 everywhere else;
    Pair(J,a,b) is 2 on the same firing set and 0 everywhere else.  Note the
    J variant is 0 (not 1) off the firing set; that keeps the sum-of-products
    reading sound and matches the gate realization, which accumulates onto a
    fresh 0-initialized target.
    """

    family: ProjFamily
    var_a: int
    var_b: int

    def __post_init__(self) -> None:
        if self.family.primed:
            raise ValueError("pair factors use the unprimed families only")
        if self.var_a == self.var_b:
            raise ValueError("pair factor variables must be distinct")
        if self.var_a < 0 or self.var_b < 0:
            raise ValueError("variable index must be >= 0")
        if self.var_a > self.var_b:
            a, b = self.var_b, self.var_a
            object.__setattr__(self, "var_a", a)
            object.__setattr__(self, "var_b", b)

    def value(self, assignment: Sequence[int]) -> int:
        pair = (assignment[self.var_a], assignment[self.var_b])
        if pair in ((1, 2), (2, 1)):
            return self.family.active_value
        return 0

    def vars_used(self) -> tuple[int, ...]:
        return (self.var_a, self.var_b)

    @property
    def base_family(self) -> ProjFamily:
        return self.family

    def render(self, names: Sequence[str]) -> str:
        return f"Pair{self.family}({names[self.var_a]},{names[self.var_b]})"


@dataclass(frozen=True)
class Const:
    value_: Trit

    def __post_init__(self) -> None:
        object.__setattr__(self, "value_", Trit(self.value_))

    def value(self, assignment: Sequence[int]) -> int:
        return self.value_

    def vars_used(self) -> tuple[int, ...]:
        return ()

    def render(self, names: Sequence[str]) -> str:
        return str(int(self.value_))


Factor = Union[Proj, Fused, Pair, Const]

_KIND_RANK = {Proj: 0, Fused: 1, Pair: 2, Const: 3}
_FAMILY_RANK = {
    ProjFamily.L: 0,
    ProjFamily.L_PRIME: 1,
    ProjFamily.J: 2,
    ProjFamily.J_PRIME: 3,
    None: 4,
}


def factor_key(f: Factor) -> tuple:
    """Canonical sort key: lowest variable first, then shape, family, level."""
    vs = f.vars_used()
    first_var = vs[0] if vs else 10**9
    level = int(getattr(f, "level", getattr(f, "value_", 0)))
    family = f.family if not isinstance(f, Const) else None
    return (first_var, _KIND_RANK[type(f)], _FAMILY_RANK[family], level, vs)


@dataclass(frozen=True)
class Term:
    """A product (min) of factors; construct through make_term."""

    factors: tuple[Factor, ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise ValueError("a term needs at least one factor")

    def value(self, assignment: Sequence[int]) -> int:
        result = 2
        for f in self.factors:
            v = f.value(assignment)
            if v < result:
                result = v
                if result == 0:
                    break
        return result

    def vars_used(self) -> set[int]:
        used: set[int] = set()
        for f in self.factors:
            used.update(f.vars_used())
        return used

    def render(self, names: Sequence[str]) -> str:
        return "".join(f.render(names) for f in self.factors)


def make_term(factors: Sequence[Factor]) -> Term:
    """Build a term with factors in canonical order."""
    return Term(tuple(sorted(factors, key=factor_key)))


def _max_of_terms(terms: Sequence[Term], assignment: Sequence[int]) -> Trit:
    best = 0
    for t in terms:
        v = t.value(assignment)
        if v > best:
            best = v
            if best == 2:
                break
    return TRITS[best]


def sop_column(terms: Sequence[Term], arity: int) -> tuple[Trit, ...]:
    """The max of the terms (0 when there are none) on every input row,
    in all_inputs order: the column TernaryFunction.values holds."""
    return tuple(_max_of_terms(terms, row) for row in all_inputs(arity))


@dataclass(frozen=True)
class Expr:
    """A sum (max) of terms over `arity` variables; empty means constant 0."""

    terms: tuple[Term, ...]
    arity: int

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValueError(f"arity must be >= 1, got {self.arity}")
        for t in self.terms:
            bad = [v for v in t.vars_used() if v >= self.arity]
            if bad:
                raise ValueError(
                    f"term {t!r} references variables {bad} outside arity {self.arity}"
                )

    def eval(self, assignment: Sequence[int]) -> Trit:
        if len(assignment) != self.arity:
            raise ValueError(
                f"expression over {self.arity} variables, got {len(assignment)} values"
            )
        return _max_of_terms(self.terms, tuple(Trit(v) for v in assignment))

    def table(self, name: str = "expr") -> TernaryFunction:
        return TernaryFunction(name, self.arity, sop_column(self.terms, self.arity))

    def total_factors(self) -> int:
        return sum(len(t.factors) for t in self.terms)

    def render(self, names: Optional[Sequence[str]] = None) -> str:
        if names is None:
            names = default_var_names(self.arity)
        if not self.terms:
            return "0"
        return " + ".join(t.render(names) for t in self.terms)


def minterm_extract(fn: TernaryFunction) -> Expr:
    """Expand a truth table into projection minterms.

    Rows valued 1 become products of L literals at the row's input levels;
    rows valued 2 become products of J literals.  1-rows come first, then
    2-rows, each group in lexicographic row order.
    """
    ones: list[Term] = []
    twos: list[Term] = []
    for row, v in zip(all_inputs(fn.arity), fn.values):
        if v == 0:
            continue
        family = ProjFamily.L if v == 1 else ProjFamily.J
        term = make_term([Proj(family, x, i) for i, x in enumerate(row)])
        (ones if v == 1 else twos).append(term)
    return Expr(tuple(ones + twos), fn.arity)


def expr_equiv(e: Expr, fn: TernaryFunction) -> tuple[bool, Optional[tuple[Trit, ...]]]:
    """Exhaustively compare an expression against a truth table.

    Returns (True, None) on equivalence, else (False, x) for the
    lexicographically smallest input x where they disagree.
    """
    if e.arity != fn.arity:
        raise ValueError(f"arity mismatch: expression {e.arity}, function {fn.arity}")
    row = first_difference(fn.arity, sop_column(e.terms, e.arity), fn.values)
    return row is None, row
