"""Scalar algebra over the ternary domain {0, 1, 2}.

Provides GF(3) arithmetic, min/max logic with the cyclic inverter, the four
projection-operation families (L, J and their primed complements), and the
six affine shift permutations that form the symmetric group on three symbols.
Everything downstream (expressions, gates, synthesis) is built on these
operations, so they are kept total and pure.  The public functions
validate their operands; the loops downstream call the same unchecked
steps (`_proj`, `ShiftOp.image`) on values that are already Trits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = [
    "Trit",
    "TRITS",
    "t_and",
    "t_or",
    "t_not",
    "gf3_add",
    "gf3_mul",
    "ProjFamily",
    "proj",
    "ShiftOp",
    "BUFFER",
    "SINGLE_SHIFT",
    "DUAL_SHIFT",
    "SELF_SHIFT",
    "SELF_SINGLE_SHIFT",
    "SELF_DUAL_SHIFT",
    "ALL_SHIFTS",
    "shift_by_name",
]


class Trit(int):
    """An integer constrained to {0, 1, 2}.

    There are exactly three Trit objects in a process, the ones in TRITS:
    Trit(v) rejects anything but the ints 0, 1 and 2 with ValueError and
    returns the interned TRITS[v], so Trit(v) is TRITS[v].  A Trit held by
    downstream code is therefore valid by type.

    Validation happens once, where a value enters from outside: the public
    functions and constructors that take trits (proj, ShiftOp, t_and and
    its siblings, lex_index, TernaryFunction, simulate, ...) call Trit().
    The loops behind them index TRITS with values already known to be in
    range and never call Trit().  Arithmetic that can wrap must reduce
    mod 3 explicitly; the helpers below return reduced Trits.
    """

    __slots__ = ()

    def __new__(cls, value: int) -> "Trit":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"trit value must be an integer 0, 1 or 2, got {value!r}")
        if value not in (0, 1, 2):
            raise ValueError(f"trit value must be 0, 1 or 2, got {value}")
        return TRITS[value]

    def __repr__(self) -> str:
        return f"Trit({int(self)})"


TRITS: tuple[Trit, Trit, Trit] = tuple(int.__new__(Trit, v) for v in range(3))


def t_and(a: int, b: int) -> Trit:
    """Ternary AND: minimum of the two operands."""
    return min(Trit(a), Trit(b))


def t_or(a: int, b: int) -> Trit:
    """Ternary OR: maximum of the two operands."""
    return max(Trit(a), Trit(b))


def t_not(a: int) -> Trit:
    """Cyclic inversion a -> (a + 1) mod 3.

    Unlike the binary inverter this is not an involution; three applications
    return to the start.
    """
    return TRITS[(Trit(a) + 1) % 3]


def gf3_add(a: int, b: int) -> Trit:
    return TRITS[(Trit(a) + Trit(b)) % 3]


def gf3_mul(a: int, b: int) -> Trit:
    return TRITS[(Trit(a) * Trit(b)) % 3]


class ProjFamily(enum.Enum):
    """The four projection-operation families.

    L_i(a) is 1 when a == i and 0 otherwise; J_i(a) is 2 when a == i and 0
    otherwise.  The primed variants fire on a != i instead.
    """

    L = "L"
    J = "J"
    L_PRIME = "L'"
    J_PRIME = "J'"

    @property
    def primed(self) -> bool:
        return self in (ProjFamily.L_PRIME, ProjFamily.J_PRIME)

    @property
    def base(self) -> "ProjFamily":
        """The unprimed family (L or J) this family belongs to."""
        if self in (ProjFamily.L, ProjFamily.L_PRIME):
            return ProjFamily.L
        return ProjFamily.J

    @property
    def active_value(self) -> Trit:
        """The nonzero output value the family produces when it fires."""
        return TRITS[1] if self.base is ProjFamily.L else TRITS[2]

    @property
    def complement(self) -> "ProjFamily":
        """Toggle the prime: L <-> L', J <-> J'."""
        return _COMPLEMENT[self]

    def __str__(self) -> str:
        return self.value


_COMPLEMENT = {
    ProjFamily.L: ProjFamily.L_PRIME,
    ProjFamily.L_PRIME: ProjFamily.L,
    ProjFamily.J: ProjFamily.J_PRIME,
    ProjFamily.J_PRIME: ProjFamily.J,
}


def proj(family: ProjFamily, level: int, a: int) -> Trit:
    """Evaluate a projection operation at point a.

    Unprimed families fire when a == level, primed families when a != level;
    firing yields the family's active value (1 for L-kind, 2 for J-kind).
    """
    return _proj(family, Trit(level), Trit(a))


def _proj(family: ProjFamily, level: int, a: int) -> Trit:
    """proj without the operand checks, for level and a already valid."""
    fired = (a != level) if family.primed else (a == level)
    return family.active_value if fired else TRITS[0]


@dataclass(frozen=True)
class ShiftOp:
    """Affine permutation x -> (mult*x + add) mod 3 of the trit domain.

    mult must be 1 or 2 (the invertible GF(3) scalars), so every ShiftOp is a
    bijection.  The six possible operations form the full permutation group
    on {0, 1, 2}; display names for the six appear via .name.  image[x] is
    the shifted value of x, the unchecked step that gates apply to wire
    values; apply(x) checks x first.
    """

    mult: Trit
    add: Trit
    image: tuple[Trit, Trit, Trit] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "mult", Trit(self.mult))
        object.__setattr__(self, "add", Trit(self.add))
        if self.mult == 0:
            raise ValueError("shift mult must be 1 or 2, got 0 (not invertible)")
        image = tuple(TRITS[(self.mult * x + self.add) % 3] for x in range(3))
        object.__setattr__(self, "image", image)

    def apply(self, x: int) -> Trit:
        return self.image[Trit(x)]

    def compose(self, inner: "ShiftOp") -> "ShiftOp":
        """The shift equivalent to applying `inner` first, then self."""
        return ShiftOp(self.mult * inner.mult % 3, (self.mult * inner.add + self.add) % 3)

    def inverse(self) -> "ShiftOp":
        # mult is self-inverse in GF(3): 1*1 = 2*2 = 1.
        return ShiftOp(self.mult, (-self.mult * self.add) % 3)

    @property
    def name(self) -> str:
        return _SHIFT_NAMES[(int(self.mult), int(self.add))]

    def __str__(self) -> str:
        return self.name


BUFFER = ShiftOp(1, 0)
SINGLE_SHIFT = ShiftOp(1, 1)
DUAL_SHIFT = ShiftOp(1, 2)
SELF_SHIFT = ShiftOp(2, 0)
SELF_SINGLE_SHIFT = ShiftOp(2, 1)
SELF_DUAL_SHIFT = ShiftOp(2, 2)

ALL_SHIFTS: tuple[ShiftOp, ...] = (
    BUFFER,
    SINGLE_SHIFT,
    DUAL_SHIFT,
    SELF_SHIFT,
    SELF_SINGLE_SHIFT,
    SELF_DUAL_SHIFT,
)

_SHIFT_NAMES = {
    (1, 0): "Buffer",
    (1, 1): "SingleShift",
    (1, 2): "DualShift",
    (2, 0): "SelfShift",
    (2, 1): "SelfSingleShift",
    (2, 2): "SelfDualShift",
}


_SHIFTS_BY_NAME = {s.name: s for s in ALL_SHIFTS}


def shift_by_name(name: str) -> ShiftOp:
    try:
        return _SHIFTS_BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown shift name {name!r}") from None
