"""Unit tests for the scalar ternary algebra."""

import itertools

import pytest

from tritsynth.core import (
    ALL_SHIFTS,
    BUFFER,
    DUAL_SHIFT,
    SELF_DUAL_SHIFT,
    SELF_SHIFT,
    SELF_SINGLE_SHIFT,
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

# Rows a = 0, 1, 2 of the projection reference tables, columns i = 0, 1, 2.
L_TABLE = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
J_TABLE = ((2, 0, 0), (0, 2, 0), (0, 0, 2))
L_PRIME_TABLE = ((0, 1, 1), (1, 0, 1), (1, 1, 0))
J_PRIME_TABLE = ((0, 2, 2), (2, 0, 2), (2, 2, 0))


def test_trit_accepts_only_valid_values():
    for v in (0, 1, 2):
        assert Trit(v) == v
    for bad in (-1, 3, 10):
        with pytest.raises(ValueError):
            Trit(bad)


def test_trit_rejects_non_integers():
    for bad in (0.0, "1", None, True, False):
        with pytest.raises(ValueError):
            Trit(bad)


def test_and_or_are_min_max():
    for a, b in itertools.product(TRITS, repeat=2):
        assert t_and(a, b) == min(a, b)
        assert t_or(a, b) == max(a, b)


def test_not_is_cyclic_with_period_three():
    assert [t_not(a) for a in TRITS] == [1, 2, 0]
    for a in TRITS:
        assert t_not(t_not(t_not(a))) == a
        assert t_not(t_not(a)) != a or a == t_not(a)  # never an involution point
    # No fixed points and not self-inverse anywhere.
    assert all(t_not(a) != a for a in TRITS)
    assert all(t_not(t_not(a)) != a for a in TRITS)


def test_gf3_arithmetic():
    for a, b in itertools.product(TRITS, repeat=2):
        assert gf3_add(a, b) == (a + b) % 3
        assert gf3_mul(a, b) == (a * b) % 3
        assert isinstance(gf3_add(a, b), Trit)


def test_projection_tables():
    tables = {
        ProjFamily.L: L_TABLE,
        ProjFamily.J: J_TABLE,
        ProjFamily.L_PRIME: L_PRIME_TABLE,
        ProjFamily.J_PRIME: J_PRIME_TABLE,
    }
    for family, table in tables.items():
        for a in TRITS:
            for i in TRITS:
                assert proj(family, i, a) == table[a][i], (family, i, a)


def test_projection_value_ranges():
    for i, a in itertools.product(TRITS, repeat=2):
        assert proj(ProjFamily.L, i, a) in (0, 1)
        assert proj(ProjFamily.L_PRIME, i, a) in (0, 1)
        assert proj(ProjFamily.J, i, a) in (0, 2)
        assert proj(ProjFamily.J_PRIME, i, a) in (0, 2)


def test_primed_families_complement_unprimed():
    for i, a in itertools.product(TRITS, repeat=2):
        l_hit = proj(ProjFamily.L, i, a) != 0
        assert (proj(ProjFamily.L_PRIME, i, a) != 0) == (not l_hit)
        j_hit = proj(ProjFamily.J, i, a) != 0
        assert (proj(ProjFamily.J_PRIME, i, a) != 0) == (not j_hit)


def test_family_properties():
    assert ProjFamily.L.complement is ProjFamily.L_PRIME
    assert ProjFamily.J_PRIME.complement is ProjFamily.J
    assert ProjFamily.L_PRIME.base is ProjFamily.L
    assert ProjFamily.J.active_value == 2
    assert not ProjFamily.L.primed
    assert ProjFamily.J_PRIME.primed


def test_idempotence_absorption_distributivity():
    for a, b, c in itertools.product(TRITS, repeat=3):
        assert t_and(a, a) == a
        assert t_or(a, a) == a
        assert t_or(a, t_and(a, b)) == a
        assert t_and(a, t_or(a, b)) == a
        assert t_and(a, t_or(b, c)) == t_or(t_and(a, b), t_and(a, c))
        assert t_or(a, t_and(b, c)) == t_and(t_or(a, b), t_or(a, c))


def test_named_shift_actions():
    assert [BUFFER.apply(x) for x in TRITS] == [0, 1, 2]
    assert [SINGLE_SHIFT.apply(x) for x in TRITS] == [1, 2, 0]
    assert [DUAL_SHIFT.apply(x) for x in TRITS] == [2, 0, 1]
    assert [SELF_SHIFT.apply(x) for x in TRITS] == [0, 2, 1]
    assert [SELF_SINGLE_SHIFT.apply(x) for x in TRITS] == [1, 0, 2]
    assert [SELF_DUAL_SHIFT.apply(x) for x in TRITS] == [2, 1, 0]


def test_self_shifts_are_the_three_transpositions():
    # SelfShift swaps 1<->2, SelfSingleShift swaps 0<->1, SelfDualShift swaps 0<->2.
    assert [SELF_SHIFT.apply(x) for x in TRITS] == [0, 2, 1]
    assert [SELF_SINGLE_SHIFT.apply(x) for x in TRITS] == [1, 0, 2]
    assert [SELF_DUAL_SHIFT.apply(x) for x in TRITS] == [2, 1, 0]
    for s in (SELF_SHIFT, SELF_SINGLE_SHIFT, SELF_DUAL_SHIFT):
        assert s.compose(s) == BUFFER  # transpositions are involutions


def test_every_shift_is_a_bijection():
    for s in ALL_SHIFTS:
        assert sorted(s.apply(x) for x in TRITS) == [0, 1, 2]


def test_shift_group_is_closed_and_has_order_six():
    assert len(set(ALL_SHIFTS)) == 6
    perms = {tuple(s.apply(x) for x in TRITS) for s in ALL_SHIFTS}
    assert perms == set(itertools.permutations((0, 1, 2)))
    for s, t in itertools.product(ALL_SHIFTS, repeat=2):
        composed = s.compose(t)
        assert composed in ALL_SHIFTS
        for x in TRITS:
            assert composed.apply(x) == s.apply(t.apply(x))


def test_shift_inverse():
    for s in ALL_SHIFTS:
        inv = s.inverse()
        assert inv in ALL_SHIFTS
        assert s.compose(inv) == BUFFER
        assert inv.compose(s) == BUFFER


def test_shift_names_round_trip():
    assert [str(s) for s in ALL_SHIFTS] == [s.name for s in ALL_SHIFTS]
    assert str(SELF_DUAL_SHIFT) == "SelfDualShift"
    names = {s.name for s in ALL_SHIFTS}
    assert names == {
        "Buffer",
        "SingleShift",
        "DualShift",
        "SelfShift",
        "SelfSingleShift",
        "SelfDualShift",
    }


def test_shift_rejects_mult_zero():
    with pytest.raises(ValueError):
        ShiftOp(Trit(0), Trit(1))
