"""Tests for the sum-of-products expression layer."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritsynth.core import TRITS, ProjFamily, Trit, proj
from tritsynth.expr import (
    Const,
    Expr,
    Fused,
    Pair,
    Proj,
    expr_equiv,
    make_term,
    minterm_extract,
    sop_column,
)
from tritsynth.truthtables import TernaryFunction, all_inputs, builtin

from conftest import make_random_expr

L = ProjFamily.L
J = ProjFamily.J
LP = ProjFamily.L_PRIME
JP = ProjFamily.J_PRIME


def test_proj_factor_matches_scalar_projection():
    for fam in (L, J, LP, JP):
        for level, x in itertools.product(TRITS, repeat=2):
            f = Proj(fam, level, 0)
            assert f.value((x,)) == proj(fam, level, x)


def test_fused_fires_only_when_all_vars_sit_at_level():
    f = Fused(L, Trit(1), (0, 1))
    g = Fused(J, Trit(2), (0, 1, 2))
    for row in all_inputs(2):
        assert f.value(row) == (1 if row == (1, 1) else 0)
    for row in all_inputs(3):
        assert g.value(row) == (2 if row == (2, 2, 2) else 0)


def test_fused_validation():
    with pytest.raises(ValueError, match="at least two"):
        Fused(L, Trit(0), (0,))
    with pytest.raises(ValueError, match="distinct"):
        Fused(L, Trit(0), (1, 1))
    with pytest.raises(ValueError, match="unprimed"):
        Fused(LP, Trit(0), (0, 1))
    assert Fused(L, Trit(0), (2, 0)).vars == (0, 2)  # sorted on construction


def test_pair_firing_set():
    pl = Pair(L, 0, 1)
    pj = Pair(J, 0, 1)
    expected = {(1, 2): True, (2, 1): True}
    for row in all_inputs(2):
        fires = expected.get(tuple(int(x) for x in row), False)
        assert pl.value(row) == (1 if fires else 0)
        assert pj.value(row) == (2 if fires else 0)


def test_pair_is_symmetric_and_normalized():
    assert Pair(L, 1, 0) == Pair(L, 0, 1)
    assert Pair(J, 2, 0) == Pair(J, 0, 2)
    with pytest.raises(ValueError, match="distinct"):
        Pair(L, 1, 1)
    with pytest.raises(ValueError, match="unprimed"):
        Pair(JP, 0, 1)


def test_pair_j_is_zero_off_the_firing_set():
    # The J pair must read 0, not 1, away from (1,2)/(2,1); with a 1 there
    # the max-of-terms reading would corrupt every 0-row of the sum.
    pj = Pair(J, 0, 1)
    assert pj.value((0, 0)) == 0
    assert pj.value((2, 2)) == 0
    assert pj.value((1, 2)) == 2


def test_term_value_is_min():
    t = make_term([Proj(L, Trit(1), 0), Proj(L, Trit(2), 1)])
    for row in all_inputs(2):
        assert t.value(row) == min(proj(L, 1, row[0]), proj(L, 2, row[1]))


def test_term_requires_factors():
    with pytest.raises(ValueError):
        make_term([])


def test_expr_eval_is_max_and_empty_is_zero():
    e = Expr((), 2)
    assert all(e.eval(row) == 0 for row in all_inputs(2))
    t1 = make_term([Proj(L, Trit(0), 0)])
    t2 = make_term([Proj(J, Trit(0), 1)])
    e2 = Expr((t1, t2), 2)
    for row in all_inputs(2):
        assert e2.eval(row) == max(proj(L, 0, row[0]), proj(J, 0, row[1]))


def test_expr_rejects_out_of_range_variables():
    with pytest.raises(ValueError, match="outside arity"):
        Expr((make_term([Proj(L, Trit(0), 3)]),), 2)
    with pytest.raises(ValueError, match="arity must be >= 1, got 0"):
        Expr((), 0)


def test_factors_reject_negative_variable_indices():
    with pytest.raises(ValueError, match="variable index must be >= 0, got -1"):
        Proj(L, Trit(0), -1)
    with pytest.raises(ValueError, match=r"variable index must be >= 0: \(-1, 0\)"):
        Fused(L, Trit(0), (0, -1))
    with pytest.raises(ValueError, match="variable index must be >= 0"):
        Pair(J, -1, 0)


def test_expr_eval_checks_assignment_length():
    e = Expr((), 2)
    with pytest.raises(ValueError, match="2 variables"):
        e.eval((Trit(0),))


def test_render_format():
    e = Expr(
        (
            make_term([Proj(L, Trit(1), 0), Proj(L, Trit(2), 1)]),
            make_term([Fused(J, Trit(2), (0, 1))]),
            make_term([Pair(L, 0, 1)]),
            make_term([Const(Trit(1))]),
        ),
        2,
    )
    assert e.render() == "L1(a)L2(b) + J2(a,b) + PairL(a,b) + 1"
    assert Expr((), 2).render() == "0"
    assert Proj(LP, Trit(0), 0).render("ab") == "L'0(a)"


def test_minterm_extract_counts():
    g = minterm_extract(builtin("g_example").outputs[0])
    assert len(g.terms) == 8  # five 1-rows then three 2-rows
    assert all(len(t.factors) == 2 for t in g.terms)

    mul2c = minterm_extract(builtin("mul2").output("mul2c"))
    assert len(mul2c.terms) == 1
    assert mul2c.render() == "L2(a)L2(b)"

    sq = minterm_extract(builtin("sqsum2").outputs[0])
    assert len(sq.terms) == 8


def test_minterm_extract_orders_one_rows_before_two_rows():
    g = minterm_extract(builtin("g_example").outputs[0])
    families = [t.factors[0].family for t in g.terms]
    assert families == [L] * 5 + [J] * 3


def test_minterm_extract_round_trips_every_builtin():
    names = ["g_example", "mul2", "thadd", "tfadd", "sqsum2", "sqsum3",
             "avg2", "avg3", "a2bcc", "mul3", "sum2", "sum3", "prod2", "prod3"]
    for name in names:
        for out in builtin(name).outputs:
            e = minterm_extract(out)
            ok, cx = expr_equiv(e, out)
            assert ok, f"{name}/{out.name} differs at {cx}"


def test_extracted_terms_fire_on_disjoint_rows():
    # Each minterm fires on exactly one input row.
    for out in builtin("mul2").outputs:
        e = minterm_extract(out)
        for t in e.terms:
            firing = [row for row in all_inputs(e.arity) if t.value(row) != 0]
            assert len(firing) == 1


def test_expr_equiv_reports_smallest_counterexample():
    g = builtin("g_example").outputs[0]
    wrong = Expr((), 2)  # constant 0 first disagrees with g at row (0,1)
    ok, cx = expr_equiv(wrong, g)
    assert not ok and cx == (0, 1)


def test_expr_equiv_checks_arity():
    with pytest.raises(ValueError, match="arity mismatch"):
        expr_equiv(Expr((), 3), builtin("g_example").outputs[0])


def test_expr_table_round_trip():
    e = minterm_extract(builtin("avg2").outputs[0])
    assert e.table().column() == builtin("avg2").outputs[0].column()


def test_const_term():
    e = Expr((make_term([Const(Trit(2))]),), 1)
    assert all(e.eval(row) == 2 for row in all_inputs(1))


# Differential properties: the column evaluator against per-row loops.
random_exprs = st.builds(
    make_random_expr, st.randoms(use_true_random=False), st.integers(1, 3)
)


@settings(max_examples=150, deadline=None)
@given(random_exprs)
def test_sop_column_and_table_agree_with_eval_on_every_row(e):
    pointwise = tuple(e.eval(row) for row in all_inputs(e.arity))
    assert sop_column(e.terms, e.arity) == pointwise
    assert e.table().values == pointwise


@settings(max_examples=150, deadline=None)
@given(random_exprs, st.data())
def test_expr_equiv_counterexample_is_the_first_mismatching_row(e, data):
    rows = st.integers(0, 3**e.arity - 1)
    bumps = data.draw(st.dictionaries(rows, st.integers(1, 2), max_size=3))
    values = [(v + bumps.get(i, 0)) % 3 for i, v in enumerate(e.table().values)]
    fn = TernaryFunction("perturbed", e.arity, tuple(values))
    want = next((row for row in all_inputs(e.arity) if e.eval(row) != fn.eval(row)), None)
    assert expr_equiv(e, fn) == (want is None, want)
