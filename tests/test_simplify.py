"""Tests for the rewrite rules and the fixpoint engine.

Each rule is first checked as a pointwise identity over the full input
space, then the engine is pinned to the known reduced forms of the
benchmark functions and exercised on seeded random expressions.
"""

import itertools
import random

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
)
from tritsynth.simplify import (
    PRIORITY,
    RULES,
    RewriteSoundnessError,
    RewriteStep,
    RewriteTrace,
    _apply_step,
    _unsound_at,
    apply_rule,
    replay,
    simplify,
)
from tritsynth.truthtables import all_inputs, builtin

from conftest import make_random_expr

L = ProjFamily.L
J = ProjFamily.J
LP = ProjFamily.L_PRIME
JP = ProjFamily.J_PRIME


def _expr(arity, *factor_lists):
    return Expr(tuple(make_term(fs) for fs in factor_lists), arity)


# Pointwise identities behind the rules.

def test_rule_identity_zero_annihilates():
    for fam in (L, J):
        for i, a in itertools.product(TRITS, repeat=2):
            assert min(proj(fam, i, a), 0) == 0


def test_rule_identity_family_constants_are_and_identities():
    for i, a in itertools.product(TRITS, repeat=2):
        assert min(proj(L, i, a), 1) == proj(L, i, a)
        assert min(proj(J, i, a), 2) == proj(J, i, a)


def test_rule_identity_zero_is_or_identity():
    for fam in (L, J):
        for i, a in itertools.product(TRITS, repeat=2):
            assert max(proj(fam, i, a), 0) == proj(fam, i, a)


def test_rule_identity_family_constants_dominate_or():
    for i, a in itertools.product(TRITS, repeat=2):
        assert max(proj(L, i, a), 1) == 1
        assert max(proj(J, i, a), 2) == 2


def test_rule_identity_complement_annihilation_and_completion():
    for fam in (L, J):
        prime = fam.complement
        for i, a in itertools.product(TRITS, repeat=2):
            assert min(proj(fam, i, a), proj(prime, i, a)) == 0
            assert max(proj(fam, i, a), proj(prime, i, a)) == fam.active_value


def test_rule_identity_primed_literal_is_sum_of_other_levels():
    for fam in (L, J):
        for i, a in itertools.product(TRITS, repeat=2):
            up, upp = (int(i) + 1) % 3, (int(i) + 2) % 3
            assert proj(fam.complement, i, a) == max(proj(fam, up, a), proj(fam, upp, a))


def test_rule_identity_crossed_pair():
    for fam in (L, J):
        for a, b in itertools.product(TRITS, repeat=2):
            crossed = max(
                min(proj(fam, 1, a), proj(fam, 2, b)),
                min(proj(fam, 2, a), proj(fam, 1, b)),
            )
            assert crossed == Pair(fam, 0, 1).value((a, b))


def test_rule_identity_idempotence():
    for fam in (L, J):
        for i, a in itertools.product(TRITS, repeat=2):
            assert min(proj(fam, i, a), proj(fam, i, a)) == proj(fam, i, a)


def test_rule_identity_fusion():
    for fam in (L, J):
        for i in TRITS:
            for row in all_inputs(3):
                sep = min(proj(fam, i, row[0]), min(proj(fam, i, row[1]), proj(fam, i, row[2])))
                assert sep == Fused(fam, i, (0, 1, 2)).value(row)


# Single-rule applications.

def test_rule_1_drops_terms_with_zero_factor():
    e = _expr(1, [Proj(L, Trit(1), 0), Const(Trit(0))], [Proj(L, Trit(2), 0)])
    out = apply_rule(e, 1)
    assert out is not None and out.render() == "L2(a)"


def test_rule_2_drops_redundant_family_constants():
    e = _expr(1, [Proj(L, Trit(1), 0), Const(Trit(1))])
    assert apply_rule(e, 2).render() == "L1(a)"
    e = _expr(1, [Proj(J, Trit(0), 0), Const(Trit(2))])
    assert apply_rule(e, 2).render() == "J0(a)"
    # Conservative: a 1 beside a J literal is a real bound, not redundancy.
    e = _expr(1, [Proj(J, Trit(1), 0), Const(Trit(1))])
    assert apply_rule(e, 2) is None


def test_rule_3_drops_constant_zero_terms():
    e = _expr(1, [Const(Trit(0))], [Proj(J, Trit(1), 0)])
    assert apply_rule(e, 3).render() == "J1(a)"


def test_rule_4_constant_absorbs_same_family_terms():
    e = _expr(1, [Const(Trit(1))], [Proj(L, Trit(2), 0)])
    assert apply_rule(e, 4).render() == "1"
    e = _expr(1, [Const(Trit(2))], [Proj(J, Trit(2), 0)])
    assert apply_rule(e, 4).render() == "2"
    # A 1 term does not absorb J-valued terms (max could still reach 2).
    e = _expr(1, [Const(Trit(1))], [Proj(J, Trit(2), 0)])
    assert apply_rule(e, 4) is None


def test_rule_5_annihilates_complementary_literals():
    e = _expr(1, [Proj(L, Trit(1), 0), Proj(LP, Trit(1), 0)])
    assert apply_rule(e, 5).terms == ()
    # Different levels or variables do not annihilate.
    e = _expr(2, [Proj(L, Trit(1), 0), Proj(LP, Trit(2), 0)])
    assert apply_rule(e, 5) is None
    e = _expr(2, [Proj(L, Trit(1), 0), Proj(LP, Trit(1), 1)])
    assert apply_rule(e, 5) is None


def test_rule_6_complementary_terms_sum_to_family_constant():
    e = _expr(1, [Proj(L, Trit(0), 0)], [Proj(LP, Trit(0), 0)])
    assert apply_rule(e, 6).render() == "1"
    e = _expr(1, [Proj(JP, Trit(2), 0)], [Proj(J, Trit(2), 0)])
    assert apply_rule(e, 6).render() == "2"


def test_rule_7_contracts_level_pairs():
    e = _expr(2, [Proj(L, Trit(0), 0), Proj(L, Trit(1), 1)],
              [Proj(L, Trit(0), 0), Proj(L, Trit(2), 1)])
    assert apply_rule(e, 7).render() == "L0(a)L'0(b)"
    # Co-factors must match exactly.
    e = _expr(2, [Proj(L, Trit(0), 0), Proj(L, Trit(1), 1)],
              [Proj(L, Trit(1), 0), Proj(L, Trit(2), 1)])
    assert apply_rule(e, 7) is None


def test_rule_7_handles_fused_cofactors():
    e = _expr(3, [Fused(L, Trit(0), (0, 1)), Proj(L, Trit(1), 2)],
              [Fused(L, Trit(0), (0, 1)), Proj(L, Trit(2), 2)])
    assert apply_rule(e, 7).render() == "L0(a,b)L'0(c)"


def test_rule_8_fuses_crossed_pairs():
    e = _expr(2, [Proj(L, Trit(1), 0), Proj(L, Trit(2), 1)],
              [Proj(L, Trit(2), 0), Proj(L, Trit(1), 1)])
    assert apply_rule(e, 8).render() == "PairL(a,b)"
    e = _expr(3, [Proj(J, Trit(0), 0), Proj(J, Trit(1), 1), Proj(J, Trit(2), 2)],
              [Proj(J, Trit(0), 0), Proj(J, Trit(2), 1), Proj(J, Trit(1), 2)])
    assert apply_rule(e, 8).render() == "J0(a)PairJ(b,c)"
    # Levels 0/2 crossed is not a site.
    e = _expr(2, [Proj(J, Trit(0), 0), Proj(J, Trit(2), 1)],
              [Proj(J, Trit(2), 0), Proj(J, Trit(0), 1)])
    assert apply_rule(e, 8) is None


def test_rule_9_drops_duplicate_factors():
    t = Proj(L, Trit(1), 0)
    e = Expr((make_term([t, t]),), 1)
    assert apply_rule(e, 9).render() == "L1(a)"


def test_rule_10_fuses_same_level_projections():
    e = _expr(3, [Proj(L, Trit(1), 0), Proj(L, Trit(1), 1), Proj(L, Trit(1), 2)])
    assert apply_rule(e, 10).render() == "L1(a,b,c)"
    e = _expr(2, [Proj(J, Trit(2), 0), Proj(J, Trit(2), 1)])
    assert apply_rule(e, 10).render() == "J2(a,b)"
    # Existing fused factors absorb matching literals.
    e = _expr(3, [Fused(L, Trit(0), (0, 1)), Proj(L, Trit(0), 2)])
    assert apply_rule(e, 10).render() == "L0(a,b,c)"
    # Mixed levels do not fuse.
    e = _expr(2, [Proj(L, Trit(1), 0), Proj(L, Trit(2), 1)])
    assert apply_rule(e, 10) is None


def test_rule_10_skips_a_repeated_literal():
    # L0(a)L0(a) groups one variable twice: no joint factor, rule 9's site.
    e = Expr((make_term([Proj(L, Trit(0), 0), Proj(L, Trit(0), 0)]),), 1)
    assert apply_rule(e, 10) is None
    # The next group still fuses.
    e = _expr(2, [Proj(L, Trit(0), 0), Proj(L, Trit(0), 0), Proj(J, Trit(1), 0),
                  Proj(J, Trit(1), 1)])
    assert apply_rule(e, 10).render() == "L0(a)L0(a)J1(a,b)"


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 3))
def test_apply_rule_keeps_the_function_and_never_raises(rng, arity):
    e = make_random_expr(rng, arity)
    table = e.table()
    for rule_id in RULES:
        out = apply_rule(e, rule_id)
        if out is not None:
            ok, cx = expr_equiv(out, table)
            assert ok, f"rule {rule_id}: {e.render()} -> {out.render()} differs at {cx}"


def test_apply_rule_validates_rule_id():
    with pytest.raises(ValueError, match="rule id"):
        apply_rule(Expr((), 1), 11)


# Golden reduced forms of the benchmark functions.

def test_simplify_g_example_golden_form():
    e, trace = simplify(minterm_extract(builtin("g_example").outputs[0]))
    assert e.render() == (
        "L0(a)L1(b) + L1(a)L0(b) + L1(a,b) + PairL(a,b) + "
        "J0(a)J2(b) + J2(a)J0(b) + J2(a,b)"
    )
    assert [s.rule_id for s in trace.steps] == [8, 10, 10]


def test_simplify_mul2_product_golden_form():
    e, _ = simplify(minterm_extract(builtin("mul2").output("mul2")))
    assert e.render() == "L1(a,b) + L2(a,b) + PairJ(a,b)"


def test_simplify_mul2_carry_golden_form():
    e, _ = simplify(minterm_extract(builtin("mul2").output("mul2c")))
    assert e.render() == "L2(a,b)"


def test_simplify_carryh_golden_form():
    e, _ = simplify(minterm_extract(builtin("thadd").output("carryh")))
    assert e.render() == "PairL(a,b) + L2(a,b)"


def test_simplify_sqsum2_golden_form():
    e, _ = simplify(minterm_extract(builtin("sqsum2").outputs[0]))
    assert e.render() == "L0(a)L'0(b) + L'0(a)L0(b) + J1(a,b) + PairJ(a,b) + J2(a,b)"


def test_simplify_mul3_carry_golden_form():
    e, _ = simplify(minterm_extract(builtin("mul3").output("mul3c")))
    assert e.render() == "PairL(a,b)L2(c) + L2(a,b)L1(c) + J2(a,b,c)"


def test_simplify_preserves_every_builtin():
    names = ["g_example", "mul2", "thadd", "tfadd", "sqsum2", "sqsum3",
             "avg2", "avg3", "a2bcc", "mul3", "prod2", "prod3"]
    for name in names:
        for out in builtin(name).outputs:
            reduced, _ = simplify(minterm_extract(out))
            ok, cx = expr_equiv(reduced, out)
            assert ok, f"{name}/{out.name} broken at {cx}"


def test_simplify_is_idempotent():
    e, _ = simplify(minterm_extract(builtin("sqsum2").outputs[0]))
    again, trace = simplify(e)
    assert again == e
    assert trace.steps == ()


def test_simplify_never_adds_projection_literals():
    rng = random.Random(20117)
    for _ in range(100):
        arity = rng.randint(1, 3)
        from conftest import make_random_expr  # local import keeps pytest happy

        e = make_random_expr(rng, arity)
        reduced, _ = simplify(e)
        def count_projs(expr):
            return sum(1 for t in expr.terms for f in t.factors if isinstance(f, Proj))
        assert count_projs(reduced) <= count_projs(e)


def test_simplify_terminates_within_measure_bound(random_expr):
    rng = random.Random(7)
    for _ in range(200):
        arity = rng.randint(1, 4)
        e = random_expr(rng, arity)
        bound = len(e.terms) + e.total_factors()
        reduced, trace = simplify(e)
        assert len(trace.steps) <= bound
        ok, cx = expr_equiv(reduced, e.table())
        assert ok, f"{e.render()} -> {reduced.render()} differs at {cx}"


def test_trace_replay_reproduces_result(random_expr):
    rng = random.Random(99)
    for _ in range(100):
        e = random_expr(rng, rng.randint(1, 3))
        reduced, trace = simplify(e)
        assert replay(e, trace) == reduced


def test_replay_rejects_a_partner_before_its_index():
    initial = minterm_extract(builtin("mul2").output("mul2"))
    step = RewriteStep(8, 1, 0, ())
    with pytest.raises(ValueError, match="step partner must come after its index"):
        replay(initial, RewriteTrace((step,)))


def test_trace_render_mentions_rules_and_terms():
    initial = minterm_extract(builtin("mul2").output("mul2"))
    reduced, trace = simplify(initial)
    text = trace.render(initial)
    lines = text.splitlines()
    assert len(lines) == len(trace.steps)
    assert lines[0].startswith("rule  8 at terms 2,3: J1(a)J2(b) + J2(a)J1(b) -> PairJ(a,b)")


def test_priority_order_constants():
    assert sorted(PRIORITY) == list(range(1, 11))
    assert set(RULES) == set(range(1, 11))
    # Fusions must run before the level contraction (see module docstring).
    assert PRIORITY.index(8) < PRIORITY.index(7)
    assert PRIORITY.index(10) < PRIORITY.index(7)


def test_soundness_guard_rejects_broken_rules(monkeypatch):
    from tritsynth.simplify import RewriteRule

    def bogus_find(terms):
        if terms:
            return RewriteStep(1, 0, None, ())  # drop the first term, whatever it is
        return None

    broken = RewriteRule(1, "broken", bogus_find)
    monkeypatch.setitem(RULES, 1, broken)
    e = _expr(1, [Proj(L, Trit(1), 0)])
    with pytest.raises(RewriteSoundnessError) as exc:
        simplify(e)
    assert exc.value.rule_id == 1
    assert exc.value.counterexample == (1,)


# The soundness check reads whole columns; this per-row loop is the
# reference it must agree with, row for row.
def _unsound_at_pointwise(arity, terms, step):
    before = [terms[step.index]]
    if step.partner is not None:
        before.append(terms[step.partner])
    ctx = [terms[k] for k in step.context]
    after = list(step.replacement)
    for row in all_inputs(arity):
        b = max((t.value(row) for t in before + ctx), default=0)
        a = max((t.value(row) for t in after + ctx), default=0)
        if a != b:
            return row
    return None


@st.composite
def _terms_and_step(draw):
    """Random terms with a random, usually unsound, step over them."""
    rng = draw(st.randoms(use_true_random=False))
    arity = draw(st.integers(1, 3))
    terms = list(make_random_expr(rng, arity).terms) or [make_term([Proj(L, Trit(0), 0)])]
    index = draw(st.integers(0, len(terms) - 1))
    later = st.integers(index + 1, len(terms) - 1) if index + 1 < len(terms) else st.nothing()
    partner = draw(st.none() | later)
    others = [k for k in range(len(terms)) if k not in (index, partner)]
    context = tuple(draw(st.lists(st.sampled_from(others), unique=True))) if others else ()
    replacement = make_random_expr(rng, arity).terms
    return arity, terms, RewriteStep(1, index, partner, replacement, context)


@settings(max_examples=200, deadline=None)
@given(_terms_and_step())
def test_unsound_at_agrees_with_pointwise_loop_on_random_steps(case):
    arity, terms, step = case
    assert _unsound_at(arity, terms, step) == _unsound_at_pointwise(arity, terms, step)


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 3))
def test_steps_simplify_accepts_are_sound_under_the_pointwise_loop(rng, arity):
    e = make_random_expr(rng, arity)
    _, trace = simplify(e)
    terms = list(e.terms)
    for step in trace.steps:
        assert _unsound_at_pointwise(arity, terms, step) is None
        terms = _apply_step(terms, step)
