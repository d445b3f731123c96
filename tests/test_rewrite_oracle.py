"""Differential test: the rule finders and simplify against the old engine.

The old engine (tests/rewrite_oracle.py) searched each rule's sites with its
own loop.  The current one routes rules through two shared finders; on every
state the old engine visits, each rule must find the very same step, and
simplify must take the same trace.
"""

import random

import pytest

from tritsynth.core import Trit
from tritsynth.expr import minterm_extract
from tritsynth.simplify import RULES, simplify
from tritsynth.truthtables import TernaryFunction, builtin, list_builtins

from conftest import make_random_expr
from rewrite_oracle import OLD_FINDERS, old_simplify_states


def _random_exprs():
    rng = random.Random(20)
    return [make_random_expr(rng, rng.randint(1, 4)) for _ in range(240)]


def _catalog_exprs():
    # Arity 5-7 outputs (prod5-7, sum5-7) hold 32 to 1,458 minterms and take
    # seconds to minutes each; every smaller catalog output is here.
    return [minterm_extract(out) for name in list_builtins()
            for out in builtin(name).outputs if out.arity <= 4]


def _random_table_exprs():
    rng = random.Random(21)
    exprs = []
    for arity in (1, 2, 3, 4):
        for k in range(4):
            values = tuple(Trit(rng.choice((0, 0, 1, 2))) for _ in range(3**arity))
            exprs.append(minterm_extract(TernaryFunction(f"r{arity}_{k}", arity, values)))
    return exprs


def _assert_matches_old_engine(e):
    states = old_simplify_states(e)
    for terms, _ in states:
        for rule_id, old_find in OLD_FINDERS.items():
            try:
                want = old_find(terms)
            except ValueError:
                # The old rule 10 raises on a one-variable group (L0(a)L0(a)).
                assert rule_id == 10
                RULES[10].find(terms)
                continue
            assert RULES[rule_id].find(terms) == want, (rule_id, e.render())
    _, trace = simplify(e)
    assert list(trace.steps) == [step for _, step in states[:-1]]


@pytest.mark.parametrize(
    "make_exprs", [_random_exprs, _catalog_exprs, _random_table_exprs],
    ids=["random_exprs", "catalog_minterms", "random_tables"],
)
def test_finders_and_traces_match_the_old_engine(make_exprs):
    exprs = make_exprs()
    assert exprs
    for e in exprs:
        _assert_matches_old_engine(e)
