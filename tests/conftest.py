"""Shared fixtures: a seeded random expression generator."""

import random

import pytest

from tritsynth.core import ProjFamily, Trit
from tritsynth.expr import Const, Expr, Fused, Pair, Proj, make_term

_FAMILIES = tuple(ProjFamily)
_UNPRIMED = (ProjFamily.L, ProjFamily.J)


def make_random_expr(rng: random.Random, arity: int) -> Expr:
    """A random well-formed expression hitting all four factor shapes."""
    terms = []
    for _ in range(rng.randint(0, 6)):
        factors = []
        for _ in range(rng.randint(1, 4)):
            roll = rng.random()
            if roll < 0.55 or arity < 2:
                factors.append(
                    Proj(rng.choice(_FAMILIES), Trit(rng.randrange(3)), rng.randrange(arity))
                )
            elif roll < 0.70:
                count = rng.randint(2, arity)
                fused_vars = tuple(rng.sample(range(arity), count))
                factors.append(Fused(rng.choice(_UNPRIMED), Trit(rng.randrange(3)), fused_vars))
            elif roll < 0.85:
                u, v = rng.sample(range(arity), 2)
                factors.append(Pair(rng.choice(_UNPRIMED), u, v))
            else:
                factors.append(Const(Trit(rng.randrange(3))))
        terms.append(make_term(factors))
    return Expr(tuple(terms), arity)


@pytest.fixture
def random_expr():
    return make_random_expr
