"""Seeded workload inputs for the benchmark.

A workload is a list of specs: plain data drawn from the seed with the
standard library only.  build() turns specs into tritsynth tables through
the public table API (TernaryFunction, MultiOutputFunction, builtin); that
call is the table-build stage the trace times.  reference_columns() gives
the benchmark's own copy of every output column, computed from the spec
and not read back from tritsynth (except for catalog entries, whose
definition is the catalog table itself).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from tritsynth import MultiOutputFunction, TernaryFunction, builtin, list_builtins

WORKLOADS = ("catalog", "random_sop", "wide")

# The tail percentile reported per workload, read from each function's
# fastest call (see harness.end_to_end_metrics): the highest multiple of 5
# that leaves at least two functions beyond it.  Fixing it keeps every run, and
# every commit, reporting the same percentile of the same workload.
TAIL_PERCENTILE = {"catalog": 90, "random_sop": 80, "wide": 75}

_LETTERS = "abcdefgh"


@dataclass(frozen=True)
class OutputSpec:
    """One output column: kind "column" carries the values, kind "affine"
    carries (constant, coefficients) of c + sum(lam_i * x_i) mod 3."""

    name: str
    kind: str
    data: tuple


@dataclass(frozen=True)
class Spec:
    """One function of a workload; kind "builtin" names a catalog entry."""

    name: str
    kind: str
    arity: int = 0
    outputs: tuple[OutputSpec, ...] = ()


def _rows(arity):
    return product(range(3), repeat=arity)


def _affine_column(arity, c, lams):
    return tuple((c + sum(l * x for l, x in zip(lams, row))) % 3 for row in _rows(arity))


def _dense_column(rng, arity, p_zero):
    """Exactly round(p_zero * 3^arity) zero rows; the rest split evenly
    between 1 and 2.  Fixed counts (rather than per-row coin flips) keep
    the minterm count, and so the work, equal across seeds."""
    n = 3**arity
    zeros = round(p_zero * n)
    ones = (n - zeros) // 2
    values = [0] * zeros + [1] * ones + [2] * (n - zeros - ones)
    rng.shuffle(values)
    return tuple(values)


# Nonzero coefficients of every affine output, at positions drawn once
# from _WIDE_TEMPLATE; the nonzero constant adds one unconditional shift
# gate.
_AFFINE_COEFFS = (1, 1, 1, 2, 2)


def _random_affine(rng, arity):
    lams = [0] * arity
    for i, lam in zip(rng.sample(range(arity), len(_AFFINE_COEFFS)), _AFFINE_COEFFS):
        lams[i] = lam
    return rng.choice((1, 2)), tuple(lams)


def _catalog(seed):
    names = list_builtins()
    random.Random(seed).shuffle(names)
    return [Spec(n, "builtin") for n in names]


# (arity, P(0), outputs) per function.  Arity 5 is where rewrite-rule
# search dominates; the cheaper arity-4 functions supply enough operations
# per run for the percentiles.  Sorted by cost the plan is two one-output
# arity-4 functions, five two-output ones, then three arity-5 ones, so the
# median falls inside the second group and the p75 tail inside the third,
# never on the gap between two groups of different cost.
_RANDOM_SOP_PLAN = (
    (4, 0.4, 2), (4, 0.5, 1), (4, 0.6, 2), (5, 0.6, 1), (4, 0.5, 2),
    (4, 0.4, 2), (5, 0.6, 1), (4, 0.6, 1), (4, 0.5, 2), (5, 0.6, 1),
)


def _random_sop(seed):
    rng = random.Random(f"random_sop:{seed}")
    specs = []
    for i, (arity, p_zero, n_out) in enumerate(_RANDOM_SOP_PLAN):
        outs = tuple(
            OutputSpec(f"r{i}_o{k}", "column", _dense_column(rng, arity, p_zero))
            for k in range(n_out)
        )
        specs.append(Spec(f"r{i}", "table", arity, outs))
    return specs


# (affine outputs, nonzero rows of the sparse output or 0 for none).  Five
# pure affine functions and three with a sparse output, which cost about
# twice as much: the median falls inside the pure affine group and the p75
# tail inside the sparse group.
_WIDE_PLAN = ((3, 0), (1, 4), (2, 0), (3, 0), (1, 5), (2, 0), (3, 0), (1, 6))
_WIDE_ARITY = 8
# The wide tables are drawn once from this fixed stream; the seed only
# renames the variables of each sparse output.  synth's depth for an affine
# output depends on where its coefficients sit (11 to 21 for the same
# coefficient multiset), and its ancillae for a sparse output on which rows
# are nonzero, so tables drawn afresh per seed spread depth_total by 5% and
# ancillae_total by 2% across seeds.  A variable permutation leaves the
# sparse output's cost, ancillae and depth unchanged, so every quality
# total of wide is the same for every seed and a small regression shows.
_WIDE_TEMPLATE = "wide-template"


def _sparse_column(rng, arity, nonzero):
    values = [0] * 3**arity
    for idx in rng.sample(range(3**arity), nonzero):
        values[idx] = rng.choice((1, 2))
    return tuple(values)


def _permute_inputs(column, perm):
    """The column of f(x) renamed so that input i becomes input perm[i]."""
    arity = len(perm)
    out = [0] * len(column)
    for idx, row in enumerate(_rows(arity)):
        moved = [0] * arity
        for i, x in enumerate(row):
            moved[perm[i]] = x
        out[sum(x * 3 ** (arity - 1 - i) for i, x in enumerate(moved))] = column[idx]
    return tuple(out)


def _wide(seed):
    template = random.Random(_WIDE_TEMPLATE)
    rng = random.Random(f"wide:{seed}")
    specs = []
    for i, (n_affine, nonzero) in enumerate(_WIDE_PLAN):
        outs = [
            OutputSpec(f"w{i}_a{k}", "affine", _random_affine(template, _WIDE_ARITY))
            for k in range(n_affine)
        ]
        if nonzero:
            col = _sparse_column(template, _WIDE_ARITY, nonzero)
            perm = rng.sample(range(_WIDE_ARITY), _WIDE_ARITY)
            outs.append(OutputSpec(f"w{i}_s", "column", _permute_inputs(col, perm)))
        specs.append(Spec(f"w{i}", "table", _WIDE_ARITY, tuple(outs)))
    return specs


def make_specs(workload: str, seed: int) -> list[Spec]:
    if workload == "catalog":
        return _catalog(seed)
    if workload == "random_sop":
        return _random_sop(seed)
    if workload == "wide":
        return _wide(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _build_output(spec, out):
    if out.kind == "affine":
        c, lams = out.data
        return TernaryFunction.from_callable(
            out.name, spec.arity, lambda *xs: (c + sum(l * x for l, x in zip(lams, xs))) % 3
        )
    return TernaryFunction(out.name, spec.arity, out.data)


def build(specs: list[Spec]) -> list[MultiOutputFunction]:
    fns = []
    for spec in specs:
        if spec.kind == "builtin":
            fns.append(builtin(spec.name))
        else:
            outs = tuple(_build_output(spec, o) for o in spec.outputs)
            fns.append(MultiOutputFunction(spec.name, spec.arity, tuple(_LETTERS[: spec.arity]), outs))
    return fns


def reference_columns(spec: Spec, fn: MultiOutputFunction) -> dict[str, tuple[int, ...]]:
    """Output name -> expected column in lexicographic row order."""
    if spec.kind == "builtin":
        return {out.name: tuple(int(v) for v in out.values) for out in fn.outputs}
    cols = {}
    for out in spec.outputs:
        if out.kind == "affine":
            cols[out.name] = _affine_column(spec.arity, *out.data)
        else:
            cols[out.name] = out.data
    return cols
