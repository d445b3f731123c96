"""Acceptance gate: ten criteria, one verdict line each.

Run under pytest as ordinary tests, or standalone with
`python3 tests/test_acceptance.py` to see the ten verdict lines on
stdout regardless of capture settings.
"""

import itertools
import random
import sys

from tritsynth.bench import CERTIFIED, REFERENCE, rows_to_json, run_benchmarks
from tritsynth.core import TRITS, ProjFamily, Trit, proj, t_and, t_not, t_or
from tritsynth.core import (
    ALL_SHIFTS,
    BUFFER,
    gf3_add,
    gf3_mul,
)
from tritsynth.expr import Fused, Pair, expr_equiv, minterm_extract
from tritsynth.gates import C2NOT, Netlist
from tritsynth.sim import exhaustive_check, simulate
from tritsynth.synth import max_ancilla, synth
from tritsynth.simplify import simplify
from tritsynth.truthtables import all_inputs, builtin, list_builtins

L = ProjFamily.L
J = ProjFamily.J


def _verdict(number, description, problems):
    ok = not problems
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    for p in problems:
        print(f"    {p}")
    assert ok, f"criterion {number} ({description}): {problems[:3]}"


# 1. The four projection families against their frozen value tables.

_L_TABLE = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
_J_TABLE = ((2, 0, 0), (0, 2, 0), (0, 0, 2))
_LP_TABLE = ((0, 1, 1), (1, 0, 1), (1, 1, 0))
_JP_TABLE = ((0, 2, 2), (2, 0, 2), (2, 2, 0))


def test_acceptance_1():
    problems = []
    tables = {
        ProjFamily.L: _L_TABLE,
        ProjFamily.J: _J_TABLE,
        ProjFamily.L_PRIME: _LP_TABLE,
        ProjFamily.J_PRIME: _JP_TABLE,
    }
    checks = 0
    for fam, table in tables.items():
        for i, a in itertools.product(TRITS, repeat=2):
            checks += 1
            got = proj(fam, i, a)
            if got != table[i][a]:
                problems.append(f"{fam}{i}({a}) = {got}, table says {table[i][a]}")
    if checks != 36:
        problems.append(f"expected 36 table entries, checked {checks}")
    _verdict(1, "projection families match their value tables", problems)


# 2. Algebraic structure of the scalar operations and the shifts.

def test_acceptance_2():
    problems = []
    for a, b, c in itertools.product(TRITS, repeat=3):
        if t_and(a, b) != t_and(b, a) or t_or(a, b) != t_or(b, a):
            problems.append(f"commutativity broken at {a},{b}")
        if t_and(a, t_and(b, c)) != t_and(t_and(a, b), c):
            problems.append(f"AND associativity broken at {a},{b},{c}")
        if t_or(a, t_or(b, c)) != t_or(t_or(a, b), c):
            problems.append(f"OR associativity broken at {a},{b},{c}")
        if t_and(a, t_or(a, b)) != a or t_or(a, t_and(a, b)) != a:
            problems.append(f"absorption broken at {a},{b}")
        if t_and(a, t_or(b, c)) != t_or(t_and(a, b), t_and(a, c)):
            problems.append(f"distributivity broken at {a},{b},{c}")
        if gf3_add(a, gf3_add(b, c)) != gf3_add(gf3_add(a, b), c):
            problems.append(f"mod-3 addition associativity broken at {a},{b},{c}")
        if gf3_mul(a, gf3_add(b, c)) != gf3_add(gf3_mul(a, b), gf3_mul(a, c)):
            problems.append(f"field distributivity broken at {a},{b},{c}")
    for a in TRITS:
        if t_and(a, a) != a or t_or(a, a) != a:
            problems.append(f"idempotence broken at {a}")
        if t_and(a, Trit(2)) != a or t_or(a, Trit(0)) != a:
            problems.append(f"lattice identities broken at {a}")
        if t_not(a) == a:
            problems.append(f"inversion has a fixed point at {a}")
        if t_not(t_not(a)) == a:
            problems.append(f"inversion is an involution at {a} but must have period 3")
        if t_not(t_not(t_not(a))) != a:
            problems.append(f"inversion does not have period 3 at {a}")

    perms = {tuple(s.apply(x) for x in TRITS) for s in ALL_SHIFTS}
    if len(perms) != 6:
        problems.append(f"expected 6 distinct shift permutations, got {len(perms)}")
    for s, t in itertools.product(ALL_SHIFTS, repeat=2):
        if s.compose(t) not in ALL_SHIFTS:
            problems.append(f"composition {s.name} after {t.name} leaves the set")
    for s in ALL_SHIFTS:
        if s.inverse() not in ALL_SHIFTS:
            problems.append(f"inverse of {s.name} leaves the set")
        if s.compose(s.inverse()) != BUFFER:
            problems.append(f"{s.name} composed with its inverse is not the identity")
    if all(
        s.compose(t) == t.compose(s)
        for s, t in itertools.product(ALL_SHIFTS, repeat=2)
    ):
        problems.append("shift group unexpectedly abelian")
    _verdict(2, "lattice, mod-3, and shift-group laws hold", problems)


# 3. Every rewrite rule restated as a pointwise value identity.

def test_acceptance_3():
    problems = []

    def chk(cond, msg):
        if not cond:
            problems.append(msg)

    for fam in (L, J):
        prime = fam.complement
        active = int(fam.active_value)
        for i, a in itertools.product(TRITS, repeat=2):
            p, q = int(proj(fam, i, a)), int(proj(prime, i, a))
            chk(min(p, 0) == 0, f"rule 1 at {fam}{i}({a})")
            chk(min(p, active) == p, f"rule 2 at {fam}{i}({a})")
            chk(max(p, 0) == p, f"rule 3 at {fam}{i}({a})")
            chk(max(p, active) == active, f"rule 4 at {fam}{i}({a})")
            chk(min(p, q) == 0, f"rule 5 at {fam}{i}({a})")
            chk(max(p, q) == active, f"rule 6 at {fam}{i}({a})")
            up, upp = (int(i) + 1) % 3, (int(i) + 2) % 3
            chk(
                q == max(int(proj(fam, up, a)), int(proj(fam, upp, a))),
                f"rule 7 at {fam}{i}({a})",
            )
            chk(min(p, p) == p, f"rule 9 at {fam}{i}({a})")

    # Rule 8, 1-valued case: the crossed pair equals a controlled bump
    # landing on a zero target.
    gate = C2NOT("u", "v", "t")
    for u, v in itertools.product(TRITS, repeat=2):
        state = {"u": u, "v": v, "t": Trit(0)}
        gate.apply(state)
        crossed = max(
            min(int(proj(L, 1, u)), int(proj(L, 2, v))),
            min(int(proj(L, 2, u)), int(proj(L, 1, v))),
        )
        chk(int(state["t"]) == crossed, f"rule 8 (1-valued) at {u},{v}")
        chk(
            Pair(L, 0, 1).value((u, v)) == crossed,
            f"pair factor (1-valued) at {u},{v}",
        )
        # 2-valued case: two bumps on a zero target.
        state = {"u": u, "v": v, "t": Trit(0)}
        gate.apply(state)
        gate.apply(state)
        crossed_j = max(
            min(int(proj(J, 1, u)), int(proj(J, 2, v))),
            min(int(proj(J, 2, u)), int(proj(J, 1, v))),
        )
        chk(int(state["t"]) == crossed_j, f"rule 8 (2-valued) at {u},{v}")
        chk(
            Pair(J, 0, 1).value((u, v)) == crossed_j,
            f"pair factor (2-valued) at {u},{v}",
        )
        # The same bump pair starting from a 1 target is a genuinely
        # different function; the 2-valued pair is defined off the zero
        # baseline and this must stay visible.
        state = {"u": u, "v": v, "t": Trit(1)}
        gate.apply(state)
        gate.apply(state)
        if (int(u), int(v)) not in ((1, 2), (2, 1)):
            chk(
                int(state["t"]) != crossed_j or crossed_j == 1,
                f"1-seeded variant coincides at {u},{v}",
            )

    for fam in (L, J):
        for i in TRITS:
            for row in all_inputs(2):
                sep = min(int(proj(fam, i, row[0])), int(proj(fam, i, row[1])))
                chk(
                    sep == Fused(fam, i, (0, 1)).value(row),
                    f"rule 10 at {fam}{i}{row}",
                )
    _verdict(3, "all ten rewrite rules hold as value identities", problems)


# 4. Every builtin synthesizes to a netlist that matches it everywhere.

def test_acceptance_4():
    problems = []
    for name in list_builtins():
        fn = builtin(name)
        try:
            rep = synth(fn)
        except Exception as exc:
            problems.append(f"{name}: synthesis raised {exc!r}")
            continue
        res = exhaustive_check(rep.netlist, fn)
        if not res.ok:
            problems.append(f"{name}: {res.message()}")
    _verdict(4, "every builtin circuit verifies on all assignments", problems)


# 5. Closed-form costs of the scaling families and the two-trit multiplier.

def test_acceptance_5():
    problems = []
    for n, want in zip(range(2, 8), (4, 8, 12, 16, 20, 24)):
        rep = synth(builtin(f"sum{n}"))
        if rep.cost != want or rep.reduced_ancilla != 0:
            problems.append(
                f"sum{n}: cost {rep.cost} ancillae {rep.reduced_ancilla}, "
                f"wanted {want} and 0"
            )
    for n, want_cost, want_anc in zip(
        range(2, 8), (18, 36, 54, 72, 90, 108), (3, 6, 9, 12, 15, 18)
    ):
        rep = synth(builtin(f"prod{n}"))
        if rep.cost != want_cost or rep.reduced_ancilla != want_anc:
            problems.append(
                f"prod{n}: cost {rep.cost} ancillae {rep.reduced_ancilla}, "
                f"wanted {want_cost} and {want_anc}"
            )
    rep = synth(builtin("mul2"))
    if rep.cost != 23:
        problems.append(f"mul2 cost {rep.cost}, wanted 23")
    if rep.reduced_ancilla != 4:
        problems.append(f"mul2 ancillae {rep.reduced_ancilla}, wanted 4")
    _verdict(5, "family cost formulas and multiplier figures reproduce", problems)


# 6. Worst-case ancilla bounds against the reference column.

def test_acceptance_6():
    problems = []
    must_match = {
        "sum2": 12,
        "prod2": 8,
        "mul2": 10,
        "avg2": 12,
        "sqsum2": 16,
        "sqsum3": 54,
        "sum7": 10206,
    }
    for name, want in must_match.items():
        got = max_ancilla(builtin(name))
        if got != want:
            problems.append(f"{name}: bound {got}, reference {want}")
        if REFERENCE[name][0] != want:
            problems.append(f"{name}: reference table drifted")
    _verdict(6, "worst-case ancilla bounds match the reference column", problems)


# 7. The worked two-variable example: reduced form and circuit output.

def test_acceptance_7():
    problems = []
    fn = builtin("g_example")
    reduced, _ = simplify(minterm_extract(fn.outputs[0]))
    golden = {
        "L0(a)L1(b)",
        "L1(a)L0(b)",
        "L1(a,b)",
        "PairL(a,b)",
        "J0(a)J2(b)",
        "J2(a)J0(b)",
        "J2(a,b)",
    }
    got = [t.render(("a", "b")) for t in reduced.terms]
    if sorted(got) != sorted(golden):
        problems.append(f"reduced terms {got} differ from the expected multiset")
    ok, cx = expr_equiv(reduced, fn.outputs[0])
    if not ok:
        problems.append(f"reduced expression differs from the table at {cx}")
    rep = synth(fn)
    column = "".join(
        str(int(simulate(rep.netlist, row).outputs["g_example"]))
        for row in all_inputs(2)
    )
    if column != "012111212":
        problems.append(f"circuit column {column}, wanted 012111212")
    _verdict(7, "worked example reduces and simulates to its column", problems)


# 8. Open benchmark rows carry both numbers and an honest match flag.

def test_acceptance_8():
    problems = []
    rows = {r.name: r for r in run_benchmarks()}
    open_rows = set(REFERENCE) - CERTIFIED
    if open_rows != {"mul3", "thadd", "tfadd", "avg2", "avg3", "sqsum2", "sqsum3"}:
        problems.append(f"unexpected open row set {sorted(open_rows)}")
    for name in open_rows:
        r = rows[name]
        if r.reference_match != "not-certified":
            problems.append(f"{name}: match flag {r.reference_match!r}")
        if r.ref_cost != REFERENCE[name][2] or r.ref_max_ancilla != REFERENCE[name][0]:
            problems.append(f"{name}: reference columns not carried through")
        if not r.verified:
            problems.append(f"{name}: circuit did not verify")
    for name in CERTIFIED:
        if rows[name].reference_match != "yes":
            problems.append(f"{name}: certified row does not match its reference")
    _verdict(8, "open rows report computed and reference figures honestly", problems)


# 9. Randomized reduction: meaning preserved, step count bounded.

def test_acceptance_9():
    problems = []
    sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
    try:
        from conftest import make_random_expr
    finally:
        sys.path.pop(0)
    rng = random.Random(31119)
    count = 0
    for k in range(1000):
        arity = 1 + k % 4
        e = make_random_expr(rng, arity)
        bound = len(e.terms) + e.total_factors()
        reduced, trace = simplify(e)
        count += 1
        if len(trace.steps) > bound:
            problems.append(
                f"expr #{k}: {len(trace.steps)} steps exceeds bound {bound}"
            )
        ok, cx = expr_equiv(reduced, e.table())
        if not ok:
            problems.append(f"expr #{k}: meaning changed at {cx}: {e.render()}")
        if len(problems) > 5:
            break
    if count < 1000:
        problems.append(f"only {count} expressions checked")
    _verdict(9, "1000 random expressions reduce soundly within bounds", problems)


# 10. Benchmark JSON output is byte-identical across runs.

def test_acceptance_10():
    problems = []
    first = rows_to_json(run_benchmarks())
    second = rows_to_json(run_benchmarks())
    if first != second:
        problems.append("two benchmark runs produced different JSON bytes")
    if not first.endswith("\n"):
        problems.append("JSON output is not newline-terminated")
    _verdict(10, "benchmark JSON is deterministic", problems)


def main():
    failures = 0
    for n in range(1, 11):
        fn = globals()[f"test_acceptance_{n}"]
        try:
            fn()
        except AssertionError:
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
