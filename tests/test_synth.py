"""Synthesis pipeline: numbers, structure, and end-to-end correctness."""

import hashlib
import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritsynth.core import ProjFamily, Trit
from tritsynth.expr import Const, Expr, Proj, make_term, minterm_extract
from tritsynth.gates import PAPER_COST, Feynman, Netlist
from tritsynth.sim import VerificationError, exhaustive_check, simulate
from tritsynth.synth import (
    SynthOptions,
    SynthReport,
    max_ancilla,
    synth,
)
from tritsynth.simplify import simplify
from tritsynth.truthtables import (
    MultiOutputFunction,
    TernaryFunction,
    all_inputs,
    as_multi_output,
    builtin,
    default_var_names,
    linear_detect,
    list_builtins,
)

from conftest import make_random_expr

synth_module = importlib.import_module("tritsynth.synth")


def _kinds(nl):
    return [g.kind for g in nl.gates]


def test_every_builtin_synthesizes_and_verifies():
    for name in list_builtins():
        rep = synth(builtin(name))
        assert rep.verified, name
        assert rep.reduced_ancilla == rep.netlist.ancilla_count


def test_catalog_netlists_and_traces_are_pinned():
    # One digest over every catalog netlist's JSON and every rendered rewrite
    # trace, under both combine modes.  A deliberate change to either moves
    # this pin and is explained where it is made.
    h = hashlib.sha256()
    for name in list_builtins():
        fn = builtin(name)
        for combine in ("max", "shared"):
            rep = synth(fn, SynthOptions(combine=combine))
            h.update(f"{name} {combine}\n{rep.netlist.to_json()}\n".encode())
            for out, trace in rep.traces.items():
                initial = minterm_extract(fn.output(out))
                h.update(f"{out}\n{trace.render(initial, fn.var_names)}\n".encode())
    assert h.hexdigest() == "5e8cb8653a8084d115063d3191f82382a4d6ef6dc65798415aa6bfd7f5e3f74b"


def test_max_ancilla_values():
    expected = {
        "sum2": 12, "sum3": 54, "sum4": 216, "sum5": 810, "sum6": 2916,
        "sum7": 10206, "prod2": 8, "prod3": 24, "prod4": 64, "prod5": 160,
        "prod6": 384, "prod7": 896, "mul2": 10, "mul3": 36, "thadd": 18,
        "tfadd": 105, "avg2": 12, "avg3": 51, "sqsum2": 16, "sqsum3": 54,
        "g_example": 16,
    }
    for name, want in expected.items():
        assert max_ancilla(builtin(name)) == want, name


def test_mul2_headline_numbers():
    rep = synth(builtin("mul2"))
    assert rep.cost == 23
    assert rep.reduced_ancilla == 4
    assert rep.max_ancilla == 10
    # Without the crossed-pair discount the two C2NOTs price separately.
    assert rep.cost_honest == 31


def test_thadd_structure_and_numbers():
    rep = synth(builtin("thadd"))
    assert rep.cost == 17
    assert rep.reduced_ancilla == 2
    assert rep.paths == {"sumh": "linear", "carryh": "sum-of-products"}
    # Carry gates run first and only read the inputs; the sum then
    # accumulates in place on wire a.
    assert _kinds(rep.netlist) == ["c2not", "multigtg", "max", "feynman"]
    assert rep.netlist.outputs["sumh"] == "a"
    assert list(rep.netlist.outputs) == ["sumh", "carryh"]


def test_tfadd_sum_reads_inputs_before_corruption():
    rep = synth(builtin("tfadd"))
    assert rep.paths["sum"] == "linear"
    assert rep.netlist.outputs["sum"] == "a"
    feynmans = [g for g in rep.netlist.gates if isinstance(g, Feynman)]
    assert [(g.control, g.target) for g in feynmans] == [("b", "a"), ("c", "a")]
    # Every carry gate precedes the first in-place write.
    first_feynman = rep.netlist.gates.index(feynmans[0])
    assert all(not isinstance(g, Feynman) for g in rep.netlist.gates[:first_feynman])


def test_g_example_circuit_numbers():
    rep = synth(builtin("g_example"))
    assert rep.cost == 58
    assert rep.reduced_ancilla == 15
    got = "".join(
        str(int(simulate(rep.netlist, (a, b)).outputs["g_example"]))
        for a in range(3) for b in range(3)
    )
    assert got == "012111212"


def test_avg2_and_sqsum2_numbers():
    rep = synth(builtin("avg2"))
    assert (rep.cost, rep.reduced_ancilla) == (38, 9)
    rep = synth(builtin("sqsum2"))
    assert (rep.cost, rep.reduced_ancilla) == (48, 9)
    # Two primed literals, each mapped as a gate pair.
    kinds = _kinds(rep.netlist)
    assert kinds.count("multigtg") == 8
    assert kinds.count("c2not") == 2
    assert kinds.count("min") == 2
    assert kinds.count("max") == 4


def test_sum_chain_builder_family():
    for n, cost in zip(range(2, 8), (4, 8, 12, 16, 20, 24)):
        rep = synth(builtin(f"sum{n}"))
        assert rep.verified
        assert rep.cost == cost
        assert rep.reduced_ancilla == 0
        assert rep.depth == n - 1
        assert _kinds(rep.netlist) == ["feynman"] * (n - 1)
        assert rep.paths == {f"sum{n}": "linear"}


def test_prod_block_builder_family():
    for n, cost, anc in zip(range(2, 8), (18, 36, 54, 72, 90, 108), (3, 6, 9, 12, 15, 18)):
        rep = synth(builtin(f"prod{n}"))
        assert rep.verified
        assert rep.cost == cost
        assert rep.reduced_ancilla == anc
        assert rep.paths == {f"prod{n}": "sum-of-products" if n == 2 else "blocks"}


def test_prod_tree_is_balanced():
    # Four inputs pair off before the results combine, so the two leaf
    # blocks overlap in time and depth stays at two block heights.
    assert synth(builtin("prod4")).depth == synth(builtin("prod2")).depth * 2


def _generic_sop(fn):
    """The sum-of-products emission of every output, bypassing the
    product route: the oracle the product tree is measured against."""
    nl = Netlist(input_names=tuple(fn.var_names))
    for out in fn.outputs:
        reduced, _ = simplify(minterm_extract(out))
        nl.outputs[out.name] = synth_module._emit_expr_max(nl, reduced, fn.var_names)
    assert exhaustive_check(nl, fn).ok
    return nl


def test_mul3_builder_numbers():
    rep = synth(builtin("mul3"))
    assert rep.verified
    assert rep.cost == 64
    assert rep.reduced_ancilla == 13
    assert rep.max_ancilla == 36
    assert rep.paths == {"mul3": "blocks", "mul3c": "sum-of-products"}
    # The cascaded block form beats the generic pipeline.
    generic = PAPER_COST.netlist_cost(_generic_sop(builtin("mul3")))
    assert generic == 84
    assert rep.cost < generic


def test_product_node_is_the_reduced_prod2_expression():
    reduced, _ = simplify(minterm_extract(builtin("prod2").outputs[0]))
    assert synth_module._PRODUCT_NODE == reduced


def _subset_product(arity, support):
    def f(*xs):
        acc = 1
        for i in support:
            acc *= xs[i]
        return acc % 3

    return TernaryFunction.from_callable("p", arity, f)


@pytest.mark.parametrize("combine", ["max", "shared"])
def test_product_tree_verifies_and_beats_generic(combine):
    fns = [builtin(f"prod{n}") for n in (3, 4, 5)]
    fns.append(as_multi_output(_subset_product(4, (0, 2, 3))))  # a*c*d
    for fn in fns:
        rep = synth(fn, SynthOptions(combine=combine))
        assert rep.verified, fn.name
        assert set(rep.paths.values()) == {"blocks"}
        assert exhaustive_check(rep.netlist, fn).ok
        assert rep.cost < PAPER_COST.netlist_cost(_generic_sop(fn)), fn.name


def test_subset_product_tree_reads_only_its_support():
    rep = synth(_subset_product(4, (0, 2, 3)))
    read = {w for g in rep.netlist.gates for w in g.wires()}
    assert "b" not in read
    assert rep.reduced_ancilla == 6  # two product nodes of three wires each


def test_sum_builder_agrees_with_generic_path():
    # The generic path emits exactly the Feynman chain onto the first
    # wire that a hand-built sum family would.
    for n in range(2, 8):
        chain = Netlist(input_names=default_var_names(n))
        for w in chain.input_names[1:]:
            chain.append(Feynman(w, "a"))
        chain.outputs[f"sum{n}"] = "a"
        assert synth(builtin(f"sum{n}")).netlist.to_json() == chain.to_json()


def test_linear_path_constant_offset_uses_unconditional_bump():
    fn = TernaryFunction.from_callable("inc2", 2, lambda a, b: (1 + a + b) % 3)
    rep = synth(fn)
    assert rep.paths == {"inc2": "linear"}
    assert rep.reduced_ancilla == 0
    kinds = _kinds(rep.netlist)
    assert kinds == ["feynman", "gtg"]
    bump = rep.netlist.gates[1]
    assert len({s for s in bump.shifts}) == 1  # same shift on every branch


def test_linear_path_doubled_coefficient_falls_back_to_ancilla():
    fn = TernaryFunction.from_callable("dbl", 1, lambda a: (2 + 2 * a) % 3)
    rep = synth(fn)
    assert rep.paths == {"dbl": "linear"}
    assert rep.reduced_ancilla == 1
    assert rep.netlist.ancilla_init == {"anc0": 2}
    assert _kinds(rep.netlist) == ["feynman", "feynman"]


def test_linear_path_single_var_bump_mints_dummy_control():
    fn = TernaryFunction.from_callable("inc", 1, lambda a: (a + 1) % 3)
    rep = synth(fn)
    assert rep.netlist.outputs["inc"] == "a"
    assert _kinds(rep.netlist) == ["gtg"]
    assert rep.reduced_ancilla == 1  # the control wire has to come from somewhere


def test_constant_output_is_an_initialized_ancilla():
    fn = TernaryFunction.from_callable("two", 1, lambda a: 2)
    rep = synth(fn)
    assert rep.cost == 0
    assert rep.netlist.gates == []
    assert rep.netlist.ancilla_init == {"anc0": 2}


def test_two_affine_outputs_share_inputs_without_clobbering():
    f1 = TernaryFunction.from_callable("s", 2, lambda a, b: (a + b) % 3)
    f2 = TernaryFunction.from_callable("t", 2, lambda a, b: (a + 2 * b) % 3)
    fn = MultiOutputFunction("pairsum", 2, default_var_names(2), (f1, f2))
    rep = synth(fn)
    assert rep.verified
    # The first output cannot claim a wire the second still reads.
    assert rep.netlist.outputs["s"] == "anc0"
    assert rep.netlist.outputs["t"] == "a"


def test_shared_accumulator_mode():
    rep = synth(builtin("prod2"), SynthOptions(combine="shared"))
    assert rep.verified
    assert rep.reduced_ancilla == 1
    assert rep.cost == 18
    assert rep.paths == {"prod2": "sum-of-products/shared"}
    rep = synth(builtin("mul2"), SynthOptions(combine="shared"))
    assert rep.reduced_ancilla == 2
    assert rep.cost == 23


def test_shared_mode_falls_back_on_multifactor_terms():
    rep = synth(builtin("g_example"), SynthOptions(combine="shared"))
    assert rep.paths == {"g_example": "sum-of-products"}
    assert rep.reduced_ancilla == 15


def test_shared_mode_falls_back_on_overlapping_terms():
    # max(a, b) keeps two-factor terms such as L0(a)L1(b), so shared mode
    # falls back to the collectors.
    fn = TernaryFunction.from_callable("or2", 2, lambda a, b: max(a, b))
    shared = synth(fn, SynthOptions(combine="shared"))
    default = synth(fn)
    assert shared.verified and default.verified
    assert shared.reduced_ancilla == default.reduced_ancilla
    assert shared.paths == {"or2": "sum-of-products"}
    # L'0(a) and J2(a) are single factors that both fire at a = 2.
    overlapping = Expr(
        (make_term([Proj(ProjFamily.L_PRIME, 0, 0)]), make_term([Proj(ProjFamily.J, 2, 0)])), 1
    )
    nl = Netlist(input_names=("a",))
    assert synth_module._emit_expr_shared(nl, overlapping, ("a",)) is None


def _fire_disjoint_pairwise(expr):
    """Reference for the shared-mode test: no two terms fire on one row."""
    firing = [
        frozenset(row for row in all_inputs(expr.arity) if t.value(row) != 0)
        for t in expr.terms
    ]
    return all(
        not (firing[i] & firing[j])
        for i in range(len(firing))
        for j in range(i + 1, len(firing))
    )


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 3), st.booleans())
def test_shared_mode_decision_agrees_with_pairwise_firing_sets(rng, arity, minterms):
    # Each term keeps only its first factor and constants are left out, so
    # the firing-set test alone decides.  Terms drawn from a table's
    # minterms, or their reduction, are disjoint more often than random ones.
    if minterms:
        values = tuple(rng.choice((0, 0, 1, 2)) for _ in range(3**arity))
        expr = minterm_extract(TernaryFunction("t", arity, values))
        expr = simplify(expr)[0] if rng.random() < 0.5 else expr
    else:
        expr = make_random_expr(rng, arity)
    singles = [t.factors[:1] for t in expr.terms if not isinstance(t.factors[0], Const)]
    expr = Expr(tuple(make_term(fs) for fs in singles), arity)
    if len(expr.terms) < 2:
        return
    names = default_var_names(arity)
    nl = Netlist(input_names=names)
    wire = synth_module._emit_expr_shared(nl, expr, names)
    assert (wire is not None) == _fire_disjoint_pairwise(expr)
    if wire is not None:
        nl.outputs["f"] = wire
        assert exhaustive_check(nl, expr.table("f")).ok


def test_report_carries_expressions_and_traces():
    rep = synth(builtin("mul2"))
    assert set(rep.expressions) == {"mul2", "mul2c"}
    assert set(rep.traces) == {"mul2", "mul2c"}
    assert rep.expressions["mul2"].render() == "L1(a,b) + L2(a,b) + PairJ(a,b)"
    assert rep.cost_model == "paper"


def test_strict_cost_model_option():
    rep = synth(builtin("mul2"), SynthOptions(cost_model="strict"))
    assert rep.cost_model == "strict"
    # 2 fused MultiGTGs at 5 per control + 2 C2NOTs + carry MultiGTG + 2 MAX.
    assert rep.cost == 10 + 10 + 16 + 10 + 10
    assert rep.cost > synth(builtin("mul2")).cost


def test_options_validation():
    with pytest.raises(ValueError, match="combine"):
        SynthOptions(combine="never")
    with pytest.raises(ValueError, match="cost model"):
        SynthOptions(cost_model="free")


def test_verify_false_skips_checking():
    rep = synth(builtin("mul2"), SynthOptions(verify=False))
    assert not rep.verified
    assert exhaustive_check(rep.netlist, builtin("mul2")).ok


def test_broken_emission_is_caught(monkeypatch):
    # Swap the firing shifts so every 1-valued factor writes a 2.
    from tritsynth.core import DUAL_SHIFT, SINGLE_SHIFT, ProjFamily

    monkeypatch.setattr(
        synth_module, "_FIRE", {ProjFamily.L: DUAL_SHIFT, ProjFamily.J: SINGLE_SHIFT}
    )
    for name in ("prod2", "prod3"):  # generic path and product tree
        with pytest.raises(VerificationError):
            synth(builtin(name))


def test_report_is_plain_dataclass():
    rep = synth(builtin("prod2"))
    assert isinstance(rep, SynthReport)
    assert rep.name == "prod2"
    assert rep.depth >= 1


def _random_tables(arity):
    column = st.lists(st.integers(0, 2), min_size=3**arity, max_size=3**arity)
    return st.lists(column, min_size=1, max_size=3).map(
        lambda cols: MultiOutputFunction(
            "fuzz",
            arity,
            default_var_names(arity),
            tuple(TernaryFunction(f"out{k}", arity, tuple(c)) for k, c in enumerate(cols)),
        )
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(_random_tables))
def test_random_tables_verify_in_both_modes_and_round_trip(fn):
    for combine in ("max", "shared"):
        rep = synth(fn, SynthOptions(combine=combine))
        assert rep.verified
        back = Netlist.from_json(rep.netlist.to_json())
        assert exhaustive_check(back, fn).ok


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(_random_tables))
def test_reduced_non_affine_outputs_have_terms_and_no_constant_factor(fn):
    # The emitters map only Proj, Fused and Pair factors and need at least
    # one term: constant outputs (0 included) are affine and never get here.
    for out in fn.outputs:
        if linear_detect(out) is not None:
            continue
        reduced, _ = simplify(minterm_extract(out))
        assert reduced.terms
        assert not any(isinstance(f, Const) for t in reduced.terms for f in t.factors)
