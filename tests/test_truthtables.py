"""Tests for truth tables, the builtin catalog, and the text format.

The expected output columns are frozen here as strings (rows in lex order,
first variable most significant) so the builders are checked against fixed
reference data rather than against their own defining formulas.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritsynth.core import TRITS, Trit
from tritsynth.truthtables import (
    MultiOutputFunction,
    TernaryFunction,
    TruthTableFormatError,
    all_inputs,
    builtin,
    default_var_names,
    first_difference,
    format_truth_table,
    lex_index,
    linear_detect,
    list_builtins,
    monomial_detect,
    parse_truth_table,
)

# 2-variable reference columns.
EXPECTED_2VAR = {
    ("g_example", "g_example"): "012111212",
    ("mul2", "mul2"): "000012021",
    ("mul2", "mul2c"): "000000001",
    ("thadd", "sumh"): "012120201",
    ("thadd", "carryh"): "000001011",
    ("sqsum2", "sqsum2"): "011122122",
    ("avg2", "avg2"): "001011112",
}

# 3-variable reference columns.
EXPECTED_3VAR = {
    ("mul3", "mul3"): "000000000000012021000021012",
    ("mul3", "mul3c"): "000000000000000001000001012",
    ("a2bcc", "a2bcc"): "012021000120101111120102111",
    ("avg3", "avg3"): "000001011001011111011111112",
    ("sqsum3", "sqsum3"): "011122122122200200122200200",
    ("tfadd", "sum"): "012120201120201012201012120",
    ("tfadd", "carry"): "000001011001011111011111112",
}


@pytest.mark.parametrize("key,expected", sorted(EXPECTED_2VAR.items()))
def test_two_variable_columns(key, expected):
    fn_name, out_name = key
    assert builtin(fn_name).output(out_name).column() == expected


@pytest.mark.parametrize("key,expected", sorted(EXPECTED_3VAR.items()))
def test_three_variable_columns(key, expected):
    fn_name, out_name = key
    assert builtin(fn_name).output(out_name).column() == expected


def test_tfadd_carry_equals_avg3_column():
    # floor((a+b+c)/3) never reaches 3, so carry and avg3 coincide.
    assert builtin("tfadd").output("carry").column() == builtin("avg3").output("avg3").column()


def test_a2bcc_differs_from_closed_form_only_at_112():
    fn = builtin("a2bcc").output("a2bcc")
    mismatches = [
        row
        for row in all_inputs(3)
        if fn.eval(row) != (row[0] ** 2 + row[1] * row[2] + row[2]) % 3
    ]
    assert mismatches == [(1, 1, 2)]
    assert fn.eval((Trit(1), Trit(1), Trit(2))) == 1


def test_avg3_matches_floor_average_everywhere():
    fn = builtin("avg3").output("avg3")
    for row in all_inputs(3):
        assert fn.eval(row) == sum(row) // 3


def test_avg2_matches_floor_average():
    fn = builtin("avg2").output("avg2")
    for a, b in all_inputs(2):
        assert fn.eval((a, b)) == (a + b) // 2


def test_sum_and_prod_families():
    for n in range(2, 8):
        s = builtin(f"sum{n}").outputs[0]
        p = builtin(f"prod{n}").outputs[0]
        assert s.arity == p.arity == n
        for row in itertools.islice(all_inputs(n), 0, 3**n, max(1, 3 ** (n - 3))):
            assert s.eval(row) == sum(row) % 3
            acc = 1
            for x in row:
                acc = acc * x % 3
            assert p.eval(row) == acc


def test_builtin_accepts_underscore_spelling():
    assert builtin("sum_4").name == "sum4"
    assert builtin("prod_2").name == "prod2"


def test_builtin_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin("nope")


def test_list_builtins_contents():
    names = list_builtins()
    for expected in ("g_example", "mul2", "mul3", "thadd", "tfadd", "sqsum2",
                     "sqsum3", "avg2", "avg3", "a2bcc", "sum2", "sum7",
                     "prod2", "prod7"):
        assert expected in names


def test_lex_index_first_variable_most_significant():
    assert lex_index((0, 0)) == 0
    assert lex_index((0, 1)) == 1
    assert lex_index((1, 0)) == 3
    assert lex_index((2, 1)) == 7
    assert lex_index((1, 0, 2)) == 11


def test_eval_matches_column_order():
    fn = builtin("mul2").output("mul2")
    assert fn.eval((Trit(1), Trit(2))) == 2
    assert fn.eval((Trit(2), Trit(2))) == 1
    rows = list(all_inputs(2))
    assert [fn.eval(r) for r in rows] == list(fn.values)


def test_function_validation():
    with pytest.raises(ValueError, match="table entries"):
        TernaryFunction("bad", 2, tuple(TRITS[0] for _ in range(8)))
    with pytest.raises(ValueError, match="arity"):
        TernaryFunction("bad", 0, ())
    with pytest.raises(ValueError, match="arity must be >= 1, got 0"):
        all_inputs(0)
    with pytest.raises(ValueError, match="bad table column for 'f': invalid literal"):
        TernaryFunction.from_string("f", 1, "01x")
    with pytest.raises(ValueError, match="bad table column for 'f': trit value"):
        TernaryFunction.from_string("f", 1, "013")
    fn = TernaryFunction.from_string("f", 1, "012")
    with pytest.raises(ValueError, match="takes 1 inputs"):
        fn.eval((TRITS[0], TRITS[1]))
    with pytest.raises(ValueError, match="trit value"):
        TernaryFunction.from_callable("bad", 1, lambda a: a + 1)
    assert TernaryFunction.from_callable("f", 1, lambda a: a).values == (0, 1, 2)


def _columns_with_bumps(arity):
    """A random column and a copy with some rows moved to another value."""
    column = st.lists(st.integers(0, 2), min_size=3**arity, max_size=3**arity)
    bumps = st.dictionaries(st.integers(0, 3**arity - 1), st.integers(1, 2), max_size=3)
    return st.tuples(st.just(arity), column, bumps)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(_columns_with_bumps))
def test_first_difference_is_the_first_differing_row(case):
    arity, column, bumps = case
    other = [(v + bumps.get(i, 0)) % 3 for i, v in enumerate(column)]
    a = TernaryFunction("a", arity, tuple(column))
    b = TernaryFunction("b", arity, tuple(other))
    want = next((row for row in all_inputs(arity) if a.eval(row) != b.eval(row)), None)
    assert first_difference(arity, a.values, b.values) == want
    if bumps:
        assert lex_index(want) == min(bumps)


def test_first_difference_row_order_and_lengths():
    assert first_difference(2, (0,) * 9, (0,) * 7 + (1, 0)) == (2, 1)
    assert first_difference(3, (0,) * 27, (0,) * 11 + (2,) + (0,) * 15) == (1, 0, 2)
    assert first_difference(1, (0, 1, 2), (0, 1, 2)) is None
    with pytest.raises(ValueError):
        first_difference(2, (0,) * 9, (0,) * 8)


def test_multi_output_validation():
    f1 = TernaryFunction.from_string("x", 1, "012")
    f2 = TernaryFunction.from_string("y", 2, "0" * 9)
    with pytest.raises(ValueError, match="arity"):
        MultiOutputFunction("bad", 1, ("a",), (f1, f2))
    with pytest.raises(ValueError, match="output names"):
        MultiOutputFunction("bad", 1, ("a",), (f1, f1))
    with pytest.raises(ValueError, match="no outputs"):
        MultiOutputFunction("bad", 1, ("a",), ())
    with pytest.raises(ValueError, match="'bad': 1 variables but 2 names"):
        MultiOutputFunction("bad", 1, ("a", "b"), (f1,))
    with pytest.raises(ValueError, match="'bad': variable names must be distinct"):
        MultiOutputFunction("bad", 2, ("a", "a"), (f2,))
    with pytest.raises(KeyError, match="function 'mul2' has no output 'zz'"):
        builtin("mul2").output("zz")


def test_multi_output_eval_reads_every_output():
    fn = builtin("mul2")
    for row in all_inputs(2):
        a, b = row
        assert fn.eval(row) == {"mul2": (a * b) % 3, "mul2c": (a * b) // 3}


def test_default_var_names_switch_to_indexed_names_past_z():
    assert default_var_names(26)[-1] == "z"
    assert default_var_names(27) == tuple(f"x{i}" for i in range(27))


# linear_detect: brute-force oracle over all 27 affine candidates for arity 2.
def _affine_oracle(fn):
    for c in TRITS:
        for lam in itertools.product(TRITS, repeat=fn.arity):
            if all(
                fn.eval(row) == (c + sum(l * x for l, x in zip(lam, row))) % 3
                for row in all_inputs(fn.arity)
            ):
                return c, lam
    return None


def test_linear_detect_on_half_adder_sum():
    got = linear_detect(builtin("thadd").output("sumh"))
    assert got == (0, (1, 1))
    assert got == _affine_oracle(builtin("thadd").output("sumh"))


def test_linear_detect_agrees_with_brute_force_on_all_2var_builtins():
    for name in ("g_example", "mul2", "thadd", "sqsum2", "avg2"):
        for out in builtin(name).outputs:
            assert linear_detect(out) == _affine_oracle(out), out.name


def test_linear_detect_sum4():
    got = linear_detect(builtin("sum4").outputs[0])
    assert got == (0, (1, 1, 1, 1))


def test_linear_detect_rejects_products_and_carries():
    assert linear_detect(builtin("mul2").output("mul2")) is None
    assert linear_detect(builtin("thadd").output("carryh")) is None
    assert linear_detect(builtin("avg2").output("avg2")) is None


def test_linear_detect_general_affine():
    fn = TernaryFunction.from_callable("aff", 3, lambda a, b, c: (2 + 2 * a + c) % 3)
    assert linear_detect(fn) == (2, (2, 0, 1))


def test_linear_detect_constant_function():
    fn = TernaryFunction.from_callable("two", 2, lambda a, b: 2)
    assert linear_detect(fn) == (2, (0, 0))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.lists(st.integers(0, 2), min_size=m + 1, max_size=m + 1),
            st.integers(0, 3**m - 1),
            st.integers(0, 2),
        )
    )
)
def test_linear_detect_agrees_with_oracle_on_affine_tables_off_by_up_to_one_row(case):
    arity, (c, *lam), row, bump = case
    values = [(c + sum(l * x for l, x in zip(lam, r))) % 3 for r in all_inputs(arity)]
    values[row] = (values[row] + bump) % 3
    fn = TernaryFunction("aff", arity, tuple(values))
    assert linear_detect(fn) == _affine_oracle(fn)


# monomial_detect: brute-force oracle over every support of size >= 2.
def _monomial_oracle(fn):
    for size in range(2, fn.arity + 1):
        for support in itertools.combinations(range(fn.arity), size):
            if all(
                fn.eval(row) == _product(row, support) for row in all_inputs(fn.arity)
            ):
                return support
    return None


def _product(row, support):
    acc = 1
    for i in support:
        acc *= row[i]
    return acc % 3


def _product_table(arity, support):
    return TernaryFunction.from_callable("p", arity, lambda *xs: _product(xs, support))


def test_monomial_detect_on_catalog():
    assert monomial_detect(builtin("prod5").outputs[0]) == (0, 1, 2, 3, 4)
    assert monomial_detect(builtin("mul3").output("mul3")) == (0, 1, 2)
    assert monomial_detect(builtin("mul2").output("mul2")) == (0, 1)
    for name in ("sum3", "avg3", "a2bcc", "sqsum3", "g_example"):
        for out in builtin(name).outputs:
            assert monomial_detect(out) is None, out.name
    assert monomial_detect(builtin("mul3").output("mul3c")) is None


def test_monomial_detect_rejects_single_inputs_and_scaled_products():
    assert monomial_detect(_product_table(3, (1,))) is None
    scaled = TernaryFunction.from_callable("s", 2, lambda a, b: (2 * a * b) % 3)
    assert monomial_detect(scaled) is None


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda m: st.tuples(st.just(m), st.sets(st.integers(0, m - 1)))))
def test_monomial_detect_agrees_with_oracle_on_random_supports(case):
    arity, support = case
    fn = _product_table(arity, tuple(sorted(support)))
    want = tuple(sorted(support)) if len(support) >= 2 else None
    assert monomial_detect(fn) == _monomial_oracle(fn) == want


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda m: st.tuples(st.just(m), st.lists(st.sampled_from((0, 1, 2)), min_size=3**m, max_size=3**m))
    )
)
def test_monomial_detect_agrees_with_oracle_on_random_tables(case):
    arity, values = case
    fn = TernaryFunction("r", arity, tuple(values))
    assert monomial_detect(fn) == _monomial_oracle(fn)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(0, 1), (0, 2), (1, 2), (0, 1, 2)]), st.integers(0, 26), st.integers(1, 2))
def test_monomial_detect_rejects_products_off_by_one_row(support, row, bump):
    values = list(_product_table(3, support).values)
    values[row] = (values[row] + bump) % 3
    fn = TernaryFunction("r", 3, tuple(values))
    assert monomial_detect(fn) == _monomial_oracle(fn)


def test_text_format_round_trip():
    for name in ("mul2", "thadd", "avg3", "sum5"):
        fn = builtin(name)
        text = format_truth_table(fn)
        back = parse_truth_table(text, name=fn.name)
        assert back.arity == fn.arity
        assert back.var_names == fn.var_names
        assert [o.column() for o in back.outputs] == [o.column() for o in fn.outputs]


def test_text_format_layout():
    text = format_truth_table(builtin("g_example"))
    assert text == "vars a b\noutputs 1\n012111212\n"


def test_parse_errors_carry_line_numbers():
    with pytest.raises(TruthTableFormatError) as exc:
        parse_truth_table("bogus a b\noutputs 1\n012111212")
    assert exc.value.line == 1

    with pytest.raises(TruthTableFormatError) as exc:
        parse_truth_table("vars a b\noutputs one\n012111212")
    assert exc.value.line == 2

    with pytest.raises(TruthTableFormatError) as exc:
        parse_truth_table("vars a b\noutputs 1\n0121")
    assert exc.value.line == 3

    with pytest.raises(TruthTableFormatError) as exc:
        parse_truth_table("vars a b\noutputs 1\n012111213")
    assert exc.value.line == 3

    with pytest.raises(TruthTableFormatError):
        parse_truth_table("")


def test_parse_rejects_wrong_column_count():
    with pytest.raises(TruthTableFormatError, match="declared 2 outputs"):
        parse_truth_table("vars a b\noutputs 2\n012111212")


def test_nonzero_rows():
    assert builtin("mul2").output("mul2").nonzero_rows() == 4
    assert builtin("mul2").output("mul2c").nonzero_rows() == 1
    assert builtin("sum7").outputs[0].nonzero_rows() == 1458
