"""Benchmark rows, reference comparison, and output formats."""

import json

import pytest

from tritsynth.bench import (
    CERTIFIED,
    REFERENCE,
    BenchRow,
    render_table,
    rows_to_json,
    run_benchmarks,
)
from tritsynth.synth import SynthOptions


@pytest.fixture(scope="module")
def default_rows():
    """One default-options bench run shared by the read-only tests."""
    return run_benchmarks()


def test_row_order_and_count(default_rows):
    rows = default_rows
    names = [r.name for r in rows]
    assert names[:6] == ["sum2", "sum3", "sum4", "sum5", "sum6", "sum7"]
    assert names[6:12] == ["prod2", "prod3", "prod4", "prod5", "prod6", "prod7"]
    assert names[12:] == [
        "mul2", "mul3", "thadd", "tfadd", "avg2", "avg3",
        "sqsum2", "sqsum3", "g_example", "a2bcc",
    ]


def test_every_row_verifies(default_rows):
    assert all(r.verified for r in default_rows)


def test_certified_rows_match_reference(default_rows):
    rows = {r.name: r for r in default_rows}
    assert CERTIFIED == set(
        [f"sum{n}" for n in range(2, 8)] + [f"prod{n}" for n in range(2, 8)] + ["mul2"]
    )
    for name in CERTIFIED:
        r = rows[name]
        assert r.reference_match == "yes", name
        assert (r.max_ancilla, r.reduced_ancilla, r.cost) == REFERENCE[name][:3]


def test_uncertified_rows_carry_both_sets_of_numbers(default_rows):
    rows = {r.name: r for r in default_rows}
    open_rows = set(REFERENCE) - CERTIFIED
    assert open_rows == {"mul3", "thadd", "tfadd", "avg2", "avg3", "sqsum2", "sqsum3"}
    for name in open_rows:
        r = rows[name]
        assert r.reference_match == "not-certified", name
        assert r.ref_cost == REFERENCE[name][2]
        assert r.cost > 0
    for name in ("g_example", "a2bcc"):
        assert rows[name].reference_match == "no-reference"
        assert rows[name].ref_cost is None


def test_max_ancilla_column_against_reference(default_rows):
    rows = {r.name: r for r in default_rows}
    for name, ref in REFERENCE.items():
        if name == "tfadd":
            # The one row where the worst-case formula and the published
            # figure disagree; both numbers are reported as-is.
            assert rows[name].max_ancilla == 105
            assert rows[name].ref_max_ancilla == 63
        else:
            assert rows[name].max_ancilla == ref[0], name


def test_selected_reference_values():
    assert REFERENCE["sum7"] == (10206, 0, 24, None)
    assert REFERENCE["prod7"] == (896, 18, 108, None)
    assert REFERENCE["mul2"] == (10, 4, 23, 25)
    assert REFERENCE["sqsum3"] == (54, 24, 130, 15)
    assert REFERENCE["tfadd"] == (63, 4, 42, 55)


def test_render_table_shape(default_rows):
    rows = default_rows
    text = render_table(rows)
    lines = text.splitlines()
    assert lines[0].startswith("function")
    assert len(lines) == 2 + len(rows)
    assert text.endswith("\n")
    sum2 = next(l for l in lines if l.startswith("sum2 "))
    assert "12/12" in sum2 and "4/4" in sum2
    tfadd = next(l for l in lines if l.startswith("tfadd"))
    assert "105/63" in tfadd and "112/42" in tfadd


def test_json_is_deterministic_and_parses():
    a = rows_to_json(run_benchmarks())
    b = rows_to_json(run_benchmarks())
    assert a == b
    doc = json.loads(a)
    assert len(doc["rows"]) == 22
    assert doc["rows"][0]["name"] == "sum2"
    assert all("reference_match" in r for r in doc["rows"])


def test_options_flow_through():
    rows = {r.name: r for r in run_benchmarks(SynthOptions(cost_model="strict"))}
    # The pairing discount is off and collectors are priced, so the
    # product row gets strictly more expensive: two fused MultiGTGs at 10,
    # two C2NOTs at 8 and two MAX collectors at 5.  The figure is 46, not
    # the 38 of the old min block, because the row now computes the
    # catalog's (a*b) mod 3 rather than min(a, b).
    assert rows["prod2"].cost == 46
    assert rows["sum2"].cost == 4  # a chain of adds costs the same either way


def test_rows_are_frozen_records(default_rows):
    row = default_rows[0]
    assert isinstance(row, BenchRow)
    assert row.cost_honest >= 0
