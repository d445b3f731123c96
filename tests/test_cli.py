"""CLI flows, invoked in process through main()."""

import hashlib
import importlib
import json

import pytest

from tritsynth.cli import EXIT_VERIFY, main
from tritsynth.core import DUAL_SHIFT, SINGLE_SHIFT, ProjFamily


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_synth_builtin_summary(capsys):
    rc = main(["synth", "mul2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "cost 23" in out
    assert "ancillae 4" in out
    assert "verified" in out
    assert "mul2c on wire" in out


def test_synth_json_report(capsys):
    rc = main(["synth", "mul2", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cost"] == 23
    assert doc["reduced_ancilla"] == 4
    assert doc["verified"] is True
    assert doc["expressions"]["mul2"] == "L1(a,b) + L2(a,b) + PairJ(a,b)"
    assert doc["netlist"]["inputs"] == ["a", "b"]
    assert len(doc["netlist"]["gates"]) == 7


def test_synth_explain_shows_trace(capsys):
    rc = main(["synth", "thadd", "--explain"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "carryh minterms: L1(a)L2(b) + L2(a)L1(b) + L2(a)L2(b)" in out
    assert "rule  8" in out
    assert "carryh reduced:  PairL(a,b) + L2(a,b)" in out


def test_synth_no_verify(capsys):
    rc = main(["synth", "mul2", "--no-verify"])
    assert rc == 0
    assert "not checked" in capsys.readouterr().out


def test_synth_shared_combine(capsys):
    rc = main(["synth", "prod2", "--combine", "shared"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ancillae 1" in out
    assert "sum-of-products/shared" in out


def test_synth_strict_cost_model(capsys):
    rc = main(["synth", "mul2", "--cost-model", "strict"])
    assert rc == 0
    assert "cost 56 [strict]" in capsys.readouterr().out


def test_unknown_builtin_is_input_error(capsys):
    rc = main(["synth", "nosuchfn"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown builtin" in err
    assert "mul2" in err  # the message lists what is available


def test_table_round_trip_through_files(tmp_path, capsys):
    rc = main(["table", "avg2"])
    table_text = capsys.readouterr().out
    assert rc == 0
    assert table_text == "vars a b\noutputs 1\n001011112\n"

    table_file = tmp_path / "avg2.tt"
    table_file.write_text(table_text)
    netlist_file = tmp_path / "avg2.json"
    rc = main(["synth", str(table_file), "-o", str(netlist_file)])
    assert rc == 0
    assert "netlist written" in capsys.readouterr().out

    rc = main(["verify", str(netlist_file), str(table_file)])
    assert rc == 0
    assert "ok (9 assignments)" in capsys.readouterr().out

    # The same netlist also checks out against the builtin by position.
    rc = main(["verify", str(netlist_file), "avg2"])
    assert rc == 0


def test_verify_mismatch_exits_3(tmp_path, capsys):
    netlist_file = tmp_path / "sum2.json"
    rc = main(["synth", "sum2", "-o", str(netlist_file)])
    assert rc == 0
    capsys.readouterr()
    rc = main(["verify", str(netlist_file), "avg2"])
    assert rc == 3
    assert "mismatch on output" in capsys.readouterr().out


def test_malformed_table_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.tt"
    bad.write_text("vars a b\noutputs 1\n0120\n")
    rc = main(["synth", str(bad)])
    assert rc == 2
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("vars a b\n", "line 2: expected `outputs <k>`"),
        ("vars a b\noutputs 0\n", "line 2: output count must be >= 1"),
        ("vars a a\noutputs 1\n012111212\n", "line 1: function 'bad': variable names must be distinct"),
    ],
    ids=["no-outputs-line", "zero-outputs", "repeated-variable"],
)
def test_malformed_table_header_names_the_line(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.tt"
    bad.write_text(text)
    rc = main(["synth", str(bad)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"error: {message}" in err


def test_netlist_failing_its_check_exits_3(monkeypatch, capsys):
    # Swap the firing shifts so every 1-valued factor writes a 2.
    synth_module = importlib.import_module("tritsynth.synth")
    monkeypatch.setattr(
        synth_module, "_FIRE", {ProjFamily.L: DUAL_SHIFT, ProjFamily.J: SINGLE_SHIFT}
    )
    rc = main(["synth", "prod2"])
    assert rc == EXIT_VERIFY
    assert "verification failed: netlist for 'prod2' failed:" in capsys.readouterr().err


def test_missing_netlist_file_is_input_error(tmp_path, capsys):
    rc = main(["verify", str(tmp_path / "nope.json"), "sum2"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_corrupt_netlist_json_is_input_error(tmp_path, capsys):
    nl = tmp_path / "bad.json"
    nl.write_text('{"inputs": ["a"], "ancillas": {}, "gates": [{"kind": "warp"}], "outputs": {}}')
    rc = main(["verify", str(nl), "sum2"])
    assert rc == 2
    assert "unknown gate kind" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, message",
    [
        ("[]", "a netlist must be a JSON object with keys inputs, ancillas, gates, outputs"),
        (
            '{"inputs": ["a", "b"], "ancillas": {}, "outputs": {"sum2": "b"},'
            ' "gates": [{"kind": "feynman", "control": "a"}]}',
            "gate 0: feynman gate needs fields control, target, got control",
        ),
        (
            '{"inputs": ["a", "b"], "ancillas": {}, "gates": [], "outputs": {"sum2": "zz"}}',
            "output 'sum2' names unknown wire 'zz'",
        ),
        (
            '{"inputs": ["a", "b"], "ancillas": {"t": 5}, "gates": [], "outputs": {"sum2": "t"}}',
            "ancilla 't': trit value must be 0, 1 or 2, got 5",
        ),
        (
            '{"inputs": "ab", "ancillas": {}, "gates": [], "outputs": {}}',
            "netlist 'inputs' must be a list of names",
        ),
        (
            '{"inputs": ["a", "b"], "ancillas": [], "gates": [], "outputs": {}}',
            "netlist 'ancillas' must be a JSON object",
        ),
        (
            '{"inputs": ["a", "b"], "ancillas": {}, "gates": {}, "outputs": {}}',
            "netlist 'gates' must be a JSON list",
        ),
    ],
    ids=[
        "top-level-list",
        "gate-missing-field",
        "output-unknown-wire",
        "ancilla-not-a-trit",
        "inputs-not-names",
        "ancillas-not-an-object",
        "gates-not-a-list",
    ],
)
def test_malformed_netlist_json_is_input_error(tmp_path, capsys, doc, message):
    nl = tmp_path / "bad.json"
    nl.write_text(doc)
    rc = main(["verify", str(nl), "sum2"])
    err = capsys.readouterr().err
    assert rc == 2
    assert message in err
    assert "internal error" not in err


def test_table_list(capsys):
    rc = main(["table", "--list"])
    out = capsys.readouterr().out
    assert rc == 0
    names = out.split()
    assert "mul2" in names and "sum7" in names and "a2bcc" in names


def test_table_requires_name_or_list():
    with pytest.raises(SystemExit):
        main(["table"])


def test_bench_text_table(capsys):
    rc = main(["bench"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0].startswith("function")
    assert any(line.startswith("mul2") for line in out.splitlines())


def test_bench_json_is_byte_stable(capsys):
    rc = main(["bench", "--json"])
    first = capsys.readouterr().out
    assert rc == 0
    rc = main(["bench", "--json"])
    second = capsys.readouterr().out
    assert rc == 0
    assert first == second
    doc = json.loads(first)
    assert len(doc["rows"]) == 22
    # Pinned bytes: a change to any bench row moves these on purpose.
    assert _sha256(first) == "3d47cb5f6dd0e7b39ae4b0fb03352c8b2ac1652dc7f525d1d33c4d5db3be0716"
    rc = main(["bench", "--json", "--combine", "shared", "--cost-model", "strict"])
    assert rc == 0
    assert _sha256(capsys.readouterr().out) == (
        "e5668624a544eda89b7e99d3b3cf579e0eca8fb1ca566eeed975037de537ca2a"
    )


def test_simplify_command(capsys):
    rc = main(["simplify", "mul2", "--explain"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "mul2: L1(a)L1(b) + " in out
    assert "= L1(a,b) + L2(a,b) + PairJ(a,b)" in out
    assert "rule" in out
