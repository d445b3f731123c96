"""Command line front end.

Subcommands:

  synth     build a netlist for a builtin or a truth-table file
  verify    check a netlist JSON file against a reference function
  bench     run the benchmark catalog
  table     print a builtin's truth table in the text format
  simplify  show minterm extraction and rewrite reduction only

Exit codes: 0 success, 1 internal error, 2 bad input, 3 verification
mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bench import render_table, rows_to_json, run_benchmarks
from .expr import minterm_extract
from .gates import Netlist
from .sim import VerificationError, exhaustive_check
from .simplify import simplify
from .synth import SynthOptions, synth
from .truthtables import (
    builtin,
    format_truth_table,
    list_builtins,
    parse_truth_table,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_VERIFY = 3


def _load_function(spec):
    """A builtin name, unless a file of that name exists on disk."""
    if os.path.exists(spec):
        with open(spec, encoding="utf-8") as fh:
            text = fh.read()
        name = os.path.splitext(os.path.basename(spec))[0]
        return parse_truth_table(text, name=name)
    return builtin(spec)


def _print_explanation(fn, rep):
    names = tuple(fn.var_names)
    for out in fn.outputs:
        if out.name not in rep.traces:
            continue
        initial = minterm_extract(out)
        trace = rep.traces[out.name]
        print(f"{out.name} minterms: {initial.render(names)}")
        for line in trace.render(initial, names).splitlines():
            print(f"  {line}")
        print(f"{out.name} reduced:  {rep.expressions[out.name].render(names)}")


def _report_doc(rep):
    names = rep.netlist.input_names
    return {
        "name": rep.name,
        "cost": rep.cost,
        "cost_model": rep.cost_model,
        "cost_honest": rep.cost_honest,
        "max_ancilla": rep.max_ancilla,
        "reduced_ancilla": rep.reduced_ancilla,
        "depth": rep.depth,
        "verified": rep.verified,
        "paths": rep.paths,
        "expressions": {
            out: expr.render(names) for out, expr in rep.expressions.items()
        },
        "netlist": json.loads(rep.netlist.to_json()),
    }


def _cmd_synth(args):
    fn = _load_function(args.function)
    opts = SynthOptions(
        combine=args.combine,
        cost_model=args.cost_model,
        verify=not args.no_verify,
    )
    rep = synth(fn, opts)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rep.netlist.to_json(indent=2) + "\n")
    if args.json:
        print(json.dumps(_report_doc(rep), indent=2, sort_keys=True))
        return EXIT_OK
    checked = "verified" if rep.verified else "not checked"
    print(
        f"{rep.name}: cost {rep.cost} [{rep.cost_model}] "
        f"(honest {rep.cost_honest}), ancillae {rep.reduced_ancilla} "
        f"(bound {rep.max_ancilla}), depth {rep.depth}, {checked}"
    )
    for out, wire in rep.netlist.outputs.items():
        print(f"  {out} on wire {wire} via {rep.paths[out]}")
    if args.explain:
        _print_explanation(fn, rep)
    if args.out:
        print(f"netlist written to {args.out}")
    return EXIT_OK


def _cmd_verify(args):
    with open(args.netlist, encoding="utf-8") as fh:
        netlist = Netlist.from_json(fh.read())
    fn = _load_function(args.function)
    res = exhaustive_check(netlist, fn)
    print(res.message())
    return EXIT_OK if res.ok else EXIT_VERIFY


def _cmd_bench(args):
    opts = SynthOptions(combine=args.combine, cost_model=args.cost_model)
    rows = run_benchmarks(opts)
    sys.stdout.write(rows_to_json(rows) if args.json else render_table(rows))
    return EXIT_OK


def _cmd_table(args):
    sys.stdout.write(format_truth_table(builtin(args.name)))
    return EXIT_OK


def _cmd_simplify(args):
    fn = _load_function(args.function)
    names = tuple(fn.var_names)
    for out in fn.outputs:
        initial = minterm_extract(out)
        reduced, trace = simplify(initial)
        print(f"{out.name}: {initial.render(names)}")
        if args.explain:
            for line in trace.render(initial, names).splitlines():
                print(f"  {line}")
        print(f"  = {reduced.render(names)}")
    return EXIT_OK


def _add_function_arg(sp):
    sp.add_argument(
        "function",
        help="builtin name (see `table --list`) or path to a truth-table file",
    )


def _add_synth_options(sp):
    sp.add_argument(
        "--combine",
        choices=("max", "shared"),
        default="max",
        help="how terms are OR-combined (default: max collectors)",
    )
    sp.add_argument(
        "--cost-model",
        choices=("paper", "strict"),
        default="paper",
        dest="cost_model",
    )


def build_parser():
    p = argparse.ArgumentParser(
        prog="tritsynth",
        description="Synthesize ternary controlled-shift netlists from truth tables.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="synthesize a netlist")
    _add_function_arg(sp)
    _add_synth_options(sp)
    sp.add_argument("--no-verify", action="store_true", help="skip the exhaustive check")
    sp.add_argument("--explain", action="store_true", help="show the rewrite steps")
    sp.add_argument("--json", action="store_true", help="emit the full report as JSON")
    sp.add_argument("-o", "--out", help="write the netlist JSON to this file")
    sp.set_defaults(func=_cmd_synth)

    sp = sub.add_parser("verify", help="check a netlist against a reference")
    sp.add_argument("netlist", help="netlist JSON file")
    _add_function_arg(sp)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("bench", help="run the benchmark catalog")
    _add_synth_options(sp)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_bench)

    sp = sub.add_parser("table", help="print a builtin truth table")
    sp.add_argument("name", nargs="?", help="builtin name")
    sp.add_argument("--list", action="store_true", help="list builtin names")
    sp.set_defaults(func=_cmd_table)

    sp = sub.add_parser("simplify", help="reduce a function to its expression form")
    _add_function_arg(sp)
    sp.add_argument("--explain", action="store_true", help="show the rewrite steps")
    sp.set_defaults(func=_cmd_simplify)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "table":
        if args.list:
            print("\n".join(list_builtins()))
            return EXIT_OK
        if args.name is None:
            parser.error("table: name required unless --list is given")
    try:
        return args.func(args)
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive catch-all
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
