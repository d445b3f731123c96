"""Benchmark suite over the builtin function catalog.

Every row synthesizes a builtin, verifies it exhaustively, and sets the
computed numbers beside the published reference figures.  Rows in
CERTIFIED are the ones whose reference figures this implementation
reproduces by construction; for the rest both numbers are reported and
the match column says "not-certified" rather than pretending either way.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Optional

from .synth import SynthOptions, synth
from .truthtables import builtin

__all__ = ["REFERENCE", "CERTIFIED", "BenchRow", "run_benchmarks", "render_table", "rows_to_json"]


# name -> (max ancilla, reduced ancilla, cost, prior-art cost or None)
REFERENCE: dict[str, tuple[int, int, int, Optional[int]]] = {
    "sum2": (12, 0, 4, 5),
    "sum3": (54, 0, 8, 10),
    "sum4": (216, 0, 12, 15),
    "sum5": (810, 0, 16, None),
    "sum6": (2916, 0, 20, None),
    "sum7": (10206, 0, 24, None),
    "prod2": (8, 3, 18, 20),
    "prod3": (24, 6, 36, 65),
    "prod4": (64, 9, 54, None),
    "prod5": (160, 12, 72, None),
    "prod6": (384, 15, 90, None),
    "prod7": (896, 18, 108, None),
    "mul2": (10, 4, 23, 25),
    "mul3": (36, 11, 64, None),
    "thadd": (18, 2, 21, 20),
    "tfadd": (63, 4, 42, 55),
    "avg2": (12, 7, 38, 15),
    "avg3": (51, 16, 89, 40),
    "sqsum2": (16, 7, 38, 10),
    "sqsum3": (54, 24, 130, 15),
}

# Rows this implementation reproduces exactly; everything else carries
# both numbers with match left open.
CERTIFIED = frozenset(
    {f"sum{n}" for n in range(2, 8)}
    | {f"prod{n}" for n in range(2, 8)}
    | {"mul2"}
)

# Extra rows with no published figures.
_EXTRA = ("g_example", "a2bcc")

_ROW_ORDER = tuple(REFERENCE) + _EXTRA


@dataclass(frozen=True)
class BenchRow:
    name: str
    max_ancilla: int
    reduced_ancilla: int
    cost: int
    cost_honest: int
    depth: int
    verified: bool
    ref_max_ancilla: Optional[int]
    ref_reduced_ancilla: Optional[int]
    ref_cost: Optional[int]
    ref_prior_cost: Optional[int]
    reference_match: str  # "yes" | "no" | "not-certified" | "no-reference"


def _match(name, rep, ref):
    if ref is None:
        return "no-reference"
    if name not in CERTIFIED:
        return "not-certified"
    ok = (
        rep.max_ancilla == ref[0]
        and rep.reduced_ancilla == ref[1]
        and rep.cost == ref[2]
    )
    return "yes" if ok else "no"


def run_benchmarks(options: Optional[SynthOptions] = None) -> list[BenchRow]:
    options = options or SynthOptions()
    rows = []
    for name in _ROW_ORDER:
        rep = synth(builtin(name), options)
        ref = REFERENCE.get(name)
        rows.append(
            BenchRow(
                name=name,
                max_ancilla=rep.max_ancilla,
                reduced_ancilla=rep.reduced_ancilla,
                cost=rep.cost,
                cost_honest=rep.cost_honest,
                depth=rep.depth,
                verified=rep.verified,
                ref_max_ancilla=ref[0] if ref else None,
                ref_reduced_ancilla=ref[1] if ref else None,
                ref_cost=ref[2] if ref else None,
                ref_prior_cost=ref[3] if ref else None,
                reference_match=_match(name, rep, ref),
            )
        )
    return rows


def _pair(ours, ref):
    if ref is None:
        return str(ours)
    return f"{ours}/{ref}"


def render_table(rows) -> str:
    headers = ("function", "max-anc", "red-anc", "cost", "honest", "depth", "prior", "match", "ok")
    body = []
    for r in rows:
        body.append(
            (
                r.name,
                _pair(r.max_ancilla, r.ref_max_ancilla),
                _pair(r.reduced_ancilla, r.ref_reduced_ancilla),
                _pair(r.cost, r.ref_cost),
                str(r.cost_honest),
                str(r.depth),
                "-" if r.ref_prior_cost is None else str(r.ref_prior_cost),
                r.reference_match,
                "yes" if r.verified else "NO",
            )
        )
    widths = [max(len(h), *(len(row[i]) for row in body)) for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in body:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(headers))).rstrip())
    return "\n".join(lines) + "\n"


def rows_to_json(rows) -> str:
    # Computed values only, no timestamps: two runs must byte-match.
    doc = {"rows": [asdict(r) for r in rows]}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
