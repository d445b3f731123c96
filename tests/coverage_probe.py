"""Statement coverage of src/tritsynth under the tier-1 suite.

Runs the tier-1 tests in this process with a sys.settrace hook that
records the lines executed in src/tritsynth frames, then prints every
statement no test reached, marking the allow-listed ones.

    python tests/coverage_probe.py

Exits 0 when every unreached statement is allow-listed, 1 when some is
not, and with pytest's own status when the suite fails.  Standard
library plus pytest only; pytest does not collect this file.
"""

import ast
import dis
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "tritsynth"

# Statements that no test can reach, each named by a source snippet that
# occurs exactly once in src/tritsynth (tests/test_hygiene.py checks it).
# A snippet covers the unreached statements on its line and those in the
# block its line opens.
ALLOWED = {
    "raise RewriteSoundnessError(step.rule_id, (TRITS[0],) * arity)": (
        "every rule strictly shrinks (terms, factors); the raise guards that "
        "for a rule added later"
    ),
    "except Exception as exc:": (
        "the CLI's catch-all turns a bug into exit 1 instead of a traceback"
    ),
    "sys.exit(main())": "runs only as `python -m tritsynth.cli`, not in-process",
}


def _stmt_nodes(tree):
    """(stmt, header lines of its enclosing blocks) for every statement."""
    out = []

    def visit(node, headers):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                out.append((child, headers))
                visit(child, headers | {child.lineno})
            elif isinstance(child, ast.excepthandler):
                visit(child, headers | {child.lineno})
            else:
                visit(child, headers)

    visit(tree, frozenset())
    return out


def _own_lines(stmt):
    """The lines that execute for stmt itself, not for its body."""
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body:
        return range(first, body[0].lineno)
    return range(first, stmt.end_lineno + 1)


def _is_docstring(stmt):
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
    )


def unreached(source, executed):
    """(stmt, enclosing header lines) for each statement of a module none
    of whose own lines is in executed."""
    return [
        (stmt, headers)
        for stmt, headers in _stmt_nodes(ast.parse(source))
        if not _is_docstring(stmt)
        and not any(line in executed for line in _own_lines(stmt))
    ]


def allowed_reason(source_lines, stmt, headers):
    """The allow-list reason covering stmt, or None."""
    lines = set(range(stmt.lineno, stmt.end_lineno + 1)) | headers
    for snippet, reason in ALLOWED.items():
        if any(snippet in source_lines[n - 1] for n in lines):
            return reason
    return None


def _line_recorder(lines, unseen):
    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
            unseen.discard(frame.f_lineno)
        return local

    return local


def run_suite():
    """Run tier-1 under the line tracer; (pytest status, {path: lines})."""
    import pytest

    sys.path.insert(0, str(PACKAGE.parent))
    hits = {str(p): set() for p in PACKAGE.glob("*.py")}
    recorders = {}
    unseen_lines = {}

    def global_trace(frame, event, arg):
        code = frame.f_code
        lines = hits.get(code.co_filename)
        if lines is None:
            return None
        unseen = unseen_lines.get(code)
        if unseen is None:
            unseen = unseen_lines[code] = {n for _, n in dis.findlinestarts(code)}
            recorders[code] = _line_recorder(lines, unseen)
        # A code object whose every line has run needs no more tracing;
        # that keeps the hot loops of the package at full speed.
        return recorders[code] if unseen else None

    sys.settrace(global_trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(REPO / "tests")])
    finally:
        sys.settrace(None)
    return int(status), hits


def main():
    status, hits = run_suite()
    if status != 0:
        print(f"tier-1 failed (pytest exit {status}); coverage not reported")
        return status
    bad = 0
    total = 0
    for path in sorted(hits):
        source = Path(path).read_text()
        source_lines = source.splitlines()
        rel = Path(path).relative_to(REPO)
        for stmt, headers in unreached(source, hits[path]):
            total += 1
            text = source_lines[stmt.lineno - 1].strip()
            reason = allowed_reason(source_lines, stmt, headers)
            if reason is None:
                bad += 1
                print(f"{rel}:{stmt.lineno}: {text}")
            else:
                print(f"{rel}:{stmt.lineno}: {text}  [allowed: {reason}]")
    print(f"{total} unreached statements, {bad} not allow-listed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
