"""Dense truth tables for multi-variable ternary functions.

A TernaryFunction stores one output column over all 3^m input rows in
lexicographic order with the first variable most significant.  The module
also carries the benchmark function catalog (multipliers, half/full adders,
averages, squared sums, n-ary sums and products), affine- and product-function
detection, and a plain text serialization format.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product
from math import prod
from typing import Callable, Iterator, Optional, Sequence

from .core import TRITS, Trit

__all__ = [
    "TernaryFunction",
    "MultiOutputFunction",
    "TruthTableFormatError",
    "all_inputs",
    "lex_index",
    "first_difference",
    "builtin",
    "list_builtins",
    "linear_detect",
    "monomial_detect",
    "parse_truth_table",
    "format_truth_table",
]

_VAR_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def all_inputs(arity: int) -> Iterator[tuple[Trit, ...]]:
    """All input rows of the given arity in lexicographic order."""
    if arity < 1:
        raise ValueError(f"arity must be >= 1, got {arity}")
    return product(TRITS, repeat=arity)


def lex_index(inputs: tuple[int, ...]) -> int:
    """Row index of an input vector; the first variable is most significant."""
    idx = 0
    for value in inputs:
        idx = idx * 3 + Trit(value)
    return idx


def first_difference(
    arity: int, a: Sequence[int], b: Sequence[int]
) -> Optional[tuple[Trit, ...]]:
    """First input row, in lexicographic order, where two columns differ, or None.

    A column holds one value per input row, in all_inputs order; the two
    columns must be the same length.
    """
    for index, (x, y) in enumerate(zip(a, b, strict=True)):
        if x != y:
            return next(islice(all_inputs(arity), index, None))
    return None


def default_var_names(arity: int) -> tuple[str, ...]:
    if arity <= len(_VAR_LETTERS):
        return tuple(_VAR_LETTERS[:arity])
    return tuple(f"x{i}" for i in range(arity))


@dataclass(frozen=True)
class TernaryFunction:
    """A single-output function {0,1,2}^arity -> {0,1,2} as a dense table."""

    name: str
    arity: int
    values: tuple[Trit, ...]

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValueError(f"arity must be >= 1, got {self.arity}")
        expect = 3**self.arity
        if len(self.values) != expect:
            raise ValueError(
                f"function {self.name!r} of arity {self.arity} needs {expect} "
                f"table entries, got {len(self.values)}"
            )
        values = tuple(self.values)
        # Every Trit is valid by type (see Trit), so only other values need Trit().
        if set(map(type, values)) != {Trit}:
            values = tuple(Trit(v) for v in values)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_callable(cls, name: str, arity: int, fn: Callable[..., int]) -> "TernaryFunction":
        return cls(name, arity, tuple(fn(*row) for row in all_inputs(arity)))

    @classmethod
    def from_string(cls, name: str, arity: int, column: str) -> "TernaryFunction":
        try:
            values = tuple(Trit(int(ch)) for ch in column)
        except ValueError as exc:
            raise ValueError(f"bad table column for {name!r}: {exc}") from exc
        return cls(name, arity, values)

    def eval(self, inputs: tuple[int, ...]) -> Trit:
        if len(inputs) != self.arity:
            raise ValueError(
                f"function {self.name!r} takes {self.arity} inputs, got {len(inputs)}"
            )
        return self.values[lex_index(inputs)]

    __call__ = eval

    def column(self) -> str:
        """The output column as a string of trit characters in row order."""
        return "".join(str(int(v)) for v in self.values)

    def nonzero_rows(self) -> int:
        return sum(1 for v in self.values if v != 0)


@dataclass(frozen=True)
class MultiOutputFunction:
    """A named bundle of output columns over a shared input space."""

    name: str
    arity: int
    var_names: tuple[str, ...]
    outputs: tuple[TernaryFunction, ...]

    def __post_init__(self) -> None:
        if not self.outputs:
            raise ValueError(f"function {self.name!r} declares no outputs")
        if len(self.var_names) != self.arity:
            raise ValueError(
                f"function {self.name!r}: {self.arity} variables but "
                f"{len(self.var_names)} names"
            )
        if len(set(self.var_names)) != self.arity:
            raise ValueError(f"function {self.name!r}: variable names must be distinct")
        for out in self.outputs:
            if out.arity != self.arity:
                raise ValueError(
                    f"output {out.name!r} has arity {out.arity}, expected {self.arity}"
                )
        names = [out.name for out in self.outputs]
        if len(set(names)) != len(names):
            raise ValueError(f"function {self.name!r}: output names must be distinct")

    @property
    def output_names(self) -> tuple[str, ...]:
        return tuple(out.name for out in self.outputs)

    def output(self, name: str) -> TernaryFunction:
        for out in self.outputs:
            if out.name == name:
                return out
        raise KeyError(f"function {self.name!r} has no output {name!r}")

    def eval(self, inputs: tuple[int, ...]) -> dict[str, Trit]:
        return {out.name: out.eval(inputs) for out in self.outputs}


def as_multi_output(fn: TernaryFunction | MultiOutputFunction) -> MultiOutputFunction:
    """fn itself, or a single output wrapped as a one-output bundle."""
    if isinstance(fn, TernaryFunction):
        return MultiOutputFunction(fn.name, fn.arity, default_var_names(fn.arity), (fn,))
    return fn


def _single(name: str, arity: int, fn: Callable[..., int]) -> MultiOutputFunction:
    return as_multi_output(TernaryFunction.from_callable(name, arity, fn))


def _from_columns(name: str, arity: int, columns: dict[str, str]) -> MultiOutputFunction:
    outs = tuple(
        TernaryFunction.from_string(out_name, arity, col) for out_name, col in columns.items()
    )
    return MultiOutputFunction(name, arity, default_var_names(arity), outs)


# Worked single-output example: 0/1/2-valued over two variables.
G_EXAMPLE_COLUMN = "012111212"

# Stored verbatim: the descriptive closed form (a^2 + b*c + c) mod 3 matches
# this column at every row except (1,1,2), where the tabulated value 1 wins.
# The closed form is documentation, the column is the definition.
A2BCC_COLUMN = "012021000120101111120102111"

# Stored verbatim as the defining data; floor((a+b+c)/3) reproduces it.
AVG3_COLUMN = "000001011001011111011111112"


def _build_g_example() -> MultiOutputFunction:
    return _from_columns("g_example", 2, {"g_example": G_EXAMPLE_COLUMN})


def _build_mul2() -> MultiOutputFunction:
    prod = TernaryFunction.from_callable("mul2", 2, lambda a, b: (a * b) % 3)
    carry = TernaryFunction.from_callable("mul2c", 2, lambda a, b: (a * b) // 3)
    return MultiOutputFunction("mul2", 2, default_var_names(2), (prod, carry))


def _build_mul3() -> MultiOutputFunction:
    prod = TernaryFunction.from_callable("mul3", 3, lambda a, b, c: (a * b * c) % 3)
    carry = TernaryFunction.from_callable("mul3c", 3, lambda a, b, c: (a * b * c) // 3)
    return MultiOutputFunction("mul3", 3, default_var_names(3), (prod, carry))


def _build_thadd() -> MultiOutputFunction:
    sumh = TernaryFunction.from_callable("sumh", 2, lambda a, b: (a + b) % 3)
    carryh = TernaryFunction.from_callable("carryh", 2, lambda a, b: (a + b) // 3)
    return MultiOutputFunction("thadd", 2, default_var_names(2), (sumh, carryh))


def _build_tfadd() -> MultiOutputFunction:
    total = TernaryFunction.from_callable("sum", 3, lambda a, b, c: (a + b + c) % 3)
    carry = TernaryFunction.from_callable("carry", 3, lambda a, b, c: (a + b + c) // 3)
    return MultiOutputFunction("tfadd", 3, default_var_names(3), (total, carry))


def _build_sum_n(n: int) -> MultiOutputFunction:
    return _single(f"sum{n}", n, lambda *xs: sum(xs) % 3)


def _build_prod_n(n: int) -> MultiOutputFunction:
    def prod_mod3(*xs: int) -> int:
        acc = 1
        for x in xs:
            acc = acc * x % 3
        return acc

    return _single(f"prod{n}", n, prod_mod3)


_BUILTIN_BUILDERS: dict[str, Callable[[], MultiOutputFunction]] = {
    "g_example": _build_g_example,
    "mul2": _build_mul2,
    "mul3": _build_mul3,
    "thadd": _build_thadd,
    "tfadd": _build_tfadd,
    "sqsum2": lambda: _single("sqsum2", 2, lambda a, b: (a * a + b * b) % 3),
    "sqsum3": lambda: _single("sqsum3", 3, lambda a, b, c: (a * a + b * b + c * c) % 3),
    "avg2": lambda: _single("avg2", 2, lambda a, b: (a + b) // 2),
    "avg3": lambda: _from_columns("avg3", 3, {"avg3": AVG3_COLUMN}),
    "a2bcc": lambda: _from_columns("a2bcc", 3, {"a2bcc": A2BCC_COLUMN}),
}
for _n in range(2, 8):
    _BUILTIN_BUILDERS[f"sum{_n}"] = (lambda n=_n: _build_sum_n(n))
    _BUILTIN_BUILDERS[f"prod{_n}"] = (lambda n=_n: _build_prod_n(n))


def builtin(name: str) -> MultiOutputFunction:
    """Look up a benchmark function by name (see list_builtins)."""
    key = name.strip()
    # Accept sum_4 style spellings for the indexed families.
    if len(key) > 1 and key[-2] == "_" and key[-1].isdigit():
        head, digit = key[:-2], key[-1]
        if head in ("sum", "prod"):
            key = head + digit
    try:
        build = _BUILTIN_BUILDERS[key]
    except KeyError:
        raise ValueError(
            f"unknown builtin {name!r}; available: {', '.join(list_builtins())}"
        ) from None
    return build()


def list_builtins() -> list[str]:
    return sorted(_BUILTIN_BUILDERS)


def linear_detect(f: TernaryFunction) -> Optional[tuple[Trit, tuple[Trit, ...]]]:
    """Return (c, coefficients) with f(x) = (c + sum_i lam_i*x_i) mod 3, or None.

    If f is affine over GF(3), the constant is forced by the all-zero row and
    each coefficient by the matching unit row, so a single reconstruction
    followed by full verification decides the property exactly.
    """
    m = f.arity
    zero_row = (TRITS[0],) * m
    c = int(f.eval(zero_row))
    lam = []
    for i in range(m):
        unit = list(zero_row)
        unit[i] = TRITS[1]
        lam.append((int(f.eval(tuple(unit))) - c) % 3)
    column = tuple(
        (c + sum(coeff * x for coeff, x in zip(lam, row))) % 3 for row in all_inputs(m)
    )
    if column != f.values:
        return None
    return TRITS[c], tuple(TRITS[v] for v in lam)


def monomial_detect(f: TernaryFunction) -> Optional[tuple[int, ...]]:
    """Return the support S with f(x) = (prod_{i in S} x_i) mod 3, |S| >= 2, or None.

    If f is such a product, the all-ones row gives 1 and zeroing one input
    in that row gives 0 exactly for the inputs in S, so a single
    reconstruction followed by full verification decides the property
    exactly, as in linear_detect.
    """
    m = f.arity
    ones = (1,) * m
    if f.eval(ones) != 1:
        return None
    support = tuple(i for i in range(m) if f.eval(ones[:i] + (0,) + ones[i + 1 :]) == 0)
    if len(support) < 2:
        return None
    column = tuple(prod(row[i] for i in support) % 3 for row in all_inputs(m))
    return support if column == f.values else None


class TruthTableFormatError(ValueError):
    """Raised on malformed truth-table text; carries a 1-based line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_truth_table(text: str, name: str = "table") -> MultiOutputFunction:
    """Parse the plain text table format.

    Line 1: `vars` followed by the variable names, most significant first.
    Line 2: `outputs k`.
    Then k lines, each a string of 3^m characters from {0,1,2} giving one
    output column over the rows in lexicographic input order.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    rows = [(i + 1, ln) for i, ln in enumerate(lines) if ln]
    if not rows:
        raise TruthTableFormatError(1, "empty table")

    line_no, header = rows[0]
    fields = header.split()
    if not fields or fields[0] != "vars" or len(fields) < 2:
        raise TruthTableFormatError(line_no, "expected `vars <name>...`")
    var_names = tuple(fields[1:])
    arity = len(var_names)

    if len(rows) < 2:
        raise TruthTableFormatError(line_no + 1, "expected `outputs <k>`")
    line_no, decl = rows[1]
    fields = decl.split()
    if len(fields) != 2 or fields[0] != "outputs" or not fields[1].isdigit():
        raise TruthTableFormatError(line_no, "expected `outputs <k>`")
    n_outputs = int(fields[1])
    if n_outputs < 1:
        raise TruthTableFormatError(line_no, "output count must be >= 1")

    column_rows = rows[2:]
    if len(column_rows) != n_outputs:
        raise TruthTableFormatError(
            line_no, f"declared {n_outputs} outputs but found {len(column_rows)} column lines"
        )

    expect = 3**arity
    outputs = []
    for k, (col_line, col) in enumerate(column_rows):
        if len(col) != expect:
            raise TruthTableFormatError(
                col_line, f"column must have {expect} entries for {arity} variables, got {len(col)}"
            )
        bad = next((ch for ch in col if ch not in "012"), None)
        if bad is not None:
            raise TruthTableFormatError(col_line, f"invalid trit character {bad!r}")
        outputs.append(TernaryFunction.from_string(f"out{k}", arity, col))

    try:
        return MultiOutputFunction(name, arity, var_names, tuple(outputs))
    except ValueError as exc:
        raise TruthTableFormatError(rows[0][0], str(exc)) from exc


def format_truth_table(fn: MultiOutputFunction) -> str:
    lines = ["vars " + " ".join(fn.var_names), f"outputs {len(fn.outputs)}"]
    lines.extend(out.column() for out in fn.outputs)
    return "\n".join(lines) + "\n"
