"""Multiset/set unification, unary and successor-style numbers, positional
bases, arithmetic with repetition traces, and the falling-body table.

Unary arithmetic makes the repetition structure of the basic operations
explicit: addition is a run of digit transfers, multiplication a run of
additions, powers a run of multiplications, and the traces nest accordingly.
One builder, ``_additions``, makes every multiplication's additions, so each
multiply-iteration of a power, factorial or bounded product holds exactly
the steps ``unary_multiply`` gives for the same operands.  A trace knows its
step count when the operation returns; its steps are made only when read
(``.steps``, ``dump()``, ``unary --trace``).
Magnitudes are capped at ``UNARY_CAP`` (the expansion is the point, not
scalability), and so are a power's exponent and a successor numeral's depth.
Powers, factorials and bounded sums and products share one fold, which
checks each partial result against the cap before it takes the step, so a
refusal costs no more than the steps that fit.
"""

from __future__ import annotations

import math
import operator
import re
from collections.abc import Callable, Iterable, Mapping, Sequence
from functools import cached_property
from itertools import repeat

from .errors import (BadDigit, DivisionByZero, Indeterminate, InputFormatError,
                     NonIntegerTerm, NotASet, TooLarge, Underflow, at_least)
from .patterns import Record, is_count, symbol_cost_bits, tokenize
from .reporting import RunReport, format_bits, round_half_up

UNARY_CAP = 10 ** 6
DIGITS = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def multiset_to_set(elements: Sequence[str]) -> list[str]:
    """Unify matching elements pairwise; first occurrences keep their order."""
    return list(dict.fromkeys(elements))


def _require_set(elements: Sequence[str], label: str) -> set[str]:
    seen: set[str] = set()
    for el in elements:
        if el in seen:
            raise NotASet(f"{label} repeats element {el!r}")
        seen.add(el)
    return seen


def set_union(a: Sequence[str], b: Sequence[str]) -> list[str]:
    """Union by unifying shared elements; output in lexicographic order."""
    return sorted(_require_set(a, "first set") | _require_set(b, "second set"))


def set_intersection(a: Sequence[str], b: Sequence[str]) -> list[str]:
    """The unified (matched) elements only; output in lexicographic order."""
    return sorted(_require_set(a, "first set") & _require_set(b, "second set"))


class UnaryNumber(Record):
    """A natural number as that many '/' marks."""

    __slots__ = _fields = ("count",)
    count: int

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("unary numbers are naturals")
        if self.count > UNARY_CAP:
            raise TooLarge(f"unary magnitude {self.count} exceeds cap {UNARY_CAP}")

    def render(self) -> str:
        return "/" * self.count


def parse_unary(text: str) -> UnaryNumber:
    if any(ch != "/" for ch in text):
        raise BadDigit("unary numbers contain only '/' marks")
    return UnaryNumber(len(text))


class TraceStep(Record):
    __slots__ = _fields = ("kind", "detail", "substeps")
    kind: str
    detail: str
    substeps: tuple[TraceStep, ...]
    _defaults = {"substeps": ()}


class OperationTrace:
    """A step count known at once, and steps that ``make_steps`` makes when
    read.  A trace is equal only to itself, and its repr leaves out
    ``make_steps``."""

    def __init__(self, operation: str, step_count: int,
                 make_steps: Callable[[], Iterable[TraceStep]]):
        self.operation = operation
        self.step_count = step_count
        self.make_steps = make_steps

    def __repr__(self) -> str:
        return f"OperationTrace(operation={self.operation!r}, step_count={self.step_count!r})"

    @cached_property
    def steps(self) -> tuple[TraceStep, ...]:
        return tuple(self.make_steps())

    def dump(self) -> str:
        """One line per step, depth first: ``<depth> <kind> <detail>``."""
        lines: list[str] = []

        def walk(steps, depth):
            for step in steps:
                lines.append(f"{depth} {step.kind} {step.detail}")
                walk(step.substeps, depth + 1)

        walk(self.steps, 0)
        return "\n".join(lines)


_TRANSFER = TraceStep("transfer", "move one unary digit")
_REMOVE = TraceStep("remove", "remove one unary digit")


def _transfers(n: int) -> tuple[TraceStep, ...]:
    # identical leaf steps share one instance; large runs stay cheap
    return (_TRANSFER,) * n


def _fold(combine: Callable[[int, int], int], start: int,
          operands: Iterable[int], refusal: str) -> tuple[int, list[int]]:
    """The fold of ``operands`` from ``start``, and the accumulator before each
    step; each partial result is checked against the cap before its step."""
    acc, before = start, []
    for x in operands:
        nxt = combine(acc, x)
        if nxt > UNARY_CAP:
            raise TooLarge(refusal)
        before.append(acc)
        acc = nxt
    return acc, before


def unary_add(a: UnaryNumber, b: UnaryNumber) -> tuple[UnaryNumber, OperationTrace]:
    """a + b as b single-digit transfers onto a."""
    result = UnaryNumber(a.count + b.count)
    return result, OperationTrace("add", b.count, lambda: _transfers(b.count))


def unary_subtract(a: UnaryNumber,
                   b: UnaryNumber) -> tuple[UnaryNumber, OperationTrace]:
    """a - b as b digit removals; naturals only."""
    if b.count > a.count:
        raise Underflow(f"cannot subtract {b.count} from {a.count}")
    result = UnaryNumber(a.count - b.count)
    return result, OperationTrace("subtract", b.count, lambda: (_REMOVE,) * b.count)


def _additions(addend: int, times: int) -> tuple[TraceStep, ...]:
    """addend x times as that many additions of addend, starting from zero:
    the steps of a multiplication, wherever one is traced."""
    transfers = _transfers(addend)
    return tuple(TraceStep("add-iteration", f"add {addend} to {addend * j}", transfers)
                 for j in range(times))


def unary_multiply(a: UnaryNumber,
                   b: UnaryNumber) -> tuple[UnaryNumber, OperationTrace]:
    """a x b as b additions of a, starting from zero: repetition on two levels."""
    if a.count * b.count > UNARY_CAP:
        raise TooLarge(f"product {a.count * b.count} exceeds cap {UNARY_CAP}")
    return (UnaryNumber(a.count * b.count),
            OperationTrace("multiply", b.count, lambda: _additions(a.count, b.count)))


def unary_divide(a: UnaryNumber, b: UnaryNumber
                 ) -> tuple[UnaryNumber, UnaryNumber, OperationTrace]:
    """a / b as repeated subtraction; quotient counts the iterations."""
    if b.count == 0:
        raise DivisionByZero("division by zero")
    q, r = divmod(a.count, b.count)
    return UnaryNumber(q), UnaryNumber(r), OperationTrace("divide", q, lambda: (
        TraceStep("subtract-iteration",
                  f"subtract {b.count} from {a.count - b.count * j}",
                  (_REMOVE,) * b.count) for j in range(q)))


def unary_power(a: UnaryNumber, k: int) -> tuple[UnaryNumber, OperationTrace]:
    """a^k as k multiplications starting from one: repetition on three levels
    (power -> multiply -> add -> transfer).  k counts the multiplications, so
    it is a unary number too, capped like any other."""
    if a.count == 0 and k == 0:
        raise Indeterminate("0^0 is undefined here")
    UnaryNumber(k)  # a natural within the cap, or it raises
    result, before = _fold(operator.mul, 1, repeat(a.count, k),
                           f"power {a.count}^{k} exceeds cap {UNARY_CAP}")
    return UnaryNumber(result), OperationTrace("power", k, lambda: (
        TraceStep("multiply-iteration", f"multiply {acc} by {a.count}",
                  _additions(acc, a.count)) for acc in before))


def unary_factorial(n: int) -> tuple[UnaryNumber, OperationTrace]:
    """n! by a descending multiply-then-subtract loop."""
    if n < 0:
        raise ValueError("factorial needs a natural number")
    factors = range(n, 0, -1)
    result, before = _fold(operator.mul, 1, factors, f"{n}! exceeds cap {UNARY_CAP}")

    def steps():
        for acc, m in zip(before, factors):
            yield TraceStep("multiply-iteration", f"multiply {acc} by {m}",
                            _additions(acc, m))
            yield TraceStep("subtract-iteration", f"count down {m} to {m - 1}",
                            (_REMOVE,))

    return UnaryNumber(result), OperationTrace("factorial", 2 * n, steps)


def _check_terms(terms: Mapping[int, int], lo: int, hi: int) -> None:
    if lo > hi:
        raise ValueError(f"empty index range {lo}..{hi}")
    for i in range(lo, hi + 1):
        if i not in terms:
            raise NonIntegerTerm(f"no term value for index {i}")
        value = terms[i]
        if not is_count(value) or value < 0:
            raise NonIntegerTerm(f"term at {i} must be a non-negative integer, "
                                 f"got {value!r}")


def bounded_sum(terms: Mapping[int, int], lo: int,
                hi: int) -> tuple[UnaryNumber, OperationTrace]:
    """Fold addition over the index range; each iteration logs its term."""
    _check_terms(terms, lo, hi)
    values = [terms[i] for i in range(lo, hi + 1)]
    result, before = _fold(operator.add, 0, values, f"sum exceeds cap {UNARY_CAP}")
    return UnaryNumber(result), OperationTrace("bounded-sum", len(values), lambda: (
        TraceStep("add-iteration", f"i={i}: add term {term} to {acc}", _transfers(term))
        for i, term, acc in zip(range(lo, hi + 1), values, before)))


def bounded_product(terms: Mapping[int, int], lo: int,
                    hi: int) -> tuple[UnaryNumber, OperationTrace]:
    """Fold multiplication over the index range, starting from one."""
    _check_terms(terms, lo, hi)
    values = [terms[i] for i in range(lo, hi + 1)]
    result, before = _fold(operator.mul, 1, values, f"product exceeds cap {UNARY_CAP}")
    return UnaryNumber(result), OperationTrace("bounded-product", len(values), lambda: (
        TraceStep("multiply-iteration", f"i={i}: multiply {acc} by term {term}",
                  _additions(acc, term))
        for i, term, acc in zip(range(lo, hi + 1), values, before)))


class PeanoNumeral(Record):
    """A natural as nested successor applications, at most ``UNARY_CAP`` deep."""

    __slots__ = _fields = ("depth",)
    depth: int

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        if self.depth > UNARY_CAP:
            raise TooLarge(f"successor depth {self.depth} exceeds cap {UNARY_CAP}")

    def render(self) -> str:
        return "S(" * self.depth + "0" + ")" * self.depth


def to_peano(n: int) -> PeanoNumeral:
    return PeanoNumeral(n)


def peano_succ(p: PeanoNumeral) -> PeanoNumeral:
    return PeanoNumeral(p.depth + 1)


def peano_shared_depth(p: PeanoNumeral, q: PeanoNumeral) -> int:
    """Successor layers unified level by level: the smaller depth."""
    return min(p.depth, q.depth)


def parse_peano(text: str) -> PeanoNumeral:
    body = text.strip()
    depth = (len(body) - 1) // 3  # a numeral of depth d has 3d + 1 characters
    if body != "S(" * depth + "0" + ")" * depth:
        raise BadDigit(f"not a successor numeral: {text!r}")
    return PeanoNumeral(depth)


def unary_to_positional(u: UnaryNumber, base: int) -> str:
    """Recursive chunking of the unary string into base-sized groups, one
    digit per group level."""
    if base < 2 or base > len(DIGITS):
        raise ValueError(f"base must be in 2..{len(DIGITS)}")
    n = u.count
    if n == 0:
        return "0"
    digits = []
    while n:
        digits.append(DIGITS[n % base])
        n //= base
    return "".join(reversed(digits))


def positional_to_unary(s: str, base: int) -> UnaryNumber:
    if base < 2 or base > len(DIGITS):
        raise ValueError(f"base must be in 2..{len(DIGITS)}")
    if not s:
        raise BadDigit("empty digit string")
    value = 0
    for ch in s:
        d = DIGITS.find(ch.upper())
        if d < 0 or d >= base:
            raise BadDigit(f"digit {ch!r} invalid in base {base}")
        value = value * base + d
        if value > UNARY_CAP:
            raise TooLarge(f"value exceeds cap {UNARY_CAP}")
    return UnaryNumber(value)


class BaseReport(Record):
    __slots__ = _fields = ("count", "base", "digits", "unary_symbols",
                           "positional_symbols")
    count: int
    base: int
    digits: str
    unary_symbols: int
    positional_symbols: int

    @property
    def ratio(self) -> float:
        """Positional symbols per unary symbol (smaller is tighter)."""
        if self.unary_symbols == 0:
            return 1.0
        return self.positional_symbols / self.unary_symbols


def base_report(u: UnaryNumber, base: int) -> BaseReport:
    digits = unary_to_positional(u, base)
    return BaseReport(u.count, base, digits, u.count, len(digits))


def round_half_away_from_zero(x: float, places: int = 1) -> float:
    return float(round_half_up(x, places))


class FallRow(Record):
    __slots__ = _fields = ("t", "s")
    t: int
    s: float


class FallReport(Record):
    """Distances fallen per second under constant gravity, plus the bit cost
    of the generating formula versus the written-out table."""

    __slots__ = _fields = ("g", "rows", "formula_bits", "table_bits")
    g: float
    rows: tuple[FallRow, ...]
    formula_bits: float
    table_bits: float


def _formula_symbols(g: float) -> list[str]:
    return tokenize(f"s = ( g * t ^ 2 ) / 2 ; g = {g}")


def _table_symbols(rows: Sequence[FallRow]) -> list[str]:
    out: list[str] = []
    for row in rows:
        out.extend(tokenize(f"{row.t} {row.s:.1f}"))
    return out


def newton_table(g: float, t_max: int) -> FallReport:
    """Distance fallen s = g t^2 / 2 for t = 0..t_max, rounded to one decimal
    (halves away from zero), with a formula-versus-table cost comparison."""
    if not math.isfinite(g):
        raise ValueError(f"g must be finite, got {g}")
    if g <= 0:
        raise ValueError("g must be positive")
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    rows: list[FallRow] = []
    for t in range(t_max + 1):
        s = g / 2.0 * t * t  # halving first is exact and cannot overflow early
        if math.isinf(s):
            raise TooLarge(f"the distance at t={t} overflows a float")
        rows.append(FallRow(t, round_half_away_from_zero(s, 1)))
    formula = _formula_symbols(g)
    table = _table_symbols(rows)
    alphabet = set(formula) | set(table)
    per_symbol = symbol_cost_bits(max(len(alphabet), 1))
    return FallReport(g, tuple(rows), len(formula) * per_symbol, len(table) * per_symbol)


# The ``sets``, ``unary``, ``peano``, ``base`` and ``newton`` commands:
# ``cli.main`` imports this module to run one, with the arguments its parser
# made.

def _set_arg(text: str) -> list[str]:
    return tokenize(text, "whitespace")


def _render_set(symbols) -> str:
    return "{" + ", ".join(symbols) + "}"


def cmd_sets(args) -> None:
    if args.op == "toset":
        print(_render_set(multiset_to_set(_set_arg(args.a))))
        return
    a, b = _set_arg(args.a), _set_arg(args.b or "")
    if args.op == "union":
        print(_render_set(set_union(a, b)))
    else:
        print(_render_set(set_intersection(a, b)))


def cmd_unary(args) -> None:
    op = args.op
    if op in ("add", "sub", "mul"):
        fn, label = {"add": (unary_add, "transfers"),
                     "sub": (unary_subtract, "removals"),
                     "mul": (unary_multiply, "add_iterations")}[op]
        result, trace = fn(UnaryNumber(args.a), UnaryNumber(args.b))
        head = f"result={result.count} {label}={trace.step_count}"
    elif op == "div":
        result, remainder, trace = unary_divide(UnaryNumber(args.a),
                                                UnaryNumber(args.b))
        head = (f"quotient={result.count} remainder={remainder.count} "
                f"subtract_iterations={trace.step_count}")
    elif op == "pow":
        result, trace = unary_power(UnaryNumber(args.a), args.b)
        head = f"result={result.count} multiply_iterations={trace.step_count}"
    elif op == "fact":
        result, trace = unary_factorial(args.a)
        head = f"result={result.count} steps={trace.step_count}"
    else:  # sum or prod, the only ops argparse leaves
        values = []
        for place, text in enumerate(args.terms.split(","), start=1):
            try:
                values.append(int(text))
            except ValueError:
                raise InputFormatError(f"--terms value {place} is not an "
                                       f"integer: {text!r}") from None
        count = args.hi - args.lo + 1
        if count > 0 and len(values) != count:
            raise InputFormatError(f"--terms has {len(values)} values for the "
                                   f"{count} indices {args.lo}..{args.hi}")
        terms = {i: v for i, v in zip(range(args.lo, args.hi + 1), values)}
        fn = bounded_sum if op == "sum" else bounded_product
        result, trace = fn(terms, args.lo, args.hi)
        head = f"result={result.count} iterations={trace.step_count}"
    print(head)
    print(f"unary={result.render()}")
    if args.trace:
        print(trace.dump())


def cmd_peano(args) -> None:
    for name, value in (("n", args.n), ("m", args.m)):
        if value is not None:
            at_least(value, name, 0)
    # both numerals are made before either is printed, so a second one
    # over the cap prints nothing
    p = to_peano(args.n)
    lines = [p.render()]
    if args.m is not None:
        q = to_peano(args.m)
        lines += [q.render(), f"shared_depth={peano_shared_depth(p, q)}"]
    print("\n".join(lines))


def _base_value(text: str) -> int:
    """The integer ``base`` reads from its value, as ``int()`` reads it.
    Text that spells no integer is an input error naming it; a digit string
    too long for ``int()`` to convert is a magnitude past the cap, unless
    only its leading zeros made it that long.  A negative one that long
    reads as -1, which ``UnaryNumber`` refuses as it refuses every negative."""
    try:
        return int(text)
    except ValueError:  # no integer, or more digits than int() converts
        spelled = re.fullmatch(r"\s*([+-]?)(\d+(?:_\d+)*)\s*", text)
        if spelled is None:
            raise InputFormatError(f"value is not an integer: {text!r}") from None
    sign, digits = spelled[1], spelled[2].replace("_", "").lstrip("0")
    if len(digits) > len(str(UNARY_CAP)):
        if sign == "-":
            return -1
        raise TooLarge(f"unary magnitude of {len(digits)} digits exceeds cap {UNARY_CAP}")
    return int(sign + (digits or "0"))


def cmd_base(args) -> None:
    if args.decode:
        u = positional_to_unary(args.value, args.base)
        print(f"count={u.count}")
        return
    u = UnaryNumber(_base_value(args.value))
    rep = base_report(u, args.base)
    print(f"digits={rep.digits} unary_symbols={rep.unary_symbols} "
          f"positional_symbols={rep.positional_symbols} "
          f"ratio={format_bits(rep.ratio)}")


def cmd_newton(args) -> RunReport:
    at_least(args.tmax, "--tmax", 0)
    rep = newton_table(args.g, args.tmax)
    for row in rep.rows:
        print(f"{row.t}\t{row.s:.1f}")
    print(f"formula_bits={format_bits(rep.formula_bits)} "
          f"table_bits={format_bits(rep.table_bits)}")
    return RunReport("newton", raw_bits=rep.table_bits,
                     encoded_bits=rep.formula_bits,
                     details={"g": rep.g,
                              "rows": [{"t": r.t, "s": r.s} for r in rep.rows]})
