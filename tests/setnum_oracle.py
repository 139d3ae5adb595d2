"""Reference unary arithmetic: the original eager trace builders, kept
verbatim as the oracle.  Every operation in ``icmup.setnum`` must give the
same result, refusal, ``operation``, ``step_count``, ``steps`` and ``dump()``.

Each builder makes its whole trace before it returns, so use it on small
operands only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from icmup.errors import DivisionByZero, Indeterminate, TooLarge, Underflow
from icmup.setnum import UNARY_CAP, TraceStep, UnaryNumber, _check_terms


@dataclass(frozen=True)
class OperationTrace:
    operation: str
    steps: tuple[TraceStep, ...]

    @property
    def step_count(self) -> int:
        return len(self.steps)

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


def unary_add(a: UnaryNumber, b: UnaryNumber) -> tuple[UnaryNumber, OperationTrace]:
    """a + b as b single-digit transfers onto a."""
    result = UnaryNumber(a.count + b.count)
    return result, OperationTrace("add", _transfers(b.count))


def unary_subtract(a: UnaryNumber,
                   b: UnaryNumber) -> tuple[UnaryNumber, OperationTrace]:
    """a - b as b digit removals; naturals only."""
    if b.count > a.count:
        raise Underflow(f"cannot subtract {b.count} from {a.count}")
    result = UnaryNumber(a.count - b.count)
    return result, OperationTrace("subtract", (_REMOVE,) * b.count)


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
            OperationTrace("multiply", _additions(a.count, b.count)))


def unary_divide(a: UnaryNumber, b: UnaryNumber
                 ) -> tuple[UnaryNumber, UnaryNumber, OperationTrace]:
    """a / b as repeated subtraction; quotient counts the iterations."""
    if b.count == 0:
        raise DivisionByZero("division by zero")
    steps = []
    remainder = a.count
    while remainder >= b.count:
        steps.append(TraceStep("subtract-iteration",
                               f"subtract {b.count} from {remainder}",
                               (_REMOVE,) * b.count))
        remainder -= b.count
    return (UnaryNumber(len(steps)), UnaryNumber(remainder),
            OperationTrace("divide", tuple(steps)))


def unary_power(a: UnaryNumber, k: int) -> tuple[UnaryNumber, OperationTrace]:
    """a^k as k multiplications starting from one: repetition on three levels
    (power -> multiply -> add -> transfer).  k counts the multiplications, so
    it is a unary number too, capped like any other."""
    if a.count == 0 and k == 0:
        raise Indeterminate("0^0 is undefined here")
    UnaryNumber(k)  # a natural within the cap, or it raises
    steps = []
    acc = 1
    for _ in range(k):
        if acc * a.count > UNARY_CAP:
            raise TooLarge(f"power {a.count}^{k} exceeds cap {UNARY_CAP}")
        steps.append(TraceStep("multiply-iteration",
                               f"multiply {acc} by {a.count}",
                               _additions(acc, a.count)))
        acc *= a.count
    return UnaryNumber(acc), OperationTrace("power", tuple(steps))


def unary_factorial(n: int) -> tuple[UnaryNumber, OperationTrace]:
    """n! by a descending multiply-then-subtract loop."""
    if n < 0:
        raise ValueError("factorial needs a natural number")
    steps = []
    acc = 1
    m = n
    while m >= 1:
        if acc * m > UNARY_CAP:
            raise TooLarge(f"{n}! exceeds cap {UNARY_CAP}")
        steps.append(TraceStep("multiply-iteration",
                               f"multiply {acc} by {m}", _additions(acc, m)))
        acc *= m
        steps.append(TraceStep("subtract-iteration",
                               f"count down {m} to {m - 1}", (_REMOVE,)))
        m -= 1
    return UnaryNumber(acc), OperationTrace("factorial", tuple(steps))


def bounded_sum(terms: Mapping[int, int], lo: int,
                hi: int) -> tuple[UnaryNumber, OperationTrace]:
    """Fold addition over the index range; each iteration logs its term."""
    _check_terms(terms, lo, hi)
    steps = []
    acc = 0
    for i in range(lo, hi + 1):
        term = terms[i]
        if acc + term > UNARY_CAP:
            raise TooLarge(f"sum exceeds cap {UNARY_CAP}")
        steps.append(TraceStep("add-iteration",
                               f"i={i}: add term {term} to {acc}",
                               _transfers(term)))
        acc += term
    return UnaryNumber(acc), OperationTrace("bounded-sum", tuple(steps))


def bounded_product(terms: Mapping[int, int], lo: int,
                    hi: int) -> tuple[UnaryNumber, OperationTrace]:
    """Fold multiplication over the index range, starting from one."""
    _check_terms(terms, lo, hi)
    steps = []
    acc = 1
    for i in range(lo, hi + 1):
        term = terms[i]
        if acc * term > UNARY_CAP:
            raise TooLarge(f"product exceeds cap {UNARY_CAP}")
        steps.append(TraceStep("multiply-iteration",
                               f"i={i}: multiply {acc} by term {term}",
                               _additions(acc, term)))
        acc *= term
    return UnaryNumber(acc), OperationTrace("bounded-product", tuple(steps))
