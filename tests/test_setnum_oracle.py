"""The lazy unary traces against the eager builders in ``setnum_oracle``:
results, refusals, ``operation``, ``step_count``, ``steps`` and ``dump()``
must be exactly equal."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import setnum_oracle as oracle
from icmup import setnum
from icmup.errors import IcmupError
from icmup.setnum import UNARY_CAP, UnaryNumber

small = st.integers(0, 12)
# a small step from these crosses the cap
at_cap = st.integers(UNARY_CAP - 12, UNARY_CAP)
over_half = st.integers(UNARY_CAP // 2 + 1, UNARY_CAP)
past_cap = st.sampled_from([UNARY_CAP + 1, 2 * UNARY_CAP, 10 ** 9])


def unary_pair(pairs):
    return pairs.map(lambda ab: (UnaryNumber(ab[0]), UnaryNumber(ab[1])))


def ranged(term_lists):
    return st.tuples(term_lists, st.integers(-3, 3)).map(
        lambda tl: ({tl[1] + j: t for j, t in enumerate(tl[0])},
                    tl[1], tl[1] + len(tl[0]) - 1))


# Each strategy keeps the traces that succeed small (the oracle builds them
# whole) and reaches past the cap where the operation can refuse.
OPERANDS = {
    "unary_add": unary_pair(st.tuples(small | at_cap, small)),
    "unary_subtract": unary_pair(st.tuples(small | at_cap, small)
                                 | st.tuples(small, at_cap)),
    "unary_multiply": unary_pair(st.tuples(small, small)
                                 | st.tuples(at_cap, st.integers(2, 12))
                                 | st.tuples(st.integers(2, 12), at_cap)),
    "unary_divide": unary_pair(st.tuples(small, small) | st.tuples(small, at_cap)),
    "unary_power": st.tuples(st.integers(0, 6), st.integers(0, 6))
                   .map(lambda ak: (UnaryNumber(ak[0]), ak[1]))
                   | st.tuples(st.integers(2, 12).map(UnaryNumber),
                               st.integers(20, 40) | past_cap),
    "unary_factorial": (st.integers(0, 8) | st.integers(10, 20) | past_cap)
                       .map(lambda n: (n,)),
    "bounded_sum": ranged(st.lists(small, min_size=1, max_size=5)
                          | st.tuples(st.lists(small, max_size=2), over_half,
                                      over_half, st.lists(small, max_size=2))
                          .map(lambda parts: parts[0] + [parts[1], parts[2]] + parts[3])),
    "bounded_product": ranged(st.lists(st.integers(0, 6), min_size=1, max_size=4)
                              | st.lists(st.integers(2, 12), min_size=20,
                                         max_size=24)),
}


def outcome(module, name, args):
    try:
        *numbers, trace = getattr(module, name)(*args)
    except IcmupError as exc:
        return type(exc), str(exc)
    return ([n.count for n in numbers], trace.operation, trace.step_count,
            len(trace.steps), trace.dump())


@pytest.mark.parametrize("name", sorted(OPERANDS))
@given(data=st.data())
def test_operations_equal_oracle(name, data):
    args = data.draw(OPERANDS[name])
    assert outcome(setnum, name, args) == outcome(oracle, name, args)
