"""``format_bits`` and ``round_half_up`` against the ``decimal`` rule in
``reporting_oracle``: the printed text must be exactly equal."""

import math
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reporting_oracle as oracle
from icmup.reporting import format_bits, round_half_up

# every finite double, by its bit pattern: subnormals, huge exponents and
# long mantissas included
raw = (st.integers(0, 2 ** 64 - 1)
       .map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
       .filter(math.isfinite))
# a short decimal with a 5 in the first place the rounding drops, at 1 or 3
# places: the halves that the rule rounds away from zero
halves = st.builds(lambda whole, kept, places: float(f"{whole}.{kept:0{places}d}5"),
                   st.integers(-10 ** 9, 10 ** 9), st.integers(0, 999),
                   st.sampled_from([1, 3])).filter(math.isfinite)
# negatives small enough to print as -0.000
negative_zeros = st.floats(-0.0005, 0.0, exclude_max=True)
extreme = (st.floats(1e299, 1e301) | st.floats(1e-301, 1e-299)).flatmap(
    lambda x: st.sampled_from([x, -x]))
finite = raw | halves | negative_zeros | extreme


@given(finite)
def test_format_bits_equals_decimal_rule(value):
    assert format_bits(value) == oracle.format_bits(value)


@given(finite)
def test_round_half_up_equals_decimal_rule(value):
    assert round_half_up(value, 1) == str(oracle.round_half_up(value, 1))


@pytest.mark.parametrize("value, text", [
    (0.0005, "0.001"), (-0.0005, "-0.001"), (-0.0004, "-0.000"), (-0.0, "0.000"),
    (2.6745, "2.675"), (5e-324, "0.000"), (1e16, "10000000000000000.000"),
])
def test_format_bits_examples(value, text):
    assert format_bits(value) == oracle.format_bits(value) == text


def test_not_finite():
    # NaN prints as the decimal rule printed it
    assert format_bits(math.nan) == oracle.format_bits(math.nan) == "NaN"
    # the decimal rule raised decimal.InvalidOperation; both are ArithmeticError
    for value in (math.inf, -math.inf):
        with pytest.raises(OverflowError):
            format_bits(value)
        with pytest.raises(ArithmeticError):
            oracle.format_bits(value)
