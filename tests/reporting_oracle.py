"""Reference rounding: the ``decimal`` rule ``icmup.reporting`` used before
it rounded on integers, kept as the oracle.  ``round_half_up`` and
``format_bits`` must give the same text for every finite float."""

from decimal import ROUND_HALF_UP, Context, Decimal

# Digits enough to hold any finite float to a few decimals exactly: the
# largest has 309 digits before the point.
_EXACT = Context(prec=400, rounding=ROUND_HALF_UP)


def round_half_up(value: float, places: int) -> Decimal:
    """The decimal ``str(value)`` rounded to ``places`` decimals, halves away
    from zero: exact for every finite float."""
    return Decimal(str(value)).quantize(Decimal(1).scaleb(-places, _EXACT), context=_EXACT)


def format_bits(value: float) -> str:
    """Three decimals, halves rounded away from zero; stable across runs."""
    return str(round_half_up(float(value) + 0.0, 3))  # + 0.0 normalises -0.0
