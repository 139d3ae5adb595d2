"""Run reports and deterministic number formatting for the CLI.

A bit figure prints as the digits of ``str(value)`` rounded to three
decimals, halves away from zero.  ``str`` of a float is the shortest
decimal that reads back as the same float (Steele & White 1990; Gay
1990), so rounding those digits treats a value as the decimal a reader
sees: ``round_half_up(2.675, 2)`` is ``2.68`` although the float stored
is a little below 2.675.  The rounding is done on integers: it equals the
``decimal`` module's ``quantize`` under ``ROUND_HALF_UP`` of
``Decimal(str(value))``, which is exact for these digits, without loading
``decimal``.  ``json`` and ``hashlib`` load only when a report is written.
"""

from __future__ import annotations


def round_half_up(value: float, places: int) -> str:
    """The decimal ``str(value)`` rounded to ``places >= 0`` decimals,
    halves away from zero, as text: exact for every finite float.  NaN
    gives ``NaN``; an infinity raises ``OverflowError``, as ``int`` does."""
    text = str(value)
    if text == "nan":
        return "NaN"  # what the Decimal rule printed
    if text in ("inf", "-inf"):
        raise OverflowError(f"cannot round {text} to {places} decimals")
    sign = "-" if text[0] == "-" else ""
    mantissa, _, exponent = text.lstrip("-").partition("e")
    whole, _, fraction = mantissa.partition(".")
    # value * 10**places == digits * 10**shift
    digits = int(whole + fraction)
    shift = int(exponent or 0) - len(fraction) + places
    if shift >= 0:
        units = digits * 10 ** shift
    else:
        scale = 10 ** -shift
        units, rest = divmod(digits, scale)
        units += 2 * rest >= scale  # a half or more rounds the magnitude up
    padded = str(units).rjust(places + 1, "0")
    return f"{sign}{padded[:-places]}.{padded[-places:]}" if places else sign + padded


def format_bits(value: float) -> str:
    """Three decimals, halves rounded away from zero; stable across runs."""
    return round_half_up(float(value) + 0.0, 3)  # + 0.0 normalises -0.0


def file_digest(path: str) -> str:
    import hashlib  # only a written report needs it

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


class RunReport:
    """Summary of one CLI run: its input files plus the cost accounting.
    A command fills it in as it runs, so its fields can be set; two reports
    are equal when their fields are.

    The inputs are named by path, and ``write`` names each by its sha256
    too, so a run that writes no report reads no input twice."""

    def __init__(self, command: str, inputs: tuple[str, ...] = (),
                 raw_bits: float = 0.0, encoded_bits: float = 0.0,
                 details: dict | None = None,
                 dictionary_bits: float | None = None):
        self.command = command
        self.inputs = inputs
        self.raw_bits = raw_bits
        self.encoded_bits = encoded_bits
        self.details = {} if details is None else details
        # set by codecs that send a dictionary
        self.dictionary_bits = dictionary_bits

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    @property
    def ratio(self) -> float:
        if self.raw_bits > 0:
            return self.encoded_bits / self.raw_bits
        return 1.0

    @property
    def total_bits(self) -> float:
        """Dictionary plus encoded stream: everything a decoder needs."""
        return self.encoded_bits + (self.dictionary_bits or 0.0)

    def to_json(self, digests: dict[str, str]) -> str:
        import json  # only a written report needs it

        doc = {
            "command": self.command,
            "inputs": digests,
            "raw_bits": self.raw_bits,
            "encoded_bits": self.encoded_bits,
            "ratio": self.ratio,
            "details": self.details,
        }
        if self.dictionary_bits is not None:
            doc["dictionary_bits"] = self.dictionary_bits
            doc["total_bits"] = self.total_bits
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def write(self, path: str) -> None:
        # hashed before the report is opened, which may truncate an input
        text = self.to_json({name: file_digest(name) for name in self.inputs})
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
