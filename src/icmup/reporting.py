"""Run reports and deterministic number formatting for the CLI."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
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


def file_digest(path: str) -> str:
    import hashlib  # only a written report needs it

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


@dataclass
class RunReport:
    """Summary of one CLI run: its input files plus the cost accounting.

    The inputs are named by path, and ``write`` names each by its sha256
    too, so a run that writes no report reads no input twice."""

    command: str
    inputs: tuple[str, ...] = ()
    raw_bits: float = 0.0
    encoded_bits: float = 0.0
    details: dict = field(default_factory=dict)
    dictionary_bits: float | None = None  # set by codecs that send a dictionary

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
