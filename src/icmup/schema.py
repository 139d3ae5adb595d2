"""Schema-plus-correction: a template of fixed symbols and slots, where an
instance is the template with one filler chosen per slot, sent as the
choices alone.

A ``Schema`` is a sequence of ``FixedSymbol`` and ``Slot`` elements, and a
slot holds its fillers, each an ``SPPattern`` under a code.
``schema_instantiate`` substitutes the chosen filler for each slot, and
``schema_encode`` recovers the choices from an instance.  No command runs
this module, so no command loads it.

Cost: ``schema_encode`` is a backtracking parse that keeps each (element,
position) state's result, so it tries each state's fillers once: polynomial
time, where the parse without the memo took time exponential in the slots.
It still takes one Python frame per element, so a schema of some thousands
of elements passes the recursion limit.
"""

from __future__ import annotations

from collections.abc import Mapping

from .errors import BadCorrection, NoSchemaMatch
from .patterns import Record, SPPattern, check_symbol


class FixedSymbol(Record):
    __slots__ = _fields = ("symbol",)
    symbol: str

    def __post_init__(self):
        check_symbol(self.symbol)


class Slot(Record):
    __slots__ = _fields = ("name", "fillers")
    name: str
    fillers: tuple[tuple[str, SPPattern], ...]  # (code, filler) pairs

    def __post_init__(self):
        codes = [c for c, _ in self.fillers]
        if len(set(codes)) != len(codes):
            raise ValueError(f"slot {self.name!r} has duplicate filler codes")
        bodies = [f.symbols for _, f in self.fillers]
        if len(set(bodies)) != len(bodies):
            raise ValueError(f"slot {self.name!r} has fillers with identical symbols")

    def filler(self, code: str) -> SPPattern:
        for c, f in self.fillers:
            if c == code:
                return f
        raise BadCorrection(f"slot {self.name!r} has no filler {code!r}")


SchemaElement = FixedSymbol | Slot


class Schema(Record):
    __slots__ = _fields = ("id", "elements")
    id: str
    elements: tuple[SchemaElement, ...]

    def __post_init__(self):
        names = [e.name for e in self.elements if isinstance(e, Slot)]
        if len(set(names)) != len(names):
            raise ValueError(f"schema {self.id!r} has duplicate slot names")

    @property
    def slot_names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.elements if isinstance(e, Slot))


def schema_instantiate(schema: Schema, corrections: Mapping[str, str]) -> SPPattern:
    """Substitute one filler per slot, positionally, around the fixed symbols."""
    unknown = set(corrections) - set(schema.slot_names)
    if unknown:
        raise BadCorrection(f"unknown slots: {sorted(unknown)}")
    symbols: list[str] = []
    chosen: list[str] = []
    for element in schema.elements:
        if isinstance(element, FixedSymbol):
            symbols.append(element.symbol)
        else:
            if element.name not in corrections:
                raise BadCorrection(f"slot {element.name!r} has no assignment")
            code = corrections[element.name]
            symbols.extend(element.filler(code).symbols)
            chosen.append(code)
    instance_id = f"{schema.id}({','.join(chosen)})"
    return SPPattern(instance_id, tuple(symbols))


def schema_encode(instance: SPPattern, schema: Schema) -> dict[str, str]:
    """Recover the filler code per slot from an instantiated pattern.

    Backtracking parse; when several fillers could match at a position the
    longest (then lexicographically first code) is preferred, so encoding
    inverts instantiation whenever the schema parses unambiguously.  A
    state's parse is a pure function of the state, so the memo returns the
    first parse the search without it finds (packrat parsing, Ford 2002).
    """
    texts = instance.symbols
    memo: dict[tuple[int, int], dict[str, str] | None] = {}

    def parse(elem_idx: int, pos: int) -> "dict[str, str] | None":
        if elem_idx == len(schema.elements):
            return {} if pos == len(texts) else None
        if (elem_idx, pos) in memo:
            return memo[elem_idx, pos]
        element = schema.elements[elem_idx]
        result = None
        if isinstance(element, FixedSymbol):
            if pos < len(texts) and texts[pos] == element.symbol:
                result = parse(elem_idx + 1, pos + 1)
        else:
            candidates = sorted(element.fillers,
                                key=lambda cf: (-len(cf[1]), cf[0]))
            for code, filler in candidates:
                body = filler.symbols
                if texts[pos:pos + len(body)] == body:
                    rest = parse(elem_idx + 1, pos + len(body))
                    if rest is not None:
                        result = {element.name: code, **rest}
                        break
        memo[elem_idx, pos] = result
        return result

    result = parse(0, 0)
    if result is None:
        raise NoSchemaMatch(f"instance does not match schema {schema.id!r}")
    return result
