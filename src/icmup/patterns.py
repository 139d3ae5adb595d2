"""Atomic symbols, patterns, pattern stores, and the shared bit-cost model.

A pattern is what unification leaves: an id, symbols and a frequency.  Chunk
dictionary entries are patterns too, and ``is_count`` is the one count rule.
``check_pattern`` holds a pattern's field checks, for ``SPPattern`` and for
the grammar loader alike.

A ``PatternStore`` loaded from a grammar costs its lines and its index: it
keeps each pattern as texts and a frequency and makes the ``SPPattern``, and
its new symbols, only when the pattern is first read.  A search reads the
store's codes from ``PatternStore.codes``, made once per store.

Costs are fractional "ideal" bits throughout: a symbol over an alphabet of
size A costs log2(A) bits (1 bit for the degenerate A=1 alphabet), and a
stored pattern's code costs -log2(f/F) bits where f is its frequency and F
the store total.  The raw baseline is deliberately model-free (fixed-length,
no frequency weighting) so compression differences are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DegenerateAlphabet, InputFormatError, UnknownPattern

TOKENIZE_MODES = ("whitespace", "chars")


def is_count(value) -> bool:
    """An integer count; ``True`` and ``False`` are not counts."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True, slots=True, order=True)
class SPSymbol:
    """One atomic token.  Two symbols are equal iff their texts are identical."""

    text: str

    def __post_init__(self):
        if not isinstance(self.text, str):
            raise TypeError(f"symbol text must be a string, got {type(self.text).__name__}")
        if not self.text:
            raise ValueError("symbol text must be non-empty")
        if self.text.split() != [self.text]:
            raise ValueError(f"symbol text may not contain whitespace: {self.text!r}")

    def __str__(self) -> str:
        return self.text


class PatternKind(Enum):
    NEW = "New"
    OLD = "Old"


@dataclass(frozen=True, slots=True)
class SPPattern:
    """An ordered, non-empty sequence of symbols with an id and a frequency."""

    id: str
    symbols: tuple[SPSymbol, ...]
    frequency: int = 1
    kind: PatternKind = PatternKind.OLD
    # the symbols' texts, made once: the kernel and the codecs read them
    texts: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_pattern(self.id, self.symbols, self.frequency)
        object.__setattr__(self, "symbols", tuple(self.symbols))
        object.__setattr__(self, "texts", tuple([s.text for s in self.symbols]))

    @classmethod
    def from_text(cls, id: str, text: str, *, frequency: int = 1,
                  kind: PatternKind = PatternKind.OLD,
                  mode: str = "whitespace") -> "SPPattern":
        return cls(id, tuple(tokenize(text, mode)), frequency, kind)

    def __len__(self) -> int:
        return len(self.symbols)

    def render(self) -> str:
        return render(self.symbols)


def check_pattern(id: str, symbols: Sequence, frequency: int) -> None:
    """The checks a pattern's fields pass, wherever the pattern is made:
    a non-empty string id, at least one symbol and a count of at least 1.
    Raises ``TypeError`` for a wrong type and ``ValueError`` otherwise."""
    if not isinstance(id, str):
        raise TypeError(f"pattern id {id!r} must be a string")
    if not id:
        raise ValueError("pattern id must be non-empty")
    if not symbols:
        raise ValueError(f"pattern {id!r} has no symbols")
    if not is_count(frequency):
        raise TypeError(f"pattern {id!r} frequency must be an integer")
    if frequency < 1:
        raise ValueError(f"pattern {id!r} frequency must be >= 1")


def intern_symbols(texts: Iterable[str], made: dict[str, SPSymbol]) -> tuple[SPSymbol, ...]:
    """The symbols for ``texts``, in order, validated once per distinct text.

    ``made`` maps each text already seen to its symbol and gains every new
    one; a parser passes the same dict for all its lines, so a repeated
    token costs one dict lookup and equal texts share one object."""
    out = []
    for text in texts:
        symbol = made.get(text)
        if symbol is None:
            symbol = made[text] = SPSymbol(text)
        out.append(symbol)
    return tuple(out)


def tokenize(text: str, mode: str = "whitespace") -> list[SPSymbol]:
    """Split text into symbols: on whitespace runs, or one symbol per
    non-whitespace character.  Empty input yields an empty list.  Each
    distinct token is validated into one symbol; a repeat costs one dict
    lookup."""
    if mode not in TOKENIZE_MODES:
        raise ValueError(f"unknown tokenize mode {mode!r}")
    if mode == "whitespace":
        return list(intern_symbols(text.split(), {}))
    return list(intern_symbols([ch for ch in text if not ch.isspace()], {}))


def render(symbols: Iterable[SPSymbol]) -> str:
    """Inverse of whitespace tokenization: single-space-joined symbol texts."""
    return " ".join(s.text for s in symbols)


# one stored pattern before it is made: its symbols' texts and its frequency
_Row = tuple[tuple[str, ...], int]


class PatternStore:
    """An immutable dictionary of Old patterns with a derived alphabet,
    total frequency, code costs, and a symbol-to-pattern retrieval index
    that also counts each symbol's occurrences in each pattern.

    The store keeps each pattern as its texts and frequency, and makes its
    ``SPPattern`` on the first ``get``; the symbols come from one table per
    store, one ``SPSymbol`` per distinct text, so made patterns share them.
    A store built from patterns returns those very objects.  The index's
    levels (``holders``) and the codes are derived when first asked for."""

    def __init__(self, patterns: Iterable[SPPattern] = ()):
        made: dict[str, SPPattern] = {}
        for p in patterns:
            if p.kind is not PatternKind.OLD:
                raise ValueError(f"store accepts Old patterns only, got {p.id!r}")
            if p.id in made:
                raise ValueError(f"duplicate pattern id {p.id!r}")
            made[p.id] = p
        self._load({pid: (p.texts, p.frequency) for pid, p in made.items()}, made)

    @classmethod
    def _from_rows(cls, rows: dict[str, _Row]) -> "PatternStore":
        """A store of patterns given as id -> (texts, frequency) rows, none
        of them made yet.  The rows must pass ``check_pattern``."""
        store = cls.__new__(cls)
        store._load(rows, {})
        return store

    def _load(self, rows: dict[str, _Row], made: dict[str, SPPattern]) -> None:
        index: dict[str, dict[str, int]] = {}
        total = 0
        for pid, (texts, frequency) in rows.items():
            total += frequency
            for text in texts:
                counts = index.get(text)
                if counts is None:
                    index[text] = {pid: 1}
                else:
                    counts[pid] = counts.get(pid, 0) + 1
        self._rows = rows
        self._made = made
        self._symbols: dict[str, SPSymbol] = {}
        self._index = index
        self._holders: dict[str, tuple[tuple[str, ...], ...]] = {}
        self._codes: dict[str, float] | None = None
        self.alphabet: frozenset[str] = frozenset(index)
        self.total_frequency: int = total

    def get(self, pattern_id: str) -> SPPattern:
        pattern = self._made.get(pattern_id)
        if pattern is None:
            try:
                texts, frequency = self._rows[pattern_id]
            except KeyError:
                raise UnknownPattern(f"no pattern with id {pattern_id!r}") from None
            pattern = self._made[pattern_id] = SPPattern(
                pattern_id, intern_symbols(texts, self._symbols), frequency)
        return pattern

    def ids(self) -> list[str]:
        return sorted(self._rows)

    def codes(self) -> Mapping[str, float]:
        """Pattern id -> its code cost, ``code_cost_bits(f, F)``, for every
        stored pattern (read-only).  Made on the first request and kept."""
        if self._codes is None:
            total = self.total_frequency
            self._codes = {pid: code_cost_bits(frequency, total)
                           for pid, (_, frequency) in self._rows.items()}
        return self._codes

    def occurrences(self, text: str) -> Mapping[str, int]:
        """Pattern id -> how many of its symbols are ``text``, for every
        stored pattern holding ``text`` (read-only)."""
        return self._index.get(text, {})

    def holders(self, text: str) -> tuple[tuple[str, ...], ...]:
        """Level c -> the ids of the patterns holding more than c copies of
        ``text``, for each c below the most copies one pattern holds.  Made
        from ``occurrences`` on the first request and kept."""
        levels = self._holders.get(text)
        if levels is None:
            counts = self.occurrences(text)
            levels = self._holders[text] = tuple(
                tuple([pid for pid, have in counts.items() if have > c])
                for c in range(max(counts.values(), default=0)))
        return levels

    def __contains__(self, pattern_id: str) -> bool:
        return pattern_id in self._rows

    def __iter__(self) -> Iterator[SPPattern]:
        for pid in self.ids():
            yield self.get(pid)

    def __len__(self) -> int:
        return len(self._rows)


def symbol_cost_bits(alphabet_size: int) -> float:
    """Fixed-length cost of one symbol: log2(A) bits, floored at 1 bit for A=1."""
    if alphabet_size <= 0:
        raise DegenerateAlphabet("alphabet size must be >= 1")
    if alphabet_size == 1:
        return 1.0
    return math.log2(alphabet_size)


def code_cost_bits(frequency: int, total_frequency: int) -> float:
    """Ideal code length -log2(f/F) for a pattern of frequency f in a store
    totalling F.  Zero iff the pattern is the store's only mass."""
    if frequency < 1 or total_frequency < frequency:
        raise ValueError("need 1 <= frequency <= total_frequency")
    return -math.log2(frequency / total_frequency)


def raw_cost(pattern: SPPattern | Sequence[SPSymbol], alphabet_size: int) -> float:
    """Length times per-symbol cost under the fixed-length baseline."""
    return len(pattern) * symbol_cost_bits(alphabet_size)


def code_cost(pattern_id: str, store: PatternStore) -> float:
    """The stored pattern's code cost, read from ``store.codes()``."""
    try:
        return store.codes()[pattern_id]
    except KeyError:
        raise UnknownPattern(f"no pattern with id {pattern_id!r}") from None


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, stripped line)`` for every line of ``text`` that
    is neither blank nor a ``#`` comment.  Numbers count every line of the
    file from 1, so a parser's error cites the line an editor shows."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, stripped


def parse_grammar(text: str) -> PatternStore:
    """Parse the grammar file format, one pattern per line:

        PATTERN <id> <freq>: <sym> <sym> ...

    ``<freq>`` is ASCII digits and may be omitted (defaults to 1).  Lines
    starting with ``#`` and blank lines are ignored.  Duplicate ids are a
    load error, and so is a line that fails ``check_pattern``.

    Loading costs one dict lookup per token, to share one string per
    distinct text, plus the store's index; it makes no ``SPPattern`` and no
    ``SPSymbol``.  The store makes a pattern when it is first read (see
    ``PatternStore``).  Tokens from ``str.split()`` are non-empty and hold
    no whitespace, so every one passes ``SPSymbol``'s rule and a symbol
    made later cannot fail.
    """
    rows: dict[str, _Row] = {}
    made: dict[str, str] = {}
    for lineno, stripped in content_lines(text):
        head, sep, body = stripped.partition(":")
        words = head.split()
        if not words or words[0] != "PATTERN":
            raise InputFormatError(f"line {lineno}: expected 'PATTERN', got {stripped.split()[0]!r}")
        if not sep:
            raise InputFormatError(f"line {lineno}: missing ':' separator")
        fields = words[1:]
        if len(fields) == 1:
            pid, freq = fields[0], 1
        elif len(fields) == 2:
            pid = fields[0]
            if not (fields[1].isascii() and fields[1].isdigit()):
                raise InputFormatError(f"line {lineno}: bad frequency {fields[1]!r}")
            freq = int(fields[1])
        else:
            raise InputFormatError(f"line {lineno}: expected '<id> [<freq>]' before ':'")
        if pid in rows:
            raise InputFormatError(f"line {lineno}: duplicate pattern id {pid!r}")
        tokens = body.split()
        # via a list: tuple() of an iterator grows its tuple by resizing,
        # which is slower and, over repeated loads, raised peak memory
        texts = tuple(list(map(made.setdefault, tokens, tokens)))
        try:
            check_pattern(pid, texts, freq)
        except ValueError as exc:
            raise InputFormatError(f"line {lineno}: {exc}") from None
        rows[pid] = texts, freq
    return PatternStore._from_rows(rows)
