"""Symbols, patterns, pattern stores, and the shared bit-cost model.

A symbol is a plain ``str``: an atomic mark, and two symbols match only when
their texts are the same.  ``check_symbol`` holds the one rule a symbol text
passes (a non-empty string with no whitespace), and it runs where text
enters the package: on one text alone, or through ``check_texts`` on a
batch, which ``are_symbols`` tests with one join and split, calling
``check_symbol`` only on the first bad one.  A record that holds symbols
(``SPPattern``, a run and a run list, a chunk stream, a table, a class
node, a fixed schema symbol) checks them when it is made, so a writer,
handed a record, checks nothing, and a reader checks only what the record
it builds does not: the chunk stream and runs readers check no symbol.
``tokenize`` and the grammar loader check nothing, since a split on
whitespace gives symbols by construction.

A pattern is what unification leaves: an id, symbols and a frequency.
Whether it plays New or Old in an alignment follows from where it sits:
the pattern being encoded is New, and the stored ones are Old.  A
``PatternStore`` holds patterns in the order it was given them: a grammar's
in file order, and a chunk dictionary's (see ``codecs``) in discovery
order.  ``is_count`` is the one count rule, and ``check_pattern`` holds a
pattern's field checks, for ``SPPattern`` and for the grammar loader alike.

A ``PatternStore`` costs its rows and its index.  A row is a pattern's
symbol text, its symbols joined by whitespace, and its frequency: a grammar
line's text as it stands, or ``" ".join(p.symbols)`` for a given pattern.
A store has one constructor, which takes patterns; ``parse_grammar`` makes
an empty store and gives it the grammar's rows.  The store makes the
``SPPattern`` only when the pattern is first read with ``get``;
``PatternStore.symbols`` reads a pattern's symbols without making it.
Every value a store derives is a cached property, made on first read and
kept.  The index, one postings list per text, is built on the first read
of ``PatternStore.holders`` or ``PatternStore.alphabet``, with one split of
each row, and is read only through those two: a chunk dictionary, which
reads neither, never builds it.  A search, and a chunk stream's price,
read the store's codes from ``PatternStore.codes``, and the codes read
``PatternStore.total_frequency``.

``Record`` is the base of every frozen record in the package (``SPPattern``,
the codecs' tokens, runs and schemas, ``alignment.Alignment``, and the
records of ``machines``, ``setnum`` and ``hierarchy``): slotted classes
whose ``__init__`` is made from their fields, equal by type and fields,
immutable and picklable, with a dataclass's repr, without ``dataclasses``.

Costs are fractional "ideal" bits throughout: a symbol over an alphabet of
size A costs log2(A) bits (1 bit for the degenerate A=1 alphabet), and a
stored pattern's code costs -log2(f/F) bits where f is its frequency and F
the store total.  The raw baseline is deliberately model-free (fixed-length,
no frequency weighting) so compression differences are reproducible.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import cached_property
from types import MappingProxyType

from .errors import DegenerateAlphabet, InputFormatError, UnknownPattern

TOKENIZE_MODES = ("whitespace", "chars")


def is_count(value) -> bool:
    """An integer count; ``True`` and ``False`` are not counts."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_symbol(text) -> str:
    """``text`` if it is a symbol: a non-empty string with no whitespace.
    Raises ``TypeError`` for a wrong type and ``ValueError`` otherwise."""
    if not isinstance(text, str):
        raise TypeError(f"symbol text must be a string, got {type(text).__name__}")
    if not text:
        raise ValueError("symbol text must be non-empty")
    if text.split() != [text]:
        raise ValueError(f"symbol text may not contain whitespace: {text!r}")
    return text


def are_symbols(texts: Sequence) -> bool:
    """Whether every one of ``texts`` is a symbol: one join and split test
    them all, exactly, since the split gives the texts back only if each is
    one symbol."""
    try:
        return " ".join(texts).split() == list(texts)
    except TypeError:  # a text that is not a string
        return False


def check_texts(texts: Sequence) -> None:
    """Raise as ``check_symbol`` does for the first of ``texts`` that is not
    a symbol, and call it for none when all are, as ``are_symbols`` tells."""
    if not are_symbols(texts):
        for text in texts:
            check_symbol(text)  # raises for the first bad one


class Record:
    """The base of the package's frozen records, in the place of a frozen
    dataclass: ``dataclasses`` imports ``inspect`` and ``ast``, a large
    share of the time a fresh CLI process takes to start.

    A subclass names its fields, in order, in ``_fields`` and in
    ``__slots__``, and may give defaults for trailing fields in a
    ``_defaults`` mapping.  Fields that its ``__post_init__`` works out
    from the others it names in ``_derived``.  Its ``__init__`` is made
    once, when the class is made, as ``collections.namedtuple`` makes its
    ``__new__``: one parameter per field that is not derived, each set with
    one ``object.__setattr__`` line, then a call to ``__post_init__`` when
    the class has checks to run or fields to work out.  Every record's
    constructor is made so; a class that names no ``_fields`` of its own
    keeps its parent's.  Two records are equal, and hash alike, when they
    are of the very same type and their fields are equal; the repr is a
    dataclass's.  A field can be neither set nor deleted.  Unpickling sets
    the fields as they were, as a dataclass's does, without running the
    checks again."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: Mapping[str, object] = {}
    _derived: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__:
            return
        given = [name for name in cls._fields if name not in cls._derived]
        params = ", ".join([f"{name}=_defaults[{name!r}]" if name in cls._defaults
                            else name for name in given])
        lines = [f"    _setattr(self, {name!r}, {name})\n" for name in given]
        if hasattr(cls, "__post_init__"):
            lines.append("    self.__post_init__()\n")
        namespace = {"__name__": cls.__module__, "_setattr": object.__setattr__,
                     "_defaults": cls._defaults}
        exec(f"def __init__(self, {params}):\n{''.join(lines)}", namespace)
        cls.__init__ = namespace["__init__"]
        # so that a call with wrong arguments names the class in its TypeError
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _unpickle, (type(self), self._values())


def _unpickle(cls: type, values: tuple) -> Record:
    record = object.__new__(cls)
    for name, value in zip(cls._fields, values):
        object.__setattr__(record, name, value)
    return record


class SPPattern(Record):
    """An ordered, non-empty sequence of symbols with an id and a frequency."""

    __slots__ = _fields = ("id", "symbols", "frequency")
    id: str
    symbols: tuple[str, ...]
    frequency: int
    _defaults = {"frequency": 1}

    def __post_init__(self):
        symbols = tuple(self.symbols)
        check_texts(symbols)
        check_pattern(self.id, symbols, self.frequency)
        object.__setattr__(self, "symbols", symbols)

    @classmethod
    def from_text(cls, id: str, text: str, *, frequency: int = 1,
                  mode: str = "whitespace") -> "SPPattern":
        return cls(id, tuple(tokenize(text, mode)), frequency)

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


def tokenize(text: str, mode: str = "whitespace") -> list[str]:
    """Split text into symbols: on whitespace runs, or one symbol per
    non-whitespace character.  Empty input yields an empty list.  Every
    token is a symbol by construction, so none is checked."""
    if mode not in TOKENIZE_MODES:
        raise ValueError(f"unknown tokenize mode {mode!r}")
    if mode == "whitespace":
        return text.split()
    return [ch for ch in text if not ch.isspace()]


def render(symbols: Iterable[str]) -> str:
    """Inverse of whitespace tokenization: the symbols joined by single spaces."""
    return " ".join(symbols)


# one stored pattern before it is made: its symbols joined by whitespace,
# and its frequency
_Row = tuple[str, int]


class PatternStore:
    """An immutable dictionary of patterns (a search's Old patterns, or a
    chunk dictionary's entries) with a derived alphabet, total frequency,
    code costs, and a symbol-to-pattern retrieval index: the postings, each
    text's list of the ids holding it, an id once per copy, in store order.
    Any pattern fits.  Ids and iteration keep the order the patterns were
    given in.

    A store has one constructor, which takes patterns and keeps each one
    as a row, its symbol text and frequency; ``parse_grammar`` makes an
    empty store and gives it a grammar's rows, none of them made.  ``get``
    makes a row's ``SPPattern`` on first read, from ``symbols`` and the
    row's frequency; a store built from patterns returns those very
    objects.  ``symbols`` splits a row without making the pattern.  Every
    value the store derives is a ``cached_property``, made on first read
    and kept: ``total_frequency``, ``codes``, ``alphabet`` and the postings
    (built with the alphabet, on the first read of ``holders`` or
    ``alphabet``).  ``holders`` takes a text, so it keeps its levels per
    text."""

    def __init__(self, patterns: Iterable[SPPattern] = ()):
        made: dict[str, SPPattern] = {}
        for p in patterns:
            if p.id in made:
                raise ValueError(f"duplicate pattern id {p.id!r}")
            made[p.id] = p
        self._made = made
        # id -> (symbol text, frequency); see ``parse_grammar`` for unmade rows
        self._rows: dict[str, _Row] = {pid: (" ".join(p.symbols), p.frequency)
                                       for pid, p in made.items()}
        self._holders: dict[str, tuple[tuple[str, ...], ...]] = {}

    @cached_property
    def total_frequency(self) -> int:
        """F, the stored frequencies' sum."""
        return sum(frequency for _, frequency in self._rows.values())

    @cached_property
    def codes(self) -> Mapping[str, float]:
        """Pattern id -> its code cost, ``code_cost_bits(f, F)``, for every
        stored pattern, in store order (read-only)."""
        total = self.total_frequency
        return MappingProxyType({pid: code_cost_bits(frequency, total)
                                 for pid, (_, frequency) in self._rows.items()})

    @cached_property
    def _postings(self) -> dict[str, list[str]]:
        """Each text's list of the ids holding it, an id once per copy, in
        store order: one split of every row, on the first read."""
        postings: defaultdict[str, list[str]] = defaultdict(list)
        for pid, (text, _) in self._rows.items():
            for symbol in text.split():
                postings[symbol].append(pid)
        return postings

    @cached_property
    def alphabet(self) -> frozenset[str]:
        """The texts the stored patterns hold."""
        return frozenset(self._postings)

    def get(self, pattern_id: str) -> SPPattern:
        pattern = self._made.get(pattern_id)
        if pattern is None:
            pattern = self._made[pattern_id] = SPPattern(
                pattern_id, self.symbols(pattern_id), self._rows[pattern_id][1])
        return pattern

    def symbols(self, pattern_id: str) -> tuple[str, ...]:
        """The pattern's symbols, without making its ``SPPattern``: the made
        pattern's, if ``get`` has made it, else a split of its row."""
        pattern = self._made.get(pattern_id)
        if pattern is not None:
            return pattern.symbols
        try:
            return tuple(self._rows[pattern_id][0].split())
        except KeyError:
            raise UnknownPattern(f"no pattern with id {pattern_id!r}") from None

    def ids(self) -> list[str]:
        return list(self._rows)

    def holders(self, text: str) -> tuple[tuple[str, ...], ...]:
        """Level c -> the ids, in store order, of the patterns holding more
        than c copies of ``text``, for each c below the most copies one
        pattern holds.  Made on the first request and kept: level 0 counts
        the text's postings, and each level filters the one before, so all
        of them together cost one pass over the postings."""
        levels = self._holders.get(text)
        if levels is None:
            counts = Counter(self._postings.get(text, ()))
            level, out = tuple(counts), []
            while level:
                out.append(level)
                level = tuple([pid for pid in level if counts[pid] > len(out)])
            levels = self._holders[text] = tuple(out)
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
    ratio = frequency / total_frequency
    if ratio == 0.0:  # f/F below the smallest float: log2 is exact on ints
        return math.log2(total_frequency) - math.log2(frequency)
    return -math.log2(ratio)


def raw_cost(pattern: SPPattern | Sequence[str], alphabet_size: int) -> float:
    """Length times per-symbol cost under the fixed-length baseline."""
    return len(pattern) * symbol_cost_bits(alphabet_size)


def code_cost(pattern_id: str, store: PatternStore) -> float:
    """The stored pattern's code cost, read from ``store.codes``."""
    try:
        return store.codes[pattern_id]
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

    A line's row is its symbol text as it stands, and its frequency.  The
    store splits each text once, to build its index when that is first
    read, at one postings append per token; no ``SPPattern`` is made,
    since the store makes a pattern when it is first read (see
    ``PatternStore``).  Tokens from
    ``str.split()`` are non-empty and hold no whitespace, so every one is a
    symbol and none is passed to ``check_symbol``.
    """
    rows: dict[str, _Row] = {}
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
            try:
                freq = int(fields[1])
            except ValueError:  # more digits than int() converts
                raise InputFormatError(f"line {lineno}: bad frequency of "
                                       f"{len(fields[1])} digits: too long") from None
        else:
            raise InputFormatError(f"line {lineno}: expected '<id> [<freq>]' before ':'")
        if pid in rows:
            raise InputFormatError(f"line {lineno}: duplicate pattern id {pid!r}")
        # the stripped text is empty exactly when the line has no symbols
        text = body.strip()
        try:
            check_pattern(pid, text, freq)
        except ValueError as exc:
            raise InputFormatError(f"line {lineno}: {exc}") from None
        rows[pid] = text, freq
    store = PatternStore()
    store._rows = rows  # unmade rows, which the store reads as its own
    return store
