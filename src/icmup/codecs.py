"""Executable codecs: repeated-chunk unification, chunking-with-codes,
run-length coding, and schema-plus-correction.

Chunk discovery and encoding are deterministic by construction: occurrence
counting is non-overlapping and left-to-right, discovery is greedy
longest-first, and encoding takes the longest dictionary match at each
position (ties broken by discovery order).  Chunk and run codecs are
lossless; plain unification deliberately is not (it discards positions).

Cost, for N symbols: the coders spell the symbols as a string, one
character per distinct symbol, so an n-gram is a substring.
``rle_encode`` makes O(N log N) probes (for each block length b, only the
positions 0, b, 2b, ...), each extended by slice compares.
``discover_chunks`` costs O(N * L), with L the longest repeat: one pass
over the unclaimed windows per chunk length.  ``chunk_encode`` makes one
table lookup per distinct chunk length at each position.  The stream and
runs writers give the text of ``json.dumps(doc, indent=2)`` without its
pure-Python encoder: one C escape (``json.dumps``) per distinct text and
code, then one dict lookup per symbol and one join per entry.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from operator import eq
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import (BadCorrection, InputFormatError, NoSchemaMatch,
                     NotDecodable, NotPresent, UnknownCode)
from .patterns import (SPPattern, SPSymbol, code_cost_bits, intern_symbols,
                       symbol_cost_bits)


def _is_int(count) -> bool:
    """An integer count; ``True`` and ``False`` are not counts."""
    return isinstance(count, int) and not isinstance(count, bool)


@dataclass(frozen=True, slots=True)
class ChunkEntry:
    code: str
    chunk: SPPattern
    count: int

    def __post_init__(self):
        if not _is_int(self.count):
            raise TypeError(f"chunk {self.code!r} count must be an integer")
        if self.count < 2:
            raise ValueError(f"chunk {self.code!r} must occur at least twice")
        if len(self.chunk) < 2:
            raise ValueError(f"chunk {self.code!r} must span at least two symbols")


class ChunkDictionary:
    """Discovered chunks with their codes and occurrence counts."""

    def __init__(self, entries: Sequence[ChunkEntry] = ()):
        self.entries = tuple(entries)
        by_code: dict[str, ChunkEntry] = {}
        for e in self.entries:
            if e.code in by_code:
                raise ValueError(f"duplicate chunk code {e.code!r}")
            by_code[e.code] = e
        self._by_code = by_code

    def get(self, code: str) -> ChunkEntry:
        try:
            return self._by_code[code]
        except KeyError:
            raise UnknownCode(f"no chunk with code {code!r}") from None

    def __contains__(self, code: str) -> bool:
        return code in self._by_code

    def __iter__(self) -> Iterator[ChunkEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True, slots=True)
class CodeRef:
    code: str


@dataclass(frozen=True, slots=True)
class Literal:
    symbol: SPSymbol


Token = Union[CodeRef, Literal]


@dataclass(frozen=True)
class EncodedStream:
    dictionary: ChunkDictionary
    tokens: tuple[Token, ...]


def _spell(texts: Iterable[str], letters: dict[str, str]) -> str:
    """Spell symbol texts as one string, one character per distinct text.

    ``letters`` maps texts to characters and grows with every new text, so
    strings spelled with the same map compare like the symbol sequences.
    """
    return "".join([letters.setdefault(t, chr(len(letters))) for t in texts])


def expected_count(gram: Sequence[str], corpus_freq: Mapping[str, int],
                   corpus_len: int) -> float:
    """Expected occurrences of the n-gram under a zero-order symbol model."""
    n = len(gram)
    if corpus_len < n:
        return 0.0
    p = 1.0
    for t in gram:
        p *= corpus_freq.get(t, 0) / corpus_len
    return (corpus_len - n + 1) * p


def _windows(s: str, starts: Sequence[int], n: int) -> list[str]:
    """The length-``n`` substrings of ``s`` at ``starts``."""
    return list(map(s.__getitem__, map(slice, starts, map(n.__add__, starts))))


def _has_repeat(s: str, n: int) -> bool:
    # a short period repeats within the first few windows: look there first
    windows = len(s) - n + 1
    return any(len(set(_windows(s, range(k), n))) < k
               for k in (min(64, windows), windows))


def _longest_repeat(s: str, shortest: int) -> int:
    """Largest n <= len/2 at which some n-gram still occurs twice (counting
    overlaps), or ``shortest - 1`` if none does; an upper bound for useful
    chunk lengths.  A repeated n-gram has a repeated (n-1)-gram, so the
    search gallops up from ``shortest`` and then bisects."""
    top = len(s) // 2
    good, n = shortest - 1, shortest
    while n <= top and _has_repeat(s, n):
        good, n = n, 2 * n
    bad = min(n, top + 1)
    while bad - good > 1:
        mid = (good + bad) // 2
        if _has_repeat(s, mid):
            good = mid
        else:
            bad = mid
    return good


def discover_chunks(corpus: Sequence[SPSymbol], min_len: int = 2,
                    min_count: int = 2) -> ChunkDictionary:
    """Find maximal repeated contiguous chunks worth a dictionary entry.

    A chunk is kept when its non-overlapping occurrence count is at least
    ``min_count`` and exceeds the count expected by chance under a zero-order
    model of the corpus.  Search is greedy longest-first; accepted
    occurrences are claimed so shorter chunks cannot reuse their cells.
    Within one length, grams are tried in the order of their first unclaimed
    window, re-checking claims as cells get claimed.  Codes are assigned
    ``w1, w2, ...`` in discovery order.  Discovery is single-pass: the
    residue is not re-scanned for second-order chunks built out of codes.
    """
    if min_len < 2 or min_count < 2:
        raise ValueError("min_len and min_count must both be >= 2")
    texts = [s.text for s in corpus]
    s = _spell(texts, {})
    length = len(s)
    freq = Counter(texts)
    claimed = bytearray(length)
    entries: list[ChunkEntry] = []
    for n in range(_longest_repeat(s, min_len), min_len - 1, -1):
        free = bytes(n)
        starts: list[int] = []  # windows that touch no claimed cell
        a = claimed.find(free)
        while a >= 0:
            b = claimed.find(1, a)
            b = length if b < 0 else b
            starts.extend(range(a, b - n + 1))
            a = claimed.find(free, b)
        if not starts:
            continue
        grams = _windows(s, starts, n)
        # overlap-counting totals bound the non-overlapping counts from above
        counts = Counter(grams)
        if max(counts.values()) < min_count:
            continue
        candidates = list(compress(zip(starts, grams), map(
            min_count.__le__, map(counts.__getitem__, grams))))
        where: dict[str, list[int]] = {}
        for p, g in candidates:
            where.setdefault(g, []).append(p)
        decided: set[str] = set()
        for p, g in candidates:
            if g in decided or claimed.find(1, p, p + n) >= 0:
                continue
            decided.add(g)
            occs: list[int] = []
            for q in where[g]:
                if (not occs or q >= occs[-1] + n) and claimed.find(1, q, q + n) < 0:
                    occs.append(q)
            if (len(occs) >= min_count
                    and len(occs) > expected_count(texts[p:p + n], freq, length)):
                code = f"w{len(entries) + 1}"
                chunk = SPPattern(code, tuple(corpus[p:p + n]))
                entries.append(ChunkEntry(code, chunk, len(occs)))
                for q in occs:
                    claimed[q:q + n] = b"\x01" * n
    return ChunkDictionary(entries)


def unify_basic(corpus: Sequence[SPSymbol],
                chunk: SPPattern) -> tuple[SPPattern, list[SPSymbol]]:
    """Merge every occurrence of ``chunk`` into one pattern carrying the count.

    Lossy on purpose: the residue no longer records where the occurrences
    were.  Occurrence counting is non-overlapping, left to right.
    """
    gram = chunk.texts
    n = len(gram)
    residue: list[SPSymbol] = []
    count = 0
    pos = 0
    while pos < len(corpus):
        window = tuple(s.text for s in corpus[pos:pos + n])
        if window == gram:
            count += 1
            pos += n
        else:
            residue.append(corpus[pos])
            pos += 1
    if count == 0:
        raise NotPresent(f"chunk {chunk.id!r} does not occur in the corpus")
    unified = SPPattern(chunk.id, chunk.symbols, frequency=count)
    return unified, residue


def chunk_encode(corpus: Sequence[SPSymbol],
                 dictionary: ChunkDictionary) -> EncodedStream:
    """Replace chunk occurrences by code references, longest match first;
    among chunks with the same symbols the first in discovery order wins."""
    letters: dict[str, str] = {}
    s = _spell((sym.text for sym in corpus), letters)
    by_length: dict[int, dict[str, str]] = {}
    for entry in dictionary:
        gram = _spell(entry.chunk.texts, letters)
        by_length.setdefault(len(gram), {}).setdefault(gram, entry.code)
    tables = sorted(by_length.items(), reverse=True)
    tokens: list[Token] = []
    pos = 0
    while pos < len(s):
        for n, codes in tables:
            code = codes.get(s[pos:pos + n])
            if code is not None:
                tokens.append(CodeRef(code))
                pos += n
                break
        else:
            tokens.append(Literal(corpus[pos]))
            pos += 1
    return EncodedStream(dictionary, tuple(tokens))


def chunk_decode(stream: EncodedStream) -> list[SPSymbol]:
    out: list[SPSymbol] = []
    for tok in stream.tokens:
        if isinstance(tok, CodeRef):
            out.extend(stream.dictionary.get(tok.code).chunk.symbols)
        else:
            out.append(tok.symbol)
    return out


def encoded_cost_bits(stream: EncodedStream, alphabet_size: int) -> float:
    """Fractional-bit cost of a stream: code costs for references (dictionary
    counts as frequencies) plus fixed-length costs for literals."""
    total_freq = sum(e.count for e in stream.dictionary)
    cost = 0.0
    per_symbol = symbol_cost_bits(alphabet_size) if stream.tokens else 0.0
    for tok in stream.tokens:
        if isinstance(tok, CodeRef):
            cost += code_cost_bits(stream.dictionary.get(tok.code).count, total_freq)
        else:
            cost += per_symbol
    return cost


def dictionary_cost_bits(dictionary: ChunkDictionary, alphabet_size: int) -> float:
    """Cost of sending the dictionary itself, the first part of a two-part
    code: each chunk's symbols at fixed length plus one symbol's worth to end
    the entry, so sum((len(chunk) + 1) * log2(A)).  Mirrors ``rle_cost_bits``."""
    return symbol_cost_bits(alphabet_size) * sum(len(e.chunk) + 1 for e in dictionary)


class Unbounded:
    """Display-only repetition marker: the run repeats, end unstated."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Unbounded"


UNBOUNDED = Unbounded()


@dataclass(frozen=True)
class Run:
    pattern: SPPattern
    count: "int | Unbounded"

    def __post_init__(self):
        if self.count is not UNBOUNDED and not _is_int(self.count):
            raise TypeError("run count must be an integer or UNBOUNDED")
        if self.count is not UNBOUNDED and self.count < 1:
            raise ValueError("run count must be >= 1")


def _lce(s: str, i: int, j: int, limit: int) -> int:
    """Length of the common prefix of ``s[i:]`` and ``s[j:]``, at most
    ``limit``: galloping slice compares, then bisection of the block that
    differs."""
    n, step = 0, 1
    while n < limit:
        m = min(step, limit - n)
        if s[i + n:i + n + m] != s[j + n:j + n + m]:
            lo, hi = n, n + m  # the prefix up to lo matches; a mismatch is before hi
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if s[i + lo:i + mid] == s[j + lo:j + mid]:
                    lo = mid
                else:
                    hi = mid
            return lo
        n += m
        step *= 2
    return n


def rle_encode(seq: Sequence[SPSymbol]) -> list[Run]:
    """Detect immediately repeated blocks, maximal munch.

    At each position the candidate block maximises the munched span
    (block length x repeat count); span ties go to the longest block, then
    the greatest count.  Positions with no repeated block become single-symbol
    runs of count 1.

    A block of length b repeats at i exactly when ``s[k] == s[k + b]`` for
    every k in [i, i + b).  Such a stretch covers a multiple of b, so for
    each b only the positions 0, b, 2b, ... are probed, and a matching probe
    is extended both ways to its maximal stretch [lo, hi).  Inside it the
    block at i repeats ``1 + (hi - i) // b`` times.
    """
    s = _spell((sym.text for sym in seq), {})
    r = s[::-1]
    length = len(s)
    stretches: list[tuple[int, int, int]] = []  # (lo, hi, b), hi - lo >= b
    for b in range(1, length // 2 + 1):
        probes = range(0, length - b, b)
        hi = 0
        for j in compress(probes, map(eq, s[:length - b:b], s[b::b])):
            if j < hi:
                continue  # inside the stretch just found
            lo = j - _lce(r, length - j, length - j - b, min(b - 1, j))
            hi = j + _lce(s, j, j + b, length - b - j)
            if hi - lo >= b:
                stretches.append((lo, hi, b))
    stretches.sort()
    runs: list[Run] = []
    i = 0
    k = 0
    while i < length:
        # each stretch is weighed once: the munch from i ends past every
        # stretch that is still live here
        best = (1, 1, 1)  # (span, block_len, count)
        while k < len(stretches) and stretches[k][0] <= i:
            _, hi, b = stretches[k]
            k += 1
            if hi - i >= b:
                count = 1 + (hi - i) // b
                best = max(best, (b * count, b, count))
        _, block_len, count = best
        pattern = SPPattern(f"r{len(runs) + 1}", tuple(seq[i:i + block_len]))
        runs.append(Run(pattern, count))
        i += block_len * count
    return runs


def rle_decode(runs: Sequence[Run]) -> list[SPSymbol]:
    out: list[SPSymbol] = []
    for run in runs:
        if not isinstance(run.count, int):
            raise NotDecodable(f"run {run.pattern.id!r} has an unbounded count")
        out.extend(run.pattern.symbols * run.count)
    return out


@dataclass(frozen=True, slots=True)
class FixedSymbol:
    symbol: SPSymbol


@dataclass(frozen=True)
class Slot:
    name: str
    fillers: tuple[tuple[str, SPPattern], ...]  # (code, filler) pairs

    def __post_init__(self):
        codes = [c for c, _ in self.fillers]
        if len(set(codes)) != len(codes):
            raise ValueError(f"slot {self.name!r} has duplicate filler codes")
        bodies = [f.texts for _, f in self.fillers]
        if len(set(bodies)) != len(bodies):
            raise ValueError(f"slot {self.name!r} has fillers with identical symbols")

    def filler(self, code: str) -> SPPattern:
        for c, f in self.fillers:
            if c == code:
                return f
        raise BadCorrection(f"slot {self.name!r} has no filler {code!r}")


SchemaElement = Union[FixedSymbol, Slot]


@dataclass(frozen=True)
class Schema:
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
    symbols: list[SPSymbol] = []
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
    inverts instantiation whenever the schema parses unambiguously.
    """
    texts = instance.texts

    def parse(elem_idx: int, pos: int) -> "dict[str, str] | None":
        if elem_idx == len(schema.elements):
            return {} if pos == len(texts) else None
        element = schema.elements[elem_idx]
        if isinstance(element, FixedSymbol):
            if pos < len(texts) and texts[pos] == element.symbol.text:
                return parse(elem_idx + 1, pos + 1)
            return None
        candidates = sorted(element.fillers,
                            key=lambda cf: (-len(cf[1]), cf[0]))
        for code, filler in candidates:
            body = filler.texts
            if texts[pos:pos + len(body)] == body:
                rest = parse(elem_idx + 1, pos + len(body))
                if rest is not None:
                    return {element.name: code, **rest}
        return None

    result = parse(0, 0)
    if result is None:
        raise NoSchemaMatch(f"instance does not match schema {schema.id!r}")
    return result


class _Literals(dict):
    """Values to their JSON literals, each made by ``json.dumps`` (for a
    text, CPython's C escaper) the first time it is asked for.  A writer
    keeps one table for its texts and one for its counts, for one file."""

    def __missing__(self, value: "str | int") -> str:
        self[value] = literal = json.dumps(value)
        return literal


def _section(entries: list[str]) -> str:
    """A file section's laid-out entries as ``json.dumps(..., indent=2)``
    lays out the array, its entries 4 spaces in."""
    return "[\n    " + ",\n    ".join(entries) + "\n  ]" if entries else "[]"


# joins an entry's symbol literals, 8 spaces in; a pattern is never empty,
# so the writers need not spell an empty array there
_SYMBOL_SEP = ",\n        "


def stream_to_json(stream: EncodedStream) -> str:
    """Serialise a chunk stream to the two-section structured-text format:
    the text of ``json.dumps(doc, indent=2) + "\\n"``, assembled directly."""
    texts, counts = _Literals(), _Literals()
    entries = [f'{{\n      "code": {texts[e.code]},\n      "symbols": [\n        '
               f'{_SYMBOL_SEP.join([texts[s.text] for s in e.chunk.symbols])}\n      ],\n'
               f'      "count": {counts[e.count]}\n    }}'
               for e in stream.dictionary]
    tokens = [f'{{\n      "code": {texts[tok.code]}\n    }}' if isinstance(tok, CodeRef)
              else f'{{\n      "lit": {texts[tok.symbol.text]}\n    }}'
              for tok in stream.tokens]
    return (f'{{\n  "dictionary": {_section(entries)},\n'
            f'  "stream": {_section(tokens)}\n}}\n')


def parse_json(text: str) -> dict:
    """The JSON object a chunk stream or runs file holds."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"stream file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InputFormatError("stream file must hold a JSON object")
    return doc


def _read_symbols(value, made: dict[str, SPSymbol]) -> tuple[SPSymbol, ...]:
    """The symbols a file's ``symbols`` array holds."""
    if not isinstance(value, list):
        raise TypeError(f"symbols must be a JSON array, got {type(value).__name__}")
    return intern_symbols(value, made)


def stream_from_json(source: str | dict) -> EncodedStream:
    """A chunk stream from a file's text, or from the object ``parse_json``
    made of it."""
    doc = parse_json(source) if isinstance(source, str) else source
    if "dictionary" not in doc or "stream" not in doc:
        raise InputFormatError("stream file needs 'dictionary' and 'stream' sections")
    made: dict[str, SPSymbol] = {}
    try:
        entries = [
            ChunkEntry(d["code"], SPPattern(d["code"], _read_symbols(d["symbols"], made)),
                       d["count"])
            for d in doc["dictionary"]
        ]
        dictionary = ChunkDictionary(entries)
        tokens: list[Token] = []
        for item in doc["stream"]:
            if ("code" in item) == ("lit" in item):
                raise InputFormatError(
                    f"stream token needs exactly one of 'code' and 'lit': {item!r}")
            if "code" in item:
                if item["code"] not in dictionary:
                    raise InputFormatError(f"stream references unknown code {item['code']!r}")
                tokens.append(CodeRef(item["code"]))
            else:
                tokens.append(Literal(intern_symbols([item["lit"]], made)[0]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"malformed stream file: {exc}") from None
    return EncodedStream(dictionary, tuple(tokens))


def runs_to_json(runs: Sequence[Run]) -> str:
    """Serialise a run list to the one-section structured-text format: the
    text of ``json.dumps(doc, indent=2) + "\\n"``, assembled directly."""
    texts, counts = _Literals(), _Literals({UNBOUNDED: '"*"'})
    items = [f'{{\n      "symbols": [\n        '
             f'{_SYMBOL_SEP.join([texts[s.text] for s in r.pattern.symbols])}\n      ],\n'
             f'      "count": {counts[r.count]}\n    }}'
             for r in runs]
    return f'{{\n  "runs": {_section(items)}\n}}\n'


def runs_from_json(source: str | dict) -> list[Run]:
    """A run list from a file's text, or from the object ``parse_json`` made
    of it."""
    doc = parse_json(source) if isinstance(source, str) else source
    if "runs" not in doc:
        raise InputFormatError("runs file needs a 'runs' section")
    out: list[Run] = []
    made: dict[str, SPSymbol] = {}
    try:
        for k, item in enumerate(doc["runs"], start=1):
            pattern = SPPattern(f"r{k}", _read_symbols(item["symbols"], made))
            count = UNBOUNDED if item["count"] == "*" else item["count"]
            out.append(Run(pattern, count))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"malformed runs file: {exc}") from None
    return out


def rle_cost_bits(runs: Sequence[Run], alphabet_size: int) -> float:
    """Cost of a run list: block symbols at fixed length, plus one symbol's
    worth for each repeat count actually recorded (count >= 2)."""
    per_symbol = symbol_cost_bits(alphabet_size)
    cost = 0.0
    for r in runs:
        cost += len(r.pattern) * per_symbol
        if not isinstance(r.count, int) or r.count >= 2:
            cost += per_symbol
    return cost
