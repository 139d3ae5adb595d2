"""Reference codecs: the original, slow chunk and run coders, plain
unification's own matcher, the original stream and runs file writers and
the original stream and runs file readers, kept as oracles: verbatim, but
that a stream token is the entry it stands for or a literal ``str``, and a
run is the pair ``(symbols, count)``, checked by ``run``.  The library
versions in ``icmup.codecs`` must give exactly the same dictionaries,
streams, unifications, runs and file texts, and each reader the same
stream or runs or the same error.  The stream reader also refuses a
token whose code is not a string, with the library reader's message.

``_longest_repeat`` and ``discover_chunks`` cost O(n * L^2) for a longest
repeat L, ``rle_encode`` is cubic, and ``longest_repeats`` compares every
window with every other, so use them on small inputs only.
``sorted_repeats`` gives the same figures by sorting whole suffixes, fast
enough for corpora of a few thousand symbols, and ``disjoint_repeats``
searches the spelled corpus, one substring search a length.

``schema_encode`` is the schema parse without its memo, verbatim: it is
exponential in the slots on an instance that fails after many ambiguous
ones, so give it few slots.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Sequence

from icmup.codecs import (UNBOUNDED, EncodedStream, Token, _json_array, _json_object,
                          expected_count, parse_json)
from icmup.errors import InputFormatError, NoSchemaMatch, NotPresent
from icmup.patterns import PatternStore, SPPattern, check_symbol, check_texts, is_count
from icmup.schema import FixedSymbol, Schema


def run(symbols: tuple[str, ...], count) -> tuple:
    """The run ``(symbols, count)``, checked as one run always was: its
    symbols first, then that it has one, then its count, an integer of at
    least 1 or ``UNBOUNDED``."""
    check_texts(symbols)
    if not symbols:
        raise ValueError("a run needs at least one symbol")
    if count is not UNBOUNDED and not is_count(count):
        raise TypeError("run count must be an integer or UNBOUNDED")
    if count is not UNBOUNDED and count < 1:
        raise ValueError("run count must be >= 1")
    return symbols, count


def _occurrences(texts: Sequence[str], gram: tuple[str, ...],
                 claimed: Sequence[bool]) -> list[int]:
    """Non-overlapping left-to-right occurrence starts, skipping claimed cells."""
    n = len(gram)
    occs = []
    pos = 0
    while pos + n <= len(texts):
        if (not any(claimed[pos:pos + n])
                and tuple(texts[pos:pos + n]) == gram):
            occs.append(pos)
            pos += n
        else:
            pos += 1
    return occs


def _longest_repeat(texts: Sequence[str], start: int) -> int:
    """Largest n <= len/2 at which some n-gram still occurs twice (counting
    overlaps); an upper bound for useful chunk lengths."""
    limit = len(texts) // 2
    n = start - 1
    while n < limit:
        counts = Counter(tuple(texts[i:i + n + 1])
                         for i in range(len(texts) - n))
        if not counts or max(counts.values()) < 2:
            return n
        n += 1
    return n


def longest_repeats(texts: Sequence[str]) -> list[int]:
    """For each start i, the largest n such that ``texts[i:i + n]`` also
    occurs at another start, overlaps counted (0 if no window there does)."""
    length = len(texts)
    out = []
    for i in range(length):
        n = 0
        while i + n < length and any(
                texts[j:j + n + 1] == texts[i:i + n + 1]
                for j in range(length - n) if j != i):
            n += 1
        out.append(n)
    return out


def sorted_repeats(texts: Sequence[str]) -> list[int]:
    """``longest_repeats`` by sorting every whole suffix: a window repeats
    exactly when its suffix shares it with a neighbour in sorted order, so
    each start's figure is the longer common prefix with its neighbours."""
    texts = tuple(texts)
    order = sorted(range(len(texts)), key=lambda i: texts[i:])
    out = [0] * len(texts)
    for a, b in zip(order, order[1:]):
        h, limit = 0, len(texts) - max(a, b)
        while h < limit and texts[a + h] == texts[b + h]:
            h += 1
        out[a], out[b] = max(out[a], h), max(out[b], h)
    return out


def disjoint_repeats(texts: Sequence[str]) -> list[int]:
    """For each start i, the largest n such that ``texts[i:i + n]`` also
    occurs n or more away, wholly after or wholly before it (0 if no
    window there does).  The corpus is spelled one character a distinct
    symbol, so a window is a substring."""
    letters: dict[str, str] = {}
    s = "".join(letters.setdefault(t, chr(len(letters))) for t in texts)
    out = []
    for i in range(len(s)):
        n = 0
        while i + n < len(s):
            w = s[i:i + n + 1]
            if s.find(w, i + n + 1) < 0 and s.rfind(w, 0, i) < 0:
                break
            n += 1
        out.append(n)
    return out


def discover_chunks(corpus: Sequence[str], min_len: int = 2,
                    min_count: int = 2) -> PatternStore:
    """Find maximal repeated contiguous chunks worth a dictionary entry.

    A chunk is kept when its non-overlapping occurrence count is at least
    ``min_count`` and exceeds the count expected by chance under a zero-order
    model of the corpus.  Search is greedy longest-first; accepted
    occurrences are claimed so shorter chunks cannot reuse their cells.
    Codes are assigned ``w1, w2, ...`` in discovery order.  Discovery is
    single-pass: the residue is not re-scanned for second-order chunks built
    out of codes.
    """
    if min_len < 2 or min_count < 2:
        raise ValueError("min_len and min_count must both be >= 2")
    texts = list(corpus)
    length = len(texts)
    freq = Counter(texts)
    claimed = [False] * length
    entries: list[SPPattern] = []
    for n in range(_longest_repeat(texts, min_len), min_len - 1, -1):
        # overlap-counting totals bound the non-overlapping counts from above
        naive = Counter(tuple(texts[i:i + n]) for i in range(length - n + 1))
        if max(naive.values()) < min_count:
            continue
        rejected: set[tuple[str, ...]] = set()
        pos = 0
        while pos + n <= length:
            if any(claimed[pos:pos + n]):
                pos += 1
                continue
            gram = tuple(texts[pos:pos + n])
            if gram in rejected or naive[gram] < min_count:
                pos += 1
                continue
            occs = _occurrences(texts, gram, claimed)
            if len(occs) >= min_count and len(occs) > expected_count(gram, freq, length):
                code = f"w{len(entries) + 1}"
                entries.append(SPPattern(code, gram, len(occs)))
                for start in occs:
                    for k in range(start, start + n):
                        claimed[k] = True
                pos += n
            else:
                rejected.add(gram)
                pos += 1
    return PatternStore(entries)


def chunk_encode(corpus: Sequence[str],
                 dictionary: PatternStore) -> EncodedStream:
    """Replace chunk occurrences by their entries, longest match first."""
    ordered = sorted(enumerate(dictionary),
                     key=lambda pair: (-len(pair[1]), pair[0]))
    tokens: list[Token] = []
    pos = 0
    while pos < len(corpus):
        for _, entry in ordered:
            gram = entry.symbols
            n = len(gram)
            if tuple(corpus[pos:pos + n]) == gram:
                tokens.append(entry)
                pos += n
                break
        else:
            tokens.append(corpus[pos])
            pos += 1
    return EncodedStream(dictionary, tuple(tokens))


def unify_basic(corpus: Sequence[str],
                chunk: SPPattern) -> tuple[SPPattern, list[str]]:
    """Merge every occurrence of ``chunk`` into one pattern carrying the count.

    Lossy on purpose: the residue no longer records where the occurrences
    were.  Occurrence counting is non-overlapping, left to right.
    """
    gram = chunk.symbols
    n = len(gram)
    residue: list[str] = []
    count = 0
    pos = 0
    while pos < len(corpus):
        if tuple(corpus[pos:pos + n]) == gram:
            count += 1
            pos += n
        else:
            residue.append(corpus[pos])
            pos += 1
    if count == 0:
        raise NotPresent(f"chunk {chunk.id!r} does not occur in the corpus")
    unified = SPPattern(chunk.id, chunk.symbols, frequency=count)
    return unified, residue


def rle_encode(seq: Sequence[str]) -> list[tuple]:
    """Detect immediately repeated blocks, maximal munch.

    At each position the candidate block maximises the munched span
    (block length x repeat count); span ties go to the longest block, then
    the greatest count.  Positions with no repeated block become single-symbol
    runs of count 1.
    """
    texts = list(seq)
    runs: list[tuple] = []
    i = 0
    while i < len(seq):
        rem = len(seq) - i
        best = None  # (span, block_len, count)
        for b in range(1, rem // 2 + 1):
            block = texts[i:i + b]
            c = 1
            while texts[i + c * b:i + (c + 1) * b] == block:
                c += 1
            if c >= 2:
                cand = (b * c, b, c)
                if best is None or cand > best:
                    best = cand
        if best is None:
            block_len, count = 1, 1
        else:
            _, block_len, count = best
        runs.append(run(tuple(seq[i:i + block_len]), count))
        i += block_len * count
    return runs


def stream_to_json(stream: EncodedStream) -> str:
    """Serialise a chunk stream to the two-section structured-text format."""
    doc = {
        "dictionary": [
            {"code": e.id, "symbols": list(e.symbols), "count": e.frequency}
            for e in stream.dictionary
        ],
        "stream": [
            {"lit": tok} if isinstance(tok, str) else {"code": tok.id}
            for tok in stream.tokens
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def stream_from_json(source: str | dict) -> EncodedStream:
    """A chunk stream from a file's text, or from the object ``parse_json``
    made of it.  Each entry is a chunk as ``discover_chunks`` makes one: it
    occurs at least twice, spans at least two symbols and has a code no
    other entry has."""
    doc = parse_json(source) if isinstance(source, str) else source
    if doc.keys() != {"dictionary", "stream"}:
        raise InputFormatError("malformed stream file: it must hold exactly the "
                               f"'dictionary' and 'stream' sections, not {sorted(doc)}")
    # every object is read by its documented keys, then must hold no other
    try:
        entries = []
        for d in _json_array(doc["dictionary"], "dictionary"):
            d = _json_object(d, "dictionary")
            code, symbols, count = d["code"], d["symbols"], d["count"]
            if len(d) != 3:
                raise ValueError("an entry holds exactly 'code', 'symbols' and "
                                 f"'count': {d!r}")
            entry = SPPattern(code, _json_array(symbols, "symbols"), count)
            if entry.frequency < 2:
                raise ValueError(f"chunk {code!r} must occur at least twice")
            if len(entry) < 2:
                raise ValueError(f"chunk {code!r} must span at least two symbols")
            entries.append(entry)
        dictionary = PatternStore(entries)
        tokens: list[Token] = []
        for item in _json_array(doc["stream"], "stream"):
            item = _json_object(item, "stream")
            if len(item) != 1 or ("code" not in item and "lit" not in item):
                raise InputFormatError("stream token needs exactly one of 'code' and "
                                       f"'lit' and no other key: {item!r}")
            if "code" in item:
                if not isinstance(item["code"], str):
                    raise TypeError(f"stream token code {item['code']!r} must be a string")
                if item["code"] not in dictionary:
                    raise InputFormatError(f"stream references unknown code {item['code']!r}")
                tokens.append(dictionary.get(item["code"]))
            else:
                tokens.append(check_symbol(item["lit"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"malformed stream file: {exc}") from None
    return EncodedStream(dictionary, tuple(tokens))


def runs_to_json(runs: Sequence[tuple]) -> str:
    doc = {
        "runs": [
            {"symbols": list(symbols),
             "count": count if isinstance(count, int) else "*"}
            for symbols, count in runs
        ]
    }
    return json.dumps(doc, indent=2) + "\n"


def runs_from_json(source: str | dict) -> list[tuple]:
    """Entry by entry, each entry checked in full before the next is read,
    so the error names the first fault in file order.  Verbatim but for
    ``_json_object``, which names an entry that is not an object."""
    doc = parse_json(source) if isinstance(source, str) else source
    if doc.keys() != {"runs"}:
        raise InputFormatError("malformed runs file: it must hold exactly the 'runs' "
                               f"section, not {sorted(doc)}")
    out: list[tuple] = []
    star = UNBOUNDED.value  # read once: an Enum's value is a property
    try:
        for item in _json_array(doc["runs"], "runs"):
            symbols, count = _json_object(item, "runs")["symbols"], item["count"]
            if len(item) != 2:
                raise ValueError(f"a run holds exactly 'symbols' and 'count': {item!r}")
            symbols = tuple(_json_array(symbols, "symbols"))
            check_texts(symbols)
            out.append(run(symbols, UNBOUNDED if count == star else count))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"malformed runs file: {exc}") from None
    return out


def schema_encode(instance: SPPattern, schema: Schema) -> dict[str, str]:
    """Recover the filler code per slot from an instantiated pattern.

    Backtracking parse; when several fillers could match at a position the
    longest (then lexicographically first code) is preferred, so encoding
    inverts instantiation whenever the schema parses unambiguously.
    """
    texts = instance.symbols

    def parse(elem_idx: int, pos: int) -> "dict[str, str] | None":
        if elem_idx == len(schema.elements):
            return {} if pos == len(texts) else None
        element = schema.elements[elem_idx]
        if isinstance(element, FixedSymbol):
            if pos < len(texts) and texts[pos] == element.symbol:
                return parse(elem_idx + 1, pos + 1)
            return None
        candidates = sorted(element.fillers,
                            key=lambda cf: (-len(cf[1]), cf[0]))
        for code, filler in candidates:
            body = filler.symbols
            if texts[pos:pos + len(body)] == body:
                rest = parse(elem_idx + 1, pos + len(body))
                if rest is not None:
                    return {element.name: code, **rest}
        return None

    result = parse(0, 0)
    if result is None:
        raise NoSchemaMatch(f"instance does not match schema {schema.id!r}")
    return result
