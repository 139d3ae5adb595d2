"""Reference codecs: the original, slow chunk and run coders and the
original stream and runs file writers, kept verbatim as oracles.  The
library versions in ``icmup.codecs`` must give exactly the same
dictionaries, streams, runs and file texts.

``_longest_repeat`` and ``discover_chunks`` cost O(n * L^2) for a longest
repeat L, and ``rle_encode`` is cubic, so use them on small inputs only.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Sequence

from icmup.codecs import (ChunkDictionary, ChunkEntry, CodeRef, EncodedStream,
                          Literal, Run, Token, expected_count)
from icmup.patterns import SPPattern, SPSymbol


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


def discover_chunks(corpus: Sequence[SPSymbol], min_len: int = 2,
                    min_count: int = 2) -> ChunkDictionary:
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
    texts = [s.text for s in corpus]
    length = len(texts)
    freq = Counter(texts)
    claimed = [False] * length
    entries: list[ChunkEntry] = []
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
                chunk = SPPattern(code, tuple(SPSymbol(t) for t in gram))
                entries.append(ChunkEntry(code, chunk, len(occs)))
                for start in occs:
                    for k in range(start, start + n):
                        claimed[k] = True
                pos += n
            else:
                rejected.add(gram)
                pos += 1
    return ChunkDictionary(entries)


def chunk_encode(corpus: Sequence[SPSymbol],
                 dictionary: ChunkDictionary) -> EncodedStream:
    """Replace chunk occurrences by code references, longest match first."""
    ordered = sorted(enumerate(dictionary),
                     key=lambda pair: (-len(pair[1].chunk), pair[0]))
    tokens: list[Token] = []
    pos = 0
    while pos < len(corpus):
        for _, entry in ordered:
            gram = entry.chunk.texts
            n = len(gram)
            if tuple(s.text for s in corpus[pos:pos + n]) == gram:
                tokens.append(CodeRef(entry.code))
                pos += n
                break
        else:
            tokens.append(Literal(corpus[pos]))
            pos += 1
    return EncodedStream(dictionary, tuple(tokens))


def rle_encode(seq: Sequence[SPSymbol]) -> list[Run]:
    """Detect immediately repeated blocks, maximal munch.

    At each position the candidate block maximises the munched span
    (block length x repeat count); span ties go to the longest block, then
    the greatest count.  Positions with no repeated block become single-symbol
    runs of count 1.
    """
    texts = [s.text for s in seq]
    runs: list[Run] = []
    i = 0
    ridx = 1
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
        pattern = SPPattern(f"r{ridx}", tuple(seq[i:i + block_len]))
        runs.append(Run(pattern, count))
        ridx += 1
        i += block_len * count
    return runs


def stream_to_json(stream: EncodedStream) -> str:
    """Serialise a chunk stream to the two-section structured-text format."""
    doc = {
        "dictionary": [
            {"code": e.code, "symbols": list(e.chunk.texts), "count": e.count}
            for e in stream.dictionary
        ],
        "stream": [
            {"code": tok.code} if isinstance(tok, CodeRef) else {"lit": tok.symbol.text}
            for tok in stream.tokens
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def runs_to_json(runs: Sequence[Run]) -> str:
    doc = {
        "runs": [
            {"symbols": list(r.pattern.texts),
             "count": r.count if isinstance(r.count, int) else "*"}
            for r in runs
        ]
    }
    return json.dumps(doc, indent=2) + "\n"
