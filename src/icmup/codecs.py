"""Executable codecs: repeated-chunk unification, chunking-with-codes, and
run-length coding.  Schema-plus-correction, which no command runs, is in
``schema``.

Chunk discovery and encoding are deterministic by construction: occurrence
counting is non-overlapping and left-to-right, discovery is greedy
longest-first, and encoding takes the longest dictionary match at each
position (ties broken by discovery order).  Chunk and run codecs are
lossless; plain unification deliberately is not (it discards positions).

A dictionary entry is the pattern unification makes, ``SPPattern(code,
symbols, frequency=count)``, and a dictionary is a ``PatternStore`` of
them, in discovery order, made by the store's one constructor.  A stream
token is the entry it stands for, or a literal symbol, a plain ``str``: a
code is how the stream refers to the pattern, so nothing looks it up again.
A code token is priced from the store's ``codes``, a cached property, as a
search prices a stored pattern; a dictionary never reads the store's
index, so never builds it.  A run list is a ``Runs``, two columns of one
length: the blocks' symbols and their counts, read as columns.  It is
checked once, a column at a time, when made.  A run is numbered (``r1,
r2, ...``) by position only where it is printed.
``rle_decode`` and ``chunk_decode`` expand a run or a code token only
while the output stays within ``DECODE_CAP`` symbols, so a count or a
code in a file cannot ask for more memory than that.

Cost, for N symbols: the coders spell the symbols as a string, one
character per distinct symbol, so an n-gram is a substring, and a corpus
of more than ``MAX_SYMBOLS`` distinct symbols, the last code point, can
raise ``TooLarge``.
``rle_encode`` makes O(N log N) probes (for each block length b, only the
positions 0, b, 2b, ...), and extends by slice compares only a probe whose
half block, ceil(b/2) symbols on one side of it, repeats b later; on
random text that leaves O(N) extensions.
``discover_chunks`` first builds a repeats index, the suffix array and its
LCP: O(N log N log L) in sorts, for L the longest repeat, plus O(N)
character steps.  Its first sort ranks 128-character windows, which
orders a corpus without repeats that long in one round, for up to 128
characters of memory a start.  From each start's rank neighbours, and
where they overlap a scan of at most ``SCAN`` ranks further, it gives
each start i ``far[i]``: at least the longest window there with a copy it
does not overlap, and at most the longest that occurs again.  One pass
per chunk length n, from the largest down, then slices only the
unclaimed windows at live starts, those with ``far[i] >= n``: a window
with no copy n or more away is never a chunk's.
Only a gram with ``min_count`` free windows that span
``(min_count - 1) * n`` or more, as ``min_count`` disjoint copies do,
reaches the Python loops that count and claim.  Where the repeats become
chunks and claim their cells, the characters sliced grow about linearly
(a corpus of two long copies around random noise: 2x to 2.5x per
doubling).  A corpus whose windows all repeat far apart but whose grams
never beat ``expected_count`` keeps most windows live at most lengths,
and stays O(N * L^2): one letter repeated 2,000 times takes about 1.4 s.
``chunk_encode`` spells the corpus, then all the dictionary's entries in
one more call, and makes, at each position, one table lookup per distinct
length among the chunks that start with the symbol there.  The
stream and runs writers give the text of ``json.dumps(doc, indent=2)``
without its pure-Python encoder: one C escape (``json.dumps``) per distinct text and
code, then one dict lookup per symbol and one join per entry; the runs
writer lays out each distinct run once.  Every record checks its own
symbols when made: a dictionary entry is an ``SPPattern``, a run list
tests every block's symbols in one batch, and a stream its literals, and
each distinct code token against its dictionary's entry of that id, so
neither writer checks what it writes.  Each reader reads a file's entries
in one pass, for their structure only, and makes its record from them in
a ``finally``: from the entries read so far, when one is at fault, so a
bad symbol or count ahead of that fault raises first, and the error names
the first fault in file order.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence
from enum import Enum
from itertools import chain, compress, count, repeat
from operator import add, and_, eq, gt, sub

from .errors import InputFormatError, NotDecodable, NotPresent, TooLarge, UnknownPattern
from .patterns import (PatternStore, Record, SPPattern, are_symbols, check_texts,
                       is_count, symbol_cost_bits)

# the most symbols ``rle_decode`` or ``chunk_decode`` makes: 100 times the
# 100k-character corpus the README times, and a list of about 80 MB
DECODE_CAP = 10 ** 7

# the last code point (sys.maxunicode), where chr() stops: ``_spell`` gives
# each distinct symbol one character, chr(0) up to chr(MAX_SYMBOLS), and
# raises ``TooLarge`` for a new symbol once they are all given
MAX_SYMBOLS = 0x10FFFF


Token = SPPattern | str


class EncodedStream(Record):
    """A chunk dictionary and the tokens that stand for a corpus with it.
    The stream is checked when made: its literals in one batch, and each
    distinct code token, once however often it occurs, against the
    dictionary's entry of its id.  A code token that is not that entry, or
    whose id the dictionary lacks, raises ``UnknownPattern``."""

    __slots__ = _fields = ("dictionary", "tokens")
    dictionary: PatternStore
    tokens: tuple[Token, ...]

    def __post_init__(self):
        tokens = self.tokens
        codes = {id(tok): tok for tok in tokens if isinstance(tok, SPPattern)}
        check_texts([tok for tok in tokens if not isinstance(tok, SPPattern)])
        for tok in codes.values():
            entry = self.dictionary.get(tok.id)  # UnknownPattern for an id it lacks
            if entry is not tok and entry != tok:
                raise UnknownPattern(f"code token {tok.id!r} differs from the "
                                     "dictionary's entry of that id")


def _spell(symbols: Sequence[str], letters: dict[str, str]) -> str:
    """Spell symbols as one string, one character per distinct symbol.

    ``letters`` maps symbols to characters and grows with every new one, in
    the order the new ones are first met, so strings spelled with the same
    map compare like the symbol sequences.  A new symbol when ``letters``
    already holds every code point, past ``MAX_SYMBOLS``, raises
    ``TooLarge``.
    """
    try:
        for t in dict.fromkeys(symbols):
            if t not in letters:
                letters[t] = chr(len(letters))
    except ValueError:  # chr() past the last code point
        raise TooLarge(f"more than {MAX_SYMBOLS} distinct symbols: the coders "
                       "spell each one as a character") from None
    return "".join(map(letters.__getitem__, symbols))


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


def _suffix_array(s: str) -> tuple[list[int], list[int], list[int]]:
    """The suffixes of ``s`` sorted: ``rank[i]``, the rank from 1 of the
    suffix at i; ``after[r]``, the start ranked r + 1; and ``common[r]``,
    the prefix that ranks r and r + 1 share (0 at both ends).

    The suffixes are sorted by prefix doubling (Manber & Myers 1990).  The
    first round ranks them by their first 128 characters; each further round
    packs a suffix's rank and the rank k characters on into one int key,
    until every rank differs.  Once they all differ the ranks are the
    suffixes' order, whatever the first window was, so its length sets only
    the time and the memory.  128 is where repeats documents stop tying:
    after their first 16 characters 56% of the benchmark's starts still tie,
    34% after 32, 7% after 64 and none after 128, so one sort of string
    windows ranks them, where 16 left three rounds of int keys to do.  The
    windows hold up to 128 characters a start, still O(N) memory.  Kasai's
    walk then finds the common prefixes in O(N) character steps (Kasai et
    al. 2001).  Cost: O(N log N log L) for the sorts, with L the longest
    repeat."""
    length = len(s)
    k = 128
    keys: list = list(map(s.__getitem__, map(slice, range(length), range(k, length + k))))
    while True:
        order = sorted(set(keys))
        rank = list(map(dict(zip(order, count(1))).__getitem__, keys))
        if len(order) == length:
            break
        # a suffix that ends within k characters has rank 0 for its second half
        keys = list(map(add, map((len(order) + 1).__mul__, rank), rank[k:] + [0] * k))
        k *= 2
    after = sorted(range(length), key=rank.__getitem__)
    common = [0] * (length + 1)
    h = 0
    for i, r in enumerate(rank):
        if r == length:
            h = 0
            continue
        j = after[r]
        limit = length - max(i, j)
        while h < limit and s[i + h] == s[j + h]:
            h += 1
        common[r] = h
        if h:
            h -= 1  # i + 1 shares at least h - 1 with the suffix after it
    return rank, after, common


# the ranks a scan of ``_far_repeats`` visits past a neighbour.  On a
# 2-vCPU x86-64 VM discover_chunks took 1.73, 1.53, 1.45, 1.47, 1.42, 1.41
# and 1.40 ms per benchmark repeats document (seeds 2, 5 and 9) at caps 1,
# 2, 3, 4, 6, 8 and 32, and on abcde x 4,000 0.19, 0.21, 0.24 and 0.33 s at
# caps 4, 8, 16 and 32, and 4.0 s unbounded
SCAN = 8


def _far_repeats(s: str) -> list[int]:
    """For each start i, a bound on the longest window ``s[i:i + n]`` with
    a copy it does not overlap, at some j with ``|i - j| >= n``: at least
    that, and at most the longest window there that occurs again.

    A start j offers ``min(p, |i - j|)``, with p the prefix its suffix
    shares with i's, the least ``common`` between their ranks.  Every start
    takes its two rank neighbours' offers, in C-level passes.  Only next to
    two neighbours that overlap, sharing more than they lie apart, does a
    start scan on past the other, keeping the least prefix so far, which
    bounds every rank beyond.  A scan stops once that bound is no more
    than the best offer, which is then exact, or after ``SCAN`` ranks,
    when the bound stands in for the rest.  Prose, with few overlapping
    repeats, scans few starts, and the cap keeps a tandem run linear."""
    rank, after, common = _suffix_array(s)
    gap = [0, *map(abs, map(sub, after[1:], after)), 0]  # between ranks x, x + 1
    overlaps = list(compress(range(len(gap)), map(gt, common, gap)))
    offer = common[:]
    for x in overlaps:
        offer[x] = gap[x]
    far = [a if a > b else b for a, b in zip(chain((0,), offer), offer)]  # by rank
    for x in overlaps:
        # rank x scans up, to ranks y + 1 at after[y]; rank x + 1 down, to
        # ranks y at after[y - 1]; each shares common[y] with the rank it
        # passed, and the zeros at common's ends stop a scan there
        for r, ranks, back in ((x, range(x + 1, x + 1 + SCAN), 0),
                               (x + 1, range(x - 1, x - 1 - SCAN, -1), 1)):
            i, best, least = after[r - 1], far[r], common[x]
            for y in ranks:
                if common[y] < least:
                    least = common[y]
                if least <= best:
                    break
                apart = abs(after[y - back] - i)
                if apart >= least:
                    best = least
                    break
                if apart > best:
                    best = apart
            else:
                best = least  # no rank beyond shares more
            far[r] = best
    return list(map(far.__getitem__, rank))


def _free_copies(windows: Sequence[int], n: int, claimed: bytearray) -> list[int]:
    """The copies a left-to-right walk counts among a gram's length-``n``
    ``windows``: each free of ``claimed`` cells, and n or more after the
    copy before it."""
    occs: list[int] = []
    for q in windows:
        if (not occs or q >= occs[-1] + n) and claimed.find(1, q, q + n) < 0:
            occs.append(q)
    return occs


def discover_chunks(corpus: Sequence[str], min_len: int = 2,
                    min_count: int = 2) -> PatternStore:
    """Find maximal repeated contiguous chunks worth a dictionary entry.

    A chunk is kept when its non-overlapping occurrence count is at least
    ``min_count`` and exceeds the count expected by chance under a zero-order
    model of the corpus.  Search is greedy longest-first; accepted
    occurrences are claimed so shorter chunks cannot reuse their cells.
    Within one length, grams are tried in the order of their first unclaimed
    window, re-checking claims as cells get claimed.  Codes are assigned
    ``w1, w2, ...`` in discovery order.  Discovery is single-pass: the
    residue is not re-scanned for second-order chunks built out of codes.

    Only windows that can be copies are sliced.  A start i goes live, its
    free windows sliced, once the length n falls to ``_far_repeats(s)[i]``
    (or to half the corpus), and leaves once its own cell is claimed.
    That skips only windows with no copy n or more away, and none of them
    changes a dictionary.  The walk counts a copy only n or more after the
    one before it, so such a window is never a later copy; counted first,
    it is its gram's only copy, since every other lies within n of it, and
    the gram is rejected.  So leaving it out moves a gram's first or last
    window only for a gram the walk would reject anyway.  A window with a
    copy n or more away has one at every shorter length too, so a live
    start stays live, and any figure from the exact one up to the longest
    repeat, overlaps counted, gives the same dictionaries: the index's
    scan cap, which can only raise a figure, costs time, not output.

    Each length's windows then name their gram by its first free start,
    and a gram becomes a candidate, to be walked, only with ``min_count``
    free windows whose span is ``(min_count - 1) * n`` or more, as
    ``min_count`` disjoint copies have.  Any other gram's walk would find
    fewer copies and claim nothing.  At ``min_count`` 2 the span alone
    asks for two windows, so the count clause prunes nothing more there.
    A candidate with fewer than ``min_count``
    disjoint windows is walked, and rejected by its count.
    """
    if min_len < 2 or min_count < 2:
        raise ValueError("min_len and min_count must both be >= 2")
    s = _spell(corpus, {})
    length = len(s)
    freq = Counter(corpus)
    claimed = bytearray(length)
    entries: list[SPPattern] = []
    far = _far_repeats(s)
    top = min(max(far, default=0), length // 2)
    joins: dict[int, list[int]] = {}  # length -> the starts that go live there
    for i, r in enumerate(far):
        if r >= min_len:
            joins.setdefault(min(r, top), []).append(i)
    live: list[int] = []
    for n in range(top, min_len - 1, -1):
        if n in joins:
            live = sorted(live + [i for i in joins[n] if not claimed[i]])
        starts = list(compress(live, map((-1).__eq__, map(  # free windows
            claimed.find, repeat(1), live, map(n.__add__, live)))))
        if not starts:
            continue
        grams = _windows(s, starts, n)
        # each window's gram is named by its first free start, its head;
        # min_count disjoint copies are min_count windows that span
        # (min_count - 1) * n or more, and two that span n are two copies
        heads = list(map({}.setdefault, grams, starts))
        last = dict(zip(heads, starts))
        reach = (min_count - 1) * n
        copies = Counter(heads)
        candidates = list(compress(zip(starts, heads), map(
            and_, map(reach.__le__, map(sub, map(last.__getitem__, heads), heads)),
            map(min_count.__le__, map(copies.__getitem__, heads)))))
        where: dict[int, list[int]] = {}
        for p, g in candidates:
            where.setdefault(g, []).append(p)
        decided: set[int] = set()
        known = len(entries)
        for p, g in candidates:
            if g in decided or claimed.find(1, p, p + n) >= 0:
                continue
            decided.add(g)
            occs = _free_copies(where[g], n, claimed)
            if (len(occs) >= min_count
                    and len(occs) > expected_count(corpus[p:p + n], freq, length)):
                entries.append(SPPattern(f"w{len(entries) + 1}",
                                         tuple(corpus[p:p + n]), len(occs)))
                for q in occs:
                    claimed[q:q + n] = b"\x01" * n
        if len(entries) > known:
            live = [i for i in live if not claimed[i]]
    return PatternStore(entries)


def unify_basic(corpus: Sequence[str],
                chunk: SPPattern) -> tuple[SPPattern, list[str]]:
    """Merge every occurrence of ``chunk`` into one pattern carrying the count.

    Lossy on purpose: the residue no longer records where the occurrences
    were.  This is ``chunk_encode`` with ``chunk`` as the whole dictionary,
    so occurrences are counted non-overlapping, left to right: the count is
    the number of code tokens and the residue is the literals.
    """
    tokens = chunk_encode(corpus, PatternStore([chunk])).tokens
    residue = [tok for tok in tokens if isinstance(tok, str)]
    count = len(tokens) - len(residue)
    if count == 0:
        raise NotPresent(f"chunk {chunk.id!r} does not occur in the corpus")
    return SPPattern(chunk.id, chunk.symbols, frequency=count), residue


def chunk_encode(corpus: Sequence[str],
                 dictionary: PatternStore) -> EncodedStream:
    """Replace chunk occurrences by their entries, longest match first;
    among chunks with the same symbols the first in discovery order wins."""
    letters: dict[str, str] = {}
    s = _spell(corpus, letters)
    entries = list(dictionary)
    # every entry's gram, spelled in one call and cut by the entries' lengths
    grams = _spell([t for entry in entries for t in entry.symbols], letters)
    by_first: dict[str, dict[int, dict[str, SPPattern]]] = {}
    end = 0
    for entry in entries:
        start, end = end, end + len(entry.symbols)
        gram = grams[start:end]
        by_first.setdefault(gram[0], {}).setdefault(len(gram), {}).setdefault(gram, entry)
    # a position tries only the chunks that start with its own symbol
    tables = {first: sorted(by_length.items(), reverse=True)
              for first, by_length in by_first.items()}
    tokens: list[Token] = []
    pos = 0
    while pos < len(s):
        for n, chunks in tables.get(s[pos], ()):
            chunk = chunks.get(s[pos:pos + n])
            if chunk is not None:
                tokens.append(chunk)
                pos += n
                break
        else:
            tokens.append(corpus[pos])
            pos += 1
    return EncodedStream(dictionary, tuple(tokens))


def chunk_decode(stream: EncodedStream) -> list[str]:
    """The symbols the stream stands for.  The first code token that would
    take the output past ``DECODE_CAP`` symbols raises before it is
    expanded."""
    out: list[str] = []
    for k, tok in enumerate(stream.tokens, start=1):
        if isinstance(tok, str):
            out.append(tok)
            continue
        if len(out) + len(tok.symbols) > DECODE_CAP:
            raise TooLarge(f"token {k} (code {tok.id!r}) takes the output "
                           f"past the cap of {DECODE_CAP} symbols")
        out.extend(tok.symbols)
    return out


def encoded_cost_bits(stream: EncodedStream, alphabet_size: int) -> float:
    """Fractional-bit cost of a stream: each code token's code from the
    dictionary's ``codes`` (counts as frequencies) plus fixed-length costs
    for literals."""
    cost = 0.0
    per_symbol = symbol_cost_bits(alphabet_size)
    codes = stream.dictionary.codes
    for tok in stream.tokens:
        if isinstance(tok, str):
            cost += per_symbol
        else:
            cost += codes[tok.id]
    return cost


def dictionary_cost_bits(dictionary: PatternStore, alphabet_size: int) -> float:
    """Cost of sending the dictionary itself, the first part of a two-part
    code: each chunk's symbols at fixed length plus one symbol's worth to end
    the entry, so sum((len(chunk) + 1) * log2(A)).  Mirrors ``rle_cost_bits``."""
    return symbol_cost_bits(alphabet_size) * sum(len(e) + 1 for e in dictionary)


class Unbounded(Enum):
    """Display-only repetition marker: the run repeats, end unstated.  Its
    value is the count a runs file writes for it."""

    UNBOUNDED = "*"


UNBOUNDED = Unbounded.UNBOUNDED


class Runs(Record):
    """A run list as two columns of one length: run k is ``blocks[k]``
    repeated ``counts[k]`` times.  Its length is the number of runs; a
    caller reads the runs from the columns.

    The list is checked once, when made, a column at a time: every block
    has a symbol, every symbol passes one ``are_symbols`` batch, and every
    count is an integer of at least 1 or ``UNBOUNDED``.  Only a list that
    fails that test is walked run by run, so that the first bad run
    raises, for its symbols before its count."""

    __slots__ = _fields = ("blocks", "counts")
    blocks: tuple[tuple[str, ...], ...]
    counts: tuple[int | Unbounded, ...]

    def __post_init__(self):
        if len(self.blocks) != len(self.counts):
            raise ValueError("a run list needs one count per block")
        numbers = [c for c in self.counts if c is not UNBOUNDED]
        # exact int, not is_count: a subclass of int is left to the walk
        if not (all(self.blocks) and set(map(type, numbers)) <= {int}
                and min(numbers, default=1) >= 1
                and are_symbols(list(chain.from_iterable(self.blocks)))):
            for symbols, count in zip(self.blocks, self.counts):
                check_texts(symbols)
                if not symbols:
                    raise ValueError("a run needs at least one symbol")
                if count is not UNBOUNDED and not is_count(count):
                    raise TypeError("run count must be an integer or UNBOUNDED")
                if count is not UNBOUNDED and count < 1:
                    raise ValueError("run count must be >= 1")

    def __len__(self) -> int:
        return len(self.blocks)


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


def rle_encode(seq: Sequence[str]) -> Runs:
    """Detect immediately repeated blocks, maximal munch.

    At each position the candidate block maximises the munched span
    (block length x repeat count); span ties go to the longest block, then
    the greatest count.  Positions with no repeated block become single-symbol
    runs of count 1.

    A block of length b repeats at i exactly when ``s[k] == s[k + b]`` for
    every k in [i, i + b).  Such a stretch covers a multiple of b, so for
    each b only the positions 0, b, 2b, ... are probed, and a matching probe
    is extended both ways to its maximal stretch [lo, hi).  Inside it the
    block at i repeats ``1 + (hi - i) // b`` times.  A stretch of b or more
    reaches h = ceil(b/2) or more to one side of any probe in it, so a
    probe whose h symbols after it, and whose h symbols before it, do not
    repeat b later is skipped unextended.  Its own extent forward is below
    h, so it could not have covered the next probe, j + b, either.  The
    symbols before the next stretch starts are each a run of count 1, and
    go into the two columns in one step.
    """
    s = _spell(seq, {})
    r = s[::-1]
    length = len(s)
    stretches: list[tuple[int, int, int]] = []  # (lo, hi, b), hi - lo >= b
    for b in range(1, length // 2 + 1):
        probes = range(0, length - b, b)
        h = (b + 1) // 2
        hi = 0
        for j in compress(probes, map(eq, s[:length - b:b], s[b::b])):
            if j < hi:
                continue  # inside the stretch just found
            # it extends less than h each way, so no stretch of b holds it
            # (at j = 0 the slice before it is empty)
            if s[j:j + h] != s[j + b:j + b + h] and s[j - h:j] != s[j - h + b:j + b]:
                continue
            lo = j - _lce(r, length - j, length - j - b, min(b - 1, j))
            hi = j + _lce(s, j, j + b, length - b - j)
            if hi - lo >= b:
                stretches.append((lo, hi, b))
    stretches.sort()
    # a stretch at the end stands for none, so the symbols after the last
    # stretch are a gap like those between stretches
    stretches.append((length, length, 1))
    blocks: list[tuple[str, ...]] = []
    counts: list[int] = []
    i = 0
    k = 0
    while i < length:
        start = stretches[k][0]
        if i < start:  # up to the next stretch, each symbol is a run of 1
            blocks.extend(zip(seq[i:start]))
            counts.extend(repeat(1, start - i))
            i = start
            continue
        # each stretch is weighed once: the munch from i ends past every
        # stretch that is still live here
        best = (1, 1, 1)  # (span, block_len, count)
        while stretches[k][0] <= i:
            _, hi, b = stretches[k]
            k += 1
            if hi - i >= b:
                count = 1 + (hi - i) // b
                best = max(best, (b * count, b, count))
        _, block_len, count = best
        blocks.append(tuple(seq[i:i + block_len]))
        counts.append(count)
        i += block_len * count
    return Runs(tuple(blocks), tuple(counts))


def rle_decode(runs: Runs) -> list[str]:
    """The symbols the runs stand for.  The runs are checked in order, and
    the first run that is unbounded, or that would take the output past
    ``DECODE_CAP`` symbols, raises before it is expanded."""
    out: list[str] = []
    length = 0
    for k, symbols, times in zip(count(1), runs.blocks, runs.counts):
        if times is UNBOUNDED:
            raise NotDecodable(f"run 'r{k}' has an unbounded count")
        length += len(symbols) * times
        if length > DECODE_CAP:
            raise TooLarge(f"run 'r{k}' takes the output past the cap of "
                           f"{DECODE_CAP} symbols")
        out += symbols * times
    return out


class _Literals(dict):
    """Values to their JSON text, each made by ``dumps`` the first time it
    is asked for: the writer's ``json.dumps`` (for a text, CPython's C
    escaper), or for a whole run the runs writer's layout of it.  A writer
    keeps one table for each kind of value it writes, for one file."""

    def __init__(self, dumps, *known):
        super().__init__(*known)
        self.dumps = dumps

    def __missing__(self, value: "str | int") -> str:
        self[value] = literal = self.dumps(value)
        return literal


def _section(entries: list[str]) -> str:
    """A file section's laid-out entries as ``json.dumps(..., indent=2)``
    lays out the array, its entries 4 spaces in."""
    return "[\n    " + ",\n    ".join(entries) + "\n  ]" if entries else "[]"


# joins an entry's symbol literals, 8 spaces in; no chunk or run is empty,
# so the writers need not spell an empty array there
_SYMBOL_SEP = ",\n        "


def stream_to_json(stream: EncodedStream) -> str:
    """Serialise a chunk stream to the two-section structured-text format:
    the text of ``json.dumps(doc, indent=2) + "\\n"``, assembled directly."""
    from json import dumps  # only a stream file needs it

    # a code is a pattern id, which the symbol rule does not bind
    texts, codes, counts = _Literals(dumps), _Literals(dumps), _Literals(dumps)
    entries = [f'{{\n      "code": {codes[e.id]},\n      "symbols": [\n        '
               f'{_SYMBOL_SEP.join(map(texts.__getitem__, e.symbols))}\n      ],\n'
               f'      "count": {counts[e.frequency]}\n    }}'
               for e in stream.dictionary]
    tokens = [f'{{\n      "lit": {texts[tok]}\n    }}' if isinstance(tok, str)
              else f'{{\n      "code": {codes[tok.id]}\n    }}'
              for tok in stream.tokens]
    return (f'{{\n  "dictionary": {_section(entries)},\n'
            f'  "stream": {_section(tokens)}\n}}\n')


def parse_json(text: str) -> dict:
    """The JSON object a chunk stream or runs file holds."""
    import json  # only a stream or runs file needs it

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"stream file is not valid JSON: {exc}") from None
    except RecursionError:  # arrays or objects nested past the stack
        raise InputFormatError("stream file nests too deeply to read") from None
    if not isinstance(doc, dict):
        raise InputFormatError("stream file must hold a JSON object")
    return doc


def _json_array(value, what: str) -> list:
    """``value``, which must be a JSON array: a file's section, or an
    entry's ``symbols``, named ``what`` in the error."""
    if not isinstance(value, list):
        raise TypeError(f"{what} must be a JSON array, got {type(value).__name__}")
    return value


def _json_object(value, section: str) -> dict:
    """``value``, which must be a JSON object: an entry of the file section
    named ``section`` in the error."""
    if not isinstance(value, dict):
        raise TypeError(f"{section} entry must be a JSON object, "
                        f"got {type(value).__name__}")
    return value


def stream_from_json(source: str | dict) -> EncodedStream:
    """A chunk stream from a file's text, or from the object ``parse_json``
    made of it.  Each entry is a chunk as ``discover_chunks`` makes one: it
    occurs at least twice, spans at least two symbols and has a code no
    other entry has.  The tokens are read for their structure only; the
    stream, made from the tokens read so far even when one is at fault,
    checks their literals, so the error names the first fault in file
    order."""
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
        try:
            for item in _json_array(doc["stream"], "stream"):
                item = _json_object(item, "stream")
                if len(item) != 1 or ("code" not in item and "lit" not in item):
                    raise InputFormatError("stream token needs exactly one of 'code' and "
                                           f"'lit' and no other key: {item!r}")
                if "code" in item:
                    code = item["code"]
                    if not isinstance(code, str):
                        raise TypeError(f"stream token code {code!r} must be a string")
                    if code not in dictionary:
                        raise InputFormatError(f"stream references unknown code {code!r}")
                    tokens.append(dictionary.get(code))
                else:
                    tokens.append(item["lit"])
        finally:  # a bad literal before the fault raises in its place
            stream = EncodedStream(dictionary, tuple(tokens))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"malformed stream file: {exc}") from None
    return stream


def runs_to_json(runs: Runs) -> str:
    """Serialise a run list to the one-section structured-text format: the
    text of ``json.dumps(doc, indent=2) + "\\n"``, assembled directly.  Each
    distinct run is laid out once."""
    from json import dumps  # only a runs file needs it

    texts, counts = _Literals(dumps), _Literals(dumps, {UNBOUNDED: dumps(UNBOUNDED.value)})

    def lay_out(run: tuple) -> str:
        symbols, count = run
        return (f'{{\n      "symbols": [\n        '
                f'{_SYMBOL_SEP.join(map(texts.__getitem__, symbols))}\n      ],\n'
                f'      "count": {counts[count]}\n    }}')

    items = list(map(_Literals(lay_out).__getitem__, zip(runs.blocks, runs.counts)))
    return f'{{\n  "runs": {_section(items)}\n}}\n'


def runs_from_json(source: str | dict) -> Runs:
    """A run list from a file's text, or from the object ``parse_json`` made
    of it.  The entries are read for their structure only, into two
    columns, in one pass; the run list, made from the entries read so far
    even when one is at fault, checks their symbols and counts, so the
    error names the first fault in file order."""
    doc = parse_json(source) if isinstance(source, str) else source
    if doc.keys() != {"runs"}:
        raise InputFormatError("malformed runs file: it must hold exactly the 'runs' "
                               f"section, not {sorted(doc)}")
    blocks: list[tuple[str, ...]] = []
    counts: list = []
    star = UNBOUNDED.value  # read once: an Enum's value is a property
    try:
        try:
            for item in _json_array(doc["runs"], "runs"):
                symbols, count = _json_object(item, "runs")["symbols"], item["count"]
                if len(item) != 2:
                    raise ValueError(f"a run holds exactly 'symbols' and 'count': {item!r}")
                blocks.append(tuple(_json_array(symbols, "symbols")))
                counts.append(UNBOUNDED if count == star else count)
        finally:  # a bad run before the fault raises in its place
            runs = Runs(tuple(blocks), tuple(counts))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"malformed runs file: {exc}") from None
    return runs


def rle_cost_bits(runs: Runs, alphabet_size: int) -> float:
    """Cost of a run list: block symbols at fixed length, plus one symbol's
    worth for each repeat count actually recorded (count >= 2)."""
    per_symbol = symbol_cost_bits(alphabet_size)
    cost = 0.0
    for symbols, count in zip(runs.blocks, runs.counts):
        cost += len(symbols) * per_symbol
        if count is UNBOUNDED or count >= 2:
            cost += per_symbol
    return cost
