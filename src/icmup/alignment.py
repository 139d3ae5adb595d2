"""Multiple-alignment engine: encode a driving (New) pattern economically
against stored (Old) patterns.

An alignment is a column arrangement: each column holds occurrences of one
symbol text from one or more rows, every symbol occurrence lands in exactly
one column, and each row's occurrences appear in their original order.  A
column occupied by two or more rows is a hit.  Alignments are scored by
compression difference (CD): the fixed-length cost of the driving pattern,
len(New) * log2(A), minus the cost of encoding it.  The encoding cost is the
whole rule:

- each Old row pays its pattern's code, -log2(f/F), so a pattern used in
  two rows pays twice;
- each driving symbol outside a hit column pays log2(A);
- nothing else costs or earns anything.  Old-row symbols in non-hit columns
  are free (the predictions a partial match licenses), and a hit column that
  joins only Old rows earns nothing.

So an outer pattern that only closes another row's boundary symbols (say
``P W #W #P`` around ``W a b #W``) adds its code and nothing else: it ranks
below the alignment without it.  An Old row enters the best alignment only
by matching driving symbols.

An alignment is named by its Old-row sequence.  The columns follow from it:
the first row's pattern is merged into the literal columns, the next into
the result, and so on, each merge deterministic.  So the beam keys each
alignment by its tuple of Old-row ids, and the literal alignment by ().

A merge is a match and a placement.  The match is one kernel call on the
texts of the non-hit columns (``_unhit``), made by the caller: the search
or ``compose_alignment``.  The search picks those columns, and builds the
kernel's mask table over their texts, once per frontier member: every
candidate of a member is matched against the same texts, so a kernel call
costs O(len(p) * ceil(n / w)) word operations for n non-hit columns and
w-bit machine words (see ``kernels``).  ``_extend_columns`` places a match,
copying each run of columns between matched ones as one slice and building
only the matched and the fresh columns, so its Python work is O(matched +
fresh).  An ``Alignment`` carries its two cost terms, and an extension's
terms need only the match: they come from its parent, the rows' codes
growing by code(p) and the unmatched driving count falling by the pairs
that land on driving columns.  ``_extend`` builds every extension that way,
in the search and in ``compose_alignment`` alike.  The codes are a left
fold over the rows from 0.0, one addition per row, so the cost is the very
float a recount that adds the rows' codes in order gives.  (``sum`` is not
that fold: from Python 3.12 it compensates a float total's rounding.)

Search is a deterministic beam search.  Each round extends the frontier,
the members the previous round newly admitted to the beam, by aligning a
further stored pattern against their still-unmatched columns (driving or
Old), which is what lets bracketing service symbols chain upward through
grammar-like stores.  The candidates are the patterns that share a symbol
with an unmatched column, read from ``PatternStore.holders``; any other
pattern would match nothing.  A candidate costs one kernel call on its
symbols (``PatternStore.symbols``, which makes no ``SPPattern``): it is
scored from its driving hits and the carried terms, and the round ranks
the scores.  When every non-hit column of a member is driving, every
matched pair is a driving hit, so the hits are the LCS length and
``kernels.lcs_length`` scores the candidate with no walk; otherwise
``match_pairs`` gives the pairs, and the hits are those on driving
columns.  Only the extensions the round keeps make their pattern and
their columns, from the match that scored them (one scored by length is
walked first, against the same masks), so a round makes and builds at
most ``beam``.  Ranking ties break by fewer rows, then the Old-id
sequence, so results never depend on evaluation order.

Most candidates are skipped before the kernel scores them, by an exact
bound.  Adding pattern p to alignment al turns at most mh(p) driving symbols
into hits, where mh(p) = sum over texts t of min(count of t in p, count of t
in al's unmatched driving columns), because a matched pair joins equal texts
and uses each occurrence once.  The ceilings come from counting, not from one
``min`` per (text, pattern) pair: with need copies of t among the driving
columns, min(have, need) = sum over c < need of [have > c], so counting each
id once in every level c < need of ``store.holders(t, need)``, the ids
holding more than c copies, sums mh(p) in C.  The bound is the CD's own float
expression with mh(p) in place of the hits, raw - ((codes + code(p)) +
(unmatched - mh(p)) * log2(A)); rounding to nearest is monotone in each
operand, so no extension's float CD exceeds its float bound, with no margin.
Each round keeps one list: the rank keys (-CD, rows, ids) of its ``beam``
best alignments, kept or scored, best first.  Once it is full, an extension
whose key under its bound sorts after the last one ranks below all of them.
The last key only improves as the round goes on, so a skipped candidate
stays out, and at the round's end the list is the next beam.  A member's
bounds sit in a heap of (-bound, id), which pops its extensions' keys in
order, so the first skip ends the member.  The ranking is therefore exactly
the one the search gives without the bound.  On the kittens example at the
defaults (beam 50, 12 rows) this cuts the scorings from 838 to 177, and 133
of those extensions are built.

A member makes a bound only for the candidates that can pass, by one
threshold worked out before it gathers anything.  Once the list is full,
the least ceiling c* is the least c at which the key of the store's
cheapest code under the least id, (-(raw - ((codes + cheapest) +
(unmatched - c) * log2(A))), rows + 1, ids + ("",)), sorts before the last
key; no candidate of ceiling c has a key below that one.  The key falls as
c rises, so ``_least_ceiling`` finds c* by bisection over the exact test.
A candidate of ceiling below c* fails on its own code too, since a bound
rises with its ceiling and falls with its code, and rounding is monotone.
The last key only improves, so it would fail when popped and end the
member's loop: leaving it out of the heap scores the same candidates.  So
``_candidates`` gathers only the patterns of ceiling c* or more; at c* = 0
they include those that share a symbol only with Old columns (mh 0).  A
member whose c* exceeds its unmatched count can extend to nothing that
passes, and it skips the non-hit columns, the masks and the candidates
altogether.  On a 1,008-pattern kittens-style store at 20 / 40 / 80 / 160
symbols (``search_1k_store`` in the tests) the members make 5,143 / 14,017
/ 42,035 / 24,777 bound tuples, down from 122,258 / 253,293 / 534,211 /
552,102 when every gathered candidate had one, for the same scorings; the
searches take 0.038 / 0.132 / 0.379 / 0.289 s, down from 0.063 / 0.180 /
0.501 / 0.378 s (min of 3, a 2-vCPU x86-64 VM).

``retrieve`` is the search's first round.  There every column is driving
and unhit, so every candidate is scored by its LCS length with the query,
and extending the literal alignment by p gives CD = raw -
(code(p) + unmatched * log2(A)); the rank key (-CD, 1, (p,)) orders
these one-row alignments by (-CD, id).  A search with beam k + 1 and one
row therefore keeps at least the k best patterns that share a symbol with
the query (the literal alignment takes at most one place).  ``retrieve``
prices every pattern the beam does not hold as matching nothing, at raw -
(code(p) + len(query) * log2(A)), and ranks those with the beam's.  That
is exact.  A pattern that shares no symbol with the query does match
nothing.  A pattern that shares one is left out of the beam only when the
beam holds at least k sharing patterns, every one of which outranks it;
its no-match CD is no more than its true CD, so it still ranks below all
k of them and never reaches the top k.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from collections import Counter, namedtuple
from collections.abc import Sequence
from itertools import chain

from . import kernels
from .errors import EmptyRanking
from .patterns import (PatternStore, Record, SPPattern, code_cost, raw_cost,
                       symbol_cost_bits)


class Column(namedtuple("Column", ("symbol", "entries"))):
    """One alignment column: a symbol text (``symbol``, a str) plus its
    (row, position) occupants (``entries``, a tuple of int pairs).

    Row 0 is the driving row; rows 1..n are Old rows in placement order.
    """

    __slots__ = ()

    @property
    def is_hit(self) -> bool:
        return len(self.entries) >= 2


class Alignment(Record):
    """Rows, columns and the two cost terms: ``codes``, the Old rows' codes
    added in row order from 0.0, and ``unmatched``, the driving symbols
    outside hit columns.  ``encoding_cost`` and ``compression_difference``
    follow from them: they are fields too, worked out once when the record
    is made, and the constructor takes no argument for them."""

    __slots__ = _fields = ("new_row", "old_rows", "columns", "codes", "unmatched",
                           "alphabet_size", "encoding_cost", "compression_difference")
    new_row: SPPattern
    old_rows: tuple[SPPattern, ...]
    columns: tuple[Column, ...]
    codes: float
    unmatched: int
    alphabet_size: int
    encoding_cost: float
    compression_difference: float
    _derived = ("encoding_cost", "compression_difference")

    def __post_init__(self):
        cost = _cost(self.codes, self.unmatched, self.alphabet_size)
        object.__setattr__(self, "encoding_cost", cost)
        object.__setattr__(self, "compression_difference",
                           raw_cost(self.new_row, self.alphabet_size) - cost)

    def hit_count(self) -> int:
        return sum(1 for c in self.columns if c.is_hit)

    def row_label(self, row: int) -> str:
        if row == 0:
            return self.new_row.id
        return self.old_rows[row - 1].id


def _literal_columns(new: SPPattern) -> tuple[Column, ...]:
    return tuple(Column(s, ((0, i),)) for i, s in enumerate(new.symbols))


def _unhit(columns: Sequence[Column]) -> tuple[list[int], tuple[str, ...]]:
    """The kernel's input for a merge: the indices and texts of the non-hit
    columns."""
    targets = [ci for ci, col in enumerate(columns) if len(col.entries) == 1]
    return targets, tuple([columns[ci].symbol for ci in targets])


# a merge's match: the non-hit columns' indices (``_unhit``), and the
# kernel's pairs (index into those, pattern position)
_Match = tuple[list[int], list[tuple[int, int]]]


def _extend_columns(columns: Sequence[Column], pattern: SPPattern, row: int,
                    match: _Match) -> tuple[tuple[Column, ...], int, int]:
    """Merge a further pattern into the column structure as a new row.

    ``match`` is the pattern's maximal, leftmost match against the non-hit
    columns (``_unhit`` and one kernel call); matched columns become hits.
    The unmatched pattern symbols become fresh columns: those before a
    match go just before its column, the rest just after the last matched
    column (after the last column when nothing matched).  Returns the new
    columns, the number of matched pairs and how many of them hit a driving
    symbol.
    """
    targets, pairs = match
    p_texts = pattern.symbols

    def fresh(start: int, stop: int) -> list[Column]:
        return [Column(p_texts[pj], ((row, pj),)) for pj in range(start, stop)]

    out: list[Column] = []
    copied = placed = driving = 0  # columns copied, pattern symbols placed
    for ti, pj in pairs:
        ci = targets[ti]
        symbol, entries = columns[ci]
        out += columns[copied:ci]
        out += fresh(placed, pj)
        out.append(Column(symbol, entries + ((row, pj),)))
        driving += entries[0][0] == 0
        copied, placed = ci + 1, pj + 1
    tail = copied if pairs else len(columns)  # after the last match, else at the end
    out += columns[copied:tail]
    out += fresh(placed, len(p_texts))
    out += columns[tail:]
    return tuple(out), len(pairs), driving


def _cost(codes: float, unmatched: int, alphabet_size: int) -> float:
    """The cost rule: the Old rows' codes plus log2(A) per unmatched driving symbol."""
    return codes + unmatched * symbol_cost_bits(alphabet_size)


def default_alphabet(new: SPPattern, store: PatternStore) -> int:
    """The distinct texts of ``new`` and the store together, at least 1."""
    return max(len(store.alphabet) + len(set(new.symbols).difference(store.alphabet)), 1)


def literal_alignment(new: SPPattern, store: PatternStore) -> Alignment:
    """The no-Old-rows floor: every driving symbol in its own column, CD 0."""
    return Alignment(new, (), _literal_columns(new), 0.0, len(new),
                     default_alphabet(new, store))


def _extend(al: Alignment, pattern: SPPattern, match: _Match, code: float) -> Alignment:
    """``al`` with ``pattern``, whose code is ``code``, placed by ``match`` as
    a further Old row.  The cost terms come from ``al``: the codes grow by
    ``code`` and the unmatched driving count falls by the pairs that land on
    driving columns."""
    columns, _, driving = _extend_columns(al.columns, pattern, len(al.old_rows) + 1, match)
    return Alignment(al.new_row, al.old_rows + (pattern,), columns, al.codes + code,
                     al.unmatched - driving, al.alphabet_size)


def compose_alignment(new: SPPattern, row_patterns: Sequence[SPPattern],
                      store: PatternStore) -> Alignment:
    """Build an alignment with an explicit Old-row order (no search)."""
    al = literal_alignment(new, store)
    for pattern in row_patterns:
        targets, texts = _unhit(al.columns)
        match = targets, kernels.match_pairs(texts, pattern.symbols)
        al = _extend(al, pattern, match, code_cost(pattern.id, store))
    return al


def alignment_probabilities(alignments: Sequence[Alignment]) -> list[float]:
    """Relative probabilities 2^(-cost), normalised over the given list."""
    if not alignments:
        raise EmptyRanking("no alignments to assign probabilities to")
    costs = [al.encoding_cost for al in alignments]
    cmin = min(costs)
    weights = [2.0 ** (cmin - c) for c in costs]
    total = 0.0
    for w in weights:  # not ``sum``, which compensates from Python 3.12
        total += w
    return [w / total for w in weights]


def _candidates(texts: Sequence[str], drives: Sequence[bool],
                store: PatternStore, least: int) -> dict[str, int]:
    """Id -> mh(p), for each stored pattern p that shares a symbol with a
    non-hit column (only these can match anything) and has mh(p) >=
    ``least``.  ``texts`` are the non-hit columns' texts, and ``drives``
    says which of them hold a driving symbol.  The patterns that share a
    symbol only with Old columns (level 0 of ``store.holders``) have mh 0,
    so they are gathered only when ``least`` is 0.

    mh(p) is the sum over texts t of min(count of t in p, count of t in the
    driving columns).  A matched pair joins two equal texts and uses each
    occurrence once, so no merge of p turns more than mh(p) driving symbols
    into hits.  With need copies of t driving, min(have, need) is the number
    of levels c < need at which p holds more than c copies, so counting p
    once per level of ``store.holders(t, need)`` sums it."""
    need = Counter([t for t, d in zip(texts, drives) if d])
    ceilings = Counter(chain.from_iterable(
        level for t, n in need.items() for level in store.holders(t, n)))
    if least:
        return {pid: ceiling for pid, ceiling in ceilings.items() if ceiling >= least}
    olds = dict.fromkeys(chain.from_iterable(
        level for t, d in zip(texts, drives) if not d for level in store.holders(t, 1)), 0)
    olds.update(ceilings)
    return olds


def _least_ceiling(floor: tuple, tail: tuple, raw: float, spent: float,
                   unmatched: int, bits: float) -> int:
    """The least ceiling c in 0..unmatched at which the key (-bound, *tail)
    of a bound raw - (spent + (unmatched - c) * bits) sorts before
    ``floor``, or unmatched + 1 if none does.  Each operation of the key is
    monotone under rounding and ``tail`` is fixed, so the key falls as c
    rises and the exact test, bisected, gives the answer."""
    def passes(c: int) -> bool:
        return (-(raw - (spent + (unmatched - c) * bits)), *tail) < floor

    return bisect_left(range(unmatched + 1), True, key=passes)


def build_alignments(new: SPPattern, store: PatternStore, beam: int = 50,
                     max_old_rows: int = 12) -> tuple[Alignment, ...]:
    """Beam search over alignments of ``new`` against the store: the beam,
    best first.

    Starts from the literal alignment.  Each round extends the members the
    last round admitted by every stored pattern that shares a symbol with
    one of their non-hit columns, then keeps the best ``beam``.  A candidate
    whose CD bound cannot reach the beam is skipped before the kernel runs,
    and one whose ceiling is below the member's threshold gets no bound at
    all; the others are scored by one kernel call each, ``lcs_length`` where
    every non-hit column drives, and patterns and columns are made only
    for the extensions the round keeps.
    Deterministic: the ranking is independent of candidate arrival order.
    """
    if beam < 1:
        raise ValueError("beam must be >= 1")
    if max_old_rows < 0:
        raise ValueError("max_old_rows must be >= 0")
    literal = literal_alignment(new, store)
    alphabet_size = literal.alphabet_size
    raw = raw_cost(new, alphabet_size)
    bits = symbol_cost_bits(alphabet_size)
    codes = store.codes
    cheapest = min(codes.values(), default=0.0)

    # the beam: Old-row ids -> alignment, best first
    kept = {(): literal}
    for rows in range(max_old_rows):
        # Each round extends the members the last round admitted, which are
        # exactly those with `rows` Old rows: every member has one parent and
        # is only made in the round that extends that parent, so an older
        # member has had its round and a dropped one never comes back.
        frontier = [(ids, al) for ids, al in kept.items() if len(ids) == rows]
        if not frontier:
            break
        # the rank keys (-CD, rows, ids) of the round's `beam` best
        # alignments, kept or scored, best first: once full, its last key is
        # the floor an extension must beat, and at the round's end it is the
        # next beam
        best = [(-al.compression_difference, len(ids), ids) for ids, al in kept.items()]
        # Old-row ids -> (parent, its kernel input, pairs): an extension
        # scored but not yet built (always a new key); pairs is None for one
        # scored by length
        scored = {}
        for ids, al in frontier:
            spent, unmatched = al.codes, al.unmatched
            # the least ceiling a candidate needs to pass: that of the
            # cheapest code under the least id, ``ids + ("",)``, whose key
            # no candidate at that ceiling beats
            least = 0 if len(best) < beam else _least_ceiling(
                best[-1], (rows + 1, ids + ("",)), raw, spent + cheapest, unmatched, bits)
            if least > unmatched:
                continue  # no extension of this member can reach the beam
            targets, texts = _unhit(al.columns)
            drives = [al.columns[ci].entries[0][0] == 0 for ci in targets]
            masks = kernels.text_masks(texts)  # one table for every candidate
            member = targets, texts, masks
            # with every non-hit column driving, every pair is a driving hit
            by_length = all(drives)
            # a bound is the CD's own float with mh(p) for the driving hits;
            # (-bound, id): popped in the order of the extensions' rank keys
            heap = [(-(raw - ((spent + codes[pid]) + (unmatched - ceiling) * bits)), pid)
                    for pid, ceiling in _candidates(texts, drives, store, least).items()]
            heapq.heapify(heap)
            while heap:
                top, pid = heapq.heappop(heap)
                ext = ids + (pid,)
                if len(best) == beam and (top, rows + 1, ext) > best[-1]:
                    break  # it and every later key rank below the beam
                symbols = store.symbols(pid)
                if by_length:
                    pairs, hits = None, kernels.lcs_length(masks, len(texts), symbols)
                else:
                    pairs = kernels.match_pairs(texts, symbols, masks)
                    hits = sum([drives[ti] for ti, _ in pairs])
                # the CD ``_extend`` gives, in ``_cost``'s float: the driving
                # pairs are the ones ``_extend_columns`` counts
                cd = raw - ((spent + codes[pid]) + (unmatched - hits) * bits)
                scored[ext] = (al, member, pairs)
                insort(best, (-cd, rows + 1, ext))
                del best[beam:]
        kept = {ids: kept[ids] if ids in kept
                else _survivor(store.get(ids[-1]), codes[ids[-1]], *scored[ids])
                for _, _, ids in best}
    return tuple(kept.values())


def _survivor(pattern: SPPattern, code: float, parent: Alignment, member: tuple,
              pairs: list[tuple[int, int]] | None) -> Alignment:
    """``parent`` extended by a kept ``pattern``, built from the match that
    scored it; one scored by length is walked now, against the same texts
    and masks.  Only survivors make their ``SPPattern``."""
    targets, texts, masks = member
    if pairs is None:
        pairs = kernels.match_pairs(texts, pattern.symbols, masks)
    return _extend(parent, pattern, (targets, pairs), code)


def infer_unmatched(al: Alignment) -> list[tuple[str, str]]:
    """Old-row symbols in non-hit columns, in column order: the content the
    partial match predicts."""
    out: list[tuple[str, str]] = []
    for col in al.columns:
        if col.is_hit:
            continue
        for r, pos in col.entries:
            if r >= 1:
                row = al.old_rows[r - 1]
                out.append((row.id, row.symbols[pos]))
    return out


def retrieve(query: SPPattern, store: PatternStore,
             k: int) -> list[tuple[str, float]]:
    """Top-k stored patterns by one-row compression difference against the
    query, with store code costs; ties break by id.

    The search's one round ranks the best patterns that share a symbol
    with the query; every other pattern is priced as matching nothing, at
    its code and every driving symbol unmatched, which cannot lift a
    sharing pattern the beam left out into the top k (see the module
    docstring)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    # the literal alignment takes at most one of the k + 1 places
    ranking = build_alignments(query, store, beam=k + 1, max_old_rows=1)
    alphabet_size = ranking[0].alphabet_size
    # rank keys (-CD, id): the beam's, and the k best of the others, each
    # priced as matching nothing, in ``_cost``'s float
    keys = {al.old_rows[0].id: -al.compression_difference
            for al in ranking if al.old_rows}
    raw = raw_cost(query, alphabet_size)
    miss = len(query) * symbol_cost_bits(alphabet_size)
    ranked = sorted([(key, pid) for pid, key in keys.items()] + heapq.nsmallest(
        k, [(-(raw - (code + miss)), pid) for pid, code in store.codes.items()
            if pid not in keys]))
    return [(pid, -key) for key, pid in ranked[:k]]


def parse_render(al: Alignment) -> str:
    """Bracketed constituent rendering: each Old row wraps the column span it
    occupies, nested by containment; non-hit symbols appear bare."""
    # each row's first and last column, in one pass over the entries
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for ci, col in enumerate(al.columns):
        for r, _ in col.entries:
            first.setdefault(r, ci)
            last[r] = ci
    opens: dict[int, list[int]] = {}
    for r, start in first.items():
        if r:  # the driving row is not bracketed
            opens.setdefault(start, []).append(r)
    for rows in opens.values():
        rows.sort(key=lambda r: (-last[r], r))
    tokens: list[str] = []
    stack: list[int] = []
    for ci, col in enumerate(al.columns):
        for r in opens.get(ci, ()):
            tokens.append(f"{al.old_rows[r - 1].id}(")
            stack.append(r)
        tokens.append(col.symbol)
        while stack and last[stack[-1]] <= ci:
            stack.pop()
            tokens.append(")")
    return " ".join(tokens)


def dump_columns(al: Alignment) -> str:
    """Stable column-per-line dump: index, symbol, contributing row ids."""
    lines = []
    for ci, col in enumerate(al.columns):
        labels = ",".join(al.row_label(r) for r, _ in sorted(col.entries))
        lines.append(f"{ci}\t{col.symbol}\t{labels}")
    return "\n".join(lines)
