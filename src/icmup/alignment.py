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
texts of the non-hit columns (``_unhit``).  The search picks those columns,
and builds the kernel's mask table over their texts, once per frontier
member: every candidate of a member is matched against the same texts, so a
kernel call costs O(len(p) * ceil(n / w)) word operations for n non-hit
columns and w-bit machine words (see ``kernels``).  ``_extend_columns``
places a match, copying each run of columns between matched ones as one
slice and building only the matched and the fresh columns, so its Python
work is O(matched + fresh).  An extension's cost needs only the match: its
cost terms come from its parent, the rows' codes growing by code(p) and the
unmatched driving count falling by the pairs that land on driving columns.
The codes are the left fold from 0 that ``sum`` over the rows makes, so the
cost is the very float a recount gives; ``encoding_cost`` recounts.

Search is a deterministic beam search.  Each round extends the frontier,
the members the previous round newly admitted to the beam, by aligning a
further stored pattern against their still-unmatched columns (driving or
Old), which is what lets bracketing service symbols chain upward through
grammar-like stores.  The candidates are the patterns that share a symbol
with an unmatched column, looked up in the store's symbol index; any other
pattern would match nothing.  A candidate costs one kernel call: it is
scored from its match and the carried terms, and the round ranks the
scores.  Columns are built only for the extensions the round keeps, from
the match that scored them, so a round builds at most ``beam``.  Ranking
ties break by fewer rows, then the Old-id sequence, so results never
depend on evaluation order.

Most candidates are skipped before the kernel scores them, by an exact
bound.  Adding pattern p to alignment al turns at most mh(p) driving symbols
into hits, where mh(p) = sum over texts t of min(count of t in p, count of t
in al's unmatched driving columns), because a matched pair joins equal texts
and uses each occurrence once.  So the extension's CD is at most CD(al) -
code(p) + mh(p) * log2(A).  The ceilings come from counting, not from one
``min`` per (text, pattern) pair: with need copies of t among the driving
columns, min(have, need) = sum over c < need of [have > c], so counting each
id once in every level c < need of ``store.holders(t)``, the ids holding
more than c copies, sums mh(p) in C.  A frontier member's bounds sit in a
heap, popped best first until one fails.  Once the round holds ``beam``
distinct alignments, kept or scored, a candidate whose bound is below the
beam-th best of their CDs (by a 1e-9 margin, so rounding never skips a tie)
ranks below all of them and would be cut at the round's end; nothing leaves
the round before its end, so that threshold only rises, and later rounds
extend only beam members.  The ranking is therefore exactly the one the
search gives without the bound.  On the kittens example at the defaults (beam
50, 12 rows) this cuts the kernel calls from 838 to 354, and 133 of those
extensions are built.  A pattern that shares a symbol only with Old columns
has mh 0 and a bound of CD(al) - code(p), so when that bound for the store's
cheapest code already fails at the member's start, the member gathers none
of them: each would fail when popped and end the member's loop, so the same
candidates are scored.

``retrieve`` is the search's first round.  There every column is driving
and unhit, so extending the literal alignment by p gives CD = raw -
(code(p) + unmatched * log2(A)), and the rank key (-CD, 1, (p,)) orders
these one-row alignments by (-CD, id).  A search with beam k + 1 and one
row therefore keeps at least the k best patterns that share a symbol with
the query (the literal alignment takes at most one place).  A pattern that
shares none is never offered: it matches nothing, so it scores -code(p),
and ``retrieve`` ranks those patterns with the search's before taking k.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple, Sequence

from . import kernels
from .errors import EmptyRanking
from .patterns import (PatternStore, SPPattern, SPSymbol, code_cost,
                       raw_cost, symbol_cost_bits)

# A bound must fall this far below the score it has to reach before its
# candidate is skipped, so float rounding can never skip a tie.
_PRUNE_MARGIN = 1e-9


class Column(NamedTuple):
    """One alignment column: a symbol text plus (row, position) occupants.

    Row 0 is the driving row; rows 1..n are Old rows in placement order.
    """

    symbol: str
    entries: tuple[tuple[int, int], ...]

    @property
    def is_hit(self) -> bool:
        return len(self.entries) >= 2


@dataclass(frozen=True)
class Alignment:
    new_row: SPPattern
    old_rows: tuple[SPPattern, ...]
    columns: tuple[Column, ...]
    encoding_cost: float
    compression_difference: float

    def hit_count(self) -> int:
        return sum(1 for c in self.columns if c.is_hit)

    def new_hit_positions(self) -> set[int]:
        """Driving-row positions that sit in hit columns."""
        return {pos for col in self.columns if col.is_hit
                for r, pos in col.entries if r == 0}

    def row_label(self, row_index: int) -> str:
        if row_index == 0:
            return self.new_row.id
        return self.old_rows[row_index - 1].id

    def validate(self) -> None:
        """Assert the structural invariants (used by tests)."""
        rows = [self.new_row] + list(self.old_rows)
        seen: dict[int, list[int]] = {r: [] for r in range(len(rows))}
        for col in self.columns:
            assert col.entries, "empty column"
            for r, pos in col.entries:
                assert rows[r].symbols[pos].text == col.symbol, "column symbol mismatch"
                seen[r].append(pos)
        for r, positions in seen.items():
            assert positions == sorted(positions), f"row {r} out of order"
            assert sorted(positions) == list(range(len(rows[r]))), f"row {r} not partitioned"


def _literal_columns(new: SPPattern) -> tuple[Column, ...]:
    return tuple(Column(s.text, ((0, i),)) for i, s in enumerate(new.symbols))


def _unhit(columns: Sequence[Column]) -> tuple[list[int], tuple[str, ...]]:
    """The kernel's input for a merge: the indices and texts of the non-hit
    columns."""
    targets = [ci for ci, col in enumerate(columns) if len(col.entries) == 1]
    return targets, tuple([columns[ci].symbol for ci in targets])


# a merge's match: the non-hit columns' indices (``_unhit``), and the
# kernel's pairs (index into those, pattern position)
_Match = tuple[list[int], list[tuple[int, int]]]


def _extend_columns(columns: Sequence[Column], pattern: SPPattern, row_index: int,
                    match: _Match | None = None) -> tuple[tuple[Column, ...], int, int]:
    """Merge a further pattern into the column structure as a new row.

    The pattern is matched (maximally, leftmost) against the sequence of
    non-hit columns, unless ``match`` is that match, made before; matched
    columns become hits.  The unmatched pattern symbols become fresh
    columns: those before a match go just before its column, the rest just
    after the last matched column (after the last column when nothing
    matched).  Returns the new columns, the number of matched pairs and how
    many of them hit a driving symbol.
    """
    if match is None:
        targets, texts = _unhit(columns)
        match = targets, kernels.match_pairs(texts, pattern.texts)
    targets, pairs = match
    p_texts = pattern.texts

    def fresh(start: int, stop: int) -> list[Column]:
        return [Column(p_texts[pj], ((row_index, pj),)) for pj in range(start, stop)]

    out: list[Column] = []
    copied = placed = driving = 0  # columns copied, pattern symbols placed
    for ti, pj in pairs:
        ci = targets[ti]
        symbol, entries = columns[ci]
        out += columns[copied:ci]
        out += fresh(placed, pj)
        out.append(Column(symbol, entries + ((row_index, pj),)))
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


def encoding_cost(al: Alignment, store: PatternStore, alphabet_size: int) -> float:
    """Code costs of the Old rows used, plus fixed-length costs of driving
    symbols in non-hit columns, recounted from the rows and columns.
    Old-row symbols in non-hit columns are free (predicted content), and hit
    columns that join only Old rows earn nothing, so a row that matches no
    driving symbol only adds its code."""
    codes = sum(code_cost(r.id, store) for r in al.old_rows)
    return _cost(codes, len(al.new_row) - len(al.new_hit_positions()), alphabet_size)


def default_alphabet(new: SPPattern, store: PatternStore | None = None) -> int:
    """The distinct texts of ``new`` and the store together, at least 1."""
    if store is None:
        return max(len(set(new.texts)), 1)
    return max(len(store.alphabet) + len(set(new.texts).difference(store.alphabet)), 1)


def _build(new: SPPattern, old_rows: tuple[SPPattern, ...],
           columns: tuple[Column, ...], codes: float, unmatched: int,
           alphabet_size: int) -> Alignment:
    cost = _cost(codes, unmatched, alphabet_size)
    return Alignment(new, old_rows, columns, cost, raw_cost(new, alphabet_size) - cost)


def literal_alignment(new: SPPattern, store: PatternStore | None = None,
                      alphabet_size: int | None = None) -> Alignment:
    """The no-Old-rows floor: every driving symbol in its own column, CD 0."""
    if alphabet_size is None:
        alphabet_size = default_alphabet(new, store)
    return _build(new, (), _literal_columns(new), 0, len(new), alphabet_size)


def compose_alignment(new: SPPattern, row_patterns: Sequence[SPPattern],
                      store: PatternStore,
                      alphabet_size: int | None = None) -> Alignment:
    """Build an alignment with an explicit Old-row order (no search)."""
    if alphabet_size is None:
        alphabet_size = default_alphabet(new, store)
    columns = _literal_columns(new)
    rows: tuple[SPPattern, ...] = ()
    codes, unmatched = 0, len(new)
    for pattern in row_patterns:
        columns, _, driving = _extend_columns(columns, pattern, row_index=len(rows) + 1)
        rows = rows + (pattern,)
        codes += code_cost(pattern.id, store)
        unmatched -= driving
    return _build(new, rows, columns, codes, unmatched, alphabet_size)


def _rank_key(item: tuple[float, tuple[str, ...]]) -> tuple:
    """(CD, Old-row ids): best CD first, then fewer rows, then the ids,
    which name the alignment, so no two alignments of a round tie."""
    cd, ids = item
    return (-cd, len(ids), ids)


@dataclass(frozen=True)
class AlignmentRanking:
    alignments: tuple[Alignment, ...]
    probabilities: tuple[float, ...]

    def __post_init__(self):
        assert len(self.alignments) == len(self.probabilities)

    @property
    def best(self) -> Alignment:
        return self.alignments[0]


def alignment_probabilities(alignments: Sequence[Alignment]) -> list[float]:
    """Relative probabilities 2^(-cost), normalised over the given list."""
    if not alignments:
        raise EmptyRanking("no alignments to assign probabilities to")
    costs = [al.encoding_cost for al in alignments]
    cmin = min(costs)
    weights = [2.0 ** (cmin - c) for c in costs]
    total = sum(weights)
    return [w / total for w in weights]


def _candidates(texts: Sequence[str], drives: Sequence[bool],
                store: PatternStore, olds: bool) -> dict[str, int]:
    """Id -> mh(p), for each stored pattern p that shares a symbol with a
    non-hit column: only these can match anything.  ``texts`` are the
    non-hit columns' texts, and ``drives`` says which of them hold a driving
    symbol.  Unless ``olds``, the patterns that share a symbol only with Old
    columns, all of mh 0, are left out.

    mh(p) is the sum over texts t of min(count of t in p, count of t in the
    driving columns).  A matched pair joins two equal texts and uses each
    occurrence once, so no merge of p turns more than mh(p) driving symbols
    into hits.  With need copies of t driving, min(have, need) is the number
    of levels c < need at which p holds more than c copies, so counting p
    once per level of ``store.holders(t)[:need]`` sums it."""
    need = Counter([t for t, d in zip(texts, drives) if d])
    ceilings = dict.fromkeys(chain.from_iterable(
        store.occurrences(t) for t, d in zip(texts, drives) if olds and not d), 0)
    ceilings.update(Counter(chain.from_iterable(
        level for t, n in need.items() for level in store.holders(t)[:n])))
    return ceilings


def build_alignments(new: SPPattern, store: PatternStore, beam: int = 50,
                     max_old_rows: int = 12,
                     alphabet_size: int | None = None) -> AlignmentRanking:
    """Beam search over alignments of ``new`` against the store.

    Starts from the literal alignment.  Each round extends the members the
    last round admitted by every stored pattern that shares a symbol with
    one of their non-hit columns, then keeps the best ``beam``.  A candidate
    whose CD bound cannot reach the beam is skipped before the kernel runs;
    the others are scored by one kernel call each, and columns are built
    only for the extensions the round keeps.
    Deterministic: the ranking is independent of candidate arrival order.
    """
    if beam < 1:
        raise ValueError("beam must be >= 1")
    if max_old_rows < 0:
        raise ValueError("max_old_rows must be >= 0")
    if alphabet_size is None:
        alphabet_size = default_alphabet(new, store)
    raw = raw_cost(new, alphabet_size)
    bits = symbol_cost_bits(alphabet_size)
    codes = store.codes()
    cheapest = min(codes.values(), default=0.0)

    # the beam: Old-row ids -> (alignment, its rows' codes, its unmatched
    # driving count); an extension takes both cost terms from its parent
    kept = {(): (literal_alignment(new, store, alphabet_size), 0, len(new))}
    for rows in range(max_old_rows):
        # Each round extends the members the last round admitted, which are
        # exactly those with `rows` Old rows: every member has one parent and
        # is only made in the round that extends that parent, so an older
        # member has had its round and a dropped one never comes back.
        frontier = [(ids, *member) for ids, member in kept.items() if len(ids) == rows]
        if not frontier:
            break
        # the `beam` best CDs among the distinct alignments of this round;
        # once it is full, its head is the CD an extension must reach
        floor = [al.compression_difference for al, _, _ in kept.values()]
        heapq.heapify(floor)

        def below_floor(cd: float) -> bool:
            """Whether an extension whose CD is at most ``cd`` would be cut
            at the round's end; the floor only rises, so it stays cut."""
            return len(floor) == beam and cd < floor[0] - _PRUNE_MARGIN

        # Old-row ids -> (CD, cost terms, parent, pattern, match): an
        # extension scored but not yet built (always a new key)
        scored = {}
        for ids, al, paid, unmatched in frontier:
            targets, texts = _unhit(al.columns)
            drives = [al.columns[ci].entries[0][0] == 0 for ci in targets]
            masks = kernels.text_masks(texts)  # one table for every candidate
            # a pattern that shares only Old symbols makes no driving hit, so
            # its bound is CD(al) - code(p): gather those only if the
            # cheapest code can pass
            olds = not below_floor(al.compression_difference - cheapest)
            # (least the pattern can add to the cost, id), popped best first
            bounds = [(codes[pid] - ceiling * bits, pid) for pid, ceiling
                      in _candidates(texts, drives, store, olds).items()]
            heapq.heapify(bounds)
            while bounds:
                cost, pid = heapq.heappop(bounds)
                if below_floor(al.compression_difference - cost):
                    break  # the rest bound lower still
                pattern = store.get(pid)
                pairs = kernels.match_pairs(texts, pattern.texts, masks)
                terms = (paid + codes[pid],
                         unmatched - sum([drives[ti] for ti, _ in pairs]))
                cd = raw - _cost(*terms, alphabet_size)  # the CD _build gives
                scored[ids + (pid,)] = (cd, terms, al, pattern, (targets, pairs))
                if len(floor) < beam:
                    heapq.heappush(floor, cd)
                else:
                    heapq.heappushpop(floor, cd)
        ranked = sorted([(al.compression_difference, ids)
                         for ids, (al, _, _) in kept.items()]
                        + [(ext[0], ids) for ids, ext in scored.items()],
                        key=_rank_key)[:beam]
        members = {}
        for _, ids in ranked:
            if ids in kept:
                members[ids] = kept[ids]
                continue
            # a survivor is built from the match that scored it
            _, terms, parent, pattern, match = scored[ids]
            columns, _, _ = _extend_columns(parent.columns, pattern, rows + 1, match)
            members[ids] = (_build(new, parent.old_rows + (pattern,), columns, *terms,
                                   alphabet_size), *terms)
        kept = members

    alignments = tuple(al for al, _, _ in kept.values())
    return AlignmentRanking(alignments, tuple(alignment_probabilities(alignments)))


def infer_unmatched(al: Alignment) -> list[tuple[str, SPSymbol]]:
    """Old-row symbols in non-hit columns, in column order: the content the
    partial match predicts."""
    out: list[tuple[str, SPSymbol]] = []
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

    The patterns that share a symbol with the query are round one of the
    search, and the others match nothing: each pays its code and leaves
    every driving symbol unmatched."""
    if k < 1:
        raise ValueError("k must be >= 1")
    alphabet_size = default_alphabet(query, store)
    # the literal alignment takes at most one of the k + 1 places
    ranking = build_alignments(query, store, beam=k + 1, max_old_rows=1,
                               alphabet_size=alphabet_size)
    scored = [(al.old_rows[0].id, al.compression_difference)
              for al in ranking.alignments if al.old_rows]
    shared = {pid for text in query.texts for pid in store.occurrences(text)}
    raw = raw_cost(query, alphabet_size)
    scored += [(pid, raw - _cost(code, len(query), alphabet_size))
               for pid, code in store.codes().items() if pid not in shared]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[:k]


def parse_render(al: Alignment) -> str:
    """Bracketed constituent rendering: each Old row wraps the column span it
    occupies, nested by containment; non-hit symbols appear bare."""
    spans: dict[int, tuple[int, int]] = {}
    for r in range(1, len(al.old_rows) + 1):
        cols = [ci for ci, col in enumerate(al.columns)
                if any(entry[0] == r for entry in col.entries)]
        spans[r] = (cols[0], cols[-1])
    opens: dict[int, list[int]] = {}
    for r, (start, end) in spans.items():
        opens.setdefault(start, []).append(r)
    for start in opens:
        opens[start].sort(key=lambda r: (-spans[r][1], r))
    tokens: list[str] = []
    stack: list[int] = []
    for ci, col in enumerate(al.columns):
        for r in opens.get(ci, ()):
            tokens.append(f"{al.old_rows[r - 1].id}(")
            stack.append(r)
        tokens.append(col.symbol)
        while stack and spans[stack[-1]][1] <= ci:
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
