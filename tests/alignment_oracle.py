"""Reference beam search and retrieval: the original column merge, search
loop and ``retrieve``, kept verbatim as oracles.
``icmup.alignment.build_alignments`` and ``icmup.alignment.retrieve`` must
give exactly the same rankings.

The merge builds ``insert_before`` / ``insert_after`` maps and has a
separate no-match branch; the search extends every frontier member by every
stored pattern, drops the zero-hit results, recomputes each alignment's
signature wherever it needs one and remembers expanded members in a set.
``retrieve`` aligns the query with every stored pattern through
``align_pair``, the package's former pairwise alignment, and sorts them all.
Both price each alignment by recounting its rows' codes and its unmatched
driving symbols (``_cost``), as the package once did.  Merges match with
``kernel_oracle.match_pairs``, the dynamic-programming table, so no oracle
here runs the package's kernel.

``validate`` and ``new_hit_positions`` read an alignment's columns back:
the structural invariants, and the driving positions in hit columns.

``_candidates`` is the search's former candidate set, one ``min`` per
(text, pattern) pair, with each count taken from the stored pattern's
symbols rather than from the store's index; the package's must give the
same ceilings.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import kernel_oracle
from icmup.alignment import (Alignment, Column, default_alphabet,
                             literal_alignment)
from icmup.patterns import (PatternStore, SPPattern, code_cost, raw_cost,
                            symbol_cost_bits)


def validate(al: Alignment) -> None:
    """Assert the structural invariants: each column holds one text, and
    each row's positions sit in its columns once each, in order."""
    rows = [al.new_row] + list(al.old_rows)
    seen: dict[int, list[int]] = {r: [] for r in range(len(rows))}
    for col in al.columns:
        assert col.entries, "empty column"
        for r, pos in col.entries:
            assert rows[r].symbols[pos] == col.symbol, "column symbol mismatch"
            seen[r].append(pos)
    for r, positions in seen.items():
        assert positions == sorted(positions), f"row {r} out of order"
        assert sorted(positions) == list(range(len(rows[r]))), f"row {r} not partitioned"


def new_hit_positions(al: Alignment) -> set[int]:
    """Driving-row positions that sit in hit columns."""
    return {pos for col in al.columns if col.is_hit
            for r, pos in col.entries if r == 0}


def _extend_columns(columns: Sequence[Column], pattern: SPPattern,
                    row_index: int) -> tuple[tuple[Column, ...], int]:
    """Merge a further pattern into the column structure as a new row.

    The pattern is matched (maximally, leftmost) against the sequence of
    non-hit columns; matched columns become hits, unmatched pattern symbols
    are inserted as fresh columns adjacent to their nearest anchor.  Returns
    the new columns and the number of matched pairs.
    """
    targets = [(ci, col.symbol) for ci, col in enumerate(columns) if not col.is_hit]
    target_texts = tuple(t for _, t in targets)
    p_texts = pattern.symbols
    pairs = kernel_oracle.match_pairs(target_texts, p_texts)

    hit_at: dict[int, int] = {}
    insert_before: dict[int, list[int]] = {}
    insert_after: dict[int, list[int]] = {}
    if pairs:
        anchor_cols = [targets[ti][0] for ti, _ in pairs]
        for (ti, pj), ci in zip(pairs, anchor_cols):
            hit_at[ci] = pj
        first_pj = pairs[0][1]
        insert_before[anchor_cols[0]] = list(range(0, first_pj))
        for k in range(1, len(pairs)):
            prev_pj = pairs[k - 1][1]
            cur_pj = pairs[k][1]
            insert_before.setdefault(anchor_cols[k], []).extend(
                range(prev_pj + 1, cur_pj))
        last_pj = pairs[-1][1]
        insert_after[anchor_cols[-1]] = list(range(last_pj + 1, len(p_texts)))
    else:
        # nothing matched: the whole pattern trails the existing columns
        insert_after[len(columns) - 1] = list(range(len(p_texts)))

    out: list[Column] = []
    for ci, col in enumerate(columns):
        for pj in insert_before.get(ci, ()):
            out.append(Column(p_texts[pj], ((row_index, pj),)))
        if ci in hit_at:
            col = Column(col.symbol, col.entries + ((row_index, hit_at[ci]),))
        out.append(col)
        for pj in insert_after.get(ci, ()):
            out.append(Column(p_texts[pj], ((row_index, pj),)))
    return tuple(out), len(pairs)


def _candidates(texts: Sequence[str], drives: Sequence[bool],
                store: PatternStore) -> dict[str, int]:
    """Id -> mh(p), for each stored pattern p that shares a symbol with a
    non-hit column: only these can match anything.  ``texts`` are the
    non-hit columns' texts, and ``drives`` says which of them hold a driving
    symbol.

    mh(p) is the sum over texts t of min(count of t in p, count of t in the
    driving columns).  A matched pair joins two equal texts and uses each
    occurrence once, so no merge of p turns more than mh(p) driving symbols
    into hits."""
    need = Counter([t for t, d in zip(texts, drives) if d])
    return {p.id: sum(min(p.symbols.count(t), n) for t, n in need.items())
            for p in store if not set(texts).isdisjoint(p.symbols)}


def _unmatched_new_count(new: SPPattern, columns: Sequence[Column]) -> int:
    hit = 0
    for col in columns:
        if col.is_hit:
            hit += sum(1 for r, _ in col.entries if r == 0)
    return len(new) - hit


def _codes(old_rows: Sequence[SPPattern], store: PatternStore | None) -> float:
    """The Old rows' codes (free when no store prices them), added in row
    order from 0.0.  A left fold, not ``sum``: from Python 3.12 ``sum``
    compensates a float total's rounding, and the package's carried codes
    are a left fold."""
    codes = 0.0
    if store is not None:
        for r in old_rows:
            codes += code_cost(r.id, store)
    return codes


def _cost(new: SPPattern, old_rows: Sequence[SPPattern],
          columns: Sequence[Column], store: PatternStore | None,
          alphabet_size: int) -> float:
    """The cost rule: the Old rows' codes, plus log2(A) per driving symbol
    in a non-hit column."""
    return (_codes(old_rows, store)
            + _unmatched_new_count(new, columns) * symbol_cost_bits(alphabet_size))


def _build(new: SPPattern, old_rows: tuple[SPPattern, ...],
           columns: tuple[Column, ...], store: PatternStore | None,
           alphabet_size: int) -> Alignment:
    """The alignment with its cost terms recounted from its rows and
    columns; the record's cost must be the one ``_cost`` gives."""
    al = Alignment(new, old_rows, columns, _codes(old_rows, store),
                   _unmatched_new_count(new, columns), alphabet_size)
    assert al.encoding_cost == _cost(new, old_rows, columns, store, alphabet_size)
    return al


def align_pair(a: SPPattern, b: SPPattern,
               alphabet_size: int | None = None) -> Alignment:
    """Two-row alignment maximising hit columns, leftmost on ties.

    The hit count equals the longest-common-subsequence length of the two
    symbol sequences.  Standalone pairwise costing treats ``b`` as the sole
    stored pattern, so its code is free and CD is the matched symbol mass.
    """
    if alphabet_size is None:
        alphabet_size = max(len(set(a.symbols) | set(b.symbols)), 1)
    literal = tuple(Column(s, ((0, i),)) for i, s in enumerate(a.symbols))
    columns, _ = _extend_columns(literal, b, row_index=1)
    return _build(a, (b,), columns, None, alphabet_size)


def _signature(al: Alignment):
    return (tuple(r.id for r in al.old_rows),
            tuple((c.symbol, c.entries) for c in al.columns))


def _rank_key(al: Alignment):
    return (-al.compression_difference, len(al.old_rows),
            tuple(r.id for r in al.old_rows), _signature(al))


def build_alignments(new: SPPattern, store: PatternStore, beam: int = 50,
                     max_old_rows: int = 12) -> tuple[Alignment, ...]:
    """Beam search over alignments of ``new`` against the store.

    Seeds with the literal alignment plus every single-row pairwise
    alignment, then repeatedly extends beam members with further stored
    patterns matched against their unmatched columns.  Deterministic: the
    ranking is independent of candidate arrival order.
    """
    if beam < 1:
        raise ValueError("beam must be >= 1")
    if max_old_rows < 0:
        raise ValueError("max_old_rows must be >= 0")
    alphabet_size = default_alphabet(new, store)

    def extend(al: Alignment, pattern: SPPattern) -> Alignment | None:
        columns, hits = _extend_columns(al.columns, pattern,
                                        row_index=len(al.old_rows) + 1)
        if hits == 0:
            return None
        return _build(new, al.old_rows + (pattern,), columns, store, alphabet_size)

    literal = literal_alignment(new, store)
    kept: dict = {_signature(literal): literal}
    expanded: set = set()
    while True:
        ranked = sorted(kept.values(), key=_rank_key)[:beam]
        kept = {_signature(al): al for al in ranked}
        frontier = [al for al in ranked
                    if _signature(al) not in expanded
                    and len(al.old_rows) < max_old_rows]
        if not frontier:
            break
        for al in frontier:
            expanded.add(_signature(al))
            for pid in store.ids():
                ext = extend(al, store.get(pid))
                if ext is not None:
                    kept.setdefault(_signature(ext), ext)

    return tuple(sorted(kept.values(), key=_rank_key)[:beam])


def retrieve(query: SPPattern, store: PatternStore,
             k: int) -> list[tuple[str, float]]:
    """Top-k stored patterns by pairwise compression difference against the
    query, with store code costs; ties break by id."""
    if k < 1:
        raise ValueError("k must be >= 1")
    alphabet_size = default_alphabet(query, store)
    raw = raw_cost(query, alphabet_size)
    scored: list[tuple[str, float]] = []
    for pid in store.ids():
        al = align_pair(query, store.get(pid), alphabet_size)
        cost = _cost(query, al.old_rows, al.columns, store, alphabet_size)
        scored.append((pid, raw - cost))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[:k]
