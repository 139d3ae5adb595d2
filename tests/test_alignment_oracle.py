"""The beam search against the original one in ``alignment_oracle``:
rankings must be exactly equal."""

from hypothesis import given, settings
from hypothesis import strategies as st

import alignment_oracle as oracle
from icmup import (PatternKind, PatternStore, SPPattern, SPSymbol,
                   build_alignments, dump_columns, parse_grammar, parse_render)
from icmup import alignment

SYMBOLS = ("a", "b", "ab", "ba", "N", "#N", "x", "yy")


def ranking_of(ranking):
    return [(tuple(r.id for r in al.old_rows), al.compression_difference,
             al.encoding_cost, p, dump_columns(al), parse_render(al))
            for al, p in zip(ranking.alignments, ranking.probabilities)]


@st.composite
def searches(draw):
    alphabet = draw(st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=8,
                             unique=True))
    sequence = st.lists(st.sampled_from(alphabet), min_size=1, max_size=6)
    # stored patterns pick their bodies from a few drawn ones, so duplicate
    # bodies under different ids are common
    bodies = draw(st.lists(sequence, min_size=1, max_size=12))
    picks = draw(st.lists(st.tuples(st.integers(0, len(bodies) - 1),
                                    st.integers(1, 3)), max_size=60))
    store = PatternStore(
        SPPattern(f"p{i:02d}", tuple(SPSymbol(t) for t in bodies[k]), freq)
        for i, (k, freq) in enumerate(picks))
    new = SPPattern("new", tuple(SPSymbol(t) for t in draw(
        st.lists(st.sampled_from(alphabet), min_size=1, max_size=8))),
        kind=PatternKind.NEW)
    return new, store, draw(st.integers(1, 10)), draw(st.integers(0, 4))


@settings(max_examples=200)
@given(searches())
def test_rankings_equal_oracle(search):
    new, store, beam, max_old_rows = search
    assert ranking_of(build_alignments(new, store, beam, max_old_rows)) == \
        ranking_of(oracle.build_alignments(new, store, beam, max_old_rows))


def test_kittens_rankings_equal_oracle(kittens_new, kittens_store):
    for beam, max_old_rows in ((1, 12), (3, 2), (10, 4), (50, 12)):
        assert ranking_of(build_alignments(
            kittens_new, kittens_store, beam, max_old_rows)) == ranking_of(
            oracle.build_alignments(kittens_new, kittens_store, beam, max_old_rows))


def test_every_merge_matches_a_symbol(kittens_new, kittens_store, monkeypatch):
    # candidates come from the store's symbol index, so no merge is wasted
    # on a pattern that shares no symbol with an unmatched column
    hits = []
    merge = alignment._extend_columns

    def counted(*args, **kwargs):
        columns, n = merge(*args, **kwargs)
        hits.append(n)
        return columns, n

    monkeypatch.setattr(alignment, "_extend_columns", counted)
    build_alignments(kittens_new, kittens_store)
    assert hits and min(hits) >= 1


def test_ties_go_to_fewer_rows_then_ids():
    # A = 2 and two patterns of frequency 1: a code and an unmatched driving
    # symbol both cost 1 bit, so every alignment of "a b" has CD 0
    store = parse_grammar("PATTERN p0: a\nPATTERN p1: b\n")
    new = SPPattern.from_text("new", "a b", kind=PatternKind.NEW)
    ranking = build_alignments(new, store)
    assert {al.compression_difference for al in ranking.alignments} == {0.0}
    assert [tuple(r.id for r in al.old_rows) for al in ranking.alignments] == [
        (), ("p0",), ("p1",), ("p0", "p1"), ("p1", "p0")]
    assert ranking_of(ranking) == ranking_of(oracle.build_alignments(new, store))
