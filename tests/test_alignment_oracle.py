"""The beam search and retrieval against the original ones in
``alignment_oracle``: rankings must be exactly equal, though the bound
pruning skips most merges and retrieval reads the search's first round."""

import random
import time
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import alignment_oracle as oracle
from conftest import counting_merges
from icmup import (PatternStore, SPPattern, alignment_probabilities,
                   build_alignments, code_cost_bits, compose_alignment,
                   dump_columns, literal_alignment, parse_grammar, parse_render,
                   raw_cost, retrieve, symbol_cost_bits)
from icmup import alignment, kernels
from icmup.alignment import default_alphabet

SYMBOLS = ("a", "b", "ab", "ba", "N", "#N", "x", "yy")


def ranking_of(ranking):
    return [(tuple(r.id for r in al.old_rows), al.compression_difference,
             al.encoding_cost, p, dump_columns(al), parse_render(al))
            for al, p in zip(ranking, alignment_probabilities(ranking))]


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
        SPPattern(f"p{i:02d}", tuple(bodies[k]), freq)
        for i, (k, freq) in enumerate(picks))
    new = SPPattern("new", tuple(draw(
        st.lists(st.sampled_from(alphabet), min_size=1, max_size=8))))
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


@st.composite
def tie_heavy_searches(draw):
    """Stores full of ties: every pattern has one frequency, and a few
    bodies over a few symbols are each stored under up to four ids, the
    ids shuffled so that store order is not id order."""
    alphabet = draw(st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=3,
                             unique=True))
    sequence = st.lists(st.sampled_from(alphabet), min_size=1, max_size=4)
    bodies = draw(st.lists(st.tuples(sequence, st.integers(1, 4)), min_size=1,
                           max_size=4))
    rows = [body for body, copies in bodies for _ in range(copies)]
    ids = draw(st.permutations([f"p{i:02d}" for i in range(len(rows))]))
    frequency = draw(st.integers(1, 3))
    store = PatternStore(SPPattern(pid, tuple(body), frequency)
                         for pid, body in zip(ids, rows))
    new = SPPattern("new", tuple(draw(
        st.lists(st.sampled_from(alphabet), min_size=1, max_size=6))))
    return new, store, draw(st.integers(1, 4)), draw(st.integers(1, 4))


def oracle_tie_cuts(new, store, beam, max_old_rows):
    """The oracle's ranking, and how many of its cuts to ``beam`` fell
    inside a group of equal CDs, where only the rank key's rows and ids
    decide what stays."""
    cuts = 0

    def cutting_sorted(alignments, key):
        nonlocal cuts
        ranked = sorted(alignments, key=key)
        cuts += len(ranked) > beam and (ranked[beam - 1].compression_difference
                                        == ranked[beam].compression_difference)
        return ranked

    with mock.patch.object(oracle, "sorted", cutting_sorted, create=True):
        ranking = oracle.build_alignments(new, store, beam, max_old_rows)
    return ranking, cuts


def test_tie_heavy_rankings_equal_oracle():
    cuts = []

    @settings(max_examples=300)
    @given(tie_heavy_searches())
    def check(search):
        expected, tie_cuts = oracle_tie_cuts(*search)
        assert ranking_of(build_alignments(*search)) == ranking_of(expected)
        cuts.append(tie_cuts)

    check()
    # the strategy reaches the case it is for: a beam full of equal CDs
    assert sum(1 for n in cuts if n) >= 10


def test_bound_holds_in_float():
    # The search skips a candidate by its bound, the CD's own float
    # expression with the ceiling mh(p) in place of the driving hits.
    # Rounding to nearest is monotone in each operand, so no extension's
    # float CD exceeds its float bound: exactly, with no margin.
    tight = []

    @settings(max_examples=300)
    @given(searches(), st.data())
    def check(search, data):
        new, store, _, _ = search
        ids = list(store.ids())
        rows = data.draw(st.lists(st.sampled_from(ids), max_size=3)) if ids else []
        al = compose_alignment(new, [store.get(pid) for pid in rows], store)
        raw = raw_cost(new, al.alphabet_size)
        bits = symbol_cost_bits(al.alphabet_size)
        codes = store.codes
        targets, texts = alignment._unhit(al.columns)
        drives = [al.columns[ci].entries[0][0] == 0 for ci in targets]
        for pid, ceiling in alignment._candidates(texts, drives, store, True).items():
            cd = compose_alignment(new, al.old_rows + (store.get(pid),),
                                   store).compression_difference
            bound = raw - ((al.codes + codes[pid]) + (al.unmatched - ceiling) * bits)
            assert cd <= bound
            tight.append(cd == bound)

    check()
    assert any(tight) and not all(tight)


def assert_costs_recount(ranking, new, store):
    # each ranked alignment carries its cost terms from its parent; they
    # must give the very float a recount from its rows and columns gives
    alphabet_size = default_alphabet(new, store)
    for al in ranking:
        oracle.validate(al)
        assert al.unmatched == oracle._unmatched_new_count(new, al.columns)
        cost = oracle._cost(new, al.old_rows, al.columns, store, alphabet_size)
        assert al.encoding_cost == cost
        assert al.compression_difference == raw_cost(new, alphabet_size) - cost


@settings(max_examples=200)
@given(searches())
def test_carried_costs_equal_recount(search):
    new, store, beam, max_old_rows = search
    assert_costs_recount(build_alignments(new, store, beam, max_old_rows), new, store)


def test_kittens_carried_costs_equal_recount(kittens_new, kittens_store):
    # the four (beam, rows) settings the rankings are checked at
    for beam, max_old_rows in ((1, 12), (3, 2), (10, 4), (50, 12)):
        assert_costs_recount(build_alignments(kittens_new, kittens_store, beam,
                                              max_old_rows),
                             kittens_new, kittens_store)


def driving_hits(columns):
    return sum(1 for col in columns if col.is_hit
               for r, _ in col.entries if r == 0)


@st.composite
def merges(draw):
    """A driving pattern, 0-4 stored patterns already merged onto it and one
    more to merge, all over a few symbols."""
    alphabet = draw(st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=6,
                             unique=True))
    sequence = st.lists(st.sampled_from(alphabet), min_size=1, max_size=7)
    new = SPPattern("new", tuple(draw(sequence)))
    rows = [SPPattern(f"p{i}", tuple(body))
            for i, body in enumerate(draw(st.lists(sequence, min_size=1, max_size=5)))]
    return new, rows


@settings(max_examples=300)
@given(merges())
def test_extend_columns_equals_oracle(merge):
    new, rows = merge
    store = PatternStore(rows)
    columns = literal_alignment(new, store).columns
    for row_index, pattern in enumerate(rows[:-1], start=1):
        columns, _ = oracle._extend_columns(columns, pattern, row_index)
    expected, pairs = oracle._extend_columns(columns, rows[-1], len(rows))
    targets, texts = alignment._unhit(columns)
    match = targets, kernels.match_pairs(texts, rows[-1].symbols)
    got, got_pairs, driving = alignment._extend_columns(columns, rows[-1], len(rows),
                                                        match)
    assert got == expected and got_pairs == pairs
    assert driving == driving_hits(expected) - driving_hits(columns)
    # compose_alignment carries its cost terms through the same merges
    composed = compose_alignment(new, rows, store)
    assert composed.columns == got
    assert composed.encoding_cost == oracle._cost(new, rows, got, store,
                                                  default_alphabet(new, store))


def test_every_merge_matches_a_symbol(kittens_new, kittens_store):
    # candidates come from the store's symbol index, so no kernel call is
    # wasted on a pattern that shares no symbol with an unmatched column
    with counting_merges([]) as calls:
        build_alignments(kittens_new, kittens_store)
    assert calls and min(hits for _, hits in calls) >= 1


def test_kittens_merge_count(kittens_new, kittens_store):
    # at the defaults (beam 50, 12 rows) the search without the bound made
    # 838 merges; the bound skips every candidate that cannot reach the beam
    # before the kernel scores it.  Every kernel call counts: 177 scorings
    # and the walks of the 4 survivors scored by length
    with counting_merges([]) as calls:
        build_alignments(kittens_new, kittens_store)
    assert len(calls) == 181


def search_1k_store(bench_gen, sentences):
    """The 1,008-pattern kittens-style store and ``sentences`` joined
    ~20-letter sentences, searched at the defaults (beam 50, 12 rows): the
    kernel calls, the bound tuples the members made (one per candidate
    ``_candidates`` gathers), the ranking and the seconds the search took."""
    _, lines, lexicon = bench_gen.kittens_grammar(random.Random(1), 100, 500, 400)
    store = parse_grammar("\n".join(lines) + "\n")
    rng = random.Random(3)
    letters = [c for _ in range(sentences)
               for c in bench_gen.kittens_sentence(rng, lexicon, 20)]
    new = SPPattern("new", tuple(letters))
    assert (len(store), len(new)) == (1008, 20 * sentences)
    candidates, tuples = alignment._candidates, []

    def counted_candidates(*args):
        out = candidates(*args)
        tuples.append(len(out))
        return out

    with counting_merges([]) as calls, \
            mock.patch.object(alignment, "_candidates", counted_candidates):
        start = time.perf_counter()
        ranking = build_alignments(new, store)
        elapsed = time.perf_counter() - start
    return calls, sum(tuples), ranking, elapsed


@pytest.mark.parametrize("sentences, kernel_calls, bound_tuples",
                         [(1, 1592, 5143), (2, 6769, 14017), (4, 23311, 42035)])
def test_1k_store_kernel_calls(bench_gen, sentences, kernel_calls, bound_tuples):
    # The bound and the rank key decide which candidates are scored, so
    # their count is pinned at 20, 40 and 80 symbols.  Every kernel call
    # counts: the scorings by ``lcs_length`` and by ``match_pairs``, and
    # the walks of the survivors scored by length.  The ceiling threshold
    # decides which candidates get a bound tuple at all: before it, the
    # members made 122,258, 253,293 and 534,211 for the same scorings.
    calls, tuples, _, _ = search_1k_store(bench_gen, sentences)
    assert len(calls) == kernel_calls
    assert tuples == bound_tuples


def test_1k_store_160_symbols(bench_gen):
    # Eight sentences: from 80 symbols on, the 12 rows bind.  The search
    # took about 6 s at 160 symbols before the transposed kernel and the
    # holders-based ceilings, and 0.5-0.8 s since the floor became the
    # exact rank key, on a 2-vCPU x86-64 VM, so 4 s leaves room for a
    # slower host.  The kernel calls and the bound tuples (552,102 before
    # the ceiling threshold) are counted as at 20-80 symbols.
    calls, tuples, ranking, elapsed = search_1k_store(bench_gen, 8)
    assert len(calls) == 7852
    assert tuples == 24777
    assert len(ranking[0].old_rows) == 12
    assert elapsed < 4.0


@st.composite
def thresholds(draw):
    """A member's cost terms and a floor as a search makes them: A-ary
    symbols, codes -log2(f/F) added from 0.0, and for the floor the rank key
    of another alignment of the same New pattern."""
    bits = symbol_cost_bits(draw(st.integers(2, 60)))
    n = draw(st.integers(1, 40))
    total = draw(st.integers(1, 500))
    codes = st.lists(st.integers(1, total).map(
        lambda f: code_cost_bits(f, total)), max_size=4)

    def fold(terms):
        out = 0.0
        for term in terms:
            out += term
        return out

    raw, spent, floor_codes = n * bits, fold(draw(codes)), fold(draw(codes))
    floor = (-(raw - (floor_codes + draw(st.integers(0, n)) * bits)),
             draw(st.integers(0, 5)), ("p",))
    return floor, (draw(st.integers(0, 5)), ("",)), raw, spent, draw(st.integers(0, n)), bits


def least_ceiling_oracle(floor, tail, raw, spent, unmatched, bits):
    return next((c for c in range(unmatched + 1)
                 if (-(raw - (spent + (unmatched - c) * bits)), *tail) < floor),
                unmatched + 1)


BITS_53, BITS_29 = symbol_cost_bits(53), symbol_cost_bits(29)


@settings(max_examples=300)
@given(thresholds())
# a tie that passes: at c = 5 the key ties the floor's CD and passes on
# fewer rows, so the answer is 5
@example(((-(30 * BITS_53 - (0.0 + 13 * BITS_53)), 3, ("p",)), (1, ("",)),
          30 * BITS_53, 0.0, 18, BITS_53))
# a tie that fails: at c = 7 the key ties the floor's CD and fails on more
# rows, so the answer is 8
@example(((-(27 * BITS_29 - (0.0 + 7 * BITS_29)), 1, ("p",)), (4, ("",)),
          27 * BITS_29, 0.0, 14, BITS_29))
def test_least_ceiling_equals_a_scan(args):
    assert alignment._least_ceiling(*args) == least_ceiling_oracle(*args)


def candidate_inputs():
    """Non-hit column texts, which of them drive, and a store whose
    patterns hold some texts several times and some not at all."""
    texts = st.sampled_from(SYMBOLS + ("q",))
    bodies = st.lists(st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=8),
                      max_size=20)
    columns = st.lists(st.tuples(texts, st.booleans()), max_size=12)
    return st.tuples(columns, bodies.map(lambda bodies: PatternStore(
        SPPattern(f"p{i}", tuple(body))
        for i, body in enumerate(bodies))))


@settings(max_examples=300)
@given(candidate_inputs(), st.integers(0, 3))
def test_candidates_equal_oracle(inputs, least):
    columns, store = inputs
    texts = tuple(t for t, _ in columns)
    drives = [d for _, d in columns]
    # from ceiling 1 on, the patterns that share only Old symbols (mh 0)
    # are left out with every other below the threshold
    assert alignment._candidates(texts, drives, store, least) == {
        pid: mh for pid, mh in oracle._candidates(texts, drives, store).items()
        if mh >= least}


@settings(max_examples=200)
@given(searches(), st.integers(1, 4))
def test_full_beam_prunes_and_equals_oracle(search, max_old_rows):
    new, store, _, _ = search
    # A heavy pattern of a symbol no query holds makes every other code cost
    # more than log2(A), so the one-symbol probe gains less than its code and
    # cannot beat the literal alignment that fills a beam of 1.
    store = PatternStore(list(store) + [
        SPPattern("heavy", ("zz",), 100),
        SPPattern("probe", new.symbols[:1], 1)])
    calls, offered, walks = [], [], 0
    candidates, survivor = alignment._candidates, alignment._survivor

    def counted_candidates(*args):
        out = candidates(*args)
        offered.append(len(out))
        return out

    def counted_survivor(*args):
        nonlocal walks
        walks += args[-1] is None  # scored by length, so walked now
        return survivor(*args)

    with counting_merges(calls), \
            mock.patch.object(alignment, "_candidates", counted_candidates), \
            mock.patch.object(alignment, "_survivor", counted_survivor):
        ranking = build_alignments(new, store, 1, max_old_rows)
    # every kernel call but a survivor's walk scored a candidate
    assert len(calls) - walks < sum(offered)
    assert ranking_of(ranking) == \
        ranking_of(oracle.build_alignments(new, store, 1, max_old_rows))


def counting_builds(rounds, calls):
    """A stand-in for ``_extend_columns`` that counts the extensions each
    round builds, keyed by row index, and checks that placing one reuses
    the match it was scored by: ``calls`` holds the kernel calls so far."""
    place = alignment._extend_columns

    def counted(columns, pattern, row_index, *args):
        before = len(calls)
        result = place(columns, pattern, row_index, *args)
        assert len(calls) == before, "the kernel ran again to build"
        rounds[row_index] = rounds.get(row_index, 0) + 1
        return result
    return counted


def assert_builds_at_most_beam(new, store, beam, max_old_rows):
    rounds, calls = {}, []
    with counting_merges(calls), \
            mock.patch.object(alignment, "_extend_columns",
                              counting_builds(rounds, calls)):
        ranking = build_alignments(new, store, beam, max_old_rows)
    assert all(built <= beam for built in rounds.values())
    # every ranked alignment but the literal one was built
    assert sum(rounds.values()) >= len(ranking) - 1


@settings(max_examples=200)
@given(searches())
def test_each_round_builds_at_most_beam(search):
    assert_builds_at_most_beam(*search)


def test_kittens_rounds_build_at_most_beam(kittens_new, kittens_store):
    assert_builds_at_most_beam(kittens_new, kittens_store, 50, 12)


@settings(max_examples=200)
@given(searches())
def test_ranked_columns_equal_a_fresh_chain(search):
    # a ranked alignment was placed from the match that scored it and took
    # its cost terms from its parent; merging its rows afresh, one after
    # another, gives the same record
    new, store, beam, max_old_rows = search
    for al in build_alignments(new, store, beam, max_old_rows):
        assert al == compose_alignment(new, al.old_rows, store)


@st.composite
def retrievals(draw, frequencies=st.integers(1, 3)):
    """A query, a store of patterns over a few symbols, with frequencies
    from ``frequencies``, and a k larger than the number of patterns that
    share a symbol with the query."""
    alphabet = draw(st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=8,
                             unique=True))
    bodies = draw(st.lists(st.lists(st.sampled_from(alphabet), min_size=1,
                                    max_size=6), max_size=20))
    store = PatternStore(
        SPPattern(f"p{i:02d}", tuple(body), draw(frequencies))
        for i, body in enumerate(bodies))
    query = draw(st.lists(st.sampled_from(alphabet + ["q", "r"]), min_size=1,
                          max_size=8))
    sharers = sum(1 for body in bodies if set(body) & set(query))
    k = sharers + draw(st.integers(1, 4))
    return SPPattern("q", tuple(query)), store, k


# rare (1-3) and frequent (100-400) patterns: a pattern that shares no
# symbol with the query scores minus its code, which a frequent one keeps
# small, so it can outrank a rare sharer
SKEWED = st.one_of(st.integers(1, 3), st.integers(100, 400))


@settings(max_examples=300)
@given(st.one_of(retrievals(), retrievals(SKEWED)))
# "x", the only sharer, matches "a" for 2 bits but pays an 8.7-bit code;
# "y" and "w" share nothing, and "y" pays under 0.01 bits, so y ranks
# first, then x, then w
@example((SPPattern.from_text("q", "a b c"),
          PatternStore([SPPattern.from_text("x", "a"),
                        SPPattern.from_text("y", "z", frequency=400),
                        SPPattern.from_text("w", "z", frequency=3)]), 3))
def test_retrieve_past_the_sharers_equals_oracle(retrieval):
    # fewer than k patterns share a symbol, so every one of the others is
    # priced as matching nothing, and it may outrank a sharer
    query, store, k = retrieval
    result = retrieve(query, store, k)
    assert result == oracle.retrieve(query, store, k)
    assert len(result) == min(k, len(store))


@st.composite
def crowded_retrievals(draw):
    """A query, a store of rare (1-3) and frequent (100-400) patterns, and a
    k no larger than the number of patterns that share a symbol with the
    query.  A pattern that shares none scores minus its code, which a
    frequent one keeps small, so it can outrank rare sharers whose CD is
    negative (about one example in six)."""
    alphabet = draw(st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=8,
                             unique=True))
    bodies = draw(st.lists(st.lists(st.sampled_from(alphabet + ["q", "r"]),
                                    min_size=1, max_size=6),
                           min_size=1, max_size=20))
    store = PatternStore(SPPattern(f"p{i:02d}", tuple(body), draw(SKEWED))
                         for i, body in enumerate(bodies))
    query = draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=8))
    sharers = sum(1 for body in bodies if set(body) & set(query))
    assume(sharers >= 1)
    k = draw(st.integers(1, sharers))
    return SPPattern("q", tuple(query)), store, k


@settings(max_examples=300)
@given(crowded_retrievals())
# "x" and "x2" match one and two query symbols (2.8 bits each) but pay an
# 8.7-bit code; "y" matches nothing and pays under 0.01 bits, so it is the
# top 1 though two patterns share a symbol with the query
@example((SPPattern.from_text("q", "a b c d e f"),
          PatternStore([SPPattern.from_text("x", "a"),
                        SPPattern.from_text("x2", "a b"),
                        SPPattern.from_text("y", "z", frequency=400)]), 1))
def test_retrieve_within_the_sharers_equals_oracle(retrieval):
    # the cut falls among the sharers, and a cheap non-sharer may pass it
    query, store, k = retrieval
    result = retrieve(query, store, k)
    assert result == oracle.retrieve(query, store, k)
    assert len(result) == k


@settings(max_examples=200)
@given(st.data())
def test_retrieve_id_ties_equal_oracle(data):
    # copies of one body under shuffled ids score the same, and k cuts
    # through a group of equal scores, so only the id decides who is in
    body = data.draw(st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=5))
    others = data.draw(st.lists(st.lists(st.sampled_from(SYMBOLS), min_size=1,
                                         max_size=5), max_size=8))
    copies = data.draw(st.integers(2, 6))
    ids = data.draw(st.permutations([f"id{i}" for i in range(copies + len(others))]))
    store = PatternStore(
        SPPattern(pid, tuple(syms), 2)
        for pid, syms in zip(ids, [body] * copies + others))
    query = SPPattern("q", tuple(data.draw(
        st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=6))))
    full = oracle.retrieve(query, store, len(store))
    cuts = [k for k in range(1, len(full)) if full[k - 1][1] == full[k][1]]
    assert cuts  # the copies tie, at least
    k = data.draw(st.sampled_from(cuts))
    assert retrieve(query, store, k) == oracle.retrieve(query, store, k)


def test_kittens_retrieve_equals_oracle(kittens_store):
    for text in ("k i t t e n", "N Np Nr #Nr s #N", "t w o k i t t e n s"):
        query = SPPattern.from_text("q", text)
        for k in range(1, len(kittens_store) + 2):
            assert retrieve(query, kittens_store, k) == \
                oracle.retrieve(query, kittens_store, k)


def assert_retrieve_work(query, store, k):
    rounds, calls = {}, []
    with counting_merges(calls), \
            mock.patch.object(alignment, "_extend_columns",
                              counting_builds(rounds, calls)):
        retrieve(query, store, k)
    # columns only for the search's survivors, the literal alignment aside
    assert sum(rounds.values()) <= k + 1
    # every query column is open to the kernel, so a call that matched
    # nothing was one on a pattern that shares no symbol with the query
    assert all(hits >= 1 for _, hits in calls)


@settings(max_examples=200)
@given(st.one_of(retrievals(), crowded_retrievals()))
def test_retrieve_builds_only_survivors(retrieval):
    assert_retrieve_work(*retrieval)


def test_kittens_retrieve_builds_only_survivors(kittens_store):
    for text in ("k i t t e n", "N Np Nr #Nr s #N", "t w o k i t t e n s"):
        query = SPPattern.from_text("q", text)
        for k in range(1, len(kittens_store) + 2):
            assert_retrieve_work(query, kittens_store, k)


def test_ties_go_to_fewer_rows_then_ids():
    # A = 2 and two patterns of frequency 1: a code and an unmatched driving
    # symbol both cost 1 bit, so every alignment of "a b" has CD 0
    store = parse_grammar("PATTERN p0: a\nPATTERN p1: b\n")
    new = SPPattern.from_text("new", "a b")
    ranking = build_alignments(new, store)
    assert {al.compression_difference for al in ranking} == {0.0}
    assert [tuple(r.id for r in al.old_rows) for al in ranking] == [
        (), ("p0",), ("p1",), ("p0", "p1"), ("p1", "p0")]
    assert ranking_of(ranking) == ranking_of(oracle.build_alignments(new, store))
