import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alignment_oracle as oracle
from conftest import pair_alignment
from icmup import (Alignment, PatternStore, SPPattern,
                   alignment_probabilities, build_alignments, code_cost,
                   compose_alignment, dump_columns, infer_unmatched,
                   literal_alignment, parse_render, raw_cost, retrieve)
from icmup.alignment import default_alphabet
from icmup.errors import EmptyRanking, UnknownPattern

DNA_A = "G G A G C A G G G A G G A T G G G G A"
DNA_B = "G G G G C C C A G G G A G G A G G C G G G A"


def lcs_oracle(a, b):
    n, m = len(a), len(b)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if a[i - 1] == b[j - 1]:
                dp[i][j] = dp[i - 1][j - 1] + 1
            else:
                dp[i][j] = max(dp[i - 1][j], dp[i][j - 1])
    return dp[n][m]


def new_pattern(text, pid="new"):
    return SPPattern.from_text(pid, text)


class TestAlignPair:
    """Two-row alignments: a driving pattern against a one-pattern store."""

    def test_identical_sequences_all_hits(self):
        a = new_pattern("a b c")
        b = SPPattern.from_text("b", "a b c")
        al = pair_alignment(a, b)
        oracle.validate(al)
        assert al.hit_count() == 3
        assert len(al.columns) == 3

    def test_three_hits(self):
        al = pair_alignment(new_pattern("G G A G"), SPPattern.from_text("b", "G G C G"))
        assert al.hit_count() == 3
        oracle.validate(al)

    def test_dna_rows_match_oracle(self):
        al = pair_alignment(new_pattern(DNA_A), SPPattern.from_text("b", DNA_B))
        assert al.hit_count() == lcs_oracle(DNA_A.split(), DNA_B.split())
        oracle.validate(al)

    def test_random_pairs_match_oracle(self):
        rng = random.Random(99)
        for _ in range(100):
            xs = [rng.choice("abcz") for _ in range(rng.randrange(0, 41))]
            ys = [rng.choice("abcz") for _ in range(rng.randrange(0, 41))]
            if not xs or not ys:
                continue
            al = pair_alignment(new_pattern(" ".join(xs)),
                            SPPattern.from_text("b", " ".join(ys)))
            assert al.hit_count() == lcs_oracle(xs, ys)
            oracle.validate(al)

    def test_no_shared_symbols(self):
        al = pair_alignment(new_pattern("a b"), SPPattern.from_text("b", "x y"))
        oracle.validate(al)
        assert al.hit_count() == 0
        assert al.compression_difference == pytest.approx(0.0)

    @settings(max_examples=300)
    @given(st.lists(st.sampled_from("abcz"), min_size=1, max_size=30),
           st.lists(st.sampled_from("abcz"), min_size=1, max_size=30),
           st.integers(1, 5))
    def test_pairs_equal_the_oracle_pairwise_alignment(self, xs, ys, frequency):
        # the one-pattern store makes b's code free at any frequency, and its
        # alphabet is the two patterns' texts, as the oracle's is
        a = new_pattern(" ".join(xs))
        b = SPPattern.from_text("b", " ".join(ys), frequency=frequency)
        al, expected = pair_alignment(a, b), oracle.align_pair(a, b)
        assert al.columns == expected.columns
        assert al.encoding_cost == expected.encoding_cost
        assert al.compression_difference == expected.compression_difference
        assert al.hit_count() == lcs_oracle(xs, ys)


class TestEncodingCost:
    def test_literal_alignment_cd_zero(self, kittens_store, kittens_new):
        al = literal_alignment(kittens_new, kittens_store)
        alphabet = default_alphabet(kittens_new, kittens_store)
        assert al.encoding_cost == pytest.approx(raw_cost(kittens_new, alphabet))
        assert al.compression_difference == pytest.approx(0.0)

    def test_full_match_costs_the_code(self):
        store = PatternStore([SPPattern.from_text("p", "a b c", frequency=3),
                              SPPattern.from_text("q", "z", frequency=1)])
        new = new_pattern("a b c")
        ranking = build_alignments(new, store)
        best = ranking[0]
        assert [r.id for r in best.old_rows] == ["p"]
        assert best.encoding_cost == pytest.approx(-math.log2(3 / 4))

    def test_kittens_alignment_beats_raw(self, kittens_store, kittens_new):
        ranking = build_alignments(kittens_new, kittens_store)
        alphabet = default_alphabet(kittens_new, kittens_store)
        assert ranking[0].encoding_cost < raw_cost(kittens_new, alphabet)

    @given(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=8),
           st.lists(st.lists(st.sampled_from("abcdxyz"), min_size=1, max_size=5),
                    max_size=5))
    def test_default_alphabet_counts_the_union(self, query, bodies):
        new = SPPattern.from_text("new", " ".join(query))
        store = PatternStore(SPPattern.from_text(f"p{i}", " ".join(body))
                             for i, body in enumerate(bodies))
        union = set(new.symbols) | store.alphabet
        assert default_alphabet(new, store) == max(len(union), 1)

    def test_unknown_old_row(self, kittens_store, kittens_new):
        foreign = SPPattern.from_text("zz", "k i t")
        with pytest.raises(UnknownPattern):
            compose_alignment(kittens_new, [foreign], kittens_store)


class TestBuildAlignments:
    def test_kittens_full_coverage(self, kittens_store, kittens_new):
        ranking = build_alignments(kittens_new, kittens_store)
        best = ranking[0]
        oracle.validate(best)
        assert oracle.new_hit_positions(best) == set(range(14))
        assert best.compression_difference > 0
        used = {r.id for r in best.old_rows}
        assert {"p1", "p3", "p5"} <= used  # the word patterns

    def test_identical_single_pattern(self):
        store = PatternStore([SPPattern.from_text("only", "m n o")])
        ranking = build_alignments(new_pattern("m n o"), store)
        best = ranking[0]
        assert [r.id for r in best.old_rows] == ["only"]
        assert all(c.is_hit for c in best.columns)

    def test_disjoint_store_gives_literal_only(self):
        store = PatternStore([SPPattern.from_text("p", "x y z")])
        ranking = build_alignments(new_pattern("a b c"), store)
        assert len(ranking) == 1
        assert ranking[0].old_rows == ()
        assert ranking[0].compression_difference == pytest.approx(0.0)
        assert alignment_probabilities(ranking)[0] == pytest.approx(1.0)

    def test_cd_floor_is_zero(self, kittens_store):
        rng = random.Random(5)
        for _ in range(20):
            text = " ".join(rng.choice("ktwosplay#NrVD5") for _ in range(rng.randrange(1, 10)))
            ranking = build_alignments(new_pattern(text), kittens_store)
            assert ranking[0].compression_difference >= -1e-9

    def test_parameter_validation(self, kittens_store, kittens_new):
        with pytest.raises(ValueError):
            build_alignments(kittens_new, kittens_store, beam=0)
        with pytest.raises(ValueError):
            build_alignments(kittens_new, kittens_store, max_old_rows=-1)

    def test_ranking_sorted_and_normalised(self, kittens_store, kittens_new):
        ranking = build_alignments(kittens_new, kittens_store)
        cds = [a.compression_difference for a in ranking]
        assert cds == sorted(cds, reverse=True)
        probs = alignment_probabilities(ranking)
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)
        assert probs == sorted(probs, reverse=True)

    def test_probabilities_total_with_a_left_fold(self):
        # weights 1, 2^-53 and 2^-53: added left to right from 0.0, each
        # small weight rounds away and the total is 1.0, on every Python.
        # A compensated sum (``sum`` from 3.12) totals 1 + 2^-52, and the
        # best alignment's p would fall below 1.0.
        new = new_pattern("a")
        ranking = [Alignment(new, (), (), codes, 0, 2) for codes in (0.0, 53.0, 53.0)]
        assert [al.encoding_cost for al in ranking] == [0.0, 53.0, 53.0]
        probs = alignment_probabilities(ranking)
        assert probs[0] == 1.0
        assert probs[1:] == [2.0 ** -53] * 2

    def test_pattern_reused_across_rows(self):
        # a stored word can appear twice in one driving sequence
        store = PatternStore([SPPattern.from_text("w", "x y"),
                              SPPattern.from_text("z", "q")])
        ranking = build_alignments(new_pattern("x y x y"), store)
        best = ranking[0]
        oracle.validate(best)
        assert [r.id for r in best.old_rows] == ["w", "w"]
        assert oracle.new_hit_positions(best) == {0, 1, 2, 3}

    def test_alignments_sharing_a_last_row_are_kept_apart(self):
        # ("a", "w") and ("b", "w") end in the same row but are different
        # alignments; the beam holds both
        store = PatternStore([SPPattern.from_text("a", "x"),
                              SPPattern.from_text("b", "y"),
                              SPPattern.from_text("w", "z")])
        ranking = build_alignments(new_pattern("x y z q r s"), store)
        ids = [tuple(r.id for r in al.old_rows) for al in ranking]
        assert len(ids) == len(set(ids))
        assert ("a", "w") in ids and ("b", "w") in ids
        assert ids[0] == ("a", "b", "w")

    def test_unknown_symbols_stay_literal(self, kittens_store):
        new = new_pattern("k i t t e n ! ?")
        ranking = build_alignments(new, kittens_store)
        best = ranking[0]
        oracle.validate(best)
        hits = oracle.new_hit_positions(best)
        assert {0, 1, 2, 3, 4, 5} <= hits
        assert 6 not in hits and 7 not in hits

    def test_greedy_beam_still_covers(self, kittens_store, kittens_new):
        ranking = build_alignments(kittens_new, kittens_store, beam=1)
        assert oracle.new_hit_positions(ranking[0]) == set(range(14))
        assert len(ranking) == 1

    def test_zero_old_rows_budget(self, kittens_store, kittens_new):
        ranking = build_alignments(kittens_new, kittens_store, max_old_rows=0)
        assert ranking[0].old_rows == ()
        assert ranking[0].compression_difference == pytest.approx(0.0)

    def test_ranked_columns_equal_a_fresh_chain(self, kittens_store, kittens_new):
        # the search builds only the extensions a round keeps, from the
        # match that scored them; a fresh chain of merges gives the same
        # record: columns, cost terms, cost and CD
        for al in build_alignments(kittens_new, kittens_store):
            assert al == compose_alignment(kittens_new, al.old_rows, kittens_store)

    def test_bracket_chaining_two_levels(self):
        # the inner pattern's service symbols are matched by the outer one
        store = PatternStore([
            SPPattern.from_text("word", "W a b #W"),
            SPPattern.from_text("phrase", "P W #W #P"),
        ])
        ranking = build_alignments(new_pattern("a b"), store)
        # phrase adds no driving-symbol hit, so it costs its 1-bit code and
        # the bare word ranks first (CD = 2*log2(6) - 1)
        best = ranking[0]
        oracle.validate(best)
        assert [r.id for r in best.old_rows] == ["word"]
        assert parse_render(best) == "word( W a b #W )"
        assert best.compression_difference == pytest.approx(2 * math.log2(6) - 1)

        chained = [al for al in ranking
                   if [r.id for r in al.old_rows] == ["word", "phrase"]]
        assert len(chained) == 1
        outer = chained[0]
        oracle.validate(outer)
        assert oracle.new_hit_positions(outer) == {0, 1}
        assert parse_render(outer) == "phrase( P word( W a b #W ) #P )"
        assert dump_columns(outer).split("\n") == [
            "0\tP\tphrase",
            "1\tW\tword,phrase",
            "2\ta\tnew,word",
            "3\tb\tnew,word",
            "4\t#W\tword,phrase",
            "5\t#P\tphrase",
        ]
        gap = code_cost("phrase", store)
        assert gap == 1.0
        assert outer.encoding_cost - best.encoding_cost == gap
        assert best.compression_difference - outer.compression_difference == gap


class TestProbabilities:
    def test_single(self, kittens_store, kittens_new):
        al = literal_alignment(kittens_new, kittens_store)
        assert alignment_probabilities([al]) == [1.0]

    def test_equal_costs_split_evenly(self):
        store = PatternStore([SPPattern.from_text("p", "a b"),
                              SPPattern.from_text("q", "a b")])
        ranking = build_alignments(new_pattern("a b"), store)
        top2 = ranking[:2]
        assert alignment_probabilities(top2) == pytest.approx([0.5, 0.5])

    def test_one_bit_apart(self):
        # frequencies 2 and 1 make the two full-match code costs differ by
        # exactly one bit
        store = PatternStore([SPPattern.from_text("p", "a b", frequency=2),
                              SPPattern.from_text("q", "a b", frequency=1)])
        ranking = build_alignments(new_pattern("a b"), store)
        a, b = ranking[:2]
        assert b.encoding_cost - a.encoding_cost == pytest.approx(1.0)
        probs = alignment_probabilities([a, b])
        assert probs == pytest.approx([2 / 3, 1 / 3])

    def test_empty_ranking(self):
        with pytest.raises(EmptyRanking):
            alignment_probabilities([])


class TestInferUnmatched:
    def test_word_pattern_predictions(self, kittens_store):
        new = new_pattern("k i t t e n")
        al = pair_alignment(new, kittens_store.get("p1"))
        predicted = infer_unmatched(al)
        assert predicted == [("p1", "Nr"), ("p1", "5"), ("p1", "#Nr")]

    def test_identical_pair_predicts_nothing(self):
        al = pair_alignment(new_pattern("a b"), SPPattern.from_text("p", "a b"))
        assert infer_unmatched(al) == []

    def test_literal_alignment_predicts_nothing(self, kittens_new, kittens_store):
        assert infer_unmatched(literal_alignment(kittens_new, kittens_store)) == []


class TestRetrieve:
    def test_exact_pattern_first(self, kittens_store):
        result = retrieve(new_pattern("N Np Nr #Nr s #N", "q"), kittens_store, 3)
        assert result[0][0] == "p2"

    def test_kitten_query(self, kittens_store):
        result = retrieve(new_pattern("k i t t e n", "q"), kittens_store, 8)
        assert result[0][0] == "p1"
        assert len(result) == 8

    def test_empty_store(self):
        assert retrieve(new_pattern("a"), PatternStore([]), 4) == []

    def test_k_validation(self, kittens_store):
        with pytest.raises(ValueError):
            retrieve(new_pattern("a"), kittens_store, 0)


class TestRendering:
    def test_literal_renders_verbatim(self, kittens_new, kittens_store):
        al = literal_alignment(kittens_new, kittens_store)
        assert parse_render(al) == "t w o k i t t e n s p l a y"

    def test_single_row_brackets(self):
        al = pair_alignment(new_pattern("a b"), SPPattern.from_text("P1", "a b"))
        assert parse_render(al) == "P1( a b )"

    def test_full_parse_nesting(self, kittens_store, kittens_new):
        order = ["p1", "p3", "p5", "p2", "p4", "p6", "p7", "p8"]
        full = compose_alignment(kittens_new, [kittens_store.get(p) for p in order],
                                 kittens_store)
        oracle.validate(full)
        rendered = parse_render(full)
        spans = bracket_spans(rendered)
        words = rendered.split()
        # noun-phrase span contains both word groups, verb span the third,
        # and the sentence span contains everything
        assert contains(spans["p4"], words.index("t"), words.index("o"))
        assert contains(spans["p4"], words.index("k"), words.index("n"))
        assert contains(spans["p6"], words.index("p"), words.index("y"))
        assert contains(spans["p7"], *spans["p4"])
        assert contains(spans["p7"], *spans["p6"])
        assert contains(spans["p4"], *spans["p3"])
        assert contains(spans["p4"], *spans["p2"])

    def test_dump_columns_stable(self, kittens_store, kittens_new):
        ranking = build_alignments(kittens_new, kittens_store)
        dump1 = dump_columns(ranking[0])
        dump2 = dump_columns(build_alignments(kittens_new, kittens_store)[0])
        assert dump1 == dump2
        first = dump1.splitlines()[0].split("\t")
        assert len(first) == 3


def bracket_spans(rendered):
    """Map row id -> (open index, close index) over whitespace tokens."""
    spans = {}
    stack = []
    for idx, tok in enumerate(rendered.split()):
        if tok.endswith("("):
            stack.append((tok[:-1], idx))
        elif tok == ")":
            name, start = stack.pop()
            spans[name] = (start, idx)
    assert not stack
    return spans


def contains(span, *indices):
    start, end = span
    return all(start < i < end for i in indices)


def test_determinism_across_store_insertion_order(kittens_new):
    from conftest import KITTENS_GRAMMAR

    lines = [ln for ln in KITTENS_GRAMMAR.splitlines() if ln.startswith("PATTERN")]
    from icmup import parse_grammar

    forward = parse_grammar("\n".join(lines))
    backward = parse_grammar("\n".join(reversed(lines)))
    r1 = build_alignments(kittens_new, forward)
    r2 = build_alignments(kittens_new, backward)
    assert [dump_columns(a) for a in r1] == [dump_columns(a) for a in r2]
    assert [a.compression_difference for a in r1] == pytest.approx(
        [a.compression_difference for a in r2])
