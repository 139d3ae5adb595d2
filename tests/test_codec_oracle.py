"""The fast chunk and run codecs and file writers against the original ones
in ``codec_oracle``: dictionaries, streams, runs and file texts must be
exactly equal."""

import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import codec_oracle as oracle
from icmup import (UNBOUNDED, CodeRef, EncodedStream, Literal, PatternStore, Run, SPPattern,
                   chunk_decode, chunk_encode, discover_chunks, rle_decode, rle_encode,
                   tokenize, unify_basic)
from icmup import codecs
from icmup.codecs import runs_to_json, stream_to_json
from icmup.errors import NotPresent

LETTERS = "abcdefgh"
WORDS = ("a", "ab", "ba", "abc", "xy", "y", "the", "cat")


def chars(text):
    return tokenize(text, "chars")


def entries(dictionary):
    return [(e.id, e.symbols, e.frequency) for e in dictionary]


def runs_of(runs):
    return [(r.symbols, r.count) for r in runs]


# one character per symbol, over 2-8 letters
letter_corpora = st.integers(2, 8).flatmap(
    lambda a: st.lists(st.sampled_from(LETTERS[:a]), max_size=48))

# whitespace-mode symbols of one to three characters
word_corpora = st.lists(st.sampled_from(WORDS), max_size=40).map(
    lambda words: tokenize(" ".join(words)))


@st.composite
def periodic_corpora(draw):
    """A motif repeated k times, with short noise between repeats."""
    alphabet = LETTERS[:draw(st.integers(2, 6))]
    motif = draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=6))
    texts = []
    while len(texts) < 40:
        texts += motif * draw(st.integers(1, 5))
        texts += draw(st.lists(st.sampled_from(alphabet), max_size=3))
    return list(texts[:48])


corpora = st.one_of(letter_corpora, word_corpora, periodic_corpora())
min_lens = st.sampled_from((2, 3, 4))
min_counts = st.sampled_from((2, 3))


def rep_noise_rep(size):
    """Two copies of ``size // 4`` random letters around ``size // 2`` more,
    over 16 letters: the longest repeat is a quarter of the corpus."""
    rng = random.Random(1)
    rep = rng.choices("abcdefghijklmnop", k=size // 4)
    return rep + rng.choices("abcdefghijklmnop", k=size // 2) + rep


# a Fibonacci word: its longest repeats overlap themselves at every scale
FIBONACCI = "abaababaabaababaababaabaababaabaab"


def assert_same_chunks(corpus, min_len, min_count):
    fast = discover_chunks(corpus, min_len, min_count)
    slow = oracle.discover_chunks(corpus, min_len, min_count)
    assert entries(fast) == entries(slow)
    assert chunk_encode(corpus, fast).tokens == oracle.chunk_encode(corpus, slow).tokens


class TestChunks:
    @settings(max_examples=150)
    @given(corpora, min_lens, min_counts)
    # longest repeats that overlap themselves
    @example(list("a" * 30), 2, 2)
    @example(list("abaababaab" * 3), 2, 2)
    @example(list("abcdefgh" * 2 + "abcd"), 2, 2)
    @example(list(FIBONACCI), 2, 2)
    def test_dictionary_and_stream_match_oracle(self, corpus, min_len, min_count):
        assert_same_chunks(corpus, min_len, min_count)

    @settings(max_examples=150)
    @given(corpora)
    @example(list("a" * 30))
    @example(list(FIBONACCI))
    @example([])
    def test_longest_repeats_match_oracle(self, corpus):
        assert (codecs._longest_repeats(codecs._spell(corpus, {}))
                == oracle.longest_repeats(corpus))

    def test_position_order_example(self):
        # a scan that tries grams in index order rather than position order
        # gives other codes here
        corpus = chars("aaabbbabbabbaaa")
        assert_same_chunks(corpus, 2, 2)
        assert [("".join(chunk), count)
                for _, chunk, count in entries(discover_chunks(corpus, 2, 2))] \
            == [("aaa", 2), ("bba", 2)]

    def test_periodic_corpus_is_one_chunk_quickly(self):
        # the longest repeat claims every cell, so the shorter lengths are free
        corpus = chars("abcde" * 400)
        start = time.perf_counter()
        dictionary = discover_chunks(corpus, 2, 2)
        assert time.perf_counter() - start < 5.0
        assert [(len(e), e.frequency) for e in dictionary] == [(1000, 2)]

    def test_two_long_copies_are_found_quickly(self):
        # only the starts that can repeat are sliced at each length; slicing
        # every unclaimed window here takes minutes
        corpus = rep_noise_rep(64_000)
        start = time.perf_counter()
        dictionary = discover_chunks(corpus, 2, 2)
        assert time.perf_counter() - start < 10.0
        first = next(iter(dictionary))
        assert (first.symbols, first.frequency) == (tuple(corpus[:16_000]), 2)
        assert chunk_decode(chunk_encode(corpus, dictionary)) == corpus

    def test_sliced_characters_grow_near_linearly(self, monkeypatch):
        # counted, not timed: the characters that discovery slices into
        # windows, at 4k, 8k, 16k and 32k symbols
        windows = codecs._windows
        sliced = []

        def counting(s, starts, n):
            sliced[-1] += len(starts) * n
            return windows(s, starts, n)

        monkeypatch.setattr(codecs, "_windows", counting)
        for size in (4_000, 8_000, 16_000, 32_000):
            sliced.append(0)
            discover_chunks(rep_noise_rep(size), 2, 2)
            assert len(sliced) == 1 or sliced[-1] <= 3 * sliced[-2], sliced


def entry(code, text):
    return SPPattern.from_text(code, text, frequency=2)


dictionaries = st.lists(
    st.lists(st.sampled_from("abcz"), min_size=2, max_size=4), max_size=6
).map(lambda grams: PatternStore(
    [entry(f"w{k}", " ".join(g)) for k, g in enumerate(grams, start=1)]))


class TestChunkEncode:
    @settings(max_examples=100)
    @given(st.lists(st.sampled_from("abc"), max_size=40), dictionaries)
    def test_any_dictionary_matches_oracle(self, corpus, dictionary):
        # entries may use the absent symbol z, and may repeat each other
        assert (chunk_encode(corpus, dictionary).tokens
                == oracle.chunk_encode(corpus, dictionary).tokens)

    def test_absent_entries_never_match(self):
        corpus = tokenize("a b a b")
        dictionary = PatternStore([entry("w1", "q r"), entry("w2", "a q"),
                                   entry("w3", "a b")])
        stream = chunk_encode(corpus, dictionary)
        assert stream.tokens == oracle.chunk_encode(corpus, dictionary).tokens
        assert [t.code for t in stream.tokens] == ["w3", "w3"]

    def test_first_of_two_codes_wins(self):
        corpus = tokenize("x a b x a b")
        dictionary = PatternStore([entry("w1", "a b"), entry("w2", "a b")])
        stream = chunk_encode(corpus, dictionary)
        assert stream.tokens == oracle.chunk_encode(corpus, dictionary).tokens
        assert [getattr(t, "code", None) for t in stream.tokens] == [
            None, "w1", None, "w1"]


def unification(corpus, chunk, unify):
    """``unify``'s (frequency, residue) for ``chunk``, or None if it is absent."""
    try:
        unified, residue = unify(corpus, chunk)
    except NotPresent:
        return None
    assert (unified.id, unified.symbols) == (chunk.id, chunk.symbols)
    return unified.frequency, residue


class TestUnifyBasic:
    # a chunk may hold the absent symbol z, and its occurrences may overlap
    # (a a in a a a), so each kind of chunk is drawn
    @settings(max_examples=200)
    @given(st.lists(st.sampled_from("abc"), max_size=40),
           st.lists(st.sampled_from("abcz"), min_size=1, max_size=4))
    @example(list("aaaaa"), list("aa"))
    @example(list("ababa"), list("aba"))
    @example(list("abc"), list("z"))
    @example([], list("a"))
    def test_matches_oracle(self, corpus, gram):
        chunk = SPPattern("c", tuple(gram))
        assert (unification(corpus, chunk, unify_basic)
                == unification(corpus, chunk, oracle.unify_basic))


class TestRuns:
    @settings(max_examples=120)
    @given(corpora)
    def test_runs_match_oracle(self, corpus):
        assert runs_of(rle_encode(corpus)) == runs_of(oracle.rle_encode(corpus))

    @pytest.mark.parametrize("text", [
        "a" * 30, "ab" * 15, "abcde" * 8, "aabaabaab" * 3, "abaababaab" * 3])
    def test_periodic_examples(self, text):
        corpus = chars(text)
        assert runs_of(rle_encode(corpus)) == runs_of(oracle.rle_encode(corpus))

    def test_long_prose_round_trip(self):
        rng = random.Random(7)
        words = ["".join(rng.choice("etaoinshr") for _ in range(rng.randint(1, 7)))
                 for _ in range(300)]
        text = "_".join(rng.choices(words, k=4000))
        corpus = chars(text)
        start = time.perf_counter()
        runs = rle_encode(corpus)
        assert time.perf_counter() - start < 5.0
        assert rle_decode(runs) == corpus


# texts that need escaping: quotes, backslashes, control characters (NUL,
# DEL), non-ASCII, an astral character and a lone surrogate, among plain ones
symbol_texts = st.text(
    st.one_of(st.sampled_from('ab"\\/\x00\x01\x1b\x7fé€\U0001f600\ud800'),
              st.characters()),
    min_size=1, max_size=4).filter(lambda t: t.split() == [t])
symbol_tuples = st.lists(symbol_texts, min_size=1, max_size=4).map(tuple)
big_counts = st.one_of(st.integers(2, 12), st.integers(2, 10 ** 30))

chunk_entries = st.builds(
    SPPattern, symbol_texts, symbol_tuples.filter(lambda s: len(s) >= 2), big_counts)
streams = st.builds(
    lambda entries, tokens: EncodedStream(PatternStore(entries), tuple(tokens)),
    st.lists(chunk_entries, max_size=4, unique_by=lambda e: e.id),
    st.lists(st.one_of(symbol_texts.map(CodeRef),
                       symbol_texts.map(Literal)), max_size=8))
run_lists = st.lists(st.builds(
    Run, symbol_tuples,
    st.one_of(st.integers(1, 12), big_counts, st.just(UNBOUNDED))), max_size=6)


class TestFileWriters:
    @settings(max_examples=200)
    @given(streams)
    def test_stream_file_matches_oracle(self, stream):
        assert stream_to_json(stream) == oracle.stream_to_json(stream)

    @settings(max_examples=200)
    @given(run_lists)
    def test_runs_file_matches_oracle(self, runs):
        assert runs_to_json(runs) == oracle.runs_to_json(runs)

    def test_empty_sections(self):
        empty = EncodedStream(PatternStore(), ())
        assert stream_to_json(empty) == oracle.stream_to_json(empty) \
            == '{\n  "dictionary": [],\n  "stream": []\n}\n'
        assert runs_to_json([]) == oracle.runs_to_json([]) == '{\n  "runs": []\n}\n'

    def test_escapes_and_unbounded(self):
        texts = ['"', "\\", "\x7f", "\x00", "\ud800", "\U0001f600", "é"]
        symbols = tuple(texts)
        runs = [Run(symbols, UNBOUNDED), Run(symbols[:1], 1)]
        stream = EncodedStream(
            PatternStore([SPPattern('w"1', symbols, 2)]),
            (CodeRef('w"1'), Literal(symbols[4]), Literal(symbols[5])))
        assert runs_to_json(runs) == oracle.runs_to_json(runs)
        assert '"count": "*"' in runs_to_json(runs)
        assert stream_to_json(stream) == oracle.stream_to_json(stream)
        assert stream_to_json(stream).isascii()
