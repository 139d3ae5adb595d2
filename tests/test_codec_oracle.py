"""The fast chunk and run codecs and file writers against the original ones
in ``codec_oracle``: dictionaries, streams, runs and file texts must be
exactly equal."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import codec_oracle as oracle
from icmup import (UNBOUNDED, ChunkDictionary, ChunkEntry, CodeRef,
                   EncodedStream, Literal, Run, SPPattern, SPSymbol,
                   chunk_encode, discover_chunks, rle_decode, rle_encode,
                   tokenize)
from icmup.codecs import runs_to_json, stream_to_json

LETTERS = "abcdefgh"
WORDS = ("a", "ab", "ba", "abc", "xy", "y", "the", "cat")


def chars(text):
    return tokenize(text, "chars")


def entries(dictionary):
    return [(e.code, e.chunk.symbols, e.count) for e in dictionary]


def runs_of(runs):
    return [(r.pattern.id, r.pattern.symbols, r.count) for r in runs]


# one character per symbol, over 2-8 letters
letter_corpora = st.integers(2, 8).flatmap(
    lambda a: st.lists(st.sampled_from(LETTERS[:a]), max_size=48)
).map(lambda texts: [SPSymbol(t) for t in texts])

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
    return [SPSymbol(t) for t in texts[:48]]


corpora = st.one_of(letter_corpora, word_corpora, periodic_corpora())
min_lens = st.sampled_from((2, 3, 4))
min_counts = st.sampled_from((2, 3))


def assert_same_chunks(corpus, min_len, min_count):
    fast = discover_chunks(corpus, min_len, min_count)
    slow = oracle.discover_chunks(corpus, min_len, min_count)
    assert entries(fast) == entries(slow)
    assert chunk_encode(corpus, fast).tokens == oracle.chunk_encode(corpus, slow).tokens


class TestChunks:
    @settings(max_examples=150)
    @given(corpora, min_lens, min_counts)
    def test_dictionary_and_stream_match_oracle(self, corpus, min_len, min_count):
        assert_same_chunks(corpus, min_len, min_count)

    def test_position_order_example(self):
        # a scan that tries grams in index order rather than position order
        # gives other codes here
        corpus = chars("aaabbbabbabbaaa")
        assert_same_chunks(corpus, 2, 2)
        assert [("".join(s.text for s in chunk), count)
                for _, chunk, count in entries(discover_chunks(corpus, 2, 2))] \
            == [("aaa", 2), ("bba", 2)]

    def test_periodic_corpus_is_one_chunk_quickly(self):
        # the longest repeat claims every cell, so the shorter lengths are free
        corpus = chars("abcde" * 400)
        start = time.perf_counter()
        dictionary = discover_chunks(corpus, 2, 2)
        assert time.perf_counter() - start < 5.0
        assert [(len(e.chunk), e.count) for e in dictionary] == [(1000, 2)]


def entry(code, text):
    return ChunkEntry(code, SPPattern.from_text(code, text), 2)


dictionaries = st.lists(
    st.lists(st.sampled_from("abcz"), min_size=2, max_size=4), max_size=6
).map(lambda grams: ChunkDictionary(
    [entry(f"w{k}", " ".join(g)) for k, g in enumerate(grams, start=1)]))


class TestChunkEncode:
    @settings(max_examples=100)
    @given(st.lists(st.sampled_from("abc"), max_size=40).map(
        lambda texts: [SPSymbol(t) for t in texts]), dictionaries)
    def test_any_dictionary_matches_oracle(self, corpus, dictionary):
        # entries may use the absent symbol z, and may repeat each other
        assert (chunk_encode(corpus, dictionary).tokens
                == oracle.chunk_encode(corpus, dictionary).tokens)

    def test_absent_entries_never_match(self):
        corpus = tokenize("a b a b")
        dictionary = ChunkDictionary([entry("w1", "q r"), entry("w2", "a q"),
                                      entry("w3", "a b")])
        stream = chunk_encode(corpus, dictionary)
        assert stream.tokens == oracle.chunk_encode(corpus, dictionary).tokens
        assert [t.code for t in stream.tokens] == ["w3", "w3"]

    def test_first_of_two_codes_wins(self):
        corpus = tokenize("x a b x a b")
        dictionary = ChunkDictionary([entry("w1", "a b"), entry("w2", "a b")])
        stream = chunk_encode(corpus, dictionary)
        assert stream.tokens == oracle.chunk_encode(corpus, dictionary).tokens
        assert [getattr(t, "code", None) for t in stream.tokens] == [
            None, "w1", None, "w1"]


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
symbol_tuples = st.lists(symbol_texts, min_size=1, max_size=4).map(
    lambda texts: tuple(SPSymbol(t) for t in texts))
big_counts = st.one_of(st.integers(2, 12), st.integers(2, 10 ** 30))

chunk_entries = st.builds(
    lambda code, symbols, count: ChunkEntry(code, SPPattern(code, symbols), count),
    symbol_texts, symbol_tuples.filter(lambda s: len(s) >= 2), big_counts)
streams = st.builds(
    lambda entries, tokens: EncodedStream(ChunkDictionary(entries), tuple(tokens)),
    st.lists(chunk_entries, max_size=4, unique_by=lambda e: e.code),
    st.lists(st.one_of(symbol_texts.map(CodeRef),
                       symbol_texts.map(lambda t: Literal(SPSymbol(t)))), max_size=8))
run_lists = st.lists(st.builds(
    lambda k, symbols, count: Run(SPPattern(f"r{k}", symbols), count),
    st.integers(1, 9), symbol_tuples,
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
        empty = EncodedStream(ChunkDictionary(), ())
        assert stream_to_json(empty) == oracle.stream_to_json(empty) \
            == '{\n  "dictionary": [],\n  "stream": []\n}\n'
        assert runs_to_json([]) == oracle.runs_to_json([]) == '{\n  "runs": []\n}\n'

    def test_escapes_and_unbounded(self):
        texts = ['"', "\\", "\x7f", "\x00", "\ud800", "\U0001f600", "é"]
        symbols = tuple(map(SPSymbol, texts))
        runs = [Run(SPPattern("r1", symbols), UNBOUNDED), Run(SPPattern("r2", symbols[:1]), 1)]
        stream = EncodedStream(
            ChunkDictionary([ChunkEntry('w"1', SPPattern('w"1', symbols), 2)]),
            (CodeRef('w"1'), Literal(symbols[4]), Literal(symbols[5])))
        assert runs_to_json(runs) == oracle.runs_to_json(runs)
        assert '"count": "*"' in runs_to_json(runs)
        assert stream_to_json(stream) == oracle.stream_to_json(stream)
        assert stream_to_json(stream).isascii()
