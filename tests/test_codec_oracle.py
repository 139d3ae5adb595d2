"""The fast chunk and run codecs and file writers against the original ones
in ``codec_oracle``: dictionaries, streams, runs and file texts must be
exactly equal."""

import json
import random
import sys
import time
from operator import le

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import codec_oracle as oracle
from icmup import (UNBOUNDED, EncodedStream, PatternStore, SPPattern, chunk_decode,
                   chunk_encode, discover_chunks, rle_decode, rle_encode, tokenize,
                   unify_basic)
from icmup import codecs, patterns
from icmup.cli import main
from icmup.codecs import (Runs, dictionary_cost_bits, encoded_cost_bits, runs_from_json,
                          runs_to_json, stream_from_json, stream_to_json)
from icmup.errors import InputFormatError, NotPresent

LETTERS = "abcdefgh"
WORDS = ("a", "ab", "ba", "abc", "xy", "y", "the", "cat")


def chars(text):
    return tokenize(text, "chars")


def entries(dictionary):
    return [(e.id, e.symbols, e.frequency) for e in dictionary]


def runs_of(runs):
    """A run list's runs as the oracle gives them, ``(symbols, count)`` pairs."""
    return list(zip(runs.blocks, runs.counts))


def columns(pairs):
    """The run list of ``(symbols, count)`` pairs."""
    return Runs(tuple([symbols for symbols, _ in pairs]), tuple([count for _, count in pairs]))


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


def fibonacci_word(size):
    """The Fibonacci word ``FIBONACCI`` begins, grown to at least ``size``."""
    shorter, word = "a", "ab"
    while len(word) < size:
        shorter, word = word, word + shorter
    return word


def suffix_array_repeats(corpus):
    """Each start's longest repeat, overlaps counted, from the suffix array:
    the longer prefix it shares with a rank neighbour."""
    rank, _, common = codecs._suffix_array(codecs._spell(corpus, {}))
    return [max(common[r - 1], common[r]) for r in rank]


def assert_far_repeats_between(corpus, longest):
    """The repeats index gives each start at least its longest repeat with
    a copy it does not overlap, and at most ``longest``, its longest repeat
    with overlaps counted."""
    far = codecs._far_repeats(codecs._spell(corpus, {}))
    assert all(map(le, oracle.disjoint_repeats(corpus), far))
    assert all(map(le, far, longest))


def index_lines(corpus, limit=None):
    """The line events the repeats index runs on ``corpus``, counted by a
    tracer of its own frame that raises once they pass ``limit``."""
    code = codecs._far_repeats.__code__
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
            if limit is not None and lines > limit:
                raise AssertionError(f"the repeats index ran more than {limit:.0f} lines")
        return local

    before = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        codecs._far_repeats(codecs._spell(corpus, {}))
    finally:
        sys.settrace(before)
    return lines


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
    # two touching copies, whose windows span exactly n
    @example(list("abcabc"), 2, 2)
    # a motif run at min_count 3, where grams of two copies are walked
    @example(list("acg" * 9 + "tt" + "acg" * 4), 2, 3)
    def test_dictionary_and_stream_match_oracle(self, corpus, min_len, min_count):
        assert_same_chunks(corpus, min_len, min_count)

    def test_benchmark_documents_match_oracle(self, bench_gen):
        # tandem motif runs, where most grams have only overlapping windows
        rng = random.Random(1)
        for size in bench_gen.size_grid(64, 200, 800)[:16]:
            assert_same_chunks(chars(bench_gen.repeats_doc(rng, size)), 2, 2)

    @settings(max_examples=150)
    @given(corpora)
    @example(list("a" * 30))
    @example(list(FIBONACCI))
    @example([])
    def test_longest_repeats_match_oracle(self, corpus):
        longest = oracle.longest_repeats(corpus)
        assert suffix_array_repeats(corpus) == longest
        assert_far_repeats_between(corpus, longest)

    # repeats longer than the first round's 128-symbol windows tie there,
    # so only these reach the doubling rounds; Hypothesis corpora are shorter
    @pytest.mark.parametrize("corpus", [
        list("a" * 300), list("abcde" * 100), rep_noise_rep(1200),
        list(fibonacci_word(600))], ids=["one-letter", "period-5", "two-copies", "fibonacci"])
    def test_long_repeats_match_sorted_suffixes(self, corpus):
        longest = suffix_array_repeats(corpus)
        assert max(longest) > 128
        assert longest == oracle.sorted_repeats(corpus)
        assert_far_repeats_between(corpus, longest)

    def test_benchmark_repeats_match_sorted_suffixes(self, bench_gen):
        rng = random.Random(1)
        for size in bench_gen.size_grid(64, 200, 800):
            corpus = chars(bench_gen.repeats_doc(rng, size))
            longest = suffix_array_repeats(corpus)
            assert longest == oracle.sorted_repeats(corpus)
            assert_far_repeats_between(corpus, longest)

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

    def test_benchmark_documents_slice_few_windows(self, bench_gen, monkeypatch):
        # counted, not timed: the windows and characters that discovery
        # slices on the documents test_benchmark_documents_match_oracle
        # draws; a start goes live only at its longest repeat with a copy it
        # does not overlap, so a tandem run is sliced where chunks can form
        windows = codecs._windows
        sliced = [0, 0]

        def counting(s, starts, n):
            sliced[0] += len(starts)
            sliced[1] += len(starts) * n
            return windows(s, starts, n)

        monkeypatch.setattr(codecs, "_windows", counting)
        rng = random.Random(1)
        for size in bench_gen.size_grid(64, 200, 800)[:16]:
            discover_chunks(chars(bench_gen.repeats_doc(rng, size)), 2, 2)
        assert sliced == [2_029, 24_160]

    def test_benchmark_documents_at_min_count_3(self, bench_gen, monkeypatch):
        # the same dictionaries as the oracle, and, counted, the grams
        # walked: only a gram with min_count free windows that span
        # (min_count - 1) * n is walked
        copies = codecs._free_copies
        walks = []

        def counting(windows, n, claimed):
            walks.append(len(windows))
            return copies(windows, n, claimed)

        monkeypatch.setattr(codecs, "_free_copies", counting)
        rng = random.Random(1)
        for size in bench_gen.size_grid(64, 200, 800)[:16]:
            assert_same_chunks(chars(bench_gen.repeats_doc(rng, size)), 2, 3)
        assert len(walks) == 2_843
        assert min(walks) >= 3

    @pytest.mark.parametrize("motif, repeats", [("abcde", (1_000, 2_000, 4_000)),
                                                ("a", (1_000, 2_000))],
                             ids=["period-5", "one-letter"])
    def test_repeat_scan_grows_linearly(self, motif, repeats):
        # counted, not timed: the lines the repeats index runs, a few and
        # then its scan's.  Every start of a motif run scans; the scan's cap
        # keeps each start's part constant, where an unbounded scan visits
        # O(N) ranks a start and a doubling runs four times the lines
        lines = []
        for k in repeats:
            lines.append(index_lines(list(motif * k), 2.2 * lines[-1] if lines else None))
        assert all(b <= 2.2 * a for a, b in zip(lines, lines[1:])), lines


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
        assert [t.id for t in stream.tokens] == ["w3", "w3"]

    def test_first_of_two_codes_wins(self):
        corpus = tokenize("x a b x a b")
        dictionary = PatternStore([entry("w1", "a b"), entry("w2", "a b")])
        stream = chunk_encode(corpus, dictionary)
        assert stream.tokens == oracle.chunk_encode(corpus, dictionary).tokens
        assert [getattr(t, "id", None) for t in stream.tokens] == [
            None, "w1", None, "w1"]

    def test_chunks_sharing_a_first_symbol(self):
        # a starts chunks of lengths 2, 3 and 4, two of them spelling a b,
        # and b starts only b a, so b c is two literals
        corpus = tokenize("a b c d a b a c a b c b a b c d")
        dictionary = PatternStore([entry("w1", "a b"), entry("w2", "a b c"),
                                   entry("w3", "a c"), entry("w4", "a b"),
                                   entry("w5", "b a"), entry("w6", "a b c d")])
        stream = chunk_encode(corpus, dictionary)
        assert stream.tokens == oracle.chunk_encode(corpus, dictionary).tokens
        assert [t if isinstance(t, str) else t.id for t in stream.tokens] == [
            "w6", "w1", "w3", "w2", "w5", "b", "c", "d"]

    def test_a_stream_is_checked_once_and_holds_its_entries(self, monkeypatch, tmp_path):
        # counted, not timed: the are_symbols batches each stream runs when
        # made, one over its literals, and its code tokens, each its
        # dictionary's own entry, so no record is made per token, through
        # the encoder, the reader and the CLI
        made, checked = [], []
        post_init, are_symbols = EncodedStream.__post_init__, patterns.are_symbols

        def recording(stream):
            before = len(checked)
            post_init(stream)
            made.append((stream, checked[before:]))

        def counting_batch(texts):
            checked.append(len(texts))
            return are_symbols(texts)

        def checked_once(stream, batches):
            literals = [tok for tok in stream.tokens if isinstance(tok, str)]
            return batches == [len(literals)] and all(
                tok is stream.dictionary.get(tok.id)
                for tok in stream.tokens if not isinstance(tok, str))

        monkeypatch.setattr(EncodedStream, "__post_init__", recording)
        monkeypatch.setattr(patterns, "are_symbols", counting_batch)
        rng = random.Random(1)
        phrases = [rng.choices(WORDS, k=rng.randint(2, 5)) for _ in range(12)]
        corpus = [t for _ in range(200) for t in rng.choice(phrases) + rng.choices(WORDS)]
        stream = chunk_encode(corpus, discover_chunks(corpus))
        again = stream_from_json(stream_to_json(stream))
        assert len(made) == 2 and made[0][0] is stream and made[1][0] is again
        assert len(stream.dictionary) > 1
        assert 0 < sum(isinstance(tok, str) for tok in stream.tokens) < len(stream.tokens)
        path, out = tmp_path / "c.txt", tmp_path / "s.json"
        path.write_text(" ".join(corpus))
        assert main(["compress", str(path), "--mode", "chunk", "--out", str(out)]) == 0
        assert main(["decompress", str(out), "--out", str(tmp_path / "b.txt")]) == 0
        assert len(made) == 4 and all(checked_once(*pair) for pair in made)
        assert chunk_decode(made[3][0]) == corpus

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


@st.composite
def near_repeats(draw):
    """A b-symbol block over 2-4 letters after up to b more, repeated, with
    one symbol changed: stretches of about b that end at every offset from
    the probes at multiples of b."""
    alphabet = LETTERS[:draw(st.integers(2, 4))]
    b = draw(st.integers(1, 12))
    block = draw(st.lists(st.sampled_from(alphabet), min_size=b, max_size=b))
    texts = (draw(st.lists(st.sampled_from(alphabet), max_size=b))
             + block * draw(st.integers(2, 64 // b + 1)))
    texts[draw(st.integers(0, len(texts) - 1))] = draw(st.sampled_from(alphabet))
    return texts[:80]


class TestRuns:
    @settings(max_examples=120)
    @given(corpora)
    def test_runs_match_oracle(self, corpus):
        assert runs_of(rle_encode(corpus)) == oracle.rle_encode(corpus)

    # rle_encode extends a probe only where a half block, ceil(b/2) symbols,
    # repeats on one side of it; these stretches of b sit at that edge
    @settings(max_examples=150)
    @given(near_repeats())
    # a stretch of exactly b at the start, and at the end of the corpus
    @example(list("abcdeabcdef"))
    @example(list("xyabcdeabcde"))
    # b = 5 split 3/2 and 2/3 around the probe at 5
    @example(list("fghabcdeabcdef"))
    @example(list("fgabcdeabcdefg"))
    # b = 4 split 2/2 around the probe at 4
    @example(list("xyabcdabcdx"))
    # b = 1
    @example(list("abba"))
    @example(list("aab"))
    def test_stretches_at_the_half_block_match_oracle(self, corpus):
        assert runs_of(rle_encode(corpus)) == oracle.rle_encode(corpus)

    def test_extensions_grow_near_linearly(self, monkeypatch):
        # counted, not timed: the _lce extensions of random acgt at 1k, 2k,
        # 4k and 8k symbols
        lce = codecs._lce
        calls = []

        def counting(*args):
            calls[-1] += 1
            return lce(*args)

        monkeypatch.setattr(codecs, "_lce", counting)
        for size in (1_000, 2_000, 4_000, 8_000):
            calls.append(0)
            rle_encode(random.Random(size).choices("acgt", k=size))
            assert len(calls) == 1 or calls[-1] <= 2.3 * calls[-2], calls
        assert calls == [678, 1360, 2868, 5706]

    def test_a_run_list_is_checked_once(self, monkeypatch, tmp_path):
        # counted, not timed: the are_symbols batches, one per run list
        # made, on run lists of 1 to about 7,500 runs and through the CLI
        checked = []
        are_symbols = codecs.are_symbols

        def counting_batch(texts):
            checked.append(len(texts))
            return are_symbols(texts)

        monkeypatch.setattr(codecs, "are_symbols", counting_batch)
        for size in (1, 10, 100, 1_000, 10_000):
            corpus = random.Random(size).choices("abcdefghij", k=size)
            runs = rle_encode(corpus)
            symbols = sum(map(len, runs.blocks))
            assert checked == [symbols]
            text = runs_to_json(runs)
            assert checked == [symbols]
            again = runs_from_json(text)
            assert checked == [symbols, symbols]
            assert again == runs and rle_decode(again) == corpus
            checked.clear()
        assert len(runs) > 7_000
        corpus, out = tmp_path / "c.txt", tmp_path / "r.json"
        corpus.write_text(" ".join(random.Random(1).choices("abcdefghij", k=2_000)))
        assert main(["compress", str(corpus), "--mode", "rle", "--out", str(out)]) == 0
        assert main(["decompress", str(out), "--out", str(tmp_path / "b.txt")]) == 0
        assert len(checked) == 2

    @pytest.mark.parametrize("text", [
        "a" * 30, "ab" * 15, "abcde" * 8, "aabaabaab" * 3, "abaababaab" * 3])
    def test_periodic_examples(self, text):
        corpus = chars(text)
        assert runs_of(rle_encode(corpus)) == oracle.rle_encode(corpus)

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


def tokens_of(entries):
    """A stream's tokens over ``entries``: each entry itself, a literal, or
    a literal whose text is an entry's code."""
    if not entries:
        return symbol_texts
    return st.one_of(st.sampled_from(entries), symbol_texts,
                     st.sampled_from([e.id for e in entries]))


@st.composite
def streams(draw, min_entries=0, min_tokens=0):
    """A stream whose code tokens are drawn from its own entries."""
    entries = draw(st.lists(chunk_entries, min_size=min_entries, max_size=4,
                            unique_by=lambda e: e.id))
    tokens = draw(st.lists(tokens_of(entries), min_size=min_tokens, max_size=8))
    return EncodedStream(PatternStore(entries), tuple(tokens))


run_lists = st.lists(st.tuples(
    symbol_tuples,
    st.one_of(st.integers(1, 12), big_counts, st.just(UNBOUNDED))), max_size=6).map(columns)


def _bad_symbol(entry, draw):
    if not isinstance(entry.get("symbols"), list) or not entry["symbols"]:
        return entry
    k = draw(st.integers(0, len(entry["symbols"]) - 1))
    entry["symbols"][k] = draw(st.sampled_from(["a b", "", "\u00a0", 7, None, ["a"]]))
    return entry


def _set(key, values):
    def mutate(entry, draw):
        entry[key] = draw(st.sampled_from(values))
        return entry
    return mutate


def _drop(*keys):
    def mutate(entry, draw):
        entry.pop(draw(st.sampled_from(keys)), None)
        return entry
    return mutate


def _not_an_object(entry, draw):
    return draw(st.sampled_from([1, 2.5, "ab", None, True, ["a"], [entry]]))


# what may go wrong with one entry of a runs file, and a "*" count, which is
# no fault
MUTATIONS = (_bad_symbol, _set("symbols", ["ab", {"a": 1}, 3, None]),
             _set("symbols", [[]]),
             _set("count", [0, -1]), _set("count", [2.5, 3.0, "3", "**", True, None, [2]]),
             _set("count", ["*"]), _set("x", [0]), _drop("symbols", "count"),
             _not_an_object)


@st.composite
def mutated_runs_files(draw):
    """The object of a valid runs file with one to four changes, each one of
    ``MUTATIONS`` made to some entry, so an entry may have more than one
    fault.  A change to an entry that is no longer an object is skipped."""
    runs = draw(st.lists(st.tuples(symbol_tuples, st.integers(1, 12)),
                         min_size=2, max_size=6).map(columns))
    entries = json.loads(runs_to_json(runs))["runs"]
    for k in draw(st.lists(st.integers(0, len(entries) - 1), min_size=1, max_size=4)):
        if isinstance(entries[k], dict):
            entries[k] = draw(st.sampled_from(MUTATIONS))(entries[k], draw)
    return {"runs": entries}


def _one_symbol(entry, draw):
    if isinstance(entry.get("symbols"), list):
        entry["symbols"] = entry["symbols"][:1]
    return entry


# what may go wrong with one dictionary entry of a stream file, and with
# one token; a code set on a literal token, or a literal on a code token,
# gives it two keys, and a literal "z" is no fault
ENTRY_MUTATIONS = (_bad_symbol, _set("symbols", ["ab", {"a": 1}, 3, None]), _one_symbol,
                   _set("count", [1]), _set("x", [0]), _drop("code", "symbols", "count"),
                   _not_an_object)
TOKEN_MUTATIONS = (_set("lit", ["a b", "", "\u00a0", 7, None, ["a"], "z"]),
                   _set("code", ["no such", ["x"], {"w1": 1}, 7, None]), _set("x", [0]),
                   _drop("code", "lit"),
                   _not_an_object)


@st.composite
def mutated_stream_files(draw):
    """The object of a valid stream file with one to four changes, each one
    of ``ENTRY_MUTATIONS`` made to some dictionary entry, or of
    ``TOKEN_MUTATIONS`` to some token, two in three to a token.  A
    dictionary entry may also take another entry's code.  A change to an
    entry that is no longer an object is skipped."""
    stream = draw(streams(min_entries=1, min_tokens=2))
    codes = stream.dictionary.ids()
    doc = json.loads(stream_to_json(stream))
    sections = (("dictionary", ENTRY_MUTATIONS + (_set("code", codes),)),
                ("stream", TOKEN_MUTATIONS), ("stream", TOKEN_MUTATIONS))
    for _ in range(draw(st.integers(1, 4))):
        section, mutations = draw(st.sampled_from(sections))
        k = draw(st.integers(0, len(doc[section]) - 1))
        if isinstance(doc[section][k], dict):
            doc[section][k] = draw(st.sampled_from(mutations))(doc[section][k], draw)
    return doc


def stream_of(stream):
    return entries(stream.dictionary), stream.tokens


def reads_alike(doc, readers=(runs_from_json, oracle.runs_from_json), views=(runs_of, list)):
    """What the reader and its oracle, ``readers``, read from ``doc``, as
    ``views`` show it, or the text of the error each raised."""
    read = []
    for reader, view in zip(readers, views):
        try:
            read.append(view(reader(json.dumps(doc))))
        except InputFormatError as exc:
            read.append(str(exc))
    return read


class TestRunsReader:
    # the batch check must name the fault the oracle's entry-by-entry read
    # meets first, wherever in the file the others are
    @settings(max_examples=400)
    @given(mutated_runs_files())
    @example({"runs": [{"symbols": ["a"], "count": 0}, {"symbols": ["a b"], "count": 2}]})
    @example({"runs": [{"symbols": ["a b"], "count": 2}, {"symbols": ["a"], "count": 0}]})
    @example({"runs": [{"symbols": ["a"], "count": 2}, {"symbols": [], "count": "3"},
                       {"symbols": [7], "count": 2}]})
    @example({"runs": [{"symbols": ["a"], "count": 2, "x": 0}, 1]})
    @example({"runs": [{"symbols": ["a"]}, {"symbols": "ab", "count": 2}]})
    @example({"runs": [{"symbols": ["a"], "count": "*"}, {"symbols": ["b"], "count": 1}]})
    # two faults in one entry: its symbols are checked before its count
    @example({"runs": [{"symbols": ["a"], "count": 1}, {"symbols": [""], "count": 0}]})
    def test_reader_matches_oracle(self, doc):
        new, old = reads_alike(doc)
        assert new == old


class TestStreamReader:
    # the stream checks its literals when made, from the tokens read so far,
    # so a bad literal must raise ahead of a later token's fault, as in the
    # oracle's token-by-token read
    @settings(max_examples=400)
    @given(mutated_stream_files())
    @example({"dictionary": [], "stream": [{"lit": "a b"}, {"code": "w1"}]})
    @example({"dictionary": [], "stream": [{"lit": 7}, 1]})
    @example({"dictionary": [{"code": "w1", "symbols": ["a", "b"], "count": 2}],
              "stream": [{"code": "w1"}, {"lit": ""}, {"code": "w1", "lit": "a"}]})
    # a fault in the dictionary is met before any in the stream
    @example({"dictionary": [{"code": "w1", "symbols": ["a"], "count": 2}],
              "stream": [{"lit": "a b"}]})
    def test_reader_matches_oracle(self, doc):
        new, old = reads_alike(doc, (stream_from_json, oracle.stream_from_json),
                               (stream_of, stream_of))
        assert new == old


class TestFileWriters:
    @settings(max_examples=200)
    @given(streams())
    def test_stream_file_matches_oracle(self, stream):
        assert stream_to_json(stream) == oracle.stream_to_json(stream)

    @settings(max_examples=200)
    @given(streams())
    def test_stream_file_reads_back_its_stream(self, stream):
        again = stream_from_json(stream_to_json(stream))
        assert stream_of(again) == stream_of(stream)
        # a code token read back is the read dictionary's own entry
        assert all(isinstance(tok, str) or tok is again.dictionary.get(tok.id)
                   for tok in again.tokens)

    @settings(max_examples=200)
    @given(run_lists)
    def test_runs_file_matches_oracle(self, runs):
        assert runs_to_json(runs) == oracle.runs_to_json(runs_of(runs))

    def test_empty_sections(self):
        empty = EncodedStream(PatternStore(), ())
        assert stream_to_json(empty) == oracle.stream_to_json(empty) \
            == '{\n  "dictionary": [],\n  "stream": []\n}\n'
        assert runs_to_json(Runs((), ())) == oracle.runs_to_json([]) == '{\n  "runs": []\n}\n'

    def test_escapes_and_unbounded(self):
        texts = ['"', "\\", "\x7f", "\x00", "\ud800", "\U0001f600", "é"]
        symbols = tuple(texts)
        runs = Runs((symbols, symbols[:1]), (UNBOUNDED, 1))
        entry = SPPattern('w"1', symbols, 2)
        stream = EncodedStream(PatternStore([entry]), (entry, symbols[4], symbols[5]))
        assert runs_to_json(runs) == oracle.runs_to_json(runs_of(runs))
        assert '"count": "*"' in runs_to_json(runs)
        assert stream_to_json(stream) == oracle.stream_to_json(stream)
        assert stream_to_json(stream).isascii()


class TestLazyIndex:
    """A store builds its postings and alphabet on the first read of
    ``holders`` or ``alphabet``, and a chunk dictionary reads neither."""

    def test_a_chunk_dictionary_never_builds_its_index(self, monkeypatch, tmp_path, capsys):
        def built(store):
            raise AssertionError("a chunk dictionary built its index")

        monkeypatch.setattr(PatternStore, "_postings", property(built))
        corpus = chars("abcabcxabcabcyabcabz")
        dictionary = discover_chunks(corpus)
        again = stream_from_json(stream_to_json(chunk_encode(corpus, dictionary)))
        assert chunk_decode(again) == corpus
        encoded_cost_bits(again, 5)
        dictionary_cost_bits(again.dictionary, 5)
        path, stream, out = tmp_path / "c.txt", tmp_path / "s.json", tmp_path / "out.txt"
        path.write_text("abcabcxabcabcyabcabz\n")
        assert main(["compress", str(path), "--chars", "--out", str(stream)]) == 0
        assert main(["decompress", str(stream), "--chars", "--out", str(out)]) == 0
        assert out.read_text() == path.read_text()
        assert capsys.readouterr().out.startswith(
            "mode=chunk symbols=20 alphabet=6 chunks=2\nw1 count=2 len=6\n")

    @given(st.lists(st.lists(st.sampled_from(WORDS), min_size=1, max_size=5), max_size=6))
    def test_alphabet_is_every_stored_symbol(self, bodies):
        store = PatternStore(SPPattern(f"p{k}", tuple(body)) for k, body in enumerate(bodies))
        assert type(store.alphabet) is frozenset
        assert store.alphabet == frozenset(t for body in bodies for t in body)
        assert store.alphabet is store.alphabet
