"""The fast chunk and run codecs and file writers against the original ones
in ``codec_oracle``: dictionaries, streams, runs and file texts must be
exactly equal."""

import json
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

    def test_chunks_sharing_a_first_symbol(self):
        # a starts chunks of lengths 2, 3 and 4, two of them spelling a b,
        # and b starts only b a, so b c is two literals
        corpus = tokenize("a b c d a b a c a b c b a b c d")
        dictionary = PatternStore([entry("w1", "a b"), entry("w2", "a b c"),
                                   entry("w3", "a c"), entry("w4", "a b"),
                                   entry("w5", "b a"), entry("w6", "a b c d")])
        stream = chunk_encode(corpus, dictionary)
        assert stream.tokens == oracle.chunk_encode(corpus, dictionary).tokens
        assert [getattr(t, "code", None) or t.symbol for t in stream.tokens] == [
            "w6", "w1", "w3", "w2", "w5", "b", "c", "d"]


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
        assert runs_of(rle_encode(corpus)) == runs_of(oracle.rle_encode(corpus))

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
        assert runs_of(rle_encode(corpus)) == runs_of(oracle.rle_encode(corpus))

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

    def test_a_run_list_is_checked_once_and_makes_no_run(self, monkeypatch, tmp_path):
        # counted, not timed: the Run records made and the are_symbols
        # batches, one per run list made, on run lists of 1 to about 7,500
        # runs and through the CLI
        made, checked = [], []
        post_init, are_symbols = Run.__post_init__, codecs.are_symbols

        def counting_run(run):
            made.append(run)
            post_init(run)

        def counting_batch(texts):
            checked.append(len(texts))
            return are_symbols(texts)

        monkeypatch.setattr(Run, "__post_init__", counting_run)
        monkeypatch.setattr(codecs, "are_symbols", counting_batch)
        for size in (1, 10, 100, 1_000, 10_000):
            corpus = random.Random(size).choices("abcdefghij", k=size)
            runs = rle_encode(corpus)
            symbols = sum(map(len, runs.blocks))
            assert (made, checked) == ([], [symbols])
            text = runs_to_json(runs)
            assert (made, checked) == ([], [symbols])
            again = runs_from_json(text)
            assert (made, checked) == ([], [symbols, symbols])
            assert again == runs and rle_decode(again) == corpus
            checked.clear()
        assert len(runs) > 7_000
        corpus, out = tmp_path / "c.txt", tmp_path / "r.json"
        corpus.write_text(" ".join(random.Random(1).choices("abcdefghij", k=2_000)))
        assert main(["compress", str(corpus), "--mode", "rle", "--out", str(out)]) == 0
        assert main(["decompress", str(out), "--out", str(tmp_path / "b.txt")]) == 0
        assert (made, len(checked)) == ([], 2)

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
    st.one_of(st.integers(1, 12), big_counts, st.just(UNBOUNDED))), max_size=6).map(Runs.of)


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
    runs = draw(st.lists(st.builds(Run, symbol_tuples, st.integers(1, 12)),
                         min_size=2, max_size=6).map(Runs.of))
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
                   _set("code", ["no such"]), _set("x", [0]), _drop("code", "lit"),
                   _not_an_object)


@st.composite
def mutated_stream_files(draw):
    """The object of a valid stream file with one to four changes, each one
    of ``ENTRY_MUTATIONS`` made to some dictionary entry, or of
    ``TOKEN_MUTATIONS`` to some token, two in three to a token.  A
    dictionary entry may also take another entry's code.  A change to an
    entry that is no longer an object is skipped."""
    dictionary = draw(st.lists(chunk_entries, min_size=1, max_size=3,
                               unique_by=lambda e: e.id))
    codes = [e.id for e in dictionary]
    tokens = draw(st.lists(st.one_of(st.sampled_from(codes).map(CodeRef),
                                     symbol_texts.map(Literal)), min_size=2, max_size=6))
    doc = json.loads(stream_to_json(EncodedStream(PatternStore(dictionary), tuple(tokens))))
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


def reads_alike(doc, readers=(runs_from_json, oracle.runs_from_json), view=runs_of):
    """What the reader and its oracle, ``readers``, read from ``doc``, as
    ``view`` shows it, or the text of the error each raised."""
    read = []
    for reader in readers:
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
        new, old = reads_alike(doc, (stream_from_json, oracle.stream_from_json), stream_of)
        assert new == old


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
        assert runs_to_json(Runs.of([])) == oracle.runs_to_json([]) == '{\n  "runs": []\n}\n'

    def test_escapes_and_unbounded(self):
        texts = ['"', "\\", "\x7f", "\x00", "\ud800", "\U0001f600", "é"]
        symbols = tuple(texts)
        runs = Runs.of([Run(symbols, UNBOUNDED), Run(symbols[:1], 1)])
        stream = EncodedStream(
            PatternStore([SPPattern('w"1', symbols, 2)]),
            (CodeRef('w"1'), Literal(symbols[4]), Literal(symbols[5])))
        assert runs_to_json(runs) == oracle.runs_to_json(runs)
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
