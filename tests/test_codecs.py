import json
import pickle
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icmup import (EncodedStream, FixedSymbol, PatternStore, SPPattern, Schema,
                   Slot, UNBOUNDED, chunk_decode, chunk_encode,
                   discover_chunks, raw_cost, rle_decode, rle_encode,
                   schema_encode, schema_instantiate, tokenize, unify_basic)
from icmup.codecs import (dictionary_cost_bits, encoded_cost_bits, expected_count,
                          Runs, rle_cost_bits, runs_from_json, runs_to_json,
                          stream_from_json, stream_to_json)
from icmup import codecs
from icmup.errors import (BadCorrection, DegenerateAlphabet, InputFormatError,
                          NoSchemaMatch, NotDecodable, NotPresent, TooLarge,
                          UnknownPattern)

TWO_INSTANCE_CORPUS = "abcdefghijINFORMATIONklmnopqrstINFORMATIONuvwxyz"

corpora = st.lists(
    st.sampled_from("abcd"), min_size=0, max_size=60)


def chars(text):
    return tokenize(text, "chars")


class TestDiscovery:
    def test_finds_repeated_word(self):
        d = discover_chunks(chars(TWO_INSTANCE_CORPUS), 2, 2)
        assert len(d) == 1
        entry = list(d)[0]
        assert entry.id == "w1"
        assert "".join(entry.symbols) == "INFORMATION"
        assert entry.frequency == 2

    def test_all_distinct_corpus_is_empty(self):
        assert len(discover_chunks(chars("abcdefgh"), 2, 2)) == 0

    def test_alternating_pair(self):
        # by-hand zero-order check: "a b" occurs 3 times non-overlapping,
        # expectation (6-2+1) * (3/6) * (3/6) = 1.25 < 3, so it is kept;
        # everything else is claimed or occurs once
        d = discover_chunks(tokenize("a b a b a b"), 2, 2)
        assert [(e.id, e.symbols, e.frequency) for e in d] == [
            ("w1", ("a", "b"), 3)]
        assert expected_count(("a", "b"), {"a": 3, "b": 3}, 6) == pytest.approx(1.25)
        # a gram longer than the corpus has no window to occur in
        assert expected_count(("a", "b", "a"), {"a": 1, "b": 1}, 2) == 0.0

    def test_uniform_corpus_fails_chance_test(self):
        # every repeat of "a a ..." is expected by chance under zero-order
        assert len(discover_chunks(chars("aaaaaaaaaa"), 2, 2)) == 0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            discover_chunks(chars("abab"), 1, 2)
        with pytest.raises(ValueError):
            discover_chunks(chars("abab"), 2, 1)


class TestUnifyBasic:
    def test_two_instances(self):
        corpus = chars(TWO_INSTANCE_CORPUS)
        chunk = SPPattern.from_text("c", "INFORMATION", mode="chars")
        unified, residue = unify_basic(corpus, chunk)
        assert unified.frequency == 2
        assert "".join(residue) == "abcdefghijklmnopqrstuvwxyz"

    def test_corpus_equals_chunk(self):
        chunk = SPPattern.from_text("c", "x y z")
        unified, residue = unify_basic(tokenize("x y z"), chunk)
        assert unified.frequency == 1
        assert residue == []

    def test_left_to_right_non_overlapping(self):
        chunk = SPPattern.from_text("c", "a b a")
        unified, residue = unify_basic(tokenize("a b a b a"), chunk)
        assert unified.frequency == 1
        assert list(residue) == ["b", "a"]

    def test_size_conservation(self):
        corpus = tokenize("a b a b a b c")
        chunk = SPPattern.from_text("c", "a b")
        unified, residue = unify_basic(corpus, chunk)
        assert len(residue) + unified.frequency * len(chunk) == len(corpus)

    def test_size_conservation_random(self):
        rng = random.Random(31)
        for _ in range(200):
            corpus = [rng.choice("abc")
                      for _ in range(rng.randrange(2, 40))]
            start = rng.randrange(0, len(corpus) - 1)
            end = rng.randrange(start + 1, min(start + 6, len(corpus)) + 1)
            chunk = SPPattern("c", tuple(corpus[start:end]))
            unified, residue = unify_basic(corpus, chunk)
            assert len(residue) + unified.frequency * len(chunk) == len(corpus)

    def test_not_present(self):
        with pytest.raises(NotPresent):
            unify_basic(tokenize("a b"), SPPattern.from_text("c", "z"))


class TestChunkCodec:
    def test_code_once_per_instance(self):
        corpus = chars(TWO_INSTANCE_CORPUS)
        d = discover_chunks(corpus, 2, 2)
        stream = chunk_encode(corpus, d)
        refs = [t for t in stream.tokens if not isinstance(t, str)]
        assert len(refs) == 2
        assert all(r is d.get("w1") for r in refs)
        assert chunk_decode(stream) == list(corpus)

    def test_spelling_past_the_last_code_point_is_too_large(self):
        class Full(dict):  # a letters map that has spelled every code point
            def __len__(self):
                return codecs.MAX_SYMBOLS + 1

        assert codecs.MAX_SYMBOLS == sys.maxunicode
        with pytest.raises(TooLarge, match=f"more than {sys.maxunicode} distinct symbols"):
            codecs._spell(["a"], Full())

    def test_empty_dictionary_is_identity(self):
        corpus = tokenize("p q r")
        stream = chunk_encode(corpus, PatternStore())
        assert stream.tokens == tuple(corpus)
        assert chunk_decode(stream) == list(corpus)

    def test_repeated_word_compresses(self):
        # five instances among twenty distinct fillers: compare both sides
        # of the cost model directly
        corpus = chars("abcd" + "INFORMATION" + "efgh" + "INFORMATION"
                       + "ijkl" + "INFORMATION" + "mnop" + "INFORMATION"
                       + "qrst" + "INFORMATION")
        d = discover_chunks(corpus, 2, 2)
        stream = chunk_encode(corpus, d)
        alphabet = len(set(corpus))
        encoded = encoded_cost_bits(stream, alphabet)
        raw = raw_cost(corpus, alphabet)
        assert encoded < raw
        assert chunk_decode(stream) == list(corpus)

    @pytest.mark.parametrize("price", [
        lambda: encoded_cost_bits(EncodedStream(PatternStore(), ()), 0),
        lambda: dictionary_cost_bits(PatternStore(), 0),
        lambda: rle_cost_bits([], 0),
    ], ids=["stream", "dictionary", "runs"])
    def test_alphabet_zero_raises_even_with_nothing_to_price(self, price):
        with pytest.raises(DegenerateAlphabet):
            price()

    @pytest.mark.parametrize("token, message", [
        (SPPattern("w9", ("a", "b"), 2), "no pattern with id 'w9'"),
        (SPPattern("w1", ("a", "c"), 2), "code token 'w1' differs"),
        (SPPattern("w1", ("a", "b"), 3), "code token 'w1' differs"),
    ], ids=["id-it-lacks", "other-symbols", "other-frequency"])
    def test_unknown_code_when_made(self, token, message):
        # a code token names its entry, so a stream whose dictionary lacks
        # that entry cannot be made, nor written, nor decoded
        w1 = SPPattern("w1", ("a", "b"), 2)
        with pytest.raises(UnknownPattern, match=message):
            EncodedStream(PatternStore([w1]), ("a", w1, token))

    def test_an_equal_entry_is_the_entry(self):
        # an equal entry, though not the same object, is the entry
        w1 = SPPattern("w1", ("a", "b"), 2)
        again = EncodedStream(PatternStore([w1]), (SPPattern("w1", ("a", "b"), 2),))
        assert chunk_decode(again) == ["a", "b"]

    def test_longest_match_first(self):
        ab = SPPattern.from_text("w1", "a b", frequency=2)
        abc = SPPattern.from_text("w2", "a b c", frequency=2)
        stream = chunk_encode(tokenize("a b c a b"), PatternStore([ab, abc]))
        assert stream.tokens == (abc, ab)

    @settings(max_examples=150, deadline=None)
    @given(corpora)
    def test_round_trip(self, corpus):
        d = discover_chunks(corpus, 2, 2)
        stream = chunk_encode(corpus, d)
        assert chunk_decode(stream) == list(corpus)

    @settings(max_examples=150, deadline=None)
    @given(corpora)
    def test_compression_soundness(self, corpus):
        d = discover_chunks(corpus, 2, 2)
        if len(d) == 0:
            return
        alphabet = len(set(corpus))
        stream = chunk_encode(corpus, d)
        assert encoded_cost_bits(stream, alphabet) <= raw_cost(corpus, alphabet) + 1e-9


class TestStreamFile:
    def test_round_trip(self):
        corpus = chars(TWO_INSTANCE_CORPUS)
        stream = chunk_encode(corpus, discover_chunks(corpus, 2, 2))
        again = stream_from_json(stream_to_json(stream))
        assert chunk_decode(again) == list(corpus)

    def test_unknown_code_is_format_error(self):
        text = '{"dictionary": [], "stream": [{"code": "w1"}]}'
        with pytest.raises(InputFormatError):
            stream_from_json(text)

    @pytest.mark.parametrize("text", [
        "not json", "[]", '{"dictionary": []}',
        '{"dictionary": [], "stream": [{"x": 1}]}'])
    def test_malformed(self, text):
        with pytest.raises(InputFormatError):
            stream_from_json(text)

    @pytest.mark.parametrize("bad", ["a b", "a\tb", "\u00a0", "", 7, ["a"]])
    @pytest.mark.parametrize("where", ["dictionary", "literal"])
    def test_round_trip_rejects_a_bad_symbol(self, bad, where):
        corpus = chars(TWO_INSTANCE_CORPUS)
        doc = json.loads(stream_to_json(chunk_encode(corpus, discover_chunks(corpus, 2, 2))))
        if where == "dictionary":
            doc["dictionary"][0]["symbols"][1] = bad
        else:
            next(item for item in doc["stream"] if "lit" in item)["lit"] = bad
        with pytest.raises(InputFormatError, match="malformed stream file"):
            stream_from_json(json.dumps(doc))


    @pytest.mark.parametrize("count", [2.9, 3.0, "3", True, None, [3], "*"])
    def test_dictionary_count_must_be_an_integer(self, count):
        doc = {"dictionary": [{"code": "w1", "symbols": ["a", "b"], "count": count}],
               "stream": [{"code": "w1"}]}
        with pytest.raises(InputFormatError, match="malformed stream file"):
            stream_from_json(json.dumps(doc))

    @pytest.mark.parametrize("symbols", ["ab", {"a": 1, "b": 2}])
    def test_dictionary_symbols_must_be_an_array(self, symbols):
        doc = {"dictionary": [{"code": "w1", "symbols": symbols, "count": 2}],
               "stream": [{"code": "w1"}]}
        with pytest.raises(InputFormatError, match="malformed stream file"):
            stream_from_json(json.dumps(doc))

    @pytest.mark.parametrize("token", [{"code": "w1", "lit": "z"}, {"lit": "z", "code": "w1"}])
    def test_token_holds_exactly_one_of_code_and_lit(self, token):
        doc = {"dictionary": [{"code": "w1", "symbols": ["a", "b"], "count": 2}],
               "stream": [token]}
        with pytest.raises(InputFormatError, match="exactly one of 'code' and 'lit'"):
            stream_from_json(json.dumps(doc))

    @pytest.mark.parametrize("bad", ["a b", "", 7])
    def test_stream_rejects_what_the_reader_would(self, bad):
        # the stream refuses the text when made, so no writer is handed it
        with pytest.raises((TypeError, ValueError), match="symbol text"):
            stream_to_json(EncodedStream(PatternStore([]), (bad,)))

    def test_writer_takes_any_pattern_id_as_a_code(self):
        # a code is a pattern id, which may hold whitespace
        entry = SPPattern("w 1", ("a", "b"), 2)
        stream = EncodedStream(PatternStore([entry]), (entry, "c"))
        again = stream_from_json(stream_to_json(stream))
        assert list(again.dictionary) == list(stream.dictionary)
        assert again.tokens == stream.tokens

    def test_a_literal_that_spells_a_code_stays_a_literal(self):
        # the literal w1 and the chunk w1 = a b are written, read and
        # decoded each as what it is
        corpus = tokenize("w1 x a b y a b")
        dictionary = discover_chunks(corpus)
        stream = chunk_encode(corpus, dictionary)
        w1 = dictionary.get("w1")
        assert (w1.symbols, stream.tokens) == (("a", "b"), ("w1", "x", w1, "y", w1))
        text = stream_to_json(stream)
        assert json.loads(text)["stream"][:3] == [{"lit": "w1"}, {"lit": "x"}, {"code": "w1"}]
        again = stream_from_json(text)
        assert again.tokens == stream.tokens
        assert chunk_decode(again) == corpus

    def test_entry_count_must_be_an_integer(self):
        chunk = SPPattern.from_text("w1", "a b")
        for count in (True, 2.0, "2"):
            with pytest.raises(TypeError, match="integer"):
                SPPattern("w1", chunk.symbols, count)


class TestRle:
    def test_five_copies(self):
        runs = rle_encode(chars("INFORMATION" * 5))
        assert len(runs) == 1
        assert "".join(runs.blocks[0]) == "INFORMATION"
        assert runs.counts == (5,)

    def test_single_symbol(self):
        runs = rle_encode(tokenize("x"))
        assert (runs.blocks, runs.counts) == ((("x",),), (1,))

    def test_decode_block(self):
        runs = Runs((tuple(tokenize("a b")),), (3,))
        assert list(rle_decode(runs)) == ["a", "b", "a", "b", "a", "b"]

    def test_span_beats_block_length(self):
        # five copies munch further than two copies of a doubled block
        runs = rle_encode(chars("ababababab"))
        assert (runs.blocks, runs.counts) == ((("a", "b"),), (5,))

    def test_unbounded_is_not_decodable(self):
        with pytest.raises(NotDecodable):
            rle_decode(Runs((tuple(tokenize("a")),), (UNBOUNDED,)))

    def test_decode_stops_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(codecs, "DECODE_CAP", 6)
        assert rle_decode(Runs((("a", "b"), ("c",)), (2, 2))) == list("ababcc")
        with pytest.raises(TooLarge, match="'r2' .* cap of 6 symbols"):
            rle_decode(Runs((("a", "b"), ("c",)), (2, 3)))
        # an unbounded run still raises NotDecodable
        with pytest.raises(NotDecodable):
            rle_decode(Runs((("a",), ("b",)), (6, UNBOUNDED)))

    def test_chunk_decode_stops_at_the_cap(self, monkeypatch):
        dictionary = PatternStore([SPPattern("w1", ("a", "b", "c"), 2)])
        w1 = dictionary.get("w1")
        stream = EncodedStream(dictionary, ("x", w1, w1))
        monkeypatch.setattr(codecs, "DECODE_CAP", 7)
        assert chunk_decode(stream) == list("xabcabc")
        monkeypatch.setattr(codecs, "DECODE_CAP", 6)
        with pytest.raises(TooLarge, match=r"token 3 \(code 'w1'\) .* cap of 6 symbols"):
            chunk_decode(stream)

    def test_file_round_trip(self):
        runs = rle_encode(chars("xxyyxxyy"))
        again = runs_from_json(runs_to_json(runs))
        assert rle_decode(again) == rle_decode(runs)

    @pytest.mark.parametrize("bad", ["a b", "a\tb", "\u00a0", "", 7, ["a"]])
    def test_file_round_trip_rejects_a_bad_symbol(self, bad):
        doc = json.loads(runs_to_json(rle_encode(chars("xxyyxxyy"))))
        doc["runs"][0]["symbols"][-1] = bad
        with pytest.raises(InputFormatError, match="malformed runs file"):
            runs_from_json(json.dumps(doc))

    @pytest.mark.parametrize("bad", ["a b", "", 7])
    def test_run_rejects_what_the_reader_would(self, bad):
        # the run refuses the text when made, so no writer is handed it
        with pytest.raises((TypeError, ValueError), match="symbol text"):
            runs_to_json(Runs((("a", bad),), (2,)))

    @pytest.mark.parametrize("count", [2.9, 3.0, "3", True, False, None, [3], "**"])
    def test_file_count_must_be_an_integer_or_star(self, count):
        doc = {"runs": [{"symbols": ["a"], "count": count}]}
        with pytest.raises(InputFormatError, match="malformed runs file"):
            runs_from_json(json.dumps(doc))

    def test_a_run_list_is_read_by_its_columns(self):
        # no record per run: a run list has its two columns and a length,
        # and is neither iterated nor indexed
        runs = Runs((("a", "b"), ("c",)), (3, UNBOUNDED))
        assert (runs.blocks, runs.counts) == ((("a", "b"), ("c",)), (3, UNBOUNDED))
        assert len(runs) == 2
        assert not hasattr(Runs, "of")
        with pytest.raises(TypeError):
            iter(runs)
        with pytest.raises(TypeError):
            runs[0]

    def test_file_star_count_is_unbounded(self):
        runs = runs_from_json('{"runs": [{"symbols": ["a"], "count": "*"}]}')
        assert runs.counts == (UNBOUNDED,)

    def test_pickle_keeps_the_unbounded_marker(self):
        runs = Runs((tuple(tokenize("a")),), (UNBOUNDED,))
        again = pickle.loads(pickle.dumps(runs))
        assert again == runs and again.counts[0] is UNBOUNDED

    @pytest.mark.parametrize("symbols", ["ab", {"a": 1}])
    def test_file_symbols_must_be_an_array(self, symbols):
        doc = {"runs": [{"symbols": symbols, "count": 2}]}
        with pytest.raises(InputFormatError, match="malformed runs file"):
            runs_from_json(json.dumps(doc))

    def test_run_count_must_be_an_integer_or_unbounded(self):
        symbols = tuple(tokenize("a"))
        for count in (True, 2.0, "2", "*"):
            with pytest.raises(TypeError, match="integer"):
                Runs((symbols,), (count,))

    @settings(max_examples=200, deadline=None)
    @given(corpora)
    def test_round_trip(self, corpus):
        assert rle_decode(rle_encode(corpus)) == list(corpus)


def menu_schema():
    def filler(code, text):
        return (code, SPPattern.from_text(code, text))

    return Schema("MN:", (
        FixedSymbol("MN:"),
        Slot("ST", (filler("st2", "minestrone-soup"),
                    filler("st6", "prawn-cocktail"))),
        Slot("MC", (filler("mc5", "vegetable-lasagne"),
                    filler("mc1", "lamb-shank"))),
        Slot("PG", (filler("pg3", "ice-cream"),
                    filler("pg4", "apple-crumble"))),
    ))


class TestSchema:
    def test_menu_instantiation(self):
        inst = schema_instantiate(menu_schema(),
                                  {"ST": "st2", "MC": "mc5", "PG": "pg3"})
        assert inst.render() == "MN: minestrone-soup vegetable-lasagne ice-cream"

    @pytest.mark.parametrize("bad", ["a b", "", None])
    def test_fixed_symbol_is_a_symbol(self, bad):
        with pytest.raises((TypeError, ValueError), match="symbol text"):
            FixedSymbol(bad)

    def test_zero_slot_schema(self):
        schema = Schema("K", (FixedSymbol("k1"), FixedSymbol("k2")))
        inst = schema_instantiate(schema, {})
        assert inst.symbols == ("k1", "k2")
        assert schema_encode(inst, schema) == {}

    def test_round_trip_second_meal(self):
        corrections = {"ST": "st6", "MC": "mc1", "PG": "pg4"}
        inst = schema_instantiate(menu_schema(), corrections)
        assert schema_encode(inst, menu_schema()) == corrections

    def test_missing_assignment(self):
        with pytest.raises(BadCorrection):
            schema_instantiate(menu_schema(), {"ST": "st2", "MC": "mc5"})

    def test_unknown_slot(self):
        corrections = {"ST": "st2", "MC": "mc5", "PG": "pg3", "XX": "x1"}
        with pytest.raises(BadCorrection, match=r"unknown slots: \['XX'\]"):
            schema_instantiate(menu_schema(), corrections)

    def test_unknown_filler(self):
        with pytest.raises(BadCorrection):
            schema_instantiate(menu_schema(),
                               {"ST": "st9", "MC": "mc5", "PG": "pg3"})

    def test_no_schema_match(self):
        other = SPPattern.from_text("x", "MN: soup")
        with pytest.raises(NoSchemaMatch):
            schema_encode(other, menu_schema())

    def test_backtracking_over_prefix_fillers(self):
        schema = Schema("S", (
            Slot("X", (("a", SPPattern.from_text("a", "p")),
                       ("b", SPPattern.from_text("b", "p q")))),
            FixedSymbol("q"),
        ))
        inst = schema_instantiate(schema, {"X": "a"})
        assert schema_encode(inst, schema) == {"X": "a"}

    def test_failing_parse_grows_polynomially(self):
        """k slots, each with fillers ``a`` and ``a a``, then ``b``, against
        2k copies of ``a`` and a ``c``: the parse fails after trying every
        way to split the ``a``s.  It enters about k^2 ``parse`` frames, one
        or two per (slot, position) state, so doubling k at most quadruples
        them; a parse without a memo enters 2^(k + 1) - 1 and trips the cap
        at 20 slots."""
        code = next(c for c in schema_encode.__code__.co_consts
                    if getattr(c, "co_name", None) == "parse")
        cap = 20_000
        entered = 0

        def tracer(frame, event, arg):
            nonlocal entered
            if frame.f_code is code:
                entered += 1
                if entered > cap:
                    raise AssertionError(f"the parse entered more than {cap} frames")

        fillers = (("x", SPPattern.from_text("x", "a")),
                   ("y", SPPattern.from_text("y", "a a")))
        counts = []
        for k in (10, 20, 40):
            elements = tuple(Slot(f"s{i}", fillers) for i in range(k)) + (FixedSymbol("b"),)
            instance = SPPattern("i", ("a",) * (2 * k) + ("c",))
            entered = 0
            before = sys.gettrace()
            sys.settrace(tracer)
            try:
                with pytest.raises(NoSchemaMatch):
                    schema_encode(instance, Schema("S", elements))
            finally:
                sys.settrace(before)
            counts.append(entered)
        assert all(later <= 4 * earlier for earlier, later in zip(counts, counts[1:]))

    def test_ambiguous_fillers_rejected(self):
        with pytest.raises(ValueError):
            Slot("X", (("a", SPPattern.from_text("a", "p")),
                       ("b", SPPattern.from_text("b", "p"))))


def random_schema(rng: random.Random):
    """Slots draw fillers from disjoint alphabets, so parses are unambiguous."""
    pools = ["ab", "cd", "ef", "gh"]
    elements = []
    slot_fillers = {}
    n_slots = rng.randint(1, 4)
    for k in range(n_slots):
        pool = pools[k]
        bodies = set()
        fillers = []
        for fi in range(rng.randint(1, 4)):
            body = tuple(rng.choice(pool) for _ in range(rng.randint(1, 3)))
            if body in bodies:
                continue
            bodies.add(body)
            code = f"s{k}f{fi}"
            fillers.append((code, SPPattern(code, tuple(body))))
        elements.append(Slot(f"slot{k}", tuple(fillers)))
        slot_fillers[f"slot{k}"] = [c for c, _ in fillers]
        if rng.random() < 0.7:
            elements.append(FixedSymbol(rng.choice("XYZ")))
    schema = Schema("R", tuple(elements))
    corrections = {name: rng.choice(codes) for name, codes in slot_fillers.items()}
    return schema, corrections


def test_schema_round_trip_random():
    rng = random.Random(2024)
    for _ in range(300):
        schema, corrections = random_schema(rng)
        inst = schema_instantiate(schema, corrections)
        assert schema_encode(inst, schema) == corrections
