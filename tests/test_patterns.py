import math
import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from icmup import (PatternStore, SPPattern, SPSymbol, code_cost,
                   code_cost_bits, parse_grammar, patterns, raw_cost, render,
                   symbol_cost_bits, tokenize)
from icmup.errors import DegenerateAlphabet, InputFormatError, UnknownPattern

from conftest import KITTENS_GRAMMAR

symbol_texts = st.text(alphabet="abcdefgXYZ#/01", min_size=1, max_size=4)
symbol_lists = st.lists(symbol_texts.map(SPSymbol), min_size=0, max_size=30)
WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]


@st.composite
def grammars(draw):
    """A grammar file with its pattern lines as (id, frequency or None,
    body): optional frequencies, comment and blank lines, irregular
    spacing, and multi-character symbols repeated within and across lines."""
    words = st.sampled_from(["a", "b", "NP", "#NP", "k1/0"]) | symbol_texts
    lines = draw(st.lists(
        st.tuples(st.text(alphabet="pqxz09_", min_size=1, max_size=3),
                  st.none() | st.integers(1, 999),
                  st.lists(words, min_size=1, max_size=8)),
        max_size=12, unique_by=lambda line: line[0]))
    gaps = st.sampled_from([" ", "  ", "\t", " \t "])
    out: list[str] = []
    parsed = []
    for pid, freq, body in lines:
        out.extend(draw(st.lists(st.sampled_from(["", "   ", "# a comment", "  #PATTERN z: q"]),
                                 max_size=2)))
        head = f"PATTERN{draw(gaps)}{pid}" + ("" if freq is None else f"{draw(gaps)}{freq}")
        joined = draw(gaps).join(body)
        out.append(f"{draw(gaps)}{head}:{draw(gaps)}{joined}")
        parsed.append((pid, freq, joined))
    return "\n".join(out) + "\n", parsed


class TestSymbol:
    def test_equality_is_textual(self):
        assert SPSymbol("a") == SPSymbol("a")
        assert SPSymbol("a") != SPSymbol("b")

    @pytest.mark.parametrize("bad", ["", "a b", "a\t", "\n"])
    def test_rejects_empty_and_whitespace(self, bad):
        with pytest.raises(ValueError):
            SPSymbol(bad)

    @pytest.mark.parametrize("space", WHITESPACE, ids=lambda ch: f"U+{ord(ch):04X}")
    def test_rejects_every_whitespace_character(self, space):
        for text in (space, f"a{space}", f"{space}a", f"a{space}b"):
            with pytest.raises(ValueError, match="whitespace"):
                SPSymbol(text)


class TestTokenize:
    def test_whitespace_mode(self):
        assert [s.text for s in tokenize("a b c")] == ["a", "b", "c"]

    def test_chars_mode(self):
        syms = tokenize("INFORMATION", "chars")
        assert len(syms) == 11
        assert [s.text for s in syms[:3]] == ["I", "N", "F"]

    def test_sentence_has_fourteen_symbols(self):
        assert len(tokenize("t w o k i t t e n s p l a y")) == 14

    def test_empty_input(self):
        assert tokenize("") == []
        assert tokenize("   ", "chars") == []

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            tokenize("a", "words")

    @given(symbol_lists)
    def test_render_round_trip(self, symbols):
        assert tokenize(render(symbols)) == symbols


class TestCosts:
    def test_raw_cost_dna(self):
        p = SPPattern.from_text("p", "A C G T A")
        assert raw_cost(p, 4) == pytest.approx(10.0)

    def test_raw_cost_binary(self):
        p = SPPattern.from_text("p", "1 0 1 0 1 0 1 0")
        assert raw_cost(p, 2) == pytest.approx(8.0)

    def test_raw_cost_word(self):
        p = SPPattern.from_text("p", "INFORMATION", mode="chars")
        expected = 11 * math.log2(27)
        assert raw_cost(p, 27) == pytest.approx(expected)
        assert expected == pytest.approx(52.304, abs=0.0005)

    def test_degenerate_alphabet(self):
        assert symbol_cost_bits(1) == 1.0
        with pytest.raises(DegenerateAlphabet):
            symbol_cost_bits(0)

    @given(st.integers(2, 1000))
    def test_symbol_cost_positive(self, size):
        assert symbol_cost_bits(size) > 0

    @given(symbol_lists, symbol_lists, st.integers(1, 64))
    def test_raw_cost_additive(self, left, right, alphabet):
        whole = raw_cost(list(left) + list(right), alphabet)
        assert whole == pytest.approx(raw_cost(left, alphabet) + raw_cost(right, alphabet))

    def test_code_cost_sole_pattern(self):
        assert code_cost_bits(1, 1) == 0.0

    def test_code_cost_half(self):
        assert code_cost_bits(1, 2) == pytest.approx(1.0)

    def test_code_cost_three_quarters(self):
        assert code_cost_bits(3, 4) == pytest.approx(-math.log2(3 / 4))
        assert code_cost_bits(3, 4) == pytest.approx(0.415, abs=0.0005)

    @given(st.integers(2, 500))
    def test_code_cost_monotone_in_frequency(self, total):
        costs = [code_cost_bits(f, total) for f in range(1, total + 1)]
        assert all(a > b for a, b in zip(costs, costs[1:]))
        assert costs[-1] == 0.0


class TestPattern:
    @pytest.mark.parametrize("pid, frequency", [
        (7, 1), (None, 1), ("p", True), ("p", False), ("p", 2.5), ("p", 2.0)])
    def test_rejects_non_string_id_and_non_integer_frequency(self, pid, frequency):
        with pytest.raises(TypeError):
            SPPattern(pid, (SPSymbol("a"),), frequency)


class TestStore:
    def make(self):
        return PatternStore([
            SPPattern.from_text("a", "x y", frequency=3),
            SPPattern.from_text("b", "y z", frequency=1),
        ])

    def test_alphabet_is_union(self):
        assert self.make().alphabet == {"x", "y", "z"}

    def test_total_frequency(self):
        assert self.make().total_frequency == 4

    def test_code_cost_lookup(self):
        store = self.make()
        assert code_cost("a", store) == pytest.approx(-math.log2(3 / 4))

    def test_unknown_pattern(self):
        with pytest.raises(UnknownPattern):
            code_cost("zzz", self.make())

    def test_duplicate_id_rejected(self):
        p = SPPattern.from_text("a", "x")
        with pytest.raises(ValueError):
            PatternStore([p, p])

    def test_retrieval_index(self):
        store = self.make()
        assert store.occurrences("y") == {"a": 1, "b": 1}
        assert store.occurrences("w") == {}

    @given(st.lists(st.lists(st.sampled_from(["a", "b", "ab"]), min_size=1,
                             max_size=8), max_size=12))
    def test_holders_recount(self, bodies):
        store = PatternStore(SPPattern(f"p{i}", tuple(map(SPSymbol, body)))
                             for i, body in enumerate(bodies))
        for text in ("a", "b", "ab", "w"):
            levels = store.holders(text)
            most = max([body.count(text) for body in bodies], default=0)
            assert len(levels) == most
            for c, ids in enumerate(levels):
                assert sorted(ids) == sorted(f"p{i}" for i, body in enumerate(bodies)
                                             if body.count(text) > c)
            assert store.holders(text) is levels  # made once, then kept


class TestGrammarFile:
    def test_basic(self):
        store = parse_grammar("PATTERN p1 2: a b c\n# comment\n\nPATTERN p2: d\n")
        assert store.get("p1").frequency == 2
        assert store.get("p2").frequency == 1
        assert store.alphabet == {"a", "b", "c", "d"}

    def test_duplicate_id(self):
        with pytest.raises(InputFormatError, match="line 2"):
            parse_grammar("PATTERN p 1: a\nPATTERN p 1: b\n")

    @pytest.mark.parametrize("line", [
        "PATERN p 1: a",
        "PATTERN p 1 a",
        "PATTERN p one: a",
        "PATTERN p 0: a",
        "PATTERN p 1:",
        "PATTERN p q r: a",
        "PATTERNx 2: a",
        "PATTERN x 1_0: a",
    ])
    def test_bad_lines(self, line):
        with pytest.raises(InputFormatError):
            parse_grammar(line)

    def test_glued_keyword_cites_its_line(self):
        with pytest.raises(InputFormatError, match="line 3: expected 'PATTERN', got 'PATTERNx'"):
            parse_grammar("PATTERN p: a\n\nPATTERNx 2: a b\n")

    @pytest.mark.parametrize("freq", ["1_0", "\u0663", "\uff11", "+1", "-1", "1.0"])
    def test_frequency_is_ascii_digits(self, freq):
        with pytest.raises(InputFormatError, match=re.escape(f"line 1: bad frequency {freq!r}")):
            parse_grammar(f"PATTERN x {freq}: a")

    def test_leading_zeros_are_digits(self):
        assert parse_grammar("PATTERN x 007: a").get("x").frequency == 7

    @given(grammars())
    def test_equals_plain_reference(self, grammar):
        """The lazy store a grammar loads into reads as the eager store of
        the same patterns, in every view, in the same order."""
        text, lines = grammar
        reference = PatternStore(
            SPPattern(pid, tuple(SPSymbol(t) for t in body.split()), freq or 1)
            for pid, freq, body in lines)
        store = parse_grammar(text)
        assert store.ids() == reference.ids()
        assert len(store) == len(reference)
        assert store.alphabet == reference.alphabet
        assert store.total_frequency == reference.total_frequency
        assert list(store.codes().items()) == list(reference.codes().items())
        for pid in reference.ids():
            assert store.get(pid) == reference.get(pid)
        assert list(store) == list(reference)
        for t in reference.alphabet | {"absent"}:
            assert list(store.occurrences(t).items()) == list(reference.occurrences(t).items())
            assert store.holders(t) == reference.holders(t)

    # each message is the one the grammar loader has always given
    @pytest.mark.parametrize("text, message", [
        ("# one\nPATTERN p 1: a\n\nPATTERN q 1:\n", "line 4: pattern 'q' has no symbols"),
        ("PATTERN p 1: a\n# two\nPATTERN q 0: a\n", "line 3: pattern 'q' frequency must be >= 1"),
        ("PATTERN p 1: a\n\nPATTERN p 2: b\n", "line 3: duplicate pattern id 'p'"),
        ("\n  \nPATTERN p one: a\n", "line 3: bad frequency 'one'"),
        ("PATTERN p 1: a\nPATTERN q 1 a\n", "line 2: missing ':' separator"),
    ])
    def test_load_errors_pinned(self, text, message):
        with pytest.raises(InputFormatError) as caught:
            parse_grammar(text)
        assert str(caught.value) == message


@pytest.fixture()
def made(monkeypatch):
    """The texts of the symbols and the ids of the patterns that the
    ``patterns`` module makes while the test runs."""
    made = {"patterns": [], "symbols": []}

    class CountingSymbol(SPSymbol):
        __slots__ = ()

        def __post_init__(self):
            made["symbols"].append(self.text)
            SPSymbol.__post_init__(self)

    class CountingPattern(SPPattern):
        __slots__ = ()

        def __post_init__(self):
            made["patterns"].append(self.id)
            SPPattern.__post_init__(self)

    monkeypatch.setattr(patterns, "SPSymbol", CountingSymbol)
    monkeypatch.setattr(patterns, "SPPattern", CountingPattern)
    return made


class TestOneSymbolPerText:
    """``parse_grammar`` and ``tokenize`` build one symbol per distinct
    text and share it."""

    @pytest.fixture()
    def built(self, made):
        return made["symbols"]

    def test_parse_grammar(self, built):
        # the store makes its symbols when its patterns are first read
        store = parse_grammar(KITTENS_GRAMMAR)
        list(store)
        assert sorted(built) == sorted(store.alphabet)
        assert store.get("p2").symbols[2] is store.get("p1").symbols[0]  # Nr

    @pytest.mark.parametrize("mode, text, distinct", [
        ("whitespace", "a b a  c\tb a", ["a", "b", "c"]),
        ("chars", "abra cadabra", ["a", "b", "r", "c", "d"]),
    ])
    def test_tokenize(self, built, mode, text, distinct):
        symbols = tokenize(text, mode)
        assert built == distinct
        by_text = {s.text: s for s in symbols}
        assert all(s is by_text[s.text] for s in symbols)


class TestLazyStore:
    """A loaded grammar makes a pattern, and its new symbols, only when the
    pattern is first read."""

    def test_loading_makes_nothing_and_each_get_one_pattern(self, made):
        store = parse_grammar(KITTENS_GRAMMAR)
        assert store.codes() and store.occurrences("Nr") and store.holders("k")
        assert made == {"patterns": [], "symbols": []}
        for k, pid in enumerate(["p4", "p1", "p2"], start=1):
            first = store.get(pid)
            assert store.get(pid) is first
            assert made["patterns"] == ["p4", "p1", "p2"][:k]
        assert sorted(made["symbols"]) == sorted(
            {t for pid in ("p1", "p2", "p4") for t in store.get(pid).texts})

    def test_given_patterns_are_returned(self):
        given = [SPPattern.from_text("a", "x y"), SPPattern.from_text("b", "y")]
        store = PatternStore(given)
        assert all(store.get(p.id) is p for p in given)
