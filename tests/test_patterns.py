import math
import re
import sys
import time
from functools import cached_property

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from icmup import (PatternStore, SPPattern, build_alignments, check_symbol, code_cost,
                   code_cost_bits, parse_grammar, parse_hierarchy, parse_table,
                   patterns, raw_cost, render, retrieve, symbol_cost_bits, tokenize)
from icmup import machines, schema
from icmup.cli import main
from icmup.codecs import runs_from_json, stream_from_json
from icmup.errors import DegenerateAlphabet, InputFormatError, UnknownPattern
from icmup.patterns import check_texts

from conftest import KITTENS_GRAMMAR, counting_merges

symbol_texts = st.text(alphabet="abcdefgXYZ#/01", min_size=1, max_size=4)
symbol_lists = st.lists(symbol_texts, min_size=0, max_size=30)
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


# the two places a symbol text is checked: alone, and in a pattern (which
# checks every symbol at once and names the first bad one)
CHECKS = [check_symbol, lambda text: SPPattern("p", ("a", text, "b"))]


class TestSymbol:
    def test_equality_is_textual(self):
        assert check_symbol("a") == "a"
        assert SPPattern("p", ("a",)) == SPPattern("p", tuple("a"))
        assert SPPattern("p", ("a",)) != SPPattern("p", ("b",))

    @pytest.mark.parametrize("check", CHECKS, ids=["alone", "in-pattern"])
    @pytest.mark.parametrize("bad, message", [
        ("", "symbol text must be non-empty"),
        ("a b", "symbol text may not contain whitespace: 'a b'"),
        ("a\t", "symbol text may not contain whitespace: 'a\\t'"),
        ("\n", "symbol text may not contain whitespace: '\\n'"),
    ])
    def test_rejects_empty_and_whitespace(self, check, bad, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check(bad)

    @pytest.mark.parametrize("check", CHECKS, ids=["alone", "in-pattern"])
    @pytest.mark.parametrize("bad", [5, None, b"a"])
    def test_rejects_a_non_string(self, check, bad):
        message = f"symbol text must be a string, got {type(bad).__name__}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            check(bad)

    @pytest.mark.parametrize("space", WHITESPACE, ids=lambda ch: f"U+{ord(ch):04X}")
    def test_rejects_every_whitespace_character(self, space):
        for text in (space, f"a{space}", f"{space}a", f"a{space}b"):
            for check in CHECKS:
                with pytest.raises(ValueError, match="whitespace"):
                    check(text)


class TestTokenize:
    def test_whitespace_mode(self):
        assert tokenize("a b c") == ["a", "b", "c"]

    def test_chars_mode(self):
        syms = tokenize("INFORMATION", "chars")
        assert len(syms) == 11
        assert syms[:3] == ["I", "N", "F"]

    def test_sentence_has_fourteen_symbols(self):
        assert len(tokenize("t w o k i t t e n s p l a y")) == 14

    def test_empty_input(self):
        assert tokenize("") == []
        assert tokenize("   ", "chars") == []

    def test_chars_mode_drops_exactly_the_isspace_characters(self):
        # character mode splits on whitespace in C; this pins that the split
        # drops what isspace() calls whitespace, over every code point
        text = "".join(map(chr, range(sys.maxunicode + 1)))
        assert tokenize(text, "chars") == [ch for ch in text if not ch.isspace()]

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

    def test_code_cost_past_float_underflow(self):
        # f/F rounds to 0.0 here, and -log2(0.0) is a domain error; the code
        # is log2(F) - log2(f), which math.log2 takes exactly from ints
        assert 10**400 / (10**400 + 1) > 0 and 1 / 10**400 == 0.0
        assert code_cost_bits(1, 10**400) == math.log2(10**400)
        assert code_cost_bits(3, 3 * 10**400) == pytest.approx(math.log2(10**400))
        assert code_cost_bits(10**400, 10**400 + 1) == -math.log2(10**400 / (10**400 + 1))

    @given(st.integers(2, 500))
    def test_code_cost_monotone_in_frequency(self, total):
        costs = [code_cost_bits(f, total) for f in range(1, total + 1)]
        assert all(a > b for a, b in zip(costs, costs[1:]))
        assert costs[-1] == 0.0
        # and only for 1 <= f <= F
        for frequency in (0, total + 1):
            with pytest.raises(ValueError, match="need 1 <= frequency <= total_frequency"):
                code_cost_bits(frequency, total)


class TestPattern:
    @pytest.mark.parametrize("pid, frequency", [
        (7, 1), (None, 1), ("p", True), ("p", False), ("p", 2.5), ("p", 2.0)])
    def test_rejects_non_string_id_and_non_integer_frequency(self, pid, frequency):
        with pytest.raises(TypeError):
            SPPattern(pid, ("a",), frequency)


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

    def test_codes_are_kept_in_store_order_and_read_only(self):
        store = self.make()
        assert store.codes is store.codes and list(store.codes) == ["a", "b"]
        with pytest.raises(TypeError):
            store.codes["a"] = 0.0

    def test_unknown_pattern(self):
        with pytest.raises(UnknownPattern):
            code_cost("zzz", self.make())

    def test_duplicate_id_rejected(self):
        p = SPPattern.from_text("a", "x")
        with pytest.raises(ValueError):
            PatternStore([p, p])

    def test_retrieval_index(self):
        store = self.make()
        assert store.holders("y", 2) == (("a", "b"),)  # one copy each, store order
        assert store.holders("x", 1) == (("a",),)
        assert store.holders("w", 1) == ()
        assert store.holders("y", 0) == ()

    @given(st.lists(st.lists(st.sampled_from(["a", "b", "ab"]), min_size=1,
                             max_size=8), max_size=12),
           st.lists(st.integers(0, 9), max_size=6))
    @example([["b", "a"], ["a"] * 40, ["ab"], ["a", "b", "a"]],
             [3, 0, 1, 41, 2, 40])
    def test_holders_recount(self, bodies, depths):
        """Every depth, asked for in any order, gives the levels a recount
        gives: a level is made on the first request that reaches it, and a
        request past the most copies gives every level."""
        store = PatternStore(SPPattern(f"p{i}", tuple(body))
                             for i, body in enumerate(bodies))
        for text in ("a", "b", "ab", "w"):
            most = max([body.count(text) for body in bodies], default=0)
            recount = tuple(tuple(f"p{i}" for i, body in enumerate(bodies)
                                  if body.count(text) > c)  # in store order
                            for c in range(most))
            for depth in depths + [most, most + 1]:
                assert store.holders(text, depth) == recount[:depth]
            levels = store.holders(text, most + 1)
            assert store.holders(text, most + 1) is levels  # made once, then kept

    def test_index_is_built_once_on_first_read(self, monkeypatch):
        # a search and a retrieval over one store build its postings once
        built = []
        postings = PatternStore._postings.func

        def counting(store):
            built.append(store)
            return postings(store)

        index = cached_property(counting)
        index.__set_name__(PatternStore, "_postings")
        monkeypatch.setattr(PatternStore, "_postings", index)
        store = parse_grammar(KITTENS_GRAMMAR)
        assert built == []
        new = SPPattern("new", tuple("t h e c a t s".split()))
        build_alignments(new, store)
        retrieve(new, store, 3)
        assert store.alphabet == {t for p in store for t in p.symbols}
        assert built == [store]

    def test_holders_grow_with_the_postings(self):
        """One pattern holding a text n times gives n levels, made in time
        linear in the text's postings, not in n times its holders."""
        n = 20_000
        store = parse_grammar("".join(f"PATTERN p{i}: a\n" for i in range(n))
                              + "PATTERN deep: " + " a" * n + "\n")
        start = time.perf_counter()
        levels = store.holders("a", n + 1)
        elapsed = time.perf_counter() - start
        assert len(levels) == n
        assert levels[0] == tuple(f"p{i}" for i in range(n)) + ("deep",)
        assert all(level == ("deep",) for level in levels[1:])
        assert elapsed < 1.0

    def test_holders_make_only_the_levels_asked_for(self):
        """A request for level 0 filters no deeper level, though a pattern
        holds the text many times; a deeper request makes only the levels
        up to its depth, and the counts go once the deepest is made."""
        store = PatternStore([SPPattern("p", ("a",) * 5), SPPattern("q", ("a", "b"))])
        assert store.holders("a", 1) == (("p", "q"),)
        assert len(store._holders["a"]) == 1
        assert store.holders("a", 3) == (("p", "q"), ("p",), ("p",))
        assert len(store._holders["a"]) == 3 and "a" in store._counts
        assert store.holders("a", 9) == (("p", "q"),) + (("p",),) * 4
        assert "a" not in store._counts
        # a text no pattern holds twice keeps no counts at all
        assert store.holders("b", 2) == (("q",),) and "b" not in store._counts


def copies_grammar(tmp_path, n=20_000):
    """A grammar of n one-symbol patterns ``a`` and one pattern of n ``a``s,
    all of frequency 1."""
    grammar = tmp_path / "copies.grammar"
    grammar.write_text("".join(f"PATTERN p{i}: a\n" for i in range(n))
                       + "PATTERN deep: " + " a" * n + "\n")
    return grammar


class TestGrammarFile:
    def test_basic(self):
        store = parse_grammar("PATTERN p1 2: a b c\n# comment\n\nPATTERN p2: d\n")
        assert store.get("p1").frequency == 2
        assert store.get("p2").frequency == 1
        assert store.alphabet == {"a", "b", "c", "d"}

    def test_store_keeps_file_order(self):
        store = parse_grammar("PATTERN w2: a b\nPATTERN w10: c\nPATTERN w1 3: a\n")
        assert store.ids() == ["w2", "w10", "w1"]
        assert [p.id for p in store] == ["w2", "w10", "w1"]
        given = [store.get("w10"), store.get("w2"), store.get("w1")]
        assert list(PatternStore(given)) == given

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

    def test_frequency_past_the_int_digit_limit_cites_its_line(self):
        # int() reads at most 4,300 digits by default; its error named no line
        text = "PATTERN b 1: y z\nPATTERN a 1" + "0" * 5000 + ": x y\n"
        with pytest.raises(InputFormatError) as caught:
            parse_grammar(text)
        assert str(caught.value) == "line 2: bad frequency of 5001 digits: too long"

    def test_leading_zeros_are_digits(self):
        assert parse_grammar("PATTERN x 007: a").get("x").frequency == 7

    @given(grammars())
    def test_equals_plain_reference(self, grammar):
        """The lazy store a grammar loads into reads as the eager store of
        the same patterns, in every view, in the same order."""
        text, lines = grammar
        reference = PatternStore(
            SPPattern(pid, tuple(body.split()), freq or 1)
            for pid, freq, body in lines)
        store = parse_grammar(text)
        assert store.ids() == reference.ids()
        assert len(store) == len(reference)
        assert store.alphabet == reference.alphabet
        assert store.total_frequency == reference.total_frequency
        assert list(store.codes.items()) == list(reference.codes.items())
        for pid in reference.ids():
            assert store.get(pid) == reference.get(pid)
        assert list(store) == list(reference)
        for t in reference.alphabet | {"absent"}:
            depth = max([len(p) for p in reference], default=0)
            assert store.holders(t, depth) == reference.holders(t, depth)

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
    """The texts passed to ``check_symbol`` and the ids of the patterns
    that the ``patterns`` module makes while the test runs."""
    made = {"patterns": [], "symbols": []}

    def counting_check(text):
        made["symbols"].append(text)
        return check_symbol(text)

    class CountingPattern(SPPattern):
        __slots__ = ()

        def __post_init__(self):
            made["patterns"].append(self.id)
            SPPattern.__post_init__(self)

    # every module that calls the rule on one text
    for module in (patterns, schema, machines):
        monkeypatch.setattr(module, "check_symbol", counting_check)
    monkeypatch.setattr(patterns, "SPPattern", CountingPattern)
    return made


class TestOneRulePerText:
    """A reader checks only the texts that the record it builds does not,
    and a record checks a batch of texts with ``check_texts``, which passes
    none of them to ``check_symbol`` when all are symbols.  So on valid
    input no text reaches ``check_symbol``: a stream checks its literals
    in one batch; ``parse_grammar`` and ``tokenize``, whose tokens are
    symbols by construction, check nothing."""

    @pytest.mark.parametrize("read, text, checked", [
        (parse_table, "in:a\tin:b\tout:c\n1\t1\t0\n1\t0\t1\n0\t1\t1\n0\t0\t0\n", []),
        (stream_from_json, '{"dictionary": [{"code": "w1", "symbols": ["a", "b", "a"],'
         ' "count": 2}], "stream": [{"code": "w1"}, {"lit": "c"}, {"lit": "a"},'
         ' {"lit": "c"}]}', []),
        (runs_from_json, '{"runs": [{"symbols": ["x", "y"], "count": 2},'
         ' {"symbols": ["y"], "count": "*"}, {"symbols": ["x", "z", "x"], "count": 1}]}', []),
        (parse_hierarchy, "CLASS a : attrs=fur,warm\n"
         "CLASS b : attrs=warm,tail,fur parents=a\nCLASS c : attrs=tail parents=b\n", []),
    ], ids=["table", "stream", "runs", "hierarchy"])
    def test_only_literals_reach_the_rule(self, made, read, text, checked):
        read(text)
        assert made["symbols"] == checked

    @pytest.mark.parametrize("read, text", [
        (parse_grammar, KITTENS_GRAMMAR),
        (tokenize, "a b a  c\tb a"),
    ], ids=["grammar", "tokenize"])
    def test_split_text_is_not_checked(self, monkeypatch, made, read, text):
        batches = []

        def counting_batch(texts):
            batches.append(tuple(texts))
            return check_texts(texts)

        monkeypatch.setattr(patterns, "check_texts", counting_batch)
        read(text)
        assert made == {"patterns": [], "symbols": []}
        assert batches == []


class TestLazyStore:
    """A loaded grammar makes a pattern only when the pattern is first
    read, and checks none of its symbols."""

    def test_loading_makes_nothing_and_each_get_one_pattern(self, made):
        store = parse_grammar(KITTENS_GRAMMAR)
        assert store.codes and store.holders("Nr", 1) and store.holders("k", 2)
        assert made == {"patterns": [], "symbols": []}
        for k, pid in enumerate(["p4", "p1", "p2"], start=1):
            first = store.get(pid)
            assert store.get(pid) is first
            assert made["patterns"] == ["p4", "p1", "p2"][:k]
        assert made["symbols"] == []

    def test_symbols_make_no_pattern(self, made):
        given = [SPPattern.from_text("a", "x y x"), SPPattern.from_text("b", "y", frequency=2)]
        for store in (parse_grammar(KITTENS_GRAMMAR), PatternStore(given)):
            read = {pid: store.symbols(pid) for pid in store.ids()}
            assert made["patterns"] == []
            assert read == {pid: store.get(pid).symbols for pid in store.ids()}
            made["patterns"].clear()
        with pytest.raises(UnknownPattern):
            store.symbols("zzz")

    @given(grammars())
    def test_symbols_split_the_line(self, grammar):
        # irregular spacing in a line's text is not part of its symbols
        text, lines = grammar
        store = parse_grammar(text)
        for pid, _, body in lines:
            assert store.symbols(pid) == tuple(body.split())
            assert store.symbols(pid) == store.get(pid).symbols

    def test_retrieve_makes_and_walks_only_survivors(self, made, tmp_path, capsys):
        """20,000 one-symbol copies and one pattern of 20,000 copies: every
        candidate's bound ties, so the rank key decides.  Once the k + 1
        places are full, the next id ranks below them all, so the search
        scores only the k it keeps and makes and walks only those."""
        calls = []
        with counting_merges(calls):
            assert main(["retrieve", str(copies_grammar(tmp_path)), "--query", "a b",
                         "--top", "3"]) == 0
        assert capsys.readouterr().out == "deep\t-13.288\np0\t-13.288\np1\t-13.288\n"
        assert len(made["patterns"]) <= 4
        # 3 scorings by length, and the walks of those 3
        assert [kernel for kernel, _ in calls] == ["lcs_length"] * 3 + ["match_pairs"] * 3

    def test_align_scores_only_what_can_stay(self, tmp_path, capsys):
        """The same copies: round one scores the 2 that fill the beam of 3
        with the literal alignment, and round two none, since every second
        row only adds its code; the 2 kept are walked."""
        calls = []
        with counting_merges(calls):
            assert main(["align", str(copies_grammar(tmp_path)), "--new", "a b",
                         "--beam", "3", "--max-rows", "2"]) == 0
        headers = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("alignment=")]
        assert headers == ["alignment=1 cd=0.000 p=1.000 rows=(none) hits=0",
                           "alignment=2 cd=-13.288 p=0.000 rows=deep hits=1",
                           "alignment=3 cd=-13.288 p=0.000 rows=p0 hits=1"]
        assert [kernel for kernel, _ in calls] == ["lcs_length"] * 2 + ["match_pairs"] * 2

    def test_given_patterns_are_returned(self):
        given = [SPPattern.from_text("a", "x y"), SPPattern.from_text("b", "y")]
        store = PatternStore(given)
        assert all(store.get(p.id) is p for p in given)
