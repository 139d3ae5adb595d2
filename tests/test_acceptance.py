"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.
"""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

import alignment_oracle as oracle
from conftest import KITTENS_GRAMMAR, KITTENS_SENTENCE, pair_alignment
from icmup import (SPPattern,
                   Schema, Slot, FixedSymbol, alignment_probabilities,
                   build_alignments,
                   chunk_decode, chunk_encode, compile_truth_table,
                   discover_chunks, eval_circuit, eval_table,
                   multiset_to_set, parse_grammar, parse_peano,
                   positional_to_unary, raw_cost, rle_decode, rle_encode,
                   schema_encode, schema_instantiate, set_intersection,
                   set_union, to_peano, tokenize, tm_run, unary_add,
                   unary_divide, unary_multiply, unary_power,
                   unary_subtract, unary_successor_machine, unary_to_positional,
                   UnaryNumber, adder_nand_circuit, xor_nand_circuit)
from icmup.cli import main
from icmup.codecs import encoded_cost_bits
from icmup.errors import DivisionByZero, Indeterminate, TooLarge, Underflow
from icmup.machines import Gate, NandCircuit, score_rows
from icmup.setnum import parse_unary

from test_machines import random_circuit


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL - {description}")
        raise
    print(f"[criterion {number:02d}] PASS - {description}")


def syms(*texts):
    return list(texts)


# ---------------------------------------------------------------------------
# 1. falling-body table, exact at one decimal, under a second

FALL_TABLE = [(0, 0.0), (1, 4.9), (2, 19.6), (3, 44.1), (4, 78.5),
              (5, 122.6), (6, 176.5), (7, 240.3), (8, 313.8), (9, 397.2),
              (10, 490.3), (11, 593.3), (12, 706.1), (13, 828.7),
              (14, 961.1), (15, 1103.2), (16, 1255.3)]


def test_criterion_01_falling_body_table(capsys):
    with criterion(1, "newton --g 9.80665 --tmax 16 reproduces all 17 rows"):
        start = time.perf_counter()
        code = main(["newton", "--g", "9.80665", "--tmax", "16"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0
        rows = [line.split("\t") for line in out.splitlines()[:17]]
        assert [(int(t), float(s)) for t, s in rows] == FALL_TABLE
        assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. one-bit adder and XOR tables, exact, with the expected row selections

def test_criterion_02_adder_and_xor_tables(adder_table, xor_table):
    with criterion(2, "adder and XOR tables reproduce every row; "
                      "(1,0) selects rows 2 and 3"):
        expected_adder = {("1", "1"): ("0", "1"), ("1", "0"): ("1", "0"),
                          ("0", "1"): ("1", "0"), ("0", "0"): ("0", "0")}
        for (a, b), outs in expected_adder.items():
            assert eval_table(adder_table, syms(a, b)) == outs
        expected_xor = {("1", "1"): "0", ("0", "1"): "1",
                        ("1", "0"): "1", ("0", "0"): "0"}
        for (a, b), out in expected_xor.items():
            assert eval_table(xor_table, syms(a, b))[0] == out
        assert score_rows(adder_table, syms("1", "0")).best_row + 1 == 2
        assert score_rows(xor_table, syms("1", "0")).best_row + 1 == 3


# ---------------------------------------------------------------------------
# 3. NAND-only constructions compile to the same tables; circuit/table
#    agreement is exhaustive for every test circuit up to 6 inputs

def test_criterion_03_nand_generality(adder_table, xor_table):
    with criterion(3, "NAND-only XOR and adder equal their tables; "
                      "compiled tables agree with direct evaluation"):
        assert sorted(compile_truth_table(xor_nand_circuit()).rows) == \
            sorted(xor_table.rows)
        assert sorted(compile_truth_table(adder_nand_circuit()).rows) == \
            sorted(adder_table.rows)
        rng = random.Random(42)
        circuits = [xor_nand_circuit(), adder_nand_circuit(),
                    NandCircuit(("a",), (Gate("g", "a", "a"),), ("g",))]
        circuits += [random_circuit(rng, max_inputs=6) for _ in range(25)]
        for circ in circuits:
            assert len(circ.inputs) <= 6
            table = compile_truth_table(circ)
            assert len(table.rows) == 2 ** len(circ.inputs)
            for row_inputs, _ in table.rows:
                direct = eval_circuit(circ, dict(zip(circ.inputs, row_inputs)))
                via = eval_table(table, list(row_inputs))
                assert [direct[o] for o in circ.outputs] == list(via)


# ---------------------------------------------------------------------------
# 4. the printed transition table increments a block of ones

def test_criterion_04_tape_machine_increment():
    with criterion(4, "transition table takes n ones to n+1 ones, "
                      "n=2 in exactly 8 lookups"):
        machine = unary_successor_machine()
        for n in range(1, 11):
            tape = {i: 1 for i in range(1, n + 1)}
            tape[0] = 0
            tape[n + 1] = 0
            result = tm_run(machine, tape, 1, "s0", 10000)
            assert result.halted and result.state.state == "s2"
            assert [result.state.read(i) for i in range(n + 3)] == \
                [0] + [1] * (n + 1) + [0]
            if n == 2:
                assert result.attempts == 8
                assert result.state.steps == 7
                assert result.state.head == 1
                assert [result.state.read(i) for i in range(5)] == [0, 1, 1, 1, 0]


# ---------------------------------------------------------------------------
# 5. multiset and set instances, exact

def test_criterion_05_set_instances():
    with criterion(5, "multiset and union/intersection instances match exactly"):
        multiset = tokenize("a b a c b b c a c")
        assert list(multiset_to_set(multiset)) == ["a", "b", "c"]
        a, b = tokenize("b f d a c e"), tokenize("e g i f d h")
        assert list(set_union(a, b)) == [
            "a", "b", "c", "d", "e", "f", "g", "h", "i"]
        assert list(set_intersection(a, b)) == ["d", "e", "f"]


# ---------------------------------------------------------------------------
# 6. chunking-with-codes on a two-instance corpus

def test_criterion_06_chunking_with_codes():
    with criterion(6, "repeated word discovered, coded once per instance, "
                      "lossless, cheaper than raw"):
        corpus = tokenize("abcdefghijINFORMATIONklmnopqrstINFORMATIONuvwxyz",
                          "chars")
        assert sum(1 for s in corpus if s.isupper()) == 22
        assert sum(1 for s in corpus if s.islower()) >= 20
        dictionary = discover_chunks(corpus, 2, 2)
        assert [(e.id, "".join(e.symbols), e.frequency) for e in dictionary] \
            == [("w1", "INFORMATION", 2)]
        stream = chunk_encode(corpus, dictionary)
        refs = [t for t in stream.tokens if not isinstance(t, str)]
        assert refs == [dictionary.get("w1")] * 2
        assert chunk_decode(stream) == list(corpus)
        alphabet = len(set(corpus))
        assert encoded_cost_bits(stream, alphabet) < raw_cost(corpus, alphabet)


# ---------------------------------------------------------------------------
# 7. alignment coverage, pairwise optimality against an oracle, probabilities

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


def test_criterion_07_alignment():
    with criterion(7, "sentence fully covered with positive CD; 500 pairwise "
                      "hit counts equal the LCS oracle; probabilities sum to 1"):
        start = time.perf_counter()
        store = parse_grammar(KITTENS_GRAMMAR)
        new = SPPattern.from_text("new", KITTENS_SENTENCE)
        ranking = build_alignments(new, store, beam=50, max_old_rows=12)
        best = ranking[0]
        assert oracle.new_hit_positions(best) == set(range(14))
        assert best.compression_difference > 0
        assert sum(alignment_probabilities(ranking)) == pytest.approx(1.0, abs=1e-9)

        rng = random.Random(2025)
        alphabet = "ACGTwxyz#NVr0"
        pairs = []
        for _ in range(500):
            xs = [rng.choice(alphabet) for _ in range(rng.randrange(1, 41))]
            ys = [rng.choice(alphabet) for _ in range(rng.randrange(1, 41))]
            pairs.append((xs, ys))
        hit_counts = []
        for xs, ys in pairs:
            a = SPPattern("a", tuple(xs))
            b = SPPattern("b", tuple(ys))
            hit_counts.append(pair_alignment(a, b).hit_count())
        elapsed = time.perf_counter() - start
        for (xs, ys), hits in zip(pairs, hit_counts):
            assert hits == lcs_oracle(xs, ys)
        assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 8. arithmetic trace laws over 0..50 against the integer oracle

def test_criterion_08_trace_laws():
    with criterion(8, "trace counts match the repetition laws and results "
                      "match integer arithmetic for 0..50"):
        r, t = unary_add(UnaryNumber(3), UnaryNumber(7))
        assert r.count == 10 and t.step_count == 7
        r, t = unary_multiply(UnaryNumber(3), UnaryNumber(10))
        assert r.count == 30 and t.step_count == 10
        q, rem, t = unary_divide(UnaryNumber(12), UnaryNumber(3))
        assert (q.count, rem.count, t.step_count) == (4, 0, 4)

        for a in range(51):
            for b in range(51):
                ua, ub = UnaryNumber(a), UnaryNumber(b)
                r, t = unary_add(ua, ub)
                assert r.count == a + b and t.step_count == b
                r, t = unary_multiply(ua, ub)
                assert r.count == a * b and t.step_count == b
                assert all(len(s.substeps) == a for s in t.steps)
                if a >= b:
                    r, t = unary_subtract(ua, ub)
                    assert r.count == a - b and t.step_count == b
                else:
                    with pytest.raises(Underflow):
                        unary_subtract(ua, ub)
                if b >= 1:
                    q, rem, t = unary_divide(ua, ub)
                    assert (q.count, rem.count) == (a // b, a % b)
                    assert t.step_count == a // b
                else:
                    with pytest.raises(DivisionByZero):
                        unary_divide(ua, ub)
        for a in range(51):
            for k in range(51):
                if a == 0 and k == 0:
                    with pytest.raises(Indeterminate):
                        unary_power(UnaryNumber(a), k)
                    continue
                if a > 0 and a ** k > 10 ** 6:
                    with pytest.raises(TooLarge):
                        unary_power(UnaryNumber(a), k)
                    continue
                r, t = unary_power(UnaryNumber(a), k)
                assert r.count == a ** k
                assert t.step_count == k


# ---------------------------------------------------------------------------
# 9. codec round trips, at least a thousand random cases each

def test_criterion_09_round_trips():
    with criterion(9, "chunk, run-length, schema, positional, and successor "
                      "codecs round-trip on 1000 random cases each"):
        rng = random.Random(777)

        for _ in range(1000):
            corpus = [rng.choice("abcd")
                      for _ in range(rng.randrange(0, 45))]
            stream = chunk_encode(corpus, discover_chunks(corpus, 2, 2))
            assert chunk_decode(stream) == corpus

        for _ in range(1000):
            corpus = [rng.choice("abc")
                      for _ in range(rng.randrange(0, 50))]
            assert rle_decode(rle_encode(corpus)) == corpus

        pools = ["ab", "cd", "ef", "gh"]
        for _ in range(1000):
            elements = []
            corrections = {}
            for k in range(rng.randint(1, 4)):
                bodies = set()
                fillers = []
                for fi in range(rng.randint(1, 4)):
                    body = tuple(rng.choice(pools[k])
                                 for _ in range(rng.randint(1, 3)))
                    if body in bodies:
                        continue
                    bodies.add(body)
                    code = f"s{k}f{fi}"
                    fillers.append(
                        (code, SPPattern(code, tuple(body))))
                elements.append(Slot(f"slot{k}", tuple(fillers)))
                corrections[f"slot{k}"] = rng.choice([c for c, _ in fillers])
                if rng.random() < 0.5:
                    elements.append(FixedSymbol(rng.choice("XYZ")))
            schema = Schema("R", tuple(elements))
            inst = schema_instantiate(schema, corrections)
            assert schema_encode(inst, schema) == corrections

        for _ in range(1000):
            n = rng.randrange(0, 10 ** 6 + 1)
            base = rng.randrange(2, 37)
            digits = unary_to_positional(UnaryNumber(n), base)
            assert positional_to_unary(digits, base).count == n
            small = rng.randrange(0, 2000)
            assert parse_unary(UnaryNumber(small).render()).count == small

        for _ in range(1000):
            n = rng.randrange(0, 10 ** 4 + 1)
            assert parse_peano(to_peano(n).render()).depth == n


# ---------------------------------------------------------------------------
# 10. hierarchy description lengths against a brute-force counter

def test_criterion_10_hierarchy_dl():
    with criterion(10, "hierarchical DL never exceeds flat when two or more "
                       "leaves inherit two or more attributes through a "
                       "common ancestor (all inheritance trees up to 5 nodes)"):
        from icmup import ClassNode, Hierarchy, description_length
        from icmup.hierarchy import required_alphabet
        from icmup.patterns import symbol_cost_bits

        # single-parent hierarchies: with cross-classification a link to a
        # contentless extra ancestor costs a symbol and brings nothing, so
        # no savings claim can hold over arbitrary multi-parent structures
        popcount = [bin(x).count("1") for x in range(4)]
        attr_symbols = ("x", "y")
        checked = satisfied = 0
        for n in range(1, 6):
            validate_against_impl = n <= 4
            for parents in itertools.product(
                    *[[None] + list(range(i)) for i in range(n)]):
                ancestors = []
                for i, p in enumerate(parents):
                    ancestors.append(0 if p is None else (1 << p) | ancestors[p])
                is_parent = 0
                for p in parents:
                    if p is not None:
                        is_parent |= 1 << p
                leaves = [i for i in range(n) if not is_parent >> i & 1]
                n_links = sum(1 for p in parents if p is not None)
                for attrs in itertools.product(range(4), repeat=n):
                    resolved = []
                    for i in range(n):
                        r = attrs[i]
                        anc = ancestors[i]
                        for j in range(n):
                            if anc >> j & 1:
                                r |= attrs[j]
                        resolved.append(r)
                    flat_count = n + sum(popcount[r] for r in resolved)
                    hier_count = n + sum(popcount[a] for a in attrs) + n_links
                    condition = False
                    for a_idx in range(n):
                        if popcount[resolved[a_idx]] < 2:
                            continue
                        inheritors = sum(
                            1 for ell in leaves
                            if ancestors[ell] >> a_idx & 1
                            and popcount[resolved[a_idx] & ~attrs[ell] & 3] >= 2)
                        if inheritors >= 2:
                            condition = True
                            break
                    checked += 1
                    if condition:
                        satisfied += 1
                        assert hier_count <= flat_count, (
                            parents, attrs, flat_count, hier_count)
                    if validate_against_impl:
                        nodes = [ClassNode(
                            f"n{i}",
                            frozenset(s for k, s in enumerate(attr_symbols)
                                      if attrs[i] >> k & 1),
                            frozenset() if parents[i] is None
                            else frozenset({f"n{parents[i]}"}))
                            for i in range(n)]
                        h = Hierarchy(nodes)
                        size = max(len(required_alphabet(h)), 1)
                        per = symbol_cost_bits(size)
                        assert description_length(h, "flat", size) == \
                            pytest.approx(flat_count * per)
                        assert description_length(h, "hierarchical", size) == \
                            pytest.approx(hier_count * per)
        assert checked > 100_000
        assert satisfied > 500
