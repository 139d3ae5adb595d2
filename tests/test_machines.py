import pickle
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from icmup import (HALTED, NAND_TABLE, FunctionTable, Gate, NandCircuit,
                   TapeState, TuringMachine, adder_nand_circuit,
                   compile_truth_table, eval_circuit, eval_table, parse_table,
                   parse_tm, tm_run, tm_step, unary_successor_machine,
                   xor_nand_circuit)
from icmup.errors import (ArityMismatch, InputFormatError, MissingInput,
                          NoMatch, TooLarge)
from icmup.machines import TM_ACTIONS, TMRow, _select, parse_circuit, score_rows


def syms(*texts):
    return list(texts)


class TestEvalTable:
    def test_adder_one_zero_selects_second_row(self, adder_table):
        assert list(eval_table(adder_table, syms("1", "0"))) == ["1", "0"]
        selection = score_rows(adder_table, syms("1", "0"))
        assert selection.best_row == 1  # second row
        assert selection.match_counts == (1, 2, 0, 1)

    def test_adder_carry(self, adder_table):
        assert list(eval_table(adder_table, syms("1", "1"))) == ["0", "1"]

    def test_xor_selects_third_row(self, xor_table):
        assert eval_table(xor_table, syms("1", "0"))[0] == "1"
        assert score_rows(xor_table, syms("1", "0")).best_row == 2

    def test_out_of_domain_symbol(self, adder_table):
        with pytest.raises(NoMatch):
            eval_table(adder_table, syms("2", "0"))

    def test_partial_match_never_answers(self, adder_table):
        selection = score_rows(adder_table, syms("1", "2"))
        assert not selection.full_match
        assert max(selection.match_counts) == 1
        with pytest.raises(NoMatch):
            eval_table(adder_table, syms("1", "2"))

    def test_arity_check(self, adder_table):
        with pytest.raises(ArityMismatch):
            eval_table(adder_table, syms("1"))

    def test_selection_needs_a_unique_maximum(self):
        # the rule itself: two complete rows tie, so neither answers
        tie = _select([("1", "0"), ("1", "0"), ("0", "0")], ("1", "0"))
        assert tie.match_counts == (2, 2, 1)
        assert tie.best_row == 0 and not tie.full_match
        assert _select([("1", "0"), ("0", "0")], ("1", "0")).full_match
        assert _select([], ("1",)).best_row is None

    @pytest.mark.parametrize("row, side", [((("1", "0"), ("0",)), "input"),
                                           ((("1",), ("0", "1")), "output")])
    def test_row_arity_must_match_the_columns(self, row, side):
        with pytest.raises(ValueError, match=f"row {side} arity mismatch"):
            FunctionTable("t", ("a",), ("o",), (row,))

    def test_duplicate_inputs_rejected(self):
        row = (("1",), ("0",))
        with pytest.raises(ValueError):
            FunctionTable("t", ("a",), ("o",), (row, row))

    @pytest.mark.parametrize("row", [(("x y",), ("",)), (("1",), ("",)),
                                     (("1",), (0,))])
    def test_cells_are_symbols(self, row):
        with pytest.raises((TypeError, ValueError), match="symbol text"):
            FunctionTable("t", ("a",), ("o",), (row,))


class TestCircuits:
    def test_single_nand(self):
        circuit = NandCircuit(("a", "b"), (Gate("g", "a", "b"),), ("g",))
        assert eval_circuit(circuit, {"a": 1, "b": 1}) == {"g": "0"}
        assert eval_circuit(circuit, {"a": 0, "b": 1}) == {"g": "1"}

    def test_xor_construction_matches_table(self, xor_table):
        circuit = xor_nand_circuit()
        for a in "01":
            for b in "01":
                expected = eval_table(xor_table, syms(a, b))[0]
                assert eval_circuit(circuit, {"a": a, "b": b})["g4"] == expected

    def test_adder_construction_matches_table(self, adder_table):
        circuit = adder_nand_circuit()
        for a in "01":
            for b in "01":
                expected = list(eval_table(adder_table, syms(a, b)))
                result = eval_circuit(circuit, {"a": a, "b": b})
                assert [result["g4"], result["g5"]] == expected

    def test_missing_input(self):
        with pytest.raises(MissingInput):
            eval_circuit(xor_nand_circuit(), {"a": 1})

    def test_undefined_source_rejected(self):
        with pytest.raises(ValueError):
            NandCircuit(("a",), (Gate("g", "a", "zzz"),), ("g",))


class TestCompile:
    def test_single_nand_gives_nand_table(self):
        circuit = NandCircuit(("a", "b"), (Gate("g", "a", "b"),), ("g",))
        table = compile_truth_table(circuit)
        assert table.rows == NAND_TABLE.rows

    def test_xor_rows_match_normalised(self, xor_table):
        table = compile_truth_table(xor_nand_circuit())
        assert sorted(table.rows) == sorted(xor_table.rows)

    def test_adder_rows_exact(self, adder_table):
        # descending enumeration matches the printed row order directly
        assert compile_truth_table(adder_nand_circuit()).rows == adder_table.rows

    def test_passthrough_identity(self):
        circuit = NandCircuit(("a",), (), ("a",))
        table = compile_truth_table(circuit)
        assert [(i[0], o[0]) for i, o in table.rows] == [
            ("1", "1"), ("0", "0")]

    def test_too_many_inputs(self):
        names = tuple(f"i{k}" for k in range(17))
        circuit = NandCircuit(names, (Gate("g", "i0", "i1"),), ("g",))
        with pytest.raises(TooLarge):
            compile_truth_table(circuit)

    def test_agreement_exhaustive_random_circuits(self):
        rng = random.Random(1234)
        for _ in range(30):
            circuit = random_circuit(rng)
            table = compile_truth_table(circuit)
            for row_inputs, row_outputs in table.rows:
                direct = eval_circuit(circuit, dict(zip(circuit.inputs, row_inputs)))
                via_table = eval_table(table, list(row_inputs))
                assert [direct[o] for o in circuit.outputs] == list(via_table)


def random_circuit(rng, max_inputs=6):
    n = rng.randint(1, max_inputs)
    inputs = tuple(f"t{k}" for k in range(n))
    available = list(inputs)
    gates = []
    for g in range(rng.randint(1, 6)):
        gid = f"g{g}"
        gates.append(Gate(gid, rng.choice(available), rng.choice(available)))
        available.append(gid)
    outputs = tuple(sorted({rng.choice([g.id for g in gates])
                            for _ in range(rng.randint(1, 3))}))
    return NandCircuit(inputs, tuple(gates), outputs)


class TestTapeMachine:
    def test_step_scan_right(self):
        machine = unary_successor_machine()
        state = TapeState({1: 1, 2: 1}, 1, "s0")
        nxt = tm_step(machine, state)
        assert nxt.state == "s0" and nxt.head == 2 and nxt.steps == 1
        assert nxt.read(1) == 1  # move does not write

    def test_step_write_keeps_head(self):
        machine = unary_successor_machine()
        nxt = tm_step(machine, TapeState({}, 3, "s0"))
        assert nxt.state == "s1" and nxt.head == 3 and nxt.read(3) == 1

    def test_missing_row_halts(self):
        machine = unary_successor_machine()
        assert tm_step(machine, TapeState({0: 1}, 0, "s2")) is HALTED

    def test_pickle_keeps_the_halted_marker(self):
        assert pickle.loads(pickle.dumps(HALTED)) is HALTED

    def test_hand_simulated_trajectory(self):
        # two ones, head on the leftmost: eight lookups, the last one halts
        machine = unary_successor_machine()
        state = TapeState({0: 0, 1: 1, 2: 1, 3: 0, 4: 0}, 1, "s0")
        expected = [
            ("s0", 2),  # scan right over the ones
            ("s0", 3),
            ("s1", 3),  # write the new one
            ("s1", 2),  # scan back left
            ("s1", 1),
            ("s1", 0),
            ("s2", 1),  # step right onto the block
        ]
        for attempt, (want_state, want_head) in enumerate(expected, start=1):
            state = tm_step(machine, state)
            assert state is not HALTED
            assert (state.state, state.head) == (want_state, want_head)
            assert state.steps == attempt
        assert tm_step(machine, state) is HALTED  # eighth lookup
        assert [state.read(i) for i in range(5)] == [0, 1, 1, 1, 0]

    def test_run_summary(self):
        machine = unary_successor_machine()
        result = tm_run(machine, {0: 0, 1: 1, 2: 1, 3: 0, 4: 0}, 1, "s0", 100)
        assert result.halted
        assert result.state.state == "s2"
        assert result.state.steps == 7
        assert result.attempts == 8
        assert result.state.head == 1

    def test_zero_steps_returns_initial(self):
        machine = unary_successor_machine()
        result = tm_run(machine, {0: 1}, 0, "s0", 0)
        assert not result.halted
        assert result.state.steps == 0

    def test_empty_machine_halts_immediately(self):
        result = tm_run(TuringMachine(()), {}, 0, "s0", 10)
        assert result.halted
        assert result.state.steps == 0

    @pytest.mark.parametrize("n", range(1, 11))
    def test_increments_a_block_of_ones(self, n):
        machine = unary_successor_machine()
        tape = {0: 0, n + 1: 0}
        tape.update({i: 1 for i in range(1, n + 1)})
        result = tm_run(machine, tape, 1, "s0", 10000)
        assert result.halted and result.state.state == "s2"
        final = [result.state.read(i) for i in range(0, n + 3)]
        assert final == [0] + [1] * (n + 1) + [0]
        assert result.state.steps == 2 * n + 3

    def test_long_run_is_linear(self):
        # one lookup and at most one cell write per step: no step copies the
        # tape, so 200,000 steps of this two-row walker stay linear
        machine = parse_tm("s0 0 -> s1 W1\ns1 1 -> s0 R\n")
        start = time.perf_counter()
        result = tm_run(machine, {}, 0, "s0", 200_000)
        assert time.perf_counter() - start < 5.0
        assert not result.halted and result.attempts == 200_000
        assert (result.state.state, result.state.head) == ("s0", 100_000)
        assert result.state.cells == dict.fromkeys(range(100_000), 1)

    def test_determinism(self):
        machine = unary_successor_machine()
        runs = [tm_run(machine, {1: 1, 2: 1}, 1, "s0", 50) for _ in range(2)]
        assert runs[0] == runs[1]

    @given(st.dictionaries(st.tuples(st.sampled_from(["a", "b", "c"]),
                                     st.sampled_from([0, 1])),
                           st.tuples(st.sampled_from(["a", "b", "h"]),
                                     st.sampled_from(TM_ACTIONS)), max_size=6),
           st.sampled_from(["a", "b", "c", "", "a b"]),
           st.dictionaries(st.integers(-2, 2), st.sampled_from([0, 1]), max_size=5),
           st.integers(-2, 2))
    def test_step_is_a_lookup_on_state_and_cell(self, table, start, cells, head):
        machine = TuringMachine(tuple(TMRow(s, r, nxt, act)
                                      for (s, r), (nxt, act) in table.items()))
        state = TapeState(dict(cells), head, start, steps=4)
        nxt = tm_step(machine, state)
        assert state == TapeState(dict(cells), head, start, steps=4)  # input unchanged
        key = (start, cells.get(head, 0))
        if key not in table:
            assert nxt is HALTED
            return
        next_state, action = table[key]
        want = dict(cells)
        if action in ("W0", "W1"):
            want[head] = int(action[1])
        moved = head + {"L": -1, "R": 1}.get(action, 0)
        assert nxt == TapeState(want, moved, next_state, steps=5)

    def test_duplicate_transition_rejected(self):
        with pytest.raises(ValueError):
            TuringMachine((TMRow("s0", 1, "s0", "R"), TMRow("s0", 1, "s1", "L")))


class TestFileFormats:
    def test_table_format(self, adder_table):
        text = ("in:a\tin:b\tout:sum\tout:carry\n"
                "1\t1\t0\t1\n1\t0\t1\t0\n0\t1\t1\t0\n0\t0\t0\t0\n")
        table = parse_table(text, "adder")
        assert table.rows == adder_table.rows
        assert table.input_cols == ("a", "b")

    @pytest.mark.parametrize("text", [
        "",
        "a\tb\n1\t0\n",
        "out:s\tin:a\n0\t0\n",
        "in:a\tout:s\n1\n",
        "in:a\tout:s\n1\t0\t\n",             # empty cell at the end
        "in:a\tin:b\tout:s\n\t1\t0\t1\n",   # empty cell at the start
    ])
    def test_bad_tables(self, text):
        with pytest.raises(InputFormatError):
            parse_table(text)

    @pytest.mark.parametrize("parse, text", [
        (parse_table, "# adder\nin:a\tin:b\tout:sum\tout:carry\n\n"
                      "1\t1\t0\t1\n1\t0\n"),
        (parse_tm, "# successor\ns0 1 -> s0 R\n\ns0 0 -> s1 W1\ns1 1 s1 L\n"),
        (parse_circuit, "# xor\ninput a\n\ninput b\nwire a b\n"),
    ])
    def test_errors_cite_file_lines(self, parse, text):
        # blank and comment lines still count: the bad line is line 5
        with pytest.raises(InputFormatError, match="line 5"):
            parse(text)

    def test_tm_format(self):
        text = ("# successor\n"
                "s0 1 -> s0 R\ns0 0 -> s1 W1\ns1 1 -> s1 L\ns1 0 -> s2 R\n")
        assert parse_tm(text).rows == unary_successor_machine().rows

    @pytest.mark.parametrize("text", [
        "s0 1 s0 R", "s0 2 -> s0 R", "s0 1 -> s0 UP", "s0 -> s0 R"])
    def test_bad_tm_lines(self, text):
        with pytest.raises(InputFormatError):
            parse_tm(text)

    def test_circuit_format(self):
        text = ("input a\ninput b\n"
                "gate g1 a b\ngate g2 a g1\ngate g3 b g1\ngate g4 g2 g3\n"
                "output g4\n")
        circuit = parse_circuit(text)
        assert circuit == xor_nand_circuit()

    def test_bad_circuit_line(self):
        with pytest.raises(InputFormatError):
            parse_circuit("wire a b\n")
