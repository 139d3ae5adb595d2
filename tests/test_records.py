"""The package's value records: equality, hashing, repr, immutability and
pickling, pinned field by field so that how a record is declared may change
while what it does stays."""

import json
import pickle

import pytest

from conftest import KITTENS_GRAMMAR, KITTENS_SENTENCE, fresh_python
from icmup import (EncodedStream, FixedSymbol, PatternStore, SPPattern, Schema, Slot,
                   UNBOUNDED)
from icmup.alignment import Alignment, Column
from icmup.codecs import Runs
from icmup.errors import TooLarge
from icmup.hierarchy import ClassNode
from icmup.machines import (FunctionTable, Gate, NandCircuit, RowSelection, TMRow,
                            TMRunResult, TapeState, TuringMachine)
from icmup.reporting import RunReport
from icmup.setnum import (UNARY_CAP, BaseReport, FallReport, FallRow, OperationTrace,
                          PeanoNumeral, TraceStep, UnaryNumber)

FILLER = SPPattern("a", ("p",))
SLOT = Slot("X", (("a", FILLER),))
COLUMNS = (Column("a", ((0, 0),)), Column("b", ((0, 1), (1, 0))))
ROW = (("1",), ("0",))
GATE = Gate("g1", "a", "b")
TM_ROW = TMRow("s0", 1, "s1", "R")
TRANSFER = TraceStep("transfer", "move one unary digit")

# record, an equal record made apart from it, a record of the same type
# that differs in one field, and the exact repr
CASES = {
    "SPPattern": (SPPattern("p", ("a", "b"), 2), SPPattern("p", ["a", "b"], 2),
                  SPPattern("p", ("a", "b")),
                  "SPPattern(id='p', symbols=('a', 'b'), frequency=2)"),
    "Runs": (Runs((("a", "b"), ("c",)), (3, 1)), Runs((("a", "b"), ("c",)), (3, 1)),
             Runs((("a", "b"), ("c",)), (3, UNBOUNDED)),
             "Runs(blocks=(('a', 'b'), ('c',)), counts=(3, 1))"),
    "FixedSymbol": (FixedSymbol("k"), FixedSymbol("k"), FixedSymbol("q"),
                    "FixedSymbol(symbol='k')"),
    "Slot": (SLOT, Slot("X", (("a", SPPattern("a", ("p",))),)),
             Slot("Y", (("a", FILLER),)),
             "Slot(name='X', fillers=(('a', SPPattern(id='a', symbols=('p',), "
             "frequency=1)),))"),
    "Schema": (Schema("S", (FixedSymbol("k"), SLOT)),
               Schema("S", (FixedSymbol("k"), SLOT)), Schema("S", (FixedSymbol("k"),)),
               "Schema(id='S', elements=(FixedSymbol(symbol='k'), Slot(name='X', "
               "fillers=(('a', SPPattern(id='a', symbols=('p',), frequency=1)),))))"),
    "Alignment": (Alignment(SPPattern("new", ("a", "b")), (SPPattern("o", ("b",)),),
                            COLUMNS, 0.0, 1, 2),
                  Alignment(SPPattern("new", ("a", "b")), (SPPattern("o", ("b",)),),
                            COLUMNS, 0.0, 1, 2),
                  Alignment(SPPattern("new", ("a", "b")), (SPPattern("o", ("b",)),),
                            COLUMNS, 0.5, 1, 2),
                  "Alignment(new_row=SPPattern(id='new', symbols=('a', 'b'), "
                  "frequency=1), old_rows=(SPPattern(id='o', symbols=('b',), "
                  "frequency=1),), columns=(Column(symbol='a', entries=((0, 0),)), "
                  "Column(symbol='b', entries=((0, 1), (1, 0)))), codes=0.0, "
                  "unmatched=1, alphabet_size=2, encoding_cost=1.0, "
                  "compression_difference=1.0)"),
    "FunctionTable": (FunctionTable("t", ("a",), ("x",), (ROW,)),
                      FunctionTable("t", ("a",), ("x",), ((("1",), ("0",)),)),
                      FunctionTable("u", ("a",), ("x",), (ROW,)),
                      "FunctionTable(name='t', input_cols=('a',), output_cols=('x',), "
                      "rows=((('1',), ('0',)),))"),
    "RowSelection": (RowSelection((2, 1), 0, True), RowSelection((2, 1), 0, True),
                     RowSelection((2, 1), 0, False),
                     "RowSelection(match_counts=(2, 1), best_row=0, full_match=True)"),
    "Gate": (GATE, Gate("g1", "a", "b"), Gate("g1", "a", "a"),
             "Gate(id='g1', source_a='a', source_b='b')"),
    "NandCircuit": (NandCircuit(("a", "b"), (GATE,), ("g1",)),
                    NandCircuit(("a", "b"), (Gate("g1", "a", "b"),), ("g1",)),
                    NandCircuit(("a", "b"), (GATE,), ("a",)),
                    "NandCircuit(inputs=('a', 'b'), gates=(Gate(id='g1', source_a='a', "
                    "source_b='b'),), outputs=('g1',))"),
    "TMRow": (TM_ROW, TMRow("s0", 1, "s1", "R"), TMRow("s0", 1, "s1", "L"),
              "TMRow(state='s0', read=1, next_state='s1', action='R')"),
    "TuringMachine": (TuringMachine((TM_ROW,)), TuringMachine((TMRow("s0", 1, "s1", "R"),)),
                      TuringMachine(()),
                      "TuringMachine(rows=(TMRow(state='s0', read=1, next_state='s1', "
                      "action='R'),))"),
    "TapeState": (TapeState({0: 1}, 0, "s0", 2), TapeState({0: 1}, 0, "s0", 2),
                  TapeState({0: 1}, 0, "s0", 3),
                  "TapeState(cells={0: 1}, head=0, state='s0', steps=2)"),
    "TMRunResult": (TMRunResult(TapeState({0: 1}, 0, "s0", 2), True, 3),
                    TMRunResult(TapeState({0: 1}, 0, "s0", 2), True, 3),
                    TMRunResult(TapeState({0: 1}, 0, "s0", 2), False, 3),
                    "TMRunResult(state=TapeState(cells={0: 1}, head=0, state='s0', "
                    "steps=2), halted=True, attempts=3)"),
    "UnaryNumber": (UnaryNumber(3), UnaryNumber(3), UnaryNumber(4), "UnaryNumber(count=3)"),
    "TraceStep": (TraceStep("add-iteration", "add 2 to 0", (TRANSFER, TRANSFER)),
                  TraceStep("add-iteration", "add 2 to 0", (TRANSFER,) * 2),
                  TraceStep("add-iteration", "add 2 to 0", (TRANSFER,)),
                  "TraceStep(kind='add-iteration', detail='add 2 to 0', substeps=("
                  "TraceStep(kind='transfer', detail='move one unary digit', substeps=()), "
                  "TraceStep(kind='transfer', detail='move one unary digit', "
                  "substeps=())))"),
    "PeanoNumeral": (PeanoNumeral(2), PeanoNumeral(2), PeanoNumeral(0),
                     "PeanoNumeral(depth=2)"),
    "BaseReport": (BaseReport(5, 2, "101", 5, 3), BaseReport(5, 2, "101", 5, 3),
                   BaseReport(5, 3, "12", 5, 2),
                   "BaseReport(count=5, base=2, digits='101', unary_symbols=5, "
                   "positional_symbols=3)"),
    "FallRow": (FallRow(1, 4.9), FallRow(1, 4.9), FallRow(2, 19.6), "FallRow(t=1, s=4.9)"),
    "FallReport": (FallReport(9.8, (FallRow(0, 0.0), FallRow(1, 4.9)), 1.5, 2.0),
                   FallReport(9.8, (FallRow(0, 0.0), FallRow(1, 4.9)), 1.5, 2.0),
                   FallReport(9.8, (FallRow(0, 0.0),), 1.5, 2.0),
                   "FallReport(g=9.8, rows=(FallRow(t=0, s=0.0), FallRow(t=1, s=4.9)), "
                   "formula_bits=1.5, table_bits=2.0)"),
    "ClassNode": (ClassNode("cat", frozenset({"fur"}), frozenset({"mammal"}), ("tail",)),
                  ClassNode("cat", ["fur"], ["mammal"], ["tail"]),
                  ClassNode("cat", frozenset({"fur"}), frozenset({"mammal"})),
                  "ClassNode(name='cat', own_attributes=frozenset({'fur'}), "
                  "parents=frozenset({'mammal'}), parts=('tail',))"),
}

FIRST_FIELD = {"SPPattern": "id", "Runs": "blocks", "FixedSymbol": "symbol", "Slot": "name",
               "Schema": "id", "Alignment": "new_row", "FunctionTable": "name",
               "RowSelection": "match_counts", "Gate": "id", "NandCircuit": "inputs",
               "TMRow": "state", "TuringMachine": "rows", "TapeState": "cells",
               "TMRunResult": "state", "UnaryNumber": "count", "TraceStep": "kind",
               "PeanoNumeral": "depth", "BaseReport": "count", "FallRow": "t",
               "FallReport": "g", "ClassNode": "name"}

# records holding a dict: equal by field like the others, but not hashable
UNHASHABLE = {"TapeState", "TMRunResult"}


@pytest.mark.parametrize("name", CASES)
class TestFrozenRecords:
    def test_equal_fields_make_equal_records_with_equal_hashes(self, name):
        record, same, other, _ = CASES[name]
        assert record == same and not record != same
        assert record != other
        if name in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(record)
            return
        assert hash(record) == hash(same)
        assert len({record, same, other}) == 2

    def test_repr_is_pinned(self, name):
        record, _, _, text = CASES[name]
        assert repr(record) == text

    def test_fields_cannot_be_set_or_deleted(self, name):
        record = CASES[name][0]
        field = FIRST_FIELD[name]
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is value

    def test_pickle_round_trip(self, name):
        record = CASES[name][0]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            again = pickle.loads(pickle.dumps(record, protocol))
            assert type(again) is type(record)
            assert again == record and repr(again) == repr(record)
            if name not in UNHASHABLE:
                assert hash(again) == hash(record)


def test_a_code_token_is_not_a_literal():
    # the entry w1 and the literal text w1 are two tokens
    w1 = SPPattern("w1", ("a", "b"), 2)
    store = PatternStore([w1])
    code, literal = EncodedStream(store, (w1,)), EncodedStream(store, ("w1",))
    assert code != literal and literal != code
    assert len({code, literal}) == 2


def test_records_are_not_ordered():
    with pytest.raises(TypeError):
        FixedSymbol("a") < FixedSymbol("b")


def test_keywords_name_the_fields():
    assert SPPattern(id="p", symbols=("a",), frequency=2) == SPPattern("p", ("a",), 2)
    assert Runs(blocks=(("a",),), counts=(2,)) == Runs((("a",),), (2,))
    assert FixedSymbol(symbol="k") == FixedSymbol("k")
    assert Slot(name="X", fillers=SLOT.fillers) == SLOT
    assert Schema(id="S", elements=(SLOT,)) == Schema("S", (SLOT,))
    # the fields that have defaults
    assert TraceStep(kind="k", detail="d") == TraceStep("k", "d", ())
    assert TraceStep("k", "d").substeps == ()
    assert TapeState(cells={}, head=0, state="s") == TapeState({}, 0, "s", 0)
    assert TapeState({}, 0, "s").steps == 0
    bare = ClassNode("cat")
    assert (bare.own_attributes, bare.parents, bare.parts) == (frozenset(), frozenset(), ())
    # a class node keeps its attributes and parents as frozensets, its parts as a tuple
    node = ClassNode(name="cat", own_attributes=["fur"], parents=["mammal"],
                     parts=["tail", "paw"])
    assert node == ClassNode("cat", {"fur"}, {"mammal"}, ("tail", "paw"))
    assert (type(node.own_attributes), type(node.parents), node.parts) == (
        frozenset, frozenset, ("tail", "paw"))
    with pytest.raises(TypeError):
        SPPattern("p")
    with pytest.raises(TypeError):
        FixedSymbol("a", "b")


def test_an_alignment_works_out_its_costs_and_takes_no_cost_argument():
    al = CASES["Alignment"][0]
    assert (al.encoding_cost, al.compression_difference) == (1.0, 1.0)
    with pytest.raises(TypeError):
        Alignment(al.new_row, al.old_rows, al.columns, 0.0, 1, 2, 1.0)
    with pytest.raises(TypeError):
        Alignment(al.new_row, al.old_rows, al.columns, 0.0, 1, 2,
                  encoding_cost=1.0)


# Walks every package record class in a fresh process.  `built()` names the
# classes whose constructor has been compiled: it is then the function
# Record writes from the fields, from "<string>", and until then the builder.
RECORD_CLASSES = """\
import json, sys
from icmup.patterns import Record

def classes():
    pending, out = Record.__subclasses__(), []
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "_fields" in cls.__dict__ and cls.__module__.startswith("icmup."):
            out.append(cls)
    return sorted(out, key=lambda cls: cls.__qualname__)

def built():
    return [cls.__qualname__ for cls in classes()
            if cls.__init__.__code__.co_filename == "<string>"]
"""

# Imports icmup.cli, runs the command given, if any, and prints the records
# built after each step.
BUILT_BY_MAIN = RECORD_CLASSES + """\
import contextlib, io
import icmup.cli
after_import = built()
with contextlib.redirect_stdout(io.StringIO()):
    assert icmup.cli.main(sys.argv[1:]) == 0
print(json.dumps([after_import, built()]))
"""


@pytest.mark.parametrize("argv, made", [
    (["align", "{grammar}", "--new", KITTENS_SENTENCE], ["Alignment", "SPPattern"]),
    # setnum's shared trace steps are made when it is imported
    (["unary", "add", "2", "3"], ["TraceStep", "UnaryNumber"]),
], ids=["align", "unary"])
def test_a_cold_start_builds_only_the_constructors_it_calls(tmp_path, argv, made):
    grammar = tmp_path / "grammar.txt"
    grammar.write_text(KITTENS_GRAMMAR)
    argv = [arg.format(grammar=grammar) for arg in argv]
    after_import, after_command = json.loads(fresh_python("-c", BUILT_BY_MAIN, *argv))
    assert after_import == []
    assert after_command == made


# Imports every module, then calls each record with too many arguments, and
# prints the records built by the imports and, per class, the error and
# whether the class is built after the call.
FIRST_CALLS = RECORD_CLASSES + """\
import importlib
for name in ("alignment", "codecs", "hierarchy", "machines", "schema", "setnum"):
    importlib.import_module(f"icmup.{name}")
after_import = built()
report = {}
for cls in classes():
    try:
        cls(*range(50))
    except TypeError as exc:
        report[cls.__qualname__] = [str(exc), cls.__qualname__ in built()]
print(json.dumps([after_import, report]))
"""


def test_every_constructor_is_generated():
    # one way to make a record: Record writes each package record's
    # constructor from its fields and compiles it on the class's first
    # call, and none keeps a hand-written one
    after_import, report = json.loads(fresh_python("-c", FIRST_CALLS))
    # the only records made at import: machines.NAND_TABLE and the trace
    # steps setnum shares; every other class still holds the builder
    assert after_import == ["FunctionTable", "TraceStep"]
    assert len(report) == 22
    for name, (error, built) in report.items():
        assert built, name
        # the first call, with wrong arguments, raises the TypeError the
        # constructor gives, which names the class
        assert error.startswith(f"{name}.__init__() takes "), error
        assert error.endswith(" but 51 were given"), error


def test_an_encoded_stream_compares_its_store_by_identity():
    w1 = SPPattern("w1", ("a", "b"), 2)
    store = PatternStore([w1])
    tokens = (w1, "x")
    stream = EncodedStream(store, tokens)
    assert stream == EncodedStream(store, tokens)
    assert hash(stream) == hash(EncodedStream(store, tokens))
    assert stream != EncodedStream(PatternStore(list(store)), tokens)
    assert repr(stream) == (f"EncodedStream(dictionary={store!r}, tokens=("
                            "SPPattern(id='w1', symbols=('a', 'b'), frequency=2), 'x'))")
    with pytest.raises(AttributeError):
        stream.tokens = ()
    again = pickle.loads(pickle.dumps(stream))
    assert again.tokens == tokens
    assert list(again.dictionary) == list(store)
    # a code token unpickles as its dictionary's own entry
    assert again.tokens[0] is again.dictionary.get("w1")


def test_checks_still_run_when_a_record_is_made():
    with pytest.raises(ValueError):
        SPPattern("p", ())
    with pytest.raises(ValueError, match="at least one symbol"):
        Runs((("a",), ()), (1, 1))
    with pytest.raises(ValueError, match="one count per block"):
        Runs((("a",),), ())
    # a run's symbols are checked before its count
    with pytest.raises(ValueError, match="may not contain whitespace: 'a b'"):
        Runs((("a", "a b"),), (0,))
    with pytest.raises(ValueError, match="may not contain whitespace: 'a b'"):
        Runs((("a",), ("b", "a b")), (1, 3))
    # a stream checks its literals, then its code tokens, whose ids are
    # pattern ids, which the symbol rule does not bind
    w1 = SPPattern("w 1", ("a", "b"), 2)
    with pytest.raises(TypeError, match="symbol text must be a string, got int"):
        EncodedStream(PatternStore(), ("a", w1, 7))
    assert EncodedStream(PatternStore([w1]), ("a", w1)).tokens == ("a", w1)
    with pytest.raises(ValueError):
        FixedSymbol("a b")
    with pytest.raises(ValueError):
        Slot("X", (("a", FILLER), ("a", SPPattern("b", ("q",)))))
    with pytest.raises(ValueError):
        Schema("S", (SLOT, SLOT))
    with pytest.raises(ValueError):  # two rows with the same inputs
        FunctionTable("t", ("a",), ("x",), (ROW, (("1",), ("1",))))
    with pytest.raises(ValueError):
        FunctionTable("t", ("a",), ("x",), ((("1", "0"), ("0",)),))
    with pytest.raises(ValueError):  # a source that is not yet defined
        NandCircuit(("a",), (GATE,), ("g1",))
    with pytest.raises(ValueError):
        NandCircuit(("a", "b"), (GATE,), ("g2",))
    with pytest.raises(ValueError):
        TMRow("s0", 2, "s1", "R")
    with pytest.raises(ValueError):
        TMRow("s0", 1, "s1", "W2")
    with pytest.raises(ValueError):  # two transitions for one (state, read)
        TuringMachine((TM_ROW, TMRow("s0", 1, "s2", "L")))
    with pytest.raises(ValueError):
        UnaryNumber(-1)
    with pytest.raises(TooLarge):
        UnaryNumber(UNARY_CAP + 1)
    with pytest.raises(ValueError):
        PeanoNumeral(-1)
    with pytest.raises(TooLarge):
        PeanoNumeral(UNARY_CAP + 1)
    with pytest.raises(ValueError):
        ClassNode("a b")
    with pytest.raises(ValueError):
        ClassNode("cat", ["fur coat"])
    # a pattern's symbols are kept as a tuple, whatever sequence made it
    assert SPPattern("p", ["a"]).symbols == ("a",)


def test_a_pattern_subclass_keeps_the_checks_and_its_own_type():
    seen = []

    class Counted(SPPattern):
        __slots__ = ()

        def __post_init__(self):
            seen.append(self.id)
            SPPattern.__post_init__(self)

    made = Counted("p", ["a"], 2)
    assert seen == ["p"] and made.symbols == ("a",)
    assert made != SPPattern("p", ("a",), 2)
    assert made == Counted("p", ("a",), 2)
    assert repr(made).endswith(".Counted(id='p', symbols=('a',), frequency=2)")
    with pytest.raises(ValueError):
        Counted("q", ())
    with pytest.raises(AttributeError):
        made.id = "q"


def test_an_operation_trace_is_itself_and_makes_its_steps_once_when_read():
    calls = []

    def make_steps():
        calls.append(len(calls))
        return iter([TRANSFER] * 3)

    trace = OperationTrace("add", 3, make_steps)
    assert repr(trace) == "OperationTrace(operation='add', step_count=3)"
    twin = OperationTrace(operation="add", step_count=3, make_steps=make_steps)
    assert trace == trace and trace != twin and hash(trace) == hash(trace)
    assert len({trace, twin}) == 2
    assert calls == []
    assert trace.steps == (TRANSFER,) * 3
    assert trace.steps is trace.steps and trace.dump().count("\n") == 2
    assert calls == [0]


class TestRunReport:
    """The report is filled in as a command runs, so it stays mutable."""

    def test_keywords_defaults_and_order(self):
        report = RunReport("compress")
        assert (report.command, report.inputs, report.raw_bits, report.encoded_bits,
                report.details, report.dictionary_bits) == ("compress", (), 0.0, 0.0,
                                                            {}, None)
        assert RunReport("c").details is not RunReport("c").details
        full = RunReport("align", ("g.txt",), 8.0, 2.0, {"k": 1}, 1.0)
        assert full == RunReport(command="align", inputs=("g.txt",), raw_bits=8.0,
                                 encoded_bits=2.0, details={"k": 1},
                                 dictionary_bits=1.0)
        assert (full.ratio, full.total_bits) == (0.25, 3.0)

    def test_fields_can_be_set_and_reports_compare_by_field(self):
        report = RunReport("compress", ("c.txt",))
        other = RunReport("compress", ("c.txt",))
        assert report == other
        report.raw_bits = 4.0
        report.details = {"mode": "rle"}
        assert report != other and report.raw_bits == 4.0
        # a report equals no object of another type, not even a like one
        assert report.__eq__(vars(report)) is NotImplemented and report != vars(report)
        with pytest.raises(TypeError):
            hash(report)

    def test_pickle_round_trip(self):
        report = RunReport("newton", raw_bits=3.0, details={"g": 9.8})
        again = pickle.loads(pickle.dumps(report))
        assert type(again) is RunReport and again == report
