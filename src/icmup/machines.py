"""Match-and-unify execution of function tables, NAND-only circuits, and a
transition-table tape machine.

Table evaluation selects the row with the most matched input cells and only
answers when that maximum is unique and complete.  One function, ``_select``,
holds that rule, and it drives all three machines: a table row is picked by
it, every gate is a lookup in the four-row NAND table, and a tape-machine
transition is the row whose (state, read) cells it picks.  So no primitive
boolean operator appears anywhere in the execution path.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from enum import Enum
from itertools import chain, product
from operator import eq

from .errors import (ArityMismatch, InputFormatError, MissingInput, NoMatch,
                     TooLarge, at_least)
from .patterns import Record, check_symbol, check_texts, content_lines, read_text

MAX_TABLE_INPUTS = 16


class FunctionTable(Record):
    """A named input/output table; deterministic (input tuples are unique)."""

    __slots__ = _fields = ("name", "input_cols", "output_cols", "rows")
    name: str
    input_cols: tuple[str, ...]
    output_cols: tuple[str, ...]
    rows: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]

    def __post_init__(self):
        seen = set()
        for inputs, outputs in self.rows:
            if len(inputs) != len(self.input_cols):
                raise ValueError(f"table {self.name!r}: row input arity mismatch")
            if len(outputs) != len(self.output_cols):
                raise ValueError(f"table {self.name!r}: row output arity mismatch")
            key = tuple(inputs)
            if key in seen:
                raise ValueError(f"table {self.name!r}: duplicate input row {key}")
            seen.add(key)
        # each distinct cell once, in the order the rows first hold it
        cells = chain.from_iterable(chain.from_iterable(self.rows))
        check_texts(tuple(dict.fromkeys(cells)))

    @property
    def arity(self) -> int:
        return len(self.input_cols)


class RowSelection(Record):
    """Diagnostics from row selection: per-row match counts and the winner."""

    __slots__ = _fields = ("match_counts", "best_row", "full_match")
    match_counts: tuple[int, ...]
    best_row: int | None
    full_match: bool


def _select(rows: Iterable[Sequence], given: Sequence) -> RowSelection:
    """The selection rule: count each row's cells equal to the given cells;
    the first row with the most wins, and it answers only when that maximum
    is unique and every given cell matched."""
    counts = tuple([sum(map(eq, cells, given)) for cells in rows])
    best = max(counts, default=-1)
    return RowSelection(counts, counts.index(best) if counts else None,
                        best == len(given) and counts.count(best) == 1)


def score_rows(table: FunctionTable, inputs: Sequence[str]) -> RowSelection:
    """Count cell matches per row; the winner must be unique and complete."""
    if len(inputs) != table.arity:
        raise ArityMismatch(
            f"table {table.name!r} takes {table.arity} inputs, got {len(inputs)}")
    return _select((row_inputs for row_inputs, _ in table.rows), inputs)


def eval_table(table: FunctionTable,
               inputs: Sequence[str]) -> tuple[str, ...]:
    """Outputs of the single row matching every input cell."""
    selection = score_rows(table, inputs)
    if not selection.full_match:
        raise NoMatch(
            f"table {table.name!r} has no row fully matching "
            f"({', '.join(inputs)})")
    return table.rows[selection.best_row][1]


def _bit_row(bits: Iterable, out_bits: Iterable):
    return tuple(map(str, bits)), tuple(map(str, out_bits))


NAND_TABLE = FunctionTable(
    "NAND",
    ("a", "b"),
    ("out",),
    (
        _bit_row((1, 1), (0,)),
        _bit_row((1, 0), (1,)),
        _bit_row((0, 1), (1,)),
        _bit_row((0, 0), (1,)),
    ),
)


class Gate(Record):
    __slots__ = _fields = ("id", "source_a", "source_b")
    id: str
    source_a: str
    source_b: str


class NandCircuit(Record):
    """NAND gates over named input terminals, sources defined before use."""

    __slots__ = _fields = ("inputs", "gates", "outputs")
    inputs: tuple[str, ...]
    gates: tuple[Gate, ...]
    outputs: tuple[str, ...]

    def __post_init__(self):
        defined = set()
        for name in self.inputs:
            if name in defined:
                raise ValueError(f"duplicate input terminal name {name!r}")
            defined.add(name)
        for gate in self.gates:
            if gate.id in defined:
                raise ValueError(f"duplicate name {gate.id!r}")
            for src in (gate.source_a, gate.source_b):
                if src not in defined:
                    raise ValueError(f"gate {gate.id!r} uses undefined source {src!r}")
            defined.add(gate.id)
        for out in self.outputs:
            if out not in defined:
                raise ValueError(f"output {out!r} is not a gate or terminal")


def eval_circuit(circuit: NandCircuit,
                 inputs: Mapping[str, object]) -> dict[str, str]:
    """Evaluate gates in order, each via a NAND-table lookup."""
    values: dict[str, str] = {}
    for terminal in circuit.inputs:
        if terminal not in inputs:
            raise MissingInput(f"no value for input terminal {terminal!r}")
        values[terminal] = check_symbol(str(inputs[terminal]))
    for gate in circuit.gates:
        out = eval_table(NAND_TABLE, (values[gate.source_a], values[gate.source_b]))
        values[gate.id] = out[0]
    return {out: values[out] for out in circuit.outputs}


def compile_truth_table(circuit: NandCircuit,
                        name: str = "compiled") -> FunctionTable:
    """Enumerate every input assignment (descending binary order) into a table."""
    n = len(circuit.inputs)
    if n > MAX_TABLE_INPUTS:
        raise TooLarge(f"{n} input terminals exceeds the cap of {MAX_TABLE_INPUTS}")
    rows = []
    for bits in product((1, 0), repeat=n):
        assignment = dict(zip(circuit.inputs, bits))
        result = eval_circuit(circuit, assignment)
        rows.append(_bit_row(bits, (result[out] for out in circuit.outputs)))
    return FunctionTable(name, tuple(circuit.inputs), tuple(circuit.outputs),
                         tuple(rows))


def xor_nand_circuit() -> NandCircuit:
    """Four-gate XOR built only from NAND."""
    return NandCircuit(
        ("a", "b"),
        (
            Gate("g1", "a", "b"),
            Gate("g2", "a", "g1"),
            Gate("g3", "b", "g1"),
            Gate("g4", "g2", "g3"),
        ),
        ("g4",),
    )


def adder_nand_circuit() -> NandCircuit:
    """One-bit adder (sum and carry) built only from NAND."""
    return NandCircuit(
        ("a", "b"),
        (
            Gate("g1", "a", "b"),
            Gate("g2", "a", "g1"),
            Gate("g3", "b", "g1"),
            Gate("g4", "g2", "g3"),   # sum = a XOR b
            Gate("g5", "g1", "g1"),   # carry = a AND b
        ),
        ("g4", "g5"),
    )


TM_ACTIONS = ("W0", "W1", "L", "R")


class TMRow(Record):
    __slots__ = _fields = ("state", "read", "next_state", "action")
    state: str
    read: int
    next_state: str
    action: str

    def __post_init__(self):
        if self.read not in (0, 1):
            raise ValueError("read cell must be 0 or 1")
        if self.action not in TM_ACTIONS:
            raise ValueError(f"unknown action {self.action!r}")


class TuringMachine(Record):
    __slots__ = _fields = ("rows",)
    rows: tuple[TMRow, ...]

    def __post_init__(self):
        seen = set()
        for row in self.rows:
            key = (row.state, row.read)
            if key in seen:
                raise ValueError(f"duplicate transition for {key}")
            seen.add(key)


class TapeState(Record):
    """Tape cells (default 0 outside the mapping), head, state, step count."""

    __slots__ = _fields = ("cells", "head", "state", "steps")
    cells: dict[int, int]
    head: int
    state: str
    steps: int
    _defaults = {"steps": 0}

    def read(self, position: int) -> int:
        return self.cells.get(position, 0)


class Halted(Enum):
    """Returned by ``tm_step`` when no transition matches: a value, not an error."""

    HALTED = "HALTED"


HALTED = Halted.HALTED


def tm_step(machine: TuringMachine, state: TapeState) -> "TapeState | Halted":
    """Apply the single transition matching (state, cell at head): one step
    of ``tm_run`` on a copy of the tape, so ``state`` is left unchanged."""
    result = tm_run(machine, state.cells, state.head, state.state, 1)
    if result.halted:
        return HALTED
    done = result.state
    return TapeState(done.cells, done.head, done.state, state.steps + 1)


class TMRunResult(Record):
    __slots__ = _fields = ("state", "halted", "attempts")
    state: TapeState
    halted: bool
    attempts: int  # transition lookups, including the final one that halted


def tm_run(machine: TuringMachine, tape: Mapping[int, int], head: int,
           start: str, max_steps: int) -> TMRunResult:
    """Take transitions until none matches or ``max_steps`` steps are taken.

    Lookup is the table-evaluation rule over the (state, read) cells of the
    rows.  Writes leave the head in place; moves leave cells alone.  The run
    writes into its own copy of ``tape``, so each step costs one lookup.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    keys = [(row.state, row.read) for row in machine.rows]
    cells = dict(tape)
    state = start
    steps = 0
    while steps < max_steps:
        selection = _select(keys, (state, cells.get(head, 0)))
        if not selection.full_match:
            return TMRunResult(TapeState(cells, head, state, steps), True, steps + 1)
        row = machine.rows[selection.best_row]
        if row.action == "L":
            head -= 1
        elif row.action == "R":
            head += 1
        else:
            cells[head] = int(row.action[1])  # W0 or W1
        state = row.next_state
        steps += 1
    return TMRunResult(TapeState(cells, head, state, steps), False, steps)


def unary_successor_machine() -> TuringMachine:
    """Scan right over a block of 1s, append a 1, return to its start.

    Run on a zero-delimited block of n ones starting at the leftmost 1, it
    halts (in state s2) on a block of n+1 ones.
    """
    return TuringMachine((
        TMRow("s0", 1, "s0", "R"),
        TMRow("s0", 0, "s1", "W1"),
        TMRow("s1", 1, "s1", "L"),
        TMRow("s1", 0, "s2", "R"),
    ))


def parse_table(text: str, name: str = "table") -> FunctionTable:
    """Parse the tab-separated table format: a header row of ``in:<name>``
    then ``out:<name>`` columns, one data row per following line."""
    raw = text.splitlines()  # unstripped, so an empty cell at either end is seen
    lines = [(lineno, raw[lineno - 1]) for lineno, _ in content_lines(text)]
    if not lines:
        raise InputFormatError("table file is empty")
    header = lines[0][1].split("\t")
    input_cols: list[str] = []
    output_cols: list[str] = []
    for cell in header:
        cell = cell.strip()
        if cell.startswith("in:"):
            if output_cols:
                raise InputFormatError("in: columns must precede out: columns")
            input_cols.append(cell[3:])
        elif cell.startswith("out:"):
            output_cols.append(cell[4:])
        else:
            raise InputFormatError(f"bad header cell {cell!r}")
    if not input_cols or not output_cols:
        raise InputFormatError("table needs at least one in: and one out: column")
    rows = []
    for lineno, line in lines[1:]:
        cells = [c.strip() for c in line.split("\t")]
        if len(cells) != len(input_cols) + len(output_cols):
            raise InputFormatError(f"line {lineno}: expected "
                                   f"{len(input_cols) + len(output_cols)} cells")
        # the table checks its cells too, but only this check names the line
        try:
            check_texts(cells)
        except ValueError as exc:
            raise InputFormatError(f"line {lineno}: {exc}") from None
        rows.append((tuple(cells[:len(input_cols)]), tuple(cells[len(input_cols):])))
    try:
        return FunctionTable(name, tuple(input_cols), tuple(output_cols),
                             tuple(rows))
    except ValueError as exc:
        raise InputFormatError(str(exc)) from None


def parse_tm(text: str) -> TuringMachine:
    """Parse the transition format: ``<state> <read> -> <next> <W0|W1|L|R>``."""
    rows = []
    for lineno, stripped in content_lines(text):
        head, sep, tail = stripped.partition("->")
        if not sep:
            raise InputFormatError(f"line {lineno}: missing '->'")
        left = head.split()
        right = tail.split()
        if len(left) != 2 or len(right) != 2:
            raise InputFormatError(
                f"line {lineno}: expected '<state> <read> -> <next> <action>'")
        if left[1] not in ("0", "1"):
            raise InputFormatError(f"line {lineno}: read cell must be 0 or 1")
        try:
            rows.append(TMRow(left[0], int(left[1]), right[0], right[1]))
        except ValueError as exc:
            raise InputFormatError(f"line {lineno}: {exc}") from None
    try:
        return TuringMachine(tuple(rows))
    except ValueError as exc:
        raise InputFormatError(str(exc)) from None


def parse_circuit(text: str) -> NandCircuit:
    """Parse the circuit format: ``input <name>``, ``gate <id> <a> <b>``,
    ``output <id>`` lines in any order consistent with define-before-use."""
    inputs: list[str] = []
    gates: list[Gate] = []
    outputs: list[str] = []
    for lineno, stripped in content_lines(text):
        parts = stripped.split()
        if parts[0] == "input" and len(parts) == 2:
            inputs.append(parts[1])
        elif parts[0] == "gate" and len(parts) == 4:
            gates.append(Gate(parts[1], parts[2], parts[3]))
        elif parts[0] == "output" and len(parts) == 2:
            outputs.append(parts[1])
        else:
            raise InputFormatError(f"line {lineno}: bad circuit line {stripped!r}")
    try:
        return NandCircuit(tuple(inputs), tuple(gates), tuple(outputs))
    except ValueError as exc:
        raise InputFormatError(str(exc)) from None


# The ``table``, ``circuit`` and ``tm`` commands: ``cli.main`` imports this
# module to run one, with the arguments its parser made.

def cmd_table(args) -> None:
    table = parse_table(read_text(args.table), name=args.table)
    values = args.inputs.split(",")
    if "" in values:
        raise InputFormatError(f"--in has an empty value: {args.inputs!r}")
    check_texts(values)
    if args.diag:
        selection = score_rows(table, values)
        counts = ",".join(str(c) for c in selection.match_counts)
        selected = selection.best_row + 1 if selection.full_match else "-"
        print(f"selected_row={selected} matches={counts}")
    outputs = eval_table(table, values)
    print(" ".join(f"{col}={sym}" for col, sym in zip(table.output_cols, outputs)))


def cmd_circuit(args) -> None:
    circuit = parse_circuit(read_text(args.circuit))
    if args.compile:
        table = compile_truth_table(circuit)
        print("\t".join([f"in:{c}" for c in table.input_cols]
                        + [f"out:{c}" for c in table.output_cols]))
        for row_in, row_out in table.rows:
            print("\t".join(row_in + row_out))
        return
    if not args.inputs:
        raise InputFormatError("need --in name=value,... or --compile")
    assignment = {}
    for item in args.inputs.split(","):
        name, eq, value = item.partition("=")
        if not eq:
            raise InputFormatError(f"bad assignment {item!r}")
        if name not in circuit.inputs:
            raise InputFormatError(f"{name!r} is not an input of the circuit")
        if name in assignment:
            raise InputFormatError(f"input {name!r} is assigned twice")
        assignment[name] = value
    result = eval_circuit(circuit, assignment)
    print(" ".join(f"{k}={v}" for k, v in result.items()))


def cmd_tm(args) -> None:
    at_least(args.max_steps, "--max-steps", 0)
    machine = parse_tm(read_text(args.machine))
    cells = {}
    for i, ch in enumerate(args.tape):
        if ch not in "01":
            raise InputFormatError("tape must be a string of 0s and 1s")
        cells[i] = int(ch)
    result = tm_run(machine, cells, args.head, args.state, args.max_steps)
    state = result.state
    positions = set(state.cells) | {state.head}
    lo, hi = min(positions), max(positions)
    tape = "".join(str(state.read(p)) for p in range(lo, hi + 1))
    print(f"halted={'true' if result.halted else 'false'} state={state.state} "
          f"steps={state.steps} attempts={result.attempts} head={state.head}")
    print(f"tape[{lo}..{hi}]={tape}")
