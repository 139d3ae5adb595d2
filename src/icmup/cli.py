"""Command-line surface tying the library together.

Every command prints deterministic text (fractional bits to three decimals,
halves away from zero).  A command that accounts for bits returns its
``RunReport``, and ``main`` writes it when ``--report`` is given.  Exit
codes: 0 success, 2 input or parse error, 3 domain error (the error class
name goes to stderr).  A ``--report`` path whose directory does not exist,
an ``--out`` or ``--report`` path that names a directory or the command's
input file, and a ``--report`` that names the ``--out`` file fail the run
before the command starts, so it prints and writes nothing.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import alignment as al
from . import codecs, hierarchy, machines, setnum
from .errors import IcmupError, InputFormatError
from .patterns import (SPPattern, check_symbol, parse_grammar, raw_cost,
                       render, tokenize)
from .reporting import RunReport, format_bits


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _mode(args) -> str:
    return "chars" if args.chars else "whitespace"


def _two_part(report: RunReport) -> str:
    """The dictionary and total fields of a two-part (dictionary plus
    stream) code, or nothing when the codec sends no dictionary."""
    if report.dictionary_bits is None:
        return ""
    return (f" dictionary_bits={format_bits(report.dictionary_bits)}"
            f" total_bits={format_bits(report.total_bits)}")


def cmd_compress(args) -> RunReport:
    text = _read_text(args.corpus)
    symbols = tokenize(text, _mode(args))
    report = RunReport("compress", (args.corpus,))
    alphabet = len(set(symbols))
    priced = max(alphabet, 1)  # with no symbols every cost is 0 anyway
    raw = raw_cost(symbols, priced)
    if args.mode == "chunk":
        dictionary = codecs.discover_chunks(symbols, args.min_len, args.min_count)
        stream = codecs.chunk_encode(symbols, dictionary)
        encoded = codecs.encoded_cost_bits(stream, priced)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(codecs.stream_to_json(stream))
        print(f"mode=chunk symbols={len(symbols)} alphabet={alphabet} "
              f"chunks={len(dictionary)}")
        for entry in dictionary:
            print(f"{entry.id} count={entry.frequency} len={len(entry)}")
        report.details = {"mode": "chunk",
                          "chunks": [{"code": e.id, "count": e.frequency,
                                      "len": len(e)} for e in dictionary]}
        report.dictionary_bits = codecs.dictionary_cost_bits(dictionary, priced)
    else:
        runs = codecs.rle_encode(symbols)
        encoded = codecs.rle_cost_bits(runs, priced)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(codecs.runs_to_json(runs))
        print(f"mode=rle symbols={len(symbols)} alphabet={alphabet} "
              f"runs={len(runs)}")
        for k, run in enumerate(runs, start=1):
            print(f"r{k} count={run.count} len={len(run.symbols)}")
        report.details = {"mode": "rle", "runs": len(runs)}
    report.raw_bits = raw
    report.encoded_bits = encoded
    print(f"raw_bits={format_bits(raw)} encoded_bits={format_bits(encoded)} "
          f"ratio={format_bits(report.ratio)}{_two_part(report)}")
    return report


def cmd_decompress(args) -> None:
    doc = codecs.parse_json(_read_text(args.stream))
    if "runs" in doc:
        symbols = codecs.rle_decode(codecs.runs_from_json(doc))
    else:
        symbols = codecs.chunk_decode(codecs.stream_from_json(doc))
    rendered = "".join(symbols) if args.chars else render(symbols)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(rendered + ("\n" if rendered else ""))
    print(f"symbols={len(symbols)}")


def _new_pattern(args, field: str) -> SPPattern:
    raw = getattr(args, field)
    symbols = tokenize(raw, _mode(args))
    if not symbols:
        raise InputFormatError(f"--{field} needs at least one symbol")
    return SPPattern(field, tuple(symbols))


def _print_alignment(index: int, alignm, prob: float) -> None:
    rows = ",".join(r.id for r in alignm.old_rows) or "(none)"
    print(f"alignment={index} cd={format_bits(alignm.compression_difference)} "
          f"p={format_bits(prob)} rows={rows} hits={alignm.hit_count()}")
    print(al.dump_columns(alignm))
    print(f"parse: {al.parse_render(alignm)}")


def _search(args):
    """Load the grammar, tokenize ``--new`` and rank its alignments."""
    store = parse_grammar(_read_text(args.grammar))
    new = _new_pattern(args, "new")
    ranking = al.build_alignments(new, store, beam=args.beam,
                                  max_old_rows=args.max_rows)
    return store, new, ranking


def cmd_align(args) -> RunReport:
    if args.top < 1:
        raise InputFormatError("--top must be >= 1")
    _, new, ranking = _search(args)
    top = ranking[:args.top]
    probs = al.alignment_probabilities(top)
    for i, (alignm, p) in enumerate(zip(top, probs), start=1):
        if i > 1:
            print()
        _print_alignment(i, alignm, p)
    return RunReport("align", (args.grammar,),
                     raw_bits=raw_cost(new, top[0].alphabet_size),
                     encoded_bits=top[0].encoding_cost,
                     details={"top": [
                         {"rows": [r.id for r in a.old_rows],
                          "cd": a.compression_difference,
                          "p": p}
                         for a, p in zip(top, probs)]})


def cmd_parse(args) -> None:
    _, _, ranking = _search(args)
    print(al.parse_render(ranking[0]))


def cmd_retrieve(args) -> None:
    store = parse_grammar(_read_text(args.grammar))
    query = _new_pattern(args, "query")
    for pid, cd in al.retrieve(query, store, args.top):
        print(f"{pid}\t{format_bits(cd)}")


def cmd_table(args) -> None:
    table = machines.parse_table(_read_text(args.table), name=args.table)
    values = args.inputs.split(",")
    if "" in values:
        raise InputFormatError(f"--in has an empty value: {args.inputs!r}")
    inputs = [check_symbol(v) for v in values]
    if args.diag:
        selection = machines.score_rows(table, inputs)
        counts = ",".join(str(c) for c in selection.match_counts)
        selected = selection.best_row + 1 if selection.full_match else "-"
        print(f"selected_row={selected} matches={counts}")
    outputs = machines.eval_table(table, inputs)
    print(" ".join(f"{col}={sym}" for col, sym in zip(table.output_cols, outputs)))


def cmd_circuit(args) -> None:
    circuit = machines.parse_circuit(_read_text(args.circuit))
    if args.compile:
        table = machines.compile_truth_table(circuit)
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
    result = machines.eval_circuit(circuit, assignment)
    print(" ".join(f"{k}={v}" for k, v in result.items()))


def cmd_tm(args) -> None:
    machine = machines.parse_tm(_read_text(args.machine))
    cells = {}
    for i, ch in enumerate(args.tape):
        if ch not in "01":
            raise InputFormatError("tape must be a string of 0s and 1s")
        cells[i] = int(ch)
    result = machines.tm_run(machine, cells, args.head, args.state,
                             args.max_steps)
    state = result.state
    positions = set(state.cells) | {state.head}
    lo, hi = min(positions), max(positions)
    tape = "".join(str(state.read(p)) for p in range(lo, hi + 1))
    print(f"halted={'true' if result.halted else 'false'} state={state.state} "
          f"steps={state.steps} attempts={result.attempts} head={state.head}")
    print(f"tape[{lo}..{hi}]={tape}")


def _set_arg(text: str) -> list[str]:
    return tokenize(text, "whitespace")


def _render_set(symbols) -> str:
    return "{" + ", ".join(symbols) + "}"


def cmd_sets(args) -> None:
    if args.op == "toset":
        print(_render_set(setnum.multiset_to_set(_set_arg(args.a))))
        return
    a, b = _set_arg(args.a), _set_arg(args.b or "")
    if args.op == "union":
        print(_render_set(setnum.set_union(a, b)))
    else:
        print(_render_set(setnum.set_intersection(a, b)))


def cmd_unary(args) -> None:
    op = args.op
    if op in ("add", "sub", "mul"):
        a = setnum.UnaryNumber(args.a)
        b = setnum.UnaryNumber(args.b)
        fn = {"add": setnum.unary_add, "sub": setnum.unary_subtract,
              "mul": setnum.unary_multiply}[op]
        result, trace = fn(a, b)
        label = {"add": "transfers", "sub": "removals",
                 "mul": "add_iterations"}[op]
        print(f"result={result.count} {label}={trace.step_count}")
        print(f"unary={result.render()}")
    elif op == "div":
        q, r, trace = setnum.unary_divide(setnum.UnaryNumber(args.a),
                                          setnum.UnaryNumber(args.b))
        print(f"quotient={q.count} remainder={r.count} "
              f"subtract_iterations={trace.step_count}")
        print(f"unary={q.render()}")
    elif op == "pow":
        result, trace = setnum.unary_power(setnum.UnaryNumber(args.a), args.b)
        print(f"result={result.count} multiply_iterations={trace.step_count}")
        print(f"unary={result.render()}")
    elif op == "fact":
        result, trace = setnum.unary_factorial(args.a)
        print(f"result={result.count} steps={trace.step_count}")
        print(f"unary={result.render()}")
    elif op in ("sum", "prod"):
        values = [int(v) for v in args.terms.split(",")]
        count = args.hi - args.lo + 1
        if count > 0 and len(values) != count:
            raise InputFormatError(f"--terms has {len(values)} values for the "
                                   f"{count} indices {args.lo}..{args.hi}")
        terms = {i: v for i, v in zip(range(args.lo, args.hi + 1), values)}
        fn = setnum.bounded_sum if op == "sum" else setnum.bounded_product
        result, trace = fn(terms, args.lo, args.hi)
        print(f"result={result.count} iterations={trace.step_count}")
        print(f"unary={result.render()}")
    else:  # pragma: no cover - argparse restricts choices
        raise InputFormatError(f"unknown unary op {op!r}")
    if args.trace:
        print(trace.dump())


def cmd_peano(args) -> None:
    p = setnum.to_peano(args.n)
    print(p.render())
    if args.m is not None:
        q = setnum.to_peano(args.m)
        print(q.render())
        print(f"shared_depth={setnum.peano_shared_depth(p, q)}")


def cmd_base(args) -> None:
    if args.decode:
        u = setnum.positional_to_unary(args.value, args.base)
        print(f"count={u.count}")
        return
    u = setnum.UnaryNumber(int(args.value))
    rep = setnum.base_report(u, args.base)
    print(f"digits={rep.digits} unary_symbols={rep.unary_symbols} "
          f"positional_symbols={rep.positional_symbols} "
          f"ratio={format_bits(rep.ratio)}")


def cmd_newton(args) -> RunReport:
    rep = setnum.newton_table(args.g, args.tmax)
    for row in rep.rows:
        print(f"{row.t}\t{row.s:.1f}")
    print(f"formula_bits={format_bits(rep.formula_bits)} "
          f"table_bits={format_bits(rep.table_bits)}")
    return RunReport("newton", raw_bits=rep.table_bits,
                     encoded_bits=rep.formula_bits,
                     details={"g": rep.g,
                              "rows": [{"t": r.t, "s": r.s} for r in rep.rows]})


def cmd_hierarchy(args) -> None:
    h = hierarchy.parse_hierarchy(_read_text(args.hierarchy))
    did = False
    if args.resolve:
        attrs = sorted(hierarchy.resolve_attributes(h, args.resolve))
        print(f"{args.resolve}: {' '.join(attrs)}")
        did = True
    if args.context:
        chain = hierarchy.part_context(h, args.context)
        print(f"{args.context}: {' '.join(chain)}")
        did = True
    if args.dl:
        size = (len(hierarchy.required_alphabet(h)) if args.alphabet is None
                else args.alphabet)
        flat = hierarchy.description_length(h, "flat", size)
        hier = hierarchy.description_length(h, "hierarchical", size)
        print(f"alphabet={size} flat_bits={format_bits(flat)} "
              f"hierarchical_bits={format_bits(hier)} "
              f"savings={format_bits(flat - hier)}")
        did = True
    if not did:
        raise InputFormatError("need --resolve, --context, or --dl")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icmup",
        description="Pattern codecs, hierarchies, table machines, and a "
                    "multiple-alignment engine with bit accounting.")
    sub = parser.add_subparsers(dest="command", required=True)
    chars = argparse.ArgumentParser(add_help=False)
    chars.add_argument("--chars", action="store_true",
                       help="one symbol per character instead of whitespace tokens")
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--beam", type=int, default=50)
    search.add_argument("--max-rows", type=int, default=12)
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--report")

    p = sub.add_parser("compress", parents=[chars, report],
                       help="discover chunks or runs and encode a corpus")
    p.add_argument("corpus")
    p.add_argument("--mode", choices=("chunk", "rle"), default="chunk")
    p.add_argument("--min-len", type=int, default=2)
    p.add_argument("--min-count", type=int, default=2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("decompress", parents=[chars],
                       help="reconstruct a corpus from a stream file")
    p.add_argument("stream")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decompress)

    p = sub.add_parser("align", parents=[chars, search, report],
                       help="rank alignments of a new pattern against a grammar")
    p.add_argument("grammar")
    p.add_argument("--new", required=True)
    p.add_argument("--top", type=int, default=3)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("parse", parents=[chars, search],
                       help="print the best alignment as a bracketing")
    p.add_argument("grammar")
    p.add_argument("--new", required=True)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("retrieve", parents=[chars],
                       help="rank stored patterns against a query")
    p.add_argument("grammar")
    p.add_argument("--query", required=True)
    p.add_argument("--top", type=int, default=5)
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("table", help="evaluate a function table by row matching")
    p.add_argument("table")
    p.add_argument("--in", dest="inputs", required=True,
                   help="comma-separated input symbols")
    p.add_argument("--diag", action="store_true",
                   help="show per-row match counts and the selected row")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("circuit", help="evaluate or compile a NAND circuit")
    p.add_argument("circuit")
    p.add_argument("--in", dest="inputs", help="name=value,... assignments")
    p.add_argument("--compile", action="store_true",
                   help="print the exhaustive truth table")
    p.set_defaults(func=cmd_circuit)

    p = sub.add_parser("tm", help="run a transition-table tape machine")
    p.add_argument("machine")
    p.add_argument("--tape", required=True)
    p.add_argument("--head", type=int, default=0)
    p.add_argument("--state", required=True)
    p.add_argument("--max-steps", type=int, default=10000)
    p.set_defaults(func=cmd_tm)

    p = sub.add_parser("sets", help="multiset/set operations by unification")
    p.add_argument("op", choices=("toset", "union", "intersection"))
    p.add_argument("a")
    p.add_argument("b", nargs="?")
    p.set_defaults(func=cmd_sets)

    p = sub.add_parser("unary", help="unary arithmetic with repetition traces")
    usub = p.add_subparsers(dest="op", required=True)
    for op, na in (("add", 2), ("sub", 2), ("mul", 2), ("div", 2),
                   ("pow", 2), ("fact", 1)):
        q = usub.add_parser(op)
        q.add_argument("a", type=int)
        if na == 2:
            q.add_argument("b", type=int)
        q.add_argument("--trace", action="store_true")
        q.set_defaults(func=cmd_unary)
    for op in ("sum", "prod"):
        q = usub.add_parser(op)
        q.add_argument("--lo", type=int, required=True)
        q.add_argument("--hi", type=int, required=True)
        q.add_argument("--terms", required=True,
                       help="comma-separated term values for lo..hi")
        q.add_argument("--trace", action="store_true")
        q.set_defaults(func=cmd_unary)

    p = sub.add_parser("peano", help="render naturals as successor numerals")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int, nargs="?")
    p.set_defaults(func=cmd_peano)

    p = sub.add_parser("base", help="unary to positional conversion report")
    p.add_argument("value")
    p.add_argument("base", type=int)
    p.add_argument("--decode", action="store_true",
                   help="treat value as a digit string and print the count")
    p.set_defaults(func=cmd_base)

    p = sub.add_parser("newton", parents=[report],
                       help="falling-body table with cost comparison")
    p.add_argument("--g", type=float, default=9.80665)
    p.add_argument("--tmax", type=int, default=16)
    p.set_defaults(func=cmd_newton)

    p = sub.add_parser("hierarchy", help="attribute resolution and description lengths")
    p.add_argument("hierarchy")
    p.add_argument("--resolve", metavar="CLASS")
    p.add_argument("--context", metavar="PART")
    p.add_argument("--dl", action="store_true")
    p.add_argument("--alphabet", type=int)
    p.set_defaults(func=cmd_hierarchy)

    return parser


def _check_outputs(args) -> None:
    """Refuse an ``--out`` or ``--report`` that names a directory, or that
    would be written over the command's input file or over the other
    output, or into a directory that does not exist."""
    report = getattr(args, "report", None)
    folder = os.path.dirname(report or "")
    if folder and not os.path.isdir(folder):
        raise InputFormatError(f"--report: no directory {folder!r}")
    source = (getattr(args, "corpus", None) or getattr(args, "stream", None)
              or getattr(args, "grammar", None))
    for flag in ("out", "report"):
        target = getattr(args, flag, None)
        if target and os.path.isdir(target):
            raise InputFormatError(f"--{flag} {target!r} is a directory")
        if (source and target and os.path.exists(source) and os.path.exists(target)
                and os.path.samefile(source, target)):
            raise InputFormatError(f"--{flag} {target!r} is the input file; "
                                   "writing it would destroy the input")
    out = getattr(args, "out", None)
    # neither output need exist yet, so compare the resolved paths
    if out and report and os.path.realpath(out) == os.path.realpath(report):
        raise InputFormatError(f"--report {report!r} is the --out file; "
                               "writing it would destroy the output")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by later ``main`` calls."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # the report is written last; an output path that cannot take its
        # file must fail before the command prints or writes anything
        _check_outputs(args)
        report = args.func(args)
        if report is not None and args.report:
            report.write(args.report)
    except (InputFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IcmupError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
