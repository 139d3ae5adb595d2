"""Command-line surface tying the library together.

Every command prints deterministic text (fractional bits to three decimals,
halves away from zero).  A command that accounts for bits returns its
``RunReport``, and ``main`` writes it when ``--report`` is given.  Exit
codes: 0 success, 2 input or parse error, 3 domain error (the error class
name goes to stderr).  An option's value below its least exits 2 with a
message that names the flag as it was typed.  An ``--out`` or
``--report`` path whose directory does not exist, that this process may
not write, or that names a directory or the command's input file, and a
``--report`` that names the ``--out`` file fail the run before the command
starts, so it prints and writes nothing.

Each row of ``COMMANDS`` names the module that holds its command as
``cmd_<name>``, and ``main`` imports that module to run it.  This module
holds ``compress``, ``decompress``, ``align``, ``parse`` and ``retrieve``,
and imports the codecs and the alignment engine (with its kernel) they run.
``table``, ``circuit`` and ``tm`` live in ``machines``; ``sets``, ``unary``,
``peano``, ``base`` and ``newton`` in ``setnum``; ``hierarchy`` in
``hierarchy``.  So a process compiles a worked example only when it runs
one, and no command loads ``schema``.
The codecs and the alignment engine stay eager on purpose: a tracer that
wraps the package's functions from outside, as perfbench's does, wraps
only the ``icmup`` modules loaded when it is made, right after ``import
icmup.cli``.  Were the codecs or the alignment engine loaded on first use,
their functions would go unwrapped and their layers would read as absent,
every per-layer figure 0, and the checks that an exercised layer recorded
calls and that a codec command never reached the kernel would pass
without testing anything.  No command loads ``dataclasses``, which loads
``inspect`` and ``ast``: every frozen record is a ``patterns.Record``.  No
module imports ``typing`` or ``decimal``, nor ``json`` at its top: the ABCs
come from ``collections.abc``, bit figures are rounded on integers, and
``json`` is imported where a file or a report is read or written.

One table, ``COMMANDS``, declares every subcommand, and ``build_parser``
builds the ones it is given.  ``main`` builds only the parser of the command
that ``argv[0]`` names, and all of them for help, a bad command or no
arguments.  Each command's help and usage, and the top-level usage line
that argparse prints with some errors, read the same either way.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import os
import sys
from collections.abc import Iterable

from . import alignment as al
from . import codecs
from .errors import IcmupError, InputFormatError, at_least
from .patterns import SPPattern, parse_grammar, raw_cost, read_text, render, tokenize
from .reporting import RunReport, format_bits


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
    if args.mode == "chunk":  # the run-length coder takes neither option
        at_least(args.min_len, "--min-len", 2)
        at_least(args.min_count, "--min-count", 2)
    text = read_text(args.corpus)
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
        # the table goes out in one write, with the figures line
        lines = [f"mode=chunk symbols={len(symbols)} alphabet={alphabet} "
                 f"chunks={len(dictionary)}"]
        lines += [f"{entry.id} count={entry.frequency} len={len(entry)}"
                  for entry in dictionary]
        report.details = {"mode": "chunk",
                          "chunks": [{"code": e.id, "count": e.frequency,
                                      "len": len(e)} for e in dictionary]}
        report.dictionary_bits = codecs.dictionary_cost_bits(dictionary, priced)
    else:
        runs = codecs.rle_encode(symbols)
        encoded = codecs.rle_cost_bits(runs, priced)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(codecs.runs_to_json(runs))
        lines = [f"mode=rle symbols={len(symbols)} alphabet={alphabet} "
                 f"runs={len(runs)}"]
        lines += [f"r{k} count={count} len={len(symbols)}" for k, (symbols, count)
                  in enumerate(zip(runs.blocks, runs.counts), start=1)]
        report.details = {"mode": "rle", "runs": len(runs)}
    report.raw_bits = raw
    report.encoded_bits = encoded
    lines.append(f"raw_bits={format_bits(raw)} encoded_bits={format_bits(encoded)} "
                 f"ratio={format_bits(report.ratio)}{_two_part(report)}")
    print("\n".join(lines))
    return report


def cmd_decompress(args) -> None:
    doc = codecs.parse_json(read_text(args.stream))
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
    at_least(args.beam, "--beam", 1)
    at_least(args.max_rows, "--max-rows", 0)
    store = parse_grammar(read_text(args.grammar))
    new = _new_pattern(args, "new")
    ranking = al.build_alignments(new, store, beam=args.beam,
                                  max_old_rows=args.max_rows)
    return store, new, ranking


def cmd_align(args) -> RunReport:
    at_least(args.top, "--top", 1)
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
    at_least(args.top, "--top", 1)
    store = parse_grammar(read_text(args.grammar))
    query = _new_pattern(args, "query")
    for pid, cd in al.retrieve(query, store, args.top):
        print(f"{pid}\t{format_bits(cd)}")


def _arg(*flags: str, **options) -> tuple[tuple[str, ...], dict]:
    """One ``add_argument`` call, as table data."""
    return flags, options


_CHARS = _arg("--chars", action="store_true",
              help="one symbol per character instead of whitespace tokens")
_SEARCH = (_arg("--beam", type=int, default=50),
           _arg("--max-rows", type=int, default=12))
_REPORT = _arg("--report")
_TRACE = _arg("--trace", action="store_true")
_UNARY_PAIR = (_arg("a", type=int), _arg("b", type=int), _TRACE)
_UNARY_RANGE = (_arg("--lo", type=int, required=True),
                _arg("--hi", type=int, required=True),
                _arg("--terms", required=True,
                     help="comma-separated term values for lo..hi"),
                _TRACE)

# Every subcommand, in the order help lists them: the module that holds it
# as ``cmd_<name>`` (``main`` imports that module to run it), its help line,
# and its arguments, or (for ``unary``) its own subcommands, each with its
# arguments.
COMMANDS = {
    "compress": ("cli", "discover chunks or runs and encode a corpus", (
        _CHARS, _REPORT, _arg("corpus"),
        _arg("--mode", choices=("chunk", "rle"), default="chunk"),
        _arg("--min-len", type=int, default=2),
        _arg("--min-count", type=int, default=2),
        _arg("--out", required=True))),
    "decompress": ("cli", "reconstruct a corpus from a stream file", (
        _CHARS, _arg("stream"), _arg("--out", required=True))),
    "align": ("cli", "rank alignments of a new pattern against a grammar", (
        _CHARS, *_SEARCH, _REPORT, _arg("grammar"), _arg("--new", required=True),
        _arg("--top", type=int, default=3))),
    "parse": ("cli", "print the best alignment as a bracketing", (
        _CHARS, *_SEARCH, _arg("grammar"), _arg("--new", required=True))),
    "retrieve": ("cli", "rank stored patterns against a query", (
        _CHARS, _arg("grammar"), _arg("--query", required=True),
        _arg("--top", type=int, default=5))),
    "table": ("machines", "evaluate a function table by row matching", (
        _arg("table"),
        _arg("--in", dest="inputs", required=True,
             help="comma-separated input symbols"),
        _arg("--diag", action="store_true",
             help="show per-row match counts and the selected row"))),
    "circuit": ("machines", "evaluate or compile a NAND circuit", (
        _arg("circuit"),
        _arg("--in", dest="inputs", help="name=value,... assignments"),
        _arg("--compile", action="store_true",
             help="print the exhaustive truth table"))),
    "tm": ("machines", "run a transition-table tape machine", (
        _arg("machine"), _arg("--tape", required=True),
        _arg("--head", type=int, default=0), _arg("--state", required=True),
        _arg("--max-steps", type=int, default=10000))),
    "sets": ("setnum", "multiset/set operations by unification", (
        _arg("op", choices=("toset", "union", "intersection")),
        _arg("a"), _arg("b", nargs="?"))),
    "unary": ("setnum", "unary arithmetic with repetition traces", {
        "add": _UNARY_PAIR, "sub": _UNARY_PAIR, "mul": _UNARY_PAIR,
        "div": _UNARY_PAIR, "pow": _UNARY_PAIR,
        "fact": (_arg("a", type=int), _TRACE),
        "sum": _UNARY_RANGE, "prod": _UNARY_RANGE}),
    "peano": ("setnum", "render naturals as successor numerals", (
        _arg("n", type=int), _arg("m", type=int, nargs="?"))),
    "base": ("setnum", "unary to positional conversion report", (
        _arg("value"), _arg("base", type=int),
        _arg("--decode", action="store_true",
             help="treat value as a digit string and print the count"))),
    "newton": ("setnum", "falling-body table with cost comparison", (
        _REPORT, _arg("--g", type=float, default=9.80665),
        _arg("--tmax", type=int, default=16))),
    "hierarchy": ("hierarchy", "attribute resolution and description lengths", (
        _arg("hierarchy"), _arg("--resolve", metavar="CLASS"),
        _arg("--context", metavar="PART"), _arg("--dl", action="store_true"),
        _arg("--alphabet", type=int))),
}


def _add_arguments(parser: argparse.ArgumentParser, arguments) -> None:
    for flags, options in arguments:
        parser.add_argument(*flags, **options)


def build_parser(commands: Iterable[str] = COMMANDS) -> argparse.ArgumentParser:
    """The parser of the named subcommands, by default all of them.

    Each subcommand's own parser is the same whichever others are built, and
    so is the usage line: a parser of some commands names all of them in it,
    as the full parser does from its choices.  The full parser leaves that
    metavar unset, since an error about the command argument names it by its
    metavar (``argument command: invalid choice: ...``)."""
    names = tuple(commands)
    parser = argparse.ArgumentParser(
        prog="icmup",
        description="Pattern codecs, hierarchies, table machines, and a "
                    "multiple-alignment engine with bit accounting.")
    every = "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=None if names == tuple(COMMANDS) else every)
    for name in names:
        _, summary, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=summary)
        if isinstance(arguments, dict):  # a command with subcommands of its own
            ops = p.add_subparsers(dest="op", required=True)
            for op, op_arguments in arguments.items():
                _add_arguments(ops.add_parser(op), op_arguments)
        else:
            _add_arguments(p, arguments)
    return parser


def _check_outputs(args) -> None:
    """Refuse an ``--out`` or ``--report`` that names a directory, that
    would be written over the command's input file or over the other
    output, that goes into a directory that does not exist, or that this
    process may not write: the file, if it exists, else its directory."""
    source = (getattr(args, "corpus", None) or getattr(args, "stream", None)
              or getattr(args, "grammar", None))
    for flag in ("out", "report"):
        target = getattr(args, flag, None)
        if not target:
            continue
        folder = os.path.dirname(target) or os.curdir
        if not os.path.isdir(folder):
            raise InputFormatError(f"--{flag}: no directory {folder!r}")
        if os.path.isdir(target):
            raise InputFormatError(f"--{flag} {target!r} is a directory")
        exists = os.path.exists(target)
        if (exists and source and os.path.exists(source)
                and os.path.samefile(source, target)):
            raise InputFormatError(f"--{flag} {target!r} is the input file; "
                                   "writing it would destroy the input")
        if not os.access(target if exists else folder, os.W_OK):
            raise InputFormatError(f"--{flag} {target!r} cannot be written")
    out, report = getattr(args, "out", None), getattr(args, "report", None)
    # neither output need exist yet, so compare the resolved paths
    if out and report and os.path.realpath(out) == os.path.realpath(report):
        raise InputFormatError(f"--report {report!r} is the --out file; "
                               "writing it would destroy the output")


@functools.cache
def _parser(commands: tuple[str, ...]) -> argparse.ArgumentParser:
    """The parser of ``commands``, built on first use and shared by later
    ``main`` calls."""
    return build_parser(commands)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a command's arguments need only its own parser; help, a bad command
    # and no arguments at all need the full one
    commands = (argv[0],) if argv and argv[0] in COMMANDS else tuple(COMMANDS)
    try:
        args = _parser(commands).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # the report is written last; an output path that cannot take its
        # file must fail before the command prints or writes anything
        _check_outputs(args)
        module = importlib.import_module(f"{__package__}.{COMMANDS[args.command][0]}")
        report = getattr(module, f"cmd_{args.command}")(args)
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
