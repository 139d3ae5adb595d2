"""Information compression via the matching and unification of patterns.

The package turns one idea - merge things that match - into executable
machinery: chunk and run-length codecs with bit accounting (``codecs``),
schema templates (``schema``), class and part hierarchies (``hierarchy``),
match-driven function tables and a tape machine (``machines``), unary
arithmetic with repetition traces (``setnum``), and a multiple-alignment
engine that encodes new patterns against stored ones and ranks the results
by compression difference (``alignment``).  ``cli`` is the command line.

Importing the package loads none of its modules.  An exported name, or a
submodule, is imported the first time it is read from the package (PEP 562,
``__getattr__`` over ``_EXPORTS``), so a process pays only for the modules
it uses: ``from icmup import Schema`` loads ``schema``, which no command
loads.
"""

import importlib

# submodule -> the names the package exports from it
_EXPORTS = {
    "alignment": ("Alignment", "alignment_probabilities", "build_alignments",
                  "compose_alignment", "dump_columns", "infer_unmatched",
                  "literal_alignment", "parse_render", "retrieve"),
    "codecs": ("EncodedStream", "UNBOUNDED", "chunk_decode", "chunk_encode",
               "discover_chunks", "rle_decode", "rle_encode", "unify_basic"),
    "errors": (),
    "hierarchy": ("ClassNode", "Hierarchy", "description_length",
                  "parse_hierarchy", "part_context", "resolve_attributes"),
    "kernels": (),
    "machines": ("NAND_TABLE", "FunctionTable", "Gate", "HALTED", "NandCircuit",
                 "TapeState", "TuringMachine", "adder_nand_circuit",
                 "compile_truth_table", "eval_circuit", "eval_table",
                 "parse_circuit", "parse_table", "parse_tm", "tm_run", "tm_step",
                 "unary_successor_machine", "xor_nand_circuit"),
    "patterns": ("PatternStore", "SPPattern", "check_symbol", "code_cost",
                 "code_cost_bits", "parse_grammar", "raw_cost", "render",
                 "symbol_cost_bits", "tokenize"),
    "reporting": (),
    "schema": ("FixedSymbol", "Schema", "Slot", "schema_encode",
               "schema_instantiate"),
    "setnum": ("OperationTrace", "PeanoNumeral", "TraceStep", "UnaryNumber",
               "bounded_product", "bounded_sum", "multiset_to_set",
               "newton_table", "parse_peano", "parse_unary",
               "peano_shared_depth", "peano_succ", "positional_to_unary",
               "set_intersection", "set_union", "to_peano", "unary_add",
               "unary_divide", "unary_factorial", "unary_multiply",
               "unary_power", "unary_subtract", "unary_to_positional"),
}

# exported name -> its submodule; a submodule's own name maps to itself
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in (module, *names)}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    """Import ``name``'s submodule and keep the name, on its first read."""
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    value = module if name == home else getattr(module, name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
