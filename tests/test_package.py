"""The package's exported names, loaded on first use."""

import ast
import json
from pathlib import Path

import pytest

from conftest import fresh_python
import icmup

# The names `icmup` exported when it imported every module eagerly, by home.
EXPORTED = {
    "alignment": ["Alignment", "alignment_probabilities", "build_alignments",
                  "compose_alignment", "dump_columns", "infer_unmatched",
                  "literal_alignment", "parse_render", "retrieve"],
    "codecs": ["CodeRef", "EncodedStream", "FixedSymbol", "Literal", "Run",
               "Schema", "Slot", "UNBOUNDED", "chunk_decode", "chunk_encode",
               "discover_chunks", "rle_decode", "rle_encode", "schema_encode",
               "schema_instantiate", "unify_basic"],
    "hierarchy": ["ClassNode", "Hierarchy", "description_length",
                  "parse_hierarchy", "part_context", "resolve_attributes"],
    "machines": ["NAND_TABLE", "FunctionTable", "Gate", "HALTED", "NandCircuit",
                 "TapeState", "TuringMachine", "adder_nand_circuit",
                 "compile_truth_table", "eval_circuit", "eval_table",
                 "parse_circuit", "parse_table", "parse_tm", "tm_run", "tm_step",
                 "unary_successor_machine", "xor_nand_circuit"],
    "patterns": ["PatternStore", "SPPattern", "check_symbol", "code_cost",
                 "code_cost_bits", "parse_grammar", "raw_cost", "render",
                 "symbol_cost_bits", "tokenize"],
    "setnum": ["OperationTrace", "PeanoNumeral", "TraceStep", "UnaryNumber",
               "bounded_product", "bounded_sum", "multiset_to_set",
               "newton_table", "parse_peano", "parse_unary",
               "peano_shared_depth", "peano_succ", "positional_to_unary",
               "set_intersection", "set_union", "to_peano", "unary_add",
               "unary_divide", "unary_factorial", "unary_multiply",
               "unary_power", "unary_subtract", "unary_to_positional"],
}
# and the submodules a bare `import icmup` made attributes of the package
SUBMODULES = ["alignment", "codecs", "errors", "hierarchy", "kernels",
              "machines", "patterns", "reporting", "setnum"]


def test_each_name_is_its_home_modules_object():
    wrong = [(home, name) for home, names in EXPORTED.items() for name in names
             if getattr(icmup, name) is not getattr(getattr(icmup, home), name)]
    assert wrong == []
    assert [getattr(icmup, m).__name__ for m in SUBMODULES] == [f"icmup.{m}" for m in SUBMODULES]


def test_star_import_binds_all_and_dir_lists_it():
    names = [n for names in EXPORTED.values() for n in names] + SUBMODULES
    assert sorted(icmup.__all__) == sorted(names)
    namespace = {}
    exec("from icmup import *", namespace)
    assert sorted(n for n in namespace if n != "__builtins__") == sorted(names)
    assert set(names) <= set(dir(icmup))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'icmup' has no attribute 'nope'"):
        icmup.nope


def test_bare_import_loads_nothing_until_a_submodule_is_read():
    code = ("import json, sys, icmup\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'icmup')\n"
            "bare = loaded()\n"
            "encoded = icmup.codecs.rle_encode(['a', 'a', 'b'])\n"
            "print(json.dumps([bare, loaded(), len(encoded)]))\n")
    bare, after, runs = json.loads(fresh_python("-c", code))
    assert bare == ["icmup"]
    assert after == ["icmup", "icmup.codecs", "icmup.errors", "icmup.patterns"]
    assert runs == 2


def test_no_module_imports_dataclasses_or_typing():
    # read from the source, so what site happens to preload cannot hide one
    banned = {"dataclasses", "typing"}
    found = []
    for path in sorted(Path(icmup.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [(path.name, name) for name in names
                      if name.split(".")[0] in banned]
    assert found == []
