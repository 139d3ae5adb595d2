"""Information compression via the matching and unification of patterns.

The package turns one idea - merge things that match - into executable
machinery: chunk and run-length codecs with bit accounting, schema
templates, class and part hierarchies, match-driven function tables and a
tape machine, unary arithmetic with repetition traces, and a
multiple-alignment engine that encodes new patterns against stored ones and
ranks the results by compression difference.
"""

from .alignment import (Alignment, alignment_probabilities, build_alignments,
                        compose_alignment, dump_columns, infer_unmatched,
                        literal_alignment, parse_render, retrieve)
from .codecs import (CodeRef, EncodedStream, FixedSymbol, Literal, Run,
                     Schema, Slot, UNBOUNDED, chunk_decode, chunk_encode,
                     discover_chunks, rle_decode, rle_encode, schema_encode,
                     schema_instantiate, unify_basic)
from .hierarchy import (ClassNode, Hierarchy, description_length,
                        parse_hierarchy, part_context, resolve_attributes)
from .machines import (NAND_TABLE, FunctionTable, Gate, HALTED, NandCircuit,
                       TapeState, TuringMachine, adder_nand_circuit,
                       compile_truth_table, eval_circuit, eval_table,
                       parse_circuit, parse_table, parse_tm, tm_run, tm_step,
                       unary_successor_machine, xor_nand_circuit)
from .patterns import (PatternStore, SPPattern, check_symbol, code_cost,
                       code_cost_bits, parse_grammar, raw_cost, render,
                       symbol_cost_bits, tokenize)
from .setnum import (OperationTrace, PeanoNumeral, TraceStep, UnaryNumber,
                     bounded_product, bounded_sum, multiset_to_set,
                     newton_table, parse_peano, parse_unary,
                     peano_shared_depth, peano_succ, positional_to_unary,
                     set_intersection, set_union, to_peano, unary_add,
                     unary_divide, unary_factorial, unary_multiply,
                     unary_power, unary_subtract, unary_to_positional)

__version__ = "0.1.0"
