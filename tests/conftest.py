import contextlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import settings

import icmup
from icmup import (FunctionTable, PatternStore, SPPattern,
                   compose_alignment, kernels, parse_grammar)

# the same examples on every run, and no deadline for the slow oracles
settings.register_profile("icmup", derandomize=True, deadline=None)
settings.load_profile("icmup")

KITTENS_GRAMMAR = """\
# toy parsing grammar: words plus bracketing structure
PATTERN p1 1: Nr 5 k i t t e n #Nr
PATTERN p2 1: N Np Nr #Nr s #N
PATTERN p3 1: D Dp 4 t w o #D
PATTERN p4 1: NP D #D N #N #NP
PATTERN p5 1: Vr 1 p l a y #Vr
PATTERN p6 1: V Vp Vr #Vr #V
PATTERN p7 1: S Num ; NP #NP V #V #S
PATTERN p8 1: Num PL ; Np Vp
"""

KITTENS_SENTENCE = "t w o k i t t e n s p l a y"


def fresh_python(*args):
    """Stdout of a fresh interpreter run with ``args``, importing ``icmup``
    from the tree under test."""
    src = os.path.dirname(os.path.dirname(icmup.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": path}).stdout


@contextlib.contextmanager
def counting_merges(calls):
    """Stands in for both kernels that score or walk a search's candidates,
    ``kernels.lcs_length`` and ``kernels.match_pairs``, and appends each
    call's kernel name and hits (the LCS length) to ``calls``."""
    length, match = kernels.lcs_length, kernels.match_pairs

    def counted_length(*args):
        hits = length(*args)
        calls.append(("lcs_length", hits))
        return hits

    def counted_match(*args):
        pairs = match(*args)
        calls.append(("match_pairs", len(pairs)))
        return pairs

    with mock.patch.object(kernels, "lcs_length", counted_length), \
            mock.patch.object(kernels, "match_pairs", counted_match):
        yield calls


def pair_alignment(a, b):
    """The two-row alignment of ``a`` against ``b``: ``b`` is the whole store,
    so its code is free and the alphabet is the two patterns' texts."""
    return compose_alignment(a, [b], PatternStore([b]))


def bits(*texts):
    return texts


@pytest.fixture(scope="session")
def kittens_store():
    return parse_grammar(KITTENS_GRAMMAR)


@pytest.fixture()
def kittens_new():
    return SPPattern.from_text("new", KITTENS_SENTENCE)


@pytest.fixture(scope="session")
def adder_table():
    return FunctionTable(
        "adder", ("a", "b"), ("sum", "carry"),
        (
            (bits("1", "1"), bits("0", "1")),
            (bits("1", "0"), bits("1", "0")),
            (bits("0", "1"), bits("1", "0")),
            (bits("0", "0"), bits("0", "0")),
        ))


@pytest.fixture(scope="session")
def xor_table():
    return FunctionTable(
        "xor", ("a", "b"), ("out",),
        (
            (bits("1", "1"), bits("0")),
            (bits("0", "1"), bits("1")),
            (bits("1", "0"), bits("1")),
            (bits("0", "0"), bits("0")),
        ))


@pytest.fixture(scope="session")
def bench_gen():
    """The benchmark's seeded input generators, ``perfbench/gen.py``, which
    is a script directory rather than a package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
