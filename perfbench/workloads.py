"""The four workloads: each builds a pool of ops from a seed.

An op is one user-level job: a short list of CLI invocations (argv lists
for ``icmup.cli.main``) plus a check of what they printed and wrote.  The
inputs are written to files in a work directory; the program sees only
those files and the argv.

Why each workload exists (also recorded in BENCHMARK.json):

- codec-prose: prose has few long repeats, so the cubic ``rle_encode`` leads
  each op, ahead of ``discover_chunks`` and ``chunk_encode``.  The op never
  touches ``kernels`` or ``alignment``.
- codec-repeats: long repeats drive the O(n*L^2) path of
  ``discover_chunks``.  Same layer as codec-prose with a different hot
  function, so a codec change that helps one kind of input and costs the
  other shows up.
- align-grammar: beam search, column merging and many short kernel calls;
  the symbols overlap so much that about a tenth of merges match nothing.
- retrieve-phrases: the kernel on long sequences without the beam, and a
  grammar reload on every call.  Against align-grammar it splits kernel
  changes tuned for short sequences from those tuned for long ones.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Callable

import checks
import gen

POOL = 32
# Codec ops are short and their op times are skewed by size, so a larger
# pool puts more distinct documents near the median.  The bit ratios cover
# only the first RATIO_DOCS documents, which every run reaches, so that they
# do not depend on how many ops a run completes.
CODEC_POOL = 64
RATIO_DOCS = 48


@dataclass
class Op:
    argvs: list[list[str]]
    symbols: int
    check: Callable[[list[str]], tuple[list[str], dict]]
    outputs: list[str] = field(default_factory=list)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read_bytes(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def _codec_ops(docs: list[str], workdir: str) -> list[Op]:
    """compress --mode chunk, decompress, compress --mode rle, decompress."""
    chunk_out = os.path.join(workdir, "chunk.json")
    rle_out = os.path.join(workdir, "rle.json")
    back_chunk = os.path.join(workdir, "back_chunk.txt")
    back_rle = os.path.join(workdir, "back_rle.txt")
    ops = []
    for k, doc in enumerate(docs):
        corpus = os.path.join(workdir, f"doc{k:03d}.txt")
        original = (doc + "\n").encode("utf-8")
        _write(corpus, doc + "\n")
        symbols = [ch for ch in doc if not ch.isspace()]

        def check(outs, symbols=symbols, original=original):
            problems, chunk = checks.check_compress(outs[0], "chunk", symbols)
            problems += checks.check_decompress(outs[1], _read_bytes(back_chunk),
                                                original, len(symbols))
            more, rle = checks.check_compress(outs[2], "rle", symbols)
            problems += more
            problems += checks.check_decompress(outs[3], _read_bytes(back_rle),
                                                original, len(symbols))
            figures = {}
            if chunk and rle:
                figures = {"raw_bits": chunk["raw_bits"],
                           "chunk_bits": chunk["encoded_bits"],
                           "rle_bits": rle["encoded_bits"]}
            return problems, figures

        ops.append(Op(
            argvs=[["compress", corpus, "--mode", "chunk", "--chars", "--out", chunk_out],
                   ["decompress", chunk_out, "--chars", "--out", back_chunk],
                   ["compress", corpus, "--mode", "rle", "--chars", "--out", rle_out],
                   ["decompress", rle_out, "--chars", "--out", back_rle]],
            symbols=len(symbols), check=check,
            outputs=[chunk_out, rle_out, back_chunk, back_rle]))
    return ops


def codec_prose(rng: random.Random, workdir: str) -> list[Op]:
    vocab = gen.ranked_words(rng, 400, 2, 9)
    cum = gen.zipf_cum_weights(len(vocab))
    docs = [gen.prose_doc(rng, vocab, cum, n) for n in gen.size_grid(CODEC_POOL, 250, 750)]
    return _codec_ops(docs, workdir)


def codec_repeats(rng: random.Random, workdir: str) -> list[Op]:
    docs = [gen.repeats_doc(rng, n) for n in gen.size_grid(CODEC_POOL, 200, 800)]
    return _codec_ops(docs, workdir)


ALIGN_TOP = 3


def align_grammar(rng: random.Random, workdir: str) -> list[Op]:
    patterns, lines, lexicon = gen.kittens_grammar(rng, determiners=8,
                                                   nouns=36, verbs=28)
    grammar = os.path.join(workdir, "kittens.txt")
    _write(grammar, "\n".join(lines) + "\n")
    ops = []
    for length in gen.size_grid(POOL, 12, 18):
        query = gen.kittens_sentence(rng, lexicon, length)

        def check(outs, query=query):
            return checks.check_align(outs[0], query, patterns, ALIGN_TOP), {}

        ops.append(Op(argvs=[["align", grammar, "--new", " ".join(query),
                              "--beam", "10", "--max-rows", "4",
                              "--top", str(ALIGN_TOP)]],
                      symbols=len(query), check=check))
    return ops


RETRIEVE_TOP = 5


def retrieve_phrases(rng: random.Random, workdir: str) -> list[Op]:
    patterns, freqs = gen.phrase_store(rng, phrases=1000, vocab_size=4000,
                                       min_len=8, max_len=40)
    grammar = os.path.join(workdir, "phrases.txt")
    _write(grammar, "".join(f"PATTERN {pid} {freqs[pid]}: {' '.join(syms)}\n"
                            for pid, syms in patterns.items()))
    store_alphabet = {s for syms in patterns.values() for s in syms}
    total = sum(freqs.values())
    ops = []
    for length in gen.size_grid(POOL, 12, 36):
        query, sources = gen.spliced_query(rng, patterns, length)
        alphabet = len(store_alphabet | set(query))

        def check(outs, query=query, sources=sources, alphabet=alphabet):
            return checks.check_retrieve(outs[0], query, sources, patterns, freqs,
                                         total, alphabet, RETRIEVE_TOP), {}

        ops.append(Op(argvs=[["retrieve", grammar, "--query", " ".join(query),
                              "--top", str(RETRIEVE_TOP)]],
                      symbols=len(query), check=check))
    return ops


CODEC_EXERCISED = ("cli.main", "patterns.tokenize", "codecs.rle_encode",
                "codecs.discover_chunks", "codecs.chunk_encode", "codecs.decode",
                "codecs.serialize", "reporting.format_bits")

# Layers each workload must reach; the traced run fails if one records no
# calls (unless the package no longer has it).
EXERCISED = {
    "codec-prose": CODEC_EXERCISED,
    "codec-repeats": CODEC_EXERCISED,
    "align-grammar": ("cli.main", "patterns.tokenize", "patterns.parse_grammar",
                      "alignment.build_alignments", "alignment.extend_columns",
                      "alignment.signature", "alignment.render", "kernels.match_pairs",
                      "kernels.intern_ids", "reporting.format_bits"),
    "retrieve-phrases": ("cli.main", "patterns.tokenize", "patterns.parse_grammar",
                         "alignment.retrieve", "alignment.align_pair",
                         "alignment.extend_columns", "kernels.match_pairs",
                         "kernels.intern_ids", "reporting.format_bits"),
}

WORKLOADS = {
    "codec-prose": codec_prose,
    "codec-repeats": codec_repeats,
    "align-grammar": align_grammar,
    "retrieve-phrases": retrieve_phrases,
}
