"""The CLI's output, pinned byte for byte: one sha256 per invocation, over
its exit code, stdout, stderr and every file it writes.

The inputs come from the benchmark's generators (``perfbench/gen.py``, seed
1): six prose and six repeats documents for ``compress`` and
``decompress``, the kittens-style grammar for ``align``, ``parse`` and
``retrieve``, and a 1,000-phrase store for ``retrieve``.  Each run is in a
fresh working directory with relative paths, so a report names its inputs
the same way wherever the test runs.  A change meant to keep every output
keeps these digests; one meant to change output updates them and says why.
"""

import hashlib
import random
from pathlib import Path

from icmup.cli import main

EXPECTED = {
    "compress prose0 chunk":
        "ab7b8bb46180add7343e298a8a0bcd777902b6a7983e271e4a7b61524fae329d",
    "decompress prose0 chunk":
        "944179eb9e68fd4497da923dd1f2a26e37dabe5806e048acc3f822358e5b173b",
    "compress prose0 rle":
        "e836bfb8d17830dd3c0695656cbc110e1703a14d122728b5daea3b3f43d43f5d",
    "decompress prose0 rle":
        "8b725235b5d2d22a1ecabf0a2b0e37d6ca9c12b9dc58c105406874a5a2c5a953",
    "compress prose1 chunk":
        "b07102c3e1ba217b61db1c63ce55c330aeb6b52fdda4f150813db32708361743",
    "decompress prose1 chunk":
        "6b46fb2ddd152e047cf6cc59cfcc6947deb33eaeb5107b226dfc53db39a1c179",
    "compress prose1 rle":
        "bba0eb9c7c695057a6b96eff45346e40b5c86b4c56186f28afbda9c7433dd3b5",
    "decompress prose1 rle":
        "9fda40ecc2e72b553a7f26b15bce33f8baec9eee195cea3fa09f45aa93609adc",
    "compress prose2 chunk":
        "fbf6b935f3ebf3b99356c56d1a6ca93d717c2b30d676c9323f412ce67afd45ad",
    "decompress prose2 chunk":
        "115d65ac352cc9d6d09059c14b86b57844036726682a0298dca7ee03252cdcd1",
    "compress prose2 rle":
        "32862e9306ee8b8bbd35bdb5ad1cf36f55592a1740bdc50fc64852d913f86e99",
    "decompress prose2 rle":
        "dd2bf765f8f39658abb6839bec2b32c86bf429ae81cf1a147925f50a09642e58",
    "compress prose3 chunk":
        "10634cb4a1e79677d116b4af8f6ab05e490379e8e371e87bb81d4c1cdf97cfa4",
    "decompress prose3 chunk":
        "52d92d7ca27c032d574fe437782f9a57114c110092c33ac08de9b8a35863d388",
    "compress prose3 rle":
        "1a6d2210faa7b4a5770bbbaafb189356506cf21d90288d6544a54897e69811a8",
    "decompress prose3 rle":
        "da19330f026029f69c844dd9fa393f0956ff59597d6b800d54d8d9d5ec97dcc2",
    "compress prose4 chunk":
        "e1f53915a9aee2d8f6c956683c621147b75b029f98589b6b128f8bf5464d8ab8",
    "decompress prose4 chunk":
        "163237dfb7bb92512f94a91a1d46af8c1561b10da1f17f8deab70109364e6f2f",
    "compress prose4 rle":
        "7dc3a3f9389d489b2b22dfad1e5e78a958044813d115501d9f4490c7d6bac678",
    "decompress prose4 rle":
        "5f527c630bc3e374427bf4dcc17d486282b2476278dc9143611183af308cb540",
    "compress prose5 chunk":
        "3b97e6bfdb04091ad659e5dce5ff728f0ad92e9437b4c8d0adb328ea28b48dd8",
    "decompress prose5 chunk":
        "2c35f1ba3eb7e22b4e154449e8084a8a43a47878466eefc78e5271ede32b5d9c",
    "compress prose5 rle":
        "2dba757548add3dd159b2f4e3545d7784700cee6f9d08f950ac0ec6b65025aec",
    "decompress prose5 rle":
        "4dd8e1026742e026cdd46d5ff35c7f985ef2f7e51484df65e7bf8f9be6d7562d",
    "compress repeats0 chunk":
        "c1319313eeda311835ff211a6afb649bf6348bd7089be3f941b7a74b082901d9",
    "decompress repeats0 chunk":
        "493fe443dfe17d9a30603584b5b0249a8e208d9f954250c534a9b921c863d098",
    "compress repeats0 rle":
        "cb247b78b9ffe3b404055ec243ab3b9b3c511af1113fd3fb5ae3bd3c76bb9548",
    "decompress repeats0 rle":
        "9227c684a5bd352e33c102e9c07525b3ab836380dce4a51253f1a14be9440a8c",
    "compress repeats1 chunk":
        "789bd6eed0c3ad65049e930668edc32d8a65d51aaf366d0a7b87e8b1dbf8c488",
    "decompress repeats1 chunk":
        "716a615e9a21c69cda30b1ca7d612e140a13521bf070fc6c66ce05a36158823a",
    "compress repeats1 rle":
        "8a582818934e6de2c7ba4b320793f5dd83b0b3ae42c45142a3fe47fcce7f1bff",
    "decompress repeats1 rle":
        "aea0ca34ee005a312e1d99b93488ba338a93d21cf2b13e59c88e4c1829069304",
    "compress repeats2 chunk":
        "3f57d86eb1b32a842531b97845905745c2ffe33ecf670186234ce2540c6b87d5",
    "decompress repeats2 chunk":
        "0a5cd486081fc26cae90ecca6ef8911fb865d9cefb2de580d4f16f1fef805080",
    "compress repeats2 rle":
        "e0253eed3ce1d994a95be4c12590ebe976e88ece759bc5139cb7c43dc49b3a3d",
    "decompress repeats2 rle":
        "c9f6fbc413459ff77abcf4fc11f36e26ce8b0a6814a16f7845b5c702da9fd917",
    "compress repeats3 chunk":
        "8dcb8b2ce25b46c20106479aacce45fd1659efec18d6afba478cafdc65e302d4",
    "decompress repeats3 chunk":
        "e1fb58fc5de3d0cae15ee4b5a56752df109b6ae90600b039fbbe47b17f7c87a2",
    "compress repeats3 rle":
        "9328c4fa42e763f224db7c42e6c252893aefe080fbb332e77f514a5bbf4cd52f",
    "decompress repeats3 rle":
        "8116037ee1905db279add964b158b02a395fdd534b2ec1f898482dc942cc36d9",
    "compress repeats4 chunk":
        "c037527f9a8006a8d2c98d3cd84e958290bc4bdafa3e1d5614fe2ce3c2fa74b1",
    "decompress repeats4 chunk":
        "7f0f82a2e2b311c0c1b5382cd6b8d2532db21f96efe3f7682e1a1ed96314568f",
    "compress repeats4 rle":
        "cec7141f25c06dbabf08e463f70df8276c18669271d6ea0741d7ef9e42a7039e",
    "decompress repeats4 rle":
        "e7530fed254b39ba906b31a109b42e288a1058be91eefae7582cdc4e7301f2a0",
    "compress repeats5 chunk":
        "975680255a8b52703e4c84e57e344fb7c7fad3cb36e3d3808d6b4bb99480eda2",
    "decompress repeats5 chunk":
        "02ff7d68b9070528dfee37fd71eb02977854b915027af422c5e9046005825411",
    "compress repeats5 rle":
        "c1498ce916f462d9080f3383b62ef3bde33aee65ec683f50f1e17b5035ddae33",
    "decompress repeats5 rle":
        "790fb9ce0e24fca50472819de92a05043ba80777a30c3834d4ee57c1550e93ec",
    "align 12 workload":
        "bc937456cbdae83cbf6fa7f3ccbecc85dbaffa3bebba34e1c966afebb6cb0df7",
    "align 12 defaults":
        "9eac9334451aec15fa5657125133c63198ddfabc5f5cedd441f817e84d63bf9f",
    "parse 12":
        "5dd494c653f2f0bb98aa860cbaf7bcf8b0cbed9792b9ff080588aed290745a91",
    "retrieve 12":
        "d98b25d37d5b2d0af7b5b281d48b652c0c70cb7ff2bc641541be03073ec70e96",
    "align 18 workload":
        "2941562b4fb41d7dc1e752e1fc2583582f135b56d6970750001b151ce2925147",
    "align 18 defaults":
        "6d35aa0cf922192e4d66e6b5f89d36377630095fb22128141e66dfa66f5d19e8",
    "parse 18":
        "2f7a14c0d2916fe0268f8f0cc72f2607b42c194cb7c56b2c7d9342668a5eae75",
    "retrieve 18":
        "c6614c2670ed93c4e75c28e4897a5aaf778bd30fefd2b23f00e98cc1c9615122",
    "retrieve phrases":
        "ed4243117b9fca00e1e091e253543e78f638cfac58af78a057c311c7931a4dda",
}


def _files() -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in Path().iterdir()}


def _write(name: str, text: str) -> str:
    Path(name).write_text(text, encoding="utf-8")
    return name


def _invocations(gen):
    """(label, argv) pairs, writing each one's inputs to the working
    directory; a ``decompress`` reads what the ``compress`` before it wrote."""
    rng = random.Random(1)
    vocab = gen.ranked_words(rng, 400, 2, 9)
    cum = gen.zipf_cum_weights(len(vocab))
    docs = {f"prose{k}": gen.prose_doc(rng, vocab, cum, n)
            for k, n in enumerate(gen.size_grid(6, 250, 750))}
    rng = random.Random(1)
    docs.update({f"repeats{k}": gen.repeats_doc(rng, n)
                 for k, n in enumerate(gen.size_grid(6, 200, 800))})
    for name, doc in docs.items():
        corpus = _write(f"{name}.txt", doc + "\n")
        for mode in ("chunk", "rle"):
            packed = f"{name}.{mode}.json"
            yield (f"compress {name} {mode}",
                   ["compress", corpus, "--mode", mode, "--chars", "--out", packed,
                    "--report", f"{name}.{mode}.report.json"])
            yield (f"decompress {name} {mode}",
                   ["decompress", packed, "--chars", "--out", f"{name}.{mode}.back.txt"])

    rng = random.Random(1)
    _, lines, lexicon = gen.kittens_grammar(rng, determiners=8, nouns=36, verbs=28)
    grammar = _write("kittens.txt", "\n".join(lines) + "\n")
    for length in (12, 18):
        new = " ".join(gen.kittens_sentence(rng, lexicon, length))
        yield (f"align {length} workload",
               ["align", grammar, "--new", new, "--beam", "10", "--max-rows", "4",
                "--top", "3", "--report", f"align{length}.report.json"])
        yield f"align {length} defaults", ["align", grammar, "--new", new]
        yield f"parse {length}", ["parse", grammar, "--new", new]
        yield f"retrieve {length}", ["retrieve", grammar, "--query", new]

    rng = random.Random(1)
    patterns, freqs = gen.phrase_store(rng, phrases=1000, vocab_size=4000,
                                       min_len=8, max_len=40)
    phrases = _write("phrases.txt", "".join(
        f"PATTERN {pid} {freqs[pid]}: {' '.join(syms)}\n"
        for pid, syms in patterns.items()))
    query, _ = gen.spliced_query(rng, patterns, 24)
    yield ("retrieve phrases",
           ["retrieve", phrases, "--query", " ".join(query), "--top", "5"])


def digests(gen, capsys) -> dict[str, str]:
    """Label -> sha256 of each invocation's exit code, output and writes."""
    out = {}
    for label, argv in _invocations(gen):
        before = _files()
        code = main(argv)
        stdout, stderr = capsys.readouterr()
        written = sorted((name, data) for name, data in _files().items()
                         if before.get(name) != data)
        out[label] = hashlib.sha256(
            repr((code, stdout, stderr, written)).encode()).hexdigest()
    return out


def test_outputs_match_pinned_digests(bench_gen, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert digests(bench_gen, capsys) == EXPECTED
