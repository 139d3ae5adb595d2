"""The CLI's output, pinned byte for byte: one sha256 per invocation, over
its exit code, stdout, stderr and every file it writes.

The inputs come from the benchmark's generators (``perfbench/gen.py``, seed
1): six prose and six repeats documents for ``compress`` and
``decompress``, the kittens-style grammar for ``align``, ``parse`` and
``retrieve``, and a 1,000-phrase store for ``retrieve``.  The other nine
subcommands run on the acceptance fixtures (the adder table, the XOR
circuit, the successor machine) and on tables, circuits and hierarchies
drawn from ``random.Random(1)``, with each option, one failure per exit
code, and each reader's error for a bad symbol.  Each run is in a fresh
working directory with relative paths, so a report names its inputs the
same way wherever the test runs.  A change meant to keep every output
keeps these digests; one meant to change output updates them and says why.
"""

import hashlib
import random
from itertools import chain, product
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
    "align 12 top 50":
        "317f68864dc8abfea6ed1f0b655f09dde3a3825334b9b9f154b209aebb9844e3",
    "align 18 workload":
        "2941562b4fb41d7dc1e752e1fc2583582f135b56d6970750001b151ce2925147",
    "align 18 defaults":
        "6d35aa0cf922192e4d66e6b5f89d36377630095fb22128141e66dfa66f5d19e8",
    "parse 18":
        "2f7a14c0d2916fe0268f8f0cc72f2607b42c194cb7c56b2c7d9342668a5eae75",
    "retrieve 18":
        "c6614c2670ed93c4e75c28e4897a5aaf778bd30fefd2b23f00e98cc1c9615122",
    "align 18 top 50":
        "58cbe6aec717bfd8097e81b63e77889d00bb3997ae30d347decec70611b06e71",
    "retrieve phrases":
        "ed4243117b9fca00e1e091e253543e78f638cfac58af78a057c311c7931a4dda",
    "table adder 1,0":
        "ec91af9ddced91063a673b351dd9363257d95e7a0dad97f2d2bf663533340f3e",
    "table adder 1,0 diag":
        "abb07c75f09291accb4c81ecd0612371ddd905820106f9a0da55fd8c567af335",
    "table adder 0,0":
        "28b0859945d83c03e79ca5d41ff77a523b6de16ef7b8ea50c8bed63412b59ff3",
    "table adder 0,0 diag":
        "aad44caf07391dca83c53f64cc9d2128dcb6f1f141668f4424b677639ae3c49f",
    "table seeded 0":
        "408920c74fc35640be09c72af571bf166a3454599581d5554e5ba9f2a5a0c485",
    "table seeded 0 diag":
        "0990ea4ffd5cf14caa86331861c9815f1451e37c7b8c6eb705991629508cf40b",
    "table seeded 1":
        "ade476b34cdd60039e0c48e9a5f82d12cf8d82d98371a3decaf662626c946a00",
    "table seeded 1 diag":
        "045675eae8fd220a3b38a2ecf0020f625a1ca3011bed7a7b9fadca6ec604a46a",
    "table seeded 2":
        "8d46ff26fbcd98dac445997b13ff90b3ba4cedb5082c74fe57995b0642b2a147",
    "table seeded 2 diag":
        "a4ff4aaa699c422ac0fd2a881b8be5df4a5e51720acd7d1053dc424df7e5151e",
    "table seeded 3":
        "c3cf592de2195031a76275ff9f9e9801d5fda2275dd2e92f71c5ba9403cc49a0",
    "table seeded 3 diag":
        "1da8fad4743a4db79429f0c0777cefaae1276443071cab27dfe55067548d2cd9",
    "table no full match":
        "7c140a4a6c8ae104cc591f6c13ee3d51cff9a84fac11eaade6c558ba5095a203",
    "table bad --in symbol":
        "b1f1c398ebec5d13ecc64e41d9225440249c33512ee8ff3a4fc6f81f0e69354f",
    "table empty cell":
        "1705c7dfb34638e15ff6dc559b0e7c135219193bb8540b87667be53aa27a264b",
    "table spaced cell":
        "a650fcda717fbc51f4780e98b890e7b1c63a13b9164c327adc433c3f4f7b53be",
    "circuit xor in":
        "a81e835f8f0b6610d75e1cefe268e86b80e0c7cef9d7b15366b972a6a51c674d",
    "circuit xor compile":
        "95a868ccf6f9bee5ec7e89e57e6f49e4693ba152cad48638d26077f279a2b26b",
    "circuit seeded0 in":
        "d61c21087c41268f4f3f21ff75a38d8ec8c0e40a2392ae14eb5a9d954fe82985",
    "circuit seeded0 compile":
        "6835e3c4041e6b374f50bf10ed980d29054f9f9da3c68af1924c7a160712492d",
    "circuit seeded1 in":
        "a46bf04e7f162bc3467e1bd802e44f3acc6a54e7c9fb67395a465a50e4066ec1",
    "circuit seeded1 compile":
        "c75a31c91249f28945654ca489315d2fe0f1526b6987962a86461b174bd9b969",
    "circuit missing input":
        "5a0323dd318dafd96533eb6431739298bca7504bbf64700fa0979807a442d6d6",
    "circuit empty value":
        "24ef85f6943f9de33098366fe73d4401e00280b67cb04174bcc2fc00c45a71f7",
    "circuit spaced value":
        "84e4cca3f71b7e1b5c3afe86cc8e2c3ab1e14cf29918a71b267b762e2debac0b",
    "tm succ 01100":
        "075d12c7bfd4c6cc92030d3b9fb48c7fdb796fe939847333c94c3ec120b80b65",
    "tm succ 0111110":
        "2233ec404dbbe358fdbe3ec287d4d8362ac5d0ec9e267f683b810a9c29d93921",
    "tm succ 0":
        "8d92b7c0c0595240eadd2cc1345622c237db5c0a8df4aec442a02f7a20c69a0c",
    "tm succ cut":
        "52825a74c4dcbe7197001f2208b29dd498dac36a125cbe34f969c47e2b02dd99",
    "tm bad tape":
        "2f7b5196df4757de78c2d2dd1b218875af1941d906541bd629c852d431ec7424",
    "sets toset":
        "0a905eb0020e2a9c933c3f6d865fae6f81b6c5b938c7ceeb25a0ea53545b8ca4",
    "sets union":
        "4308dc34b3f96fcbea39fd62eb9843adf7a5788970deb54e30b92fb39b46284a",
    "sets intersection":
        "600cff2d70a96e4ccf85458265068fe5c405a8359d0badb80e631bdaa232292a",
    "sets not a set":
        "40c858daddc2a494dfa98cd2a94c7d6f938b8fea4192a188248df932db50dba1",
    "unary add":
        "65ddad6607bb2fcab5b072221d1efbb9e848de58d088f706d0e5363623781c88",
    "unary add trace":
        "19b72f0fe68a492dbf2934e5a5f9c40811101f1530204b4492cba995133ba747",
    "unary sub":
        "5df00e858e9ab6b1bb3103445c4be1bd62c593152e19761a13411f8a6bf02b74",
    "unary sub trace":
        "beb5a7b844519b66c694ecc92c0cd598fef8a1f2e5273dcaf10ed911855f69f2",
    "unary mul":
        "850c461071aabf1147f91894357aaeccaf99a23f49a346fc91cdff792709eddc",
    "unary mul trace":
        "4ad0b9624df68556316d404769c2999bfec43499ec70508c28a5dc2a1416c690",
    "unary div":
        "b3a642c5721fa1caf9631fbf4c7ea372aa56437ce21c02272b861cd30e909968",
    "unary div trace":
        "34c8dfb00bc0b397b4a02499b0149daf61df162a23792e65617927030967d2ef",
    "unary pow":
        "da842f270c39a3cc8267bf401cc983b4c84dd1b096d003950baa4aedeb82ee0c",
    "unary pow trace":
        "ba716c9093853949950559e3c1c99627f890a872a01727b861a6c58ff60a6853",
    "unary fact":
        "0b67dedd5609c0dfcf8fcf34b110616696b10b5fdb5391af08cf710da07e6e25",
    "unary fact trace":
        "d6c610f8301363a76a1936056b8adb098f732da73fbf81067f3233aa4acd97a0",
    "unary sum":
        "e5387a908d71ca3c48aa013c55cb1a2acc994b75e7d6de47e14101b080885317",
    "unary sum trace":
        "edb64ccc445011bc952ea3c7944cb348e6f1d715428b4c4f10b06e8a291f9293",
    "unary prod":
        "e238fbd067a80066f817e50342c3b4087e505822d009e7740732e6cf6e0913ea",
    "unary prod trace":
        "2de5b5deaf1f86d388d169ba0037e9cd48e1442407bcd1b33a805d913ac0c138",
    "unary underflow":
        "de7d8e6f15b03a7f81f7953ddb1f063c56f407ca3c88f25ceb21f2e70ef2b6c8",
    "peano one":
        "6824faa448ed8afe2bc777c03891601de740011b8efaa2db02e4cdb097d32c65",
    "peano two":
        "1757e9b688cc1bdaf61ff545ce0ad75e48e01b46660c7da41cfcf7f950abc120",
    "base 17 10":
        "75e78b2182253fa1704e65cb61a1686ff4326b30ee694a5e6a7e4c86695f73e7",
    "base 255 2":
        "2bc86bb011221537e2833fa7ca4e0b09b5b5eb7755b28391a68e1f1e5fdb9673",
    "base 1000 16":
        "494c0956034b9f2f0e09a5ecdb3ec53ff7bbc0e188de3b6ce6e4b6c5933d82de",
    "base decode 101 2":
        "c99494b732956f9e916e44f58474fcee70c37271046e398be4b779786e25fe2f",
    "base decode ff 16":
        "365fb558dd930f56a3a716cfc7eef2103f70b984060c09b3ce4c20e028a77419",
    "base decode 12 2":
        "09861782f22907b2939ea8b8cfb1b6bf5fa839e4f25536d8aabf95243229ac3f",
    "newton defaults":
        "e683f28aec0fa614bd98a13be52bdad41c8c6fca5f85679b93508300c0acc0f5",
    "newton moon":
        "f3f537b7a58c4e59d3498c6187209a90a13161ab932355954a6a4841ff856a2c",
    "newton report":
        "12a016302a9cd691d3708d93d92103008d6622a7258a50aceb1d605abb9c6249",
    "hierarchy resolve c23":
        "d471723c4e290018d806ebbf78ed0cab8e4593d4d65c06da0d3dd0bfeee008cb",
    "hierarchy resolve c17":
        "32a95195853b764059894f3d9334b9099d9d24dbe43a27a6dd374c3557e12495",
    "hierarchy resolve c5":
        "5aef85ba27775a7271ea4e04cf91bd7c78dbae57c6763c61a3d3ad39c744840b",
    "hierarchy context c0":
        "43746f489767eb7b8392505ea32607c150424e4a82d2f8e21fef09c60b70cafa",
    "hierarchy context c3":
        "17077a27ab15487332c528a397b690b01756742205c3044e0a3f5b3ee48422c4",
    "hierarchy context c5":
        "28898e73aecc2895cd8f127a015a249e23e85532dc9ecc4b8b84e04501156416",
    "hierarchy dl":
        "aadf9abd371835d877dc0c9d26efb1aa9bd28f11794698bf6135575c6a6f3e1b",
    "hierarchy dl alphabet":
        "26381ee3e544f6b835e914033f67d1e3df33018e72f4aa69fd5589daea9aa601",
    "hierarchy all":
        "b6a7bf1c8a2b31049e8762882cd704f49afa3ea53a4b5449b72688174dca146f",
    "hierarchy unknown class":
        "a0da3144b49a7789fe30e4797d38969a395528e3cd39abb1804dcd5e84382dcd",
    "decompress stream lit int":
        "815ceb8300d4173c2ccd78cfa9660f44de54887613676669d682342e6c6ac4ae",
    "decompress stream lit spaced":
        "0e3eb2c3d4487635702f3cb3cb6671c279bd6a1ebd03d708bebba50eb24a1c4b",
    "decompress stream chunk spaced":
        "4561b2c0503c474136178e7cdeebfdd30c8fd0f5b54a0a7426c90a29fb9660a4",
    "decompress stream chunk not array":
        "964a4dc7990d0780bc0e75b5c486dfbb844124241bce18ab245dfd158b26313f",
    "decompress runs empty symbol":
        "cdd4e0840104712cd780e394bf028006d1499b6b94bad7eef592df0159b7e4a3",
    "decompress runs not array":
        "f8876dde8abee8283e90ad037949cc663ccd86d27a8d2c906ca932d7b459b363",
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
        # fifty probabilities in the report: their total is a left fold, so
        # the last bits of each p are the same on every Python
        yield (f"align {length} top 50",
               ["align", grammar, "--new", new, "--top", "50",
                "--report", f"align{length}.top50.report.json"])

    rng = random.Random(1)
    patterns, freqs = gen.phrase_store(rng, phrases=1000, vocab_size=4000,
                                       min_len=8, max_len=40)
    phrases = _write("phrases.txt", "".join(
        f"PATTERN {pid} {freqs[pid]}: {' '.join(syms)}\n"
        for pid, syms in patterns.items()))
    query, _ = gen.spliced_query(rng, patterns, 24)
    yield ("retrieve phrases",
           ["retrieve", phrases, "--query", " ".join(query), "--top", "5"])


ADDER_TSV = ("in:a\tin:b\tout:sum\tout:carry\n"
             "1\t1\t0\t1\n1\t0\t1\t0\n0\t1\t1\t0\n0\t0\t0\t0\n")
XOR_CIRCUIT = ("input a\ninput b\n"
               "gate g1 a b\ngate g2 a g1\ngate g3 b g1\ngate g4 g2 g3\n"
               "output g4\n")
SUCCESSOR_TM = "s0 1 -> s0 R\ns0 0 -> s1 W1\ns1 1 -> s1 L\ns1 0 -> s2 R\n"
WORDS = ("red", "green", "blue", "cold", "warm", "tall", "flat", "loud")


def _table_text(rng) -> tuple[str, list[str]]:
    """A table of 12 distinct rows over three inputs from ``x y z``, two
    word outputs; and four ``--in`` values, the last matching no row."""
    combos = [",".join(c) for c in product("xyz", repeat=3)]
    rows = rng.sample(combos, 12)
    lines = ["in:i0\tin:i1\tin:i2\tout:o0\tout:o1"]
    lines += ["\t".join(row.split(",") + [rng.choice(WORDS), rng.choice(WORDS)])
              for row in rows]
    missing = next(c for c in combos if c not in rows)
    return "\n".join(lines) + "\n", rows[:3] + [missing]


def _circuit_text(rng, inputs: int, gates: int) -> tuple[str, str]:
    """A NAND circuit in file form, and one ``--in`` assignment for it."""
    names = [f"t{k}" for k in range(inputs)]
    lines = [f"input {t}" for t in names]
    available = list(names)
    for g in range(gates):
        lines.append(f"gate g{g} {rng.choice(available)} {rng.choice(available)}")
        available.append(f"g{g}")
    lines += [f"output g{g}" for g in sorted({rng.randrange(gates) for _ in range(2)})]
    assignment = ",".join(f"{t}={rng.randint(0, 1)}" for t in names)
    return "\n".join(lines) + "\n", assignment


def _hierarchy_text(rng, classes: int) -> str:
    """Classes ``c0 ..`` with up to three attributes, parents among earlier
    classes and parts among earlier classes, so both relations are acyclic."""
    lines = []
    for k in range(classes):
        attrs = rng.sample(WORDS, rng.randint(0, 3))
        parents = [f"c{j}" for j in rng.sample(range(k), min(k, rng.randint(0, 2)))]
        parts = [f"c{j}" for j in rng.sample(range(k), min(k, rng.randint(0, 2)))]
        lines.append(f"CLASS c{k} : attrs={','.join(attrs)} "
                     f"parents={','.join(parents)} parts={','.join(parts)}")
    return "\n".join(lines) + "\n"


def _machine_invocations():
    """(label, argv) pairs for ``table``, ``circuit`` and ``tm``."""
    rng = random.Random(1)
    adder = _write("adder.tsv", ADDER_TSV)
    for values in ("1,0", "0,0"):
        yield f"table adder {values}", ["table", adder, "--in", values]
        yield f"table adder {values} diag", ["table", adder, "--in", values, "--diag"]
    seeded, queries = _table_text(rng)
    seeded = _write("seeded.tsv", seeded)
    for k, values in enumerate(queries):
        yield f"table seeded {k}", ["table", seeded, "--in", values]
        yield f"table seeded {k} diag", ["table", seeded, "--in", values, "--diag"]
    yield "table no full match", ["table", adder, "--in", "2,0"]
    yield "table bad --in symbol", ["table", adder, "--in", "a, b"]
    yield "table empty cell", ["table", _write("empty.tsv", "in:a\tout:b\n1\t\n"), "--in", "1"]
    yield "table spaced cell", ["table", _write("spaced.tsv", "in:a\tout:b\n1 2\t0\n"),
                                "--in", "1"]

    circuits = {"xor": (XOR_CIRCUIT, "a=1,b=0")}
    circuits.update({f"seeded{k}": _circuit_text(rng, inputs, gates)
                     for k, (inputs, gates) in enumerate(((3, 6), (5, 9)))})
    for name, (text, assignment) in circuits.items():
        path = _write(f"{name}.circuit", text)
        yield f"circuit {name} in", ["circuit", path, "--in", assignment]
        yield f"circuit {name} compile", ["circuit", path, "--compile"]
    yield "circuit missing input", ["circuit", "xor.circuit", "--in", "a=1"]
    yield "circuit empty value", ["circuit", "xor.circuit", "--in", "a=,b=1"]
    yield "circuit spaced value", ["circuit", "xor.circuit", "--in", "a=1 1,b=1"]

    machine = _write("succ.tm", SUCCESSOR_TM)
    for tape, head in (("01100", "1"), ("0111110", "1"), ("0", "0")):
        yield f"tm succ {tape}", ["tm", machine, "--tape", tape, "--head", head,
                                  "--state", "s0"]
    yield "tm succ cut", ["tm", machine, "--tape", "0111", "--head", "1",
                          "--state", "s0", "--max-steps", "3"]
    yield "tm bad tape", ["tm", machine, "--tape", "012", "--state", "s0"]


def _number_invocations():
    """(label, argv) pairs for ``sets``, ``unary``, ``peano``, ``base`` and
    ``newton``."""
    a, b = "b f d a c e", "e g i f d h"
    yield "sets toset", ["sets", "toset", "a b a c b b c a c"]
    yield "sets union", ["sets", "union", a, b]
    yield "sets intersection", ["sets", "intersection", a, b]
    yield "sets not a set", ["sets", "union", "a b a", "c"]

    for op, operands in (("add", ("2", "3")), ("sub", ("7", "3")), ("mul", ("3", "4")),
                         ("div", ("13", "4")), ("pow", ("2", "3")), ("fact", ("4",))):
        yield f"unary {op}", ["unary", op, *operands]
        yield f"unary {op} trace", ["unary", op, *operands, "--trace"]
    for op in ("sum", "prod"):
        argv = ["unary", op, "--lo", "2", "--hi", "5", "--terms", "1,2,3,4"]
        yield f"unary {op}", argv
        yield f"unary {op} trace", argv + ["--trace"]
    yield "unary underflow", ["unary", "sub", "3", "7"]

    yield "peano one", ["peano", "3"]
    yield "peano two", ["peano", "2", "5"]

    for value, base in (("17", "10"), ("255", "2"), ("1000", "16")):
        yield f"base {value} {base}", ["base", value, base]
    for value, base in (("101", "2"), ("ff", "16"), ("12", "2")):
        yield f"base decode {value} {base}", ["base", value, base, "--decode"]

    yield "newton defaults", ["newton"]
    yield "newton moon", ["newton", "--g", "1.62", "--tmax", "8"]
    yield "newton report", ["newton", "--g", "3.7", "--tmax", "5", "--report", "n.json"]


def _hierarchy_invocations():
    """(label, argv) pairs for ``hierarchy`` on a seeded 24-class file."""
    path = _write("seeded.hier", _hierarchy_text(random.Random(1), 24))
    for name in ("c23", "c17", "c5"):
        yield f"hierarchy resolve {name}", ["hierarchy", path, "--resolve", name]
    for name in ("c0", "c3", "c5"):
        yield f"hierarchy context {name}", ["hierarchy", path, "--context", name]
    yield "hierarchy dl", ["hierarchy", path, "--dl"]
    yield "hierarchy dl alphabet", ["hierarchy", path, "--dl", "--alphabet", "64"]
    yield "hierarchy all", ["hierarchy", path, "--resolve", "c20", "--context", "c2",
                            "--dl"]
    yield "hierarchy unknown class", ["hierarchy", path, "--resolve", "nope"]


def _bad_symbol_invocations():
    """(label, argv) pairs: each file reader given a bad symbol."""
    docs = {
        "stream lit int": '{"dictionary": [], "stream": [{"lit": 5}]}',
        "stream lit spaced": '{"dictionary": [], "stream": [{"lit": "a b"}]}',
        "stream chunk spaced": ('{"dictionary": [{"code": "w1", "symbols": ["a", "b c"],'
                                ' "count": 2}], "stream": [{"code": "w1"}]}'),
        "stream chunk not array": ('{"dictionary": [{"code": "w1", "symbols": "ab",'
                                   ' "count": 2}], "stream": [{"code": "w1"}]}'),
        "runs empty symbol": '{"runs": [{"symbols": ["a", ""], "count": 2}]}',
        "runs not array": '{"runs": [{"symbols": "ab", "count": 2}]}',
    }
    for name, doc in docs.items():
        path = _write(name.replace(" ", "_") + ".json", doc)
        yield f"decompress {name}", ["decompress", path, "--out", "back.txt"]


def digests(gen, capsys) -> dict[str, str]:
    """Label -> sha256 of each invocation's exit code, output and writes."""
    out = {}
    for label, argv in chain(_invocations(gen), _machine_invocations(),
                             _number_invocations(), _hierarchy_invocations(),
                             _bad_symbol_invocations()):
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
