"""Seeded input generators for the four workloads.

Every generator takes a ``random.Random`` and returns plain data (strings,
lists of symbols); nothing here imports ``icmup``.  Input sizes (document
characters, sentence letters, query words) follow a fixed grid that does not
depend on the seed, so that a seed changes the content of the inputs but not
the size mix, and a run that stops partway through the pool still sees a
spread of sizes.
"""

from __future__ import annotations

import itertools
import random

CONSONANTS = "bcdfghjklmnprstvwz"
VOWELS = "aeiou"
GOLDEN = 0.6180339887498949


def size_grid(count: int, lo: int, hi: int) -> list[int]:
    """``count`` sizes spread over [lo, hi] in low-discrepancy order: every
    prefix of the list covers the range roughly evenly."""
    return [lo + round((hi - lo) * ((0.5 + k * GOLDEN) % 1.0)) for k in range(count)]


def _word(rng: random.Random, length: int) -> str:
    start = rng.randrange(2)
    return "".join(rng.choice(VOWELS if (k + start) % 2 else CONSONANTS)
                   for k in range(length))


def make_words(rng: random.Random, count: int, min_len: int, max_len: int) -> list[str]:
    """``count`` distinct pronounceable lowercase words."""
    words: dict[str, None] = {}
    while len(words) < count:
        words.setdefault(_word(rng, rng.randint(min_len, max_len)))
    return list(words)


def ranked_words(rng: random.Random, count: int, min_len: int, max_len: int) -> list[str]:
    """``count`` distinct words whose lengths, by rank, follow the fixed
    ``size_grid`` pattern: the seed changes the letters but not which ranks
    are long.  The most frequent words shape every document of a prose
    pool, so drawing their lengths at random moves the pool's compression
    ratio by about 12% from seed to seed."""
    words: dict[str, None] = {}
    for length in size_grid(count, min_len, max_len):
        word = _word(rng, length)
        while word in words:
            word = _word(rng, length)
        words[word] = None
    return list(words)


def zipf_cum_weights(count: int, exponent: float = 1.0) -> list[float]:
    return list(itertools.accumulate(1.0 / (rank ** exponent)
                                     for rank in range(1, count + 1)))


def prose_doc(rng: random.Random, vocab: list[str], cum: list[float],
              length: int) -> str:
    """Prose-like text of about ``length`` characters.  Words are joined by
    ``_`` rather than spaces, because character mode drops whitespace and the
    decompressed file must equal the input byte for byte."""
    sentences: list[str] = []
    total = 0
    while total < length:
        words = rng.choices(vocab, cum_weights=cum, k=rng.randint(4, 14))
        words[0] = words[0].capitalize()
        sentence = "_".join(words) + "."
        sentences.append(sentence)
        total += len(sentence) + 1
    return "_".join(sentences)[:length].rstrip("_")


def repeats_doc(rng: random.Random, length: int) -> str:
    """DNA-like text of about ``length`` characters: tandem repeats of short
    ``acgt`` motifs, duplicated paragraphs and short noise.

    Paragraphs come in threes: two fresh ones, then a copy of one of them.
    So a paragraph is copied at most once and never right after another
    copy, and the longest repeat stays about one paragraph long; chained
    copies would make ``discover_chunks`` time swing by 30x between seeds.
    The fixed share of copies keeps the compression ratio of a pool steady
    from seed to seed."""
    def paragraph() -> str:
        parts = []
        target = 60
        size = 0
        while size < target:
            if rng.random() < 0.7:
                motif = "".join(rng.choice("acgt") for _ in range(rng.randint(2, 5)))
                part = motif * rng.randint(2, 8)
            else:
                part = "".join(rng.choice("acgtnxyz") for _ in range(rng.randint(1, 6)))
            parts.append(part)
            size += len(part)
        return "".join(parts)

    paragraphs: list[str] = []
    while sum(len(p) + 1 for p in paragraphs) < length:
        first, second = paragraph(), paragraph()
        paragraphs += [first, second, rng.choice((first, second))]
    return ".".join(paragraphs)[:length].rstrip(".")


# Bracketing patterns of the kittens grammar: number agreement between the
# noun phrase and the verb, with the determiner, noun and verb as
# constituents.
BRACKETS = (
    ("np", "NP D #D N #N #NP"),
    ("npl", "N Np Nr #Nr s #N"),
    ("nsg", "N Ns Nr #Nr #N"),
    ("vpl", "V Vp Vr #Vr #V"),
    ("vsg", "V Vs Vr #Vr s #V"),
    ("s", "S Num ; NP #NP V #V #S"),
    ("numpl", "Num PL ; Np Vp"),
    ("numsg", "Num SG ; Ns Vs"),
)


def kittens_grammar(rng: random.Random, determiners: int, nouns: int,
                    verbs: int) -> tuple[dict[str, tuple[str, ...]], list[str], dict]:
    """A character-level grammar in the style of the kittens example.

    Returns the patterns (id -> symbols), the grammar file lines, and the
    lexicon used to build sentences: ``{"D": [(word, number)], "N": [...],
    "V": [...]}``.
    """
    words = make_words(rng, determiners + nouns + verbs, 3, 7)
    patterns: dict[str, tuple[str, ...]] = {}
    freqs: dict[str, int] = {}
    lexicon: dict[str, list] = {"D": [], "N": [], "V": []}
    serial = itertools.count(1)
    for k, word in enumerate(words):
        num = str(next(serial))
        letters = tuple(word)
        if k < determiners:
            number = "Dp" if k % 2 else "Ds"
            pid, syms = f"d{k + 1}", ("D", number, num) + letters + ("#D",)
            lexicon["D"].append((word, "pl" if number == "Dp" else "sg"))
        elif k < determiners + nouns:
            pid, syms = f"n{k + 1}", ("Nr", num) + letters + ("#Nr",)
            lexicon["N"].append(word)
        else:
            pid, syms = f"v{k + 1}", ("Vr", num) + letters + ("#Vr",)
            lexicon["V"].append(word)
        patterns[pid] = syms
        freqs[pid] = rng.randint(1, 3)
    for pid, text in BRACKETS:
        patterns[pid] = tuple(text.split())
        freqs[pid] = 1
    lines = [f"PATTERN {pid} {freqs[pid]}: {' '.join(syms)}"
             for pid, syms in patterns.items()]
    return patterns, lines, lexicon


def kittens_sentence(rng: random.Random, lexicon: dict, length: int) -> list[str]:
    """A three-word sentence (determiner, noun, verb) with number agreement,
    as a list of letters, as close to ``length`` letters as 200 draws get."""
    best: list[str] = []
    for _ in range(200):
        det, number = rng.choice(lexicon["D"])
        noun = rng.choice(lexicon["N"]) + ("s" if number == "pl" else "")
        verb = rng.choice(lexicon["V"]) + ("" if number == "pl" else "s")
        letters = list(det + noun + verb)
        if not best or abs(len(letters) - length) < abs(len(best) - length):
            best = letters
        if len(best) == length:
            break
    return best


def phrase_store(rng: random.Random, phrases: int, vocab_size: int,
                 min_len: int, max_len: int) -> tuple[dict[str, tuple[str, ...]],
                                                      dict[str, int]]:
    """Word-level phrases over a Zipf vocabulary, with frequencies 1..4."""
    vocab = make_words(rng, vocab_size, 3, 10)
    cum = zipf_cum_weights(vocab_size)
    patterns = {}
    freqs = {}
    for k in range(phrases):
        pid = f"ph{k + 1:04d}"
        patterns[pid] = tuple(rng.choices(vocab, cum_weights=cum,
                                          k=rng.randint(min_len, max_len)))
        freqs[pid] = rng.randint(1, 4)
    return patterns, freqs


def spliced_query(rng: random.Random, patterns: dict[str, tuple[str, ...]],
                  length: int) -> tuple[list[str], tuple[str, str]]:
    """``length`` words: the start of one stored phrase followed by the end
    of another, about half from each; returns the query and the two source
    ids.  Draws pairs until both phrases are long enough."""
    ids = sorted(patterns)
    head = length // 2
    while True:
        a, b = rng.sample(ids, 2)
        pa, pb = patterns[a], patterns[b]
        if len(pa) >= head and len(pb) >= length - head:
            return list(pa[:head] + pb[len(pb) - (length - head):]), (a, b)
