"""Output checks that rely on nothing from the code under test.

Each check parses the CLI's stdout and returns a list of problems (empty
when the output is right).  The bit figures are recomputed here from first
principles; no golden snapshot of alignment costs is kept, because the
alignment cost rule is expected to change.
"""

from __future__ import annotations

import itertools
import math
import re

# Printed bit figures have three decimals, halves rounded away from zero.
ROUNDING = 0.0005 + 1e-9


def symbol_bits(alphabet_size: int) -> float:
    """Fixed-length cost of one symbol: log2 A bits, 1 bit when A = 1."""
    return 1.0 if alphabet_size == 1 else math.log2(alphabet_size)


def parse_fields(line: str) -> dict[str, str]:
    return dict(item.split("=", 1) for item in line.split() if "=" in item)


def check_compress(stdout: str, mode: str, symbols: list[str]) -> tuple[list[str], dict]:
    """Check ``compress`` output against the input symbols; return the
    problems and the printed (raw_bits, encoded_bits)."""
    lines = stdout.splitlines()
    if len(lines) < 2:
        return [f"compress {mode}: expected at least 2 lines, got {len(lines)}"], {}
    head, tail = parse_fields(lines[0]), parse_fields(lines[-1])
    problems = []
    n, alphabet = len(symbols), len(set(symbols))
    unit = "chunks" if mode == "chunk" else "runs"
    try:
        if head.get("mode") != mode:
            problems.append(f"compress: mode {head.get('mode')!r} != {mode!r}")
        if int(head["symbols"]) != n:
            problems.append(f"compress {mode}: symbols={head['symbols']} != {n}")
        if int(head["alphabet"]) != alphabet:
            problems.append(f"compress {mode}: alphabet={head['alphabet']} != {alphabet}")
        if int(head[unit]) != len(lines) - 2:
            problems.append(f"compress {mode}: {unit}={head[unit]} but "
                            f"{len(lines) - 2} entry lines")
        raw, encoded = float(tail["raw_bits"]), float(tail["encoded_bits"])
        ratio = float(tail["ratio"])
    except (KeyError, ValueError) as exc:
        return [f"compress {mode}: unparsable output ({exc!r})"], {}
    expected_raw = n * symbol_bits(alphabet)
    if abs(raw - expected_raw) > ROUNDING:
        problems.append(f"compress {mode}: raw_bits={raw} != n*log2(A)={expected_raw:.4f}")
    if encoded < 0 or abs(ratio - encoded / raw) > 2 * ROUNDING:
        problems.append(f"compress {mode}: ratio={ratio} inconsistent with "
                        f"{encoded}/{raw}")
    return problems, {"raw_bits": raw, "encoded_bits": encoded}


def check_decompress(stdout: str, restored: bytes | None, original: bytes,
                     n: int) -> list[str]:
    problems = []
    if parse_fields(stdout.strip()).get("symbols") != str(n):
        problems.append(f"decompress: printed {stdout.strip()!r}, expected symbols={n}")
    if restored is None:
        problems.append("decompress: no output file")
    elif restored != original:
        problems.append("decompress: round trip differs from the input")
    return problems


def lcs_length(a, b) -> int:
    """Longest common subsequence length by the textbook dynamic program."""
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b):
            cur.append(prev[j] + 1 if x == y else max(prev[j + 1], cur[j]))
        prev = cur
    return prev[-1]


def retrieve_cd(query, pattern, frequency: int, total_frequency: int,
                alphabet_size: int) -> float:
    """Pairwise compression difference from the README's cost model: the
    query's fixed-length cost minus (the pattern's code cost -log2(f/F) plus
    log2 A for every query symbol the pattern leaves unmatched)."""
    per_symbol = symbol_bits(alphabet_size)
    unmatched = len(query) - lcs_length(query, pattern)
    cost = -math.log2(frequency / total_frequency) + unmatched * per_symbol
    return len(query) * per_symbol - cost


def check_retrieve(stdout: str, query, sources, patterns, freqs,
                   total_frequency: int, alphabet_size: int, top: int) -> list[str]:
    rows = []
    for line in stdout.splitlines():
        pid, _, cd = line.partition("\t")
        try:
            rows.append((pid, float(cd)))
        except ValueError:
            return [f"retrieve: unparsable line {line!r}"]
    if len(rows) != min(top, len(patterns)):
        return [f"retrieve: {len(rows)} rows, expected {top}"]
    problems = []
    for (_, a), (_, b) in zip(rows, rows[1:]):
        if b > a:
            problems.append(f"retrieve: cd rises down the ranking ({a} then {b})")
    for pid, cd in rows:
        if pid not in patterns:
            problems.append(f"retrieve: unknown pattern {pid!r}")
            continue
        want = retrieve_cd(query, patterns[pid], freqs[pid], total_frequency,
                           alphabet_size)
        if abs(cd - want) > ROUNDING:
            problems.append(f"retrieve: {pid} cd={cd} but the oracle gives {want:.4f}")
    # a phrase the query was spliced from may be missing from the top rows
    # only if it scores no better than the last row printed
    printed = {pid for pid, _ in rows}
    for pid in sources:
        if pid in printed:
            continue
        want = retrieve_cd(query, patterns[pid], freqs[pid], total_frequency,
                           alphabet_size)
        if want > rows[-1][1] + ROUNDING:
            problems.append(f"retrieve: source {pid} (cd {want:.4f}) beats the "
                            f"last printed row ({rows[-1][1]})")
    return problems


HEADER = re.compile(r"alignment=(\d+) cd=(\S+) p=(\S+) rows=(\S+) hits=(\d+)$")


def is_shuffle(steps, pattern, copies: int) -> bool:
    """True if ``steps`` - (symbol, c) per column, c being how many copies of
    the row occupy that column - interleaves ``copies`` copies of
    ``pattern``, each in order."""
    states = {(0,) * copies}
    for symbol, c in steps:
        nxt = set()
        for state in states:
            ready = [i for i, k in enumerate(state)
                     if k < len(pattern) and pattern[k] == symbol]
            for chosen in itertools.combinations(ready, c):
                moved = list(state)
                for i in chosen:
                    moved[i] += 1
                nxt.add(tuple(sorted(moved)))
        states = nxt
        if not states:
            return False
    return (len(pattern),) * copies in states


def _check_one_alignment(header, columns, parse, query, patterns) -> list[str]:
    index, cd, p, rows_text, hits = header
    rows = [] if rows_text == "(none)" else rows_text.split(",")
    tag = f"align #{index}"
    problems = []
    parsed = []
    for k, line in enumerate(columns):
        fields = line.split("\t")
        if len(fields) != 3 or fields[0] != str(k):
            return [f"{tag}: bad column line {line!r}"]
        parsed.append((fields[1], fields[2].split(",")))
    new = [sym for sym, labels in parsed if "new" in labels]
    if new != query:
        problems.append(f"{tag}: the 'new' columns spell {''.join(new)!r}, "
                        f"not the query")
    if sum(1 for _, labels in parsed if len(labels) >= 2) != int(hits):
        problems.append(f"{tag}: hits={hits} disagrees with the column dump")
    for pid, copies in sorted({r: rows.count(r) for r in rows}.items()):
        if pid not in patterns:
            problems.append(f"{tag}: unknown row {pid!r}")
            continue
        steps = [(sym, labels.count(pid)) for sym, labels in parsed if pid in labels]
        if not is_shuffle(steps, patterns[pid], copies):
            problems.append(f"{tag}: the columns of row {pid} do not spell "
                            f"its stored pattern")
    stray = {lab for _, labels in parsed for lab in labels} - set(rows) - {"new"}
    if stray:
        problems.append(f"{tag}: columns name rows {sorted(stray)} not in the header")
    depth = 0
    bare = []
    for token in parse.split():
        if token.endswith("(") and len(token) > 1:
            depth += 1
        elif token == ")":
            depth -= 1
            if depth < 0:
                break
        else:
            bare.append(token)
    if depth != 0 or bare != [sym for sym, _ in parsed]:
        problems.append(f"{tag}: the parse does not bracket the columns")
    return problems


def check_align(stdout: str, query: list[str], patterns, top: int) -> list[str]:
    """Check ``align`` output: cd falls down the ranking, the p values sum
    to 1, and each alignment's columns reproduce the query and every Old
    row's stored pattern in order."""
    blocks = [b for b in stdout.split("\n\n") if b.strip()]
    if not 1 <= len(blocks) <= top:
        return [f"align: {len(blocks)} alignments printed, expected 1..{top}"]
    problems = []
    cds, ps = [], []
    for k, block in enumerate(blocks, start=1):
        lines = block.splitlines()
        match = HEADER.match(lines[0]) if lines else None
        if (match is None or int(match.group(1)) != k or len(lines) < 2
                or not lines[-1].startswith("parse: ")):
            return [f"align: malformed block {k}"]
        try:
            cds.append(float(match.group(2)))
            ps.append(float(match.group(3)))
        except ValueError:
            return [f"align: unparsable figures in block {k}"]
        problems += _check_one_alignment(match.groups(), lines[1:-1],
                                         lines[-1][len("parse: "):], query, patterns)
    for a, b in zip(cds, cds[1:]):
        if b > a:
            problems.append(f"align: cd rises down the ranking ({a} then {b})")
    if abs(sum(ps) - 1.0) > ROUNDING * len(ps):
        problems.append(f"align: p values sum to {sum(ps):.4f}")
    return problems
