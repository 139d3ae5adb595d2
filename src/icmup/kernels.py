"""Pairwise match kernel: the longest common subsequence behind alignment.

``match_pairs`` runs the bit-parallel LCS of Allison & Dix (1986), in the
form of Hyyrö (2004), on Python ints: one mask per symbol text of ``b`` and
one bit-vector row per symbol of ``a``.  Both sequences are scanned
reversed, so bit k of ``rows[i]`` is set when ``b[m-1-k]`` lengthens a common
subsequence of ``a[i:]`` and the suffix table ``dp[i][j] = L(a[i:], b[j:])``
(L the LCS length, m = len(b)) reads back as

    dp[i][j] = (rows[i] & ((1 << (m - j)) - 1)).bit_count()

Each row costs O(ceil(m / w)) word operations for w-bit machine words, the
table O(n * ceil(m / w)).  The greedy forward walk over the table yields the
leftmost optimal pairing in at most n + m steps of the same cost as a row.
"""


def _suffix_rows(a: tuple[str, ...], b: tuple[str, ...]) -> list[int]:
    """``rows[i]`` for i = 0..len(a), encoding ``dp[i][.]`` as above."""
    full = (1 << len(b)) - 1
    masks: dict[str, int] = {}
    for k, text in enumerate(reversed(b)):
        masks[text] = masks.get(text, 0) | (1 << k)
    rows = [0] * (len(a) + 1)
    v = full
    for i in range(len(a) - 1, -1, -1):
        u = v & masks.get(a[i], 0)
        v = ((v + u) | (v - u)) & full
        rows[i] = full ^ v
    return rows


def match_pairs(a: tuple[str, ...], b: tuple[str, ...]) -> list[tuple[int, int]]:
    """Leftmost maximum set of matched index pairs between two sequences of
    symbol texts.

    The number of pairs equals the LCS length; pairs are strictly increasing
    in both coordinates.
    """
    rows = _suffix_rows(a, b)
    n, m = len(a), len(b)
    pairs: list[tuple[int, int]] = []
    i = j = 0
    while i < n and j < m:
        # equal heads always extend an LCS, so dp[i][j] == dp[i+1][j+1] + 1
        if a[i] == b[j]:
            pairs.append((i, j))
            i += 1
            j += 1
            continue
        low = (1 << (m - j)) - 1
        if (rows[i + 1] & low).bit_count() == (rows[i] & low).bit_count():
            i += 1
        else:
            j += 1
    return pairs
