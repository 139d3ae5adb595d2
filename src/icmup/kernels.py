"""Pairwise match kernel: the longest common subsequence behind alignment.

``match_pairs`` runs the bit-parallel LCS of Allison & Dix (1986), in the
form of Hyyrö (2004), on Python ints, with the bit vectors over ``a``: the
transpose of the usual layout, which keeps masks over ``b`` and makes one
row per symbol of ``a``.  ``text_masks(a)`` holds, for each symbol text, bit
k where ``a[n-1-k]`` has that text (n = len(a)), and the kernel makes one
column vector per symbol of ``b`` (m = len(b)).  Both sequences are scanned
reversed, so with ``dp[i][j] = L(a[i:], b[j:])`` the suffix table (L the LCS
length), bit n-1-i of ``cols[j]`` is set exactly when
``dp[i][j] > dp[i+1][j]``, and the table reads back as

    dp[i][j] = (cols[j] & ((1 << (n - i)) - 1)).bit_count()

The masks depend on ``a`` alone: a caller that matches many sequences
against one builds them once, in O(n) steps, and passes them.  Each column
then costs O(ceil(n / w)) word operations for w-bit machine words, the table
O(m * ceil(n / w)).  The greedy forward walk over the table yields the
leftmost optimal pairing.  At (i, j) it pairs equal heads, steps down ``a``
while ``dp[i][j] == dp[i+1][j]`` (bit n-1-i of ``cols[j]`` clear) and
otherwise steps along ``b``.  One bit search in ``cols[j] | masks[b[j]]``
finds where a run down ``a`` stops, so the walk takes at most m steps of
the same cost as a column.

``lcs_length`` is the same column pass with no table and no walk: it keeps
only the running vector and returns ``cols[0].bit_count()``, the LCS
length ``dp[0][0]``, for a caller that needs the count and not the pairs.
Bits above n, which the additions carry into, never reach the low n bits,
so the vector is cut to n bits once, at the end.
"""


def text_masks(a: tuple[str, ...]) -> dict[str, int]:
    """Symbol text -> the bits k where ``a[len(a)-1-k]`` has that text."""
    masks: dict[str, int] = {}
    for k, text in enumerate(reversed(a)):
        masks[text] = masks.get(text, 0) | (1 << k)
    return masks


def _suffix_cols(masks: dict[str, int], n: int, b: tuple[str, ...]) -> list[int]:
    """``cols[j]`` for j = 0..len(b), encoding ``dp[.][j]`` as above, from the
    masks of a length-n ``a``."""
    full = (1 << n) - 1
    cols = [0] * (len(b) + 1)
    v = full
    for j in range(len(b) - 1, -1, -1):
        u = v & masks.get(b[j], 0)
        v = ((v + u) | (v - u)) & full
        cols[j] = full ^ v
    return cols


def lcs_length(masks: dict[str, int], n: int, b: tuple[str, ...]) -> int:
    """The LCS length of a length-n ``a`` and ``b``, from ``text_masks(a)``:
    ``len(match_pairs(a, b))``, with no table and no walk."""
    v = (1 << n) - 1
    for text in reversed(b):
        u = v & masks.get(text, 0)
        v = (v + u) | (v - u)
    return n - (v & ((1 << n) - 1)).bit_count()


def match_pairs(a: tuple[str, ...], b: tuple[str, ...],
                masks: dict[str, int] | None = None) -> list[tuple[int, int]]:
    """Leftmost maximum set of matched index pairs between two sequences of
    symbol texts; ``masks`` is ``text_masks(a)`` when the caller has it.

    The number of pairs equals the LCS length; pairs are strictly increasing
    in both coordinates.
    """
    if masks is None:
        masks = text_masks(a)
    n, m = len(a), len(b)
    cols = _suffix_cols(masks, n, b)
    pairs: list[tuple[int, int]] = []
    i = j = 0
    while i < n and j < m:
        # the first i' >= i where a[i'] == b[j] or dp[i'][j] > dp[i'+1][j];
        # none means dp[i][j] == 0, so nothing more pairs
        stops = (cols[j] | masks.get(b[j], 0)) & ((1 << (n - i)) - 1)
        if not stops:
            break
        i = n - stops.bit_length()
        # equal heads always extend an LCS, so dp[i][j] == dp[i+1][j+1] + 1
        if a[i] == b[j]:
            pairs.append((i, j))
            i += 1
        j += 1
    return pairs
