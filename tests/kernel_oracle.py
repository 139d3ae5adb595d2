"""Reference match kernel: the plain O(n*m) dynamic-programming table and
the greedy leftmost walk over it, the oracle that the bit-parallel kernel in
``icmup.kernels`` must equal exactly.
"""


def suffix_table(a, b):
    """``dp[i][j]`` = LCS length of ``a[i:]`` and ``b[j:]``."""
    n, m = len(a), len(b)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for j in range(m - 1, -1, -1):
            best = dp[i + 1][j]
            if dp[i][j + 1] > best:
                best = dp[i][j + 1]
            if a[i] == b[j] and dp[i + 1][j + 1] + 1 > best:
                best = dp[i + 1][j + 1] + 1
            dp[i][j] = best
    return dp


def match_pairs(a, b):
    """Greedy forward walk over the suffix table: the leftmost LCS pairing."""
    dp = suffix_table(a, b)
    n, m = len(a), len(b)
    pairs = []
    i = j = 0
    while i < n and j < m:
        if a[i] == b[j] and dp[i + 1][j + 1] + 1 == dp[i][j]:
            pairs.append((i, j))
            i += 1
            j += 1
        elif dp[i + 1][j] == dp[i][j]:
            i += 1
        else:
            j += 1
    return pairs
