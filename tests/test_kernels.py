import random

from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_oracle as oracle
from icmup import kernels


def lcs_oracle(a, b):
    """Independent prefix-table LCS length."""
    n, m = len(a), len(b)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if a[i - 1] == b[j - 1]:
                dp[i][j] = dp[i - 1][j - 1] + 1
            else:
                dp[i][j] = max(dp[i - 1][j], dp[i][j - 1])
    return dp[n][m]


def random_pair(rng, max_len=40, alphabet="ABCDE"):
    a = tuple(rng.choice(alphabet) for _ in range(rng.randrange(max_len + 1)))
    b = tuple(rng.choice(alphabet) for _ in range(rng.randrange(max_len + 1)))
    return a, b


def decoded_table(a, b):
    """The suffix table as the kernel docstring says its columns encode it."""
    n = len(a)
    cols = kernels._suffix_cols(kernels.text_masks(a), n, b)
    return [[(col & ((1 << (n - i)) - 1)).bit_count() for col in cols]
            for i in range(n + 1)]


# Symbol texts of one to three characters over a small set, so "a", "aa"
# and "ab" are distinct symbols that share characters.
SYMBOLS = st.text(alphabet="ab#N", min_size=1, max_size=3)


@st.composite
def text_sequences(draw, count):
    """``count`` sequences over one drawn alphabet."""
    alphabet = draw(st.lists(SYMBOLS, min_size=1, max_size=8, unique=True))

    def sequence():
        size = draw(st.integers(0, 200))
        return tuple(draw(st.lists(st.sampled_from(alphabet),
                                   min_size=size, max_size=size)))

    return [sequence() for _ in range(count)]


class TestSuffixTable:
    def test_against_oracle(self):
        rng = random.Random(11)
        for _ in range(100):
            a, b = random_pair(rng, max_len=150)
            table = decoded_table(a, b)
            assert table == oracle.suffix_table(a, b)
            assert table[0][0] == lcs_oracle(a, b)

    def test_empty_inputs(self):
        assert decoded_table((), ("a",)) == [[0, 0]]
        assert decoded_table(("a",), ()) == [[0], [0]]
        assert kernels.match_pairs((), ("a",)) == []
        assert kernels.match_pairs(("a",), ()) == []
        assert kernels.match_pairs((), ()) == []


class TestMatchPairs:
    @settings(max_examples=300)
    @given(text_sequences(2))
    def test_equals_oracle(self, pair):
        a, b = pair
        assert kernels.match_pairs(a, b) == oracle.match_pairs(a, b)

    def test_count_equals_lcs(self):
        rng = random.Random(13)
        for _ in range(200):
            a, b = random_pair(rng)
            pairs = kernels.match_pairs(a, b)
            assert len(pairs) == lcs_oracle(a, b)

    def test_pairs_are_monotone_matches(self):
        rng = random.Random(17)
        for _ in range(100):
            a, b = random_pair(rng)
            pairs = kernels.match_pairs(a, b)
            for (i1, j1), (i2, j2) in zip(pairs, pairs[1:]):
                assert i1 < i2 and j1 < j2
            assert all(a[i] == b[j] for i, j in pairs)

    def test_leftmost_preference(self):
        assert kernels.match_pairs(("1", "2"), ("1", "1", "2", "2")) == [(0, 0), (1, 2)]

    def test_identical(self):
        a = ("4", "5", "6")
        assert kernels.match_pairs(a, a) == [(0, 0), (1, 1), (2, 2)]

    def test_no_common_symbol(self):
        assert kernels.match_pairs(("a", "b", "a"), ("ab", "c")) == []

    @settings(max_examples=100)
    @given(st.integers(2, 6).flatmap(text_sequences))
    def test_one_mask_table_for_many_sequences(self, sequences):
        # the search matches every candidate against one member's masks, so
        # a call must leave them as it found them
        a, *others = sequences
        masks = kernels.text_masks(a)
        for b in others:
            assert kernels.match_pairs(a, b, masks) == oracle.match_pairs(a, b)
        assert masks == kernels.text_masks(a)



class TestLcsLength:
    @settings(max_examples=200)
    @given(text_sequences(2))
    def test_equals_oracle_and_pairs(self, pair):
        a, b = pair
        masks = kernels.text_masks(a)
        length = kernels.lcs_length(masks, len(a), b)
        assert length == oracle.suffix_table(a, b)[0][0]
        assert length == len(kernels.match_pairs(a, b, masks))
        assert masks == kernels.text_masks(a)

    def test_empty_inputs(self):
        assert kernels.lcs_length({}, 0, ("a",)) == 0
        assert kernels.lcs_length(kernels.text_masks(("a",)), 1, ()) == 0
        assert kernels.lcs_length({}, 0, ()) == 0

    def test_carries_stay_above_the_sequence(self):
        # every symbol of a long b matches and carries past bit n
        a = ("a",) * 3
        assert kernels.lcs_length(kernels.text_masks(a), 3, ("a",) * 500) == 3
        assert kernels.lcs_length(kernels.text_masks(a + ("b",)), 4,
                                  ("b", "a") * 300) == 4
