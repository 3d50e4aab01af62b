import random
from itertools import combinations_with_replacement

import pytest

from dtseries.localization import partition_list, partitions
from oracle_reference import arm, cells, conjugate, leg

# p(0)..p(20), classical values
P_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231, 297, 385, 490, 627]


def test_partition_counts():
    for n, want in enumerate(P_COUNTS):
        assert len(partition_list(n)) == want


def test_partitions_are_sorted_and_sum():
    for n in range(12):
        seen = set()
        for lam in partitions(n):
            assert sum(lam) == n
            assert all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))
            assert lam not in seen
            seen.add(lam)


def test_partition_list_is_in_descending_lexicographic_order():
    # the oracle's trace lists partitions in this order; the reference
    # builds each partition from a multiset of parts, with no recursion
    for n in range(13):
        # m parts, each at most n - m + 1; the multisets come out ascending
        want = [parts[::-1] for m in range(n + 1)
                for parts in combinations_with_replacement(range(1, n - m + 2), m)
                if sum(parts) == n]
        assert partition_list(n) == tuple(sorted(want, reverse=True))


def test_conjugate_involution():
    for n in range(10):
        for lam in partitions(n):
            mu = conjugate(lam)
            assert sum(mu) == n
            assert conjugate(mu) == lam


def test_cells_count():
    assert sorted(cells((2, 1))) == [(0, 0), (0, 1), (1, 0)]
    for n in range(8):
        for lam in partitions(n):
            assert len(list(cells(lam))) == n


def test_arm_leg_against_direct_count():
    rng = random.Random(5)
    pool = [lam for n in range(1, 11) for lam in partitions(n)]
    for _ in range(100):
        lam = rng.choice(pool)
        i, j = rng.choice(list(cells(lam)))
        assert arm(lam, i, j) == sum(1 for (r, c) in cells(lam) if r == i and c > j)
        assert leg(lam, i, j) == sum(1 for (r, c) in cells(lam) if c == j and r > i)


def test_bad_cells_raise():
    with pytest.raises(ValueError):
        arm((3, 1), 0, 3)
    with pytest.raises(ValueError):
        leg((3, 1), 1, 1)
    with pytest.raises(ValueError):
        arm((3, 1), 2, 0)
    with pytest.raises(ValueError):
        leg((), 0, 0)
