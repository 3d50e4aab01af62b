import random
from itertools import combinations_with_replacement

import pytest

from dtseries.localization import _cell_layout
from oracle_reference import arm, cells, conjugate, leg, partition_list, partitions

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


def rebuilt(layout):
    """The partitions of sizes 0..len(layout) that a cell layout lists, each
    rebuilt as `trace_terms` rebuilds it: its first row's length on the
    smaller partition its entry points to."""
    parts = [[()]]
    for size in layout:
        parts.append([(len(row), *parts[k][i]) for row, k, i in size])
    return parts


def test_cell_layout_lists_the_reference_partitions():
    parts = rebuilt(_cell_layout(20))
    assert [len(p) for p in parts] == P_COUNTS
    assert parts == [list(partition_list(n)) for n in range(21)]


def test_cell_layout_is_in_descending_lexicographic_order():
    # the oracle's trace lists partitions in this order; the reference
    # builds each partition from a multiset of parts, with no recursion
    listed = rebuilt(_cell_layout(12))
    for n in range(13):
        # m parts, each at most n - m + 1; the multisets come out ascending
        want = [parts[::-1] for m in range(n + 1)
                for parts in combinations_with_replacement(range(1, n - m + 2), m)
                if sum(parts) == n]
        assert listed[n] == sorted(want, reverse=True)


def test_cell_layout_rows_hold_first_row_hooks():
    # slot l*(n_max+1) + a per cell of the first row, left to right, with
    # arm a and leg l counted cell by cell; the rest is the partition the
    # entry points to
    for n_max in range(1, 11):
        layout = _cell_layout(n_max)
        parts = rebuilt(layout)
        for k, size in enumerate(layout, 1):
            for lam, (row, r, i) in zip(parts[k], size):
                assert row == [leg(lam, 0, j) * (n_max + 1) + arm(lam, 0, j)
                               for j in range(lam[0])]
                assert parts[r][i] == lam[1:]


def test_cell_layout_carries_no_state_between_calls():
    before = _cell_layout(5)
    _cell_layout(20)
    assert _cell_layout(5) == before


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
