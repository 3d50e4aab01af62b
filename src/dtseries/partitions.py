"""Integer partitions as weakly decreasing tuples, and their conjugates."""

from functools import lru_cache


def partitions(n, max_part=None):
    """Yield the partitions of n as weakly decreasing tuples of positive ints."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def partition_list(n):
    """Cached tuple of all partitions of n (used heavily by the localization sums)."""
    return tuple(partitions(n))


def conjugate(parts):
    """Transpose of the Young diagram: column j holds one cell per part > j."""
    conj = [0] * (parts[0] if parts else 0)
    for p in parts:
        for j in range(p):
            conj[j] += 1
    return tuple(conj)
