"""Integer partitions as weakly decreasing tuples, plus cell statistics."""

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


def cells(parts):
    """Cells (row, col) of the diagram, 0-indexed, row-major."""
    for i, p in enumerate(parts):
        for j in range(p):
            yield (i, j)


def _require_cell(parts, row, col):
    if not (0 <= row < len(parts)) or not (0 <= col < parts[row]):
        raise ValueError(f"cell ({row},{col}) outside diagram {parts!r}")


def arm(parts, row, col):
    """Number of cells strictly right of (row, col) in its row."""
    _require_cell(parts, row, col)
    return parts[row] - col - 1


def leg(parts, row, col):
    """Number of cells strictly below (row, col) in its column."""
    _require_cell(parts, row, col)
    return sum(1 for i in range(row + 1, len(parts)) if parts[i] > col)
