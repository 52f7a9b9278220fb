"""Row insertion on skew semistandard tableaux, forward and reverse.

Forward insertion bumps upward: the inserted value replaces the leftmost
entry greater than it, which is bumped into the row above; a weakly larger
value appends at the right end of the row. Reverse insertion deletes an
outside corner and cascades downward, replacing the rightmost entry smaller
than the falling value; a value weakly smaller than the whole row lands as a
new cell at the row's left end, and a value falling past row 1 exits in the
virtual row 0.

Every operation returns the new tableau plus a BumpRecord tracing the cells
whose entries changed, one per row touched, bottom row first.

The three public operations (`external_insert`, `internal_insert`,
`reverse_insert`) take a user-built tableau, which may not be semistandard,
so each rebuilds its result through the public `Partition`, `SkewShape` and
`Tableau` constructors and rejects a result that is not a valid filling of a
skew shape. The scratch helpers (`_thaw`, `_bump_in`, `_reverse_from`,
`_freeze`) are shared with the slides in `involution`; `_freeze` builds its
tableau through the trusted constructors, because a slide runs only on a
checked semistandard context, where every step keeps the shape and filling
valid.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .shapes import Cell, Partition, SkewShape
from .tableaux import Tableau

FORWARD = "forward"
REVERSE = "reverse"


class NoInsideCorner(ValueError):
    """The leftmost cell of the requested row has a cell below it or is absent."""


class NotOutsideCorner(ValueError):
    """The requested cell is not deletable from the top-right boundary."""


class InvalidResult(ValueError):
    """A left-end landing would break shape validity or column strictness."""


@dataclass(frozen=True)
class BumpRecord:
    """Trace of one insertion: path cells bottom row first, the entry that
    settled or exited, the row it came from (forward) or landed in (reverse,
    0 meaning it exited below row 1), and the direction."""

    path: tuple[Cell, ...]
    final_entry: int
    landing_row: int
    direction: str


Scratch = tuple[list[int], list[int], list[list[int]]]


def _thaw(t: Tableau) -> Scratch:
    """Scratch lists for t: outer parts, inner parts padded with zeros to the
    outer length, and one list per row."""
    outer, inner = t.shape.outer.parts, t.shape.inner.parts
    return [*outer], [*inner] + [0] * (len(outer) - len(inner)), [list(row) for row in t.rows]


def _freeze(outer: list[int], inner: list[int], rows: list[list[int]]) -> Tableau:
    """The tableau held in scratch, built without checks. Empty top rows are
    dropped, and the zero parts that _thaw and _bump_in pad the inner
    partition with are trimmed."""
    while outer and outer[-1] == 0:
        outer.pop()
        inner.pop()
        rows.pop()
    k = len(inner)
    while k and inner[k - 1] == 0:
        k -= 1
    shape = SkewShape._trusted(Partition._trusted(tuple(outer)), Partition._trusted(tuple(inner[:k])))
    return Tableau._trusted(shape, tuple(tuple(row) for row in rows))


def _checked(t: Tableau) -> Tableau:
    """t rebuilt through the public constructors, which raise ValueError if
    its outer or inner parts do not form a skew shape or a row does not fit."""
    shape = SkewShape(Partition(t.shape.outer.parts), Partition(t.shape.inner.parts))
    return Tableau(shape, t.rows)


def _bump_in(outer: list[int], inner: list[int], rows: list[list[int]], v: int, start: int) -> list[Cell]:
    """Insert v into row `start` and bump upward; returns the path cells."""
    path: list[Cell] = []
    i = start
    while True:
        while i > len(outer):
            outer.append(0)
            inner.append(0)
            rows.append([])
        row = rows[i - 1]
        j = bisect_right(row, v)
        if j == len(row):
            row.append(v)
            outer[i - 1] += 1
            path.append(Cell(i, outer[i - 1]))
            return path
        v, row[j] = row[j], v
        path.append(Cell(i, inner[i - 1] + j + 1))
        i += 1


def _reverse_from(
    outer: list[int], inner: list[int], rows: list[list[int]], r0: int
) -> tuple[list[Cell], int, int]:
    """Delete the corner at the right end of row r0 and cascade downward.

    Returns (path cells bottom first, final entry, landing row).
    """
    v = rows[r0 - 1].pop()
    col0 = outer[r0 - 1]
    outer[r0 - 1] -= 1
    path = [Cell(r0, col0)]
    i = r0 - 1
    while i >= 1:
        row = rows[i - 1]
        j = bisect_left(row, v) - 1
        if j < 0:
            col = inner[i - 1]
            if col < 1:
                raise InvalidResult(f"no column left of row {i} for entry {v}")
            if i < len(inner) and inner[i] >= col:
                raise InvalidResult(f"left-end landing at ({i},{col}) breaks the inner shape")
            if i < len(outer) and inner[i] < col <= outer[i] and rows[i][col - inner[i] - 1] <= v:
                raise InvalidResult(f"left-end landing at ({i},{col}) breaks column strictness")
            row.insert(0, v)
            inner[i - 1] -= 1
            path.append(Cell(i, col))
            path.reverse()
            return path, v, i
        v, row[j] = row[j], v
        path.append(Cell(i, inner[i - 1] + j + 1))
        i -= 1
    path.reverse()
    return path, v, 0


def external_insert(t: Tableau, k: int) -> tuple[Tableau, BumpRecord]:
    """Insert k into row 1 and bump upward."""
    if k < 1:
        raise ValueError(f"entries must be positive, got {k}")
    outer, inner, rows = _thaw(t)
    path = _bump_in(outer, inner, rows, k, 1)
    return _checked(_freeze(outer, inner, rows)), BumpRecord(tuple(path), k, 0, FORWARD)


def internal_insert(t: Tableau, r: int) -> tuple[Tableau, BumpRecord]:
    """Remove the leftmost cell of row r (an inside corner) and insert its
    entry into row r+1."""
    shape = t.shape
    lo, hi = shape.row_bounds(r)
    if r < 1 or hi <= lo:
        raise NoInsideCorner(f"row {r} has no cells")
    if shape.has_cell(r - 1, lo + 1):
        raise NoInsideCorner(f"cell ({r},{lo + 1}) has a cell below it")
    outer, inner, rows = _thaw(t)
    k = rows[r - 1].pop(0)
    inner[r - 1] += 1
    vacated = Cell(r, inner[r - 1])
    path = [vacated] + _bump_in(outer, inner, rows, k, r + 1)
    return _checked(_freeze(outer, inner, rows)), BumpRecord(tuple(path), k, r, FORWARD)


def reverse_insert(t: Tableau, c: Cell | tuple[int, int]) -> tuple[Tableau, BumpRecord]:
    """Delete the outside corner c and cascade its entry downward."""
    c = Cell(*c)
    _, outside = t.shape.corners()
    if c not in outside:
        raise NotOutsideCorner(f"{tuple(c)} is not an outside corner of {t.shape}")
    outer, inner, rows = _thaw(t)
    path, final, landing = _reverse_from(outer, inner, rows, c.row)
    return _checked(_freeze(outer, inner, rows)), BumpRecord(tuple(path), final, landing, REVERSE)
