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
skew shape. The scratch helpers (`_thaw`, `_bump_in`, `_internal_from`,
`_reverse_from`, `_freeze`), shared with the slides in `involution`, work on
a mutable pair (inner, rows) of one inner part and one entry list per row; a
row's right end is read as its inner part plus its length. `_freeze` alone
builds outer parts, and builds its tableau through the trusted constructors,
taking its shape from `shapes._canonical_shape`, so the states of a slide
with equal part tuples share one shape object: a slide runs only on a checked
semistandard context, where every step keeps the shape and filling valid.
The scratch helpers record bumping paths as lists of plain (row, col) pairs;
`Cell`s are built only for the paths that `BumpRecord`s carry out of them.
A tableau argument that is not a `Tableau` raises TypeError, and so does a
`reverse_insert` cell that is not a pair of ints (bools refused).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import starmap
from operator import add

from .shapes import Cell, Partition, SkewShape, _canonical_shape, _require_int, _require_type
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


Scratch = tuple[list[int], list[list[int]]]
Path = list[tuple[int, int]]


def _record(path: Path, final_entry: int, landing_row: int, direction: str) -> BumpRecord:
    """The BumpRecord of a scratch path of (row, col) pairs, its cells built
    as `Cell`s."""
    return BumpRecord(tuple(starmap(Cell, path)), final_entry, landing_row, direction)


def _thaw(t: Tableau) -> Scratch:
    """Scratch pair for t: inner parts padded with zeros to one part per row,
    and one entry list per row."""
    inner = t.shape.inner.parts
    return [*inner] + [0] * (len(t.rows) - len(inner)), list(map(list, t.rows))


def _freeze(inner: list[int], rows: list[list[int]]) -> Tableau:
    """The tableau held in scratch, built without checks. Top rows with no
    cells and no inner part are dropped, each outer part is an inner part plus
    a row length, and the zero parts padding the inner partition are trimmed.
    The shape is one `_canonical_shape` lookup."""
    while rows and not rows[-1] and not inner[-1]:
        rows.pop()
        inner.pop()
    outer = tuple(map(add, inner, map(len, rows)))
    k = len(inner)
    while k and inner[k - 1] == 0:
        k -= 1
    return Tableau._trusted(_canonical_shape(outer, tuple(inner[:k])), tuple(map(tuple, rows)))


def _checked(t: Tableau) -> Tableau:
    """t rebuilt through the public constructors, which raise ValueError if
    its outer or inner parts do not form a skew shape or a row does not fit."""
    shape = SkewShape(Partition(t.shape.outer.parts), Partition(t.shape.inner.parts))
    return Tableau(shape, t.rows)


def _bump_in(inner: list[int], rows: list[list[int]], v: int, start: int) -> Path:
    """Insert v into row `start` and bump upward; returns the path."""
    path: Path = []
    i = start
    while True:
        while i > len(rows):
            inner.append(0)
            rows.append([])
        row = rows[i - 1]
        j = bisect_right(row, v)
        path.append((i, inner[i - 1] + j + 1))
        if j == len(row):
            row.append(v)
            return path
        v, row[j] = row[j], v
        i += 1


def _reverse_from(inner: list[int], rows: list[list[int]], r0: int) -> tuple[Path, int, int]:
    """Delete the corner at the right end of row r0 and cascade downward.

    Returns (path bottom row first, final entry, landing row).
    """
    path = [(r0, inner[r0 - 1] + len(rows[r0 - 1]))]
    v = rows[r0 - 1].pop()
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
            if i < len(rows) and col - inner[i] <= len(rows[i]) and rows[i][col - inner[i] - 1] <= v:
                raise InvalidResult(f"left-end landing at ({i},{col}) breaks column strictness")
            row.insert(0, v)
            inner[i - 1] -= 1
            path.append((i, col))
            path.reverse()
            return path, v, i
        v, row[j] = row[j], v
        path.append((i, inner[i - 1] + j + 1))
        i -= 1
    path.reverse()
    return path, v, 0


def _internal_from(inner: list[int], rows: list[list[int]], r: int) -> tuple[Path, int]:
    """Move row r's leftmost entry into row r+1. Returns (path, the moved
    entry); the path starts where the entry was."""
    k = rows[r - 1].pop(0)
    inner[r - 1] += 1
    return [(r, inner[r - 1])] + _bump_in(inner, rows, k, r + 1), k


def external_insert(t: Tableau, k: int) -> tuple[Tableau, BumpRecord]:
    """Insert k into row 1 and bump upward."""
    if not isinstance(t, Tableau):
        _require_type(Tableau, t=t)
    _require_int(k=k)
    if k < 1:
        raise ValueError(f"entries must be positive, got {k}")
    scratch = _thaw(t)
    path = _bump_in(*scratch, k, 1)
    return _checked(_freeze(*scratch)), _record(path, k, 0, FORWARD)


def internal_insert(t: Tableau, r: int) -> tuple[Tableau, BumpRecord]:
    """Remove the leftmost cell of row r (an inside corner) and insert its
    entry into row r+1."""
    if not isinstance(t, Tableau):
        _require_type(Tableau, t=t)
    _require_int(r=r)
    shape = t.shape
    if r < 1 or (lo := shape.inner.part(r)) >= shape.outer.part(r):
        raise NoInsideCorner(f"row {r} has no cells")
    if shape.has_cell(r - 1, lo + 1):
        raise NoInsideCorner(f"cell ({r},{lo + 1}) has a cell below it")
    scratch = _thaw(t)
    path, k = _internal_from(*scratch, r)
    return _checked(_freeze(*scratch)), _record(path, k, r, FORWARD)


def reverse_insert(t: Tableau, c: Cell | tuple[int, int]) -> tuple[Tableau, BumpRecord]:
    """Delete the outside corner c, a pair of ints, and cascade its entry downward."""
    if not isinstance(t, Tableau):
        _require_type(Tableau, t=t)
    row, col = c if isinstance(c, (tuple, list)) and len(c) == 2 else (None, None)
    if type(row) is not int or type(col) is not int:
        raise TypeError(f"c must be a pair of ints, got {c!r}")
    c = Cell(row, col)
    _, outside = t.shape.corners()
    if c not in outside:
        raise NotOutsideCorner(f"{tuple(c)} is not an outside corner of {t.shape}")
    scratch = _thaw(t)
    path, final, landing = _reverse_from(*scratch, c.row)
    return _checked(_freeze(*scratch)), _record(path, final, landing, REVERSE)
