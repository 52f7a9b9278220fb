"""Fillings of skew shapes: semistandard and anti-semistandard tableaux.

A tableau stores one entry tuple per row of its shape, bottom row first,
covering columns inner_r+1 .. outer_r. Entries are positive integers.

`Tableau(...)` and `parse_tableau` store rows as tuples and check the shape's
type, the row count, the row lengths and that entries are positive ints (not
bools): the public boundary. `Tableau._trusted` skips those checks; the
enumerators here and the slide code in `involution` use it for fillings they
built valid by construction. Neither constructor checks semistandardness;
`validate` does, by comparing each row with itself and with the row above it
in `_ordered`, which the slide context check in `involution` calls directly.

`_fillings` and `_lr_walk` are two explicit-slot loops with no helper in
common: `_fillings` feeds the monomial oracle and `_lr_walk` the LR route,
and the checks that compare those routes rely on them sharing no code.
`_lr_walk` yields its live entry and letter-count lists; `lr_fillings`
builds a Tableau from each, and `symfunc` tallies LR tables straight off
the counts, building none.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from operator import ge, gt, le, lt, sub
from typing import Iterator

from .shapes import ParseError, Partition, SkewShape, _require_nonnegative, _require_type, parse_shape

SSYT = "ssyt"
ASSYT = "assyt"


@dataclass(frozen=True)
class Tableau:
    shape: SkewShape
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.shape, SkewShape):
            raise TypeError(f"shape {self.shape!r} is not a SkewShape")
        rows = tuple(map(tuple, self.rows))
        if len(rows) != self.shape.rows:
            raise ValueError(f"{len(rows)} entry rows for a {self.shape.rows}-row shape")
        outer, inner = self.shape.outer.parts, self.shape.inner.parts
        widths = map(sub, outer, inner + (0,) * (len(outer) - len(inner)))
        for r, (row, width) in enumerate(zip(rows, widths), start=1):
            if len(row) != width:
                raise ValueError(f"row {r} has {len(row)} entries, expected {width}")
            if not {int}.issuperset(map(type, row)):
                raise ValueError(f"row {r} has a non-integer entry")
            if row and min(row) < 1:
                raise ValueError(f"row {r} has a nonpositive entry")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _trusted(cls, shape: SkewShape, rows: tuple[tuple[int, ...], ...]) -> "Tableau":
        """Internal: rows already fit shape and hold positive entries."""
        t = object.__new__(cls)
        object.__setattr__(t, "shape", shape)
        object.__setattr__(t, "rows", rows)
        return t

    @classmethod
    def of(cls, outer, inner, *rows) -> "Tableau":
        return cls(SkewShape.of(outer, inner), rows)

    def entry(self, r: int, c: int) -> int | None:
        if not self.shape.has_cell(r, c):
            return None
        return self.rows[r - 1][c - self.shape.inner.part(r) - 1]

    def content(self) -> tuple[int, ...]:
        """Entry multiplicities (count of 1s, of 2s, ...), trailing zeros trimmed."""
        counts = [0] * (max(chain.from_iterable(self.rows), default=0) + 1)
        for x in chain.from_iterable(self.rows):
            counts[x] += 1
        return tuple(counts[1:])

    def __str__(self) -> str:
        return format_tableau(self)


# Per kind: the order each entry must have with its right neighbour, and
# with the entry above it.
_ORDERS = {SSYT: (le, lt), ASSYT: (gt, ge)}


def validate(t: Tableau, kind: str) -> bool:
    """Row/column comparisons for the given convention.

    ssyt: rows weakly increase left-to-right, columns strictly increase upward.
    assyt: rows strictly decrease left-to-right, columns weakly decrease upward.
    A t that is not a Tableau raises TypeError.
    """
    if not isinstance(t, Tableau):
        _require_type(Tableau, t=t)
    if kind not in _ORDERS:
        raise ValueError(f"unknown tableau kind {kind!r}")
    return _ordered(t.rows, t.shape.inner.parts, *_ORDERS[kind])


def _ordered(rows: tuple[tuple[int, ...], ...], inner: tuple[int, ...], along, up) -> bool:
    """validate's loop on a filling's rows and inner parts: along(x, y) must
    hold for each entry x and its right neighbour y, up(x, y) for each entry
    x and the entry y above it."""
    for row in rows:
        if not all(map(along, row, row[1:])):
            return False
    inner = inner + (0,) * (len(rows) - len(inner))
    for r in range(1, len(rows)):
        # From column inner_r + 1 on, row r and the row above it line up cell
        # by cell, and the row above ends first (map stops there).
        if not all(map(up, rows[r - 1], rows[r][inner[r - 1] - inner[r] :])):
            return False
    return True


def enumerate_ssyt(shape: SkewShape, max_entry: int) -> tuple[Tableau, ...]:
    """All SSYT on shape with entries in 1..max_entry.

    Emitted in lexicographic order of the row-concatenated entry sequences.
    A shape that is not a SkewShape, or a max_entry that is not an int
    (bools included), raises TypeError, a negative max_entry ValueError.
    """
    if not isinstance(shape, SkewShape):  # one test each: contexts call this per stratum
        _require_type(SkewShape, shape=shape)
    if type(max_entry) is not int or max_entry < 0:
        _require_nonnegative(max_entry=max_entry)
    return tuple(_fillings(shape, SSYT, max_entry))


def enumerate_fillings(shape: SkewShape, kind: str, max_entry: int) -> Iterator[Tableau]:
    """Fillings of the given kind with entries in 1..max_entry. A shape that
    is not a SkewShape, or a max_entry that is not an int (bools included),
    raises TypeError at the call, a negative max_entry ValueError."""
    _require_type(SkewShape, shape=shape)
    if kind not in (SSYT, ASSYT):
        raise ValueError(f"unknown tableau kind {kind!r}")
    _require_nonnegative(max_entry=max_entry)
    return _fillings(shape, kind, max_entry)


def _fillings(shape: SkewShape, kind: str, max_entry: int) -> Iterator[Tableau]:
    """Cells go row by row from row 1, left to right, each smallest value
    first, so fillings come in lexicographic order of their rows. left[i]
    and below[i] are the slots of cell i's neighbours, or the sentinel slot
    n, whose value bounds nothing. A cell's values form one range, so a
    placed cell grows by one until it reaches top[i].
    """
    ssyt = kind == SSYT
    cells = shape.cells()
    n = len(cells)
    slot = {cell: i for i, cell in enumerate(cells)}
    left = [slot.get((r, c - 1), n) for r, c in cells]
    below = [slot.get((r - 1, c), n) for r, c in cells]
    widths = [hi - lo for lo, hi in map(shape.row_bounds, range(1, shape.rows + 1))]
    spans = [(end - w, end) for w, end in zip(widths, accumulate(widths))]
    vals = [0] * n + [0 if ssyt else max_entry + 1]
    top = [0] * n
    i = 0
    while True:
        # Give cells i.. their smallest values, or stop at the first cell
        # left with no value.
        while i < n:
            a, b = vals[left[i]], vals[below[i]]
            v, cap = (max(a, b + 1), max_entry) if ssyt else (1, min(a - 1, b))
            if v > cap:
                break
            vals[i], top[i] = v, cap
            i += 1
        else:
            yield Tableau._trusted(shape, tuple(tuple(vals[s:e]) for s, e in spans))
        # Back up to the last cell that can still grow, and grow it by one.
        i -= 1
        while i >= 0 and vals[i] == top[i]:
            i -= 1
        if i < 0:
            return
        vals[i] += 1
        i += 1


def reading_word(t: Tableau) -> tuple[int, ...]:
    """Rows right-to-left, bottom row first (top row of the page last). A t
    that is not a Tableau raises TypeError."""
    _require_type(Tableau, t=t)
    word: list[int] = []
    for row in t.rows:
        word.extend(reversed(row))
    return tuple(word)


def reverse_reading_word(t_minus: Tableau, t_plus: Tableau) -> tuple[int, ...]:
    """Pair word: t_minus by columns bottom-to-top, rightmost column first,
    then t_plus by rows right-to-left, bottom row first."""
    word: list[int] = []
    shape = t_minus.shape
    if shape.rows:
        for c in range(shape.outer.parts[0], 0, -1):
            for r in range(1, shape.rows + 1):
                x = t_minus.entry(r, c)
                if x is not None:
                    word.append(x)
    word.extend(reading_word(t_plus))
    return tuple(word)


def is_yamanouchi(word: tuple[int, ...], tau: Partition = Partition()) -> bool:
    """True if every prefix, after seeding counts with tau, has #i >= #(i+1).
    A tau that is not a Partition, a word that is not iterable or a letter
    that is not an int (bools included) raises TypeError, a letter below 1
    ValueError."""
    _require_type(Partition, tau=tau)
    try:
        letters = tuple(word)
    except TypeError:
        raise TypeError(f"word {word!r} is not an iterable of ints") from None
    for x in letters:
        if type(x) is not int:
            raise TypeError(f"word {word!r} has a letter that is not an int: {x!r}")
        if x < 1:
            raise ValueError(f"word {word!r} has a letter below 1: {x}")
    counts: dict[int, int] = {i: p for i, p in enumerate(tau.parts, start=1)}
    for x in letters:
        counts[x] = counts.get(x, 0) + 1
        if counts[x] > counts.get(x - 1, 0) and x > 1:
            return False
    return True


def lr_fillings(shape: SkewShape) -> Iterator[Tableau]:
    """All LR fillings of shape, generated by lattice-pruned backtracking
    (`_lr_walk`). A shape that is not a SkewShape raises TypeError."""
    if not isinstance(shape, SkewShape):
        _require_type(SkewShape, shape=shape)
    widths = [hi - lo for lo, hi in map(shape.row_bounds, range(1, shape.rows + 1))]
    spans = [(end - w, end) for w, end in zip(widths, accumulate(widths))]
    return (
        Tableau._trusted(shape, tuple(tuple(vals[s:e][::-1]) for s, e in spans))
        for vals, _ in _lr_walk(shape)
    )


def _lr_walk(shape: SkewShape) -> Iterator[tuple[list[int], list[int]]]:
    """The LR fillings of shape as the backtracker's live state (vals,
    counts): vals[i] is the entry of cell i in reading-word order, and
    counts[v] for v >= 1 the number of v's placed, so counts[1:] is the
    filling's content padded with zeros to shape.rows. Both lists are
    overwritten when the next item is drawn.

    Cells are filled in reading-word order (row 1 right-to-left, then row 2,
    ...), so the Yamanouchi condition prunes each placement immediately.
    Cell i in row r takes a value in below + 1 .. min(right, r), skipping any
    that would outnumber its predecessor in the word so far. right[i] and
    below[i] are the slots of its neighbours, or sentinel slots holding
    shape.rows (no right) and 0 (no below).
    """
    bounds = list(map(shape.row_bounds, range(1, shape.rows + 1)))
    order = [(r, c) for r, (lo, hi) in enumerate(bounds, start=1) for c in range(hi, lo, -1)]
    n = len(order)
    slot = {cell: i for i, cell in enumerate(order)}
    right = [slot.get((r, c + 1), n + 1) for r, c in order]
    below = [slot.get((r - 1, c), n) for r, c in order]
    vals = [0] * n + [0, shape.rows]
    counts = [n + 1] + [0] * shape.rows  # counts[0] outnumbers any count: 1 is never skipped
    i = v = 0
    while True:
        # Give cells i.. their smallest admissible values, from v on for cell
        # i, or stop at the first cell left with none.
        while i < n:
            v = max(v, vals[below[i]] + 1)
            cap = min(vals[right[i]], order[i][0])
            while v <= cap and counts[v] >= counts[v - 1]:
                v += 1
            if v > cap:
                break
            vals[i] = v
            counts[v] += 1
            i, v = i + 1, 0
        else:
            yield vals, counts
        # Take back the last placed value and resume that cell past it.
        i -= 1
        if i < 0:
            return
        v = vals[i]
        counts[v] -= 1
        v += 1


def format_tableau(t: Tableau) -> str:
    rows = "".join("[" + ",".join(str(x) for x in row) + "]" for row in t.rows)
    return f"{t.shape}: {rows}"


def parse_tableau(text: str) -> Tableau:
    """Parse "431/1: [1,2,7][3,3,5][5]" (rows bottom-to-top). A text that is
    not a str raises TypeError."""
    if not isinstance(text, str):  # the CLI parses every request
        _require_type(str, text=text)
    head, sep, body = text.partition(":")
    if not sep:
        raise ParseError(f"bad tableau {text!r}: missing ':'")
    shape = parse_shape(head)
    body = body.strip()
    rows: list[tuple[int, ...]] = []
    if body:
        if not (body.startswith("[") and body.endswith("]")):
            raise ParseError(f"bad tableau {text!r}: rows must be bracketed")
        for chunk in body[1:-1].split("]["):
            chunk = chunk.strip()
            try:
                rows.append(tuple(int(tok) for tok in chunk.split(",")) if chunk else ())
            except ValueError:
                raise ParseError(f"bad tableau {text!r}: bad row {chunk!r}") from None
    try:
        return Tableau(shape, rows)
    except ValueError as exc:
        raise ParseError(f"bad tableau {text!r}: {exc}") from None
