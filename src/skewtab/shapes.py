"""Partitions, skew shapes, strips, and diagonal concatenation.

Diagrams are drawn in French notation: rows are indexed bottom-up starting
at 1, columns left-to-right starting at 1, so row r of the skew shape
outer/inner occupies columns inner_r+1 .. outer_r. Row 0 is the virtual row
below the diagram where reverse insertion terminates.

`Partition(...)` and `SkewShape(...)` validate their input: they are the
public boundary. `Partition._trusted` and `SkewShape._trusted` skip every
check; internal code uses them only for values it built valid by
construction (a trimmed, weakly decreasing tuple of positive ints; an inner
partition contained in the outer one).

Shapes are values. Equality holds exactly when the part tuples are equal,
the hash is that of the part tuples, and ordering and `repr` read the parts
alone. `__eq__` returns at once when both sides are the same object, and the
hash is computed on first use and kept in a `_hash` slot that takes no part
in equality, order, `repr` or pickling. The cached tables hand out
partitions from `_canonical`, one object per part tuple while it stays in
that bounded cache, so their dict and cache lookups mostly match by
identity; an eviction costs only that shortcut, never a result. The slides
take the partitions of every state they build from the same cache, so a
state's shape costs two cache hits rather than two constructions.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from functools import lru_cache
from operator import ge
from typing import Iterator, NamedTuple

HORIZONTAL = "horizontal"
VERTICAL = "vertical"


class ParseError(ValueError):
    """Raised when a partition, shape, or tableau string is malformed."""


class Cell(NamedTuple):
    row: int
    col: int


@dataclass(frozen=True, order=True, slots=True)
class Partition:
    """A weakly decreasing tuple of positive integers; () is the empty partition.

    Trailing zeros are trimmed on construction, so equality is equality of
    the trimmed part tuples. Ordering is lexicographic on parts. A part that
    is not an int (bools included) is rejected.
    """

    parts: tuple[int, ...] = ()
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        parts = tuple(self.parts)
        if not {int}.issuperset(map(type, parts)):
            raise ValueError(f"non-integer part in {parts}")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        if parts and parts[-1] < 0:
            raise ValueError(f"negative part in {parts}")
        if not all(map(ge, parts, parts[1:])):
            raise ValueError(f"parts not weakly decreasing: {parts}")
        object.__setattr__(self, "parts", parts)

    @classmethod
    def _trusted(cls, parts: tuple[int, ...]) -> "Partition":
        """Internal: parts is already a trimmed weakly decreasing tuple of
        positive ints, so no check runs."""
        p = object.__new__(cls)
        object.__setattr__(p, "parts", parts)
        object.__setattr__(p, "_hash", None)
        return p

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self.parts == other.parts

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self.parts))
        return self._hash

    def __reduce__(self):
        return self.__class__, (self.parts,)

    @classmethod
    def of(cls, *parts: int) -> "Partition":
        return cls(tuple(parts))

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def part(self, i: int) -> int:
        """The i-th part, 1-indexed, 0 beyond the length."""
        if i < 1:
            raise IndexError(f"row index must be positive, got {i}")
        return self.parts[i - 1] if i <= len(self.parts) else 0

    def contains(self, other: "Partition") -> bool:
        """Containment of diagrams: other_i <= self_i for all i."""
        return len(other.parts) <= len(self.parts) and all(map(ge, self.parts, other.parts))

    def conjugate(self) -> "Partition":
        """Transpose the diagram: column lengths become the parts."""
        if not self.parts:
            return Partition()
        return Partition(
            tuple(sum(1 for p in self.parts if p >= c) for c in range(1, self.parts[0] + 1))
        )

    def __str__(self) -> str:
        return format_partition(self)


EMPTY = Partition()

# How many partitions _canonical keeps; a fixed bound on its memory.
_CANONICAL_SIZE = 4096
_canonical = lru_cache(maxsize=_CANONICAL_SIZE)(Partition._trusted)


@dataclass(frozen=True, order=True, slots=True)
class SkewShape:
    """The diagram outer/inner; equality is componentwise on the two partitions.

    Translates of the same cell set (e.g. built by star) are distinct values;
    no translation quotient is applied. Ordering is lexicographic on the
    outer parts, then on the inner parts.
    """

    outer: Partition
    inner: Partition = EMPTY
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("outer", "inner"):
            if not isinstance(getattr(self, name), Partition):
                raise TypeError(f"{name} {getattr(self, name)!r} is not a Partition")
        if not self.outer.contains(self.inner):
            raise ValueError(f"inner {self.inner} not contained in outer {self.outer}")

    @classmethod
    def _trusted(cls, outer: Partition, inner: Partition) -> "SkewShape":
        """Internal: inner is already known to lie inside outer."""
        s = object.__new__(cls)
        object.__setattr__(s, "outer", outer)
        object.__setattr__(s, "inner", inner)
        object.__setattr__(s, "_hash", None)
        return s

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (
            self.outer.parts == other.outer.parts and self.inner.parts == other.inner.parts
        )

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.outer.parts, self.inner.parts)))
        return self._hash

    def __reduce__(self):
        return self.__class__, (self.outer, self.inner)

    @classmethod
    def of(cls, outer, inner=()) -> "SkewShape":
        return cls(Partition(tuple(outer)), Partition(tuple(inner)))

    @property
    def size(self) -> int:
        return self.outer.size - self.inner.size

    @property
    def rows(self) -> int:
        return len(self.outer)

    def row_bounds(self, r: int) -> tuple[int, int]:
        """(inner_r, outer_r): row r holds columns inner_r+1 .. outer_r."""
        return self.inner.part(r), self.outer.part(r)

    def has_cell(self, r: int, c: int) -> bool:
        return r >= 1 and self.inner.part(r) < c <= self.outer.part(r)

    def cells(self) -> tuple[Cell, ...]:
        """All cells, row 1 upward, columns ascending within each row."""
        out = []
        for r in range(1, self.rows + 1):
            lo, hi = self.row_bounds(r)
            out.extend(Cell(r, c) for c in range(lo + 1, hi + 1))
        return tuple(out)

    def is_strip(self, direction: str) -> bool:
        """True if no two cells share a column (horizontal) or row (vertical)."""
        cells = self.cells()
        if direction == HORIZONTAL:
            cols = [c.col for c in cells]
            return len(cols) == len(set(cols))
        if direction == VERTICAL:
            rws = [c.row for c in cells]
            return len(rws) == len(set(rws))
        raise ValueError(f"unknown direction {direction!r}")

    def corners(self) -> tuple[frozenset[Cell], frozenset[Cell]]:
        """(inside, outside): cells with no neighbour below/left resp. above/right."""
        cells = self.cells()
        inside = frozenset(
            c for c in cells if not self.has_cell(c.row - 1, c.col) and not self.has_cell(c.row, c.col - 1)
        )
        outside = frozenset(
            c for c in cells if not self.has_cell(c.row + 1, c.col) and not self.has_cell(c.row, c.col + 1)
        )
        return inside, outside

    def conjugate(self) -> "SkewShape":
        return SkewShape(self.outer.conjugate(), self.inner.conjugate())

    def __str__(self) -> str:
        return format_shape(self)


def _refuse(self, name, *value):
    """__setattr__ and __delattr__ of both shape classes: those that dataclass(frozen=True,
    slots=True) makes refer to the class from before the slots copy and raise TypeError."""
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


Partition.__setattr__ = Partition.__delattr__ = SkewShape.__setattr__ = SkewShape.__delattr__ = _refuse


def star(a: SkewShape, b: SkewShape) -> SkewShape:
    """Place a above-left of b so rows and columns stay independent.

    b keeps rows 1..len(b.outer), translated right so its inner top-left
    column sits just past a's bottom row; a is stacked on top. The product of
    the corresponding skew Schur functions is the skew Schur function of the
    result. An argument that is not a SkewShape raises TypeError.
    """
    if not (isinstance(a, SkewShape) and isinstance(b, SkewShape)):
        _require_type(SkewShape, a=a, b=b)  # names the bad one; products call this hot
    if not b.outer.parts:
        return a
    if not a.outer.parts:
        return b
    lb = len(b.outer)
    shift = a.outer.parts[0] - b.inner.part(lb)
    outer = tuple(p + shift for p in b.outer.parts) + a.outer.parts
    inner = tuple(b.inner.part(i) + shift for i in range(1, lb + 1)) + a.inner.parts
    # Valid by construction: every shifted row of b starts right of column
    # a_1 (its top row at a_1 + 1) and ends no further left than it starts.
    return SkewShape._trusted(Partition._trusted(outer), Partition._trusted(inner))


def _partitions_between(lo: tuple[int, ...], hi: tuple[int, ...], size: int) -> Iterator[Partition]:
    """Every partition p of size with lo_i <= p_i <= hi_i in each row i and
    no part beyond the rows of hi, in lexicographic order of parts. lo may
    be shorter than hi; its missing rows are 0.

    Rows are filled bottom-up, each with its smallest value first, from an
    explicit stack: parts[i] is row i's value and top[i] the largest it may
    still take. A row's range is cut by what the rows above it can hold (the
    suffix sums of lo and hi, and the part just placed times the rows left),
    so a dead branch ends at the row where it appears.
    """
    rows = len(hi)
    lo = (*lo, *(0,) * (rows - len(lo)))
    lo_rest = [0] * (rows + 1)  # lo_rest[i]: the least rows i.. may hold
    hi_rest = [0] * (rows + 1)  # hi_rest[i]: the most rows i.. may hold
    for i in reversed(range(rows)):
        lo_rest[i] = lo_rest[i + 1] + lo[i]
        hi_rest[i] = hi_rest[i + 1] + hi[i]
    if not lo_rest[0] <= size <= hi_rest[0]:
        return
    parts = [0] * rows
    top = [0] * rows
    left = [size] * (rows + 1)  # left[i]: the cells rows i.. must hold
    i = 0
    while True:
        # Give rows i.. their smallest values until the rest must be empty,
        # or stop at the first row left with no value.
        while left[i]:
            r = left[i]
            v = max(lo[i], r - hi_rest[i + 1], -(-r // (rows - i)))
            cap = min(hi[i], r - lo_rest[i + 1], parts[i - 1] if i else r)
            if v > cap:
                break
            parts[i], top[i], left[i + 1] = v, cap, r - v
            i += 1
        else:
            yield Partition._trusted(tuple(parts[:i]))
        # Back up to the last row that can still grow, and grow it by one.
        i -= 1
        while i >= 0 and parts[i] == top[i]:
            i -= 1
        if i < 0:
            return
        parts[i] += 1
        left[i + 1] -= 1
        i += 1


def enumerate_outer_strips(base: Partition, n: int, direction: str) -> tuple[Partition, ...]:
    """All partitions p containing base with p/base a strip of n cells.

    Returned in lexicographic order of parts. A base that is not a Partition
    or an n that is not an int raises TypeError.
    """
    if not isinstance(base, Partition) or type(n) is not int:  # _strata calls this hot
        _require_type(Partition, base=base)
        _require_int(n=n)
    if direction not in (HORIZONTAL, VERTICAL):
        raise ValueError(f"unknown direction {direction!r}")
    if n < 0:
        raise ValueError("strip size must be nonnegative")
    b = base.parts
    if direction == HORIZONTAL:  # the parts interlace: p_1 >= b_1 >= p_2 >= b_2 ...
        hi = (base.part(1) + n, *b)
    else:  # b_i <= p_i <= b_i + 1, in at most n new rows
        hi = (*(p + 1 for p in b), *(1,) * n)
    return tuple(_partitions_between(b, hi, base.size + n))


def enumerate_inner_strips(base: Partition, k: int, direction: str) -> tuple[Partition, ...]:
    """All partitions q inside base with base/q a strip of k cells.

    Returned in lexicographic order of parts. A base that is not a Partition
    or a k that is not an int raises TypeError.
    """
    if not isinstance(base, Partition) or type(k) is not int:  # _strata calls this hot
        _require_type(Partition, base=base)
        _require_int(k=k)
    if direction not in (HORIZONTAL, VERTICAL):
        raise ValueError(f"unknown direction {direction!r}")
    if k < 0:
        raise ValueError("strip size must be nonnegative")
    b = base.parts
    lo = b[1:] if direction == HORIZONTAL else tuple(p - 1 for p in b)
    return tuple(_partitions_between(lo, b, base.size - k))


def _strata(base: SkewShape, n: int, dual: bool = False) -> Iterator[tuple[int, Partition, Partition]]:
    """Every (k, lam_plus, mu_minus) with lam_plus/lam a strip of n - k cells
    and mu/mu_minus a strip of k cells, for base = lam/mu: horizontal outside
    and vertical inside, or the other way round when dual. k ascends, then
    lam_plus and mu_minus each go in lexicographic order."""
    if n < 0:
        raise ValueError("strip size must be nonnegative")
    out_dir, in_dir = (VERTICAL, HORIZONTAL) if dual else (HORIZONTAL, VERTICAL)
    for k in range(n + 1):
        inner = enumerate_inner_strips(base.inner, k, in_dir)
        if not inner:  # mu holds no strip of k cells, so none of more cells
            return
        for lam_plus in enumerate_outer_strips(base.outer, n - k, out_dir):
            for mu_minus in inner:
                yield k, lam_plus, mu_minus


@lru_cache(maxsize=None, typed=True)
def partitions_of_size(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in lexicographic order of parts. An n that is not
    an int raises TypeError, a negative one ValueError: checked on cache
    misses only, as the cache is typed (True never hits the entry for 1)."""
    _require_nonnegative(n=n)
    return tuple(_partitions_between((), (n,) * n, n))


def subpartitions_of_size(p: Partition, size: int) -> tuple[Partition, ...]:
    """All partitions of the given size contained in p, lexicographic order."""
    return tuple(_partitions_between((), p.parts, size))


def superpartitions(p: Partition, added: int) -> tuple[Partition, ...]:
    """All partitions containing p with exactly `added` extra cells."""
    hi = (*(x + added for x in p.parts), *(added,) * added)
    return tuple(_partitions_between(p.parts, hi, p.size + added))


def skew_shapes_up_to(limit_outer: int) -> Iterator[SkewShape]:
    """Every skew shape lam/mu with |lam| <= limit_outer: |lam| ascending,
    then lam in lexicographic order, then |mu| ascending, then mu in
    lexicographic order."""
    for m in range(limit_outer + 1):
        for lam in partitions_of_size(m):
            for mu_size in range(m + 1):
                for mu in subpartitions_of_size(lam, mu_size):
                    yield SkewShape(lam, mu)


def _require_int(**values: int) -> None:
    """Raise TypeError naming the first argument that is not an int (bools
    included)."""
    for name, value in values.items():
        if type(value) is not int:
            raise TypeError(f"{name} must be an int, got {value!r}")


def _require_type(kind: type, **values) -> None:
    """Raise TypeError naming the first argument that is not a kind."""
    for name, value in values.items():
        if not isinstance(value, kind):
            raise TypeError(f"{name} {value!r} is not a {kind.__name__}")


def _require_nonnegative(**limits: int) -> None:
    """Raise TypeError naming the first sweep limit not an int (bools
    included), ValueError naming the first negative one."""
    _require_int(**limits)
    for name, value in limits.items():
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")


def format_partition(p: Partition) -> str:
    return ",".join(str(x) for x in p.parts) if p.parts else "∅"


def format_shape(s: SkewShape) -> str:
    if s.inner.parts:
        return f"{format_partition(s.outer)}/{format_partition(s.inner)}"
    return format_partition(s.outer)


def parse_partition(text: str) -> Partition:
    """Parse "3,2,2", compact "322" (single digits only), "" or "∅" as empty.
    A text that is not a str raises TypeError."""
    if not isinstance(text, str):  # the CLI parses every request
        _require_type(str, text=text)
    text = text.strip()
    if text in ("", "∅"):
        return Partition()
    try:
        if "," in text:
            parts = tuple(int(tok) for tok in text.split(","))
        else:
            parts = tuple(int(ch) for ch in text)
        return Partition(parts)
    except ValueError as exc:
        raise ParseError(f"bad partition {text!r}: {exc}") from None


def parse_shape(text: str) -> SkewShape:
    """Parse "3,2,2/1,1", compact "322/11", or a bare outer partition. A text
    that is not a str raises TypeError."""
    if not isinstance(text, str):  # the CLI parses every request
        _require_type(str, text=text)
    text = text.strip()
    if text.count("/") > 1:
        raise ParseError(f"bad shape {text!r}: more than one '/'")
    outer_text, _, inner_text = text.partition("/")
    try:
        return SkewShape(parse_partition(outer_text), parse_partition(inner_text))
    except ValueError as exc:
        raise ParseError(f"bad shape {text!r}: {exc}") from None
