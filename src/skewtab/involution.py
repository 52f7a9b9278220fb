"""Downward and upward slides on strip-decorated skew tableaux.

A slide context holds a base shape lam/mu together with an SSYT on
lam_plus/mu_minus, where lam_plus/lam is a horizontal strip and mu/mu_minus
is a vertical strip. The downward slide moves one cell from the outer strip
to the inner strip; the upward slide moves one back. Off its fixed points,
phi pairs each context with one of opposite inner-strip parity and equal
content; its fixed points carry exactly one horizontal strip row and
correspond to tableaux on the diagonal concatenation star(base, (n)).

Each context is checked once. `SlideContext(...)` checks its fields' types,
both strips and semistandardness: the public boundary; every context that `phi`,
`downward_slide`, `upward_slide` and `star_to_fixed_point` return is built
through it. `SlideContext._trusted` skips the check; `enumerate_contexts`
uses it for the contexts it builds valid by construction. Slides build their
tableaux from scratch lists with the trusted `insertion._freeze`; only when
a check fails, and for the states a trace records, are they rebuilt through
the public constructors, so a slide applied off its domain fails with the
same error as when every state was built through them, or, for an upward
slide about to move a cell that is no inside corner, with `NoUpwardPath`.

Slides walk the strips by row: a reverse insertion reads only the row of the
corner it deletes, so the outer strip is walked as a run of row indices, and
phi reads the inner strip's bottom row off the part tuples. Scratch paths
are plain (row, col) pairs; `Cell`s are built only for the paths that
`BumpRecord`s carry: the records `downward_path` and `upward_path` return
and those of a traced slide's steps. The upward slide compares each trial
path with the upward path through one column per row, built once per slide.
The fixed-point maps build the one-row factor (m) of star(base, (m))
unchecked. A context argument that is not a `SlideContext` raises TypeError.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count, repeat
from operator import ge, sub
from typing import Iterator

from .insertion import (
    FORWARD,
    REVERSE,
    BumpRecord,
    Scratch,
    _bump_in,
    _checked,
    _freeze,
    _internal_from,
    _record,
    _reverse_from,
    _thaw,
)
from .shapes import (
    EMPTY,
    Cell,
    SkewShape,
    _canonical,
    _require_int,
    _require_nonnegative,
    _require_type,
    _strata,
    skew_shapes_up_to,
    star,
)
from .tableaux import SSYT, Tableau, enumerate_ssyt, validate


class NoUpwardPath(ValueError):
    """Upward slide requested but the inner strip is empty, or the slide would
    move a cell that is no inside corner (phi slides such a context down)."""


class NotFixedPoint(ValueError):
    """Fixed-point conversion requested off the fixed-point locus."""


def _is_horizontal_strip(big: tuple[int, ...], small: tuple[int, ...]) -> bool:
    """big/small is a horizontal strip of partitions: the parts interlace,
    big_1 >= small_1 >= big_2 >= small_2 >= ... (small a partition)."""
    if not len(small) <= len(big) <= len(small) + 1:
        return False
    return all(map(ge, big, small)) and all(map(ge, small, big[1:]))


def _is_vertical_strip(big: tuple[int, ...], small: tuple[int, ...]) -> bool:
    """big/small is a vertical strip of partitions: 0 <= big_i - small_i <= 1
    for every i, and small weakly decreases (big a partition)."""
    if len(small) > len(big):
        return False
    padded = small + (0,) * (len(big) - len(small))
    return {0, 1}.issuperset(map(sub, big, padded)) and all(map(ge, small, small[1:]))


@dataclass(frozen=True)
class SlideContext:
    base: SkewShape
    tableau: Tableau

    def __post_init__(self) -> None:
        if not isinstance(self.base, SkewShape):
            raise TypeError(f"base {self.base!r} is not a SkewShape")
        if not isinstance(self.tableau, Tableau):
            raise TypeError(f"tableau {self.tableau!r} is not a Tableau")
        lam, mu = self.base.outer, self.base.inner
        lam_plus, mu_minus = self.tableau.shape.outer, self.tableau.shape.inner
        if not _is_horizontal_strip(lam_plus.parts, lam.parts):
            raise ValueError(f"{lam_plus}/{lam} is not a horizontal strip")
        if not _is_vertical_strip(mu.parts, mu_minus.parts):
            raise ValueError(f"{mu}/{mu_minus} is not a vertical strip")
        if not validate(self.tableau, SSYT):
            raise ValueError("tableau is not semistandard")

    @classmethod
    def _trusted(cls, base: SkewShape, tableau: Tableau) -> "SlideContext":
        """Internal: tableau is already known to be an SSYT whose shape
        decorates base with a horizontal and a vertical strip."""
        ctx = object.__new__(cls)
        object.__setattr__(ctx, "base", base)
        object.__setattr__(ctx, "tableau", tableau)
        return ctx

    @property
    def n(self) -> int:
        return self.outer_strip.size + self.inner_strip.size

    @property
    def outer_strip(self) -> SkewShape:
        return SkewShape._trusted(self.tableau.shape.outer, self.base.outer)

    @property
    def inner_strip(self) -> SkewShape:
        return SkewShape._trusted(self.base.inner, self.tableau.shape.inner)


@dataclass(frozen=True)
class SlideStep:
    kind: str  # "reverse", "internal", or "external"
    record: BumpRecord
    tableau: Tableau


def _outer_strip_rows(ctx: SlideContext) -> Iterator[int]:
    """The rows of the cells of lam_plus/lam taken right to left (columns
    descending): row r once per strip cell in it, row 1 upward, since in a
    horizontal strip each row's cells lie right of the next row's."""
    widths = map(sub, ctx.tableau.shape.outer.parts, ctx.base.outer.parts + (0,))
    return chain.from_iterable(map(repeat, count(1), widths))


def _inner_strip_bottom(ctx: SlideContext) -> int:
    """The lowest row of mu/mu_minus, or 0 when the inner strip is empty."""
    mu = ctx.base.inner.parts
    rows = zip(mu, ctx.tableau.shape.inner.parts + (0,) * len(mu))
    return next((r for r, (m, k) in enumerate(rows, start=1) if m > k), 0)


def _copy(scratch: Scratch) -> Scratch:
    inner, rows = scratch
    return [*inner], list(map(list, rows))


def _snap(scratch: Scratch) -> Tableau:
    """A trace step's state, checked as a user-built tableau would be: a
    slide off its domain (`upward_slide` where phi slides down, say) can
    leave a state that is no skew filling."""
    return _checked(_freeze(*_copy(scratch)))


def _slid(base: SkewShape, scratch: Scratch) -> SlideContext:
    """The context whose tableau scratch holds, checked once by SlideContext.
    If that check fails on a state that is no skew filling at all, the public
    constructors' error is raised instead, as if the tableau had been built
    through them."""
    t = _freeze(*scratch)
    try:
        return SlideContext(base, t)
    except ValueError:
        _checked(t)
        raise


def _reverse_outer_strip(
    ctx: SlideContext, scratch: Scratch, steps: list[SlideStep] | None = None
) -> tuple[list[int], BumpRecord | None]:
    """Reverse-insert the outer strip's cells right to left into scratch
    until an entry lands in a row >= 1. Returns the entries that exited
    below row 1, in removal order, and the record of the entry that landed
    (None when every entry exited)."""
    exited: list[int] = []
    for r in _outer_strip_rows(ctx):
        path, final, landing = _reverse_from(*scratch, r)
        if steps is not None:
            steps.append(SlideStep("reverse", _record(path, final, landing, REVERSE), _snap(scratch)))
        if landing >= 1:
            return exited, _record(path, final, landing, REVERSE)
        exited.append(final)
    return exited, None


def _reinsert_exited(scratch: Scratch, exited: list[int], steps: list[SlideStep] | None) -> None:
    """Externally insert the exited entries, the last one exited first."""
    for k in reversed(exited):
        path = _bump_in(*scratch, k, 1)
        if steps is not None:
            steps.append(SlideStep("external", _record(path, k, 0, FORWARD), _snap(scratch)))


def downward_path(ctx: SlideContext) -> BumpRecord | None:
    """Reverse-insert the outer strip right to left on a scratch copy; the
    path of the first entry to land in a row >= 1, if any."""
    return _reverse_outer_strip(ctx, _thaw(ctx.tableau))[1]


def upward_path(ctx: SlideContext) -> BumpRecord | None:
    """The bumping path that internal insertion of the inner strip's bottom
    cell would follow; absent when the inner strip is empty."""
    r = _inner_strip_bottom(ctx)
    if not r:
        return None
    path, k = _internal_from(*_thaw(ctx.tableau), r)
    return _record(path, k, r, FORWARD)


def _staircase(up_path: tuple[Cell, ...], rows: int) -> list[int]:
    """The upward path's column in each row 1..rows, at index row - 1: the
    path runs through consecutive rows and is extended above its top row by
    its top column. A cell sits weakly right of the path when its column is
    at least its row's entry. Rows below its bottom row r hold 0: they keep
    mu's parts, each at least mu_r, the path's bottom column, so no cell of
    a reverse path there, landing cells included, sits left of the path.

    The extension above matters: a reverse path wholly above the upward path
    must not count as weakly right (it has drifted left past the staircase's
    head), or the involution breaks.
    """
    bottom, top = up_path[0], up_path[-1]
    return [0] * (bottom.row - 1) + [c.col for c in up_path] + [top.col] * (rows - top.row)


def downward_slide(ctx: SlideContext, steps: list[SlideStep] | None = None) -> SlideContext:
    """Reverse-insert the outer strip right to left until an entry lands in a
    row >= 1, then re-insert the exited entries in reverse removal order."""
    if not isinstance(ctx, SlideContext):
        _require_type(SlideContext, ctx=ctx)
    scratch = _thaw(ctx.tableau)
    exited, _ = _reverse_outer_strip(ctx, scratch, steps)
    _reinsert_exited(scratch, exited, steps)
    return _slid(ctx.base, scratch)


def upward_slide(ctx: SlideContext, steps: list[SlideStep] | None = None) -> SlideContext:
    """Reverse-insert outer strip cells while their paths stay weakly right of
    the upward path (fixed from the input), internally insert the inner
    strip's bottom entry, then re-insert the exited entries. Raises
    NoUpwardPath if that entry's cell is then no inside corner."""
    if not isinstance(ctx, SlideContext):
        _require_type(SlideContext, ctx=ctx)
    up_rec = upward_path(ctx)
    if up_rec is None:
        raise NoUpwardPath(f"inner strip of {ctx.base} is already empty")

    scratch = _thaw(ctx.tableau)
    stair = _staircase(up_rec.path, len(scratch[1]))
    exited: list[int] = []
    for r in _outer_strip_rows(ctx):
        trial = _copy(scratch)
        path, final, landing = _reverse_from(*trial, r)
        if any(col < stair[row - 1] for row, col in path):  # left of the upward path
            break
        scratch = trial
        if steps is not None:
            steps.append(SlideStep("reverse", _record(path, final, landing, REVERSE), _snap(scratch)))
        if landing >= 1:
            break
        exited.append(final)

    r, inner = up_rec.landing_row, scratch[0]
    if r > 1 and inner[r - 2] <= inner[r - 1]:  # row r's first cell has a cell below it
        raise NoUpwardPath(f"upward slide does not apply: row {r} has no inside corner")
    path, k = _internal_from(*scratch, r)
    if steps is not None:
        steps.append(SlideStep("internal", _record(path, k, r, FORWARD), _snap(scratch)))
    _reinsert_exited(scratch, exited, steps)
    return _slid(ctx.base, scratch)


def phi(ctx: SlideContext, steps: list[SlideStep] | None = None) -> SlideContext:
    """Downward slide when there is no upward path or the downward path lands
    strictly below the inner strip's bottom cell; upward slide otherwise."""
    if not isinstance(ctx, SlideContext):
        _require_type(SlideContext, ctx=ctx)
    if ctx.tableau.shape.inner == ctx.base.inner:  # empty inner strip: no upward path
        return downward_slide(ctx, steps)
    down = downward_path(ctx)
    if down is not None and down.landing_row < _inner_strip_bottom(ctx):
        return downward_slide(ctx, steps)
    return upward_slide(ctx, steps)


def is_fixed_point(ctx: SlideContext) -> bool:
    """Empty inner strip and no downward path: phi leaves ctx unchanged."""
    if not isinstance(ctx, SlideContext):
        _require_type(SlideContext, ctx=ctx)
    return ctx.tableau.shape.inner == ctx.base.inner and downward_path(ctx) is None


def _one_row(m: int) -> SkewShape:
    """The one-row shape (m) for m >= 1, built without checks."""
    return SkewShape._trusted(_canonical((m,)), EMPTY)


def fixed_point_to_star(ctx: SlideContext) -> Tableau:
    """Send a fixed point to the SSYT on star(base, (n)) whose new bottom row
    holds the exited entries in weakly increasing order and whose upper rows
    are the residual tableau."""
    if not isinstance(ctx, SlideContext):
        _require_type(SlideContext, ctx=ctx)
    scratch = _thaw(ctx.tableau)
    exited, landed = _reverse_outer_strip(ctx, scratch)
    if ctx.tableau.shape.inner != ctx.base.inner or landed is not None:  # not is_fixed_point(ctx)
        raise NotFixedPoint(f"phi moves this context (base {ctx.base})")
    residual = _freeze(*scratch)
    strip_row = tuple(reversed(exited))
    if not strip_row:
        return residual
    return Tableau(star(ctx.base, _one_row(len(strip_row))), (strip_row,) + residual.rows)


def star_to_fixed_point(base: SkewShape, t: Tableau) -> SlideContext:
    """Inverse of fixed_point_to_star: externally insert the bottom strip row.

    Raises ValueError unless t is an SSYT on base or on star(base, (m)) with
    m >= 1, TypeError unless base is a SkewShape and t a Tableau."""
    if not (isinstance(base, SkewShape) and isinstance(t, Tableau)):
        _require_type(SkewShape, base=base)
        _require_type(Tableau, t=t)
    if t.shape == base:
        return SlideContext(base, t)
    strip_row = t.rows[0] if t.rows else ()
    if not strip_row or t.shape != star(base, _one_row(len(strip_row))):
        raise ValueError(f"{t.shape} is not {base} concatenated with one row")
    if not validate(t, SSYT):
        raise ValueError("tableau is not semistandard")
    scratch = _thaw(Tableau._trusted(base, t.rows[1:]))
    for k in strip_row:
        _bump_in(*scratch, k, 1)
    return _slid(base, scratch)


def enumerate_contexts(base: SkewShape, n: int, max_entry: int):
    """All contexts over base with strip sizes summing to n, entries bounded.

    Strata are visited with the outer strip taking n, n-1, ..., 0 cells;
    within a stratum tableaux follow enumerate_ssyt order. All checks run at
    the call: a base that is not a SkewShape, or an n or max_entry that is
    not an int, raises TypeError, and a negative n or max_entry ValueError.
    """
    if not isinstance(base, SkewShape):
        _require_type(SkewShape, base=base)
    _require_int(n=n)
    _require_nonnegative(max_entry=max_entry)
    if n < 0:
        raise ValueError("strip size must be nonnegative")
    return (
        SlideContext._trusted(base, t)
        for _, lam_plus, mu_minus in _strata(base, n)
        for t in enumerate_ssyt(SkewShape._trusted(lam_plus, mu_minus), max_entry)
    )


def verify_involution(limit_outer: int, limit_n: int, max_entry: int) -> dict:
    """Exhaustively check phi over every base with |outer| <= limit_outer and
    every stratum with n <= limit_n: involutivity, content preservation, sign
    reversal off fixed points, and the fixed-point bijection with star
    tableaux. Returns a JSON-ready report. A limit that is not an int
    raises TypeError, a negative one ValueError."""
    _require_nonnegative(limit_outer=limit_outer, limit_n=limit_n, max_entry=max_entry)
    failures: list[str] = []
    contexts = 0
    cases = 0
    for base in skew_shapes_up_to(limit_outer):
        for n in range(limit_n + 1):
            cases += 1
            fixed = 0
            for ctx in enumerate_contexts(base, n, max_entry):
                contexts += 1
                image = phi(ctx)
                back = phi(image)
                if back != ctx:
                    failures.append(f"phi not involutive at {ctx.tableau} over {base}")
                    continue
                if image.tableau.content() != ctx.tableau.content():
                    failures.append(f"content changed at {ctx.tableau} over {base}")
                if image == ctx:
                    fixed += 1
                    if not is_fixed_point(ctx):
                        failures.append(f"unexpected fixed point {ctx.tableau} over {base}")
                    star_t = fixed_point_to_star(ctx)
                    if star_to_fixed_point(base, star_t) != ctx:
                        failures.append(f"star round trip failed at {ctx.tableau} over {base}")
                else:
                    if is_fixed_point(ctx):
                        failures.append(f"fixed point moved: {ctx.tableau} over {base}")
                    if abs(image.tableau.shape.inner.size - ctx.tableau.shape.inner.size) != 1:
                        failures.append(f"sign not reversed at {ctx.tableau} over {base}")
            star_count = len(enumerate_ssyt(star(base, SkewShape.of((n,))), max_entry))
            if fixed != star_count:
                failures.append(
                    f"fixed points ({fixed}) != star tableaux ({star_count}) for {base}, n={n}"
                )
    return {
        "limit_outer": limit_outer,
        "limit_n": limit_n,
        "max_entry": max_entry,
        "cases": cases,
        "contexts": contexts,
        "failures": failures,
    }
