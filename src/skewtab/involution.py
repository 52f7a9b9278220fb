"""Downward and upward slides on strip-decorated skew tableaux.

A slide context holds a base shape lam/mu together with an SSYT on
lam_plus/mu_minus, where lam_plus/lam is a horizontal strip and mu/mu_minus
is a vertical strip. The downward slide moves one cell from the outer strip
to the inner strip; the upward slide moves one back. Off its fixed points,
phi pairs each context with one of opposite inner-strip parity and equal
content; its fixed points carry exactly one horizontal strip row and
correspond to tableaux on the diagonal concatenation star(base, (n)).

Each context is checked once, by `_context_error`: the outer strip is
horizontal, the inner strip vertical and the tableau semistandard. The two
strip checks, the predicates of `shapes` behind `SkewShape.is_strip`,
depend on the base and the tableau's shape alone, so they are read, with
the outer strip's walk and the inner strip's bottom row, off
`_strip_facts`, a cache of at most `shapes._CANONICAL_SIZE` (base, shape)
pairs shared by every base; semistandardness is checked on every call.
`SlideContext(...)`, the public boundary, checks its fields' types and then
runs it. Every context that `phi`, `downward_slide`, `upward_slide` and
`star_to_fixed_point` return is checked by `_slid`, which runs the same
function on the tableau that `insertion._freeze` builds from scratch lists
without checks, and builds the context with `SlideContext._trusted` when it
passes. `enumerate_contexts` uses `_trusted` for the contexts it builds
valid by construction. Only when the check fails, and for the states a trace
records, are tableaux rebuilt through the public constructors, so a slide
applied off its domain fails with the same error as when every state was
built through them, or, for an upward slide about to move a cell that is no
inside corner, with `NoUpwardPath`.

Slides walk the strips by row: a reverse insertion reads only the row of the
corner it deletes, so the outer strip is walked as a tuple of row indices,
and phi reads the inner strip's bottom row, 0 when that strip is empty.
`enumerate_contexts` takes each stratum's shape from
`shapes._canonical_shape`, as `insertion._freeze` does for slide results, so
contexts and their images share shape objects and compare by identity.
Scratch paths are plain (row, col) pairs, and the walks return them raw;
`Cell`s and `BumpRecord`s are built only for the records that
`downward_path` and `upward_path` return and those of a traced slide's
steps. phi and `is_fixed_point` read the downward landing row off the raw
walk, and the upward slide compares each trial path with a staircase of
columns, one per row, built once per slide from the raw upward path. Both
fixed-point maps and the sweep's star count read star(base, (m)) from a
one-entry memo, so a sweep builds one star shape per case with m >= 1. A
context argument that is not a `SlideContext` raises TypeError.

An untraced `downward_slide` or `upward_slide` (no `steps`) reads its
image from `_slide_image`, one cache of 512 (context, direction) entries;
a traced slide runs the same body uncached. `verify_involution` calls phi
on each context and on its image, so each 2-cycle {A, B} is slid from
both ends, and the second call of each pair finds its image cached when
the enumeration reaches B: the sweep slides each context once. The largest
(base, n) case of `verify_involution(5, 2, 3)` has 336 contexts, so 512
entries keep every image of a case until it is read again; deeper sweeps
recompute the few images evicted first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, count, repeat
from operator import le, lt, sub

from .insertion import (
    FORWARD,
    REVERSE,
    BumpRecord,
    Path,
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
    _CANONICAL_SIZE,
    EMPTY,
    SkewShape,
    _canonical,
    _canonical_shape,
    _is_horizontal_strip,
    _is_vertical_strip,
    _require_int,
    _require_nonnegative,
    _require_type,
    _strata,
    skew_shapes_up_to,
    star,
)
from .tableaux import SSYT, Tableau, _ordered, enumerate_ssyt, validate


class NoUpwardPath(ValueError):
    """Upward slide requested but the inner strip is empty, or the slide would
    move a cell that is no inside corner (phi slides such a context down)."""


class NotFixedPoint(ValueError):
    """Fixed-point conversion requested off the fixed-point locus."""


@lru_cache(maxsize=_CANONICAL_SIZE)
def _strip_facts(base: SkewShape, shape: SkewShape) -> tuple[tuple[int, ...], int, str | None]:
    """What a slide needs of a tableau shape lam_plus/mu_minus over base
    lam/mu, all of it fixed by the two shapes, so read once per (base,
    shape): the rows of the cells of lam_plus/lam taken right to left
    (columns descending), row r once per strip cell in it, row 1 upward,
    since in a horizontal strip each row's cells lie right of the next
    row's; the lowest row of mu/mu_minus, 0 when that strip is empty; and
    why lam_plus/lam is no horizontal or mu/mu_minus no vertical strip, or
    None when both are.

    The cache spans bases, so a stream that comes back to a base finds its
    facts still there. It holds one entry per (base, tableau shape) that a
    check or a slide reads: 1 205 per `verify_involution(5, 2, 3)` and
    2 751 at (6, 2, 3), the deepest sweep CI runs."""
    lam, mu = base.outer, base.inner
    lam_plus, mu_minus = shape.outer, shape.inner
    widths = map(sub, lam_plus.parts, lam.parts + (0,))
    rows = tuple(chain.from_iterable(map(repeat, count(1), widths)))
    pairs = zip(mu.parts, mu_minus.parts + (0,) * len(mu.parts))
    bottom = next((r for r, (m, k) in enumerate(pairs, start=1) if m > k), 0)
    error = None
    if not _is_horizontal_strip(lam_plus.parts, lam.parts):
        error = f"{lam_plus}/{lam} is not a horizontal strip"
    elif not _is_vertical_strip(mu.parts, mu_minus.parts):
        error = f"{mu}/{mu_minus} is not a vertical strip"
    return rows, bottom, error


def _context_error(base: SkewShape, tableau: Tableau) -> str | None:
    """Why tableau over base is no slide context, or None when it is one: its
    outer strip is horizontal, its inner strip vertical (both read off
    _strip_facts), and it is an SSYT (checked on every call)."""
    error = _strip_facts(base, tableau.shape)[2]
    if error is None and not _ordered(tableau.rows, tableau.shape.inner.parts, le, lt):
        return "tableau is not semistandard"  # validate(tableau, SSYT)
    return error


@dataclass(frozen=True)
class SlideContext:
    base: SkewShape
    tableau: Tableau

    def __post_init__(self) -> None:
        if not isinstance(self.base, SkewShape):
            raise TypeError(f"base {self.base!r} is not a SkewShape")
        if not isinstance(self.tableau, Tableau):
            raise TypeError(f"tableau {self.tableau!r} is not a Tableau")
        error = _context_error(self.base, self.tableau)
        if error is not None:
            raise ValueError(error)

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


def _copy(scratch: Scratch) -> Scratch:
    inner, rows = scratch
    return [*inner], list(map(list, rows))


def _snap(scratch: Scratch) -> Tableau:
    """A trace step's state, checked as a user-built tableau would be: a
    slide off its domain (`upward_slide` where phi slides down, say) can
    leave a state that is no skew filling."""
    return _checked(_freeze(*_copy(scratch)))


def _slid(base: SkewShape, scratch: Scratch) -> SlideContext:
    """The context whose tableau scratch holds, checked once by
    `_context_error`. If that check fails on a state that is no skew filling
    at all, the public constructors' error is raised instead, as if the
    tableau had been built through them; otherwise SlideContext's."""
    t = _freeze(*scratch)
    error = _context_error(base, t)
    if error is None:
        return SlideContext._trusted(base, t)
    _checked(t)
    raise ValueError(error)


def _reverse_outer_strip(
    ctx: SlideContext, scratch: Scratch, steps: list[SlideStep] | None = None
) -> tuple[list[int], tuple[Path, int, int] | None]:
    """Reverse-insert the outer strip's cells right to left into scratch
    until an entry lands in a row >= 1. Returns the entries that exited
    below row 1, in removal order, and the raw (path, final entry, landing
    row) of the entry that landed (None when every entry exited)."""
    exited: list[int] = []
    for r in _strip_facts(ctx.base, ctx.tableau.shape)[0]:
        landed = path, final, landing = _reverse_from(*scratch, r)
        if steps is not None:
            steps.append(SlideStep("reverse", _record(path, final, landing, REVERSE), _snap(scratch)))
        if landing >= 1:
            return exited, landed
        exited.append(final)
    return exited, None


def _reinsert_exited(scratch: Scratch, exited: list[int], steps: list[SlideStep] | None) -> None:
    """Externally insert the exited entries, the last one exited first."""
    for k in reversed(exited):
        path = _bump_in(*scratch, k, 1)
        if steps is not None:
            steps.append(SlideStep("external", _record(path, k, 0, FORWARD), _snap(scratch)))


def _downward(ctx: SlideContext) -> tuple[Path, int, int] | None:
    """The raw (path, final entry, landing row) of the first entry to land
    in a row >= 1 when the outer strip is reverse-inserted right to left on
    a scratch copy; None when every entry exits."""
    return _reverse_outer_strip(ctx, _thaw(ctx.tableau))[1]


def downward_path(ctx: SlideContext) -> BumpRecord | None:
    """Reverse-insert the outer strip right to left on a scratch copy; the
    path of the first entry to land in a row >= 1, if any."""
    down = _downward(ctx)
    return None if down is None else _record(*down, REVERSE)


def _upward(ctx: SlideContext) -> tuple[Path, int, int] | None:
    """The raw (path, moved entry, start row) of internal insertion of the
    inner strip's bottom cell, on a scratch copy; None when the inner strip
    is empty."""
    r = _strip_facts(ctx.base, ctx.tableau.shape)[1]
    if not r:
        return None
    path, k = _internal_from(*_thaw(ctx.tableau), r)
    return path, k, r


def upward_path(ctx: SlideContext) -> BumpRecord | None:
    """The bumping path that internal insertion of the inner strip's bottom
    cell would follow; absent when the inner strip is empty."""
    up = _upward(ctx)
    return None if up is None else _record(*up, FORWARD)


def _staircase(up_path: Path, rows: int) -> list[int]:
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
    (bottom, _), (top, top_col) = up_path[0], up_path[-1]
    return [0] * (bottom - 1) + [col for _, col in up_path] + [top_col] * (rows - top)


def downward_slide(ctx: SlideContext, steps: list[SlideStep] | None = None) -> SlideContext:
    """Reverse-insert the outer strip right to left until an entry lands in a
    row >= 1, then re-insert the exited entries in reverse removal order."""
    if not isinstance(ctx, SlideContext):
        _require_type(SlideContext, ctx=ctx)
    return _slide_image(ctx, True) if steps is None else _slide_down(ctx, steps)


def _slide_down(ctx: SlideContext, steps: list[SlideStep] | None) -> SlideContext:
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
    return _slide_image(ctx, False) if steps is None else _slide_up(ctx, steps)


def _slide_up(ctx: SlideContext, steps: list[SlideStep] | None) -> SlideContext:
    up = _upward(ctx)
    if up is None:
        raise NoUpwardPath(f"inner strip of {ctx.base} is already empty")

    up_path, _, up_row = up
    scratch = _thaw(ctx.tableau)
    stair = _staircase(up_path, len(scratch[1]))
    exited: list[int] = []
    for r in _strip_facts(ctx.base, ctx.tableau.shape)[0]:
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

    r, inner = up_row, scratch[0]
    if r > 1 and inner[r - 2] <= inner[r - 1]:  # row r's first cell has a cell below it
        raise NoUpwardPath(f"upward slide does not apply: row {r} has no inside corner")
    path, k = _internal_from(*scratch, r)
    if steps is not None:
        steps.append(SlideStep("internal", _record(path, k, r, FORWARD), _snap(scratch)))
    _reinsert_exited(scratch, exited, steps)
    return _slid(ctx.base, scratch)


@lru_cache(maxsize=512)
def _slide_image(ctx: SlideContext, down: bool) -> SlideContext:
    """The untraced downward (down) or upward slide of ctx. An error is not
    cached: an off-domain slide raises afresh on every call."""
    return _slide_down(ctx, None) if down else _slide_up(ctx, None)


def phi(ctx: SlideContext, steps: list[SlideStep] | None = None) -> SlideContext:
    """Downward slide when there is no upward path or the downward path lands
    strictly below the inner strip's bottom cell; upward slide otherwise."""
    if not isinstance(ctx, SlideContext):
        _require_type(SlideContext, ctx=ctx)
    bottom = _strip_facts(ctx.base, ctx.tableau.shape)[1]
    if not bottom:  # empty inner strip: no upward path
        return downward_slide(ctx, steps)
    down = _downward(ctx)
    if down is not None and down[2] < bottom:  # its landing row
        return downward_slide(ctx, steps)
    return upward_slide(ctx, steps)


def is_fixed_point(ctx: SlideContext) -> bool:
    """Empty inner strip and no downward path: phi leaves ctx unchanged."""
    if not isinstance(ctx, SlideContext):
        _require_type(SlideContext, ctx=ctx)
    return not _strip_facts(ctx.base, ctx.tableau.shape)[1] and _downward(ctx) is None


@lru_cache(maxsize=1)
def _star_row(base: SkewShape, m: int) -> SkewShape:
    """star(base, (m)) for m >= 1, the one-row factor built without checks.
    Every fixed point of one sweep case has the same (base, m), so one entry
    serves both fixed-point maps and the case's star count."""
    return star(base, SkewShape._trusted(_canonical((m,)), EMPTY))


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
    # Fits by construction: strip_row fills the new bottom row, the residual base.
    return Tableau._trusted(_star_row(ctx.base, len(strip_row)), (strip_row,) + residual.rows)


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
    if not strip_row or t.shape != _star_row(base, len(strip_row)):
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
        for t in enumerate_ssyt(_canonical_shape(lam_plus.parts, mu_minus.parts), max_entry)
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
                entries = sorted(chain.from_iterable(ctx.tableau.rows))
                if sorted(chain.from_iterable(image.tableau.rows)) != entries:  # content differs
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
            star_count = len(enumerate_ssyt(_star_row(base, n) if n else base, max_entry))
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
