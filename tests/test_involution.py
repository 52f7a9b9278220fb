import hashlib
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skewtab import (
    Cell,
    HORIZONTAL,
    NoUpwardPath,
    NotFixedPoint,
    Partition,
    SkewShape,
    SlideContext,
    Tableau,
    VERTICAL,
    downward_slide,
    enumerate_contexts,
    fixed_point_to_star,
    is_fixed_point,
    parse_tableau,
    phi,
    star,
    star_to_fixed_point,
    validate,
    SSYT,
    upward_slide,
    verify_involution,
)
from skewtab.tableaux import enumerate_ssyt

from skewtab import involution
from skewtab.insertion import _thaw
from skewtab.involution import (
    _slid,
    _strip_facts,
    downward_path,
    upward_path,
)
from skewtab.shapes import parse_shape, skew_shapes_up_to

from conftest import partitions, validate_by_cells
from oracles import inner_strip_bottom, is_strip_by_cells, outer_strip_rows, strip_error

BIG_BASE = SkewShape.of((7, 5, 4, 1, 1), (3, 1))
BIG_T = "7,6,4,4,1/3,1: [1,2,2,5][1,2,2,3,6][2,2,3,4][3,5,7,7][9]"
BIG_DT = "7,6,4,3,1/2,1: [1,1,2,2,5][2,2,2,3,6][2,3,4,7][3,5,7][9]"


class TestSlideContext:
    def test_strip_validation(self):
        base = SkewShape.of((2, 2), (1,))
        with pytest.raises(ValueError, match="not a horizontal strip"):
            # 2,2,1,1/2,2: the two outer cells below the base share column 1
            SlideContext(base, parse_tableau("2,2,1,1/1: [1][1,2][2][3]"))
        with pytest.raises(ValueError):
            # inner strip (1)/() is fine but tableau must be SSYT
            SlideContext(base, parse_tableau("2,2/1: [2][1,1]"))

    def test_components_must_have_their_types(self):
        base = SkewShape.of((2, 2), (1,))
        t = parse_tableau("2,2/1: [1][1,2]")
        assert SlideContext(base, t).tableau == t
        with pytest.raises(TypeError, match="tableau 'x' is not a Tableau"):
            SlideContext(base, "x")
        with pytest.raises(TypeError, match=r"base \(\(2, 2\), \(1,\)\) is not a SkewShape"):
            SlideContext(((2, 2), (1,)), t)

    def test_strip_cells(self):
        ctx = SlideContext(BIG_BASE, parse_tableau(BIG_T))
        assert set(ctx.outer_strip.cells()) == {Cell(2, 6), Cell(4, 4), Cell(4, 3), Cell(4, 2)}
        assert list(_strip_facts(ctx.base, ctx.tableau.shape)[0]) == [2, 4, 4, 4]
        assert ctx.inner_strip.cells() == ()
        assert _strip_facts(ctx.base, ctx.tableau.shape)[1] == 0
        assert ctx.n == 4

    def test_inner_strip_cells_bottom_first(self):
        base = SkewShape.of((3, 2), (2, 1))
        t = Tableau.of((3, 2), (1,), [1, 1], [1, 2])
        ctx = SlideContext(base, t)
        assert ctx.inner_strip.cells() == (Cell(1, 2), Cell(2, 1))
        assert _strip_facts(ctx.base, ctx.tableau.shape)[1] == 1


def _composed_check(base, inner, rows):
    """The checks a slide result went through when every value was built by
    the public constructors: read each outer part off the inner part and row
    length, drop empty top rows, build Partition, SkewShape and Tableau, then
    test containment, the cell-by-cell strip and SSYT rules. Returns
    (tableau, error): tableau is None if construction failed, error is None
    if every check passed."""
    outer = [i + len(r) for i, r in zip(inner, rows)]
    inner, rows = list(inner), [list(r) for r in rows]
    while outer and outer[-1] == 0:
        outer.pop(), inner.pop(), rows.pop()
    try:
        shape = SkewShape(Partition(tuple(outer)), Partition(tuple(inner)))
        t = Tableau(shape, tuple(tuple(r) for r in rows))
    except ValueError as exc:
        return None, str(exc)
    lam, mu = base.outer, base.inner
    lam_plus, mu_minus = shape.outer, shape.inner
    if not lam_plus.contains(lam) or not is_strip_by_cells(SkewShape(lam_plus, lam), HORIZONTAL):
        return t, f"{lam_plus}/{lam} is not a horizontal strip"
    if not mu.contains(mu_minus) or not is_strip_by_cells(SkewShape(mu, mu_minus), VERTICAL):
        return t, f"{mu}/{mu_minus} is not a vertical strip"
    if not validate_by_cells(t, SSYT):
        return t, "tableau is not semistandard"
    return t, None


def _perturbations(ctx):
    """Scratch states near ctx's tableau: one cell moved from the right end
    of a row to the right end of another, or from a left end to a left end,
    or one cell added or dropped at a left end. The moved or added entry is
    kept, or set to 1 or 4. An empty row is padded on top so cells can move
    up into it."""
    inner, rows = _thaw(ctx.tableau)
    inner, rows = inner + [0], rows + [[]]

    def copy():
        return list(inner), [list(r) for r in rows]

    for r in range(len(rows)):
        for new in (None, 1, 4):
            for dest in range(len(rows)):
                if rows[r] and dest != r:
                    i, t = copy()
                    x = t[r].pop()
                    t[dest].append(x if new is None else new)
                    yield i, t
                if rows[r] and dest != r and inner[dest] > 0:
                    i, t = copy()
                    x = t[r].pop(0)
                    i[r] += 1
                    t[dest].insert(0, x if new is None else new)
                    i[dest] -= 1
                    yield i, t
            if inner[r] > 0:
                i, t = copy()
                t[r].insert(0, 1 if new is None else new)
                i[r] -= 1
                yield i, t
        if rows[r]:
            i, t = copy()
            t[r].pop(0)
            i[r] += 1
            yield i, t


def _outcome(build):
    """(tableau, None) if build() returns a context, else (None, message)."""
    try:
        return build().tableau, None
    except ValueError as exc:
        return None, str(exc)


CONTEXT_ERRORS = ("a horizontal strip", "a vertical strip", "semistandard")


class TestTrustedConstruction:
    """Slides build tableaux without checks and check each resulting context
    once, on part and row tuples; these tests hold that to the composition
    of public constructors and cell-based checks it replaces."""

    def test_context_check_matches_composed_checks(self):
        seen = set()
        for base in skew_shapes_up_to(3):
            for n in range(3):
                for ctx in enumerate_contexts(base, n, 2):
                    for i, t in _perturbations(ctx):
                        filling, error = _composed_check(base, i, t)
                        want = (filling if error is None else None, error)
                        assert _outcome(lambda: _slid(base, (i, t))) == want, (str(base), i, t)
                        if filling is not None:
                            # A skew filling also reaches SlideContext through
                            # the public constructors.
                            assert _outcome(lambda: SlideContext(base, filling)) == want
                        kind = error.rpartition(" is not ")[2] if error else "ok"
                        seen.add(kind if kind in CONTEXT_ERRORS or kind == "ok" else "shape")
        assert seen == {"ok", "shape", *CONTEXT_ERRORS}

    def test_non_decreasing_inner_is_rejected_as_before(self):
        # (1, 2) inside (2, 2): row 2 keeps no cell.
        base = SkewShape.of((2, 2), (2, 2))
        with pytest.raises(ValueError) as exc:
            _slid(base, ([1, 2], [[1], []]))
        assert str(exc.value) == "parts not weakly decreasing: (1, 2)"

    @pytest.mark.parametrize(
        "base, tableau, message",
        [
            ("1", "2,2: [1,1][2,2]", "2,2/1 is not a horizontal strip"),
            ("2,2/1", "3,3/1: [1,1][2,2,2]", "3,3/2,2 is not a horizontal strip"),
            ("3", "2: [1,1]", "2/3 is not a horizontal strip"),
            ("2,2/2", "2,2: [1,1][2,2]", "2/∅ is not a vertical strip"),
            ("2,2/1", "2,2/1,1: [1][2]", "1/1,1 is not a vertical strip"),
            ("2,2/1", "2,2/1: [2][1,1]", "tableau is not semistandard"),
            ("2,2/1,1", "2,2/1: [2][1,2]", "tableau is not semistandard"),
        ],
    )
    def test_rejection_messages(self, base, tableau, message):
        with pytest.raises(ValueError) as exc:
            SlideContext(parse_shape(base), parse_tableau(tableau))
        assert str(exc.value) == message

    @pytest.mark.parametrize("tableau", ["1,1,1/1: [][1][2]", "2,1,1/1: [1][2][3]"])
    def test_slide_off_its_domain_fails_as_before(self, tableau):
        # phi slides these contexts down, not up. Sliding up would move cell
        # (2, 1) while cell (1, 1) lies below it and leave no skew shape
        # (the error was once "parts not weakly decreasing"); traced or not,
        # the slide stops before that move with the same typed error.
        ctx = SlideContext(SkewShape.of((1, 1), (1, 1)), parse_tableau(tableau))
        for steps in (None, []):
            with pytest.raises(NoUpwardPath) as exc:
                upward_slide(ctx, steps)
            assert str(exc.value) == "upward slide does not apply: row 2 has no inside corner"

    def test_enumerated_contexts_pass_the_public_check(self):
        for base in skew_shapes_up_to(3):
            for n in range(3):
                for ctx in enumerate_contexts(base, n, 3):
                    assert SlideContext(base, ctx.tableau) == ctx

    def test_strip_cells_match_cell_enumeration(self):
        for base in skew_shapes_up_to(4):
            for n in range(4):
                for ctx in enumerate_contexts(base, n, 3):
                    outer = sorted(ctx.outer_strip.cells(), key=lambda c: -c.col)
                    rows, bottom, _ = _strip_facts(ctx.base, ctx.tableau.shape)
                    assert list(rows) == [c.row for c in outer]
                    assert bottom == (ctx.inner_strip.cells() or [Cell(0, 0)])[0].row
                    assert (upward_path(ctx) is None) == (ctx.inner_strip.size == 0)


def _oracle_facts(ctx):
    return (
        tuple(outer_strip_rows(ctx)),
        inner_strip_bottom(ctx),
        strip_error(ctx.base, ctx.tableau.shape),
    )


class TestStripFacts:
    """The strip facts are read once per (base, shape) from a bounded cache;
    these tests hold them to the per-context computations they replace."""

    def test_facts_match_the_oracle_cold_and_warm(self):
        for base in skew_shapes_up_to(4):
            for n in range(3):
                for ctx in enumerate_contexts(base, n, 3):
                    for c in (ctx, phi(ctx)):
                        involution._strip_facts.cache_clear()
                        for _ in ("cold", "warm"):
                            facts = involution._strip_facts(c.base, c.tableau.shape)
                            assert facts == _oracle_facts(c), (str(c.base), str(c.tableau))

    @pytest.mark.parametrize(
        "base, tableau, message",
        [
            ("2,2/1", "3,3/1: [1,1][2,2,2]", "3,3/2,2 is not a horizontal strip"),
            ("2,2/1", "2,2/1,1: [1][2]", "1/1,1 is not a vertical strip"),
        ],
    )
    def test_strip_errors_cold_and_warm(self, base, tableau, message):
        base, tableau = parse_shape(base), parse_tableau(tableau)
        assert strip_error(base, tableau.shape) == message
        involution._strip_facts.cache_clear()
        for _ in ("cold", "warm"):
            with pytest.raises(ValueError) as exc:
                SlideContext(base, tableau)
            assert str(exc.value) == message
        assert involution._strip_facts.cache_info().currsize == 1

    def test_cache_spans_bases(self):
        # A stream that leaves a base and comes back (repeated trace requests,
        # the skew-pieri check after the involution sweep) finds its facts.
        a, b = SkewShape.of((3, 2, 1), (2, 1)), SkewShape.of((2, 2), (1,))
        involution._strip_facts.cache_clear()
        misses = []
        for base in (a, b, a):
            for n in range(3):
                for ctx in enumerate_contexts(base, n, 3):
                    phi(ctx)
            misses.append(involution._strip_facts.cache_info().misses)
        assert 0 < misses[0] < misses[1] == misses[2]


class TestPaths:
    def test_downward_path_golden(self):
        ctx = SlideContext(BIG_BASE, parse_tableau(BIG_T))
        rec = downward_path(ctx)
        assert rec is not None
        assert rec.path == (Cell(1, 3), Cell(2, 2), Cell(3, 2), Cell(4, 2))
        assert rec.final_entry == 1 and rec.landing_row == 1

    def test_no_downward_path_when_all_exit(self):
        base = SkewShape.of((2,), ())
        ctx = SlideContext(base, parse_tableau("3: [1,1,2]"))
        assert downward_path(ctx) is None

    def test_upward_path_golden(self):
        ctx = SlideContext(BIG_BASE, parse_tableau(BIG_DT))
        rec = upward_path(ctx)
        assert rec is not None
        assert rec.path == (
            Cell(1, 3), Cell(2, 2), Cell(3, 2), Cell(4, 2), Cell(5, 1), Cell(6, 1),
        )

    def test_upward_path_requires_inner_strip(self):
        ctx = SlideContext(BIG_BASE, parse_tableau(BIG_T))
        assert upward_path(ctx) is None
        with pytest.raises(NoUpwardPath):
            upward_slide(ctx)

    def test_exits_right_definition_and_equivalence(self):
        # strictly-below and weakly-right formulations agree on the bottom cell
        for base_outer in [(3, 2), (3, 2, 1), (2, 2, 1)]:
            for base_inner in [(), (1,), (2, 1)]:
                outer = Partition(base_outer)
                inner = Partition(base_inner)
                if not outer.contains(inner):
                    continue
                base = SkewShape(outer, inner)
                for n in range(3):
                    for ctx in enumerate_contexts(base, n, 3):
                        down = downward_path(ctx)
                        strips = ctx.inner_strip.cells()
                        if down is None or not strips:
                            continue
                        bottom = strips[0]
                        strictly_below = down.path[0].row < bottom.row
                        weakly_right = down.path[0].col >= bottom.col
                        assert strictly_below == weakly_right
                        assert (down.landing_row < bottom.row) == strictly_below


class TestDownwardSlide:
    def test_big_golden(self):
        ctx = SlideContext(BIG_BASE, parse_tableau(BIG_T))
        steps = []
        out = downward_slide(ctx, steps)
        assert out.tableau == parse_tableau(BIG_DT)
        # four reverse insertions (exits 5,2,1 then the landing), then the
        # three exited entries are re-inserted in reverse exit order
        kinds = [s.kind for s in steps]
        assert kinds == ["reverse"] * 4 + ["external"] * 3
        assert [s.record.final_entry for s in steps[:4]] == [5, 2, 1, 1]
        assert [s.record.landing_row for s in steps[:4]] == [0, 0, 0, 1]
        assert [s.record.final_entry for s in steps[4:]] == [1, 2, 5]

    def test_identity_when_no_landing(self):
        base = SkewShape.of((2,), ())
        ctx = SlideContext(base, parse_tableau("3: [1,1,2]"))
        assert downward_slide(ctx) == ctx

    def test_moves_cell_from_outer_to_inner(self):
        ctx = SlideContext(BIG_BASE, parse_tableau(BIG_T))
        out = downward_slide(ctx)
        assert out.outer_strip.size == ctx.outer_strip.size - 1
        assert out.inner_strip.size == ctx.inner_strip.size + 1
        assert out.tableau.content() == ctx.tableau.content()


class TestUpwardSlide:
    def test_big_golden_inverts(self):
        ctx = SlideContext(BIG_BASE, parse_tableau(BIG_DT))
        out = upward_slide(ctx)
        assert out.tableau == parse_tableau(BIG_T)

    def test_three_row_golden(self):
        base = SkewShape.of((2, 2), (1,))
        ctx = SlideContext(base, parse_tableau("2,2,2: [1,1][2,2][3,3]"))
        out = upward_slide(ctx)
        assert out.tableau == parse_tableau("3,2,2/1: [1,1][2,2][3,3]")

    def test_moves_cell_from_inner_to_outer(self):
        ctx = SlideContext(BIG_BASE, parse_tableau(BIG_DT))
        out = upward_slide(ctx)
        assert out.outer_strip.size == ctx.outer_strip.size + 1
        assert out.inner_strip.size == ctx.inner_strip.size - 1
        assert out.tableau.content() == ctx.tableau.content()


    def test_every_upward_slide_applies_or_raises_no_upward_path(self):
        # Over every context of the involution sweep, an upward slide either
        # succeeds or raises NoUpwardPath, traced or not; where phi slides up,
        # it is phi. Of the contexts with a nonempty inner strip, 193 lie off
        # its domain.
        refused = 0
        for base in skew_shapes_up_to(5):
            for n in range(3):
                for ctx in enumerate_contexts(base, n, 3):
                    outcomes = []
                    for steps in (None, []):
                        try:
                            outcomes.append(upward_slide(ctx, steps))
                        except NoUpwardPath:
                            outcomes.append(None)
                    up, traced = outcomes
                    image = phi(ctx)
                    where = (str(base), str(ctx.tableau))
                    assert up == traced, where
                    if image.inner_strip.size < ctx.inner_strip.size:
                        assert up == image, where
                    refused += up is None and ctx.inner_strip.size > 0
        assert refused == 193


class TestPhiRegressions:
    def test_landing_path_left_of_upward_path_is_rejected(self):
        # The rejected reversal lies strictly left of the upward path's
        # column span extended beyond its rows; accepting it would break
        # involutivity on this orbit.
        base = SkewShape.of((2, 1, 1), (2, 1, 1))
        for a, b in [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)]:
            t = Tableau.of((2, 1, 1, 1), (1, 1, 1), [a], [], [], [b])
            ctx = SlideContext(base, t)
            down = downward_path(ctx)
            assert down is not None and not down.landing_row < _strip_facts(base, t.shape)[1]
            image = phi(ctx)
            # the cell below-left must not move
            assert image.tableau.entry(4, 1) == b
            assert phi(image) == ctx

    def test_exit_paths_below_upward_path_are_accepted(self):
        # Reversals that exit in row 0 strictly below the upward path's
        # bottom row must still count as weakly right for phi to invert
        # the downward slide.
        base = SkewShape.of((5, 2, 1), (3, 2, 1))
        t_hat = parse_tableau("6,3,2/3,2: [1,2,2][3][4,5]")
        ctx = SlideContext(base, t_hat)
        down = downward_path(ctx)
        assert down is not None and down.landing_row < _strip_facts(base, t_hat.shape)[1]
        image = phi(ctx)
        assert image.tableau == parse_tableau("6,2,2/3,1: [1,2,2][3][4,5]")
        assert phi(image) == ctx


class TestPhiExhaustive:
    @pytest.mark.parametrize(
        "outer,inner",
        [((3, 2), (1,)), ((2, 2, 1), (1, 1)), ((4,), ()), ((2, 1, 1), (2, 1, 1)), ((3, 3), (2,))],
    )
    @pytest.mark.parametrize("n", [1, 2])
    def test_involution_content_sign(self, outer, inner, n):
        base = SkewShape.of(outer, inner)
        for ctx in enumerate_contexts(base, n, 3):
            image = phi(ctx)
            assert phi(image) == ctx
            assert image.tableau.content() == ctx.tableau.content()
            if image == ctx:
                assert is_fixed_point(ctx)
            else:
                assert abs(image.inner_strip.size - ctx.inner_strip.size) == 1

    def test_slide_outputs_pinned(self):
        # One line per context of verify_involution(4, 2, 3), in its order:
        # base, tableau and phi's image. The digest was recorded from the
        # slides before their per-step objects were cut, so it pins every
        # output, not only that phi is an involution.
        digest = hashlib.sha256()
        contexts = 0
        for base in skew_shapes_up_to(4):
            for n in range(3):
                for ctx in enumerate_contexts(base, n, 3):
                    contexts += 1
                    digest.update(f"{base} | {ctx.tableau} | {phi(ctx).tableau}\n".encode())
        assert contexts == 5134
        assert digest.hexdigest() == "47bcab4af9466b7b1bca0be577dc4d99a5a6157d785515a7f8cd751f5dbbb6ae"

    def test_strata_structure(self):
        base = SkewShape.of((2, 1), (1,))
        seen = set()
        for ctx in enumerate_contexts(base, 2, 2):
            assert ctx.outer_strip.size + ctx.inner_strip.size == 2
            assert is_strip_by_cells(SkewShape(ctx.tableau.shape.outer, base.outer), HORIZONTAL)
            assert is_strip_by_cells(SkewShape(base.inner, ctx.tableau.shape.inner), VERTICAL)
            seen.add(ctx)
        assert len(seen) == len(list(enumerate_contexts(base, 2, 2)))


class TestFixedPoints:
    def test_fixed_point_golden(self):
        base = SkewShape.of((6, 5, 3), (2, 1))
        t = parse_tableau("7,6,3,1/2,1: [1,1,2,3,3][1,3,3,3,7][2,4,6][5]")
        ctx = SlideContext(base, t)
        assert is_fixed_point(ctx)
        assert phi(ctx) == ctx
        star_t = fixed_point_to_star(ctx)
        assert star_t.shape == star(base, SkewShape.of((3,)))
        assert star_t.rows[0] == (2, 3, 3)
        assert star_to_fixed_point(base, star_t) == ctx

    def test_star_round_trip_exhaustive(self):
        base = SkewShape.of((2, 2), (1,))
        for n in range(3):
            strip = SkewShape.of((n,))
            star_shape = star(base, strip)
            star_tableaux = enumerate_ssyt(star_shape, 3)
            fixed = [
                ctx
                for ctx in enumerate_contexts(base, n, 3)
                if is_fixed_point(ctx)
            ]
            assert len(fixed) == len(star_tableaux)
            images = {fixed_point_to_star(ctx) for ctx in fixed}
            assert images == set(star_tableaux)

    def test_not_fixed_point_raises(self):
        ctx = SlideContext(BIG_BASE, parse_tableau(BIG_T))
        assert not is_fixed_point(ctx)
        with pytest.raises(NotFixedPoint):
            fixed_point_to_star(ctx)

    def test_not_fixed_point_raises_exactly_off_the_fixed_points(self):
        for base in skew_shapes_up_to(4):
            for n in range(3):
                for ctx in enumerate_contexts(base, n, 3):
                    if is_fixed_point(ctx):
                        assert star_to_fixed_point(base, fixed_point_to_star(ctx)) == ctx
                        continue
                    with pytest.raises(NotFixedPoint) as exc:
                        fixed_point_to_star(ctx)
                    assert str(exc.value) == f"phi moves this context (base {base})"

    def test_star_to_fixed_point_rejects_wrong_shape(self):
        base = SkewShape.of((2, 1))
        with pytest.raises(ValueError):
            star_to_fixed_point(base, parse_tableau("3,1: [1,1,1][2]"))


    @pytest.mark.parametrize(
        "t",
        [Tableau(SkewShape.of(()), ()), Tableau(SkewShape.of((2, 2, 1), (2, 1)), ((), (1,), (2,)))],
        ids=["no-rows", "empty-bottom-row"],
    )
    def test_star_to_fixed_point_rejects_an_empty_strip_row(self, t):
        # A tableau with no rows used to raise IndexError. One whose bottom
        # row is empty has a strip row of 0 cells, and star(base, (0)) is
        # base itself, whatever the rows above.
        base = SkewShape.of((2, 1), (1,))
        with pytest.raises(ValueError) as exc:
            star_to_fixed_point(base, t)
        assert str(exc.value) == f"{t.shape} is not 2,1/1 concatenated with one row"

    def test_star_to_fixed_point_rejects_non_ssyt(self):
        # The strip row (2, 1) decreases; the image used to look valid.
        base = SkewShape.of((2, 1), (1,))
        t = Tableau(star(base, SkewShape.of((2,))), ((2, 1), (1,), (1,)))
        assert not validate(t, SSYT)
        with pytest.raises(ValueError) as exc:
            star_to_fixed_point(base, t)
        assert str(exc.value) == "tableau is not semistandard"


class TestRecordsHoldCells:
    """Slides record bumping paths as (row, col) pairs in scratch; every
    BumpRecord that leaves the library holds `Cell`s only."""

    @staticmethod
    def _cells_only(rec):
        return type(rec.path) is tuple and all(type(c) is Cell for c in rec.path)

    def test_paths_and_slide_steps(self):
        records = 0
        for base in skew_shapes_up_to(4):
            for n in range(3):
                for ctx in enumerate_contexts(base, n, 3):
                    recs = [downward_path(ctx), upward_path(ctx)]
                    for slide in (phi, downward_slide, upward_slide):
                        steps = []
                        try:
                            slide(ctx, steps)
                        except ValueError:  # a slide applied off its domain
                            pass
                        recs += [step.record for step in steps]
                    recs = [rec for rec in recs if rec is not None]
                    assert all(map(self._cells_only, recs)), (base, ctx.tableau)
                    records += len(recs)
        assert records > 5134


class TestVerifyInvolution:
    def test_small_sweep_clean(self):
        report = verify_involution(3, 2, 3)
        assert report["failures"] == []
        assert report["contexts"] > 0
        assert report["cases"] > 0

    def test_sweep_work_counts(self, monkeypatch):
        # verify_involution(4, 2, 3): 156 cases, 5 134 contexts, 2 300 fixed
        # points (230, 690 and 1 380 at n = 0, 1, 2). No BumpRecord is built: phi and is_fixed_point read the
        # landing row off the raw downward walk, and the upward slide builds
        # its staircase off the raw upward path. star runs once per case with
        # n >= 1, through _star_row: both fixed-point maps and the star count
        # read that one shape (102 of the 104 cases have a fixed point; a
        # column of 4 has no SSYT with entries <= 3, and there the star count
        # is the one miss). phi runs on each context and on its image, but
        # each context is slid once: the second slide of each (context,
        # direction) reads _slide_image, so the image cache misses and hits
        # once per context. Each computed image is checked, through the
        # shared _context_error: one check per context and one per fixed
        # point (the star round trip). Only the 230 round trips at n = 0 go
        # through the public SlideContext constructor. The strip facts are
        # computed once per (base, tableau shape) that holds a context: 499
        # times, over the 51 bases that have contexts (a column of 4 has none).
        involution._star_row.cache_clear()
        involution._strip_facts.cache_clear()
        involution._slide_image.cache_clear()
        calls = {"_record": 0, "star": 0, "_context_error": 0, "_is_horizontal_strip": 0}
        for name in calls:
            inner = getattr(involution, name)

            def counted(*args, name=name, inner=inner):
                calls[name] += 1
                return inner(*args)

            monkeypatch.setattr(involution, name, counted)
        post_inits = 0
        post_init = SlideContext.__post_init__

        def counted_post_init(ctx):
            nonlocal post_inits
            post_inits += 1
            post_init(ctx)

        monkeypatch.setattr(SlideContext, "__post_init__", counted_post_init)
        report = verify_involution(4, 2, 3)
        assert report["failures"] == []
        assert (report["cases"], report["contexts"]) == (156, 5134)
        assert calls == {
            "_record": 0,
            "star": 104,
            "_context_error": 5134 + 2300,
            "_is_horizontal_strip": 499,
        }
        assert involution._slide_image.cache_info()[:2] == (5134, 5134)
        assert involution._strip_facts.cache_info().misses == 499
        assert post_inits == 230
        # Both maps per fixed point at n >= 1, and one star count per case.
        star_rows = 2 * (690 + 1380) + 104
        assert involution._star_row.cache_info()[:2] == (star_rows - 104, 104)

    @given(partitions(max_len=3, max_part=3), st.integers(0, 2))
    def test_phi_involutes_on_random_bases(self, outer, n):
        base = SkewShape(outer, Partition())
        for ctx in enumerate_contexts(base, n, 2):
            assert phi(phi(ctx)) == ctx


class TestSlideImageCache:
    """Untraced slides read their images from involution._slide_image; a
    cache of any size, or a warm one, must change no result (cf.
    test_rules.TestBlockCache.test_products_do_not_depend_on_the_cache)."""

    BASE = SkewShape.of((2, 1), (1,))

    @staticmethod
    def _one_entry_cache(monkeypatch):
        monkeypatch.setattr(involution, "_slide_image", lru_cache(maxsize=1)(involution._slide_image.__wrapped__))

    def test_sweep_does_not_depend_on_the_cache(self, monkeypatch):
        involution._slide_image.cache_clear()
        cold = verify_involution(4, 2, 3)
        warm = verify_involution(4, 2, 3)
        self._one_entry_cache(monkeypatch)
        tiny = verify_involution(4, 2, 3)
        assert involution._slide_image.cache_info().misses > cold["contexts"]
        assert cold == warm == tiny
        assert cold["failures"] == [] and cold["contexts"] == 5134

    def _failures(self, monkeypatch, images):
        """verify_involution(3, 2, 3)'s failures, through the image cache and
        through a one-entry one, with both slide bodies sending each key of
        images to its value."""
        for name in ("_slide_down", "_slide_up"):

            def planted(ctx, steps, real=getattr(involution, name)):
                return images[ctx] if ctx in images else real(ctx, steps)

            monkeypatch.setattr(involution, name, planted)
        involution._slide_image.cache_clear()
        try:
            cached = verify_involution(3, 2, 3)["failures"]
        finally:  # the cache holds planted images now
            involution._slide_image.cache_clear()
        self._one_entry_cache(monkeypatch)
        return cached, verify_involution(3, 2, 3)["failures"]

    def _moved(self):
        """Two contexts a, b = phi(a) of one 2-cycle over BASE with n = 2,
        and a context c of another."""
        moved = [ctx for ctx in enumerate_contexts(self.BASE, 2, 3) if phi(ctx) != ctx]
        a = moved[0]
        b = phi(a)
        c = next(ctx for ctx in moved if ctx not in (a, b))
        return a, b, c

    def test_planted_three_cycle_fails_alike(self, monkeypatch):
        a, b, c = self._moved()
        cached, tiny = self._failures(monkeypatch, {a: b, b: c, c: a})
        assert cached == tiny
        for ctx in (a, b, c):
            assert f"phi not involutive at {ctx.tableau} over {self.BASE}" in cached

    def test_planted_wrong_image_fails_alike(self, monkeypatch):
        a, b, c = self._moved()
        cached, tiny = self._failures(monkeypatch, {a: c})
        assert cached == tiny
        for ctx in (a, b):  # a goes to c, and b goes to a, which no longer comes back
            assert f"phi not involutive at {ctx.tableau} over {self.BASE}" in cached

    def test_traced_phi_skips_the_cache(self):
        contexts = [
            ctx for base in skew_shapes_up_to(3) for n in range(3) for ctx in enumerate_contexts(base, n, 2)
        ]
        contexts.append(SlideContext(BIG_BASE, parse_tableau(BIG_T)))

        def traced(ctx):
            steps = []
            return phi(ctx, steps), steps

        involution._slide_image.cache_clear()
        cold = list(map(traced, contexts))
        untraced = list(map(phi, contexts))
        info = involution._slide_image.cache_info()
        warm = list(map(traced, contexts))
        assert involution._slide_image.cache_info() == info
        assert warm == cold
        assert [image for image, _ in cold] == untraced
        assert any(steps for _, steps in cold)
