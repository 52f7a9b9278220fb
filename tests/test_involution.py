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

from skewtab.insertion import _thaw
from skewtab.involution import (
    _exits_right,
    _slid,
    downward_path,
    inner_strip_cells,
    outer_strip_cells,
    upward_path,
)
from skewtab.shapes import parse_shape, skew_shapes_up_to

from conftest import partitions, validate_by_cells

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
        assert outer_strip_cells(ctx) == (Cell(2, 6), Cell(4, 4), Cell(4, 3), Cell(4, 2))
        assert inner_strip_cells(ctx) == ()
        assert ctx.n == 4

    def test_inner_strip_cells_bottom_first(self):
        base = SkewShape.of((3, 2), (2, 1))
        t = Tableau.of((3, 2), (1,), [1, 1], [1, 2])
        ctx = SlideContext(base, t)
        assert inner_strip_cells(ctx) == (Cell(1, 2), Cell(2, 1))


def _composed_check(base, outer, inner, rows):
    """The checks a slide result went through when every value was built by
    the public constructors: drop empty top rows, build Partition, SkewShape
    and Tableau, then test containment, is_strip and the cell-by-cell SSYT
    rule. Returns (tableau, error): tableau is None if construction failed,
    error is None if every check passed."""
    outer, inner, rows = list(outer), list(inner), [list(r) for r in rows]
    while outer and outer[-1] == 0:
        outer.pop(), inner.pop(), rows.pop()
    try:
        shape = SkewShape(Partition(tuple(outer)), Partition(tuple(inner)))
        t = Tableau(shape, tuple(tuple(r) for r in rows))
    except ValueError as exc:
        return None, str(exc)
    lam, mu = base.outer, base.inner
    lam_plus, mu_minus = shape.outer, shape.inner
    if not lam_plus.contains(lam) or not SkewShape(lam_plus, lam).is_strip(HORIZONTAL):
        return t, f"{lam_plus}/{lam} is not a horizontal strip"
    if not mu.contains(mu_minus) or not SkewShape(mu, mu_minus).is_strip(VERTICAL):
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
    outer, inner, rows = _thaw(ctx.tableau)
    outer, inner, rows = outer + [0], inner + [0], rows + [[]]

    def copy():
        return list(outer), list(inner), [list(r) for r in rows]

    for r in range(len(rows)):
        for new in (None, 1, 4):
            for dest in range(len(rows)):
                if rows[r] and dest != r:
                    o, i, t = copy()
                    x = t[r].pop()
                    o[r] -= 1
                    t[dest].append(x if new is None else new)
                    o[dest] += 1
                    yield o, i, t
                if rows[r] and dest != r and inner[dest] > 0:
                    o, i, t = copy()
                    x = t[r].pop(0)
                    i[r] += 1
                    t[dest].insert(0, x if new is None else new)
                    i[dest] -= 1
                    yield o, i, t
            if inner[r] > 0:
                o, i, t = copy()
                t[r].insert(0, 1 if new is None else new)
                i[r] -= 1
                yield o, i, t
        if rows[r]:
            o, i, t = copy()
            t[r].pop(0)
            i[r] += 1
            yield o, i, t


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
                    for o, i, t in _perturbations(ctx):
                        filling, error = _composed_check(base, o, i, t)
                        want = (filling if error is None else None, error)
                        assert _outcome(lambda: _slid(base, (o, i, t))) == want, (str(base), o, i, t)
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
            _slid(base, ([2, 2], [1, 2], [[1], []]))
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
                    outer = tuple(sorted(ctx.outer_strip.cells(), key=lambda c: -c.col))
                    assert outer_strip_cells(ctx) == outer
                    assert inner_strip_cells(ctx) == ctx.inner_strip.cells()
                    assert (upward_path(ctx) is None) == (ctx.inner_strip.size == 0)


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
                        strips = inner_strip_cells(ctx)
                        if down is None or not strips:
                            continue
                        bottom = strips[0]
                        strictly_below = down.path[0].row < bottom.row
                        weakly_right = down.path[0].col >= bottom.col
                        assert strictly_below == weakly_right
                        assert _exits_right(ctx, down) == strictly_below


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
            assert down is not None and not _exits_right(ctx, down)
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
        assert down is not None and _exits_right(ctx, down)
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

    def test_strata_structure(self):
        base = SkewShape.of((2, 1), (1,))
        seen = set()
        for ctx in enumerate_contexts(base, 2, 2):
            assert ctx.outer_strip.size + ctx.inner_strip.size == 2
            assert SkewShape(ctx.tableau.shape.outer, base.outer).is_strip(HORIZONTAL)
            assert SkewShape(base.inner, ctx.tableau.shape.inner).is_strip(VERTICAL)
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


    def test_star_to_fixed_point_rejects_non_ssyt(self):
        # The strip row (2, 1) decreases; the image used to look valid.
        base = SkewShape.of((2, 1), (1,))
        t = Tableau(star(base, SkewShape.of((2,))), ((2, 1), (1,), (1,)))
        assert not validate(t, SSYT)
        with pytest.raises(ValueError) as exc:
            star_to_fixed_point(base, t)
        assert str(exc.value) == "tableau is not semistandard"


class TestVerifyInvolution:
    def test_small_sweep_clean(self):
        report = verify_involution(3, 2, 3)
        assert report["failures"] == []
        assert report["contexts"] > 0
        assert report["cases"] > 0

    @given(partitions(max_len=3, max_part=3), st.integers(0, 2))
    def test_phi_involutes_on_random_bases(self, outer, n):
        base = SkewShape(outer, Partition())
        for ctx in enumerate_contexts(base, n, 2):
            assert phi(phi(ctx)) == ctx
