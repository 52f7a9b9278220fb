import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skewtab import (
    Cell,
    FORWARD,
    NoInsideCorner,
    NotOutsideCorner,
    REVERSE,
    SSYT,
    SkewShape,
    external_insert,
    internal_insert,
    parse_tableau,
    reverse_insert,
    validate,
)
from skewtab.tableaux import enumerate_ssyt

from conftest import skew_shapes


EXTERNAL_BEFORE = "7,5,4,2/3,1: [2,2,3,6][1,2,3,4][2,2,7,7][4,5]"
EXTERNAL_AFTER = "7,5,4,3/3,1: [2,2,2,6][1,2,3,3][2,2,4,7][4,5,7]"
INTERNAL_AFTER = "7,5,4,3,1/3,2: [2,2,2,6][2,3,3][1,2,4,7][2,5,7][4]"


class TestExternalInsert:
    def test_golden(self):
        t = parse_tableau(EXTERNAL_BEFORE)
        res, rec = external_insert(t, 2)
        assert res == parse_tableau(EXTERNAL_AFTER)
        assert rec.path == (Cell(1, 6), Cell(2, 5), Cell(3, 3), Cell(4, 3))
        assert rec.final_entry == 2 and rec.landing_row == 0 and rec.direction == FORWARD

    def test_appends_when_largest(self):
        t = parse_tableau("2: [1,2]")
        res, rec = external_insert(t, 2)
        assert res == parse_tableau("3: [1,2,2]")
        assert rec.path == (Cell(1, 3),)

    def test_empty_row_lands_past_inner(self):
        t = parse_tableau("2,1/2: [][1]")
        res, rec = external_insert(t, 5)
        assert res == parse_tableau("3,1/2: [5][1]")
        assert rec.path == (Cell(1, 3),)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            external_insert(parse_tableau("1: [1]"), 0)

    def test_adds_one_entry_and_stays_ssyt(self):
        t = parse_tableau(EXTERNAL_BEFORE)
        for k in range(1, 9):
            res, _ = external_insert(t, k)
            assert validate(res, SSYT)
            assert sum(res.content()) == sum(t.content()) + 1


class TestInternalInsert:
    def test_golden(self):
        t = parse_tableau(EXTERNAL_AFTER)
        res, rec = internal_insert(t, 2)
        assert res == parse_tableau(INTERNAL_AFTER)
        assert rec.path == (Cell(2, 2), Cell(3, 1), Cell(4, 1), Cell(5, 1))
        assert rec.final_entry == 1 and rec.landing_row == 2

    def test_preserves_multiset(self):
        t = parse_tableau(EXTERNAL_AFTER)
        res, _ = internal_insert(t, 2)
        assert res.content() == t.content()
        assert validate(res, SSYT)

    def test_requires_inside_corner(self):
        t = parse_tableau("2,2: [1,1][2,2]")
        res, _ = internal_insert(t, 1)
        assert validate(res, SSYT)
        with pytest.raises(NoInsideCorner):
            internal_insert(t, 2)  # (2,1) sits above (1,1)
        with pytest.raises(NoInsideCorner):
            internal_insert(t, 3)  # empty row

    @pytest.mark.parametrize("r", [0, -1])
    def test_row_below_one_has_no_inside_corner(self, r):
        t = parse_tableau("2,2: [1,1][2,2]")
        with pytest.raises(NoInsideCorner, match=f"row {r} has no cells"):
            internal_insert(t, r)


class TestReverseInsert:
    def test_inverts_internal_golden(self):
        res, rec = reverse_insert(parse_tableau(INTERNAL_AFTER), (5, 1))
        assert res == parse_tableau(EXTERNAL_AFTER)
        assert rec.final_entry == 1 and rec.landing_row == 2 and rec.direction == REVERSE
        assert rec.path == (Cell(2, 2), Cell(3, 1), Cell(4, 1), Cell(5, 1))

    def test_inverts_external_golden(self):
        res, rec = reverse_insert(parse_tableau(EXTERNAL_AFTER), (4, 3))
        assert res == parse_tableau(EXTERNAL_BEFORE)
        assert rec.final_entry == 2 and rec.landing_row == 0

    def test_requires_outside_corner(self):
        with pytest.raises(NotOutsideCorner):
            reverse_insert(parse_tableau("2,2: [1,1][2,2]"), (1, 1))
        with pytest.raises(NotOutsideCorner):
            reverse_insert(parse_tableau("2,2: [1,1][2,2]"), (1, 2))

    def test_exit_through_empty_row(self):
        # the cascading entry passes vacuously through an empty row and
        # lands at its left end
        t = parse_tableau("2,1,1,1/1,1,1: [1][][][2]")
        res, rec = reverse_insert(t, (4, 1))
        assert rec.landing_row == 3
        assert rec.path == (Cell(3, 1), Cell(4, 1))
        assert res == parse_tableau("2,1,1/1,1: [1][][2]")


class TestInversionProperties:
    @given(skew_shapes(max_len=3, max_part=3), st.integers(1, 4))
    def test_reverse_undoes_external(self, shape, k):
        for t in itertools.islice(enumerate_ssyt(shape, 3), 4):
            res, rec = external_insert(t, k)
            back, brec = reverse_insert(res, rec.path[-1])
            assert back == t
            assert brec.final_entry == k and brec.landing_row == 0
            assert brec.path == rec.path

    @given(skew_shapes(max_len=3, max_part=3))
    def test_reverse_undoes_internal(self, shape):
        for t in itertools.islice(enumerate_ssyt(shape, 3), 4):
            inside, _ = t.shape.corners()
            for c in inside:
                try:
                    res, rec = internal_insert(t, c.row)
                except NoInsideCorner:
                    continue
                back, brec = reverse_insert(res, rec.path[-1])
                assert back == t
                assert brec.landing_row == c.row
                assert brec.path == rec.path

    @given(skew_shapes(max_len=3, max_part=3))
    def test_external_then_reverse_all_corners(self, shape):
        for t in itertools.islice(enumerate_ssyt(shape, 2), 3):
            _, outside = t.shape.corners()
            for c in outside:
                res, rec = reverse_insert(t, c)
                assert validate(res, SSYT)
                if rec.landing_row == 0:
                    redone, rrec = external_insert(res, rec.final_entry)
                    assert redone == t
                    assert rrec.path == rec.path
                else:
                    redone, _ = internal_insert(res, rec.landing_row)
                    assert redone == t


def test_non_ssyt_input_still_rejected_on_a_bad_result_shape():
    # Not semistandard: inserting 2 bumps 3 onto row 2, whose 1 it sits
    # right of, so the outer parts become (1, 2).
    t = parse_tableau("1,1: [3][1]")
    with pytest.raises(ValueError) as exc:
        external_insert(t, 2)
    assert str(exc.value) == "parts not weakly decreasing: (1, 2)"
