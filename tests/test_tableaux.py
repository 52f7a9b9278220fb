import itertools
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skewtab import (
    ASSYT,
    Partition,
    SSYT,
    SkewShape,
    Tableau,
    enumerate_fillings,
    is_yamanouchi,
    lr_fillings,
    parse_tableau,
    reading_word,
    star,
    validate,
)
from skewtab.tableaux import enumerate_ssyt, format_tableau, reverse_reading_word
from skewtab.shapes import Cell, ParseError, partitions_of_size, skew_shapes_up_to

from conftest import skew_shapes, validate_by_cells


def _brute_fillings(shape, kind, max_entry):
    """Assign every entry combination and filter by the row/column rules."""
    cells = shape.cells()
    found = []
    for combo in itertools.product(range(1, max_entry + 1), repeat=len(cells)):
        entries = dict(zip(cells, combo))
        ok = True
        for (r, c), v in entries.items():
            left = entries.get((r, c - 1))
            below = entries.get((r - 1, c))
            if kind == SSYT:
                if left is not None and left > v:
                    ok = False
                if below is not None and below >= v:
                    ok = False
            else:
                if left is not None and left <= v:
                    ok = False
                if below is not None and below < v:
                    ok = False
        if ok:
            rows = tuple(
                tuple(entries[(r, c)] for c in range(shape.inner.part(r) + 1, shape.outer.part(r) + 1))
                for r in range(1, shape.rows + 1)
            )
            found.append(Tableau(shape, rows))
    return found


def _recursive_fillings(shape, kind, max_entry):
    """Reference: the per-cell recursive backtracker the slot loop replaced."""
    bounds = [shape.row_bounds(r) for r in range(1, shape.rows + 1)]
    rows = [[] for _ in bounds]

    def entry_at(r, c):
        if not 1 <= r <= len(bounds):
            return None
        lo, hi = bounds[r - 1]
        if not (lo < c <= hi) or c - lo > len(rows[r - 1]):
            return None
        return rows[r - 1][c - lo - 1]

    def ok(r, c, v):
        left = entry_at(r, c - 1)
        below = entry_at(r - 1, c)
        if kind == SSYT:
            if left is not None and not left <= v:
                return False
            if below is not None and not below < v:
                return False
        else:
            if left is not None and not left > v:
                return False
            if below is not None and not below >= v:
                return False
        return True

    cells = shape.cells()

    def rec(i):
        if i == len(cells):
            yield Tableau(shape, tuple(tuple(row) for row in rows))
            return
        r, c = cells[i]
        for v in range(1, max_entry + 1):
            if not ok(r, c, v):
                continue
            rows[r - 1].append(v)
            yield from rec(i + 1)
            rows[r - 1].pop()

    return rec(0)


def _recursive_lr_fillings(shape):
    """Reference: the per-cell recursive LR backtracker the slot loop replaced."""
    bounds = [shape.row_bounds(r) for r in range(1, shape.rows + 1)]
    rows = [[] for _ in bounds]
    counts = [0] * (shape.size + 1)
    order = []
    for r in range(1, shape.rows + 1):
        lo, hi = bounds[r - 1]
        order.extend(Cell(r, c) for c in range(hi, lo, -1))

    def entry_of(r, c):
        lo, hi = bounds[r - 1] if 1 <= r <= len(bounds) else (0, 0)
        idx = hi - c
        if not (lo < c <= hi) or idx >= len(rows[r - 1]):
            return None
        return rows[r - 1][idx]

    def rec(i):
        if i == len(order):
            yield Tableau(shape, tuple(tuple(reversed(row)) for row in rows))
            return
        r, c = order[i]
        right = entry_of(r, c + 1)
        below = entry_of(r - 1, c) if r > 1 else None
        lo_v = 1 if below is None else below + 1
        hi_v = shape.size if right is None else right
        for v in range(lo_v, hi_v + 1):
            if v > 1 and counts[v] + 1 > counts[v - 1]:
                continue
            counts[v] += 1
            rows[r - 1].append(v)
            yield from rec(i + 1)
            rows[r - 1].pop()
            counts[v] -= 1

    return rec(0)


class TestTableau:
    def test_shape_agreement_enforced(self):
        with pytest.raises(ValueError):
            Tableau.of((2, 1), (), [1])
        with pytest.raises(ValueError):
            Tableau.of((2, 1), (), [1, 2, 3], [1])
        with pytest.raises(ValueError):
            Tableau.of((1,), (), [0])

    def test_shape_must_be_a_skew_shape(self):
        with pytest.raises(TypeError, match=r"shape \(1,\) is not a SkewShape"):
            Tableau((1,), ((1,),))

    def test_entry_and_content(self):
        t = parse_tableau("4,3,1/1: [1,2,7][3,3,5][5]")
        assert t.entry(1, 2) == 1 and t.entry(2, 1) == 3 and t.entry(1, 1) is None
        assert t.entry(9, 9) is None
        assert t.content() == (1, 1, 2, 0, 2, 0, 1)

    def test_validate_goldens(self):
        t = parse_tableau("4,3,1/1: [1,2,7][3,3,5][5]")
        assert validate(t, SSYT)
        assert not validate(t, ASSYT)
        a = Tableau.of((3, 3), (1,), [3, 2], [5, 3, 1])
        assert validate(a, ASSYT)
        assert not validate(a, SSYT)

    def test_validate_row_and_column_rules(self):
        assert not validate(Tableau.of((2,), (), [2, 1]), SSYT)       # row decrease
        assert not validate(Tableau.of((1, 1), (), [1], [1]), SSYT)   # column repeat
        assert validate(Tableau.of((2,), (), [1, 1]), SSYT)
        assert not validate(Tableau.of((2,), (), [1, 1]), ASSYT)      # row repeat
        assert validate(Tableau.of((1, 1), (), [1], [1]), ASSYT)      # column repeat ok


class TestValidateAgainstCellReference:
    def test_every_small_filling(self):
        """Every filling with entries <= 3 of every skew shape with |outer|
        <= 4, SSYT and ASSYT, against the cell-by-cell reference."""
        fillings = 0
        verdicts = set()
        for shape in skew_shapes_up_to(4):
            lengths = [shape.outer.part(r) - shape.inner.part(r) for r in range(1, shape.rows + 1)]
            for entries in itertools.product(range(1, 4), repeat=shape.size):
                it = iter(entries)
                t = Tableau(shape, tuple(tuple(next(it) for _ in range(n)) for n in lengths))
                for kind in (SSYT, ASSYT):
                    verdict = validate(t, kind)
                    assert verdict == validate_by_cells(t, kind), (str(t), kind)
                    verdicts.add((kind, verdict))
                fillings += 1
        assert fillings == 792
        assert verdicts == {(SSYT, True), (SSYT, False), (ASSYT, True), (ASSYT, False)}

    def test_rows_that_share_no_column(self):
        # Row 1 holds column 3 only, row 2 column 1 only: nothing to compare.
        assert validate(Tableau.of((3, 1), (2,), [2], [1]), SSYT)
        assert validate(Tableau.of((3, 1), (2,), [1], [2]), ASSYT)

    def test_trusted_fillings_pass_the_public_checks(self):
        for shape in skew_shapes_up_to(4):
            for t in list(enumerate_ssyt(shape, 3)) + list(lr_fillings(shape)):
                rebuilt = Tableau(
                    SkewShape(Partition(t.shape.outer.parts), Partition(t.shape.inner.parts)), t.rows
                )
                assert rebuilt == t


class TestEnumeration:
    @pytest.mark.parametrize("kind", [SSYT, ASSYT])
    @pytest.mark.parametrize(
        "outer,inner,m",
        [((2, 1), (), 3), ((2, 2), (1,), 3), ((3, 1), (1,), 2), ((2, 2, 1), (1, 1), 3), ((1,), (), 4)],
    )
    def test_matches_brute_force(self, outer, inner, m, kind):
        shape = SkewShape.of(outer, inner)
        got = list(enumerate_fillings(shape, kind, m))
        assert got == sorted(got, key=lambda t: t.rows)
        assert got == sorted(_brute_fillings(shape, kind, m), key=lambda t: t.rows)

    def test_enumerate_ssyt_is_ssyt_enumeration(self):
        shape = SkewShape.of((2, 2), (1,))
        assert list(enumerate_ssyt(shape, 3)) == list(enumerate_fillings(shape, SSYT, 3))

    def test_kostka_numbers(self):
        # columns of the Kostka matrix for |lam| = 3: K[lam, (1,1,1)]
        assert len([t for t in enumerate_ssyt(SkewShape.of((3,)), 3) if t.content() == (1, 1, 1)]) == 1
        assert len([t for t in enumerate_ssyt(SkewShape.of((2, 1)), 3) if t.content() == (1, 1, 1)]) == 2
        assert len([t for t in enumerate_ssyt(SkewShape.of((1, 1, 1)), 3) if t.content() == (1, 1, 1)]) == 1

    def test_empty_shape(self):
        shape = SkewShape.of((1, 1), (1, 1))
        assert list(enumerate_fillings(shape, SSYT, 2)) == [Tableau(shape, ((), ()))]

    @given(skew_shapes(max_len=3, max_part=3), st.integers(1, 3))
    def test_all_fillings_valid(self, shape, m):
        have = list(enumerate_fillings(shape, SSYT, m))
        assert len(set(have)) == len(have)
        for t in have:
            assert validate(t, SSYT)
            assert all(x <= m for row in t.rows for x in row)


class TestSlotLoops:
    """The explicit-slot enumerators against the recursive ones they replaced."""

    @pytest.mark.parametrize("kind", [SSYT, ASSYT])
    def test_fillings_match_recursive_reference(self, kind):
        for shape in skew_shapes_up_to(7):
            for m in range(4):
                want = list(_recursive_fillings(shape, kind, m))
                assert list(enumerate_fillings(shape, kind, m)) == want, (shape, m)

    def test_lr_fillings_match_recursive_reference(self):
        for shape in skew_shapes_up_to(8):
            assert Counter(lr_fillings(shape)) == Counter(_recursive_lr_fillings(shape)), shape

    def test_star_lr_fillings_match_recursive_reference(self):
        for size in range(9):
            for size_mu in range(size + 1):
                for mu in partitions_of_size(size_mu):
                    for nu in partitions_of_size(size - size_mu):
                        shape = star(SkewShape(mu), SkewShape(nu))
                        assert Counter(lr_fillings(shape)) == Counter(_recursive_lr_fillings(shape))

    def test_unknown_kind_raises_at_call(self):
        with pytest.raises(ValueError, match="unknown tableau kind 'bad'"):
            enumerate_fillings(SkewShape.of((2, 1)), "bad", 2)

    def test_long_row_has_no_depth_limit(self):
        # 2 000 cells, far past the interpreter's recursion limit.
        shape = SkewShape.of((2000,))
        assert enumerate_ssyt(shape, 1) == (Tableau(shape, ((1,) * 2000,)),)


class TestWords:
    def test_reading_word_rows_reversed_bottom_up(self):
        t = parse_tableau("4,3,1/1: [1,2,7][3,3,5][5]")
        assert reading_word(t) == (7, 2, 1, 5, 3, 3, 5)

    def test_reverse_reading_word_golden(self):
        t_minus = Tableau.of((3, 3), (1,), [3, 2], [5, 3, 1])
        t_plus = Tableau.of((9, 9, 5, 3), (7, 5, 4, 1), [2, 4], [1, 4, 4, 5], [3], [5, 6])
        word = reverse_reading_word(t_minus, t_plus)
        assert "".join(map(str, word)) == "21335425441365"

    def test_yamanouchi(self):
        assert is_yamanouchi((1, 1, 2, 1, 2, 3))
        assert not is_yamanouchi((2, 1))
        assert is_yamanouchi(())
        # seeding with tau admits words that fail unseeded
        assert is_yamanouchi((2, 1, 3), Partition((2, 1, 1)))
        assert not is_yamanouchi((2, 1, 3))

    def test_large_pair_word_seeded_yamanouchi_only(self):
        t_minus = Tableau.of((3, 3), (1,), [3, 2], [5, 3, 1])
        t_plus = Tableau.of((9, 9, 5, 3), (7, 5, 4, 1), [2, 4], [1, 4, 4, 5], [3], [5, 6])
        word = reverse_reading_word(t_minus, t_plus)
        assert is_yamanouchi(word, Partition((5, 3, 2, 1)))
        assert not is_yamanouchi(word)


class TestLittlewoodRichardson:
    def test_is_lr_filling(self):
        good = Tableau.of((3, 2), (1,), [1, 1], [1, 2])
        assert validate(good, SSYT) and is_yamanouchi(reading_word(good))
        assert good in set(lr_fillings(good.shape))
        bad = Tableau.of((3, 2), (1,), [1, 2], [1, 2])
        assert validate(bad, SSYT) and not is_yamanouchi(reading_word(bad))
        assert bad not in set(lr_fillings(bad.shape))

    @pytest.mark.parametrize(
        "outer,inner",
        [((2, 1), ()), ((3, 2), (1,)), ((2, 2, 1), (1,)), ((3, 2, 1), (2, 1))],
    )
    def test_lr_fillings_match_filter(self, outer, inner):
        shape = SkewShape.of(outer, inner)
        m = max(shape.size, 1)
        brute = [
            t
            for t in enumerate_fillings(shape, SSYT, m)
            if validate(t, SSYT) and is_yamanouchi(reading_word(t))
        ]
        assert sorted(lr_fillings(shape), key=lambda t: t.rows) == sorted(
            brute, key=lambda t: t.rows
        )

    def test_lr_fillings_straight_shape_single(self):
        # a straight shape has exactly one LR filling: row i filled with i
        got = list(lr_fillings(SkewShape.of((3, 2, 1))))
        assert got == [Tableau.of((3, 2, 1), (), [1, 1, 1], [2, 2], [3])]


class TestParseFormatTableau:
    def test_round_trip(self):
        text = "7,6,4,4,1/3,1: [1,2,2,5][1,2,2,3,6][2,2,3,4][3,5,7,7][9]"
        assert format_tableau(parse_tableau(text)) == text

    def test_empty_rows(self):
        t = parse_tableau("2,1,1,1/1,1,1: [1][][][2]")
        assert t.entry(1, 2) == 1 and t.entry(4, 1) == 2

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_tableau("2,1")  # no colon
        with pytest.raises(ParseError):
            parse_tableau("2,1: [1,2]")  # missing row
        with pytest.raises(ParseError):
            parse_tableau("2,1: [1,x][1]")

    @given(skew_shapes(max_len=3, max_part=3))
    def test_enumerated_round_trip(self, shape):
        for t in itertools.islice(enumerate_ssyt(shape, 2), 5):
            assert parse_tableau(format_tableau(t)) == t
