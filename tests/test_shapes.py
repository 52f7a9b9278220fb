import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skewtab import (
    Cell,
    HORIZONTAL,
    ParseError,
    Partition,
    SkewShape,
    VERTICAL,
    enumerate_contexts,
    enumerate_inner_strips,
    enumerate_outer_strips,
    parse_partition,
    parse_shape,
    partitions_of_size,
    skew_pieri,
    star,
)

from skewtab.shapes import (
    _strata,
    format_partition,
    format_shape,
    skew_shapes_up_to,
    subpartitions_of_size,
    superpartitions,
)

from conftest import partitions, skew_shapes
from oracles import is_strip_by_cells


class TestPartition:
    def test_trailing_zeros_trimmed(self):
        assert Partition((3, 2, 0, 0)) == Partition((3, 2))
        assert Partition((0, 0)) == Partition()

    def test_rejects_bad_parts(self):
        with pytest.raises(ValueError):
            Partition((2, 3))
        with pytest.raises(ValueError):
            Partition((3, -1))
        for parts in [(2.5, 1), ("3",), (True,)]:
            with pytest.raises(ValueError):
                Partition(parts)

    def test_part_indexing(self):
        p = Partition((3, 2, 2))
        assert [p.part(i) for i in range(1, 6)] == [3, 2, 2, 0, 0]
        with pytest.raises(IndexError):
            p.part(0)

    def test_size_len_contains(self):
        p = Partition((3, 2, 2))
        assert p.size == 7 and len(p) == 3
        assert p.contains(Partition((2, 2, 1)))
        assert not p.contains(Partition((4,)))
        assert not p.contains(Partition((1, 1, 1, 1)))

    def test_conjugate_golden(self):
        assert Partition((4, 2, 1)).conjugate() == Partition((3, 2, 1, 1))
        assert Partition().conjugate() == Partition()

    @given(partitions())
    def test_conjugate_involution(self, p):
        assert p.conjugate().conjugate() == p
        assert p.conjugate().size == p.size

    def test_ordering_is_lexicographic(self):
        assert Partition((2, 1)) < Partition((3,))
        assert Partition((3,)) < Partition((3, 1))


class TestSkewShape:
    def test_containment_enforced(self):
        with pytest.raises(ValueError):
            SkewShape.of((2, 1), (3,))

    def test_cells_row_major(self):
        s = SkewShape.of((3, 2), (1,))
        assert s.cells() == (Cell(1, 2), Cell(1, 3), Cell(2, 1), Cell(2, 2))
        assert s.size == 4
        assert s.has_cell(1, 2) and not s.has_cell(1, 1) and not s.has_cell(0, 1)

    def test_row_bounds(self):
        s = SkewShape.of((4, 3, 1), (1,))
        assert s.row_bounds(1) == (1, 4)
        assert s.row_bounds(2) == (0, 3)
        assert s.row_bounds(7) == (0, 0)

    def test_strips(self):
        assert SkewShape.of((3, 1), (1,)).is_strip(HORIZONTAL)
        assert not SkewShape.of((2, 2), (1,)).is_strip(HORIZONTAL)
        assert SkewShape.of((2, 1, 1), (1,)).is_strip(VERTICAL)
        assert not SkewShape.of((2, 2), (1,)).is_strip(VERTICAL)

    @pytest.mark.parametrize("direction", [HORIZONTAL, VERTICAL])
    def test_strips_match_the_cell_oracle(self, direction):
        # is_strip reads the parts; the oracle reads the cells.
        shapes = list(skew_shapes_up_to(8))
        assert len(shapes) == 862
        for s in shapes:
            assert s.is_strip(direction) is is_strip_by_cells(s, direction), str(s)

    def test_unknown_strip_direction(self):
        with pytest.raises(ValueError, match="unknown direction 'diagonal'"):
            SkewShape.of((2, 1), (1,)).is_strip("diagonal")

    def test_ordering_is_outer_then_inner(self):
        shapes = list(skew_shapes_up_to(6))
        assert sorted(shapes) == sorted(shapes, key=lambda s: (s.outer.parts, s.inner.parts))
        assert SkewShape.of((2, 1), (1,)) < SkewShape.of((2, 1), (1, 1)) < SkewShape.of((2, 2))

    def test_corners(self):
        inside, outside = SkewShape.of((3, 2), (1,)).corners()
        assert inside == frozenset({Cell(1, 2), Cell(2, 1)})
        assert outside == frozenset({Cell(1, 3), Cell(2, 2)})

    @given(skew_shapes())
    def test_conjugate_involution(self, s):
        assert s.conjugate().conjugate() == s
        assert s.conjugate().size == s.size

    @given(skew_shapes())
    def test_conjugate_swaps_strip_kinds(self, s):
        assert s.is_strip(HORIZONTAL) == s.conjugate().is_strip(VERTICAL)


class TestStar:
    def test_golden(self):
        a = SkewShape.of((6, 5, 3), (2, 1))
        b = SkewShape.of((3,))
        assert star(a, b) == SkewShape.of((9, 6, 5, 3), (6, 2, 1))

    def test_small_golden(self):
        assert star(SkewShape.of((2, 1), (1,)), SkewShape.of((2,))) == SkewShape.of(
            (4, 2, 1), (2, 1)
        )

    def test_empty_strip(self):
        a = SkewShape.of((2, 1))
        assert star(a, SkewShape.of(())) == a

    @given(skew_shapes(max_len=3, max_part=4), skew_shapes(max_len=3, max_part=4))
    def test_size_additive(self, a, b):
        assert star(a, b).size == a.size + b.size

    def test_result_passes_the_public_checks(self):
        # star builds its result without checks; rebuild it with them.
        shapes = list(skew_shapes_up_to(4))
        for a in shapes:
            for b in shapes:
                s = star(a, b)
                assert SkewShape(Partition(s.outer.parts), Partition(s.inner.parts)) == s


def _brute_outer_strips(base, n, direction):
    """All lam_plus >= base with lam_plus/base an n-cell strip, by filtering."""
    found = []
    rows = len(base) + (n if direction == VERTICAL else 1)
    ceilings = tuple(base.part(i) + n for i in range(1, rows + 1))
    for added in itertools.product(*(range(n + 1) for _ in range(rows))):
        if sum(added) != n:
            continue
        parts = tuple(base.part(i) + a for i, a in enumerate(added, start=1))
        if any(x > c for x, c in zip(parts, ceilings)):
            continue
        if any(a < b for a, b in zip(parts, parts[1:])):
            continue
        cand = Partition(parts)
        if is_strip_by_cells(SkewShape(cand, base), direction):
            found.append(cand)
    return sorted(set(found), key=lambda p: p.parts)


class TestStripEnumeration:
    @pytest.mark.parametrize("direction", [HORIZONTAL, VERTICAL])
    @pytest.mark.parametrize("base", [(), (1,), (2, 1), (3, 2, 2), (2, 2)])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_matches_brute_force(self, base, n, direction):
        base = Partition(base)
        got = enumerate_outer_strips(base, n, direction)
        assert list(got) == _brute_outer_strips(base, n, direction)

    def test_inner_strips_golden(self):
        # removing a 2-cell vertical strip from (2,2,1) must leave a partition
        got = enumerate_inner_strips(Partition((2, 2, 1)), 2, VERTICAL)
        assert set(got) == {Partition((2, 1)), Partition((1, 1, 1))}

    def test_inner_strips_are_contained_strips(self):
        base = Partition((3, 2, 2))
        for k in range(4):
            for mu in enumerate_inner_strips(base, k, VERTICAL):
                assert base.contains(mu)
                assert is_strip_by_cells(SkewShape(base, mu), VERTICAL)
                assert base.size - mu.size == k

    def test_outer_strips_sorted(self):
        got = enumerate_outer_strips(Partition((2, 1)), 2, HORIZONTAL)
        assert list(got) == sorted(got, key=lambda p: p.parts)


class TestPartitionEnumeration:
    def test_partitions_of_size_counts(self):
        # partition numbers p(0)..p(8)
        expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
        assert [len(partitions_of_size(n)) for n in range(9)] == expected

    def test_skew_shapes_up_to(self):
        labels = [str(s) for s in skew_shapes_up_to(2)]
        assert labels == ["∅", "1", "1/1", "1,1", "1,1/1", "1,1/1,1", "2", "2/1", "2/2"]
        assert len(list(skew_shapes_up_to(6))) == 230

    def test_subpartitions(self):
        subs = subpartitions_of_size(Partition((2, 2)), 2)
        assert set(subs) == {Partition((2,)), Partition((1, 1))}

    def test_superpartitions(self):
        sups = superpartitions(Partition((1,)), 1)
        assert set(sups) == {Partition((2,)), Partition((1, 1))}

    @given(partitions(max_len=3, max_part=3), st.integers(0, 3))
    def test_superpartitions_contain_base(self, p, added):
        for q in superpartitions(p, added):
            assert q.contains(p)
            assert q.size == p.size + added


# The recursive enumerators that _partitions_between replaced, and the strata
# loop that _strata replaced, kept as the reference for values and order.


def _old_strips_extending(base, n, direction):
    max_rows = len(base) + 1 if direction == HORIZONTAL else len(base) + n

    def rec(i, budget, acc):
        if i > max_rows:
            if budget == 0:
                yield acc
            return
        lo = base.part(i)
        if direction == HORIZONTAL:
            hi = lo + budget if i == 1 else min(base.part(i - 1), lo + budget)
        else:
            hi = min(lo + 1, lo + budget)
        if i > 1:
            hi = min(hi, acc[-1])
        for v in range(lo, hi + 1):
            yield from rec(i + 1, budget - (v - lo), acc + (v,))

    yield from rec(1, n, ())


def _old_outer_strips(base, n, direction):
    found = {Partition(parts) for parts in _old_strips_extending(base, n, direction)}
    return tuple(sorted(found, key=lambda p: p.parts))


def _old_inner_strips(base, k, direction):
    def rec(i, budget, acc):
        if i > len(base):
            if budget == 0:
                yield acc
            return
        hi = base.part(i)
        lo = base.part(i + 1) if direction == HORIZONTAL else max(hi - 1, 0)
        lo = max(lo, hi - budget)
        if i > 1:
            hi = min(hi, acc[-1])
        for v in range(lo, hi + 1):
            yield from rec(i + 1, budget - (base.part(i) - v), acc + (v,))

    found = {Partition(parts) for parts in rec(1, k, ())}
    return tuple(sorted(found, key=lambda p: p.parts))


def _old_partitions_of_size(n):
    def rec(budget, cap):
        if budget == 0:
            yield ()
            return
        for first in range(min(cap, budget), 0, -1):
            for rest in rec(budget - first, first):
                yield (first,) + rest

    return tuple(sorted((Partition(p) for p in rec(n, n)), key=lambda p: p.parts))


def _old_subpartitions_of_size(p, size):
    def rec(i, budget, acc):
        if i > len(p):
            if budget == 0:
                yield acc
            return
        hi = min(p.part(i), budget) if i == 1 else min(p.part(i), acc[-1], budget)
        for v in range(hi + 1):
            yield from rec(i + 1, budget - v, acc + (v,))

    found = {Partition(parts) for parts in rec(1, size, ())}
    return tuple(sorted(found, key=lambda q: q.parts))


def _old_superpartitions(p, added):
    max_rows = len(p) + added

    def rec(i, budget, acc):
        if i > max_rows:
            if budget == 0:
                yield acc
            return
        lo = p.part(i)
        hi = lo + budget if i == 1 else min(acc[-1], lo + budget)
        for v in range(lo, hi + 1):
            yield from rec(i + 1, budget - (v - lo), acc + (v,))

    found = {Partition(parts) for parts in rec(1, added, ())}
    return tuple(sorted(found, key=lambda q: q.parts))


def _old_strata(base, n, dual):
    out_dir, in_dir = (VERTICAL, HORIZONTAL) if dual else (HORIZONTAL, VERTICAL)
    for k in range(n + 1):
        for lam_plus in _old_outer_strips(base.outer, n - k, out_dir):
            for mu_minus in _old_inner_strips(base.inner, k, in_dir):
                yield k, lam_plus, mu_minus


SMALL_PARTITIONS = [p for m in range(9) for p in _old_partitions_of_size(m)]


class TestAgainstRecursiveReference:
    """Every public enumerator and _strata give the old recursive code's
    tuples, order included, on every partition of size <= 8."""

    def test_partitions_of_size(self):
        for n in range(13):
            assert partitions_of_size(n) == _old_partitions_of_size(n), n
        # A negative size is refused, where the recursive reference gives ().
        for n in (-2, -1):
            with pytest.raises(ValueError, match=f"^n must be nonnegative, got {n}$"):
                partitions_of_size(n)

    @pytest.mark.parametrize("direction", [HORIZONTAL, VERTICAL])
    def test_strips(self, direction):
        for base in SMALL_PARTITIONS:
            for n in range(6):
                got = enumerate_outer_strips(base, n, direction)
                assert got == _old_outer_strips(base, n, direction), (base, n)
            for k in range(base.size + 3):
                got = enumerate_inner_strips(base, k, direction)
                assert got == _old_inner_strips(base, k, direction), (base, k)

    def test_sub_and_superpartitions(self):
        for p in SMALL_PARTITIONS:
            for size in range(-2, p.size + 3):
                assert subpartitions_of_size(p, size) == _old_subpartitions_of_size(p, size), (p, size)
            for added in range(-2, 6):
                assert superpartitions(p, added) == _old_superpartitions(p, added), (p, added)

    @pytest.mark.parametrize("dual", [False, True])
    def test_strata(self, dual):
        for base in skew_shapes_up_to(6):
            for n in range(4):
                assert list(_strata(base, n, dual)) == list(_old_strata(base, n, dual)), (base, n)

    def test_negative_sizes_raise(self):
        for call in (
            lambda: enumerate_outer_strips(Partition((1,)), -1, HORIZONTAL),
            lambda: enumerate_inner_strips(Partition((1,)), -1, VERTICAL),
            lambda: next(_strata(SkewShape.of((1,)), -1)),
            lambda: skew_pieri(SkewShape.of((1,)), -1),
            lambda: next(enumerate_contexts(SkewShape.of((1,)), -1, 2)),
        ):
            with pytest.raises(ValueError, match="^strip size must be nonnegative$"):
                call()

    def test_tall_column(self):
        column = Partition((1,) * 5000)
        assert enumerate_outer_strips(column, 2, HORIZONTAL) == (
            Partition((2,) + (1,) * 5000),
            Partition((3,) + (1,) * 4999),
        )
        assert len(enumerate_inner_strips(column, 1, VERTICAL)) == 1
        assert len(subpartitions_of_size(column, 4999)) == 1
        assert superpartitions(column, 1) == (Partition((1,) * 5001), Partition((2,) + (1,) * 4999))


class TestParseFormat:
    @pytest.mark.parametrize(
        "text,parts",
        [("3,2,2", (3, 2, 2)), ("322", (3, 2, 2)), ("", ()), ("∅", ()), ("10,2", (10, 2))],
    )
    def test_parse_partition(self, text, parts):
        assert parse_partition(text) == Partition(parts)

    def test_parse_partition_errors(self):
        with pytest.raises(ParseError):
            parse_partition("2,3")
        with pytest.raises(ParseError):
            parse_partition("x")

    def test_parse_shape(self):
        assert parse_shape("3,2,2/1,1") == SkewShape.of((3, 2, 2), (1, 1))
        assert parse_shape("322/11") == SkewShape.of((3, 2, 2), (1, 1))
        assert parse_shape("322") == SkewShape.of((3, 2, 2))
        with pytest.raises(ParseError):
            parse_shape("1/2")
        with pytest.raises(ParseError):
            parse_shape("2/1/1")

    @given(skew_shapes())
    def test_round_trip(self, s):
        assert parse_shape(format_shape(s)) == s
        assert parse_partition(format_partition(s.outer)) == s.outer
