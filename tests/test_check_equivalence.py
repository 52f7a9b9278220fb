"""Exhaustive equivalence of the boundary checks with their earlier forms.

`Partition(...)`, `Partition.contains`, the slide-context strip tests,
`Tableau(...)`'s row checks and `Tableau.content()` run as `map`/`zip`
loops. Each is compared here with a test-local copy of the plain Python
expression it replaced, over every partition of size at most 6 and every
pair of them: same accept/reject set, same exception type, same message.

The operator identity (fg)^perp = f^perp g^perp is checked one degree at a
time off the perp tables; its failure list is compared with that of the
per-probe loop it replaced, on clean tables and on corrupted ones. On the
same tables, the perp sweep, which runs that check and the Hall check once
per (f, g) pair and builds each perp image once, is compared with a sweep
that runs every check per case on empty memos, and so is a sequence of calls
that interleaves pairs and values of n and runs through many operands.

`rules.skew_lr_pairs` tests each LR filling's content on the walk's letter
counts and builds a T+ only for the fillings it keeps; its pairs, in order,
are compared with the build-then-filter loop it replaced.

`rules._minus_table` keys its signed sums by kappa and builds one shape per
distinct kappa; its tables are compared with the checked per-state build it
replaced.

`fixed_point_to_star` and `star_to_fixed_point` build the one-row factor of
star(base, (m)) unchecked; both are compared, result or exception, with
copies built through the checked `SkewShape.of((m,))`, on every slide
context over a base of size at most 4 with n <= 2 and entries <= 3.
"""

import itertools
from operator import ge

import pytest

from skewtab import ASSYT, SSYT, Partition, SchurExpansion, SkewShape, Tableau, perp, schur, schur_product
from skewtab import NotFixedPoint, SlideContext, enumerate_contexts, fixed_point_to_star, star, star_to_fixed_point
from skewtab import rules, symfunc, validate
from skewtab.insertion import _bump_in, _freeze, _thaw
from skewtab.involution import _is_horizontal_strip, _is_vertical_strip, _reverse_outer_strip, _slid
from skewtab.shapes import _canonical, partitions_of_size, skew_shapes_up_to, superpartitions
from skewtab.symfunc import SkewExpansion, skew_expansion_to_schur
from skewtab.tableaux import enumerate_fillings, lr_fillings

from oracles import perp_sweep_failures, unmemoised_perp_failures

PARTITIONS = [p for n in range(7) for p in partitions_of_size(n)]
PAIRS = list(itertools.product(PARTITIONS, repeat=2))
SHAPES = [SkewShape(a, b) for a, b in PAIRS if all(a.part(i) >= p for i, p in enumerate(b.parts, 1))]


def _outcome(f, *args):
    """f's result, or the type and message of the exception it raised."""
    try:
        return f(*args)
    except Exception as exc:  # any type: the types are what is compared
        return type(exc), str(exc)


def _reference_partition(parts):
    """Partition(parts).parts as the check was written with sorted()."""
    parts = tuple(parts)
    if not {int}.issuperset(map(type, parts)):
        raise ValueError(f"non-integer part in {parts}")
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    if parts and parts[-1] < 0:
        raise ValueError(f"negative part in {parts}")
    if sorted(parts, reverse=True) != list(parts):
        raise ValueError(f"parts not weakly decreasing: {parts}")
    return parts


def _reference_contains(big, small):
    return all(big.part(i) >= p for i, p in enumerate(small.parts, start=1))


def _reference_horizontal(big, small):
    if not len(small) <= len(big) <= len(small) + 1:
        return False
    return all(map(ge, big, small)) and all(map(ge, small, big[1:]))


def _reference_vertical(big, small):
    if len(small) > len(big):
        return False
    padded = small + (0,) * (len(big) - len(small))
    return all(0 <= b - s <= 1 for b, s in zip(big, padded)) and all(map(ge, small, small[1:]))


def _reference_rows(shape, rows):
    """Tableau(shape, rows).rows as the row checks were written, row by row."""
    rows = tuple(map(tuple, rows))
    if len(rows) != shape.rows:
        raise ValueError(f"{len(rows)} entry rows for a {shape.rows}-row shape")
    for r, row in enumerate(rows, start=1):
        lo, hi = shape.row_bounds(r)
        if len(row) != hi - lo:
            raise ValueError(f"row {r} has {len(row)} entries, expected {hi - lo}")
        if not {int}.issuperset(map(type, row)):
            raise ValueError(f"row {r} has a non-integer entry")
        if any(x < 1 for x in row):
            raise ValueError(f"row {r} has a nonpositive entry")
    return rows


def _reference_content(t):
    counts = {}
    for row in t.rows:
        for x in row:
            counts[x] = counts.get(x, 0) + 1
    top = max(counts) if counts else 0
    return tuple(counts.get(i, 0) for i in range(1, top + 1))


def _partition_inputs():
    """Every ordering of every partition of size <= 6, with and without
    trailing or inner zeros; every tuple over -1..3 of length <= 5; and
    tuples holding a part that is not an int."""
    seen = set()
    for p in PARTITIONS:
        for perm in itertools.permutations(p.parts):
            for padded in (perm, perm + (0,), perm + (0, 0), (0,) + perm, perm[:1] + (0,) + perm[1:]):
                seen.add(padded)
    for k in range(6):
        seen.update(itertools.product(range(-1, 4), repeat=k))
    odd = [(1.0,), (2, True), (3, "1"), (None,), (2, 1, 1.5), (0, False), (-1, 2.0)]
    return sorted(seen) + odd


def test_partition_accepts_and_rejects_as_before():
    inputs = _partition_inputs()
    assert len(inputs) == 4014
    for parts in inputs:
        got = _outcome(lambda: Partition(parts).parts)
        assert got == _outcome(_reference_partition, parts), parts


def test_contains_as_before():
    for big, small in PAIRS:
        assert big.contains(small) is _reference_contains(big, small), (big, small)


def test_strip_tests_as_before():
    # Every pair of partitions, then pairs whose small side is no partition,
    # which the vertical test must refuse on its decreasing check.
    tuples = [p.parts for p in PARTITIONS]
    tuples += sorted({t for k in range(1, 4) for t in itertools.product(range(4), repeat=k)} - set(tuples))
    for big in (p.parts for p in PARTITIONS):
        for small in tuples:
            assert _is_vertical_strip(big, small) is _reference_vertical(big, small), (big, small)
            assert _is_horizontal_strip(big, small) is _reference_horizontal(big, small), (big, small)


def _row_variants(shape):
    """Entry rows for shape: the fitting one, then each row (and each pair
    of rows) given a wrong length, a 0, a bool or a float, and row lists
    one too short and one too long."""
    widths = [hi - lo for lo, hi in map(shape.row_bounds, range(1, shape.rows + 1))]
    good = [[1] * w for w in widths]
    faults = [
        lambda row: row + [1],
        lambda row: row[:-1] if row else None,
        lambda row: row[:-1] + [0] if row else None,
        lambda row: [True] + row[1:] if row else None,
        lambda row: row[:-1] + [1.5] if row else None,
        lambda row: ["1"] if row else None,
    ]
    yield good
    yield good[:-1]
    yield good + [[]]
    for r in range(len(good)):
        for fault in faults:
            bad = fault(good[r])
            if bad is None:
                continue
            yield good[:r] + [bad] + good[r + 1 :]
            for s in range(r + 1, len(good)):
                for other in faults:
                    worse = other(good[s])
                    if worse is not None:
                        yield good[:r] + [bad] + good[r + 1 : s] + [worse] + good[s + 1 :]


def test_tableau_row_checks_as_before():
    checked = 0
    for shape in SHAPES:
        for rows in _row_variants(shape):
            got = _outcome(lambda: Tableau(shape, rows).rows)
            assert got == _outcome(_reference_rows, shape, rows), (shape, rows)
            checked += 1
    assert checked == 16332


def test_content_as_before():
    checked = 0
    for shape in SHAPES:
        for kind in (SSYT, ASSYT):
            for t in enumerate_fillings(shape, kind, 4):
                assert t.content() == _reference_content(t), t
                checked += 1
    assert checked == 9076


def _reference_operator_failures(f, g):
    """The operator-identity failures of perp_identity_failures as the check
    was written: one Schur probe and three perp calls per partition."""
    fails = []
    fg = schur_product(f, g)
    for d in range(f.degree() + g.degree() + 3):
        for pi in partitions_of_size(d):
            probe = schur(pi)
            if perp(fg, probe) != perp(f, perp(g, probe)):
                fails.append(f"(fg)^perp != f^perp g^perp at s[{pi}]")
    return fails


def _operator_failures(f, g):
    return [m for m in symfunc.perp_identity_failures(f, g, 1) if m.startswith("(fg)^perp")]


SMALL = [p for p in PARTITIONS if p.size <= 3]
SIGNED = [
    ({(2,): 1, (1, 1): -3}, {(2, 1): 2, (1,): 1}),
    ({(): 2, (1,): -1, (2, 1): 1}, {(2, 2): 1, (1, 1): 5}),
    ({(1,): 1, (2,): 1, (3,): -1}, {(1, 1, 1): -2, (2, 1): 1, (): 4}),
    ({(2,): 1, (1, 1): -1}, {(2,): 1, (1, 1): 1, (1,): 5}),
]


def _corrupt(edit):
    """A _perp_table whose first row in every table is passed through edit."""
    clean = symfunc._perp_table

    def table(mu, d):
        out = dict(clean(mu, d))
        if out:
            lam = next(iter(out))
            out[lam] = edit(out[lam])
        return out

    return table


CORRUPTIONS = {
    "clean": None,
    "dropped-pair": lambda pairs: pairs[1:],
    "flipped-sign": lambda pairs: ((pairs[0][0], -pairs[0][1]),) + pairs[1:],
    "off-by-one": lambda pairs: ((pairs[0][0], pairs[0][1] + 1),) + pairs[1:],
}


@pytest.mark.usefixtures("fresh_perp_memos")
@pytest.mark.parametrize("corruption", list(CORRUPTIONS))
def test_operator_identity_failures_as_before(corruption, monkeypatch):
    if CORRUPTIONS[corruption]:
        monkeypatch.setattr(symfunc, "_perp_table", _corrupt(CORRUPTIONS[corruption]))
    cases = [(schur(a), schur(b)) for a in SMALL for b in SMALL]
    cases += [(SchurExpansion(f), SchurExpansion(g)) for f, g in SIGNED]
    total = 0
    for f, g in cases:
        got = _operator_failures(f, g)
        assert got == _reference_operator_failures(f, g), (f, g)
        total += len(got)
    assert len(cases) == 53
    assert (total > 0) is (corruption != "clean")


@pytest.mark.usefixtures("fresh_perp_memos")
@pytest.mark.parametrize("corruption", list(CORRUPTIONS))
def test_perp_sweep_failures_as_unmemoised(corruption, monkeypatch):
    if CORRUPTIONS[corruption]:
        monkeypatch.setattr(symfunc, "_perp_table", _corrupt(CORRUPTIONS[corruption]))
    got = rules.verify_perp_range(3, 2)["failures"]
    assert got == perp_sweep_failures(3, 2)
    # A pair whose n-free checks fail is reported at every n, not only the first.
    failing_pairs = 0
    for a in SMALL:
        for b in SMALL:
            if symfunc._pair_failures(schur(a), schur(b), schur_product(schur(a), schur(b))):
                failing_pairs += 1
                for n in (1, 2):
                    assert f"perp identity failed at f=s{a.parts}, g=s{b.parts}, n={n}" in got, (a, b, n)
    assert (failing_pairs > 0) is (corruption != "clean")


@pytest.mark.usefixtures("fresh_perp_memos")
@pytest.mark.parametrize("corruption", list(CORRUPTIONS))
def test_interleaved_pairs_as_unmemoised(corruption, monkeypatch):
    # A pair revisited after another pair took the memo, and n out of order,
    # repeated and at 0; then a run of 127 distinct operands, and the first
    # pairs again: every call reports what it reports on empty memos.
    if CORRUPTIONS[corruption]:
        monkeypatch.setattr(symfunc, "_perp_table", _corrupt(CORRUPTIONS[corruption]))
    a, b = (SchurExpansion(x) for x in SIGNED[0])
    c, d = schur((2, 1)), schur((1, 1))
    calls = [(a, b, 2), (c, d, 1), (a, b, 1), (a, b, 3), (c, d, 3), (c, d, 0), (a, b, 2), (c, d, 2), (a, b, 0)]
    calls += [(SchurExpansion({(1,): k, (): 1}), c, 1) for k in range(1, 128)]
    calls += [(a, b, 2), (c, d, 1)]
    want = [unmemoised_perp_failures(f, g, n) for f, g, n in calls]
    assert [symfunc.perp_identity_failures(f, g, n) for f, g, n in calls] == want
    assert any(want) is (corruption != "clean")
    info = symfunc._pair_images.cache_info()
    assert info.misses > info.maxsize


def _reference_admissible_pairs(a, b):
    """rules._admissible_pairs as it was written: every LR filling of
    star(lam_plus/lam, kappa) built as a Tableau, then kept if its content is
    outer(b)."""
    lam, mu, sigma = a.outer, a.inner, b.outer.parts
    for minus_rows, inner, sign, budget, counts in rules._signed_pairs(mu, rules._difference(b), b.inner.parts):
        mu_minus, kappa = Partition(inner), SkewShape(Partition(counts))
        t_minus = Tableau(SkewShape(mu, mu_minus), minus_rows)
        for lam_plus in superpartitions(lam, sum(budget)):
            plus_shape = SkewShape(lam_plus, lam)
            for t in lr_fillings(star(plus_shape, kappa)):
                if t.content() == sigma:
                    t_plus = Tableau(plus_shape, t.rows[kappa.rows:])
                    yield t_minus, t_plus, SkewShape(lam_plus, mu_minus), sign


def test_admissible_pairs_as_before():
    pairs = 0
    for a in skew_shapes_up_to(4):
        for b in skew_shapes_up_to(3):
            got = list(rules.skew_lr_pairs(a, b))
            assert got == list(_reference_admissible_pairs(a, b)), (a, b)
            pairs += len(got)
    assert pairs == 4834


def _reference_minus_table(mu, target, tau):
    """rules._minus_table as it was written: one checked SkewShape.of per T- state."""
    sums = {}
    for _, mu_minus, sign, budget, counts in rules._signed_pairs(mu, target, tau):
        shape = SkewShape.of(tuple(k + b for k, b in zip(counts, budget)), counts)
        terms = sums.setdefault(mu_minus, {})
        terms[shape] = terms.get(shape, 0) + sign
    return tuple((_canonical(m), skew_expansion_to_schur(SkewExpansion(t))) for m, t in sums.items())


def test_minus_table_as_before():
    checked = 0
    for a in skew_shapes_up_to(4):
        for b in skew_shapes_up_to(3):
            target = rules._difference(b)
            for tau in (b.inner.parts, None):
                got = rules._minus_table.__wrapped__(a.inner, target, tau)
                assert got == _reference_minus_table(a.inner, target, tau), (a, b, tau)
                checked += 1
    assert checked == 52 * 22 * 2


def _reference_fixed_point_to_star(ctx):
    """fixed_point_to_star as it was written, the factor built by SkewShape.of."""
    scratch = _thaw(ctx.tableau)
    exited, landed = _reverse_outer_strip(ctx, scratch)
    if ctx.tableau.shape.inner != ctx.base.inner or landed is not None:
        raise NotFixedPoint(f"phi moves this context (base {ctx.base})")
    residual = _freeze(*scratch)
    strip_row = tuple(reversed(exited))
    if not strip_row:
        return residual
    target = star(ctx.base, SkewShape.of((len(strip_row),)))
    return Tableau(target, (strip_row,) + residual.rows)


def _reference_star_to_fixed_point(base, t):
    """star_to_fixed_point as it was written, the factor built by SkewShape.of."""
    if t.shape == base:
        return SlideContext(base, t)
    strip_row = t.rows[0]
    if t.shape != star(base, SkewShape.of((len(strip_row),))):
        raise ValueError(f"{t.shape} is not {base} concatenated with one row")
    if not validate(t, SSYT):
        raise ValueError("tableau is not semistandard")
    scratch = _thaw(Tableau._trusted(base, t.rows[1:]))
    for k in strip_row:
        _bump_in(*scratch, k, 1)
    return _slid(base, scratch)


def test_fixed_point_maps_as_before():
    contexts = fixed = empty_bottom_rows = 0
    for base in skew_shapes_up_to(4):
        for n in range(3):
            for ctx in enumerate_contexts(base, n, 3):
                contexts += 1
                star_t = _outcome(fixed_point_to_star, ctx)
                assert star_t == _outcome(_reference_fixed_point_to_star, ctx), (base, ctx.tableau)
                # Off the fixed points, the context's own tableau is a wrong-shape input.
                t = star_t if isinstance(star_t, Tableau) else ctx.tableau
                fixed += t is star_t
                empty_bottom_rows += t.rows[:1] == ((),)
                got = _outcome(star_to_fixed_point, base, t)
                assert got == _outcome(_reference_star_to_fixed_point, base, t), (base, t)
    assert (contexts, fixed) == (5134, 2300)
    assert empty_bottom_rows > 0
