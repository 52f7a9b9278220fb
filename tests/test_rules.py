from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skewtab import (
    ASSYT,
    Partition,
    SSYT,
    SchurExpansion,
    SkewExpansion,
    SkewShape,
    Tableau,
    e,
    enumerate_fillings,
    h,
    is_yamanouchi,
    omega,
    parse_tableau,
    partitions_of_size,
    pieri,
    schur,
    schur_product,
    skew_expansion_to_schur,
    skew_h_rho_product,
    skew_lr_pairs,
    skew_lr_product,
    skew_pieri,
    skew_to_schur,
    validate,
    verify_involution,
    verify_perp_range,
    verify_skew_lr,
    verify_skew_pieri,
)
from skewtab.symfunc import lr_expand
from skewtab.tableaux import reverse_reading_word

from skewtab.rules import (
    _difference,
    _minus_table,
    _signed_pairs,
    _signed_terms,
)
from skewtab.shapes import skew_shapes_up_to, subpartitions_of_size, superpartitions

from conftest import partitions, skew_shapes
from oracles import is_admissible_pair, iterated_skew_pieri, skew_pieri_linear

NINE_TERMS = {
    SkewShape.of((3, 2, 2)): 1,
    SkewShape.of((3, 2, 2, 1), (1,)): -1,
    SkewShape.of((3, 2, 2, 2), (1, 1)): 1,
    SkewShape.of((3, 3, 2), (1,)): -1,
    SkewShape.of((3, 3, 2, 1), (1, 1)): 1,
    SkewShape.of((4, 2, 2), (1,)): -1,
    SkewShape.of((4, 2, 2, 1), (1, 1)): 1,
    SkewShape.of((4, 3, 2), (1, 1)): 1,
    SkewShape.of((5, 2, 2), (1, 1)): 1,
}


class TestPieri:
    def test_golden(self):
        got = pieri(Partition((3, 2, 2)), 2)
        assert got == SchurExpansion(
            {(3, 2, 2, 2): 1, (3, 3, 2, 1): 1, (4, 2, 2, 1): 1, (4, 3, 2): 1, (5, 2, 2): 1}
        )

    def test_dual_golden(self):
        got = pieri(Partition((3, 2, 2)), 2, dual=True)
        assert got == SchurExpansion(
            {(3, 2, 2, 1, 1): 1, (3, 3, 2, 1): 1, (3, 3, 3): 1, (4, 2, 2, 1): 1, (4, 3, 2): 1}
        )

    @given(partitions(max_len=3, max_part=4), st.integers(0, 3))
    def test_matches_product(self, lam, n):
        assert pieri(lam, n) == schur_product(schur(lam), h(n))
        assert pieri(lam, n, dual=True) == schur_product(schur(lam), e(n))

    @given(partitions(max_len=3, max_part=3), st.integers(0, 3))
    def test_dual_transports_through_omega(self, lam, n):
        lhs = omega(pieri(lam, n))
        rhs = pieri(lam.conjugate(), n, dual=True)
        assert lhs == rhs


class TestSkewPieri:
    def test_nine_term_golden(self):
        got = skew_pieri(SkewShape.of((3, 2, 2), (1, 1)), 2)
        assert dict(got.terms) == NINE_TERMS

    def test_straight_shape_reduces_to_pieri(self):
        got = skew_pieri(SkewShape.of((3, 2, 2)), 2)
        assert all(s.inner == Partition() and c == 1 for s, c in got.terms.items())
        assert skew_expansion_to_schur(got) == pieri(Partition((3, 2, 2)), 2)

    def test_strata_signs(self):
        got = skew_pieri(SkewShape.of((3, 2, 2), (1, 1)), 2)
        for s, c in got.terms.items():
            k = Partition((1, 1)).size - s.inner.size
            assert c == (-1) ** k
            # outer grows by a horizontal strip, inner shrinks by a vertical strip
            from skewtab import HORIZONTAL, VERTICAL

            assert SkewShape(s.outer, Partition((3, 2, 2))).is_strip(HORIZONTAL)
            assert SkewShape(Partition((1, 1)), s.inner).is_strip(VERTICAL)

    @given(skew_shapes(max_len=3, max_part=4), st.integers(0, 2))
    def test_collapses_to_product(self, s, n):
        lhs = skew_expansion_to_schur(skew_pieri(s, n))
        rhs = schur_product(skew_to_schur(s), h(n))
        assert lhs == rhs

    @given(skew_shapes(max_len=3, max_part=3), st.integers(0, 2))
    def test_dual_collapses_to_product(self, s, n):
        lhs = skew_expansion_to_schur(skew_pieri(s, n, dual=True))
        rhs = schur_product(skew_to_schur(s), e(n))
        assert lhs == rhs

    def test_linear_extension(self):
        x = SkewExpansion({SkewShape.of((2, 1), (1,)): 2, SkewShape.of((2,)): -1})
        got = skew_pieri_linear(x, 1)
        want = (
            2 * skew_expansion_to_schur(skew_pieri(SkewShape.of((2, 1), (1,)), 1))
            - skew_expansion_to_schur(skew_pieri(SkewShape.of((2,)), 1))
        )
        assert skew_expansion_to_schur(got) == want

    def test_n_zero_is_identity(self):
        s = SkewShape.of((2, 1), (1,))
        got = skew_pieri(s, 0)
        assert dict(got.terms) == {s: 1}


class TestSkewLR:
    def test_agrees_with_schur_product(self):
        for a_parts, b_parts in [
            (((2, 1), (1,)), ((2,), ())),
            (((2, 2), (1,)), ((2, 1), (1,))),
            (((3, 1), (1,)), ((2, 1), ())),
            (((2, 1), ()), ((2, 1), ())),
        ]:
            a, b = SkewShape.of(*a_parts), SkewShape.of(*b_parts)
            got = skew_expansion_to_schur(skew_lr_product(a, b))
            want = schur_product(lr_expand(a), lr_expand(b))
            assert got == want, (a, b)

    def test_degenerates_to_skew_pieri_syntactically(self):
        a = SkewShape.of((3, 2, 2), (1, 1))
        lr = skew_lr_product(a, SkewShape.of((2,)))
        sp = skew_pieri(a, 2)
        assert lr.same_terms(sp)

    def test_degenerates_to_classical_lr(self):
        lam, mu = Partition((2, 1)), Partition((2, 1))
        got = skew_lr_product(SkewShape(lam), SkewShape(mu))
        assert all(s.inner == Partition() for s in got.terms)
        assert all(c > 0 for c in got.terms.values())
        assert skew_expansion_to_schur(got) == schur_product(schur(lam), schur(mu))

    def test_pairs_carry_signs_and_shapes(self):
        a = SkewShape.of((2, 1), (1,))
        b = SkewShape.of((2,), ())
        total = SkewExpansion({})
        for t_minus, t_plus, shape, sign in skew_lr_pairs(a, b):
            assert validate(t_minus, ASSYT) and validate(t_plus, SSYT)
            assert sign in (1, -1)
            total = total + SkewExpansion({shape: sign})
        assert skew_expansion_to_schur(total) == schur_product(lr_expand(a), lr_expand(b))

    def test_large_pair_admissible(self):
        a = SkewShape.of((7, 5, 4, 1), (3, 3))
        b = SkewShape.of((7, 5, 5, 4, 3, 1), (5, 3, 2, 1))
        t_minus = Tableau.of((3, 3), (1,), [3, 2], [5, 3, 1])
        t_plus = Tableau.of((9, 9, 5, 3), (7, 5, 4, 1), [2, 4], [1, 4, 4, 5], [3], [5, 6])
        assert is_admissible_pair(a, b, t_minus, t_plus)
        # perturbing the content breaks the componentwise-difference condition
        bad_plus = Tableau.of((9, 9, 5, 3), (7, 5, 4, 1), [2, 4], [1, 4, 4, 4], [3], [5, 6])
        assert not is_admissible_pair(a, b, t_minus, bad_plus)
        # a plus-filling that does not sit on top of a's outer partition fails
        wrong_base = Tableau.of((9, 9, 5, 3), (7, 5, 4), [2, 4], [1, 4, 4, 5], [3], [4, 5, 6])
        assert not is_admissible_pair(a, b, t_minus, wrong_base)

    def test_entry_above_target_length_is_rejected(self):
        # a 2-cell plus-filling against a 1-cell target: entry 2 exceeds
        # len(outer(b)) = 1, so the pair is not admissible
        a = SkewShape.of((1,))
        b = SkewShape.of((1,))
        t_minus = Tableau(SkewShape.of(()), ())
        t_plus = parse_tableau("2,1/1: [1][2]")
        assert not is_admissible_pair(a, b, t_minus, t_plus)

    def test_large_pair_stratum(self):
        # the pair above contributes -s[(9,9,5,3)/(1)]: five cells leave the
        # inner partition, and both fillings appear in their stratum's lists
        a = SkewShape.of((7, 5, 4, 1), (3, 3))
        b = SkewShape.of((7, 5, 5, 4, 3, 1), (5, 3, 2, 1))
        t_minus = Tableau.of((3, 3), (1,), [3, 2], [5, 3, 1])
        t_plus = Tableau.of((9, 9, 5, 3), (7, 5, 4, 1), [2, 4], [1, 4, 4, 5], [3], [5, 6])
        removed = a.inner.size - t_minus.shape.inner.size
        assert removed == 5 and (-1) ** removed == -1
        assert SkewShape(t_plus.shape.outer, t_minus.shape.inner) == SkewShape.of(
            (9, 9, 5, 3), (1,)
        )
        target = tuple(b.outer.part(i + 1) - b.inner.part(i + 1) for i in range(len(b.outer)))
        assert target == (2, 2, 3, 3, 3, 1)
        minus_content = t_minus.content() + (0,) * (len(target) - len(t_minus.content()))
        remaining = tuple(t - c for t, c in zip(target, minus_content))
        assert t_minus in _capped_fillings(t_minus.shape, ASSYT, target)
        assert t_plus in _capped_fillings(t_plus.shape, SSYT, remaining)


def _capped_fillings(shape, kind, cap):
    """The fillings of shape with entries in 1..len(cap) whose content is at
    most cap, entry by entry."""
    for t in enumerate_fillings(shape, kind, len(cap)):
        if all(have <= most for have, most in zip(t.content(), cap)):
            yield t


def _reference_pairs(a, target, tau):
    """Generate-then-filter: every content-matching pair built from the
    fillings of each stratum whose content fits within target, kept when tau
    is None or its reverse reading word is tau-Yamanouchi."""
    lam, mu = a.outer, a.inner
    total = sum(target)
    for k in range(min(mu.size, total) + 1):
        sign = -1 if k % 2 else 1
        for mu_minus in subpartitions_of_size(mu, mu.size - k):
            for t_minus in _capped_fillings(SkewShape(mu, mu_minus), ASSYT, target):
                used = t_minus.content() + (0,) * len(target)
                remaining = tuple(c - u for c, u in zip(target, used))
                for lam_plus in superpartitions(lam, total - k):
                    outer_shape = SkewShape(lam_plus, lam)
                    for t_plus in _capped_fillings(outer_shape, SSYT, remaining):
                        word = reverse_reading_word(t_minus, t_plus)
                        if tau is None or is_yamanouchi(word, tau):
                            yield t_minus, t_plus, SkewShape(lam_plus, mu_minus), sign


def _reference_terms(pairs):
    terms = {}
    for _, _, shape, sign in pairs:
        terms[shape] = terms.get(shape, 0) + sign
    return SkewExpansion(terms)


class TestPrunedPairsAgainstGenerateThenFilter:
    """The pruned backtracker against a generate-then-filter reference, over
    every first factor with |outer| <= 4 and second factor with |outer| <= 3."""

    def test_skew_lr_pairs_and_product(self):
        cases = 0
        for a in skew_shapes_up_to(4):
            for b in skew_shapes_up_to(3):
                target = tuple(
                    b.outer.part(i) - b.inner.part(i) for i in range(1, len(b.outer) + 1)
                )
                want = list(_reference_pairs(a, target, b.inner))
                got = list(skew_lr_pairs(a, b))
                assert Counter(got) == Counter(want), (a, b)
                assert skew_lr_product(a, b).same_terms(_reference_terms(want)), (a, b)
                for t_minus, t_plus, _, _ in got:
                    assert is_admissible_pair(a, b, t_minus, t_plus), (a, b, t_minus, t_plus)
                cases += 1
        assert cases == 52 * 22

    def test_h_rho_product(self):
        rhos = [rho for d in range(4) for rho in partitions_of_size(d)]
        for a in skew_shapes_up_to(4):
            for rho in rhos:
                want = _reference_terms(_reference_pairs(a, rho.parts, None))
                assert skew_h_rho_product(a, rho).same_terms(want), (a, rho)


def _recursive_signed_pairs(a, target, tau, minus_only=False):
    """The recursive backtracker that rules._signed_pairs replaced: four
    mutually recursive generators, one call per column, cell and row. Yields
    raw pairs (minus_rows, plus_rows, lam_plus, mu_minus, sign) in its fill
    order: T- column by column, rightmost first and bottom to top, then T+
    row by row, bottom first and right to left. With minus_only it yields
    each finished T- instead, as _signed_pairs does: (minus_rows, mu_minus,
    sign, budget, counts)."""
    lam, mu = a.outer.parts, a.inner.parts
    m = len(target)
    total = sum(target)
    budget = [0, *target]  # copies of each entry 1..m still to place
    if tau is None:  # a seed so steep that no word of this content breaks it
        tau = tuple((total + 1) * (m - i) for i in range(m))
    # Entry counts of the word so far, seeded from tau; counts[0] exceeds any
    # count, so every 1 passes the lattice test.
    counts = [total + sum(tau) + 1, *tau, *(0,) * (m - len(tau))]
    mu_cols = [0, *a.inner.conjugate().parts, 0]  # column heights of mu, 1-indexed
    heights = [0] * len(mu_cols)  # heights[c]: height of column c of mu_minus
    minus_grid = [[0] * p for p in mu]
    minus = ()  # (minus_rows, mu_minus, sign) of the finished T-
    # The rows of T+ so far, each as long as its row of lam_plus; cells of lam
    # hold 0, so they bound nothing above them.
    plus_rows: list[list[int]] = []
    lam_at = (*lam, *(0,) * (total + 1))

    def place(x: int) -> bool:
        if not budget[x] or counts[x] >= counts[x - 1]:
            return False
        budget[x] -= 1
        counts[x] += 1
        return True

    def unplace(x: int) -> None:
        budget[x] += 1
        counts[x] -= 1

    def minus_column(c: int, k: int):
        # Choose the height of column c of mu_minus, then fill the cells above.
        nonlocal minus
        if c == 0:
            inner = [sum(h >= r for h in heights) for r in range(1, len(mu) + 1)]
            minus_rows = tuple(tuple(row[i:]) for row, i in zip(minus_grid, inner))
            minus = (minus_rows, tuple(i for i in inner if i), -1 if k % 2 else 1)
            if minus_only:
                yield (*minus, tuple(budget[1:]), tuple(counts[1:]))
            else:
                yield from plus_row(1, lam_at[0] + total, total - k)
            return
        top = mu_cols[c]
        for h in range(max(heights[c + 1], top - (total - k)), top + 1):
            heights[c] = h
            yield from minus_cell(c, h + 1, k)

    def minus_cell(c: int, r: int, k: int):
        # Cell (r, c) of T-: above its right neighbour, at most the cell below.
        if r > mu_cols[c]:
            yield from minus_column(c - 1, k)
            return
        row = minus_grid[r - 1]
        right = row[c] if c < len(row) else 0
        below = minus_grid[r - 2][c - 1] if r - 1 > heights[c] else m
        for x in range(right + 1, below + 1):
            if place(x):
                row[c - 1] = x
                yield from minus_cell(c, r + 1, k + 1)
                unplace(x)

    def plus_row(r: int, widest: int, left: int):
        # Choose the length of row r of lam_plus, then fill its new cells.
        if not left:
            minus_rows, mu_minus, sign = minus
            rows = tuple(tuple(row[base:]) for row, base in zip(plus_rows, lam_at))
            rows += ((),) * (len(lam) - len(rows))
            lam_plus = tuple(map(len, plus_rows)) + lam[len(plus_rows):]
            yield minus_rows, rows, lam_plus, mu_minus, sign
            return
        base = lam_at[r - 1]
        # A row above lam left empty would leave every later row empty too.
        for width in range(max(base, 1), min(widest, base + left) + 1):
            plus_rows.append([0] * width)
            yield from plus_cell(r, width, base, left)
            plus_rows.pop()

    def plus_cell(r: int, c: int, base: int, left: int):
        # Cell (r, c) of T+: at most its right neighbour, above the cell below.
        row = plus_rows[-1]
        if c == base:
            yield from plus_row(r + 1, len(row), left)
            return
        right = row[c] if c < len(row) else m
        below = plus_rows[-2][c - 1] if r > 1 else 0
        for x in range(below + 1, right + 1):
            if place(x):
                row[c - 1] = x
                yield from plus_cell(r, c - 1, base, left - 1)
                unplace(x)

    return minus_column(len(mu_cols) - 2, 0)


def _as_pairs(a, raw):
    """Raw pairs of _recursive_signed_pairs for the factor a as the tuples
    skew_lr_pairs yields."""
    for minus_rows, plus_rows, lam_plus, mu_minus, sign in raw:
        lam_plus, mu_minus = Partition(lam_plus), Partition(mu_minus)
        yield (
            Tableau(SkewShape(a.inner, mu_minus), minus_rows),
            Tableau(SkewShape(lam_plus, a.outer), plus_rows),
            SkewShape(lam_plus, mu_minus),
            sign,
        )


class TestSlotLoopAgainstRecursiveReference:
    """rules._signed_pairs against the recursive backtracker it replaced:
    the same finished T- states in the same order, and the reference's pairs
    (T+ included, no code shared with src/) at the totals they had."""

    def test_skew_lr_targets(self):
        # The pairs of the skew-lr sweep, verify_skew_lr(5, 4).
        shapes_b = tuple(skew_shapes_up_to(4))
        pairs = states = 0
        for a in skew_shapes_up_to(5):
            for b in shapes_b:
                target, tau = _difference(b), b.inner.parts
                got = list(_signed_pairs(a.inner, target, tau))
                assert got == list(_recursive_signed_pairs(a, target, tau, minus_only=True)), (a, b)
                states += len(got)
                pairs += sum(1 for _ in _recursive_signed_pairs(a, target, tau))
        assert (states, pairs) == (13461, 44986)

    def test_h_rho_targets(self):
        rhos = [rho for d in range(5) for rho in partitions_of_size(d)]
        pairs = states = 0
        for a in skew_shapes_up_to(5):
            for rho in rhos:
                got = list(_signed_pairs(a.inner, rho.parts, None))
                want = _recursive_signed_pairs(a, rho.parts, None, minus_only=True)
                assert got == list(want), (a, rho)
                states += len(got)
                pairs += sum(1 for _ in _recursive_signed_pairs(a, rho.parts, None))
        assert (states, pairs) == (7076, 65205)

    def test_skew_lr_pairs_multiset(self):
        # skew_lr_pairs, which reads each T+ off lr_fillings, against the
        # reference's pairs over the skew-lr sweep grid.
        shapes_b = tuple(skew_shapes_up_to(4))
        pairs = 0
        for a in skew_shapes_up_to(5):
            for b in shapes_b:
                got = Counter(skew_lr_pairs(a, b))
                want = Counter(_as_pairs(a, _recursive_signed_pairs(a, _difference(b), b.inner.parts)))
                assert got == want, (a, b)
                pairs += got.total()
        assert pairs == 44986


def _pair_terms(pairs):
    """The signs of raw pairs from _recursive_signed_pairs summed by shape
    lam_plus/mu_minus: the terms skew_lr_product and skew_h_rho_product
    count without building the pairs."""
    terms = {}
    for _, _, lam_plus, mu_minus, sign in pairs:
        shape = SkewShape.of(lam_plus, mu_minus)
        terms[shape] = terms.get(shape, 0) + sign
    return SkewExpansion(terms)


class TestCountedTermsAgainstPairs:
    """The products count T+ completions per residual state of a finished
    T-; summing the signs of every pair the recursive reference builds must
    give the same terms."""

    def test_skew_lr_sweep(self):
        # Every product of the skew-lr sweep, verify_skew_lr(5, 4).
        shapes_b = tuple(skew_shapes_up_to(4))
        cases = 0
        for a in skew_shapes_up_to(5):
            for b in shapes_b:
                want = _pair_terms(_recursive_signed_pairs(a, _difference(b), b.inner.parts))
                assert skew_lr_product(a, b).same_terms(want), (a, b)
                cases += 1
        assert cases == 5720

    def test_h_rho(self):
        rhos = [rho for d in range(5) for rho in partitions_of_size(d)]
        for a in skew_shapes_up_to(5):
            for rho in rhos:
                want = _pair_terms(_recursive_signed_pairs(a, rho.parts, None))
                assert skew_h_rho_product(a, rho).same_terms(want), (a, rho)


def _terms_by_schur_product(a, target, tau):
    """_signed_terms as it read s_lam * f before: one schur_product of
    schur(lam) and f per (mu_minus, f) of _minus_table."""
    lam = schur(a.outer)
    terms = {}
    for mu_minus, f in _minus_table(a.inner, target, tau):
        for lam_plus, c in schur_product(lam, f).terms.items():
            terms[SkewShape(lam_plus, mu_minus)] = c
    return SkewExpansion(terms)


class TestSignedTermsAgainstSchurProductRoute:
    """rules._signed_terms, which sums each mu_minus's LR tables into one
    dict, against the schur_product route it replaced: the same terms."""

    def test_skew_lr_targets(self):
        # The pairs of the skew-lr sweep, verify_skew_lr(5, 4).
        shapes_b = tuple(skew_shapes_up_to(4))
        cases = 0
        for a in skew_shapes_up_to(5):
            for b in shapes_b:
                args = (a, _difference(b), b.inner.parts)
                assert _signed_terms(*args).same_terms(_terms_by_schur_product(*args)), (a, b)
                cases += 1
        assert cases == 5720

    def test_h_rho_targets(self):
        rhos = [rho for d in range(5) for rho in partitions_of_size(d)]
        for a in skew_shapes_up_to(5):
            for rho in rhos:
                args = (a, rho.parts, None)
                assert _signed_terms(*args).same_terms(_terms_by_schur_product(*args)), (a, rho)


def _residual_states():
    """Every state (lam, sigma, kappa, word test) at which a finished T-
    leaves the products of the skew-lr sweep, verify_skew_lr(5, 4), and of
    the h_rho grid (|a| <= 5, |rho| <= 4) to count their T+: one per lam,
    content still unspent and, under a word test, the word's entry counts
    (with none, states that differ only in the seed have the same T+)."""
    jobs = [(_difference(b), b.inner.parts) for b in skew_shapes_up_to(4)]
    jobs += [(rho.parts, None) for d in range(5) for rho in partitions_of_size(d)]
    states = {}
    for a in skew_shapes_up_to(5):
        for target, tau in dict.fromkeys(jobs):
            for *_, budget, counts in _signed_pairs(a.inner, target, tau):
                sigma = tuple(k + b for k, b in zip(counts, budget))
                key = a.outer, budget, None if tau is None else counts
                states.setdefault(key, (a.outer, sigma, counts, tau is not None))
    return states.values()


class TestKappaLatticeIdentity:
    """The products read the T+ completions of a finished T- off a Schur
    product: with kappa the word's entry counts where T- ends and sigma =
    kappa + the content still unspent, the T+ of lam_plus/lam number
    <s_lam * s_{sigma/kappa}, s_lam_plus>. The recursive reference's T+
    half, run on lam/() from that state, counts them; with no word test the
    steep seed's sigma/kappa is disjoint rows, a product of h's."""

    def test_every_state_of_the_sweeps(self):
        states = list(_residual_states())
        assert len(states) == 1773
        assert sum(word for *_, word in states) == 988
        for lam, sigma, kappa, word in states:
            budget = tuple(s - k for s, k in zip(sigma, kappa))
            pairs = _recursive_signed_pairs(SkewShape(lam), budget, kappa if word else None)
            tally = Counter(Partition(lam_plus) for _, _, lam_plus, _, _ in pairs)
            want = SchurExpansion(dict(tally))
            shape = SkewShape.of(sigma, kappa)
            assert schur_product(schur(lam), skew_to_schur(shape)) == want, (lam, sigma, kappa)


def _h_times(poly, k, sign):
    """sign * h_k * poly, for a polynomial in the h's keyed by the sorted
    tuple of its h indices (h_0 = 1 adds no index)."""
    if k == 0:
        return {mono: sign * c for mono, c in poly.items()}
    return {tuple(sorted((*mono, k))): sign * c for mono, c in poly.items()}


def _poly_add(out, poly, scale=1):
    for mono, c in poly.items():
        out[mono] = out.get(mono, 0) + scale * c
    return out


def _poly_mul(f, g):
    out = {}
    for mf, cf in f.items():
        for mg, cg in g.items():
            mono = tuple(sorted(mf + mg))
            out[mono] = out.get(mono, 0) + cf * cg
    return {mono: c for mono, c in out.items() if c}


@lru_cache(maxsize=None)
def _jt_minor(lam_shift, mu_shift, i, used):
    """The Jacobi-Trudi minor on rows i.. and the columns not in the bit
    mask used, expanded along row i; entry (i, j) is h_{lam_i - mu_j - i + j},
    zero for a negative index."""
    if i == len(lam_shift):
        return {(): 1}
    out = {}
    sign = 1
    for j, m in enumerate(mu_shift):
        if used >> j & 1:
            continue
        k = lam_shift[i] - m
        if k >= 0:
            _poly_add(out, _h_times(_jt_minor(lam_shift, mu_shift, i + 1, used | 1 << j), k, sign))
        sign = -sign
    return {mono: c for mono, c in out.items() if c}


def jacobi_trudi(shape):
    """s_{lam/mu} = det(h_{lam_i - mu_j - i + j}) as an integer polynomial
    in the h's: no tableau, LR table or pair is involved."""
    n = len(shape.outer)
    lam_shift = tuple(shape.outer.part(i) - i for i in range(1, n + 1))
    mu_shift = tuple(shape.inner.part(j) - j for j in range(1, n + 1))
    return _jt_minor(lam_shift, mu_shift, 0, 0)


def _jt_of(x):
    """A signed sum of skew Schur functions as a polynomial in the h's."""
    out = {}
    for shape, c in x.terms.items():
        _poly_add(out, jacobi_trudi(shape), c)
    return {mono: c for mono, c in out.items() if c}


class TestJacobiTrudiOracle:
    """The products against the Jacobi-Trudi determinant, a route that
    shares no code with the rules: s_a * s_b and sum_c c * s_c must be the
    same polynomial in the h's."""

    def test_jacobi_trudi_agrees_with_lr(self):
        assert jacobi_trudi(SkewShape.of((2, 1))) == {(1, 2): 1, (3,): -1}
        for s in skew_shapes_up_to(4):
            want = _jt_of(SkewExpansion({SkewShape(p): c for p, c in skew_to_schur(s).terms.items()}))
            assert jacobi_trudi(s) == want, s

    def test_skew_lr_sweep(self):
        # Every product of the skew-lr sweep, verify_skew_lr(5, 4).
        shapes_b = tuple(skew_shapes_up_to(4))
        cases = 0
        for a in skew_shapes_up_to(5):
            for b in shapes_b:
                want = _poly_mul(jacobi_trudi(a), jacobi_trudi(b))
                assert _jt_of(skew_lr_product(a, b)) == want, (a, b)
                cases += 1
        assert cases == 5720

    def test_h_rho(self):
        rhos = [rho for d in range(5) for rho in partitions_of_size(d)]
        for a in skew_shapes_up_to(5):
            for rho in rhos:
                want = {tuple(sorted(mono + rho.parts)): c for mono, c in jacobi_trudi(a).items()}
                assert _jt_of(skew_h_rho_product(a, rho)) == want, (a, rho)


class TestHRho:
    @pytest.mark.parametrize(
        "a_parts,rho",
        [
            (((2, 1), (1,)), (2, 1)),
            (((2, 2), (1,)), (2,)),
            (((3, 1), ()), (1, 1)),
            (((2, 2, 1), (1,)), (3,)),
        ],
    )
    def test_matches_iterated_skew_pieri(self, a_parts, rho):
        a = SkewShape.of(*a_parts)
        rho = Partition(rho)
        direct = skew_h_rho_product(a, rho)
        iterated = iterated_skew_pieri(a, rho)
        assert skew_expansion_to_schur(direct) == skew_expansion_to_schur(iterated)

    def test_matches_product_of_h(self):
        a = SkewShape.of((2, 1), (1,))
        rho = Partition((2, 1))
        hprod = schur_product(h(2), h(1))
        want = schur_product(lr_expand(a), hprod)
        assert skew_expansion_to_schur(skew_h_rho_product(a, rho)) == want

    def test_single_row_is_skew_pieri(self):
        a = SkewShape.of((2, 2), (1,))
        direct = skew_h_rho_product(a, Partition((2,)))
        assert direct.same_terms(skew_pieri(a, 2))

    def test_tall_factor(self):
        # The pair loop keeps no call per row, so a 600-row skew column
        # (once past the recursion limit) takes h_{2,1} like a short one.
        a = SkewShape.of((1,) * 600, (1,) * 300)
        direct = skew_h_rho_product(a, Partition((2, 1)))
        assert len(direct) == 12
        assert direct.same_terms(iterated_skew_pieri(a, Partition((2, 1))))


SH = SkewShape.of((2, 1), (1,))


class TestEntryTypes:
    """Each product rule checks its arguments once, at the public entry, and
    names the first wrong-typed one in a TypeError."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: skew_lr_product(SH, "x"), "b 'x' is not a SkewShape"),
            (lambda: skew_lr_product("x", SH), "a 'x' is not a SkewShape"),
            (lambda: skew_lr_product(SH, (2,)), "b (2,) is not a SkewShape"),
            (lambda: list(skew_lr_pairs(SH, "x")), "b 'x' is not a SkewShape"),
            (lambda: list(skew_lr_pairs(None, SH)), "a None is not a SkewShape"),
            (lambda: skew_h_rho_product(SH, (1,)), "rho (1,) is not a Partition"),
            (
                lambda: skew_h_rho_product(Partition((2,)), Partition((1,))),
                "a Partition(parts=(2,)) is not a SkewShape",
            ),
            (lambda: pieri(Partition((2, 1)), "2"), "n must be an int, got '2'"),
            (lambda: pieri((2, 1), 2), "lam (2, 1) is not a Partition"),
            (lambda: pieri(Partition((2, 1)), True), "n must be an int, got True"),
            (lambda: skew_pieri(SH, "2"), "n must be an int, got '2'"),
            (lambda: skew_pieri(SH, True), "n must be an int, got True"),
            (lambda: skew_pieri(SH, 1.0), "n must be an int, got 1.0"),
            (lambda: skew_pieri(Partition((2,)), 1), "s Partition(parts=(2,)) is not a SkewShape"),
        ],
        ids=[
            "lr-b-str", "lr-a-str", "lr-b-tuple", "pairs-b-str", "pairs-a-none",
            "h-rho-tuple", "h-rho-a-partition", "pieri-str", "pieri-tuple",
            "pieri-bool", "skew-pieri-str", "skew-pieri-bool", "skew-pieri-float",
            "skew-pieri-partition",
        ],
    )
    def test_rejects_wrong_types(self, call, message):
        with pytest.raises(TypeError) as exc:
            call()
        assert str(exc.value) == message


class TestVerifiers:
    def test_skew_pieri_report(self):
        rep = verify_skew_pieri(3, 2, max_entry=3)
        assert rep["failures"] == []
        assert rep["schur_cases"] > 0
        assert rep["monomial_cases"] > 0
        assert rep["involution_cases"] > 0

    def test_skew_lr_report(self):
        rep = verify_skew_lr(3, 2)
        assert rep["failures"] == []
        assert rep["cases"] > 0

    def test_perp_report(self):
        rep = verify_perp_range(2, 2)
        assert rep["failures"] == []
        assert rep["cases"] > 0

    @pytest.mark.parametrize("bad", [True, 1.5], ids=["bool", "float"])
    @pytest.mark.parametrize(
        "sweep, name",
        [
            (lambda x: verify_involution(x, 1, 1), "limit_outer"),
            (lambda x: verify_skew_pieri(1, 1, max_entry=x), "max_entry"),
            (lambda x: verify_skew_lr(1, x), "limit_outer_b"),
            (lambda x: verify_perp_range(x, 1), "max_deg"),
        ],
        ids=["involution", "skew-pieri", "skew-lr", "perp"],
    )
    def test_limits_must_be_ints(self, sweep, name, bad):
        with pytest.raises(TypeError) as exc:
            sweep(bad)
        assert str(exc.value) == f"{name} must be an int, got {bad!r}"
