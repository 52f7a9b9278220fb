"""Acceptance gate: ten exact-arithmetic checks, one test per criterion.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion. Every equality is exact integer identity; stated time bounds are
asserted where the criterion fixes one.
"""

import time

from skewtab import (
    Cell,
    Partition,
    SchurExpansion,
    SkewShape,
    SlideContext,
    downward_slide,
    external_insert,
    fixed_point_to_star,
    internal_insert,
    is_fixed_point,
    is_yamanouchi,
    lr_coefficient,
    parse_shape,
    parse_tableau,
    partitions_of_size,
    pieri,
    reverse_insert,
    schur,
    schur_product,
    skew_expansion_to_schur,
    skew_h_rho_product,
    skew_lr_product,
    skew_pieri,
    star,
    star_to_fixed_point,
    upward_slide,
    verify_perp_range,
    verify_involution,
    verify_skew_lr,
    verify_skew_pieri,
)
from skewtab.shapes import subpartitions_of_size
from skewtab.symfunc import monomial_product, skew_monomials
from skewtab.tableaux import reverse_reading_word

from oracles import is_admissible_pair, iterated_skew_pieri, schur_from_monomials


def _clock():
    start = time.perf_counter()
    return lambda: time.perf_counter() - start


def test_criterion_01_classical_pieri_golden():
    elapsed = _clock()
    got = pieri(Partition((3, 2, 2)), 2)
    want = SchurExpansion(
        {(3, 2, 2, 2): 1, (3, 3, 2, 1): 1, (4, 2, 2, 1): 1, (4, 3, 2): 1, (5, 2, 2): 1}
    )
    assert got == want
    assert all(c == 1 for c in got.terms.values())
    assert elapsed() < 1.0


def test_criterion_02_skew_pieri_golden():
    elapsed = _clock()
    got = skew_pieri(SkewShape.of((3, 2, 2), (1, 1)), 2)
    want = {
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
    assert dict(got.terms) == want
    signs = sorted(got.terms.values())
    assert signs == [-1, -1, -1, 1, 1, 1, 1, 1, 1]
    assert got.terms[SkewShape.of((3, 2, 2))] == 1
    assert elapsed() < 1.0


def test_criterion_03_insertion_goldens():
    elapsed = _clock()
    before = parse_tableau("7,5,4,2/3,1: [2,2,3,6][1,2,3,4][2,2,7,7][4,5]")
    after_ext = parse_tableau("7,5,4,3/3,1: [2,2,2,6][1,2,3,3][2,2,4,7][4,5,7]")
    after_int = parse_tableau("7,5,4,3,1/3,2: [2,2,2,6][2,3,3][1,2,4,7][2,5,7][4]")

    res, rec = external_insert(before, 2)
    assert res == after_ext
    assert rec.path == (Cell(1, 6), Cell(2, 5), Cell(3, 3), Cell(4, 3))

    res2, rec2 = internal_insert(after_ext, 2)
    assert res2 == after_int
    assert rec2.path == (Cell(2, 2), Cell(3, 1), Cell(4, 1), Cell(5, 1))
    assert rec2.final_entry == 1 and rec2.landing_row == 2

    back_ext, back_rec = reverse_insert(after_ext, (4, 3))
    assert back_ext == before and back_rec.final_entry == 2 and back_rec.landing_row == 0
    back_int, back_rec2 = reverse_insert(after_int, (5, 1))
    assert back_int == after_ext and back_rec2.landing_row == 2
    assert elapsed() < 1.0


def test_criterion_04_slide_goldens():
    elapsed = _clock()
    base = SkewShape.of((7, 5, 4, 1, 1), (3, 1))
    t = parse_tableau("7,6,4,4,1/3,1: [1,2,2,5][1,2,2,3,6][2,2,3,4][3,5,7,7][9]")
    d_of_t = parse_tableau("7,6,4,3,1/2,1: [1,1,2,2,5][2,2,2,3,6][2,3,4,7][3,5,7][9]")
    ctx = SlideContext(base, t)
    down = downward_slide(ctx)
    assert down.tableau == d_of_t
    assert upward_slide(down) == ctx

    fp_base = SkewShape.of((6, 5, 3), (2, 1))
    fp = SlideContext(fp_base, parse_tableau("7,6,3,1/2,1: [1,1,2,3,3][1,3,3,3,7][2,4,6][5]"))
    assert is_fixed_point(fp)
    assert downward_slide(fp) == fp
    star_t = fixed_point_to_star(fp)
    assert star_t.shape == star(fp_base, SkewShape.of((3,)))
    assert star_t.shape == parse_shape("9,6,5,3/6,2,1")
    assert star_t.rows[0] == (2, 3, 3)
    assert star_to_fixed_point(fp_base, star_t) == fp
    assert elapsed() < 1.0


def test_criterion_05_involution_suite():
    report = verify_involution(5, 2, 3)
    assert report["failures"] == []
    assert report["cases"] == 330 and report["contexts"] == 15710


def test_criterion_06_expansion_equals_product():
    report = verify_skew_pieri(6, 3, max_entry=3)
    assert report["failures"] == []
    assert report["schur_cases"] == 690
    assert report["monomial_cases"] == 220
    assert report["involution_cases"] == 220


def test_criterion_07_perp_identity_suite():
    elapsed = _clock()
    report = verify_perp_range(4, 3)
    assert report["failures"] == []
    assert report["cases"] == 432
    assert elapsed() < 60.0


def test_criterion_08_skew_lr_rule():
    report = verify_skew_lr(5, 4)
    assert report["failures"] == []
    assert report["cases"] == 5720

    # degeneration to the signed strip rule is term-for-term
    for a_text in ["2,1/1", "3,2/1,1", "2,2,1/2,1"]:
        a = parse_shape(a_text)
        for n in (1, 2):
            assert skew_lr_product(a, SkewShape.of((n,))).same_terms(skew_pieri(a, n))

    # degeneration to the classical rule: straight shapes, positive integers
    for d1 in range(4):
        for lam in partitions_of_size(d1):
            for d2 in range(4):
                for mu in partitions_of_size(d2):
                    got = skew_lr_product(SkewShape(lam), SkewShape(mu))
                    assert all(s.inner == Partition() for s in got.terms)
                    assert all(
                        c == lr_coefficient(s.outer, lam, mu) for s, c in got.terms.items()
                    )

    # the large displayed pair is admissible and its word is exactly
    # (5,3,2,1)-Yamanouchi, not plain Yamanouchi
    a = SkewShape.of((7, 5, 4, 1), (3, 3))
    b = SkewShape.of((7, 5, 5, 4, 3, 1), (5, 3, 2, 1))
    t_minus = parse_tableau("3,3/1: [3,2][5,3,1]")
    t_plus = parse_tableau("9,9,5,3/7,5,4,1: [2,4][1,4,4,5][3][5,6]")
    assert is_admissible_pair(a, b, t_minus, t_plus)
    word = reverse_reading_word(t_minus, t_plus)
    assert "".join(map(str, word)) == "21335425441365"
    assert is_yamanouchi(word, Partition((5, 3, 2, 1)))
    assert not is_yamanouchi(word, Partition(()))


def test_criterion_09_h_rho_matches_iterated():
    elapsed = _clock()
    cases = 0
    rhos = [r for d in range(4) for r in partitions_of_size(d)]
    for m in range(6):
        for lam in partitions_of_size(m):
            for mu_size in range(m + 1):
                for mu in subpartitions_of_size(lam, mu_size):
                    a = SkewShape(lam, mu)
                    for rho in rhos:
                        cases += 1
                        direct = skew_expansion_to_schur(skew_h_rho_product(a, rho))
                        iterated = skew_expansion_to_schur(iterated_skew_pieri(a, rho))
                        assert direct == iterated, (a, rho)
    assert cases > 600
    assert elapsed() < 60.0


def test_criterion_10_oracle_independence():
    elapsed = _clock()
    cases = 0
    for total in range(7):
        for d1 in range(total + 1):
            for lam in partitions_of_size(d1):
                for mu in partitions_of_size(total - d1):
                    cases += 1
                    fast = schur_product(schur(lam), schur(mu))
                    product_monomials = monomial_product(
                        skew_monomials(schur(lam), total),
                        skew_monomials(schur(mu), total),
                    )
                    oracle = schur_from_monomials(product_monomials, total)
                    assert fast == oracle, (lam, mu)
    assert cases > 100

    for d in range(8):
        for nu in partitions_of_size(d):
            for d1 in range(d + 1):
                for lam in partitions_of_size(d1):
                    for mu in partitions_of_size(d - d1):
                        assert lr_coefficient(nu, lam, mu) == lr_coefficient(nu, mu, lam)
    assert elapsed() < 60.0
