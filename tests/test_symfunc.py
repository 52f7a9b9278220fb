import itertools
import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skewtab import (
    Partition,
    SchurExpansion,
    SkewExpansion,
    SkewShape,
    e,
    enumerate_outer_strips,
    expansion_from_json,
    expansion_to_json,
    h,
    hall_inner,
    lr_coefficient,
    omega,
    perp,
    schur,
    schur_product,
    skew_expansion_to_schur,
    skew_to_schur,
    verify_perp_range,
    HORIZONTAL,
    VERTICAL,
)
from skewtab import symfunc
from skewtab.shapes import partitions_of_size, superpartitions
from skewtab.symfunc import (
    _basis_product,
    _perp_images,
    lr_expand,
    monomial_expansion,
    monomial_product,
    perp_identity_failures,
    skew_monomials,
    verify_perp_identities,
)

from conftest import partitions, skew_shapes
from oracles import PERP_MEMOS, NotSymmetric, schur_from_monomials


class TestSchurExpansion:
    def test_construction_normalizes(self):
        x = SchurExpansion({(2, 1): 1, (3,): 0})
        assert x == SchurExpansion({Partition((2, 1)): 1})
        assert len(x) == 1
        assert x[(3,)] == 0 and x[(2, 1)] == 1

    def test_rejects_non_integer(self):
        with pytest.raises(TypeError):
            SchurExpansion({(2, 1): 1.5})
        with pytest.raises(TypeError):
            SchurExpansion({(1,): True})
        with pytest.raises(TypeError):
            SkewExpansion({SkewShape.of((1,)): False})

    def test_rejects_bad_keys(self):
        with pytest.raises(ValueError, match="not weakly decreasing"):
            SchurExpansion({(1, 2): 1})
        with pytest.raises(TypeError, match="is not a skew shape"):
            SkewExpansion({(1,): 1})
        # An iterable of bad parts is a ValueError, in a key or a lookup.
        bad = [("x", "non-integer part"), ((2, "a"), "non-integer part"), ((-1,), "negative part")]
        for key, match in bad:
            with pytest.raises(ValueError, match=match):
                SchurExpansion({key: 1})
            with pytest.raises(ValueError, match=match):
                schur((2, 1))[key]

    @pytest.mark.parametrize("key", [None, 1, 1.5])
    def test_non_iterable_key_is_named(self, key):
        message = f"key {key!r} is not a Partition or an iterable of parts"
        with pytest.raises(TypeError) as exc:
            SchurExpansion({key: 1})
        assert str(exc.value) == message
        with pytest.raises(TypeError) as exc:
            schur((2, 1))[key]
        assert str(exc.value) == message

    def test_arithmetic(self):
        a, b = schur((2, 1)), schur((3,))
        assert a + b - a == b
        assert -(a - b) == b - a
        assert 2 * a == a + a
        assert 0 * a == SchurExpansion({})
        assert not SchurExpansion({})
        assert bool(a)

    @pytest.mark.parametrize("other", [1, 0, 1.5, None])
    def test_sum_with_another_type_is_a_type_error(self, other):
        a = schur((2, 1))
        for op in (lambda: a + other, lambda: other + a, lambda: a - other, lambda: other - a):
            with pytest.raises(TypeError, match="unsupported operand"):
                op()

    def test_schur_plus_skew_is_a_type_error(self):
        a, s = schur((2, 1)), SkewExpansion({SkewShape.of((2, 1), (1,)): 1})
        for op in (lambda: a + s, lambda: s + a, lambda: a - s, lambda: s - a):
            with pytest.raises(TypeError, match="unsupported operand"):
                op()

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_scalar_is_rejected(self, flag):
        for x in (schur((2, 1)), SkewExpansion({SkewShape.of((2, 1), (1,)): 1})):
            with pytest.raises(TypeError):
                x * flag
            with pytest.raises(TypeError):
                flag * x
        assert schur((2, 1)) * 1 == schur((2, 1))

    def test_degree_and_str(self):
        x = schur((3, 2)) - 2 * schur((1,))
        assert x.degree() == 5
        assert str(x) == "- 2*s[1] + s[3,2]"
        assert str(schur((2, 1)) + schur((3,))) == "s[2,1] + s[3]"
        assert str(SchurExpansion({})) == "0"

    def test_iteration_sorted(self):
        x = schur((3,)) + schur((1, 1)) + schur((2, 1))
        assert [p.parts for p, _ in x] == [(1, 1), (2, 1), (3,)]


class TestLittlewoodRichardson:
    def test_lr_expand_goldens(self):
        assert lr_expand(SkewShape.of((2, 1), (1,))) == schur((2,)) + schur((1, 1))
        assert lr_expand(SkewShape.of((2, 2), (1,))) == schur((2, 1))
        assert lr_expand(SkewShape.of((3, 2, 1))) == schur((3, 2, 1))

    def test_lr_coefficient_goldens(self):
        # c^{(3,2,1)}_{(2,1),(2,1)} = 2 is the classic multiplicity-two case
        assert lr_coefficient(Partition((3, 2, 1)), Partition((2, 1)), Partition((2, 1))) == 2
        assert lr_coefficient(Partition((4, 2)), Partition((2, 1)), Partition((2, 1))) == 1
        assert lr_coefficient(Partition((2, 2)), Partition((2,)), Partition((1,))) == 0
        assert lr_coefficient(Partition((2, 1)), Partition((3,)), Partition(())) == 0

    def test_product_golden(self):
        got = schur_product(schur((2, 1)), schur((2, 1)))
        want = SchurExpansion(
            {
                (4, 2): 1,
                (4, 1, 1): 1,
                (3, 3): 1,
                (3, 2, 1): 2,
                (3, 1, 1, 1): 1,
                (2, 2, 2): 1,
                (2, 2, 1, 1): 1,
            }
        )
        assert got == want

    def test_pieri_special_cases(self):
        # multiplying by h_n adds horizontal strips; by e_n vertical strips
        lam = Partition((2, 1))
        byh = schur_product(schur(lam), h(2))
        assert byh == SchurExpansion(
            {p.parts: 1 for p in enumerate_outer_strips(lam, 2, HORIZONTAL)}
        )
        bye = schur_product(schur(lam), e(2))
        assert bye == SchurExpansion(
            {p.parts: 1 for p in enumerate_outer_strips(lam, 2, VERTICAL)}
        )

    @given(partitions(max_len=3, max_part=3), partitions(max_len=3, max_part=3))
    def test_product_commutes(self, lam, mu):
        assert schur_product(schur(lam), schur(mu)) == schur_product(schur(mu), schur(lam))

    def test_lr_symmetry_small(self):
        for d in range(6):
            for nu in partitions_of_size(d):
                for d1 in range(d + 1):
                    for lam in partitions_of_size(d1):
                        for mu in partitions_of_size(d - d1):
                            assert lr_coefficient(nu, lam, mu) == lr_coefficient(nu, mu, lam)


class TestHallInnerAndPerp:
    def test_schur_orthonormal(self):
        assert hall_inner(schur((2, 1)), schur((2, 1))) == 1
        assert hall_inner(schur((2, 1)), schur((3,))) == 0
        assert hall_inner(2 * schur((1,)) + schur((2,)), schur((1,))) == 2

    def test_perp_is_skew(self):
        # s_mu^perp s_lam = s_{lam/mu}, through the product adjunction
        for lam_parts, mu_parts in [((2, 1), (1,)), ((3, 2), (2,)), ((2, 2), (2, 1)), ((3,), (1,))]:
            lam, mu = Partition(lam_parts), Partition(mu_parts)
            got = perp(schur(mu), schur(lam))
            want = (
                lr_expand(SkewShape(lam, mu)) if lam.contains(mu) else SchurExpansion({})
            )
            assert got == want

    def test_perp_kills_larger_degree(self):
        assert perp(schur((3,)), schur((2, 1))) == SchurExpansion({})

    @given(partitions(max_len=2, max_part=3), partitions(max_len=2, max_part=3),
           partitions(max_len=2, max_part=3))
    def test_adjointness(self, f, g, k):
        if f.size + k.size > 7 or g.size > 7:
            return
        lhs = hall_inner(perp(schur(f), schur(g)), schur(k))
        rhs = hall_inner(schur(g), schur_product(schur(f), schur(k)))
        assert lhs == rhs

    def test_hperp_removes_horizontal_strips(self):
        # h_n^perp s_lam = sum of s_mu over mu with lam/mu an n-cell
        # horizontal strip; e_n^perp the vertical analogue
        for lam_parts in [(3, 1), (2, 2), (3, 2, 1)]:
            lam = Partition(lam_parts)
            for n in range(4):
                goth = perp(h(n), schur(lam))
                wanth = SchurExpansion({})
                for mu in partitions_of_size(lam.size - n):
                    if lam.contains(mu) and SkewShape(lam, mu).is_strip(HORIZONTAL):
                        wanth = wanth + schur(mu)
                assert goth == wanth
                gote = perp(e(n), schur(lam))
                wante = SchurExpansion({})
                for mu in partitions_of_size(lam.size - n):
                    if lam.contains(mu) and SkewShape(lam, mu).is_strip(VERTICAL):
                        wante = wante + schur(mu)
                assert gote == wante


def product_by_superpartitions(mu, nu):
    """Reference product that builds no star shape: one LR coefficient per
    partition containing mu with |nu| more cells."""
    out = []
    for lam in superpartitions(mu, nu.size):
        c = lr_coefficient(lam, mu, nu)
        if c:
            out.append((lam, c))
    return tuple(out)


def perp_by_scan(f, g):
    """Reference perp with no inverted table: for each nu of the right size,
    scan the reference product s_mu * s_nu for lam."""
    out = {}
    for mu, a in f.terms.items():
        for lam, b in g.terms.items():
            d = lam.size - mu.size
            if d < 0:
                continue
            for nu in partitions_of_size(d):
                for p, c in product_by_superpartitions(mu, nu):
                    if p == lam:
                        out[nu] = out.get(nu, 0) + a * b * c
    return SchurExpansion(out)


def partitions_up_to(n):
    return [p for d in range(n + 1) for p in partitions_of_size(d)]


class TestProductRoutes:
    def test_star_product_matches_superpartition_scan(self):
        pairs = [(mu, nu) for mu in partitions_up_to(9) for nu in partitions_up_to(9 - mu.size)]
        assert len(pairs) == 734
        for mu, nu in pairs:
            assert _basis_product(mu, nu) == product_by_superpartitions(mu, nu), (mu, nu)

    def test_perp_table_matches_scan_on_schur_pairs(self):
        for mu in partitions_up_to(6):
            for lam in partitions_up_to(6):
                f, g = schur(mu), schur(lam)
                assert perp(f, g) == perp_by_scan(f, g), (mu, lam)

    @pytest.mark.parametrize("f,g", [
        ({(2,): 1, (1, 1): -3}, {(2, 1): 2, (1,): 1}),
        ({(): 2, (1,): -1, (2, 1): 1}, {(3, 2, 1): 3, (4, 1, 1): -1, (2, 2): 1, (1, 1): 5}),
        ({(1,): 1, (2,): 1, (3,): -1}, {(3, 3): -2, (4, 2): 1, (2, 2, 1, 1): 4}),
        # terms of g both smaller and larger than terms of f
        ({(): -1, (2,): 3, (3, 1): 1}, {(1,): 2, (2, 1): -1, (3, 2): 1, (1, 1, 1, 1): -2}),
        ({(4,): 2, (1,): -1}, {(3,): 1, (2, 1, 1): -3, (5, 1): 1}),
    ])
    def test_perp_table_matches_scan_on_signed_sums(self, f, g):
        f, g = SchurExpansion(f), SchurExpansion(g)
        assert perp(f, g) == perp_by_scan(f, g)
        assert perp(f, g)

    @pytest.mark.parametrize("f,g", [
        ({(1,): 1}, {(2,): 1, (1, 1): -1}),  # s_1 - s_1
        ({(2,): 1, (1, 1): -1}, {(2,): 1, (1, 1): 1}),  # 1 - 1
        ({(2,): 1, (1, 1): -1}, {(2,): 1, (1, 1): 1, (1,): 5}),  # 1 - 1, s_1 too small
        ({(3,): 1, (2, 2): -2}, {(2,): 1, (1, 1): 4, (): 3}),  # every term too small
    ])
    def test_perp_cancelling_to_zero(self, f, g):
        f, g = SchurExpansion(f), SchurExpansion(g)
        assert perp_by_scan(f, g) == SchurExpansion({})
        assert perp(f, g).terms == {}


class TestPerpImages:
    def test_images_match_perp_on_products(self):
        # f = s_a * s_b has coefficients above one, so this covers perp's
        # first argument as a weighted sum
        checked = 0
        for a in partitions_up_to(3):
            for b in partitions_up_to(3):
                f = schur_product(schur(a), schur(b))
                for d in range(f.degree() + 3):
                    images = _perp_images(f, d)
                    for pi in partitions_of_size(d):
                        assert SchurExpansion(images.get(pi, {})) == perp(f, schur(pi)), (a, b, pi)
                        checked += 1
        assert checked == 1711


SKEW = SkewExpansion({SkewShape.of((2, 1), (1,)): 1})


class TestEntryTypes:
    """The symfunc entries name the first wrong-typed argument in a
    TypeError."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: perp(3, schur((1,))), "f 3 is not a SchurExpansion"),
            (lambda: perp(schur((1,)), 3), "g 3 is not a SchurExpansion"),
            (lambda: perp(SKEW, schur((2,))), "f s[2,1/1] is not a SchurExpansion"),
            (lambda: schur_product(3, schur((1,))), "f 3 is not a SchurExpansion"),
            (lambda: schur_product(schur((1,)), 3), "g 3 is not a SchurExpansion"),
            (lambda: schur_product(schur((1,)), SKEW), "g s[2,1/1] is not a SchurExpansion"),
            (lambda: hall_inner(schur((1,)), 3), "g 3 is not a SchurExpansion"),
            (lambda: omega(3), "f 3 is not a SchurExpansion"),
            (lambda: skew_expansion_to_schur(3), "x 3 is not a SkewExpansion"),
            (lambda: lr_coefficient((2,), (1,), (1,)), "nu (2,) is not a Partition"),
            (
                lambda: lr_coefficient(Partition((2,)), Partition((1,)), (1,)),
                "mu (1,) is not a Partition",
            ),
        ],
        ids=[
            "perp-f-int", "perp-g-int", "perp-f-skew", "product-f-int", "product-g-int",
            "product-g-skew", "hall-int", "omega-int", "skew-to-schur-int", "lr-nu-tuple",
            "lr-mu-tuple",
        ],
    )
    def test_rejects_wrong_types(self, call, message):
        with pytest.raises(TypeError) as exc:
            call()
        assert str(exc.value) == message


class TestOmegaHE:
    def test_h_e_are_row_and_column(self):
        assert h(3) == schur((3,))
        assert e(3) == schur((1, 1, 1))
        assert h(0) == schur(()) and e(0) == schur(())
        with pytest.raises(ValueError, match="^n must be nonnegative, got -1$"):
            h(-1)
        with pytest.raises(ValueError, match="^n must be nonnegative, got -1$"):
            e(-1)

    @pytest.mark.parametrize("n", [True, 2.0, "a", None], ids=["bool", "float", "str", "none"])
    def test_h_e_reject_non_int(self, n):
        # e(True) used to return s[1]; h("a") failed inside a comparison.
        for f in (h, e):
            with pytest.raises(TypeError) as exc:
                f(n)
            assert str(exc.value) == f"n must be an int, got {n!r}"

    @given(partitions())
    def test_omega_conjugates(self, p):
        assert omega(schur(p)) == schur(p.conjugate())

    @given(partitions(max_len=3, max_part=3), partitions(max_len=3, max_part=3))
    def test_omega_ring_homomorphism(self, lam, mu):
        lhs = omega(schur_product(schur(lam), schur(mu)))
        rhs = schur_product(omega(schur(lam)), omega(schur(mu)))
        assert lhs == rhs

    def test_omega_swaps_h_and_e(self):
        for n in range(5):
            assert omega(h(n)) == e(n)
            assert omega(e(n)) == h(n)


class TestSkewExpansion:
    def test_semantic_vs_syntactic_equality(self):
        # s_{(2,1)/(1)} = s_2 + s_11 = s_{(2)} + s_{(1,1)} as functions
        x = SkewExpansion({SkewShape.of((2, 1), (1,)): 1})
        y = SkewExpansion({SkewShape.of((2,)): 1, SkewShape.of((1, 1)): 1})
        assert x == y
        assert not x.same_terms(y)
        assert x.same_terms(x)

    def test_to_schur(self):
        x = SkewExpansion({SkewShape.of((2, 1), (1,)): 2, SkewShape.of((1,)): -1})
        assert skew_expansion_to_schur(x) == 2 * schur((2,)) + 2 * schur((1, 1)) - schur((1,))
        assert x.to_schur() == skew_expansion_to_schur(x)
        assert str(x) == "- s[1] + 2*s[2,1/1]"

    def test_skew_to_schur_matches_lr_expand(self):
        s = SkewShape.of((3, 2), (1,))
        assert skew_to_schur(s) == lr_expand(s)


class TestMonomials:
    def test_monomial_expansion_golden(self):
        # s_{(2,1)} in 3 variables: m_21 + 2 m_111 pattern
        m = monomial_expansion(SkewShape.of((2, 1)), 3)
        assert m[(2, 1, 0)] == 1 and m[(1, 1, 1)] == 2
        assert sum(m.values()) == 8  # SSYT count with entries <= 3

    def test_product_convolves(self):
        a = monomial_expansion(SkewShape.of((1,)), 2)   # x1 + x2
        prod = monomial_product(a, a)
        assert prod == {(2, 0): 1, (0, 2): 1, (1, 1): 2}

    def test_peel_round_trip(self):
        f = schur_product(schur((2, 1)), schur((2,)))
        assert schur_from_monomials(skew_monomials(f, 5), 5) == f

    def test_peel_rejects_nonsymmetric(self):
        with pytest.raises(NotSymmetric):
            schur_from_monomials({(2, 0): 1}, 2)

    def test_skew_monomials_linear(self):
        x = SkewExpansion({SkewShape.of((2, 1), (1,)): 1, SkewShape.of((2,)): -1})
        m = skew_monomials(x, 3)
        a = monomial_expansion(SkewShape.of((2, 1), (1,)), 3)
        b = monomial_expansion(SkewShape.of((2,)), 3)
        keys = set(a) | set(b)
        assert all(m.get(k, 0) == a.get(k, 0) - b.get(k, 0) for k in keys)

    @given(skew_shapes(max_len=3, max_part=3))
    def test_skew_function_is_symmetric(self, s):
        nv = max(s.size, 1)
        m = monomial_expansion(s, nv)
        # symmetry: permuting exponent vectors leaves coefficients unchanged
        for key, coeff in m.items():
            canon = tuple(sorted(key, reverse=True))
            assert m.get(canon, 0) == coeff

    @given(partitions(max_len=3, max_part=3), partitions(max_len=3, max_part=3))
    def test_product_matches_monomial_oracle(self, lam, mu):
        if lam.size + mu.size > 7:
            return
        nv = max(lam.size + mu.size, 1)
        direct = schur_product(schur(lam), schur(mu))
        mono = monomial_product(skew_monomials(schur(lam), nv), skew_monomials(schur(mu), nv))
        assert schur_from_monomials(mono, nv) == direct


class TestPerpIdentities:
    @pytest.mark.parametrize("f,g,n", [
        ((2, 1), (2,), 2),
        ((1, 1), (2, 1), 1),
        ((3,), (1, 1, 1), 3),
        ((), (2, 2), 2),
    ])
    def test_identities_hold(self, f, g, n):
        assert verify_perp_identities(schur(f), schur(g), n)

    def test_linear_combinations(self):
        f = schur((2,)) - 3 * schur((1, 1))
        g = 2 * schur((2, 1)) + schur((1,))
        assert verify_perp_identities(f, g, 2)

    def test_eh_alternating_sum(self):
        # sum_i (-1)^i e_i h_{n-i} = 0 for n >= 1 and 1 for n = 0, checked
        # directly
        for n in range(6):
            total = SchurExpansion({})
            for i in range(n + 1):
                total = total + (-1) ** i * schur_product(e(i), h(n - i))
            assert total == (h(0) if n == 0 else SchurExpansion({}))

    @pytest.mark.parametrize("f,g", [((2, 1), (1,)), ((), ()), ((1, 1), (3,))])
    def test_identities_hold_at_n_zero(self, f, g):
        assert perp_identity_failures(schur(f), schur(g), 0) == []
        assert verify_perp_identities(schur(f), schur(g), 0)

    @pytest.mark.usefixtures("fresh_perp_memos")
    def test_sweep_catches_perp_dropping_first_coefficients(self, monkeypatch):
        # perp(fg, fg) at s_empty must equal <fg, fg>: a perp that drops f's
        # coefficients reads the sum of fg's coefficients there, not the sum
        # of their squares, so exactly the pairs whose product has a
        # coefficient of 2 or more fail, once per n.
        def dropping(f, g):
            out = {}
            for mu in f.terms:
                for lam, b in g.terms.items():
                    d = lam.size - mu.size
                    if d >= 0:
                        for nu, c in symfunc._perp_table(mu, d).get(lam, ()):
                            out[nu] = out.get(nu, 0) + b * c
            return SchurExpansion(out)

        basis = [p for d in range(5) for p in partitions_of_size(d)]
        want = [
            f"perp identity failed at f=s{a.parts}, g=s{b.parts}, n={n}"
            for a in basis
            for b in basis
            if max(c for _, c in _basis_product(a, b)) >= 2
            for n in (1, 2, 3)
        ]
        assert verify_perp_range(4, 3)["failures"] == []
        monkeypatch.setattr(symfunc, "perp", dropping)
        assert verify_perp_range(4, 3)["failures"] == want
        assert len(want) == 27
        assert perp_identity_failures(schur((2, 1)), schur((2, 1)), 1) == ["perp(fg, fg) at s[∅] != <fg, fg>"]

    @pytest.mark.usefixtures("fresh_perp_memos")
    def test_sweep_work_counts(self, monkeypatch):
        # 12 operands, 144 pairs, 432 cases (n = 1, 2, 3). Once per pair:
        # fg and the n-free checks (1 product, 1 perp, 9 _perp_images: fg's
        # and g's at the 3 probe degrees |f| + |g| .. |f| + |g| + 2, and f's
        # at the 3 degrees |f| .. |f| + 2 that g's images reach); h_j^perp f,
        # h_j^perp g and e_j^perp f for j = 0..3 (12 perp) and (e_j^perp f) g
        # (4 products). Once per case: h_n^perp(fg) and the n + 1 terms
        # h_{n-k}^perp(...) (3 + 9 perp per pair); f h_n^perp(g) and the
        # n + 1 products h_{n-i}^perp(f) h_i^perp(g) (3 + 9 products per
        # pair). The e/h sum once per n: 2 + 3 + 4 products.
        calls = {"_perp_images": 0, "perp": 0, "schur_product": 0}
        for name in calls:
            inner = getattr(symfunc, name)

            def counted(*args, name=name, inner=inner):
                calls[name] += 1
                return inner(*args)

            monkeypatch.setattr(symfunc, name, counted)
        assert verify_perp_range(4, 3)["failures"] == []
        assert calls == {
            "_perp_images": 144 * 9,
            "perp": 144 * (12 + 1 + 12),
            "schur_product": 144 * (1 + 4 + 12) + 9,
        }

    def test_pair_memo_holds_one_entry(self):
        assert symfunc._pair_images.cache_info().maxsize == 1

    @pytest.mark.parametrize("name", PERP_MEMOS)
    def test_perp_memos_are_bounded(self, name):
        assert getattr(symfunc, name).cache_info().maxsize is not None

    @pytest.mark.usefixtures("fresh_perp_memos")
    @pytest.mark.parametrize("f,g,n,error,message", [
        (schur((1,)), schur((1,)), True, TypeError, "n must be an int, got True"),
        (schur((1,)), schur((1,)), 1.5, TypeError, "n must be an int, got 1.5"),
        (schur((1,)), schur((1,)), -1, ValueError, "n must be nonnegative, got -1"),
        (None, schur((1,)), 1, TypeError, "f None is not a SchurExpansion"),
        (schur((1,)), (1,), 1, TypeError, "g (1,) is not a SchurExpansion"),
        (schur((1,)), SkewExpansion({SkewShape.of((1,)): 1}), 1, TypeError, "is not a SchurExpansion"),
    ])
    def test_bad_arguments_raise_at_the_call(self, f, g, n, error, message):
        # Checked before any memo is read: n = True must not hit n = 1's entry.
        perp_identity_failures(schur((1,)), schur((1,)), 1)
        before = [getattr(symfunc, name).cache_info() for name in PERP_MEMOS]
        for check in (perp_identity_failures, verify_perp_identities):
            with pytest.raises(error, match=re.escape(message)):
                check(f, g, n)
        assert [getattr(symfunc, name).cache_info() for name in PERP_MEMOS] == before

    def test_perp_homomorphism_on_products(self):
        # (fg)^perp = f^perp g^perp as operators, probed on Schur functions
        f, g = schur((2,)), schur((1, 1))
        fg = schur_product(f, g)
        for d in range(7):
            for pi in partitions_of_size(d):
                lhs = perp(fg, schur(pi))
                rhs = perp(f, perp(g, schur(pi)))
                assert lhs == rhs


class TestJson:
    def test_schur_round_trip(self):
        x = schur((3, 1)) - 2 * schur((1,))
        obj = expansion_to_json(x)
        assert obj["basis"] == "schur"
        assert expansion_from_json(json.loads(json.dumps(obj))) == x

    def test_skew_round_trip(self):
        x = SkewExpansion({SkewShape.of((3, 2), (1,)): -1, SkewShape.of((2,)): 4})
        obj = expansion_to_json(x)
        assert obj["basis"] == "skew"
        back = expansion_from_json(json.loads(json.dumps(obj)))
        assert back.same_terms(x)

    def test_terms_sorted(self):
        x = schur((3,)) + schur((1, 1))
        obj = expansion_to_json(x)
        assert [t["partition"] for t in obj["terms"]] == [[1, 1], [3]]

    def test_bad_basis_rejected(self):
        with pytest.raises(ValueError):
            expansion_from_json({"basis": "power", "terms": []})

    @pytest.mark.parametrize(
        "obj,problem",
        [
            ({"basis": "schur"}, "'terms' must be a list, not NoneType"),
            ({"basis": "schur", "terms": {}}, "'terms' must be a list, not dict"),
            ([{"basis": "schur", "terms": []}], "must be a JSON object, not list"),
            ({"terms": []}, "unknown basis None"),
            ({"basis": ["schur"], "terms": []}, "unknown basis"),
            ({"basis": "schur", "terms": [{"coeff": 1}]}, "term 0 has no list 'partition'"),
            ({"basis": "schur", "terms": [[1, [2]]]}, "term 0 has no integer 'coeff'"),
            ({"basis": "schur", "terms": [{"partition": [2]}]}, "term 0 has no integer 'coeff'"),
            ({"basis": "schur", "terms": [{"coeff": 1.0, "partition": [2]}]}, "no integer 'coeff'"),
            ({"basis": "schur", "terms": [{"coeff": 1, "partition": 2}]}, "no list 'partition'"),
            ({"basis": "skew", "terms": [{"coeff": 1, "outer": [2]}]}, "term 0 has no list 'inner'"),
            (
                {"basis": "schur", "terms": [{"coeff": 1, "partition": p} for p in ([1], [1, 0])]},
                "a shape appears in more than one term",
            ),
        ],
    )
    def test_malformed_json_names_the_problem(self, obj, problem):
        with pytest.raises(ValueError, match=re.escape(problem)):
            expansion_from_json(obj)
