"""Value semantics of shapes and expansions.

Shapes are values however they are built: equality, hash, order and repr
read the parts alone, and the hash slot and the canonical cache are only
speed-ups. Expansions built by the unchecked internal constructor hold
exactly what the checked public one would.
"""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given

from skewtab import (
    Partition,
    SchurExpansion,
    SkewShape,
    enumerate_contexts,
    h,
    parse_partition,
    parse_shape,
    perp,
    phi,
    schur,
    schur_product,
    skew_expansion_to_schur,
    skew_h_rho_product,
    skew_lr_product,
    skew_to_schur,
    star,
)
from skewtab import involution, shapes
from skewtab.rules import _block, _difference, _minus_table
from skewtab.shapes import EMPTY, _canonical, partitions_of_size, skew_shapes_up_to
from skewtab.symfunc import _lr_pairs, lr_expand

from conftest import partitions, skew_shapes


def partition_builds(parts):
    """The same partition built every way the package builds one."""
    text = ",".join(map(str, parts))
    built = [
        Partition(parts),
        Partition(parts + (0, 0)),
        Partition._trusted(parts),
        Partition.of(*parts),
        parse_partition(text),
        _canonical(parts),
        SkewShape.of(parts).outer,
        star(SkewShape.of(parts), SkewShape(EMPTY)).outer,
    ]
    hashed = Partition(parts)
    hash(hashed)  # round trips start from a value whose hash is cached
    built += [pickle.loads(pickle.dumps(hashed)), copy.copy(hashed), copy.deepcopy(hashed)]
    return built


def shape_builds(outer, inner):
    """The same skew shape built every way the package builds one."""
    o, i = Partition(outer), Partition(inner)
    text = ",".join(map(str, outer)) + "/" + ",".join(map(str, inner))
    built = [
        SkewShape(o, i),
        SkewShape._trusted(Partition._trusted(outer), Partition._trusted(inner)),
        SkewShape._trusted(_canonical(outer), _canonical(inner)),
        SkewShape.of(outer, inner),
        parse_shape(text),
        star(SkewShape(o, i), SkewShape(EMPTY)),
        star(SkewShape(EMPTY), SkewShape(o, i)),
    ]
    hashed = SkewShape(o, i)
    hash(hashed)
    built += [pickle.loads(pickle.dumps(hashed)), copy.copy(hashed), copy.deepcopy(hashed)]
    return built


class TestShapeValueContract:
    @given(partitions(), partitions())
    def test_partitions_compare_by_parts(self, p, q):
        for x in partition_builds(p.parts):
            assert type(x) is Partition
            assert repr(x) == f"Partition(parts={p.parts!r})"
            for y in partition_builds(q.parts):
                assert (x == y) is (p.parts == q.parts)
                assert (x != y) is (p.parts != q.parts)
                assert (x < y) is (p.parts < q.parts)
                assert (x <= y) is (p.parts <= q.parts)
                if x == y:
                    assert hash(x) == hash(y)

    @given(skew_shapes(), skew_shapes())
    def test_skew_shapes_compare_by_parts(self, s, t):
        key_s = s.outer.parts, s.inner.parts
        key_t = t.outer.parts, t.inner.parts
        for x in shape_builds(*key_s):
            assert type(x) is SkewShape
            assert repr(x) == (
                f"SkewShape(outer=Partition(parts={key_s[0]!r}), "
                f"inner=Partition(parts={key_s[1]!r}))"
            )
            for y in shape_builds(*key_t):
                assert (x == y) is (key_s == key_t)
                assert (x < y) is (key_s < key_t)
                if x == y:
                    assert hash(x) == hash(y)

    @given(skew_shapes())
    def test_no_cross_type_equality(self, s):
        p = s.outer
        for other in (s, p.parts, (s.outer.parts, s.inner.parts), list(p.parts)):
            assert p != other and not p == other
        for other in (p, (p, s.inner), (s.outer.parts, s.inner.parts)):
            assert s != other and not s == other
        assert SkewShape(p) != p

    @given(skew_shapes(), skew_shapes())
    def test_star_builds_plain_values(self, s, t):
        x = star(s, t)
        y = SkewShape.of(x.outer.parts, x.inner.parts)
        assert x == y and hash(x) == hash(y) and repr(x) == repr(y)
        assert hash(x.outer) == hash(Partition(x.outer.parts))

    def test_sorting_mixed_builds(self):
        built = [x for parts in ((2, 1), (1,), (3,), ()) for x in partition_builds(parts)]
        assert [x.parts for x in sorted(built)] == sorted(x.parts for x in built)

    def test_slots_keep_no_instance_dict(self):
        for x, field in ((Partition((2, 1)), "parts"), (SkewShape.of((2, 1), (1,)), "outer")):
            assert not hasattr(x, "__dict__")
            # Fields and names that are not fields are refused alike.
            for name in (field, "_hash", "color"):
                with pytest.raises(FrozenInstanceError):
                    setattr(x, name, EMPTY)
                with pytest.raises(FrozenInstanceError):
                    delattr(x, name)

    @pytest.mark.parametrize("outer, inner", [((3, 2), ()), ("32", "1"), (Partition((3, 2)), (1,))])
    def test_non_partition_component_is_a_type_error(self, outer, inner):
        with pytest.raises(TypeError, match="is not a Partition"):
            SkewShape(outer, inner)


def clean(x, basis):
    """True when every key is of the basis type and every coefficient a
    nonzero int (never a bool)."""
    return all(type(k) is basis for k in x.terms) and all(
        type(c) is int and c != 0 for c in x.terms.values()
    )


class TestUncheckedConstructorLeaksNothing:
    def test_producers_on_sweep_inputs(self):
        shapes_a = tuple(skew_shapes_up_to(4))
        shapes_b = tuple(skew_shapes_up_to(3))
        basis = [p for d in range(4) for p in partitions_of_size(d)]
        for a in shapes_a:
            assert clean(lr_expand(a), Partition)
            for b in shapes_b:
                product = skew_lr_product(a, b)
                assert clean(product, SkewShape)
                assert clean(skew_expansion_to_schur(product), Partition)
            for rho in basis:
                assert clean(skew_h_rho_product(a, rho), SkewShape)
        for p in basis:
            assert clean(schur(p), Partition)
            for q in basis:
                f = schur(p) * 2 - schur(q) * 3
                assert clean(f, Partition)
                assert clean(schur_product(f, schur(q) + h(1)), Partition)
                assert clean(perp(f, schur_product(schur(q), schur(p))), Partition)

    def test_arithmetic_drops_zeros(self):
        x = schur((2, 1)) * 3 - schur((3,))
        y = skew_lr_product(SkewShape.of((2, 1), (1,)), SkewShape.of((2,)))
        for z, basis in ((x, Partition), (y, SkewShape)):
            assert clean(z + z, basis) and clean(-z, basis) and clean(z * -2, basis)
            assert clean(z + (-z), basis) and not (z + (-z)).terms
            assert not (z * 0).terms and not (0 * z).terms
            assert not (z - z).terms
            assert clean(z - z, basis)


class TestResultsOwnTheirTerms:
    """`_of` keeps the dict it is given as the result's terms, so every
    producer must hand it one of its own: changing a result touches no cache
    and no later result."""

    def test_mutated_results_leave_repeat_calls_alone(self):
        a, b = SkewShape.of((3, 2, 1), (1,)), SkewShape.of((2, 1), (1,))
        f, g = schur((2,)) - schur((1, 1)), schur((3, 1)) + 2 * schur((2, 2)) + schur((1,))
        calls = [
            lambda: schur((2, 1)),
            lambda: lr_expand(a),
            lambda: skew_to_schur(a),
            lambda: schur_product(f, g),
            lambda: perp(f, g),
            lambda: perp(schur((1,)), schur((2, 1))),
            lambda: skew_expansion_to_schur(skew_lr_product(a, b)),
            lambda: skew_lr_product(a, b),
            lambda: skew_h_rho_product(a, Partition((2, 1))),
        ]
        for call in calls:
            want = dict(call().terms)
            assert want
            call().terms.clear()
            assert call().terms == want
            changed = call()
            for key in changed.terms:
                changed.terms[key] += 5
            changed.terms["extra"] = 1
            assert call().terms == want

    def test_shared_minus_tables_survive_a_sweep(self):
        shapes_a = tuple(skew_shapes_up_to(4))
        shapes_b = tuple(skew_shapes_up_to(3))
        keys = {(a.inner, _difference(b), b.inner.parts) for a in shapes_a for b in shapes_b}
        keys |= {(a.inner, (2, 1), None) for a in shapes_a}
        before = {key: [(m, dict(f)) for m, f in _minus_table(*key)] for key in keys}
        # The blocks the products read, held here so an eviction from the
        # bounded cache cannot hide a change to one of them.
        blocks = {
            (a.outer, f): _block(a.outer, f)
            for a in shapes_a
            for key in keys
            if key[0] == a.inner
            for _, f in _minus_table(*key)
        }
        copies = {key: list(block) for key, block in blocks.items()}
        for a in shapes_a:
            for b in shapes_b:
                skew_lr_product(a, b).terms.clear()
                skew_lr_product(a, b).to_schur().terms.clear()
            skew_h_rho_product(a, Partition((2, 1))).terms.clear()
        after = {key: [(m, dict(f)) for m, f in _minus_table(*key)] for key in keys}
        assert after == before
        for key, block in blocks.items():
            assert list(block) == copies[key], key
            assert list(_block(*key)) == copies[key], key

    def test_of_drops_zeros_and_keeps_a_clean_dict(self):
        p, q = Partition((2,)), Partition((1, 1))
        x = SchurExpansion._of({p: 1, q: 0})
        assert x.terms == {p: 1} and clean(x, Partition)
        assert not SchurExpansion._of({p: 0, q: 0}).terms
        data = {p: 2, q: -1}
        assert SchurExpansion._of(data).terms is data


class TestIdentityIsOnlyASpeedUp:
    @pytest.mark.usefixtures("fresh_caches")
    def test_tables_share_equal_partitions(self):
        straight = _lr_pairs.__wrapped__(SkewShape.of((2, 1)))
        skew = _lr_pairs.__wrapped__(SkewShape.of((3, 1), (1,)))
        (nu,) = [p for p, _ in straight if p.parts == (2, 1)]
        (other,) = [p for p, _ in skew if p.parts == (2, 1)]
        assert nu is other
        sums = dict(_minus_table.__wrapped__(Partition((2, 1)), (2, 1), None))
        assert any(mu_minus is _canonical((2,)) for mu_minus in sums)
        assert all(mu_minus is _canonical(mu_minus.parts) for mu_minus in sums)
        assert any(p is nu for f in sums.values() for p, _ in f)
        assert all(p is _canonical(p.parts) for f in sums.values() for p, _ in f)
        product = skew_h_rho_product(SkewShape.of((1,)), Partition((1, 1)))
        assert any(s.outer is nu for s in product.terms)
        assert all(s.outer is _canonical(s.outer.parts) for s in product.terms)

    def test_slides_survive_a_cleared_shape_cache(self):
        # The contexts of verify_involution(3, 2, 2); each phi image takes
        # its shape from shapes._canonical_shape. The image cache is cleared
        # too, so the second round slides again rather than reading images.
        contexts = [
            ctx for base in skew_shapes_up_to(3) for n in range(3) for ctx in enumerate_contexts(base, n, 2)
        ]
        before = [phi(ctx) for ctx in contexts]
        shapes._canonical_shape.cache_clear()
        involution._slide_image.cache_clear()
        after = [phi(ctx) for ctx in contexts]
        assert after == before
        assert any(a.tableau.shape is not b.tableau.shape for a, b in zip(after, before))

    def test_results_survive_a_cleared_canonical_cache(self):
        shapes_a = tuple(skew_shapes_up_to(3))
        shapes_b = tuple(skew_shapes_up_to(2))
        basis = [p for d in range(4) for p in partitions_of_size(d)]

        def results(grid_a):
            return (
                {(a, b): skew_lr_product(a, b).to_schur() for a in grid_a for b in shapes_b},
                {(p, q): schur_product(schur(p), schur(q)) for p in basis for q in basis},
                {(p, q): perp(schur(p), schur(q)) for p in basis for q in basis},
            )

        before = results(shapes_a)
        shapes._canonical.cache_clear()
        # A larger grid fills new tables beside the ones kept from before,
        # so the accumulators mix old and new objects for equal partitions.
        after = results(tuple(skew_shapes_up_to(4)))
        for old, new in zip(before, after):
            assert all(new[key] == value for key, value in old.items())
        for (a, b), value in after[0].items():
            assert value == schur_product(skew_to_schur(a), skew_to_schur(b))
