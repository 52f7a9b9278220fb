"""Product rules as executable expansions, with verification harnesses.

The straight Pieri rule adds one strip; the skew Pieri rule adds an outer
strip while removing an inner strip, with sign the parity of the removed
strip; the skew LR rule generalizes to multiplying by any skew Schur
function via pairs of an anti-semistandard filling removed inside and a
semistandard filling added outside. Harnesses cross-check the rules against
the Schur-basis product, against monomial expansions, and against signed
tableau counting.
"""

from __future__ import annotations

from .involution import enumerate_contexts, is_fixed_point
from .shapes import (
    HORIZONTAL,
    VERTICAL,
    Partition,
    SkewShape,
    enumerate_inner_strips,
    enumerate_outer_strips,
    partitions_of_size,
    skew_shapes_up_to,
    star,
    subpartitions_of_size,
    superpartitions,
)
from .symfunc import (
    SchurExpansion,
    SkewExpansion,
    h,
    monomial_expansion,
    monomial_product,
    schur,
    schur_product,
    skew_monomials,
    skew_to_schur,
    verify_perp_identities,
)
from .tableaux import (
    ASSYT,
    SSYT,
    Tableau,
    enumerate_fillings,
    enumerate_ssyt,
    is_yamanouchi,
    reverse_reading_word,
    validate,
)


class InvalidDifference(ValueError):
    """Componentwise difference of the factor's outer and inner has a
    negative entry."""


def pieri(lam: Partition, n: int, dual: bool = False) -> SchurExpansion:
    """s_lam * h_n as the sum over horizontal n-strips added to lam
    (vertical strips and e_n when dual)."""
    direction = VERTICAL if dual else HORIZONTAL
    return SchurExpansion({p: 1 for p in enumerate_outer_strips(lam, n, direction)})


def skew_pieri(s: SkewShape, n: int, dual: bool = False) -> SkewExpansion:
    """s_{lam/mu} * h_n as the signed sum over adding an (n-k)-horizontal
    strip outside and removing a k-vertical strip inside, sign (-1)^k
    (strip directions swap when dual, giving the e_n product)."""
    if n < 0:
        raise ValueError("strip size must be nonnegative")
    out_dir, in_dir = (VERTICAL, HORIZONTAL) if dual else (HORIZONTAL, VERTICAL)
    terms: dict[SkewShape, int] = {}
    for k in range(n + 1):
        sign = -1 if k % 2 else 1
        for lam_plus in enumerate_outer_strips(s.outer, n - k, out_dir):
            for mu_minus in enumerate_inner_strips(s.inner, k, in_dir):
                shape = SkewShape(lam_plus, mu_minus)
                terms[shape] = terms.get(shape, 0) + sign
    return SkewExpansion(terms)


def skew_pieri_linear(x: SkewExpansion, n: int, dual: bool = False) -> SkewExpansion:
    """skew_pieri extended linearly over a signed sum of skew shapes."""
    out = SkewExpansion()
    for s, c in x.terms.items():
        out = out + skew_pieri(s, n, dual) * c
    return out


def iterated_skew_pieri(a: SkewShape, rho: Partition, dual: bool = False) -> SkewExpansion:
    """s_{lam/mu} multiplied by h_{rho_1}, h_{rho_2}, ... in turn."""
    out = SkewExpansion({a: 1})
    for part in rho.parts:
        out = skew_pieri_linear(out, part, dual)
    return out


def _content_vector(t: Tableau, length: int) -> tuple[int, ...]:
    content = t.content()
    return content + (0,) * (length - len(content))


def _signed_pairs(a: SkewShape, target: tuple[int, ...]):
    """All pairs (T-, T+) of an anti-semistandard filling of mu/mu_minus and
    a semistandard filling of lam_plus/lam whose combined content is exactly
    the composition target, yielded with the resulting shape and the sign
    (-1)^(cells removed). Entries are bounded by len(target), so caps on the
    per-entry counts plus the forced total pin the content exactly."""
    lam, mu = a.outer, a.inner
    total = sum(target)
    max_entry = len(target)
    for k in range(min(mu.size, total) + 1):
        sign = -1 if k % 2 else 1
        for mu_minus in subpartitions_of_size(mu, mu.size - k):
            inner_shape = SkewShape(mu, mu_minus)
            for t_minus in enumerate_fillings(inner_shape, ASSYT, max_entry, content_cap=target):
                used = _content_vector(t_minus, max_entry)
                remaining = tuple(c - u for c, u in zip(target, used))
                for lam_plus in superpartitions(lam, total - k):
                    outer_shape = SkewShape(lam_plus, lam)
                    for t_plus in enumerate_fillings(outer_shape, SSYT, max_entry, content_cap=remaining):
                        yield t_minus, t_plus, SkewShape(lam_plus, mu_minus), sign


def skew_lr_pairs(a: SkewShape, b: SkewShape):
    """The admissible pairs behind skew_lr_product, for auditing: tuples
    (t_minus, t_plus, shape, sign) whose combined content is the
    componentwise difference outer(b) - inner(b) and whose reverse reading
    word is inner(b)-Yamanouchi."""
    sigma, tau = b.outer, b.inner
    target = tuple(sigma.part(i + 1) - tau.part(i + 1) for i in range(len(sigma)))
    if any(x < 0 for x in target):
        raise InvalidDifference(f"{sigma}/{tau} has a negative componentwise difference")
    for t_minus, t_plus, shape, sign in _signed_pairs(a, target):
        if is_yamanouchi(reverse_reading_word(t_minus, t_plus), tau):
            yield t_minus, t_plus, shape, sign


def skew_lr_product(a: SkewShape, b: SkewShape) -> SkewExpansion:
    """s_a * s_b as a signed sum of skew Schur functions, coefficients
    aggregated over admissible pairs sharing a shape."""
    terms: dict[SkewShape, int] = {}
    for _, _, shape, sign in skew_lr_pairs(a, b):
        terms[shape] = terms.get(shape, 0) + sign
    return SkewExpansion(terms)


def is_admissible_pair(a: SkewShape, b: SkewShape, t_minus: Tableau, t_plus: Tableau) -> bool:
    """Membership test for the skew LR sum: shapes interlock with a, the
    fillings are anti-semistandard resp. semistandard, the combined content
    is the componentwise difference of b's partitions, and the reverse
    reading word is inner(b)-Yamanouchi."""
    lam, mu = a.outer, a.inner
    sigma, tau = b.outer, b.inner
    if t_minus.shape.outer != mu or not mu.contains(t_minus.shape.inner):
        return False
    if t_plus.shape.inner != lam or not t_plus.shape.outer.contains(lam):
        return False
    if not validate(t_minus, ASSYT) or not validate(t_plus, SSYT):
        return False
    target = tuple(sigma.part(i + 1) - tau.part(i + 1) for i in range(len(sigma)))
    length = len(target)
    combined = tuple(
        x + y
        for x, y in zip(_content_vector(t_minus, length), _content_vector(t_plus, length))
    )
    if max(t_minus.content() + t_plus.content() + (0,)) > length or combined != target:
        return False
    return is_yamanouchi(reverse_reading_word(t_minus, t_plus), tau)


def skew_h_rho_product(a: SkewShape, rho: Partition) -> SkewExpansion:
    """s_{lam/mu} * h_rho: the signed sum over pairs of combined content rho
    with no word condition."""
    terms: dict[SkewShape, int] = {}
    for _, _, shape, sign in _signed_pairs(a, rho.parts):
        terms[shape] = terms.get(shape, 0) + sign
    return SkewExpansion(terms)


def verify_skew_pieri(
    limit_outer: int,
    limit_n: int,
    max_entry: int = 3,
    monomial_limits: tuple[int, int] = (5, 2),
    involution_limits: tuple[int, int] = (5, 2),
) -> dict:
    """Sweep every skew shape with |outer| <= limit_outer and every n <=
    limit_n. Checks, per case: (i) the expansion equals the Schur-basis
    product with h_n; (ii) within monomial_limits, monomial-level equality
    in degree-many variables; (iii) within involution_limits, signed SSYT
    counts at bounded entries cancel down to the star-shape count and the
    slide fixed points match it. Returns a JSON-ready report."""
    failures: list[str] = []
    schur_cases = monomial_cases = involution_cases = 0
    mono_outer, mono_n = monomial_limits
    inv_outer, inv_n = involution_limits
    for base in skew_shapes_up_to(limit_outer):
        m = base.outer.size
        for n in range(1, limit_n + 1):
            schur_cases += 1
            expansion = skew_pieri(base, n)
            if expansion.to_schur() != schur_product(skew_to_schur(base), h(n)):
                failures.append(f"schur-level mismatch at {base} * h_{n}")
            if m <= mono_outer and n <= mono_n:
                monomial_cases += 1
                deg = base.size + n
                left = skew_monomials(expansion, deg)
                right = monomial_product(
                    monomial_expansion(base, deg),
                    monomial_expansion(SkewShape.of((n,)), deg),
                )
                if left != right:
                    failures.append(f"monomial-level mismatch at {base} * h_{n}")
            if m <= inv_outer and n <= inv_n:
                involution_cases += 1
                signed = 0
                for k in range(n + 1):
                    sign = -1 if k % 2 else 1
                    for lam_plus in enumerate_outer_strips(base.outer, n - k, HORIZONTAL):
                        for mu_minus in enumerate_inner_strips(base.inner, k, VERTICAL):
                            stratum = SkewShape(lam_plus, mu_minus)
                            signed += sign * len(enumerate_ssyt(stratum, max_entry))
                star_count = len(enumerate_ssyt(star(base, SkewShape.of((n,))), max_entry))
                if signed != star_count:
                    failures.append(
                        f"signed count {signed} != star count {star_count} at {base}, n={n}"
                    )
                fixed = sum(
                    1 for ctx in enumerate_contexts(base, n, max_entry) if is_fixed_point(ctx)
                )
                if fixed != star_count:
                    failures.append(
                        f"fixed points {fixed} != star count {star_count} at {base}, n={n}"
                    )
    return {
        "limit_outer": limit_outer,
        "limit_n": limit_n,
        "max_entry": max_entry,
        "monomial_limits": list(monomial_limits),
        "involution_limits": list(involution_limits),
        "schur_cases": schur_cases,
        "monomial_cases": monomial_cases,
        "involution_cases": involution_cases,
        "failures": failures,
    }


def verify_skew_lr(limit_outer_a: int, limit_outer_b: int) -> dict:
    """Sweep to_schur(skew_lr_product(a, b)) == skew_to_schur(a) *
    skew_to_schur(b) over all skew a, b within the size limits."""
    failures: list[str] = []
    cases = 0
    shapes_b = tuple(skew_shapes_up_to(limit_outer_b))
    for a in skew_shapes_up_to(limit_outer_a):
        lhs_a = skew_to_schur(a)
        for b in shapes_b:
            cases += 1
            if skew_lr_product(a, b).to_schur() != schur_product(lhs_a, skew_to_schur(b)):
                failures.append(f"product mismatch at {a} * {b}")
    return {
        "limit_outer_a": limit_outer_a,
        "limit_outer_b": limit_outer_b,
        "cases": cases,
        "failures": failures,
    }


def verify_perp_range(max_deg: int, max_n: int) -> dict:
    """Sweep the four perp identities over all Schur pairs with degrees at
    most max_deg and all n from 1 to max_n."""
    failures: list[str] = []
    cases = 0
    basis = [p for d in range(max_deg + 1) for p in partitions_of_size(d)]
    for alpha in basis:
        for beta in basis:
            for n in range(1, max_n + 1):
                cases += 1
                if not verify_perp_identities(schur(alpha), schur(beta), n):
                    failures.append(f"perp identity failed at f=s{alpha.parts}, g=s{beta.parts}, n={n}")
    return {"max_deg": max_deg, "max_n": max_n, "cases": cases, "failures": failures}

