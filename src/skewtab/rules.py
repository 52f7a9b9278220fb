"""Product rules as executable expansions, with verification harnesses.

The straight Pieri rule adds one strip; the skew Pieri rule adds an outer
strip while removing an inner strip, with sign the parity of the removed
strip; the skew LR rule generalizes to multiplying by any skew Schur
function via pairs of an anti-semistandard filling T- removed inside and a
semistandard filling T+ added outside. One backtracker fills T- alone,
column by column (rightmost first, bottom to top): the start of the reverse
reading word, so the content budget and the Yamanouchi test cut each dead
prefix as it appears. The multi-row rule for h_rho runs it with the word
test off. The products build no pair and fill no T+: skew_lr_product and
skew_h_rho_product sum s_{sigma/kappa} per mu_minus over the T- (cached per
inner shape mu; kappa the word's entry counts where T- ends, sigma = kappa +
the content unspent) and multiply by s_lam, which counts the T+ by the
kappa-lattice LR rule. skew_lr_pairs lists every pair for auditing, in T-
fill order, then lam_plus in lexicographic order, then lr_fillings order:
the T+ on lam_plus/lam are LR fillings of star(lam_plus/lam, kappa).
Harnesses cross-check the rules against the Schur-basis product, against
monomial expansions, and against signed tableau counting.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, sub

from .involution import enumerate_contexts, is_fixed_point
from .shapes import (
    HORIZONTAL,
    VERTICAL,
    Partition,
    SkewShape,
    _canonical,
    _require_int,
    _require_nonnegative,
    _require_type,
    _strata,
    enumerate_outer_strips,
    partitions_of_size,
    skew_shapes_up_to,
    star,
    superpartitions,
)
from .symfunc import (
    SchurExpansion,
    SkewExpansion,
    _basis_product,
    h,
    monomial_expansion,
    monomial_product,
    schur,
    schur_product,
    skew_expansion_to_schur,
    skew_monomials,
    skew_to_schur,
    verify_perp_identities,
)
from .tableaux import (
    Tableau,
    enumerate_fillings,  # noqa: F401  not called here; bench/test_bench.py traces this binding
    enumerate_ssyt,
    lr_fillings,
)


def pieri(lam: Partition, n: int, dual: bool = False) -> SchurExpansion:
    """s_lam * h_n as the sum over horizontal n-strips added to lam
    (vertical strips and e_n when dual)."""
    _require_type(Partition, lam=lam)
    _require_int(n=n)
    direction = VERTICAL if dual else HORIZONTAL
    return SchurExpansion({p: 1 for p in enumerate_outer_strips(lam, n, direction)})


def skew_pieri(s: SkewShape, n: int, dual: bool = False) -> SkewExpansion:
    """s_{lam/mu} * h_n as the signed sum over adding an (n-k)-horizontal
    strip outside and removing a k-vertical strip inside, sign (-1)^k
    (strip directions swap when dual, giving the e_n product)."""
    _require_type(SkewShape, s=s)
    _require_int(n=n)
    terms: dict[SkewShape, int] = {}
    for k, lam_plus, mu_minus in _strata(s, n, dual):
        shape = SkewShape._trusted(lam_plus, mu_minus)
        terms[shape] = terms.get(shape, 0) + (-1) ** k
    return SkewExpansion(terms)


def _difference(b: SkewShape) -> tuple[int, ...]:
    """The content every pair for a factor b must have: the componentwise
    difference outer(b) - inner(b), one entry per row of outer(b)."""
    sigma, tau = b.outer.parts, b.inner.parts
    return tuple(map(sub, sigma, tau + (0,) * (len(sigma) - len(tau))))


_COLUMN, _MINUS = range(2)  # _signed_pairs' decisions; _MINUS places an entry


def _signed_pairs(mu: Partition, target: tuple[int, ...], tau: tuple[int, ...] | None):
    """Every finished T- inside mu: anti-semistandard on mu/mu_minus, with
    content within the composition target (entries 1..len(target)) and,
    unless tau is None (no word test), a tau-Yamanouchi reverse reading word.
    Yields (minus_rows, mu_minus, sign, budget, counts): the rows of T-,
    bottom first, the parts of mu_minus, (-1)^(cells removed), the copies of
    each entry 1..m still to place and the word's entry counts, seeded from
    tau. _minus_table counts the T+ after each state; skew_lr_pairs lists them.

    One explicit-slot loop fills T- in reverse reading word order, column by
    column, rightmost first and bottom to top, so a cell's right and lower
    neighbours come first. Each stack level is one decision (a column height
    of mu_minus or a cell): kind, row, column, value, least value and cap. A
    placement must fit what target has left of its entry and keep the word
    tau-Yamanouchi. States come out in this fill order, the smallest value
    first at each decision."""
    m = len(target)
    total = sum(target)
    budget = [0, *target]  # copies of each entry 1..m still to place
    if tau is None:  # a seed so steep that no word of this content breaks it
        tau = tuple((total + 1) * (m - i) for i in range(m))
    # Entry counts of the word so far, seeded from tau; counts[0] exceeds any
    # count, so every 1 passes the lattice test.
    counts = [total + sum(tau) + 1, *tau, *(0,) * (m - len(tau))]
    mu_cols = [0, *mu.conjugate().parts, 0]  # column heights of mu, 1-indexed
    heights = [0] * len(mu_cols)  # heights[c]: height of column c of mu_minus
    minus_grid = [[0] * (p + 1) for p in mu.parts]  # the 0 past each row bounds nothing
    left = total  # entries still to place
    levels: list[list[int]] = []  # [kind, r, c, value, least, cap] per decision
    kind, r, c = _COLUMN, 0, len(mu_cols) - 2
    while True:
        # The decision after (kind, r, c): a filled column passes to the one
        # on its left, and the last one to a finished T-.
        if kind == _MINUS and r > mu_cols[c]:
            kind, c = _COLUMN, c - 1
        if kind == _COLUMN and not c:
            inner = [sum(h >= i for h in heights) for i in range(1, len(mu) + 1)]
            minus_rows = tuple(tuple(row[i:-1]) for row, i in zip(minus_grid, inner))
            sign = -1 if (total - left) % 2 else 1
            yield minus_rows, tuple(i for i in inner if i), sign, tuple(budget[1:]), tuple(counts[1:])
        else:  # open the decision at its least value less one
            if kind == _COLUMN:
                least, cap = max(heights[c + 1], mu_cols[c] - left), mu_cols[c]
            else:  # above its right neighbour, at most the cell below
                least = minus_grid[r - 1][c] + 1
                cap = minus_grid[r - 2][c - 1] if r - 1 > heights[c] else m
            levels.append([kind, r, c, least - 1, least, cap])
        # Grow the last decision: take back its entry, move it to its next
        # admissible value, and drop the decisions that have none left.
        while levels:
            level = levels[-1]
            kind, r, c, v, least, cap = level
            if kind == _MINUS and v >= least:
                budget[v] += 1
                counts[v] -= 1
                left += 1
            v += 1
            while kind == _MINUS and v <= cap and (not budget[v] or counts[v] >= counts[v - 1]):
                v += 1
            if v <= cap:
                break
            levels.pop()
        else:
            return
        level[3] = v
        if kind == _COLUMN:
            heights[c] = v
            kind, r = _MINUS, v + 1
        else:
            budget[v] -= 1
            counts[v] += 1
            left -= 1
            minus_grid[r - 1][c - 1] = v
            r += 1


def skew_lr_pairs(a: SkewShape, b: SkewShape):
    """The admissible pairs behind skew_lr_product, for auditing: tuples
    (t_minus, t_plus, shape, sign), T- in the fill order of _signed_pairs,
    then lam_plus in lexicographic order, then T+ in lr_fillings order. With
    kappa the word's entry counts where T- ends, the T+ on lam_plus/lam are
    the LR fillings of star(lam_plus/lam, kappa) of content outer(b), less
    their bottom len(kappa) rows: those hold kappa's superstandard filling,
    so reading them first seeds the lattice test with kappa."""
    _require_type(SkewShape, a=a, b=b)
    lam, mu, sigma = a.outer, a.inner, b.outer.parts
    for minus_rows, inner, sign, budget, counts in _signed_pairs(mu, _difference(b), b.inner.parts):
        mu_minus, kappa = Partition(inner), SkewShape(Partition(counts))
        t_minus = Tableau(SkewShape(mu, mu_minus), minus_rows)
        for lam_plus in superpartitions(lam, sum(budget)):
            plus_shape = SkewShape(lam_plus, lam)
            for t in lr_fillings(star(plus_shape, kappa)):
                if t.content() == sigma:
                    t_plus = Tableau(plus_shape, t.rows[kappa.rows:])
                    yield t_minus, t_plus, SkewShape(lam_plus, mu_minus), sign


@lru_cache(maxsize=None)
def _minus_table(mu: Partition, target: tuple[int, ...], tau: tuple[int, ...] | None):
    """(mu_minus, f) over the finished T- of every factor with inner shape
    mu, f the Schur image of the signed sum of s_{sigma/kappa} over its T-:
    kappa the word's entry counts where T- ends, sigma = kappa + the content
    unspent (with tau None, disjoint rows: a product of h's). A placement
    moves an entry from the unspent content to kappa, so sigma is the same
    for every T- (outer(b), or the steep seed + rho with tau None): the sums
    are keyed by kappa, and one shape is built per distinct kappa. Read-only."""
    sums: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for _, mu_minus, sign, budget, counts in _signed_pairs(mu, target, tau):
        terms = sums.setdefault(mu_minus, {})
        terms[counts] = terms.get(counts, 0) + sign
    # The empty T- is always a state, so the last state gives sigma; each
    # kappa is a partition, so dropping its zeros trims it.
    sigma = _canonical(tuple(map(add, counts, budget)))
    shapes = {
        kappa: SkewShape._trusted(sigma, _canonical(tuple(filter(None, kappa))))
        for kappa in set().union(*sums.values())
    }
    return tuple(
        (_canonical(m), skew_expansion_to_schur(SkewExpansion._of({shapes[k]: c for k, c in t.items()})))
        for m, t in sums.items()
    )


def _signed_terms(a: SkewShape, target: tuple[int, ...], tau: tuple[int, ...] | None):
    """The signs of the pairs of _signed_pairs summed by shape
    lam_plus/mu_minus, with no pair built: for each (mu_minus, f) of
    _minus_table, the coefficient of s_lam_plus in s_lam * f, summed over the
    LR tables of s_lam * s_nu into one dict, since the T+ of lam_plus/lam after
    a T- number <s_lam * s_{sigma/kappa}, s_lam_plus> (kappa-lattice LR rule)."""
    terms: dict[SkewShape, int] = {}
    for mu_minus, f in _minus_table(a.inner, target, tau):
        row: dict[Partition, int] = {}
        for nu, b in f.terms.items():
            for lam_plus, c in _basis_product(a.outer, nu):
                row[lam_plus] = row.get(lam_plus, 0) + b * c
        terms.update((SkewShape._trusted(lam_plus, mu_minus), c) for lam_plus, c in row.items())
    return SkewExpansion._of(terms)


def skew_lr_product(a: SkewShape, b: SkewShape) -> SkewExpansion:
    """s_a * s_b as a signed sum of skew Schur functions, coefficients
    aggregated over admissible pairs sharing a shape."""
    _require_type(SkewShape, a=a, b=b)
    return _signed_terms(a, _difference(b), b.inner.parts)


def skew_h_rho_product(a: SkewShape, rho: Partition) -> SkewExpansion:
    """s_{lam/mu} * h_rho: the signed sum over pairs of combined content rho
    with no word condition."""
    _require_type(SkewShape, a=a)
    _require_type(Partition, rho=rho)
    return _signed_terms(a, rho.parts, None)


# (|outer|, n) limits of verify_skew_pieri's monomial and involution checks.
_MONOMIAL_LIMITS = (5, 2)
_INVOLUTION_LIMITS = (5, 2)


def verify_skew_pieri(limit_outer: int, limit_n: int, max_entry: int = 3) -> dict:
    """Sweep every skew shape with |outer| <= limit_outer and every n <=
    limit_n. Checks, per case: (i) the expansion equals the Schur-basis
    product with h_n; (ii) within _MONOMIAL_LIMITS, monomial-level equality
    in degree-many variables; (iii) within _INVOLUTION_LIMITS, signed SSYT
    counts at bounded entries cancel down to the star-shape count and the
    slide fixed points match it. Returns a JSON-ready report. A limit that is
    not an int raises TypeError, a negative one ValueError."""
    mono_outer, mono_n = _MONOMIAL_LIMITS
    inv_outer, inv_n = _INVOLUTION_LIMITS
    _require_nonnegative(limit_outer=limit_outer, limit_n=limit_n, max_entry=max_entry)
    failures: list[str] = []
    schur_cases = monomial_cases = involution_cases = 0
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
                # A context's sign is (-1)^k, k = |mu| - |mu_minus|.
                signed = fixed = 0
                for ctx in enumerate_contexts(base, n, max_entry):
                    signed += (-1) ** (base.inner.size - ctx.tableau.shape.inner.size)
                    fixed += is_fixed_point(ctx)
                star_count = len(enumerate_ssyt(star(base, SkewShape.of((n,))), max_entry))
                if signed != star_count:
                    failures.append(
                        f"signed count {signed} != star count {star_count} at {base}, n={n}"
                    )
                if fixed != star_count:
                    failures.append(
                        f"fixed points {fixed} != star count {star_count} at {base}, n={n}"
                    )
    return {
        "limit_outer": limit_outer,
        "limit_n": limit_n,
        "max_entry": max_entry,
        "monomial_limits": list(_MONOMIAL_LIMITS),
        "involution_limits": list(_INVOLUTION_LIMITS),
        "schur_cases": schur_cases,
        "monomial_cases": monomial_cases,
        "involution_cases": involution_cases,
        "failures": failures,
    }


def verify_skew_lr(limit_outer_a: int, limit_outer_b: int) -> dict:
    """Sweep to_schur(skew_lr_product(a, b)) == skew_to_schur(a) *
    skew_to_schur(b) over all skew a, b within the size limits. A limit that
    is not an int raises TypeError, a negative one ValueError."""
    _require_nonnegative(limit_outer_a=limit_outer_a, limit_outer_b=limit_outer_b)
    failures: list[str] = []
    cases = 0
    shapes_b = tuple((b, skew_to_schur(b)) for b in skew_shapes_up_to(limit_outer_b))
    for a in skew_shapes_up_to(limit_outer_a):
        lhs_a = skew_to_schur(a)
        for b, rhs_b in shapes_b:
            cases += 1
            if skew_lr_product(a, b).to_schur() != schur_product(lhs_a, rhs_b):
                failures.append(f"product mismatch at {a} * {b}")
    return {
        "limit_outer_a": limit_outer_a,
        "limit_outer_b": limit_outer_b,
        "cases": cases,
        "failures": failures,
    }


def verify_perp_range(max_deg: int, max_n: int) -> dict:
    """Sweep the checks of perp_identity_failures over all Schur pairs with
    degrees at most max_deg and all n from 1 to max_n. A limit that is not
    an int raises TypeError, a negative one ValueError."""
    _require_nonnegative(max_deg=max_deg, max_n=max_n)
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

