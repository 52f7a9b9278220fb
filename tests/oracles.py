"""Reference oracles the tests check the library against: the skew Pieri
rule applied one h_n at a time, the membership test for the skew LR sum,
greedy peeling of monomial data into the Schur basis, the perp sweep with
nothing reused between cases, the strip test read cell by cell, and a slide
context's strip facts read afresh from its two shapes. None of them is
library code; tests import them as `from oracles import ...`."""

from itertools import chain, count, repeat
from operator import sub

from skewtab import symfunc
from skewtab.rules import _difference, skew_pieri
from skewtab.shapes import HORIZONTAL, VERTICAL, Partition, SkewShape, partitions_of_size
from skewtab.symfunc import SchurExpansion, SkewExpansion, _monomial_pairs, schur
from skewtab.tableaux import ASSYT, SSYT, Tableau, is_yamanouchi, reverse_reading_word, validate


def skew_pieri_linear(x: SkewExpansion, n: int, dual: bool = False) -> SkewExpansion:
    """skew_pieri extended linearly over a signed sum of skew shapes."""
    terms: dict[SkewShape, int] = {}
    for s, c in x.terms.items():
        for shape, d in skew_pieri(s, n, dual).terms.items():
            terms[shape] = terms.get(shape, 0) + c * d
    return SkewExpansion(terms)


def iterated_skew_pieri(a: SkewShape, rho: Partition, dual: bool = False) -> SkewExpansion:
    """s_{lam/mu} multiplied by h_{rho_1}, h_{rho_2}, ... in turn."""
    out = SkewExpansion({a: 1})
    for part in rho.parts:
        out = skew_pieri_linear(out, part, dual)
    return out


def is_admissible_pair(a: SkewShape, b: SkewShape, t_minus: Tableau, t_plus: Tableau) -> bool:
    """Membership test for the skew LR sum: shapes interlock with a, the
    fillings are anti-semistandard resp. semistandard, every entry is at
    most the length of outer(b), the combined content is the componentwise
    difference of b's partitions, and the reverse reading word is
    inner(b)-Yamanouchi."""
    lam, mu = a.outer, a.inner
    if t_minus.shape.outer != mu or not mu.contains(t_minus.shape.inner):
        return False
    if t_plus.shape.inner != lam or not t_plus.shape.outer.contains(lam):
        return False
    if not validate(t_minus, ASSYT) or not validate(t_plus, SSYT):
        return False
    target = _difference(b)
    content = [0] * (len(target) + 1)
    for t in (t_minus, t_plus):
        for row in t.rows:
            for x in row:
                if x > len(target):
                    return False
                content[x] += 1
    if tuple(content[1:]) != target:
        return False
    return is_yamanouchi(reverse_reading_word(t_minus, t_plus), b.inner)


class NotSymmetric(ValueError):
    """Monomial data does not peel to a Schur expansion."""


def schur_from_monomials(m: dict[tuple[int, ...], int], num_vars: int) -> SchurExpansion:
    """Greedy peeling: the lexicographically greatest exponent vector of a
    symmetric polynomial is a partition and is the leading term of its own
    Schur function with coefficient one, so subtracting coefficient times
    that Schur function's monomials strictly lowers the leading term."""
    work = {v: c for v, c in m.items() if c}
    out: dict[Partition, int] = {}
    while work:
        lead = max(work)
        if any(lead[i] < lead[i + 1] for i in range(len(lead) - 1)):
            raise NotSymmetric(f"leading exponent {lead} is not a partition")
        p = Partition(tuple(x for x in lead if x))
        coeff = work[lead]
        out[p] = coeff
        for vec, k in _monomial_pairs(SkewShape(p), num_vars):
            total = work.get(vec, 0) - coeff * k
            if total:
                work[vec] = total
            else:
                work.pop(vec, None)
        if lead in work:
            raise NotSymmetric(f"peeling failed to clear {lead}")
    return SchurExpansion(out)


# The memos perp_identity_failures reads besides the LR and perp tables:
# whatever they hold was built by the perp and products in force when it was
# filled, so a test that patches those must empty them on both sides.
PERP_MEMOS = ("_operand_images", "_pair_images", "_eh_failures")


def clear_perp_memos() -> None:
    for name in PERP_MEMOS:
        getattr(symfunc, name).cache_clear()


def unmemoised_perp_failures(f: SchurExpansion, g: SchurExpansion, n: int) -> list[str]:
    """perp_identity_failures(f, g, n) run afresh: every memo it reads is
    emptied before and after the call."""
    clear_perp_memos()
    try:
        return symfunc.perp_identity_failures(f, g, n)
    finally:
        clear_perp_memos()


def perp_sweep_failures(max_deg: int, max_n: int) -> list[str]:
    """The failures of verify_perp_range(max_deg, max_n), every case checked
    by unmemoised_perp_failures on f and g built anew."""
    failures = []
    basis = [p for d in range(max_deg + 1) for p in partitions_of_size(d)]
    for alpha in basis:
        for beta in basis:
            for n in range(1, max_n + 1):
                if unmemoised_perp_failures(schur(alpha), schur(beta), n):
                    failures.append(f"perp identity failed at f=s{alpha.parts}, g=s{beta.parts}, n={n}")
    return failures


def outer_strip_rows(ctx) -> list[int]:
    """The rows of the cells of lam_plus/lam taken right to left (columns
    descending): row r once per strip cell in it, row 1 upward, since in a
    horizontal strip each row's cells lie right of the next row's."""
    widths = map(sub, ctx.tableau.shape.outer.parts, ctx.base.outer.parts + (0,))
    return list(chain.from_iterable(map(repeat, count(1), widths)))


def inner_strip_bottom(ctx) -> int:
    """The lowest row of mu/mu_minus, or 0 when the inner strip is empty."""
    mu = ctx.base.inner.parts
    rows = zip(mu, ctx.tableau.shape.inner.parts + (0,) * len(mu))
    return next((r for r, (m, k) in enumerate(rows, start=1) if m > k), 0)


def is_strip_by_cells(shape: SkewShape, direction: str) -> bool:
    """SkewShape.is_strip read off the cells: True if no two cells share a
    column (horizontal) or a row (vertical)."""
    cells = shape.cells()
    if direction == HORIZONTAL:
        cols = [c.col for c in cells]
        return len(cols) == len(set(cols))
    if direction == VERTICAL:
        rws = [c.row for c in cells]
        return len(rws) == len(set(rws))
    raise ValueError(f"unknown direction {direction!r}")


def strip_error(base: SkewShape, shape: SkewShape) -> str | None:
    """Why shape decorates base with no horizontal outer and vertical inner
    strip, with the slide-context check's message; None when it does."""
    lam, mu = base.outer, base.inner
    lam_plus, mu_minus = shape.outer, shape.inner
    if not lam_plus.contains(lam) or not is_strip_by_cells(SkewShape(lam_plus, lam), HORIZONTAL):
        return f"{lam_plus}/{lam} is not a horizontal strip"
    if not mu.contains(mu_minus) or not is_strip_by_cells(SkewShape(mu, mu_minus), VERTICAL):
        return f"{mu}/{mu_minus} is not a vertical strip"
    return None
