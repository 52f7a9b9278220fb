"""Reference oracles the tests check the library against: the skew Pieri
rule applied one h_n at a time, the membership test for the skew LR sum,
and greedy peeling of monomial data into the Schur basis. None of them is
library code; tests import them as `from oracles import ...`."""

from skewtab.rules import _difference, skew_pieri
from skewtab.shapes import Partition, SkewShape
from skewtab.symfunc import SchurExpansion, SkewExpansion, _monomial_pairs
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
