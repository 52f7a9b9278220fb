"""Exact integer symmetric-function algebra in the Schur basis.

Products and skew expansions go through Littlewood-Richardson filling
enumeration: an LR table is tallied off the letter counts of the filling
walk `tableaux._lr_walk`, with no tableau built. A product of two Schur
functions is read off one LR table, that of the concatenated shape:
s_mu * s_nu = s_{mu * nu} (`star`), the identity the skew Pieri rule is
proved through. `perp` reads the same products through a table inverted by
the partition they produce, and the operator identity
(fg)^perp = f^perp g^perp is checked one degree at a time off those tables,
every probe of a degree in one walk. It and the Hall check of perp do not
depend on n, so they run once per (f, g) pair, not once per n; the e/h
check depends on n alone and runs once per n. Each identity is checked by
difference, the right side's terms subtracted from a fresh dict of the left
side's. The images of one operand (its h_j^perp, e_j^perp and probe images)
are built once per sweep, in a memo of operands; those of a pair once per
pair, in a one-entry memo that every n of the pair reuses. A second
route through monomial expansions (enumerate the semistandard tableaux with
`tableaux._fillings`, collect exponent vectors) exists for cross-checking
and shares no code with the LR walk; greedy peeling of monomial data back
into the Schur basis is a test oracle in `tests/oracles.py`. Two
homogeneous symmetric functions of degree d are equal iff their monomial
expansions in d variables agree, so every monomial-level check fixes
num_vars at the degree at hand. All coefficients are exact ints.
"""

from __future__ import annotations

from functools import lru_cache

from .shapes import EMPTY, Partition, SkewShape, _CANONICAL_SIZE, _canonical, _require_nonnegative
from .shapes import _require_type, partitions_of_size, star
from .tableaux import _lr_walk, enumerate_ssyt


class _Expansion:
    """Finite integer combination of basis elements keyed by shape.

    No zero coefficients are stored, and every coefficient is an int (bools
    are rejected). Sums and differences take the same expansion type and
    scalars are ints; any other operand is a TypeError. Iteration and
    printing go in lexicographic shape order.
    Subclasses fix the key type `_basis`, and `_coerce` turns any other key
    into one or raises TypeError. The constructor checks all of this: it is
    the public boundary. Internal producers build through `_of`, which
    trusts keys and coefficients and keeps the dict as `terms` unless it
    holds a zero: each caller passes a dict it built and never touches again.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        data = {}
        basis = self._basis
        for k, c in (terms or {}).items():
            if not isinstance(k, basis):
                k = self._coerce(k)
            if type(c) is not int:
                raise TypeError(f"coefficient {c!r} is not an integer")
            if c:
                data[k] = c
        self.terms = data

    @classmethod
    def _of(cls, data: dict):
        """Internal: an expansion that owns data, unchecked, zeros dropped."""
        x = object.__new__(cls)
        x.terms = data if all(data.values()) else {k: c for k, c in data.items() if c}
        return x

    __hash__ = None

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __getitem__(self, k) -> int:
        if not isinstance(k, self._basis):
            k = self._coerce(k)
        return self.terms.get(k, 0)

    def __iter__(self):
        return iter(sorted(self.terms.items()))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return self._of(out)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._of({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if type(other) is int:  # a bool is refused here as in the constructor
            return self._of({k: c * other for k, c in self.terms.items()})
        return self._product(other)

    __rmul__ = __mul__

    def _product(self, other):
        """self * other for a non-integer other; none by default."""
        return NotImplemented

    def __str__(self) -> str:
        text = " ".join(term_lines(self))
        return text[2:] if text.startswith("+ ") else text

    __repr__ = __str__


class SchurExpansion(_Expansion):
    """Integer combination of Schur functions keyed by partition; a tuple
    key becomes a Partition. Equality is coefficientwise."""

    __slots__ = ()
    _basis = Partition

    @staticmethod
    def _coerce(p) -> Partition:
        return _as_partition(p, "key")

    def __eq__(self, other):
        if isinstance(other, SchurExpansion):
            return self.terms == other.terms
        return NotImplemented

    def _product(self, other):
        if isinstance(other, SchurExpansion):
            return schur_product(self, other)
        return NotImplemented

    def degree(self) -> int:
        return max((p.size for p in self.terms), default=0)


class SkewExpansion(_Expansion):
    """Integer combination of skew Schur functions keyed by SkewShape.

    Skew Schur functions are not linearly independent, so `==` compares the
    images under to_schur; `same_terms` compares the raw term maps for
    golden tests against displayed term lists.
    """

    __slots__ = ()
    _basis = SkewShape

    @staticmethod
    def _coerce(s):
        raise TypeError(f"{s!r} is not a skew shape")

    def __eq__(self, other):
        if isinstance(other, SkewExpansion):
            return self.to_schur() == other.to_schur()
        return NotImplemented

    def same_terms(self, other: "SkewExpansion") -> bool:
        return self.terms == other.terms

    def to_schur(self) -> SchurExpansion:
        return skew_expansion_to_schur(self)


def term_lines(x: _Expansion) -> list[str]:
    """One `+ s[...]` line per term, sign first, shapes in lexicographic
    order; ["0"] for the zero expansion."""
    if not isinstance(x, _Expansion):
        raise TypeError(f"cannot format {type(x).__name__}")
    lines = []
    for key, c in x:
        mag = "" if abs(c) == 1 else f"{abs(c)}*"
        lines.append(f"{'-' if c < 0 else '+'} {mag}s[{key}]")
    return lines or ["0"]


def _as_partition(p, name: str) -> Partition:
    """p as a Partition. A p that is neither a Partition nor an iterable
    raises TypeError naming it; bad parts raise Partition's ValueError."""
    if isinstance(p, Partition):
        return p
    try:
        parts = tuple(p)
    except TypeError:
        raise TypeError(f"{name} {p!r} is not a Partition or an iterable of parts") from None
    return Partition(parts)


def schur(p) -> SchurExpansion:
    """The single Schur function s_p as an expansion. A p that is neither a
    Partition nor an iterable raises TypeError."""
    return SchurExpansion._of({_as_partition(p, "p"): 1})


@lru_cache(maxsize=_CANONICAL_SIZE)
def _lr_pairs(shape: SkewShape) -> tuple[tuple[Partition, int], ...]:
    """Content partitions of the LR fillings of shape, with multiplicity,
    tallied off the walk's letter counts: no filling is built."""
    tally: dict[tuple[int, ...], int] = {}
    for _, counts in _lr_walk(shape):
        key = tuple(counts)
        tally[key] = tally.get(key, 0) + 1
    # Keys share their sentinel and total, so they sort as the contents do; a
    # lattice word's counts have no interior zeros, so dropping zeros trims.
    return tuple((_canonical(tuple(filter(None, key[1:]))), n) for key, n in sorted(tally.items()))


def lr_expand(shape: SkewShape) -> SchurExpansion:
    """s_{outer/inner} as a sum of straight Schur functions."""
    return SchurExpansion._of(dict(_lr_pairs(shape)))


def lr_coefficient(nu: Partition, lam: Partition, mu: Partition) -> int:
    """Number of LR fillings of nu/lam with content mu (zero when lam is not
    contained in nu or the sizes do not match)."""
    _require_type(Partition, nu=nu, lam=lam, mu=mu)
    if not nu.contains(lam) or nu.size != lam.size + mu.size:
        return 0
    for content, count in _lr_pairs(SkewShape(nu, lam)):
        if content == mu:
            return count
    return 0


@lru_cache(maxsize=_CANONICAL_SIZE)
def _basis_product(mu: Partition, nu: Partition) -> tuple[tuple[Partition, int], ...]:
    """s_mu * s_nu in the Schur basis, as the LR table of the concatenated
    shape: s_mu * s_nu = s_{mu * nu}, so one filling enumeration gives every
    coefficient."""
    return _lr_pairs(star(SkewShape._trusted(mu, EMPTY), SkewShape._trusted(nu, EMPTY)))


def schur_product(f: SchurExpansion, g: SchurExpansion) -> SchurExpansion:
    """Bilinear extension of the Littlewood-Richardson product."""
    if not (isinstance(f, SchurExpansion) and isinstance(g, SchurExpansion)):
        _require_type(SchurExpansion, f=f, g=g)  # names the bad one; sweeps call this hot
    out: dict[Partition, int] = {}
    for mu, a in f.terms.items():
        for nu, b in g.terms.items():
            for lam, c in _basis_product(mu, nu):
                out[lam] = out.get(lam, 0) + a * b * c
    return SchurExpansion._of(out)


def skew_to_schur(s: SkewShape) -> SchurExpansion:
    """s_{outer/inner} in the Schur basis. An s that is not a SkewShape
    raises TypeError."""
    if not isinstance(s, SkewShape):
        _require_type(SkewShape, s=s)  # names s; the sweeps call this hot
    return lr_expand(s)


def skew_expansion_to_schur(x: SkewExpansion) -> SchurExpansion:
    """The Schur image of a signed sum of skew Schur functions, read off
    each term's LR table."""
    if not isinstance(x, SkewExpansion):
        _require_type(SkewExpansion, x=x)
    out: dict[Partition, int] = {}
    for s, c in x.terms.items():
        for lam, d in _lr_pairs(s):
            out[lam] = out.get(lam, 0) + c * d
    return SchurExpansion._of(out)


def hall_inner(f: SchurExpansion, g: SchurExpansion) -> int:
    """Hall inner product; Schur functions are orthonormal."""
    _require_type(SchurExpansion, f=f, g=g)
    if len(g.terms) < len(f.terms):
        f, g = g, f
    return sum(c * g.terms.get(p, 0) for p, c in f.terms.items())


@lru_cache(maxsize=_CANONICAL_SIZE)
def _perp_table(mu: Partition, d: int) -> dict[Partition, tuple[tuple[Partition, int], ...]]:
    """The products s_mu * s_nu over all nu of size d, inverted: lam maps to
    the pairs (nu, c) with c = <s_mu * s_nu, s_lam> nonzero, nu in
    partitions_of_size order. Read-only; it is shared by every caller."""
    table: dict[Partition, list[tuple[Partition, int]]] = {}
    for nu in partitions_of_size(d):
        for lam, c in _basis_product(mu, nu):
            table.setdefault(lam, []).append((nu, c))
    return {lam: tuple(pairs) for lam, pairs in table.items()}


def perp(f: SchurExpansion, g: SchurExpansion) -> SchurExpansion:
    """The adjoint of multiplication by f, applied to g: the coefficient of
    s_nu in perp(f, g) is <g, f*s_nu>, computed through the product. That
    perp(schur(mu), schur(lam)) equals skew_to_schur(lam/mu) is a theorem
    checked in the tests, not a shortcut taken here."""
    if not (isinstance(f, SchurExpansion) and isinstance(g, SchurExpansion)):
        _require_type(SchurExpansion, f=f, g=g)
    out: dict[Partition, int] = {}
    for mu, a in f.terms.items():
        m = sum(mu.parts)
        for lam, b in g.terms.items():
            d = sum(lam.parts) - m
            if d >= 0:
                for nu, c in _perp_table(mu, d).get(lam, ()):
                    out[nu] = out.get(nu, 0) + a * b * c
    return SchurExpansion._of(out)


def _perp_images(f: SchurExpansion, d: int) -> dict[Partition, dict[Partition, int]]:
    """perp(f, s_pi) for every pi of size d in one walk over the perp tables:
    pi maps to the image's terms, zeros not dropped; a pi missing has image
    zero."""
    out: dict[Partition, dict[Partition, int]] = {}
    for mu, a in f.terms.items():
        m = d - mu.size
        if m >= 0:
            for lam, pairs in _perp_table(mu, m).items():
                row = out.setdefault(lam, {})
                for nu, c in pairs:
                    row[nu] = row.get(nu, 0) + a * c
    return out


def h(n: int) -> SchurExpansion:
    """Complete homogeneous h_n = s_(n)."""
    if type(n) is not int or n < 0:  # one test: the perp sweep calls this hot
        _require_nonnegative(n=n)
    return schur(_canonical((n,) if n else ()))


def e(n: int) -> SchurExpansion:
    """Elementary e_n = s_(1^n)."""
    if type(n) is not int or n < 0:  # one test: the perp sweep calls this hot
        _require_nonnegative(n=n)
    return schur(_canonical((1,) * n))


def omega(f: SchurExpansion) -> SchurExpansion:
    """The involution sending s_p to s_{p conjugate}."""
    _require_type(SchurExpansion, f=f)
    return SchurExpansion({p.conjugate(): c for p, c in f.terms.items()})


@lru_cache(maxsize=_CANONICAL_SIZE)
def _monomial_pairs(shape: SkewShape, num_vars: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    counts: dict[tuple[int, ...], int] = {}
    for t in enumerate_ssyt(shape, num_vars):
        content = t.content()
        vec = content + (0,) * (num_vars - len(content))
        counts[vec] = counts.get(vec, 0) + 1
    return tuple(sorted(counts.items()))


def monomial_expansion(s: SkewShape, num_vars: int) -> dict[tuple[int, ...], int]:
    """Exponent-vector multiset of s_{outer/inner} restricted to num_vars
    variables, via direct tableau enumeration."""
    return dict(_monomial_pairs(s, num_vars))


def skew_monomials(x: _Expansion, num_vars: int) -> dict[tuple[int, ...], int]:
    """Monomial expansion of a signed sum of Schur or skew Schur functions."""
    out: dict[tuple[int, ...], int] = {}
    for key, c in x.terms.items():
        shape = key if isinstance(key, SkewShape) else SkewShape(key)
        for vec, k in _monomial_pairs(shape, num_vars):
            total = out.get(vec, 0) + c * k
            if total:
                out[vec] = total
            else:
                out.pop(vec, None)
    return out


def monomial_product(a: dict[tuple[int, ...], int], b: dict[tuple[int, ...], int]) -> dict[tuple[int, ...], int]:
    """Polynomial product of two exponent-vector maps."""
    out: dict[tuple[int, ...], int] = {}
    for va, ca in a.items():
        for vb, cb in b.items():
            v = tuple(x + y for x, y in zip(va, vb, strict=True))
            total = out.get(v, 0) + ca * cb
            if total:
                out[v] = total
            else:
                out.pop(v, None)
    return out


def perp_identity_failures(f: SchurExpansion, g: SchurExpansion, n: int) -> list[str]:
    """Check the four perp identities exactly, and perp against the Hall
    inner product; describe any that fail. An f or g that is not a
    SchurExpansion, or an n that is not an int, raises TypeError; a
    negative n raises ValueError.

    Each identity is checked by difference: the right side's terms are
    subtracted from a fresh dict of the left side's, and it fails if an entry
    is left nonzero. The two Pieri-type identities are checked for this n,
    off the images of the pair's memo (_PairImages), since a sweep runs every
    n of a pair in turn. What belongs to one operand (h_j^perp, e_j^perp and
    its probe images) is built once per sweep, in a memo of operands
    (_operand_images) whose bound exceeds a sweep's basis, as every g comes
    back only after the whole basis has run; what mixes f and g is built
    once per pair. The alternating sum of e_i h_{n-i}, which is 1 at n = 0
    and 0 above, depends on n alone and is decided once per n
    (_eh_failures). The checks that depend on neither n follow, run once per
    pair.
    """
    if not (isinstance(f, SchurExpansion) and isinstance(g, SchurExpansion)):
        _require_type(SchurExpansion, f=f, g=g)
    _require_nonnegative(n=n)
    pair = _pair_images(tuple(f.terms.items()), tuple(g.terms.items()))
    pair.extend(n)
    fx, gx = pair.fx, pair.gx
    fails: list[str] = []

    diff = dict(schur_product(fx.x, gx.h[n]).terms)
    for k in range(n + 1):
        sign = (-1) ** k
        for nu, c in perp(h(n - k), pair.e_f_g[k]).terms.items():
            diff[nu] = diff.get(nu, 0) - sign * c
    if any(diff.values()):
        fails.append("f*h_n^perp(g) != sum_k (-1)^k h_{n-k}^perp(e_k^perp(f) g)")

    fails.extend(_eh_failures(n))

    diff = dict(perp(h(n), pair.fg).terms)
    for i in range(n + 1):
        for nu, c in schur_product(fx.h[n - i], gx.h[i]).terms.items():
            diff[nu] = diff.get(nu, 0) - c
    if any(diff.values()):
        fails.append("h_n^perp(fg) != sum_i h_{n-i}^perp(f) h_i^perp(g)")

    fails.extend(pair.failures)
    return fails


@lru_cache(maxsize=64)
def _eh_failures(n: int) -> tuple[str, ...]:
    """The check of perp_identity_failures that depends on n alone: the
    alternating sum of e_i h_{n-i} is 1 at n = 0 and 0 above."""
    alternating = SchurExpansion()
    for i in range(n + 1):
        alternating = alternating + schur_product(e(i), h(n - i)) * (-1) ** i
    if alternating != (h(0) if n == 0 else SchurExpansion()):
        return ("sum_i (-1)^i e_i h_{n-i} != delta_{n,0}",)
    return ()


class _OperandImages:
    """The images of perp_identity_failures that belong to one operand x,
    given by its terms, whatever pair it is in: the lists h and e, whose
    entry j is h_j^perp x and e_j^perp x, extended as a larger n first needs
    them, and x's probe images _perp_images(x, d) by degree, each built when
    first read. Every row is only read: the difference loop of
    _pair_failures writes into fg's probe rows alone, which stay per pair."""

    __slots__ = ("x", "h", "e", "probes")

    def __init__(self, items: tuple):
        self.x = SchurExpansion._of(dict(items))
        self.h, self.e, self.probes = [], [], {}

    def extend(self, n: int) -> None:
        """Fill the image lists up to entry n."""
        for j in range(len(self.h), n + 1):
            self.h.append(perp(h(j), self.x))
            self.e.append(perp(e(j), self.x))

    def probe(self, d: int) -> dict[Partition, dict[Partition, int]]:
        """_perp_images(x, d), built on the first read of degree d."""
        images = self.probes.get(d)
        if images is None:
            images = self.probes[d] = _perp_images(self.x, d)
        return images


# verify_perp_range runs g through the whole basis under each f, so an
# operand comes back only after every other one has: the bound must exceed
# the number of operands of a sweep (12 at degree 4, 30 at degree 6), or
# every entry is evicted before it is read again.
_operand_images = lru_cache(maxsize=64)(_OperandImages)


class _PairImages:
    """The memo of perp_identity_failures for the f and g with the given
    terms. Per operand, from _operand_images: f's and g's images, as fx and
    gx. Per pair: fg, the verdict of the checks that do not depend on n
    (_pair_failures), and the list e_f_g, whose entry j is (e_j^perp f) g,
    extended as a larger n first needs it. Nothing in it leaves
    perp_identity_failures, and no expansion in it is changed once built."""

    __slots__ = ("fx", "gx", "fg", "failures", "e_f_g")

    def __init__(self, f_items: tuple, g_items: tuple):
        self.fx, self.gx = _operand_images(f_items), _operand_images(g_items)
        self.fg = schur_product(self.fx.x, self.gx.x)
        self.failures = _pair_failures(self.fx.x, self.gx.x, self.fg)
        self.e_f_g = []

    def extend(self, n: int) -> None:
        """Fill the image lists of f, g and the pair up to entry n."""
        self.fx.extend(n)
        self.gx.extend(n)
        for j in range(len(self.e_f_g), n + 1):
            self.e_f_g.append(schur_product(self.fx.e[j], self.gx.x))


# One entry: a sweep runs every n of a pair in turn, so the pair at hand is
# the only one worth keeping.
_pair_images = lru_cache(maxsize=1)(_PairImages)


def _pair_failures(f: SchurExpansion, g: SchurExpansion, fg: SchurExpansion) -> tuple[str, ...]:
    """The checks of perp_identity_failures that do not depend on n, for f,
    g and their product fg.

    The operator identity (fg)^perp = f^perp g^perp is probed on all Schur
    functions of degree from the least degree of a term of f plus that of
    g, below which both sides vanish, to deg f + deg g + 2: the two degrees
    past deg f + deg g exercise nonconstant images. It is checked one
    degree d at a time off the perp tables, by difference: one walk gives
    (fg)^perp(s_pi) for every pi of size d, and from each of those fresh
    rows g^perp(s_pi) pushed through f's images is subtracted. fg's images
    are built here, per pair, since they are the rows written into; g's
    images (per degree) and f's (as first needed) are read from the operand
    memo, _operand_images, so each is built once per sweep. fg is never
    looked up there: with f = s_empty its terms are g's, and the writes
    would land in g's cached rows.
    Last, the s_empty coefficient of perp(fg, fg) must be <fg, fg>: the one
    check that runs perp with a first argument of many terms and
    coefficients.
    """
    fails: list[str] = []
    f_images = _operand_images(tuple(f.terms.items())).probe
    g_images = _operand_images(tuple(g.terms.items())).probe
    low = min((p.size for p in f.terms), default=0) + min((p.size for p in g.terms), default=0)
    for d in range(low, f.degree() + g.degree() + 3):
        lhs_images, g_rows = _perp_images(fg, d), g_images(d)
        for pi in partitions_of_size(d):
            diff = lhs_images.get(pi, {})
            for lam, b in g_rows.get(pi, {}).items():
                for nu, c in f_images(lam.size).get(lam, {}).items():
                    diff[nu] = diff.get(nu, 0) - b * c
            if any(diff.values()):
                fails.append(f"(fg)^perp != f^perp g^perp at s[{pi}]")

    if perp(fg, fg)[EMPTY] != hall_inner(fg, fg):
        fails.append("perp(fg, fg) at s[∅] != <fg, fg>")
    return tuple(fails)


def verify_perp_identities(f: SchurExpansion, g: SchurExpansion, n: int) -> bool:
    """True when every check of perp_identity_failures passes for f, g, n;
    raises as it does on arguments of the wrong type or a negative n."""
    return not perp_identity_failures(f, g, n)


def expansion_to_json(x: _Expansion) -> dict:
    """JSON-ready dict; terms in lexicographic shape order."""
    if isinstance(x, SchurExpansion):
        basis, fields = "schur", lambda p: {"partition": list(p.parts)}
    elif isinstance(x, SkewExpansion):
        basis, fields = "skew", lambda s: {"outer": list(s.outer.parts), "inner": list(s.inner.parts)}
    else:
        raise TypeError(f"cannot serialize {type(x).__name__}")
    return {"basis": basis, "terms": [{"coeff": c, **fields(k)} for k, c in x]}


def expansion_from_json(obj: dict):
    """Inverse of expansion_to_json. Raises ValueError naming the problem on
    input it cannot have written, a shape in two terms included."""
    if not isinstance(obj, dict):
        raise ValueError(f"expansion must be a JSON object, not {type(obj).__name__}")
    basis, terms = obj.get("basis"), obj.get("terms")
    if basis not in ("schur", "skew"):
        raise ValueError(f"unknown basis {basis!r}")
    if not isinstance(terms, list):
        raise ValueError(f"'terms' must be a list, not {type(terms).__name__}")
    for i, t in enumerate(terms):
        if not isinstance(t, dict) or type(t.get("coeff")) is not int:
            raise ValueError(f"term {i} has no integer 'coeff': {t!r}")
        for name in ("partition",) if basis == "schur" else ("outer", "inner"):
            if not isinstance(t.get(name), list):
                raise ValueError(f"term {i} has no list {name!r}: {t!r}")
    if basis == "schur":
        cls, data = SchurExpansion, {Partition(tuple(t["partition"])): t["coeff"] for t in terms}
    else:
        cls, data = SkewExpansion, {SkewShape.of(t["outer"], t["inner"]): t["coeff"] for t in terms}
    if len(data) != len(terms):
        raise ValueError("a shape appears in more than one term")
    return cls(data)
