"""Exact supercommutative arithmetic with Koszul signs and left derivatives.

A :class:`SuperFunction` over an ``n|m`` dimension is a finite sum

    sum_K  c_K(x) * th_{k1} * ... * th_{kr},   K = (k1 < ... < kr),

where each coefficient ``c_K`` is an exact rational function of the even
coordinates and the odd generators satisfy th_a th_b = -th_b th_a.  A
polynomial coefficient is a :class:`Poly` of the ring QQ[x] of the even
coordinates: a sparse dict of integer numerators over one common
denominator.  Only a true fraction, whose reduced denominator is not a
constant, is a :class:`Frac`, a reduced pair of integer polynomials.  Every
operation returns one of the two in its unique form, and a fraction whose
denominator cancels to a constant becomes a polynomial, so equality of
normal forms is plain equality and ``is_zero`` is exact.
:func:`numer_denom` gives the reduced numerator/denominator pair of either
kind.

A polynomial gcd runs only where a common factor can arise: in the sum or
product of two true fractions, in the derivative of a fraction, and, as
gcd(P, b), in a fraction a/b times a non-constant polynomial P.  Those gcds
are exact and in-house (:func:`_gcd`, a recursive primitive remainder
sequence over ZZ[x]), so no run imports sympy.  A fraction plus a
polynomial, a fraction times a rational, a reciprocal, and the first
coefficient written at a key need no gcd; their results only have their
integer content cancelled (:func:`_reduced`).

Only the public constructors validate: ``SuperFunction._of`` builds the
result of an operation, whose coefficients are canonical and nonzero
already.  A :class:`Dimension` is interned by its names, so equal
dimensions are one object and every dimension test is ``is``; it owns its
scalar ring and its coordinate functions, built once when it is made and
shared by every ``SuperFunction.coordinate``.  A
:class:`Substitution` validates its values once and keeps their monomials;
a coefficient's kind, not the plan, picks its formula.  A
`geometry.CoordinateChange` keeps one plan for each of its maps.
``SuperFunction.migrate`` is a renaming and builds no plan.

Every sum of functions is one pass of `SuperFunction.sum`, binary ``+`` and
``-`` included, or of `keyed_sums` for sums keyed by an index or a weight:
the terms are added into one dict, zero coefficients are dropped once at the
end, and a sole nonzero summand is passed through unchanged.

Trivial operands take short paths: a zero summand or factor gives the other
operand or zero, an even-scalar factor multiplies each coefficient (QQ(x)
has no zero divisors, so nothing cancels), a polynomial times the constant
1 is the polynomial, and two constants multiply with one gcd.  Each element
keeps its first derivatives once taken (``_derivs``, filled by `partial`);
equality, hashing and immutability ignore it, and a derivative never refers
to its antiderivative, so the kept values die with the element.

Conventions fixed here and relied on everywhere else:

* coordinates are indexed 0..n+m-1, evens first;
* all derivatives are LEFT derivatives: d/dth_a (th_K) moves th_a to the
  front of the monomial, picking up (-1)^(position of a in K);
* parity of a nonzero homogeneous element is the common size mod 2 of its
  odd monomials; the zero element is compatible with every parity.
  ``parity()``, the one parity query (here, on densities and operators),
  is a plain 0 or 1 and raises NonHomogeneous when two terms disagree.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add as _add_int
from typing import Mapping, Sequence

from .errors import (
    DimensionMismatch,
    NonHomogeneous,
    NotInvertible,
    UnknownCoordinate,
)

EVEN = 0
ODD = 1


class Dimension:
    """An n|m coordinate system: named even and odd coordinates.

    A dimension is its names: ``Dimension(even_names, odd_names)`` returns
    one object per pair of name tuples, so equal dimensions are identical
    and compare by ``is``.  It owns its ring QQ[x] of the even coordinates
    (``ring``) and its coordinate functions (``coordinates``), built once,
    when it is made."""

    __slots__ = ("even_names", "odd_names", "names", "n", "m", "n0", "size",
                 "ring", "coordinates")

    def __new__(cls, even_names: tuple[str, ...], odd_names: tuple[str, ...]):
        dim = _DIMENSIONS.get((even_names, odd_names))
        if dim is None:
            names = even_names + odd_names
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate coordinate names in {names}")
            dim, ring = object.__new__(cls), ScalarRing(even_names)
            n, m = len(even_names), len(odd_names)
            coordinates = (*(SuperFunction._of(dim, {(): g}) for g in ring.gens),
                           *(SuperFunction._of(dim, {(a,): ring.one})
                             for a in range(m)))
            for slot, value in zip(cls.__slots__, (even_names, odd_names, names, n,
                                                   m, n - m, n + m, ring, coordinates)):
                object.__setattr__(dim, slot, value)
            _DIMENSIONS[even_names, odd_names] = dim
        return dim

    def __setattr__(self, *_):
        raise AttributeError("Dimension is immutable")

    @staticmethod
    def of(n: int, m: int) -> "Dimension":
        """The default n|m dimension, x1..xn and th1..thm."""
        if n < 0 or m < 0:
            raise ValueError("coordinate counts must be nonnegative")
        return Dimension(tuple(f"x{i + 1}" for i in range(n)),
                         tuple(f"th{j + 1}" for j in range(m)))

    def parity(self, i: int) -> int:
        if not 0 <= i < self.size:
            raise UnknownCoordinate(f"coordinate index {i} out of range for {self}")
        return EVEN if i < self.n else ODD

    def mirror_sign(self, i: int, j: int) -> int:
        """(-1)^{i~j~}: the sign relating the (i, j) and (j, i) entries of a
        graded-symmetric tensor."""
        return (-1) ** (self.parity(i) * self.parity(j))

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownCoordinate(f"no coordinate named {name!r} in {self}") from None

    def __repr__(self):
        return f"Dimension({self.n}|{self.m})"


_DIMENSIONS: dict = {}  # (even_names, odd_names) -> its one Dimension


# ---------------------------------------------------------------------------
# coefficients: QQ[x] and its fractions
# ---------------------------------------------------------------------------


class ScalarRing:
    """QQ[x] in the named even coordinates: its zero, one and generators,
    and constants built by calling it with an int or a Fraction."""

    def __init__(self, names: tuple[str, ...]):
        self.names = names
        self.zero_monom = (0,) * len(names)
        self.zero = Poly(self, {}, 1)
        self.one = self(1)
        self.gens = tuple(
            Poly(self, {tuple(int(j == i) for j in range(len(names))): 1}, 1)
            for i in range(len(names)))

    def __call__(self, value) -> "Poly":
        """The constant value (an int, a Fraction or anything else with
        coprime ``numerator`` and positive ``denominator``)."""
        p, q = value.numerator, value.denominator
        return Poly(self, {self.zero_monom: p}, q) if p else self.zero


def scalar_ring(dim: Dimension):
    """The polynomial ring QQ[x] in the even coordinates of dim, and its
    generators; fractions of its elements are formed with ``/``."""
    return dim.ring, dim.ring.gens


class _Scalar:
    """Operators shared by the two coefficient kinds; ints and Fractions
    are promoted to constants of the ring."""

    __slots__ = ()

    def _lift(self, other):
        return other if isinstance(other, _Scalar) else self.ring(other)

    def __add__(self, other):
        return _add(self, self._lift(other))

    def __sub__(self, other):
        return _add(self, -self._lift(other))

    def __mul__(self, other):
        return _mul(self, self._lift(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if not other:
            raise NotInvertible("division by zero")
        return _mul(self, reciprocal(other))

    def __pow__(self, k: int):
        """self^k; a negative k is the reciprocal's power."""
        if k < 0:
            if not self:
                raise NotInvertible("zero to a negative power")
            return reciprocal(self) ** -k
        out = self.ring.one
        for _ in range(k):
            out = _mul(out, self)
        return out


class Poly(_Scalar):
    """An element of QQ[x]: integer numerators ``num`` (exponent tuple ->
    nonzero int) over one positive common denominator ``den``, with
    gcd(den, numerators) = 1, so the pair is unique.  Treat as immutable."""

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring: ScalarRing, num: dict, den: int):
        self.ring = ring
        self.num = num
        self.den = den

    def __bool__(self):
        return bool(self.num)

    def __len__(self):
        return len(self.num)

    def __eq__(self, other):
        if type(other) is Poly:
            return self.den == other.den and self.num == other.num
        if isinstance(other, int):
            return self.den == 1 and self.num == (
                {self.ring.zero_monom: other} if other else {})
        return False

    def __hash__(self):
        return hash((frozenset(self.num.items()), self.den))

    def __neg__(self):
        return Poly(self.ring, {m: -c for m, c in self.num.items()}, self.den)

    @property
    def is_ground(self) -> bool:
        """True for a constant (zero included)."""
        num = self.num
        return not num or (len(num) == 1 and self.ring.zero_monom in num)

    def terms(self):
        """(exponent tuple, rational coefficient) pairs, leading term first
        (lex order); coefficients are ints when den = 1, else Fractions."""
        den = self.den
        return [(m, c if den == 1 else Fraction(c, den))
                for m, c in sorted(self.num.items(), reverse=True)]

    def diff(self, i: int) -> "Poly":
        """Derivative by the i-th even coordinate."""
        if self.is_ground:
            return self.ring.zero
        num = {}
        for m, c in self.num.items():
            e = m[i]
            if e:
                num[m[:i] + (e - 1,) + m[i + 1:]] = c * e
        return _poly(self.ring, num, self.den)

    def __repr__(self):
        from .expressions import format_scalar

        return format_scalar(self, self.ring.names)


class Frac(_Scalar):
    """A true fraction numer/denom of integer polynomials with no common
    factor and no common integer content, denom not constant and with a
    positive leading coefficient in lex order (sympy's reduced form).
    Built only by :func:`_reduced`."""

    __slots__ = ("numer", "denom")

    def __init__(self, numer: Poly, denom: Poly):
        self.numer = numer
        self.denom = denom

    @property
    def ring(self) -> ScalarRing:
        return self.numer.ring

    def __eq__(self, other):
        return (type(other) is Frac and self.numer == other.numer
                and self.denom == other.denom)

    def __hash__(self):
        return hash((self.numer, self.denom))

    def __neg__(self):
        return Frac(-self.numer, self.denom)

    def __repr__(self):
        from .expressions import format_scalar

        return format_scalar(self, self.ring.names)


def _poly(ring, num: dict, den: int) -> Poly:
    """num/den with the common integer factor of den and num cancelled."""
    if den != 1:
        g = math.gcd(den, *num.values())
        if g != 1:
            num = {m: c // g for m, c in num.items()}
            den //= g
    return Poly(ring, num, den)


def _padd(a: Poly, b: Poly) -> Poly:
    if not a.num:
        return b
    if not b.num:
        return a
    if a.den == b.den:
        num, den, scale_b = dict(a.num), a.den, 1
    else:
        g = math.gcd(a.den, b.den)
        scale_a, scale_b = b.den // g, a.den // g
        num, den = {m: c * scale_a for m, c in a.num.items()}, a.den * scale_a
    for m, c in b.num.items():
        c = c * scale_b + num.get(m, 0)
        if c:
            num[m] = c
        else:
            del num[m]
    return _poly(a.ring, num, den)


def _pmul(a: Poly, b: Poly) -> Poly:
    if len(a.num) < len(b.num):
        a, b = b, a
    if not b.num:
        return b
    if len(b.num) == 1:
        (mb, cb), = b.num.items()
        if any(mb):
            num = {tuple(map(_add_int, m, mb)): c * cb for m, c in a.num.items()}
        elif cb == 1 and b.den == 1:
            return a
        elif len(a.num) == 1 and mb in a.num:  # two constants: one product, one gcd
            p, q = a.num[mb] * cb, a.den * b.den
            g = math.gcd(p, q)
            return Poly(a.ring, {mb: p // g}, q // g)
        else:
            num = {m: c * cb for m, c in a.num.items()}
    else:
        num = _zmul(a.num, b.num)
    return _poly(a.ring, num, a.den * b.den)


def _zmul(f: dict, g: dict) -> dict:
    """The product of two integer numerator dicts."""
    num: dict = {}
    get = num.get
    for ma, ca in f.items():
        for mb, cb in g.items():
            m = tuple(map(_add_int, ma, mb))
            num[m] = get(m, 0) + ca * cb
    if 0 in num.values():
        num = {m: c for m, c in num.items() if c}
    return num


def _ground(a: Poly) -> tuple[int, int]:
    """(p, q) with a = p/q for a nonzero constant a."""
    return a.num[a.ring.zero_monom], a.den


def _scaled(a, p: int, q: int):
    """a * p/q for a canonical coefficient a and a nonzero rational p/q in
    lowest terms (q > 0); a reduced fraction times p/q needs no gcd."""
    if type(a) is Poly:
        return _poly(a.ring, {m: c * p for m, c in a.num.items()}, a.den * q)
    return _reduced(_scaled(a.numer, p, q), a.denom)


def _reduced(num: Poly, den: Poly) -> Frac:
    """num/den in reduced form, for polynomials num, den with no common
    factor and den not constant.

    The form has integer coefficients without common integer content and a
    positive leading denominator coefficient: with num = N/dn and
    den = D/dd, it is (N dd/g) / (D dn/g) for g = gcd of those coefficients,
    negated when D's leading coefficient is negative.
    """
    N, D = num.num, den.num
    up, down = den.den, num.den
    g = math.gcd(up * math.gcd(*N.values()), down * math.gcd(*D.values()))
    if D[max(D)] < 0:
        g = -g
    ring = num.ring
    return Frac(Poly(ring, {m: c * up // g for m, c in N.items()}, 1),
                Poly(ring, {m: c * down // g for m, c in D.items()}, 1))


def _quotient(num: Poly, den: Poly):
    """num/den as a canonical coefficient, for polynomials with no common
    factor (den nonzero)."""
    if not num:
        return num
    if den.is_ground:
        p, q = _ground(den)
        return _scaled(num, q * (1 if p > 0 else -1), abs(p))
    return _reduced(num, den)


def _gcd(f: Poly, g: Poly) -> tuple[Poly, Poly, Poly]:
    """(h, f/h, g/h) for nonzero polynomials f, g, with h a greatest common
    divisor up to a rational factor.

    Only products and sums of two fractions, derivatives of fractions and a
    fraction times a polynomial call it.  h is :func:`_zgcd` of the integer
    numerators, and the cofactors come from exact division, keeping f's and
    g's denominators; a constant operand gives h = 1 at once.
    """
    ring = f.ring
    if f.is_ground or g.is_ground:
        return ring.one, f, g
    h = _zgcd(f.num, g.num)
    if h == ring.one.num:
        return ring.one, f, g
    return (Poly(ring, h, 1), Poly(ring, _zdiv(f.num, h), f.den),
            Poly(ring, _zdiv(g.num, h), g.den))


# Exact gcd over ZZ[x] by a recursive primitive PRS.  Integer polynomials
# are sparse dicts from full-length exponent tuples to nonzero ints; a
# coefficient "in ZZ[other variables]" is such a dict with exponent 0 in
# the main variable.


def _zgcd(f: dict, g: dict) -> dict:
    """A gcd of nonzero integer polynomials f, g without integer content
    (its sign is arbitrary); a constant gcd is returned as 1."""
    if len(f) == 1 or len(g) == 1:  # a monomial: prod x_v^(least exponent)
        return {tuple(map(min, *f, *g)): 1}
    df = [max(e) for e in zip(*f)]
    dg = [max(e) for e in zip(*g)]
    zero = (0,) * len(df)
    one = {zero: 1}
    for v, (a, b) in enumerate(zip(df, dg)):
        if bool(a) != bool(b):
            # x_v occurs in f alone (after a swap): gcd(f, g) is the gcd of
            # g and f's coefficients in x_v
            if b:
                f, g = g, f
            for c in sorted(_coeffs(f, v), key=len):
                g = _zgcd(g, c)
                if one == g:
                    break
            return g
    shared = [v for v, a in enumerate(df) if a]
    if len(shared) == 1:
        v, = shared
        return _sparse(_ugcd(_dense(f, v), _dense(g, v)), zero, v)
    # primitive PRS in the variable of least degree, coefficients in
    # ZZ[other variables]
    v = min(shared, key=lambda i: max(df[i], dg[i]))
    cf, f = _primitive(f, v, one)
    cg, g = _primitive(g, v, one)
    c = one if one in (cf, cg) else _zgcd(cf, cg)
    if df[v] < dg[v]:
        f, g = g, f
    while True:
        r = _zprem(f, g, v)
        if not r:
            return _zmul(c, g)
        if not any(m[v] for m in r):
            return c
        f, g = g, _primitive(r, v, one)[1]


def _coeffs(f: dict, v: int) -> list:
    """f's coefficients as a polynomial in x_v, each free of x_v."""
    out: dict = {}
    for m, c in f.items():
        out.setdefault(m[v], {})[m[:v] + (0,) + m[v + 1:]] = c
    return list(out.values())


def _primitive(f: dict, v: int, one: dict) -> tuple[dict, dict]:
    """(content, primitive part) of f as a polynomial in x_v: the content
    is the gcd of its coefficients, and the primitive part f/content has
    its integer content removed as well."""
    coeffs = sorted(_coeffs(f, v), key=len)
    h = coeffs[0]
    for c in coeffs[1:]:
        h = _zgcd(h, c)
        if one == h:
            break
    else:
        h = _zprim(h)
    return h, _zprim(f if one == h else _zdiv(f, h))


def _zprim(f: dict) -> dict:
    """f with its integer content removed."""
    k = math.gcd(*f.values())
    return f if k == 1 else {m: c // k for m, c in f.items()}


def _zprem(f: dict, g: dict, v: int) -> dict:
    """The pseudo-remainder of f by g as polynomials in x_v, up to a
    nonzero factor from ZZ[other variables]: while deg f >= deg g, replace
    f by lc(g) f - lc(f) x_v^(deg f - deg g) g, whose top terms cancel."""
    dg = max(m[v] for m in g)
    lead = {m[:v] + (0,) + m[v + 1:]: c for m, c in g.items() if m[v] == dg}
    tail = {m: c for m, c in g.items() if m[v] < dg}
    while f:
        d = max(m[v] for m in f)
        if d < dg:
            break
        top = {m[:v] + (d - dg,) + m[v + 1:]: -c for m, c in f.items()
               if m[v] == d}
        out = _zmul(lead, {m: c for m, c in f.items() if m[v] < d})
        for m, c in _zmul(top, tail).items():
            c += out.get(m, 0)
            if c:
                out[m] = c
            else:
                del out[m]
        f = out
    return f


def _zdiv(f: dict, g: dict) -> dict:
    """f/g for integer polynomials where g divides f exactly: take the
    quotient's terms one by one from the leading (lex) term of what is
    left of f."""
    mg = max(g)
    cg = g[mg]
    tail = [(m, c) for m, c in g.items() if m != mg]
    rest, out = dict(f), {}
    while rest:
        m = max(rest)
        q = rest.pop(m) // cg
        m = tuple(a - b for a, b in zip(m, mg))
        out[m] = q
        for mt, ct in tail:
            mt = tuple(map(_add_int, m, mt))
            c = rest.get(mt, 0) - q * ct
            if c:
                rest[mt] = c
            else:
                del rest[mt]
    return out


# one variable: dense coefficient lists, leading coefficient first


def _dense(f: dict, v: int) -> list:
    out = [0] * (max(m[v] for m in f) + 1)
    for m, c in f.items():
        out[-1 - m[v]] = c
    return out


def _sparse(a: list, zero: tuple, v: int) -> dict:
    top = len(a) - 1
    return {zero[:v] + (top - i,) + zero[v + 1:]: c
            for i, c in enumerate(a) if c}


def _ugcd(a: list, b: list) -> list:
    """The primitive PRS gcd of two nonzero integer coefficient lists."""
    a, b = _uprim(a), _uprim(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _uprem(a, b)
        if not r:
            return b
        a, b = b, _uprim(r)
    return [1]


def _uprim(a: list) -> list:
    k = math.gcd(*a)
    return a if k == 1 else [c // k for c in a]


def _uprem(a: list, b: list) -> list:
    """A nonzero integer multiple of the remainder of a by b (empty for
    zero)."""
    n, lb = len(b), b[0]
    while len(a) >= n:
        k = math.gcd(a[0], lb)
        p, q = lb // k, a[0] // k
        a = [p * x - q * y for x, y in zip(a[1:n], b[1:])] + [p * x for x in a[n:]]
        i = 0
        while i < len(a) and not a[i]:
            i += 1
        a = a[i:]
    return a


# Coefficient arithmetic on canonical coefficients.  A polynomial gcd runs
# only where the operands can share a factor.


def _add(a, b):
    """a + b; a reduced fraction plus a polynomial p needs no gcd, since
    gcd(num + den p, den) = gcd(num, den) = 1."""
    if type(a) is Poly:
        if type(b) is Poly:
            return _padd(a, b)
        a, b = b, a
    elif type(b) is not Poly:
        return _frac_add(a, b)
    return _reduced(_padd(a.numer, _pmul(a.denom, b)), a.denom) if b else a


def _frac_add(f: Frac, g: Frac):
    """a/b + c/d: with k = gcd(b, d), b = k b1 and d = k d1, the sum is
    (a d1 + c b1) / (k b1 d1), whose numerator can share a factor with k
    only."""
    a, b, c, d = f.numer, f.denom, g.numer, g.denom
    if b == d:
        k, b1, d1 = b, b.ring.one, b.ring.one
    else:
        k, b1, d1 = _gcd(b, d)
    num = _padd(_pmul(a, d1), _pmul(c, b1))
    if not num:
        return num
    if not (k.is_ground or num.is_ground):
        _, num, k = _gcd(num, k)
    return _quotient(num, _pmul(_pmul(k, b1), d1))


def _mul(a, b):
    """a * b; for a fraction num/den times a polynomial P only g = gcd(P, den)
    is needed: the product is (num (P/g)) / (den/g)."""
    if type(a) is Poly:
        if type(b) is Poly:
            return _pmul(a, b)
        a, b = b, a
    elif type(b) is not Poly:
        return _frac_mul(a, b)
    if b.is_ground:
        return _scaled(a, *_ground(b)) if b else b
    _, b, den = _gcd(b, a.denom)
    return _quotient(_pmul(a.numer, b), den)


def _frac_mul(f: Frac, g: Frac):
    """(a/b)(c/d) = ((a/gcd(a, d)) (c/gcd(c, b))) / ((b/gcd(c, b)) (d/gcd(a, d)))."""
    a, b, c, d = f.numer, f.denom, g.numer, g.denom
    if not a.is_ground:
        _, a, d = _gcd(a, d)
    if not c.is_ground:
        _, c, b = _gcd(c, b)
    return _quotient(_pmul(a, c), _pmul(b, d))


def _diff(a, i: int):
    """Derivative of a canonical coefficient by the i-th even coordinate.

    For a fraction a/b let g = gcd(b, b'); the derivative is
    (a' (b/g) - a (b'/g)) / (b (b/g)).  A factor of b that involves x_i
    divides g one time less than b, so it cannot divide that numerator;
    a factor that does not involve x_i divides b and g equally, so the
    numerator's gcd with g is all that is left to cancel.
    """
    if type(a) is Poly:
        return a.diff(i)
    num, den = a.numer, a.denom
    dnum, dden = num.diff(i), den.diff(i)
    if not dden:
        if dnum.is_ground:
            return _quotient(dnum, den) if dnum else dnum
        _, dnum, den = _gcd(dnum, den)
        return _quotient(dnum, den)
    g, den_g, dden_g = _gcd(den, dden)
    top = _padd(_pmul(dnum, den_g), -_pmul(num, dden_g))
    if g.is_ground:
        return _quotient(top, _pmul(den, den_g))
    _, top, g = _gcd(top, g)
    return _quotient(top, _pmul(_pmul(g, den_g), den_g))


def reciprocal(coeff):
    """1/coeff for a nonzero canonical coefficient: numerator and
    denominator swap places, no gcd."""
    if type(coeff) is Poly:
        return _quotient(coeff.ring.one, coeff)
    return _quotient(coeff.denom, coeff.numer)


def numer_denom(coeff):
    """(numerator, denominator) of a canonical coefficient as integer
    polynomials: a fraction's reduced pair, or a polynomial's numerators
    over its common denominator, so x/2 gives (x, 2)."""
    if type(coeff) is Poly:
        ring = coeff.ring
        return Poly(ring, coeff.num, 1), ring(coeff.den)
    return coeff.numer, coeff.denom


def _canonical(coeff, ring: ScalarRing):
    """A canonical coefficient: coefficients pass through, ints and
    Fractions become constants of ring."""
    return coeff if type(coeff) is Poly or type(coeff) is Frac else ring(coeff)


_new, _set = object.__new__, object.__setattr__


def _merge_sign(left: tuple[int, ...], right: tuple[int, ...]):
    """Merge two sorted odd-index tuples; return (key, sign) or None if a
    generator repeats (nilpotency)."""
    if not left:
        return right, 1
    if not right:
        return left, 1
    if set(left) & set(right):
        return None
    inversions = 0
    for a in left:
        for b in right:
            if a > b:
                inversions += 1
    merged = tuple(sorted(left + right))
    return merged, (-1) ** inversions


class SuperFunction:
    """Canonical supercommutative expression over a fixed Dimension.

    Each element keeps its first derivatives once taken (`partial`), so a
    derivative of the same element is computed only once."""

    __slots__ = ("dim", "terms", "_derivs")

    def __init__(self, dim: Dimension, terms: Mapping[tuple[int, ...], object]):
        ring = dim.ring
        clean = {}
        for key, coeff in terms.items():
            coeff = _canonical(coeff, ring)
            if coeff:
                clean[tuple(key)] = coeff
        _set(self, "dim", dim)
        _set(self, "terms", clean)
        _set(self, "_derivs", None)

    @staticmethod
    def _of(dim: Dimension, terms: dict) -> "SuperFunction":
        """Trusted: tuple keys to canonical nonzero coefficients, unchecked."""
        out = _new(SuperFunction)
        _set(out, "dim", dim)
        _set(out, "terms", terms)
        _set(out, "_derivs", None)
        return out

    def __setattr__(self, *_):
        raise AttributeError("SuperFunction is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(dim: Dimension) -> "SuperFunction":
        return SuperFunction._of(dim, {})

    @staticmethod
    def one(dim: Dimension) -> "SuperFunction":
        return SuperFunction._of(dim, {(): dim.ring.one})

    @staticmethod
    def constant(dim: Dimension, value) -> "SuperFunction":
        return SuperFunction(dim, {(): dim.ring(value)})

    @staticmethod
    def coordinate(dim: Dimension, i: int) -> "SuperFunction":
        """The i-th coordinate function, one shared object per dimension."""
        if not 0 <= i < dim.size:
            raise UnknownCoordinate(f"coordinate index {i} out of range for {dim}")
        return dim.coordinates[i]

    # -- structure ----------------------------------------------------

    def _check_dim(self, other: "SuperFunction"):
        if self.dim is not other.dim:
            raise DimensionMismatch(f"{self.dim} vs {other.dim}")

    def is_zero(self) -> bool:
        return not self.terms

    def body(self):
        """Coefficient at the empty odd monomial (odd generators set to 0)."""
        return self.terms.get((), self.dim.ring.zero)

    def parity(self) -> int:
        """The common parity, 0 or 1, of the terms (0 for zero); raises
        NonHomogeneous when two terms disagree."""
        sizes = {len(k) % 2 for k in self.terms}
        if len(sizes) > 1:
            raise NonHomogeneous(f"mixed parity in {self}")
        return sizes.pop() if sizes else EVEN

    def has_parity(self, p) -> bool:
        """True if homogeneous of parity p (zero matches any parity)."""
        return {len(k) % 2 for k in self.terms} <= {p % 2}

    def parity_split(self) -> tuple["SuperFunction", "SuperFunction"]:
        ev = {k: c for k, c in self.terms.items() if len(k) % 2 == 0}
        od = {k: c for k, c in self.terms.items() if len(k) % 2 == 1}
        return SuperFunction._of(self.dim, ev), SuperFunction._of(self.dim, od)

    def is_even_scalar(self) -> bool:
        """True if no odd generator occurs (a bare rational function)."""
        return set(self.terms) <= {()}

    # -- ring operations ----------------------------------------------

    @staticmethod
    def sum(dim: Dimension, functions) -> "SuperFunction":
        """The sum of functions over dim in one pass (see the module
        docstring); DimensionMismatch for a summand over another dim."""
        sole = out = None
        for f in functions:
            if f.dim is not dim:
                raise DimensionMismatch(f"{dim} vs {f.dim}")
            if not f.terms:
                continue
            if sole is None:
                sole = f
                continue
            if out is None:
                out = dict(sole.terms)
            for key, coeff in f.terms.items():
                out[key] = _add(out[key], coeff) if key in out else coeff
        if out is None:
            return SuperFunction._of(dim, {}) if sole is None else sole
        if not all(out.values()):
            out = {k: c for k, c in out.items() if c}
        return SuperFunction._of(dim, out)

    def __add__(self, other: "SuperFunction") -> "SuperFunction":
        self._check_dim(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        return SuperFunction.sum(self.dim, (self, other))

    def __neg__(self) -> "SuperFunction":
        return SuperFunction._of(self.dim, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "SuperFunction") -> "SuperFunction":
        self._check_dim(other)
        if not other.terms:
            return self
        return SuperFunction.sum(self.dim, (self, -other))

    def __mul__(self, other: "SuperFunction") -> "SuperFunction":
        self._check_dim(other)
        left, right = self.terms, other.terms
        if not left:
            return self
        if not right:
            return other
        # an even scalar multiplies each coefficient; QQ(x) has no zero
        # divisors, so no product vanishes
        if len(right) == 1 and () in right:
            c = right[()]
            return SuperFunction._of(self.dim, {k: _mul(a, c) for k, a in left.items()})
        if len(left) == 1 and () in left:
            c = left[()]
            return SuperFunction._of(self.dim, {k: _mul(c, b) for k, b in right.items()})
        out: dict[tuple[int, ...], object] = {}
        for k1, c1 in left.items():
            for k2, c2 in right.items():
                merged = _merge_sign(k1, k2)
                if merged is None:
                    continue
                key, sign = merged
                prod = _mul(c1, c2)
                if sign < 0:
                    prod = -prod
                out[key] = _add(out[key], prod) if key in out else prod
        if not all(out.values()):
            out = {k: c for k, c in out.items() if c}
        return SuperFunction._of(self.dim, out)

    def scale(self, value) -> "SuperFunction":
        """Multiply by a rational scalar (an int or a Fraction); a sign is
        the element itself or its negation."""
        p, q = value.numerator, value.denominator
        if q == 1 and p in (1, -1):
            return self if p == 1 else -self
        if not p:
            return SuperFunction.zero(self.dim)
        return SuperFunction._of(self.dim, {
            k: _scaled(c, p, q) for k, c in self.terms.items()})

    def __pow__(self, k: int) -> "SuperFunction":
        if k < 0:
            return self.invert() ** (-k)
        out = SuperFunction.one(self.dim)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def invert(self) -> "SuperFunction":
        """Inverse of an even element with nonzero body.

        1/(b + s) = (1/b) sum_k (-s/b)^k, a finite sum since the soul s is
        nilpotent.
        """
        if not self.has_parity(EVEN):
            raise NonHomogeneous("only even elements can be inverted")
        b = self.body()
        if not b:
            raise NotInvertible("zero body")
        dim, binv = self.dim, reciprocal(b)
        step = SuperFunction._of(dim, {k: -c for k, c in self.terms.items() if k})
        acc = term = SuperFunction._of(dim, {(): binv})
        for _ in range(dim.m // 2 + 1):
            term = term * step
            if term.is_zero():
                break
            term = SuperFunction._of(dim, {k: _mul(c, binv) for k, c in term.terms.items()})
            acc = acc + term
        return acc

    def __truediv__(self, other: "SuperFunction") -> "SuperFunction":
        return self * other.invert()

    # -- calculus -----------------------------------------------------

    def partial(self, i: int) -> "SuperFunction":
        """Left partial derivative with respect to coordinate i, kept on
        this element after its first use."""
        derivs = self._derivs
        if derivs is not None and i in derivs:
            return derivs[i]
        dim = self.dim
        if not 0 <= i < dim.size:
            raise UnknownCoordinate(f"coordinate index {i} out of range for {dim}")
        if not self.terms:
            return self
        if derivs is None:
            derivs = {}
            _set(self, "_derivs", derivs)
        if i < dim.n:
            out = {k: d for k, c in self.terms.items() if (d := _diff(c, i))}
        else:
            slot, out = i - dim.n, {}
            for key, coeff in self.terms.items():
                if slot not in key:
                    continue
                pos = key.index(slot)
                out[key[:pos] + key[pos + 1:]] = -coeff if pos % 2 else coeff
        derivs[i] = d = SuperFunction._of(dim, out)
        return d

    # -- substitution ---------------------------------------------------

    def substitute(self, values: Sequence["SuperFunction"]) -> "SuperFunction":
        """Evaluate at coordinate values; see `Substitution`."""
        return Substitution(self.dim, values)(self)

    def migrate(self, new_dim: Dimension) -> "SuperFunction":
        """Reinterpret over a dimension matching coordinates by name.

        A renaming, not a substitution: each even exponent and each odd
        slot moves to the target position of its name.  Odd slots that
        change order take the Koszul sign of their sort, and a fraction is
        negated when the new variable order makes its denominator's lex
        leading coefficient negative (`_reduced` puts it in normal form).
        Coordinates absent from the target must not occur in the expression
        (canonical coefficients make non-occurrence structural), else
        UnknownCoordinate; a shared name of the other parity is refused
        with NonHomogeneous, whether it occurs or not.
        """
        dim = self.dim
        where = {name: j for j, name in enumerate(new_dim.names)}
        for idx, name in enumerate(dim.names):
            if name not in where and not self.partial(idx).is_zero():
                raise UnknownCoordinate(
                    f"expression depends on {name!r}, absent from {new_dim}")
        for idx, name in enumerate(dim.names):
            if name in where and new_dim.parity(where[name]) != dim.parity(idx):
                raise NonHomogeneous(
                    f"value for coordinate {name} has wrong parity")
        # the source exponent read at each target even position, -1 (the
        # appended 0) where the target coordinate is new
        source = [-1] * new_dim.n
        for i, name in enumerate(dim.even_names):
            if name in where:
                source[where[name]] = i
        slots = {a: where[name] - new_dim.n
                 for a, name in enumerate(dim.odd_names) if name in where}
        ring = new_dim.ring

        def rename(p: Poly) -> Poly:
            return Poly(ring, {tuple(map((m + (0,)).__getitem__, source)): c
                               for m, c in p.num.items()}, p.den)

        terms = {}
        for key, coeff in self.terms.items():
            coeff = (rename(coeff) if type(coeff) is Poly
                     else _reduced(rename(coeff.numer), rename(coeff.denom)))
            key = [slots[a] for a in key]
            inversions = sum(x > y for p, x in enumerate(key) for y in key[p + 1:])
            terms[tuple(sorted(key))] = -coeff if inversions % 2 else coeff
        return SuperFunction._of(new_dim, terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SuperFunction)
            and self.dim is other.dim
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def __repr__(self):
        from .expressions import format_super

        return f"<{format_super(self)}>"


def keyed_sums(pairs) -> dict:
    """{key: the sum of its functions} over (key, SuperFunction) pairs, keys
    in first-seen order, nonzero sums only; zero summands are skipped, and
    only a key with several summands calls `SuperFunction.sum`."""
    first: dict = {}
    more: dict = {}  # the summands of each key that has several
    for key, f in pairs:
        if not f.terms:
            continue
        if key not in first:
            first[key] = f
        elif key in more:
            more[key].append(f)
        else:
            more[key] = [first[key], f]
    for key, functions in more.items():
        first[key] = SuperFunction.sum(functions[0].dim, functions)
        if not first[key].terms:
            del first[key]
    return first


class Substitution:
    """Evaluation of functions over ``dim`` at values, one SuperFunction per
    coordinate, planned once for many functions: the values are validated
    here, and the monomials of the even values are kept across calls.

    Each even value is written once as A_i/b_i, A_i polynomial and b_i the
    lcm of its fraction denominators, kept only where there is one.  A
    polynomial P of degrees D_i in the values that keep a b_i gives
    (sum_m (c_m/den) prod A_i^m_i b_i^(D_i - m_i)) / prod b_i^D_i, one
    division per coefficient, skipped when the divisor is 1.  For P/Q the
    b-powers cancel; Q(values), evaluated once per plan and needing
    invertible body, is inverted unless it is an even scalar, which leaves
    one division.  The odd values of a term's odd monomial multiply that
    numerator before the division, so each output coefficient of a term is
    divided once.
    """

    __slots__ = ("dim", "target", "_even", "_odd", "_monomials", "_denoms",
                 "_powers", "_quotients")

    def __init__(self, dim: Dimension, values: Sequence[SuperFunction]):
        if len(values) != dim.size:
            raise DimensionMismatch(f"need {dim.size} values, got {len(values)}")
        self.dim, self.target, self._monomials = dim, values[0].dim if values else dim, {}
        for i, v in enumerate(values):
            if v.dim is not self.target:
                raise DimensionMismatch("substitution values over mixed dimensions")
            if not v.has_parity(dim.parity(i)):
                raise NonHomogeneous(
                    f"value for coordinate {dim.names[i]} has wrong parity")
        split = [_over_common_denominator(v) for v in values[:dim.n]]
        self._even, self._odd = tuple(a for a, _ in split), tuple(values[dim.n:])
        self._denoms = tuple((i, b) for i, (_, b) in enumerate(split) if b)
        self._powers, self._quotients = {}, {}

    def __call__(self, f: SuperFunction) -> SuperFunction:
        if f.dim is not self.dim:
            raise DimensionMismatch(f"{f.dim} vs {self.dim}")
        pieces = []
        for key, coeff in f.terms.items():
            quotient = None
            if type(coeff) is Poly:
                num, degrees = self._numerator(coeff)
                den = self._power(degrees) if any(degrees) else None
            else:
                num, den, quotient = self._fraction(coeff)
            piece = SuperFunction._of(self.target, num)
            for slot in key:  # on the numerator, before the one division
                piece = piece * self._odd[slot]
            if den is not None:
                piece = self._divide(piece.terms, den)
            pieces.append(piece if quotient is None else piece * quotient)
        return SuperFunction.sum(self.target, pieces)

    def _monomial(self, monom: tuple) -> SuperFunction:
        term = self._monomials.get(monom)
        if term is None:
            term = self._monomials[monom] = math.prod(
                (v ** e for v, e in zip(self._even, monom) if e),
                start=SuperFunction.one(self.target))
        return term

    def _power(self, e: tuple) -> Poly:
        if e not in self._powers:  # prod b_i^e_i over the kept b_i
            self._powers[e] = math.prod(
                (b ** k for (_, b), k in zip(self._denoms, e) if k),
                start=self.target.ring.one)
        return self._powers[e]

    def _numerator(self, poly: Poly) -> tuple[dict, tuple]:
        """(N, D) with poly(values) = N / prod b_i^D_i, D the degrees in the
        values that keep a b_i."""
        denoms, den = self._denoms, poly.den
        degrees = tuple(max(m[i] for m in poly.num) for i, _ in denoms)
        acc: dict = {}
        for monom, c in poly.num.items():
            terms = self._monomial(monom).terms
            if any(degrees) and any(e := tuple(  # times prod b_i^e_i
                    d - monom[i] for (i, _), d in zip(denoms, degrees))):
                terms = {key: _pmul(t, self._power(e)) for key, t in terms.items()}
            for key, t in terms.items():
                t = _scaled(t, c, den) if c != 1 or den != 1 else t
                acc[key] = _padd(acc[key], t) if key in acc else t
        return {k: c for k, c in acc.items() if c}, degrees

    def _divide(self, num: dict, den: Poly) -> SuperFunction:
        inv = reciprocal(den)
        return SuperFunction._of(self.target, {k: _mul(c, inv) for k, c in num.items()})

    def _fraction(self, coeff: Frac) -> tuple:
        """(N, B, R) with coeff(values) = (N / B) R: N of polynomial
        coefficients, B an even polynomial and R = 1/Q(values) where that
        has odd terms, else None."""
        num, degrees = self._numerator(coeff.numer)
        quotient = self._quotients.get(coeff.denom)
        if quotient is None:
            quotient = self._quotients[coeff.denom] = self._denominator(coeff.denom)
        if type(quotient) is SuperFunction:  # 1/Q(values), which has odd terms
            return num, self._power(degrees), quotient
        body, q_degrees = quotient
        up = self._power(tuple(max(q - d, 0) for d, q in zip(degrees, q_degrees)))
        down = self._power(tuple(max(d - q, 0) for d, q in zip(degrees, q_degrees)))
        return {k: _pmul(c, up) for k, c in num.items()}, _pmul(body, down), None

    def _denominator(self, q: Poly):
        """(B, D) with q(values) = B / prod b_i^D_i, B even, or 1/q(values)."""
        num, degrees = self._numerator(q)
        if set(num) == {()}:
            return num[()], degrees
        return self._divide(num, self._power(degrees)).invert()


def _over_common_denominator(v: SuperFunction) -> tuple:
    """(A, b) with v = A/b, A of polynomial coefficients and b the lcm of
    v's fraction denominators, or (v, None) for a polynomial v."""
    b = None
    for c in v.terms.values():
        if type(c) is Frac and b != c.denom:
            b = c.denom if b is None else _pmul(b, _gcd(c.denom, b)[1])
    if b is None:
        return v, None
    return SuperFunction._of(v.dim, {
        k: _pmul(c, b) if type(c) is Poly
        else _pmul(c.numer, Poly(b.ring, _zdiv(b.num, c.denom.num), 1))
        for k, c in v.terms.items()}), b
