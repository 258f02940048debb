"""Exact supercommutative arithmetic with Koszul signs and left derivatives.

A :class:`SuperFunction` over an ``n|m`` dimension is a finite sum

    sum_K  c_K(x) * th_{k1} * ... * th_{kr},   K = (k1 < ... < kr),

where each coefficient ``c_K`` is an exact rational function of the even
coordinates and the odd generators satisfy th_a th_b = -th_b th_a.  A
polynomial coefficient lives in the ring QQ[x] of the even coordinates (a
sympy ``PolyElement``, no gcd work on each operation); only a true fraction,
whose reduced denominator is not a constant, lives in the field QQ(x) as a
reduced ``FracElement``.  The constructor demotes every fraction with a
constant denominator to a polynomial, so normal forms stay canonical:
equality of normal forms is plain equality and ``is_zero`` is exact.
:func:`numer_denom` gives the reduced numerator/denominator pair of either
kind.

A polynomial gcd runs only where a common factor can arise: in the sum or
product of two true fractions and in the derivative of a fraction (sympy's
own field arithmetic), and, as gcd(P, b), in a fraction a/b times a
non-constant polynomial P.  A fraction plus a polynomial, a fraction times a
rational, a reciprocal, and the first coefficient written at a key need no
gcd; their results only have their integer content cancelled (:func:`_reduced`).

Conventions fixed here and relied on everywhere else:

* coordinates are indexed 0..n+m-1, evens first;
* all derivatives are LEFT derivatives: d/dth_a (th_K) moves th_a to the
  front of the monomial, picking up (-1)^(position of a in K);
* parity of a nonzero homogeneous element is the common size mod 2 of its
  odd monomials; the zero element is compatible with every parity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from sympy import QQ
from sympy.polys.fields import FracElement
from sympy.polys.fields import field as _sympy_field
from sympy.polys.rings import PolyElement

from .errors import (
    DimensionMismatch,
    NonHomogeneous,
    NotInvertible,
    UnknownCoordinate,
)

EVEN = 0
ODD = 1


class Parity(int):
    """Element of Z_2; addition is mod 2, product parity is the sum."""

    def __new__(cls, value):
        return super().__new__(cls, int(value) % 2)

    def __add__(self, other):
        return Parity(int(self) + int(other))

    __radd__ = __add__

    def __repr__(self):
        return "odd" if self else "even"


@dataclass(frozen=True)
class Dimension:
    """An n|m coordinate system: named even and odd coordinates."""

    even_names: tuple[str, ...]
    odd_names: tuple[str, ...]

    def __post_init__(self):
        names = self.even_names + self.odd_names
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate coordinate names in {names}")

    @staticmethod
    def of(n: int, m: int) -> "Dimension":
        if n < 0 or m < 0:
            raise ValueError("coordinate counts must be nonnegative")
        return Dimension(
            tuple(f"x{i + 1}" for i in range(n)),
            tuple(f"th{j + 1}" for j in range(m)),
        )

    @property
    def n(self) -> int:
        return len(self.even_names)

    @property
    def m(self) -> int:
        return len(self.odd_names)

    @property
    def n0(self) -> int:
        return self.n - self.m

    @property
    def size(self) -> int:
        return self.n + self.m

    @property
    def names(self) -> tuple[str, ...]:
        return self.even_names + self.odd_names

    def parity(self, i: int) -> int:
        if not 0 <= i < self.size:
            raise UnknownCoordinate(f"coordinate index {i} out of range for {self}")
        return EVEN if i < self.n else ODD

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownCoordinate(f"no coordinate named {name!r} in {self}") from None

    def __repr__(self):
        return f"Dimension({self.n}|{self.m})"


@lru_cache(maxsize=None)
def _field_of(even_names: tuple[str, ...]):
    if even_names:
        fld, *gens = _sympy_field(",".join(even_names), QQ)
    else:
        fld = _sympy_field([], QQ)[0]
        gens = []
    return fld, tuple(gens)


def scalar_field(dim: Dimension):
    """The exact rational-function field in the even coordinates of dim."""
    return _field_of(dim.even_names)


def scalar_ring(dim: Dimension):
    """The polynomial ring QQ[x] in the even coordinates of dim, where
    polynomial coefficients live, and its generators."""
    ring = _field_of(dim.even_names)[0].ring
    return ring, ring.gens


def _canonical(coeff, fld):
    """Canonical coefficient: a PolyElement of fld.ring when the reduced
    denominator is a ground constant, else a reduced FracElement of fld."""
    if isinstance(coeff, PolyElement) and coeff.ring is fld.ring:
        return coeff
    if not (isinstance(coeff, FracElement) and coeff.field == fld):
        coeff = fld(coeff)
    den = coeff.denom
    if not den.is_ground:
        return coeff
    return coeff.numer if den == den.ring.one else coeff.numer.quo_ground(den.LC)


# Coefficient arithmetic on canonical coefficients.  sympy's FracElement
# ends every operation in a full polynomial gcd (``cancel``); the helpers
# below run one only where the operands can share a factor.


def _reduced(fld, num, den):
    """num/den as the FracElement sympy's ``cancel`` would give, for
    polynomials num, den with no common factor and den not constant.

    That form has integer coefficients without common integer content and a
    positive leading denominator coefficient, so scaling both by
    +-lcm(denominators)/gcd(numerators) of all their coefficients reaches it.
    """
    coeffs = (*num.values(), *den.values())
    up = math.lcm(*(c.denominator for c in coeffs))
    down = math.gcd(*(c.numerator for c in coeffs))
    if den.LC < 0:
        down = -down
    if up != down:
        factor = QQ(up, down)
        num, den = num.mul_ground(factor), den.mul_ground(factor)
    return fld.raw_new(num, den)


def _add(a, b):
    """a + b; a reduced fraction plus a polynomial p needs no gcd, since
    gcd(num + den p, den) = gcd(num, den) = 1."""
    if isinstance(a, PolyElement):
        if isinstance(b, PolyElement):
            return a + b
        a, b = b, a
    elif not isinstance(b, PolyElement):
        return _canonical(a + b, a.field)
    return _reduced(a.field, a.numer + a.denom * b, a.denom) if b else a


def _scaled(a, q):
    """a * q for a reduced fraction a and a nonzero rational q."""
    return _reduced(a.field, a.numer.mul_ground(q), a.denom)


def _mul(a, b):
    """a * b; for a fraction num/den times a polynomial P only g = gcd(P, den)
    is needed: the product is (num (P/g)) / (den/g)."""
    if isinstance(a, PolyElement):
        if isinstance(b, PolyElement):
            return a * b
        a, b = b, a
    elif not isinstance(b, PolyElement):
        return _canonical(a * b, a.field)
    if b.is_ground:
        return _scaled(a, b.LC) if b else b
    _, b, den = b.cofactors(a.denom)
    if den.is_ground:
        return (a.numer * b).quo_ground(den.LC)
    return _reduced(a.field, a.numer * b, den)


def reciprocal(coeff, fld):
    """1/coeff for a nonzero canonical coefficient of fld: numerator and
    denominator swap places, no gcd."""
    if isinstance(coeff, PolyElement):
        if coeff.is_ground:
            return coeff.ring.one.quo_ground(coeff.LC)
        return _reduced(fld, fld.ring.one, coeff)
    if coeff.numer.is_ground:
        return coeff.denom.quo_ground(coeff.numer.LC)
    return _reduced(fld, coeff.denom, coeff.numer)


def numer_denom(coeff):
    """(numerator, denominator) of a canonical coefficient, as the reduced
    field element carries them (integer coefficients, positive leading
    denominator coefficient), so x/2 gives (x, 2)."""
    if isinstance(coeff, PolyElement):
        den, num = coeff.clear_denoms()
        return num, coeff.ring(den)
    return coeff.numer, coeff.denom


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
    """Canonical supercommutative expression over a fixed Dimension."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: Dimension, terms: Mapping[tuple[int, ...], object]):
        fld, _ = scalar_field(dim)
        clean = {}
        for key, coeff in terms.items():
            coeff = _canonical(coeff, fld)
            if coeff:
                clean[tuple(key)] = coeff
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):
        raise AttributeError("SuperFunction is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(dim: Dimension) -> "SuperFunction":
        return SuperFunction(dim, {})

    @staticmethod
    def one(dim: Dimension) -> "SuperFunction":
        ring, _ = scalar_ring(dim)
        return SuperFunction(dim, {(): ring.one})

    @staticmethod
    def constant(dim: Dimension, value) -> "SuperFunction":
        if isinstance(value, Fraction):
            value = QQ(value.numerator, value.denominator)
        ring, _ = scalar_ring(dim)
        return SuperFunction(dim, {(): ring(value)})

    @staticmethod
    def coordinate(dim: Dimension, i: int) -> "SuperFunction":
        if not 0 <= i < dim.size:
            raise UnknownCoordinate(f"coordinate index {i} out of range for {dim}")
        ring, gens = scalar_ring(dim)
        if i < dim.n:
            return SuperFunction(dim, {(): gens[i]})
        return SuperFunction(dim, {(i - dim.n,): ring.one})

    # -- structure ----------------------------------------------------

    def _check_dim(self, other: "SuperFunction"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"{self.dim} vs {other.dim}")

    def is_zero(self) -> bool:
        return not self.terms

    def body(self):
        """Coefficient at the empty odd monomial (odd generators set to 0)."""
        ring, _ = scalar_ring(self.dim)
        return self.terms.get((), ring.zero)

    def is_homogeneous(self) -> bool:
        sizes = {len(k) % 2 for k in self.terms}
        return len(sizes) <= 1

    def parity(self) -> Parity:
        sizes = {len(k) % 2 for k in self.terms}
        if len(sizes) > 1:
            raise NonHomogeneous(f"mixed parity in {self}")
        return Parity(sizes.pop()) if sizes else Parity(EVEN)

    def has_parity(self, p) -> bool:
        """True if homogeneous of parity p (zero matches any parity)."""
        return self.is_homogeneous() and (self.is_zero() or self.parity() == Parity(p))

    def parity_split(self) -> tuple["SuperFunction", "SuperFunction"]:
        ev = {k: c for k, c in self.terms.items() if len(k) % 2 == 0}
        od = {k: c for k, c in self.terms.items() if len(k) % 2 == 1}
        return SuperFunction(self.dim, ev), SuperFunction(self.dim, od)

    def is_even_scalar(self) -> bool:
        """True if no odd generator occurs (a bare rational function)."""
        return set(self.terms) <= {()}

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "SuperFunction") -> "SuperFunction":
        self._check_dim(other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = _add(out[key], coeff) if key in out else coeff
        return SuperFunction(self.dim, out)

    def __neg__(self) -> "SuperFunction":
        return SuperFunction(self.dim, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "SuperFunction") -> "SuperFunction":
        return self + (-other)

    def __mul__(self, other: "SuperFunction") -> "SuperFunction":
        self._check_dim(other)
        out: dict[tuple[int, ...], object] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                merged = _merge_sign(k1, k2)
                if merged is None:
                    continue
                key, sign = merged
                prod = _mul(c1, c2)
                if sign < 0:
                    prod = -prod
                out[key] = _add(out[key], prod) if key in out else prod
        return SuperFunction(self.dim, out)

    def scale(self, value) -> "SuperFunction":
        """Multiply by a rational scalar (an int, Fraction or QQ element)."""
        value = QQ(value.numerator, value.denominator)
        if not value:
            return SuperFunction.zero(self.dim)
        return SuperFunction(self.dim, {
            k: c.mul_ground(value) if isinstance(c, PolyElement) else _scaled(c, value)
            for k, c in self.terms.items()})

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
        binv = reciprocal(b, scalar_field(self.dim)[0])
        soul = SuperFunction(self.dim, {k: c for k, c in self.terms.items() if k})
        acc = SuperFunction(self.dim, {(): binv})
        term = SuperFunction(self.dim, {(): binv})
        step = soul.scale(-1)
        for _ in range(self.dim.m // 2 + 1):
            term = term * step
            term = SuperFunction(term.dim, {k: _mul(c, binv) for k, c in term.terms.items()})
            if term.is_zero():
                break
            acc = acc + term
        return acc

    def __truediv__(self, other: "SuperFunction") -> "SuperFunction":
        return self * other.invert()

    # -- calculus -----------------------------------------------------

    def partial(self, i: int) -> "SuperFunction":
        """Left partial derivative with respect to coordinate i."""
        dim = self.dim
        if not 0 <= i < dim.size:
            raise UnknownCoordinate(f"coordinate index {i} out of range for {dim}")
        if i < dim.n:
            gen = scalar_field(dim)[1][i]
            return SuperFunction(dim, {
                k: c.diff(i) if isinstance(c, PolyElement) else c.diff(gen)
                for k, c in self.terms.items()})
        slot = i - dim.n
        out = {}
        for key, coeff in self.terms.items():
            if slot not in key:
                continue
            pos = key.index(slot)
            rest = key[:pos] + key[pos + 1:]
            out[rest] = -coeff if pos % 2 else coeff
        return SuperFunction(dim, out)

    # -- substitution ---------------------------------------------------

    def substitute(self, values: Sequence["SuperFunction"]) -> "SuperFunction":
        """Evaluate at coordinate values (one SuperFunction per coordinate).

        Values must share a common dimension and match coordinate parities.
        Polynomial coefficients are evaluated directly; fractions P/Q as
        P(values)/Q(values), where Q(values) must have invertible body.
        """
        dim = self.dim
        if len(values) != dim.size:
            raise DimensionMismatch(
                f"need {dim.size} values, got {len(values)}")
        tgt = values[0].dim
        for i, v in enumerate(values):
            if v.dim != tgt:
                raise DimensionMismatch("substitution values over mixed dimensions")
            if not v.has_parity(dim.parity(i)):
                raise NonHomogeneous(
                    f"value for coordinate {dim.names[i]} has wrong parity")
        even_vals = values[:dim.n]
        odd_vals = values[dim.n:]
        pow_cache: dict[tuple[int, int], SuperFunction] = {}

        def even_power(i, e):
            key = (i, e)
            if key not in pow_cache:
                pow_cache[key] = even_vals[i] ** e
            return pow_cache[key]

        def eval_poly(poly) -> SuperFunction:
            acc = SuperFunction.zero(tgt)
            for monom, coeff in poly.terms():
                term = SuperFunction.constant(tgt, coeff)
                for i, e in enumerate(monom):
                    if e:
                        term = term * even_power(i, e)
                acc = acc + term
            return acc

        result = SuperFunction.zero(tgt)
        for key, coeff in self.terms.items():
            if isinstance(coeff, PolyElement):
                piece = eval_poly(coeff)
            else:
                piece = eval_poly(coeff.numer) * eval_poly(coeff.denom).invert()
            for slot in key:
                piece = piece * odd_vals[slot]
            result = result + piece
        return result

    def migrate(self, new_dim: Dimension) -> "SuperFunction":
        """Reinterpret over a dimension matching coordinates by name.

        Coordinates absent from the target must not occur in the expression
        (canonical coefficients make non-occurrence structural).
        """
        values = []
        for idx, name in enumerate(self.dim.names):
            if name in new_dim.names:
                values.append(SuperFunction.coordinate(new_dim, new_dim.index(name)))
            else:
                if not self.partial(idx).is_zero():
                    raise UnknownCoordinate(
                        f"expression depends on {name!r}, absent from {new_dim}")
                values.append(SuperFunction.zero(new_dim))
        return self.substitute(values)

    # -- canonical form -------------------------------------------------

    def normal_form(self) -> "SuperFunction":
        """Identity: construction already is the canonical form."""
        return self

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SuperFunction)
            and self.dim == other.dim
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def __repr__(self):
        from .expressions import format_super

        return f"<{format_super(self)}>"


def gmul(a: SuperFunction, b: SuperFunction) -> SuperFunction:
    """Supercommutative product (Koszul sign on odd generators)."""
    return a * b


def partial(i: int, a: SuperFunction) -> SuperFunction:
    """Left partial derivative by coordinate index."""
    return a.partial(i)


def normal_form(a: SuperFunction) -> SuperFunction:
    return a.normal_form()


def is_zero(a: SuperFunction) -> bool:
    return a.is_zero()

