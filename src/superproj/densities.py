"""The algebra of densities, differential operators on it, brackets given by
component triples, canonical generating operators and formal adjoints.

A density element is a finite sum of slices ``f(x, th) |Dx|^w`` with exact
rational weights.  Operators are kept in normal order

    coefficient (a density)  *  d^alpha  *  w^k

with the derivative multi-index written in ascending coordinate order and the
weight operator rightmost.  Since the monomials d^alpha w^k act independently
on the slice family, normal forms are faithful: structural equality of
operators is extensional equality, and it is the verdict every check uses.
`operators_equal` evaluates both operators on a spanning family of test
densities; it is kept as a cross-check for the tests.

Normalization notes (constraints, not derivable from the code):

* `generated_bracket` is the literal four-term combination; applied to the
  second-order operator ``S^{ij} d_j d_i`` it produces the bracket with
  coordinate values ``2 S^{ij}``.  The canonical generating operator of a
  triple therefore carries a global factor 1/2 so that it generates exactly
  the bracket whose coordinate components are the triple entries.
* the adjoint is taken with respect to the pairing of weights summing to 1,
  with the graded convention <D a, b> = (-1)^{D~a~} <a, D+ b>; primitive
  adjoints are (mult f)+ = mult f, (d_i)+ = -d_i, w+ = 1 - w, and products
  reverse with the Koszul sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    DimensionMismatch,
    NonHomogeneous,
    SingularDimension,
    ValidationError,
)
from .geometry import ProjectiveClass, Sym2Cov, Sym2Upper
from .graded_algebra import (
    EVEN,
    ODD,
    Dimension,
    Parity,
    SuperFunction,
    numer_denom,
    reciprocal,
    scalar_ring,
)

# ---------------------------------------------------------------------------
# density elements
# ---------------------------------------------------------------------------


def _as_weight(w) -> Fraction:
    return w if isinstance(w, Fraction) else Fraction(w)


class DensityElement:
    """Finite sum of weight slices: weight -> SuperFunction coefficient."""

    __slots__ = ("dim", "slices")

    def __init__(self, dim: Dimension, slices: Mapping):
        clean = {}
        for w, f in slices.items():
            if f.dim != dim:
                raise DimensionMismatch("slice over wrong dimension")
            if not f.is_zero():
                clean[_as_weight(w)] = f
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "slices", clean)

    def __setattr__(self, *_):
        raise AttributeError("immutable")

    @staticmethod
    def zero(dim: Dimension) -> "DensityElement":
        return DensityElement(dim, {})

    @staticmethod
    def of(f: SuperFunction, weight=0) -> "DensityElement":
        return DensityElement(f.dim, {_as_weight(weight): f})

    @staticmethod
    def volume(dim: Dimension, weight=1) -> "DensityElement":
        return DensityElement(dim, {_as_weight(weight): SuperFunction.one(dim)})

    def slice(self, w) -> SuperFunction:
        return self.slices.get(_as_weight(w), SuperFunction.zero(self.dim))

    def weights(self):
        return sorted(self.slices)

    def is_zero(self) -> bool:
        return not self.slices

    def __add__(self, other: "DensityElement") -> "DensityElement":
        if self.dim != other.dim:
            raise DimensionMismatch("density dimensions differ")
        out = dict(self.slices)
        for w, f in other.slices.items():
            out[w] = out.get(w, SuperFunction.zero(self.dim)) + f
        return DensityElement(self.dim, out)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "DensityElement") -> "DensityElement":
        if self.dim != other.dim:
            raise DimensionMismatch("density dimensions differ")
        out: dict = {}
        for w1, f1 in self.slices.items():
            for w2, f2 in other.slices.items():
                w = w1 + w2
                prod = f1 * f2
                if not prod.is_zero():
                    out[w] = out.get(w, SuperFunction.zero(self.dim)) + prod
        return DensityElement(self.dim, out)

    def scale(self, q) -> "DensityElement":
        return DensityElement(self.dim, {w: f.scale(q) for w, f in self.slices.items()})

    def weight_action(self) -> "DensityElement":
        """w acting on this element: each slice scaled by its weight."""
        return DensityElement(self.dim, {w: f.scale(w) for w, f in self.slices.items()})

    def partial(self, i: int) -> "DensityElement":
        return DensityElement(self.dim, {w: f.partial(i) for w, f in self.slices.items()})

    def is_homogeneous(self) -> bool:
        parities = set()
        for f in self.slices.values():
            if not f.is_homogeneous():
                return False
            parities.add(int(f.parity()))
        return len(parities) <= 1

    def parity(self) -> Parity:
        parities = set()
        for f in self.slices.values():
            if not f.is_homogeneous():
                raise NonHomogeneous("density slice of mixed parity")
            parities.add(int(f.parity()))
        if len(parities) > 1:
            raise NonHomogeneous("density of mixed parity")
        return Parity(parities.pop()) if parities else Parity(EVEN)

    def parity_split(self):
        ev, od = {}, {}
        for w, f in self.slices.items():
            fe, fo = f.parity_split()
            if not fe.is_zero():
                ev[w] = fe
            if not fo.is_zero():
                od[w] = fo
        return DensityElement(self.dim, ev), DensityElement(self.dim, od)

    def __eq__(self, other):
        return (
            isinstance(other, DensityElement)
            and self.dim == other.dim
            and self.slices == other.slices
        )

    def __hash__(self):
        return hash((self.dim, frozenset(self.slices.items())))

    def __repr__(self):
        from .expressions import format_super

        if self.is_zero():
            return "<0>"
        bits = [f"({format_super(f)})|Dx|^{w}" for w, f in sorted(self.slices.items())]
        return "<" + " + ".join(bits) + ">"


# ---------------------------------------------------------------------------
# differential operators on densities
# ---------------------------------------------------------------------------


def _insert_deriv(dim: Dimension, alpha: tuple, i: int):
    """Prepend d_i to the written product d^alpha.  Returns (alpha', sign)
    or None when it annihilates (odd derivative squared)."""
    if dim.parity(i) == ODD and alpha[i]:
        return None
    sign = 1
    if dim.parity(i) == ODD:
        odd_before = sum(alpha[j] for j in range(i) if dim.parity(j) == ODD)
        if odd_before % 2:
            sign = -1
    new = list(alpha)
    new[i] += 1
    return tuple(new), sign


class DensityOperator:
    """Normal-ordered differential operator on the density algebra."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: Dimension, terms: Mapping):
        clean = {}
        for (alpha, wpow), coeff in terms.items():
            if coeff.dim != dim:
                raise DimensionMismatch("operator coefficient over wrong dimension")
            if len(alpha) != dim.size:
                raise ValidationError("derivative multi-index has wrong length")
            if any(alpha[i] > 1 for i in range(dim.size) if dim.parity(i) == ODD):
                raise ValidationError("odd derivative repeated in multi-index")
            if not coeff.is_zero():
                key = (tuple(alpha), int(wpow))
                clean[key] = clean.get(key, DensityElement.zero(dim)) + coeff
        clean = {k: v for k, v in clean.items() if not v.is_zero()}
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):
        raise AttributeError("immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(dim: Dimension) -> "DensityOperator":
        return DensityOperator(dim, {})

    @staticmethod
    def identity(dim: Dimension) -> "DensityOperator":
        key = ((0,) * dim.size, 0)
        return DensityOperator(dim, {key: DensityElement.of(SuperFunction.one(dim))})

    @staticmethod
    def mult(coeff: DensityElement) -> "DensityOperator":
        key = ((0,) * coeff.dim.size, 0)
        return DensityOperator(coeff.dim, {key: coeff})

    @staticmethod
    def deriv(dim: Dimension, i: int) -> "DensityOperator":
        alpha = [0] * dim.size
        alpha[i] = 1
        key = (tuple(alpha), 0)
        return DensityOperator(dim, {key: DensityElement.of(SuperFunction.one(dim))})

    @staticmethod
    def weight(dim: Dimension) -> "DensityOperator":
        key = ((0,) * dim.size, 1)
        return DensityOperator(dim, {key: DensityElement.of(SuperFunction.one(dim))})

    @staticmethod
    def from_written(coeff: DensityElement, deriv_indices: Sequence[int],
                     wpow: int = 0) -> "DensityOperator":
        """coeff * d_{i1} d_{i2} ... * w^k with derivatives in written order."""
        dim = coeff.dim
        alpha = (0,) * dim.size
        sign = 1
        for i in reversed(list(deriv_indices)):
            ins = _insert_deriv(dim, alpha, i)
            if ins is None:
                return DensityOperator.zero(dim)
            alpha, s = ins
            sign *= s
        return DensityOperator(dim, {(alpha, wpow): coeff.scale(sign)})

    # -- linear structure -------------------------------------------------

    def __add__(self, other: "DensityOperator") -> "DensityOperator":
        if self.dim != other.dim:
            raise DimensionMismatch("operator dimensions differ")
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, DensityElement.zero(self.dim)) + coeff
        return DensityOperator(self.dim, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, q) -> "DensityOperator":
        return DensityOperator(
            self.dim, {key: coeff.scale(q) for key, coeff in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, DensityOperator)
            and self.dim == other.dim
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    # -- action -----------------------------------------------------------

    def __call__(self, phi: DensityElement) -> DensityElement:
        if phi.dim != self.dim:
            raise DimensionMismatch("argument over wrong dimension")
        out = DensityElement.zero(self.dim)
        for (alpha, wpow), coeff in self.terms.items():
            for lam, f in phi.slices.items():
                g = f.scale(lam ** wpow) if wpow else f
                for i in reversed(range(self.dim.size)):
                    for _ in range(alpha[i]):
                        g = g.partial(i)
                if g.is_zero():
                    continue
                out = out + coeff * DensityElement(self.dim, {lam: g})
        return out

    # -- serialization ------------------------------------------------

    def serialize(self) -> list:
        """Term list [{weight_shift, coefficient, derivatives, w_power}] with
        the coefficient printed in the expression grammar."""
        from .expressions import format_super

        out = []
        for (alpha, wpow), coeff in sorted(self.terms.items()):
            for w, f in sorted(coeff.slices.items()):
                out.append({
                    "weight_shift": str(w),
                    "coefficient": format_super(f),
                    "derivatives": list(alpha),
                    "w_power": wpow,
                })
        return out

    # -- parity -----------------------------------------------------------

    def term_parities(self):
        parities = set()
        for (alpha, _), coeff in self.terms.items():
            odd_derivs = sum(alpha[i] for i in range(self.dim.size)
                             if self.dim.parity(i) == ODD)
            ev, od = coeff.parity_split()
            if not ev.is_zero():
                parities.add(odd_derivs % 2)
            if not od.is_zero():
                parities.add((odd_derivs + 1) % 2)
        return parities

    def is_homogeneous(self) -> bool:
        return len(self.term_parities()) <= 1

    def parity(self) -> Parity:
        parities = self.term_parities()
        if len(parities) > 1:
            raise NonHomogeneous("operator of mixed parity")
        return Parity(parities.pop()) if parities else Parity(EVEN)

    # -- composition --------------------------------------------------

    def _compose_weight(self) -> "DensityOperator":
        """w o self, normal-ordered."""
        out: dict = {}

        def add(key, coeff):
            out[key] = out.get(key, DensityElement.zero(self.dim)) + coeff

        for (alpha, wpow), coeff in self.terms.items():
            for mu, f in coeff.slices.items():
                piece = DensityElement(self.dim, {mu: f})
                add((alpha, wpow + 1), piece)
                if mu:
                    add((alpha, wpow), piece.scale(mu))
        return DensityOperator(self.dim, out)

    def _compose_deriv(self, i: int) -> "DensityOperator":
        """d_i o self, normal-ordered via the graded Leibniz rule."""
        dim = self.dim
        out: dict = {}

        def add(key, coeff):
            out[key] = out.get(key, DensityElement.zero(dim)) + coeff

        for (alpha, wpow), coeff in self.terms.items():
            add((alpha, wpow), coeff.partial(i))
            ev, od = coeff.parity_split()
            for piece, par in ((ev, EVEN), (od, ODD)):
                if piece.is_zero():
                    continue
                ins = _insert_deriv(dim, alpha, i)
                if ins is None:
                    continue
                alpha2, sign = ins
                if dim.parity(i) == ODD and par == ODD:
                    sign = -sign
                add((alpha2, wpow), piece.scale(sign))
        return DensityOperator(dim, out)

    def compose(self, other: "DensityOperator") -> "DensityOperator":
        """self o other (apply other first)."""
        if self.dim != other.dim:
            raise DimensionMismatch("operator dimensions differ")
        total = DensityOperator.zero(self.dim)
        for (alpha, wpow), coeff in self.terms.items():
            acc = other
            for _ in range(wpow):
                acc = acc._compose_weight()
            for i in reversed(range(self.dim.size)):
                for _ in range(alpha[i]):
                    acc = acc._compose_deriv(i)
            acc = DensityOperator(
                self.dim,
                {key: coeff * c2 for key, c2 in acc.terms.items()})
            total = total + acc
        return total


def compose(d1: DensityOperator, d2: DensityOperator) -> DensityOperator:
    """Composition: apply(compose(d1, d2), phi) = apply(d1, apply(d2, phi))."""
    return d1.compose(d2)


# ---------------------------------------------------------------------------
# test family and extensional equality
# ---------------------------------------------------------------------------


DEFAULT_WEIGHTS = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2),
                   Fraction(-1, 2))


def density_test_family(dim: Dimension, weights: Iterable = DEFAULT_WEIGHTS,
                        max_degree: int = 3) -> list:
    """Spanning family: x-monomials of degree <= max_degree times all odd
    monomials, at each listed weight."""
    ring, gens = scalar_ring(dim)
    monos = [ring.one]
    frontier = [ring.one]
    for _ in range(max_degree):
        frontier = [m * g for m in frontier for g in gens]
        monos.extend(frontier)
    monos = list(dict.fromkeys(monos))
    family = []
    for w in weights:
        for mono in monos:
            for r in range(dim.m + 1):
                for key in combinations(range(dim.m), r):
                    family.append(DensityElement(
                        dim, {_as_weight(w): SuperFunction(dim, {key: mono})}))
    return family


def operators_equal(d1: DensityOperator, d2: DensityOperator) -> bool:
    """Extensional equality on the standard test family.  Normal forms are
    faithful, so this agrees with ``d1 == d2``; tests use it to confirm
    that."""
    return all((d1(phi) - d2(phi)).is_zero()
               for phi in density_test_family(d1.dim))


# ---------------------------------------------------------------------------
# algebraic order
# ---------------------------------------------------------------------------


def op_order(d: DensityOperator) -> int:
    """Algebraic order: smallest k such that all (k+1)-fold nested graded
    commutators with multiplication operators (coordinates and |Dx|)
    vanish.

    Commuting with x^i lowers the exponent of d_i and commuting with |Dx|
    lowers the power of w, so for a normal-ordered operator the order is
    its maximal total degree in (derivatives, w); 0 for the zero operator.
    """
    return max((sum(alpha) + wpow for alpha, wpow in d.terms), default=0)


# ---------------------------------------------------------------------------
# formal adjoint
# ---------------------------------------------------------------------------


def formal_adjoint(d: DensityOperator) -> DensityOperator:
    """Adjoint for the pairing of complementary weights; antihomomorphism
    with the Koszul sign, (mult f)+ = mult f, (d_i)+ = -d_i, w+ = 1 - w."""
    dim = d.dim
    ident = DensityOperator.identity(dim)
    w_adj = ident - DensityOperator.weight(dim)
    total = DensityOperator.zero(dim)
    for (alpha, wpow), coeff in d.terms.items():
        for piece in _split_homogeneous(coeff):
            prims = [("m", piece)]
            for i in range(dim.size):
                prims.extend([("d", i)] * alpha[i])
            prims.extend([("w", None)] * wpow)
            total = total + _adjoint_of_chain(dim, prims, w_adj)
    return total


def _split_homogeneous(coeff: DensityElement):
    ev, od = coeff.parity_split()
    return [p for p in (ev, od) if not p.is_zero()]


def _prim_parity(dim, prim) -> int:
    kind, payload = prim
    if kind == "m":
        return int(payload.parity())
    if kind == "d":
        return dim.parity(payload)
    return EVEN


def _prim_adjoint(dim, prim, w_adj) -> DensityOperator:
    kind, payload = prim
    if kind == "m":
        return DensityOperator.mult(payload)
    if kind == "d":
        return DensityOperator.deriv(dim, payload).scale(-1)
    return w_adj


def _adjoint_of_chain(dim, prims, w_adj) -> DensityOperator:
    if len(prims) == 1:
        return _prim_adjoint(dim, prims[0], w_adj)
    head, rest = prims[0], prims[1:]
    rest_parity = sum(_prim_parity(dim, p) for p in rest) % 2
    sign = -1 if (_prim_parity(dim, head) and rest_parity) else 1
    rest_adj = _adjoint_of_chain(dim, rest, w_adj)
    return rest_adj.compose(_prim_adjoint(dim, head, w_adj)).scale(sign)


# ---------------------------------------------------------------------------
# bracket triples and their biderivations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BracketTriple:
    """Components (S^ij, gamma^i, theta) of a bracket of parity eps and
    weight lam on the density algebra: S^ij = {x^i, x^j} / |Dx|^lam etc."""

    s: Sym2Upper
    gamma: Mapping[int, SuperFunction]
    theta: SuperFunction
    eps: int
    weight: Fraction

    def __post_init__(self):
        dim = self.s.dim
        object.__setattr__(self, "weight", _as_weight(self.weight))
        object.__setattr__(self, "eps", int(self.eps) % 2)
        if self.s.parity != self.eps:
            raise ValidationError("S tensor parity must equal the bracket parity")
        gamma = {i: v for i, v in dict(self.gamma).items() if not v.is_zero()}
        for i, v in gamma.items():
            if v.dim != dim:
                raise DimensionMismatch("gamma component over wrong dimension")
            if not v.has_parity(dim.parity(i) + self.eps):
                raise ValidationError(f"gamma component {i} violates parity")
        object.__setattr__(self, "gamma", gamma)
        if self.theta.dim != dim:
            raise DimensionMismatch("theta over wrong dimension")
        if not self.theta.has_parity(self.eps):
            raise ValidationError("theta violates parity")

    @property
    def dim(self) -> Dimension:
        return self.s.dim

    def gamma_component(self, i: int) -> SuperFunction:
        return self.gamma.get(i, SuperFunction.zero(self.dim))

    @staticmethod
    def zero(dim: Dimension, eps=ODD, weight=0) -> "BracketTriple":
        return BracketTriple(Sym2Upper(dim, {}, eps % 2), {},
                             SuperFunction.zero(dim), eps, weight)


class _BracketEngine:
    """Evaluates the biderivation of a triple by Leibniz recursion.

    Rules (eps = bracket parity, {a,b} has parity a~ + b~ + eps):
      second argument   {a, bc} = {a,b}c + (-1)^{(a~+eps)b~} b {a,c}
      symmetry          {a, b}  = (-1)^{a~b~} {b, a}
      generators        {x^i, x^j} = S^ij |Dx|^lam,
                        {x^i, |Dx|^mu} = mu gamma^i |Dx|^{lam+mu},
                        {|Dx|^mu, |Dx|^nu} = mu nu theta |Dx|^{lam+mu+nu}
      quotients         {a, u/Q} = ({a,u} - (-1)^{(a~+eps)u~}(u/Q){a,Q})/Q.
    """

    def __init__(self, triple: BracketTriple):
        self.t = triple
        self.dim = triple.dim
        self.cache: dict = {}
        self.ring, self.gens = scalar_ring(self.dim)

    # a "term" is (canonical coefficient, odd key, weight); built-in terms
    # use the ring's one and gens so cache keys match stored coefficients

    def bracket(self, a: DensityElement, b: DensityElement) -> DensityElement:
        out = DensityElement.zero(self.dim)
        for ta in self._terms(a):
            for tb in self._terms(b):
                out = out + self._term_bracket(ta, tb)
        return out

    def _terms(self, a: DensityElement):
        out = []
        for w, f in a.slices.items():
            for key, coeff in f.terms.items():
                out.append((coeff, key, w))
        return out

    @staticmethod
    def _term_parity(term) -> int:
        return len(term[1]) % 2

    def _term_density(self, term) -> DensityElement:
        coeff, key, w = term
        return DensityElement(self.dim, {w: SuperFunction(self.dim, {key: coeff})})

    def _term_bracket(self, ta, tb) -> DensityElement:
        key = (ta, tb)
        hit = self.cache.get(key)
        if hit is None:
            hit = self._term_bracket_raw(ta, tb)
            self.cache[key] = hit
        return hit

    def _factors(self, term):
        """Split a non-atomic term into head factor and remainder."""
        coeff, key, w = term
        one = self.ring.one
        if coeff != one:
            return ("coeff", coeff), (one, key, w)
        return ("odd", key[0]), (one, key[1:], w)

    def _term_bracket_raw(self, ta, tb) -> DensityElement:
        dim = self.dim
        if self._is_atomic(tb) is not None:
            return self._atomic_second(ta, tb)
        head, rest = self._factors(tb)
        if head[0] == "coeff":
            return self._coeff_bracket(ta, head[1], rest)
        # odd generator head factor
        slot = head[1]
        left = self._term_bracket(ta, (self.ring.one, (slot,), Fraction(0)))
        val = left * self._term_density(rest)
        sign = (-1) ** ((self._term_parity(ta) + self.t.eps) * 1)
        right = self._term_bracket(ta, rest)
        theta_density = DensityElement.of(SuperFunction(dim, {(slot,): 1}))
        return val + (theta_density * right).scale(sign)

    def _coeff_bracket(self, ta, coeff, rest) -> DensityElement:
        """{ta, (P/Q) * rest} with P/Q an even rational coefficient."""
        dim = self.dim
        num, den = numer_denom(coeff)
        val_num = self._poly_bracket(ta, num)
        if den == 1:
            val_c = val_num
        else:
            val_den = self._poly_bracket(ta, den)
            frac = SuperFunction(dim, {(): coeff})
            # {a, u/Q} = ({a,u} - (u/Q){a,Q}) / Q   (u, Q even)
            correction = DensityElement.of(frac) * val_den
            inv_q = SuperFunction(dim, {(): reciprocal(den)})
            val_c = (val_num - correction) * DensityElement.of(inv_q)
        rest_density = self._term_density(rest)
        out = val_c * rest_density
        rest_bracket = self._term_bracket(ta, rest)
        coeff_fn = DensityElement.of(SuperFunction(dim, {(): coeff}))
        out = out + coeff_fn * rest_bracket
        return out

    def _poly_bracket(self, ta, poly) -> DensityElement:
        """{ta, P} for a polynomial P in the even coordinates."""
        out = DensityElement.zero(self.dim)
        for monom, q in poly.terms():
            acc = self._monom_bracket(ta, tuple(monom))
            out = out + acc.scale(q)
        return out

    def _monom_bracket(self, ta, monom) -> DensityElement:
        """{ta, x^monom} by peeling even coordinate factors (x_i even, so
        the Leibniz signs are trivial)."""
        dim = self.dim
        if sum(monom) == 0:
            return DensityElement.zero(dim)
        gens = self.gens
        i = next(idx for idx, e in enumerate(monom) if e)
        rest = list(monom)
        rest[i] -= 1
        rest_coeff = self.ring.one
        for idx, e in enumerate(rest):
            rest_coeff = rest_coeff * gens[idx] ** e
        rest_term = (rest_coeff, (), Fraction(0))
        coord = (gens[i], (), Fraction(0))
        left = self._term_bracket(ta, coord)
        val = left * self._term_density(rest_term)
        right = self._term_bracket(ta, rest_term)
        head_density = DensityElement.of(SuperFunction(dim, {(): gens[i]}))
        return val + head_density * right

    def _is_atomic(self, term) -> Optional[tuple]:
        """Classify an atomic term: ('even', i) / ('odd', slot) /
        ('vol', mu) / ('const',).  Returns None when not atomic."""
        coeff, key, w = term
        one = self.ring.one
        if key and (len(key) > 1 or coeff != one or w != 0):
            return None
        if key:
            return ("odd", key[0])
        if w != 0:
            if coeff != one:
                return None
            return ("vol", w)
        # pure even scalar: atomic iff a single coordinate
        if coeff in self.gens:
            return ("even", self.gens.index(coeff))
        if coeff == one:
            return ("const",)
        return None

    def _atomic_second(self, ta, tb) -> DensityElement:
        """Second argument is atomic; peel the first (or use the table)."""
        kind_a = self._is_atomic(ta)
        kind_b = self._is_atomic(tb)
        if kind_b is None:
            raise AssertionError("second argument expected atomic")
        if kind_a is not None:
            return self._table(kind_a, kind_b)
        # flip with the symmetry rule and peel the (composite) first argument
        sign = (-1) ** (self._term_parity(ta) * self._term_parity(tb))
        return self._term_bracket(tb, ta).scale(sign)

    def _table(self, ka, kb) -> DensityElement:
        dim = self.dim
        t = self.t
        lam = t.weight

        def coord_index(kind):
            if kind[0] == "even":
                return kind[1]
            if kind[0] == "odd":
                return dim.n + kind[1]
            return None

        if ka[0] == "const" or kb[0] == "const":
            return DensityElement.zero(dim)
        ia, ib = coord_index(ka), coord_index(kb)
        if ia is not None and ib is not None:
            return DensityElement(dim, {lam: t.s.component(ia, ib)})
        if ia is not None and kb[0] == "vol":
            mu = kb[1]
            return DensityElement(
                dim, {lam + mu: t.gamma_component(ia).scale(mu)})
        if ka[0] == "vol" and ib is not None:
            # {|Dx|^mu, x^i} = (-1)^{0 * i~} {x^i, |Dx|^mu}
            mu = ka[1]
            return DensityElement(
                dim, {lam + mu: t.gamma_component(ib).scale(mu)})
        if ka[0] == "vol" and kb[0] == "vol":
            mu, nu = ka[1], kb[1]
            return DensityElement(dim, {lam + mu + nu: t.theta.scale(mu * nu)})
        raise AssertionError(f"unhandled atomic pair {ka}, {kb}")


_ENGINE_CACHE: dict = {}


def _engine_for(triple: BracketTriple) -> _BracketEngine:
    # keyed by identity; the cached entry pins the triple so ids stay valid
    hit = _ENGINE_CACHE.get(id(triple))
    if hit is not None and hit[0] is triple:
        return hit[1]
    if len(_ENGINE_CACHE) > 64:
        _ENGINE_CACHE.clear()
    engine = _BracketEngine(triple)
    _ENGINE_CACHE[id(triple)] = (triple, engine)
    return engine


def bracket_from_triple(triple: BracketTriple, a: DensityElement,
                        b: DensityElement) -> DensityElement:
    """The biderivation of parity eps and weight lam determined by the
    triple's component values; symmetric: {a,b} = (-1)^{a~b~}{b,a}."""
    for arg in (a, b):
        if not arg.is_homogeneous():
            raise NonHomogeneous("bracket arguments must be parity homogeneous")
    return _engine_for(triple).bracket(a, b)


def generated_bracket(delta: DensityOperator, a: DensityElement,
                      b: DensityElement) -> DensityElement:
    """{a,b} = D(ab) - a D(b) (-1)^{a~D~} - D(a) b + a b D(1) (-1)^{(a~+b~)D~}."""
    for arg in (a, b):
        if not arg.is_homogeneous():
            raise NonHomogeneous("bracket arguments must be parity homogeneous")
    dp = int(delta.parity())
    pa, pb = int(a.parity()), int(b.parity())
    one = DensityElement.of(SuperFunction.one(delta.dim))
    out = delta(a * b)
    out = out - (a * delta(b)).scale((-1) ** (pa * dp))
    out = out - delta(a) * b
    out = out + (a * b * delta(one)).scale((-1) ** ((pa + pb) * dp))
    return out


# ---------------------------------------------------------------------------
# divergences and contractions
# ---------------------------------------------------------------------------


def linear_combination(*pairs) -> dict:
    """Sum of q * v over (q, v) pairs of a rational and a vector
    {index: SuperFunction}; zero entries omitted."""
    out: dict = {}
    for q, vec in pairs:
        for i, v in vec.items():
            out[i] = out[i] + v.scale(q) if i in out else v.scale(q)
    return {i: v for i, v in out.items() if not v.is_zero()}


def div_vector(v: Mapping[int, SuperFunction], dim: Dimension,
               eps: int) -> SuperFunction:
    """Signed divergence d_k v^k (-1)^{k~(eps+1)}."""
    acc = SuperFunction.zero(dim)
    for k, v_k in v.items():
        acc = acc + v_k.partial(k).scale((-1) ** (dim.parity(k) * (eps + 1)))
    return acc


def div_upper(s: Sym2Upper) -> dict:
    """Signed divergence i -> d_j S^ji (-1)^{j~(S~+1)}, i.e. `div_vector` of
    each column of S; zero entries omitted."""
    columns: dict = {}
    for (j, i), s_ji in s.comps.items():
        columns.setdefault(i, {})[j] = s_ji
    divs = {i: div_vector(col, s.dim, s.parity) for i, col in columns.items()}
    return {i: v for i, v in divs.items() if not v.is_zero()}


def contract_class(s: Sym2Upper, pi: Sym2Cov) -> dict:
    """i -> S^jk Pi^i_kj; zero entries omitted."""
    out: dict = {}
    for (i, k, j), p in pi.comps.items():
        s_jk = s.comps.get((j, k))
        if s_jk is not None:
            out[i] = out[i] + s_jk * p if i in out else s_jk * p
    return {i: v for i, v in out.items() if not v.is_zero()}


def contract_lower(s: Sym2Upper,
                   lower: Mapping[tuple, SuperFunction]) -> SuperFunction:
    """S^jk L_kj for a lower tensor given as {(k, j): L_kj}."""
    acc = SuperFunction.zero(s.dim)
    for (j, k), s_jk in s.comps.items():
        l_kj = lower.get((k, j))
        if l_kj is not None:
            acc = acc + s_jk * l_kj
    return acc


# ---------------------------------------------------------------------------
# generating operators
# ---------------------------------------------------------------------------


def _generating_operator(triple: BracketTriple, a: Mapping[int, SuperFunction],
                        b: SuperFunction) -> DensityOperator:
    """The second-order operator with first-order data (a, b):

        (1/2) |Dx|^lam ( S^ij d_j d_i + 2 gamma^i w d_i + theta w^2
            + a^i d_i + b w ).
    """
    dim = triple.dim
    pieces = [(s_ij, [j, i], 0) for (i, j), s_ij in triple.s.comps.items()]
    pieces += [(g.scale(2), [i], 1) for i, g in triple.gamma.items()]
    pieces += [(triple.theta, [], 2)]
    pieces += [(a_i, [i], 0) for i, a_i in a.items()]
    pieces += [(b, [], 1)]
    total = DensityOperator.zero(dim)
    for f, derivs, wpow in pieces:
        coeff = DensityElement(dim, {triple.weight: f.scale(Fraction(1, 2))})
        total = total + DensityOperator.from_written(coeff, derivs, wpow)
    return total


def canonical_operator(triple: BracketTriple) -> DensityOperator:
    """The self-adjoint constant-free operator generating the triple's
    bracket: `_generating_operator` with

        a^i = d_j S^ji (-1)^{j~(eps+1)} + (lam-1) gamma^i,
        b   = d_k gamma^k (-1)^{k~(eps+1)} + (lam-1) theta.

    The global 1/2 makes `generated_bracket` of this operator reproduce the
    triple's component values exactly.
    """
    lam1 = triple.weight - 1
    a = linear_combination((1, div_upper(triple.s)), (lam1, triple.gamma))
    b = (div_vector(triple.gamma, triple.dim, triple.eps)
         + triple.theta.scale(lam1))
    return _generating_operator(triple, a, b)


# ---------------------------------------------------------------------------
# projective Laplacian and the upper volume connection
# ---------------------------------------------------------------------------


def laplacian_vector(s: Sym2Upper, pi: ProjectiveClass) -> dict:
    """First-order coefficients of the projective Laplacian,
    T^i = 2/(n0+3) d_j S^ji (-1)^{j~(S~+1)} - (n0+1)/(n0+3) S^jk Pi^i_kj."""
    n0 = s.dim.n0
    if n0 in (-1, -3):
        raise SingularDimension(f"n - m = {n0}: projective Laplacian undefined")
    return linear_combination((Fraction(2, n0 + 3), div_upper(s)),
                              (Fraction(-(n0 + 1), n0 + 3), contract_class(s, pi)))


def projective_laplacian(s: Sym2Upper, pi: ProjectiveClass) -> DensityOperator:
    """S^ij d_j d_i + T^i d_i with T = `laplacian_vector`, acting on weight-0
    densities."""
    first = laplacian_vector(s, pi)
    total = DensityOperator.zero(s.dim)
    for (i, j), s_ij in s.comps.items():
        total = total + DensityOperator.from_written(DensityElement.of(s_ij), [j, i])
    for i, t_i in first.items():
        total = total + DensityOperator.from_written(DensityElement.of(t_i), [i])
    return total


def upper_gamma(s: Sym2Upper, pi: ProjectiveClass) -> dict:
    """Volume upper-connection coefficients
    gamma^i = (n0+1)/(n0+3) (d_j S^ji (-1)^{j~(S~+1)} + S^jk Pi^i_kj)."""
    n0 = s.dim.n0
    if n0 in (-1, -3):
        raise SingularDimension(f"n - m = {n0}: upper connection undefined")
    q = Fraction(n0 + 1, n0 + 3)
    return linear_combination((q, div_upper(s)), (q, contract_class(s, pi)))
