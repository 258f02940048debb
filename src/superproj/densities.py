"""The algebra of densities, differential operators on it, brackets given by
component triples, canonical generating operators and formal adjoints.

A density element is a finite sum of slices ``f(x, th) |Dx|^w`` with exact
rational weights.  A weight key (of a slice, of an operator term, of a
triple) is an ``int`` when the weight is integral and a ``Fraction``
otherwise (`_as_weight`, applied to every sum of weights): the two types
compare, hash and print alike, and an ``int`` hashes without Fraction's
modular inverse.  An operator is kept in normal order, as one flat map from
keys (alpha, k, mu) to functions f:

    sum  f |Dx|^mu  d^alpha  w^k

with the derivative multi-index alpha in ascending coordinate order and the
weight operator rightmost.  One private assembler, `_assemble`, sums pieces
written as f |Dx|^mu d_{i1} .. d_{il} w^k, putting the derivatives in normal
order with their signs; the constructors, the generating operators and the
projective Laplacian are all built by it.  Since the monomials d^alpha w^k
act independently on the slice family, normal forms are faithful:
structural equality of operators is extensional equality, and it is the
verdict every check uses.  `operators_equal` evaluates both operators on a
spanning family of test densities; it is kept as a cross-check for the
tests.  `generators` lists the generators x^1 .. x^{n+m}, |Dx| of the
algebra, in that order: the density Jacobi and canonical-operator checks
run over its sorted pairs and triples.

Normalization notes (constraints, not derivable from the code):

* the four-term combination lives in `_four_term`, which takes the values
  of the operator, so `generated_bracket` and the canonical-operator check
  share it; applied to the second-order operator ``S^{ij} d_j d_i`` it
  produces the bracket with coordinate values ``2 S^{ij}``.  The canonical
  generating operator of a triple therefore carries a global factor 1/2 so
  that it generates exactly the bracket whose coordinate components are the
  triple entries.
* the adjoint is taken with respect to the pairing of weights summing to 1,
  with the graded convention <D a, b> = (-1)^{D~a~} <a, D+ b>; primitive
  adjoints are (mult f)+ = mult f, (d_i)+ = -d_i, w+ = 1 - w, and products
  reverse with the Koszul sign.  `formal_adjoint` applies the resulting
  closed form term by term.
* `bracket_from_triple` evaluates the bracket of a triple in closed form,
  a sum of products of first derivatives (of the coefficients and of the
  |Dx| exponents) of its two arguments, so it is a biderivation by
  construction; it equals the bracket the canonical operator generates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from typing import Iterable, Mapping, Sequence

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
    SuperFunction,
    keyed_sums,
    scalar_ring,
)

# ---------------------------------------------------------------------------
# density elements
# ---------------------------------------------------------------------------


def _as_weight(w) -> int | Fraction:
    """The weight key of w: an int when w is integral, else a Fraction.
    Equal weights of either type hash alike, compare equal and print the
    same way, and an int key hashes without Fraction's modular inverse."""
    if type(w) is int:
        return w
    w = w if isinstance(w, Fraction) else Fraction(w)
    return w.numerator if w.denominator == 1 else w


class DensityElement:
    """Finite sum of weight slices: weight -> SuperFunction coefficient."""

    __slots__ = ("dim", "slices")

    def __init__(self, dim: Dimension, slices: Mapping):
        clean = {}
        for w, f in slices.items():
            if f.dim is not dim:
                raise DimensionMismatch("slice over wrong dimension")
            if not f.is_zero():
                clean[_as_weight(w)] = f
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "slices", clean)

    @staticmethod
    def _of(dim: Dimension, slices: dict) -> "DensityElement":
        """Trusted: weight keys (see `_as_weight`) to nonzero slices over
        dim (sums come from `keyed_sums`), in a dict of the caller's own."""
        out = object.__new__(DensityElement)
        object.__setattr__(out, "dim", dim)
        object.__setattr__(out, "slices", slices)
        return out

    def __setattr__(self, *_):
        raise AttributeError("immutable")

    @staticmethod
    def zero(dim: Dimension) -> "DensityElement":
        return DensityElement._of(dim, {})

    @staticmethod
    def of(f: SuperFunction, weight=0) -> "DensityElement":
        return DensityElement(f.dim, {_as_weight(weight): f})

    @staticmethod
    def volume(dim: Dimension, weight=1) -> "DensityElement":
        return DensityElement(dim, {_as_weight(weight): SuperFunction.one(dim)})

    def slice(self, w) -> SuperFunction:
        val = self.slices.get(_as_weight(w))
        return SuperFunction.zero(self.dim) if val is None else val

    def is_zero(self) -> bool:
        return not self.slices

    def __add__(self, other: "DensityElement") -> "DensityElement":
        if self.dim is not other.dim:
            raise DimensionMismatch("density dimensions differ")
        if not other.slices:
            return self
        if not self.slices:
            return other
        return DensityElement._of(self.dim, keyed_sums(
            chain(self.slices.items(), other.slices.items())))

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other: "DensityElement") -> "DensityElement":
        if self.dim is not other.dim:
            raise DimensionMismatch("density dimensions differ")
        if not other.slices:
            return self
        return DensityElement._of(self.dim, keyed_sums(
            chain(self.slices.items(), [(w, -f) for w, f in other.slices.items()])))

    def __mul__(self, other: "DensityElement") -> "DensityElement":
        if self.dim is not other.dim:
            raise DimensionMismatch("density dimensions differ")
        if not self.slices:
            return self
        if not other.slices:
            return other
        return DensityElement._of(self.dim, keyed_sums(
            [(_as_weight(w1 + w2), f1 * f2) for w1, f1 in self.slices.items()
             for w2, f2 in other.slices.items()]))

    def scale(self, q) -> "DensityElement":
        if not self.slices or q == 1:
            return self
        if not q:
            return DensityElement.zero(self.dim)
        return DensityElement._of(self.dim, {w: f.scale(q) for w, f in self.slices.items()})

    def partial(self, i: int) -> "DensityElement":
        return DensityElement._of(self.dim, keyed_sums(
            [(w, f.partial(i)) for w, f in self.slices.items()]))

    def parity(self) -> int:
        """`SuperFunction.parity` over the terms of every slice."""
        parities = {len(k) % 2 for f in self.slices.values() for k in f.terms}
        if len(parities) > 1:
            raise NonHomogeneous("density of mixed parity")
        return parities.pop() if parities else EVEN

    def __eq__(self, other):
        return (
            isinstance(other, DensityElement)
            and self.dim is other.dim
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


def _assemble(dim: Dimension, pieces) -> "DensityOperator":
    """The sum of f |Dx|^mu d_{i1} .. d_{il} w^k over pieces
    (mu, f, [i1 .. il], k), derivatives in written order."""
    terms = []
    for mu, f, derivs, wpow in pieces:
        alpha, sign = (0,) * dim.size, 1
        for i in reversed(derivs):
            ins = _insert_deriv(dim, alpha, i)
            if ins is None:
                break
            alpha, s = ins
            sign *= s
        else:
            terms.append(((alpha, wpow, mu), f if sign == 1 else -f))
    return DensityOperator(dim, keyed_sums(terms))


class DensityOperator:
    """Normal-ordered differential operator on the density algebra: each
    term (alpha, k, mu) -> f stands for f |Dx|^mu d^alpha w^k."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: Dimension, terms: dict):
        """Normal-ordered keys, as the builders below form them, to
        coefficients over dim; drops zero terms."""
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", {k: f for k, f in terms.items() if f.terms})

    def __setattr__(self, *_):
        raise AttributeError("immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(dim: Dimension) -> "DensityOperator":
        return DensityOperator(dim, {})

    @staticmethod
    def identity(dim: Dimension) -> "DensityOperator":
        return _assemble(dim, [(0, SuperFunction.one(dim), (), 0)])

    @staticmethod
    def mult(coeff: DensityElement) -> "DensityOperator":
        return DensityOperator.from_written(coeff, ())

    @staticmethod
    def deriv(dim: Dimension, i: int) -> "DensityOperator":
        return _assemble(dim, [(0, SuperFunction.one(dim), (i,), 0)])

    @staticmethod
    def weight(dim: Dimension) -> "DensityOperator":
        return _assemble(dim, [(0, SuperFunction.one(dim), (), 1)])

    @staticmethod
    def from_written(coeff: DensityElement, deriv_indices: Sequence[int],
                     wpow: int = 0) -> "DensityOperator":
        """coeff * d_{i1} d_{i2} ... * w^k with derivatives in written order."""
        return _assemble(coeff.dim, [(mu, f, deriv_indices, wpow)
                                     for mu, f in coeff.slices.items()])

    # -- linear structure -------------------------------------------------

    def __add__(self, other: "DensityOperator") -> "DensityOperator":
        if self.dim is not other.dim:
            raise DimensionMismatch("operator dimensions differ")
        return DensityOperator(self.dim, keyed_sums(
            chain(self.terms.items(), other.terms.items())))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, q) -> "DensityOperator":
        return DensityOperator(
            self.dim, {key: f.scale(q) for key, f in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, DensityOperator)
            and self.dim is other.dim
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    # -- action -----------------------------------------------------------

    def __call__(self, phi: DensityElement) -> DensityElement:
        if phi.dim is not self.dim:
            raise DimensionMismatch("argument over wrong dimension")
        out = []
        for (alpha, wpow, mu), f in self.terms.items():
            for lam, g in phi.slices.items():
                if wpow:
                    g = g.scale(lam ** wpow)
                for i in reversed(range(self.dim.size)):
                    for _ in range(alpha[i]):
                        g = g.partial(i)
                if g.terms:
                    out.append((_as_weight(mu + lam), f * g))
        return DensityElement._of(self.dim, keyed_sums(out))

    # -- serialization ------------------------------------------------

    def serialize(self) -> list:
        """Term list [{weight_shift, coefficient, derivatives, w_power}] in
        (derivatives, w_power, weight_shift) order, with the coefficient
        printed in the expression grammar."""
        from .expressions import format_super

        return [{"weight_shift": str(mu),
                 "coefficient": format_super(self.terms[alpha, wpow, mu]),
                 "derivatives": list(alpha),
                 "w_power": wpow}
                for alpha, wpow, mu in sorted(self.terms)]

    # -- parity -----------------------------------------------------------

    def parity(self) -> int:
        """`SuperFunction.parity` over the terms f d^alpha, odd d's counted."""
        n = self.dim.n
        parities = {(sum(alpha[n:]) + len(key)) % 2
                    for (alpha, _, _), f in self.terms.items() for key in f.terms}
        if len(parities) > 1:
            raise NonHomogeneous("operator of mixed parity")
        return parities.pop() if parities else EVEN

    # -- composition --------------------------------------------------

    def _compose_weight(self) -> "DensityOperator":
        """w o self, normal-ordered."""
        out = []
        for (alpha, wpow, mu), f in self.terms.items():
            out.append(((alpha, wpow + 1, mu), f))
            if mu:
                out.append(((alpha, wpow, mu), f.scale(mu)))
        return DensityOperator(self.dim, keyed_sums(out))

    def _compose_deriv(self, i: int) -> "DensityOperator":
        """d_i o self, normal-ordered via the graded Leibniz rule: an odd d_i
        passes an odd coefficient with a sign."""
        dim = self.dim
        out = []
        for (alpha, wpow, mu), f in self.terms.items():
            out.append(((alpha, wpow, mu), f.partial(i)))
            ins = _insert_deriv(dim, alpha, i)
            if ins is None:
                continue
            alpha2, sign = ins
            if dim.parity(i) == ODD:
                ev, od = f.parity_split()
                f = ev - od
            out.append(((alpha2, wpow, mu), f if sign == 1 else -f))
        return DensityOperator(dim, keyed_sums(out))

    def compose(self, other: "DensityOperator") -> "DensityOperator":
        """self o other (apply other first)."""
        if self.dim is not other.dim:
            raise DimensionMismatch("operator dimensions differ")
        out = []
        for (alpha, wpow, mu), f in self.terms.items():
            acc = other
            for _ in range(wpow):
                acc = acc._compose_weight()
            for i in reversed(range(self.dim.size)):
                for _ in range(alpha[i]):
                    acc = acc._compose_deriv(i)
            out += [((beta, k, _as_weight(mu + nu)), f * g)
                    for (beta, k, nu), g in acc.terms.items()]
        return DensityOperator(self.dim, keyed_sums(out))


# ---------------------------------------------------------------------------
# test family and extensional equality
# ---------------------------------------------------------------------------


DEFAULT_WEIGHTS = (0, Fraction(1, 2), 1, 2, Fraction(-1, 2))


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
    return max((sum(alpha) + wpow for alpha, wpow, _ in d.terms), default=0)


# ---------------------------------------------------------------------------
# formal adjoint
# ---------------------------------------------------------------------------


def formal_adjoint(d: DensityOperator) -> DensityOperator:
    """Adjoint for the pairing of complementary weights; antihomomorphism
    with the Koszul sign, (mult f)+ = mult f, (d_i)+ = -d_i, w+ = 1 - w.

    A homogeneous piece f of the term f |Dx|^mu d_{i_1} .. d_{i_l} w^k
    (i_1 <= .. <= i_l) with q odd factors among f and the d's has the adjoint

        (-1)^{q(q-1)/2 + l} (1 - w)^k d_{i_l} .. d_{i_1} f |Dx|^mu.
    """
    dim = d.dim
    out = []
    for (alpha, wpow, mu), f in d.terms.items():
        odd_derivs = sum(alpha[dim.n:])
        for par, piece in enumerate(f.parity_split()):
            if not piece.terms:
                continue
            op = DensityOperator(dim, {((0,) * dim.size, 0, mu): piece})
            for i in range(dim.size):
                for _ in range(alpha[i]):
                    op = op._compose_deriv(i)
            for _ in range(wpow):
                op = op - op._compose_weight()
            q = par + odd_derivs
            sign = (-1) ** (q * (q - 1) // 2 + sum(alpha))
            out += op.terms.items() if sign == 1 else [
                (key, -g) for key, g in op.terms.items()]
    return DensityOperator(dim, keyed_sums(out))


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
    weight: int | Fraction  # a weight key, see `_as_weight`

    def __post_init__(self):
        dim = self.s.dim
        object.__setattr__(self, "weight", _as_weight(self.weight))
        object.__setattr__(self, "eps", int(self.eps) % 2)
        if self.s.parity != self.eps:
            raise ValidationError("S tensor parity must equal the bracket parity")
        gamma = {i: v for i, v in dict(self.gamma).items() if not v.is_zero()}
        for i, v in gamma.items():
            if v.dim is not dim:
                raise DimensionMismatch("gamma component over wrong dimension")
            if not v.has_parity(dim.parity(i) + self.eps):
                raise ValidationError(f"gamma component {i} violates parity")
        object.__setattr__(self, "gamma", gamma)
        if self.theta.dim is not dim:
            raise DimensionMismatch("theta over wrong dimension")
        if not self.theta.has_parity(self.eps):
            raise ValidationError("theta violates parity")

    @property
    def dim(self) -> Dimension:
        return self.s.dim

    def gamma_component(self, i: int) -> SuperFunction:
        val = self.gamma.get(i)
        return SuperFunction.zero(self.dim) if val is None else val

    @staticmethod
    def zero(dim: Dimension, eps=ODD, weight=0) -> "BracketTriple":
        return BracketTriple(Sym2Upper(dim, {}, eps % 2), {},
                             SuperFunction.zero(dim), eps, weight)


def bracket_from_triple(triple: BracketTriple, a: DensityElement,
                        b: DensityElement) -> DensityElement:
    """The biderivation of parity eps and weight lam determined by the
    triple's component values.  For a = f|Dx|^mu and b = g|Dx|^nu,

        {a, b} = |Dx|^{lam+mu+nu} ( sum_{(j,i)} (-1)^{a~j~} S^ji d_i f d_j g
                   + mu sum_j (-1)^{a~j~} gamma^j f d_j g
                   + nu sum_i gamma^i d_i f g  +  mu nu theta f g ),

    summed over slices.  Every term is linear in the first derivatives of f
    and |Dx| in a, and of g and |Dx| in b, so this is a biderivation; it is
    graded-symmetric, {a,b} = (-1)^{a~b~}{b,a}."""
    odd_a = a.parity()
    b.parity()  # refuses a mixed b, as the line above refuses a mixed a
    dim = triple.dim
    if not (a.slices and b.slices):
        return DensityElement.zero(dim)

    def signed(j, term):
        return -term if odd_a and dim.parity(j) else term

    # The first derivatives the sum reads, each taken once per call: of a's
    # slices at the columns i of S, and at gamma's indices if some nu is
    # nonzero; of b's slices at the rows j of S that meet a nonzero d_i f,
    # and at gamma's indices if some mu is nonzero.
    comps, gamma = triple.s.comps, triple.gamma
    cols = {i for _, i in comps} | (gamma.keys() if any(b.slices) else set())
    a_slices = [(mu, f, {i: f.partial(i) for i in cols}) for mu, f in a.slices.items()]
    live = {i for _, _, df in a_slices for i, d in df.items() if d.terms}
    rows = {j for j, i in comps if i in live} | (gamma.keys() if any(a.slices) else set())
    b_slices = [(nu, g, {j: g.partial(j) for j in rows}) for nu, g in b.slices.items()]
    out = []  # (weight, term)
    for mu, f, df in a_slices:
        for nu, g, dg in b_slices:
            w = _as_weight(triple.weight + mu + nu)
            for (j, i), s_ji in comps.items():
                if df[i].terms and dg[j].terms:
                    out.append((w, signed(j, s_ji * df[i] * dg[j])))
            if mu:
                for j, gamma_j in gamma.items():
                    if dg[j].terms:
                        out.append((w, signed(j, gamma_j * f * dg[j]).scale(mu)))
            if nu:
                for i, gamma_i in gamma.items():
                    if df[i].terms:
                        out.append((w, (gamma_i * df[i] * g).scale(nu)))
            if mu and nu:
                out.append((w, (triple.theta * f * g).scale(mu * nu)))
    return DensityElement._of(dim, keyed_sums(out))


def generators(dim: Dimension) -> list:
    """The generators of the density algebra, x^1 .. x^{n+m} and then |Dx|."""
    return [*(DensityElement.of(SuperFunction.coordinate(dim, i))
              for i in range(dim.size)), DensityElement.volume(dim)]


def _four_term(dp: int, a: DensityElement, b: DensityElement,
               ab: DensityElement, values) -> DensityElement:
    """{a,b} = D(ab) - a D(b) (-1)^{a~D~} - D(a) b + a b D(1) (-1)^{(a~+b~)D~}
    for an operator D of parity dp, from the product ab = a b and
    values = (D(a), D(b), D(ab), D(1)); a mixed a or b is refused."""
    pa, pb = a.parity(), b.parity()
    d_a, d_b, d_ab, d_1 = values
    out = d_ab - (a * d_b).scale((-1) ** (pa * dp)) - d_a * b
    return out + (ab * d_1).scale((-1) ** ((pa + pb) * dp))


def generated_bracket(delta: DensityOperator, a: DensityElement,
                      b: DensityElement) -> DensityElement:
    """The four-term bracket `_four_term` of delta on a and b."""
    ab = a * b
    one = DensityElement.of(SuperFunction.one(delta.dim))
    return _four_term(delta.parity(), a, b, ab,
                      (delta(a), delta(b), delta(ab), delta(one)))


# ---------------------------------------------------------------------------
# divergences and contractions
# ---------------------------------------------------------------------------


def linear_combination(*pairs) -> dict:
    """Sum of q * v over (q, v) pairs of a rational and a vector
    {index: SuperFunction}; zero entries omitted."""
    return keyed_sums([(i, v.scale(q)) for q, vec in pairs for i, v in vec.items()])


def div_vector(v: Mapping[int, SuperFunction], dim: Dimension,
               eps: int) -> SuperFunction:
    """Signed divergence d_k v^k (-1)^{k~(eps+1)}."""
    return SuperFunction.sum(dim, [
        v_k.partial(k).scale((-1) ** (dim.parity(k) * (eps + 1)))
        for k, v_k in v.items()])


def div_upper(s: Sym2Upper) -> dict:
    """Signed divergence i -> d_j S^ji (-1)^{j~(S~+1)}, i.e. `div_vector` of
    each column of S; zero entries omitted."""
    columns: dict = {}
    for (j, i), s_ji in s.comps.items():
        columns.setdefault(i, {})[j] = s_ji
    return keyed_sums([(i, div_vector(col, s.dim, s.parity))
                       for i, col in columns.items()])


def contract_class(s: Sym2Upper, pi: Sym2Cov) -> dict:
    """i -> S^jk Pi^i_kj; zero entries omitted."""
    return keyed_sums([(i, s.comps[j, k] * p) for (i, k, j), p in pi.comps.items()
                       if (j, k) in s.comps])


def contract_lower(s: Sym2Upper,
                   lower: Mapping[tuple, SuperFunction]) -> SuperFunction:
    """S^jk L_kj for a lower tensor given as {(k, j): L_kj}."""
    return SuperFunction.sum(s.dim, [
        s_jk * lower[k, j] for (j, k), s_jk in s.comps.items() if (k, j) in lower])


# ---------------------------------------------------------------------------
# generating operators
# ---------------------------------------------------------------------------


def _generating_operator(triple: BracketTriple, a: Mapping[int, SuperFunction],
                        b: SuperFunction) -> DensityOperator:
    """The second-order operator with first-order data (a, b):

        (1/2) |Dx|^lam ( S^ij d_j d_i + 2 gamma^i w d_i + theta w^2
            + a^i d_i + b w ).
    """
    lam, half = triple.weight, Fraction(1, 2)
    pieces = [(lam, s_ij.scale(half), (j, i), 0)
              for (i, j), s_ij in triple.s.comps.items()]
    pieces += [(lam, g, (i,), 1) for i, g in triple.gamma.items()]
    pieces += [(lam, a_i.scale(half), (i,), 0) for i, a_i in a.items()]
    pieces += [(lam, triple.theta.scale(half), (), 2), (lam, b.scale(half), (), 1)]
    return _assemble(triple.dim, pieces)


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
    pieces = [(0, s_ij, (j, i), 0) for (i, j), s_ij in s.comps.items()]
    pieces += [(0, t_i, (i,), 0) for i, t_i in laplacian_vector(s, pi).items()]
    return _assemble(s.dim, pieces)


def upper_gamma(s: Sym2Upper, pi: ProjectiveClass) -> dict:
    """Volume upper-connection coefficients
    gamma^i = (n0+1)/(n0+3) (d_j S^ji (-1)^{j~(S~+1)} + S^jk Pi^i_kj)."""
    n0 = s.dim.n0
    if n0 in (-1, -3):
        raise SingularDimension(f"n - m = {n0}: upper connection undefined")
    q = Fraction(n0 + 1, n0 + 3)
    return linear_combination((q, div_upper(s)), (q, contract_class(s, pi)))
