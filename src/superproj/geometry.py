"""Supermatrices, Berezinians, coordinate changes, connections and the
multidimensional super-Schwarzian derivative.

Covectors, (1,2)-tensors, 2-upper-index tensors and supermatrices are one
kind of value: an immutable table of nonzero components keyed by coordinate
indices.  One component rule holds for all of them: the component at key K
has parity ``sum K~ + parity`` for a tensor of overall ``parity`` (even for
a supermatrix).  The tensors are graded-symmetric in their last two indices,
``A^k_ij = (-1)^{i~j~} A^k_ji`` and ``S^ij = (-1)^{i~j~} S^ji``, with the
sign `Dimension.mirror_sign`.

Index conventions used throughout (and by `densities`/`thomas`):

* A symmetric (1,2)-tensor stores ``comps[(k, i, j)] = A^k_ij`` where the
  subscripts are in written order; a 2-upper-index tensor stores
  ``comps[(i, j)] = S^ij``.
* ``div_trace(A)_i = 2 sum_j A^j_ij (-1)^{j~(1+parity)}`` -- the supertrace
  pairing the upper index with the second written subscript.
* ``j_inject`` is normalized so that ``div_trace(j_inject(phi))`` equals
  ``(n - m + 1) phi`` exactly, for either overall parity.
* Coordinate frames transform by ``d_i = (d_i xbar^a) dbar_a`` with the
  Jacobian factor multiplying from the left (left derivatives); momenta by
  ``p_i = (d_i xbar^a) pbar_a``.

Every tensor a public function returns is validated by its constructor;
intermediates no caller sees are plain component dicts, so a derived tensor
is built once.  The transformation laws and the cocycle are contractions
that walk the stored components and the nonzero Jacobian entries only; the
law of a (1,2)-tensor, `_transform_core`, contracts only the lower pairs
a <= b and fills each mirror (d, b, a) with `Dimension.mirror_sign`, since
the law keeps graded symmetry.  The trace-free projection
``A - j(div A)/(n - m + 1)`` behind `projective_class` and
`super_schwarzian` adds ``j_inject``'s terms straight into A's components.

Supermatrix inverses and Berezinians come from one Gauss-Jordan elimination;
a `CoordinateChange` keeps the Jacobian grid and the inverse it computes
while validating.  The second-derivative cocycle ``F_c`` (`schwarzian_raw`)
is the inhomogeneous term of the connection law: a connection transforms by
the tensorial law of ``Gamma - F_c``, ``d log Ber`` is half the trace of
``F_c``, and the super-Schwarzian is its trace-free part.
`schwarzian_defect` checks that the Schwarzian of the inverse map is the
defect of the projective class in the source chart, where the raw law
leaves its results, and re-expresses a nonzero defect in the new chart.

All operations are pure; every value is immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from operator import itemgetter
from typing import Mapping, Optional

from .errors import (
    DimensionMismatch,
    NonHomogeneous,
    NotInvertible,
    SingularDimension,
    UnknownCoordinate,
    ValidationError,
)
from .graded_algebra import EVEN, Dimension, Substitution, SuperFunction, keyed_sums

# ---------------------------------------------------------------------------
# tensors with function components
# ---------------------------------------------------------------------------


class _Table:
    """Immutable table of the nonzero components of a tensor of overall
    ``parity``, keyed by coordinate indices (an int, or a tuple).

    The one component rule: the component at key K has parity
    ``sum K~ + parity``.  A ``symmetric`` table is also graded-symmetric in
    its last two indices, ``T[.., i, j] = (-1)^{i~j~} T[.., j, i]``, checked
    by normal-form equality after every parity has been checked.  Tables of
    one kind (a class and its subclasses) compare equal on equal dimension,
    parity and components."""

    __slots__ = ("dim", "comps", "parity")
    symmetric = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if _Table in cls.__bases__:
            cls._kind = cls

    def __init__(self, dim: Dimension, comps: Mapping, parity: int = EVEN):
        # One walk checks every type and dimension and keeps the first
        # parity fault (or index out of range), raised only after the walk.
        n, size = dim.n, dim.size
        clean, fault = {}, None
        for key, val in comps.items():
            if not isinstance(val, SuperFunction):
                raise ValidationError(f"component {key} is not a SuperFunction")
            if val.dim is not dim:
                raise DimensionMismatch(
                    f"component {key} over {val.dim}, expected {dim}")
            if not val.terms:
                continue
            clean[key] = val
            if fault is None:
                fault = _parity_fault(key, val, n, size, parity, dim)
        if fault is not None:
            raise fault
        for key, val in clean.items() if self.symmetric else ():
            *head, i, j = key
            mirror = clean.get((*head, j, i))
            if mirror is None or not (
                    _negation(val.terms, mirror.terms) if i >= n and j >= n
                    else mirror is val or val.terms == mirror.terms):
                raise ValidationError(
                    f"graded symmetry fails at {str(key).replace(' ', '')}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "comps", clean)
        object.__setattr__(self, "parity", parity)

    def __setattr__(self, *_):
        raise AttributeError("immutable")

    def component(self, *key) -> SuperFunction:
        val = self.comps.get(key if len(key) > 1 else key[0])
        return SuperFunction.zero(self.dim) if val is None else val

    def is_zero(self) -> bool:
        return not self.comps

    def __eq__(self, other):
        return (
            isinstance(other, _Table)
            and self._kind is other._kind
            and self.dim is other.dim
            and self.parity == other.parity
            and self.comps == other.comps
        )

    def __hash__(self):
        return hash((self.dim, self.parity, frozenset(self.comps.items())))


def _parity_fault(key, val, n, size, parity, dim):
    """The error of a nonzero component whose parity breaks the component
    rule, or that has an index out of range (as `Dimension.parity` reports
    it); None if it keeps the rule."""
    p = parity
    for a in key if isinstance(key, tuple) else (key,):
        if not 0 <= a < size:
            return UnknownCoordinate(f"coordinate index {a} out of range for {dim}")
        p += a >= n
    for k in val.terms:
        if (len(k) + p) & 1:
            return ValidationError(f"component {str(key).replace(' ', '')} "
                                   "violates parity homogeneity")
    return None


def _negation(terms: dict, mirror: dict) -> bool:
    """True if the mirror's terms are the negation of terms."""
    get = mirror.get
    return len(terms) == len(mirror) and all(
        (m := get(k)) is not None and m == -c for k, c in terms.items())


class CovectorField(_Table):
    """phi = e^i phi_i, stored comps[i]."""


class Sym2Cov(_Table):
    """Element of Sigma^2 V* (x) V with function coefficients A^k_ij."""

    symmetric = True

    def __add__(self, other: "Sym2Cov") -> "Sym2Cov":
        return self._plus(other, other.comps.items())

    def __sub__(self, other: "Sym2Cov") -> "Sym2Cov":
        return self._plus(other, [(key, -val) for key, val in other.comps.items()])

    def _plus(self, other, terms):
        if self.dim is not other.dim or self.parity != other.parity:
            raise DimensionMismatch("tensor mismatch in addition")
        comps = keyed_sums(chain(self.comps.items(), terms))
        return Sym2Cov(self.dim, comps, self.parity)

    def scale(self, q) -> "Sym2Cov":
        return Sym2Cov(
            self.dim, {key: val.scale(q) for key, val in self.comps.items()},
            self.parity)


class Connection(Sym2Cov):
    """Symmetric linear connection coefficients Gamma^k_ij (even tensor)."""

    def __init__(self, dim, comps):
        super().__init__(dim, comps, EVEN)


class ProjectiveClass(Sym2Cov):
    """Trace-free connection-type coefficients Pi^k_ij."""

    def __init__(self, dim, comps):
        super().__init__(dim, comps, EVEN)
        if _div(self):
            raise ValidationError("projective class is not trace-free")


class Sym2Upper(_Table):
    """Graded-symmetric 2-upper-index tensor S^ij (stored comps[(i, j)])."""

    symmetric = True


# ---------------------------------------------------------------------------
# div, j and the trace-free projection
# ---------------------------------------------------------------------------


def _div(a: Sym2Cov) -> dict:
    """The nonzero components of `div_trace`, unvalidated."""
    return keyed_sums([(i, val.scale(-2 if a.dim.parity(j) and not a.parity else 2))
                       for (k, i, j), val in a.comps.items() if k == j])


def div_trace(a: Sym2Cov) -> CovectorField:
    """Supertrace div(A)_i = 2 A^j_ij (-1)^{j~(1+parity)} (summed over j)."""
    return CovectorField(a.dim, _div(a), a.parity)


def _j_terms(phi: Mapping, dim: Dimension, eps: int, c) -> list:
    """(key, term) pairs of c j(phi) sorted by key, for j = 2 `j_inject` and
    phi = {b: phi_b} of parity eps: phi_b enters only (t, t, b), (t, b, t)."""
    terms = []
    for b, phi_b in phi.items():
        signed = (phi_b.scale(c), phi_b.scale(-c))
        for t in range(dim.size):
            for key, power in (((t, t, b), (dim.parity(b) + eps) * dim.parity(t)),
                               ((t, b, t), eps * dim.parity(t))):
                terms.append((key, signed[power % 2]))
    return sorted(terms, key=itemgetter(0))


def j_inject(phi: CovectorField) -> Sym2Cov:
    """Natural injection phi -> phi v e^i (x) e_i, normalized so that
    div_trace o j_inject = (n - m + 1) id exactly."""
    terms = _j_terms(phi.comps, phi.dim, phi.parity, Fraction(1, 2))
    return Sym2Cov(phi.dim, keyed_sums(terms), phi.parity)


def _trace_free(a: Sym2Cov) -> dict:
    """The components of A - j(div A)/(n - m + 1), unvalidated; callers rule
    out n - m = -1.  `j_inject`'s terms are added to A's in one pass, and
    the entries A lacks follow in key order, as in `j_inject`."""
    c = Fraction(-1, 2 * (a.dim.n0 + 1))
    return keyed_sums(chain(a.comps.items(), _j_terms(_div(a), a.dim, a.parity, c)))


def projective_class(gamma: Sym2Cov) -> ProjectiveClass:
    """Trace-free part Gamma - j(div Gamma)/(n - m + 1)."""
    if gamma.dim.n0 == -1:
        raise SingularDimension("n - m = -1: trace projection undefined")
    return ProjectiveClass(gamma.dim, _trace_free(gamma))


# ---------------------------------------------------------------------------
# supermatrices
# ---------------------------------------------------------------------------


class SuperMatrix(_Table):
    """Square even supermatrix indexed by the coordinates of a Dimension:
    comps[(r, c)], of parity r~ + c~."""

    @staticmethod
    def identity(dim: Dimension) -> "SuperMatrix":
        one = SuperFunction.one(dim)
        return SuperMatrix(dim, {(i, i): one for i in range(dim.size)})

    def __mul__(self, other: "SuperMatrix") -> "SuperMatrix":
        if self.dim is not other.dim:
            raise DimensionMismatch("matrix dimensions differ")
        size = self.dim.size
        return SuperMatrix(self.dim, {
            (r, c): SuperFunction.sum(self.dim, [
                self.component(r, k) * other.component(k, c) for k in range(size)])
            for r in range(size) for c in range(size)})


def _eliminate(grid, dim: Dimension):
    """Gauss-Jordan elimination of an even supermatrix given as a grid whose
    (r, c) entry has parity r~ + c~.  Returns ``(inverse, ber)``: the
    two-sided inverse grid and the Berezinian.

    The pivot of column c is the first entry at or below the diagonal with
    nonzero body; such an entry is even, so its row has the parity of c and
    the row operations stay even.  Ber changes sign with each row swap, and
    normalizing pivot row c multiplies it by the pivot (c even) or by the
    pivot's inverse (c odd); clearing a column leaves it unchanged.
    """
    size = len(grid)
    one, zero = SuperFunction.one(dim), SuperFunction.zero(dim)
    rows = [list(row) + [one if r == c else zero for c in range(size)]
            for r, row in enumerate(grid)]
    ber = one
    for c in range(size):
        piv = next((r for r in range(c, size) if rows[r][c].body()), None)
        if piv is None:
            raise NotInvertible(f"matrix has singular body (column {c + 1})")
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            ber = -ber
        pinv = rows[c][c].invert()
        ber = ber * (pinv if dim.parity(c) else rows[c][c])
        rows[c] = [pinv * x for x in rows[c]]
        for r in range(size):
            f = rows[r][c]
            if r != c and not f.is_zero():
                rows[r] = [x if y.is_zero() else x - f * y
                           for x, y in zip(rows[r], rows[c])]
    return tuple(tuple(row[size:]) for row in rows), ber


def berezinian(mat: SuperMatrix) -> SuperFunction:
    """Ber(M), which is det(A - B D^{-1} C) det(D)^{-1} on the standard
    blocks, by Gauss-Jordan elimination."""
    size = mat.dim.size
    grid = [[mat.component(r, c) for c in range(size)] for r in range(size)]
    return _eliminate(grid, mat.dim)[1]


# ---------------------------------------------------------------------------
# coordinate changes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoordinateChange:
    """A chart map xbar = xbar(x), with an optional exact inverse.

    ``forward[a]`` is the expression of the new a-th coordinate in the old
    ones; ``inverse`` (when given) expresses the old coordinates in the new
    ones and is validated by composing to the identity in both orders.
    Operations needing only the inverse Jacobian (Berezinians, Schwarzians)
    work without ``inverse``; re-expressing results in the new chart needs
    it.  The Jacobian grid and its inverse, computed once to validate the
    change, are kept (see `jacobian_rows`, `inverse_jacobian_rows`), and so
    are the `Substitution` plans of both maps, for every later use.
    """

    dim: Dimension
    forward: tuple
    inverse: Optional[tuple] = None
    # Plans handed over only by `inverted`, whose change ran every check.
    _forward_plan: Substitution = field(default=None, repr=False, compare=False)
    _inverse_plan: Optional[Substitution] = field(
        default=None, repr=False, compare=False)
    _jacobian: tuple = field(init=False, repr=False, compare=False)
    _inverse_jacobian: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        trusted = self._forward_plan is not None
        if not trusted:
            if len(self.forward) != self.dim.size:
                raise ValidationError("forward tuple has wrong length")
            for a, val in enumerate(self.forward):
                if val.dim is not self.dim:
                    raise DimensionMismatch("forward component over wrong dimension")
                if not val.has_parity(self.dim.parity(a)):
                    raise NonHomogeneous(f"forward component {a} has wrong parity")
        size = self.dim.size
        jac = tuple(tuple(self.forward[a].partial(i) for a in range(size))
                    for i in range(size))
        kinv, _ = _eliminate(jac, self.dim)
        object.__setattr__(self, "_jacobian", jac)
        object.__setattr__(self, "_inverse_jacobian", kinv)
        if trusted:
            return
        forward = Substitution(self.dim, self.forward)
        object.__setattr__(self, "_forward_plan", forward)
        if self.inverse is not None:
            if len(self.inverse) != self.dim.size:
                raise ValidationError("inverse tuple has wrong length")
            for a, val in enumerate(self.inverse):
                if not val.has_parity(self.dim.parity(a)):
                    raise NonHomogeneous(f"inverse component {a} has wrong parity")
            inverse = Substitution(self.dim, self.inverse)
            for a in range(self.dim.size):
                coord = SuperFunction.coordinate(self.dim, a)
                if forward(self.inverse[a]) != coord:
                    raise ValidationError(
                        f"inverse o forward is not the identity at coordinate {a}")
                if inverse(self.forward[a]) != coord:
                    raise ValidationError(
                        f"forward o inverse is not the identity at coordinate {a}")
            object.__setattr__(self, "_inverse_plan", inverse)

    @staticmethod
    def identity(dim: Dimension) -> "CoordinateChange":
        coords = tuple(SuperFunction.coordinate(dim, a) for a in range(dim.size))
        return CoordinateChange(dim, coords, coords)

    def require_inverse(self) -> Substitution:
        if self.inverse is None:
            raise NotInvertible("coordinate change lacks an explicit inverse map")
        return self._inverse_plan

    def inverted(self) -> "CoordinateChange":
        """The change back: own Jacobians, this change's plans, no re-checks."""
        return CoordinateChange(self.dim, self.inverse, self.forward,
                                self.require_inverse(), self._forward_plan)

    def then(self, second: "CoordinateChange") -> "CoordinateChange":
        """The composite change x -> second(self(x))."""
        if self.dim is not second.dim:
            raise DimensionMismatch("composing changes over different dimensions")
        fwd = tuple(map(self._forward_plan, second.forward))
        inv = None
        if self.inverse is not None and second.inverse is not None:
            inv = tuple(map(second._inverse_plan, self.inverse))
        return CoordinateChange(self.dim, fwd, inv)

    def pullback(self, f: SuperFunction) -> SuperFunction:
        """Express a function of the new chart in the old one (f o forward)."""
        return self._forward_plan(f)


def jacobian_rows(c: CoordinateChange):
    """Grid J[i][a] = d_i xbar^a (left derivative), rows = old coordinates."""
    return c._jacobian


def inverse_jacobian_rows(c: CoordinateChange):
    """Grid K[a][i] with dbar_a = K[a][i] d_i; entries are functions of the
    old coordinates (no inverse map needed)."""
    return c._inverse_jacobian


def jacobian(c: CoordinateChange) -> SuperMatrix:
    """Jacobian as a SuperMatrix with entry (a, i) = d_i xbar^a."""
    return SuperMatrix(c.dim, {(a, i): val
                               for i, row in enumerate(jacobian_rows(c))
                               for a, val in enumerate(row)})


def berezinian_of_change(c: CoordinateChange) -> SuperFunction:
    """Berezinian of the Jacobian, as a function of the old coordinates.

    Computed on the grid J[i][a] = d_i xbar^a (old-coordinate rows); this is
    the layout under which d_i log Ber agrees with the second-derivative
    contraction of `dlog_berezinian`.
    """
    return _eliminate(jacobian_rows(c), c.dim)[1]


def dlog_berezinian(c: CoordinateChange, i: int) -> SuperFunction:
    """d_i log Ber = div_trace(F_c)_i / 2 for the cocycle F_c of
    `schwarzian_raw`, i.e. (d_i d_k xbar^s) (dx^k / dxbar^s) (-1)^{k~}, in
    old coordinates."""
    return div_trace(schwarzian_raw(c)).component(i).scale(Fraction(1, 2))


# ---------------------------------------------------------------------------
# transformation laws
# ---------------------------------------------------------------------------


def _transform_core(a: Sym2Cov, c: CoordinateChange):
    """The tensorial transformation law, as raw components (functions of the
    OLD chart):
        new^d_ab = (-1)^{i~(j~+b~)} K^i_a K^j_b A^k_ij J^d_k
    with K = inverse Jacobian, J = Jacobian, all written-order products.

    Walks the stored components of A and the nonzero entries of K and J
    only; each signed pair product K^i_a K^j_b is formed once per call and
    reused for every k.  The law keeps graded symmetry in the lower pair, so
    only the pairs a <= b are contracted and each mirror (d, b, a) is
    ``Dimension.mirror_sign`` times (d, a, b).  The result is keyed in
    sorted order.
    """
    dim = a.dim
    size = dim.size
    kinv = inverse_jacobian_rows(c)
    kcols = [[(aa, kinv[aa][i]) for aa in range(size) if kinv[aa][i].terms]
             for i in range(size)]
    jrows = [[(d, jf) for d, jf in enumerate(row) if jf.terms]
             for row in jacobian_rows(c)]
    pairs = {}
    inner = []  # ((aa, bb, k), term), aa <= bb: summed over i, j; shared by every d
    for (k, i, j), comp in a.comps.items():
        signed = pairs.get((i, j))
        if signed is None:
            signed = pairs[(i, j)] = []
            for aa, ki in kcols[i]:
                for bb, kj in kcols[j]:
                    if bb < aa:
                        continue
                    prod = ki * kj
                    if dim.parity(i) * (dim.parity(j) + dim.parity(bb)) % 2:
                        prod = -prod
                    signed.append((aa, bb, prod))
        inner += [((aa, bb, k), prod * comp) for aa, bb, prod in signed]
    out = keyed_sums([((d, aa, bb), val * jf)
                      for (aa, bb, k), val in keyed_sums(inner).items()
                      for d, jf in jrows[k]])
    for (d, aa, bb), val in list(out.items()):
        if aa != bb:
            out[(d, bb, aa)] = val if dim.mirror_sign(aa, bb) > 0 else -val
    return {key: out[key] for key in sorted(out)}


def _substitute_comps(comps, inverse: Substitution):
    return {key: inverse(val) for key, val in comps.items()}


def transform_connection(gamma: Sym2Cov, c: CoordinateChange) -> Connection:
    """Connection coefficients in the new chart (functions of the new chart):
    the tensorial law applied to Gamma - F_c, where the cocycle F_c of
    `schwarzian_raw` is the inhomogeneous term of the connection law."""
    raw = _transform_core(gamma - schwarzian_raw(c), c)
    return Connection(gamma.dim, _substitute_comps(raw, c.require_inverse()))


def transform_sym2cov(a: Sym2Cov, c: CoordinateChange) -> Sym2Cov:
    """Purely tensorial transform of a (1,2)-tensor into the new chart."""
    raw = _transform_core(a, c)
    return Sym2Cov(a.dim, _substitute_comps(raw, c.require_inverse()), a.parity)


def transform_upper2(s: Sym2Upper, c: CoordinateChange) -> Sym2Upper:
    """Transform of S^ij into the new chart via the cotangent lift
    p_i = (d_i xbar^a) pbar_a; the raw coefficient
        raw^ab = (-1)^{b~(i~+a~)} S^ij J^b_j J^a_i
    is graded-symmetrized.  Walks the stored components of S and the
    nonzero Jacobian entries only."""
    dim = s.dim
    inverse = c.require_inverse()
    jrows = [[(aa, jf) for aa, jf in enumerate(row) if jf.terms]
             for row in jacobian_rows(c)]
    terms = []  # raw^ab at (a, b) and (-1)^{a~b~} raw^ab at (b, a)
    for (i, j), comp in s.comps.items():
        for bb, jb in jrows[j]:
            left = comp * jb
            for aa, ja in jrows[i]:
                term = left * ja
                if dim.parity(bb) * (dim.parity(i) + dim.parity(aa)) % 2:
                    term = -term
                mirror = term if dim.mirror_sign(aa, bb) > 0 else -term
                terms += [((aa, bb), term), ((bb, aa), mirror)]
    sym = keyed_sums(terms)
    half = Fraction(1, 2)
    return Sym2Upper(dim, _substitute_comps(
        {key: sym[key].scale(half) for key in sorted(sym)}, inverse), s.parity)


# ---------------------------------------------------------------------------
# super-Schwarzian derivative
# ---------------------------------------------------------------------------


def schwarzian_raw(c: CoordinateChange) -> Sym2Cov:
    """Second-derivative cocycle F^k_ij = (d_i d_j xbar^s) (dx^k/dxbar^s) in
    old coordinates (no trace projection): the inhomogeneous term of the
    connection law, whose trace is twice d log Ber."""
    dim = c.dim
    rows = jacobian_rows(c)
    kinv = inverse_jacobian_rows(c)
    size = dim.size
    second = {(i, j, s): rows[j][s].partial(i)
              for i in range(size) for j in range(size) for s in range(size)}
    kcols = [[(k, ks) for k, ks in enumerate(row) if ks.terms] for row in kinv]
    acc = keyed_sums([((k, i, j), d2 * ks) for (i, j, s), d2 in second.items()
                      if d2.terms for k, ks in kcols[s]])
    return Sym2Cov(dim, {key: acc[key] for key in sorted(acc)}, EVEN)


def super_schwarzian(c: CoordinateChange) -> Sym2Cov:
    """Schwarzian derivative: the trace-free part of the second-derivative
    cocycle, expressed in the old coordinates of the change."""
    if c.dim.n0 == -1:
        raise SingularDimension("n - m = -1: Schwarzian undefined")
    return Sym2Cov(c.dim, _trace_free(schwarzian_raw(c)), EVEN)


def schwarzian_defect(gamma: Sym2Cov, c: CoordinateChange) -> Sym2Cov:
    """The defect Pi(Gammabar) - (T(Pi Gamma) + S(c^-1)) of the projective
    class under c, in the new chart, for Gammabar the transformed Gamma and
    T the tensorial law: zero exactly when the super-Schwarzian of the
    inverse map is the inhomogeneous term of the law of the class.

    Checked in the old chart, where the raw law `_transform_core` leaves its
    results: c* maps the new chart's functions injectively into the old
    one's and commutes with the trace-free projection, so the defect is the
    image under the inverse map of
        Pi(T(Gamma - F_c)) - T(Pi Gamma) - c* S(c^-1),
    and only S(c^-1), computed from the inverse map's own Jacobian, is
    pulled back.  A nonzero defect is re-expressed in the new chart, as the
    route through `transform_connection` and `transform_sym2cov` gives it.
    """
    shifted = gamma - schwarzian_raw(c)
    inverse = c.require_inverse()
    dim = c.dim
    lhs = projective_class(Connection(dim, _transform_core(shifted, c)))
    tensorial = Sym2Cov(dim, _transform_core(projective_class(gamma), c), EVEN)
    pulled = Sym2Cov(dim, {key: c.pullback(val) for key, val in
                           super_schwarzian(c.inverted()).comps.items()}, EVEN)
    defect = lhs - (tensorial + pulled)
    if defect.is_zero():
        return defect
    return Sym2Cov(dim, _substitute_comps(defect.comps, inverse), EVEN)
