"""Supermatrices, Berezinians, coordinate changes, connections and the
multidimensional super-Schwarzian derivative.

Index conventions used throughout (and by `densities`/`thomas`):

* A symmetric (1,2)-tensor stores ``comps[(k, i, j)] = A^k_ij`` where the
  subscripts are in written order; graded symmetry reads
  ``A^k_ij = (-1)^{i~j~} A^k_ji`` and the component parity is
  ``i~ + j~ + k~ + parity`` for a tensor of overall ``parity``.
* ``div_trace(A)_i = 2 sum_j A^j_ij (-1)^{j~(1+parity)}`` -- the supertrace
  pairing the upper index with the second written subscript.
* ``j_inject`` is normalized so that ``div_trace(j_inject(phi))`` equals
  ``(n - m + 1) phi`` exactly, for either overall parity.
* A 2-upper-index tensor stores ``comps[(i, j)] = S^ij`` with
  ``S^ij = (-1)^{i~j~} S^ji`` and component parity ``i~ + j~ + parity``.
* Coordinate frames transform by ``d_i = (d_i xbar^a) dbar_a`` with the
  Jacobian factor multiplying from the left (left derivatives); momenta by
  ``p_i = (d_i xbar^a) pbar_a``.

Supermatrix inverses and Berezinians come from one Gauss-Jordan elimination;
a `CoordinateChange` keeps the Jacobian grid and the inverse it computes
while validating.  The second-derivative cocycle ``F_c`` (`schwarzian_raw`)
is the inhomogeneous term of the connection law: a connection transforms by
the tensorial law of ``Gamma - F_c``, ``d log Ber`` is half the trace of
``F_c``, and the super-Schwarzian is its trace-free part.

All operations are pure; every value is immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional

from .errors import (
    DimensionMismatch,
    NonHomogeneous,
    NotInvertible,
    SingularDimension,
    ValidationError,
)
from .graded_algebra import EVEN, Dimension, Parity, SuperFunction

# ---------------------------------------------------------------------------
# tensors with function components
# ---------------------------------------------------------------------------


def _as_map(dim, comps) -> dict:
    out = {}
    for key, val in comps.items():
        if not isinstance(val, SuperFunction):
            raise ValidationError(f"component {key} is not a SuperFunction")
        if val.dim != dim:
            raise DimensionMismatch(f"component {key} over {val.dim}, expected {dim}")
        if not val.is_zero():
            out[key] = val
    return out


@dataclass(frozen=True)
class CovectorField:
    """phi = e^i phi_i with component parity i~ + parity."""

    dim: Dimension
    comps: Mapping[int, SuperFunction]
    parity: int = EVEN

    def __post_init__(self):
        object.__setattr__(self, "comps", _as_map(self.dim, dict(self.comps)))
        for i, val in self.comps.items():
            if not val.has_parity(self.dim.parity(i) + self.parity):
                raise ValidationError(
                    f"covector component {i} violates parity homogeneity")

    def component(self, i: int) -> SuperFunction:
        return self.comps.get(i, SuperFunction.zero(self.dim))

    def is_zero(self) -> bool:
        return not self.comps

    def __eq__(self, other):
        return (
            isinstance(other, CovectorField)
            and self.dim == other.dim
            and dict(self.comps) == dict(other.comps)
        )


class Sym2Cov:
    """Element of Sigma^2 V* (x) V with function coefficients A^k_ij."""

    __slots__ = ("dim", "comps", "parity")

    def __init__(self, dim: Dimension, comps: Mapping[tuple, SuperFunction],
                 parity: int = EVEN):
        comps = _as_map(dim, dict(comps))
        for (k, i, j), val in comps.items():
            want = Parity(dim.parity(i) + dim.parity(j) + dim.parity(k) + parity)
            if not val.has_parity(want):
                raise ValidationError(
                    f"component ({k},{i},{j}) violates parity homogeneity")
        for (k, i, j), val in comps.items():
            sign = -1 if dim.parity(i) and dim.parity(j) else 1
            mirror = comps.get((k, j, i), SuperFunction.zero(dim))
            if not (val - mirror.scale(sign)).is_zero():
                raise ValidationError(
                    f"graded symmetry fails at ({k},{i},{j})")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "comps", comps)
        object.__setattr__(self, "parity", parity)

    def __setattr__(self, *_):
        raise AttributeError("immutable")

    def component(self, k: int, i: int, j: int) -> SuperFunction:
        return self.comps.get((k, i, j), SuperFunction.zero(self.dim))

    def is_zero(self) -> bool:
        return not self.comps

    def __add__(self, other: "Sym2Cov") -> "Sym2Cov":
        if self.dim != other.dim or self.parity != other.parity:
            raise DimensionMismatch("tensor mismatch in addition")
        out = dict(self.comps)
        for key, val in other.comps.items():
            out[key] = out.get(key, SuperFunction.zero(self.dim)) + val
        return Sym2Cov(self.dim, out, self.parity)

    def __sub__(self, other: "Sym2Cov") -> "Sym2Cov":
        return self + other.scale(Fraction(-1))

    def scale(self, q) -> "Sym2Cov":
        return Sym2Cov(
            self.dim, {key: val.scale(q) for key, val in self.comps.items()},
            self.parity)

    def __eq__(self, other):
        return (
            isinstance(other, Sym2Cov)
            and self.dim == other.dim
            and self.parity == other.parity
            and self.comps == other.comps
        )

    def __hash__(self):
        return hash((self.dim, self.parity, frozenset(self.comps.items())))


class Connection(Sym2Cov):
    """Symmetric linear connection coefficients Gamma^k_ij (even tensor)."""

    def __init__(self, dim, comps):
        super().__init__(dim, comps, EVEN)


class ProjectiveClass(Sym2Cov):
    """Trace-free connection-type coefficients Pi^k_ij."""

    def __init__(self, dim, comps):
        super().__init__(dim, comps, EVEN)
        residual = div_trace(self)
        if not residual.is_zero():
            raise ValidationError("projective class is not trace-free")


class Sym2Upper:
    """Graded-symmetric 2-upper-index tensor S^ij (stored comps[(i, j)])."""

    __slots__ = ("dim", "comps", "parity")

    def __init__(self, dim: Dimension, comps: Mapping[tuple, SuperFunction],
                 parity: int = EVEN):
        comps = _as_map(dim, dict(comps))
        for (i, j), val in comps.items():
            want = Parity(dim.parity(i) + dim.parity(j) + parity)
            if not val.has_parity(want):
                raise ValidationError(
                    f"component ({i},{j}) violates parity homogeneity")
            sign = -1 if dim.parity(i) and dim.parity(j) else 1
            mirror = comps.get((j, i), SuperFunction.zero(dim))
            if not (val - mirror.scale(sign)).is_zero():
                raise ValidationError(f"graded symmetry fails at ({i},{j})")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "comps", comps)
        object.__setattr__(self, "parity", parity)

    def __setattr__(self, *_):
        raise AttributeError("immutable")

    def component(self, i: int, j: int) -> SuperFunction:
        return self.comps.get((i, j), SuperFunction.zero(self.dim))

    def is_zero(self) -> bool:
        return not self.comps

    def __eq__(self, other):
        return (
            isinstance(other, Sym2Upper)
            and self.dim == other.dim
            and self.parity == other.parity
            and self.comps == other.comps
        )

    def __hash__(self):
        return hash((self.dim, self.parity, frozenset(self.comps.items())))


# ---------------------------------------------------------------------------
# div, j and the trace-free projection
# ---------------------------------------------------------------------------


def div_trace(a: Sym2Cov) -> CovectorField:
    """Supertrace div(A)_i = 2 A^j_ij (-1)^{j~(1+parity)} (summed over j)."""
    dim = a.dim
    comps = {}
    for i in range(dim.size):
        total = SuperFunction.zero(dim)
        for j in range(dim.size):
            val = a.component(j, i, j)
            if val.is_zero():
                continue
            sign = (-1) ** (dim.parity(j) * (1 + a.parity))
            total = total + val.scale(2 * sign)
        comps[i] = total
    return CovectorField(dim, comps, a.parity)


def j_inject(phi: CovectorField) -> Sym2Cov:
    """Natural injection phi -> phi v e^i (x) e_i, normalized so that
    div_trace o j_inject = (n - m + 1) id exactly."""
    dim = phi.dim
    eps = phi.parity
    half = Fraction(1, 2)
    comps: dict[tuple, SuperFunction] = {}
    for k in range(dim.size):
        for i in range(dim.size):
            for j in range(dim.size):
                total = SuperFunction.zero(dim)
                if k == i:
                    sign = (-1) ** ((dim.parity(j) + eps) * dim.parity(i))
                    total = total + phi.component(j).scale(sign)
                if k == j:
                    sign = (-1) ** (eps * dim.parity(j))
                    total = total + phi.component(i).scale(sign)
                if not total.is_zero():
                    comps[(k, i, j)] = total.scale(half)
    return Sym2Cov(dim, comps, eps)


def _trace_free(a: Sym2Cov) -> Sym2Cov:
    """A - j(div A)/(n - m + 1); callers rule out n - m = -1."""
    return a + j_inject(div_trace(a)).scale(Fraction(-1, a.dim.n0 + 1))


def projective_class(gamma: Sym2Cov) -> ProjectiveClass:
    """Trace-free part Gamma - j(div Gamma)/(n - m + 1)."""
    if gamma.dim.n0 == -1:
        raise SingularDimension("n - m = -1: trace projection undefined")
    return ProjectiveClass(gamma.dim, _trace_free(gamma).comps)


def projectively_equivalent(g1: Connection, g2: Connection) -> bool:
    """True iff both connections have the same projective class."""
    return projective_class(g1) == projective_class(g2)


# ---------------------------------------------------------------------------
# supermatrices
# ---------------------------------------------------------------------------


class SuperMatrix:
    """Square even supermatrix indexed by the coordinates of a Dimension.

    Entry (r, c) must be homogeneous of parity r~ + c~.
    """

    __slots__ = ("dim", "entries")

    def __init__(self, dim: Dimension, entries: Mapping[tuple, SuperFunction]):
        clean = _as_map(dim, dict(entries))
        for (r, c), val in clean.items():
            if not val.has_parity(dim.parity(r) + dim.parity(c)):
                raise ValidationError(f"matrix entry ({r},{c}) violates parity")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "entries", clean)

    def __setattr__(self, *_):
        raise AttributeError("immutable")

    @staticmethod
    def identity(dim: Dimension) -> "SuperMatrix":
        one = SuperFunction.one(dim)
        return SuperMatrix(dim, {(i, i): one for i in range(dim.size)})

    def entry(self, r: int, c: int) -> SuperFunction:
        return self.entries.get((r, c), SuperFunction.zero(self.dim))

    def __mul__(self, other: "SuperMatrix") -> "SuperMatrix":
        if self.dim != other.dim:
            raise DimensionMismatch("matrix dimensions differ")
        size = self.dim.size
        out = {}
        for r in range(size):
            for c in range(size):
                acc = SuperFunction.zero(self.dim)
                for k in range(size):
                    acc = acc + self.entry(r, k) * other.entry(k, c)
                if not acc.is_zero():
                    out[(r, c)] = acc
        return SuperMatrix(self.dim, out)

    def __eq__(self, other):
        return (
            isinstance(other, SuperMatrix)
            and self.dim == other.dim
            and self.entries == other.entries
        )


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
    grid = [[mat.entry(r, c) for c in range(size)] for r in range(size)]
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
    change, are kept (see `jacobian_rows`, `inverse_jacobian_rows`).
    """

    dim: Dimension
    forward: tuple
    inverse: Optional[tuple] = None
    _jacobian: tuple = field(init=False, repr=False, compare=False)
    _inverse_jacobian: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.forward) != self.dim.size:
            raise ValidationError("forward tuple has wrong length")
        for a, val in enumerate(self.forward):
            if val.dim != self.dim:
                raise DimensionMismatch("forward component over wrong dimension")
            if not val.has_parity(self.dim.parity(a)):
                raise NonHomogeneous(f"forward component {a} has wrong parity")
        size = self.dim.size
        jac = tuple(tuple(self.forward[a].partial(i) for a in range(size))
                    for i in range(size))
        kinv, _ = _eliminate(jac, self.dim)
        object.__setattr__(self, "_jacobian", jac)
        object.__setattr__(self, "_inverse_jacobian", kinv)
        if self.inverse is not None:
            if len(self.inverse) != self.dim.size:
                raise ValidationError("inverse tuple has wrong length")
            for a, val in enumerate(self.inverse):
                if not val.has_parity(self.dim.parity(a)):
                    raise NonHomogeneous(f"inverse component {a} has wrong parity")
            for a in range(self.dim.size):
                coord = SuperFunction.coordinate(self.dim, a)
                if self.inverse[a].substitute(self.forward) != coord:
                    raise ValidationError(
                        f"inverse o forward is not the identity at coordinate {a}")
                if self.forward[a].substitute(self.inverse) != coord:
                    raise ValidationError(
                        f"forward o inverse is not the identity at coordinate {a}")

    @staticmethod
    def identity(dim: Dimension) -> "CoordinateChange":
        coords = tuple(SuperFunction.coordinate(dim, a) for a in range(dim.size))
        return CoordinateChange(dim, coords, coords)

    def require_inverse(self):
        if self.inverse is None:
            raise NotInvertible("coordinate change lacks an explicit inverse map")
        return self.inverse

    def inverted(self) -> "CoordinateChange":
        return CoordinateChange(self.dim, self.require_inverse(), self.forward)

    def then(self, second: "CoordinateChange") -> "CoordinateChange":
        """The composite change x -> second(self(x))."""
        if self.dim != second.dim:
            raise DimensionMismatch("composing changes over different dimensions")
        fwd = tuple(expr.substitute(self.forward) for expr in second.forward)
        inv = None
        if self.inverse is not None and second.inverse is not None:
            inv = tuple(expr.substitute(second.inverse) for expr in self.inverse)
        return CoordinateChange(self.dim, fwd, inv)

    def pullback(self, f: SuperFunction) -> SuperFunction:
        """Express a function of the new chart in the old one (f o forward)."""
        return f.substitute(self.forward)

    def pushforward(self, f: SuperFunction) -> SuperFunction:
        """Express a function of the old chart in the new one (needs inverse)."""
        return f.substitute(self.require_inverse())


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
    """
    dim = a.dim
    rows = jacobian_rows(c)
    kinv = inverse_jacobian_rows(c)
    size = dim.size
    out = {}
    for d in range(size):
        for aa in range(size):
            for bb in range(size):
                acc = SuperFunction.zero(dim)
                for k in range(size):
                    jf = rows[k][d]
                    if jf.is_zero():
                        continue
                    inner = SuperFunction.zero(dim)
                    for i in range(size):
                        ki = kinv[aa][i]
                        if ki.is_zero():
                            continue
                        for j in range(size):
                            comp = a.component(k, i, j)
                            if comp.is_zero():
                                continue
                            sign = (-1) ** (dim.parity(i)
                                            * (dim.parity(j) + dim.parity(bb)))
                            inner = inner + (ki * kinv[bb][j] * comp).scale(sign)
                    acc = acc + inner * jf
                if not acc.is_zero():
                    out[(d, aa, bb)] = acc
    return out


def _substitute_comps(comps, inverse):
    return {key: val.substitute(inverse) for key, val in comps.items()}


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
    p_i = (d_i xbar^a) pbar_a; the raw coefficient is graded-symmetrized."""
    dim = s.dim
    rows = jacobian_rows(c)
    inverse = c.require_inverse()
    size = dim.size
    raw = {}
    for aa in range(size):
        for bb in range(size):
            acc = SuperFunction.zero(dim)
            for i in range(size):
                for j in range(size):
                    comp = s.component(i, j)
                    if comp.is_zero():
                        continue
                    jb = rows[j][bb]
                    ja = rows[i][aa]
                    if jb.is_zero() or ja.is_zero():
                        continue
                    sign = (-1) ** (dim.parity(bb)
                                    * (dim.parity(i) + dim.parity(aa)))
                    acc = acc + (comp * jb * ja).scale(sign)
            raw[(aa, bb)] = acc
    half = Fraction(1, 2)
    sym = {}
    for aa in range(size):
        for bb in range(size):
            sign = -1 if dim.parity(aa) and dim.parity(bb) else 1
            val = (raw[(aa, bb)] + raw[(bb, aa)].scale(sign)).scale(half)
            if not val.is_zero():
                sym[(aa, bb)] = val
    return Sym2Upper(dim, _substitute_comps(sym, inverse), s.parity)


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
    comps = {}
    for k in range(size):
        for i in range(size):
            for j in range(size):
                acc = SuperFunction.zero(dim)
                for s in range(size):
                    second = rows[j][s].partial(i)
                    if second.is_zero():
                        continue
                    acc = acc + second * kinv[s][k]
                if not acc.is_zero():
                    comps[(k, i, j)] = acc
    return Sym2Cov(dim, comps, EVEN)


def super_schwarzian(c: CoordinateChange) -> Sym2Cov:
    """Schwarzian derivative: the trace-free part of the second-derivative
    cocycle, expressed in the old coordinates of the change."""
    if c.dim.n0 == -1:
        raise SingularDimension("n - m = -1: Schwarzian undefined")
    return _trace_free(schwarzian_raw(c))
