"""Canonical even Poisson bracket on the cotangent space, master
Hamiltonians, Jacobi obstructions, and the Batalin-Vilkovisky / odd Poisson
condition checkers.

Phase functions are plain :class:`SuperFunction` values over the doubled
dimension returned by :func:`phase_dimension`: the momentum conjugate to a
coordinate has the same parity and the name prefixed with ``p``.

The canonical bracket is fixed by (p_a, x^b) = delta_a^b, evenness, graded
antisymmetry, Leibniz and Jacobi; with left derivatives it reads

    (F, G) = sum_a [ (-1)^{a~(F~+1)} dF/dp_a dG/dx^a
                     - (-1)^{a~F~}   dF/dx^a dG/dp_a ].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .densities import (
    BracketTriple,
    DensityElement,
    bracket_from_triple,
    compose,
    contract_class,
    contract_lower,
    div_upper,
    div_vector,
    laplacian_vector,
    linear_combination,
    op_order,
    projective_laplacian,
)
from .errors import (
    Degenerate,
    DimensionMismatch,
    NonHomogeneous,
    NotInvertible,
    WrongParity,
    WrongWeight,
)
from .geometry import ProjectiveClass, Sym2Upper, _eliminate
from .graded_algebra import EVEN, ODD, Dimension, SuperFunction, numer_denom
from .thomas import b_tensor, extend_bracket

# ---------------------------------------------------------------------------
# phase space
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def phase_dimension(dim: Dimension) -> Dimension:
    """The cotangent dimension: momenta double every coordinate."""
    return Dimension(
        dim.even_names + tuple("p" + s for s in dim.even_names),
        dim.odd_names + tuple("p" + s for s in dim.odd_names),
    )


def to_phase(f: SuperFunction, dim: Dimension) -> SuperFunction:
    return f.migrate(phase_dimension(dim))


def from_phase(F: SuperFunction, dim: Dimension) -> SuperFunction:
    """Restrict a momentum-independent phase function to the base."""
    return F.migrate(dim)


def coordinate_index(dim: Dimension, a: int) -> int:
    """Phase index of base coordinate a."""
    return a if a < dim.n else dim.n + a


def momentum_index(dim: Dimension, a: int) -> int:
    """Phase index of the momentum conjugate to base coordinate a."""
    return dim.n + a if a < dim.n else dim.n + dim.m + a


def momentum(dim: Dimension, a: int) -> SuperFunction:
    return SuperFunction.coordinate(phase_dimension(dim), momentum_index(dim, a))


def momentum_degree(F: SuperFunction, dim: Dimension) -> int:
    """Total degree in the momentum variables (requires polynomial
    dependence on them)."""
    even_p = range(dim.n, 2 * dim.n)
    odd_p = range(dim.m, 2 * dim.m)
    deg = 0
    for key, coeff in F.terms.items():
        num, den = numer_denom(coeff)
        for monom, _ in den.terms():
            if any(monom[i] for i in even_p):
                raise NonHomogeneous("phase function not polynomial in momenta")
        odd_count = sum(1 for slot in key if slot in odd_p)
        for monom, _ in num.terms():
            deg = max(deg, odd_count + sum(monom[i] for i in even_p))
    return deg


# ---------------------------------------------------------------------------
# the canonical even Poisson bracket
# ---------------------------------------------------------------------------


def canonical_pb(F: SuperFunction, G: SuperFunction,
                 dim: Dimension) -> SuperFunction:
    """Canonical even Poisson bracket on the cotangent space."""
    for arg in (F, G):
        if not arg.is_homogeneous():
            raise NonHomogeneous("canonical bracket needs homogeneous arguments")
    pf = int(F.parity()) if not F.is_zero() else 0
    pdim = phase_dimension(dim)
    if F.dim != pdim or G.dim != pdim:
        raise DimensionMismatch("arguments must live on the phase dimension")
    out = SuperFunction.zero(pdim)
    for a in range(dim.size):
        pa = dim.parity(a)
        qi = coordinate_index(dim, a)
        pi_ = momentum_index(dim, a)
        s1 = (-1) ** (pa * (pf + 1))
        s2 = (-1) ** (pa * pf)
        t1 = F.partial(pi_) * G.partial(qi)
        t2 = F.partial(qi) * G.partial(pi_)
        out = out + t1.scale(s1) - t2.scale(s2)
    return out


def master_hamiltonian(s: Sym2Upper) -> SuperFunction:
    """S = S^{ab} p_b p_a as a phase function."""
    dim = s.dim
    total = SuperFunction.zero(phase_dimension(dim))
    for (a, b), val in s.comps.items():
        total = total + to_phase(val, dim) * momentum(dim, b) * momentum(dim, a)
    return total


def hamiltonian_bracket(s_phase: SuperFunction, f: SuperFunction,
                        g: SuperFunction, dim: Dimension) -> SuperFunction:
    """{f, g} = ((S, f), g), returned on the base dimension."""
    if not s_phase.is_zero() and momentum_degree(s_phase, dim) != 2:
        raise NonHomogeneous("master Hamiltonian must have momentum degree 2")
    F = to_phase(f, dim)
    G = to_phase(g, dim)
    inner = canonical_pb(s_phase, F, dim)
    return from_phase(canonical_pb(inner, G, dim), dim)


def odd_from_symmetric(a: SuperFunction, value: DensityElement | SuperFunction):
    """[a, .] = (-1)^{a~} {a, .} applied to an already-computed bracket value."""
    sign = (-1) ** int(a.parity())
    return value.scale(sign)


def symmetric_from_odd(a: SuperFunction, value):
    """Inverse of `odd_from_symmetric` (the same sign)."""
    return odd_from_symmetric(a, value)


def jacobi_obstruction(s_phase: SuperFunction, dim: Dimension) -> SuperFunction:
    """(S, S); vanishes iff the derived odd bracket satisfies the shifted
    Jacobi identity."""
    if not s_phase.has_parity(ODD):
        raise NonHomogeneous("Jacobi obstruction needs an odd master Hamiltonian")
    if not s_phase.is_zero() and momentum_degree(s_phase, dim) != 2:
        raise NonHomogeneous("master Hamiltonian must have momentum degree 2")
    return canonical_pb(s_phase, s_phase, dim)


# ---------------------------------------------------------------------------
# condition reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    """Named obstruction expressions; satisfied iff all normalize to zero.

    ``info`` carries secondary cross-check verdicts (boolean or numeric)
    that do not enter ``satisfied``.
    """

    title: str
    conditions: Mapping[str, object]
    info: Mapping[str, object] = field(default_factory=dict)

    @property
    def satisfied(self) -> bool:
        return all(v.is_zero() for v in self.conditions.values())

    def residuals(self) -> dict:
        return {k: v for k, v in self.conditions.items() if not v.is_zero()}


# ---------------------------------------------------------------------------
# Batalin-Vilkovisky conditions
# ---------------------------------------------------------------------------


def _second_order_action(s: Sym2Upper, t_vec: dict, f: SuperFunction):
    """(S^{jk} d_k d_j + T^j d_j) f."""
    dim = s.dim
    acc = SuperFunction.zero(dim)
    for (j, k), val in s.comps.items():
        acc = acc + val * f.partial(k).partial(j)
    for j, tv in t_vec.items():
        acc = acc + tv * f.partial(j)
    return acc


def bv_check(s: Sym2Upper, pi: ProjectiveClass) -> ConditionReport:
    """Conditions for the projective Laplacian of an odd bracket to square
    to zero, evaluated both by the displayed formulas and directly.

    T^i is the first-order coefficient of the Laplacian; the first condition
    is read as the operator applied to T^i, the second as printed with the
    dangling exponent read as the parity of j.

    The direct route squares the Laplacian and tests the normal form for
    zero.  That is exact: the Laplacian has no w terms and no weight shift,
    so neither has its square, and a nonzero normal-ordered d^alpha operator
    is nonzero on some weight-0 density.
    """
    dim = s.dim
    if s.parity != ODD:
        raise WrongParity("BV check needs an odd bracket tensor")
    t_vec = laplacian_vector(s, pi)
    conditions = {}
    for i in range(dim.size):
        ti = t_vec.get(i, SuperFunction.zero(dim))
        conditions[f"flow_of_T^{i + 1}"] = _second_order_action(s, t_vec, ti)
    for i in range(dim.size):
        for j in range(dim.size):
            s_ij = s.component(i, j)
            acc = _second_order_action(s, t_vec, s_ij)
            for k in range(dim.size):
                s_ik = s.component(i, k)
                s_jk = s.component(j, k)
                ti = t_vec.get(i, SuperFunction.zero(dim))
                tj = t_vec.get(j, SuperFunction.zero(dim))
                if not s_ik.is_zero():
                    sign = (-1) ** dim.parity(j)
                    acc = acc + (s_ik * tj.partial(k)).scale(sign)
                if not s_jk.is_zero():
                    sign = (-1) ** (dim.parity(i) * (dim.parity(j) + 1))
                    acc = acc + (s_jk * ti.partial(k)).scale(sign)
            if not acc.is_zero():
                conditions[f"flow_of_S^{i + 1}{j + 1}"] = acc
    if not conditions:
        conditions["flow"] = SuperFunction.zero(dim)
    # direct route: square the Laplacian
    delta = projective_laplacian(s, pi)
    delta2 = compose(delta, delta)
    square_zero = delta2.is_zero()
    report_info = {
        "laplacian_square_zero": square_zero,
        "formula_square_zero": all(v.is_zero() for v in conditions.values()),
        "order_of_square": op_order(delta2),
    }
    report_info["verdicts_agree"] = (
        report_info["formula_square_zero"] == square_zero)
    return ConditionReport("batalin-vilkovisky", conditions, report_info)


# ---------------------------------------------------------------------------
# density bracket Jacobi conditions
# ---------------------------------------------------------------------------


def _triple_hamiltonians(triple: BracketTriple):
    dim = triple.dim
    s_ph = master_hamiltonian(triple.s)
    gamma_ph = SuperFunction.zero(phase_dimension(dim))
    for i, g in triple.gamma.items():
        gamma_ph = gamma_ph + to_phase(g, dim) * momentum(dim, i)
    theta_ph = to_phase(triple.theta, dim)
    return s_ph, gamma_ph, theta_ph


def _default_jacobi_family(dim: Dimension):
    out = []
    for i in range(dim.size):
        out.append(DensityElement.of(SuperFunction.coordinate(dim, i)))
    out.append(DensityElement.volume(dim))
    x1 = SuperFunction.coordinate(dim, 0)
    th = SuperFunction.coordinate(dim, dim.n) if dim.m else x1
    out.append(DensityElement.of(x1 * th))
    out.append(DensityElement.of(th, Fraction(1, 2)))
    return out


def jacobiator(triple: BracketTriple, a: DensityElement, b: DensityElement,
               c: DensityElement) -> DensityElement:
    """[a,[b,c]] - [[a,b],c] - (-1)^{(a~+1)(b~+1)} [b,[a,c]] for the odd
    bracket [u,v] = (-1)^{u~} {u,v}."""

    def odd_bracket(u, v):
        return bracket_from_triple(triple, u, v).scale((-1) ** int(u.parity()))

    pa, pb = int(a.parity()), int(b.parity())
    term1 = odd_bracket(a, odd_bracket(b, c))
    term2 = odd_bracket(odd_bracket(a, b), c)
    term3 = odd_bracket(b, odd_bracket(a, c)).scale((-1) ** ((pa + 1) * (pb + 1)))
    return term1 - term2 - term3


def density_jacobi_check(triple: BracketTriple) -> ConditionReport:
    """The four master-Hamiltonian obstructions for a weight-0 odd bracket
    on densities, cross-checked by direct Jacobi evaluation."""
    if triple.weight != 0:
        raise WrongWeight("density Jacobi conditions require weight 0")
    if triple.eps != ODD:
        raise WrongParity("density Jacobi conditions require an odd bracket")
    dim = triple.dim
    s_ph, gamma_ph, theta_ph = _triple_hamiltonians(triple)
    # The relative weight 2 on (gamma,gamma) is forced by expanding the
    # master Hamiltonian of the extended chart, S + 2 gamma p0 + theta p0^2,
    # in powers of p0; direct Jacobi testing confirms it.
    conditions = {
        "(S,S)": canonical_pb(s_ph, s_ph, dim),
        "(S,gamma)": canonical_pb(s_ph, gamma_ph, dim),
        "(S,theta)+2(gamma,gamma)": (
            canonical_pb(s_ph, theta_ph, dim)
            + canonical_pb(gamma_ph, gamma_ph, dim).scale(2)),
        "(gamma,theta)": canonical_pb(gamma_ph, theta_ph, dim),
    }
    family = _default_jacobi_family(dim)
    witness = next(((a, b, c) for a in family for b in family for c in family
                    if not jacobiator(triple, a, b, c).is_zero()), None)
    direct = witness is None
    info = {
        "direct_jacobi_holds": direct,
        "verdicts_agree": direct == all(v.is_zero() for v in conditions.values()),
    }
    if witness is not None:
        info["jacobi_witness"] = witness
    return ConditionReport("density-jacobi", conditions, info)


# ---------------------------------------------------------------------------
# nondegenerate case
# ---------------------------------------------------------------------------


def _body_matrix_invertible(s: Sym2Upper) -> bool:
    dim = s.dim
    size = dim.size
    rows = [[SuperFunction(dim, {(): s.component(i, j).body()})
             for j in range(size)] for i in range(size)]
    try:  # the bodies commute, so any layout of parities will do
        _eliminate(rows, dim)
    except NotInvertible:
        return False
    return True


def _dlog(rho: SuperFunction, i: int) -> SuperFunction:
    """d_i log rho computed as (d_i rho) rho^{-1}."""
    return rho.partial(i) * rho.invert()


def symplectic_canonical_check(triple: BracketTriple,
                               rho: SuperFunction) -> ConditionReport:
    """For nondegenerate odd S: Jacobi holds iff (S,S) = 0,
    gamma^i = -S^{ij} d_j log rho and theta = gamma^k gamma_k with
    gamma_k = -d_k log rho."""
    if triple.eps != ODD:
        raise WrongParity("check requires an odd bracket")
    if triple.weight != 0:
        raise WrongWeight("check requires weight 0")
    dim = triple.dim
    if not rho.has_parity(EVEN) or not rho.body():
        raise Degenerate("volume form must be even and invertible")
    if not _body_matrix_invertible(triple.s):
        raise Degenerate("bracket tensor has singular body matrix")
    s_ph, _, _ = _triple_hamiltonians(triple)
    conditions = {"(S,S)": canonical_pb(s_ph, s_ph, dim)}
    dlog = {j: _dlog(rho, j) for j in range(dim.size)}
    for i in range(dim.size):
        acc = triple.gamma_component(i)
        for j in range(dim.size):
            val = triple.s.component(i, j)
            if val.is_zero():
                continue
            acc = acc + val * dlog[j]
        conditions[f"gamma^{i + 1}+S^{i + 1}j*dlog_j"] = acc
    lower = {k: dlog[k].scale(-1) for k in range(dim.size)}
    theta_want = SuperFunction.zero(dim)
    for k in range(dim.size):
        theta_want = theta_want + triple.gamma_component(k) * lower[k]
    conditions["theta-gamma^k*gamma_k"] = triple.theta - theta_want
    return ConditionReport("odd-symplectic-canonical", conditions)


def projective_poisson_check(s: Sym2Upper, pi: ProjectiveClass,
                             rho: SuperFunction) -> ConditionReport:
    """Conditions for the canonical density-bracket extension of a
    nondegenerate odd bracket to satisfy Jacobi, for the volume form rho;
    cross-validated by extending the bracket and running the density Jacobi
    check."""
    dim = s.dim
    if s.parity != ODD:
        raise WrongParity("check requires an odd bracket tensor")
    if not rho.has_parity(EVEN) or not rho.body():
        raise Degenerate("volume form must be even and invertible")
    if not _body_matrix_invertible(s):
        raise Degenerate("bracket tensor has singular body matrix")
    n0 = dim.n0
    b = b_tensor(pi)
    dlog = {j: _dlog(rho, j) for j in range(dim.size)}
    s_dlog = {i: SuperFunction.zero(dim) for i in range(dim.size)}
    for (i, j), s_ij in s.comps.items():
        s_dlog[i] = s_dlog[i] + s_ij * dlog[j]
    # S is odd, so the signed divergences below carry no signs
    flatness = linear_combination((1, contract_class(s, pi)), (1, div_upper(s)),
                                  (Fraction(n0 + 3, n0 + 1), s_dlog))
    zero = SuperFunction.zero(dim)
    conditions = {f"volume_flatness^{i + 1}": flatness.get(i, zero)
                  for i in range(dim.size)}
    acc = contract_lower(s, b) + div_vector(s_dlog, dim, ODD)
    c2 = Fraction(n0 + 2, n0 + 1)
    for (i, j), s_ij in s.comps.items():
        sign = (-1) ** dim.parity(j)
        acc = acc + (s_ij * dlog[i] * dlog[j]).scale(c2 * sign)
    conditions["scalar_curvature"] = acc
    # dual path: extend and test the density Jacobi conditions
    extended = extend_bracket(s, pi, Fraction(0))
    dual = density_jacobi_check(extended)
    info = {
        "extension_jacobi_satisfied": dual.satisfied,
        "extension_report": dual,
    }
    return ConditionReport("projective-odd-poisson", conditions, info)
