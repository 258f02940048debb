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

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Mapping

from . import densities
from .densities import (
    BracketTriple,
    DensityElement,
    contract_class,
    contract_lower,
    div_upper,
    div_vector,
    linear_combination,
    op_order,
    projective_laplacian,
)
from .errors import (
    Degenerate,
    DimensionMismatch,
    NonHomogeneous,
    WrongParity,
    WrongWeight,
)
from .geometry import ProjectiveClass, Sym2Upper
from .graded_algebra import (
    EVEN,
    ODD,
    Dimension,
    SuperFunction,
    keyed_sums,
    numer_denom,
    reciprocal,
)
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
    pf = F.parity()
    G.parity()  # refuses a mixed G, as the line above refuses a mixed F
    pdim = phase_dimension(dim)
    if F.dim is not pdim or G.dim is not pdim:
        raise DimensionMismatch("arguments must live on the phase dimension")
    terms = []
    for a in range(dim.size):
        pa = dim.parity(a)
        qi = coordinate_index(dim, a)
        pi_ = momentum_index(dim, a)
        terms.append((F.partial(pi_) * G.partial(qi)).scale((-1) ** (pa * (pf + 1))))
        terms.append((F.partial(qi) * G.partial(pi_)).scale(-(-1) ** (pa * pf)))
    return SuperFunction.sum(pdim, terms)


def master_hamiltonian(s: Sym2Upper) -> SuperFunction:
    """S = S^{ab} p_b p_a as a phase function."""
    dim = s.dim
    return SuperFunction.sum(phase_dimension(dim), [
        to_phase(val, dim) * momentum(dim, b) * momentum(dim, a)
        for (a, b), val in s.comps.items()])


def hamiltonian_bracket(s_phase: SuperFunction, f: SuperFunction,
                        g: SuperFunction, dim: Dimension) -> SuperFunction:
    """{f, g} = ((S, f), g), returned on the base dimension."""
    if not s_phase.is_zero() and momentum_degree(s_phase, dim) != 2:
        raise NonHomogeneous("master Hamiltonian must have momentum degree 2")
    F = to_phase(f, dim)
    G = to_phase(g, dim)
    inner = canonical_pb(s_phase, F, dim)
    return from_phase(canonical_pb(inner, G, dim), dim)


def jacobi_obstruction(s_phase: SuperFunction, dim: Dimension) -> SuperFunction:
    """(S, S); vanishes iff the derived odd bracket satisfies the shifted
    Jacobi identity."""
    if not s_phase.has_parity(ODD):
        raise NonHomogeneous("Jacobi obstruction needs an odd master Hamiltonian")
    if not s_phase.is_zero() and momentum_degree(s_phase, dim) != 2:
        raise NonHomogeneous("master Hamiltonian must have momentum degree 2")
    return canonical_pb(s_phase, s_phase, dim)


# ---------------------------------------------------------------------------
# conditions
# ---------------------------------------------------------------------------


def satisfied(conditions: Mapping[str, object]) -> bool:
    """Whether every condition of a check, each a SuperFunction or a
    DensityElement that is zero iff it holds, is zero."""
    return all(v.is_zero() for v in conditions.values())


# ---------------------------------------------------------------------------
# Batalin-Vilkovisky conditions
# ---------------------------------------------------------------------------


def bv_check(s: Sym2Upper, pi: ProjectiveClass) -> tuple:
    """(conditions, info) for the projective Laplacian of an odd bracket to
    square to zero, evaluated both by the displayed formulas and directly.

    T^i is the coefficient of d_i in the Laplacian (its second-order pieces
    leave no first-order terms).  Both flow
    conditions apply the Laplacian itself, S^kl d_l d_k + T^k d_k, to a
    coefficient: the first to T^i, the second to S^ij, with the dangling
    exponent of its printed form read as the parity of j.

    The direct route squares the Laplacian and tests the normal form for
    zero.  That is exact: the Laplacian has no w terms and no weight shift,
    so neither has its square, and a nonzero normal-ordered d^alpha operator
    is nonzero on some weight-0 density.
    """
    dim = s.dim
    if s.parity != ODD:
        raise WrongParity("BV check needs an odd bracket tensor")
    delta = projective_laplacian(s, pi)
    t_vec = {alpha.index(1): f for (alpha, _, _), f in delta.terms.items()
             if sum(alpha) == 1}

    def apply(f):
        return delta(DensityElement.of(f)).slice(0)

    zero = SuperFunction.zero(dim)
    conditions = {f"flow_of_T^{i + 1}": apply(t_vec.get(i, zero))
                  for i in range(dim.size)}
    flows = [(key, apply(val)) for key, val in s.comps.items()]
    for (a, k), s_ak in s.comps.items():
        # d_k T^b is read from T^b, which keeps it once taken
        for b, t_b in t_vec.items():
            if not (d := t_b.partial(k)).terms:
                continue
            term = s_ak * d
            # S^ik d_k T^j (-1)^{j~} at (i, j) = (a, b)
            flows.append(((a, b), -term if dim.parity(b) else term))
            # S^jk d_k T^i (-1)^{i~(j~+1)} at (i, j) = (b, a)
            flows.append(((b, a), -term if dim.parity(b) * (dim.parity(a) + 1) % 2
                          else term))
    flows = keyed_sums(flows)
    for i, j in sorted(flows):
        conditions[f"flow_of_S^{i + 1}{j + 1}"] = flows[i, j]
    # direct route: square the Laplacian
    delta2 = delta.compose(delta)
    square_zero = delta2.is_zero()
    formula = satisfied(conditions)
    return conditions, {"laplacian_square_zero": square_zero,
                        "formula_square_zero": formula,
                        "order_of_square": op_order(delta2),
                        "verdicts_agree": formula == square_zero}


# ---------------------------------------------------------------------------
# density bracket Jacobi conditions
# ---------------------------------------------------------------------------


def _odd_bracket(triple: BracketTriple, u: DensityElement, pu: int,
                 v: DensityElement) -> DensityElement:
    """[u,v] = (-1)^{u~} {u,v} for u of parity pu."""
    out = densities.bracket_from_triple(triple, u, v)
    return out.scale(-1) if pu % 2 else out


def _jacobi_combination(pa: int, pb: int, term1: DensityElement,
                        term2: DensityElement,
                        term3: DensityElement) -> DensityElement:
    """term1 - term2 - (-1)^{(a~+1)(b~+1)} term3 for term1 = [a,[b,c]],
    term2 = [[a,b],c] and term3 = [b,[a,c]]."""
    return term1 - term2 - term3.scale((-1) ** ((pa + 1) * (pb + 1)))


def jacobiator(triple: BracketTriple, a: DensityElement, b: DensityElement,
               c: DensityElement) -> DensityElement:
    """[a,[b,c]] - [[a,b],c] - (-1)^{(a~+1)(b~+1)} [b,[a,c]] for the odd
    bracket [u,v] = (-1)^{u~} {u,v}."""
    pa, pb = a.parity(), b.parity()
    ab = _odd_bracket(triple, a, pa, b)
    return _jacobi_combination(
        pa, pb,
        _odd_bracket(triple, a, pa, _odd_bracket(triple, b, pb, c)),
        _odd_bracket(triple, ab, ab.parity(), c),
        _odd_bracket(triple, b, pb, _odd_bracket(triple, a, pa, c)))


def jacobi_conditions(triple: BracketTriple) -> dict:
    """The four master-Hamiltonian obstructions of a weight-0 odd bracket
    on densities, each zero iff it holds; they all vanish iff the bracket
    satisfies the Jacobi identity."""
    if triple.weight != 0:
        raise WrongWeight("density Jacobi conditions require weight 0")
    if triple.eps != ODD:
        raise WrongParity("density Jacobi conditions require an odd bracket")
    dim = triple.dim
    s_ph = master_hamiltonian(triple.s)
    gamma_ph = SuperFunction.sum(phase_dimension(dim), [
        to_phase(g, dim) * momentum(dim, i) for i, g in triple.gamma.items()])
    theta_ph = to_phase(triple.theta, dim)
    # The relative weight 2 on (gamma,gamma) is forced by expanding the
    # master Hamiltonian of the extended chart, S + 2 gamma p0 + theta p0^2,
    # in powers of p0; direct Jacobi testing confirms it.
    return {
        "(S,S)": canonical_pb(s_ph, s_ph, dim),
        "(S,gamma)": canonical_pb(s_ph, gamma_ph, dim),
        "(S,theta)+2(gamma,gamma)": (
            canonical_pb(s_ph, theta_ph, dim)
            + canonical_pb(gamma_ph, gamma_ph, dim).scale(2)),
        "(gamma,theta)": canonical_pb(gamma_ph, theta_ph, dim),
    }


def density_jacobi_check(triple: BracketTriple) -> tuple:
    """(conditions, info): `jacobi_conditions`, cross-checked by direct
    Jacobi evaluation.

    The direct route is exact on sorted generator triples.
    `bracket_from_triple` is a closed form: each term is a product of a
    component of the triple with one first derivative of each argument,
    d_i f or the |Dx| exponent mu of a = f|Dx|^mu, and the same of b.  So
    the bracket is a graded-symmetric biderivation by construction
    (quotients and {a, |Dx|^mu} = mu |Dx|^{mu-1} {a, |Dx|} included), and
    its jacobiator is a derivation in each argument and totally
    graded-skew.  It therefore vanishes on all densities iff it vanishes on
    every triple a <= b <= c of the generators g = x^1 .. x^{n+m}, |Dx|:
    C(n+m+3, 3) evaluations, in that order, up to the first that fails.

    The inner brackets of those jacobiators are brackets of two
    generators, so the check computes the table T[p,q] = [g_p, g_q],
    p <= q, once, and each triple needs only its three outer brackets
    [g_a, T[b,c]], [T[a,b], g_c] and [g_b, T[a,c]].  An outer bracket whose
    table entry is zero is skipped: the bracket is bilinear, so that term
    is exactly zero.  The parities come from the dimension: g_p has the
    parity of x^p (|Dx| is even), and T[p,q] has parity p~ + q~ + 1."""
    conditions = jacobi_conditions(triple)
    dim = triple.dim
    generators = densities.generators(dim)
    parity = [dim.parity(i) for i in range(dim.size)] + [EVEN]
    table = {(p, q): _odd_bracket(triple, generators[p], parity[p], generators[q])
             for p, q in combinations_with_replacement(range(len(generators)), 2)}
    zero = DensityElement.zero(dim)

    def outer(u, pu, v):
        if u.is_zero() or v.is_zero():
            return zero
        return _odd_bracket(triple, u, pu, v)

    witness = None
    for a, b, c in combinations_with_replacement(range(len(generators)), 3):
        pa, pb = parity[a], parity[b]
        ga, gb, gc = generators[a], generators[b], generators[c]
        jac = _jacobi_combination(
            pa, pb,
            outer(ga, pa, table[b, c]),
            outer(table[a, b], pa + pb + 1, gc),
            outer(gb, pb, table[a, c]))
        if not jac.is_zero():
            witness = (ga, gb, gc)
            break
    direct = witness is None
    info = {
        "direct_jacobi_holds": direct,
        "verdicts_agree": direct == satisfied(conditions),
    }
    if witness is not None:
        info["jacobi_witness"] = witness
    return conditions, info


# ---------------------------------------------------------------------------
# nondegenerate case
# ---------------------------------------------------------------------------


def _body_matrix_invertible(s: Sym2Upper) -> bool:
    """Whether the matrix of bodies of S is invertible over QQ(x): its
    entries commute, so Gaussian elimination on the scalars decides it."""
    size = s.dim.size
    rows = [[s.component(i, j).body() for j in range(size)]
            for i in range(size)]
    for c in range(size):
        pivot = next((r for r in range(c, size) if rows[r][c]), None)
        if pivot is None:
            return False
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inv = reciprocal(rows[c][c])
        for r in range(c + 1, size):
            if rows[r][c]:
                f = rows[r][c] * inv
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return True


def _log_volume(s: Sym2Upper, rho: SuperFunction) -> tuple:
    """(d_j log rho by j, S^ij d_j log rho by i) for an even invertible
    volume form rho and a tensor S with an invertible body matrix; the
    second omits its zero entries."""
    if not rho.has_parity(EVEN) or not rho.body():
        raise Degenerate("volume form must be even and invertible")
    if not _body_matrix_invertible(s):
        raise Degenerate("bracket tensor has singular body matrix")
    inverse = rho.invert()
    dlog = [rho.partial(j) * inverse for j in range(s.dim.size)]
    return dlog, keyed_sums([(i, s_ij * dlog[j]) for (i, j), s_ij in s.comps.items()])


def symplectic_canonical_check(triple: BracketTriple,
                               rho: SuperFunction) -> tuple:
    """(conditions, info) for nondegenerate odd S: Jacobi holds iff
    (S,S) = 0, gamma^i = -S^{ij} d_j log rho and theta = gamma^k gamma_k
    with gamma_k = -d_k log rho."""
    if triple.eps != ODD:
        raise WrongParity("check requires an odd bracket")
    if triple.weight != 0:
        raise WrongWeight("check requires weight 0")
    dim = triple.dim
    dlog, s_dlog = _log_volume(triple.s, rho)
    s_ph = master_hamiltonian(triple.s)
    conditions = {"(S,S)": canonical_pb(s_ph, s_ph, dim)}
    for i in range(dim.size):
        gamma = triple.gamma_component(i)
        conditions[f"gamma^{i + 1}+S^{i + 1}j*dlog_j"] = (
            gamma + s_dlog[i] if i in s_dlog else gamma)
    # theta - gamma^k gamma_k with gamma_k = -d_k log rho
    conditions["theta-gamma^k*gamma_k"] = SuperFunction.sum(dim, [triple.theta] + [
        g * dlog[k] for k, g in triple.gamma.items()])
    return conditions, {}


def projective_poisson_check(s: Sym2Upper, pi: ProjectiveClass,
                             rho: SuperFunction) -> tuple:
    """(conditions, info) for the canonical density-bracket extension of a
    nondegenerate odd bracket to satisfy Jacobi, for the volume form rho;
    cross-validated by extending the bracket and testing its
    `jacobi_conditions`."""
    dim = s.dim
    if s.parity != ODD:
        raise WrongParity("check requires an odd bracket tensor")
    dlog, s_dlog = _log_volume(s, rho)
    n0 = dim.n0
    b = b_tensor(pi)
    # S is odd, so the signed divergences below carry no signs
    flatness = linear_combination((1, contract_class(s, pi)), (1, div_upper(s)),
                                  (Fraction(n0 + 3, n0 + 1), s_dlog))
    zero = SuperFunction.zero(dim)
    conditions = {f"volume_flatness^{i + 1}": flatness.get(i, zero)
                  for i in range(dim.size)}
    c2 = Fraction(n0 + 2, n0 + 1)
    conditions["scalar_curvature"] = SuperFunction.sum(dim, [
        contract_lower(s, b), div_vector(s_dlog, dim, ODD)] + [
        (s_ij * dlog[i] * dlog[j]).scale(c2 * (-1) ** dim.parity(j))
        for (i, j), s_ij in s.comps.items()])
    # dual path: extend and test the density Jacobi conditions
    dual = jacobi_conditions(extend_bracket(s, pi, Fraction(0)))
    return conditions, {"extension_jacobi_satisfied": satisfied(dual)}
