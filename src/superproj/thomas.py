"""Extension of the base supermanifold by a volume coordinate: lifted
connections and projective classes, the curvature-like lower tensor, the
extension operator for brackets, and the weight-dependent completion of a
tensor to a bracket triple.

The extended chart adds one even coordinate ``x0`` in front of the base
ones; Gothic index g = 0 is ``x0`` and g >= 1 is base coordinate g - 1.
Functions of the form ``f(x) e^{w x0}`` are identified with weight-w
densities, so ``d_0`` acts as the weight operator and no symbolic
exponential ever appears.

Sign conventions settled by the consistency requirement
``canonical_operator(extend_bracket(S, Pi)) == extension_operator``:

* the lifted class satisfies Pi~^k_{j0} = -delta^k_j / ((n0+1)(n0+2))
  (the sign is forced by trace-freeness in the extended dimension);
* the lower tensor entering the extension operator and theta is the
  x0-row of the lifted connection,
  G0_kj = (n0+1)/(n0-1) (d_q Pi^q_kj - Pi^p_qk Pi^q_pj)(-1)^{q~(1+k~+j~)}
  (`b_tensor` keeps the variant with the plus sign as a separate surface);
* the first-order coefficient of the extension operator carries the
  prefactor 2/(n0+4) on d_j S^ji.
"""

from __future__ import annotations

from fractions import Fraction

from .densities import (
    BracketTriple,
    DensityOperator,
    contract_class,
    contract_lower,
    div_upper,
    div_vector,
    linear_combination,
    _generating_operator,
)
from .errors import SingularDimension, SingularWeight
from .geometry import Connection, ProjectiveClass, Sym2Upper
from .graded_algebra import Dimension, SuperFunction, keyed_sums

# ---------------------------------------------------------------------------
# the extended chart
# ---------------------------------------------------------------------------


class TildeChart:
    """Base dimension together with its volume-coordinate extension, the
    one interned dimension with ``x0`` in front of the base's names."""

    __slots__ = ("base", "ext")

    def __init__(self, base: Dimension):
        self.base = base
        self.ext = Dimension(("x0",) + base.even_names, base.odd_names)

    def embed(self, f: SuperFunction) -> SuperFunction:
        return f.migrate(self.ext)


def _q_sign(dim: Dimension, q: int, i: int, j: int) -> int:
    return (-1) ** (dim.parity(q) * (1 + dim.parity(i) + dim.parity(j)))


def _ricci_combination(pi: ProjectiveClass, pp_sign: int) -> dict:
    """comps[(k, j)] = (n0+1)/(n0-1) (d_q Pi^q_kj + pp_sign Pi^p_qk Pi^q_pj)
    (-1)^{q~(1 + k~ + j~)}, keyed in sorted order.

    Walks the stored components of Pi only: the d_q term once over them,
    the product term over pairs matched by a per-call index of Pi's
    components by their first two indices."""
    dim = pi.dim
    pref = Fraction(dim.n0 + 1, dim.n0 - 1)
    by_head: dict = {}
    for (q, p, j), right in pi.comps.items():
        by_head.setdefault((q, p), []).append((j, right))
    terms = [((k, j), val.partial(q).scale(_q_sign(dim, q, k, j)))
             for (q, k, j), val in pi.comps.items()]
    terms += [((k, j), (left * right).scale(pp_sign * _q_sign(dim, q, k, j)))
              for (p, q, k), left in pi.comps.items()
              for j, right in by_head.get((q, p), ())]
    acc = keyed_sums(terms)
    return {key: acc[key].scale(pref) for key in sorted(acc)}


def b_tensor(pi: ProjectiveClass) -> dict:
    """B_kj = (n0+1)/(n0-1) (d_q Pi^q_kj + Pi^p_qk Pi^q_pj)(-1)^{q~(1+k~+j~)},
    as displayed; see `tilde_ricci` for the variant the consistency checks
    single out."""
    n0 = pi.dim.n0
    if n0 in (1, -1):
        raise SingularDimension(f"n - m = {n0}: B tensor undefined")
    return _ricci_combination(pi, +1)


def tilde_ricci(pi: ProjectiveClass) -> dict:
    """The x0-row of the lifted connection:
    (n0+1)/(n0-1) (d_q Pi^q_kj - Pi^p_qk Pi^q_pj)(-1)^{q~(1+k~+j~)}."""
    n0 = pi.dim.n0
    if n0 in (1, -1):
        raise SingularDimension(f"n - m = {n0}: lifted curvature undefined")
    return _ricci_combination(pi, -1)


# ---------------------------------------------------------------------------
# lifts
# ---------------------------------------------------------------------------


def _lift(pi: ProjectiveClass, mixed: Fraction, corner: Fraction) -> tuple:
    """(ext, comps) of a lifted table: the embedded Pi, the constant mixed
    at (g, g, 0) and (g, 0, g) for g >= 1 and corner at (0, 0, 0), and the
    x0-row `tilde_ricci` at (0, k+1, j+1)."""
    chart = TildeChart(pi.dim)
    ext = chart.ext
    comps = {(k + 1, i + 1, j + 1): chart.embed(val)
             for (k, i, j), val in pi.comps.items()}
    mixed = SuperFunction.constant(ext, mixed)
    for g in range(1, ext.size):
        comps[(g, g, 0)] = comps[(g, 0, g)] = mixed
    comps[(0, 0, 0)] = SuperFunction.constant(ext, corner)
    for (k, j), val in tilde_ricci(pi).items():
        comps[(0, k + 1, j + 1)] = chart.embed(val)
    return ext, comps


def lift_connection(pi: ProjectiveClass) -> Connection:
    """Linear connection on the extended chart determined by a projective
    class: base block Pi, mixed block -delta/(n0+1), and the x0-row
    `tilde_ricci`."""
    n0 = pi.dim.n0
    if n0 in (1, -1):
        raise SingularDimension(f"n - m = {n0}: connection lift undefined")
    return Connection(*_lift(pi, Fraction(-1, n0 + 1), Fraction(-1, n0 + 1)))


def lift_projective_class(pi: ProjectiveClass) -> ProjectiveClass:
    """Projective class on the extended chart: the trace-free part of the
    lifted connection, built from its closed form: the embedded Pi,
    Pi~^g_{g0} = Pi~^g_{0g} = -1/((n0+1)(n0+2)) for g >= 1,
    Pi~^0_{00} = n0/((n0+1)(n0+2)), Pi~^0_{k+1,j+1} = `tilde_ricci`, and
    Pi~^0_{j0} = Pi~^k_{00} = 0.  The constructor checks the trace."""
    n0 = pi.dim.n0
    if n0 in (1, -1, -2):
        raise SingularDimension(f"n - m = {n0}: projective class lift undefined")
    q = Fraction(1, (n0 + 1) * (n0 + 2))
    return ProjectiveClass(*_lift(pi, -q, n0 * q))


# ---------------------------------------------------------------------------
# extension operator and bracket extension
# ---------------------------------------------------------------------------


def extension_operator(triple: BracketTriple, pi: ProjectiveClass,
                       ricci=None) -> DensityOperator:
    """Generating operator for the triple's bracket obtained from the
    extended-chart Laplacian, with d_0 realized as the weight operator
    (``ricci``: ``tilde_ricci(pi)`` when the caller already has it):

        (1/2) |Dx|^lam ( S^ij d_j d_i + 2 gamma^i w d_i + theta w^2
          + ( 2/(n0+4) d_j S^ji (-1)^{j~(eps+1)}
              + 2(lam(n0+1)+1)/((n0+1)(n0+4)) gamma^i
              - (n0+2)/(n0+4) S^jk Pi^i_kj ) d_i
          + ( 2/(n0+4) d_k gamma^k (-1)^{k~(eps+1)}
              + (2 lam(n0+1) - n0)/((n0+1)(n0+4)) theta
              - (n0+2)/(n0+4) S^jk G0_kj ) w ).
    """
    dim = triple.dim
    if pi.dim is not dim:
        raise SingularDimension("triple and class over different dimensions")
    n0 = dim.n0
    if n0 in (1, -1, -4):
        raise SingularDimension(f"n - m = {n0}: extension operator undefined")
    lam = triple.weight
    s = triple.s
    c_div = Fraction(2, n0 + 4)
    c_gamma = Fraction(2 * (lam * (n0 + 1) + 1), (n0 + 1) * (n0 + 4))
    c_theta = Fraction(2 * lam * (n0 + 1) - n0, (n0 + 1) * (n0 + 4))
    c_pi = Fraction(n0 + 2, n0 + 4)
    a = linear_combination((c_div, div_upper(s)), (c_gamma, triple.gamma),
                           (-c_pi, contract_class(s, pi)))
    b = (div_vector(triple.gamma, dim, s.parity).scale(c_div)
         + triple.theta.scale(c_theta)
         - contract_lower(s, tilde_ricci(pi) if ricci is None else ricci)
         .scale(c_pi))
    return _generating_operator(triple, a, b)


def gamma_theta_from_s(s: Sym2Upper, pi: ProjectiveClass, lam,
                       ricci=None) -> tuple:
    """The volume-connection and scalar components completing a weight-lam
    tensor S^ij to a bracket triple (``ricci`` as in `extension_operator`):

        gamma^i = (n0+1)/((n0+3) - lam(n0+1))
                  (d_j S^ji (-1)^{j~(S~+1)} + S^jk Pi^i_kj)
        theta   = (n0+1)/((n0+2) - lam(n0+1))
                  (d_k gamma^k (-1)^{k~(S~+1)} + S^jk G0_kj).
    """
    dim = s.dim
    n0 = dim.n0
    if n0 in (1, -1):
        raise SingularDimension(f"n - m = {n0}: bracket extension undefined")
    lam = lam if isinstance(lam, Fraction) else Fraction(lam)
    den_gamma = Fraction(n0 + 3) - lam * (n0 + 1)
    den_theta = Fraction(n0 + 2) - lam * (n0 + 1)
    if den_gamma == 0 or den_theta == 0:
        raise SingularWeight(
            f"weight {lam} is singular for n - m = {n0}")
    qg = Fraction(n0 + 1) / den_gamma
    gamma = linear_combination((qg, div_upper(s)), (qg, contract_class(s, pi)))
    qt = Fraction(n0 + 1) / den_theta
    theta = (div_vector(gamma, dim, s.parity)
             + contract_lower(s, tilde_ricci(pi) if ricci is None else ricci)
             ).scale(qt)
    return gamma, theta


def extend_bracket(s: Sym2Upper, pi: ProjectiveClass, lam,
                   ricci=None) -> BracketTriple:
    """Complete a weight-lam tensor to the canonical bracket triple."""
    gamma, theta = gamma_theta_from_s(s, pi, lam, ricci)
    return BracketTriple(s, gamma, theta, s.parity, lam)
