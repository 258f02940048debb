import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superproj.densities import (
    BracketTriple,
    DensityElement,
    DensityOperator,
    bracket_from_triple,
    canonical_operator,
    generated_bracket,
)
from superproj.errors import SingularDimension, SingularWeight
from superproj.expressions import parse_expression
from superproj.geometry import (
    Connection,
    ProjectiveClass,
    Sym2Upper,
    div_trace,
    projective_class,
)
from superproj.graded_algebra import Dimension, SuperFunction
from superproj.poisson_bv import phase_dimension
from superproj.thomas import (
    TildeChart,
    b_tensor,
    extend_bracket,
    extension_operator,
    gamma_theta_from_s,
    lift_connection,
    lift_projective_class,
    tilde_ricci,
)

from helpers import (
    rand_projective_class,
    rand_super,
    rand_upper,
)

D20 = Dimension.of(2, 0)
D22 = Dimension.of(2, 2)
D30 = Dimension.of(3, 0)


def expr(dim, text):
    return parse_expression(dim, text)


# ---------------------------------------------------------------------------
# extended chart
# ---------------------------------------------------------------------------

class TestTildeChart:
    def test_gothic_indexing(self):
        chart = TildeChart(D22)
        assert chart.ext.even_names == ("x0", "x1", "x2")
        assert chart.ext.odd_names == ("th1", "th2")
        # Gothic index g >= 1 is base coordinate g - 1, odd ones included
        assert chart.ext.names[1:] == D22.names
        assert chart.ext.index(D22.names[2]) == 3

    def test_ext_built_once(self):
        chart = TildeChart(D22)
        assert chart.ext is chart.ext
        assert chart.embed(SuperFunction.one(D22)).dim is chart.ext
        lifted = lift_connection(rand_projective_class(random.Random(62), D22))
        assert lifted.comps
        assert all(val.dim is lifted.dim for val in lifted.comps.values())

    def test_ext_is_interned(self):
        assert TildeChart(D22).ext is TildeChart(D22).ext
        assert TildeChart(D22).ext is Dimension(("x0", "x1", "x2"), ("th1", "th2"))
        pc = rand_projective_class(random.Random(64), D22)
        assert lift_projective_class(pc).dim is TildeChart(pc.dim).ext
        assert lift_connection(pc).dim is TildeChart(pc.dim).ext
        for dim in (D20, D22):
            phase = phase_dimension(dim)
            assert phase is Dimension(phase.even_names, phase.odd_names)
            assert phase is phase_dimension(dim)

    def test_embed_restrict_round_trip(self):
        rng = random.Random(61)
        chart = TildeChart(D22)
        f = rand_super(rng, D22)
        assert chart.embed(f).migrate(D22) == f

    def test_weight_realized_as_volume_derivative(self):
        # functions f e^{w x0} are densities: d_0 acts as the weight operator
        phi = DensityElement.of(expr(D22, "x1*th1"), Fraction(1, 2))
        w_op = DensityOperator.weight(D22)
        assert w_op(phi) == phi.scale(Fraction(1, 2))


# ---------------------------------------------------------------------------
# connection lift
# ---------------------------------------------------------------------------

class TestLiftConnection:
    def test_flat_two_zero(self):
        pc = ProjectiveClass(D20, {})
        lifted = lift_connection(pc)
        ext = TildeChart(D20).ext
        third = SuperFunction.constant(ext, Fraction(-1, 3))
        for g in range(ext.size):
            assert lifted.component(g, 0, g) == third
            assert lifted.component(g, g, 0) == third
        # every other component vanishes, including the x0 row
        for (k, i, j), val in lifted.comps.items():
            if 0 not in (i, j):
                assert val.is_zero()

    def test_restricts_to_class(self):
        rng = random.Random(62)
        pc = rand_projective_class(rng, D22)
        chart = TildeChart(D22)
        lifted = lift_connection(pc)
        for (k, i, j), val in pc.comps.items():
            assert lifted.component(k + 1, i + 1, j + 1) == chart.embed(val)

    def test_classical_reduction_of_x0_row(self):
        # m = 0: the x0 row matches the classical formula
        rng = random.Random(63)
        pc = rand_projective_class(rng, D30)
        lifted = lift_connection(pc)
        chart = TildeChart(D30)
        q = Fraction(4, 2)  # (n+1)/(n-1) with n = 3
        for a in range(3):
            for b in range(3):
                acc = SuperFunction.zero(D30)
                for qq in range(3):
                    acc = acc + pc.component(qq, a, b).partial(qq)
                    for p in range(3):
                        acc = acc - pc.component(p, qq, a) * pc.component(qq, p, b)
                assert lifted.component(0, a + 1, b + 1) == chart.embed(acc.scale(q))

    def test_singular_dimensions(self):
        with pytest.raises(SingularDimension):
            lift_connection(ProjectiveClass(Dimension.of(1, 0), {}))
        with pytest.raises(SingularDimension):
            lift_connection(ProjectiveClass(Dimension.of(1, 2), {}))


# ---------------------------------------------------------------------------
# projective class lift
# ---------------------------------------------------------------------------

class TestLiftProjectiveClass:
    def test_classical_corner_value(self):
        # 2|0: Pi~^0_00 = n0/((n0+1)(n0+2)) = 1/6
        tilde = lift_projective_class(ProjectiveClass(D20, {}))
        ext = TildeChart(D20).ext
        assert tilde.component(0, 0, 0) == SuperFunction.constant(
            ext, Fraction(1, 6))

    def test_flat_components(self):
        # Pi = 0: Pi~^0_{ji} = 0 and the mixed block is
        # -delta/((n0+1)(n0+2)) (the sign makes the lift trace-free)
        tilde = lift_projective_class(ProjectiveClass(D20, {}))
        ext = TildeChart(D20).ext
        q = Fraction(-1, 12)
        for g in range(1, ext.size):
            assert tilde.component(g, g, 0) == SuperFunction.constant(ext, q)
            assert tilde.component(g, 0, g) == SuperFunction.constant(ext, q)
            assert tilde.component(0, g, 0).is_zero()
        for g in range(1, ext.size):
            for h in range(1, ext.size):
                assert tilde.component(0, g, h).is_zero()

    def test_trace_free_random(self):
        rng = random.Random(64)
        for dim in (D20, D22):
            tilde = lift_projective_class(rand_projective_class(rng, dim))
            assert div_trace(tilde).is_zero()

    def test_restriction_and_ricci_row(self):
        rng = random.Random(65)
        pc = rand_projective_class(rng, D22)
        chart = TildeChart(D22)
        tilde = lift_projective_class(pc)
        for (k, i, j), val in pc.comps.items():
            assert tilde.component(k + 1, i + 1, j + 1) == chart.embed(val)
        ricci = tilde_ricci(pc)
        for a in range(D22.size):
            for b in range(D22.size):
                want = ricci.get((a, b), SuperFunction.zero(D22))
                assert tilde.component(0, a + 1, b + 1) == chart.embed(want)

    def test_classical_thomas_value(self):
        # m = 0, n = 3: Pi~^0_00 = n/((n+1)(n+2)) = 3/20
        tilde = lift_projective_class(ProjectiveClass(D30, {}))
        assert tilde.component(0, 0, 0) == SuperFunction.constant(
            TildeChart(D30).ext, Fraction(3, 20))

    def test_singular_dimensions(self):
        for (n, m) in ((1, 0), (1, 2), (0, 2)):
            with pytest.raises(SingularDimension):
                lift_projective_class(ProjectiveClass(Dimension.of(n, m), {}))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]),
       st.integers(min_value=0, max_value=10**6))
def test_closed_form_lift_is_the_trace_free_lifted_connection(shape, seed):
    # the closed form against the projection of the lifted connection; both
    # refuse the singular n - m of either construction
    pc = rand_projective_class(random.Random(seed), Dimension.of(*shape))
    try:
        want = projective_class(lift_connection(pc))
    except SingularDimension:
        with pytest.raises(SingularDimension):
            lift_projective_class(pc)
        return
    assert lift_projective_class(pc) == want


# ---------------------------------------------------------------------------
# lower curvature tensors
# ---------------------------------------------------------------------------

class TestBTensor:
    def test_flat(self):
        assert b_tensor(ProjectiveClass(D20, {})) == {}

    def test_classical_substitution(self):
        # single x-dependent component, m = 0, n = 2
        pc = projective_class(Connection(D20, {(0, 0, 1): expr(D20, "x1"),
                                               (0, 1, 0): expr(D20, "x1")}))
        b = b_tensor(pc)
        q = Fraction(3, 1)
        for k in range(2):
            for j in range(2):
                acc = SuperFunction.zero(D20)
                for qq in range(2):
                    acc = acc + pc.component(qq, k, j).partial(qq)
                    for p in range(2):
                        acc = acc + pc.component(p, qq, k) * pc.component(qq, p, j)
                want = acc.scale(q)
                got = b.get((k, j), SuperFunction.zero(D20))
                assert got == want

    def test_parity_of_components(self):
        rng = random.Random(66)
        pc = rand_projective_class(rng, D22)
        for (k, j), val in b_tensor(pc).items():
            assert val.has_parity(D22.parity(k) + D22.parity(j))

    def test_differs_from_ricci_row_by_the_quadratic_sign(self):
        rng = random.Random(67)
        pc = rand_projective_class(rng, D22)
        b = b_tensor(pc)
        r = tilde_ricci(pc)
        # B + ricci = 2 * prefactor * dPi-part (the quadratic parts cancel)
        n0 = D22.n0
        pref = Fraction(n0 + 1, n0 - 1)
        for key in set(b) | set(r):
            k, j = key
            acc = SuperFunction.zero(D22)
            for qq in range(D22.size):
                sign = (-1) ** (D22.parity(qq) * (1 + D22.parity(k) + D22.parity(j)))
                acc = acc + pc.component(qq, k, j).partial(qq).scale(sign)
            lhs = b.get(key, SuperFunction.zero(D22)) \
                + r.get(key, SuperFunction.zero(D22))
            assert lhs == acc.scale(2 * pref)

    def test_singular(self):
        with pytest.raises(SingularDimension):
            b_tensor(ProjectiveClass(Dimension.of(1, 0), {}))


# ---------------------------------------------------------------------------
# extension operator
# ---------------------------------------------------------------------------

class TestExtensionOperator:
    def test_zero_triple(self):
        t = BracketTriple.zero(D20)
        assert extension_operator(t, ProjectiveClass(D20, {})).is_zero()

    def test_flat_constant_tensor(self):
        # lam = 0, gamma = theta = 0, Pi = 0, constant S in 2|0:
        # derivative terms vanish, leaving the normalized S d d
        s = Sym2Upper(D20, {(0, 1): SuperFunction.one(D20),
                            (1, 0): SuperFunction.one(D20)}, 0)
        t = BracketTriple(s, {}, SuperFunction.zero(D20), 0, 0)
        got = extension_operator(t, ProjectiveClass(D20, {}))
        want = DensityOperator.from_written(
            DensityElement.of(SuperFunction.one(D20)), [1, 0])
        assert got == want
        assert got == canonical_operator(t)

    def test_generates_the_bracket(self):
        rng = random.Random(68)
        pc = rand_projective_class(rng, D22)
        t = extend_bracket(rand_upper(rng, D22, 1), pc, Fraction(1, 2))
        delta = extension_operator(t, pc)
        pairs = [
            (DensityElement.of(expr(D22, "x1")), DensityElement.volume(D22)),
            (DensityElement.of(expr(D22, "th1")),
             DensityElement.of(expr(D22, "x2*th2"))),
            (DensityElement.of(expr(D22, "x1*x2")),
             DensityElement.of(expr(D22, "th1"), Fraction(1, 2))),
        ]
        for a, b in pairs:
            assert generated_bracket(delta, a, b) == bracket_from_triple(t, a, b)

    def test_singular_dimensions(self):
        for (n, m) in ((1, 0), (1, 2), (0, 4)):
            dim = Dimension.of(n, m)
            with pytest.raises(SingularDimension):
                extension_operator(
                    BracketTriple.zero(dim), ProjectiveClass(dim, {}))


# ---------------------------------------------------------------------------
# gamma/theta completion
# ---------------------------------------------------------------------------

class TestGammaTheta:
    def test_flat_constant(self):
        s = Sym2Upper(D20, {(0, 1): SuperFunction.one(D20),
                            (1, 0): SuperFunction.one(D20)}, 0)
        gamma, theta = gamma_theta_from_s(s, ProjectiveClass(D20, {}), 0)
        assert gamma == {}
        assert theta.is_zero()

    def test_classical_weightless_reduction(self):
        # m = 0, lam = 0 reduces to the volume upper-connection coefficients
        from superproj.densities import upper_gamma

        rng = random.Random(69)
        for dim in (D20, D30):
            s = rand_upper(rng, dim, 0)
            pc = rand_projective_class(rng, dim)
            gamma, _ = gamma_theta_from_s(s, pc, 0)
            assert gamma == upper_gamma(s, pc)

    def test_prefactors_2_2(self):
        # n0 = 0, lam = 0: prefactors 1/3 and 1/2
        rng = random.Random(70)
        s = rand_upper(rng, D22, 1)
        pc = rand_projective_class(rng, D22)
        gamma, theta = gamma_theta_from_s(s, pc, 0)
        n0 = 0
        qg = Fraction(n0 + 1, n0 + 3)
        assert qg == Fraction(1, 3)
        qt = Fraction(n0 + 1, n0 + 2)
        assert qt == Fraction(1, 2)
        # gamma literal
        for i in range(D22.size):
            acc = SuperFunction.zero(D22)
            for j in range(D22.size):
                val = s.component(j, i)
                if not val.is_zero():
                    sign = (-1) ** (D22.parity(j) * (s.parity + 1))
                    acc = acc + val.partial(j).scale(sign)
                for k in range(D22.size):
                    sv = s.component(j, k)
                    pv = pc.component(i, k, j)
                    if not sv.is_zero() and not pv.is_zero():
                        acc = acc + sv * pv
            assert gamma.get(i, SuperFunction.zero(D22)) == acc.scale(qg)

    def test_weight_zero_odd_s_1_1(self):
        # n0 = 0 in 1|1: prefactor 1/3 on the divergence term
        d11 = Dimension.of(1, 1)
        s = Sym2Upper(d11, {(0, 1): expr(d11, "x1"), (1, 0): expr(d11, "x1")}, 1)
        gamma, _ = gamma_theta_from_s(s, ProjectiveClass(d11, {}), 0)
        assert gamma == {1: expr(d11, "1/3")}

    def test_singular_weights(self):
        rng = random.Random(71)
        s = rand_upper(rng, D22, 1)
        pc = ProjectiveClass(D22, {})
        # n0 = 0: (n0+3)/(n0+1) = 3 and (n0+2)/(n0+1) = 2
        for lam in (Fraction(3), Fraction(2)):
            with pytest.raises(SingularWeight):
                gamma_theta_from_s(s, pc, lam)
        for (n, m) in ((2, 0), (2, 2)):
            dim = Dimension.of(n, m)
            n0 = dim.n0
            for lam in (Fraction(n0 + 3, n0 + 1), Fraction(n0 + 2, n0 + 1)):
                with pytest.raises(SingularWeight):
                    gamma_theta_from_s(
                        Sym2Upper(dim, {}, 1), ProjectiveClass(dim, {}), lam)

    def test_singular_dimensions(self):
        for (n, m) in ((1, 0), (1, 2)):
            dim = Dimension.of(n, m)
            with pytest.raises(SingularDimension):
                gamma_theta_from_s(Sym2Upper(dim, {}, 0),
                                   ProjectiveClass(dim, {}), 0)


# ---------------------------------------------------------------------------
# the main consistency theorem
# ---------------------------------------------------------------------------

class TestExtendBracket:
    def test_zero_tensor(self):
        t = extend_bracket(Sym2Upper(D20, {}, 0), ProjectiveClass(D20, {}), 0)
        assert t.s.is_zero() and not t.gamma and t.theta.is_zero()

    def test_canonical_equals_extension(self):
        rng = random.Random(72)
        cases = [
            (D20, 0, Fraction(0)), (D20, 0, Fraction(1, 2)),
            (D22, 1, Fraction(0)), (D22, 0, Fraction(1, 2)),
            (D22, 1, Fraction(-1, 2)), (D30, 0, Fraction(2)),
        ]
        for dim, eps, lam in cases:
            pc = rand_projective_class(rng, dim)
            s = rand_upper(rng, dim, eps)
            triple = extend_bracket(s, pc, lam)
            lhs = canonical_operator(triple)
            rhs = extension_operator(triple, pc)
            assert lhs == rhs

    def test_triple_carries_tensor_parity(self):
        rng = random.Random(73)
        s = rand_upper(rng, D22, 1)
        t = extend_bracket(s, ProjectiveClass(D22, {}), Fraction(1, 2))
        assert t.eps == 1 and t.s == s
