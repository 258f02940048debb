import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superproj.cli import _residual_map
from superproj.densities import (
    BracketTriple,
    DensityElement,
    DensityOperator,
    bracket_from_triple,
    canonical_operator,
    density_test_family,
    formal_adjoint,
    generated_bracket,
    op_order,
    operators_equal,
    projective_laplacian,
    upper_gamma,
)
from superproj.errors import NonHomogeneous, SingularDimension
from superproj.expressions import parse_expression
from superproj.geometry import ProjectiveClass, Sym2Upper
from superproj.graded_algebra import Dimension, SuperFunction

from helpers import (
    rand_projective_class,
    rand_super,
    rand_triple,
    rand_upper,
)

D11 = Dimension.of(1, 1)
D21 = Dimension.of(2, 1)
D22 = Dimension.of(2, 2)


def expr(dim, text):
    return parse_expression(dim, text)


def fn(dim, text, weight=0):
    return DensityElement.of(expr(dim, text), weight)


def rand_fraction_density(rng, dim, parity):
    """Two weight slices of one parity whose coefficients are true
    fractions."""
    weights = rng.sample([Fraction(0), Fraction(1, 2), Fraction(1),
                          Fraction(-1), Fraction(2)], 2)
    slices = {}
    for w in weights:
        x = f"x{rng.randrange(dim.n) + 1}"
        den = expr(dim, f"1/({rng.choice([1, 2])} + {rng.choice([1, 3])}*{x}^2)")
        slices[w] = rand_super(rng, dim, parity) * den
    return DensityElement(dim, slices)


def rand_operator(rng, dim, parity):
    """A homogeneous operator: a few terms f d_i.. w^k with k <= 2 and
    coefficients of weight 0 or 1/2."""
    op = DensityOperator.zero(dim)
    for _ in range(rng.randint(1, 3)):
        derivs = [rng.randrange(dim.size) for _ in range(rng.randint(0, 2))]
        odd = sum(dim.parity(i) for i in derivs)
        coeff = DensityElement.of(rand_super(rng, dim, (parity + odd) % 2),
                                  rng.choice([Fraction(0), Fraction(1, 2)]))
        op = op + DensityOperator.from_written(coeff, derivs, rng.randint(0, 2))
    return op


# ---------------------------------------------------------------------------
# density algebra
# ---------------------------------------------------------------------------

class TestDensityAlgebra:
    def test_weight_zero_annihilated(self):
        assert DensityOperator.weight(D11)(fn(D11, "x1 + th1")).is_zero()

    def test_weight_eigenvalue(self):
        phi = fn(D11, "x1", Fraction(1, 2))
        assert DensityOperator.weight(D11)(phi) == phi.scale(Fraction(1, 2))

    def test_weight_is_derivation(self):
        rng = random.Random(31)
        w = DensityOperator.weight(D22)
        a = DensityElement.of(rand_super(rng, D22), Fraction(1, 3))
        b = DensityElement.of(rand_super(rng, D22), Fraction(-2))
        assert w(a * b) == w(a) * b + a * w(b)

    def test_product_adds_weights(self):
        a = fn(D11, "x1", Fraction(1, 2))
        b = fn(D11, "th1", Fraction(1, 3))
        prod = a * b
        assert sorted(prod.slices) == [Fraction(5, 6)]
        assert prod.slice(Fraction(5, 6)) == expr(D11, "x1*th1")

    def test_integral_weights_are_int_keys(self):
        half = fn(D11, "x1", Fraction(1, 2))
        assert [type(w) for w in (half * half).slices] == [int]
        assert [type(w) for w in half.slices] == [Fraction]
        assert list(fn(D11, "x1", Fraction(4, 2)).slices) == [2]

    def test_int_and_fraction_keys_agree(self):
        f = expr(D11, "x1*th1 - 3")
        by_int = DensityElement._of(D11, {1: f})
        by_fraction = DensityElement._of(D11, {Fraction(1): f})
        assert by_int == by_fraction and hash(by_int) == hash(by_fraction)
        assert by_int.slice(Fraction(1)) is f and by_fraction.slice(1) is f
        residuals = [_residual_map([("d", d)]) for d in (by_int, by_fraction)]
        assert residuals[0] == residuals[1] == {"d": "(-3 + x1*th1)*Vol^1"}


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

class TestOperators:
    def test_compose_matches_iterated_application(self):
        rng = random.Random(32)
        d1 = DensityOperator.from_written(
            DensityElement.of(rand_super(rng, D11)), [0, 1], 1)
        d2 = DensityOperator.from_written(
            DensityElement.of(rand_super(rng, D11), Fraction(1, 2)), [1])
        both = d1.compose(d2)
        for phi in density_test_family(D11, max_degree=2):
            assert both(phi) == d1(d2(phi))

    def test_weight_shifts_sharing_a_derivative(self):
        # three weight shifts on (d_x1 w, 1), one more on (1, 0)
        half = Fraction(1, 2)
        coeff = DensityElement(D21, {Fraction(1): expr(D21, "x2"),
                                     -half: expr(D21, "th1*x1"),
                                     Fraction(0): expr(D21, "x1 + 1")})
        op = (DensityOperator.from_written(coeff, [0], 1)
              + DensityOperator.mult(fn(D21, "3", half)))
        d1 = (1, 0, 0)
        assert set(op.terms) == {(d1, 1, -half), (d1, 1, 0), (d1, 1, 1),
                                 ((0, 0, 0), 0, half)}
        listed = [(tuple(t["derivatives"]), t["w_power"], Fraction(t["weight_shift"]))
                  for t in op.serialize()]
        assert listed == [((0, 0, 0), 0, half), (d1, 1, -half), (d1, 1, 0),
                          (d1, 1, 1)]
        phi = DensityElement(D21, {Fraction(0): expr(D21, "x1^2"),
                                   Fraction(1, 3): expr(D21, "x1*x2 + th1"),
                                   Fraction(2): expr(D21, "x1^3*th1")})
        pieces = DensityElement.zero(D21)
        for lam, f in phi.slices.items():
            pieces = pieces + op(DensityElement(D21, {lam: f}))
        assert op(phi) == pieces
        assert len(op(phi).slices) > len(phi.slices)

    def test_odd_derivative_squares_to_zero(self):
        dth = DensityOperator.deriv(D11, 1)
        assert dth.compose(dth).is_zero()

    def test_order_of_multiplication(self):
        assert op_order(DensityOperator.mult(fn(D11, "x1^2 + th1"))) == 0

    def test_order_of_second_order(self):
        rng = random.Random(33)
        s = rand_upper(rng, D11, 1)
        if s.is_zero():
            s = Sym2Upper(D11, {(0, 1): SuperFunction.one(D11),
                                (1, 0): SuperFunction.one(D11)}, 1)
        op = DensityOperator.zero(D11)
        for (i, j), val in s.comps.items():
            op = op + DensityOperator.from_written(DensityElement.of(val), [j, i])
        assert op_order(op) == 2

    def test_order_sees_weight_grading(self):
        w2 = DensityOperator.from_written(
            DensityElement.of(SuperFunction.one(D11)), [], 2)
        assert op_order(w2) == 2

    def test_order_by_nested_commutators_small_case(self):
        # independent check of the degree-based shortcut on a mixed operator
        op = DensityOperator.from_written(
            DensityElement.of(SuperFunction.one(D11)), [0], 1)
        assert op_order(op) == 2
        mult_x = DensityOperator.mult(
            DensityElement.of(SuperFunction.coordinate(D11, 0)))
        mult_vol = DensityOperator.mult(DensityElement.volume(D11))
        def graded_commutator(d, m):
            sign = -1 if (int(d.parity()) and int(m.parity())) else 1
            return d.compose(m) - m.compose(d).scale(sign)

        c1 = graded_commutator(op, mult_x)
        c2 = graded_commutator(c1, mult_vol)
        c3 = graded_commutator(c2, mult_x)
        assert not c2.is_zero() and c3.is_zero()

    def test_serialization_term_list(self):
        op = DensityOperator.from_written(
            fn(D11, "x1", Fraction(1, 2)), [0], 1)
        terms = op.serialize()
        assert terms == [{
            "weight_shift": "1/2",
            "coefficient": "x1",
            "derivatives": [1, 0],
            "w_power": 1,
        }]

    def test_extensional_equality_is_faithful(self):
        d1 = DensityOperator.deriv(D22, 0)
        d2 = DensityOperator.deriv(D22, 1)
        assert not operators_equal(d1, d2)
        assert operators_equal(d1, d1)


# ---------------------------------------------------------------------------
# generated brackets
# ---------------------------------------------------------------------------

class TestGeneratedBracket:
    def test_multiplication_generates_zero(self):
        rng = random.Random(34)
        delta = DensityOperator.mult(DensityElement.of(rand_super(rng, D11, 0)))
        a = fn(D11, "x1")
        b = fn(D11, "th1")
        assert generated_bracket(delta, a, b).is_zero()

    def test_second_order_cross_term(self):
        d20 = Dimension.of(2, 0)
        delta = DensityOperator.from_written(
            DensityElement.of(SuperFunction.one(d20)), [0, 1])
        got = generated_bracket(delta, fn(d20, "x1"), fn(d20, "x2"))
        assert got == DensityElement.of(SuperFunction.one(d20))

    def test_constant_free_term_drops(self):
        rng = random.Random(35)
        t = rand_triple(rng, D11, 1, 0)
        delta = canonical_operator(t)
        one = DensityElement.of(SuperFunction.one(D11))
        assert delta(one).is_zero()


class TestBracketFromTriple:
    def test_constants_killed(self):
        rng = random.Random(36)
        t = rand_triple(rng, D11, 1, Fraction(1, 2))
        one = DensityElement.of(SuperFunction.one(D11))
        assert bracket_from_triple(t, one, one).is_zero()
        # so is a zero operand
        zero, b = DensityElement.zero(D11), fn(D11, "x1*th1")
        assert bracket_from_triple(t, zero, b).is_zero()
        assert bracket_from_triple(t, b, zero).is_zero()

    def test_coordinate_components(self):
        rng = random.Random(37)
        for eps in (0, 1):
            t = rand_triple(rng, D22, eps, Fraction(1, 2))
            for i in range(D22.size):
                for j in range(D22.size):
                    a = DensityElement.of(SuperFunction.coordinate(D22, i))
                    b = DensityElement.of(SuperFunction.coordinate(D22, j))
                    got = bracket_from_triple(t, a, b)
                    want = DensityElement(D22, {t.weight: t.s.component(i, j)})
                    assert got == want

    def test_volume_components(self):
        rng = random.Random(38)
        t = rand_triple(rng, D11, 1, Fraction(0))
        vol = DensityElement.volume(D11)
        got = bracket_from_triple(t, vol, vol)
        assert got == DensityElement(D11, {Fraction(2): t.theta})
        x = DensityElement.of(SuperFunction.coordinate(D11, 0))
        got = bracket_from_triple(t, x, vol)
        assert got == DensityElement(D11, {Fraction(1): t.gamma_component(0)})

    def test_requires_homogeneous(self):
        rng = random.Random(39)
        t = rand_triple(rng, D11, 1, 0)
        x, zero = fn(D11, "x1"), DensityElement.zero(D11)
        # a mixed slice, and homogeneous slices of different parities
        split = DensityElement(D11, {0: expr(D11, "x1"), 1: expr(D11, "th1")})
        delta = canonical_operator(t)
        for mixed in (fn(D11, "x1 + th1"), split):
            with pytest.raises(NonHomogeneous):
                mixed.parity()
            for a, b in ((mixed, mixed), (x, mixed), (mixed, x),
                         (zero, mixed), (mixed, zero)):
                with pytest.raises(NonHomogeneous):
                    bracket_from_triple(t, a, b)
                with pytest.raises(NonHomogeneous):
                    generated_bracket(delta, a, b)


class TestClosedFormBracket:
    """`bracket_from_triple` is the bracket the canonical operator
    generates, a biderivation and graded-symmetric, on fractions too."""

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([D11, D21, D22]),
           st.sampled_from([0, 1]),
           st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(2)]))
    def test_generated_biderivation(self, seed, dim, eps, lam):
        rng = random.Random(seed)
        t = rand_triple(rng, dim, eps, lam)
        a, b, c = (rand_fraction_density(rng, dim, rng.randint(0, 1))
                   for _ in range(3))
        pa, pb = int(a.parity()), int(b.parity())
        ab = bracket_from_triple(t, a, b)
        assert ab == generated_bracket(canonical_operator(t), a, b)
        assert ab == bracket_from_triple(t, b, a).scale((-1) ** (pa * pb))
        leibniz = ab * c + (b * bracket_from_triple(t, a, c)).scale(
            (-1) ** ((pa + eps) * pb))
        assert bracket_from_triple(t, a, b * c) == leibniz


# ---------------------------------------------------------------------------
# canonical operator
# ---------------------------------------------------------------------------

class TestCanonicalOperator:
    def test_zero_triple(self):
        assert canonical_operator(BracketTriple.zero(D11)).is_zero()

    def test_constant_tensor_form(self):
        # lam = 0, gamma = 0, theta = 0, constant S: (1/2) S^{ij} d_j d_i
        s = Sym2Upper(D22, {(0, 1): SuperFunction.one(D22),
                            (1, 0): SuperFunction.one(D22)}, 0)
        t = BracketTriple(s, {}, SuperFunction.zero(D22), 0, 0)
        delta = canonical_operator(t)
        want = DensityOperator.from_written(
            DensityElement.of(SuperFunction.one(D22)), [1, 0])
        assert delta == want  # the double (i,j)+(j,i) sum supplies the 1/2

    def test_generation_on_random_triples(self):
        rng = random.Random(40)
        for dim in (D11, D22):
            for eps in (0, 1):
                for lam in (Fraction(0), Fraction(1, 2), Fraction(2)):
                    t = rand_triple(rng, dim, eps, lam)
                    delta = canonical_operator(t)
                    pairs = [
                        (fn(dim, "x1"), DensityElement.volume(dim)),
                        (fn(dim, "x1*th1"), fn(dim, "th1", Fraction(1, 2))),
                        (fn(dim, "x1^2"), fn(dim, "x1*th1")),
                    ]
                    for a, b in pairs:
                        assert generated_bracket(delta, a, b) == \
                            bracket_from_triple(t, a, b)

    def test_self_adjoint(self):
        rng = random.Random(41)
        for eps in (0, 1):
            t = rand_triple(rng, D11, eps, Fraction(1, 2))
            delta = canonical_operator(t)
            assert formal_adjoint(delta) == delta

    def test_same_bracket_differs_by_first_order(self):
        rng = random.Random(42)
        t = rand_triple(rng, D11, 1, Fraction(0))
        delta = canonical_operator(t)
        pert = DensityOperator.from_written(
            DensityElement.of(rand_super(rng, D11, 1)), [0]) \
            + DensityOperator.from_written(
                DensityElement.of(rand_super(rng, D11, 1)), [], 1)
        delta2 = delta + pert
        pairs = [
            (fn(D11, "x1"), fn(D11, "th1")),
            (fn(D11, "x1*th1"), DensityElement.volume(D11)),
            (DensityElement.volume(D11), DensityElement.volume(D11)),
        ]
        for a, b in pairs:
            assert generated_bracket(delta2, a, b) == \
                generated_bracket(delta, a, b)
        assert op_order(delta2 - delta) <= 1


# ---------------------------------------------------------------------------
# formal adjoint
# ---------------------------------------------------------------------------

class TestFormalAdjoint:
    def test_multiplication_fixed(self):
        rng = random.Random(43)
        for parity in (0, 1):
            m = DensityOperator.mult(
                DensityElement.of(rand_super(rng, D22, parity), Fraction(1, 2)))
            assert formal_adjoint(m) == m

    def test_weight_operator(self):
        w = DensityOperator.weight(D11)
        assert formal_adjoint(w) == DensityOperator.identity(D11) - w

    def test_derivative_sign(self):
        for i in range(D22.size):
            d = DensityOperator.deriv(D22, i)
            assert formal_adjoint(d) == d.scale(-1)

    def test_involution(self):
        rng = random.Random(44)
        t = rand_triple(rng, D22, 1, Fraction(1, 2))
        delta = canonical_operator(t)
        assert formal_adjoint(formal_adjoint(delta)) == delta

    def test_antihomomorphism_sign(self):
        dth = DensityOperator.deriv(D11, 1)
        mth = DensityOperator.mult(
            DensityElement.of(SuperFunction.coordinate(D11, 1)))
        lhs = formal_adjoint(dth.compose(mth))
        # (AB)+ = (-1)^{A~B~} B+ A+ with both factors odd
        rhs = formal_adjoint(mth).compose(formal_adjoint(dth)).scale(-1)
        assert lhs == rhs


    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([D11, D21, D22]))
    def test_involutive_antihomomorphism(self, seed, dim):
        rng = random.Random(seed)
        pa, pb = rng.randint(0, 1), rng.randint(0, 1)
        a, b = rand_operator(rng, dim, pa), rand_operator(rng, dim, pb)
        assert formal_adjoint(formal_adjoint(a)) == a
        # (AB)+ = (-1)^{A~B~} B+ A+
        assert formal_adjoint(a.compose(b)) == formal_adjoint(b).compose(
            formal_adjoint(a)).scale((-1) ** (pa * pb))


# ---------------------------------------------------------------------------
# projective Laplacian and the volume connection
# ---------------------------------------------------------------------------

class TestProjectiveLaplacian:
    def test_flat_constant_tensor(self):
        s = Sym2Upper(D22, {(0, 1): SuperFunction.one(D22),
                            (1, 0): SuperFunction.one(D22)}, 0)
        delta = projective_laplacian(s, ProjectiveClass(D22, {}))
        want = DensityOperator.from_written(
            DensityElement.of(SuperFunction.one(D22)), [1, 0]).scale(2)
        assert delta == want

    def test_prefactors_2_1(self):
        # n - m + 3 = 4: coefficients 2/4 = 1/2 on dS and
        # (n-m+1)/(n-m+3) = 1/2 on S Pi
        rng = random.Random(45)
        s = rand_upper(rng, D21, 0, deg=2)
        pc = rand_projective_class(rng, D21)
        delta = projective_laplacian(s, pc)
        for i in range(D21.size):
            div_term = SuperFunction.zero(D21)
            pi_term = SuperFunction.zero(D21)
            for j in range(D21.size):
                val = s.component(j, i)
                if not val.is_zero():
                    sign = (-1) ** (D21.parity(j) * (s.parity + 1))
                    div_term = div_term + val.partial(j).scale(sign)
                for k in range(D21.size):
                    sv = s.component(j, k)
                    pv = pc.component(i, k, j)
                    if not sv.is_zero() and not pv.is_zero():
                        pi_term = pi_term + sv * pv
            want = div_term.scale(Fraction(1, 2)) - pi_term.scale(Fraction(1, 2))
            alpha = [0] * D21.size
            alpha[i] = 1
            got = delta.terms.get((tuple(alpha), 0, 0), SuperFunction.zero(D21))
            assert got == want

    def test_classical_reduction(self):
        # m = 0: equals S d d + (2/(n+3) dS - (n+1)/(n+3) S Pi) d
        rng = random.Random(46)
        for n in (2, 3):
            dim = Dimension.of(n, 0)
            s = rand_upper(rng, dim, 0)
            pc = rand_projective_class(rng, dim)
            delta = projective_laplacian(s, pc)
            classical = DensityOperator.zero(dim)
            for (i, j), val in s.comps.items():
                classical = classical + DensityOperator.from_written(
                    DensityElement.of(val), [i, j])
            for i in range(n):
                acc = SuperFunction.zero(dim)
                for j in range(n):
                    acc = acc + s.component(i, j).partial(j).scale(
                        Fraction(2, n + 3))
                for j in range(n):
                    for k in range(n):
                        acc = acc - (s.component(j, k)
                                     * pc.component(i, j, k)).scale(
                            Fraction(n + 1, n + 3))
                if not acc.is_zero():
                    classical = classical + DensityOperator.from_written(
                        DensityElement.of(acc), [i])
            assert delta == classical

    def test_invariance_2_2(self):
        from superproj.geometry import (
            CoordinateChange,
            projective_class,
            transform_connection,
            transform_upper2,
        )

        rng = random.Random(48)
        dim = D22
        xs = [SuperFunction.coordinate(dim, i) for i in range(dim.size)]
        i0 = xs[0] - xs[2] * xs[3]
        change = CoordinateChange(
            dim,
            (xs[0] + xs[2] * xs[3], xs[1] + xs[0] * xs[0], xs[2],
             xs[0] * xs[2] + xs[3]),
            (i0, xs[1] - i0 * i0, xs[2], xs[3] - i0 * xs[2]))
        s = rand_upper(rng, dim, 0)
        pc = rand_projective_class(rng, dim)
        op_src = projective_laplacian(s, pc)
        op_tgt = projective_laplacian(
            transform_upper2(s, change),
            projective_class(transform_connection(pc, change)))
        for phi in density_test_family(dim, weights=(Fraction(0),),
                                       max_degree=2):
            pulled = DensityElement.of(change.pullback(phi.slice(0)))
            assert op_src(pulled).slice(0) == change.pullback(
                op_tgt(phi).slice(0))

    def test_singular_dimensions(self):
        d12 = Dimension.of(1, 2)
        with pytest.raises(SingularDimension):
            projective_laplacian(Sym2Upper(d12, {}, 0), ProjectiveClass(d12, {}))
        d03 = Dimension.of(0, 3)
        with pytest.raises(SingularDimension):
            projective_laplacian(Sym2Upper(d03, {}, 0), ProjectiveClass(d03, {}))


class TestUpperGamma:
    def test_flat_constant(self):
        s = Sym2Upper(D22, {(0, 1): SuperFunction.one(D22),
                            (1, 0): SuperFunction.one(D22)}, 0)
        assert upper_gamma(s, ProjectiveClass(D22, {})) == {}

    def test_classical_reduction(self):
        rng = random.Random(47)
        for n in (2, 3):
            dim = Dimension.of(n, 0)
            s = rand_upper(rng, dim, 0)
            pc = rand_projective_class(rng, dim)
            got = upper_gamma(s, pc)
            q = Fraction(n + 1, n + 3)
            for i in range(n):
                acc = SuperFunction.zero(dim)
                for j in range(n):
                    acc = acc + s.component(i, j).partial(j)
                for j in range(n):
                    for k in range(n):
                        acc = acc + s.component(j, k) * pc.component(i, j, k)
                want = acc.scale(q)
                assert got.get(i, SuperFunction.zero(dim)) == want

    def test_hand_substitution_1_1(self):
        # S^{x th} = x1, Pi = 0: gamma^i = (1/3)(d_j S^{ji} (-1)^{j~(S~+1)})
        s = Sym2Upper(D11, {(0, 1): expr(D11, "x1"),
                            (1, 0): expr(D11, "x1")}, 1)
        got = upper_gamma(s, ProjectiveClass(D11, {}))
        # n0 = 0: prefactor (n0+1)/(n0+3) = 1/3; S odd so the sign is +1
        # d_x S^{x th} contributes to gamma^th only
        assert got.get(1) == expr(D11, "1/3")
        assert 0 not in got
