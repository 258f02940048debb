import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superproj import geometry
from superproj.errors import (
    NonHomogeneous,
    NotInvertible,
    SingularDimension,
    UnknownCoordinate,
    ValidationError,
)
from superproj.expressions import parse_expression
from superproj.geometry import (
    Connection,
    CoordinateChange,
    CovectorField,
    SuperMatrix,
    Sym2Cov,
    Sym2Upper,
    berezinian,
    berezinian_of_change,
    div_trace,
    dlog_berezinian,
    inverse_jacobian_rows,
    j_inject,
    jacobian,
    jacobian_rows,
    projective_class,
    schwarzian_raw,
    super_schwarzian,
    transform_connection,
    transform_sym2cov,
    transform_upper2,
)
from superproj.graded_algebra import Dimension, SuperFunction

from helpers import (
    DIMS_FOUR,
    full_transform_core,
    rand_connection,
    rand_covector,
    rand_linear_change,
    rand_moebius_change,
    rand_super,
    rand_sym2cov,
    rand_triangular_change,
    rand_upper,
)

D20 = Dimension.of(2, 0)
D11 = Dimension.of(1, 1)
D12 = Dimension.of(1, 2)
D22 = Dimension.of(2, 2)


def expr(dim, text):
    return parse_expression(dim, text)


def coords(dim):
    return [SuperFunction.coordinate(dim, i) for i in range(dim.size)]


def shear_2_0():
    x, y = coords(D20)
    return CoordinateChange(D20, (x, y + x * x), (x, y - x * x))


def moebius_1_1():
    return CoordinateChange(
        D11,
        (expr(D11, "x1/(1-x1)"), expr(D11, "th1*(1+x1)")),
        (expr(D11, "x1/(1+x1)"), expr(D11, "th1/(1+x1/(1+x1))")))


def mixing_2_2():
    xs = coords(D22)
    i0 = xs[0] - xs[2] * xs[3]
    return CoordinateChange(
        D22,
        (xs[0] + xs[2] * xs[3], xs[1] + xs[0] * xs[0], xs[2],
         xs[0] * xs[2] + xs[3]),
        (i0, xs[1] - i0 * i0, xs[2], xs[3] - i0 * xs[2]))


# ---------------------------------------------------------------------------
# jacobian
# ---------------------------------------------------------------------------

class TestJacobian:
    def test_identity(self):
        jac = jacobian(CoordinateChange.identity(D11))
        assert jac == SuperMatrix.identity(D11)

    def test_linear_scaling(self):
        d10 = Dimension.of(1, 0)
        x = SuperFunction.coordinate(d10, 0)
        c = CoordinateChange(d10, (x.scale(2),), (x.scale(Fraction(1, 2)),))
        assert jacobian(c).component(0, 0) == SuperFunction.constant(d10, 2)

    def test_odd_pair_shift(self):
        # xbar = x + th1 th2, thbar = th: hand-differentiated oracle
        xs = coords(D12)
        c = CoordinateChange(
            D12, (xs[0] + xs[1] * xs[2], xs[1], xs[2]),
            (xs[0] - xs[1] * xs[2], xs[1], xs[2]))
        jac = jacobian(c)
        assert jac.component(0, 0) == SuperFunction.one(D12)
        assert jac.component(0, 1) == xs[2]          # d_th1 (th1 th2) = th2
        assert jac.component(0, 2) == -xs[1]         # d_th2 (th1 th2) = -th1
        assert jac.component(1, 1) == SuperFunction.one(D12)
        assert jac.component(2, 2) == SuperFunction.one(D12)

    def test_parity_invariant_enforced(self):
        with pytest.raises((ValidationError, NonHomogeneous)):
            SuperMatrix(D11, {(0, 1): SuperFunction.coordinate(D11, 0)})


# ---------------------------------------------------------------------------
# Berezinian
# ---------------------------------------------------------------------------

class TestBerezinian:
    def test_identity(self):
        assert berezinian(SuperMatrix.identity(D22)) == SuperFunction.one(D22)

    def test_block_diagonal(self):
        # diag(a1, a2, d1, d2) -> det(A)/det(D)
        entries = {
            (0, 0): expr(D22, "x1"), (1, 1): expr(D22, "x2"),
            (2, 2): expr(D22, "2"), (3, 3): expr(D22, "x1^2 + 1"),
        }
        ber = berezinian(SuperMatrix(D22, entries))
        assert ber == expr(D22, "x1*x2/(2*(x1^2+1))")

    def test_one_one_formula(self):
        # [[a, beta], [gamma, d]] -> a/d - beta gamma / d^2
        a = expr(D11, "x1^2 + 1")
        d = expr(D11, "x1 + 2")
        beta = expr(D11, "x1*th1")
        gamma = expr(D11, "th1")
        mat = SuperMatrix(D11, {(0, 0): a, (0, 1): beta, (1, 0): gamma, (1, 1): d})
        want = a * d.invert() - beta * gamma * (d * d).invert()
        assert berezinian(mat) == want

    def test_singular_body_rejected(self):
        with pytest.raises(NotInvertible):
            berezinian(SuperMatrix(D11, {(0, 0): SuperFunction.one(D11)}))

    def test_multiplicative(self):
        rng = random.Random(2)
        for _ in range(3):
            mats = []
            for _ in range(2):
                entries = {}
                for r in range(D12.size):
                    for c in range(D12.size):
                        p = (D12.parity(r) + D12.parity(c)) % 2
                        entries[(r, c)] = rand_super(rng, D12, p)
                    entries[(r, r)] = entries[(r, r)] + SuperFunction.constant(D12, 3)
                mats.append(SuperMatrix(D12, entries))
            m, n = mats
            assert berezinian(m * n) == berezinian(m) * berezinian(n)

    def test_matches_determinant_when_purely_even(self):
        rng = random.Random(4)
        entries = {(r, c): rand_super(rng, D20, 0) for r in range(2) for c in range(2)}
        entries[(0, 0)] = entries[(0, 0)] + SuperFunction.constant(D20, 5)
        entries[(1, 1)] = entries[(1, 1)] + SuperFunction.constant(D20, 5)
        mat = SuperMatrix(D20, entries)
        det = (mat.component(0, 0) * mat.component(1, 1)
               - mat.component(0, 1) * mat.component(1, 0))
        assert berezinian(mat) == det


class TestDlogBerezinian:
    def test_identity_change(self):
        c = CoordinateChange.identity(D11)
        for i in range(D11.size):
            assert dlog_berezinian(c, i).is_zero()

    def test_square_chart(self):
        d10 = Dimension.of(1, 0)
        x = SuperFunction.coordinate(d10, 0)
        c = CoordinateChange(d10, (x * x,), None)
        assert dlog_berezinian(c, 0) == expr(d10, "1/x1")

    def test_linear_change_vanishes(self):
        rng = random.Random(6)
        c = rand_linear_change(rng, D22)
        for i in range(D22.size):
            assert dlog_berezinian(c, i).is_zero()

    def test_agrees_with_direct_quotient(self):
        for c in (moebius_1_1(), mixing_2_2()):
            ber = berezinian_of_change(c)
            for i in range(c.dim.size):
                got = dlog_berezinian(c, i)
                want = ber.partial(i) * ber.invert()
                assert got == want


# ---------------------------------------------------------------------------
# div / j / trace-free projection
# ---------------------------------------------------------------------------

class TestDivTrace:
    def test_zero(self):
        assert div_trace(Sym2Cov(D22, {})).is_zero()

    def test_single_component(self):
        # 2|0 with A^1_{11} = f: div has component 2f at index 1
        f = expr(D20, "x1*x2")
        a = Sym2Cov(D20, {(0, 0, 0): f})
        d = div_trace(a)
        assert d.component(0) == f.scale(2)
        assert d.component(1).is_zero()

    def test_div_compose_j(self):
        rng = random.Random(11)
        for dim in DIMS_FOUR:
            for eps in (0, 1):
                phi = rand_covector(rng, dim, eps)
                out = div_trace(j_inject(phi))
                for i in range(dim.size):
                    assert out.component(i) == phi.component(i).scale(dim.n0 + 1)


class TestJInject:
    def test_zero(self):
        assert j_inject(CovectorField(D22, {})).is_zero()

    def test_one_dim_component(self):
        d10 = Dimension.of(1, 0)
        f = SuperFunction.coordinate(d10, 0)
        a = j_inject(CovectorField(d10, {0: f}))
        assert a.component(0, 0, 0) == f

    def test_round_trip_2_1(self):
        rng = random.Random(12)
        dim = Dimension.of(2, 1)
        phi = rand_covector(rng, dim, 0)
        out = div_trace(j_inject(phi))
        for i in range(dim.size):
            assert out.component(i) == phi.component(i).scale(2)


# ---------------------------------------------------------------------------
# the shared component table
# ---------------------------------------------------------------------------

# One fault each over 1|2 (index 0 even, 1 and 2 odd), for an even
# Sym2Upper: its components, its phase of validation and its message.
_TABLE_FAULTS = {
    "not_a_function": ({(2, 2): 3}, 1, ValidationError,
                       "component (2, 2) is not a SuperFunction"),
    "index_out_of_range": ({(0, 3): "x1"}, 2, UnknownCoordinate,
                           "coordinate index 3 out of range for Dimension(1|2)"),
    "parity": ({(0, 0): "th1"}, 2, ValidationError,
               "component (0,0) violates parity homogeneity"),
    "missing_mirror": ({(0, 1): "th1"}, 3, ValidationError,
                       "graded symmetry fails at (0,1)"),
    "odd_odd_sign": ({(1, 2): "x1", (2, 1): "x1"}, 3, ValidationError,
                     "graded symmetry fails at (1,2)"),
}


class TestComponentTable:
    @pytest.mark.parametrize("make, message", [
        (lambda f: CovectorField(D11, {1: f}), "component 1 violates"),
        (lambda f: Sym2Cov(D11, {(0, 0, 1): f}), "component (0,0,1) violates"),
        (lambda f: Sym2Upper(D11, {(0, 1): f, (1, 0): f}),
         "component (0,1) violates"),
        (lambda f: SuperMatrix(D11, {(0, 1): f}), "component (0,1) violates"),
    ])
    def test_one_parity_rule(self, make, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            make(expr(D11, "x1"))

    def test_graded_symmetry_of_the_last_two_indices(self):
        th = expr(D12, "th1")
        with pytest.raises(ValidationError, match=re.escape("fails at (0,1,2)")):
            Sym2Cov(D12, {(0, 1, 2): th, (0, 2, 1): th}, 1)
        a = Sym2Cov(D12, {(0, 1, 2): th, (0, 2, 1): -th}, 1)
        assert a.component(0, 2, 1) == -th
        with pytest.raises(ValidationError, match=re.escape("fails at (1,1)")):
            Sym2Upper(D12, {(1, 1): expr(D12, "x1")})

    def test_every_parity_is_checked_before_symmetry(self):
        comps = {(0, 1): expr(D11, "th1"), (1, 0): expr(D11, "x1")}
        with pytest.raises(ValidationError, match=re.escape("component (1,0)")):
            Sym2Upper(D11, comps)

    @pytest.mark.parametrize("names", [
        (a,) for a in _TABLE_FAULTS] + [
        (a, b) for a in _TABLE_FAULTS for b in _TABLE_FAULTS if a != b])
    def test_first_fault_of_the_earliest_phase_wins(self, names):
        comps = {}
        for name in names:
            for key, val in _TABLE_FAULTS[name][0].items():
                comps[key] = expr(D12, val) if isinstance(val, str) else val
        # the earliest phase wins; within a phase, the first component
        winner = min(names, key=lambda name: _TABLE_FAULTS[name][1])
        _, _, error, message = _TABLE_FAULTS[winner]
        with pytest.raises(error) as err:
            Sym2Upper(D12, comps)
        assert str(err.value) == message

    def test_odd_odd_mirror_of_the_right_sign_is_accepted(self):
        x1 = expr(D12, "x1")
        s = Sym2Upper(D12, {(1, 2): x1, (2, 1): -x1, (0, 1): expr(D12, "th1"),
                            (1, 0): expr(D12, "th1")})
        assert s.component(2, 1) == -x1

    def test_equality_within_a_kind(self):
        rng = random.Random(21)
        g = rand_connection(rng, D11)
        assert g == Sym2Cov(D11, g.comps) and hash(g) == hash(Sym2Cov(D11, g.comps))
        assert Sym2Cov(D11, {}) != Sym2Cov(D11, {}, 1)
        assert Sym2Cov(D11, {}) != Sym2Upper(D11, {})
        assert Sym2Upper(D11, {}) != SuperMatrix(D11, {})

    @staticmethod
    def count_tables(monkeypatch):
        built = []
        init = geometry._Table.__init__

        def counting(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)

        monkeypatch.setattr(geometry._Table, "__init__", counting)
        return built

    @pytest.mark.parametrize("dims", [(1, 1), (2, 1), (2, 2)])
    def test_projective_class_builds_one_table(self, monkeypatch, dims):
        gamma = rand_connection(random.Random(22), Dimension.of(*dims))
        built = self.count_tables(monkeypatch)
        projective_class(gamma)
        assert built == ["ProjectiveClass"]

    def test_schwarzian_builds_the_cocycle_and_the_result(self, monkeypatch):
        change = shear_2_0()
        built = self.count_tables(monkeypatch)
        super_schwarzian(change)
        assert built == ["Sym2Cov", "Sym2Cov"]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([(1, 1), (2, 1), (2, 2)]),
           st.integers(0, 1))
    def test_one_pass_trace_free_matches_reference(self, seed, dims, eps):
        dim = Dimension.of(*dims)
        a = rand_sym2cov(random.Random(seed), dim, eps)
        want = a - j_inject(div_trace(a)).scale(Fraction(1, dim.n0 + 1))
        assert Sym2Cov(dim, geometry._trace_free(a), eps) == want


# ---------------------------------------------------------------------------
# projective class
# ---------------------------------------------------------------------------

class TestProjectiveClass:
    def test_zero(self):
        assert projective_class(Connection(D22, {})).is_zero()

    def test_one_dimensional_flatness(self):
        d10 = Dimension.of(1, 0)
        g = Connection(d10, {(0, 0, 0): expr(d10, "x1^2 + 3")})
        assert projective_class(g).is_zero()

    def test_j_shift_invariance(self):
        rng = random.Random(13)
        for dim in DIMS_FOUR:
            g = rand_connection(rng, dim)
            phi = rand_covector(rng, dim, 0)
            shifted = Connection(dim, (g + j_inject(phi)).comps)
            assert projective_class(g) == projective_class(shifted)

    def test_trace_free(self):
        rng = random.Random(14)
        for dim in DIMS_FOUR:
            pc = projective_class(rand_connection(rng, dim))
            assert div_trace(pc).is_zero()

    def test_fixed_point(self):
        rng = random.Random(15)
        pc = projective_class(rand_connection(rng, D22))
        again = projective_class(Connection(D22, pc.comps))
        assert again == pc

    def test_supercoeffs_literal_formula(self):
        rng = random.Random(16)
        for dim in (D20, D11, D22):
            g = rand_connection(rng, dim)
            pc = projective_class(g)
            q = Fraction(1, dim.n0 + 1)
            for k in range(dim.size):
                for jj in range(dim.size):
                    for ii in range(dim.size):
                        d_j = SuperFunction.zero(dim)
                        d_i = SuperFunction.zero(dim)
                        for s in range(dim.size):
                            sgn = (-1) ** dim.parity(s)
                            d_j = d_j + g.component(s, jj, s).scale(sgn)
                            d_i = d_i + g.component(s, ii, s).scale(sgn)
                        val = g.component(k, jj, ii)
                        if k == ii:
                            val = val - d_j.scale(q)
                        if k == jj:
                            sgn = (-1) ** (dim.parity(ii) * dim.parity(jj))
                            val = val - d_i.scale(q * sgn)
                        assert val == pc.component(k, jj, ii)

    def test_singular_dimension(self):
        with pytest.raises(SingularDimension):
            projective_class(Connection(D12, {}))

    def test_detects_non_j_perturbation(self):
        g0 = Connection(D20, {})
        pert = Connection(D20, {(0, 0, 1): expr(D20, "x1"),
                                (0, 1, 0): expr(D20, "x1")})
        assert projective_class(g0) != projective_class(pert)

    def test_classical_reduction(self):
        # m = 0 matches the classical trace formula
        rng = random.Random(17)
        for n in (2, 3):
            dim = Dimension.of(n, 0)
            g = rand_connection(rng, dim)
            pc = projective_class(g)
            q = Fraction(1, n + 1)
            for k in range(n):
                for i in range(n):
                    for j in range(n):
                        tr_j = sum((g.component(s, s, j) for s in range(n)),
                                   SuperFunction.zero(dim))
                        tr_i = sum((g.component(s, i, s) for s in range(n)),
                                   SuperFunction.zero(dim))
                        want = g.component(k, i, j)
                        if k == i:
                            want = want - tr_j.scale(q)
                        if k == j:
                            want = want - tr_i.scale(q)
                        assert want == pc.component(k, i, j)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

class TestTransformConnection:
    def test_identity(self):
        rng = random.Random(18)
        g = rand_connection(rng, D11)
        assert transform_connection(g, CoordinateChange.identity(D11)) == g

    def test_flat_under_linear(self):
        rng = random.Random(19)
        c = rand_linear_change(rng, D22)
        assert transform_connection(Connection(D22, {}), c).is_zero()

    def test_classical_square_chart(self):
        # flat connection under xbar = x^2 (forward only): the tensorial law
        # of 0 - F_c, composed with the change, equals -1/(2 xbar)
        from superproj.geometry import _transform_core

        d10 = Dimension.of(1, 0)
        x = SuperFunction.coordinate(d10, 0)
        c = CoordinateChange(d10, (x * x,), None)
        raw = _transform_core(schwarzian_raw(c).scale(-1), c)
        assert raw[(0, 0, 0)] == expr(d10, "-1/(2*x1^2)")
        expected_in_new = expr(d10, "-1/(2*x1)")  # -1/(2 xbar)
        assert raw[(0, 0, 0)] == expected_in_new.substitute((x * x,))

    def test_functorial_under_composition(self):
        rng = random.Random(20)
        g = rand_connection(rng, D20)
        c1 = shear_2_0()
        x, y = coords(D20)
        c2 = CoordinateChange(D20, (x + y * y, y), (x - y * y, y))
        combined = c1.then(c2)
        assert transform_connection(g, combined) == transform_connection(
            transform_connection(g, c1), c2)

    def test_cocycle_is_raw_schwarzian_of_inverse(self):
        # independent route: the inhomogeneous term in the new chart is
        # F of the inverse change, not the law applied to Gamma - F_c
        rng = random.Random(24)
        for c in (moebius_1_1(), mixing_2_2()):
            g = rand_connection(rng, c.dim)
            assert transform_connection(g, c) == (
                transform_sym2cov(g, c) + schwarzian_raw(c.inverted()))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([(1, 1), (2, 1), (2, 2), (3, 1)]),
           st.integers(0, 1),
           st.sampled_from([rand_triangular_change, rand_moebius_change]))
    def test_half_contraction_matches_full(self, seed, dims, eps, make_change):
        # the law contracts the pairs a <= b and fills each mirror with
        # mirror_sign; the reference contracts every pair
        rng = random.Random(seed)
        dim = Dimension.of(*dims)
        a = rand_sym2cov(rng, dim, eps)
        c = make_change(rng, dim)
        got = geometry._transform_core(a, c)
        assert list(got.items()) == list(full_transform_core(a, c).items())

    def test_requires_inverse(self):
        d10 = Dimension.of(1, 0)
        x = SuperFunction.coordinate(d10, 0)
        c = CoordinateChange(d10, (x * x,), None)
        with pytest.raises(NotInvertible):
            transform_connection(Connection(d10, {}), c)


class TestSchwarzian:
    def test_identity_map(self):
        assert super_schwarzian(CoordinateChange.identity(D22)).is_zero()

    def test_linear_maps_vanish(self):
        rng = random.Random(21)
        for dim in DIMS_FOUR:
            for _ in range(3):
                c = rand_linear_change(rng, dim)
                assert super_schwarzian(c).is_zero()

    def test_shear_direct_substitution(self):
        # (xbar, ybar) = (x, y + x^2): second derivative d_x d_x ybar = 2,
        # inverse Jacobian contributes K[ybar][y] = 1; J constant so the
        # trace part vanishes.
        c = shear_2_0()
        s = super_schwarzian(c)
        assert s.component(1, 0, 0) == SuperFunction.constant(D20, 2)
        assert s.component(0, 0, 0).is_zero()
        assert s == schwarzian_raw(c)

    def test_defect_identity_flat(self):
        for c in (shear_2_0(), moebius_1_1(), mixing_2_2()):
            dim = c.dim
            pibar = projective_class(transform_connection(Connection(dim, {}), c))
            assert Sym2Cov(dim, pibar.comps) == super_schwarzian(c.inverted())

    def test_defect_identity_general(self):
        rng = random.Random(22)
        for c in (shear_2_0(), moebius_1_1(), mixing_2_2()):
            dim = c.dim
            g = rand_connection(rng, dim)
            pibar = projective_class(transform_connection(g, c))
            want = transform_sym2cov(
                Sym2Cov(dim, projective_class(g).comps), c) \
                + super_schwarzian(c.inverted())
            assert Sym2Cov(dim, pibar.comps) == want

    def test_composition_cocycle(self):
        x, y = coords(D20)
        d1 = shear_2_0()
        d2 = CoordinateChange(D20, (x + y * y, y), (x - y * y, y))
        composite = d2.then(d1)  # d1 o d2
        lhs = super_schwarzian(composite)
        rhs = super_schwarzian(d2) + transform_sym2cov(
            super_schwarzian(d1), d2.inverted())
        assert lhs == rhs

    def test_composition_cocycle_1_1(self):
        c1 = moebius_1_1()
        c2 = CoordinateChange(
            D11,
            (expr(D11, "2*x1 + 1"), expr(D11, "th1*x1")),
            (expr(D11, "(x1-1)/2"), expr(D11, "th1/((x1-1)/2)")))
        composite = c2.then(c1)
        lhs = super_schwarzian(composite)
        rhs = super_schwarzian(c2) + transform_sym2cov(
            super_schwarzian(c1), c2.inverted())
        assert lhs == rhs

    def test_singular_dimension(self):
        with pytest.raises(SingularDimension):
            super_schwarzian(CoordinateChange.identity(D12))

    def test_each_second_derivative_computed_once(self, monkeypatch):
        # 2|2: one d_i (d_j xbar^s) per s and pair i <= j, whatever the
        # upper index: size^2 (size + 1) / 2 = 40
        c = mixing_2_2()
        calls = []
        real = SuperFunction.partial

        def counting(f, i):
            calls.append(i)
            return real(f, i)

        monkeypatch.setattr(SuperFunction, "partial", counting)
        schwarzian_raw(c)
        assert len(calls) == 40

    def test_dlog_identity_backs_trace_term(self):
        # div of the raw cocycle equals twice d log Ber
        for c in (moebius_1_1(), mixing_2_2()):
            raw = schwarzian_raw(c)
            d = div_trace(raw)
            for i in range(c.dim.size):
                assert d.component(i) == dlog_berezinian(c, i).scale(2)


class TestTransformUpper:
    def test_invariance_of_pairing_like_contraction(self):
        # S transforms so that the second-order operator part is preserved:
        # checked indirectly via the Laplacian invariance tests; here check
        # functoriality and symmetry preservation.
        rng = random.Random(23)
        c = mixing_2_2()
        s = rand_upper(rng, D22, 1)
        out = transform_upper2(s, c)
        assert out.parity == s.parity
        ident = transform_upper2(s, CoordinateChange.identity(D22))
        assert ident == s


def swap_2_0():
    x, y = coords(D20)
    return CoordinateChange(D20, (y, x), (y, x))


def odd_swap_1_2():
    x, t1, t2 = coords(D12)
    return CoordinateChange(D12, (x, t2, t1), (x, t2, t1))


def double_swap_2_2():
    x, y, t1, t2 = coords(D22)
    return CoordinateChange(D22, (y, x, t2, t1), (y, x, t2, t1))


def graph_2_0():
    # J = [[2*x1, 1], [1, 0]]
    x, y = coords(D20)
    return CoordinateChange(D20, (y + x * x, x), (y, x - y * y))


class TestPivoting:
    """Changes whose Jacobian grid has a zero (0,0) entry, so the elimination
    swaps rows, or one, 2*x1, that vanishes at x1 = 0 but is a valid pivot;
    the Berezinians pin the sign of a row swap."""

    CASES = [(swap_2_0, -1), (odd_swap_1_2, -1), (double_swap_2_2, 1),
             (graph_2_0, -1)]

    @pytest.mark.parametrize("change, ber", CASES)
    def test_berezinian(self, change, ber):
        c = change()
        assert berezinian_of_change(c) == SuperFunction.constant(c.dim, ber)

    @pytest.mark.parametrize("change, ber", CASES)
    def test_inverse_jacobian(self, change, ber):
        c = change()
        size = c.dim.size
        jac, kinv = jacobian_rows(c), inverse_jacobian_rows(c)
        for a in range(size):
            for b in range(size):
                got = sum((kinv[a][i] * jac[i][b] for i in range(size)),
                          SuperFunction.zero(c.dim))
                want = SuperFunction.one(c.dim) if a == b else SuperFunction.zero(c.dim)
                assert got == want

    @pytest.mark.parametrize("change, ber", CASES)
    def test_defect_identity(self, change, ber):
        c = change()
        dim = c.dim
        g = rand_connection(random.Random(25), dim)
        if dim.n0 == -1:  # no trace projection at 1|2: the law before it
            assert transform_connection(g, c) == (
                transform_sym2cov(g, c) + schwarzian_raw(c.inverted()))
            return
        pibar = projective_class(transform_connection(g, c))
        want = transform_sym2cov(Sym2Cov(dim, projective_class(g).comps), c) \
            + super_schwarzian(c.inverted())
        assert Sym2Cov(dim, pibar.comps) == want


class TestCoordinateChangeValidation:
    def test_bad_inverse_rejected(self):
        x, y = coords(D20)
        with pytest.raises(ValidationError):
            CoordinateChange(D20, (x, y + x * x), (x, y))

    def test_wrong_parity_rejected(self):
        with pytest.raises(NonHomogeneous):
            CoordinateChange(D11, (SuperFunction.coordinate(D11, 1),
                                   SuperFunction.coordinate(D11, 0)), None)

    def test_singular_jacobian_rejected(self):
        x, y = coords(D20)
        with pytest.raises(NotInvertible):
            CoordinateChange(D20, (x, x), None)
