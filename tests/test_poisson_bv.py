import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superproj import densities
from superproj.densities import BracketTriple, DensityElement, bracket_from_triple
from superproj.errors import (
    Degenerate,
    NonHomogeneous,
    WrongParity,
    WrongWeight,
)
from superproj.expressions import parse_expression
from superproj.geometry import ProjectiveClass, Sym2Upper
from superproj.graded_algebra import Dimension, SuperFunction
from superproj.poisson_bv import (
    bv_check,
    canonical_pb,
    density_jacobi_check,
    hamiltonian_bracket,
    jacobi_conditions,
    jacobi_obstruction,
    jacobiator,
    master_hamiltonian,
    momentum,
    phase_dimension,
    projective_poisson_check,
    satisfied,
    symplectic_canonical_check,
)
from superproj.thomas import extend_bracket

from helpers import (
    darboux_odd,
    rand_projective_class,
    rand_scalar,
    rand_super,
    rand_triple,
    rand_upper,
)

D11 = Dimension.of(1, 1)
D22 = Dimension.of(2, 2)
P11 = phase_dimension(D11)


def expr(dim, text):
    return parse_expression(dim, text)


def rand_phase(rng, dim, parity=None):
    return rand_super(rng, phase_dimension(dim), parity, deg=2)


# ---------------------------------------------------------------------------
# canonical bracket
# ---------------------------------------------------------------------------

class TestCanonicalPB:
    def test_normalization(self):
        x = SuperFunction.coordinate(P11, 0)
        px = SuperFunction.coordinate(P11, 1)
        th = SuperFunction.coordinate(P11, 2)
        pth = SuperFunction.coordinate(P11, 3)
        one = SuperFunction.one(P11)
        assert canonical_pb(px, x, D11) == one
        assert canonical_pb(pth, th, D11) == one
        assert canonical_pb(x, th, D11).is_zero()
        assert canonical_pb(px, pth, D11).is_zero()

    def test_axioms_on_random_phase_functions(self):
        rng = random.Random(51)
        checked = 0
        while checked < 8:
            f = rand_phase(rng, D11, rng.randint(0, 1))
            g = rand_phase(rng, D11, rng.randint(0, 1))
            h = rand_phase(rng, D11, rng.randint(0, 1))
            if f.is_zero() or g.is_zero() or h.is_zero():
                continue
            checked += 1
            pf, pg = int(f.parity()), int(g.parity())
            anti = canonical_pb(f, g, D11) \
                + canonical_pb(g, f, D11).scale((-1) ** (pf * pg))
            assert anti.is_zero()
            leib = canonical_pb(f, g * h, D11) \
                - canonical_pb(f, g, D11) * h \
                - (g * canonical_pb(f, h, D11)).scale((-1) ** (pf * pg))
            assert leib.is_zero()
            jac = canonical_pb(f, canonical_pb(g, h, D11), D11) \
                - canonical_pb(canonical_pb(f, g, D11), h, D11) \
                - canonical_pb(g, canonical_pb(f, h, D11), D11).scale(
                    (-1) ** (pf * pg))
            assert jac.is_zero()

    def test_requires_homogeneous(self):
        mixed = SuperFunction.coordinate(P11, 0) + SuperFunction.coordinate(P11, 2)
        px = SuperFunction.coordinate(P11, 1)
        for f, g in ((mixed, mixed), (px, mixed), (mixed, px)):
            with pytest.raises(NonHomogeneous):
                canonical_pb(f, g, D11)

    def test_momentum_pair_against_leibniz_expansion(self):
        # (p_th p_x, th x) expanded by bilinearity + Leibniz by hand:
        # F = p_th p_x is odd, so (F, th x) = (F, th) x - th (F, x)
        x = SuperFunction.coordinate(P11, 0)
        px = SuperFunction.coordinate(P11, 1)
        th = SuperFunction.coordinate(P11, 2)
        pth = SuperFunction.coordinate(P11, 3)
        F = pth * px
        assert canonical_pb(F, th, D11) == px
        assert canonical_pb(F, x, D11) == pth
        want = px * x - th * pth
        assert canonical_pb(F, th * x, D11) == want


class TestHamiltonianBracket:
    def test_constants_killed(self):
        s = master_hamiltonian(darboux_odd(D11))
        f = expr(D11, "3")
        g = expr(D11, "x1*th1")
        assert hamiltonian_bracket(s, f, g, D11).is_zero()

    def test_darboux_component(self):
        # S = 2 p_th p_x: both routes give {x, th} = +-2 S^{x th}
        s_t = Sym2Upper(D11, {(0, 1): SuperFunction.one(D11),
                              (1, 0): SuperFunction.one(D11)}, 1)
        sp = master_hamiltonian(s_t)
        assert sp == momentum(D11, 1) * momentum(D11, 0) * \
            SuperFunction.constant(P11, 2).migrate(P11)
        got = hamiltonian_bracket(sp, expr(D11, "x1"), expr(D11, "th1"), D11)
        assert got == SuperFunction.constant(D11, 2)

    def test_equals_twice_triple_bracket(self):
        rng = random.Random(52)
        for eps in (0, 1):
            s = rand_upper(rng, D22, eps, deg=2)
            sp = master_hamiltonian(s)
            triple = BracketTriple(s, {}, SuperFunction.zero(D22), eps, 0)
            f = rand_super(rng, D22, rng.randint(0, 1), deg=2)
            g = rand_super(rng, D22, rng.randint(0, 1), deg=2)
            if f.is_zero() or g.is_zero():
                continue
            hb = hamiltonian_bracket(sp, f, g, D22)
            tb = bracket_from_triple(
                triple, DensityElement.of(f), DensityElement.of(g)).slice(0)
            assert hb == tb.scale(2)

    def test_symmetric(self):
        rng = random.Random(53)
        s = rand_upper(rng, D22, 1, deg=1)
        sp = master_hamiltonian(s)
        f = rand_super(rng, D22, 0, deg=1)
        g = rand_super(rng, D22, 1, deg=1)
        lhs = hamiltonian_bracket(sp, f, g, D22)
        rhs = hamiltonian_bracket(sp, g, f, D22).scale(
            (-1) ** (int(f.parity()) * int(g.parity())))
        assert lhs == rhs

    def test_biderivation(self):
        rng = random.Random(54)
        s = rand_upper(rng, D11, 1)
        sp = master_hamiltonian(s)
        f = rand_super(rng, D11, 0)
        g = rand_super(rng, D11, 1)
        h = rand_super(rng, D11, 0)
        eps = 1
        lhs = hamiltonian_bracket(sp, f, g * h, D11)
        rhs = hamiltonian_bracket(sp, f, g, D11) * h \
            + (g * hamiltonian_bracket(sp, f, h, D11)).scale(
                (-1) ** ((int(f.parity()) + eps) * int(g.parity())))
        assert lhs == rhs


class TestParityShift:
    """[a, .] = (-1)^{a~} {a, .}: the shift is a sign on the bracket value."""

    def test_round_trip(self):
        a = expr(D11, "th1")
        val = DensityElement.of(expr(D11, "x1"))
        sign = (-1) ** int(a.parity())
        assert val.scale(sign).scale(sign) == val

    def test_even_arguments_unchanged(self):
        a = expr(D11, "x1")
        val = DensityElement.of(expr(D11, "x1^2"))
        assert val.scale((-1) ** int(a.parity())) == val

    def test_shifted_antisymmetry(self):
        # {a,b} = (-1)^{ab} {b,a}  =>  [a,b] = -(-1)^{(a+1)(b+1)} [b,a]
        rng = random.Random(55)
        t = rand_triple(rng, D11, 1, 0)
        for fa, fb in [("x1", "th1"), ("x1*th1", "x1"), ("th1", "th1")]:
            a, b = expr(D11, fa), expr(D11, fb)
            da, db = DensityElement.of(a), DensityElement.of(b)
            lhs = bracket_from_triple(t, da, db).scale((-1) ** int(a.parity()))
            rhs = bracket_from_triple(t, db, da).scale(
                (-1) ** int(b.parity())
                * -((-1) ** ((int(a.parity()) + 1) * (int(b.parity()) + 1))))
            assert lhs == rhs


# ---------------------------------------------------------------------------
# Jacobi obstruction
# ---------------------------------------------------------------------------

NONFLAT_S = {
    (0, 0): "2*x1*th1",
    (0, 1): "1",
}


def nonflat_odd_tensor(dim=D11):
    comps = {}
    for (i, j), text in NONFLAT_S.items():
        val = expr(dim, text)
        comps[(i, j)] = val
        if i != j:
            comps[(j, i)] = val
    return Sym2Upper(dim, comps, 1)


class TestJacobiObstruction:
    def test_constant_darboux_flat(self):
        s = master_hamiltonian(darboux_odd(D11))
        assert jacobi_obstruction(s, D11).is_zero()

    def test_zero(self):
        assert jacobi_obstruction(
            SuperFunction.zero(P11), D11).is_zero()

    def test_nonflat_with_witness(self):
        s_t = nonflat_odd_tensor()
        sp = master_hamiltonian(s_t)
        obstruction = jacobi_obstruction(sp, D11)
        assert not obstruction.is_zero()
        triple = BracketTriple(s_t, {}, SuperFunction.zero(D11), 1, 0)
        family = [DensityElement.of(expr(D11, t))
                  for t in ("x1", "th1", "x1^2", "x1*th1")]
        witness = None
        for a in family:
            for b in family:
                for c in family:
                    if not jacobiator(triple, a, b, c).is_zero():
                        witness = (a, b, c)
                        break
        assert witness is not None

    def test_even_s_rejected(self):
        s = master_hamiltonian(rand_upper(random.Random(56), D11, 0))
        with pytest.raises(NonHomogeneous):
            jacobi_obstruction(s, D11)


# ---------------------------------------------------------------------------
# BV check
# ---------------------------------------------------------------------------

class TestBVCheck:
    def test_darboux_flat_both_dims(self):
        for dim in (D11, D22):
            conditions, info = bv_check(darboux_odd(dim),
                                        ProjectiveClass(dim, {}))
            assert satisfied(conditions)
            assert info["laplacian_square_zero"]
            assert info["verdicts_agree"]
            assert info["order_of_square"] == 0

    def test_zero_tensor(self):
        conditions, _ = bv_check(Sym2Upper(D11, {}, 1), ProjectiveClass(D11, {}))
        assert satisfied(conditions)

    def test_dimension_zero_has_no_conditions(self):
        d00 = Dimension.of(0, 0)
        conditions, info = bv_check(Sym2Upper(d00, {}, 1), ProjectiveClass(d00, {}))
        assert conditions == {} and satisfied(conditions)
        assert info == {"laplacian_square_zero": True, "formula_square_zero": True,
                        "order_of_square": 0, "verdicts_agree": True}

    def test_counterexample_fails_both_ways(self):
        conditions, info = bv_check(nonflat_odd_tensor(), ProjectiveClass(D11, {}))
        assert not satisfied(conditions)
        assert not info["laplacian_square_zero"]
        assert info["verdicts_agree"]

    def test_order_bounds(self):
        # odd constant-free Delta of order <= 2: ord(Delta^2) <= 3 always,
        # equal to 0 here since Jacobi holds and the data is flat
        _, info = bv_check(nonflat_odd_tensor(), ProjectiveClass(D11, {}))
        assert info["order_of_square"] <= 3
        assert info["order_of_square"] > 2  # Jacobi fails here

    def test_even_tensor_rejected(self):
        with pytest.raises(WrongParity):
            bv_check(rand_upper(random.Random(57), D11, 0),
                     ProjectiveClass(D11, {}))

    def test_square_order_at_most_two_when_jacobi_holds(self):
        # constant Darboux S has (S,S) = 0 for any projective class, so the
        # order of the squared Laplacian is bounded by two even when the
        # class makes the square nonzero
        from helpers import rand_projective_class

        rng = random.Random(90)
        for _ in range(2):
            pc = rand_projective_class(rng, D11)
            _, info = bv_check(darboux_odd(D11), pc)
            assert info["order_of_square"] <= 2


# ---------------------------------------------------------------------------
# density Jacobi conditions
# ---------------------------------------------------------------------------

def canonical_flat_triple(dim, rho):
    """Darboux S with gamma, theta built from rho (satisfies Jacobi)."""
    s = darboux_odd(dim)
    dlog = {j: rho.partial(j) * rho.invert() for j in range(dim.size)}
    gamma = {}
    for i in range(dim.size):
        acc = SuperFunction.zero(dim)
        for j in range(dim.size):
            val = s.component(i, j)
            if not val.is_zero():
                acc = acc + val * dlog[j]
        if not acc.is_zero():
            gamma[i] = acc.scale(-1)
    theta = SuperFunction.zero(dim)
    for k in range(dim.size):
        theta = theta + gamma.get(k, SuperFunction.zero(dim)) * dlog[k].scale(-1)
    return BracketTriple(s, gamma, theta, 1, 0)


class TestDensityJacobi:
    def test_s_only_triple(self):
        t = BracketTriple(darboux_odd(D11), {}, SuperFunction.zero(D11), 1, 0)
        conditions, info = density_jacobi_check(t)
        assert satisfied(conditions)
        assert info["direct_jacobi_holds"]
        assert info["verdicts_agree"]

    def test_constant_theta_only(self):
        t = BracketTriple(Sym2Upper(D11, {}, 1), {},
                          SuperFunction.coordinate(D11, 1), 1, 0)
        conditions, _ = density_jacobi_check(t)
        assert satisfied(conditions)

    def test_canonical_construction_satisfies(self):
        rho = expr(D22, "1 + x1^2 + x2 + x1*th1*th2")
        t = canonical_flat_triple(D22, rho)
        conditions, info = density_jacobi_check(t)
        assert satisfied(conditions)
        assert info["direct_jacobi_holds"]
        assert info["verdicts_agree"]

    def test_bad_gamma_detected(self):
        # gamma not of volume-gradient form: (S, gamma) != 0
        s = darboux_odd(D11)
        gamma = {0: expr(D11, "x1*th1"), 1: expr(D11, "x1^2")}
        t = BracketTriple(s, gamma, SuperFunction.zero(D11), 1, 0)
        conditions, info = density_jacobi_check(t)
        assert not conditions["(S,gamma)"].is_zero()
        assert not satisfied(conditions)
        assert info["verdicts_agree"]

    def test_verdict_agreement_random(self):
        rng = random.Random(58)
        agree = 0
        for _ in range(6):
            t = rand_triple(rng, D11, 1, 0)
            _, info = density_jacobi_check(t)
            assert info["verdicts_agree"]
            agree += 1
        assert agree == 6

    def test_weight_guard(self):
        rng = random.Random(59)
        t = rand_triple(rng, D11, 1, Fraction(1, 2))
        with pytest.raises(WrongWeight):
            density_jacobi_check(t)

    def test_parity_guard(self):
        rng = random.Random(60)
        t = rand_triple(rng, D11, 0, 0)
        with pytest.raises(WrongParity):
            density_jacobi_check(t)


# ---------------------------------------------------------------------------
# direct Jacobi route: generator triples decide like the sampled family
# ---------------------------------------------------------------------------

def sampled_family_verdict(triple):
    """Whether the jacobiator vanishes on all ordered triples of the family
    the direct route sampled before: the generators, x1*th1 and
    th1 |Dx|^(1/2)."""
    dim = triple.dim
    x1 = SuperFunction.coordinate(dim, 0)
    th1 = SuperFunction.coordinate(dim, dim.n)
    family = [DensityElement.of(SuperFunction.coordinate(dim, i))
              for i in range(dim.size)]
    family += [DensityElement.volume(dim), DensityElement.of(x1 * th1),
               DensityElement.of(th1, Fraction(1, 2))]
    return all(jacobiator(triple, a, b, c).is_zero()
               for a in family for b in family for c in family)


def near_darboux_triple(seed, dims, kind):
    """Constant S pairing x_b with th_b, with the canonical gamma and theta
    of the formal volume exp(f) for an even polynomial f (passes Jacobi);
    `kind` then plants c x_a th_b on the (a, a) slot of S, adds a random
    gamma or adds a random theta (mostly fails)."""
    rng = random.Random(seed)
    dim = Dimension.of(*dims)
    comps = {}
    for b in range(min(dim.n, dim.m)):
        c = SuperFunction.constant(dim, rng.choice([1, -1, 2, Fraction(1, 2)]))
        comps[(b, dim.n + b)] = comps[(dim.n + b, b)] = c
    if kind == "planted":
        a, b = rng.randrange(dim.n), dim.n + rng.randrange(dim.m)
        comps[(a, a)] = (SuperFunction.coordinate(dim, a)
                         * SuperFunction.coordinate(dim, b)).scale(
                             rng.choice([1, -2, 3]))
    s = Sym2Upper(dim, comps, 1)
    f = SuperFunction(dim, {(): rand_scalar(rng, dim, deg=1)})
    df = [f.partial(j) for j in range(dim.size)]
    gamma = {}
    for i in range(dim.size):
        acc = SuperFunction.zero(dim)
        for j in range(dim.size):
            acc = acc - s.component(i, j) * df[j]
        gamma[i] = acc
    theta = SuperFunction.zero(dim)
    for k in range(dim.size):
        theta = theta - gamma[k] * df[k]
    if kind == "gamma":
        i = rng.randrange(dim.size)
        gamma[i] = gamma[i] + rand_super(rng, dim, (dim.parity(i) + 1) % 2)
    elif kind == "theta":
        theta = theta + rand_super(rng, dim, 1)
    return BracketTriple(s, gamma, theta, 1, 0)


class TestGeneratorTriples:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([(1, 1), (2, 1), (2, 2)]),
           st.sampled_from(["darboux", "planted", "gamma", "theta"]))
    def test_verdict_equals_sampled_family_verdict(self, seed, dims, kind):
        triple = near_darboux_triple(seed, dims, kind)
        conditions, info = density_jacobi_check(triple)
        assert info["direct_jacobi_holds"] == sampled_family_verdict(triple)
        assert info["verdicts_agree"]
        if kind == "darboux":
            assert satisfied(conditions)

    @pytest.mark.parametrize("dim, calls, reference_calls",
                             [(D11, 11, 60), (D22, 29, 210)])
    def test_each_generator_bracket_evaluated_once(
            self, monkeypatch, dim, calls, reference_calls):
        # the check: C(n+m+2, 2) table brackets, then an outer bracket only
        # where a table entry is nonzero; the reference: six per jacobiator
        counted = []
        bracket = densities.bracket_from_triple

        def counting(*args):
            counted.append(args)
            return bracket(*args)

        monkeypatch.setattr(densities, "bracket_from_triple", counting)
        triple = BracketTriple(darboux_odd(dim), {}, SuperFunction.zero(dim), 1, 0)
        assert density_jacobi_check(triple)[1]["direct_jacobi_holds"]
        assert len(counted) == calls
        counted.clear()
        assert reference_witness(triple) is None
        assert len(counted) == reference_calls

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([(1, 1), (2, 1), (2, 2)]),
           st.sampled_from(["darboux", "planted", "gamma", "theta"]))
    def test_table_route_equals_reference_jacobiators(self, seed, dims, kind):
        assert_reference_verdict(near_darboux_triple(seed, dims, kind))

    @pytest.mark.parametrize("slot, perturbation", [
        (None, None), ("gamma", "th1/(1 + x2^2)"), ("theta", "x1*th2/(1 - x2)")])
    def test_table_route_equals_reference_on_fractions(self, slot, perturbation):
        t = canonical_flat_triple(D22, expr(D22, "1 + x1^2 + x2*th1*th2"))
        gamma, theta = dict(t.gamma), t.theta
        if slot == "gamma":
            gamma[0] = gamma.get(0, SuperFunction.zero(D22)) + expr(D22, perturbation)
        elif slot == "theta":
            theta = theta + expr(D22, perturbation)
        _, info = assert_reference_verdict(BracketTriple(t.s, gamma, theta, 1, 0))
        assert info["direct_jacobi_holds"] == (slot is None)


def reference_witness(triple):
    """The first sorted generator triple whose reference jacobiator is
    nonzero, or None."""
    dim = triple.dim
    generators = [DensityElement.of(SuperFunction.coordinate(dim, i))
                  for i in range(dim.size)] + [DensityElement.volume(dim)]
    return next((abc for abc in combinations_with_replacement(generators, 3)
                 if not jacobiator(triple, *abc).is_zero()), None)


def assert_reference_verdict(triple):
    """The check's direct verdict and witness equal the reference loop's,
    and the direct verdict equals the master-Hamiltonian one."""
    conditions, info = density_jacobi_check(triple)
    witness = reference_witness(triple)
    assert info["direct_jacobi_holds"] == (witness is None)
    assert info.get("jacobi_witness") == witness
    assert info["verdicts_agree"]
    return conditions, info


# ---------------------------------------------------------------------------
# nondegenerate checks
# ---------------------------------------------------------------------------

class TestSymplecticCanonical:
    def test_trivial_volume(self):
        t = BracketTriple(darboux_odd(D11), {}, SuperFunction.zero(D11), 1, 0)
        conditions, _ = symplectic_canonical_check(t, SuperFunction.one(D11))
        assert satisfied(conditions)

    def test_trivial_volume_reduces_to_gamma_theta_zero(self):
        # with rho = 1 the conditions collapse to gamma = 0 and theta = 0
        gamma = {1: expr(D11, "x1")}
        t = BracketTriple(darboux_odd(D11), gamma, SuperFunction.zero(D11), 1, 0)
        conditions, _ = symplectic_canonical_check(t, SuperFunction.one(D11))
        assert not satisfied(conditions)
        assert any(k.startswith("gamma^2") and not v.is_zero()
                   for k, v in conditions.items())

    def test_build_then_check(self):
        rho = expr(D11, "1 + x1^2")
        t = canonical_flat_triple(D11, rho)
        conditions, _ = symplectic_canonical_check(t, rho)
        assert satisfied(conditions)

    def test_perturbed_theta_fails(self):
        rho = expr(D11, "1 + x1^2")
        t = canonical_flat_triple(D11, rho)
        bad = BracketTriple(t.s, t.gamma,
                            t.theta + expr(D11, "th1"), 1, 0)
        conditions, _ = symplectic_canonical_check(bad, rho)
        assert not satisfied(conditions)
        assert not conditions["theta-gamma^k*gamma_k"].is_zero()

    def test_degenerate_rejected(self):
        t = BracketTriple(Sym2Upper(D11, {}, 1), {}, SuperFunction.zero(D11), 1, 0)
        with pytest.raises(Degenerate):
            symplectic_canonical_check(t, SuperFunction.one(D11))


class TestProjectivePoisson:
    def test_flat_case(self):
        for dim in (D11, D22):
            conditions, info = projective_poisson_check(
                darboux_odd(dim), ProjectiveClass(dim, {}),
                SuperFunction.one(dim))
            assert satisfied(conditions)
            assert info["extension_jacobi_satisfied"]

    def test_nonconstant_volume_breaks_first_display(self):
        rho = expr(D11, "1 + x1^2")
        conditions, info = projective_poisson_check(
            darboux_odd(D11), ProjectiveClass(D11, {}), rho)
        assert not satisfied(conditions)
        assert any(k.startswith("volume_flatness") and not v.is_zero()
                   for k, v in conditions.items())
        # sufficiency direction: a satisfied report implies the extension
        # satisfies Jacobi; nothing is implied when the report fails
        assert info["extension_jacobi_satisfied"]

    def test_dual_path_agreement_flat(self):
        conditions, info = projective_poisson_check(
            darboux_odd(D22), ProjectiveClass(D22, {}), SuperFunction.one(D22))
        assert satisfied(conditions) == info["extension_jacobi_satisfied"]

    @pytest.mark.parametrize("dim, seed, holds",
                             [(D11, None, True), (D22, None, True), (D22, 0, False)])
    def test_extension_tested_by_jacobi_conditions_only(
            self, monkeypatch, dim, seed, holds):
        # the extension's verdict comes from its four obstructions alone:
        # no bracket is evaluated, and no report of the direct route is kept
        counted = []
        bracket = densities.bracket_from_triple

        def counting(*args):
            counted.append(args)
            return bracket(*args)

        monkeypatch.setattr(densities, "bracket_from_triple", counting)
        s = darboux_odd(dim)
        pi = (ProjectiveClass(dim, {}) if seed is None
              else rand_projective_class(random.Random(seed), dim))
        _, info = projective_poisson_check(s, pi, SuperFunction.one(dim))
        assert counted == []
        assert set(info) == {"extension_jacobi_satisfied"}
        want = satisfied(jacobi_conditions(extend_bracket(s, pi, 0)))
        assert info["extension_jacobi_satisfied"] == want == holds

    def test_degenerate_rejected(self):
        with pytest.raises(Degenerate):
            projective_poisson_check(
                nonflat_degenerate(), ProjectiveClass(D11, {}),
                SuperFunction.one(D11))


def nonflat_degenerate():
    return Sym2Upper(D11, {(0, 0): expr(D11, "2*x1*th1")}, 1)
