"""Results of operations are built without validation (``SuperFunction._of``,
``DensityElement._of``); these tests check that each
such result is exactly what the validating constructors would build, that
the summation primitives ``SuperFunction.sum`` and ``keyed_sums`` agree
with sums taken coefficient by coefficient, and that a coordinate change's
substitution plans give fresh substitutions' results.
"""

import json
import random
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superproj.cli import main, parse_scenario
from superproj.densities import DensityElement
from superproj.errors import DimensionMismatch, NotInvertible, ValidationError
from superproj.expressions import parse_expression
from superproj.geometry import CoordinateChange
from superproj.graded_algebra import (
    Dimension,
    Frac,
    Poly,
    Substitution,
    SuperFunction,
    keyed_sums,
    numer_denom,
    scalar_ring,
)

from helpers import rand_linear_change, rand_scalar, rand_super

DIMS = [Dimension.of(1, 1), Dimension.of(2, 1), Dimension.of(1, 2),
        Dimension.of(2, 2)]


def rand_function(rng, dim):
    """A random element with polynomial and true-fraction coefficients and
    rational constants."""
    f = rand_super(rng, dim).scale(Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
    if rng.random() < 0.6:
        q = rand_scalar(rng, dim, 2, 3)
        if q:
            f = f * SuperFunction(dim, {(): q}).invert()
    return f + rand_super(rng, dim)


def rand_density(rng, dim):
    weights = [Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(2, 3)]
    return DensityElement(dim, {rng.choice(weights): rand_function(rng, dim)
                                for _ in range(rng.randint(0, 3))})


def rand_values(rng, dim):
    """Coordinate values x_i + c_i + (even soul), th_a + (odd part): every
    nonzero polynomial keeps a nonzero body under them, so denominators stay
    invertible."""
    values = []
    for i in range(dim.size):
        v = SuperFunction.coordinate(dim, i)
        if dim.parity(i):
            v = v + rand_super(rng, dim, 1)
        else:
            even = rand_super(rng, dim, 0)
            soul = even - SuperFunction(dim, {(): even.body()})
            v = v + SuperFunction.constant(dim, rng.randint(-2, 2)) + soul
        values.append(v)
    return values


def rebuilt_coefficient(coeff, dim):
    """The coefficient rebuilt from its printed integers by public ring
    arithmetic, so a non-canonical stored form would not compare equal."""
    ring, gens = scalar_ring(dim)

    def poly(p):
        out = ring.zero
        for monom, c in p.terms():
            term = ring(c)
            for g, e in zip(gens, monom):
                term = term * g ** e
            out = out + term
        return out

    num, den = numer_denom(coeff)
    return poly(num) / poly(den)


def assert_trusted(f: SuperFunction):
    assert type(f.terms) is dict
    for key, coeff in f.terms.items():
        assert type(key) is tuple and all(type(i) is int for i in key)
        assert list(key) == sorted(set(key)) and all(0 <= i < f.dim.m for i in key)
        assert type(coeff) in (Poly, Frac) and coeff
        assert rebuilt_coefficient(coeff, f.dim) == coeff
    rebuilt = SuperFunction(f.dim, dict(f.terms))
    assert rebuilt == f and rebuilt.terms == f.terms


def assert_trusted_density(d: DensityElement):
    assert type(d.slices) is dict
    for w, f in d.slices.items():
        # a weight key is an int when integral, else a true Fraction
        assert type(w) is int or (type(w) is Fraction and w.denominator > 1)
        assert f.dim == d.dim and not f.is_zero()
        assert_trusted(f)
    assert DensityElement(d.dim, dict(d.slices)) == d


def reference_sum(dim, functions):
    """The sum of functions taken coefficient by coefficient with the
    coefficient ring's own +, built by the validating constructor; it does
    not go through `SuperFunction.sum`."""
    ring, _ = scalar_ring(dim)
    out = {}
    for f in functions:
        for key, coeff in f.terms.items():
            out[key] = out.get(key, ring.zero) + coeff
    return SuperFunction(dim, out)


cases = st.tuples(st.sampled_from(DIMS), st.integers(0, 10**6))


@settings(max_examples=40, deadline=None)
@given(cases)
def test_superfunction_results_are_canonical(case):
    dim, seed = case
    rng = random.Random(seed)
    a, b = rand_function(rng, dim), rand_function(rng, dim)
    q = Fraction(rng.randint(-3, 3), rng.randint(1, 5))
    results = [a + b, a - b, a - a, a * b, a * a, a.scale(q), a.scale(0), -a]
    results += [a.partial(i) for i in range(dim.size)]
    values = rand_values(rng, dim)
    results += [a.substitute(values), b.substitute(values)]
    # the summation primitive: no, one, cancelling and random summands
    zero = SuperFunction.zero(dim)
    assert SuperFunction.sum(dim, []) == zero
    for f in (a, b):  # a sole nonzero summand comes back unchanged
        assert SuperFunction.sum(dim, [f]) is f or f.is_zero()
        assert SuperFunction.sum(dim, [zero, f, zero]) is f or f.is_zero()
    assert SuperFunction.sum(dim, [a, -a]) == zero
    summands = [rand_function(rng, dim) for _ in range(rng.randint(2, 6))]
    summands += [-summands[0], zero]
    rng.shuffle(summands)
    total = SuperFunction.sum(dim, summands)
    assert total == reference_sum(dim, summands)
    results += [SuperFunction.sum(dim, []), SuperFunction.sum(dim, [a, -a]), total]
    # keyed sums: repeated keys, and key "c" whose summands cancel
    pairs = [(rng.choice("xyz"), f) for f in summands] + [("c", a), ("c", -a)]
    rng.shuffle(pairs)
    sums = keyed_sums(pairs)
    seen = [key for key, f in pairs if not f.is_zero()]
    want = {key: reference_sum(dim, [f for k, f in pairs if k == key])
            for key in dict.fromkeys(seen)}
    assert sums == {key: f for key, f in want.items() if not f.is_zero()}
    assert list(sums) == [key for key in want if not want[key].is_zero()]
    assert "c" not in sums
    results += list(sums.values())
    for f in results:
        assert_trusted(f)
    other = Dimension.of(dim.n + 1, dim.m)
    with pytest.raises(DimensionMismatch):
        SuperFunction.sum(dim, [a, SuperFunction.one(other)])
    with pytest.raises(DimensionMismatch):
        keyed_sums([(0, SuperFunction.one(dim)), (0, SuperFunction.one(other))])


@settings(max_examples=30, deadline=None)
@given(cases)
def test_density_results_are_canonical(case):
    dim, seed = case
    rng = random.Random(seed)
    a, b = rand_density(rng, dim), rand_density(rng, dim)
    q = Fraction(rng.randint(-3, 3), rng.randint(1, 5))
    results = [a + b, a - b, a - a, a * b, a.scale(q), a.scale(0)]
    results += [a.partial(i) for i in range(dim.size)]
    # slices summed by weight, a's cancelling: every slice of a + b - a is b's
    by_weight = keyed_sums(chain(a.slices.items(), b.slices.items(),
                                 [(w, -f) for w, f in a.slices.items()]))
    assert by_weight == b.slices
    results.append(DensityElement._of(dim, by_weight))
    for d in results:
        assert_trusted_density(d)


@settings(max_examples=20, deadline=None)
@given(cases)
def test_one_plan_equals_fresh_substitutions(case):
    dim, seed = case
    rng = random.Random(seed)
    values = rand_values(rng, dim)
    plan = Substitution(dim, values)
    functions = [rand_function(rng, dim) for _ in range(4)]
    # every function twice, so later calls run on the kept monomials
    for f in functions + functions[::-1]:
        assert plan(f) == f.substitute(values)


def test_plans_at_dimension_zero():
    d00 = Dimension.of(0, 0)
    three = SuperFunction.constant(d00, 3)
    assert three.substitute([]) == three
    change = CoordinateChange(d00, (), ())
    assert change.inverted().pullback(change.pullback(three)) == three


def test_plan_rejects_a_function_over_another_dimension():
    dim = DIMS[0]
    plan = Substitution(dim, [SuperFunction.coordinate(dim, i)
                              for i in range(dim.size)])
    with pytest.raises(DimensionMismatch):
        plan(SuperFunction.one(DIMS[1]))


SHEAR_1_1 = (("x1", "(1 + x1)*th1"), ("x1", "th1/(1 + x1)"))
SHEAR_2_1 = (("x1 + x2^2", "x2", "th1"), ("x1 - x2^2", "x2", "th1"))


def change_of(dim, pair):
    fwd, inv = pair
    return CoordinateChange(dim, tuple(parse_expression(dim, e) for e in fwd),
                            tuple(parse_expression(dim, e) for e in inv))


@pytest.mark.parametrize("change", [
    change_of(Dimension.of(1, 1), SHEAR_1_1),
    change_of(Dimension.of(2, 1), SHEAR_2_1),
    rand_linear_change(random.Random(5), Dimension.of(2, 2)),
])
def test_inverted_change(change):
    back = change.inverted()
    assert back.inverted() == change
    assert back == CoordinateChange(change.dim, change.inverse, change.forward)
    fresh = CoordinateChange(change.dim, change.inverse, change.forward)
    assert back._jacobian == fresh._jacobian
    assert back._inverse_jacobian == fresh._inverse_jacobian
    rng = random.Random(7)
    for _ in range(3):
        f = rand_super(rng, change.dim)
        assert back.pullback(change.pullback(f)) == f
        assert back.pullback(f) == f.substitute(change.inverse)
    assert change.then(back) == CoordinateChange.identity(change.dim)


def test_change_without_inverse_cannot_be_inverted():
    dim = Dimension.of(1, 1)
    change = CoordinateChange(dim, (parse_expression(dim, "x1 + 1"),
                                    parse_expression(dim, "th1")))
    with pytest.raises(NotInvertible):
        change.inverted()


WRONG_INVERSE = {
    "dimension": {"n": 1, "m": 1},
    "changes": {"c": {"forward": ["x1/(1 - 2*x1)", "th1/(1 - 2*x1)"],
                      "inverse": ["x1/(1 + 3*x1)", "th1/(1 + 2*x1)"]}},
}


def test_wrong_inverse_rejected_at_parse(tmp_path, capsys):
    text = json.dumps(WRONG_INVERSE)
    with pytest.raises(ValidationError, match="changes.c: inverse o forward is "
                       "not the identity at coordinate 0"):
        parse_scenario(text)
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    assert "Traceback" not in capsys.readouterr().err
