"""The transformation laws, the Thomas x0-row and the BV flow conditions walk
the stored components of their tensors; these tests compare each with the
dense index loop it replaced, kept here as the reference, on random data:
the same keys, in the same order, with the same values."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superproj.densities import (
    DensityElement,
    laplacian_vector,
    projective_laplacian,
)
from superproj.geometry import (
    Connection,
    Sym2Upper,
    _Table,
    _transform_core,
    inverse_jacobian_rows,
    jacobian_rows,
    projective_class,
    schwarzian_raw,
    transform_connection,
    transform_upper2,
)
from superproj.graded_algebra import Dimension, SuperFunction
from superproj.poisson_bv import bv_check
from superproj.thomas import b_tensor, tilde_ricci

from helpers import (
    rand_connection,
    rand_linear_change,
    rand_moebius_change,
    rand_projective_class,
    rand_sym2cov,
    rand_triangular_change,
    rand_upper,
)

DIMS = [Dimension.of(1, 1), Dimension.of(2, 1), Dimension.of(1, 2),
        Dimension.of(2, 2), Dimension.of(3, 1)]
CHANGES = [rand_linear_change, rand_triangular_change, rand_moebius_change]


# ---------------------------------------------------------------------------
# the dense loops, as references
# ---------------------------------------------------------------------------


def reference_transform_core(a, c):
    dim = a.dim
    rows = jacobian_rows(c)
    kinv = inverse_jacobian_rows(c)
    size = dim.size
    inner = {}
    for aa in range(size):
        for bb in range(size):
            for k in range(size):
                acc = SuperFunction.zero(dim)
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
                        acc = acc + (ki * kinv[bb][j] * comp).scale(sign)
                inner[(aa, bb, k)] = acc
    out = {}
    for d in range(size):
        for aa in range(size):
            for bb in range(size):
                acc = SuperFunction.zero(dim)
                for k in range(size):
                    jf = rows[k][d]
                    if not jf.is_zero():
                        acc = acc + inner[(aa, bb, k)] * jf
                if not acc.is_zero():
                    out[(d, aa, bb)] = acc
    return out


def reference_transform_upper2(s, c):
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
            val = (raw[(aa, bb)]
                   + raw[(bb, aa)].scale(dim.mirror_sign(aa, bb))).scale(half)
            if not val.is_zero():
                sym[(aa, bb)] = val
    return Sym2Upper(dim, {key: inverse(val) for key, val in sym.items()},
                     s.parity)


def reference_schwarzian_raw_comps(c):
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
                    d2 = rows[j][s].partial(i)
                    if not d2.is_zero():
                        acc = acc + d2 * kinv[s][k]
                if not acc.is_zero():
                    comps[(k, i, j)] = acc
    return comps


def reference_ricci_combination(pi, pp_sign):
    dim = pi.dim
    n0 = dim.n0
    pref = Fraction(n0 + 1, n0 - 1)
    out = {}
    for k in range(dim.size):
        for j in range(dim.size):
            acc = SuperFunction.zero(dim)
            for q in range(dim.size):
                sign = (-1) ** (dim.parity(q)
                                * (1 + dim.parity(k) + dim.parity(j)))
                d_term = pi.component(q, k, j).partial(q)
                if not d_term.is_zero():
                    acc = acc + d_term.scale(sign)
                for p in range(dim.size):
                    left = pi.component(p, q, k)
                    right = pi.component(q, p, j)
                    if left.is_zero() or right.is_zero():
                        continue
                    acc = acc + (left * right).scale(pp_sign * sign)
            if not acc.is_zero():
                out[(k, j)] = acc.scale(pref)
    return out


def reference_bv_conditions(s, pi):
    dim = s.dim
    t_vec = laplacian_vector(s, pi)
    delta = projective_laplacian(s, pi)

    def apply(f):
        return delta(DensityElement.of(f)).slice(0)

    zero = SuperFunction.zero(dim)
    t = [t_vec.get(i, zero) for i in range(dim.size)]
    conditions = {f"flow_of_T^{i + 1}": apply(t[i]) for i in range(dim.size)}
    for i in range(dim.size):
        ti = t[i]
        for j in range(dim.size):
            tj = t[j]
            acc = apply(s.component(i, j))
            for k in range(dim.size):
                s_ik = s.component(i, k)
                s_jk = s.component(j, k)
                if not s_ik.is_zero():
                    sign = (-1) ** dim.parity(j)
                    acc = acc + (s_ik * tj.partial(k)).scale(sign)
                if not s_jk.is_zero():
                    sign = (-1) ** (dim.parity(i) * (dim.parity(j) + 1))
                    acc = acc + (s_jk * ti.partial(k)).scale(sign)
            if not acc.is_zero():
                conditions[f"flow_of_S^{i + 1}{j + 1}"] = acc
    return conditions


# ---------------------------------------------------------------------------
# equality with the references
# ---------------------------------------------------------------------------


def items(mapping):
    """Keys, their order and values, as one comparable list."""
    return list(mapping.items())


def sparse(rng, comps, keep):
    """The components of a graded-symmetric table, each (.., i, j) kept
    together with its mirror (.., j, i) with probability keep, so tables
    with absent components are drawn as well as dense ones."""
    out = {}
    for (*head, i, j), val in comps.items():
        if i <= j and rng.random() < keep:
            out[(*head, i, j)] = val
            out[(*head, j, i)] = comps[(*head, j, i)]
    return out


cases = st.tuples(st.sampled_from(DIMS), st.sampled_from(CHANGES),
                  st.integers(0, 10 ** 6))


@settings(max_examples=40, deadline=None)
@given(cases, st.sampled_from([0, 1]), st.sampled_from([1.0, 0.4]))
def test_transform_core_equals_reference(case, eps, keep):
    dim, make_change, seed = case
    rng = random.Random(seed)
    change = make_change(rng, dim)
    a = rand_sym2cov(rng, dim, eps)
    a = type(a)(dim, sparse(rng, a.comps, keep), eps)
    assert items(_transform_core(a, change)) == items(
        reference_transform_core(a, change))


@settings(max_examples=40, deadline=None)
@given(cases)
def test_schwarzian_raw_equals_reference(case):
    dim, make_change, seed = case
    change = make_change(random.Random(seed), dim)
    assert items(schwarzian_raw(change).comps) == items(
        reference_schwarzian_raw_comps(change))


@settings(max_examples=40, deadline=None)
@given(cases, st.sampled_from([0, 1]), st.sampled_from([1.0, 0.4]))
def test_transform_upper2_equals_reference(case, eps, keep):
    dim, make_change, seed = case
    rng = random.Random(seed)
    change = make_change(rng, dim)
    s = rand_upper(rng, dim, eps)
    s = Sym2Upper(dim, sparse(rng, s.comps, keep), eps)
    got = transform_upper2(s, change)
    want = reference_transform_upper2(s, change)
    assert got.parity == want.parity == eps
    assert items(got.comps) == items(want.comps)


# n - m = +-1 make the prefactor (n0+1)/(n0-1) singular
RICCI_DIMS = [d for d in DIMS if d.n0 not in (1, -1)]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(RICCI_DIMS), st.integers(0, 10 ** 6),
       st.sampled_from([1.0, 0.4]))
def test_ricci_combinations_equal_reference(dim, seed, keep):
    rng = random.Random(seed)
    gamma = rand_connection(rng, dim, deg=2)
    pi = projective_class(Connection(dim, sparse(rng, gamma.comps, keep)))
    assert items(tilde_ricci(pi)) == items(reference_ricci_combination(pi, -1))
    assert items(b_tensor(pi)) == items(reference_ricci_combination(pi, +1))


# n - m = -1 has no projective Laplacian
BV_DIMS = [d for d in DIMS if d.n0 != -1]


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(BV_DIMS), st.integers(0, 10 ** 6),
       st.sampled_from([1.0, 0.4]))
def test_bv_conditions_equal_reference(dim, seed, keep):
    rng = random.Random(seed)
    s = rand_upper(rng, dim, 1)
    s = Sym2Upper(dim, sparse(rng, s.comps, keep), 1)
    pi = rand_projective_class(rng, dim)
    assert items(bv_check(s, pi)[0]) == items(
        reference_bv_conditions(s, pi))


# ---------------------------------------------------------------------------
# no component lookups
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim", [Dimension.of(2, 2), Dimension.of(3, 1)])
def test_laws_make_no_component_lookups(dim, monkeypatch):
    rng = random.Random(11)
    change = rand_triangular_change(rng, dim)
    gamma = rand_connection(rng, dim)
    s = rand_upper(rng, dim, 1)
    pi = rand_projective_class(rng, dim)
    calls = []
    real = _Table.component

    def counting(self, *key):
        calls.append(key)
        return real(self, *key)

    monkeypatch.setattr(_Table, "component", counting)
    transform_connection(gamma, change)
    transform_upper2(s, change)
    tilde_ricci(pi)
    assert calls == []
