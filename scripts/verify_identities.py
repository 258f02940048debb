#!/usr/bin/env python3
"""End-to-end demonstration of the kernel's structural identities on
randomized data: trace projection, Schwarzian cocycle, generating operators,
bracket extension and the flat odd Laplacian.  Prints one line per identity.
"""

import random
import sys
import time
from fractions import Fraction
from pathlib import Path

from superproj.densities import (
    DensityElement,
    bracket_from_triple,
    canonical_operator,
    density_test_family,
    formal_adjoint,
    generated_bracket,
    projective_laplacian,
)
from superproj.geometry import (
    CoordinateChange,
    CovectorField,
    ProjectiveClass,
    div_trace,
    j_inject,
    projective_class,
    super_schwarzian,
    transform_connection,
    transform_sym2cov,
)
from superproj.graded_algebra import Dimension, SuperFunction
from superproj.poisson_bv import bv_check, density_jacobi_check, satisfied
from superproj.thomas import extend_bracket, extension_operator, lift_projective_class

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from helpers import darboux_odd, rand_connection, rand_super, rand_upper  # noqa: E402


def show(label, ok, started):
    print(f"{'ok ' if ok else 'FAIL'} {label}  ({time.perf_counter() - started:.2f}s)")
    return ok


def main() -> int:
    rng = random.Random(2024)
    all_ok = True
    dim = Dimension.of(2, 2)

    t0 = time.perf_counter()
    phi = CovectorField(dim, {i: rand_super(rng, dim, dim.parity(i))
                              for i in range(dim.size)})
    out = div_trace(j_inject(phi))
    ok = all(out.component(i) == phi.component(i).scale(dim.n0 + 1)
             for i in range(dim.size))
    all_ok &= show("supertrace projection: div o j = (n-m+1) id on 2|2", ok, t0)

    t0 = time.perf_counter()
    xs = [SuperFunction.coordinate(dim, i) for i in range(dim.size)]
    i0 = xs[0] - xs[2] * xs[3]
    change = CoordinateChange(
        dim,
        (xs[0] + xs[2] * xs[3], xs[1] + xs[0] * xs[0], xs[2],
         xs[0] * xs[2] + xs[3]),
        (i0, xs[1] - i0 * i0, xs[2], xs[3] - i0 * xs[2]))
    gamma = rand_connection(rng, dim)
    lhs = projective_class(transform_connection(gamma, change))
    rhs = transform_sym2cov(projective_class(gamma), change) \
        + super_schwarzian(change.inverted())
    all_ok &= show("Schwarzian measures the transformation defect of Pi",
                   lhs == rhs, t0)

    t0 = time.perf_counter()
    pc = projective_class(gamma)
    tilde = lift_projective_class(pc)
    all_ok &= show("lifted projective class is trace-free on the extended chart",
                   div_trace(tilde).is_zero(), t0)

    t0 = time.perf_counter()
    s = rand_upper(rng, dim, 1)
    triple = extend_bracket(s, pc, Fraction(1, 2))
    ok = canonical_operator(triple) == extension_operator(triple, pc)
    all_ok &= show("canonical operator of the extended bracket matches the "
                   "extension operator", ok, t0)

    t0 = time.perf_counter()
    delta = canonical_operator(triple)
    one = DensityElement.of(SuperFunction.one(dim))
    fraction = xs[0] / (SuperFunction.one(dim) + xs[0] * xs[0])
    pairs = [(DensityElement.of(xs[0]), DensityElement.volume(dim)),
             (DensityElement.of(xs[2]), DensityElement.of(xs[1] * xs[3])),
             (DensityElement.of(fraction), DensityElement.of(xs[2] * xs[3]))]
    ok = delta(one).is_zero() and formal_adjoint(delta) == delta and all(
        generated_bracket(delta, a, b) == bracket_from_triple(triple, a, b)
        for a, b in pairs)
    all_ok &= show("generating operator: constant-free, self-adjoint, "
                   "reproduces the bracket (a fraction included)", ok, t0)

    t0 = time.perf_counter()
    darboux = darboux_odd(dim)
    conditions, _ = bv_check(darboux, ProjectiveClass(dim, {}))
    lap = projective_laplacian(darboux, ProjectiveClass(dim, {}))
    sq = lap.compose(lap)
    ok = satisfied(conditions) and all(
        sq(p).is_zero()
        for p in density_test_family(dim, weights=(Fraction(0),), max_degree=3))
    all_ok &= show("flat odd Laplacian squares to zero (BV conditions hold)", ok, t0)

    t0 = time.perf_counter()
    d11 = Dimension.of(1, 1)
    trip = extend_bracket(rand_upper(rng, d11, 1),
                          ProjectiveClass(d11, {}), Fraction(0))
    _, info = density_jacobi_check(trip)
    all_ok &= show("density Jacobi conditions agree with direct testing",
                   info["verdicts_agree"], t0)

    print("all identities verified" if all_ok else "SOME IDENTITIES FAILED")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
