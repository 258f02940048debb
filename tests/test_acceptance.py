"""Acceptance suite: one test per criterion, exact (symbolic-zero) checks.

Each test prints a single line

    [acceptance] criterion N (<label>): PASS/FAIL in X.XXs (budget Ys)

and enforces the runtime budget.  Run with ``pytest tests/test_acceptance.py -v``
(add ``-s`` to see the lines immediately).
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from superproj.cli import emit_report, emit_scenario, parse_scenario, run_checks
from superproj.densities import (
    BracketTriple,
    DensityElement,
    DensityOperator,
    bracket_from_triple,
    canonical_operator,
    density_test_family,
    formal_adjoint,
    generated_bracket,
    projective_laplacian,
    upper_gamma,
)
from superproj.errors import SingularDimension, SingularWeight
from superproj.expressions import parse_expression
from superproj.geometry import (
    Connection,
    CoordinateChange,
    ProjectiveClass,
    Sym2Cov,
    Sym2Upper,
    div_trace,
    j_inject,
    projective_class,
    super_schwarzian,
    transform_connection,
    transform_sym2cov,
    transform_upper2,
)
from superproj.graded_algebra import Dimension, SuperFunction
from superproj.poisson_bv import (
    bv_check,
    density_jacobi_check,
    jacobiator,
    satisfied,
)
from superproj.thomas import (
    TildeChart,
    extend_bracket,
    extension_operator,
    gamma_theta_from_s,
    lift_projective_class,
)

from helpers import (
    DIMS_FOUR,
    darboux_odd,
    rand_connection,
    rand_covector,
    rand_linear_change,
    rand_projective_class,
    rand_triple,
    rand_upper,
)

D20 = Dimension.of(2, 0)
D11 = Dimension.of(1, 1)
D22 = Dimension.of(2, 2)


def expr(dim, text):
    return parse_expression(dim, text)


@contextmanager
def criterion(number, label, budget_s):
    start = time.perf_counter()
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        elapsed = time.perf_counter() - start
        print(f"[acceptance] criterion {number} ({label}): {status} "
              f"in {elapsed:.2f}s (budget {budget_s}s)")
        if status == "PASS":
            assert elapsed < budget_s, (
                f"criterion {number} exceeded its {budget_s}s budget")


def shear_2_0():
    x, y = (SuperFunction.coordinate(D20, i) for i in range(2))
    return CoordinateChange(D20, (x, y + x * x), (x, y - x * x))


def moebius_1_1():
    return CoordinateChange(
        D11,
        (expr(D11, "x1/(1-x1)"), expr(D11, "th1*(1+x1)")),
        (expr(D11, "x1/(1+x1)"), expr(D11, "th1/(1+x1/(1+x1))")))


def test_criterion_1_trace_identity():
    with criterion(1, "div o j = (n-m+1) id", 1.0):
        rng = random.Random(101)
        for dim in DIMS_FOUR:
            for trial in range(20):
                phi = rand_covector(rng, dim, trial % 2)
                out = div_trace(j_inject(phi))
                for i in range(dim.size):
                    assert out.component(i) == phi.component(i).scale(dim.n0 + 1)


def test_criterion_2_projective_invariance():
    with criterion(2, "projective class invariance", 5.0):
        rng = random.Random(102)
        for dim in DIMS_FOUR:
            for _ in range(10):
                gamma = rand_connection(rng, dim)
                phi = rand_covector(rng, dim, 0)
                pc = projective_class(gamma)
                shifted = Connection(dim, (gamma + j_inject(phi)).comps)
                assert projective_class(shifted) == pc
                assert div_trace(pc).is_zero()


def test_criterion_3_classical_reduction():
    with criterion(3, "m = 0 reduction of Pi, Laplacian, gamma", 5.0):
        rng = random.Random(103)
        for n in (2, 3):
            dim = Dimension.of(n, 0)
            gamma = rand_connection(rng, dim, deg=2)
            pc = projective_class(gamma)
            # classical trace formula, computed independently (no Koszul signs)
            q = Fraction(1, n + 1)
            for k in range(n):
                for i in range(n):
                    for j in range(n):
                        want = gamma.component(k, i, j)
                        if k == i:
                            tr = sum((gamma.component(s, s, j) for s in range(n)),
                                     SuperFunction.zero(dim))
                            want = want - tr.scale(q)
                        if k == j:
                            tr = sum((gamma.component(s, i, s) for s in range(n)),
                                     SuperFunction.zero(dim))
                            want = want - tr.scale(q)
                        assert want == pc.component(k, i, j)
            s = rand_upper(rng, dim, 0, deg=2)
            # classical Laplacian display
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
                    for k in range(n):
                        acc = acc - (s.component(j, k)
                                     * pc.component(i, j, k)).scale(
                            Fraction(n + 1, n + 3))
                if not acc.is_zero():
                    classical = classical + DensityOperator.from_written(
                        DensityElement.of(acc), [i])
            assert delta == classical
            # classical volume connection
            got = upper_gamma(s, pc)
            for i in range(n):
                acc = SuperFunction.zero(dim)
                for j in range(n):
                    acc = acc + s.component(i, j).partial(j)
                    for k in range(n):
                        acc = acc + s.component(j, k) * pc.component(i, j, k)
                assert got.get(i, SuperFunction.zero(dim)) == acc.scale(
                    Fraction(n + 1, n + 3))


def test_criterion_4_schwarzian():
    with criterion(4, "Schwarzian: linear, defect, composition", 10.0):
        rng = random.Random(104)
        for dim in DIMS_FOUR:
            for _ in range(10):
                assert super_schwarzian(rand_linear_change(rng, dim)).is_zero()
        for change in (shear_2_0(), moebius_1_1()):
            dim = change.dim
            flat = Connection(dim, {})
            pibar = projective_class(transform_connection(flat, change))
            assert Sym2Cov(dim, pibar.comps) == super_schwarzian(change.inverted())
            gamma = rand_connection(rng, dim)
            pibar = projective_class(transform_connection(gamma, change))
            want = transform_sym2cov(
                Sym2Cov(dim, projective_class(gamma).comps), change) \
                + super_schwarzian(change.inverted())
            assert Sym2Cov(dim, pibar.comps) == want
        x, y = (SuperFunction.coordinate(D20, i) for i in range(2))
        d1 = shear_2_0()
        d2 = CoordinateChange(D20, (x + y * y, y), (x - y * y, y))
        composite = d2.then(d1)
        lhs = super_schwarzian(composite)
        rhs = super_schwarzian(d2) + transform_sym2cov(
            super_schwarzian(d1), d2.inverted())
        assert lhs == rhs


def test_criterion_5_laplacian_invariance():
    with criterion(5, "projective Laplacian invariance", 30.0):
        rng = random.Random(105)
        for change in (shear_2_0(), moebius_1_1()):
            dim = change.dim
            family = density_test_family(dim, weights=(Fraction(0),),
                                         max_degree=3)
            for _ in range(3):
                s = rand_upper(rng, dim, 0)
                pc = rand_projective_class(rng, dim)
                op_src = projective_laplacian(s, pc)
                pc_new = projective_class(transform_connection(pc, change))
                s_new = transform_upper2(s, change)
                op_tgt = projective_laplacian(s_new, pc_new)
                for phi in family:
                    pulled = DensityElement.of(change.pullback(phi.slice(0)))
                    lhs = op_src(pulled).slice(0)
                    rhs = change.pullback(op_tgt(phi).slice(0))
                    assert lhs == rhs


def test_criterion_6_canonical_operator():
    with criterion(6, "canonical generating operator", 30.0):
        rng = random.Random(106)
        for dim in (D11, D22):
            one = DensityElement.of(SuperFunction.one(dim))
            gens = [DensityElement.of(SuperFunction.coordinate(dim, i))
                    for i in range(dim.size)]
            vol = DensityElement.volume(dim)
            composite_pairs = [
                (gens[0] * gens[-1], vol),
                (DensityElement.of(expr(dim, "x1^2")),
                 DensityElement.of(expr(dim, "x1*th1"), Fraction(1, 2))),
            ]
            count = 0
            for eps in (0, 1):
                for lam in (Fraction(0), Fraction(1, 2), Fraction(2)):
                    for _ in range(2):
                        triple = rand_triple(rng, dim, eps, lam)
                        delta = canonical_operator(triple)
                        count += 1
                        assert delta(one).is_zero()
                        assert formal_adjoint(delta) == delta
                        for i in range(dim.size):
                            for j in range(dim.size):
                                got = generated_bracket(delta, gens[i], gens[j])
                                want = DensityElement(
                                    dim, {lam: triple.s.component(i, j)})
                                assert got == want
                        for i in range(dim.size):
                            got = generated_bracket(delta, gens[i], vol)
                            want = DensityElement(
                                dim, {lam + 1: triple.gamma_component(i)})
                            assert got == want
                        got = generated_bracket(delta, vol, vol)
                        assert got == DensityElement(dim, {lam + 2: triple.theta})
                        for a, b in composite_pairs:
                            assert generated_bracket(delta, a, b) == \
                                bracket_from_triple(triple, a, b)
            assert count >= 10


def test_criterion_7_thomas_consistency():
    with criterion(7, "Thomas lift and extension consistency", 30.0):
        rng = random.Random(107)
        for dim, weights in ((D20, (Fraction(0), Fraction(1, 2))),
                             (D22, (Fraction(0), Fraction(-1, 2)))):
            chart = TildeChart(dim)
            for k in range(5):
                pc = rand_projective_class(rng, dim)
                tilde = lift_projective_class(pc)
                assert div_trace(tilde).is_zero()
                for (kk, i, j), val in pc.comps.items():
                    assert tilde.component(kk + 1, i + 1, j + 1) == \
                        chart.embed(val)
                eps = k % 2
                s = rand_upper(rng, dim, eps)
                lam = weights[k % len(weights)]
                triple = extend_bracket(s, pc, lam)
                assert canonical_operator(triple) == extension_operator(triple, pc)
        # declared singular dimensions
        for (n, m) in ((1, 0), (1, 2)):
            dim = Dimension.of(n, m)
            with pytest.raises(SingularDimension):
                lift_projective_class(ProjectiveClass(dim, {}))
        with pytest.raises(SingularDimension):  # n - m = -2
            lift_projective_class(ProjectiveClass(Dimension.of(0, 2), {}))
        with pytest.raises(SingularDimension):  # n - m = -4
            extension_operator(BracketTriple.zero(Dimension.of(0, 4)),
                               ProjectiveClass(Dimension.of(0, 4), {}))
        # declared singular weights
        for dim in (D20, D22):
            n0 = dim.n0
            for lam in (Fraction(n0 + 2, n0 + 1), Fraction(n0 + 3, n0 + 1)):
                with pytest.raises(SingularWeight):
                    gamma_theta_from_s(Sym2Upper(dim, {}, 1),
                                       ProjectiveClass(dim, {}), lam)


def test_criterion_8_bv_equivalence():
    with criterion(8, "Batalin-Vilkovisky equivalence", 60.0):
        for dim in (D11, D22):
            s = darboux_odd(dim)
            pc = ProjectiveClass(dim, {})
            conditions, info = bv_check(s, pc)
            assert satisfied(conditions)
            assert info["laplacian_square_zero"]
            assert info["verdicts_agree"]
            delta = projective_laplacian(s, pc)
            delta2 = delta.compose(delta)
            for phi in density_test_family(dim, weights=(Fraction(0),),
                                           max_degree=3):
                assert delta2(phi).is_zero()
        # counterexample with (S, S) != 0
        s_bad = Sym2Upper(D11, {
            (0, 0): expr(D11, "2*x1*th1"),
            (0, 1): SuperFunction.one(D11),
            (1, 0): SuperFunction.one(D11)}, 1)
        conditions, info = bv_check(s_bad, ProjectiveClass(D11, {}))
        assert not satisfied(conditions)
        assert not info["laplacian_square_zero"]
        assert info["verdicts_agree"]
        triple = BracketTriple(s_bad, {}, SuperFunction.zero(D11), 1, 0)
        family = [DensityElement.of(expr(D11, t))
                  for t in ("x1", "th1", "x1^2", "x1*th1")]
        witness = None
        for a in family:
            for b in family:
                for c in family:
                    if not jacobiator(triple, a, b, c).is_zero():
                        witness = (a, b, c)
                        break
                if witness:
                    break
            if witness:
                break
        assert witness is not None


def test_criterion_9_density_jacobi():
    with criterion(9, "density Jacobi four-condition equivalence", 60.0):
        rng = random.Random(109)
        for _ in range(10):
            triple = rand_triple(rng, D11, 1, 0)
            _, info = density_jacobi_check(triple)
            assert info["verdicts_agree"], (
                "four-condition verdict must match direct Jacobi testing")


def test_criterion_10_cli():
    with criterion(10, "CLI round-trip, determinism, isolation", 1.0):
        document = """{
          "dimension": {"n": 1, "m": 2},
          "connections": {"Gamma": {"1,1,1": "x1"}},
          "tensors": {"S": {"parity": "odd", "components": {"1,2": "1"}}},
          "triples": {"T": {"s": "S", "gamma": {}, "theta": "0",
                            "parity": "odd", "weight": "0"}},
          "checks": [
            {"check": "projective_class", "connection": "Gamma"},
            {"check": "density_jacobi", "triple": "T"},
            {"check": "canonical_operator", "triple": "T"}
          ]
        }"""
        scenario = parse_scenario(document)
        assert parse_scenario(emit_scenario(scenario)) == scenario

        def stripped(report):
            doc = json.loads(emit_report(report, "json"))
            for entry in doc["checks"]:
                entry.pop("duration_ms", None)
            return json.dumps(doc, sort_keys=True)

        r1 = run_checks(scenario)
        r2 = run_checks(scenario)
        assert stripped(r1) == stripped(r2)
        verdicts = [e["verdict"] for e in r1.checks]
        assert verdicts == ["error", "pass", "pass"]
        assert "SingularDimension" in r1.checks[0]["error"]


def test_criterion_11_geometry_3_3():
    # Parse and checks of scenarios/geometry_3_3.json took 0.14-0.20 s (five
    # runs, 2 vCPUs) before the geometry tensors shared one component table;
    # the budget is ten times the median.
    with criterion(11, "bundled 3|3 geometry scenario", 1.5):
        path = Path(__file__).resolve().parent.parent / "scenarios"
        text = (path / "geometry_3_3.json").read_text(encoding="utf-8")
        report = run_checks(parse_scenario(text))
        assert [(e["check"], e["verdict"]) for e in report.checks] == [
            ("projective_class", "pass"), ("schwarzian_defect", "pass"),
            ("laplacian_invariance", "pass"), ("schwarzian_vanishes", "fail")]
        assert report.checks[3]["residuals"]["2,1,1"] == "2"
