"""Scenario-driven command line front end.

A scenario is a JSON document declaring a dimension, named expressions and
component tables, and a list of checks to run.  Expressions are strings in
the kernel grammar (see ``superproj grammar``).  Component tables are keyed
by 1-based coordinate indices, ``"k,i,j"`` for connection-type tensors and
``"i,j"`` for 2-upper-index tensors; missing graded-symmetric mirror
components are filled in automatically, inconsistent ones are rejected.

Reports are deterministic: running the same scenario twice produces
byte-identical JSON up to the ``duration_ms`` fields.  The process exits 0
whenever a report was produced (even with failing checks), 1 on scenario
parse/validation errors, and 2 on internal errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Optional

from . import poisson_bv, thomas
from .densities import (
    BracketTriple,
    DensityElement,
    canonical_operator,
    density_test_family,
    formal_adjoint,
    generated_bracket,
    projective_laplacian,
)
from .errors import KernelError, ParseError, ValidationError
from .expressions import GRAMMAR_HELP, format_super, parse_expression
from .geometry import (
    Connection,
    CoordinateChange,
    ProjectiveClass,
    Sym2Cov,
    Sym2Upper,
    div_trace,
    projective_class,
    projectively_equivalent,
    super_schwarzian,
    transform_connection,
    transform_sym2cov,
    transform_upper2,
)
from .graded_algebra import Dimension, SuperFunction

# ---------------------------------------------------------------------------
# scenario model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    dim: Dimension
    expressions: Mapping[str, SuperFunction]
    connections: Mapping[str, Connection]
    projective_classes: Mapping[str, ProjectiveClass]
    tensors: Mapping[str, Sym2Upper]
    changes: Mapping[str, CoordinateChange]
    triples: Mapping[str, BracketTriple]
    volume_forms: Mapping[str, SuperFunction]
    checks: tuple

    def __eq__(self, other):
        if not isinstance(other, Scenario):
            return False
        return (
            self.dim == other.dim
            and dict(self.expressions) == dict(other.expressions)
            and {k: dict(v.comps) for k, v in self.connections.items()}
            == {k: dict(v.comps) for k, v in other.connections.items()}
            and {k: dict(v.comps) for k, v in self.projective_classes.items()}
            == {k: dict(v.comps) for k, v in other.projective_classes.items()}
            and {k: (dict(v.comps), v.parity) for k, v in self.tensors.items()}
            == {k: (dict(v.comps), v.parity) for k, v in other.tensors.items()}
            and {k: (v.forward, v.inverse) for k, v in self.changes.items()}
            == {k: (v.forward, v.inverse) for k, v in other.changes.items()}
            and dict(self.triples) == dict(other.triples)
            and dict(self.volume_forms) == dict(other.volume_forms)
            and self.checks == other.checks
        )


def _parse_fraction(text, where) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"{where}: invalid rational {text!r}") from None


def _parse_index_key(key: str, arity: int, dim: Dimension, where: str):
    parts = [p.strip() for p in key.split(",")]
    if len(parts) != arity:
        raise ValidationError(f"{where}: key {key!r} must have {arity} indices")
    out = []
    for p in parts:
        if not p.isdigit() or not 1 <= int(p) <= dim.size:
            raise ValidationError(
                f"{where}: index {p!r} out of range 1..{dim.size}")
        out.append(int(p) - 1)
    return tuple(out)


def _object(value, where) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{where}: expected a JSON object")
    return value


def _parity(value, where) -> int:
    if not isinstance(value, str) or value not in ("even", "odd"):
        raise ValidationError(f"{where}: parity must be even or odd")
    return 1 if value == "odd" else 0


def _count(dim_obj, key) -> int:
    value = dim_obj[key]
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValidationError(
            f"dimension.{key}: expected a non-negative integer, got {value!r}")
    return value


def _expr(dim, text, where) -> SuperFunction:
    if not isinstance(text, str):
        raise ValidationError(f"{where}: expected an expression string")
    try:
        return parse_expression(dim, text)
    except ParseError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _complete_symmetric(dim, comps, upper_only: bool, where: str):
    """Fill missing graded-symmetric mirrors; reject inconsistent pairs."""
    out = dict(comps)
    for key, val in comps.items():
        if upper_only:
            i, j = key
            mirror = (j, i)
            sign = -1 if dim.parity(i) and dim.parity(j) else 1
        else:
            k, i, j = key
            mirror = (k, j, i)
            sign = -1 if dim.parity(i) and dim.parity(j) else 1
        if mirror not in comps:
            out[mirror] = val.scale(sign)
    return out


def _table(dim, obj, arity, where):
    comps = {}
    for key, text in _object(obj, where).items():
        idx = _parse_index_key(key, arity, dim, where)
        comps[idx] = _expr(dim, text, f"{where}[{key}]")
    return comps


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from None
    if not isinstance(doc, dict):
        raise ValidationError("scenario document must be a JSON object")
    dim_obj = doc.get("dimension")
    if not isinstance(dim_obj, dict) or "n" not in dim_obj or "m" not in dim_obj:
        raise ValidationError("scenario must declare dimension {n, m}")
    dim = Dimension.of(_count(dim_obj, "n"), _count(dim_obj, "m"))

    def section(key):
        return _object(doc.get(key, {}), key).items()

    expressions = {name: _expr(dim, text, f"expressions.{name}")
                   for name, text in section("expressions")}

    connections = {}
    for name, table in section("connections"):
        comps = _table(dim, table, 3, f"connections.{name}")
        comps = _complete_symmetric(dim, comps, False, f"connections.{name}")
        try:
            connections[name] = Connection(dim, comps)
        except (ValidationError, KernelError) as exc:
            raise ValidationError(f"connections.{name}: {exc}") from None

    pclasses = {}
    for name, table in section("projective_classes"):
        comps = _table(dim, table, 3, f"projective_classes.{name}")
        comps = _complete_symmetric(dim, comps, False, f"projective_classes.{name}")
        try:
            pclasses[name] = ProjectiveClass(dim, comps)
        except (ValidationError, KernelError) as exc:
            raise ValidationError(f"projective_classes.{name}: {exc}") from None

    tensors = {}
    for name, spec in section("tensors"):
        spec = _object(spec, f"tensors.{name}")
        parity = _parity(spec.get("parity", "even"), f"tensors.{name}")
        comps = _table(dim, spec.get("components", {}), 2, f"tensors.{name}")
        comps = _complete_symmetric(dim, comps, True, f"tensors.{name}")
        try:
            tensors[name] = Sym2Upper(dim, comps, parity)
        except (ValidationError, KernelError) as exc:
            raise ValidationError(f"tensors.{name}: {exc}") from None

    changes = {}
    for name, spec in section("changes"):
        spec = _object(spec, f"changes.{name}")
        fwd = spec.get("forward")
        if not isinstance(fwd, list) or len(fwd) != dim.size:
            raise ValidationError(
                f"changes.{name}: forward must list {dim.size} expressions")
        forward = tuple(_expr(dim, t, f"changes.{name}.forward") for t in fwd)
        inverse = None
        if spec.get("inverse") is not None:
            inv = spec["inverse"]
            if not isinstance(inv, list) or len(inv) != dim.size:
                raise ValidationError(
                    f"changes.{name}: inverse must list {dim.size} expressions")
            inverse = tuple(_expr(dim, t, f"changes.{name}.inverse") for t in inv)
        try:
            changes[name] = CoordinateChange(dim, forward, inverse)
        except KernelError as exc:
            raise ValidationError(f"changes.{name}: {exc}") from None

    triples = {}
    for name, spec in section("triples"):
        spec = _object(spec, f"triples.{name}")
        s_name = spec.get("s")
        if not isinstance(s_name, str) or s_name not in tensors:
            raise ValidationError(f"triples.{name}: unknown tensor {s_name!r}")
        gamma = {}
        for key, text in _object(spec.get("gamma", {}),
                                 f"triples.{name}.gamma").items():
            idx = _parse_index_key(key, 1, dim, f"triples.{name}.gamma")
            gamma[idx[0]] = _expr(dim, text, f"triples.{name}.gamma[{key}]")
        theta = _expr(dim, spec.get("theta", "0"), f"triples.{name}.theta")
        eps = _parity(spec.get("parity", "even"), f"triples.{name}")
        weight = _parse_fraction(spec.get("weight", "0"), f"triples.{name}.weight")
        try:
            triples[name] = BracketTriple(tensors[s_name], gamma, theta, eps, weight)
        except (ValidationError, KernelError) as exc:
            raise ValidationError(f"triples.{name}: {exc}") from None

    volume_forms = {name: _expr(dim, text, f"volume_forms.{name}")
                    for name, text in section("volume_forms")}

    checks = doc.get("checks", [])
    if not isinstance(checks, list):
        raise ValidationError("checks must be a list")
    normalized = []
    scenario_names = {
        "expressions": expressions, "connections": connections,
        "projective_classes": pclasses, "tensors": tensors,
        "changes": changes, "triples": triples, "volume_forms": volume_forms,
    }
    for pos, chk in enumerate(checks):
        if not isinstance(chk, dict) or "check" not in chk:
            raise ValidationError(f"checks[{pos}]: missing 'check' field")
        kind = chk["check"]
        if not isinstance(kind, str) or kind not in CHECK_HANDLERS:
            raise ValidationError(
                f"checks[{pos}]: unknown check {kind!r}; known: "
                + ", ".join(sorted(CHECK_HANDLERS)))
        handler = CHECK_HANDLERS[kind]
        for arg in handler.requires:
            if arg not in chk:
                raise ValidationError(f"checks[{pos}] ({kind}): missing {arg!r}")
        for arg, pool in {**handler.requires, **handler.optional}.items():
            if arg not in chk:
                continue
            if pool is None:  # a rational value, not a name
                _parse_fraction(chk[arg], f"checks[{pos}] ({kind}): {arg}")
                continue
            if not isinstance(chk[arg], str):
                raise ValidationError(
                    f"checks[{pos}] ({kind}): {arg} must be a name string")
            if chk[arg] not in scenario_names[pool]:
                raise ValidationError(
                    f"checks[{pos}] ({kind}): unresolved {arg} {chk[arg]!r}")
        normalized.append(tuple(sorted(chk.items())))
    return Scenario(dim, expressions, connections, pclasses, tensors, changes,
                    triples, volume_forms, tuple(normalized))


def emit_scenario(s: Scenario) -> str:
    """Serialize a scenario back to canonical JSON (round-trip stable)."""

    def table3(t):
        return {f"{k + 1},{i + 1},{j + 1}": format_super(v)
                for (k, i, j), v in sorted(t.comps.items())}

    doc = {
        "dimension": {"n": s.dim.n, "m": s.dim.m},
        "expressions": {k: format_super(v) for k, v in sorted(s.expressions.items())},
        "connections": {k: table3(v) for k, v in sorted(s.connections.items())},
        "projective_classes": {k: table3(v)
                               for k, v in sorted(s.projective_classes.items())},
        "tensors": {
            k: {
                "parity": "odd" if v.parity else "even",
                "components": {f"{i + 1},{j + 1}": format_super(val)
                               for (i, j), val in sorted(v.comps.items())},
            }
            for k, v in sorted(s.tensors.items())
        },
        "changes": {
            k: {
                "forward": [format_super(f) for f in v.forward],
                "inverse": ([format_super(f) for f in v.inverse]
                            if v.inverse is not None else None),
            }
            for k, v in sorted(s.changes.items())
        },
        "triples": {},
        "volume_forms": {k: format_super(v)
                         for k, v in sorted(s.volume_forms.items())},
        "checks": [dict(items) for items in s.checks],
    }
    for name, t in sorted(s.triples.items()):
        s_name = None
        for tn, tv in s.tensors.items():
            if tv == t.s:
                s_name = tn
                break
        doc["triples"][name] = {
            "s": s_name,
            "gamma": {f"{i + 1}": format_super(v) for i, v in sorted(t.gamma.items())},
            "theta": format_super(t.theta),
            "parity": "odd" if t.eps else "even",
            "weight": str(t.weight),
        }
    return json.dumps(doc, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckHandler:
    run: Callable
    requires: Mapping[str, Optional[str]] = field(default_factory=dict)
    optional: Mapping[str, Optional[str]] = field(default_factory=dict)


def _residual_map(pairs) -> dict:
    out = {}
    for key, val in pairs:
        if isinstance(val, DensityElement):
            parts = [f"({format_super(f)})*Vol^{w}" for w, f in sorted(val.slices.items())]
            if parts:
                out[key] = " + ".join(parts)
        elif isinstance(val, SuperFunction):
            if not val.is_zero():
                out[key] = format_super(val)
    return out


def _check_projective_class(s: Scenario, chk: dict) -> dict:
    gamma = s.connections[chk["connection"]]
    pc = projective_class(gamma)
    comps = {f"{k + 1},{i + 1},{j + 1}": format_super(v)
             for (k, i, j), v in sorted(pc.comps.items())}
    return {"verdict": "pass", "info": {"components": comps}}


def _check_projectively_equivalent(s: Scenario, chk: dict) -> dict:
    g1 = s.connections[chk["left"]]
    g2 = s.connections[chk["right"]]
    equal = projectively_equivalent(g1, g2)
    if equal:
        return {"verdict": "pass", "info": {"equivalent": True}}
    diff = projective_class(g1) - projective_class(g2)
    residuals = _residual_map(
        (f"{k + 1},{i + 1},{j + 1}", v) for (k, i, j), v in sorted(diff.comps.items()))
    return {"verdict": "fail", "residuals": residuals,
            "info": {"equivalent": False}}


def _check_schwarzian_vanishes(s: Scenario, chk: dict) -> dict:
    sch = super_schwarzian(s.changes[chk["change"]])
    if sch.is_zero():
        return {"verdict": "pass"}
    residuals = _residual_map(
        (f"{k + 1},{i + 1},{j + 1}", v) for (k, i, j), v in sorted(sch.comps.items()))
    return {"verdict": "fail", "residuals": residuals}


def _check_schwarzian_defect(s: Scenario, chk: dict) -> dict:
    change = s.changes[chk["change"]]
    dim = s.dim
    gamma = (s.connections[chk["connection"]]
             if "connection" in chk else Connection(dim, {}))
    lhs = projective_class(transform_connection(gamma, change))
    rhs = (transform_sym2cov(Sym2Cov(dim, projective_class(gamma).comps, 0), change)
           + super_schwarzian(change.inverted()))
    diff = Sym2Cov(dim, lhs.comps, 0) - rhs
    if diff.is_zero():
        return {"verdict": "pass"}
    residuals = _residual_map(
        (f"{k + 1},{i + 1},{j + 1}", v) for (k, i, j), v in sorted(diff.comps.items()))
    return {"verdict": "fail", "residuals": residuals}


def _check_laplacian_invariance(s: Scenario, chk: dict) -> dict:
    tensor = s.tensors[chk["tensor"]]
    pc = s.projective_classes[chk["projective_class"]]
    change = s.changes[chk["change"]]
    dim = s.dim
    op_src = projective_laplacian(tensor, pc)
    pc_new = projective_class(transform_connection(pc, change))
    tensor_new = transform_upper2(tensor, change)
    op_tgt = projective_laplacian(tensor_new, pc_new)
    family = density_test_family(dim, weights=(Fraction(0),), max_degree=3)
    bad = {}
    for idx, phi in enumerate(family):
        pulled = DensityElement.of(change.pullback(phi.slice(0)))
        diff = op_src(pulled) - DensityElement.of(
            change.pullback(op_tgt(phi).slice(0)))
        if not diff.is_zero():
            bad[f"family[{idx}]"] = diff
    if not bad:
        return {"verdict": "pass"}
    return {"verdict": "fail", "residuals": _residual_map(bad.items())}


def _check_canonical_operator(s: Scenario, chk: dict) -> dict:
    triple = s.triples[chk["triple"]]
    dim = s.dim
    delta = canonical_operator(triple)
    one = DensityElement.of(SuperFunction.one(dim))
    residuals = {}
    constant_free = delta(one)
    if not constant_free.is_zero():
        residuals["Delta(1)"] = constant_free
    if formal_adjoint(delta) != delta:
        residuals["self_adjoint"] = SuperFunction.one(dim)
    gens = [DensityElement.of(SuperFunction.coordinate(dim, i))
            for i in range(dim.size)]
    vol = DensityElement.volume(dim)
    for i in range(dim.size):
        for j in range(dim.size):
            got = generated_bracket(delta, gens[i], gens[j])
            want = DensityElement(dim, {triple.weight: triple.s.component(i, j)})
            if not (got - want).is_zero():
                residuals[f"generates_S^{i + 1}{j + 1}"] = got - want
    for i in range(dim.size):
        got = generated_bracket(delta, gens[i], vol)
        want = DensityElement(dim, {triple.weight + 1: triple.gamma_component(i)})
        if not (got - want).is_zero():
            residuals[f"generates_gamma^{i + 1}"] = got - want
    got = generated_bracket(delta, vol, vol)
    want = DensityElement(dim, {triple.weight + 2: triple.theta})
    if not (got - want).is_zero():
        residuals["generates_theta"] = got - want
    residuals = _residual_map(residuals.items())
    return {"verdict": "pass" if not residuals else "fail",
            "residuals": residuals}


def _check_thomas_lift(s: Scenario, chk: dict) -> dict:
    pc = s.projective_classes[chk["projective_class"]]
    chart = thomas.TildeChart(s.dim)
    tilde = thomas.lift_projective_class(pc)
    residuals = {}
    trace = div_trace(tilde)
    for i in range(chart.ext.size):
        if not trace.component(i).is_zero():
            residuals[f"trace^{i}"] = trace.component(i)
    for (k, i, j), val in pc.comps.items():
        diff = tilde.component(k + 1, i + 1, j + 1) - chart.embed(val)
        if not diff.is_zero():
            residuals[f"restriction {k + 1},{i + 1},{j + 1}"] = diff
    comps = {f"{k},{i},{j}": format_super(v)
             for (k, i, j), v in sorted(tilde.comps.items())}
    residuals = _residual_map(residuals.items())
    return {"verdict": "pass" if not residuals else "fail",
            "residuals": residuals, "info": {"lifted_components": comps}}


def _check_extension_consistency(s: Scenario, chk: dict) -> dict:
    tensor = s.tensors[chk["tensor"]]
    pc = s.projective_classes[chk["projective_class"]]
    weight = _parse_fraction(chk.get("weight", "0"), "extension_consistency.weight")
    # one tilde_ricci for both sides; at n - m = +-1 extend_bracket raises first
    ricci = None if s.dim.n0 in (1, -1) else thomas.tilde_ricci(pc)
    triple = thomas.extend_bracket(tensor, pc, weight, ricci)
    lhs = canonical_operator(triple)
    rhs = thomas.extension_operator(triple, pc, ricci)
    if lhs == rhs:
        return {"verdict": "pass",
                "info": {"gamma": {f"{i + 1}": format_super(v)
                                   for i, v in sorted(triple.gamma.items())},
                         "theta": format_super(triple.theta)}}
    diff = lhs - rhs
    residuals = {}
    for term in diff.serialize():
        key = f"d^{term['derivatives']} w^{term['w_power']}"
        residuals[key] = (f"({term['coefficient']})"
                          f"*Vol^{term['weight_shift']}")
    return {"verdict": "fail", "residuals": residuals}


def _report_from_conditions(rep) -> dict:
    residuals = _residual_map(rep.conditions.items())
    info = {}
    for key, val in rep.info.items():
        if isinstance(val, (bool, int, str)):
            info[key] = val
    return {"verdict": "pass" if rep.satisfied else "fail",
            "residuals": residuals, "info": info}


def _check_bv(s: Scenario, chk: dict) -> dict:
    tensor = s.tensors[chk["tensor"]]
    pc = s.projective_classes[chk["projective_class"]]
    return _report_from_conditions(poisson_bv.bv_check(tensor, pc))


def _check_density_jacobi(s: Scenario, chk: dict) -> dict:
    triple = s.triples[chk["triple"]]
    return _report_from_conditions(poisson_bv.density_jacobi_check(triple))


def _check_symplectic_canonical(s: Scenario, chk: dict) -> dict:
    triple = s.triples[chk["triple"]]
    rho = s.volume_forms[chk["volume"]]
    return _report_from_conditions(
        poisson_bv.symplectic_canonical_check(triple, rho))


def _check_projective_poisson(s: Scenario, chk: dict) -> dict:
    tensor = s.tensors[chk["tensor"]]
    pc = s.projective_classes[chk["projective_class"]]
    rho = s.volume_forms[chk["volume"]]
    return _report_from_conditions(
        poisson_bv.projective_poisson_check(tensor, pc, rho))


CHECK_HANDLERS = {
    "projective_class": CheckHandler(
        _check_projective_class, {"connection": "connections"}),
    "projectively_equivalent": CheckHandler(
        _check_projectively_equivalent,
        {"left": "connections", "right": "connections"}),
    "schwarzian_vanishes": CheckHandler(
        _check_schwarzian_vanishes, {"change": "changes"}),
    "schwarzian_defect": CheckHandler(
        _check_schwarzian_defect, {"change": "changes"},
        {"connection": "connections"}),
    "laplacian_invariance": CheckHandler(
        _check_laplacian_invariance,
        {"tensor": "tensors", "projective_class": "projective_classes",
         "change": "changes"}),
    "canonical_operator": CheckHandler(
        _check_canonical_operator, {"triple": "triples"}),
    "thomas_lift": CheckHandler(
        _check_thomas_lift, {"projective_class": "projective_classes"}),
    "extension_consistency": CheckHandler(
        _check_extension_consistency,
        {"tensor": "tensors", "projective_class": "projective_classes"},
        {"weight": None}),
    "bv_check": CheckHandler(
        _check_bv, {"tensor": "tensors", "projective_class": "projective_classes"}),
    "density_jacobi": CheckHandler(
        _check_density_jacobi, {"triple": "triples"}),
    "symplectic_canonical": CheckHandler(
        _check_symplectic_canonical,
        {"triple": "triples", "volume": "volume_forms"}),
    "projective_poisson": CheckHandler(
        _check_projective_poisson,
        {"tensor": "tensors", "projective_class": "projective_classes",
         "volume": "volume_forms"}),
}


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Report:
    dim: Dimension
    checks: tuple  # of dicts


def run_checks(s: Scenario, only: Optional[set] = None) -> Report:
    """Run every requested check; failures and errors never abort siblings."""
    results = []
    for items in s.checks:
        chk = dict(items)
        kind = chk["check"]
        if only and kind not in only:
            continue
        entry = {"check": kind}
        entry.update({k: v for k, v in chk.items() if k != "check"})
        start = time.perf_counter()
        try:
            outcome = CHECK_HANDLERS[kind].run(s, chk)
            entry["verdict"] = outcome.get("verdict", "error")
            if outcome.get("residuals"):
                entry["residuals"] = outcome["residuals"]
            if outcome.get("info"):
                entry["info"] = outcome["info"]
        except Exception as exc:  # one check's error never aborts its siblings
            entry["verdict"] = "error"
            entry["error"] = f"{type(exc).__name__}: {exc}"
        entry["duration_ms"] = round((time.perf_counter() - start) * 1000, 3)
        results.append(entry)
    return Report(s.dim, tuple(results))


def emit_report(report: Report, fmt: str = "text") -> str:
    """Render a report; json output is stable-keyed, text is for humans."""
    if fmt == "json":
        doc = {
            "dimension": f"{report.dim.n}|{report.dim.m}",
            "checks": list(report.checks),
        }
        return json.dumps(doc, indent=2, sort_keys=True)
    lines = [f"scenario dimension {report.dim.n}|{report.dim.m}"]
    if not report.checks:
        return lines[0] + "\n(no checks)\n"
    for entry in report.checks:
        flag = {"pass": "PASS", "fail": "FAIL", "error": "ERROR"}[entry["verdict"]]
        args = ", ".join(f"{k}={v}" for k, v in entry.items()
                         if k not in ("check", "verdict", "residuals", "info",
                                      "error", "duration_ms"))
        lines.append(f"[{flag}] {entry['check']}({args})")
        if "error" in entry:
            lines.append(f"    {entry['error']}")
        for key, val in entry.get("residuals", {}).items():
            lines.append(f"    residual {key}: {val}")
        for key, val in entry.get("info", {}).items():
            if isinstance(val, dict):
                for k2, v2 in val.items():
                    lines.append(f"    {key}[{k2}] = {v2}")
            else:
                lines.append(f"    {key}: {val}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="superproj",
        description="exact checks for projective supergeometry scenarios")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run the checks of a scenario file")
    run_p.add_argument("scenario")
    run_p.add_argument("--format", choices=("text", "json"), default="text")
    run_p.add_argument("--only", action="append", default=None,
                       metavar="CHECK", help="run only the named check kinds")
    val_p = sub.add_parser("validate", help="parse and validate a scenario file")
    val_p.add_argument("scenario")
    sub.add_parser("grammar", help="print the expression grammar")
    args = parser.parse_args(argv)

    if args.command == "grammar":
        sys.stdout.write(GRAMMAR_HELP)
        return 0
    try:
        with open(args.scenario, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        sys.stderr.write(f"cannot read scenario: {exc}\n")
        return 1
    try:
        scenario = parse_scenario(text)
    except (ParseError, ValidationError) as exc:
        sys.stderr.write(f"scenario error: {exc}\n")
        return 1
    if args.command == "validate":
        sys.stdout.write("scenario valid\n")
        return 0
    try:
        report = run_checks(
            scenario, set(args.only) if args.only else None)
        sys.stdout.write(emit_report(report, args.format))
        return 0
    except Exception as exc:  # internal error: distinct exit code
        sys.stderr.write(f"internal error: {exc!r}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
