"""Scenario-driven command line front end.

A scenario is a JSON document declaring a dimension, named expressions and
component tables, and a list of checks to run.  Expressions are strings in
the kernel grammar (see ``superproj grammar``).  Component tables are keyed
by 1-based ASCII decimal indices, ``"k,i,j"`` for connection-type tensors and
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
import re
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Callable, Mapping, Optional

from . import poisson_bv, thomas
from .densities import (
    BracketTriple,
    DensityElement,
    _four_term,
    canonical_operator,
    density_test_family,
    formal_adjoint,
    generators,
    projective_laplacian,
)
from .errors import KernelError, ParseError, ValidationError
from .expressions import GRAMMAR_HELP, MAX_BITS, format_super, parse_expression
from .geometry import (
    Connection,
    CoordinateChange,
    ProjectiveClass,
    Sym2Cov,
    Sym2Upper,
    jacobian_rows,
    mirrored,
    new_chart_partial,
    projective_class,
    schwarzian_defect,
    super_schwarzian,
    transform_connection,
    transform_upper2,
)
from .graded_algebra import Dimension, SuperFunction

# Largest n + m a scenario may declare.  The checks are measured up to 4|4,
# whose Thomas extension is 5|4 (size 9); their work grows combinatorially
# with the size (2^m odd monomials per coefficient, C(n+m+3, 3) Jacobi
# triples, cubic connection tables), so larger dimensions are refused before
# any table is built.
MAX_DIMENSION = 12

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
    checks: tuple  # of (sorted check items, resolved arguments)


def _parse_fraction(text, where) -> Fraction:
    """A rational literal such as "1/2", "0.5", "1e3" or a JSON number; its
    integers are below 10^(digits + |exponent|), and one that may exceed
    MAX_BITS bits is refused before Fraction's superlinear parse."""
    text = str(text)
    mantissa, _, exponent = text.lower().partition("e")
    exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if exponent.isdecimal() or not exponent:
        size = sum(map(str.isdecimal, mantissa)) + (
            int(exponent or 0) if len(exponent) < 8 else MAX_BITS)
        if size * 3322 // 1000 + 1 > MAX_BITS:  # log2(10) < 3.322
            raise ValidationError(f"{where}: rational literal may give "
                                  f"integers of over {MAX_BITS} bits")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"{where}: invalid rational {text!r}") from None


def _parse_index_key(key: str, arity: int, dim: Dimension, where: str):
    """1-based ASCII decimal indices, leading zeros allowed, to 0-based."""
    parts = [p.strip() for p in key.split(",")]
    if len(parts) != arity:
        raise ValidationError(f"{where}: key {key!r} must have {arity} indices")
    indices = {str(a + 1): a for a in range(dim.size)}
    out = []
    for p in parts:
        idx = indices.get(p.lstrip("0"))
        if idx is None:
            raise ValidationError(
                f"{where}: key {key!r} has index {p!r} out of range 1..{dim.size}")
        out.append(idx)
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


def _built(where, build, *args):
    """build(*args), with a kernel refusal reported as a ValidationError
    at where."""
    try:
        return build(*args)
    except KernelError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _table(dim, obj, arity, where):
    comps = {}
    for key, text in _object(obj, where).items():
        idx = _parse_index_key(key, arity, dim, where)
        comps[idx] = _expr(dim, text, f"{where}[{key}]")
    return comps


def _values(dim, value, where, label) -> tuple:
    """A change's list of one expression per coordinate, at where.label."""
    if not isinstance(value, list) or len(value) != dim.size:
        raise ValidationError(f"{where}: {label} must list {dim.size} expressions")
    return tuple(_expr(dim, t, f"{where}.{label}") for t in value)


def _location(text: str, pos: int):
    """(line, column) of offset pos in text."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _deepest(text: str):
    """(line, column) of the first bracket at the greatest nesting depth."""
    depth = deepest = pos = 0
    for match in re.finditer(r'"(?:\\.|[^"\\])*"|[\[{\]}]', text):
        if match.group() in ("[", "{"):
            depth += 1
            if depth > deepest:
                deepest, pos = depth, match.start()
        elif match.group() in ("]", "}"):
            depth -= 1
    return _location(text, pos)


def _longest_number(text: str):
    """(length, line, column) of the first longest digit run outside the
    strings of a JSON text."""
    runs = [match for match in re.finditer(r'"(?:\\.|[^"\\])*"|\d+', text)
            if match.group()[0] != '"']
    best = max(runs, key=lambda match: len(match.group()))
    return (len(best.group()), *_location(text, best.start()))


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply", *_deepest(text)) from None
    except ValueError:  # an integer beyond the interpreter's digit limit
        digits, *where = _longest_number(text)
        raise ParseError(f"invalid JSON: integer literal of {digits} digits "
                         "is too long", *where) from None
    if not isinstance(doc, dict):
        raise ValidationError("scenario document must be a JSON object")
    dim_obj = doc.get("dimension")
    if not isinstance(dim_obj, dict) or "n" not in dim_obj or "m" not in dim_obj:
        raise ValidationError("scenario must declare dimension {n, m}")
    n, m = _count(dim_obj, "n"), _count(dim_obj, "m")
    if n + m > MAX_DIMENSION:
        raise ValidationError(
            f"dimension: n + m = {n + m} exceeds the limit {MAX_DIMENSION}")
    dim = Dimension.of(n, m)

    def section(key):
        return _object(doc.get(key, {}), key).items()

    expressions = {name: _expr(dim, text, f"expressions.{name}")
                   for name, text in section("expressions")}

    named = {"expressions": expressions}
    for key, cls in (("connections", Connection),
                     ("projective_classes", ProjectiveClass)):
        named[key] = {}
        for name, table in section(key):
            comps = _table(dim, table, 3, f"{key}.{name}")
            named[key][name] = _built(f"{key}.{name}", cls, dim,
                                      mirrored(dim, comps))

    tensors = {}
    for name, spec in section("tensors"):
        spec = _object(spec, f"tensors.{name}")
        parity = _parity(spec.get("parity", "even"), f"tensors.{name}")
        comps = _table(dim, spec.get("components", {}), 2, f"tensors.{name}")
        tensors[name] = _built(f"tensors.{name}", Sym2Upper, dim,
                               mirrored(dim, comps), parity)

    changes = {}
    for name, spec in section("changes"):
        spec = _object(spec, f"changes.{name}")
        forward = _values(dim, spec.get("forward"), f"changes.{name}", "forward")
        inverse = spec.get("inverse")
        if inverse is not None:
            inverse = _values(dim, inverse, f"changes.{name}", "inverse")
        changes[name] = _built(f"changes.{name}", CoordinateChange, dim,
                               forward, inverse)

    triples = {}
    for name, spec in section("triples"):
        spec = _object(spec, f"triples.{name}")
        s_name = spec.get("s")
        if not isinstance(s_name, str) or s_name not in tensors:
            raise ValidationError(f"triples.{name}: unknown tensor {s_name!r}")
        gamma = {i: val for (i,), val in _table(
            dim, spec.get("gamma", {}), 1, f"triples.{name}.gamma").items()}
        theta = _expr(dim, spec.get("theta", "0"), f"triples.{name}.theta")
        eps = _parity(spec.get("parity", "even"), f"triples.{name}")
        weight = _parse_fraction(spec.get("weight", "0"), f"triples.{name}.weight")
        triples[name] = _built(f"triples.{name}", BracketTriple,
                               tensors[s_name], gamma, theta, eps, weight)

    named.update(tensors=tensors, changes=changes, triples=triples,
                 volume_forms={name: _expr(dim, text, f"volume_forms.{name}")
                               for name, text in section("volume_forms")})

    checks = doc.get("checks", [])
    if not isinstance(checks, list):
        raise ValidationError("checks must be a list")
    normalized = []
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
        known = {**handler.requires, **handler.optional}
        arguments = []
        for arg in chk:
            if arg != "check" and arg not in known:
                raise ValidationError(
                    f"checks[{pos}] ({kind}): unknown argument {arg!r}; known: "
                    + ", ".join(sorted(known)))
        for arg, pool in known.items():
            if arg not in chk:
                continue
            if pool is None:  # a rational value, not a name
                arguments.append(_parse_fraction(
                    chk[arg], f"checks[{pos}] ({kind}): {arg}"))
                continue
            if not isinstance(chk[arg], str):
                raise ValidationError(
                    f"checks[{pos}] ({kind}): {arg} must be a name string")
            if chk[arg] not in named[pool]:
                raise ValidationError(
                    f"checks[{pos}] ({kind}): unresolved {arg} {chk[arg]!r}")
            arguments.append(named[pool][chk[arg]])
        normalized.append((tuple(sorted(chk.items())), tuple(arguments)))
    return Scenario(dim, **named, checks=tuple(normalized))


def emit_scenario(s: Scenario) -> str:
    """Serialize a scenario back to canonical JSON (round-trip stable)."""

    doc = {
        "dimension": {"n": s.dim.n, "m": s.dim.m},
        "expressions": {k: format_super(v) for k, v in sorted(s.expressions.items())},
        "connections": {k: _residual_map(_table3(v).items())
                        for k, v in sorted(s.connections.items())},
        "projective_classes": {k: _residual_map(_table3(v).items())
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
        "checks": [dict(items) for items, _ in s.checks],
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
    """`requires` and `optional` map each argument of a check, in the order
    of `run`'s parameters, to its scenario section, or to None for a
    rational value.  `parse_scenario` resolves the given ones once, to the
    named objects and to Fractions, and `run(*arguments)` returns
    (conditions, info) for `run_checks`; a kind has at most one optional
    argument, the last, and `run`'s default stands in when it is left out."""

    run: Callable
    requires: Mapping[str, Optional[str]] = field(default_factory=dict)
    optional: Mapping[str, Optional[str]] = field(default_factory=dict)


def _residual_map(pairs) -> dict:
    """key -> printed value for the nonzero values, each a SuperFunction or
    a DensityElement."""
    out = {}
    for key, val in pairs:
        if val.is_zero():
            continue
        if isinstance(val, DensityElement):
            out[key] = " + ".join(f"({format_super(f)})*Vol^{w}"
                                  for w, f in sorted(val.slices.items()))
        else:
            out[key] = format_super(val)
    return out


def _table3(t: Sym2Cov) -> dict:
    """The components of a connection-type tensor, keyed "k,i,j"."""
    return {f"{k + 1},{i + 1},{j + 1}": v for (k, i, j), v in sorted(t.comps.items())}


def _check_projective_class(connection: Connection) -> tuple:
    pc = projective_class(connection)
    return {}, {"components": _residual_map(_table3(pc).items())}


def _check_projectively_equivalent(left: Connection, right: Connection) -> tuple:
    diff = projective_class(left) - projective_class(right)
    return _table3(diff), {"equivalent": diff.is_zero()}


def _check_schwarzian_vanishes(change: CoordinateChange) -> tuple:
    return _table3(super_schwarzian(change)), {}


def _check_schwarzian_defect(change: CoordinateChange, gamma=None) -> tuple:
    if gamma is None:
        gamma = Connection(change.dim, {})
    return _table3(schwarzian_defect(gamma, change)), {}


def _check_laplacian_invariance(tensor: Sym2Upper, pc: ProjectiveClass,
                                change: CoordinateChange) -> tuple:
    """Invariance of the projective Laplacian under change, checked in the
    source chart: the new chart's Laplacian is built from c*S and c*Pi (the
    laws' pulled-back results) and the new chart's derivatives read in the
    old one, so its coefficients are c* of the new-chart Laplacian's and no
    function is mapped back by the inverse map.  A change without an
    inverse map is still refused, after the Laplacian's SingularDimension,
    as the route through the new chart refuses it."""
    op_src = projective_laplacian(tensor, pc)
    change.require_inverse()
    op_bar = projective_laplacian(
        transform_upper2(tensor, change, pulled_back=True),
        projective_class(transform_connection(pc, change, pulled_back=True)),
        new_chart_partial(change))
    return _intertwining_conditions(change, op_src, op_bar), {}


def _intertwining_conditions(change: CoordinateChange, op_src, op_bar) -> dict:
    """Conditions that hold iff op_src(c* phi) = c*(D phi) for every weight-0
    phi, for operators of order <= 2 without constant term, where op_bar
    holds D's coefficients pulled back by c* and D's derivatives are the new
    chart's: none when `_intertwines` holds, else the defect on each
    element of the test family, as functions of the old chart."""
    if _intertwines(change, op_src, op_bar):
        return {}
    dim = change.dim
    pullback = change.pullback

    def pulled(phi: SuperFunction) -> SuperFunction:
        """c*(D phi) = sum f c*(d^alpha phi) over op_bar's terms f d^alpha."""
        out = []
        for (alpha, _, _), f in op_bar.terms.items():
            g = phi
            for i in reversed(range(dim.size)):
                for _ in range(alpha[i]):
                    g = g.partial(i)
            if g.terms:
                out.append(f * pullback(g))
        return SuperFunction.sum(dim, out)

    family = density_test_family(dim, weights=(Fraction(0),), max_degree=3)
    return {f"family[{idx}]": op_src(DensityElement.of(pullback(phi.slice(0))))
            - DensityElement.of(pulled(phi.slice(0)))
            for idx, phi in enumerate(family)}


def _intertwines(change: CoordinateChange, op_src, op_bar) -> bool:
    """True iff op_src o c* and c* o D agree, for D and op_bar as in
    `_intertwining_conditions`.  Both are operators of order <= 2 without
    constant term on the new chart's functions, and c* is injective, so they
    agree iff they agree on each x^a and each nonzero x^a x^b (a <= b); by
    the four-term identity (`densities._four_term`), iff they agree on each
    x^a and give each such pair the same four-term bracket.  On x^a the
    sides are op_src(F^a), for F^a = c* x^a, and c* of D's coefficient of
    d_a.  The brackets are `_cross_bracket`s: of F^a and F^b on the left,
    whose derivatives d_i F^a are the Jacobian entries J[i][a], and of x^a
    and x^b on the right, whose derivatives are constants."""
    dim, size = change.dim, change.dim.size
    one, zero = SuperFunction.one(dim), SuperFunction.zero(dim)
    units = [[one if i == a else None for i in range(size)] for a in range(size)]
    for a, f in enumerate(change.forward):
        got = op_src(DensityElement.of(f)).slice(0)
        d_a = tuple(int(i == a) for i in range(size))
        if got != op_bar.terms.get((d_a, 0, 0), zero):
            return False
    columns = [[d if d.terms else None for d in col]
               for col in zip(*jacobian_rows(change))]
    src, bar = _second_order(op_src), _second_order(op_bar)
    for a in range(size):
        for b in range(a, size):
            if a == b and dim.parity(a):
                continue  # x^a x^a = 0
            if (_cross_bracket(dim, src, columns[a], columns[b], dim.parity(a))
                    != _cross_bracket(dim, bar, units[a], units[b], dim.parity(a))):
                return False
    return True


def _second_order(op) -> list:
    """(i, j, c) for each second-order term c d_i d_j of op, i <= j."""
    out = []
    for (alpha, _, _), c in op.terms.items():
        if sum(alpha) == 2:
            i, j = (k for k, e in enumerate(alpha) for _ in range(e))
            out.append((i, j, c))
    return out


def _cross_bracket(dim: Dimension, second, df, dg, pf: int) -> SuperFunction:
    """The four-term bracket, on f of parity pf and g, of an operator whose
    second-order terms c d_i d_j are `second` and which has no constant
    term: its other terms are derivations and leave no cross term, and each
    of these leaves
        c ((-1)^{i~(j~+f~)} d_j f d_i g + (-1)^{j~f~} d_i f d_j g),
    from df[i] = d_i f and dg[i] = d_i g (None where zero)."""
    out = []
    for i, j, c in second:
        pi, pj = dim.parity(i), dim.parity(j)
        for x, y, odd in ((df[j], dg[i], pi * (pj + pf)), (df[i], dg[j], pj * pf)):
            if x is not None and y is not None:
                term = c * x * y
                out.append(-term if odd % 2 else term)
    return SuperFunction.sum(dim, out)


def _check_canonical_operator(triple: BracketTriple) -> tuple:
    dim = triple.dim
    delta = canonical_operator(triple)
    d_1 = delta(DensityElement.of(SuperFunction.one(dim)))
    conditions = {"Delta(1)": d_1}
    if formal_adjoint(delta) != delta:
        conditions["self_adjoint"] = SuperFunction.one(dim)
    # One four-term bracket per sorted pair p <= q of the generators
    # g = x^1 .. x^{n+m}, |Dx|, from the values of delta on 1, on each
    # generator and on each product.
    gens = generators(dim)
    d_gens = [delta(g) for g in gens]
    dp = delta.parity()
    size = dim.size
    defects = {}
    for p, q in combinations_with_replacement(range(size + 1), 2):
        ab = gens[p] * gens[q]
        got = _four_term(dp, gens[p], gens[q], ab,
                         (d_gens[p], d_gens[q], delta(ab), d_1))
        # the triple's value S^pq, gamma^p or theta, by the |Dx| in the pair
        vols = (p == size) + (q == size)
        want = (triple.s.component(p, q) if vols == 0
                else triple.gamma_component(p) if vols == 1 else triple.theta)
        defects[p, q] = got - DensityElement(dim, {triple.weight + vols: want})
    # The four-term bracket of any operator is graded-symmetric, and so is
    # S, so the (j, i) defect is the mirror of the (i, j) one.
    s_defects = mirrored(dim, {key: val for key, val in defects.items()
                               if key[1] < size})
    for i, j in sorted(s_defects):
        conditions[f"generates_S^{i + 1}{j + 1}"] = s_defects[i, j]
    for i in range(size):
        conditions[f"generates_gamma^{i + 1}"] = defects[i, size]
    conditions["generates_theta"] = defects[size, size]
    return conditions, {}


def _check_thomas_lift(pc: ProjectiveClass) -> tuple:
    chart = thomas.TildeChart(pc.dim)
    # the lift is a ProjectiveClass, whose constructor refuses a nonzero
    # trace, so only the restriction to the base is left to check
    tilde = thomas.lift_projective_class(pc)
    conditions = {f"restriction {k + 1},{i + 1},{j + 1}":
                  tilde.component(k + 1, i + 1, j + 1) - chart.embed(val)
                  for (k, i, j), val in pc.comps.items()}
    comps = {f"{k},{i},{j}": format_super(v)
             for (k, i, j), v in sorted(tilde.comps.items())}
    return conditions, {"lifted_components": comps}


def _check_extension_consistency(tensor: Sym2Upper, pc: ProjectiveClass,
                                  weight=Fraction(0)) -> tuple:
    dim = tensor.dim
    # one tilde_ricci for both sides; at n - m = +-1 extend_bracket raises first
    ricci = None if dim.n0 in (1, -1) else thomas.tilde_ricci(pc)
    triple = thomas.extend_bracket(tensor, pc, weight, ricci)
    diff = canonical_operator(triple) - thomas.extension_operator(triple, pc, ricci)
    # both operators have the one weight shift |Dx|^weight, so d^alpha w^k
    # names a term of the difference
    conditions = {f"d^{list(alpha)} w^{k}": DensityElement(dim, {mu: f})
                  for (alpha, k, mu), f in sorted(diff.terms.items())}
    if conditions:  # the extension's components are shown on agreement only
        return conditions, {}
    return {}, {"gamma": {f"{i + 1}": format_super(v)
                          for i, v in sorted(triple.gamma.items())},
                "theta": format_super(triple.theta)}


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
    # the poisson_bv checks are looked up at each call, so that a patched
    # module attribute is the one that runs
    "bv_check": CheckHandler(
        lambda tensor, pc: poisson_bv.bv_check(tensor, pc),
        {"tensor": "tensors", "projective_class": "projective_classes"}),
    "density_jacobi": CheckHandler(
        lambda triple: poisson_bv.density_jacobi_check(triple),
        {"triple": "triples"}),
    "symplectic_canonical": CheckHandler(
        lambda triple, rho: poisson_bv.symplectic_canonical_check(triple, rho),
        {"triple": "triples", "volume": "volume_forms"}),
    "projective_poisson": CheckHandler(
        lambda tensor, pc, rho: poisson_bv.projective_poisson_check(
            tensor, pc, rho),
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
    """Run every requested check; failures and errors never abort siblings.
    A check passes iff every condition its handler returns is zero; its
    residuals are the nonzero ones, and its info keeps the bool, int, str
    and dict values, never kernel objects such as witnesses."""
    results = []
    for items, arguments in s.checks:
        chk = dict(items)
        kind = chk["check"]
        if only and kind not in only:
            continue
        entry = {"check": kind}
        entry.update({k: v for k, v in chk.items() if k != "check"})
        start = time.perf_counter()
        try:
            conditions, info = CHECK_HANDLERS[kind].run(*arguments)
            residuals = _residual_map(conditions.items())
            entry["verdict"] = "fail" if residuals else "pass"
            if residuals:
                entry["residuals"] = residuals
            info = {key: val for key, val in info.items()
                    if isinstance(val, (bool, int, str, dict))}
            if info:
                entry["info"] = info
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
    unknown = sorted(set(getattr(args, "only", None) or ()) - set(CHECK_HANDLERS))
    if unknown:
        sys.stderr.write(f"--only: unknown check {unknown[0]!r}; known: "
                         + ", ".join(sorted(CHECK_HANDLERS)) + "\n")
        return 1
    try:
        with open(args.scenario, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
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
