"""Seeded scenario documents with planted verdicts.

Every document is built as plain JSON text from random streams keyed by the
workload, the seed and the scenario's position (see `_Rand`); nothing here
imports the kernel.  Each check carries the verdict the mathematics predicts
for the generated data:

* identities (``projective_class``, ``schwarzian_defect``,
  ``laplacian_invariance``, ``canonical_operator``, ``thomas_lift``,
  ``extension_consistency``) pass;
* ``schwarzian_vanishes`` fails on changes with a nonlinear shift and passes
  on affine ones;
* ``projectively_equivalent`` passes for ``Gamma`` against
  ``Gamma + j(psi)`` and fails against ``Gamma`` plus a trace-free term;
* constant Darboux data with a flat class and constant volume passes the
  four BV/Jacobi checks; with a non-constant volume ``rho`` the canonical
  triple ``gamma^i = -S^ij d_j log rho`` passes the symplectic check, while
  the flat-class Poisson check fails on its volume-flatness condition;
* Thomas checks on ``n - m = 1`` raise (planted ``error``);
* Darboux data plus ``S^{x_a x_a} = c x_a th_b`` fails ``bv_check``;
* random odd triples have no planted Jacobi verdict (``ANY``): only
  ``info.verdicts_agree`` must hold.

Projective classes are trace-free by construction: they only use components
``Pi^k_ij`` with ``k`` not in ``{i, j}``.  Coordinate changes are triangular:
the moved coordinates are shifted by expressions in the fixed ones only, so
the inverse is the opposite shift; rational changes add Moebius pairs
``x/(1-cx) <-> x/(1+cx)`` with a matching odd rescaling.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

ANY = None  # planted verdict meaning "pass or fail, but verdicts agree"

_COEFFS = tuple(Fraction(c) for c in
                ("1", "-1", "2", "-2", "3", "1/2", "-1/2", "3/2", "-2/3"))
_LAMBDAS = ("0", "1/2", "1", "-1/2")  # regular for n - m in {0, 2}


@dataclass(frozen=True)
class Case:
    """One scenario document and the verdict planted for each of its checks
    (in document order)."""

    template: str
    text: str
    planted: tuple


class _Rand:
    """Two random streams: `shape` fixes what drives the cost of a scenario
    (which components exist, which coordinates occur, degrees) and depends
    only on the workload and the scenario's position; `val` draws the
    coefficients from the seed.  Seeds then change every document but
    hardly its cost, so run-to-run spread measures the program, not the
    draw."""

    def __init__(self, workload: str, seed: int, index: int):
        self.shape = random.Random(f"{workload}/shape/{index}")
        self.val = random.Random(f"{workload}/{seed}/{index}")


class _Dim:
    def __init__(self, n: int, m: int):
        self.n, self.m = n, m
        self.size = n + m
        self.names = ([f"x{i + 1}" for i in range(n)]
                      + [f"th{j + 1}" for j in range(m)])

    def parity(self, i: int) -> int:
        return 0 if i < self.n else 1

    def odds(self):
        return range(self.n, self.size)


# ---------------------------------------------------------------------------
# expression text
# ---------------------------------------------------------------------------


def _coeff(r: _Rand) -> Fraction:
    return r.val.choice(_COEFFS)


def _term(c: Fraction, factors) -> str:
    """Text of c * f1 * f2 * ... with the sign in front."""
    mag = abs(c)
    parts = [] if mag == 1 and factors else [str(mag)]
    parts.extend(factors)
    return ("-" if c < 0 else "") + "*".join(parts)


def _sum(terms) -> str:
    terms = [t for t in terms if t]
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def _even_monomial(r: _Rand, dim: _Dim, deg: int) -> list:
    """Factors of a monomial of total degree `deg` in the even coordinates."""
    if not dim.n:
        return []
    exps = {}
    for _ in range(deg):
        i = r.shape.randrange(dim.n)
        exps[i] = exps.get(i, 0) + 1
    return [dim.names[i] + (f"^{e}" if e > 1 else "")
            for i, e in sorted(exps.items())]


def _odd_monomial(r: _Rand, dim: _Dim, parity: int):
    """Factors of a product of distinct odd generators, as many as `parity`
    modulo 2 (ascending, so no reordering sign); None if impossible."""
    sizes = [k for k in range(dim.m + 1) if k % 2 == parity][:2]
    if not sizes:
        return None
    chosen = r.shape.sample(list(dim.odds()), r.shape.choice(sizes))
    return [dim.names[i] for i in sorted(chosen)]


def _poly(r: _Rand, dim: _Dim, parity: int, deg: int):
    """A term c * x^alpha * th^K of the given parity and even degree at most
    `deg`; None if the parity admits no nonzero value."""
    odd = _odd_monomial(r, dim, parity)
    if odd is None:
        return None
    ev = _even_monomial(r, dim, r.shape.randint(0, deg))
    return _term(_coeff(r), ev + odd)


def _denominator(r: _Rand, dim: _Dim, x: str | None = None) -> str:
    """An even denominator 1 + c*x^k: nonzero body, not a unit, so the
    fraction path (`cancel`, gcd) has work to do."""
    x = x or dim.names[r.shape.randrange(dim.n)]
    return _sum(["1", _term(_coeff(r), [x + r.shape.choice(("", "^2"))])])


def _rational(r: _Rand, dim: _Dim, parity: int, deg: int):
    """A `_poly` term over a denominator 1 + c*x^k."""
    num = _poly(r, dim, parity, deg)
    if num is None:
        return None
    return f"({num})/({_denominator(r, dim)})"


# ---------------------------------------------------------------------------
# tensors
# ---------------------------------------------------------------------------


def _connection_keys(dim: _Dim):
    return [(k, i, j) for k in range(dim.size) for i in range(dim.size)
            for j in range(i, dim.size)
            if not (i == j and dim.parity(i))]


def _class_keys(dim: _Dim):
    """Components Pi^k_ij with k not in {i, j}: trace-free by construction."""
    return [key for key in _connection_keys(dim) if key[0] not in key[1:]]


def _upper_keys(dim: _Dim):
    return [(i, j) for i in range(dim.size) for j in range(i, dim.size)
            if not (i == j and dim.parity(i))]


def _components(r: _Rand, dim: _Dim, keys, count: int, parity: int,
                value) -> dict:
    """Up to `count` components drawn from `keys`; a component's parity is
    the sum of its index parities plus `parity`, and `value(parity)` gives
    its text (None when that parity admits no value)."""
    out = {}
    for key in r.shape.sample(keys, min(count, len(keys))):
        val = value((sum(dim.parity(i) for i in key) + parity) % 2)
        if val is not None:
            out[key] = val
    return out


def _darboux(r: _Rand, dim: _Dim) -> dict:
    """Constant nondegenerate odd tensor S^{x_b, th_b} = s_b (needs n = m)."""
    return {(b, dim.n + b): str(_coeff(r)) for b in range(dim.n)}


def _table(comps: dict) -> dict:
    return {",".join(str(i + 1) for i in key): val
            for key, val in sorted(comps.items())}


def _add(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, val in b.items():
        out[key] = f"({out[key]}) + ({val})" if key in out else val
    return out


def _j_of(dim: _Dim, e: int, psi: str) -> dict:
    """j(phi) for phi = 2 psi e^e with e even and psi even:
    A^i_ie = A^i_ei = psi (the parser fills the mirror), A^e_ee = 2 psi.
    Adding it to a connection keeps its projective class."""
    out = {}
    for i in range(dim.size):
        if i == e:
            out[(e, e, e)] = f"2*({psi})"
        else:
            out[(i, min(i, e), max(i, e))] = psi
    return out


# ---------------------------------------------------------------------------
# coordinate changes
# ---------------------------------------------------------------------------


def _shift_change(r: _Rand, dim: _Dim, nonlinear: bool, rational: bool):
    """Triangular change (needs n >= 2).  One even coordinate x_f and (if
    any) one odd th_g stay fixed; every other coordinate y_a goes to
    s_a*y_a + shift_a with shift_a in x_f, th_g only, so the inverse is
    (y_a - shift_a)/s_a.  A nonlinear change puts c*x_f^2 (when rational,
    1/(1 + c*x_f^k)) into the first even shift and x_f*th_g into the odd
    ones.  Returns (forward, inverse)."""
    f = r.shape.randrange(dim.n)
    g = dim.n + r.shape.randrange(dim.m) if dim.m else None
    xf = dim.names[f]
    fwd, inv = list(dim.names), list(dim.names)
    first = True
    for a in range(dim.size):
        if a in (f, g):
            continue
        scale = "1"
        if dim.parity(a) == 0:
            terms = [_term(_coeff(r), [xf])]
            if nonlinear and first:
                terms.append(f"1/({_denominator(r, dim, xf)})" if rational
                             else _term(_coeff(r), [xf + "^2"]))
            first = False
            scale = r.val.choice(("1", "2", "1/2"))
        else:
            odd = [xf, dim.names[g]] if nonlinear else [dim.names[g]]
            terms = [_term(_coeff(r), odd)]
        shift = _sum(terms)
        y = dim.names[a]
        fwd[a] = _sum([y if scale == "1" else f"{scale}*{y}", shift])
        inv[a] = (f"{y} - ({shift})" if scale == "1"
                  else f"({y} - ({shift}))/({scale})")
    return fwd, inv


def _moebius_change(r: _Rand, dim: _Dim):
    """x_a -> x_a/(1 - c x_a) with inverse x_a/(1 + c x_a), and every odd
    th_b -> th_b*(1 + d_b x_a) with inverse
    th_b*(1 + c x_a)/(1 + (c + d_b) x_a).  Returns (forward, inverse)."""
    xa = dim.names[r.shape.randrange(dim.n)]
    c = r.val.choice((1, 2, -1))

    def lin(q):
        return _sum(["1", _term(Fraction(q), [xa])])

    fwd, inv = list(dim.names), list(dim.names)
    fwd[dim.names.index(xa)] = f"{xa}/({lin(-c)})"
    inv[dim.names.index(xa)] = f"{xa}/({lin(c)})"
    for b in dim.odds():
        d = r.val.choice([v for v in (1, 2, -2, 3) if v != -c])
        th = dim.names[b]
        fwd[b] = f"{th}*({lin(d)})"
        inv[b] = f"{th}*({lin(c)})/({lin(c + d)})"
    return fwd, inv


# ---------------------------------------------------------------------------
# scenario templates
# ---------------------------------------------------------------------------


class _Scenario:
    """Accumulates one scenario document and its planted verdicts."""

    def __init__(self, dim: _Dim):
        self.doc = {"dimension": {"n": dim.n, "m": dim.m}}
        self.checks = []
        self.planted = []

    def add(self, section: str, name: str, value):
        self.doc.setdefault(section, {})[name] = value

    def check(self, planted, kind: str, **args):
        self.checks.append({"check": kind, **args})
        self.planted.append(planted)

    def case(self, template: str) -> Case:
        self.doc["checks"] = self.checks
        return Case(template, json.dumps(self.doc), tuple(self.planted))


def _values(r: _Rand, dim: _Dim, rational: bool, deg=1):
    """Component values: `_poly` terms, except that with `rational` the
    first nonzero component gets a denominator."""
    pending = [rational]

    def value(parity):
        if pending[0]:
            val = _rational(r, dim, parity, deg)
            pending[0] = val is None
            return val
        return _poly(r, dim, parity, deg)

    return value


def _geometry(r, dim, part, variant, rational) -> _Scenario:
    """One third of the geometry checks on a connection, a class, a tensor
    and a change.  part 0: projective_class, projectively_equivalent,
    schwarzian_vanishes; part 1: schwarzian_defect; part 2:
    laplacian_invariance.  `variant` picks equivalent/inequivalent pairs,
    affine/nonlinear (polynomial) or shift/Moebius (rational) changes."""
    b = _Scenario(dim)
    values = _values(r, dim, rational)
    if rational and (variant % 2 or dim.n < 2):
        fwd, inv = _moebius_change(r, dim)
        vanishes = None  # Moebius in one coordinate: no planted verdict
    else:
        nonlinear = rational or variant % 2 == 1
        fwd, inv = _shift_change(r, dim, nonlinear, rational)
        vanishes = "fail" if nonlinear else "pass"
    b.add("changes", "c", {"forward": fwd, "inverse": inv})
    if part == 0:
        gamma = _components(r, dim, _connection_keys(dim), 3, 0, values)
        equivalent = variant // 2 % 2 == 0
        if equivalent:
            psi = _poly(r, dim, 0, 1)
            other = _add(gamma, _j_of(dim, r.shape.randrange(dim.n), psi))
        else:
            other = _add(gamma, _components(r, dim, _class_keys(dim), 1, 0,
                                            values))
        b.add("connections", "Gamma", _table(gamma))
        b.add("connections", "Gamma2", _table(other))
        b.check("pass", "projective_class", connection="Gamma")
        b.check("pass" if equivalent else "fail", "projectively_equivalent",
                left="Gamma", right="Gamma2")
        if vanishes is not None:
            b.check(vanishes, "schwarzian_vanishes", change="c")
    elif part == 1:
        gamma = _components(r, dim, _connection_keys(dim), 3, 0, values)
        b.add("connections", "Gamma", _table(gamma))
        b.check("pass", "schwarzian_defect", change="c", connection="Gamma")
    else:
        eps = variant // 2 % 2 if dim.m else 0
        b.add("projective_classes", "Pi",
              _table(_components(r, dim, _class_keys(dim), 2, 0, values)))
        b.add("tensors", "S", {
            "parity": ("even", "odd")[eps],
            "components": _table(_components(
                r, dim, _upper_keys(dim), 2, eps,
                _values(r, dim, False, deg=0)))})
        b.check("pass", "laplacian_invariance", tensor="S",
                projective_class="Pi", change="c")
    return b


def _darboux_bv(r, dim, part, rational) -> _Scenario:
    """Constant Darboux S with a flat class.  Polynomial: constant volume,
    so all four BV/Jacobi checks pass.  Rational: rho = 1/(1 + c x_b^2) and
    the canonical triple gamma^{th_b} = -s_b d_b log rho, theta = 0,
    which passes the symplectic and Jacobi checks, while the flat class
    fails projective_poisson's volume flatness."""
    b = _Scenario(dim)
    s = _darboux(r, dim)
    b.add("tensors", "S", {"parity": "odd", "components": _table(s)})
    b.add("projective_classes", "Pi0", {})
    gamma = {}
    if rational:
        xa = r.shape.randrange(dim.n)
        x = dim.names[xa]
        c = _coeff(r)
        quad = _sum(["1", _term(c, [x + "^2"])])
        b.add("volume_forms", "rho", f"1/({quad})")
        # -s_b d_b log rho = s_b * 2c x_b / (1 + c x_b^2)
        gamma[str(dim.n + xa + 1)] = (
            f"{_term(2 * c * Fraction(s[(xa, dim.n + xa)]), [x])}/({quad})")
    else:
        b.add("volume_forms", "rho", str(_coeff(r)))
    b.add("triples", "T", {"s": "S", "gamma": gamma, "theta": "0",
                           "parity": "odd", "weight": "0"})
    if part == 0:
        b.check("pass", "bv_check", tensor="S", projective_class="Pi0")
        b.check("pass", "symplectic_canonical", triple="T", volume="rho")
        b.check("pass", "canonical_operator", triple="T")
    elif part == 1:
        b.check("pass", "density_jacobi", triple="T")
    else:
        b.check("fail" if rational else "pass", "projective_poisson",
                tensor="S", projective_class="Pi0", volume="rho")
    return b


def _random_odd(r, dim, rational) -> _Scenario:
    """Random odd S and weight-0 triple: the Jacobi verdict is not planted
    (only its two routes must agree); the canonical operator is an
    identity."""
    b = _Scenario(dim)
    values = _values(r, dim, rational)
    s = _components(r, dim, _upper_keys(dim), 2, 1, values)
    gamma = _components(r, dim, [(i,) for i in range(dim.size)], 1, 1, values)
    b.add("tensors", "S", {"parity": "odd", "components": _table(s)})
    b.add("triples", "T", {"s": "S", "gamma": _table(gamma),
                           "theta": _poly(r, dim, 1, 0) or "0",
                           "parity": "odd", "weight": "0"})
    b.check(ANY, "density_jacobi", triple="T")
    b.check("pass", "canonical_operator", triple="T")
    return b


def _nonflat_bv(r, dim) -> _Scenario:
    """Darboux S plus S^{x_a x_a} = c x_a th_b with a flat class: (S, S) is
    not zero, so the Laplacian does not square to zero (planted fail).

    Random odd tensors are not used here: bv_check's formula route reports
    a square-zero Laplacian on inputs such as S^{x_a x_a} = c x_e th_b with
    e != a, where squaring the operator does not.  That kernel defect,
    pinned by test_bench.py::test_bv_routes_agree, would fail every run."""
    b = _Scenario(dim)
    s = _darboux(r, dim)
    a = r.shape.randrange(dim.n)
    th = dim.names[dim.n + r.shape.randrange(dim.m)]
    s[(a, a)] = _term(_coeff(r), [dim.names[a], th])
    b.add("tensors", "S", {"parity": "odd", "components": _table(s)})
    b.add("projective_classes", "Pi0", {})
    b.check("fail", "bv_check", tensor="S", projective_class="Pi0")
    return b


def _thomas(r, dim, rational) -> _Scenario:
    """Lift of a class and the extension operator of a tensor; both are
    identities, and both raise on n - m = 1."""
    b = _Scenario(dim)
    b.add("projective_classes", "Pi", _table(_components(
        r, dim, _class_keys(dim), 1, 0, _values(r, dim, rational, deg=0))))
    eps = r.shape.randrange(2) if dim.m else 0
    b.add("tensors", "S", {"parity": ("even", "odd")[eps],
                           "components": _table(_components(
                               r, dim, _upper_keys(dim), 2, eps,
                               _values(r, dim, False, deg=0)))})
    planted = "error" if dim.n - dim.m == 1 else "pass"
    b.check(planted, "thomas_lift", projective_class="Pi")
    b.check(planted, "extension_consistency", tensor="S",
            projective_class="Pi", weight=r.shape.choice(_LAMBDAS))
    return b


# One round of each workload: (template, dimension, part).  Cases go round
# by round and a timed run stops at a round boundary, so every run has the
# same mix of templates.
_ROUNDS = {
    "geometry_changes": [("geometry", (n, m), part)
                         for (n, m) in ((2, 0), (2, 1), (2, 2), (3, 1))
                         for part in range(3)],
    "brackets_bv": (
        [("darboux", (n, n), part) for n in (1, 2) for part in range(3)]
        + [("random_odd", (n, n), 0) for n in (1, 2)]
        + [("nonflat_bv", (n, n), 0) for n in (1, 2)]
        + [("thomas", (n, m), 0) for (n, m) in ((1, 1), (2, 2), (3, 1))]),
    "rational_coeffs": (
        [("geometry", (n, m), part)
         for (n, m) in ((1, 1), (2, 1)) for part in range(3)]
        + [("geometry", (2, 2), 0)]
        + [("darboux", (n, n), part) for n in (1, 2) for part in range(3)]
        + [("random_odd", (n, m), 0) for (n, m) in ((1, 1), (2, 1), (2, 2))]
        + [("thomas", (n, m), 0) for (n, m) in ((1, 1), (2, 1), (2, 2))]),
}

WORKLOADS = tuple(_ROUNDS)


def case(workload: str, seed: int, index: int) -> Case:
    """The `index`-th case of a workload for a seed (deterministic)."""
    if workload not in _ROUNDS:
        raise ValueError(f"unknown workload {workload!r}; known: "
                         + ", ".join(WORKLOADS))
    rounds = _ROUNDS[workload]
    rational = workload == "rational_coeffs"
    template, (n, m), part = rounds[index % len(rounds)]
    variant = index // len(rounds)
    r = _Rand(workload, seed, index)
    dim = _Dim(n, m)
    if template == "geometry":
        b = _geometry(r, dim, part, variant, rational)
    elif template == "darboux":
        b = _darboux_bv(r, dim, part, rational)
    elif template == "random_odd":
        b = _random_odd(r, dim, rational)
    elif template == "nonflat_bv":
        b = _nonflat_bv(r, dim)
    else:
        b = _thomas(r, dim, rational)
    return b.case(f"{template}.{n}|{m}.{part}")


def round_size(workload: str) -> int:
    """Cases per round: runs that stop at a round boundary share one mix."""
    return len(_ROUNDS[workload])


def generate(workload: str, seed: int, count: int) -> list:
    """The first `count` cases of a workload for a seed."""
    return [case(workload, seed, index) for index in range(count)]
