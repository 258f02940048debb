"""Deterministic random generators shared across the test modules."""

from fractions import Fraction
from itertools import combinations

from superproj.densities import BracketTriple
from superproj.geometry import (
    Connection,
    CoordinateChange,
    CovectorField,
    Sym2Cov,
    Sym2Upper,
    inverse_jacobian_rows,
    jacobian_rows,
    projective_class,
)
from superproj.graded_algebra import Dimension, SuperFunction, keyed_sums, scalar_ring


def rand_scalar(rng, dim, deg=1, terms=2):
    ring, gens = scalar_ring(dim)
    val = ring(rng.randint(-2, 2))
    for _ in range(rng.randint(0, terms)):
        term = ring(rng.randint(-2, 2))
        for g in gens:
            term = term * g ** rng.randint(0, deg)
        val = val + term
    return val


def rand_super(rng, dim, parity=None, deg=1):
    terms = {}
    for r in range(dim.m + 1):
        for combo in combinations(range(dim.m), r):
            if parity is None or r % 2 == parity:
                if rng.random() < 0.8:
                    terms[combo] = rand_scalar(rng, dim, deg)
    return SuperFunction(dim, terms)


def rand_covector(rng, dim, eps=0):
    return CovectorField(
        dim,
        {i: rand_super(rng, dim, (dim.parity(i) + eps) % 2) for i in range(dim.size)},
        eps,
    )


def rand_sym2cov(rng, dim, eps=0, deg=1):
    comps = {}
    for k in range(dim.size):
        for i in range(dim.size):
            for j in range(i, dim.size):
                if i == j and dim.parity(i):
                    continue
                p = (dim.parity(i) + dim.parity(j) + dim.parity(k) + eps) % 2
                v = rand_super(rng, dim, p, deg)
                comps[(k, i, j)] = v
                if i != j:
                    comps[(k, j, i)] = v.scale(dim.mirror_sign(i, j))
    return Sym2Cov(dim, comps, eps)


def rand_connection(rng, dim, deg=1):
    return Connection(dim, rand_sym2cov(rng, dim, 0, deg).comps)


def rand_projective_class(rng, dim, deg=1):
    return projective_class(rand_connection(rng, dim, deg))


def rand_upper(rng, dim, eps, deg=1):
    comps = {}
    for i in range(dim.size):
        for j in range(i, dim.size):
            if i == j and dim.parity(i):
                continue
            p = (dim.parity(i) + dim.parity(j) + eps) % 2
            v = rand_super(rng, dim, p, deg)
            comps[(i, j)] = v
            if i != j:
                comps[(j, i)] = v.scale(dim.mirror_sign(i, j))
    return Sym2Upper(dim, comps, eps)


def rand_triple(rng, dim, eps, lam):
    s = rand_upper(rng, dim, eps)
    gamma = {i: rand_super(rng, dim, (dim.parity(i) + eps) % 2)
             for i in range(dim.size)}
    theta = rand_super(rng, dim, eps)
    return BracketTriple(s, gamma, theta, eps, Fraction(lam))


def darboux_odd(dim):
    """Constant odd symplectic tensor pairing x_i with th_i (needs n == m)."""
    comps = {}
    one = SuperFunction.one(dim)
    for i in range(dim.n):
        comps[(i, dim.n + i)] = one
        comps[(dim.n + i, i)] = one
    return Sym2Upper(dim, comps, 1)


def rand_linear_change(rng, dim):
    """Random invertible block-diagonal linear change with rational entries."""

    def rand_block(size):
        while True:
            rows = [[Fraction(rng.randint(-3, 3)) for _ in range(size)]
                    for _ in range(size)]
            det = _rational_det(rows)
            if det:
                return rows

    def _rational_det(rows):
        size = len(rows)
        if size == 0:
            return Fraction(1)
        if size == 1:
            return rows[0][0]
        total = Fraction(0)
        for c in range(size):
            minor = [[row[cc] for cc in range(size) if cc != c]
                     for row in rows[1:]]
            total += (-1) ** c * rows[0][c] * _rational_det(minor)
        return total

    def _rational_inv(rows):
        size = len(rows)
        det = _rational_det(rows)
        inv = [[Fraction(0)] * size for _ in range(size)]
        for i in range(size):
            for j in range(size):
                minor = [[rows[r][c] for c in range(size) if c != i]
                         for r in range(size) if r != j]
                inv[i][j] = (-1) ** (i + j) * _rational_det(minor) / det
        return inv

    eb = rand_block(dim.n)
    ob = rand_block(dim.m)
    ebi = _rational_inv(eb)
    obi = _rational_inv(ob)

    def assemble(block_e, block_o):
        out = []
        for a in range(dim.n):
            acc = SuperFunction.zero(dim)
            for b in range(dim.n):
                if block_e[a][b]:
                    acc = acc + SuperFunction.coordinate(dim, b).scale(block_e[a][b])
            out.append(acc)
        for a in range(dim.m):
            acc = SuperFunction.zero(dim)
            for b in range(dim.m):
                if block_o[a][b]:
                    acc = acc + SuperFunction.coordinate(dim, dim.n + b).scale(
                        block_o[a][b])
            out.append(acc)
        return tuple(out)

    return CoordinateChange(dim, assemble(eb, ob), assemble(ebi, obi))


DIMS_FOUR = [Dimension.of(2, 0), Dimension.of(1, 1),
             Dimension.of(2, 1), Dimension.of(2, 2)]


def rand_triangular_change(rng, dim):
    """Random nonlinear triangular change x'_a = u_a x_a + p_a, with u_a a
    nonzero constant and p_a a polynomial in the coordinates before a (evens
    first): squares of earlier evens for an even x_a, x1 times earlier odds
    for an odd one.  Its inverse x_a = (x'_a - p_a(x(x'))) / u_a is exact."""
    coords = [SuperFunction.coordinate(dim, a) for a in range(dim.size)]
    x1 = coords[0] if dim.n else SuperFunction.one(dim)
    fwd, inv = [], []
    for a in range(dim.size):
        u = Fraction(rng.choice((1, -1, 2, -3))) / rng.choice((1, 2))
        p = SuperFunction.zero(dim)
        for b in range(a):
            if dim.parity(b) == dim.parity(a) and rng.random() < 0.7:
                c = rng.choice((1, -1, 2, Fraction(1, 2)))
                term = x1 * coords[b] if dim.parity(a) else coords[b] * coords[b]
                p = p + term.scale(c)
        fwd.append(coords[a].scale(u) + p)
        inv.append((coords[a] - p.substitute(inv + coords[a:])).scale(1 / u))
    return CoordinateChange(dim, tuple(fwd), tuple(inv))


def rand_moebius_change(rng, dim):
    """Random Moebius change in one even coordinate x: x -> x/(1 - c x),
    with inverse x/(1 + c x), and each odd th_b -> th_b (1 + d_b x), with
    inverse th_b (1 + c x)/(1 + (c + d_b) x)."""
    a = rng.randrange(dim.n)
    x = SuperFunction.coordinate(dim, a)
    one = SuperFunction.one(dim)
    c = rng.choice((1, 2, -1))

    def lin(q):
        return one + x.scale(q)

    fwd = [SuperFunction.coordinate(dim, i) for i in range(dim.size)]
    inv = list(fwd)
    fwd[a], inv[a] = x * lin(-c).invert(), x * lin(c).invert()
    for b in range(dim.n, dim.size):
        d = rng.choice([v for v in (1, 2, -2, 3) if v != -c])
        th = SuperFunction.coordinate(dim, b)
        fwd[b] = th * lin(d)
        inv[b] = th * lin(c) * lin(c + d).invert()
    return CoordinateChange(dim, tuple(fwd), tuple(inv))


def full_transform_core(a, c):
    """Reference for `geometry._transform_core`: the tensorial law
        new^d_ab = (-1)^{i~(j~+b~)} K^i_a K^j_b A^k_ij J^d_k
    contracted for every output pair (a, b), mirrors included, as raw
    components of the old chart keyed in sorted order."""
    dim, size = a.dim, a.dim.size
    kinv = inverse_jacobian_rows(c)
    kcols = [[(aa, kinv[aa][i]) for aa in range(size) if kinv[aa][i].terms]
             for i in range(size)]
    jrows = [[(d, jf) for d, jf in enumerate(row) if jf.terms]
             for row in jacobian_rows(c)]
    inner = []
    for (k, i, j), comp in a.comps.items():
        for aa, ki in kcols[i]:
            for bb, kj in kcols[j]:
                prod = ki * kj
                if dim.parity(i) * (dim.parity(j) + dim.parity(bb)) % 2:
                    prod = -prod
                inner.append(((aa, bb, k), prod * comp))
    out = keyed_sums([((d, aa, bb), val * jf)
                      for (aa, bb, k), val in keyed_sums(inner).items()
                      for d, jf in jrows[k]])
    return {key: out[key] for key in sorted(out)}


def product_of_term_pairs(count):
    """Expression text over 4|0 whose one product multiplies two sums of
    distinct monomials in disjoint variables, x1^i*x2^j and x3^k*x4^l
    (i, j, k, l <= 16), with exactly `count` term pairs, all distinct."""
    p, q = next((p, count // p) for p in range(1, 290)
                if count % p == 0 and count // p <= 289)

    def monomial_sum(size, x, y):
        return " + ".join([f"{x}^{i}*{y}^{j}" for i in range(17)
                           for j in range(17)][:size])

    return f"({monomial_sum(p, 'x1', 'x2')})*({monomial_sum(q, 'x3', 'x4')})"


# ---------------------------------------------------------------------------
# expression trees: a reference evaluator for the parser
# ---------------------------------------------------------------------------
# A tree is ("num", k), ("name", s), ("neg", t), ("pow", t, e) or
# (op, a, b) for op in "+-*/".  `render_tree` prints it in the grammar with
# the fewest parentheses; `evaluate_tree` builds every atom as a
# SuperFunction with the validating constructor and applies + - * / ** in
# the parser's order, refusing what the parser refuses (`TreeRefused`).

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "pow": 4,
               "num": 5, "name": 5}


class TreeRefused(Exception):
    """The parser's message for a division or negative power it refuses."""


def render_tree(tree) -> str:
    def wrap(child, need):
        text = render_tree(child)
        return f"({text})" if _PRECEDENCE[child[0]] < need else text

    kind = tree[0]
    if kind in ("num", "name"):
        return str(tree[1])
    if kind == "neg":
        return "-" + wrap(tree[1], 3)
    if kind == "pow":
        return f"{wrap(tree[1], 5)}^{tree[2]}"
    level = _PRECEDENCE[kind]
    return f"{wrap(tree[1], level)} {kind} {wrap(tree[2], level + 1)}"


def evaluate_tree(dim, tree) -> SuperFunction:
    kind = tree[0]
    if kind == "num":
        return SuperFunction(dim, {(): tree[1]})
    if kind == "name":
        i = dim.index(tree[1])
        if i < dim.n:
            return SuperFunction(dim, {(): scalar_ring(dim)[1][i]})
        return SuperFunction(dim, {(i - dim.n,): 1})
    if kind == "neg":
        return -evaluate_tree(dim, tree[1])
    if kind == "pow":
        base, e = evaluate_tree(dim, tree[1]), tree[2]
        if e < 0 and not base.is_even_scalar():
            raise TreeRefused("negative power of an expression with odd generators")
        if e < 0 and base.is_zero():
            raise TreeRefused("negative power of zero")
        return base ** e
    a, b = evaluate_tree(dim, tree[1]), evaluate_tree(dim, tree[2])
    if kind == "/":
        if not b.is_even_scalar():
            raise TreeRefused("division by an expression with odd generators")
        if b.is_zero():
            raise TreeRefused("division by zero")
        return a / b
    return {"+": a.__add__, "-": a.__sub__, "*": a.__mul__}[kind](b)
