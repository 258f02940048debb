import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superproj.errors import ParseError
from superproj.expressions import (
    GRAMMAR_HELP,
    MAX_BITS,
    MAX_EXPONENT,
    MAX_TERMS,
    _bits,
    _terms,
    format_super,
    parse_expression,
)
from superproj.graded_algebra import Dimension, SuperFunction, numer_denom

from helpers import (
    TreeRefused,
    evaluate_tree,
    product_of_term_pairs,
    rand_super,
    render_tree,
)

D = Dimension.of(2, 2)


def test_literals_and_rationals():
    assert parse_expression(D, "3/4") == SuperFunction.constant(D, 3).scale(
        __import__("fractions").Fraction(1, 4))
    assert parse_expression(D, "0").is_zero()


def test_power_and_precedence():
    assert parse_expression(D, "2*x1^2 + 1") == parse_expression(D, "1 + x1*x1*2")
    assert parse_expression(D, "-x1^2") == -parse_expression(D, "x1^2")
    assert parse_expression(D, "(x1 + 1)^3") == parse_expression(
        D, "x1^3 + 3*x1^2 + 3*x1 + 1")


def test_negative_power_of_even():
    assert parse_expression(D, "x1^-1") == parse_expression(D, "1/x1")


def test_division_by_odd_rejected():
    with pytest.raises(ParseError):
        parse_expression(D, "1/th1")
    with pytest.raises(ParseError):
        parse_expression(D, "x1/(x1 + th1*th2)")


def test_unknown_name_has_position():
    with pytest.raises(ParseError) as err:
        parse_expression(D, "x1 + bogus")
    assert err.value.line == 1
    assert err.value.column == 5


@pytest.mark.parametrize("text, plain", [
    ("x1 ", "x1"), ("x1\t", "x1"), (" x1 \n", "x1"), ("x1 +\r\n x2 ", "x1 + x2"),
])
def test_trailing_whitespace_accepted(text, plain):
    assert parse_expression(D, text) == parse_expression(D, plain)


@pytest.mark.parametrize("text, line, column", [
    ("x1 + \nx9", 2, 0),
    ("x1 +\nx9", 2, 0),
    ("x1 +\t\n\n  x9", 3, 2),
    ("x1 + \r\n x9", 2, 1),
])
def test_every_newline_counts(text, line, column):
    with pytest.raises(ParseError) as err:
        parse_expression(D, text)
    assert "unknown coordinate 'x9'" in str(err.value)
    assert (err.value.line, err.value.column) == (line, column)


@pytest.mark.parametrize("text, char, column", [
    ("x1^\u0662", "\u0662", 3),  # ARABIC-INDIC DIGIT TWO
    ("\U0001d7d3*x2", "\U0001d7d3", 0),  # MATHEMATICAL BOLD DIGIT FIVE
])
def test_only_ascii_digits(text, char, column):
    with pytest.raises(ParseError) as err:
        parse_expression(D, text)
    assert f"unexpected character {char!r}" in str(err.value)
    assert (err.value.line, err.value.column) == (1, column)


def test_exponent_limit():
    x1 = parse_expression(D, "x1")
    assert parse_expression(D, f"x1^{MAX_EXPONENT}") == x1 ** MAX_EXPONENT
    assert parse_expression(D, f"x1^-{MAX_EXPONENT}") == parse_expression(
        D, f"1/x1^{MAX_EXPONENT}")
    for text in (f"x1^{MAX_EXPONENT + 1}", f"2 + x1^-{MAX_EXPONENT + 1}"):
        with pytest.raises(ParseError) as err:
            parse_expression(D, text)
        assert err.value.line == 1
        assert err.value.column == len(text) - len(str(MAX_EXPONENT + 1))


@pytest.mark.parametrize("bound", [MAX_TERMS, MAX_TERMS + 1])
def test_term_limit_of_a_product(bound):
    four = Dimension.of(4, 0)
    text = product_of_term_pairs(bound)
    if bound <= MAX_TERMS:
        assert len(parse_expression(four, text).terms[()]) == bound
        return
    with pytest.raises(ParseError) as err:
        parse_expression(four, text)
    assert err.value.column == text.index(")*(") + 1
    assert f"up to {bound} terms, over the limit {MAX_TERMS}" in str(err.value)


def test_term_limit_of_a_power():
    six = Dimension.of(6, 0)
    text = "(x1 + x2 + x3 + x4 + x5 + x6)^{}"
    assert len(parse_expression(six, text.format(13)).terms[()]) == 8568
    with pytest.raises(ParseError, match="up to 11628 terms"):  # C(19, 14)
        parse_expression(six, text.format(14))
    # the bound comes before the work: 10^22 terms, refused at once
    with pytest.raises(ParseError) as err:
        parse_expression(Dimension.of(2, 0), "(((x1+x2+1)^16)^16)^16")
    assert err.value.column == 15


# 2^65536 (65,537 bits), and 2^65535 (65,536 bits)
TWO_65536 = "(((2^16)^16)^16)^16"
TWO_65535 = f"({TWO_65536}/2)"


def test_bit_limit_of_a_power():
    one = Dimension.of(1, 0)
    assert MAX_BITS == 2 ** 20
    assert parse_expression(one, TWO_65536) == SuperFunction.constant(one, 2 ** 65536)
    # bound 16 * 65,536 = MAX_BITS: computed
    assert parse_expression(one, TWO_65535 + "^16") == SuperFunction.constant(
        one, 2 ** (16 * 65535))
    # bound 16 * 65,537 = MAX_BITS + 16: refused at the fifth '^'
    text = f"({TWO_65536})^16"
    with pytest.raises(ParseError) as err:
        parse_expression(one, text)
    assert err.value.column == len(text) - 3
    assert f"up to {MAX_BITS + 16} bits, over the limit {MAX_BITS}" in str(err.value)


@pytest.mark.parametrize("factor, bound", [
    (2 ** 12, MAX_BITS - 2),  # 1,048,561 + 13 bits
    (2 ** 16, MAX_BITS + 2),  # 1,048,561 + 17 bits
])
def test_bit_limit_of_a_product(factor, bound):
    one = Dimension.of(1, 0)
    text = f"{TWO_65535}^16*{factor}"
    if bound <= MAX_BITS:
        assert parse_expression(one, text) == SuperFunction.constant(
            one, 2 ** (16 * 65535) * factor)
        return
    with pytest.raises(ParseError) as err:
        parse_expression(one, text)
    assert err.value.column == text.index("*")
    assert f"up to {bound} bits, over the limit {MAX_BITS}" in str(err.value)


def test_power_by_squaring_matches_repeated_products():
    f = parse_expression(D, "x1 + 2*x2*th1 - th1*th2/3 + 1")
    acc = SuperFunction.one(D)
    for k in range(10):
        assert f ** k == acc
        acc = acc * f


def test_unbalanced_parens():
    with pytest.raises(ParseError):
        parse_expression(D, "(x1 + 1")


def test_division_by_zero_rejected():
    with pytest.raises(ParseError):
        parse_expression(D, "x1/(x2 - x2)")


def test_printing_examples():
    f = parse_expression(D, "x1^2 + x1*th1*th2")
    assert format_super(f) == "x1^2 + x1*th1*th2"
    assert format_super(SuperFunction.zero(D)) == "0"
    g = parse_expression(D, "(x1+x2)/(x1*x2)*th1")
    assert parse_expression(D, format_super(g)) == g


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_roundtrip_random(seed):
    f = rand_super(random.Random(seed), D, deg=2)
    assert parse_expression(D, format_super(f)) == f


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_roundtrip_with_denominators(seed):
    rng = random.Random(seed)
    f = rand_super(rng, D, deg=2)
    den = rand_super(rng, D, 0, deg=1)
    if den.is_even_scalar() and not den.is_zero():
        g = f * den.invert()
        assert parse_expression(D, format_super(g)) == g


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_bounds_read_from_coefficients_match_numer_denom(seed):
    # the bounds read len and bit_length straight from Poly and Frac; they
    # equal the formula over the numer_denom pairs
    rng = random.Random(seed)
    f = rand_super(rng, D, deg=2).scale(Fraction(rng.randint(1, 10**9),
                                                 rng.randint(1, 10**12)))
    den = rand_super(rng, D, 0, deg=1)
    if den.is_even_scalar() and not den.is_zero() and rng.random() < 0.7:
        f = f * den.invert()
    pairs = [numer_denom(c) for c in f.terms.values()]
    assert _terms(f) == sum(max(len(p) for p in pair) for pair in pairs)
    assert _bits(f) == max((abs(c).bit_length() for pair in pairs
                            for p in pair for c in p.num.values()), default=0)


def test_grammar_help_mentions_names():
    assert "x1..xn" in GRAMMAR_HELP and "th1..thm" in GRAMMAR_HELP
    assert f"{MAX_BITS} bits" in GRAMMAR_HELP


# ---------------------------------------------------------------------------
# the parser against a reference evaluator over SuperFunction atoms
# ---------------------------------------------------------------------------

_NUMS = st.integers(min_value=0, max_value=12).map(lambda k: ("num", k))
_EVEN = st.recursive(
    _NUMS | st.sampled_from(["x1", "x2"]).map(lambda s: ("name", s)),
    lambda sub: st.tuples(st.sampled_from("+-*"), sub, sub), max_leaves=3)


def _trees(leaves):
    atoms = _NUMS | st.sampled_from(D.names).map(lambda s: ("name", s))

    def extend(sub):
        return (st.tuples(st.sampled_from("+-*/"), sub, sub)
                | st.tuples(st.just("/"), sub, _EVEN)  # an even divisor
                | st.tuples(st.just("neg"), sub)
                | st.tuples(st.just("pow"), sub, st.integers(-2, 3)))

    return st.recursive(atoms, extend, max_leaves=leaves)


_CONSTANT = st.recursive(_NUMS, lambda sub: (
    st.tuples(st.sampled_from("+-*/"), sub, sub)
    | st.tuples(st.just("neg"), sub)
    | st.tuples(st.just("pow"), sub, st.integers(-3, 3))), max_leaves=6)


def _parses_like_the_reference(tree):
    text = render_tree(tree)
    try:
        want = evaluate_tree(D, tree)
    except TreeRefused as refused:
        with pytest.raises(ParseError, match=re.escape(str(refused))):
            parse_expression(D, text)
        return
    got = parse_expression(D, text)
    assert got == want and got.dim is D, text


@settings(max_examples=150, deadline=None)
@given(_trees(7))
def test_parser_matches_reference_evaluator(tree):
    _parses_like_the_reference(tree)


@settings(max_examples=100, deadline=None)
@given(_CONSTANT, _trees(3))
def test_folded_constants_meet_functions_like_the_reference(const, tree):
    # a constant-only subtree next to a function, on either side of each op
    for op in "+-*/":
        _parses_like_the_reference((op, const, tree))
        _parses_like_the_reference((op, tree, const))
    _parses_like_the_reference(("neg", ("neg", ("neg", const))))


_T4 = "((((2)^16)^16)^16)^16"  # 2^65536, 65,537 bits


@pytest.mark.parametrize("text, message, column", [
    (f"({_T4})^16", "'^' may give integers of up to 1048592 bits, over the "
     "limit 1048576", 23),
    (f"({_T4})^-16", "'^' may give integers of up to 1048592 bits, over the "
     "limit 1048576", 23),
    ("((x1+x2+1)^16)^16", "'^' may give up to 9206887338937200407418 terms, "
     "over the limit 10000", 14),
    ("1/0", "division by zero", 1),
    ("1/(1-1)", "division by zero", 1),
    ("0/0", "division by zero", 1),
    ("1/(th1*th1)", "division by zero", 1),
    ("x1/(x2-x2)", "division by zero", 2),
    ("2*x1/0*th1", "division by zero", 4),
    ("0*th1/0", "division by zero", 5),
    ("1/(x1-x1)^2", "division by zero", 1),
    ("x1/th1", "division by an expression with odd generators", 2),
    ("0^-1", "negative power of zero", 1),
    ("(1-1)^-2", "negative power of zero", 5),
    ("1/(2-2)^-1", "negative power of zero", 7),
    ("3*(2-2)^-1", "negative power of zero", 7),
    ("th1^-1", "negative power of an expression with odd generators", 3),
    ("(th1*th2)^-1", "negative power of an expression with odd generators", 9),
    ("x1^17", "exponent 17 exceeds the limit 16", 3),
    ("x1^-17", "exponent 17 exceeds the limit 16", 4),
    ("x1^x2", "exponent must be an integer literal", 3),
    ("x1^(2)", "exponent must be an integer literal", 3),
    ("x1^-", "exponent must be an integer literal", 4),
    ("(x1", "expected ')'", 3),
    ("x1)", "trailing input ')'", 2),
    ("x1 x2", "trailing input 'x2'", 3),
    ("x1 2", "trailing input 2", 3),
    ("x1 +", "unexpected token ''", 4),
    ("x1 + 1/", "unexpected token ''", 7),
    ("", "unexpected token ''", 0),
    ("-", "unexpected token ''", 1),
    ("()", "unexpected token ')'", 1),
    ("*x1", "unexpected token '*'", 0),
    ("x9", "unknown coordinate 'x9'", 0),
    ("2 $", "unexpected character '$'", 2),
])
def test_refusals_keep_message_and_place(text, message, column):
    with pytest.raises(ParseError) as err:
        parse_expression(D, text)
    assert str(err.value) == f"{message} (line 1, column {column})"
    assert (err.value.line, err.value.column) == (1, column)


@pytest.mark.parametrize("text, value", [
    (_T4, 2 ** 65536),
    (f"{_T4}*{_T4}", 2 ** 131072),
    ("0^0", 1),
    ("x1^-0", 1),
    ("2^-2", Fraction(1, 4)),
    ("2/3/4/(1/2)", Fraction(1, 3)),
    ("-(-2)^-3*-(3-4)", Fraction(1, 8)),
], ids=["2^65536", "2^131072", "0^0", "x1^-0", "2^-2", "quotients", "signs"])
def test_accepted_constants(text, value):
    assert parse_expression(D, text) == SuperFunction.constant(D, value)
