import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decksym.expr import (
    ParseError,
    Polynomial,
    RationalFunction,
    format_complex,
    format_polynomial,
    format_rational,
    jacobian,
    mono_key,
    monomials_up_to_degree,
    parse_complex,
    parse_deck_formulas,
    parse_expression,
    parse_seed_pair,
    parse_system,
)

EX41 = "unknowns x; parameters p; equations x^2 + p*x + 1;"
EX42 = "unknowns x, y; parameters p; equations x^2 + x + p; x + y + p;"


def poly(text, names):
    rf = parse_expression(text, names)
    assert rf.is_polynomial
    return rf.numerator


def test_parse_ex41():
    s = parse_system(EX41)
    assert s.unknowns == ("x",)
    assert s.parameters == ("p",)
    assert len(s.equations) == 1
    assert s.equations[0].support() == ((2, 0), (1, 1), (0, 0))


def test_parse_ex42():
    s = parse_system(EX42)
    assert s.n == 2
    assert s.m == 1
    assert len(s.equations) == 2


def test_parse_zero_equation_rejected():
    with pytest.raises(ParseError, match="zero equation"):
        parse_system("unknowns x; parameters p; equations x - x;")


def test_parse_undeclared_variable():
    with pytest.raises(ParseError, match="undeclared"):
        parse_system("unknowns x; parameters p; equations x + q;")


def test_parse_non_square():
    with pytest.raises(ParseError, match="square"):
        parse_system("unknowns x, y; parameters p; equations x + p;")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_system("unknowns x; parameters p;\nequations x + $;")
    assert err.value.line == 2


def test_parse_patch_section():
    s = parse_system(
        "unknowns x, y; parameters p; equations x^2 + p; patch 2*y - 1;"
    )
    assert s.patch_indices == (1,)
    assert len(s.structural_equations()) == 1


def test_parse_comments_and_rationals():
    s = parse_system(
        """# comment line
        unknowns x; parameters p;
        equations 3/4*x^2 + p*x - 1/2;  # trailing comment
        """
    )
    c = dict((e, v) for e, v in s.equations[0].terms)
    from fractions import Fraction

    assert c[(2, 0)] == (Fraction(3, 4), Fraction(0))
    assert c[(0, 0)] == (Fraction(-1, 2), Fraction(0))


def test_evaluate_hand_computed():
    s = parse_system(EX41)
    assert s.equations[0].evaluate([2.0, -2.5]) == pytest.approx(0.0)


def test_evaluate_all_ones_is_coefficient_sum():
    p = poly("2*x^3 - 5*x*y + 7", ["x", "y"])
    assert p.evaluate([1.0, 1.0]) == pytest.approx(2 - 5 + 7)


def test_evaluate_constant():
    p = Polynomial.constant(3, 1.0)
    assert p.evaluate([9.0, 2.0, 5.0]) == 1.0


def test_canonicalization_idempotent_and_merging():
    p = Polynomial(2, [((1, 0), 2.0), ((1, 0), 3.0), ((0, 0), 0.0)])
    q = Polynomial(2, list(p.terms))
    assert p == q
    assert len(p.terms) == 1
    assert p.terms[0][1] == 5.0


def test_product_evaluation_property():
    rng = np.random.default_rng(7)
    names = ["x", "y", "z"]
    for _ in range(25):
        p = _random_poly(rng, 3, max_degree=3)
        q = _random_poly(rng, 3, max_degree=3)
        pt = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        lhs = (p * q).evaluate(pt)
        rhs = p.evaluate(pt) * q.evaluate(pt)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def _random_poly(rng, nvars, max_degree):
    terms = []
    for _ in range(rng.integers(1, 6)):
        exp = tuple(int(x) for x in rng.integers(0, max_degree + 1, nvars))
        num = int(rng.integers(-9, 10))
        den = int(rng.integers(1, 5))
        from fractions import Fraction

        terms.append((exp, (Fraction(num, den), Fraction(0))))
    return Polynomial(nvars, terms)


def test_jacobian_power_rule():
    s = parse_system(EX41)
    jac = jacobian(s)
    assert format_polynomial(jac[0][0], s.names) == "2*x + p"


def test_jacobian_ex42():
    s = parse_system(EX42)
    jac = jacobian(s)
    rows = [[format_polynomial(p, s.names) for p in row] for row in jac]
    assert rows == [["2*x + 1", "0"], ["1", "1"]]


def test_jacobian_of_parameter_only_is_zero():
    p = poly("p^2 + 3*p", ["x", "p"])
    assert p.differentiate(0).is_zero


def test_monomials_counts_and_order():
    monos = monomials_up_to_degree(2, 1, 1, parameter_dependent=True)
    assert monos == [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert len(monos) == 4


def test_monomials_param_independent_count():
    monos = monomials_up_to_degree(22, 30, 3, parameter_dependent=False)
    assert len(monos) == math.comb(25, 3) == 2300
    assert all(all(e == 0 for e in mono[22:]) for mono in monos)


def test_monomials_degree_zero():
    assert monomials_up_to_degree(3, 2, 0, True) == [(0, 0, 0, 0, 0)]


def test_monomial_count_matches_binomial_property():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(0, 4))
        d = int(rng.integers(0, 4))
        dep = bool(rng.integers(0, 2))
        monos = monomials_up_to_degree(n, m, d, dep)
        active = n + m if dep else n
        assert len(monos) == math.comb(active + d, d)
        assert monos == sorted(monos, key=mono_key)


def test_format_one_over_x():
    x = Polynomial.variable(2, 0)
    one = Polynomial.constant(2, 1)
    assert format_rational(RationalFunction(one, x), ["x", "p"]) == "1/x"


def test_format_negative_polynomial():
    rf = parse_expression("-x - 1", ["x", "y", "p"])
    assert format_rational(rf, ["x", "y", "p"]) == "-x - 1"


def test_format_zero():
    rf = RationalFunction(Polynomial.zero(1), Polynomial.constant(1, 1))
    assert format_rational(rf, ["x"]) == "0"


def test_format_roundtrip():
    names = ["x", "y", "p"]
    cases = ["1/x", "-x - 1", "(x + y)/(y + p)", "3/4*x^2 - 2*y + 1/2", "x^2*y/(2*p)"]
    for text in cases:
        rf = parse_expression(text, names)
        again = parse_expression(format_rational(rf, names), names)
        diff = rf.numerator * again.denominator - again.numerator * rf.denominator
        assert diff.is_zero, text


@st.composite
def exact_polynomials(draw, nvars=3):
    small = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    coeff = st.tuples(small, small | st.just(Fraction(0)))
    exponent = st.tuples(*[st.integers(0, 3)] * nvars)
    return Polynomial(nvars, draw(st.lists(st.tuples(exponent, coeff), max_size=4)))


@settings(max_examples=300, deadline=None)
@given(exact_polynomials(), exact_polynomials().filter(lambda q: not q.is_zero))
def test_format_parse_round_trip_property(num, den):
    names = ["x", "y", "p"]
    rf = RationalFunction(num, den)
    again = parse_expression(format_rational(rf, names), names)
    diff = rf.numerator * again.denominator - again.numerator * rf.denominator
    assert diff.is_zero


def exact_poly(nvars, terms):
    """A polynomial from (exponent, real or (real, imag)) pairs of exact values."""
    def coeff(c):
        re_, im = c if isinstance(c, tuple) else (c, 0)
        return (Fraction(re_), Fraction(im))

    return Polynomial(nvars, [(e, coeff(c)) for e, c in terms])


def test_long_mixed_sum_against_hand_built_polynomial():
    """A sum collects its terms into one polynomial: signs, rational and
    imaginary literals, cancelling terms and parenthesized sub-sums."""
    names = ["x", "y", "p"]
    rf = parse_expression(
        "-x + 3*x^2 - 1/2*x*y + 2 - x^2 + i*p - 3/4 + y - y + 5*x*y*p"
        " + (x + y)^2 - (x - y)^2 + x - 7/4*i*p",
        names,
    )
    expected = exact_poly(3, [
        ((2, 0, 0), 2),
        ((1, 1, 0), Fraction(7, 2)),
        ((1, 1, 1), 5),
        ((0, 0, 1), (0, Fraction(-3, 4))),
        ((0, 0, 0), Fraction(5, 4)),
    ])
    assert rf.is_polynomial
    assert rf.numerator == expected
    assert rf.numerator.terms == expected.terms


def test_sum_with_non_constant_denominators_against_hand_built_values():
    names = ["x", "y"]
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    one = Polynomial.constant(2, (Fraction(1), Fraction(0)))
    cases = (
        ("1/x + 1/y", x + y, x * y),
        ("1/x + 1/x", exact_poly(2, [((0, 0), 2)]), x),
        ("1/x + 2 + 3", one + exact_poly(2, [((1, 0), 5)]), x),
        ("x/y - 1/y + 1", x - one + y, y),
    )
    for text, num, den in cases:
        rf = parse_expression(text, names)
        assert (rf.numerator, rf.denominator) == (num, den), text


def test_constant_denominator_folds():
    rf = parse_expression("(x + 1)/2", ["x"])
    assert rf.is_polynomial
    assert format_rational(rf, ["x"]) == "1/2*x + 1/2"


def test_imaginary_unit_literal():
    rf = parse_expression("i^2 + 1", ["x"])
    assert rf.numerator.is_zero


def test_imaginary_shadowed_by_variable():
    rf = parse_expression("i + 1", ["i"])
    assert rf.numerator.support() == ((1,), (0,))


def test_complex_literals_roundtrip():
    for z in [1 + 2j, -0.5j, 3.0 + 0j, -2.25 - 1e-3j]:
        assert parse_complex(format_complex(z)) == z
    assert parse_complex("2i") == 2j
    assert parse_complex("-i") == -1j
    assert parse_complex("1e-3+2e-4i") == complex(1e-3, 2e-4)


def test_seed_pair_roundtrip():
    from decksym.expr import format_seed_pair

    x = np.array([1 + 2j, -0.5j])
    p = np.array([3.25 + 0j])
    x2, p2 = parse_seed_pair(format_seed_pair(x, p))
    assert np.allclose(x, x2) and np.allclose(p, p2)


def test_deck_formula_file():
    s = parse_system(EX42)
    formulas = parse_deck_formulas("# deck\nx = -x - 1\ny = 1 - y - 2*p\n", s)
    assert set(formulas) == {"x", "y"}
    with pytest.raises(ParseError, match="not an unknown"):
        parse_deck_formulas("p = 1\n", s)


@pytest.mark.parametrize(
    "text, line, col",
    [("x = -x - 1\ny = 1 - y - 2*q\n", 2, 15), ("x = -x - 1\n  y  =  1 - y - 2*q\n", 2, 19)],
    ids=["plain", "indented"],
)
def test_deck_formula_error_reports_its_file_position(text, line, col):
    """An error inside a formula is reported at its line and column in the
    file, not at column 1 with a column counted from the right-hand side."""
    with pytest.raises(ParseError) as err:
        parse_deck_formulas(text, parse_system(EX42))
    assert (err.value.line, err.value.col) == (line, col)
    assert str(err.value) == f"line {line}, column {col}: in formula for y: undeclared variable 'q'"
