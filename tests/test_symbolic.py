from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta2.symbolic import (
    GradedPoly,
    HilbertSeries,
    ModuleElement,
    clear_denominator,
    element_from_text,
    element_to_text,
    graded_dimension,
    monomial_divide,
    poly_from_text,
    poly_to_text,
)


def poly_strategy(nvars=3, max_terms=4, max_exp=3):
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    exps = st.tuples(*[st.integers(0, max_exp)] * nvars)
    return st.dictionaries(exps, coeff, max_size=max_terms).map(
        lambda d: GradedPoly(nvars, d))


def test_multiplicative_identity():
    p = GradedPoly(2, {(1, 2): Fraction(3), (0, 0): Fraction(-1, 2)})
    one = GradedPoly.constant(2, 1)
    assert p * one == p


def test_monomial_product():
    t1sq = GradedPoly.monomial(10, (2,) + (0,) * 9)
    prod = t1sq * t1sq
    assert prod == GradedPoly.monomial(10, (4,) + (0,) * 9)


def test_quartic_difference_term_count():
    p = GradedPoly.zero(10)
    for label, sign in ((7, 1), (8, -1), (9, -1), (10, 1)):
        e = [0] * 10
        e[label - 1] = 4
        p = p + GradedPoly.monomial(10, e, sign)
    assert len(p.terms) == 4
    assert p.is_homogeneous() and p.degree() == 4


def test_variable_count_mismatch_raises():
    with pytest.raises(ValueError):
        GradedPoly.variable(2, 0) + GradedPoly.variable(3, 0)


@pytest.mark.parametrize("k,d,expected", [(10, 0, 1), (10, 2, 55), (10, 4, 715)])
def test_graded_dimension_values(k, d, expected):
    assert graded_dimension(k, d) == expected


def test_graded_dimension_against_enumeration():
    for k, d in [(3, 4), (4, 3), (2, 6)]:
        count = sum(1 for _ in combinations_with_replacement(range(k), d))
        assert graded_dimension(k, d) == count


@given(poly_strategy(), poly_strategy(), poly_strategy())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + q == q + p


def _sympy_expr(p):
    import sympy as sp

    xs = sp.symbols(f"x0:{p.nvars}")
    return sp.Add(*(sp.Rational(c.numerator, c.denominator)
                    * sp.Mul(*(x**e for x, e in zip(xs, exps)))
                    for exps, c in p.terms.items()))


@given(poly_strategy(), poly_strategy())
@settings(max_examples=60, deadline=None)
def test_product_matches_sympy_expand(p, q):
    import sympy as sp

    assert sp.expand(_sympy_expr(p) * _sympy_expr(q) - _sympy_expr(p * q)) == 0


def test_homogeneous_multiplication_degree():
    p = GradedPoly(3, {(1, 1, 0): Fraction(2), (0, 0, 2): Fraction(-1)})
    q = GradedPoly(3, {(3, 0, 0): Fraction(1), (1, 1, 1): Fraction(5)})
    assert p.is_homogeneous() and q.is_homogeneous()
    assert (p * q).degree() == p.degree() + q.degree()
    assert (p * q).is_homogeneous()


def test_module_element_shifted_degree():
    p = GradedPoly.monomial(4, (2, 0, 0, 0))
    e = ModuleElement((p, GradedPoly.zero(4)), (1, 1))
    assert e.degree() == 3
    mixed = ModuleElement((p, GradedPoly.monomial(4, (0, 1, 0, 0))), (1, 2))
    assert mixed.is_homogeneous()
    assert mixed.degree() == 3


def test_monomial_divide_literal():
    p = GradedPoly.monomial(10, (1, 1, 0, 0, 1, 0, 0, 0, 0, 0))
    e = ModuleElement((p,) + tuple(GradedPoly.zero(10) for _ in range(5)), (1,) * 6)
    out = monomial_divide(e, (0, 1, 0, 0, 1, 0, 0, 0, 0, 0))
    assert out.denominator is None
    assert out.components[0] == GradedPoly.monomial(10, (1, 0, 0, 0, 0, 0, 0, 0, 0, 0))


def test_monomial_divide_attaches_tag():
    p = GradedPoly.monomial(10, (1, 0, 0, 0, 0, 0, 0, 0, 0, 0))
    e = ModuleElement((p,) + tuple(GradedPoly.zero(10) for _ in range(5)), (1,) * 6)
    out = monomial_divide(e, (0, 1, 0, 0, 1, 0, 0, 0, 0, 0))
    assert out.denominator == (0, 1, 0, 0, 1, 0, 0, 0, 0, 0)
    assert out.degree() == 0
    again = monomial_divide(out, (0, 1, 0, 0, 0, 0, 0, 0, 0, 0))
    assert again.denominator == (0, 2, 0, 0, 1, 0, 0, 0, 0, 0)


def test_monomial_divide_zero():
    e = ModuleElement.zero(10, 6)
    out = monomial_divide(e, (1,) * 10)
    assert out.is_zero() and out.denominator is None


def test_clear_denominator_roundtrip():
    p = GradedPoly.monomial(10, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0))
    e = ModuleElement((p,) + tuple(GradedPoly.zero(10) for _ in range(5)), (1,) * 6)
    tagged = monomial_divide(e, (0, 1, 0, 0, 1, 0, 0, 0, 0, 0))
    cleared = clear_denominator(tagged, (1,) * 10)
    # multiplying by the full product cancels the two tagged variables
    expect = p.mul_monomial((1, 0, 1, 1, 0, 1, 1, 1, 1, 1))
    assert cleared.components[0] == expect


@given(poly_strategy(nvars=4))
@settings(max_examples=80, deadline=None)
def test_poly_text_roundtrip(p):
    text = poly_to_text(p)
    assert poly_from_text(text, 4) == p


def test_poly_text_specific_forms():
    p = poly_from_text("1*t1^2*t3 - 1*t2^4 + 3/2*t10", 10)
    assert p.terms[(2, 0, 1, 0, 0, 0, 0, 0, 0, 0)] == 1
    assert p.terms[(0, 4, 0, 0, 0, 0, 0, 0, 0, 0)] == -1
    assert p.terms[(0, 0, 0, 0, 0, 0, 0, 0, 0, 1)] == Fraction(3, 2)
    assert poly_from_text(poly_to_text(p), 10) == p
    assert poly_from_text("0", 10).is_zero()


def test_element_text_roundtrip_with_denominator():
    comps = (GradedPoly.monomial(4, (1, 0, 0, 0)), GradedPoly.zero(4),
             GradedPoly.monomial(4, (0, 0, 1, 1), -2), GradedPoly.zero(4))
    e = ModuleElement(comps, (1, 1, 1, 1), (0, 1, 0, 0))
    text = element_to_text(e)
    back = element_from_text(text, 4, 4)
    assert back.components == e.components
    assert back.denominator == e.denominator


def test_hilbert_series_expand_free_module():
    hs = HilbertSeries((1,), 4)
    assert hs.expand(5) == [1, 4, 10, 20, 35, 56]


def test_hilbert_series_arithmetic_and_reduction():
    a = HilbertSeries((1,), 4)           # 1/(1-t)^4
    b = HilbertSeries((0, 1), 4)         # t/(1-t)^4
    diff = a - b                          # (1-t)/(1-t)^4 = 1/(1-t)^3
    assert diff.reduced() == HilbertSeries((1,), 3)
    assert diff.same_rational_function(HilbertSeries((1,), 3))
    assert not diff.same_rational_function(a)


def test_hilbert_series_shift_fold():
    s = HilbertSeries((0, 0, 3), 2, -2)
    assert s.reduced() == HilbertSeries((3,), 2, 0)
    assert s.expand(3) == [3, 6, 9, 12]


def test_hilbert_series_text():
    s = HilbertSeries((0, 6, 36), 4)
    assert s.to_text() == "(6*t + 36*t^2) / (1-t)^4"
