"""Dense univariate polynomial arithmetic over field handles."""

import pytest
from hypothesis import given, strategies as st

from fieldsep.basefields import (FieldElement, PrimeField,
                                 RationalFunctionField)
from fieldsep.errors import FieldMismatchError
from fieldsep.poly import Poly, format_poly, poly_gcd, poly_pow_mod

F5 = PrimeField(5)


def polys(field, max_deg=5):
    return st.lists(st.integers(0, field.characteristic - 1),
                    max_size=max_deg + 1).map(
        lambda c: Poly(field, [field.element(v) for v in c]))


def test_construction_trims_and_queries():
    f = Poly(F5, [F5.element(1), F5.element(2), F5.zero, F5.zero])
    assert f.degree == 1
    assert f.coefficient(0) == F5.one
    assert f.coefficient(7).is_zero()  # out of range reads as zero
    assert Poly.zero(F5).is_zero()
    assert Poly.x(F5).degree == 1
    assert Poly.constant(F5.element(3)).is_constant()


@given(polys(F5), polys(F5), polys(F5))
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h
    assert f + (-f) == Poly.zero(F5)
    assert (f - g) + g == f


@given(polys(F5, 6), polys(F5, 3))
def test_divmod_invariant(f, g):
    if g.is_zero():
        with pytest.raises(ZeroDivisionError):
            f.divmod(g)
        return
    q, r = f.divmod(g)
    assert q * g + r == f
    assert r.degree < g.degree


def test_division_of_a_lower_degree_dividend_inverts_nothing(monkeypatch):
    # a dividend of lower degree than the divisor is its own remainder: no
    # inverse of the divisor's leading coefficient is taken
    F = PrimeField(5)
    inverted = []
    inv = F._inv
    monkeypatch.setattr(F, "_inv", lambda a: inverted.append(a) or inv(a))
    g = Poly(F, [1, 2, 0, 3])              # 3x^3 + 2x + 1, not monic
    for f in (Poly.zero(F), Poly(F, [4]), Poly(F, [1, 1, 2])):
        q, r = f.divmod(g)
        assert q.is_zero() and r == f
    assert inverted == []


@given(polys(F5, 4), st.integers(1, 4))
def test_monic_division_fast_path_agrees(f, k):
    # a monic divisor and its scaled copy must give consistent results
    g = (Poly.x(F5) + Poly.one(F5)) ** k
    assert g.is_monic()
    q, r = f.divmod(g)
    g2 = g.scale(F5.element(3))
    q2, r2 = f.divmod(g2)
    assert q2 * g2 + r2 == f
    assert r2 == r  # the remainder is independent of the unit


@pytest.mark.parametrize("kind", ["Poly", "FieldElement"])
def test_power_makes_no_spare_product(monkeypatch, kind):
    """x^n takes one product per bit of n past the top one and one per
    further set bit: 0, 1, 2 and 3 products for n = 1, 2, 3 and 8."""
    cls = Poly if kind == "Poly" else FieldElement
    x = Poly.x(F5) + Poly.one(F5) if kind == "Poly" else F5.element(2)
    mul, products = cls.__mul__, []

    def counted(self, other):
        products.append(other)
        return mul(self, other)

    monkeypatch.setattr(cls, "__mul__", counted)
    for n, want in [(1, 0), (2, 1), (3, 2), (8, 3)]:
        products.clear()
        power = x ** n
        assert len(products) == want
        expected = x
        for _ in range(n - 1):
            expected = mul(expected, x)
        assert power == expected
    assert x ** 0 == (Poly.one(F5) if kind == "Poly" else F5.one)


def test_power_and_substitute():
    x = Poly.x(F5)
    f = x + Poly.one(F5)
    assert f ** 0 == Poly.one(F5)
    assert f ** 3 == f * f * f
    g = f.substitute_power(2)
    assert g == x * x + Poly.one(F5)


def test_formal_derivative_char_p():
    F2 = PrimeField(2)
    x = Poly.x(F2)
    assert (x ** 2).formal_derivative().is_zero()
    assert (x ** 3).formal_derivative() == x ** 2
    K = RationalFunctionField(3)
    y = Poly.x(K)
    f = y ** 3 + Poly.constant(K.t)
    assert f.formal_derivative().is_zero()


@given(polys(F5, 4), polys(F5, 4), polys(F5, 2))
def test_gcd_properties(f, g, h):
    if f.is_zero() and g.is_zero():
        with pytest.raises(ZeroDivisionError):
            poly_gcd(f, g)
        return
    d = poly_gcd(f, g)
    assert d.is_monic()
    if not f.is_zero():
        assert d.divides(f)
    if not g.is_zero():
        assert d.divides(g)
    if not h.is_zero():
        assert poly_gcd(f * h, g * h).degree >= h.degree


@given(polys(F5, 3), st.integers(0, 20))
def test_pow_mod_matches_direct(f, n):
    m = Poly.x(F5) ** 2 + Poly.one(F5)
    assert poly_pow_mod(f, n, m) == (f ** n) % m


def test_eval_horner():
    K = RationalFunctionField(2)
    t = K.t
    f = Poly(K, [t, K.one, t + 1])  # (t+1)x^2 + x + t
    a = t + 1
    assert f.eval(a) == (t + 1) * a * a + a + t


def test_field_mismatch_detected():
    f = Poly.x(F5)
    g = Poly.x(PrimeField(7))
    with pytest.raises(FieldMismatchError):
        f + g


def test_format_poly():
    f = Poly(F5, [F5.element(3), F5.zero, F5.one])
    assert format_poly(f) == "x^2 + 3"
    assert format_poly(Poly.zero(F5)) == "0"
    K = RationalFunctionField(2)
    g = Poly(K, [K.t, K.one])
    assert repr(g) == "x + t"
