"""Base field arithmetic: F_p, F_p[t] helpers, and F_p(t) fractions."""

import pytest
from hypothesis import given, strategies as st

from fieldsep.basefields import (MAX_PRIME, PrimeField, RatFunc,
                                 RationalFunctionField, _is_prime, ipoly_add, ipoly_deg, ipoly_divmod,
                                 ipoly_from_index, ipoly_gcd, ipoly_mul,
                                 ipoly_neg, ipoly_trim)
from fieldsep.errors import CapabilityError, FieldMismatchError, InputError
from fieldsep.factor import element_pth_root
from fieldsep.towers import iter_elements


def ipolys(p, max_deg=4):
    return st.lists(st.integers(0, p - 1), max_size=max_deg + 1).map(
        lambda c: ipoly_trim(c))


# -- integer-coefficient t-polynomials ---------------------------------------


@given(ipolys(3), ipolys(3), ipolys(3))
def test_ipoly_ring_laws_p3(a, b, c):
    p = 3
    assert ipoly_add(a, b, p) == ipoly_add(b, a, p)
    assert ipoly_mul(a, b, p) == ipoly_mul(b, a, p)
    assert ipoly_mul(a, ipoly_add(b, c, p), p) == \
        ipoly_add(ipoly_mul(a, b, p), ipoly_mul(a, c, p), p)
    assert ipoly_add(ipoly_add(a, b, p), ipoly_neg(b, p), p) == a


@pytest.mark.parametrize("p", [2, 3, 5])
@given(a=st.data())
def test_ipoly_divmod_invariant(p, a):
    f = a.draw(ipolys(p, 6))
    g = a.draw(ipolys(p, 3).filter(lambda c: c))
    q, r = ipoly_divmod(f, g, p)
    assert ipoly_add(ipoly_mul(q, g, p), r, p) == f
    assert ipoly_deg(r) < ipoly_deg(g)


def test_ipoly_divmod_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        ipoly_divmod((1, 1), (), 2)


@given(ipolys(5), ipolys(5))
def test_ipoly_gcd_divides_both(a, b):
    p = 5
    if not a and not b:
        return
    g = ipoly_gcd(a, b, p)
    assert g[-1] == 1  # monic
    for h in (a, b):
        if h:
            assert ipoly_divmod(h, g, p)[1] == ()


def test_ipoly_pth_root():
    # t^2 + 1 = (t + 1)^2 in characteristic 2
    K2 = RationalFunctionField(2)
    assert element_pth_root(K2.element((1, 0, 1))) == K2.element((1, 1))
    assert element_pth_root(K2.t) is None          # t is not a square
    # (t + 1)^3 = t^3 + 1 in characteristic 3
    K3 = RationalFunctionField(3)
    assert element_pth_root(K3.element((1, 0, 0, 1))) == K3.element((1, 1))


def test_ipoly_from_index_enumeration():
    got = [ipoly_from_index(k, 2) for k in range(5)]
    assert got == [(), (1,), (0, 1), (1, 1), (0, 0, 1)]


# -- F_p ----------------------------------------------------------------------


def test_prime_field_rejects_composite():
    with pytest.raises(InputError):
        PrimeField(4)


def test_is_prime_matches_trial_division_and_rejects_pseudoprimes():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    assert all(_is_prime(n) == trial(n) for n in range(3000))
    # strong pseudoprimes to every prime base up to 31, resp. 37
    for n in (3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n)
    assert _is_prime(1000000000000000003) and _is_prime(2 ** 61 - 1)


def test_prime_field_above_the_primality_bound_is_a_capability_error():
    for field in (PrimeField, RationalFunctionField):
        with pytest.raises(CapabilityError):
            field(MAX_PRIME + 2)


def test_prime_field_inverses_exhaustive():
    F = PrimeField(7)
    for a in iter_elements(F):
        if a.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.inverse()
        else:
            assert a * a.inverse() == F.one


def test_prime_field_mismatch():
    a = PrimeField(2).one
    b = PrimeField(3).one
    with pytest.raises(FieldMismatchError):
        a + b


# -- F_p(t) -------------------------------------------------------------------


def ratfuncs(K, max_deg=3):
    p = K.p
    return st.tuples(ipolys(p, max_deg),
                     ipolys(p, max_deg).filter(lambda c: c)).map(
        lambda nd: K.element(K.normalize(nd[0], nd[1])))


K5 = RationalFunctionField(5)


@given(ratfuncs(K5), ratfuncs(K5), ratfuncs(K5))
def test_ratfunc_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == K5.zero
    if not a.is_zero():
        assert a * a.inverse() == K5.one


def test_ratfunc_normalization_is_canonical():
    K = RationalFunctionField(3)
    t = K.t
    # (t^2 - 1)/(t - 1) reduces to t + 1, so equality is structural
    lhs = (t * t - 1) / (t - 1)
    assert lhs == t + 1
    assert lhs.rep.den == (1,)
    # denominator comes out monic
    a = K.element(K.normalize((1,), (0, 2)))  # 1/(2t)
    assert a.rep.den == (0, 1) and a.rep.num == (2,)


@given(ratfuncs(K5), ratfuncs(K5))
def test_ratfunc_polynomial_fast_path_agrees(a, b):
    # route the same values through the general fraction path
    d = K5.t + 1
    a2 = (a * d) / d
    b2 = (b * d) / d
    assert a2 == a and b2 == b
    assert a2 + b2 == a + b
    assert a2 * b2 == a * b


def test_ratfunc_pth_root():
    K2 = RationalFunctionField(2)
    t = K2.t
    assert element_pth_root(t * t) == t
    assert element_pth_root(t) is None
    assert element_pth_root(K2.zero) == K2.zero
    K3 = RationalFunctionField(3)
    u = K3.t
    assert element_pth_root((u + 1) ** 3) == u + 1
    # fractions: (t/(t+1))^3 has the obvious root
    frac = u / (u + 1)
    assert element_pth_root(frac ** 3) == frac


def test_ratfunc_height_and_scalar_stream():
    K = RationalFunctionField(2)
    t = K.t
    assert K.height(K.zero) == 0
    assert K.height(t ** 3 + 1) == 3
    assert K.height(1 / (t ** 2)) == 2
    firsts = [K.scalar_by_index(k) for k in range(4)]
    assert firsts == [K.zero, K.one, t, t + 1]


def test_ratfunc_zero_denominator():
    K = RationalFunctionField(2)
    with pytest.raises(ZeroDivisionError):
        K.normalize((1,), ())
    with pytest.raises(ZeroDivisionError):
        K.t.inverse() * K.zero.inverse()


def test_ratfunc_repr():
    K = RationalFunctionField(3)
    t = K.t
    assert repr(t ** 2 + 2 * t) == "t^2 + 2*t"
    assert repr((t + 1) / t) == "(t + 1)/(t)"
    assert repr(K.zero) == "0"
