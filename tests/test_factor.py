"""Factorization: finite fields, F_p(t), towers, and the derived helpers.

Frozen expectations were derived from independent brute-force divisor
enumeration (see also the exhaustive acceptance oracle) and from hand
identities in characteristic p.
"""

import contextlib
import importlib
import itertools
import math
import random
import signal

import pytest

from fieldsep.basefields import (FieldElement, PrimeField,
                                 RationalFunctionField, ipoly_gcd, ipoly_mul,
                                 ipoly_trim)
from fieldsep.errors import CapabilityError, InputError
from fieldsep.factor import (Factorization, _frobenius_parts, _linear_in_t,
                             distinct_root_count, element_pth_root, factor,
                             is_irreducible, roots_in, separable_decompose)
from fieldsep.parse import parse_poly, parse_tower
from fieldsep.points import PointValues, point_map
from fieldsep.poly import Poly, poly_gcd
from fieldsep.towers import (flatten, iter_elements, lift, lift_poly,
                             minimal_polynomial, poly_eval, unflatten)

F2 = PrimeField(2)
F3 = PrimeField(3)
K2 = RationalFunctionField(2)
K3 = RationalFunctionField(3)
factor_module = importlib.import_module("fieldsep.factor")
points_module = importlib.import_module("fieldsep.points")


def expand(fac):
    """Sorted (repr, multiplicity) pairs for stable comparison."""
    return sorted((repr(q), m) for q, m in fac.factors)


def product(fac):
    """The unit times each factor to its multiplicity."""
    return math.prod((q ** m for q, m in fac.factors),
                     start=Poly.constant(fac.unit))


# -- finite fields ------------------------------------------------------------


def test_factor_over_f2_frozen():
    f = parse_poly("x^8 + x", F2)  # x^8 - x: all irreducibles of degree | 3
    fac = factor(f)
    assert expand(fac) == [("x", 1), ("x + 1", 1),
                           ("x^3 + x + 1", 1), ("x^3 + x^2 + 1", 1)]
    assert product(fac) == f
    g = parse_poly("x^3 + x", F2)  # x (x + 1)^2 in characteristic 2
    assert expand(factor(g)) == [("x", 1), ("x + 1", 2)]


def test_factor_over_f3_frozen():
    f = parse_poly("x^9 + 2*x", F3)  # x^9 - x
    fac = factor(f)
    degs = sorted(q.degree for q, _m in fac.factors)
    assert degs == [1, 1, 1, 2, 2, 2]
    assert all(m == 1 for _q, m in fac.factors)
    assert product(fac) == f
    assert all(is_irreducible(q)[0] for q, _m in fac.factors)


def test_factor_unit_and_sorting():
    f = parse_poly("2*x^2 + 1", F3)  # 2 (x+1)(x+2), since (x+1)(x+2) = x^2 + 2
    fac = factor(f)
    assert fac.unit == F3.element(2)
    assert expand(fac) == [("x + 1", 1), ("x + 2", 1)]
    assert product(fac) == f
    # the same factors whatever random choices Cantor-Zassenhaus makes
    for seed in (0, 7):
        factors = factor_module._factor_monic(f.monic(), random.Random(seed))
        assert sorted((repr(q), m) for q, m in factors) == expand(fac)


def test_factor_rejects_zero():
    with pytest.raises(InputError):
        factor(Poly.zero(F2))


def test_factor_over_extension_field():
    spec = parse_tower("base Fp 2\ngen w : x^2 + x + 1\n")
    E = spec.field
    w = spec.element("w")
    f = parse_poly("x^2 + x + 1", F2)
    fE = lift_poly(f, E)
    fac = factor(fE)
    assert sorted(repr(q) for q, _m in fac.factors) == ["x + w", "x + w + 1"]
    assert sorted(map(repr, roots_in(f, E))) == ["w", "w + 1"]


# -- F_p(t) -------------------------------------------------------------------


def test_factor_ratfunc_irreducible():
    assert is_irreducible(parse_poly("x^2 + t", K2))[0]
    assert is_irreducible(parse_poly("x^2 + 2*t", K3))[0]
    assert is_irreducible(parse_poly("x^4 + x^2 + t", K2))[0]
    assert is_irreducible(parse_poly("x^2 + t^2 + t", K2))[0]


def test_factor_ratfunc_products():
    f = parse_poly("(x^2 + 2*t)*(x^2 + 2*t + 2)", K3)
    assert expand(factor(f)) == [("x^2 + 2*t", 1), ("x^2 + 2*t + 2", 1)]
    g = parse_poly("(x + t)*(x + t + 1)*(x^2 + t)", K2)
    assert expand(factor(g)) == [("x + t", 1), ("x + t + 1", 1),
                                 ("x^2 + t", 1)]


def test_factor_ratfunc_inseparable_powers():
    f = parse_poly("x^2 + t^2", K2)  # (x + t)^2
    assert expand(factor(f)) == [("x + t", 2)]
    g = parse_poly("x^4 + t^2", K2)  # (x^2 + t)^2
    assert expand(factor(g)) == [("x^2 + t", 2)]


def test_factor_with_denominators():
    K = K2
    t = K.t
    inv_t = 1 / t
    f = Poly(K, [inv_t * inv_t, K.zero, K.one])  # x^2 + 1/t^2 = (x + 1/t)^2
    fac = factor(f)
    assert len(fac.factors) == 1
    q, m = fac.factors[0]
    assert m == 2 and q.degree == 1
    assert q.coefficient(0) == inv_t
    assert is_irreducible(Poly(K, [inv_t, K.zero, K.one]))[0]  # x^2 + 1/t


def test_factor_admits_any_t_degree():
    # the height bound gates a tower file's gen lines (parse_tower), never
    # a polynomial handed to factor
    assert expand(factor(parse_poly("x^2 + t^7", K2))) == [("x^2 + t^7", 1)]
    assert expand(factor(parse_poly("x^2 + t^8", K2))) == [("x + t^4", 2)]
    assert expand(factor(parse_poly("x^2 + t^9", K2))) == [("x^2 + t^9", 1)]


# -- towers over F_p(t) -------------------------------------------------------


def test_factor_over_tower_separable():
    spec = parse_tower("base FpT 3\ngen s : x^2 + 2*t\n")
    E = spec.field
    s = spec.element("s")
    f = lift_poly(parse_poly("x^2 + 2*t", K3), E)
    fac = factor(f)
    assert sorted(repr(q) for q, _m in fac.factors) == ["x + 2*s", "x + s"]
    assert product(fac) == f


def test_factor_over_tower_mixed_frozen():
    spec = parse_tower("base FpT 2\ngen b : x^4 + x^2 + t\n")
    E = spec.field
    b = spec.element("b")
    f = lift_poly(parse_poly("x^4 + x^2 + t", K2), E)
    fac = factor(f)
    # x^4 + x^2 + t = (x + b)^2 (x + b + 1)^2 over K(b)
    assert expand(fac) == [("x + b", 2), ("x + b + 1", 2)]
    assert sorted(map(repr, roots_in(f, E))) == ["b", "b + 1"]


def test_factor_over_biquadratic_tower():
    spec = parse_tower("base FpT 3\ngen s : x^2 + 2*t\ngen u : x^2 + 2*t + 2\n")
    E = spec.field
    f = lift_poly(parse_poly("x^2 + 2*t + 2", K3), E)
    fac = factor(f)
    assert len(fac.factors) == 2
    assert all(q.degree == 1 for q, _m in fac.factors)
    assert product(fac) == f


def test_factor_over_inseparable_stage_computes_no_norm(monkeypatch):
    # over E = F_2(t)(s), s^2 = t, every shifted norm lies in F_2(t)[x^2]
    def no_norm(*args):
        raise AssertionError("a norm was computed")

    monkeypatch.setattr(factor_module, "_norm_to_base", no_norm)
    monkeypatch.setattr(factor_module, "_interpolate", no_norm)
    E = parse_tower("base FpT 2\ngen s : x^2 + t\n").field
    f = lift_poly(parse_poly("x^2 + x + t", K2), E)
    with pytest.raises(CapabilityError, match="no squarefree norm exists"):
        factor(f)


# -- helpers ------------------------------------------------------------------


def test_separable_decompose():
    dec = separable_decompose(parse_poly("x^4 + x^2 + t", K2))
    assert dec.e == 1 and dec.g.degree == 2
    dec = separable_decompose(parse_poly("x^4 + t", K2))
    assert dec.e == 2 and dec.g.degree == 1
    dec = separable_decompose(parse_poly("x^3 + 2*x + 1", F3))
    assert dec.e == 0


def test_distinct_root_count():
    assert distinct_root_count(parse_poly("x^2 + t", K2)) == 1
    assert distinct_root_count(parse_poly("x^4 + x^2 + t", K2)) == 2
    assert distinct_root_count(parse_poly("x^2 + 2*t", K3)) == 2
    assert distinct_root_count(parse_poly("(x^2 + t)*(x^2 + x + t)", K2)) == 3
    assert distinct_root_count(parse_poly("x^4 + t^2", K2)) == 1
    assert distinct_root_count(parse_poly("x^9 + 2*x", F3)) == 9
    with pytest.raises(InputError):
        distinct_root_count(Poly.zero(F3))


def test_element_pth_root_tower():
    spec = parse_tower("base FpT 2\ngen s : x^2 + t\n")
    E = spec.field
    s = spec.element("s")
    t = lift(K2.t, E)
    assert element_pth_root(t) == s
    assert element_pth_root(s) is None       # t^(1/4) is not in E
    assert element_pth_root(s * s) == s
    # finite-field route: every element has a root
    F = parse_tower("base Fp 3\ngen c : x^3 + 2*x + 1\n").field
    a = F.generator + 1
    r = element_pth_root(a)
    assert r ** 3 == a


def _at_t_power(c, p):
    """The coefficients of c(t^p), with trailing zeros, for those of c(t)."""
    out = [0] * (p * len(c))
    out[::p] = c
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
def test_frobenius_decomposition_rebuilds_its_input(p):
    # sum_j t^j * A_j(t^p) is c again, for the parts A_j of seeded
    # c = N/D with a monic D of degree <= 6 over F_p(t)
    K = RationalFunctionField(p)
    rng = random.Random(f"frobenius decomposition {p}")
    for _ in range(60):
        num = [rng.randrange(p) for _ in range(rng.randint(0, 9))]
        den = [rng.randrange(p) for _ in range(rng.randint(0, 6))] + [1]
        c = FieldElement(K, K.normalize(num, den))
        parts = _frobenius_parts(c)
        assert len(parts) == p
        total = K.zero
        for j, part in enumerate(parts):
            a = K.normalize(_at_t_power(part, p),
                            _at_t_power(c.rep.den, p))
            total = total + K.t ** j * FieldElement(K, a)
        assert total == c


def test_is_irreducible_certificate():
    ok, cert = is_irreducible(parse_poly("x^2 + 1", F2))
    assert not ok and cert is not None
    assert cert.divides(parse_poly("x^2 + 1", F2))
    with pytest.raises(InputError):
        is_irreducible(Poly.one(F2))


# -- irreducibility certificates ---------------------------------------------


def _monic_polys(F, degree):
    elems = list(iter_elements(F))
    for coeffs in itertools.product(elems, repeat=degree):
        yield Poly(F, list(coeffs) + [F.one])


def _has_proper_divisor(f):
    return any(g.divides(f) for d in range(1, f.degree // 2 + 1)
               for g in _monic_polys(f.field, d))


def _count_factor_calls(monkeypatch):
    """Wrap the module's factor, which is_irreducible calls; return the
    list of the arguments it is called with."""
    calls = []
    monkeypatch.setattr(factor_module, "factor", lambda f: (
        calls.append(f) or factor(f)))
    return calls


def _factor_verdict(f):
    fac = factor(f).factors
    return len(fac) == 1 and fac[0][1] == 1


def _check_reducible(f, ok, cert, calls):
    """A reducible f is factored, and its certificate is the first factor,
    a divisor of f."""
    assert not ok and calls == [f]
    assert cert.divides(f) and 0 < cert.degree < f.degree
    assert cert == factor(f).factors[0][0]


@pytest.mark.parametrize("field,max_degree", [("F2", 6), ("F3", 4),
                                              ("gf4", 3)])
def test_finite_certificate_matches_divisor_oracle(corpus, monkeypatch,
                                                  field, max_degree):
    """Every monic polynomial of degree <= max_degree: Ben-Or's verdict
    against a divisor search and against factor.  An irreducible one is
    certified with no call to factor."""
    F = {"F2": F2, "F3": F3}.get(field) or corpus[field].field
    calls = _count_factor_calls(monkeypatch)
    for degree in range(1, max_degree + 1):
        for f in _monic_polys(F, degree):
            calls.clear()
            ok, cert = is_irreducible(f)
            assert ok == (not _has_proper_divisor(f)) == _factor_verdict(f)
            if ok:
                assert calls == [] and cert is None
            else:
                _check_reducible(f, ok, cert, calls)


def _eisenstein_at(P, n, K, rng):
    """x^n + P*(a_(n-1) x^(n-1) + ... + a_0) over K = F_p(t), for an int
    t-polynomial P and seeded a_i of t-degree <= 2, a_0 prime to P."""
    p = K.characteristic
    while True:
        a = [ipoly_trim(tuple(rng.randrange(p) for _ in range(3)))
             for _ in range(n)]
        if a[0] and ipoly_gcd(a[0], P, p) == (1,):
            break
    return Poly(K, [K.element(K.normalize(ipoly_mul(P, c, p), (1,)))
                    for c in a] + [K.one])


def _seeded_ratfunc_poly(n, K, rng):
    """A monic polynomial of degree n over F_p(t) with seeded coefficients
    of t-degree <= 2."""
    p = K.characteristic
    return Poly(K, [K.element(K.normalize(
        tuple(rng.randrange(p) for _ in range(3)), (1,)))
        for _ in range(n)] + [K.one])


# P = t, then t - c, then t^2 + 1 over F_3, as int t-polynomials
EISENSTEIN_PRIMES = {2: [(0, 1), (1, 1)], 3: [(0, 1), (1, 1), (1, 0, 1)],
                     5: [(0, 1), (3, 1)]}


@pytest.mark.parametrize("p", sorted(EISENSTEIN_PRIMES))
def test_ratfunc_certificate_matches_factor(monkeypatch, p):
    """Seeded polynomials over F_p(t): Eisenstein ones at each prime of
    EISENSTEIN_PRIMES are certified without a call to factor, and every
    verdict, on seeded polynomials and products too, is factor's."""
    K = RationalFunctionField(p)
    rng = random.Random(p)
    calls = _count_factor_calls(monkeypatch)
    for P in EISENSTEIN_PRIMES[p]:
        for n in (2, 3, 4):
            f = _eisenstein_at(P, n, K, rng)
            calls.clear()
            assert is_irreducible(f) == (True, None) and calls == []
            assert _factor_verdict(f)
    polys = [_seeded_ratfunc_poly(n, K, rng) for n in (2, 2, 3, 3, 4)]
    polys += [polys[0] * polys[2], polys[1] * polys[1]]
    for f in polys:
        calls.clear()
        ok, cert = is_irreducible(f)
        assert ok == _factor_verdict(f)
        if not ok:
            _check_reducible(f, ok, cert, calls)


@pytest.mark.parametrize("K,text,certified", [
    (K2, "x^4 + t", True),                     # inseparable, Eisenstein at t
    (K2, "x^2 + t^2 + t", True),               # at t and at t + 1
    (RationalFunctionField(5), "x^2 + (t^2 + t)*x + t^3 + t^2", True),
    (K2, "x^4 + x^2 + t", True),               # Dumas at infinity only
    (K3, "x^2 + t^2", False),                  # t^2 divides the constant
    (RationalFunctionField(5), "x^3 + t*x + t^2 + 1", True),   # at infinity
    (RationalFunctionField(97), "x^16 + t^3", True),           # Dumas at t
    (RationalFunctionField(97), "x^24 + t*x + 1", True),  # degree 1 in t
    (K3, "x^2 + t*x + 1", True),               # x^2 + 1 and x are coprime
])
def test_ratfunc_certificate_routes(monkeypatch, K, text, certified):
    f = parse_poly(text, K)
    calls = _count_factor_calls(monkeypatch)
    assert is_irreducible(f) == (True, None)
    assert calls == ([] if certified else [f])


def _dumas_at(place, n, k, K, rng):
    """A monic f of degree n over K = F_p(t) whose Newton polygon at t
    (place 0) or at infinity (place 1) is the segment from (0, v(c_0)) to
    (n, 0), v(c_0) = k or -k: c_0 = t^k * (a unit at t), or of degree k,
    and each other c_i seeded on or above the segment."""
    p = K.characteristic

    def seeded(low, high):
        return tuple([0] * low + [rng.randrange(p)
                                  for _ in range(low, high + 1)])

    coeffs = []
    for i in range(n):
        if place == 0:
            low = -(-k * (n - i) // n)
            c = seeded(low, low + 1)
            if i == 0:
                c = (0,) * k + (rng.randrange(1, p), rng.randrange(p))
        else:
            c = seeded(0, k * (n - i) // n)
            if i == 0:
                c = c[:k] + (rng.randrange(1, p),)
        coeffs.append(K.element(K.normalize(ipoly_trim(c), (1,))))
    return Poly(K, coeffs + [K.one])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_dumas_certificates_match_factor(monkeypatch, p):
    """Seeded polynomials with a one-segment Newton polygon of coprime
    height at t or at infinity are certified with no call to factor, and
    factor finds each of them irreducible."""
    K = RationalFunctionField(p)
    rng = random.Random(p)
    calls = _count_factor_calls(monkeypatch)
    certified = []
    for place in (0, 1):
        for n, k in ((2, 1), (2, 3), (3, 2), (3, 4), (4, 3), (5, 2)) * 3:
            f = _dumas_at(place, n, k, K, rng)
            calls.clear()
            assert is_irreducible(f) == (True, None) and calls == []
            certified.append(f)
    for f in certified:
        assert _factor_verdict(f)


def _linear_in_t_poly(A, B, K):
    """A(x) + t*B(x) over K = F_p(t), for int x-polynomials A and B."""
    A, B = list(A), list(B) + [0] * (len(A) - len(B))
    return Poly(K, [K.element(ipoly_trim((a, b))) for a, b in zip(A, B)])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_linear_in_t_certificate_matches_factor(monkeypatch, p):
    """Seeded f = A(x) + t*B(x), A monic and B != 0 of lower degree,
    some with a common factor x + c: f is certified, with no call to
    factor, exactly when factor finds it irreducible."""
    K = RationalFunctionField(p)
    rng = random.Random(f"degree 1 in t {p}")
    calls = _count_factor_calls(monkeypatch)

    def seeded(n):
        """A monic A of degree n and a nonzero B of lower degree."""
        B = ()
        while not B:
            B = ipoly_trim(tuple(rng.randrange(p) for _ in range(n)))
        return tuple(rng.randrange(p) for _ in range(n)) + (1,), B

    verdicts = []
    for n in (1, 2, 2, 3, 3, 4, 4, 5) * 4:
        if n > 1 and rng.random() < 0.4:
            shared = (rng.randrange(p), 1)
            A, B = (ipoly_mul(c, shared, p) for c in seeded(n - 1))
        else:
            A, B = seeded(n)
        f = _linear_in_t_poly(A, B, K)
        calls.clear()
        certified = _linear_in_t(f)
        assert certified == _factor_verdict(f)
        assert is_irreducible(f)[0] == certified
        assert calls == ([] if certified else [f])
        verdicts.append(certified)
    assert True in verdicts and False in verdicts


def test_ratfunc_certificate_leaves_denominators_to_factor(monkeypatch):
    f = Poly(K2, [1 / K2.t, K2.zero, K2.one])  # x^2 + 1/t
    calls = _count_factor_calls(monkeypatch)
    assert is_irreducible(f) == (True, None) and calls == [f]


@pytest.mark.parametrize("text", ["(x^2 + t)*(x + t)", "x^2 + 2*t^2",
                                  "(x^2 + t)^2", "x^3 + t^3",
                                  "(x + 1)*(x + t)"])
def test_reducible_ratfunc_certificate_divides(monkeypatch, text):
    # the lower coefficients share t, but t^2 divides the constant
    f = parse_poly(text, K3)
    calls = _count_factor_calls(monkeypatch)
    ok, cert = is_irreducible(f)
    _check_reducible(f, ok, cert, calls)


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the block once seconds of wall time pass."""
    def expire(_signum, _frame):
        raise TimeoutError(f"not done within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("n", [32, 48])
def test_eisenstein_gen_line_parses_within_two_seconds(n):
    # x^n + t over F_97 has n linear factors at Hensel points of F_97 that
    # hold an n-th root of unity; Eisenstein's criterion needs none of them
    with _deadline(2):
        spec = parse_tower(f"base FpT 97\ngen s : x^{n} + t\n")
    assert spec.field.absolute_degree == n


@pytest.mark.parametrize("n", [16, 32])
def test_dumas_gen_line_parses_within_two_seconds(n):
    # x^n + t^3 over F_97 is Eisenstein at no prime, and Hensel
    # recombination took 33 s for n = 16; its Newton polygon at t is one
    # segment of height 3, prime to n
    with _deadline(2):
        spec = parse_tower(f"base FpT 97\ngen s : x^{n} + t^3\n")
    assert spec.field.absolute_degree == n


@pytest.mark.parametrize("n", [16, 24])
def test_linear_in_t_gen_line_parses_within_two_seconds(n):
    # x^n + t*x + 1 over F_97 is Eisenstein at no prime and passes Dumas's
    # criterion at no place; Hensel recombination took 7.5 s for n = 16.
    # It has degree 1 in t, and x^n + 1 is prime to x
    with _deadline(2):
        spec = parse_tower(f"base FpT 97\ngen s : x^{n} + t*x + 1\n")
    assert spec.field.absolute_degree == n


@pytest.mark.parametrize("name", ["gf4", "gf16", "gf27", "gf64_tower",
                                  "gf729"])
def test_roots_in_a_finite_field_matches_brute_force(corpus, name):
    """roots_in over a finite corpus field, which runs on the field's
    values, against evaluation at every element: the minimal polynomial
    over F_p of the entry's element, seeded polynomials of degree 1 to 4,
    and a seeded quadratic times linear factors, one of them squared."""
    spec = corpus[name]
    N = spec.field
    rng = random.Random(name)
    elems = list(iter_elements(N))
    polys = [minimal_polynomial(spec.element("a"))]
    for degree in range(1, 5):
        polys.append(Poly(N, [rng.choice(elems) for _ in range(degree)]
                          + [rng.choice(elems[1:])]))
    f = Poly(N, [rng.choice(elems) for _ in range(2)] + [N.one])
    for r in [rng.choice(elems) for _ in range(3)] + [elems[-1]] * 2:
        f = f * Poly(N, [-r, N.one])
    polys.append(f)
    for f in polys:
        roots = [x for x in elems if poly_eval(f, x).is_zero()]
        assert roots_in(f, N) == sorted(roots, key=lambda r: r.rep)


def test_roots_in_ratfunc():
    f = parse_poly("(x + t)*(x + 1)*(x^2 + x + t)", K2)
    roots = roots_in(f, K2)
    assert roots == sorted([K2.t, K2.one], key=lambda a: (a.rep.num, a.rep.den))
    assert len(roots) == 2


def _refuse_decode(v):
    raise AssertionError(f"the value {v} was decoded")


def test_hensel_lifting_decodes_no_value(monkeypatch):
    # the lifting and the recombination run on the point field's values:
    # only the point map's independence check decodes, so the map of K is
    # built before decode is refused
    K = RationalFunctionField(5)
    f = parse_poly("(x^2 + t)*(x^2 + x + t + 1)*(x + t)", K)
    point_map(K)
    for V in itertools.islice(points_module._finite_point_fields(5), 4):
        monkeypatch.setattr(V, "decode", _refuse_decode)
    splits = []
    tree = factor_module._hensel_tree
    monkeypatch.setattr(factor_module, "_hensel_tree", lambda G, facs0: (
        splits.append(len(facs0)) or tree(G, facs0)))
    assert expand(factor(f)) == expand(Factorization(K.one, [
        (parse_poly(q, K), 1) for q in ("x^2 + t", "x^2 + x + t + 1",
                                        "x + t")]))
    assert splits and splits[0] >= 2


def test_hensel_point_has_the_fewest_local_factors():
    # x^2 - t over F_3: x^2 at t = 0 is not squarefree, x^2 - 1 at t = 1
    # has two factors and x^2 + 1 at t = 2 one, which ends the walk
    point, factors = points_module._hensel_point([(0, 2), (), (1,)], 2, 3)
    assert point == 2 and len(factors) == 1 and factors[0].degree == 2


@pytest.mark.parametrize("p", [2, 3, 5])
def test_hensel_point_factors_g0_with_no_more_factors_than_the_first(p):
    rng = random.Random(f"hensel point {p}")
    K = RationalFunctionField(p)
    checked = 0
    while checked < 6:
        n = rng.randrange(2, 6)
        rows = [ipoly_trim(tuple(rng.randrange(p) for _ in range(3)))
                for _ in range(n)] + [(1,)]
        G = Poly(K, [K.element(r) for r in rows])
        if poly_gcd(G, G.formal_derivative()).degree != 0:
            continue
        first = next(
            g0 for V in points_module._finite_point_fields(p)
            for x in iter_elements(V.fq)
            for g0 in [Poly._from_reps(V, [V.at(r, V.encode(x.rep))
                                           for r in rows])]
            if g0.degree == n
            and poly_gcd(g0, g0.formal_derivative()).degree == 0)
        point, factors = points_module._hensel_point(rows, n, p)
        V = factors[0].field
        g0 = Poly._from_reps(V, [V.at(r, point) for r in rows])
        assert all(q.is_monic() and points_module._irreducible_finite(q)
                   for q in factors)
        assert math.prod(factors, start=Poly.one(V)) == g0
        assert len(factors) <= len(points_module._factor_squarefree_finite(
            first, random.Random(0)))
        checked += 1


# -- norms by evaluation ------------------------------------------------------


def point_field(p, degree):
    return next(V.fq for V in points_module._finite_point_fields(p)
                if V.absolute_degree == degree)


# the defining polynomials, low first, of the point fields of F_2 of
# degrees 2..13: the first monic irreducible of each degree in coefficient
# order
F2_POINT_FIELD_POLYS = {
    2: (1, 1, 1), 3: (1, 0, 1, 1), 4: (1, 0, 0, 1, 1), 5: (1, 0, 0, 1, 0, 1),
    6: (1, 0, 0, 0, 0, 1, 1), 7: (1, 0, 0, 0, 0, 0, 1, 1),
    8: (1, 0, 0, 0, 1, 1, 0, 1, 1), 9: (1, 0, 0, 0, 0, 0, 0, 0, 1, 1),
    10: (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
    11: (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1),
    12: (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
    13: (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1),
}


def test_point_fields_factor_no_candidate_divisible_by_x(monkeypatch):
    # the candidates are tested by Ben-Or's test, not factored
    monkeypatch.setattr(points_module, "_POINT_FIELDS", {})
    factored = []
    irreducible = points_module._irreducible_finite
    monkeypatch.setattr(points_module, "_irreducible_finite", lambda f: (
        factored.append(f) or irreducible(f)))
    fields = itertools.islice(points_module._finite_point_fields(2), 1, 13)
    assert {V.absolute_degree: V.fq.minpoly.reps for V in fields} == \
        F2_POINT_FIELD_POLYS
    assert factored and all(f.reps[0] != 0 for f in factored)


def _seeded_elements(fq, rng, count):
    """0, 1 and count elements of fq with seeded coordinates."""
    base = fq.base
    return [fq.zero, fq.one] + [
        unflatten(fq, [base.element(rng.randrange(base.p))
                       for _ in range(fq.absolute_degree)])
        for _ in range(count)]


# F_(67^2) is past LOG_TABLE_MAX_ORDER: its values are its reps
@pytest.mark.parametrize("p,degree", [(2, 3), (3, 2), (5, 2), (7, 1),
                                      (67, 2)])
def test_point_arithmetic_matches_the_point_field(p, degree):
    fq = point_field(p, degree)
    V = PointValues(fq)
    encode, decode = V.encode, V.decode
    rng = random.Random(p ** degree)
    elems = list(iter_elements(fq)) if p ** degree <= 49 else \
        _seeded_elements(fq, rng, 25)
    assert list(V.ints) == [encode(fq.element(v).rep) for v in range(p)]
    assert [V.integer(v) for v in V.ints] == list(range(p))
    for a in elems:
        assert decode(encode(a.rep)) == a.rep
        assert encode((-a).rep) == V._neg(encode(a.rep))
        if not a.is_zero():
            assert encode(a.inverse().rep) == V._inv(encode(a.rep))
        if all(c.is_zero() for c in flatten(a)[1:]):
            assert V.integer(encode(a.rep)) == flatten(a)[0].rep
        else:
            assert V.integer(encode(a.rep)) is None
        for b in elems:
            assert encode((a * b).rep) == V._mul(encode(a.rep), encode(b.rep))
            assert encode((a + b).rep) == V._add(encode(a.rep), encode(b.rep))
            assert encode((a - b).rep) == V._sub(encode(a.rep), encode(b.rep))
    # Poly on the values: gcds and derivatives are the field's own
    for _ in range(20):
        f, g = (Poly(fq, [rng.choice(elems) for _ in range(rng.randrange(6))])
                for _ in range(2))
        if f.is_zero() and g.is_zero():
            continue
        fv, gv = (Poly._from_reps(V, [encode(c) for c in h.reps])
                  for h in (f, g))
        assert [decode(c) for c in poly_gcd(fv, gv).reps] == \
            list(poly_gcd(f, g).reps)
        assert [decode(c) for c in fv.formal_derivative().reps] == \
            list(f.formal_derivative().reps)


def test_point_arithmetic_of_a_large_prime_builds_no_table():
    fq = point_field(1000000007, 1)
    V = PointValues(fq)
    assert isinstance(V.ints, range) and V.encode(5) == 5
    assert V._mul(V._inv(V.ints[3]), 3) == 1


@pytest.mark.parametrize("p,degree", [(3, 3), (1009, 1)])
def test_interpolate_recovers_a_polynomial_over_a_point_field(p, degree):
    fq = point_field(p, degree)
    V = PointValues(fq)
    elems = list(itertools.islice(iter_elements(fq), 200))
    rng = random.Random(5)
    for deg in (0, 1, 7, 20):
        g = Poly(fq, [rng.choice(elems) for _ in range(deg)] + [fq.one])
        points = rng.sample(elems, deg + 1)
        got = factor_module._interpolate(
            V, [V.encode(a.rep) for a in points],
            [V.encode(g.eval(a).rep) for a in points])
        assert Poly._from_reps(fq, [V.decode(c) for c in got.reps]) == g


NORM_TOWERS = ["sqrt_t_p3", "biquadratic_p3", "trans_tower_p3", "mixed_p2",
               "insep_tower_p2", "fifth_t_p5"]


@pytest.mark.parametrize("name", NORM_TOWERS)
def test_norm_to_base_matches_determinant(corpus, name):
    # N(f)(x0) = det of multiplication by f(x0), at points x0 in F_p(t)
    from fieldsep.linalg import determinant
    from fieldsep.towers import power_basis, stage_generators
    E = corpus[name].field
    K = E.base
    basis = power_basis(E)
    rng = random.Random(name)
    elems = [E.one] + stage_generators(E)
    scalars = [K.scalar_by_index(k) for k in range(2 * K.p + 2)]
    for degree in (1, 2, 3):
        coeffs = [sum((lift(rng.choice(scalars), E) * g for g in elems),
                      E.zero) for _ in range(degree)]
        coeffs[0] = coeffs[0] + lift(1 / (K.t + 1), E)  # a denominator
        f = Poly(E, coeffs + [E.one])
        norm, _certified = factor_module._norm_to_base(f, basis)
        assert norm.degree == E.absolute_degree * degree and norm.is_monic()
        for x0 in rng.sample(scalars, 3) + [K.t * K.t / (K.t + 2)]:
            z = f.eval(lift(x0, E))
            assert norm.eval(x0) == determinant(
                K, [list(flatten(z * b)) for b in basis])


@pytest.mark.parametrize("name", ["biquadratic_p3", "trans_tower_p3"])
def test_shift_stream_yields_no_combination_twice(corpus, name):
    from fieldsep.towers import stage_generators
    E = corpus[name].field
    shifts = list(itertools.islice(factor_module._shift_elements(E), 80))
    assert len(set(shifts)) == len(shifts)
    assert E.zero not in shifts
    # the top generator leads, and within a width the shifts using it
    # come before those that do not
    top = stage_generators(E)[-1]
    assert shifts[0] == top
    assert shifts[:3] == [top, stage_generators(E)[0] + top,
                          stage_generators(E)[0]]


def test_trager_passes_over_a_norm_no_grid_row_certifies(monkeypatch):
    spec = parse_tower("base FpT 3\ngen s : x^2 + 2*t\ngen u : x^2 + 2*t + 2\n")
    E = spec.field
    s = parse_poly("(x - s - u - t)*(x^2 - s*u*x + t + 1)", E, spec.names)
    expected = factor_module._trager(s)
    norm_to_base, pull_back = factor_module._norm_to_base, \
        factor_module._pull_back_factors
    certificates, shifts = [], []

    def first_uncertified(fs, basis):
        norm, certified = norm_to_base(fs, basis)
        certificates.append(certified and bool(certificates))
        return norm, certificates[-1]

    def recorded(s, fs, shift, norm):
        shifts.append(shift)
        return pull_back(s, fs, shift, norm)

    monkeypatch.setattr(factor_module, "_norm_to_base", first_uncertified)
    monkeypatch.setattr(factor_module, "_pull_back_factors", recorded)
    assert repr(factor_module._trager(s)) == repr(expected)
    assert certificates == [False, True]
    assert shifts == list(itertools.islice(
        factor_module._shift_elements(E), 2))[1:]


def test_element_pth_root_of_a_base_element_solves_no_system(monkeypatch):
    # F_2(t)(b), b^4 + b^2 + t = 0: a p-th power of F_2(t) takes its root
    # there; t is a square only in E, t = (b^2 + b)^2
    spec = parse_tower("base FpT 2\ngen b : x^4 + x^2 + t\n")
    E, K = spec.field, K2
    systems = []
    solve = factor_module.solve_combination
    monkeypatch.setattr(factor_module, "solve_combination",
                        lambda *args: systems.append(args) or solve(*args))
    for c in [K.one, K.t ** 2, (K.t + 1) ** 2 / K.t ** 4, K.zero]:
        r = element_pth_root(lift(c, E))
        assert r == lift(element_pth_root(c), E) and r ** 2 == lift(c, E)
    assert systems == []
    b = spec.element("b")
    assert element_pth_root(lift(K.t, E)) == b * b + b
    assert element_pth_root(b * b) == b and len(systems) == 2
