"""The F_p[t] and F_p(t) kernels against the textbook formulas.

Each short-cut of RationalFunctionField._add, _sub and _mul is driven by
operands of its own shape, and its result must equal, structurally,
normalize of the textbook fraction num/den computed by the schoolbook
kernel below (the F_p[t] kernel as it was before the short-cuts: every
term reduced mod p, every result trimmed).  The ipoly_* results must be canonical:
trimmed tuples of entries in [0, p).  Derandomized: a fixed number of
examples from a seeded generator per prime and shape.
"""

import random

import pytest

from fieldsep.basefields import (RatFunc, RationalFunctionField, ipoly_add,
                                 ipoly_divmod, ipoly_gcd, ipoly_mul,
                                 ipoly_neg, ipoly_scale)

PRIMES = [2, 3, 5, 7]
EXAMPLES = 40


# -- the schoolbook kernel, kept as the oracle --------------------------------


def _o_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _o_add(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] = x
    for i, x in enumerate(b):
        out[i] = (out[i] + x) % p
    return _o_trim(out)


def _o_neg(a, p):
    return tuple((-x) % p for x in a)


def _o_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _o_trim(out)


def _o_scale(a, s, p):
    s %= p
    return _o_trim(tuple((x * s) % p for x in a))


def _o_divmod(a, b, p):
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv_lead = pow(b[-1], p - 2, p)
    nb = len(b)
    top = len(a)
    while top >= nb:
        lead = a[top - 1]
        if lead:
            coeff = (lead * inv_lead) % p
            shift = top - nb
            q[shift] = coeff
            for i, x in enumerate(b):
                a[shift + i] = (a[shift + i] - coeff * x) % p
        top -= 1
    return _o_trim(q), _o_trim(a)


def _o_gcd(a, b, p):
    while b:
        a, b = b, _o_divmod(a, b, p)[1]
    if not a:
        return ()
    return _o_scale(a, pow(a[-1], p - 2, p), p)  # monic


# -- operands -----------------------------------------------------------------


def _poly(rng, p, lo, hi):
    """A random canonical polynomial of degree in [lo, hi]."""
    deg = rng.randint(lo, hi)
    return tuple(rng.randrange(p) for _ in range(deg)) + (rng.randrange(1, p),)


def _monic(rng, p, lo, hi):
    return _poly(rng, p, lo, hi)[:-1] + (1,)


def _fraction(K, rng, den):
    """A canonical fraction whose denominator is exactly den (monic)."""
    while True:
        r = K.normalize(_poly(rng, K.p, 0, 3), den)
        if r.den == den:
            return r


def _operands(K, rng, shape):
    """Two canonical operands of the given shape."""
    p = K.p
    zero = RatFunc((), (1,))

    def scalar():
        return RatFunc((rng.randrange(1, p),), (1,))

    def poly():
        return RatFunc(_poly(rng, p, 1, 3), (1,))

    def fraction():
        return _fraction(K, rng, _monic(rng, p, 1, 3))

    if shape == "zero":
        return zero, rng.choice([zero, scalar(), poly(), fraction()])
    if shape == "scalars":
        return scalar(), scalar()
    if shape == "scalar_fraction":
        return scalar(), fraction()
    if shape == "polys":
        return rng.choice([scalar(), poly()]), poly()
    if shape == "den_1":
        return rng.choice([scalar(), poly()]), fraction()
    if shape == "negatives":
        a = rng.choice([scalar(), poly(), fraction()])
        return a, RatFunc(_o_neg(a.num, p), a.den)
    if shape == "equal_dens":
        a = fraction()
        return a, _fraction(K, rng, a.den)
    if shape == "equal_dens_cancelling":
        # a.num + b.num = f*k with f a proper factor of the common den
        f, g = _monic(rng, p, 1, 2), _monic(rng, p, 1, 2)
        d = _o_mul(f, g, p)
        while True:
            a = _fraction(K, rng, d)
            bn = _o_add(_o_mul(f, _poly(rng, p, 0, 2), p), _o_neg(a.num, p), p)
            if bn and _o_gcd(bn, d, p) == (1,):
                return a, RatFunc(bn, d)
    if shape == "coprime_dens":
        while True:
            a, b = fraction(), fraction()
            if _o_gcd(a.den, b.den, p) == (1,):
                return a, b
    if shape == "common_factor_dens":
        # different denominators sharing the factor c
        c = _monic(rng, p, 1, 1)
        while True:
            a = _fraction(K, rng, _o_mul(c, _monic(rng, p, 0, 2), p))
            b = _fraction(K, rng, _o_mul(c, _monic(rng, p, 0, 2), p))
            if a.den != b.den:
                return a, b
    if shape == "cross_factors":
        # gcd(a.num, b.den) and gcd(b.num, a.den) both non-trivial
        f, g = _monic(rng, p, 1, 2), _monic(rng, p, 1, 2)
        while True:
            a = K.normalize(_o_mul(f, _poly(rng, p, 0, 2), p),
                            _o_mul(g, _monic(rng, p, 0, 2), p))
            b = K.normalize(_o_mul(g, _poly(rng, p, 0, 2), p),
                            _o_mul(f, _monic(rng, p, 0, 2), p))
            if _o_gcd(a.num, b.den, p) != (1,) and \
                    _o_gcd(b.num, a.den, p) != (1,):
                return a, b
    raise ValueError(shape)


SHAPES = ["zero", "scalars", "scalar_fraction", "polys", "den_1", "negatives",
          "equal_dens", "equal_dens_cancelling", "coprime_dens",
          "common_factor_dens", "cross_factors"]


def _assert_canonical_ipoly(c, p):
    assert type(c) is tuple
    assert not c or c[-1] != 0
    assert all(type(x) is int and 0 <= x < p for x in c)


def _assert_canonical(K, r):
    p = K.p
    assert type(r) is RatFunc
    _assert_canonical_ipoly(r.num, p)
    _assert_canonical_ipoly(r.den, p)
    assert r.den[-1] == 1
    if r.num:
        assert _o_gcd(r.num, r.den, p) == (1,)
    else:
        assert r.den == (1,)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("p", PRIMES)
def test_field_operations_match_the_textbook_formulas(p, shape):
    K = RationalFunctionField(p)
    rng = random.Random(f"{p}:{shape}")
    for _ in range(EXAMPLES):
        x, y = _operands(K, rng, shape)
        for a, b in ((x, y), (y, x)):
            den = _o_mul(a.den, b.den, p)
            an_bd, bn_ad = _o_mul(a.num, b.den, p), _o_mul(b.num, a.den, p)
            cases = [
                (K._add(a, b), _o_add(an_bd, bn_ad, p), den),
                (K._sub(a, b), _o_add(an_bd, _o_neg(bn_ad, p), p), den),
                (K._mul(a, b), _o_mul(a.num, b.num, p), den),
            ]
            for got, num, den_ in cases:
                _assert_canonical(K, got)
                assert got == K.normalize(num, den_), (a, b)


@pytest.mark.parametrize("p", PRIMES)
def test_ipoly_kernel_matches_the_schoolbook_kernel(p):
    rng = random.Random(p)
    for _ in range(10 * EXAMPLES):
        a = _poly(rng, p, 0, 5) if rng.random() < 0.9 else ()
        b = rng.choice([(), _poly(rng, p, 0, 0), _poly(rng, p, 1, 5),
                        _o_add(a, _poly(rng, p, 0, 1), p),   # a's top kept
                        _o_neg(a, p)])                        # cancels
        if rng.random() < 0.3:
            b = _o_trim(b[:len(a)])                           # equal lengths
        s = rng.randrange(p)
        results = [
            (ipoly_add(a, b, p), _o_add(a, b, p)),
            (ipoly_add(a, ipoly_neg(b, p), p), _o_add(a, _o_neg(b, p), p)),
            (ipoly_neg(a, p), _o_neg(a, p)),
            (ipoly_mul(a, b, p), _o_mul(a, b, p)),
            (ipoly_scale(a, s, p), _o_scale(a, s, p)),
            (ipoly_gcd(a, b, p), _o_gcd(a, b, p)),
        ]
        for d in (a, b):
            if d:
                for n in (a, b, _o_mul(a, b, p)):
                    q, r = ipoly_divmod(n, d, p)
                    oq, o_r = _o_divmod(n, d, p)
                    results += [(q, oq), (r, o_r)]
        for got, want in results:
            _assert_canonical_ipoly(got, p)
            assert got == want, (a, b)
