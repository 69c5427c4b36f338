"""Arithmetic the benchmark uses to make and check its inputs.

Everything here is written apart from fieldsep, so that the benchmark can
decide what a correct answer is without asking the program under test.
Polynomials over F_p are lists of ints, lowest degree first, with no
trailing zeros.
"""

from __future__ import annotations


def trim(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def mul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return trim(out)


def mod(f, g, p):
    """Remainder of f by a nonzero g."""
    f = trim(f)
    inv = pow(g[-1], p - 2, p)
    while len(f) >= len(g):
        c = f[-1] * inv % p
        shift = len(f) - len(g)
        for i, b in enumerate(g):
            f[shift + i] = (f[shift + i] - c * b) % p
        f = trim(f)
    return f


def gcd(f, g, p):
    f, g = trim(f), trim(g)
    while g:
        f, g = g, mod(f, g, p)
    return f


def sub(f, g, p):
    n = max(len(f), len(g))
    f = list(f) + [0] * (n - len(f))
    g = list(g) + [0] * (n - len(g))
    return trim([(a - b) % p for a, b in zip(f, g)])


def x_power_mod(k, f, p):
    """x^k mod f by square and multiply."""
    result, base = [1], mod([0, 1], f, p)
    while k:
        if k & 1:
            result = mod(mul(result, base, p), f, p)
        base = mod(mul(base, base, p), f, p)
        k >>= 1
    return result


def prime_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def is_irreducible(f, p):
    """Rabin's test for a monic f of degree >= 1 over F_p.

    f is irreducible iff x^(p^n) = x mod f and gcd(x^(p^(n/q)) - x, f) = 1
    for every prime q dividing n = deg f.
    """
    n = len(f) - 1
    if x_power_mod(p ** n, f, p) != mod([0, 1], f, p):
        return False
    for q in prime_factors(n):
        h = sub(x_power_mod(p ** (n // q), f, p), [0, 1], p)
        if len(gcd(h, f, p)) > 1:
            return False
    return True


def random_irreducible(rng, p, degree):
    """A uniformly drawn monic irreducible polynomial of the given degree."""
    while True:
        f = [rng.randrange(p) for _ in range(degree)] + [1]
        if f[0] and is_irreducible(f, p):
            return f


def format_poly(coeffs, var):
    """Text for sum(c_k var^k), highest power first, in the tower syntax.

    Coefficients are ints or already formatted strings; zero terms are
    left out.
    """
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c in (0, ""):
            continue
        mono = "" if k == 0 else (var if k == 1 else f"{var}^{k}")
        if not mono:
            terms.append(str(c) if isinstance(c, int) else f"({c})")
        elif c == 1:
            terms.append(mono)
        else:
            terms.append(f"{c}*{mono}" if isinstance(c, int)
                         else f"({c})*{mono}")
    return " + ".join(terms) if terms else "0"
