"""Dense univariate polynomials over any supported field handle."""

from __future__ import annotations

import itertools

from .basefields import FieldElement
from .errors import FieldMismatchError


class Poly:
    """Dense polynomial over a field handle.

    The coefficients are kept as `reps`, a trimmed low-to-high tuple of
    the field's element reps, and every operation runs on them through
    the field's `_add`/`_sub`/`_mul`/`_inv`.  `coeffs` gives the same
    coefficients as FieldElement, built on first use.
    """

    __slots__ = ("field", "reps", "_coeffs")

    def __init__(self, field, coeffs):
        self._set(field, [field.element(c).rep for c in coeffs])

    @classmethod
    def _from_reps(cls, field, reps):
        """The polynomial with the given coefficient reps; no coercion."""
        f = object.__new__(cls)
        f._set(field, reps)
        return f

    def _set(self, field, reps):
        zero = field._zero
        n = len(reps)
        while n and reps[n - 1] == zero:
            n -= 1
        self.field, self.reps, self._coeffs = field, tuple(reps[:n]), None

    @property
    def coeffs(self):
        if self._coeffs is None:
            self._coeffs = tuple(FieldElement(self.field, r) for r in self.reps)
        return self._coeffs

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls._from_reps(field, ())

    @classmethod
    def one(cls, field):
        return cls._from_reps(field, (field._one,))

    @classmethod
    def x(cls, field):
        return cls._from_reps(field, (field._zero, field._one))

    @classmethod
    def constant(cls, c):
        return cls._from_reps(c.field, (c.rep,))

    # -- basic queries ------------------------------------------------------

    @property
    def degree(self):
        return len(self.reps) - 1

    def is_zero(self):
        return not self.reps

    def is_constant(self):
        return len(self.reps) <= 1

    def leading_coefficient(self):
        return self.coefficient(len(self.reps) - 1)

    def is_monic(self):
        return bool(self.reps) and self.reps[-1] == self.field._one

    def coefficient(self, i):
        if 0 <= i < len(self.reps):
            return FieldElement(self.field, self.reps[i])
        return self.field.zero

    def __eq__(self, other):
        return (isinstance(other, Poly) and other.field == self.field
                and other.reps == self.reps)

    def __hash__(self):
        return hash(self.reps)

    def _check(self, other):
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {other!r}")
        if other.field != self.field:
            raise FieldMismatchError("polynomials over different fields")

    # -- ring arithmetic ----------------------------------------------------

    def __add__(self, other):
        self._check(other)
        a, b = self.reps, other.reps
        if len(a) < len(b):
            a, b = b, a
        return Poly._from_reps(self.field,
                               [*map(self.field._add, a, b), *a[len(b):]])

    def __sub__(self, other):
        self._check(other)
        F = self.field
        a, b = self.reps, other.reps
        return Poly._from_reps(F, [*map(F._sub, a, b), *a[len(b):],
                                   *map(F._neg, b[len(a):])])

    def __neg__(self):
        return Poly._from_reps(self.field, tuple(map(self.field._neg, self.reps)))

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return self.scale(other)
        self._check(other)
        F = self.field
        if not self.reps or not other.reps:
            return Poly.zero(F)
        add, mul, zero = F._add, F._mul, F._zero
        b = other.reps
        out = [zero] * (len(self.reps) + len(b) - 1)
        for i, x in enumerate(self.reps):
            if x == zero:
                continue
            for j, y in enumerate(b, i):
                if y != zero:
                    out[j] = add(out[j], mul(x, y))
        return Poly._from_reps(F, out)

    def scale(self, c):
        F = self.field
        c = F.element(c).rep
        return Poly._from_reps(F, [F._mul(a, c) for a in self.reps])

    def __pow__(self, n):
        """self^n by square-and-multiply: no product by one, and no square
        past the top bit of n."""
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return Poly.one(self.field) if result is None else result

    def divmod(self, other):
        """Exact Euclidean division: returns (q, r) with self = q*other + r."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        if len(self.reps) < len(other.reps):
            return Poly.zero(F), self
        sub, mul, zero = F._sub, F._mul, F._zero
        rem = list(self.reps)
        b = other.reps
        db = len(b) - 1
        lead = b[-1]
        inv_lead = None if lead == F._one else F._inv(lead)
        q = [zero] * (len(rem) - db)
        for top in range(len(rem) - 1, db - 1, -1):
            c = rem[top]
            if c == zero:
                continue
            if inv_lead is not None:
                c = mul(c, inv_lead)
            shift = top - db
            q[shift] = c
            for i, y in enumerate(b, shift):
                if y != zero:
                    rem[i] = sub(rem[i], mul(c, y))
        return Poly._from_reps(F, q), Poly._from_reps(F, rem[:db])

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def divides(self, other):
        return not self.is_zero() and (other % self).is_zero()

    def monic(self):
        F = self.field
        if not self.reps or self.reps[-1] == F._one:
            return self
        inv = F._inv(self.reps[-1])
        return Poly._from_reps(F, [F._mul(a, inv) for a in self.reps])

    # -- calculus and evaluation --------------------------------------------

    def formal_derivative(self):
        F = self.field
        return Poly._from_reps(F, [F._mul(c, F.element(i).rep)
                                   for i, c in enumerate(self.reps) if i])

    def eval(self, a):
        """Horner evaluation at a point of the same field."""
        F = self.field
        a = F.element(a).rep
        add, mul = F._add, F._mul
        acc = F._zero
        for c in reversed(self.reps):
            acc = add(mul(acc, a), c)
        return FieldElement(F, acc)

    def substitute_power(self, k):
        """Return self(x^k)."""
        if self.is_zero():
            return self
        out = [self.field._zero] * (self.degree * k + 1)
        out[::k] = self.reps
        return Poly._from_reps(self.field, out)

    def __repr__(self):
        return format_poly(self)


def poly_gcd(a, b):
    """Monic gcd via the Euclidean algorithm; gcd(f, 0) = monic(f)."""
    if a.is_zero() and b.is_zero():
        raise ZeroDivisionError("gcd(0, 0) is undefined")
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def poly_bezout(a, b):
    """(g, s) with g the monic gcd of a and b and s * a = g mod b."""
    r0, r1 = b, a
    s0, s1 = Poly.zero(a.field), Poly.one(a.field)
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    inv = r0.leading_coefficient().inverse()
    return r0.scale(inv), s0.scale(inv)


def synthetic_division(f, r):
    """(q, f(r)) with f = q * (x - r) + f(r), for a nonzero f: one Horner
    pass, whose partial sums are the coefficients of q and whose last
    value is f(r)."""
    F, rep = f.field, r.rep
    partial = list(itertools.accumulate(
        reversed(f.reps), lambda acc, c: F._add(F._mul(acc, rep), c)))
    value = partial.pop()
    return Poly._from_reps(F, partial[::-1]), FieldElement(F, value)


def poly_pow_mod(f, n, m):
    """f^n mod m by repeated squaring."""
    result = Poly.one(f.field) % m
    f = f % m
    while n:
        if n & 1:
            result = (result * f) % m
        f = (f * f) % m
        n >>= 1
    return result


def format_poly(f):
    if f.is_zero():
        return "0"
    parts = []
    for i in range(f.degree, -1, -1):
        c = f.coefficient(i)
        if c.is_zero():
            continue
        cs = repr(c)
        if i == 0:
            parts.append(cs)
            continue
        xs = "x" if i == 1 else f"x^{i}"
        if c == f.field.one:
            parts.append(xs)
        else:
            if any(op in cs for op in (" + ", " - ", "/")):
                cs = f"({cs})"
            parts.append(f"{cs}*{xs}")
    return " + ".join(parts)
