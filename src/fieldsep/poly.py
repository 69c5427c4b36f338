"""Dense univariate polynomials over any supported field handle."""

from __future__ import annotations

from .basefields import FieldElement
from .errors import FieldMismatchError


class Poly:
    """Dense polynomial; coeffs is a trimmed low-to-high tuple of FieldElement."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        elems = [field.element(c) for c in coeffs]
        while elems and elems[-1].is_zero():
            elems.pop()
        self.field = field
        self.coeffs = tuple(elems)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (field.one,))

    @classmethod
    def x(cls, field):
        return cls(field, (field.zero, field.one))

    @classmethod
    def constant(cls, c):
        return cls(c.field, (c,))

    # -- basic queries ------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_constant(self):
        return len(self.coeffs) <= 1

    def leading_coefficient(self):
        if not self.coeffs:
            return self.field.zero
        return self.coeffs[-1]

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def coefficient(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero

    def __eq__(self, other):
        return (isinstance(other, Poly) and other.field == self.field
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash(self.coeffs)

    def _check(self, other):
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {other!r}")
        if other.field != self.field:
            raise FieldMismatchError("polynomials over different fields")

    # -- ring arithmetic ----------------------------------------------------

    def __add__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.field,
                    [self.coefficient(i) + other.coefficient(i) for i in range(n)])

    def __sub__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.field,
                    [self.coefficient(i) - other.coefficient(i) for i in range(n)])

    def __neg__(self):
        return Poly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return self.scale(other)
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.field)
        zero = self.field.zero
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(self.field, out)

    def scale(self, c):
        c = self.field.element(c)
        return Poly(self.field, [a * c for a in self.coeffs])

    def __pow__(self, n):
        result = Poly.one(self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divmod(self, other):
        """Exact Euclidean division: returns (q, r) with self = q*other + r."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        db = other.degree
        lead = other.leading_coefficient()
        inv_lead = None if lead == self.field.one else lead.inverse()
        q = [self.field.zero] * max(len(rem) - db, 0)
        while len(rem) > db:
            while rem and rem[-1].is_zero():
                rem.pop()
            if len(rem) <= db:
                break
            c = rem[-1] if inv_lead is None else rem[-1] * inv_lead
            shift = len(rem) - 1 - db
            q[shift] = c
            for i, b in enumerate(other.coeffs):
                rem[shift + i] = rem[shift + i] - c * b
        return Poly(self.field, q), Poly(self.field, rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def divides(self, other):
        return not self.is_zero() and (other % self).is_zero()

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.leading_coefficient().inverse())

    # -- calculus and evaluation --------------------------------------------

    def formal_derivative(self):
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(self.coeffs[i] * self.field.element(i))
        return Poly(self.field, out)

    def eval(self, a):
        """Horner evaluation at a point of the same field."""
        a = self.field.element(a)
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * a + c
        return acc

    def substitute_power(self, k):
        """Return self(x^k)."""
        if self.is_zero():
            return self
        zero = self.field.zero
        out = [zero] * (self.degree * k + 1)
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return Poly(self.field, out)

    def __repr__(self):
        return format_poly(self, "x")


def poly_gcd(a, b):
    """Monic gcd via the Euclidean algorithm; gcd(f, 0) = monic(f)."""
    if a.is_zero() and b.is_zero():
        raise ZeroDivisionError("gcd(0, 0) is undefined")
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


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


def format_poly(f, var="x"):
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
        xs = var if i == 1 else f"{var}^{i}"
        if c == f.field.one:
            parts.append(xs)
        else:
            if any(op in cs for op in (" + ", " - ", "/")):
                cs = f"({cs})"
            parts.append(f"{cs}*{xs}")
    return " + ".join(parts)
