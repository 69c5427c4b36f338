"""Base coefficient fields: F_p and the rational function field F_p(t).

FieldHandle is the protocol of every field handle: F_p, F_p(t), a tower
stage and the values of a point field.  F_p and F_p(t) share BaseField.

Elements of F_p are canonical residues in [0, p).  Elements of F_p(t) are
reduced fractions of polynomials in t, held as low-to-high coefficient
tuples of ints; the denominator is monic and coprime to the numerator, so
equality is structural.

The arithmetic relies on that canonical form of its operands: tuples
trimmed and reduced mod p, denominator monic, numerator and denominator
coprime.  Each operation then costs what its operands need:

* a sum or product with a zero operand returns at once, a product of two
  scalars of F_p is one multiplication mod p, and a product with a scalar
  scales the other operand's numerator;
* F_p[t] sums trim only when the operands have equal length; products
  reduce mod p once, at the end, and are not trimmed (the product of two
  nonzero leads is nonzero); a division reduces its remainder once and
  returns its quotient as it stands;
* fractions follow Henrici's rule (Knuth, TAOCP vol. 2, 4.5.1): a sum
  over one denominator d takes one gcd against d, a sum where one
  denominator is 1 or where the denominators are coprime is reduced as it
  stands, and a product cancels gcd(a.num, b.den) and gcd(b.num, a.den)
  first, after which it is reduced.  Sums whose denominators share a
  factor go through normalize, the one general path.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import CapabilityError, FieldMismatchError, InputError

# ---------------------------------------------------------------------------
# F_p[t] arithmetic on int coefficient tuples (low-to-high, canonical mod
# p, so trimmed: see the module docstring)


def ipoly_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def ipoly_deg(c):
    return len(c) - 1  # -1 for the zero polynomial


def ipoly_add(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    n = len(b)
    if not n:
        return a
    low = [(x + y) % p for x, y in zip(a, b)]
    if len(a) > n:
        return tuple(low) + a[n:]
    return ipoly_trim(low)


def ipoly_neg(a, p):
    return tuple([(-x) % p for x in a])


def ipoly_mul(a, b, p):
    """The product, reduced mod p once at the end; a scalar factor scales."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) < 2:
        if not b:
            return ()
        if len(a) == 1:
            return (a[0] * b[0] % p,)
        return ipoly_scale(a, b[0], p)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(b):
        if x:
            for j, y in enumerate(a, i):
                out[j] += x * y
    return tuple([c % p for c in out])


def ipoly_scale(a, s, p):
    s %= p
    if s == 1:
        return a
    if not s:
        return ()
    return tuple([x * s % p for x in a])


def ipoly_divmod(a, b, p):
    """(quotient, remainder); the remainder is reduced mod p once, at the end."""
    nb = len(b)
    if not nb:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < nb:
        return (), a
    inv_lead = pow(b[-1], p - 2, p)
    if nb == 1:
        return ipoly_scale(a, inv_lead, p), ()
    r = list(a)
    low = b[:-1]
    q = [0] * (len(a) - nb + 1)
    for shift in range(len(q) - 1, -1, -1):
        lead = r[shift + nb - 1] % p
        if lead:
            coeff = lead * inv_lead % p
            q[shift] = coeff
            neg = p - coeff  # subtract coeff * b by adding neg * b
            for i, y in enumerate(low, shift):
                r[i] += neg * y
    return tuple(q), ipoly_trim([x % p for x in r[:nb - 1]])


def ipoly_gcd(a, b, p):
    while b:
        if len(b) == 1:
            return (1,)
        a, b = b, ipoly_divmod(a, b, p)[1]
    if not a:
        return ()
    return ipoly_scale(a, pow(a[-1], p - 2, p), p)  # monic


def ipoly_pow(a, n, p):
    result = (1,)
    base = a
    while n:
        if n & 1:
            result = ipoly_mul(result, base, p)
        base = ipoly_mul(base, base, p)
        n >>= 1
    return result


def ipoly_from_index(k, p):
    """Deterministic enumeration of F_p[t]: base-p digits of k as coefficients."""
    digits = []
    while k:
        digits.append(k % p)
        k //= p
    return ipoly_trim(digits)


def iter_ipolys(p, max_deg):
    """All polynomials in F_p[t] of degree <= max_deg, in index order."""
    for k in range(p ** (max_deg + 1)):
        yield ipoly_from_index(k, p)


# Miller-Rabin with the first 13 primes as bases is exact for every n
# below MAX_PRIME (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_PRIME = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin; CapabilityError at or above MAX_PRIME."""
    if n >= MAX_PRIME:
        raise CapabilityError(f"{n} exceeds the bound {MAX_PRIME} of the "
                              f"deterministic primality test")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------


class FieldElement:
    """An element of some field handle; thin wrapper giving operator syntax."""

    __slots__ = ("field", "rep")

    def __init__(self, field, rep):
        self.field = field
        self.rep = rep

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatchError(
                    f"elements of {self.field} and {other.field}")
            return other
        if isinstance(other, int):
            return self.field.element(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field._add(self.rep, other.rep))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field._sub(self.rep, other.rep))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return FieldElement(self.field, self.field._neg(self.rep))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field._mul(self.rep, other.rep))

    __rmul__ = __mul__

    def inverse(self):
        return FieldElement(self.field, self.field._inv(self.rep))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = None
        base = self
        while n:    # as Poly.__pow__: no product by one, no spare square
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return self.field.one if result is None else result

    def is_zero(self):
        return self.rep == self.field._zero

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.element(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.rep == other.rep

    def __hash__(self):
        return hash((self.field, self.rep))

    def __repr__(self):
        return self.field.format_element(self)


class FieldHandle:
    """The protocol of a field handle.  A subclass sets the reps _zero
    and _one, characteristic and absolute_degree (the degree over F_p or
    F_p(t)), and defines element, _add, _sub, _neg, _mul, _inv and
    format_element; a field of a tower also has base, the root of the
    tower.  Equality is identity unless a subclass says otherwise."""

    @property
    def zero(self):
        return FieldElement(self, self._zero)

    @property
    def one(self):
        return FieldElement(self, self._one)


class BaseField(FieldHandle):
    """F_p or F_p(t), the root of a tower, equal to every handle of the
    same kind and p."""

    absolute_degree = 1

    def __init__(self, p):
        if not _is_prime(p):
            raise InputError(f"{p} is not prime")
        self.p = self.characteristic = p

    @property
    def base(self):     # a property: self.base = self would be a cycle
        return self

    def __eq__(self, other):
        return type(other) is type(self) and other.p == self.p

    def __hash__(self):
        return hash((self.kind, self.p))


class PrimeField(BaseField):
    """The prime field F_p; element representation is an int in [0, p)."""

    kind = "prime"
    _zero, _one = 0, 1

    def __repr__(self):
        return f"F{self.p}"

    def element(self, x):
        if isinstance(x, FieldElement):
            if x.field != self:
                raise FieldMismatchError(f"{x.field} element into {self}")
            return x
        if isinstance(x, int):
            return FieldElement(self, x % self.p)
        raise TypeError(f"cannot build {self} element from {x!r}")

    def _add(self, a, b):
        return (a + b) % self.p

    def _sub(self, a, b):
        return (a - b) % self.p

    def _neg(self, a):
        return (-a) % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    def _inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of 0 in {self}")
        return pow(a, self.p - 2, self.p)

    def format_element(self, a):
        return str(a.rep)


class RatFunc(NamedTuple):
    """Reduced fraction num/den of F_p[t] polynomials; den monic."""

    num: tuple
    den: tuple


_RAT_ZERO = RatFunc((), (1,))
_RAT_ONE = RatFunc((1,), (1,))


class RationalFunctionField(BaseField):
    """The rational function field F_p(t)."""

    kind = "rational_function"
    _zero, _one = _RAT_ZERO, _RAT_ONE

    def __repr__(self):
        return f"F{self.p}(t)"

    def normalize(self, num, den):
        p = self.p
        num = ipoly_trim(num)
        den = ipoly_trim(den)
        if not den:
            raise ZeroDivisionError("zero denominator in F_p(t)")
        if not num:
            return _RAT_ZERO
        if den == (1,):
            return RatFunc(num, (1,))
        g = ipoly_gcd(num, den, p)
        num = ipoly_divmod(num, g, p)[0]
        den = ipoly_divmod(den, g, p)[0]
        inv_lead = pow(den[-1], p - 2, p)
        return RatFunc(ipoly_scale(num, inv_lead, p),
                       ipoly_scale(den, inv_lead, p))

    @property
    def t(self):
        return FieldElement(self, RatFunc((0, 1), (1,)))

    def element(self, x):
        if isinstance(x, FieldElement):
            if x.field != self:
                raise FieldMismatchError(f"{x.field} element into {self}")
            return x
        if isinstance(x, int):
            v = x % self.p
            return FieldElement(self, RatFunc((v,) if v else (), (1,)))
        if isinstance(x, RatFunc):
            return FieldElement(self, x)
        if isinstance(x, tuple):
            return FieldElement(self, self.normalize(x, (1,)))
        raise TypeError(f"cannot build {self} element from {x!r}")

    # _add and _mul follow Henrici's rule (module docstring)

    def _add(self, a, b):
        if not a.num:
            return b
        if not b.num:
            return a
        p = self.p
        ad, bd = a.den, b.den
        if ad == bd:
            num = ipoly_add(a.num, b.num, p)
            return RatFunc(num, ad) if len(ad) == 1 else self.normalize(num, ad)
        num = ipoly_add(ipoly_mul(a.num, bd, p), ipoly_mul(b.num, ad, p), p)
        den = ipoly_mul(ad, bd, p)
        if ipoly_gcd(ad, bd, p) == (1,):  # as when one of them is 1
            return RatFunc(num, den)
        return self.normalize(num, den)

    def _sub(self, a, b):
        if not b.num:
            return a
        return self._add(a, RatFunc(ipoly_neg(b.num, self.p), b.den))

    def _neg(self, a):
        return RatFunc(ipoly_neg(a.num, self.p), a.den)

    def _mul(self, a, b):
        an, bn = a.num, b.num
        if not an or not bn:
            return _RAT_ZERO
        p = self.p
        ad, bd = a.den, b.den
        if len(ad) == 1 and len(bd) == 1:
            return RatFunc(ipoly_mul(an, bn, p), ad)
        # cancel the cross gcds; a scalar of F_p has none, and ipoly_mul
        # scales by it
        if len(an) > 1 and len(bd) > 1:
            g = ipoly_gcd(an, bd, p)
            if g != (1,):
                an, bd = ipoly_divmod(an, g, p)[0], ipoly_divmod(bd, g, p)[0]
        if len(bn) > 1 and len(ad) > 1:
            g = ipoly_gcd(bn, ad, p)
            if g != (1,):
                bn, ad = ipoly_divmod(bn, g, p)[0], ipoly_divmod(ad, g, p)[0]
        return RatFunc(ipoly_mul(an, bn, p), ipoly_mul(ad, bd, p))

    def _inv(self, a):
        if not a.num:
            raise ZeroDivisionError(f"inverse of 0 in {self}")
        return self.normalize(a.den, a.num)

    def height(self, a):
        """max(deg num, deg den); height of 0 is 0."""
        a = self.element(a)
        return max(ipoly_deg(a.rep.num), ipoly_deg(a.rep.den), 0)

    def iter_poly_elements(self, max_deg):
        """Elements that are polynomials in t of degree <= max_deg, index order."""
        for c in iter_ipolys(self.p, max_deg):
            yield FieldElement(self, RatFunc(c, (1,)))

    def scalar_by_index(self, k):
        """k-th element of the deterministic candidate sequence 0,1,...,t,t+1,..."""
        return FieldElement(self, RatFunc(ipoly_from_index(k, self.p), (1,)))

    def format_element(self, a):
        num = format_ipoly(a.rep.num, "t")
        if a.rep.den == (1,):
            return num
        den = format_ipoly(a.rep.den, "t")
        if ipoly_deg(a.rep.num) > 0:
            num = f"({num})"
        if ipoly_deg(a.rep.den) > 0:
            den = f"({den})"
        return f"{num}/{den}"


def format_ipoly(c, var):
    if not c:
        return "0"
    parts = []
    for i in range(len(c) - 1, -1, -1):
        v = c[i]
        if v == 0:
            continue
        if i == 0:
            parts.append(str(v))
        elif i == 1:
            parts.append(f"{v}*{var}" if v != 1 else var)
        else:
            parts.append(f"{v}*{var}^{i}" if v != 1 else f"{var}^{i}")
    return " + ".join(parts)
