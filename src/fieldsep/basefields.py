"""Base coefficient fields: F_p and the rational function field F_p(t).

Elements of F_p are canonical residues in [0, p).  Elements of F_p(t) are
reduced fractions of polynomials in t, held as low-to-high coefficient
tuples of ints; the denominator is monic and coprime to the numerator, so
equality is structural.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import CapabilityError, FieldMismatchError, InputError

# ---------------------------------------------------------------------------
# F_p[t] arithmetic on int coefficient tuples (low-to-high, canonical mod p)


def ipoly_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def ipoly_deg(c):
    return len(c) - 1  # -1 for the zero polynomial


def ipoly_add(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] = x
    for i, x in enumerate(b):
        out[i] = (out[i] + x) % p
    return ipoly_trim(out)


def ipoly_neg(a, p):
    return tuple((-x) % p for x in a)


def ipoly_sub(a, b, p):
    return ipoly_add(a, ipoly_neg(b, p), p)


def ipoly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return ipoly_trim(out)


def ipoly_scale(a, s, p):
    s %= p
    return ipoly_trim(tuple((x * s) % p for x in a))


def ipoly_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
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
    return ipoly_trim(q), ipoly_trim(a)


def ipoly_gcd(a, b, p):
    while b:
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


def ipoly_pth_root(a, p):
    """Return r with r^p = a if all exponents of a are divisible by p, else None.

    Coefficientwise Frobenius on F_p is the identity, so the root is just
    exponent division.
    """
    if not a:
        return ()
    for i, x in enumerate(a):
        if x != 0 and i % p != 0:
            return None
    return ipoly_trim(tuple(a[i] for i in range(0, len(a), p)))


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
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_zero(self):
        return self.rep == self.field._zero_rep()

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.element(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.rep == other.rep

    def __hash__(self):
        return hash((id(self.field) if self.field.kind == "extension"
                     else (self.field.kind, self.field.characteristic),
                     self.rep))

    def __repr__(self):
        return self.field.format_element(self)


class PrimeField:
    """The prime field F_p; element representation is an int in [0, p)."""

    kind = "prime"

    def __init__(self, p):
        if not _is_prime(p):
            raise InputError(f"{p} is not prime")
        self.p = p

    @property
    def characteristic(self):
        return self.p

    @property
    def base(self):
        return self

    @property
    def absolute_degree(self):
        return 1

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"F{self.p}"

    def _zero_rep(self):
        return 0

    def _one_rep(self):
        return 1

    @property
    def zero(self):
        return FieldElement(self, 0)

    @property
    def one(self):
        return FieldElement(self, 1)

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

    def pth_root(self, a):
        """In F_p every element is its own p-th root (x^p = x)."""
        return self.element(a)

    def iter_elements(self):
        for v in range(self.p):
            yield FieldElement(self, v)

    def format_element(self, a):
        return str(a.rep)


class RatFunc(NamedTuple):
    """Reduced fraction num/den of F_p[t] polynomials; den monic."""

    num: tuple
    den: tuple


_RAT_ZERO = RatFunc((), (1,))
_RAT_ONE = RatFunc((1,), (1,))


class RationalFunctionField:
    """The rational function field F_p(t)."""

    kind = "rational_function"

    def __init__(self, p):
        if not _is_prime(p):
            raise InputError(f"{p} is not prime")
        self.p = p

    @property
    def characteristic(self):
        return self.p

    @property
    def base(self):
        return self

    @property
    def absolute_degree(self):
        return 1

    def __eq__(self, other):
        return isinstance(other, RationalFunctionField) and other.p == self.p

    def __hash__(self):
        return hash(("ratfunc", self.p))

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

    def _zero_rep(self):
        return _RAT_ZERO

    def _one_rep(self):
        return _RAT_ONE

    @property
    def zero(self):
        return FieldElement(self, _RAT_ZERO)

    @property
    def one(self):
        return FieldElement(self, _RAT_ONE)

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

    def _add(self, a, b):
        p = self.p
        if a.den == (1,) and b.den == (1,):
            return RatFunc(ipoly_add(a.num, b.num, p), (1,))
        num = ipoly_add(ipoly_mul(a.num, b.den, p), ipoly_mul(b.num, a.den, p), p)
        return self.normalize(num, ipoly_mul(a.den, b.den, p))

    def _sub(self, a, b):
        return self._add(a, self._neg(b))

    def _neg(self, a):
        return RatFunc(ipoly_neg(a.num, self.p), a.den)

    def _mul(self, a, b):
        p = self.p
        if a.den == (1,) and b.den == (1,):
            return RatFunc(ipoly_mul(a.num, b.num, p), (1,))
        return self.normalize(ipoly_mul(a.num, b.num, p),
                              ipoly_mul(a.den, b.den, p))

    def _inv(self, a):
        if not a.num:
            raise ZeroDivisionError(f"inverse of 0 in {self}")
        return self.normalize(a.den, a.num)

    def pth_root(self, a):
        """Return the p-th root as a FieldElement, or None if a is not in F_p(t)^p."""
        a = self.element(a)
        r = a.rep
        if not r.num:
            return self.zero
        p = self.p
        # a = (num * den^(p-1)) / den^p and den^p is always a p-th power.
        shifted = ipoly_mul(r.num, ipoly_pow(r.den, p - 1, p), p)
        root_num = ipoly_pth_root(shifted, p)
        if root_num is None:
            return None
        return FieldElement(self, self.normalize(root_num, r.den))

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
