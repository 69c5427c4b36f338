"""Parsing of polynomial expressions and tower specification files.

A tower file declares its base field, then extension stages and optional
named elements:

    base FpT 3
    gen s : x^2 - t
    gen u : x^2 - (t + 1)
    elem g = s + u

Expressions use integer literals, the indeterminate x, the base variable
t (rational-function bases only), previously declared generator and
element names, parentheses, unary minus, and the operators + - * ^.
"""

from __future__ import annotations

import re

from .basefields import PrimeField, RationalFunctionField
from .errors import (CapabilityError, HeightBoundExceeded, InputError,
                     ReducibleError)
from .factor import is_irreducible
from .poly import Poly
from .towers import ExtensionField, flatten, lift

# degree budget: no polynomial power, and no tower, above this degree
MAX_DEGREE = 64

# t-degree budget on the coefficients of a gen line's polynomial
DEFAULT_HEIGHT_BOUND = 6

_TOKEN_RE = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|\*\*|[()+\-*^])")


def tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise InputError(f"unexpected character {text[pos:].strip()[0]!r}")
            break
        tok = m.group(1)
        tokens.append("^" if tok == "**" else tok)
        pos = m.end()
    return tokens


class _ExprParser:
    """Recursive descent over + - * ^ with standard precedence.

    Values are polynomials in x over the current field; names resolve
    through the supplied symbol table of field elements.
    """

    def __init__(self, tokens, field, names):
        self.tokens = tokens
        self.pos = 0
        self.field = field
        self.names = names

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise InputError("unexpected end of expression")
        self.pos += 1
        return tok

    def parse(self):
        value = self.sum()
        if self.peek() is not None:
            raise InputError(f"trailing input at {self.peek()!r}")
        return value

    def sum(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.power()
        while self.peek() == "*":
            self.take()
            value = value * self.power()
        return value

    def power(self):
        value = self.atom()
        if self.peek() == "^":
            self.take()
            tok = self.take()
            if not tok.isdigit():
                raise InputError(f"exponent must be a nonnegative integer, got {tok!r}")
            exponent = int(tok)
            if value.degree * exponent > MAX_DEGREE:
                raise CapabilityError(
                    f"degree {value.degree} * {exponent} of a power exceeds "
                    f"the degree bound {MAX_DEGREE}")
            value = value ** exponent
        return value

    def atom(self):
        tok = self.take()
        if tok == "(":
            value = self.sum()
            if self.take() != ")":
                raise InputError("unbalanced parentheses")
            return value
        if tok == "-":
            return -self.atom()
        if tok.isdigit():
            return Poly.constant(self.field.element(int(tok)))
        if tok == "x":
            return Poly.x(self.field)
        if tok == "t":
            base = self.field.base
            if base.kind != "rational_function":
                raise InputError("t is only defined over a rational-function base")
            return Poly.constant(lift(base.t, self.field))
        if tok in self.names:
            return Poly.constant(self.field.element(self.names[tok]))
        raise InputError(f"unknown name {tok!r}")


def parse_poly(text, field, names=None):
    """A polynomial in x over field from an expression string."""
    return _ExprParser(tokenize(text), field, names or {}).parse()


def parse_element(text, field, names=None):
    """A field element (a degree-0 polynomial expression without x)."""
    f = parse_poly(text, field, names)
    if f.degree > 0:
        raise InputError("expected an element expression without x")
    return f.coefficient(0)


class TowerSpec:
    """A parsed tower file: the top field plus named generators/elements."""

    def __init__(self, field, names):
        self.field = field
        self.names = names

    def element(self, name):
        if name not in self.names:
            raise InputError(f"no element or generator named {name!r}")
        return self.field.element(self.names[name])


def _input_height(f):
    """Largest t-degree among the base coordinates of the coefficients of
    f (0 over F_p)."""
    K = f.field.base
    if K.kind == "prime":
        return 0
    return max(K.height(v) for c in f.coeffs for v in flatten(c))


def make_extension(parent, f, gen_name):
    """Adjoin a root of f, named gen_name, to parent, once is_irreducible
    certifies f, as ExtensionField asks of its caller; a reducible f is
    rejected with the first factor of factor(f)."""
    if not f.is_monic():
        raise InputError("extension polynomial must be monic")
    if f.degree < 2:
        raise InputError("extension polynomial must have degree >= 2")
    ok, certificate = is_irreducible(f)
    if not ok:
        raise ReducibleError(
            f"{f!r} is reducible over {parent!r}: factor {certificate!r}")
    return ExtensionField(parent, gen_name, f)


def parse_tower(text, height_bound=DEFAULT_HEIGHT_BOUND):
    """Build the tower described by a spec file's text.

    The height bound caps the t-degree of the coefficients of each gen
    line's polynomial, and None lifts it.  Exceeding it is a resource
    error, raised before the polynomial's irreducibility is certified;
    elem lines and every polynomial computed later are never gated, so
    raising the bound changes only which files are admitted, never an
    answer.  A negative bound is an input error.
    """
    if height_bound is not None and height_bound < 0:
        raise InputError(f"the height bound must be >= 0, got {height_bound}")
    field = None
    names = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "base":
            if field is not None:
                raise InputError("duplicate base declaration")
            parts = rest.split()
            if len(parts) != 2 or parts[0] not in ("Fp", "FpT") \
                    or not parts[1].isdigit():
                raise InputError(f"malformed base line: {line!r}")
            p = int(parts[1])
            field = PrimeField(p) if parts[0] == "Fp" \
                else RationalFunctionField(p)
        elif head == "gen":
            if field is None:
                raise InputError("gen before base declaration")
            name, sep, expr = rest.partition(":")
            name = name.strip()
            if not sep or not name.isidentifier():
                raise InputError(f"malformed gen line: {line!r}")
            if name in names or name in ("x", "t"):
                raise InputError(f"name {name!r} is already taken")
            f = parse_poly(expr.strip(), field, names)
            if not f.is_monic():
                raise InputError(f"generator polynomial for {name!r} is not monic")
            if field.absolute_degree * f.degree > MAX_DEGREE:
                raise CapabilityError(
                    f"absolute degree {field.absolute_degree * f.degree} of "
                    f"the tower at {name!r} exceeds the degree bound "
                    f"{MAX_DEGREE}")
            # make_extension reports a degree below 2 before the height
            if f.degree >= 2 and height_bound is not None \
                    and (h := _input_height(f)) > height_bound:
                raise HeightBoundExceeded(
                    f"input coefficient t-degree {h} exceeds the height "
                    f"bound {height_bound}")
            field = make_extension(field, f, name)
            for key in names:
                names[key] = lift(names[key], field)
            names[name] = field.generator
        elif head == "elem":
            if field is None:
                raise InputError("elem before base declaration")
            name, sep, expr = rest.partition("=")
            name = name.strip()
            if not sep or not name.isidentifier():
                raise InputError(f"malformed elem line: {line!r}")
            if name in names or name in ("x", "t"):
                raise InputError(f"name {name!r} is already taken")
            names[name] = parse_element(expr.strip(), field, names)
        else:
            raise InputError(f"unknown directive {head!r}")
    if field is None:
        raise InputError("tower file has no base declaration")
    return TowerSpec(field, names)
