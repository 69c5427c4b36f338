"""Simple extensions K[x]/(f), towers thereof, and subfields as K-spans.

Towers stay nested: an element of a stage is a coordinate tuple over the
parent stage, fully reduced modulo the stage minimal polynomial.  The
flattened coordinate vector over the root base field (product power
basis) feeds all linear algebra.  A finite stage with a table of
discrete logarithms (one per chain of minimal polynomials, _LOG_TABLES)
adds and multiplies its reps through it: sums by Zech logarithms,
products by adding logarithms.
"""

from __future__ import annotations

import functools
import itertools

from .basefields import FieldElement, FieldHandle
from .errors import (FieldMismatchError, InputError, PropertyViolation,
                     ReducibleError)
from .linalg import SpanBuilder
from .poly import Poly, poly_bezout

# The largest order q of a finite stage that gets a table of discrete
# logarithms: the order of the largest corpus field, gf4096.
LOG_TABLE_MAX_ORDER = 4096

# The LogTable of every table built in this process, keyed by the stage's
# _table_key: stages with the same chain of minimal polynomials have the
# same reps, so a table is built and certified once and shared.
_LOG_TABLES = {}


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class LogTable:
    """The discrete logarithms of a finite field F_q, built and certified
    once per chain of minimal polynomials (_LOG_TABLES) and shared by the
    stages that have that chain.

    exp[k] = g^k for a generator g of the q - 1 units, and exp[q - 1] = 0;
    log inverts exp, with q - 1 standing for zero; zech[k] = log(1 + g^k)
    for k < q - 1.  on_logs holds add, sub, neg, mul and inv on
    logarithms: a product adds logarithms and a sum goes through zech.
    These are the only Zech sums.  on_reps holds the same operations on
    reps: each looks up the logarithms, combines them and reads exp.
    """

    def __init__(self, exp, log, zech, p):
        self.exp, self.log, self.zech = exp, log, zech
        m = len(zech)
        minus = 0 if p == 2 else m // 2     # the log of -1

        def add(a, b):
            if a == m or b == m:
                return b if a == m else a
            k = zech[(b - a) % m]
            return m if k == m else (a + k) % m

        def sub(a, b):      # a + (-1) * b in one step
            if a == m or b == m:
                return a if b == m else (b + minus) % m
            k = zech[(b + minus - a) % m]
            return m if k == m else (a + k) % m

        def inv(a):
            if a == m:
                raise ZeroDivisionError(f"inverse of 0 in F_{m + 1}")
            return -a % m

        def neg(a):
            return a if a == m else (a + minus) % m

        def mul(a, b):
            return m if a == m or b == m else (a + b) % m

        self.on_logs = add, sub, neg, mul, inv
        self.on_reps = (lambda a, b: exp[add(log[a], log[b])],
                        lambda a, b: exp[sub(log[a], log[b])],
                        lambda a: exp[neg(log[a])],
                        lambda a, b: exp[mul(log[a], log[b])],
                        lambda a: exp[inv(log[a])])


class ExtensionField(FieldHandle):
    """A simple extension parent[x]/(minpoly), one stage of a tower.

    The caller certifies minpoly irreducible over parent first:
    parse.make_extension by is_irreducible, the splitting field's builder and
    the point fields by a factorization or Ben-Or's test.  Should it be
    reducible after all, an inverse that meets a factor raises
    ReducibleError, and a log table fails its certificate
    (PropertyViolation).

    A stage F_q over a prime base with q <= LOG_TABLE_MAX_ORDER adds,
    subtracts, multiplies and inverts by discrete logarithms once it has
    done q - 1 schoolbook products, the cost of building the table, or at
    once when a stage with the same chain of minimal polynomials built it
    before (_LOG_TABLES), or when factoring or root finding over it builds
    its values (points.PointValues).  A sum then goes through the table's
    Zech logarithms.  Until then, and on every other stage, sums are
    taken coordinatewise and products are schoolbook.
    """

    kind = "extension"

    def __init__(self, parent, gen_name, minpoly):
        if not minpoly.is_monic() or minpoly.degree < 2:
            raise InputError("stage minimal polynomial must be monic of degree >= 2")
        if minpoly.field != parent:
            raise FieldMismatchError("minpoly coefficients not in the parent field")
        self.parent = parent
        self.gen_name = gen_name
        self.minpoly = minpoly
        self.degree_over_parent = minpoly.degree
        self.characteristic = parent.characteristic
        self.base = parent.base
        self.absolute_degree = parent.absolute_degree * minpoly.degree
        self._zero = (parent._zero,) * minpoly.degree
        self._one = (parent._one,) + self._zero[1:]
        # x^n = sum of -m_i x^i mod minpoly: (i, rep of -m_i) for m_i != 0
        self._reduction = [(i, parent._neg(c))
                           for i, c in enumerate(minpoly.reps[:-1])
                           if c != parent._zero]
        # on a stage that gets a table: the q - 1 units, and the schoolbook
        # products left before the table is built; None on any other stage
        self._units = self._products_left = None
        self._table = None
        # minimal_polynomial's memo by rep; a stage over K has its generator's
        self._minpolys = {} if parent.kind == "extension" else \
            {self.generator.rep: minpoly}
        if self.base.kind == "prime":
            q = self.characteristic ** self.absolute_degree
            if q <= LOG_TABLE_MAX_ORDER:
                self._units = q - 1
                table = _LOG_TABLES.get(self._table_key())
                if table is None:
                    self._products_left = q - 1
                else:
                    self._use_table(table)

    def __repr__(self):
        return f"{self.parent!r}({self.gen_name})"

    # identity-based equality: each make_extension call yields a new field

    @property
    def generator(self):
        reps = list(self._zero)
        reps[1] = self.parent._one
        return FieldElement(self, tuple(reps))

    def element(self, x):
        if isinstance(x, FieldElement):
            if x.field == self:
                return x
            if is_ancestor(x.field, self):
                return lift(x, self)
            raise FieldMismatchError(f"{x.field} element into {self}")
        if isinstance(x, int):
            return lift(self.base.element(x), self)
        if isinstance(x, tuple):
            if len(x) != self.degree_over_parent:
                raise InputError("coordinate tuple of wrong length")
            return FieldElement(self, tuple(self.parent.element(c).rep for c in x))
        raise TypeError(f"cannot build {self} element from {x!r}")

    # -- rep <-> Poly over parent -------------------------------------------

    def _to_poly(self, rep):
        return Poly._from_reps(self.parent, rep)

    def _from_poly(self, f):
        reps = (f % self.minpoly).reps
        return reps + self._zero[len(reps):]

    # the sums of a stage without a table, which build its Zech table
    def _add(self, a, b):
        return tuple(map(self.parent._add, a, b))

    def _sub(self, a, b):
        return tuple(map(self.parent._sub, a, b))

    def _neg(self, a):
        return tuple(map(self.parent._neg, a))

    def _schoolbook(self, a, b):
        """Schoolbook product of the reps, reduced by the monic minpoly."""
        P = self.parent
        zero = P._zero
        n = self.degree_over_parent
        out = [zero] * (2 * n - 1)
        for i, x in enumerate(a):
            if x == zero:
                continue
            for j, y in enumerate(b):
                if y != zero:
                    out[i + j] = P._add(out[i + j], P._mul(x, y))
        for k in range(2 * n - 2, n - 1, -1):
            c = out[k]
            if c != zero:
                for i, neg_m in self._reduction:
                    out[k - n + i] = P._add(out[k - n + i], P._mul(c, neg_m))
        return tuple(out[:n])

    def _mul(self, a, b):
        """The product of a stage without a table: schoolbook.  A stage
        that gets one counts its products down and then builds it, and
        _use_table's product on the instance takes over."""
        if self._products_left is not None:
            if not self._products_left:
                self.log_tables()
                return self._mul(a, b)
            self._products_left -= 1
        return self._schoolbook(a, b)

    def _inv(self, a):
        if a == self._zero:
            raise ZeroDivisionError(f"inverse of 0 in {self}")
        g, inv = poly_bezout(self._to_poly(a), self.minpoly)
        if g.degree != 0:
            raise ReducibleError(
                f"minpoly of {self!r} is reducible: gcd {g!r}")
        return self._from_poly(inv)

    def log_tables(self):
        """The LogTable of this finite field F_q, built now if need be, or
        None on a stage that gets no table.  Its generator g is the first
        element in iter_elements order whose powers g^((q - 1)/r) differ
        from 1 for every prime r | q - 1; zech is read off the powers by
        one coordinatewise sum each.
        """
        if self._table is None and self._units is not None:
            powers = [self._units // r for r in _prime_divisors(self._units)]
            g = next(g.rep for g in iter_elements(self)
                     if g.rep != self._zero and all(
                         self._power(g.rep, e) != self._one for e in powers))
            exp, log = self._power_table(g)
            zech = [log[self._add(self._one, r)] for r in exp[:-1]]
            table = _LOG_TABLES[self._table_key()] = \
                LogTable(exp, log, zech, self.characteristic)
            self._use_table(table)
        return self._table

    def _use_table(self, table):
        """Compute through the table from now on."""
        self._table = table
        self._add, self._sub, self._neg, self._mul, self._inv = table.on_reps

    def _table_key(self):
        """p and the reps of the minimal polynomials of the stages up to
        this one, which fix the field and the reps of its elements."""
        return self.characteristic, tuple(
            stage.minpoly.reps for stage in extension_stages(self))

    def _power_table(self, g):
        """(exp, log) from the powers of g by schoolbook products;
        PropertyViolation unless g generates the q - 1 units.  The powers
        share one object per distinct coordinate, which keeps a table of
        nested tuples small."""
        units = self._units
        coords = {}
        exp = [self._one]
        for _ in range(units - 1):
            power = self._schoolbook(exp[-1], g)
            exp.append(tuple(coords.setdefault(c, c) for c in power))
        log = {r: k for k, r in enumerate(exp)}
        if len(log) != units or self._zero in log:
            raise PropertyViolation(
                f"{len(log)} distinct powers of a generator of the "
                f"{units} units of {self!r}")
        exp.append(self._zero)
        log[self._zero] = units
        return exp, log

    def _power(self, a, e):
        """a^e by schoolbook square-and-multiply."""
        out = self._one
        while e:
            if e & 1:
                out = self._schoolbook(out, a)
            a = self._schoolbook(a, a)
            e >>= 1
        return out

    def format_element(self, a):
        f = self._to_poly(a.rep)
        if f.is_zero():
            return "0"
        parts = []
        for i in range(f.degree, -1, -1):
            c = f.coefficient(i)
            if c.is_zero():
                continue
            cs = repr(c)
            g = self.gen_name if i == 1 else f"{self.gen_name}^{i}"
            if i == 0:
                parts.append(cs)
            elif c == self.parent.one:
                parts.append(g)
            else:
                if any(op in cs for op in (" + ", " - ", "/", "*")):
                    cs = f"({cs})"
                parts.append(f"{cs}*{g}")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# tower navigation


def tower_stages(field):
    """Stage handles from the root base up to (and including) this field."""
    chain = []
    while field.kind == "extension":
        chain.append(field)
        field = field.parent
    chain.append(field)
    return list(reversed(chain))


def extension_stages(field):
    """The extension stages of a tower, bottom up, without the root base."""
    return tower_stages(field)[1:]


def stage_generators(field):
    """The generator of every extension stage, lifted into the field."""
    return [lift(s.generator, field) for s in extension_stages(field)]


def is_ancestor(candidate, field):
    """True if candidate is field itself or one of its tower parents."""
    while True:
        if field == candidate:
            return True
        if field.kind != "extension":
            return False
        field = field.parent


def lift(a, target):
    """Include an element of an ancestor stage into the target field."""
    if a.field == target:
        return a
    if not is_ancestor(a.field, target):
        raise FieldMismatchError(f"{a.field} is not a stage of {target}")
    chain = []
    f = target
    while f != a.field:
        chain.append(f)
        f = f.parent
    return FieldElement(target, _lift_rep(a.rep, chain))


def _lift_rep(rep, chain):
    """The rep of an element of the parent of chain[-1] in chain[0], for a
    chain of stages listed top down."""
    for stage in reversed(chain):
        rep = (rep,) + stage._zero[1:]
    return rep


def lift_poly(f, target):
    """Lift a polynomial's coefficients into an extension of its field."""
    if f.field == target:
        return f
    if not is_ancestor(f.field, target):
        raise FieldMismatchError(f"{f.field} is not a stage of {target}")
    chain = tower_stages(target)[len(tower_stages(f.field)):][::-1]
    return Poly._from_reps(target, [_lift_rep(r, chain) for r in f.reps])


def poly_eval(f, a):
    """Evaluate f at a point whose field extends f's coefficient field."""
    if a.field != f.field:
        f = lift_poly(f, a.field)
    return f.eval(a)


def flatten(a):
    """Coordinates of a over the root base field (product power basis)."""
    base = a.field.base
    return tuple(FieldElement(base, r) for r in _flat_reps(a.field, a.rep))


def _flat_reps(field, rep):
    """The reps of the base coordinates of the rep of an element of field."""
    out = [rep]
    while field.kind == "extension":
        out = [c for r in out for c in r]
        field = field.parent
    return out


def unflatten(field, vec):
    """Inverse of flatten: base coordinates -> tower element."""
    return FieldElement(field, _nest_reps(field, [c.rep for c in vec]))


def _nest_reps(field, reps):
    """Inverse of _flat_reps: the rep of the element of field with the
    given base coordinate reps."""
    for stage in extension_stages(field):
        d = stage.degree_over_parent
        reps = [tuple(reps[i:i + d]) for i in range(0, len(reps), d)]
    return reps[0]


def power_basis(field):
    """The product power basis of a tower: unflatten of each unit vector."""
    base = field.base
    n = field.absolute_degree
    return [unflatten(field, [base.one if j == k else base.zero
                              for j in range(n)])
            for k in range(n)]


def iter_elements(field):
    """All elements of a finite tower over F_p, in coordinate-lex order."""
    base = field.base
    if base.kind != "prime":
        raise InputError(f"{field} is not finite")
    p, n = base.p, field.absolute_degree
    for k in range(p ** n):  # k's base-p digits, most significant first
        yield unflatten(field, [base.element(k // p ** i % p)
                                for i in reversed(range(n))])


def iter_bounded_elements(field, max_t_deg):
    """The elements of a tower over F_p(t) whose base coordinates are
    polynomials in t of degree <= max_t_deg, in coordinate-lex order."""
    coords_pool = list(field.base.iter_poly_elements(max_t_deg))
    for coords in itertools.product(coords_pool, repeat=field.absolute_degree):
        yield unflatten(field, coords)


def bounded_count(field, max_t_deg):
    """The number of elements iter_bounded_elements yields."""
    return field.characteristic ** ((max_t_deg + 1) * field.absolute_degree)


# ---------------------------------------------------------------------------
# minimal polynomials and subfields


def minimal_polynomial(a):
    """Monic minimal polynomial of a over the root base K.

    Found by one exact elimination over K.  Each power a^k carries its
    unit vector in further columns; the first that reduces to zero
    against the rows of the lower powers holds the monic relation
    a^k = sum c_i a^i in those columns.  The answer is kept on the
    lowest stage that holds a (its _minpolys), found by walking down while
    its coordinates above the first are zero: a stage generator and its
    lifts into every field above share one entry.  A stage directly over
    K holds its generator's entry from the start, the stage polynomial
    that its caller certified irreducible, so that needs no elimination.
    """
    field, rep = a.field, a.rep
    while field.kind == "extension" and rep[1:] == field._zero[1:]:
        field, rep = field.parent, rep[0]
    memo = field._minpolys if field.kind == "extension" else {}
    if rep in memo:
        return memo[rep]
    base = field.base
    n = field.absolute_degree
    zero, one = base._zero, base._one
    sb = SpanBuilder(base, n)
    current = field._one
    for k in range(n + 1):
        unit = [zero] * (n + 1)
        unit[k] = one
        v = sb._reduce(_flat_reps(field, current) + unit)
        if not sb._insert(v):
            break
        current = field._mul(current, rep)
    else:
        raise PropertyViolation("no linear dependence within the degree bound")
    memo[rep] = mp = Poly._from_reps(base, v[n:])
    return mp


class Subfield:
    """Intermediate field of ambient/base, given by generators.

    The basis is a K-basis of K[generators], the smallest subfield
    containing the generators.  It starts with 1 and each generator that
    enlarges the span, and is closed by the first of three routes that
    applies:
    - at most one generator g: its powers, until one is dependent,
      which is d - 1 products for g of degree d;
    - several: S = span(1, generators) is already the field K[g] when
      its dimension divides [E : K] and some independent generator g has
      powers that stay in S and span it, and it is E when its dimension
      is [E : K]; no pair is multiplied;
    - otherwise: rounds that multiply the pairs of the current elements
      until the span stabilizes.
    The SpanBuilder of the span is kept for membership tests.

    field_generators generates the subfield as a K-algebra, so two
    embeddings agree on it exactly when they agree on these elements:
    the given generators when there is at most one, with no closure
    built; otherwise the certifying g, or else the independent
    generators.
    """

    def __init__(self, ambient, generators):
        self.ambient = ambient
        self.generators = [ambient.element(g) for g in generators]

    @property
    def basis(self):
        return self._closure[0]

    @property
    def field_generators(self):
        if len(self.generators) <= 1:
            return self.generators
        return self._closure[2]

    @functools.cached_property
    def _closure(self):
        """(basis, the SpanBuilder of its flattened coordinates, field
        generators)."""
        field = self.ambient
        sb = SpanBuilder(field.base, field.absolute_degree)
        elems = []

        def try_add(e):
            if sb.add(flatten(e)):
                elems.append(e)
                return True
            return False

        try_add(field.one)
        for g in self.generators:
            try_add(g)
        gens = elems[1:]
        if len(self.generators) <= 1:
            for g in gens:      # none when the generators lie in K
                while try_add(elems[-1] * g):
                    pass
            return elems, sb, gens
        if field.absolute_degree % len(elems) == 0:
            for g in gens:
                dim = _power_span_dim(g, sb)
                if dim is None:       # a power leaves S: S is no field
                    break
                if dim == len(elems):
                    return elems, sb, [g]
            if len(elems) == field.absolute_degree:     # S = E
                return elems, sb, gens
        # each round multiplies the pairs of the current elements, skipping
        # the pairs of the previous round's elements and mirrored pairs:
        # those products already lie in the span
        old = 0
        while old < len(elems):
            snapshot = list(elems)
            for i, x in enumerate(snapshot):
                for y in snapshot[max(i, old):]:
                    try_add(x * y)
            old = len(snapshot)
        return elems, sb, gens

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, a):
        return self._closure[1].contains(flatten(self.ambient.element(a)))

    def same_as(self, other):
        if other.ambient != self.ambient or other.dim != self.dim:
            return False
        return all(other.contains(b) for b in self.basis)

    def __repr__(self):
        gens = ", ".join(repr(g) for g in self.generators)
        return f"Subfield(<{gens}>)"


def _power_span_dim(g, sb):
    """The dimension of K[g] when every power of g lies in the span of
    sb, else None; deg(g) - 1 products, or fewer when a power leaves."""
    field = g.field
    powers = SpanBuilder(field.base, field.absolute_degree)
    powers.add(flatten(field.one))
    powers.add(flatten(g))
    x = g
    while True:
        x = x * g
        v = flatten(x)
        if not sb.contains(v):
            return None
        if not powers.add(v):
            return len(powers.rows)


def base_subfield(ambient):
    """The root base field K viewed as a subfield of the ambient tower."""
    return Subfield(ambient, [])


def full_subfield(ambient):
    """The ambient field E viewed as a subfield of itself."""
    return Subfield(ambient, stage_generators(ambient))
