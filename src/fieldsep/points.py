"""Finite point fields, their values, and every choice of evaluation point.

The values of a finite field (PointValues: reps, or discrete logarithms
where it has a table) are a field handle for Poly, linalg and the
finite-field routines here, built per use.  The point fields, F_p and
one extension of each degree, are built with their values once per p.
Points are chosen only here: for a point map, for Hensel lifting (the
good point with the fewest local factors) and for a norm grid.

F_p(t) and each tower over it with at most CHEAP_ROOT_CANDIDATES
elements of height 0 get a point map phi into a point field (PointMap),
kept on the field.  phi screens the root scan: a candidate is evaluated
over the tower only when its image is a root of phi(f).  It certifies
squarefree parts and root counts, f being monic: disc phi(f) =
phi(disc f).  A row of a Trager norm's grid certifies the norm the same
way.  A screen drops only non-roots, and a missing map or certificate
falls back to the exact gcd, so every answer is still certified by
exact arithmetic.
"""

from __future__ import annotations

import itertools
import random

from .basefields import FieldElement, FieldHandle, PrimeField
from .errors import FieldMismatchError
from .linalg import SpanBuilder
from .poly import Poly, poly_gcd, poly_pow_mod
from .towers import (LOG_TABLE_MAX_ORDER, ExtensionField, _flat_reps,
                     extension_stages, iter_elements, unflatten)


class PointValues(FieldHandle):
    """The values of a finite field fq, a field handle for Poly, poly_gcd,
    linalg and Cantor-Zassenhaus, built per use; only the point fields
    keep theirs (_finite_point_fields).  encode and decode map reps to
    values and back, ints[v] is the value of the integer v < p, and
    integer(a) is v, or None off F_p.

    Over F_p a value is the rep.  Where fq has a LogTable
    (ExtensionField.log_tables) a value is the logarithm, q - 1 standing
    for zero, and the operations are the table's on_logs: a product adds
    logarithms and a sum goes through its Zech logarithms.  A larger fq,
    or one without a table, computes on its reps.
    """

    def __init__(self, fq):
        self.fq = fq
        self.characteristic = p = fq.characteristic
        self.absolute_degree = fq.absolute_degree
        table = fq.log_tables() if fq.kind == "extension" else None
        if table is None:
            self.encode = self.decode = lambda a: a
            self._add, self._sub, self._neg, self._mul, self._inv = \
                fq._add, fq._sub, fq._neg, fq._mul, fq._inv
        else:
            self.encode, self.decode = table.log.__getitem__, \
                table.exp.__getitem__
            self._add, self._sub, self._neg, self._mul, self._inv = \
                table.on_logs
        if fq.kind == "prime":
            self.ints, self.integer = range(p), self.encode
        else:
            self.ints = [self.encode(fq.element(v).rep) for v in range(p)]
            self.integer = {a: v for v, a in enumerate(self.ints)}.get
        self._zero, self._one = self.ints[0], self.ints[1]

    def encode_poly(self, f):
        """f, a Poly over fq, as a Poly over the values."""
        return Poly._from_reps(self, [self.encode(c) for c in f.reps])

    def decode_poly(self, g):
        """The Poly over fq that g, over the values, encodes."""
        return Poly._from_reps(self.fq, [self.decode(c) for c in g.reps])

    def __repr__(self):
        return f"values of {self.fq!r}"

    def format_element(self, a):
        return self.fq.format_element(FieldElement(self.fq, self.decode(a.rep)))

    def element(self, x):
        if isinstance(x, int):
            return FieldElement(self, self.ints[x % self.characteristic])
        if x.field is not self:
            raise FieldMismatchError(f"{x.field} element into {self}")
        return x

    def at(self, c, a):
        """The integer t-polynomial c, low first, at the value a."""
        add, mul, ints = self._add, self._mul, self.ints
        acc = self._zero
        for v in reversed(c):
            acc = add(mul(acc, a), ints[v])
        return acc


def _random_poly(V, max_deg, rng):
    """Seeded coefficients drawn from the finite field behind the values
    V, coordinate by coordinate, and encoded."""
    fq = V.fq
    base = fq.base
    coeffs = []
    for _ in range(max_deg + 1):
        coords = [base.element(rng.randrange(base.p))
                  for _ in range(fq.absolute_degree)]
        coeffs.append(V.encode(unflatten(fq, coords).rep))
    return Poly._from_reps(V, coeffs)


def _distinct_degree(v):
    """(d, g) for each d at which gcd(x^(q^d) - x, v) = g is not 1, the
    factors of degree d found so far divided out of v first; then (deg w,
    w) for the w that is left once 2d > deg w.  v is monic, over a finite
    field or its values.  For a squarefree v each g is the product of its
    irreducible factors of degree d, and w is irreducible.

    A reducible v, squarefree or not, has an irreducible factor of degree
    at most deg v / 2, which divides x^(q^d) - x for its degree d; so the
    first pair has d = deg v exactly when v is irreducible (Ben-Or).
    """
    field = v.field
    q = field.characteristic ** field.absolute_degree
    h = Poly.x(field)
    d = 0
    while v.degree > 0:
        d += 1
        if v.degree < 2 * d:
            yield v.degree, v
            return
        h = poly_pow_mod(h, q, v)
        g = poly_gcd(h - Poly.x(field), v)
        if g.degree > 0:
            yield d, g
            v = (v // g).monic()
            h = h % v if v.degree > 0 else h


def _irreducible_finite(f):
    """Ben-Or's test of a monic f of degree >= 1 over a finite field or
    its values."""
    return next(_distinct_degree(f))[0] == f.degree


def _factor_squarefree_finite(s, rng):
    return [h for d, g in _distinct_degree(s)
            for h in _equal_degree(g, d, rng)]


def _equal_degree(g, d, rng):
    """Cantor-Zassenhaus splitting of a product of degree-d irreducibles."""
    field = g.field
    p = field.characteristic
    q = p ** field.absolute_degree
    if g.degree == d:
        return [g.monic()]
    while True:
        a = _random_poly(field, g.degree - 1, rng)
        if a.degree < 1 and d > 0 and g.degree > d:
            continue
        if p == 2:
            m = field.absolute_degree
            trace = Poly.zero(field)
            term = a % g
            for _ in range(m * d):
                trace = (trace + term) % g
                term = (term * term) % g
            w = poly_gcd(trace, g) if not trace.is_zero() else Poly.one(field)
        else:
            b = poly_pow_mod(a, (q ** d - 1) // 2, g)
            w = poly_gcd(b - Poly.one(field), g) if not b.is_zero() \
                else Poly.one(field)
        if 0 < w.degree < g.degree:
            rest = (g // w).monic()
            return _equal_degree(w.monic(), d, rng) + _equal_degree(rest, d, rng)


def _roots_finite(f, N):
    """The distinct roots of f over the values N of a finite field, in
    the order Cantor-Zassenhaus splits them off."""
    q = N.characteristic ** N.absolute_degree
    g = f.monic()
    if g.degree == 0:
        return []
    r = poly_gcd(poly_pow_mod(Poly.x(N), q, g) - Poly.x(N), g)
    if r.degree == 0:
        return []
    return [-lin.coefficient(0)
            for lin in _equal_degree(r, 1, random.Random(0))]


_POINT_FIELDS = {}


def _finite_point_fields(p):
    """The values of F_p, then of its extensions of degree 2, 3, ..., the
    point fields, each built once per p and kept for the life of the
    process.  A defining polynomial is the first monic irreducible of its
    degree in coefficient order; a candidate with constant term 0,
    divisible by x, is skipped untested."""
    if p not in _POINT_FIELDS:
        _POINT_FIELDS[p] = [PointValues(PrimeField(p))]
    fields = _POINT_FIELDS[p]
    for k in itertools.count():
        if k == len(fields):
            base, deg = fields[0].fq, k + 1
            for coeffs in itertools.product(range(p), repeat=deg):
                if coeffs[0] == 0:
                    continue
                f = Poly(base, [base.element(v) for v in coeffs] + [base.one])
                if _irreducible_finite(f):
                    fields.append(PointValues(
                        ExtensionField(base, f"z{deg}", f)))
                    break
        yield fields[k]


def _grid_points(p, count):
    """(V, points): the values V of the first point field with at least
    count elements, and its first count elements in iter_elements order."""
    V = next(V for V in _finite_point_fields(p)
             if p ** V.absolute_degree >= count)
    return V, [V.encode(a.rep)
               for a in itertools.islice(iter_elements(V.fq), count)]


def _hensel_point(rows, degree, p):
    """(a, factors of g0): the good point a, where the integer
    t-polynomials rows, monic in x, give a squarefree g0 of the given
    degree, with the fewest monic irreducible factors; a is a value of a
    point field's PointValues, and the factors are Polys over them.

    Good points are tried in order and their factors counted by
    distinct-degree factorization, until as many were tried as the best
    has factors; only its parts are split, by Cantor-Zassenhaus.
    """
    best, tried = None, 0
    for V in _finite_point_fields(p):
        for x in iter_elements(V.fq):
            a = V.encode(x.rep)
            g0 = Poly._from_reps(V, [V.at(r, a) for r in rows])
            if g0.degree != degree or \
                    poly_gcd(g0, g0.formal_derivative()).degree != 0:
                continue
            parts = list(_distinct_degree(g0))
            count = sum(g.degree // d for d, g in parts)
            tried += 1
            if best is None or count < best[0]:
                best = count, a, parts
            if tried >= best[0]:
                rng = random.Random(0)
                return best[1], [h for d, g in best[2]
                                 for h in _equal_degree(g, d, rng)]


# The root scan (factor._cheap_roots) tries the elements of one height
# only while there are at most this many.  A tower gets a point map only
# when its p^n elements of height 0 are within this cap.
CHEAP_ROOT_CANDIDATES = 1_000

# The points a point map's search tries, over all its point fields.
POINT_MAP_TRIES = 8

def point_map(field):
    """The PointMap of F_p(t) or of a tower over it, or None.

    Only the fields whose p^n elements of height 0 number at most
    CHEAP_ROOT_CANDIDATES get one: for F_p(t) itself a larger p has no
    point field of degree >= 2 within LOG_TABLE_MAX_ORDER for the search
    to try.  It is built on first use and kept as an attribute of the
    field; a search that fails within POINT_MAP_TRIES points leaves None,
    and its callers take the exact path.  A map holds point-field values
    and ints only, so the field makes no cycle through it.
    """
    if field.base.kind != "rational_function" or field.characteristic ** \
            field.absolute_degree > CHEAP_ROOT_CANDIDATES:
        return None
    if not hasattr(field, "_point_map"):
        field._point_map = PointMap.search(field)
    return field._point_map


class PointMap:
    """A ring map phi from a tower E over F_p(t) into a finite point field.

    phi sends t to a point a of F_q and each stage generator to a root in
    F_q of its stage minimal polynomial with phi applied to the
    coefficients.  It is defined on the elements whose flat coordinates
    have no pole at a, a ring since no stage minimal polynomial has one.
    Being F_p(t)-linear there, it acts through the images of the product
    power basis, which the search requires to be F_p-independent: the
    elements with coordinates in F_p then have distinct images.  Images
    are values of F_q's PointValues.
    """

    def __init__(self, values, point):
        """The map of F_p(t) itself, t -> point, a value of the point
        field's values; _extend goes up a tower."""
        self.values = values
        self.point = point
        self.images = [self.values._one]

    @classmethod
    def search(cls, field):
        """The map at the first point that works, or None.

        The points are z + c, c = 0, 1, ..., p - 1, for z the generator of
        each point field F_(p^k) with k >= max(n, 2), n = [E : F_p(t)], and
        p^k <= LOG_TABLE_MAX_ORDER, so that its values are logarithms:
        z + c lies in no proper subfield, so it is no root of a t-polynomial
        of degree < k, and k >= n leaves room for n independent images.
        At most POINT_MAP_TRIES points are tried.
        """
        n = field.absolute_degree
        p = field.characteristic
        fields = itertools.takewhile(
            lambda V: p ** V.absolute_degree <= LOG_TABLE_MAX_ORDER,
            _finite_point_fields(p))
        points = ((V, V.fq.generator + c) for V in fields
                  if V.absolute_degree >= max(n, 2) for c in range(p))
        for V, a in itertools.islice(points, POINT_MAP_TRIES):
            phi = cls(V, V.encode(a.rep))
            if phi._extend(field):
                return phi
        return None

    def _extend(self, field):
        """Extend the map up the stages of field, each generator to the
        first root Cantor-Zassenhaus finds of its stage polynomial, on the
        values; False when a stage has none at this point or the power
        basis images are F_p-dependent, the one check that decodes."""
        V = self.values
        fq = V.fq
        for stage in extension_stages(field):
            m = self.poly(stage.minpoly)
            roots = [] if m is None else _roots_finite(m, V)
            if not roots:
                return False
            g, powers = roots[0].rep, [V._one]
            for _ in range(stage.degree_over_parent - 1):
                powers.append(V._mul(powers[-1], g))
            self.images = [V._mul(b, x) for x in powers for b in self.images]
        span = SpanBuilder(fq.base, fq.absolute_degree)
        return all(span._insert(span._reduce(_flat_reps(fq, V.decode(v))))
                   for v in self.images)

    def _coordinate(self, c):
        """The value at the point of a RatFunc, or None at a pole."""
        V = self.values
        den = V.at(c.den, self.point)
        if den == V._zero:
            return None
        return V._mul(V.at(c.num, self.point), V._inv(den))

    def value(self, field, rep):
        """phi of an element of a stage of the tower, or None when a flat
        coordinate has a pole at the point."""
        V = self.values
        out = V._zero
        for c, b in zip(_flat_reps(field, rep), self.images):
            if c.num:
                x = self._coordinate(c)
                if x is None:
                    return None
                out = V._add(out, V._mul(x, b))
        return out

    def poly(self, f):
        """phi(f), a Poly over the values, or None."""
        out = [self.value(f.field, c) for c in f.reps]
        return None if None in out else Poly._from_reps(self.values, out)

    def squarefree(self, f):
        """True when phi(f) is defined and squarefree.  For a monic f this
        certifies f squarefree: disc phi(f) = phi(disc f) is nonzero."""
        g = self.poly(f)
        return g is not None and \
            poly_gcd(g, g.formal_derivative()).degree == 0

    def bounded_roots(self, image, field, max_t_deg):
        """The elements of iter_bounded_elements(field, max_t_deg) whose
        images are roots of the polynomial image = phi(f), in that order:
        every root of f among them is kept, and each image costs n
        products in F_q where f(x) costs an evaluation over the tower."""
        V = self.values
        pool = list(field.base.iter_poly_elements(max_t_deg))
        pool_values = [self._coordinate(c.rep) for c in pool]
        sums = [V._zero]   # images of the coordinate tuples, first slowest
        for b in self.images:
            terms = [V._mul(x, b) for x in pool_values]
            sums = [V._add(s, x) for s in sums for x in terms]
        coords = itertools.product(pool, repeat=len(self.images))
        return [unflatten(field, c) for x, c in zip(sums, coords)
                if image.eval(FieldElement(V, x)).is_zero()]
