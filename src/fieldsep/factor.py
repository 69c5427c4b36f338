"""Polynomial factorization over F_p, F_p(t), and tower extensions.

Finite fields use distinct-degree plus Cantor-Zassenhaus equal-degree
splitting, from points.  Factoring and root finding over a finite
extension run on its values (points.PointValues: discrete logarithms
where it has a table): the coefficients are encoded once, the splitting
runs on ints, and the answer is decoded.  The splits are the ones made
on the field itself.
Over F_p(t) a squarefree polynomial is specialized at the good point a
with the fewest local factors (points._hensel_point), factored on the
values of a's point field, and the factors are Hensel-lifted in
u = t - a and recombined (t-degrees of factors are additive, so the
lifting precision is exact).  A polynomial in u and x
is kept as its u-adic expansion, the x-polynomials over the values that
multiply u^0, u^1, ...; step j of the lifting splits the defect
G[j] - sum A[e]*B[j-e] through a Bezout identity.  Over separable
towers a norm map (Trager) reduces the problem to F_p(t); the norm is
evaluated at the points of a finite field, on its values
(discrete logarithms where the field has a table), by linalg's
determinant, and interpolated in x and t as polynomials over those
values.  Over a tower with an inseparable stage no norm is squarefree,
so what a root scan leaves unfactored there is a capability error.
Every point, and every point map, comes from points.

Irreducibility (is_irreducible, which certifies every gen line) is
certified before anything is factored: over a finite field by Ben-Or's
test, the first half of the distinct-degree loop, and over F_p(t) by
Eisenstein's criterion at a prime of F_p[t], Dumas's at t or at
infinity, or, for f = A(x) + t*B(x), by gcd(A, B) = 1, all read off the
coefficients.  Only what none settles, and every polynomial found
reducible, is factored.  p-th roots over F_p(t) and its towers come
from one Frobenius split, _frobenius_parts.  factor sorts its factors,
and roots_in its roots, by their reps.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .basefields import (FieldElement, RatFunc, ipoly_deg, ipoly_divmod,
                         ipoly_gcd, ipoly_mul, ipoly_pow, ipoly_trim)
from .errors import CapabilityError, InputError, PropertyViolation
from .linalg import _determinant, solve_combination
from .points import (CHEAP_ROOT_CANDIDATES, PointValues,
                     _factor_squarefree_finite, _grid_points, _hensel_point,
                     _irreducible_finite, _roots_finite, point_map)
from .poly import Poly, poly_bezout, poly_gcd, synthetic_division
from .towers import (bounded_count, extension_stages, flatten,
                     iter_bounded_elements, lift, lift_poly, power_basis,
                     stage_generators)


@dataclass
class SeparableDecomposition:
    """f(x) = g(x^{p^e}) with g having nonzero formal derivative."""

    g: Poly
    e: int


@dataclass
class Factorization:
    unit: object                 # FieldElement
    factors: list                # [(monic irreducible Poly, multiplicity)]


def separable_decompose(f):
    """Peel x -> x^p substitutions until the derivative is nonzero.

    f' = 0 exactly when every coefficient at an exponent prime to p is
    zero, so the coefficients are tested and no derivative is built.
    """
    if f.is_zero():
        raise InputError("cannot decompose the zero polynomial")
    p = f.field.characteristic
    if p == 0:
        raise InputError("separable decomposition requires characteristic p > 0")
    e = 0
    zero = f.field._zero
    while f.degree > 0 and all(c == zero for i, c in enumerate(f.reps)
                               if i % p):
        f = Poly._from_reps(f.field, f.reps[::p])
        e += 1
    return SeparableDecomposition(f, e)


def distinct_root_count(f):
    """Number of distinct roots of f in an algebraic closure.

    x -> x^{p^e} is injective on the closure, so the count of f equals the
    count of its separable part; repeated-factor layers whose multiplicity
    is divisible by p are handled recursively.
    """
    if f.is_zero():
        raise InputError("the zero polynomial has every root")
    g = separable_decompose(f).g
    if g.degree <= 0:
        return 0
    phi = point_map(g.field)
    if phi is not None and phi.squarefree(g.monic()):
        return g.degree
    u = poly_gcd(g, g.formal_derivative())
    v = (g // u).monic()  # product of factors with multiplicity prime to p
    # strip all v-factors out of u; what survives has multiplicity divisible by p
    w = u
    for _ in range(g.degree):
        h = poly_gcd(w, v) if not w.is_constant() else Poly.one(g.field)
        if h.degree == 0:
            break
        w = w // h
    count = v.degree
    if w.degree > 0:
        count += distinct_root_count(w)
    return count


# ---------------------------------------------------------------------------
# p-th roots of field elements


def element_pth_root(a):
    """Return r with r^p = a, or None when a is not a p-th power.

    Exact in every supported field: finite fields via r = a^(q/p); F_p(t)
    by its Frobenius split; towers over F_p(t) by linear algebra over the
    subfield F_p(t^p), unless a has a root in F_p(t), then the root.
    """
    field = a.field
    if field.base.kind == "prime":
        return a ** (field.characteristic ** (field.absolute_degree - 1))
    c = flatten(a)
    if all(x.is_zero() for x in c[1:]):
        parts = _frobenius_parts(c[0])
        if not any(parts[1:]):   # c[0] = A_0(t^p)/D(t^p) = (A_0/D)^p
            K = field.base
            return lift(K.element(K.normalize(parts[0], c[0].rep.den)), field)
    return None if field.kind == "rational_function" else _tower_pth_root(a)


def _frobenius_parts(c):
    """The int t-polynomials A_0, ..., A_(p-1) with N * D^(p-1) =
    sum_j t^j * A_j(t^p), for c = N/D in F_p(t): c is the sum of the
    t^j * A_j(t^p)/D(t^p), as D(t)^p = D(t^p) over F_p."""
    p = c.field.characteristic
    shifted = ipoly_mul(c.rep.num, ipoly_pow(c.rep.den, p - 1, p), p)
    return [ipoly_trim(shifted[j::p]) for j in range(p)]


def _tower_pth_root(a):
    field = a.field
    K = field.base
    p = K.characteristic

    def decomp(vec):
        return tuple(K.element(K.normalize(part, c.rep.den))
                     for c in vec for part in _frobenius_parts(c))

    basis = power_basis(field)
    cols = [decomp(flatten(b ** p)) for b in basis]
    target = decomp(flatten(a))
    sol = solve_combination(K, cols, target)
    if sol is None:
        return None
    # a coefficient lambda(u) of the solution corresponds to lambda(t) in the root
    root = field.zero
    for lam, b in zip(sol, basis):
        root = root + lift(lam, field) * b
    if root ** p != a:
        raise PropertyViolation("p-th root reconstruction failed verification")
    return root


def coefficientwise_pth_root(q):
    """Apply element_pth_root to every coefficient; None if any root is missing."""
    out = []
    for c in q.coeffs:
        r = element_pth_root(c)
        if r is None:
            return None
        out.append(r)
    return Poly(q.field, out)


# ---------------------------------------------------------------------------
# factorization pipeline


def factor(f):
    """Complete factorization into certified monic irreducibles."""
    if f.is_zero():
        raise InputError("cannot factor the zero polynomial")
    unit = f.leading_coefficient()
    factors = _factor_monic(f.monic(), random.Random(0))
    factors.sort(key=_factor_sort_key)
    return Factorization(unit, factors)


def _factor_sort_key(pair):
    q, m = pair
    return (q.degree, q.reps, m)


def _factor_monic(f, rng):
    if f.degree <= 0:
        return []
    if f.degree == 1:
        return [(f, 1)]
    dec = separable_decompose(f)
    if dec.e > 0:
        inner = _factor_monic(dec.g, rng)
        out = []
        for q, m in inner:
            for r, k in _power_peel(q, dec.e):
                out.append((r, m * k))
        return out
    phi = point_map(f.field)
    if phi is not None and phi.squarefree(f):
        return [(q, 1) for q in _factor_squarefree(f, rng)]
    # derivative nonzero: squarefree part exposes all multiplicity-prime-to-p factors
    d = f.formal_derivative()
    u = poly_gcd(f, d)
    s = (f // u).monic()
    irreducibles = _factor_squarefree(s, rng)
    out = []
    rem = f
    for q in irreducibles:
        m = 0
        while q.divides(rem):
            rem = rem // q
            m += 1
        out.append((q, m))
    rem = rem.monic()
    if rem.degree > 0:
        out.extend(_factor_monic(rem, rng))
    return out


def _power_peel(q, e):
    """Factor q(x^{p^e}) for monic irreducible separable q.

    q(x^p) is irreducible exactly when some coefficient of q has no p-th
    root in the field; otherwise q(x^p) = qhat(x)^p with qhat the
    coefficient-wise p-th root.
    """
    if e == 0:
        return [(q, 1)]
    p = q.field.characteristic
    qhat = coefficientwise_pth_root(q)
    if qhat is not None:
        if qhat ** p != q.substitute_power(p):
            raise PropertyViolation("p-power peel verification failed")
        return [(r, m * p) for r, m in _power_peel(qhat, e - 1)]
    return _power_peel(q.substitute_power(p), e - 1)


def _factor_squarefree(s, rng):
    """Distinct monic irreducible factors of a squarefree separable monic s."""
    field = s.field
    if s.degree <= 1:
        return [s] if s.degree == 1 else []
    if field.base.kind == "prime":
        V = PointValues(field)
        return [V.decode_poly(g) for g in
                _factor_squarefree_finite(V.encode_poly(s), rng)]
    if field.kind == "rational_function":
        return _factor_squarefree_ratfunc(s)
    return _factor_squarefree_tower(s)


# -- F_p(t) -----------------------------------------------------------------


def _clear_denominators(elems, p):
    """(delta, [c * delta for c in elems]) for elements of F_p(t), with
    delta the monic lcm of their denominators and the products as int
    t-polynomials."""
    delta = (1,)
    for c in elems:
        den = c.rep.den
        delta = ipoly_divmod(ipoly_mul(delta, den, p),
                             ipoly_gcd(delta, den, p), p)[0]
    return delta, [ipoly_mul(c.rep.num, ipoly_divmod(delta, c.rep.den, p)[0],
                             p) for c in elems]


def _to_bivariate(f):
    """Clear denominators: f in F_p(t)[x] -> primitive element of F_p[t][x].

    Returns a list of int coefficient tuples (one ipoly in t per power of x).
    """
    p = f.field.characteristic
    _den, rows = _clear_denominators(f.coeffs, p)
    content = ()
    for r in rows:
        if r:
            content = ipoly_gcd(content, r, p) if content else ipoly_gcd(r, r, p)
    rows = [ipoly_divmod(r, content, p)[0] if r else () for r in rows]
    return rows


# A polynomial G over F_q[u] truncated at u^k, u = t - a, is kept as its
# u-adic expansion: the list of x-polynomials G[0], ..., G[k-1] over the
# point-field values, G[j] the coefficient of u^j.


def _u_coefficient(A, B, j):
    """The u^j coefficient of A * B, for expansions A and B."""
    out = A[0] * B[j]
    for e in range(1, j + 1):
        out = out + A[e] * B[j - e]
    return out


def _hensel_pair(G, A0, B0):
    """Lift G = A0*B0 (mod u) to G = A*B (mod u^k), k = len(G), with A and
    B monic in x.

    Linear lifting: the u^j defect D = G[j] - sum A[e]*B[j-e] over
    0 < e < j is split as A[j]*B0 + B[j]*A0 through a Bezout identity over
    F_q[x], with deg A[j] < deg A0 and deg B[j] < deg B0.
    """
    g, s = poly_bezout(A0, B0)
    if g.degree != 0:
        raise PropertyViolation("bezout inputs are not coprime")
    zero = Poly.zero(A0.field)
    A, B = [A0], [B0]
    for j in range(1, len(G)):
        A.append(zero)
        B.append(zero)
        D = G[j] - _u_coefficient(A, B, j)
        if not D.is_zero():
            B[j] = (s * D) % B0
            A[j] = (D - B[j] * A0) // B0
    return A, B


def _hensel_tree(G, facs0):
    """Lift the coprime monic factor list facs0 of G mod u to mod u^k."""
    if len(facs0) == 1:
        return [G]
    mid, one = len(facs0) // 2, Poly.one(facs0[0].field)
    A, B = _hensel_pair(G, math.prod(facs0[:mid], start=one),
                        math.prod(facs0[mid:], start=one))
    return _hensel_tree(A, facs0[:mid]) + _hensel_tree(B, facs0[mid:])


def _expansion_to_ratfunc_poly(h, point, K):
    """An expansion in u back to a Poly over K = F_p(t) via u = t - point.

    Returns None when a coefficient fails to land in the prime field.
    """
    V = h[0].field
    minus_point = -FieldElement(V, point)
    coeffs = []
    for i in range(h[0].degree + 1):
        cu = Poly._from_reps(V, [c.coefficient(i).rep for c in h])
        ints = [V.integer(r) for r in _shift_poly(cu, minus_point).reps]
        if None in ints:
            return None
        coeffs.append(K.element(RatFunc(tuple(ints), (1,))))
    return Poly(K, coeffs)


def _at_values(f, ts, V):
    """f, over F_p(t) with polynomial coefficients, at each value t of ts."""
    return [Poly._from_reps(V, [V.at(c.num, a) for c in f.reps]) for a in ts]


def _hensel_factor_monic(G_K, rows, T):
    """Monic irreducible factors of a monic squarefree separable polynomial
    over F_p(t) whose coefficients are the given integer t-polynomials.
    A candidate is divided exactly only if it divides G, as a factor
    does, at each of up to three t-values of F_p other than the point."""
    K = G_K.field
    k = T + 1
    point, facs0 = _hensel_point(rows, G_K.degree, K.characteristic)
    V = facs0[0].field
    if len(facs0) == 1:
        return [G_K]
    ts = [a for a in V.ints[:4] if a != point][:3]
    # row i in powers of u: the Taylor coefficients of r_i at the point
    at_point = FieldElement(V, point)
    shifted = [_shift_poly(Poly._from_reps(V, [V.ints[v] for v in r]),
                           at_point) for r in rows]
    G = [Poly._from_reps(V, [c.coefficient(j).rep for c in shifted])
         for j in range(k)]
    lifted = _hensel_tree(G, facs0)
    out = []
    remaining = list(range(len(lifted)))
    G_cur, G_at = G_K, _at_values(G_K, ts, V)  # G_cur divides G_K
    while remaining:
        hit = None
        for size in range(1, len(remaining) // 2 + 1):
            for subset in itertools.combinations(remaining, size):
                prod = lifted[subset[0]]
                for idx in subset[1:]:
                    prod = [_u_coefficient(prod, lifted[idx], j)
                            for j in range(k)]
                cand = _expansion_to_ratfunc_poly(prod, point, K)
                if cand is not None and cand.degree >= 1 and all(
                        c.divides(g) for c, g in
                        zip(_at_values(cand, ts, V), G_at)) \
                        and cand.divides(G_cur):
                    hit = (subset, cand)
                    break
            if hit:
                break
        if hit is None:
            out.append(G_cur)
            break
        subset, cand = hit
        out.append(cand)
        G_cur = (G_cur // cand).monic()
        remaining = [i for i in remaining if i not in subset]
        if G_cur.degree == 0:
            break
    return out


def _factor_squarefree_ratfunc(s):
    """Monic irreducible factors of a squarefree separable monic s over F_p(t).

    Clears denominators, makes the bivariate polynomial monic in x via the
    leading-coefficient transform, factors it by specialization plus Hensel
    lifting, and maps the factors back.  Complete.
    """
    K = s.field
    p = K.characteristic
    rows = _to_bivariate(s)
    n = s.degree
    lead = rows[-1]
    # G(t, y) = L^(n-1) * F(t, y/L) is monic in y with polynomial coefficients
    grows = [ipoly_mul(r, ipoly_pow(lead, n - 1 - i, p), p) if r else ()
             for i, r in enumerate(rows[:-1])]
    grows.append((1,))
    GT = max((ipoly_deg(r) for r in grows if r), default=0)
    G_K = Poly(K, [K.element(RatFunc(r, (1,))) if r else K.zero
                   for r in grows])
    L_elem = K.element(RatFunc(lead, (1,)))
    # undo the transform: y = L * x, then rescale to a monic factor
    return [Poly(K, [c * L_elem ** i for i, c in enumerate(g.coeffs)]).monic()
            for g in _hensel_factor_monic(G_K, grows, GT)]


# -- towers over F_p(t) -----------------------------------------------------


def _cheap_roots(f, field, max_height=None):
    """Roots of f among the tower elements whose coordinates are
    polynomials in t of degree <= h, for h = 0, 1, ..., max_height (no
    limit for None), while there are at most CHEAP_ROOT_CANDIDATES.

    Where the tower's point map is defined on f, only the candidates
    whose images are roots of phi(f) are evaluated.  f is squarefree and
    separable, so a scan that finds deg f roots stops there.
    """
    if bounded_count(field, 0) > CHEAP_ROOT_CANDIDATES:
        return []
    phi = point_map(field)
    image = None if phi is None else phi.poly(f)
    found = []
    h = 0
    while (max_height is None or h <= max_height) and \
            bounded_count(field, h) <= CHEAP_ROOT_CANDIDATES:
        found = []
        for cand in (iter_bounded_elements(field, h) if image is None
                     else phi.bounded_roots(image, field, h)):
            if f.eval(cand).is_zero():
                found.append(cand)
                if len(found) == f.degree:
                    return found
        h += 1
    return found


def _shift_poly(f, b):
    """f(x + b), computed by Horner in the polynomial ring."""
    field = f.field
    xpb = Poly(field, [b, field.one])
    out = Poly.zero(field)
    for c in reversed(f.coeffs):
        out = out * xpb + Poly.constant(c)
    return out


def _interpolate(V, points, values):
    """The polynomial over the point-field values V of degree < len(points)
    through the given pairs: Newton's divided differences."""
    add, sub, mul, inv = V._add, V._sub, V._mul, V._inv
    c = list(values)
    for k in range(1, len(points)):
        for j in range(len(points) - 1, k - 1, -1):
            c[j] = mul(sub(c[j], c[j - 1]), inv(sub(points[j], points[j - k])))
    out = [c[-1]]
    for k in range(len(points) - 2, -1, -1):  # out = out * (x - x_k) + c_k
        a = V._neg(points[k])
        out = [add(c[k], mul(out[0], a))] + \
              [add(hi, mul(lo, a)) for lo, hi in zip(out[1:], out)] + \
              [out[-1]]
    return Poly._from_reps(V, out)


def _tower_separable(field):
    """True when every stage minpoly of the tower is separable: an
    irreducible m is separable exactly when m' != 0."""
    return all(not s.minpoly.formal_derivative().is_zero()
               for s in extension_stages(field))


def _norm_grid(V, mats, ts, xs):
    """det(sum_i x^i P_i(t)) at every t in ts and x in xs, where mats[i]
    is P_i, a matrix of int t-polynomials; points and determinants are
    point-field values of V."""
    add, mul = V._add, V._mul
    grid = []
    for a in ts:
        evaluated = [[[V.at(c, a) for c in row] for row in mat]
                     for mat in mats]
        values = []
        for x in xs:
            rows = evaluated[-1]
            for mat in reversed(evaluated[:-1]):  # Horner in x, entrywise
                rows = [[add(mul(u, x), v) for u, v in zip(ur, vr)]
                        for ur, vr in zip(rows, mat)]
            values.append(_determinant(V, [list(r) for r in rows]))
        grid.append(values)
    return grid


def _norm_to_base(f, basis):
    """(N, certified): the norm N of a monic f over a tower, as a monic
    polynomial over F_p(t), and whether a row of the grid certifies it
    squarefree.

    Let M_i be the multiplication matrix of f's coefficient f_i and delta
    a common denominator of their entries.  det(sum_i x^i delta M_i) is
    delta^n N(f), a polynomial in F_p[t][x] of x-degree D = n deg f whose
    t-degree is at most B, the sum over rows of each row's largest
    t-degree.  It is evaluated on a (B + 1) x (D + 1) grid of a finite
    point field, interpolated in x and then in t, and checked against one
    more t-point at every x-point.  A row N(a, x) of x-degree D is
    delta(a)^n times N with t -> a, so N is squarefree when the row is:
    N is monic, and its discriminant at a is the row's, up to a unit.
    """
    field = f.field
    K = field.base
    p = K.characteristic
    n = len(basis)
    D = n * f.degree
    delta, entries = _clear_denominators(
        [e for c in f.coeffs for b in basis for e in flatten(c * b)], p)
    it = iter(entries)
    mats = [[[next(it) for _ in basis] for _ in basis] for _ in f.coeffs]
    B = sum(max(ipoly_deg(m[r][c]) for m in mats for c in range(n))
            for r in range(n))   # the last matrix, delta * I, fills every row
    V, points = _grid_points(p, max(B + 2, D + 1))
    xs, ts = points[:D + 1], points[:B + 2]
    grid = _norm_grid(V, mats, ts, xs)
    lead = ipoly_pow(delta, n, p)
    rows = []
    for a, values in zip(ts, grid[:B + 1]):
        row = _interpolate(V, xs, values)
        if row.coefficient(D).rep != V.at(lead, a):
            raise PropertyViolation(
                "norm interpolation failed the degree check")
        rows.append(row)
    coeffs = []
    for k in range(D + 1):
        ck = _interpolate(V, ts[:B + 1], [r.coefficient(k).rep for r in rows])
        ints = [V.integer(c) for c in ck.reps]
        if None in ints:
            raise PropertyViolation("norm interpolation left the prime field")
        coeffs.append(tuple(ints))
    norm = Poly(K, [K.element(K.normalize(c, lead)) for c in coeffs])
    if norm.degree != D or not norm.is_monic():
        raise PropertyViolation("norm interpolation failed the degree check")
    at_a = Poly._from_reps(V, [V.at(c, ts[B + 1]) for c in coeffs])
    if any(at_a.eval(FieldElement(V, x)).rep != v
           for x, v in zip(xs, grid[B + 1])):
        raise PropertyViolation(
            "norm interpolation failed the check at an extra point")
    return norm, any(r.degree == D and
                     poly_gcd(r, r.formal_derivative()).degree == 0
                     for r in rows)


def _shift_elements(field):
    """Each generator combination sum(c_i * g_i) once, the c_i among the
    first w + 1 scalars of the base, for w = 1, 2, ...

    Within each w the combinations with a nonzero coefficient on the top
    generator come first: a shift b inside a proper subfield F that holds
    f's coefficients leaves N(f(x - b)) a power of a norm from F.  For a
    squarefree separable input some combination makes the shifted norm
    squarefree: each colliding pair of conjugate roots rules out one
    affine hyperplane of coefficient tuples, and the base is infinite.
    """
    base = field.base
    gens = stage_generators(field)
    width = 1
    while True:
        combos = [c for c in itertools.product(range(width + 1),
                                               repeat=len(gens))
                  if width in c]
        combos.sort(key=lambda c: c[-1] == 0)
        for combo in combos:
            yield sum((lift(base.scalar_by_index(i), field) * g
                       for i, g in zip(combo, gens) if i), field.zero)
        width += 1


def _pull_back_factors(s, fs, shift, norm):
    """Map irreducible factors of a squarefree norm back up to the tower."""
    field = s.field
    sub = _factor_squarefree(norm, random.Random(0))
    if len(sub) == 1:
        return [s]
    out = []
    rest = fs   # the factors of fs not yet found: coprime to those found
    for g in sub:
        h = poly_gcd(rest, lift_poly(g, field))
        if h.degree > 0:
            out.append(_shift_poly(h, shift).monic())
            rest = rest // h
    if math.prod(out, start=Poly.one(field)) != s:
        raise PropertyViolation("norm-based factor recombination failed")
    return out


def _trager(s):
    """Factor a squarefree monic s over a separable tower via norms.

    The norm goes straight down to the bottom base field, and the number
    of shifts tried is fixed before the search starts.  Only a norm a
    grid row certifies squarefree is taken; missing one costs a shift.
    """
    field = s.field
    basis = power_basis(field)
    tries = (s.degree * field.absolute_degree) ** 2 + 8
    for b in itertools.islice(_shift_elements(field), tries):
        fs = _shift_poly(s, -b)
        norm, certified = _norm_to_base(fs, basis)
        if certified:
            return _pull_back_factors(s, fs, b, norm)
    raise CapabilityError(
        f"no shift among the first {tries} gave a norm certified "
        f"squarefree at its grid rows")


def _factor_squarefree_tower(s):
    """A scan for roots of low height, then Trager norms for the rest.

    Over a separable tower the scan covers only the elements with
    coordinates in F_p: conjugates such as -g are found there at once,
    where pulling a linear factor back from a norm costs a gcd over the
    tower.  Over a tower with an inseparable stage E/F the norm is
    N_{E_s/F} composed with x -> x^{p^e}, so every shifted norm lies in
    F[x^p] and none is squarefree: the scan goes on to higher heights,
    and what it leaves is a capability limit.
    """
    field = s.field
    separable = _tower_separable(field)
    out = []
    rem = s
    for r in _cheap_roots(s, field, 0 if separable else None):
        rem, value = synthetic_division(rem, r)
        if not value.is_zero():
            raise PropertyViolation(f"{r!r} is not a root of {s!r}")
        out.append(Poly(field, [-r, field.one]))
    if rem.degree == 1:
        out.append(rem)
    elif rem.degree >= 2 and separable:
        out.extend(_trager(rem))
    elif rem.degree >= 2:
        raise CapabilityError(
            f"cannot factor {rem!r}: no squarefree norm exists over "
            f"{field!r} (an inseparable stage below makes every norm a "
            "p-th power)")
    return out


# ---------------------------------------------------------------------------
# public helpers


def _eisenstein(f):
    """True when the monic f over F_p(t), with polynomial coefficients and
    a nonzero constant coefficient c, is Eisenstein at some irreducible P
    of F_p[t]: P divides every coefficient below the leading one, and P^2
    does not divide c.  Then f is irreducible over F_p[t], and so over
    F_p(t) by Gauss's lemma.

    The candidates P are the irreducible factors of the gcd g of the
    lower coefficients.  F_p is perfect, so an irreducible P is
    separable, and P^2 divides c exactly when P also divides c'.  So some
    P qualifies when g keeps a factor after every factor it shares with
    c' is divided out, and no factoring is needed.  An f = h(x^(p^e)) is
    Eisenstein exactly when h is, so no p-th powers are peeled first.
    """
    reps = f.reps
    p = f.field.characteristic
    c = reps[0].num
    g = c
    for r in reps[1:-1]:
        g = ipoly_gcd(g, r.num, p)
    dc = ipoly_trim(tuple(i * a % p for i, a in enumerate(c))[1:])
    while ipoly_deg(g) > 0:
        shared = ipoly_gcd(g, dc, p)
        if ipoly_deg(shared) == 0:
            return True
        g = ipoly_divmod(g, shared, p)[0]
    return False


def _dumas(f):
    """True when the monic f of degree n over F_p(t), with polynomial
    coefficients c_i and c_0 != 0, passes Dumas's criterion (J. Math.
    Pures Appl. 1906) at t or at infinity.  With v the order at t, or
    v = -deg at infinity: every point (i, v(c_i)) lies on or above the
    segment from (0, v(c_0)) to (n, 0), and gcd(n, v(c_0)) = 1.  The
    Newton polygon at that place is then one segment with no lattice
    point inside, so f is irreducible over the completion there, and so
    over F_p(t).  This certifies x^n + t^k with gcd(n, k) = 1, which is
    Eisenstein at no prime for k > 1.
    """
    n, nums = f.degree, [c.num for c in f.reps]
    for v in (lambda c: next(i for i, a in enumerate(c) if a),
              lambda c: -ipoly_deg(c)):
        v0 = v(nums[0])
        if math.gcd(n, v0) == 1 and all(n * v(c) >= v0 * (n - i)
                                        for i, c in enumerate(nums) if c):
            return True
    return False


def _linear_in_t(f):
    """True when the monic f over F_p(t) is A(x) + t*B(x) with A and B in
    F_p[x], B != 0 and gcd(A, B) = 1.  Such an f is irreducible, and it is
    irreducible only then: f is monic in x, so by Gauss's lemma it is
    irreducible over F_p(t) exactly when it is irreducible in F_p[x][t],
    where it has degree 1 in t, so a proper factor has t-degree 0 and
    divides both A and B.  This certifies x^n + t*x + 1 for every n."""
    nums = [c.num for c in f.reps]
    if any(len(c) > 2 for c in nums):
        return False
    A, B = (ipoly_trim(tuple(c[i] if len(c) > i else 0 for c in nums))
            for i in (0, 1))
    return bool(B) and ipoly_gcd(A, B, f.field.characteristic) == (1,)


def is_irreducible(f):
    """(verdict, certificate): certificate is a counterexample factor if
    reducible.

    Decided by a certificate where one settles it: Ben-Or's test over a
    finite field (on its values); over F_p(t), for polynomial
    coefficients, Eisenstein's criterion and then Dumas's at t and at
    infinity where c_0 != 0, and then the certificate of degree 1 in t.
    What no certificate settles, and every f found reducible, is
    factored, so the certificate is factor(f)'s first factor.
    """
    if f.is_zero() or f.degree == 0:
        raise InputError("irreducibility is for polynomials of degree >= 1")
    field, g = f.field, f.monic()
    if field.base.kind == "prime":
        certified = _irreducible_finite(PointValues(field).encode_poly(g))
    else:
        certified = (field.kind == "rational_function"
                     and all(c.den == (1,) for c in g.reps)
                     and ((bool(g.reps[0].num)
                           and (_eisenstein(g) or _dumas(g)))
                          or _linear_in_t(g)))
    if certified:
        return True, None
    fac = factor(f)
    if len(fac.factors) == 1 and fac.factors[0][1] == 1:
        return True, None
    return False, fac.factors[0][0]


def roots_in(f, N):
    """All distinct roots of f that lie in the field N.

    Complete over finite fields via the Frobenius gcd, and over F_p(t) and
    separable towers over it via full factorization (linear factors),
    for coefficients of any t-degree.  Over a tower with an
    inseparable stage, a factor of degree >= 2 that the low-height root
    scan leaves raises CapabilityError, even when it has roots in N.
    """
    if f.is_zero():
        raise InputError("the zero polynomial has every root")
    f = lift_poly(f, N) if f.field != N else f
    if f.degree == 0:
        return []
    if N.base.kind == "prime":
        V = PointValues(N)
        out = [FieldElement(N, V.decode(r.rep))
               for r in _roots_finite(V.encode_poly(f), V)]
    else:
        out = [-q.coefficient(0)
               for q, _m in factor(f).factors
               if q.degree == 1]
    return sorted(out, key=lambda r: r.rep)
