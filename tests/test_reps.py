"""The rep-level arithmetic of poly, linalg, towers and embeddings against
FieldElement loop versions kept here as oracles, on seeded random inputs
over F_p, GF(4), F_p(t) and a biquadratic tower over F_3(t)."""

import math
import random

import pytest

from fieldsep.basefields import FieldElement, PrimeField, RationalFunctionField
from fieldsep.corpus import BUILTIN
import fieldsep.embeddings as embeddings_module
from fieldsep.embeddings import _peel
from fieldsep.errors import PropertyViolation
from fieldsep.factor import separable_decompose
from fieldsep.linalg import (SpanBuilder, determinant, nullspace,
                             solve_combination)
from fieldsep.parse import parse_tower
from fieldsep.points import (PointValues, _factor_squarefree_finite,
                             _finite_point_fields, _irreducible_finite,
                             _roots_finite)
import fieldsep.poly as poly_module
from fieldsep.poly import Poly, poly_gcd, synthetic_division
from fieldsep.towers import (base_subfield, extension_stages, flatten, lift, lift_poly,
                             minimal_polynomial, stage_generators, unflatten)

FIELDS = ["F_7", "GF(4)", "F_3(t)", "biquadratic_p3"]
# the values of point fields: logarithms on F_8 and F_49, reps on F_5 and
# on F_(67^2), which is past LOG_TABLE_MAX_ORDER
VALUES = ["F_8 values", "F_49 values", "F_5 values", "F_(67^2) values"]


def _values(p, degree):
    return next(V for V in _finite_point_fields(p)
                if V.absolute_degree == degree)


@pytest.fixture(params=FIELDS)
def field(request, corpus):
    return {"F_7": lambda: PrimeField(7),
            "GF(4)": lambda: corpus["gf4"].field,
            "F_3(t)": lambda: RationalFunctionField(3),
            "biquadratic_p3": lambda: corpus["biquadratic_p3"].field,
            "F_8 values": lambda: _values(2, 3),
            "F_49 values": lambda: _values(7, 2),
            "F_5 values": lambda: _values(5, 1),
            "F_(67^2) values": lambda: _values(67, 2),
            }[request.param]()


def _random_element(field, rng):
    """Random base coordinates, a third of them zero.  Over F_p(t) they are
    fractions with numerator degree <= 2 and denominator degree <= 1, and
    over a tower of F_p(t) polynomials of degree <= 1, which keeps the
    sizes of products and gcds small.  A point field's values encode an
    element of the point field."""
    if isinstance(field, PointValues):
        return FieldElement(field, field.encode(
            _random_element(field.fq, rng).rep))
    K = field.base
    p = K.characteristic
    coords = []
    for _ in range(field.absolute_degree):
        if rng.random() < 1 / 3:
            coords.append(K.zero)
        elif K.kind == "prime":
            coords.append(K.element(rng.randrange(p)))
        elif field.kind == "extension":
            coords.append(K.element((rng.randrange(p), rng.randrange(p))))
        else:
            num = [rng.randrange(p) for _ in range(3)]
            coords.append(FieldElement(K, K.normalize(num, [rng.randrange(p), 1])))
    return unflatten(field, coords)


def _random_coeffs(field, rng, max_deg=4):
    return _trim([_random_element(field, rng)
                  for _ in range(rng.randrange(max_deg + 2))])


# -- FieldElement oracles on trimmed low-to-high coefficient lists -----------


def _trim(c):
    c = list(c)
    while c and c[-1].is_zero():
        c.pop()
    return c


def _o_mul(F, a, b):
    if not a or not b:
        return []
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _trim(out)


def _o_divmod(F, a, b):
    rem, db, inv = list(a), len(b) - 1, b[-1].inverse()
    q = [F.zero] * max(len(a) - db, 0)
    for top in range(len(rem) - 1, db - 1, -1):
        c = rem[top] * inv
        q[top - db] = c
        for i, y in enumerate(b):
            rem[top - db + i] = rem[top - db + i] - c * y
    return _trim(q), _trim(rem)


def _o_monic(a):
    inv = a[-1].inverse()
    return [c * inv for c in a]


def _o_gcd(F, a, b):
    while b:
        a, b = b, _o_divmod(F, a, b)[1]
    return _o_monic(a)


def _o_eval(F, a, x):
    acc = F.zero
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _o_derivative(F, a):
    return _trim([a[i] * F.element(i) for i in range(1, len(a))])


def test_poly_operations_match_the_element_oracle(field):
    rng = random.Random(repr(field))
    F = field
    for i in range(20):
        a, b = _random_coeffs(F, rng), _random_coeffs(F, rng)
        f, g = Poly(F, a), Poly(F, b)
        assert list((f * g).coeffs) == _o_mul(F, a, b)
        assert list(f.formal_derivative().coeffs) == _o_derivative(F, a)
        x = _random_element(F, rng)
        assert f.eval(x) == _o_eval(F, a, x)
        if a:
            assert list(f.monic().coeffs) == _o_monic(a)
        if b:
            q, r = f.divmod(g)
            assert (list(q.coeffs), list(r.coeffs)) == _o_divmod(F, a, b)
        # a few gcds of small degree: over a tower of F_p(t) the
        # coefficients of the remainder sequence swell quickly
        common = _random_coeffs(F, rng, 1)
        if i < 4 and (a or b) and common:
            a2, b2 = _o_mul(F, a[:2], common), _o_mul(F, b[:2], common)
            assert list(poly_gcd(Poly(F, a2), Poly(F, b2)).coeffs) == \
                _o_gcd(F, a2, b2)


# -- FieldElement Gauss-Jordan ------------------------------------------------


def _o_gauss_jordan(rows, ncols):
    n, pivots, r = len(rows), [], 0
    for col in range(ncols):
        sel = next((i for i in range(r, n) if not rows[i][col].is_zero()), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = [c * inv for c in rows[r]]
        for i in range(n):
            if i != r and not rows[i][col].is_zero():
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append((r, col))
        r += 1
    return pivots


def _o_span_add(rows, pivots, v):
    v = list(v)
    for row, piv in zip(rows, pivots):
        c = v[piv]
        v = [x - c * y for x, y in zip(v, row)]
    piv = next((j for j, c in enumerate(v) if not c.is_zero()), None)
    if piv is None:
        return False
    inv = v[piv].inverse()
    rows.append([c * inv for c in v])
    pivots.append(piv)
    return True


def _o_solve(F, basis_vectors, target):
    m = len(basis_vectors)
    rows = [[v[i] for v in basis_vectors] + [target[i]]
            for i in range(len(target))]
    pivots = _o_gauss_jordan(rows, m)
    if any(not rows[i][m].is_zero() for i in range(len(pivots), len(rows))):
        return None
    coeffs = [F.zero] * m
    for row, col in pivots:
        coeffs[col] = rows[row][m]
    return coeffs


def _o_nullspace(F, rows, width):
    mat = [list(r) for r in rows]
    pivots = _o_gauss_jordan(mat, width)
    pivot_cols = {col for _row, col in pivots}
    basis = []
    for fc in (c for c in range(width) if c not in pivot_cols):
        v = [F.zero] * width
        v[fc] = F.one
        for row, col in pivots:
            v[col] = -mat[row][fc]
        basis.append(tuple(v))
    return basis


def _o_determinant(F, rows):
    mat = [list(r) for r in rows]
    det = F.one
    for col in range(len(mat)):
        sel = next((i for i in range(col, len(mat))
                    if not mat[i][col].is_zero()), None)
        if sel is None:
            return F.zero
        if sel != col:
            mat[col], mat[sel] = mat[sel], mat[col]
            det = -det
        det = det * mat[col][col]
        inv = mat[col][col].inverse()
        mat[col] = [c * inv for c in mat[col]]
        for i in range(col + 1, len(mat)):
            f = mat[i][col]
            mat[i] = [a - f * b for a, b in zip(mat[i], mat[col])]
    return det


def _random_matrix(F, rng, nrows, ncols):
    """Random rows, about a third of them combinations of earlier rows."""
    rows = []
    for i in range(nrows):
        if i >= 2 and rng.random() < 1 / 3:
            c1, c2 = _random_element(F, rng), _random_element(F, rng)
            rows.append(tuple(c1 * x + c2 * y
                              for x, y in zip(rows[i - 1], rows[i - 2])))
        else:
            rows.append(tuple(_random_element(F, rng) for _ in range(ncols)))
    return rows


def _combination(F, rng, vectors, width):
    """A random combination of the vectors, each of the given width."""
    combo = [_random_element(F, rng) for _ in vectors]
    return tuple(sum((c * v[i] for c, v in zip(combo, vectors)), F.zero)
                 for i in range(width))


@pytest.mark.parametrize("field", FIELDS + VALUES, indirect=True)
def test_linalg_matches_the_element_gauss_jordan(field):
    rng = random.Random(repr(field))
    shapes = random.Random(f"shapes:{field!r}")
    F = field
    # a tower's elements are vectors themselves: smaller matrices there
    size = 3 if getattr(F, "kind", None) == "extension" else 6
    for _ in range(10):
        n = rng.randrange(1, size)
        vectors = _random_matrix(F, rng, rng.randrange(1, size + 2), n)
        sb, rows, pivots = SpanBuilder(F, n), [], []
        for v in vectors:
            assert sb.add(v) == _o_span_add(rows, pivots, v)
        assert sb.rows == [[c.rep for c in row] for row in rows]
        assert sb.pivots == pivots
        probe = _random_matrix(F, rng, 1, n)[0]
        assert sb.contains(probe) == (not _o_span_add([*rows], [*pivots],
                                                      probe))
        inside = _combination(F, rng, vectors, n)
        for target in (inside, probe):
            assert solve_combination(F, vectors, target) == \
                _o_solve(F, vectors, target)
        assert nullspace(F, vectors, n) == _o_nullspace(F, vectors, n)
        square = _random_matrix(F, rng, n, n)
        assert determinant(F, square) == _o_determinant(F, square)
        # tall, of rank below its width, as the equalizer rows of a lattice
        low = _random_matrix(F, shapes, shapes.randrange(0, n), n)
        tall = [_combination(F, shapes, low, n) for _ in range(3 * n)]
        assert nullspace(F, tall, n) == _o_nullspace(F, tall, n)
        # the transposed (n*p) x n system of a p-th root in a tower, over
        # its root base K (the values themselves for a point field), with a
        # target inside the span and one outside
        K = F if isinstance(F, PointValues) else F.base
        rows = n * F.characteristic
        cols = _random_matrix(K, shapes, n, rows)
        for target in (_combination(K, shapes, cols, rows),
                       _random_matrix(K, shapes, 1, rows)[0]):
            assert solve_combination(K, cols, target) == \
                _o_solve(K, cols, target)


@pytest.mark.parametrize("field", VALUES, indirect=True)
def test_cantor_zassenhaus_on_values_matches_the_point_field(field):
    """Factoring and root finding on a point field's values give, decoded,
    the point field's answers: monic factors, each irreducible by Ben-Or's
    test on the point field itself, whose product is the input, and as
    roots the roots of its linear factors."""
    V, fq = field, field.fq
    rng = random.Random(repr(V))
    checked = splits = 0
    while checked < 8:      # squarefree: a monic quartic times <= 3 x - r
        f = Poly(fq, [_random_element(fq, rng) for _ in range(4)] + [fq.one])
        for _ in range(rng.randrange(4)):
            f = f * Poly(fq, [_random_element(fq, rng), fq.one])
        if poly_gcd(f, f.formal_derivative()).degree > 0:
            continue
        factors = [V.decode_poly(g) for g in _factor_squarefree_finite(
            V.encode_poly(f), random.Random(checked))]
        assert math.prod(factors, start=Poly.one(fq)) == f
        assert all(g.is_monic() and _irreducible_finite(g) for g in factors)
        roots = [V.decode(r.rep) for r in _roots_finite(V.encode_poly(f), V)]
        assert sorted(roots) == sorted(
            (-g).reps[0] for g in factors if g.degree == 1)
        assert all(f.eval(FieldElement(fq, r)).is_zero() for r in roots)
        checked += 1
        splits += len(roots) >= 2
    assert splits


def _o_minimal_polynomial(a):
    """The SpanBuilder + solve_combination route: the first power that
    adds nothing to the span, solved against the earlier powers."""
    base = a.field.base
    sb = SpanBuilder(base, a.field.absolute_degree)
    vectors = []
    current = a.field.one
    while True:
        vec = flatten(current)
        if not sb.add(vec):
            coeffs = solve_combination(base, vectors, vec)
            return Poly(base, [-c for c in coeffs] + [base.one])
        vectors.append(vec)
        current = current * a


@pytest.mark.parametrize("name", [entry.name for entry in BUILTIN])
def test_single_elimination_minimal_polynomial(corpus, name):
    spec = corpus[name]
    E = spec.field
    elements = [lift(s.generator, E) for s in extension_stages(E)]
    elements += [spec.element(n) for n in sorted(spec.names)]
    for a in elements:
        assert minimal_polynomial(a) == _o_minimal_polynomial(a)


def _o_minimal_polynomial_over(a, L):
    """The first power a^d that the element Gauss-Jordan solve writes as a
    combination of the products b*a^i, i < d, b in L's basis; the
    coefficient of x^i is minus the part on the b*a^i."""
    field, base = a.field, a.field.base
    basis, m = L.basis, len(L.basis)
    powers = [field.one]
    for d in range(1, field.absolute_degree + 1):
        powers.append(powers[-1] * a)
        cols = [flatten(b * x) for x in powers[:d] for b in basis]
        coeffs = _o_solve(base, cols, flatten(powers[d]))
        if coeffs is not None:
            return Poly(field, [-sum((lift(c, field) * b for c, b in
                                      zip(coeffs[i * m:i * m + m], basis)),
                                     field.zero) for i in range(d)]
                        + [field.one])
    raise AssertionError("no linear dependence within the degree bound")


@pytest.mark.parametrize("name", [entry.name for entry in BUILTIN])
def test_minimal_polynomial_over_subfields(corpus, name):
    """Over K, the one subfield minimal polynomials are taken over, for the
    generators and the named elements, against the solve over K's basis."""
    spec = corpus[name]
    E = spec.field
    K = base_subfield(E)
    elements = stage_generators(E) + [spec.element(n) for n in
                                      sorted(spec.names)]
    for a in elements:
        assert lift_poly(minimal_polynomial(a), E) == \
            _o_minimal_polynomial_over(a, K)


def _o_peel(f, r):
    """Repeated long division by x - r; the count of divisions."""
    F = f.field
    coeffs, lin, count = list(f.coeffs), [-r, F.one], 0
    while True:
        q, rem = _o_divmod(F, coeffs, lin)
        if rem:
            return coeffs, count
        coeffs, count = q, count + 1


# the corpus towers, and a quartic x^4 + t*x^2 + t = g(x^2) over F_2(t)
# whose quotient by (x - s)^2 is x^2 + s^2 + t, as mixed_p2's is x^2 + b^2 + 1
PEEL_TOWERS = ["gf4", "biquadratic_p3", "sqrt_t_p2", "fifth_t_p5",
               "insep_tower_p2", "mixed_p2",
               "base FpT 2\ngen s : x^4 + t*x^2 + t\n"]


def _peel_field(corpus, name):
    return corpus[name].field if name in corpus else parse_tower(name).field


@pytest.mark.parametrize("name", PEEL_TOWERS)
def test_peel_matches_repeated_long_division(corpus, name):
    E = _peel_field(corpus, name)
    rng = random.Random(name)
    for stage in extension_stages(E):
        g = lift(stage.generator, E)
        mp = minimal_polynomial(g)
        m = lift_poly(mp, E)
        coeffs, count = _o_peel(m, g)
        assert count == E.characteristic ** separable_decompose(mp).e
        assert list(_peel(m, g).coeffs) == coeffs
        while True:
            r = _random_element(E, rng)
            if not m.eval(r).is_zero():
                break
        with pytest.raises(PropertyViolation):
            _peel(m, r)


@pytest.mark.parametrize("name", PEEL_TOWERS)
def test_peel_makes_one_synthetic_division(corpus, monkeypatch, name):
    """One division of g by y - r^q for f = g(x^q), whatever the
    multiplicity q of the root r: no division per factor x - r."""
    divisions = []

    def counted(f, r):
        divisions.append(f.degree)
        return synthetic_division(f, r)

    for module in (poly_module, embeddings_module):
        monkeypatch.setattr(module, "synthetic_division", counted,
                            raising=False)
    E = _peel_field(corpus, name)
    for stage in extension_stages(E):
        g = lift(stage.generator, E)
        m = lift_poly(minimal_polynomial(g), E)
        divisions.clear()
        _peel(m, g)
        q = E.characteristic ** separable_decompose(m).e
        assert divisions == [m.degree // q]


def test_peel_strips_the_whole_power_of_an_inseparable_root(corpus):
    E = corpus["fifth_t_p5"].field
    g = E.generator
    m = lift_poly(minimal_polynomial(g), E)       # x^5 - t = (x - g)^5
    assert _peel(m, g) == Poly.one(E)
