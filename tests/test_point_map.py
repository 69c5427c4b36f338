"""The point map of F_p(t) and of its small towers: a ring map into a
finite point field, the root scan it screens and the squarefree
certificates it gives, against the unscreened scan kept here as an
oracle."""

import gc
import importlib
import itertools
import random
import weakref

import pytest

from fieldsep import points, towers
from fieldsep.basefields import FieldElement, RationalFunctionField
from fieldsep.corpus import BUILTIN
from fieldsep.embeddings import normal_closure_context
from fieldsep.factor import distinct_root_count, factor
from fieldsep.parse import parse_tower
from fieldsep.points import CHEAP_ROOT_CANDIDATES, point_map
from fieldsep.poly import Poly, poly_gcd
from fieldsep.towers import (bounded_count, extension_stages,
                             iter_bounded_elements, iter_elements, lift,
                             lift_poly, minimal_polynomial, power_basis,
                             unflatten)

factor_module = importlib.import_module("fieldsep.factor")

# the corpus towers over F_p(t) with p^n <= CHEAP_ROOT_CANDIDATES
SMALL_TOWERS = ["sqrt_t_p2", "cbrt_t_p3", "quartic_t_p2", "mixed_p2",
                "sqrt_t_p3", "biquadratic_p3", "insep_tower_p2",
                "trans_tower_p3"]

BIQUADRATIC = "base FpT 3\ngen s : x^2 + 2*t\ngen u : x^2 + 2*t + 2\n"
SQRT_T = "base FpT 3\ngen s : x^2 + 2*t\n"


def _o_cheap_roots(f, field, max_height=None):
    """The unscreened scan: every candidate of every height evaluated.
    Where there is no candidate it returns [] at once, as the scan does."""
    if bounded_count(field, 0) > CHEAP_ROOT_CANDIDATES:
        return []
    expected = distinct_root_count(f)
    found = []
    h = 0
    while (max_height is None or h <= max_height) and \
            bounded_count(field, h) <= CHEAP_ROOT_CANDIDATES:
        found = []
        for cand in iter_bounded_elements(field, h):
            if f.eval(cand).is_zero():
                found.append(cand)
                if len(found) == expected:
                    return found
        h += 1
    return found


def _bounded_element(field, rng, height):
    """Random base coordinates that are polynomials in t of degree <= height."""
    K = field.base
    return unflatten(field, [
        K.element(tuple(rng.randrange(K.p) for _ in range(height + 1)))
        for _ in range(field.absolute_degree)])


def _element(field, rng):
    """Random base coordinates with a denominator of degree <= 1, a third
    of them zero."""
    K = field.base
    coords = []
    for _ in range(field.absolute_degree):
        num = tuple(rng.randrange(K.p) for _ in range(2))
        den = (rng.randrange(K.p), 1) if rng.random() < 0.5 else (1,)
        coords.append(K.zero if rng.random() < 1 / 3
                      else K.element(K.normalize(num, den)))
    return unflatten(field, coords)


def _scan_inputs(spec, field, rng):
    """Stage minimal polynomials (relative and absolute), the corpus
    elements' minimal polynomials, and seeded products of x - r_i with
    r_i of height 0 and 1, all over field."""
    E = spec.field
    polys = []
    for stage in extension_stages(E):
        polys.append(lift_poly(stage.minpoly, field))
        polys.append(lift_poly(minimal_polynomial(stage.generator), field))
    for name in sorted(spec.names):
        polys.append(lift_poly(minimal_polynomial(spec.element(name)), field))
    for heights in [(0, 0), (0, 1), (1, 1, 0)]:
        f = Poly.one(field)
        for h in heights:
            f = f * Poly(field, [-_bounded_element(field, rng, h), field.one])
        polys.append(f)
    return polys


@pytest.mark.parametrize("name", SMALL_TOWERS)
def test_screened_scan_matches_the_unscreened_scan(corpus, contexts, name):
    spec, ctx = corpus[name], contexts(name)
    rng = random.Random(name)
    separable = factor_module._tower_separable(spec.field)
    for field in dict.fromkeys([spec.field, ctx.N]):
        for f in _scan_inputs(spec, field, rng):
            for height in (0, None) if not separable else (0,):
                assert factor_module._cheap_roots(f, field, height) == \
                    _o_cheap_roots(f, field, height), (field, f, height)


def test_small_towers_get_a_map_and_large_closures_none(corpus, contexts):
    for name in SMALL_TOWERS:
        E, N = corpus[name].field, contexts(name).N
        assert point_map(E) is not None
        p = E.characteristic
        assert (point_map(N) is None) == \
            (p ** N.absolute_degree > CHEAP_ROOT_CANDIDATES)
    assert point_map(corpus["fifth_t_p5"].field) is None   # 5^5 elements
    assert point_map(corpus["gf4"].field) is None           # a prime base


@pytest.mark.parametrize("name", ["biquadratic_p3", "insep_tower_p2",
                                  "trans_tower_p3"])
def test_point_map_is_a_ring_map(corpus, name):
    E = corpus[name].field
    phi = point_map(E)
    V = phi.values
    rng = random.Random(name)
    checked = 0
    for _ in range(40):
        x, y = _element(E, rng), _element(E, rng)
        vx, vy = phi.value(E, x.rep), phi.value(E, y.rep)
        if vx is None or vy is None:
            continue
        checked += 1
        assert phi.value(E, (x * y).rep) == V._mul(vx, vy)
        assert phi.value(E, (x + y).rep) == V._add(vx, vy)
    assert checked >= 20
    # F_p-independent images: the p^n elements of height 0 map apart
    images = {phi.value(E, a.rep) for a in iter_bounded_elements(E, 0)}
    assert len(images) == E.characteristic ** E.absolute_degree
    for stage in extension_stages(E):   # each generator goes to a root
        g = phi.poly(lift_poly(stage.minpoly, E))
        root = FieldElement(V, phi.value(E, lift(stage.generator, E).rep))
        assert g.eval(root).is_zero()


def _monic(field, rng, degree):
    return Poly(field, [_element(field, rng) for _ in range(degree)]
                + [field.one])


@pytest.mark.parametrize("tower", ["F_3(t)", "biquadratic_p3"])
def test_the_certificate_never_fires_on_a_square(corpus, tower):
    field = (RationalFunctionField(3) if tower == "F_3(t)"
             else corpus[tower].field)
    phi = point_map(field)
    rng = random.Random(tower)
    for _ in range(10):
        g, h = _monic(field, rng, rng.randrange(1, 3)), \
            _monic(field, rng, rng.randrange(0, 3))
        assert not phi.squarefree(g * g * h)


def test_a_certified_polynomial_is_squarefree():
    K = RationalFunctionField(3)
    phi = point_map(K)
    rng = random.Random(5)
    certified = 0
    for _ in range(20):
        f = _monic(K, rng, rng.randrange(2, 5))
        if phi.squarefree(f):
            certified += 1
            assert poly_gcd(f, f.formal_derivative()).degree == 0
    assert certified >= 10


def test_the_norm_certificate_never_fires_on_a_square(corpus):
    E = corpus["biquadratic_p3"].field
    rng = random.Random(3)
    for _ in range(3):
        g = _monic(E, rng, 1)
        norm, certified = factor_module._norm_to_base(g * g, power_basis(E))
        assert not certified and norm.degree == 2 * E.absolute_degree


def test_a_tower_without_a_map_takes_the_exact_path(monkeypatch):
    rng = random.Random(7)
    mapped = parse_tower(SQRT_T).field
    point_map(mapped)
    monkeypatch.setattr(points, "POINT_MAP_TRIES", 0)
    bare = parse_tower(SQRT_T).field
    assert point_map(mapped) is not None and point_map(bare) is None
    for heights in [(0, 0, 1), (0, 1, 1), (0, 0, 0, 0), (1, 1)]:
        f = Poly.one(mapped)
        for h in heights:
            f = f * Poly(mapped, [-_bounded_element(mapped, rng, h),
                                  mapped.one])
        g = Poly(bare, [unflatten(bare, list(towers.flatten(c)))
                        for c in f.coeffs])
        assert repr(factor(f).factors) == repr(factor(g).factors)


def test_the_map_goes_with_its_tower():
    E = parse_tower(BIQUADRATIC).field
    assert point_map(E) is point_map(E)
    ref = weakref.ref(E)
    del E
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("tower", ["F_3(t)", "biquadratic_p3"])
def test_the_certified_root_count_matches_the_exact_route(
        corpus, monkeypatch, tower):
    # squarefree, non-squarefree, non-monic and x -> x^p inputs; the
    # exact route is the one a field without a map takes, and over the
    # tower its gcds are slow beyond degree 2
    field = (RationalFunctionField(3) if tower == "F_3(t)"
             else corpus[tower].field)
    phi = point_map(field)
    rng = random.Random(f"root count {tower}")
    top = 3 if field.kind == "rational_function" else 2
    polys = []
    for _ in range(8):
        g, h = _monic(field, rng, rng.randrange(1, top)), \
            _monic(field, rng, rng.randrange(1, top))
        polys += [g * h, g * g * h, g * g, g ** 3 * h, (g * h).scale(lift(
            RationalFunctionField(3).t + 1, field)),
            (g * h).substitute_power(3)]
    counts = [distinct_root_count(f) for f in polys]
    certified = sum(phi.squarefree(f) for f in polys)
    monkeypatch.setattr(factor_module, "point_map", lambda field: None)
    assert [distinct_root_count(f) for f in polys] == counts
    assert certified >= 8 and len(set(counts)) > 1


def test_each_point_field_builds_its_values_once(monkeypatch):
    # after one closure of each corpus tower over F_p(t), a second round
    # builds no values for any point field: the list of point fields
    # keeps them
    texts = [e.text for e in BUILTIN if "base FpT" in e.text]
    for text in texts:
        normal_closure_context(parse_tower(text).field)
    built = []
    init = points.PointValues.__init__

    def counted_init(V, fq):
        built.append(fq)
        init(V, fq)

    monkeypatch.setattr(points.PointValues, "__init__", counted_init)
    for text in texts:
        normal_closure_context(parse_tower(text).field)
    point_fields = {id(V.fq) for fields in points._POINT_FIELDS.values()
                    for V in fields}
    assert point_fields and [fq for fq in built if id(fq) in point_fields] == []


def test_an_element_of_values_hashes_and_prints_as_its_point_field():
    # F_3, F_9 and F_27: values are the reps over F_3 and logarithms on
    # the extensions, which have tables
    for V in itertools.islice(points._finite_point_fields(3), 3):
        elements = list(iter_elements(V.fq))
        values = [FieldElement(V, V.encode(a.rep)) for a in elements]
        assert [repr(v) for v in values] == [repr(a) for a in elements]
        assert len(set(values)) == len(elements) == len(set(elements))
        assert hash(V.one) == hash(FieldElement(V, V.ints[1]))
        assert repr(V.one) == "1" and repr(V.zero) == "0"
