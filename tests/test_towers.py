"""Tower construction, coordinates, minimal polynomials, and subfields."""

import gc
import itertools
import random
import weakref

import pytest

from fieldsep.basefields import FieldElement, PrimeField, RationalFunctionField
from fieldsep.corpus import BUILTIN
from fieldsep.errors import (FieldMismatchError, InputError,
                             PropertyViolation, ReducibleError)
from fieldsep.linalg import SpanBuilder
from fieldsep.parse import make_extension, parse_poly, parse_tower
from fieldsep.points import _finite_point_fields
from fieldsep.poly import Poly, poly_bezout
from fieldsep.separability import separable_closure
import fieldsep.towers as towers_module
from fieldsep.towers import (LOG_TABLE_MAX_ORDER, ExtensionField, Subfield,
                             base_subfield, bounded_count,
                             extension_stages, flatten,
                             full_subfield, is_ancestor,
                             iter_bounded_elements, iter_elements, lift,
                             lift_poly, minimal_polynomial, poly_eval,
                             stage_generators, tower_stages, unflatten)
from galois_oracle import count_products, lattice_nodes, pair_round_basis


@pytest.fixture(scope="module")
def gf16():
    return parse_tower("base Fp 2\ngen w : x^2 + x + 1\ngen v : x^2 + x + w\n")


@pytest.fixture(scope="module")
def biq():
    return parse_tower("base FpT 3\ngen s : x^2 + 2*t\ngen u : x^2 + 2*t + 2\n")


def test_make_extension_certifies_irreducibility():
    F2 = PrimeField(2)
    with pytest.raises(ReducibleError):
        make_extension(F2, parse_poly("x^2 + 1", F2), "r")
    with pytest.raises(InputError):
        make_extension(F2, parse_poly("x + 1", F2), "r")  # degree too small
    E = make_extension(F2, parse_poly("x^2 + x + 1", F2), "w")
    assert E.absolute_degree == 2
    assert poly_eval(E.minpoly, E.generator).is_zero()


def test_stage_navigation(gf16):
    E = gf16.field
    stages = tower_stages(E)
    assert [s.kind for s in stages] == ["prime", "extension", "extension"]
    assert is_ancestor(stages[1], E)
    assert is_ancestor(E, E)
    assert not is_ancestor(E, stages[1])


def test_lift_and_flatten_inverse(gf16):
    E = gf16.field
    w = gf16.element("w")
    v = gf16.element("v")
    a = w * v + v + 1
    assert unflatten(E, flatten(a)) == a
    assert len(flatten(a)) == 4
    # lifting from the middle stage commutes with arithmetic
    mid = E.parent
    wm = mid.generator
    assert lift(wm * wm, E) == lift(wm, E) * lift(wm, E)
    with pytest.raises(FieldMismatchError):
        lift(E.generator, mid)


def test_tower_arithmetic(gf16, biq):
    for spec in (gf16, biq):
        E = spec.field
        g = E.generator
        assert poly_eval(E.minpoly, g).is_zero()
        a = g + 1
        assert a * a.inverse() == E.one
        assert (a - a).is_zero()
        assert a ** 3 == a * a * a
    with pytest.raises(ZeroDivisionError):
        biq.field.zero.inverse()


def test_lift_poly_and_eval(biq):
    E = biq.field
    K = E.base
    f = Poly(K, [K.t, K.one])  # x + t
    fe = lift_poly(f, E)
    s = lift(E.parent.generator, E)
    assert fe.eval(s) == s + lift(K.t, E)
    assert poly_eval(f, s) == fe.eval(s)


def test_minimal_polynomial_oracles(gf16, biq):
    w = gf16.element("w")
    assert repr(minimal_polynomial(w)) == "x^2 + x + 1"
    v = gf16.element("v")
    assert minimal_polynomial(v).degree == 4
    assert poly_eval(minimal_polynomial(v), v).is_zero()
    s = lift(biq.field.parent.generator, biq.field)
    assert repr(minimal_polynomial(s)) == "x^2 + 2*t"


def test_subfield_spans(gf16):
    E = gf16.field
    w = gf16.element("w")
    v = gf16.element("v")
    K = base_subfield(E)
    assert K.dim == 1
    L = Subfield(E, [w])
    assert L.dim == 2
    assert L.contains(w * w)          # closed under multiplication
    assert not L.contains(v)
    assert full_subfield(E).dim == 4
    assert Subfield(E, [v]).dim == 4  # v generates everything
    assert L.same_as(Subfield(E, [w + 1]))
    assert Subfield(E, [w, v]).dim == 2 * L.dim     # [L(v) : L] = 2
    assert minimal_polynomial(w).degree == 2


def test_subfield_over_rational_base(biq):
    E = biq.field
    s = lift(E.parent.generator, E)
    u = E.generator
    assert Subfield(E, [s]).dim == 2
    assert Subfield(E, [s * u]).dim == 2
    assert Subfield(E, [s, u]).dim == 4
    assert base_subfield(E).contains(lift(E.base.t, E))


def test_element_enumeration(gf16):
    E = gf16.field
    elems = list(iter_elements(E))
    assert len(elems) == 16
    assert len({flatten(e) for e in elems}) == 16
    K = RationalFunctionField(2)
    T = parse_tower("base FpT 2\ngen s : x^2 + t\n").field
    got = list(iter_bounded_elements(T, 0))
    assert len(got) == bounded_count(T, 0) == 4
    with pytest.raises(InputError):
        list(iter_elements(T))
    assert bounded_count(T, 1) == 16


def test_element_coercions(gf16):
    E = gf16.field
    assert E.element(3) == E.one  # 3 mod 2
    w = gf16.element("w")
    assert E.element(w) == w
    with pytest.raises(InputError):
        E.element((E.parent.zero,))  # wrong coordinate count
    assert E.element((E.parent.one, E.parent.zero)) == E.one


def _random_element(field, rng):
    """Random base coordinates, a third of them zero; over F_p(t) they are
    fractions with numerator degree <= 2 and denominator degree <= 1."""
    K = field.base
    p = K.characteristic
    coords = []
    for _ in range(field.absolute_degree):
        if rng.random() < 1 / 3:
            coords.append(K.zero)
        elif K.kind == "prime":
            coords.append(K.element(rng.randrange(p)))
        else:
            num = [rng.randrange(p) for _ in range(3)]
            den = [rng.randrange(p), 1]
            coords.append(FieldElement(K, K.normalize(num, den)))
    return unflatten(field, coords)


@pytest.mark.parametrize("name", [entry.name for entry in BUILTIN])
def test_mul_matches_poly_route(corpus, name):
    """_mul on reps against the Poly route rep -> Poly -> divmod -> rep on
    every stage: prime, F_p(t) and extension parents, inseparable stages."""
    rng = random.Random(name)
    for stage in extension_stages(corpus[name].field):
        for _ in range(25):
            a = _random_element(stage, rng).rep
            b = _random_element(stage, rng).rep
            expected = stage._from_poly(stage._to_poly(a) * stage._to_poly(b))
            assert stage._mul(a, b) == expected


def _closure_every_pair(S):
    """The closure by multiplying every pair of every round again."""
    field = S.ambient
    sb = SpanBuilder(field.base, field.absolute_degree)
    elems = []
    for e in [field.one] + S.generators:
        if sb.add(flatten(e)):
            elems.append(e)
    changed = True
    while changed:
        changed = False
        snapshot = list(elems)
        for x in snapshot:
            for y in snapshot:
                if sb.add(flatten(x * y)):
                    elems.append(x * y)
                    changed = True
    return elems


@pytest.mark.parametrize("name", [e.name for e in BUILTIN])
def test_subfield_basis_matches_the_every_pair_closure(corpus, name):
    spec = corpus[name]
    E = spec.field
    gens = [lift(s.generator, E) for s in extension_stages(E)]
    subfields = [Subfield(E, gens[:k]) for k in range(1, len(gens) + 1)]
    subfields += [Subfield(E, [spec.element(n)]) for n in sorted(spec.names)]
    for S in subfields:
        assert S.basis == _closure_every_pair(S)


def test_subfield_basis_skips_products_already_tried(corpus, monkeypatch):
    E = corpus["gf4096"].field
    gens = [lift(s.generator, E) for s in extension_stages(E)]
    calls = []
    add = SpanBuilder.add

    def counted(self, v):
        calls.append(v)
        return add(self, v)

    monkeypatch.setattr(SpanBuilder, "add", counted)
    _closure_every_pair(Subfield(E, gens))
    every_pair = len(calls)
    calls.clear()
    assert Subfield(E, gens).dim == 12
    assert len(calls) < every_pair / 2


def test_subfield_contains_builds_no_span(corpus, monkeypatch):
    E = corpus["gf4096"].field
    w, c, v = [lift(s.generator, E) for s in extension_stages(E)]
    L, M = Subfield(E, [w, c]), Subfield(E, [w * c])
    assert L.dim == M.dim == 6
    built = []
    init = SpanBuilder.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(SpanBuilder, "__init__", counted)
    assert L.contains(w * c + 1) and not L.contains(v)
    assert L.same_as(M) and M.same_as(L)
    assert built == []


# -- the closure routes, against the pair rounds ------------------------------


def _corpus_subfields(spec, ctx):
    """Fresh Subfields on the generators of every stage prefix, every
    lattice node, K(a) for every declared name and the separable closure."""
    E = spec.field
    gens = stage_generators(E)
    sets = [gens[:k] for k in range(len(gens) + 1)]
    sets += [L.generators for L in lattice_nodes(E, ctx)]
    sets += [[spec.element(n)] for n in sorted(spec.names)]
    sets.append(separable_closure(E, ctx).closure.generators)
    return [Subfield(E, gens) for gens in sets]


@pytest.mark.parametrize("name", [e.name for e in BUILTIN])
def test_subfield_basis_matches_the_pair_rounds(corpus, contexts, name):
    """Every route gives the pair rounds' basis, in its order, and field
    generators that generate the same field."""
    spec = corpus[name]
    for S in _corpus_subfields(spec, contexts(name)):
        assert S.basis == pair_round_basis(S.ambient, S.generators)
        assert Subfield(S.ambient, S.field_generators).same_as(S)
        assert len(S.field_generators) <= max(len(S.generators), 1)


def _scalar(K, rng):
    """A random element of F_p, or a random polynomial of degree <= 1 in
    F_p[t]."""
    if K.kind == "prime":
        return K.element(rng.randrange(K.p))
    return K.element((rng.randrange(K.p), rng.randrange(K.p)))


@pytest.mark.parametrize("name", ["gf64_tower", "gf729", "biquadratic_p3"])
def test_seeded_generator_sets_match_the_pair_rounds(corpus, contexts, name):
    """Two or three random elements of a random lattice node: the basis is
    the pair rounds', and one generator certifies some of the spans."""
    E = corpus[name].field
    K = E.base
    nodes = lattice_nodes(E, contexts(name))
    rng = random.Random(f"subfield generator sets {name}")
    certified = 0
    for _ in range(30):
        L = rng.choice(nodes)
        gens = [sum((lift(_scalar(K, rng), E) * b for b in L.basis), E.zero)
                for _ in range(rng.randint(2, 3))]
        S = Subfield(E, gens)
        assert S.basis == pair_round_basis(E, gens)
        assert Subfield(E, S.field_generators).same_as(S)
        certified += len(S.field_generators) == 1
    assert certified > 0


@pytest.mark.parametrize("name", [e.name for e in BUILTIN])
def test_closure_products(corpus, contexts, monkeypatch, name):
    """K(a) of degree d takes d - 1 products.  A lattice node, already
    spanned by its generators, takes deg(g) - 1 for each generator g it
    tries, up to the one that certifies it, or all of them on E: at most
    its dimension, except on gf4096's E, which tries seven monomials of
    lower degree before one of degree 12."""
    spec = corpus[name]
    E = spec.field
    names = sorted(spec.names)
    degrees = {n: minimal_polynomial(spec.element(n)).degree for n in names}
    nodes = []
    for L in lattice_nodes(E, contexts(name)):
        tried = Subfield(E, L.generators).field_generators
        if len(L.generators) <= 1:
            expected = L.dim - 1
        else:
            if len(tried) == 1:
                tried = L.basis[1:L.basis.index(tried[0]) + 1]
            else:
                assert L.dim == E.absolute_degree
            expected = sum(minimal_polynomial(g).degree - 1 for g in tried)
        nodes.append((L, expected))
    products = count_products(monkeypatch, E)
    for n in names:
        products.clear()
        assert Subfield(E, [spec.element(n)]).dim == degrees[n]
        assert len(products) == degrees[n] - 1
    for L, expected in nodes:
        products.clear()
        assert Subfield(E, L.generators).basis == L.basis
        assert len(products) == expected
        if (name, L.dim) != ("gf4096", 12):
            assert expected <= L.dim


# -- discrete-logarithm tables of small finite stages -------------------------

F5_TOWER = "base Fp 5\ngen i : x^2 + 2\ngen c : x^3 + 2*x + i\n"
BUILTIN_TEXT = {e.name: e.text for e in BUILTIN}
FINITE_TOWERS = {e.name: e.text for e in BUILTIN if "base Fp " in e.text}
FINITE_TOWERS["f5_tower"] = F5_TOWER


def _finite_stages(name):
    if name == "F_25 point field":
        return [next(V.fq for V in _finite_point_fields(5)
                     if V.absolute_degree == 2)]
    return extension_stages(parse_tower(FINITE_TOWERS[name]).field)


def _schoolbook_inverse(stage, a):
    g, inv = poly_bezout(stage._to_poly(a), stage.minpoly)
    assert g.degree == 0
    return stage._from_poly(inv)


def _flat_route(stage, op):
    """op on the flat coordinates over F_p, nested back: the coordinate
    tuple route of a sum, with no table at any stage."""
    p = stage.characteristic

    def route(*reps):
        flat = [towers_module._flat_reps(stage, r) for r in reps]
        return towers_module._nest_reps(
            stage, [op(*cs) % p for cs in zip(*flat)])
    return route


@pytest.mark.parametrize("name", sorted(FINITE_TOWERS) + ["F_25 point field"])
def test_log_table_matches_schoolbook(name, monkeypatch):
    """_mul and _inv against the schoolbook route, and _add, _sub and
    _neg against the coordinate tuple route, on a fresh copy of every
    finite stage, in a process that has built no table yet: q - 1
    schoolbook products, then the product that builds the table, then
    products, inverses and sums on the table.  Sums are checked on every
    pair where q <= 64, on sampled pairs above that."""
    rng = random.Random(name)
    stages = _finite_stages(name)
    monkeypatch.setattr(towers_module, "_LOG_TABLES", {})
    for old in stages:
        stage = ExtensionField(old.parent, old.gen_name, old.minpoly)
        q = stage.characteristic ** stage.absolute_degree
        elems = [e.rep for e in itertools.islice(iter_elements(stage), 4096)]
        add, sub, neg = (_flat_route(stage, op) for op in (
            lambda x, y: x + y, lambda x, y: x - y, lambda x: -x))

        def pair():
            return rng.choice(elems), rng.choice(elems)

        def check_sums():
            pairs = itertools.product(elems, repeat=2) if q <= 64 else \
                (pair() for _ in range(2000))
            for a, b in pairs:
                assert stage._add(a, b) == add(a, b)
                assert stage._sub(a, b) == sub(a, b)
            assert all(stage._neg(a) == neg(a) for a in elems)

        if q > LOG_TABLE_MAX_ORDER:
            for _ in range(200):
                a, b = pair()
                assert stage._mul(a, b) == stage._schoolbook(a, b)
            assert stage.log_tables() is None and stage._table is None
            check_sums()
            continue
        for k in range(q - 1):
            a, b = pair()
            assert stage._mul(a, b) == stage._schoolbook(a, b)
            if k < 100 and a != stage._zero:
                assert stage._inv(a) == _schoolbook_inverse(stage, a)
        assert stage._table is None
        a, b = pair()
        assert stage._mul(a, b) == stage._schoolbook(a, b)
        table = stage.log_tables()
        assert stage._table is table
        assert len(table.log) == q and len(table.zech) == q - 1
        for _ in range(300):
            a, b = pair()
            assert stage._mul(a, b) == stage._schoolbook(a, b)
            assert stage._mul(a, stage._zero) == stage._zero
            if a != stage._zero:
                assert stage._inv(a) == _schoolbook_inverse(stage, a)
        with pytest.raises(ZeroDivisionError):
            stage._inv(stage._zero)
        check_sums()


def test_parses_of_one_tower_share_its_log_tables(monkeypatch):
    """A second parse of gf16 finds the tables of the first: both stages
    compute by logarithms at once, and no schoolbook product is made."""
    monkeypatch.setattr(towers_module, "_LOG_TABLES", {})
    first = extension_stages(parse_tower(BUILTIN_TEXT["gf16"]).field)
    tables = [stage.log_tables() for stage in first]
    assert all(t is not None for t in tables)
    products = []
    schoolbook = ExtensionField._schoolbook

    def counted(self, a, b):
        products.append(self)
        return schoolbook(self, a, b)

    monkeypatch.setattr(ExtensionField, "_schoolbook", counted)
    second = extension_stages(parse_tower(BUILTIN_TEXT["gf16"]).field)
    for old, new, table in zip(first, second, tables):
        assert new is not old and new._table is table
        assert new.log_tables() is table
        exp, log, zech = table.exp, table.log, table.zech
        g = new.generator.rep
        assert new._mul(g, g) == exp[2 * log[g] % new._units]
        assert new._add(new._one, g) == exp[zech[log[g]]]
    assert products == []


def test_no_log_table_above_the_order_limit():
    F2 = PrimeField(2)
    stage = make_extension(F2, parse_poly("x^13 + x^4 + x^3 + x + 1", F2),
                           "a")
    assert 2 ** 13 > LOG_TABLE_MAX_ORDER
    a = stage.generator.rep
    for _ in range(2 ** 13):
        a = stage._mul(a, a)
    assert stage._table is None and stage.log_tables() is None


def test_a_reducible_stage_fails_its_inverse_and_its_log_table():
    """A stage whose caller certified a reducible polynomial by mistake:
    an inverse that meets a factor raises ReducibleError, and its log
    table fails its certificate, as the units are no cyclic group of
    q - 1 powers."""
    F2 = PrimeField(2)
    reducible = ExtensionField(F2, "r", parse_poly("x^2 + 1", F2))
    with pytest.raises(ReducibleError):
        reducible._inv((1, 1))  # r + 1 divides x^2 + 1 over F_2
    with pytest.raises(PropertyViolation):
        reducible.log_tables()
    assert reducible._table is None


def test_log_table_of_a_non_generator_fails_its_certificate():
    stage = ExtensionField(PrimeField(2), "g",
                           parse_poly("x^4 + x + 1", PrimeField(2)))
    exp = stage.log_tables().exp
    with pytest.raises(PropertyViolation):
        stage._power_table(exp[3])      # order 5 in the 15 units of F_16
    with pytest.raises(PropertyViolation):
        stage._power_table(stage._one)


def test_minimal_polynomial_is_found_once_and_goes_with_its_tower(
        monkeypatch):
    eliminations = []

    class Counted(SpanBuilder):
        def __init__(self, *args):
            eliminations.append(args)
            super().__init__(*args)

    E = parse_tower("base FpT 3\ngen s : x^2 + 2*t\n"
                    "gen u : x^2 + 2*t + 2\n").field
    a = E.generator + lift(E.parent.generator, E)
    monkeypatch.setattr(towers_module, "SpanBuilder", Counted)
    m = minimal_polynomial(a)
    assert m.degree == 4 and len(eliminations) == 1
    assert minimal_polynomial(FieldElement(E, a.rep)) is m
    assert len(eliminations) == 1
    # for an element of a base field (which compares by value), each call
    # eliminates
    K = RationalFunctionField(3)
    for _ in range(2):
        assert minimal_polynomial(K.t + 1) == parse_poly("x - t - 1", K)
    assert len(eliminations) == 3
    assert E._minpolys[a.rep] is m
    ref = weakref.ref(E)
    del E, a
    gc.collect()
    assert ref() is None


def test_a_lifted_generator_shares_its_stage_entry(monkeypatch):
    widths = []

    class Counted(SpanBuilder):
        def __init__(self, base, n):
            widths.append(n)
            super().__init__(base, n)

    text = next(e.text for e in BUILTIN if e.name == "biquadratic_p3")
    E = parse_tower(text).field
    s = E.parent.generator
    monkeypatch.setattr(towers_module, "SpanBuilder", Counted)
    m = minimal_polynomial(lift(s, E))
    assert minimal_polynomial(s) is m and m is E.parent.minpoly
    assert widths == []


def _count_eliminations(monkeypatch):
    """The argument lists of the SpanBuilders that towers builds from now
    on, in order."""
    eliminations = []

    class Counted(SpanBuilder):
        def __init__(self, *args):
            eliminations.append(args)
            super().__init__(*args)

    monkeypatch.setattr(towers_module, "SpanBuilder", Counted)
    return eliminations


@pytest.mark.parametrize("name", ["gf4", "gf64_tower", "biquadratic_p3",
                                  "sqrt_t_p2", "mixed_p2", "insep_tower_p2"])
def test_a_certified_bottom_stage_states_its_minimal_polynomial(
        monkeypatch, name):
    text = next(e.text for e in BUILTIN if e.name == name)
    E = parse_tower(text).field
    bottom = extension_stages(E)[0]
    eliminations = _count_eliminations(monkeypatch)
    for field in tower_stages(E)[1:]:
        g = lift(bottom.generator, field)
        assert minimal_polynomial(g) is bottom.minpoly
    assert eliminations == []
    # a stage over a stage still eliminates, once
    if E is not bottom:
        minimal_polynomial(E.generator)
        minimal_polynomial(E.generator)
        assert len(eliminations) == 1
