"""Splitting contexts, embedding enumeration, restriction, and extension."""

import gc
import importlib
import random
import weakref

import pytest

from fieldsep.corpus import BUILTIN
from fieldsep.embeddings import (Embedding, SplittingContext, _split_completely,
                                 count_hom, hom_set, normal_closure_context,
                                 restriction, tower_audit)
from fieldsep.errors import (ContextTooSmallError, FieldMismatchError,
                             InputError, PropertyViolation)
from fieldsep.factor import (distinct_root_count, is_irreducible, roots_in,
                             separable_decompose)
from fieldsep.lattice import subfields_finite
from fieldsep.parse import make_extension, parse_poly, parse_tower
from fieldsep.basefields import (FieldElement, PrimeField,
                                 RationalFunctionField)
from fieldsep.poly import Poly
from fieldsep.separability import hom_count_criterion, separable_closure
from fieldsep.towers import (Subfield, base_subfield, extension_stages,
                             flatten, full_subfield, lift, lift_poly,
                             minimal_polynomial, poly_eval, power_basis,
                             stage_generators, tower_stages, unflatten)
from galois_oracle import (compose, count_products, identity_embedding,
                           lattice_nodes)

embeddings_module = importlib.import_module("fieldsep.embeddings")
factor_module = importlib.import_module("fieldsep.factor")


def test_splitting_field_finite():
    # the known root 1 over F_2 leaves x^3 + x + 1, adjoined once
    F2 = PrimeField(2)
    f = parse_poly("(x + 1)*(x^3 + x + 1)", F2)
    N, counter, roots = _split_completely(f, F2, 0, F2.one)
    assert N.absolute_degree == 3 and counter == 1 and N.gen_name == "n1"
    assert len(roots) == 4
    fN = lift_poly(f, N)
    assert all(fN.eval(r).is_zero() for r in roots)


def test_splitting_field_ratfunc():
    K = RationalFunctionField(3)
    f = parse_poly("x^2 + 2*t", K)
    E = make_extension(K, f, "s")
    N, _counter, roots = _split_completely(f, E, 0, E.generator)
    assert N is E
    assert len(roots) == 2
    assert roots[0] == -roots[1]


def test_roots_of_caches_and_checks():
    K = RationalFunctionField(2)
    f = parse_poly("x^2 + t", K)  # one distinct root (inseparable)
    E = make_extension(K, f, "s")
    N, _counter, roots = _split_completely(f, E, 0, E.generator)
    assert N.absolute_degree == 2 and len(roots) == 1
    stage = parse_tower("base FpT 2\ngen s : x^2 + t\n").field
    ctx = normal_closure_context(stage)
    pool = ctx.pools[stage]
    assert len(pool) == 1 and poly_eval(f, pool[0]).is_zero()
    # the stored pool is returned
    identity = Embedding(stage.parent, ctx.N, ())
    assert embeddings_module._stage_roots(stage, identity, ctx) is pool


def test_context_too_small(monkeypatch):
    # x^3 - t over F_5(t): only one cube root lives in K(gamma), and a
    # context built by hand holds no pool for it; the miss factors nothing
    spec = parse_tower("base FpT 5\ngen g : x^3 + 4*t\n")
    E = spec.field
    ctx = SplittingContext(E)

    def refuse(*_args, **_kwargs):
        raise AssertionError("hom_set factored a polynomial")

    for module in (embeddings_module, factor_module):
        for name in ("factor", "roots_in"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    with pytest.raises(ContextTooSmallError):
        hom_set(E, None, ctx)


def test_identity_embedding_and_apply():
    spec = parse_tower("base Fp 2\ngen w : x^2 + x + 1\ngen v : x^2 + x + w\n")
    E = spec.field
    phi = identity_embedding(E, E)
    v = spec.element("v")
    w = spec.element("w")
    assert phi.apply(v) == v
    assert phi.apply(v * w + 1) == v * w + 1
    # applying to an element of an inner stage works too
    assert phi.apply(E.parent.generator) == w
    with pytest.raises(FieldMismatchError):
        phi.apply(PrimeField(3).one)


def _image_reps(phi):
    """The reps of phi's images, which order Hom_K(E)."""
    return tuple(img.rep for img in phi.images)


def test_hom_set_biquadratic_is_klein_group(contexts, corpus):
    spec = corpus["biquadratic_p3"]
    E = spec.field
    ctx = contexts("biquadratic_p3")
    maps = hom_set(E, base_subfield(E), ctx)
    assert len(maps) == 4
    assert maps == sorted(maps, key=_image_reps)
    # every map is an involution and the set is closed under composition
    ident = identity_embedding(E, ctx.N)
    assert ident in maps
    for phi in maps:
        assert compose(phi, phi) == ident
    s = lift(E.parent.generator, E)
    images = sorted(repr(phi.apply(s)) for phi in maps)
    assert images == ["2*s", "2*s", "s", "s"]


def test_hom_set_respects_the_fixed_subfield(contexts, corpus):
    spec = corpus["biquadratic_p3"]
    E = spec.field
    ctx = contexts("biquadratic_p3")
    s = lift(E.parent.generator, E)
    L = Subfield(E, [s])
    maps = hom_set(E, L, ctx)
    assert len(maps) == 2
    assert all(phi.apply(s) == lift(s, ctx.N) for phi in maps)


def _extensions(phi, E, ctx):
    """The maps of Hom_K(E) that extend phi, a map of Hom_K(E.parent)."""
    return [psi for psi in hom_set(E, None, ctx)
            if psi.images[:-1] == phi.images]


def test_extend_embedding_counts(contexts, corpus):
    spec = corpus["biquadratic_p3"]
    E = spec.field
    ctx = contexts("biquadratic_p3")
    P = E.parent
    lower = hom_set(P, base_subfield(P), ctx)
    assert len(lower) == 2
    total = []
    for phi in lower:
        total.extend(_extensions(phi, E, ctx))
    assert len(total) == 4
    assert sorted(total, key=_image_reps) == \
        hom_set(E, base_subfield(E), ctx)


def test_agree_on(contexts, corpus):
    spec = corpus["biquadratic_p3"]
    E = spec.field
    ctx = contexts("biquadratic_p3")
    maps = hom_set(E, base_subfield(E), ctx)
    K = base_subfield(E)
    s = lift(E.parent.generator, E)
    L = Subfield(E, [s])
    for phi in maps:
        assert restriction(phi, K) == restriction(maps[0], K)  # all fix K
    disagree = [psi for psi in maps
                if restriction(psi, L) != restriction(maps[0], L)]
    assert len(disagree) == 2


def test_normal_closure_inseparable(contexts, corpus):
    spec = corpus["sqrt_t_p2"]
    E = spec.field
    ctx = contexts("sqrt_t_p2")
    assert ctx.N is E  # x^2 + t already splits as (x + s)^2
    assert count_hom(E, base_subfield(E), ctx) == 1


def test_normal_closure_grows_when_needed():
    spec = parse_tower("base Fp 2\ngen c : x^3 + x + 1\n")
    E = spec.field
    ctx = normal_closure_context(E)
    # GF(8) is normal over F_2, so no growth is needed
    assert ctx.N is E
    assert count_hom(E, base_subfield(E), ctx) == 3
    # a non-normal cubic over F_5(t) needs a genuine closure
    spec2 = parse_tower("base FpT 5\ngen g : x^3 + 4*t\n")
    E2 = spec2.field
    ctx2 = normal_closure_context(E2)
    assert ctx2.N.absolute_degree > 3
    assert count_hom(E2, base_subfield(E2), ctx2) == 3


def test_tower_audit(contexts, corpus):
    spec = corpus["gf64_tower"]
    E = spec.field
    ctx = contexts("gf64_tower")
    w = lift(E.parent.generator, E)
    audit = tower_audit(E, Subfield(E, [w]), ctx)
    assert audit.formula_holds
    assert audit.hom_K_E <= audit.degree
    assert audit.hom_K_E == 6
    assert (audit.hom_L_E, audit.hom_K_L) == (3, 2)


def test_embedding_images_are_conjugate_roots(contexts, corpus):
    spec = corpus["gf729"]
    E = spec.field
    ctx = contexts("gf729")
    maps = hom_set(E, base_subfield(E), ctx)
    assert len(maps) == 6
    stages = [s for s in tower_stages(E) if s.kind == "extension"]
    for phi in maps:
        for stage, img in zip(stages, phi.images):
            m = minimal_polynomial(lift(stage.generator, E))
            assert poly_eval(m, img).is_zero()


BUILTIN_TEXT = {e.name: e.text for e in BUILTIN}


@pytest.mark.parametrize("name", ["gf16", "biquadratic_p3"])
def test_hom_set_is_enumerated_once_per_context(monkeypatch, name):
    # a fresh parse: the fields of the shared corpus fixture keep the
    # contexts that other tests have built on them
    module = importlib.import_module("fieldsep.embeddings")
    calls = []
    stage_roots = module._stage_roots

    def counted(*args):
        calls.append(args)
        return stage_roots(*args)

    monkeypatch.setattr(module, "_stage_roots", counted)
    E = parse_tower(BUILTIN_TEXT[name]).field
    ctx = normal_closure_context(E)
    K = base_subfield(E)
    assert len(hom_set(E, K, ctx)) == 4
    first = len(calls)
    assert first > 0
    gens = stage_generators(E)
    subfields = [Subfield(E, gens[:k]) for k in range(1, len(gens))]
    hom_set(E, K, ctx)
    for L in [K, full_subfield(E)] + subfields:
        count_hom(E, L, ctx)
        tower_audit(E, L, ctx)
    hom_count_criterion(E, ctx)
    assert len(calls) == first


@pytest.mark.parametrize("name", ["gf16", "gf64_tower", "biquadratic_p3"])
def test_one_context_per_field(monkeypatch, name):
    """normal_closure_context builds a field's context once and returns
    it while a caller holds it; subfields_finite reuses it, and the maps
    of Hom_K(E) that a caller has enumerated on it."""
    E = parse_tower(BUILTIN_TEXT[name]).field
    ctx = normal_closure_context(E)
    maps = hom_set(E, None, ctx)

    def refuse(*_args):
        raise AssertionError("a context or a map was built again")

    monkeypatch.setattr(embeddings_module, "_closure_context", refuse)
    monkeypatch.setattr(embeddings_module, "_stage_roots", refuse)
    assert normal_closure_context(E) is ctx
    assert hom_set(E, None, normal_closure_context(E)) == maps
    if E.base.kind == "prime":
        nodes = subfields_finite(E).nodes
        assert nodes[0].dim == 1 and nodes[-1].dim == E.absolute_degree


@pytest.mark.parametrize("name", ["gf4", "gf64_tower", "gf729",
                                  "biquadratic_p3", "sqrt_t_p2",
                                  "insep_tower_p2", "trans_tower_p3",
                                  "mixed_p2"])
def test_a_tower_and_its_context_are_freed_without_the_collector(name):
    """No parsed tower, context or splitting field is a reference cycle:
    with the cyclic collector off, each goes once its last reference is
    deleted, after a parse alone and after a context has enumerated
    Hom_K(E) and certified the separable closure."""
    gc.collect()
    gc.disable()
    try:
        E = parse_tower(BUILTIN_TEXT[name]).field
        refs = [weakref.ref(stage) for stage in tower_stages(E)]
        del E
        assert [r() for r in refs] == [None] * len(refs)
        E = parse_tower(BUILTIN_TEXT[name]).field
        ctx = normal_closure_context(E)
        hom_set(E, None, ctx)
        separable_closure(E, ctx)
        refs = [weakref.ref(x) for x in [ctx] + tower_stages(ctx.N)]
        del E, ctx
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


FINITE_ENTRIES = ["gf4", "gf16", "gf27", "gf64_tower", "gf729", "gf4096"]
F5_TOWER = "base Fp 5\ngen i : x^2 + 2\ngen c : x^3 + 2*x + i\n"


@pytest.mark.parametrize("name", FINITE_ENTRIES + ["f5_tower"])
def test_finite_context_is_E_with_frobenius_pools(corpus, monkeypatch, name):
    E = (parse_tower(F5_TOWER) if name == "f5_tower" else corpus[name]).field

    def no_factoring(*_args, **_kwargs):
        raise AssertionError("normal_closure_context factored a polynomial")

    for module in ("fieldsep.embeddings", "fieldsep.factor"):
        monkeypatch.setattr(importlib.import_module(module), "factor",
                            no_factoring)
    ctx = normal_closure_context(E)
    monkeypatch.undo()
    assert ctx.N is E
    gens = stage_generators(E)
    assert list(ctx.pools) == extension_stages(E)
    for stage, g in zip(extension_stages(E), gens):
        m = minimal_polynomial(g)
        pool = ctx.pools[stage]
        # Cantor-Zassenhaus over E, an independent route to the same roots
        assert pool == sorted(roots_in(m, E), key=lambda r: r.rep)


def test_frobenius_orbit_certificate_rejects_wrong_minpoly(corpus):
    orbit = importlib.import_module("fieldsep.embeddings")._frobenius_orbit
    w, v = stage_generators(corpus["gf16"].field)
    with pytest.raises(PropertyViolation):
        orbit(v, minimal_polynomial(w))  # two distinct non-roots
    with pytest.raises(PropertyViolation):
        orbit(w, minimal_polynomial(v))  # an orbit of 2 for a quartic


@pytest.mark.parametrize("name", ["sqrt_t_p2", "cbrt_t_p3", "fifth_t_p5",
                                  "quartic_t_p2", "sqrt_t_p3"])
def test_function_field_closure_factors_nothing(monkeypatch, name):
    # each stage generator g is a known root; once every x - g is divided
    # out, what is left has degree <= 1
    text = next(e.text for e in BUILTIN if e.name == name)
    E = parse_tower(text).field

    def no_factoring(*_args, **_kwargs):
        raise AssertionError("normal_closure_context factored a polynomial")

    for module in ("fieldsep.embeddings", "fieldsep.factor"):
        monkeypatch.setattr(importlib.import_module(module), "factor",
                            no_factoring)
    ctx = normal_closure_context(E)
    monkeypatch.undo()
    assert ctx.N is E
    for stage, g in zip(extension_stages(E), stage_generators(E)):
        m = minimal_polynomial(g)
        assert ctx.pools[stage] == sorted(roots_in(m, E), key=lambda r: r.rep)


def test_splitting_field_adjoins_no_factor_that_splits():
    # past the known root 1, x^2 - 3 splits over F_5(sqrt 2) = F_25, so N
    # has degree 2, not 4
    F5 = PrimeField(5)
    f = parse_poly("(x - 1)*(x^2 - 2)*(x^2 - 3)", F5)
    N, _counter, roots = _split_completely(f, F5, 0, F5.one)
    assert N.absolute_degree == 2
    assert len(roots) == 5
    fN = lift_poly(f, N)
    assert all(fN.eval(r).is_zero() for r in roots)


FUNCTION_FIELD_ENTRIES = [e.name for e in BUILTIN if "FpT" in e.text]


@pytest.mark.parametrize("name", FUNCTION_FIELD_ENTRIES)
def test_function_field_closure_stages_are_irreducible(contexts, name):
    for stage in extension_stages(contexts(name).N):
        assert is_irreducible(stage.minpoly)[0]


def test_embedding_builds_its_image_map_once(contexts, corpus, monkeypatch):
    """The first apply builds the matrix; later ones take no product in N."""
    E = corpus["biquadratic_p3"].field
    ctx = contexts("biquadratic_p3")
    ident = identity_embedding(E, ctx.N)
    source = next(phi for phi in hom_set(E, None, ctx) if phi != ident)
    gens = stage_generators(E)
    expected = [source.apply(g) for g in gens]
    products = count_products(monkeypatch, ctx.N)
    phi = Embedding(E, ctx.N, source.images)
    seen = []
    for _ in range(3):
        assert [phi.apply(g) for g in gens] == expected
        seen.append((len(products), phi.matrix()))
    assert seen[0][0] > 0
    assert all(n == seen[0][0] and rows is seen[0][1] for n, rows in seen)


def horner_image(phi, field, rep):
    """The rep of phi's image of an element of a stage of its domain, by
    Horner in the image of each stage generator: the evaluation that the
    matrix replaced, kept as an oracle."""
    N = phi.codomain
    if field.kind != "extension":
        return lift(FieldElement(field, rep), N).rep
    img = phi.images[len(extension_stages(field)) - 1].rep
    coords = reversed(rep)
    acc = horner_image(phi, field.parent, next(coords))
    for coord in coords:
        acc = N._add(N._mul(acc, img), horner_image(phi, field.parent, coord))
    return acc


def _seeded_elements(E, count, seed):
    """count elements of E with coordinates drawn from a few scalars, and
    t, t + 1 and 1/t over F_p(t)."""
    K = E.base
    rng = random.Random(seed)
    pool = [K.element(k) for k in range(min(K.characteristic, 5))]
    if K.kind == "rational_function":
        pool += [K.t, K.t + 1, K.one / K.t]
    return [unflatten(E, [rng.choice(pool) for _ in range(E.absolute_degree)])
            for _ in range(count)]


@pytest.mark.parametrize("name", [e.name for e in BUILTIN
                                  if e.name != "gf4096"])
def test_matrix_image_matches_the_horner_oracle(corpus, contexts, name):
    """Every map of Hom_K(E) agrees with Horner on the power basis of
    each stage, the base included, and on seeded elements of E and K."""
    E = corpus[name].field
    elements = [b for F in tower_stages(E) for b in power_basis(F)]
    elements += _seeded_elements(E, 4, name)
    elements += [unflatten(E.base, [a]) for a in
                 flatten(_seeded_elements(E, 1, name + "K")[0])[:2]]
    for phi in hom_set(E, None, contexts(name)):
        for a in elements:
            assert phi.apply(a).rep == horner_image(phi, a.field, a.rep)


@pytest.mark.parametrize("name", ["gf64_tower", "mixed_p2", "insep_tower_p2",
                                  "trans_tower_p3"])
def test_the_inclusion_builds_no_product(corpus, contexts, monkeypatch, name):
    """The inclusion's rows are a prefix of the identity and its images
    zero-padded lifts: neither takes a product in N."""
    E = corpus[name].field
    N = contexts(name).N
    ident = identity_embedding(E, N)
    assert ident in hom_set(E, None, contexts(name))
    products = count_products(monkeypatch, N)
    n, D = E.absolute_degree, N.absolute_degree
    zero, one = E.base._zero, E.base._one
    assert ident.matrix() == [tuple(one if j == i else zero for j in range(D))
                              for i in range(n)]
    for a in power_basis(E) + _seeded_elements(E, 3, name):
        assert ident.apply(a) == lift(a, N)
    assert products == []


MULTI_STAGE_ENTRIES = [e.name for e in BUILTIN if e.text.count("gen ") > 1
                       and e.name != "gf4096"]


@pytest.mark.parametrize("name", MULTI_STAGE_ENTRIES)
def test_an_extension_keeps_its_parent_rows(corpus, contexts, monkeypatch,
                                            name):
    """Each extension psi of phi in Hom_K(E.parent) begins with phi's rows,
    the same objects, and a fresh one builds the rest with
    [parent : K] * (d - 1) products in N."""
    E = corpus[name].field
    ctx = contexts(name)
    m, d = E.parent.absolute_degree, E.degree_over_parent
    for phi in hom_set(E.parent, None, ctx):
        for psi in _extensions(phi, E, ctx):
            rows = psi.matrix()
            assert len(rows) == m * d
            assert all(a is b for a, b in zip(rows, phi.matrix()))
            if psi == identity_embedding(E, ctx.N):
                continue
            products = count_products(monkeypatch, ctx.N)
            fresh = Embedding(E, ctx.N, psi.images, phi)
            assert fresh.matrix() == rows
            assert len(products) == m * (d - 1)
            monkeypatch.undo()


@pytest.mark.parametrize("name", [e.name for e in BUILTIN])
def test_identity_key_is_the_lifted_generators(corpus, contexts, name):
    """hom_set's key for the identity, the field generators of L lifted
    into N, is restriction(identity_embedding(E, N), L) on every stage
    subfield and lattice node."""
    E = corpus[name].field
    ctx = contexts(name)
    gens = stage_generators(E)
    subfields = [Subfield(E, gens[:k]) for k in range(len(gens) + 1)]
    subfields += lattice_nodes(E, ctx)
    ident = identity_embedding(E, ctx.N)
    maps = hom_set(E, None, ctx)
    for L in subfields:
        key = tuple(lift(g, ctx.N).rep for g in L.field_generators)
        assert key == restriction(ident, L)
        assert hom_set(E, L, ctx) == [phi for phi in maps
                                      if restriction(phi, L) == key]


@pytest.mark.parametrize("name", [e.name for e in BUILTIN])
def test_hom_set_keeps_the_maps_fixing_every_basis_element(
        corpus, contexts, name):
    """hom_set(E, L), which compares images of L's field generators,
    against the filter by the image of every basis element of L, on
    every stage subfield and lattice node."""
    E = corpus[name].field
    ctx = contexts(name)
    gens = stage_generators(E)
    subfields = [Subfield(E, gens[:k]) for k in range(len(gens) + 1)]
    subfields += lattice_nodes(E, ctx)
    maps = hom_set(E, None, ctx)
    for L in subfields:
        fixed = [lift(b, ctx.N) for b in L.basis]
        assert hom_set(E, L, ctx) == \
            [phi for phi in maps if [phi.apply(b) for b in L.basis] == fixed]


@pytest.mark.parametrize("name", [e.name for e in BUILTIN])
def test_stage_root_count_is_read_off_the_stage_shape(
        corpus, contexts, monkeypatch, name):
    # d / p^e for a stage minpoly g(x^(p^e)) of degree d, against the
    # exact gcd route over N, for every stage of the tower and of its
    # closure and every map of the stage's parent
    E, ctx = corpus[name].field, contexts(name)
    N, p = ctx.N, E.characteristic
    monkeypatch.setattr(factor_module, "point_map", lambda field: None)
    checked = 0
    for stage in extension_stages(N):
        shape = stage.degree_over_parent // \
            p ** separable_decompose(stage.minpoly).e
        for phi in embeddings_module._hom_K(stage.parent, ctx):
            m_img = Poly._from_reps(N, [phi._image(stage.parent, c)
                                        for c in stage.minpoly.reps])
            assert distinct_root_count(m_img) == shape
            assert len(embeddings_module._stage_roots(stage, phi, ctx)) \
                == shape
            checked += 1
    assert checked >= len(extension_stages(N))


def _o_stage_roots(stage, phi, ctx):
    """The roots in the stage's pool at which the stage minpoly, its
    coefficients mapped by phi, vanishes: Horner on FieldElements, every
    root of the pool evaluated.  Each root of the pool is checked to be a
    root of the stage generator's minpoly over K."""
    N = ctx.N
    coeffs = [phi.apply(c) if stage.parent.kind == "extension"
              else lift(c, N) for c in stage.minpoly.coeffs]
    m = minimal_polynomial(stage.generator)
    out = []
    for r in ctx.pools[stage]:
        assert poly_eval(m, r).is_zero()
        acc = N.zero
        for c in reversed(coeffs):
            acc = acc * r + c
        if acc.is_zero():
            out.append(r)
    return out


@pytest.mark.parametrize("name", [e.name for e in BUILTIN])
def test_stage_roots_match_the_filtered_pool(corpus, contexts, monkeypatch,
                                              name):
    # for every stage of the closure and every map of its parent; a stage
    # over K evaluates nothing, and a stage above stops at its last root
    ctx = contexts(name)
    evals = []
    original = Poly.eval

    def counted(f, a):
        evals.append(a)
        return original(f, a)

    for stage in extension_stages(ctx.N):
        pool = ctx.pools[stage]
        assert len({r.rep for r in pool}) == len(pool)
        for phi in embeddings_module._hom_K(stage.parent, ctx):
            expected = _o_stage_roots(stage, phi, ctx)
            evals.clear()
            with monkeypatch.context() as m:
                m.setattr(Poly, "eval", counted)
                roots = embeddings_module._stage_roots(stage, phi, ctx)
            assert roots == expected
            if stage.parent.kind != "extension":
                assert evals == []
            else:
                assert len(evals) == pool.index(roots[-1]) + 1
