"""Separability criteria, witnesses, closure, primitive elements, and the
corollaries built on embedding counts."""

import functools
import random

import pytest

from fieldsep.corpus import BUILTIN
from fieldsep.embeddings import hom_set, normal_closure_context, restriction
from fieldsep.errors import (CapabilityError, InputError, PropertyViolation,
                             ReducibleError)
from fieldsep.lattice import (SubfieldLattice, subfields_finite,
                              subfields_separable)
from fieldsep.parse import parse_tower
from fieldsep.separability import (_subfields_of_simple_part,
                                   canonical_inseparable_witness, det_criterion,
                                   hom_count_criterion, hom_gt1_criterion,
                                   is_separable_element,
                                   is_separable_element_by_witness, l1l2_check,
                                   membership_by_embeddings, primitive_element,
                                   separable_closure, separation_witness,
                                   transitivity_check)
from fieldsep.towers import (Subfield, base_subfield, lift,
                             minimal_polynomial, stage_generators)
from galois_oracle import lattice_nodes


def gens(E):
    from fieldsep.towers import tower_stages
    return [lift(s.generator, E) for s in tower_stages(E)
            if s.kind == "extension"]


# -- element criteria ---------------------------------------------------------


def test_derivative_criterion(corpus):
    w = corpus["gf16"].element("w")
    rep = is_separable_element(w)
    assert rep.separable and rep.exponent == 0 and rep.degree == 2

    s = corpus["sqrt_t_p2"].element("s")
    rep = is_separable_element(s)
    assert not rep.separable and rep.exponent == 1 and rep.degree == 2

    b = corpus["quartic_t_p2"].element("b")  # b = a^2, minpoly x^2 + t
    rep = is_separable_element(b)
    assert not rep.separable and rep.exponent == 1


def test_separation_witness_found(corpus, contexts):
    spec = corpus["gf4"]
    E = spec.field
    ctx = contexts("gf4")
    w = spec.element("w")
    pair = separation_witness(w, base_subfield(E), E, ctx)
    assert pair is not None
    phi, psi = pair
    assert phi.apply(w) != psi.apply(w)
    with pytest.raises(InputError):
        separation_witness(E.one, base_subfield(E), E, ctx)


def test_canonical_witness(corpus, contexts):
    spec = corpus["sqrt_t_p2"]
    E = spec.field
    ctx = contexts("sqrt_t_p2")
    s = spec.element("s")
    L = canonical_inseparable_witness(s, E, ctx)
    assert L.dim == 1                      # s^2 = t lands in the base
    assert not L.contains(s)
    assert separation_witness(s, L, E, ctx) is None
    with pytest.raises(InputError):
        canonical_inseparable_witness(corpus["gf4"].element("w"),
                                      corpus["gf4"].field, contexts("gf4"))


def test_witness_criterion_agrees(corpus, contexts):
    # gf4096's a has degree 12: the pair comes from the equalizer lattice
    # of K(a), on the basis 1, a, ..., a^11
    for name, elem in (("gf16", "a"), ("sqrt_t_p3", "a"), ("sqrt_t_p2", "a"),
                       ("mixed_p2", "c"), ("gf4096", "a")):
        spec = corpus[name]
        E = spec.field
        ctx = contexts(name)
        alpha = spec.element(elem)
        rep = is_separable_element_by_witness(alpha, E, ctx)
        assert rep.separable == is_separable_element(alpha).separable
        if rep.separable:
            assert rep.witness_pair is not None
        else:
            assert rep.canonical_witness is not None


@pytest.mark.parametrize("name", ["gf16", "gf64_tower", "gf729", "gf4096",
                                  "biquadratic_p3", "trans_tower_p3"])
def test_simple_part_matches_the_lattice_of_E(corpus, contexts, name):
    """The equalizers of the conjugates of alpha give the subfields of
    K(alpha)/K that the complete lattice of E holds below alpha."""
    spec = corpus[name]
    E = spec.field
    ctx = contexts(name)
    lattice = subfields_separable(E, ctx)
    for alpha in [spec.element(n) for n in sorted(spec.names)]:
        got = _subfields_of_simple_part(alpha, E, ctx)
        expected = _subfields_of_simple_part(alpha, E, ctx, lattice)
        assert len(got) == len(expected)
        assert all(any(L.same_as(M) for M in expected) for L in got)


# -- hom-count criteria -------------------------------------------------------


def test_hom_count_criterion(corpus, contexts):
    expected = {"gf16": (4, True), "sqrt_t_p2": (1, False),
                "mixed_p2": (2, False), "biquadratic_p3": (4, True),
                "insep_tower_p2": (1, False), "trans_tower_p3": (4, True)}
    for name, (count, verdict) in expected.items():
        rep = hom_count_criterion(corpus[name].field, contexts(name))
        assert (rep.hom_count, rep.separable) == (count, verdict), name


def test_hom_gt1_criterion(corpus, contexts):
    spec = corpus["sqrt_t_p2"]
    E = spec.field
    ctx = contexts("sqrt_t_p2")
    lattice = SubfieldLattice(E, [base_subfield(E)], "sound_only")
    ok, counts = hom_gt1_criterion(E, ctx, lattice)
    assert not ok
    assert counts[-1][1] == 1              # the failure is at L = K
    # certifying separability demands a complete lattice
    spec2 = corpus["gf4"]
    E2 = spec2.field
    incomplete = SubfieldLattice(E2, [base_subfield(E2)], "sound_only")
    with pytest.raises(CapabilityError):
        hom_gt1_criterion(E2, contexts("gf4"), incomplete)
    ok2, _counts = hom_gt1_criterion(E2, contexts("gf4"),
                                     subfields_finite(E2))
    assert ok2


# -- corollaries --------------------------------------------------------------


def test_l1l2_basic(corpus, contexts):
    spec = corpus["biquadratic_p3"]
    E = spec.field
    ctx = contexts("biquadratic_p3")
    s = spec.element("s")
    u = spec.element("u")
    K = base_subfield(E)
    assert l1l2_check(K, Subfield(E, [s]), E, ctx).equivalent
    assert l1l2_check(Subfield(E, [s]), Subfield(E, [s]), E, ctx).equivalent
    r = l1l2_check(Subfield(E, [s]), Subfield(E, [u]), E, ctx)
    assert not r.containment and not r.implication and r.equivalent


@pytest.mark.parametrize("name", [e.name for e in BUILTIN])
def test_l1l2_matches_the_compositum_subfield(corpus, contexts, name):
    """l1l2_check's implication, read off the pair of keys on L2 and L1,
    against the count of restrictions to the Subfield on the generators
    of both, each key the images of its whole basis, on every ordered
    pair of lattice nodes (the canonical chain's on an inseparable
    tower)."""
    E = corpus[name].field
    ctx = contexts(name)
    maps = hom_set(E, None, ctx)
    nodes = lattice_nodes(E, ctx)

    def classes(L):
        return len({tuple(phi.apply(b).rep for b in L.basis) for phi in maps})

    for L1 in nodes:
        for L2 in nodes:
            both = Subfield(E, L2.generators + L1.generators)
            assert l1l2_check(L1, L2, E, ctx).implication == \
                (classes(L2) == classes(both))


def test_membership_by_embeddings(corpus, contexts):
    spec = corpus["biquadratic_p3"]
    E = spec.field
    ctx = contexts("biquadratic_p3")
    s = spec.element("s")
    u = spec.element("u")
    assert membership_by_embeddings(s, s + u, E, ctx)      # K(s+u) = E
    r = membership_by_embeddings(s, u, E, ctx)
    assert not r.by_embeddings and r.consistent
    with pytest.raises(InputError):
        membership_by_embeddings(corpus["sqrt_t_p2"].element("s"),
                                 corpus["sqrt_t_p2"].element("s"),
                                 corpus["sqrt_t_p2"].field,
                                 contexts("sqrt_t_p2"))


@pytest.mark.parametrize("name", ["biquadratic_p3", "mixed_p2"])
def test_restriction_queries_match_pairwise_oracle(corpus, contexts, name):
    # oracle: compare every pair of Hom_K(E) on each stage subfield's basis
    spec = corpus[name]
    E = spec.field
    ctx = contexts(name)
    maps = hom_set(E, base_subfield(E), ctx)
    gens = stage_generators(E)
    nodes = [Subfield(E, gens[:k]) for k in range(len(gens) + 1)]  # K .. E
    prims = [E.one] + [sum(gens[1:k], gens[0]) for k in range(1, len(gens) + 1)]
    assert all(Subfield(E, [a]).same_as(L) for a, L in zip(prims, nodes))

    def same_on(phi, psi, L):
        return all(phi.apply(b) == psi.apply(b) for b in L.basis)

    for L in nodes:
        for phi in maps:
            for psi in maps:
                assert (restriction(phi, L) == restriction(psi, L)) == \
                    same_on(phi, psi, L)
    separable = len(maps) == E.absolute_degree
    for i, L1 in enumerate(nodes):
        for j, L2 in enumerate(nodes):
            implies = all(same_on(phi, psi, L1) for phi in maps for psi in maps
                          if same_on(phi, psi, L2))
            assert l1l2_check(L1, L2, E, ctx).implication == implies
            if separable:
                r = membership_by_embeddings(prims[i], prims[j], E, ctx)
                assert r.by_embeddings == implies
            else:
                with pytest.raises(InputError):
                    membership_by_embeddings(prims[i], prims[j], E, ctx)


# -- closure ------------------------------------------------------------------


def test_separable_closure(corpus, contexts):
    res = separable_closure(corpus["gf16"].field, contexts("gf16"))
    assert (res.separable_degree, res.inseparable_degree) == (4, 1)

    spec = corpus["mixed_p2"]
    res = separable_closure(spec.field, contexts("mixed_p2"))
    assert (res.separable_degree, res.inseparable_degree) == (2, 2)
    a = spec.element("a")  # the generator squared, separable of degree 2
    assert res.closure.same_as(Subfield(spec.field, [a]))

    res = separable_closure(corpus["insep_tower_p2"].field,
                            contexts("insep_tower_p2"))
    assert (res.separable_degree, res.inseparable_degree) == (1, 4)
    assert res.closure.dim == 1


# -- primitive elements -------------------------------------------------------


def test_primitive_element(corpus, contexts):
    spec = corpus["gf16"]
    gamma = primitive_element(spec.field, contexts("gf16"))
    assert minimal_polynomial(gamma).degree == 4

    spec2 = corpus["biquadratic_p3"]
    gamma2 = primitive_element(spec2.field, contexts("biquadratic_p3"))
    assert minimal_polynomial(gamma2).degree == 4

    with pytest.raises(InputError):
        primitive_element(corpus["sqrt_t_p2"].field, contexts("sqrt_t_p2"))


def _seeded_towers(count):
    """Separable towers over F_p(t), p odd, of quadratic stages:
    x^2 + a*t*x + b*t (Eisenstein at t), then x^2 + c*s0 + e*t + f, and
    for three stages (c = 0, so that the closure stays small) a third
    x^2 + g*t + h; a reducible draw is drawn again."""
    rng = random.Random("primitive_element")
    out = []
    while len(out) < count:
        p = rng.choice([3, 5, 7])
        stages = rng.choice([2, 3])
        c = rng.randrange(p) if stages == 2 else 0
        lines = [f"base FpT {p}",
                 f"gen s0 : x^2 + {rng.randrange(p)}*t*x + "
                 f"{rng.randrange(1, p)}*t",
                 f"gen s1 : x^2 + {c}*s0 + {rng.randrange(p)}*t + "
                 f"{rng.randrange(p)}"]
        if stages == 3:
            lines.append(f"gen s2 : x^2 + {rng.randrange(1, p)}*t + "
                         f"{rng.randrange(p)}")
        text = "\n".join(lines) + "\n"
        try:
            parse_tower(text)
        except ReducibleError:
            continue
        out.append(text)
    return out


# every corpus tower over F_p(t) of two stages or more, and seeded ones
MULTI_STAGE_FUNCTION_FIELDS = {
    **{e.name: e.text for e in BUILTIN
       if "FpT" in e.text and e.text.count("gen ") >= 2},
    **{f"seeded{i}": text for i, text in enumerate(_seeded_towers(12))}}
# gamma as primitive_element found it when it computed the subfield
# K(gamma, beta) for the degree of each step; None where E is inseparable
PRIMITIVE_ELEMENTS = {
    "biquadratic_p3": "u + s", "insep_tower_p2": None,
    "trans_tower_p3": "w + s",
    "seeded0": "s1 + s0", "seeded1": "s1 + s0", "seeded2": "s2 + s1 + s0",
    "seeded3": "s2 + s1 + s0", "seeded4": "s2 + s1 + s0", "seeded5": "s1 + s0",
    "seeded6": "s2 + s1 + s0", "seeded7": "s1 + s0", "seeded8": "s2 + s1 + s0",
    "seeded9": "s2 + s1 + s0", "seeded10": "s2 + s1 + s0",
    "seeded11": "s1 + s0",
}


@pytest.mark.parametrize("name", sorted(MULTI_STAGE_FUNCTION_FIELDS))
def test_primitive_element_builds_no_subfield_closure(monkeypatch, name):
    """Each step's degree is the next stage's absolute degree, as gamma
    generates the stage below: no Subfield closure is computed, and gamma
    is what the subfield route found."""
    E = parse_tower(MULTI_STAGE_FUNCTION_FIELDS[name]).field
    ctx = normal_closure_context(E)
    closures = []
    closure = Subfield._closure.func

    def counted(self):
        closures.append(self)
        return closure(self)

    prop = functools.cached_property(counted)
    prop.__set_name__(Subfield, "_closure")
    monkeypatch.setattr(Subfield, "_closure", prop)
    if PRIMITIVE_ELEMENTS[name] is None:
        with pytest.raises(InputError):
            primitive_element(E, ctx)
    else:
        gamma = primitive_element(E, ctx)
        assert repr(gamma) == PRIMITIVE_ELEMENTS[name]
        assert minimal_polynomial(gamma).degree == E.absolute_degree
    assert closures == []


# -- transitivity and the determinant criterion -------------------------------


def test_transitivity(corpus, contexts):
    spec = corpus["gf16"]
    E = spec.field
    L = Subfield(E, [spec.element("w")])
    rep = transitivity_check(E, L, contexts("gf16"))
    assert rep.hom_counts == (2, 2, 4)
    assert rep.lower_separable and rep.upper_separable and rep.total_separable
    assert rep.implication_holds

    spec2 = corpus["insep_tower_p2"]
    E2 = spec2.field
    L2 = Subfield(E2, [lift(E2.parent.generator, E2)])
    rep2 = transitivity_check(E2, L2, contexts("insep_tower_p2"))
    assert not rep2.total_separable
    assert rep2.implication_holds          # vacuously: a step is inseparable
    assert not (rep2.lower_separable and rep2.upper_separable)


def test_det_criterion(corpus, contexts):
    spec = corpus["gf4"]
    E = spec.field
    w = spec.element("w")
    assert det_criterion([E.one, w], E, contexts("gf4"))
    with pytest.raises(InputError):
        det_criterion([E.one, w, w + 1], E, contexts("gf4"))

    spec2 = corpus["sqrt_t_p2"]
    E2 = spec2.field
    assert not det_criterion([E2.one, spec2.element("s")], E2,
                             contexts("sqrt_t_p2"))


def test_report_consistency_guard(corpus, contexts):
    # the three criteria agree on a mixed bag of named corpus elements
    for name in ("gf16", "sqrt_t_p2", "quartic_t_p2", "biquadratic_p3"):
        spec = corpus[name]
        E = spec.field
        ctx = contexts(name)
        maps = hom_set(E, base_subfield(E), ctx)
        for elem_name in sorted(spec.names):
            alpha = spec.element(elem_name)
            d = minimal_polynomial(alpha).degree
            images = {phi.apply(alpha).rep for phi in maps}
            hom_verdict = len(images) == d
            assert hom_verdict == is_separable_element(alpha).separable
