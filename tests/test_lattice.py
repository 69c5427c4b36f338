"""Subfield lattices: equalizers of embeddings, checked against the Galois
correspondence, and the canonical inseparable chain."""

import pytest
from galois_oracle import galois_lattice

from fieldsep import lattice as lattice_module
from fieldsep.corpus import BUILTIN
from fieldsep.embeddings import normal_closure_context
from fieldsep.errors import CapabilityError, InputError
from fieldsep.lattice import (canonical_chain, subfields_finite,
                              subfields_separable)
from fieldsep.parse import parse_tower
from fieldsep.separability import hom_count_criterion
from fieldsep.towers import Subfield, lift

SEPARABLE_ENTRIES = ["gf4", "gf16", "gf27", "gf64_tower", "gf729", "gf4096",
                     "sqrt_t_p3", "biquadratic_p3", "trans_tower_p3"]
TRIQUADRATIC = ("base FpT 3\ngen s : x^2 + t\ngen u : x^2 + t + 1\n"
                "gen v : x^2 + t + 2\n")


def test_subfields_finite_gf4096(corpus):
    E = corpus["gf4096"].field
    lattice = subfields_finite(E)
    assert lattice.completeness == "complete"
    assert [L.dim for L in lattice.nodes] == [1, 2, 3, 4, 6, 12]
    assert len(lattice.proper_nodes()) == 5
    for L in lattice.nodes:
        for b in L.basis:
            assert L.contains(b * b)       # closed under multiplication
            assert L.contains(b ** 2)      # and under Frobenius


def test_subfields_finite_gf729(corpus):
    E = corpus["gf729"].field
    lattice = subfields_finite(E)
    assert [L.dim for L in lattice.nodes] == [1, 2, 3, 6]
    # the degree-2 node is the F_9 generated by the first tower stage
    i = lift(E.parent.generator, E)
    two = [L for L in lattice.nodes if L.dim == 2][0]
    assert two.same_as(Subfield(E, [i]))


def test_subfields_finite_rejects_a_function_field(corpus):
    with pytest.raises(InputError):
        subfields_finite(corpus["sqrt_t_p2"].field)


def test_subfields_separable_biquadratic(corpus, contexts):
    spec = corpus["biquadratic_p3"]
    E = spec.field
    ctx = contexts("biquadratic_p3")
    lattice = subfields_separable(E, ctx)
    assert lattice.completeness == "complete"
    assert [L.dim for L in lattice.nodes] == [1, 2, 2, 2, 4]
    s = spec.element("s")
    u = spec.element("u")
    quadratics = [L for L in lattice.nodes if L.dim == 2]
    for gen in (s, u, s * u):
        assert any(L.same_as(Subfield(E, [gen])) for L in quadratics)


def test_subfields_separable_caps(corpus, contexts):
    # degree 12: past the old degree-8 cap, the same six nodes as from
    # the field's own context
    E = corpus["gf4096"].field
    nodes = subfields_separable(E, contexts("gf4096")).nodes
    assert [L.dim for L in nodes] == [1, 2, 3, 4, 6, 12]
    assert [L.basis for L in nodes] == \
        [L.basis for L in subfields_finite(E).nodes]
    with pytest.raises(CapabilityError):
        # an inseparable extension has fewer embeddings than its degree
        subfields_separable(corpus["sqrt_t_p2"].field, contexts("sqrt_t_p2"))


def test_node_budget(corpus, contexts, monkeypatch):
    # the biquadratic has 5 nodes: E, its three quadratics and K
    monkeypatch.setattr(lattice_module, "MAX_LATTICE_NODES", 4)
    with pytest.raises(CapabilityError):
        subfields_separable(corpus["biquadratic_p3"].field,
                            contexts("biquadratic_p3"))


@pytest.mark.parametrize("name", SEPARABLE_ENTRIES + ["triquadratic"])
def test_equalizers_match_the_galois_correspondence(corpus, contexts, name):
    """Node for node and in order."""
    if name == "triquadratic":
        E = parse_tower(TRIQUADRATIC).field
        ctx = normal_closure_context(E)
    else:
        E, ctx = corpus[name].field, contexts(name)
    nodes = subfields_separable(E, ctx).nodes
    expected = galois_lattice(E, ctx)
    assert [L.basis for L in nodes] == [L.basis for L in expected]
    assert all(L.same_as(M) for L, M in zip(nodes, expected))
    if name == "triquadratic":
        assert [L.dim for L in nodes] == [1] + [2] * 7 + [4] * 7 + [8]


def test_oracle_covers_every_separable_entry(corpus, contexts):
    assert SEPARABLE_ENTRIES == [
        e.name for e in BUILTIN
        if hom_count_criterion(corpus[e.name].field, contexts(e.name)).separable]


def test_canonical_chain(corpus):
    E = corpus["quartic_t_p2"].field   # x^4 + t, alpha^4 = t
    lattice = canonical_chain(E)
    assert lattice.completeness == "sound_only"
    assert [L.dim for L in lattice.nodes] == [1, 2, 4]
    mid = lattice.nodes[1]
    assert mid.same_as(Subfield(E, [E.generator ** 2]))
    with pytest.raises(InputError):
        canonical_chain(corpus["gf4"].field)          # separable generator
    with pytest.raises(InputError):
        canonical_chain(corpus["insep_tower_p2"].field)  # not simple
