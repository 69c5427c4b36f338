"""Enumeration of intermediate subfields.

Every separable tower E/K, over F_p or over F_p(t), gets its complete
lattice from the equalizers of its embeddings.  For phi in Hom_K(E, N)
the equalizer E^phi = {x in E : phi(x) = x} is a subfield of E: the
nullspace of phi minus the inclusion, on a basis of E.  Every
intermediate field L is the intersection of E^phi over phi in Hom_L(E),
since an x fixed by all of them has |Hom_L(L(x))| = 1, so L(x) = L.  The
lattice is therefore the set of equalizers closed under pairwise
intersection; the equalizers are the principal subfields of van Hoeij,
Klueners and Novocin (J. Symbolic Comput. 52, 2013).  Over F_p the
context field is E itself and Hom_K(E) the powers of Frobenius.

A simple inseparable extension gets the canonical p-power chain, sound
but not certified complete: there the equalizers give only the subfields
that contain every element of E purely inseparable over them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .basefields import FieldElement
from .embeddings import hom_set, normal_closure_context
from .errors import CapabilityError, InputError, PropertyViolation
from .factor import separable_decompose
from .linalg import nullspace
from .towers import (Subfield, base_subfield, extension_stages, flatten,
                     full_subfield, is_ancestor, lift, minimal_polynomial,
                     power_basis, unflatten)

# The triquadratic F_3(t)(sqrt t, sqrt(t+1), sqrt(t+2)), the largest
# lattice in the tests, has 16 nodes; twice that bounds a lattice to at
# most 32 * 31 / 2 = 496 intersections, each one nullspace.
MAX_LATTICE_NODES = 32


@dataclass
class SubfieldLattice:
    ambient: object
    nodes: list                  # [Subfield], sorted by (dim, coordinates)
    completeness: str            # "complete" | "sound_only"

    def proper_nodes(self):
        n = self.ambient.absolute_degree
        return [L for L in self.nodes if L.dim < n]


def _sorted_nodes(nodes):
    return sorted(nodes, key=lambda L: (L.dim, [b.rep for b in L.basis]))


def _equalizer_lattice(base, inclusion, images):
    """The canonical bases of all subfields, sorted by (dim, coordinates).

    inclusion holds the coordinates in N of a basis of E, and images the
    coordinates of its images under each map of Hom_K(E, N), for E/K
    separable.  Each equalizer is one nullspace.  The closure intersects
    every pair of nodes once and keeps a subspace only if its canonical
    nullspace basis is new.  Adding a node past MAX_LATTICE_NODES raises
    CapabilityError before any further intersection is computed.
    """
    n = len(inclusion)
    nodes = {}       # canonical basis reps -> (basis, annihilator rows)
    fresh = []

    def keep(basis):
        key = tuple(tuple(c.rep for c in v) for v in basis)
        if key in nodes:
            return
        if len(nodes) == MAX_LATTICE_NODES:
            raise CapabilityError(
                f"the subfield lattice has more than {MAX_LATTICE_NODES} nodes")
        nodes[key] = (basis, nullspace(base, basis, n))
        fresh.append(key)

    for cols in images:
        keep(nullspace(base, [tuple(x - y for x, y in zip(im, inc))
                              for im, inc in zip(zip(*cols), zip(*inclusion))],
                       n))
    done = []
    while fresh:
        key = fresh.pop(0)
        for other in done:
            keep(nullspace(base, nodes[key][1] + nodes[other][1], n))
        done.append(key)
    bases = [nodes[key][0] for key in sorted(nodes, key=lambda k: (len(k), k))]
    if len(bases[0]) != 1 or any(n % len(b) for b in bases):
        raise PropertyViolation("the equalizers are not the subfields of E")
    return bases


def subfields_separable(E, ctx):
    """All intermediate subfields of a separable E/K: the equalizer
    lattice of Hom_K(E, N) on E's power basis."""
    N = ctx.N
    if not is_ancestor(E, N):
        raise InputError("context does not extend E")
    maps = hom_set(E, None, ctx)
    if len(maps) != E.absolute_degree:
        raise CapabilityError(
            f"|Hom_K(E)| = {len(maps)} is below [E : K]: E is inseparable")
    inclusion = [flatten(lift(b, N)) for b in power_basis(E)]
    images = [[tuple(FieldElement(E.base, c) for c in row)
               for row in phi.matrix()] for phi in maps]
    nodes = [Subfield(E, [unflatten(E, v) for v in basis])
             for basis in _equalizer_lattice(E.base, inclusion, images)]
    return SubfieldLattice(E, nodes, "complete")


def subfields_finite(E):
    """All subfields of a finite tower E, from its own context: N = E,
    whose root pools are Frobenius orbits, so nothing is factored.  While
    a caller holds E's context, normal_closure_context returns it here,
    with the maps of Hom_K(E) the caller has already enumerated."""
    if E.base.kind != "prime":
        raise InputError("subfields_finite requires a finite field")
    return subfields_separable(E, normal_closure_context(E))


def canonical_chain(E):
    """K subset K(alpha^{p^e}) subset ... subset K(alpha) for simple inseparable E.

    Sound (every node is a genuine subfield) but not certified complete.
    """
    if len(extension_stages(E)) != 1:
        raise InputError("canonical_chain requires a simple extension")
    alpha = E.generator
    dec = separable_decompose(minimal_polynomial(alpha))
    if dec.e == 0:
        raise InputError("canonical_chain requires an inseparable generator")
    p = E.characteristic
    nodes = [base_subfield(E)]
    for j in range(dec.e, 0, -1):
        nodes.append(Subfield(E, [alpha ** (p ** j)]))
    nodes.append(full_subfield(E))
    deduped = []
    for node in nodes:
        if not any(node.same_as(existing) for existing in deduped):
            deduped.append(node)
    return SubfieldLattice(E, _sorted_nodes(deduped), "sound_only")
