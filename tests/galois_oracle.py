"""Test oracles and helpers: the Galois-correspondence route to a subfield
lattice, for the equalizer lattice of `fieldsep.lattice`, with the
identity and the composition of embeddings; the pair-round closure of a
span, for the bases of `fieldsep.towers.Subfield`; the lattice nodes the
CLI prints; and a product counter.

The automorphisms of the context field N form a group G under
composition (checked).  Every subgroup H is closed from single elements;
its fixed field N^H is one nullspace over N's basis, and E meets it in
the intermediate field E ∩ N^H.  For E/K separable and N normal over K
these are all the intermediate fields, by the Galois correspondence.
"""

from fieldsep.embeddings import Embedding, hom_set
from fieldsep.errors import (CapabilityError, FieldMismatchError,
                             PropertyViolation)
from fieldsep.lattice import (_sorted_nodes, canonical_chain,
                              subfields_finite, subfields_separable)
from fieldsep.linalg import SpanBuilder, nullspace
from fieldsep.separability import hom_count_criterion
from fieldsep.towers import (Subfield, extension_stages, flatten, lift,
                             power_basis, stage_generators, unflatten)


def identity_embedding(E, N):
    """The inclusion of E into an extension tower N of E."""
    return Embedding(E, N, [lift(g, N) for g in stage_generators(E)])


def compose(outer, inner):
    """outer o inner; inner's codomain must be outer's domain."""
    if inner.codomain != outer.domain:
        raise FieldMismatchError("embeddings do not compose")
    return Embedding(inner.domain, outer.codomain,
                     [outer.apply(img) for img in inner.images])


def pair_round_basis(E, generators):
    """The basis of the smallest subfield of E containing the generators,
    by pair rounds alone: 1 and each generator that enlarges the span,
    then rounds that multiply the pairs of the current elements, skipping
    the pairs of the previous round's elements and mirrored pairs, until
    the span stabilizes."""
    sb = SpanBuilder(E.base, E.absolute_degree)
    elems = []

    def try_add(e):
        if sb.add(flatten(e)):
            elems.append(e)

    for e in [E.one] + [E.element(g) for g in generators]:
        try_add(e)
    old = 0
    while old < len(elems):
        snapshot = list(elems)
        for i, x in enumerate(snapshot):
            for y in snapshot[max(i, old):]:
                try_add(x * y)
        old = len(snapshot)
    return elems


def count_products(monkeypatch, N):
    """A list that grows by one with every product in N.  N's log table,
    if it gets one, is built first: building it later would replace the
    counting product."""
    N.log_tables()
    products = []
    mul = N._mul
    monkeypatch.setattr(N, "_mul",
                        lambda a, b: products.append(1) or mul(a, b))
    return products


def lattice_nodes(E, ctx):
    """The nodes `fieldsep subfields` prints, or none where it exits 3."""
    if E.base.kind == "prime":
        return subfields_finite(E).nodes
    if hom_count_criterion(E, ctx).separable:
        return subfields_separable(E, ctx).nodes
    if len(extension_stages(E)) == 1:
        return canonical_chain(E).nodes
    return []


def _group_closure(indices, table):
    out = set(indices)
    frontier = list(out)
    while frontier:
        new = []
        for i in list(out):
            for j in frontier:
                for k in (table[i][j], table[j][i]):
                    if k not in out:
                        out.add(k)
                        new.append(k)
        frontier = new
    return frozenset(out)


def _all_subgroups(table, id_idx):
    subgroups = {frozenset([id_idx])}
    frontier = [frozenset([id_idx])]
    while frontier:
        nxt = []
        for H in frontier:
            for g in range(len(table)):
                if g not in H:
                    T = _group_closure(H | {g}, table)
                    if T not in subgroups:
                        subgroups.add(T)
                        nxt.append(T)
        frontier = nxt
    return subgroups


def _meet_with_E(fixed, E, N):
    """E ∩ span(fixed): the kernel of the columns [fixed | -E's basis]."""
    E_cols = [flatten(lift(b, N)) for b in power_basis(E)]
    cols = fixed + [tuple(-c for c in col) for col in E_cols]
    rows = [tuple(col[i] for col in cols) for i in range(N.absolute_degree)]
    kernel = nullspace(N.base, rows, len(cols))
    return [unflatten(E, vec[len(fixed):]) for vec in kernel]


def galois_lattice(E, ctx):
    """The subfields E ∩ N^H over the subgroups H of Aut(N/K), sorted as
    the library sorts lattice nodes."""
    N = ctx.N
    G = hom_set(N, None, ctx)
    if len(G) != N.absolute_degree:
        raise CapabilityError("the closure is not Galois over the base")
    index = {phi: i for i, phi in enumerate(G)}
    table = []
    for phi in G:
        row = []
        for psi in G:
            comp = compose(phi, psi)
            if comp not in index:
                raise PropertyViolation("automorphisms are not closed")
            row.append(index[comp])
        table.append(row)
    id_idx = index[identity_embedding(N, N)]
    base, n = N.base, N.absolute_degree
    basis = power_basis(N)
    images = [[flatten(sigma.apply(b)) for b in basis] for sigma in G]
    nodes = []
    for H in _all_subgroups(table, id_idx):
        rows = [tuple(images[i][c][r] - (base.one if r == c else base.zero)
                      for c in range(n))
                for i in H for r in range(n)]
        node = Subfield(E, _meet_with_E(nullspace(base, rows, n), E, N))
        if not any(node.same_as(other) for other in nodes):
            nodes.append(node)
    return _sorted_nodes(nodes)
