"""Enumeration of intermediate subfields.

Complete for finite fields (Frobenius fixed sets) and for small separable
extensions (Galois correspondence over the closure); sound but not
certified complete for simple inseparable extensions (canonical p-power
chain).
"""

from __future__ import annotations

from dataclasses import dataclass

from .embeddings import hom_set, identity_embedding
from .errors import CapabilityError, InputError, PropertyViolation
from .factor import _element_sort_key, separable_decompose
from .linalg import nullspace
from .towers import (Subfield, base_subfield, extension_stages, flatten,
                     full_subfield, is_ancestor, lift, minimal_polynomial,
                     power_basis, unflatten)

MAX_GROUP_ORDER = 24
MAX_SEPARABLE_DEGREE = 8


@dataclass
class SubfieldLattice:
    ambient: object
    nodes: list                  # [Subfield], sorted by (dim, coordinates)
    completeness: str            # "complete" | "sound_only"

    def proper_nodes(self):
        n = self.ambient.absolute_degree
        return [L for L in self.nodes if L.dim < n]


def _sorted_nodes(nodes):
    return sorted(nodes, key=lambda L: (
        L.dim, [_element_sort_key(b) for b in L.basis]))


def _frobenius_matrix(E):
    """Columns are the F_p coordinates of basis_k^p."""
    return [flatten(b ** E.base.p) for b in power_basis(E)]


def _mat_mul(cols_a, cols_b, base):
    """Product A*B of matrices given as column lists of base elements."""
    n = len(cols_a)
    out = []
    for col in cols_b:
        acc = [base.zero] * n
        for k, c in enumerate(col):
            if c.is_zero():
                continue
            for i in range(n):
                acc[i] = acc[i] + c * cols_a[k][i]
        out.append(tuple(acc))
    return out


def subfields_finite(E, over_degree=1):
    """All subfields of a finite tower E containing F_{p^m}; complete.

    Each node of F_p-degree d is the fixed set of the d-th Frobenius
    power, the kernel of x -> x^{p^d} - x as F_p-linear algebra.
    """
    base = E.base
    if base.kind != "prime":
        raise InputError("subfields_finite requires a finite field")
    n = E.absolute_degree
    m = over_degree
    if n % m != 0:
        raise InputError(f"F_p^{m} is not a subfield of F_p^{n}")
    frob = _frobenius_matrix(E)
    nodes = []
    power = None
    for d in range(1, n + 1):
        power = frob if power is None else _mat_mul(frob, power, base)
        if n % d != 0 or d % m != 0:
            continue
        rows = []
        for i in range(n):
            rows.append(tuple(power[j][i] - (base.one if i == j else base.zero)
                              for j in range(n)))
        kernel = nullspace(base, rows, n)
        if len(kernel) != d:
            raise PropertyViolation(
                f"Frobenius fixed set of degree {d} has dimension {len(kernel)}")
        gens = [unflatten(E, v) for v in kernel]
        nodes.append(Subfield(E, gens, label=f"GF({base.p}^{d})"))
    return SubfieldLattice(E, _sorted_nodes(nodes), "complete")


# ---------------------------------------------------------------------------
# Galois route for small separable extensions


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
    n = len(table)
    subgroups = {frozenset([id_idx])}
    frontier = [frozenset([id_idx])]
    while frontier:
        nxt = []
        for H in frontier:
            for g in range(n):
                if g in H:
                    continue
                T = _group_closure(H | {g}, table)
                if T not in subgroups:
                    subgroups.add(T)
                    nxt.append(T)
        frontier = nxt
    return sorted(subgroups, key=lambda H: (len(H), sorted(H)))


def _embedding_matrix(sigma, N):
    return [flatten(sigma.apply(b)) for b in power_basis(N)]


def subfields_separable(E, ctx):
    """All intermediate subfields of a separable E/K via the Galois closure.

    The automorphisms of the closure N form a group under composition
    (verified); fixed fields of its subgroups, intersected with E, give
    the complete lattice by the Galois correspondence.
    """
    N = ctx.N
    if not is_ancestor(E, N):
        raise InputError("context does not extend E")
    if E.absolute_degree > MAX_SEPARABLE_DEGREE:
        raise CapabilityError(
            f"degree {E.absolute_degree} exceeds the separable-lattice cap")
    K_N = base_subfield(N)
    G = hom_set(N, K_N, ctx)
    if len(G) != N.absolute_degree:
        raise CapabilityError(
            "the closure is not Galois over the base (inseparable input?)")
    if len(G) > MAX_GROUP_ORDER:
        raise CapabilityError(f"group order {len(G)} exceeds the cap")
    # composition table; also verifies closure under composition
    index = {phi: i for i, phi in enumerate(G)}
    table = []
    for phi in G:
        row = []
        for psi in G:
            comp = phi.compose(psi)
            if comp not in index:
                raise PropertyViolation("automorphisms are not closed under composition")
            row.append(index[comp])
        table.append(row)
    id_idx = index[identity_embedding(N, N)]

    base = N.base
    nN = N.absolute_degree
    matrices = [_embedding_matrix(sigma, N) for sigma in G]
    E_cols = _inclusion_columns(E, N)
    nodes = []
    for H in _all_subgroups(table, id_idx):
        rows = []
        for i in H:
            if i == id_idx:
                continue
            mat = matrices[i]
            for r in range(nN):
                rows.append(tuple(mat[c][r] - (base.one if r == c else base.zero)
                                  for c in range(nN)))
        if rows:
            fixed = nullspace(base, rows, nN)
        else:
            fixed = [tuple(base.one if i == j else base.zero
                           for j in range(nN)) for i in range(nN)]
        gens = _intersect_with_E(fixed, E_cols, E, base)
        node = Subfield(E, gens)
        if not any(node.same_as(existing) for existing in nodes):
            nodes.append(node)
    return SubfieldLattice(E, _sorted_nodes(nodes), "complete")


def _inclusion_columns(E, N):
    return [flatten(lift(b, N)) for b in power_basis(E)]


def _intersect_with_E(fixed_vectors, E_cols, E, base):
    """Pull the subspace spanned by fixed_vectors back into E as elements."""
    if not fixed_vectors:
        return []
    nN = len(fixed_vectors[0])
    # vectors v with v = A*x = B*y: kernel of the stacked columns [A | -B]
    combined_cols = [tuple(v) for v in fixed_vectors] + \
        [tuple(-c for c in col) for col in E_cols]
    rows = [tuple(col[i] for col in combined_cols) for i in range(nN)]
    kernel = nullspace(base, rows, len(combined_cols))
    na = len(fixed_vectors)
    gens = []
    for vec in kernel:
        e_coords = vec[na:]
        gens.append(unflatten(E, e_coords))
    return gens


# ---------------------------------------------------------------------------


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
    nodes = [Subfield(E, [], label="K")]
    for j in range(dec.e, 0, -1):
        nodes.append(Subfield(E, [alpha ** (p ** j)]))
    nodes.append(full_subfield(E))
    deduped = []
    for node in nodes:
        if not any(node.same_as(existing) for existing in deduped):
            deduped.append(node)
    return SubfieldLattice(E, _sorted_nodes(deduped), "sound_only")
