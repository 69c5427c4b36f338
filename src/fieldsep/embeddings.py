"""Splitting fields as finite stand-ins for an algebraic closure, and the
enumeration, restriction, and extension of field embeddings.

An embedding E -> N is stored as the tuple of images of E's tower
generators; each image is a root in N of the stage minimal polynomial
with the previous images substituted into its coefficients.  Being
K-linear, it acts through one matrix, built on first use: an element's
flat K-coordinates times the flat coordinates in N of the images of E's
product power basis.  The inclusion's image is the element's lift.
"""

from __future__ import annotations

import functools
import itertools
import math
import weakref
from dataclasses import dataclass, field as dc_field

from .basefields import FieldElement
from .errors import (ContextTooSmallError, FieldMismatchError,
                     PropertyViolation)
from .factor import factor, separable_decompose
from .poly import Poly, synthetic_division
from .towers import (ExtensionField, _flat_reps, _nest_reps,
                     extension_stages, is_ancestor, lift, lift_poly,
                     minimal_polynomial, poly_eval, power_basis,
                     stage_generators)


class Embedding:
    """A base-fixing field homomorphism from a tower E into N."""

    __slots__ = ("domain", "codomain", "images", "_parent", "_rows",
                 "_inclusion")

    def __init__(self, domain, codomain, images, parent=None):
        self.domain = domain
        self.codomain = codomain
        self.images = tuple(images)
        self._parent = parent     # the restriction to domain.parent, if known
        self._rows = None         # built on first use

    def apply(self, a):
        """Image of an element of (a stage of) the domain tower."""
        if not is_ancestor(a.field, self.domain):
            raise FieldMismatchError(f"{a.field} is not a stage of {self.domain}")
        return FieldElement(self.codomain, self._image(a.field, a.rep))

    def matrix(self):
        """The flat K-coordinates in N of the images of the domain's product
        power basis, one row each, in flatten order: the parent map's rows,
        then those times each power of the last image, [parent : K] * (d - 1)
        products in N.  The inclusion's rows, a prefix of the identity, take
        no product."""
        if self._rows is None:
            E, N = self.domain, self.codomain
            rows, self._inclusion = [], True
            if E.kind == "extension":
                parent = self._parent or Embedding(E.parent, N, self.images[:-1])
                rows, g = list(parent.matrix()), self.images[-1]
                self._inclusion = (parent._inclusion and is_ancestor(E, N)
                                   and g == lift(E.generator, N))
            if self._inclusion:
                rows += [tuple(_flat_reps(N, lift(b, N).rep))
                         for b in power_basis(E)[len(rows):]]
            else:
                block = [_nest_reps(N, r) for r in rows]
                for _ in range(E.degree_over_parent - 1):
                    block = [N._mul(g.rep, b) for b in block]
                    rows += [tuple(_flat_reps(N, b)) for b in block]
            self._rows = rows
        return self._rows

    def _image(self, field, rep):
        """The rep in N of the image of an element of a stage of the domain:
        its flat K-coordinates times the first rows of the matrix, as the
        stage's power basis is a prefix of the domain's; or its lift."""
        rows, N = self.matrix(), self.codomain
        if self._inclusion:
            return lift(FieldElement(field, rep), N).rep
        K = N.base
        zero = K._zero
        out = [zero] * len(rows[0])
        for c, row in zip(_flat_reps(field, rep), rows):
            if c != zero:
                for j, x in enumerate(row):
                    if x != zero:
                        out[j] = K._add(out[j], K._mul(c, x))
        return _nest_reps(N, out)

    def __eq__(self, other):
        return (isinstance(other, Embedding) and other.domain == self.domain
                and other.codomain == self.codomain
                and other.images == self.images)

    def __hash__(self):
        return hash(tuple(img.rep for img in self.images))

    def __repr__(self):
        stages = extension_stages(self.domain)
        parts = [f"{s.gen_name} -> {img!r}" for s, img in zip(stages, self.images)]
        return "Embedding(" + ", ".join(parts) + ")"


@dataclass
class SplittingContext:
    """A finite extension N of E that splits every stage minimal polynomial
    of E, with the root pools its builder, normal_closure_context,
    certified: pools[stage] is every root in N, sorted, of the minimal
    polynomial over K of the stage's generator, for each stage of N."""

    N: object
    pools: dict = dc_field(default_factory=dict)
    _hom_cache: dict = dc_field(default_factory=dict)   # field -> Hom_K

    @property
    def degree(self):
        return self.N.absolute_degree


def _split_off(f):
    """(roots, nonlinear factors) of f; a degree <= 1 f is not factored."""
    if f.degree <= 0:
        return [], []
    if f.degree == 1:
        f = f.monic()
        return [-f.coefficient(0)], []
    fac = factor(f).factors
    return ([-q.coefficient(0) for q, _m in fac if q.degree == 1],
            [q for q, _m in fac if q.degree > 1])


def _peel(f, r):
    """f with the whole power of x - r divided out: f is irreducible over
    a subfield of f's field, and r is a root of f.

    Such an f is g(x^q), q = p^e, with g separable, so r^q is a simple
    root of g.  As (x - r)^q = x^q - r^q in characteristic p, one
    synthetic division of g by y - r^q gives h, and f = (x - r)^q h(x^q)
    with h(r^q) != 0.  PropertyViolation if r is not a root of f.
    """
    dec = separable_decompose(f)
    F, p = f.field, f.field.characteristic
    rep = r.rep
    for _ in range(dec.e):
        rep = functools.reduce(F._mul, [rep] * p)
    h, value = synthetic_division(dec.g, FieldElement(F, rep))
    if not value.is_zero():
        raise PropertyViolation(f"{r!r} is not a root of {f!r}")
    return h.substitute_power(p ** dec.e)


def _split_completely(f, N, counter, known):
    """Extend N until f splits into linear factors; collect f's roots.

    Only what is not yet known is factored: the known root (a root of f
    in N, the stage generator whose minimal polynomial f is) and each
    freshly adjoined generator are divided out of the factor they are
    roots of, by one synthetic division each (_peel), as f and each
    pending factor are irreducible over a field below.  A pending factor
    that was factored over a smaller N is factored again over the
    current N before a root of it is adjoined, unless its degree is
    prime to the degree N has grown by since, when it stays irreducible.
    Each stage adjoined, named n1, n2, ... after the counter, is a factor
    that factor certified irreducible over N, or one that stays so.
    """
    f = lift_poly(f, N) if f.field != N else f
    roots = [known]
    found, pending = _split_off(_peel(f, known))
    roots += found
    pending = [(q, N.absolute_degree) for q in pending]
    while pending:
        q, degree = pending.pop(0)
        q = lift_poly(q, N)
        if math.gcd(q.degree, N.absolute_degree // degree) > 1:
            found, parts = _split_off(q)
            roots += found
            if found or parts != [q]:
                pending[:0] = [(g, N.absolute_degree) for g in parts]
                continue
        counter += 1
        N = ExtensionField(N, f"n{counter}", q)
        roots = [lift(r, N) for r in roots]
        roots.append(N.generator)
        found, parts = _split_off(_peel(lift_poly(q, N), N.generator))
        roots += found
        pending += [(g, N.absolute_degree) for g in parts]
    return N, counter, sorted(roots, key=lambda r: r.rep)


def _frobenius_orbit(g, m):
    """The roots of g's absolute minimal polynomial m over F_p, all in g's
    finite field: the orbit g, g^p, ..., g^(p^(d-1)), sorted and certified
    to be d distinct roots of m."""
    p = g.field.characteristic
    orbit = [g]
    for _ in range(m.degree - 1):
        orbit.append(orbit[-1] ** p)
    pool = sorted(set(orbit), key=lambda r: r.rep)
    if len(pool) != m.degree or not all(poly_eval(m, r).is_zero()
                                        for r in pool):
        raise PropertyViolation(
            f"Frobenius orbit of {g!r} is not the root set of {m!r}")
    return pool


def normal_closure_context(E):
    """A context whose field N extends E and splits every stage minpoly of E.

    Over a prime base E is normal, so N = E and each root pool is the
    Frobenius orbit of the stage generator; no polynomial is factored.
    Over F_p(t) each stage generator is a known root of its minimal
    polynomial, so only the rest of that polynomial is factored.  The
    context is built once and E keeps a weak reference to it: while a
    caller holds it, later calls return it, with the maps and matrices it
    has built since.  The context refers to E through N, so a strong
    reference back would make E a cycle.
    """
    ref = getattr(E, "_context", None)
    ctx = None if ref is None else ref()
    if ctx is None:
        ctx = _closure_context(E)
        E._context = weakref.ref(ctx)
    return ctx


def _closure_context(E):
    stages, gens = extension_stages(E), stage_generators(E)
    if E.base.kind == "prime":
        return SplittingContext(E, {
            stage: _frobenius_orbit(g, minimal_polynomial(g))
            for stage, g in zip(stages, gens)})
    N = E
    counter = 0
    collected = []
    for stage, g in zip(stages, gens):
        # the stages adjoined while splitting the minimal polynomial of g
        # are generated by roots of it, and share g's pool
        below = len(extension_stages(N))
        N, counter, roots = _split_completely(minimal_polynomial(g), N,
                                              counter, lift(g, N))
        collected.append(([stage] + extension_stages(N)[below:], roots))
    ctx = SplittingContext(N)
    for keys, roots in collected:
        # a lift pads each rep with zeros, which keeps the pool sorted
        pool = [lift(r, N) for r in roots]
        ctx.pools.update(dict.fromkeys(keys, pool))
    return ctx


def _stage_roots(stage, phi, ctx):
    """Roots in N of the stage minpoly with its coefficients mapped by phi,
    an embedding of the stage's parent.

    The mapped minpoly divides the absolute minpoly of the stage generator
    (conjugation fixes the base), so its roots are found by filtering the
    stage's root pool, ctx.pools[stage], instead of factoring over N; a
    stage without a pool has none.  How many to expect is read off the
    stage's shape, with no gcd over N: the stage minpoly is certified
    irreducible, g(x^(p^e)) with g separable, and phi maps it to an
    irreducible polynomial of the same shape, which has deg g = d / p^e
    distinct roots.  So the filter stops at that many.
    On a stage directly over K, phi is the identity and the stage minpoly
    is the pool's own polynomial, so the pool is the answer and nothing
    is evaluated.
    """
    N = ctx.N
    pool = ctx.pools.get(stage, [])
    expected = stage.degree_over_parent // \
        N.characteristic ** separable_decompose(stage.minpoly).e
    if stage.parent.kind != "extension":
        roots = pool
    else:
        m_img = Poly._from_reps(N, [phi._image(stage.parent, c)
                                    for c in stage.minpoly.reps])
        roots = list(itertools.islice(
            (r for r in pool if m_img.eval(r).is_zero()), expected))
    if len(roots) < expected:
        raise ContextTooSmallError(
            f"only {len(roots)} of {expected} roots of a conjugated "
            f"stage minpoly lie in {N!r}")
    return roots


def _hom_K(E, ctx):
    """Hom_K(E, N), memoized on the context: the extensions to E of each
    map of Hom_K(E.parent), by the roots of a sorted pool.  So the maps
    come sorted by the reps of their images."""
    maps = ctx._hom_cache.get(E)
    if maps is None:
        if E.kind != "extension":
            maps = [Embedding(E, ctx.N, ())]
        else:
            maps = [Embedding(E, ctx.N, phi.images + (r,), phi)
                    for phi in _hom_K(E.parent, ctx)
                    for r in _stage_roots(E, phi, ctx)]
        ctx._hom_cache[E] = maps
    return maps


def restriction(phi, L):
    """phi restricted to the subfield L, as the hashable images of
    L.field_generators, which generate L as a K-algebra: two embeddings
    agree on L iff their keys are equal.  One image per map on a
    subfield that one generator certifies, such as a lattice node."""
    return tuple(phi.apply(g).rep for g in L.field_generators)


def hom_set(E, L, ctx):
    """All L-algebra homomorphisms E -> ctx.N, in deterministic order.

    L is a Subfield of E (None or base_subfield(E) for Hom_K); Hom_K(E)
    is enumerated once per context and filtered to the maps fixing L:
    those whose restriction to L is the identity's, the field generators
    of L lifted into N.
    """
    N = ctx.N
    if not is_ancestor(E, N):
        raise FieldMismatchError("context field does not extend the domain")
    maps = _hom_K(E, ctx)
    if L is None:
        return list(maps)
    fixed = tuple(lift(g, N).rep for g in L.field_generators)
    return [phi for phi in maps if restriction(phi, L) == fixed]


@dataclass
class TowerAudit:
    hom_K_E: int
    hom_L_E: int
    hom_K_L: int
    degree: int

    @property
    def formula_holds(self):
        return self.hom_K_E == self.hom_L_E * self.hom_K_L


def count_hom(E, L, ctx):
    """|Hom_L(E, N)|."""
    return len(hom_set(E, L, ctx))


def tower_audit(E, L, ctx):
    """Check |Hom_K(E)| = |Hom_L(E)| * |Hom_K(L)| by independent enumeration.

    Hom_K(L) is enumerated as the distinct restrictions to L of Hom_K(E);
    by the extension theorem every embedding of L arises this way.
    """
    all_maps = hom_set(E, None, ctx)
    return TowerAudit(hom_K_E=len(all_maps),
                      hom_L_E=len(hom_set(E, L, ctx)),
                      hom_K_L=len({restriction(phi, L) for phi in all_maps}),
                      degree=E.absolute_degree)
