"""Separability criteria, separation witnesses, separable closure,
primitive elements, transitivity, and the determinant criterion.

Three routes to the same verdict are implemented and cross-checked:
the derivative/distinct-roots criterion on the minimal polynomial, the
separation-witness criterion (two homomorphisms disagreeing on the
element over every intermediate subfield not containing it), and the
embedding-count criterion |Hom_K(E, N)| = [E : K].
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .basefields import _is_prime
from .embeddings import count_hom, hom_set, restriction, tower_audit
from .errors import CapabilityError, InputError, PropertyViolation
from .factor import distinct_root_count, separable_decompose
from .lattice import _equalizer_lattice
from .linalg import SpanBuilder, determinant
from .towers import (Subfield, _prime_divisors, base_subfield,
                     extension_stages, flatten, iter_elements, lift,
                     minimal_polynomial, stage_generators, unflatten)


@dataclass
class SeparabilityReport:
    degree: int
    separable: bool
    exponent: int = 0                   # e with minpoly = g(x^{p^e})
    hom_count: int = None
    witness_pair: tuple = None          # (phi, psi, L)
    canonical_witness: object = None    # Subfield K(alpha^{p^e})


# ---------------------------------------------------------------------------
# criterion (i): distinct roots of the minimal polynomial


def is_separable_element(alpha):
    """Derivative/distinct-roots criterion on the minimal polynomial."""
    mp = minimal_polynomial(alpha)
    dec = separable_decompose(mp)
    n_roots = distinct_root_count(mp)
    separable = n_roots == mp.degree
    if separable != (dec.e == 0):
        raise PropertyViolation(
            "distinct-root count disagrees with the decomposition exponent")
    return SeparabilityReport(degree=mp.degree, separable=separable,
                              exponent=dec.e)


# ---------------------------------------------------------------------------
# separation witnesses


def separation_witness(alpha, L, E, ctx):
    """A pair of L-algebra homomorphisms E -> N separated by alpha, or None.

    Requires alpha in E \\ L; the search over pairs is exhaustive.
    """
    alpha = E.element(alpha)
    if L.contains(alpha):
        raise InputError("the element lies in L; a witness needs alpha outside L")
    maps = hom_set(E, L, ctx)
    # the first separating pair in combinations order starts with maps[0]
    for psi in maps[1:]:
        if psi.apply(alpha) != maps[0].apply(alpha):
            return maps[0], psi
    return None


def canonical_inseparable_witness(alpha, E, ctx):
    """The subfield L = K(alpha^{p^e}) over which no pair separates alpha.

    Validates alpha not in L, and that every pair of L-algebra
    homomorphisms into the context's field agrees on alpha.
    """
    alpha = E.element(alpha)
    e = separable_decompose(minimal_polynomial(alpha)).e
    if e == 0:
        raise InputError("canonical witness exists only for inseparable elements")
    return _canonical_witness(alpha, e, E, ctx)


def _canonical_witness(alpha, e, E, ctx):
    """K(alpha^(p^e)) for an element alpha of exponent e >= 1, validated as
    canonical_inseparable_witness describes."""
    L = Subfield(E, [alpha ** (E.characteristic ** e)])
    if L.contains(alpha):
        raise PropertyViolation(
            "alpha lies in K(alpha^{p^e}); it would satisfy a smaller polynomial")
    Kalpha = Subfield(E, [alpha])
    if len({restriction(phi, Kalpha) for phi in hom_set(E, L, ctx)}) > 1:
        raise PropertyViolation(
            "a pair over the canonical witness separates alpha")
    return L


def _powers(x, d):
    """1, x, ..., x^(d-1), by repeated multiplication."""
    return list(itertools.accumulate([x] * (d - 1), lambda a, b: a * b,
                                     initial=x.field.one))


def _subfields_of_simple_part(alpha, E, ctx, lattice=None):
    """Proper intermediate subfields of K(alpha)/K, as subfields of E.

    Filters a complete lattice of E when one is supplied.  Otherwise prime
    degrees need only K, and composite degrees d take the equalizer
    lattice of the d embeddings of K(alpha), the distinct images of alpha
    under Hom_K(E), on the basis 1, alpha, ..., alpha^(d-1).
    """
    Kalpha = Subfield(E, [alpha])
    d = Kalpha.dim
    if d == 1:
        return []
    if lattice is not None and lattice.completeness == "complete":
        out = []
        for L in lattice.nodes:
            if L.contains(alpha):
                continue
            if all(Kalpha.contains(b) for b in L.basis):
                out.append(L)
        return out
    if _is_prime(d):
        return [base_subfield(E)]
    conjugates = dict.fromkeys(phi.apply(alpha)
                               for phi in hom_set(E, None, ctx))
    if len(conjugates) != d:
        raise PropertyViolation(
            f"{len(conjugates)} conjugates of an element of degree {d}")
    powers = Kalpha.basis      # 1, alpha, ..., alpha^(d-1)
    inclusion = [flatten(lift(a, ctx.N)) for a in powers]
    images = [[flatten(b) for b in _powers(beta, d)] for beta in conjugates]
    # row i holds coordinate i of each alpha^j: a node's vector v on
    # 1, alpha, ..., alpha^(d-1) is the element with these rows times v
    rows = list(zip(*(flatten(a) for a in powers)))

    def element(v):
        return unflatten(E, [sum((c * x for c, x in zip(v, row)), E.base.zero)
                             for row in rows])

    return [Subfield(E, [element(v) for v in basis])
            for basis in _equalizer_lattice(E.base, inclusion, images)
            if len(basis) < d]


def is_separable_element_by_witness(alpha, E, ctx, lattice=None):
    """Criterion (ii) via the (iii) reduction: quantify over K(alpha)/K only.

    Inseparable elements are certified by the canonical witness subfield;
    separable ones by exhibiting a separating pair over every proper
    intermediate subfield of K(alpha)/K.
    """
    alpha = E.element(alpha)
    mp = minimal_polynomial(alpha)
    dec = separable_decompose(mp)
    report = SeparabilityReport(degree=mp.degree, separable=False,
                                exponent=dec.e)
    if dec.e >= 1:
        report.canonical_witness = _canonical_witness(alpha, dec.e, E, ctx)
        return report
    for L in _subfields_of_simple_part(alpha, E, ctx, lattice):
        pair = separation_witness(alpha, L, E, ctx)
        if pair is None:      # no separating pair over a proper subfield
            return report
        report.witness_pair = (pair[0], pair[1], L)
    report.separable = True
    return report


# ---------------------------------------------------------------------------
# hom-count criteria


def hom_count_criterion(E, ctx):
    """Separable iff |Hom_K(E, N)| = [E : K]."""
    n = E.absolute_degree
    count = count_hom(E, base_subfield(E), ctx)
    if count > n:
        raise PropertyViolation("embedding count exceeds the degree")
    separable = count == n
    return SeparabilityReport(degree=n, separable=separable, hom_count=count)


def hom_gt1_criterion(E, ctx, lattice):
    """Separable iff every proper intermediate subfield has |Hom_L(E, N)| > 1.

    A single failing subfield certifies inseparability even from a
    sound-only lattice; certifying separability needs a complete one.
    """
    counts = []
    for L in lattice.proper_nodes():
        c = count_hom(E, L, ctx)
        counts.append((L, c))
        if c <= 1:
            return False, counts
    if lattice.completeness != "complete":
        raise CapabilityError(
            "cannot certify separability from an incomplete subfield lattice")
    return True, counts


# ---------------------------------------------------------------------------
# corollaries


@dataclass
class L1L2Result:
    containment: bool
    implication: bool

    @property
    def equivalent(self):
        return self.containment == self.implication


def l1l2_check(L1, L2, E, ctx):
    """Containment L1 <= L2 versus the restriction implication.

    implication: phi|L2 = psi|L2 forces phi|L1 = psi|L1 for all phi, psi
    in Hom_K(E, N), i.e. restricting to the compositum L1 L2 splits no
    class of restrictions to L2.  A map's key on the compositum is the
    pair of its keys on L2 and on L1, since the union of their field
    generators generates L1 L2.
    """
    containment = all(L2.contains(b) for b in L1.basis)
    maps = hom_set(E, None, ctx)
    on_l2 = [restriction(phi, L2) for phi in maps]
    implication = len(set(on_l2)) == \
        len({(key, restriction(phi, L1)) for key, phi in zip(on_l2, maps)})
    return L1L2Result(containment=containment, implication=implication)


@dataclass
class MembershipResult:
    by_embeddings: bool
    by_span: bool

    def __bool__(self):
        return self.by_embeddings

    @property
    def consistent(self):
        return self.by_embeddings == self.by_span


def membership_by_embeddings(alpha, beta, E, ctx):
    """alpha in K(beta) tested two ways: the restriction implication of
    K(alpha) <= K(beta) and linear algebra.

    Valid for separable E/K only (checked); the two answers must agree.
    """
    if count_hom(E, base_subfield(E), ctx) != E.absolute_degree:
        raise InputError("membership-by-embeddings requires a separable extension")
    r = l1l2_check(Subfield(E, [alpha]), Subfield(E, [beta]), E, ctx)
    result = MembershipResult(by_embeddings=r.implication,
                              by_span=r.containment)
    if not result.consistent:
        raise PropertyViolation(
            "embedding-pair membership disagrees with the span test")
    return result


# ---------------------------------------------------------------------------
# separable closure


@dataclass
class ClosureResult:
    closure: object            # Subfield of E
    separable_degree: int      # [closure : K]
    inseparable_degree: int    # [E : closure], a power of p


def separable_closure(E, ctx):
    """The intermediate field of all elements separable over the base.

    For a simple stage with minpoly g(x^{p^e}) the closure is generated
    by alpha^{p^e}, where g(x^{p^e}) is the absolute minimal polynomial
    of the stage's own generator, memoized on that stage; towers are
    handled stage by stage, and the result is certified against the
    embedding count in the context's field.  None of the checks can fail
    on correct code, so a failed one raises PropertyViolation.
    """
    n = E.absolute_degree
    p = E.characteristic
    gens = []
    for stage, beta in zip(extension_stages(E), stage_generators(E)):
        mp = minimal_polynomial(stage.generator)
        gens.append(beta ** (p ** separable_decompose(mp).e))
    closure = Subfield(E, gens)
    sep_deg = closure.dim
    insep = n // sep_deg
    if sep_deg * insep != n:
        raise PropertyViolation("closure dimension does not divide the degree")
    m = insep
    while m > 1:
        if m % p:
            raise PropertyViolation(
                "[E : closure] is not a power of the characteristic")
        m //= p
    for b in closure.basis:
        if not is_separable_element(b).separable:
            raise PropertyViolation(
                "stage-wise closure contains an inseparable element")
    count = count_hom(E, base_subfield(E), ctx)
    if count != sep_deg:
        raise PropertyViolation(
            f"closure degree {sep_deg} does not match the separable "
            f"degree |Hom| = {count}")
    return ClosureResult(closure=closure, separable_degree=sep_deg,
                         inseparable_degree=insep)


# ---------------------------------------------------------------------------
# primitive element


def primitive_element(E, ctx):
    """A single generator of a separable finite-degree extension.

    Finite fields: first element escaping every maximal subfield, via the
    divisor test gamma^(q^(n/l)) != gamma for each prime l | n.  Infinite
    base: pairwise reduction along the candidate line gamma + c*beta with
    deterministic scalars, beta the next stage generator; more than
    [E:K]^2 candidates guarantee a hit.  gamma already generates the
    stage below, so K(gamma, beta) is the next stage, and the degree to
    reach is that stage's absolute degree, known without computing a
    subfield.
    """
    n = E.absolute_degree
    if count_hom(E, base_subfield(E), ctx) != n:
        raise InputError("primitive elements are computed for separable input")
    base = E.base
    if n == 1:
        return E.element(1)
    if base.kind == "prime":
        q = base.p
        primes = _prime_divisors(n)
        for gamma in iter_elements(E):
            if gamma.is_zero():
                continue
            if all(gamma ** (q ** (n // ell)) != gamma for ell in primes):
                _verify_primitive(gamma, n)
                return gamma
        raise PropertyViolation("no generator found in a finite field scan")
    gens = stage_generators(E)
    gamma = gens[0]
    for stage, beta in zip(extension_stages(E)[1:], gens[1:]):
        candidates = [base.scalar_by_index(k) for k in range(n * n + 1)]
        gamma = _combine_pair(gamma, beta, candidates, stage.absolute_degree)
    _verify_primitive(gamma, n)
    return gamma


def _combine_pair(alpha, beta, candidates, target_degree):
    """The first alpha + c*beta over the candidates of the target degree."""
    for c in candidates:
        cand = alpha + lift(c, alpha.field) * beta
        if minimal_polynomial(cand).degree == target_degree:
            return cand
    raise PropertyViolation(
        "candidate exhaustion in the primitive-element search")


def _verify_primitive(gamma, n):
    if minimal_polynomial(gamma).degree != n:
        raise PropertyViolation("generator fails the degree postcondition")


# ---------------------------------------------------------------------------
# transitivity and the determinant criterion


@dataclass
class TransitivityReport:
    lower_separable: bool      # L/K
    upper_separable: bool      # E/L
    total_separable: bool      # E/K
    hom_counts: tuple          # (|Hom_K(L)|, |Hom_L(E)|, |Hom_K(E)|)

    @property
    def implication_holds(self):
        if self.lower_separable and self.upper_separable:
            return self.total_separable
        return True


def transitivity_check(E, L, ctx):
    """Verdicts for E/L, L/K, E/K with the transitivity implication asserted.

    L is a Subfield of E.
    """
    n = E.absolute_degree
    dim_l = L.dim
    if n % dim_l:
        raise PropertyViolation("subfield dimension does not divide the degree")
    audit = tower_audit(E, L, ctx)
    report = TransitivityReport(
        lower_separable=audit.hom_K_L == dim_l,
        upper_separable=audit.hom_L_E == n // dim_l,
        total_separable=audit.hom_K_E == n,
        hom_counts=(audit.hom_K_L, audit.hom_L_E, audit.hom_K_E))
    if not report.implication_holds:
        raise PropertyViolation("transitivity of separability failed")
    return report


def det_criterion(elements, E, ctx):
    """Bourbaki determinant criterion: some n embeddings give det(s_i(a_j)) != 0.

    The input list must be linearly independent over the base (checked).
    """
    elements = [E.element(a) for a in elements]
    base = E.base
    n = E.absolute_degree
    sb = SpanBuilder(base, n)
    for a in elements:
        if not sb.add(flatten(a)):
            raise InputError("input elements are linearly dependent over the base")
    maps = hom_set(E, base_subfield(E), ctx)
    k = len(elements)
    if len(maps) < k:
        return False
    N = ctx.N
    for subset in itertools.combinations(maps, k):
        rows = [[sigma.apply(a) for a in elements] for sigma in subset]
        if not determinant(N, rows).is_zero():
            return True
    return False
