"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Every expectation here is either checked against an independent in-test
oracle (brute-force divisor enumeration, restriction counting, linear
algebra) or is an exact integer identity with zero tolerance.
"""

import itertools
import json
import math
import random
from contextlib import contextmanager

from fieldsep.basefields import PrimeField
from fieldsep.cli import main as cli_main
from fieldsep.embeddings import hom_set, normal_closure_context, tower_audit
from fieldsep.factor import factor
from fieldsep.lattice import (canonical_chain, subfields_finite,
                              subfields_separable)
from fieldsep.parse import parse_tower
from fieldsep.poly import Poly
from fieldsep.separability import (canonical_inseparable_witness,
                                   det_criterion, hom_count_criterion,
                                   hom_gt1_criterion, is_separable_element,
                                   is_separable_element_by_witness, l1l2_check,
                                   primitive_element, separable_closure,
                                   separation_witness, transitivity_check)
from fieldsep.towers import (Subfield, base_subfield, full_subfield,
                             iter_elements, lift, minimal_polynomial,
                             tower_stages, unflatten)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} ({name}): FAIL")
        raise
    print(f"criterion {num:2d} ({name}): PASS")


def stage_generators(E):
    return [lift(s.generator, E) for s in tower_stages(E)
            if s.kind == "extension"]


def random_element(E, rng, max_t_deg=1):
    base = E.base
    n = E.absolute_degree
    if base.kind == "prime":
        coords = [base.element(rng.randrange(base.p)) for _ in range(n)]
    else:
        span = base.p ** (max_t_deg + 1)
        coords = [base.scalar_by_index(rng.randrange(span)) for _ in range(n)]
    return unflatten(E, coords)


# -- criterion 1: factorization against brute-force divisor enumeration -------


def all_monic(field, deg):
    elems = list(iter_elements(field))
    for coeffs in itertools.product(elems, repeat=deg):
        yield Poly(field, list(coeffs) + [field.one])


def brute_factor(f):
    """Irreducible factors with multiplicity by smallest-divisor search."""
    for d in range(1, f.degree // 2 + 1):
        for g in all_monic(f.field, d):
            if g.divides(f):
                return [g] + brute_factor((f // g).monic())
    return [f]


def test_c01_factorization_oracle():
    with criterion(1, "factorization oracle, exhaustive deg <= 4"):
        checked = 0
        for p in (2, 3):
            F = PrimeField(p)
            for deg in range(1, 5):
                for f in all_monic(F, deg):
                    fac = factor(f)
                    got = sorted([repr(q) for q, m in fac.factors
                                  for _ in range(m)])
                    want = sorted(repr(q) for q in brute_factor(f))
                    assert got == want, repr(f)
                    assert math.prod((q ** m for q, m in fac.factors),
                                     start=Poly.constant(fac.unit)) == f
                    checked += 1
        assert checked == 30 + 120


# -- criterion 2: the tower counting formula ----------------------------------


def restriction_tables(E, ctx, subfields):
    """Per-map restriction tuples and identity tuples for each subfield."""
    N = ctx.N
    maps = hom_set(E, base_subfield(E), ctx)
    ids = [tuple(lift(b, N).rep for b in L.basis) for L in subfields]
    restr = [[tuple(phi.apply(b).rep for b in L.basis) for L in subfields]
             for phi in maps]
    return maps, restr, ids


def check_tower_formula_everywhere(E, ctx, subfields):
    """|Hom_{L1}(E)| = |Hom_{L2}(E)| * |Hom_{L1}(L2)| for all L1 <= L2.

    Hom_{L1}(L2) is counted as distinct restrictions to L2 of the maps
    fixing L1 (valid: the closure is normal, so every such hom extends).
    """
    maps, restr, ids = restriction_tables(E, ctx, subfields)
    fixers = [[mi for mi in range(len(maps)) if restr[mi][li] == ids[li]]
              for li in range(len(subfields))]
    checks = 0
    for l1, L1 in enumerate(subfields):
        for l2, L2 in enumerate(subfields):
            if not all(L2.contains(b) for b in L1.basis):
                continue
            hom_l1_l2 = len({restr[mi][l2] for mi in fixers[l1]})
            assert len(fixers[l1]) == len(fixers[l2]) * hom_l1_l2, \
                (repr(L1), repr(L2))
            checks += 1
    return checks


def test_c02_tower_formula(corpus, contexts):
    with criterion(2, "tower formula on >= 50 towers"):
        total = 0
        plans = [
            ("gf4096", lambda E, ctx: subfields_finite(E).nodes),
            ("gf729", lambda E, ctx: subfields_finite(E).nodes),
            ("biquadratic_p3", lambda E, ctx: subfields_separable(E, ctx).nodes),
            ("mixed_p2", lambda E, ctx: canonical_chain(E).nodes),
            ("quartic_t_p2", lambda E, ctx: canonical_chain(E).nodes),
        ]
        for name, node_fn in plans:
            E = corpus[name].field
            ctx = contexts(name)
            nodes = node_fn(E, ctx)
            total += check_tower_formula_everywhere(E, ctx, nodes)
            # independent library route on every proper node
            for L in nodes:
                audit = tower_audit(E, L, ctx)
                assert audit.formula_holds and audit.hom_K_E <= audit.degree
                total += 1
        assert total >= 50, total


# -- criterion 3: the three criteria agree element by element ------------------


def element_verdicts(alpha, E, ctx, maps, lattice):
    d = minimal_polynomial(alpha).degree
    derivative = is_separable_element(alpha).separable
    hom = len({phi.apply(alpha).rep for phi in maps}) == d
    witness = is_separable_element_by_witness(alpha, E, ctx,
                                              lattice=lattice).separable
    return derivative, hom, witness


def test_c03_criteria_equivalence(corpus, contexts):
    with criterion(3, "criteria equivalence on the corpus"):
        # every element of F_16 and F_27
        for name in ("gf16", "gf27"):
            E = corpus[name].field
            ctx = contexts(name)
            maps = hom_set(E, base_subfield(E), ctx)
            lattice = subfields_finite(E)
            for alpha in iter_elements(E):
                d, h, w = element_verdicts(alpha, E, ctx, maps, lattice)
                assert d == h == w, repr(alpha)
        # generators plus 20 random elements of each F_p(t) entry
        fpt_entries = ["sqrt_t_p2", "quartic_t_p2", "mixed_p2",
                       "insep_tower_p2", "cbrt_t_p3", "sqrt_t_p3",
                       "biquadratic_p3", "trans_tower_p3", "fifth_t_p5"]
        for name in fpt_entries:
            E = corpus[name].field
            ctx = contexts(name)
            maps = hom_set(E, base_subfield(E), ctx)
            rep = hom_count_criterion(E, ctx)
            lattice = None
            if rep.separable and E.absolute_degree <= 8:
                lattice = subfields_separable(E, ctx)
            rng = random.Random(f"criteria:{name}")
            elems = stage_generators(E)
            elems += [random_element(E, rng) for _ in range(20)]
            for alpha in elems:
                d, h, w = element_verdicts(alpha, E, ctx, maps, lattice)
                assert d == h == w, (name, repr(alpha))


# -- criterion 4: the canonical witness subfield -------------------------------


def test_c04_canonical_witness():
    with criterion(4, "canonical witness K(alpha^(p^e))"):
        texts = ["base FpT 2\ngen s : x^2 + t\n",
                 "base FpT 3\ngen s : x^3 + 2*t\n",
                 "base FpT 5\ngen s : x^5 + 4*t\n",
                 "base FpT 2\ngen s : x^4 + t\n",
                 "base FpT 2\ngen s : x^4 + x^2 + t\n"]
        for text in texts:
            E = parse_tower(text).field
            ctx = normal_closure_context(E)
            alpha = E.generator
            rep = is_separable_element(alpha)
            assert rep.exponent >= 1
            L = canonical_inseparable_witness(alpha, E, ctx)
            assert not L.contains(alpha)
            # exhaustive: no pair of L-homs separates alpha
            assert separation_witness(alpha, L, E, ctx) is None
            p = E.characteristic
            assert L.contains(alpha ** (p ** rep.exponent))


# -- criterion 5: containment <=> restriction implication ----------------------


def test_c05_l1l2_equivalence(corpus, contexts):
    with criterion(5, "L1/L2 containment <=> implication"):
        E = corpus["gf4096"].field
        ctx = contexts("gf4096")
        nodes = subfields_finite(E).nodes
        assert len(nodes) == 6
        maps, restr, _ids = restriction_tables(E, ctx, nodes)
        pair_indices = list(itertools.combinations(range(len(maps)), 2))
        for l1, L1 in enumerate(nodes):
            for l2, L2 in enumerate(nodes):
                containment = all(L2.contains(b) for b in L1.basis)
                implication = all(
                    restr[i][l1] == restr[j][l1]
                    for i, j in pair_indices
                    if restr[i][l2] == restr[j][l2])
                assert containment == implication, (repr(L1), repr(L2))
        # the library route agrees on a sample of pairs
        for i, j in ((0, 2), (2, 4), (5, 0)):
            r = l1l2_check(nodes[i], nodes[j], E, ctx)
            assert r.equivalent
        # converse failure on the inseparable K(t^(1/2))/K
        E2 = corpus["sqrt_t_p2"].field
        ctx2 = contexts("sqrt_t_p2")
        r = l1l2_check(full_subfield(E2), base_subfield(E2), E2, ctx2)
        assert not r.containment and r.implication and not r.equivalent


# -- criterion 6: |Hom_L(E)| > 1 on proper subfields ---------------------------


def test_c06_hom_gt1(corpus, contexts):
    with criterion(6, "hom > 1 on proper subfields"):
        E = corpus["gf4096"].field
        ok, counts = hom_gt1_criterion(E, contexts("gf4096"),
                                       subfields_finite(E))
        assert ok and all(c > 1 for _L, c in counts)

        E2 = corpus["biquadratic_p3"].field
        ctx2 = contexts("biquadratic_p3")
        ok2, counts2 = hom_gt1_criterion(E2, ctx2,
                                         subfields_separable(E2, ctx2))
        assert ok2 and all(c > 1 for _L, c in counts2)

        E3 = corpus["sqrt_t_p2"].field
        ok3, counts3 = hom_gt1_criterion(E3, contexts("sqrt_t_p2"),
                                         canonical_chain(E3))
        assert not ok3
        failing, c = counts3[-1]
        assert c == 1 and failing.dim == 1  # the criterion fails at L = K


# -- criterion 7: primitive elements -------------------------------------------


def test_c07_primitive_element(corpus, contexts):
    with criterion(7, "primitive element"):
        E = corpus["biquadratic_p3"].field  # F_3(t)(sqrt t, sqrt(t+1))
        gamma = primitive_element(E, contexts("biquadratic_p3"))
        assert minimal_polynomial(gamma).degree == 4

        gamma2 = primitive_element(corpus["gf16"].field, contexts("gf16"))
        assert minimal_polynomial(gamma2).degree == 4

        spec = parse_tower("base Fp 3\ngen i : x^2 + 1\ngen v : x^2 + 2*i + 2\n")
        E3 = spec.field
        gamma3 = primitive_element(E3, normal_closure_context(E3))
        assert minimal_polynomial(gamma3).degree == 4


# -- criterion 8: |Hom_K(E)| = [E : K] exactly for separable extensions --------


def test_c08_hom_count_equality(corpus, contexts):
    with criterion(8, "hom count = degree iff separable"):
        for entry_name in ("gf4", "gf16", "gf27", "gf64_tower", "gf729",
                           "gf4096", "sqrt_t_p3", "biquadratic_p3",
                           "trans_tower_p3"):
            E = corpus[entry_name].field
            rep = hom_count_criterion(E, contexts(entry_name))
            assert rep.hom_count == E.absolute_degree, entry_name
            assert rep.separable
        # strict inequalities on the inseparable side
        rep = hom_count_criterion(corpus["sqrt_t_p2"].field,
                                  contexts("sqrt_t_p2"))
        assert (rep.hom_count, rep.degree) == (1, 2)
        rep = hom_count_criterion(corpus["mixed_p2"].field,
                                  contexts("mixed_p2"))
        assert (rep.hom_count, rep.degree) == (2, 4)


# -- criterion 9: the separable closure ----------------------------------------


def test_c09_separable_closure(corpus, contexts):
    with criterion(9, "separable closure of x^4 + x^2 + t"):
        spec = corpus["mixed_p2"]
        E = spec.field
        ctx = contexts("mixed_p2")
        res = separable_closure(E, ctx)
        assert res.separable_degree == 2 and res.inseparable_degree == 2
        b2 = spec.element("a")  # the generator squared
        assert res.closure.same_as(Subfield(E, [b2]))
        base = E.base
        basis = res.closure.basis
        rng = random.Random("closure-law")

        def random_closure_element():
            acc = E.zero
            for b in basis:
                acc = acc + lift(base.scalar_by_index(rng.randrange(4)), E) * b
            return acc

        for _ in range(100):
            x = random_closure_element()
            y = random_closure_element()
            assert is_separable_element(x + y).separable
            assert is_separable_element(x * y).separable
        outside = 0
        while outside < 20:
            z = random_element(E, rng)
            if res.closure.contains(z):
                continue
            assert not is_separable_element(z).separable
            outside += 1


# -- criterion 10: transitivity of separability --------------------------------


def test_c10_transitivity(corpus, contexts):
    with criterion(10, "transitivity through a middle field"):
        spec = corpus["gf16"]  # F_2 in F_4 in F_16
        E = spec.field
        L = Subfield(E, [spec.element("w")])
        rep = transitivity_check(E, L, contexts("gf16"))
        assert rep.hom_counts == (2, 2, 4)
        assert rep.lower_separable and rep.upper_separable
        assert rep.total_separable and rep.implication_holds

        spec2 = corpus["trans_tower_p3"]  # K in K(sqrt t) in the top field
        E2 = spec2.field
        L2 = Subfield(E2, [spec2.element("s")])
        rep2 = transitivity_check(E2, L2, contexts("trans_tower_p3"))
        assert rep2.hom_counts == (2, 2, 4)
        assert rep2.hom_counts[2] == rep2.hom_counts[0] * rep2.hom_counts[1]
        assert rep2.lower_separable and rep2.upper_separable
        assert rep2.total_separable and rep2.implication_holds


# -- criterion 11: the determinant criterion ------------------------------------


def test_c11_det_criterion(corpus, contexts):
    with criterion(11, "det(sigma_i(a_j)) criterion"):
        spec = corpus["gf4"]
        E = spec.field
        assert det_criterion([E.one, spec.element("w")], E, contexts("gf4"))

        spec2 = corpus["biquadratic_p3"]
        E2 = spec2.field
        s = spec2.element("s")
        u = spec2.element("u")
        assert det_criterion([E2.one, s, u, s * u], E2,
                             contexts("biquadratic_p3"))

        spec3 = corpus["sqrt_t_p2"]
        E3 = spec3.field
        assert not det_criterion([E3.one, spec3.element("s")], E3,
                                 contexts("sqrt_t_p2"))


# -- criterion 12: byte-identical verification runs -----------------------------


def test_c12_determinism(capsys):
    with criterion(12, "verify-paper determinism"):
        argv = ["verify-paper", "--json"]
        code1 = cli_main(argv)
        out1 = capsys.readouterr().out
        code2 = cli_main(argv)
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["failed"] == 0
        assert payload["passed"] == len(payload["checks"]) > 0
