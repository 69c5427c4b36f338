"""Tests of the benchmark's own checkers against hand-computed cases.

    python3 -m pytest benchmark/test_checkers.py

They need no fieldsep: the checkers must be right on their own.
"""

from __future__ import annotations

import json
import random
import re

import pytest

import checks
import fields
import inputs


def _mobius(n):
    out, m = 1, n
    for q in fields.prime_factors(n):
        m //= q
        if m % q == 0:
            return 0
        out = -out
    return out


def _irreducible_count(p, n):
    """Monic irreducibles of degree n over F_p, by the necklace formula."""
    return sum(_mobius(d) * p ** (n // d) for d in fields.divisors(n)) // n


def _monics(p, n):
    for k in range(p ** n):
        yield [(k // p ** i) % p for i in range(n)] + [1]


# -- divisor count and irreducibility -----------------------------------------


@pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (4, 3), (6, 4), (8, 4),
                                     (9, 3), (10, 4), (12, 6)])
def test_divisor_count(n, count):
    assert len(fields.divisors(n)) == count
    assert all(n % d == 0 for d in fields.divisors(n))


def test_rabin_hand_cases():
    assert fields.is_irreducible([1, 1, 1], 2)          # x^2 + x + 1
    assert not fields.is_irreducible([1, 0, 1], 2)      # (x + 1)^2
    assert fields.is_irreducible([1, 2, 0, 1], 3)       # gf27's x^3 + 2x + 1
    assert fields.is_irreducible([1, 1, 0, 0, 1], 2)    # x^4 + x + 1
    assert not fields.is_irreducible([1, 0, 1, 0, 1], 2)  # (x^2 + x + 1)^2
    assert fields.is_irreducible([1, 0, 1], 3)          # x^2 + 1 over F_3
    assert not fields.is_irreducible([1, 0, 1], 5)      # 2^2 = -1 in F_5


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5),
                                 (3, 2), (3, 3), (5, 2)])
def test_rabin_counts_match_necklace_formula(p, n):
    found = sum(fields.is_irreducible(f, p) for f in _monics(p, n))
    assert found == _irreducible_count(p, n)


# -- seeded inputs follow their rules -----------------------------------------


def _gen_polys(text, p):
    """{generator name: coefficient list} for `gen g : ...` lines over F_p."""
    out = {}
    for name, poly in re.findall(r"gen (\w+) : (.*)", text):
        coeffs = {}
        for term in poly.split(" + "):
            m = re.fullmatch(r"(?:(\d+)\*)?(?:x(?:\^(\d+))?)?|(\d+)", term)
            c, k, const = m.groups()
            if const is not None:
                coeffs[0] = int(const)
            else:
                coeffs[int(k or 1)] = int(c or 1)
        out[name] = [coeffs.get(i, 0) % p for i in range(max(coeffs) + 1)]
    return out


@pytest.mark.parametrize("seed", range(8))
def test_seeded_finite_stages_are_irreducible(seed):
    rng = random.Random(seed)
    tower = inputs.seeded_finite(rng, "t", 2, [3, 2])
    polys = _gen_polys(tower.text, 2)
    assert [len(f) - 1 for f in polys.values()] == [3, 2]
    assert all(fields.is_irreducible(f, 2) for f in polys.values())
    assert tower.degree == 6 and tower.lattice == [1, 2, 3, 6]
    assert tower.elements["a"].degree == 6
    assert tower.elements["b"].degree == 3


def _exponents(text):
    (poly,) = re.findall(r"gen \w+ : (.*)", text)
    return sorted({int(k or 1) for k in re.findall(r"x(?:\^(\d+))?", poly)}
                  | {0})


@pytest.mark.parametrize("p,d,e", [(2, 1, 2), (3, 1, 1), (5, 1, 1),
                                   (2, 2, 1), (3, 2, 0), (5, 2, 0)])
@pytest.mark.parametrize("seed", range(4))
def test_seeded_function_field_shape(p, d, e, seed):
    tower = inputs.seeded_function_field(random.Random(seed), "t", p, d, e)
    q = p ** e
    assert tower.degree == d * q and tower.sep_degree == d
    assert all(k % q == 0 for k in _exponents(tower.text))
    assert tower.separable is (e == 0)
    (b,) = re.findall(r"elem b = (.*)", tower.text)
    support = {int(k or 1) for k in re.findall(r"s(?:\^(\d+))?", b)}
    assert tower.elements["b"].separable is all(k % q == 0 for k in support)
    if e:
        assert not tower.elements["b"].separable
    if d >= 2:
        assert tower.elements["a"].separable


def test_power_basis_separability_rule():
    """s^4 + t s^2 + t over F_2(t): E_s = K(s^2), so an element is
    separable iff its s- and s^3-coordinates vanish."""
    p, e = 2, 1
    for coords, separable in [([0, 0, 1, 0], True), ([1, 0, 1, 0], True),
                              ([0, 1, 0, 0], False), ([1, 0, 0, 1], False)]:
        support = [j for j, c in enumerate(coords) if c]
        assert all(j % p ** e == 0 for j in support) is separable


def test_element_degree_rule_hand_cases():
    # K(s) with s^4 = t over F_2(t): s^2 has degree 2, s + s^2 degree 4
    assert inputs.element_degree([0, 0, 1, 0], 2, 1, 2) == 2
    assert inputs.element_degree([1, 1, 1, 0], 2, 1, 2) == 4
    assert inputs.element_degree([1, 0, 0, 0], 2, 1, 2) == 1
    # s^3 = t over F_3(t): s^2 generates E
    assert inputs.element_degree([0, 0, 1], 3, 1, 1) == 3
    # separable quadratic: anything outside K generates E
    assert inputs.element_degree([2, 1], 3, 2, 0) == 2
    # d = 2, e = 1: no rule
    assert inputs.element_degree([0, 1, 0, 0], 2, 2, 1) is None


# -- the hand-derived table ---------------------------------------------------


def _stage_degrees(text):
    return [int(max(re.findall(r"x\^(\d+)", poly), key=int, default=1))
            for poly in re.findall(r"gen \w+ : (.*)", text)]


@pytest.mark.parametrize("name", sorted(inputs.CORPUS))
def test_table_degrees_and_lattices(name):
    t = inputs.CORPUS[name]
    n = 1
    for d in _stage_degrees(t.text):
        n *= d
    assert t.degree == n
    assert n % t.sep_degree == 0
    assert checks._is_p_power(n // t.sep_degree, t.p)
    if t.finite:
        assert t.separable and t.lattice == fields.divisors(n)
    elif t.lattice is not None:
        assert t.lattice[0] == 1 and t.lattice[-1] == n
        assert all(n % d == 0 for d in t.lattice)
    for el in t.elements.values():
        assert el.degree is None or n % el.degree == 0
        assert el.separable or not t.separable


@pytest.mark.parametrize("name", ["sqrt_t_p2", "cbrt_t_p3", "fifth_t_p5",
                                  "quartic_t_p2", "mixed_p2", "sqrt_t_p3"])
def test_table_single_stage_shape(name):
    """For one stage g(x^(p^e)) the separable degree is deg g."""
    t = inputs.CORPUS[name]
    exps = _exponents(t.text)
    e = 0
    while all(k % t.p ** (e + 1) == 0 for k in exps):
        e += 1
    assert t.sep_degree == t.degree // t.p ** e
    if t.shape is not None:
        assert t.shape == (e, t.sep_degree)


# -- the answer checkers ------------------------------------------------------


def _report(**kw):
    base = {"schema": 1, "degree": 4, "hom_count": 2, "separable": False,
            "criteria": {"derivative": False, "hom_count": False,
                         "witness": False},
            "witness": {"kind": "canonical_subfield", "generators": []},
            "closure_degree": 2, "primitive": None, "notes": []}
    base.update(kw)
    return json.dumps(base)


def test_check_cli_accepts_mixed_p2_answers():
    t = inputs.CORPUS["mixed_p2"]
    checks.check_cli(t, "check", None, 0, _report(), "")
    checks.check_cli(t, "closure", None, 0,
                     _report(notes=["inseparable degree: 2", "x"]), "")
    checks.check_cli(t, "subfields", None, 0, _report(notes=[
        "lattice completeness: sound_only", "dim 1: 1", "dim 2: b^2",
        "dim 4: 1, b, b^2, b^3"]), "")
    checks.check_cli(t, "primitive", None, 2, "",
                     "error: primitive elements are computed for separable "
                     "input\n")
    checks.check_cli(t, "element", "c", 0, _report(degree=2, hom_count=1), "")


@pytest.mark.parametrize("command,element,report", [
    ("check", None, _report(hom_count=4)),
    ("check", None, _report(closure_degree=4)),
    ("check", None, _report(separable=True)),
    ("embeddings", None, _report(notes=["m1", "m1"])),
    ("subfields", None, _report(notes=["lattice completeness: sound_only",
                                       "dim 1: 1", "dim 4: b"])),
    ("element", "a", _report(degree=2, hom_count=1)),
    ("element", "c", _report(degree=2, hom_count=2, separable=True)),
])
def test_check_cli_rejects_wrong_answers(command, element, report):
    with pytest.raises(checks.Mismatch):
        checks.check_cli(inputs.CORPUS["mixed_p2"], command, element, 0,
                         report, "")


def test_check_cli_counts_missing_answers_as_failed():
    with pytest.raises(checks.Failed):
        checks.check_cli(inputs.CORPUS["gf16"], "check", None, 3, "",
                         "error: bound\n")
    with pytest.raises(checks.Failed):
        checks.check_cli(inputs.CORPUS["insep_tower_p2"], "check", None, 2,
                         "", "error: canonical_chain\n")


def test_containment_rule():
    gf64 = inputs.CORPUS["gf64_tower"]
    dims = [1, 2, 3, 6]
    assert checks.contains(gf64, 1, 3, dims)
    assert not checks.contains(gf64, 1, 2, dims)      # F_4 not in F_8
    assert not checks.contains(gf64, 3, 1, dims)
    biquad = inputs.CORPUS["biquadratic_p3"]
    dims = [1, 2, 2, 2, 4]
    assert checks.contains(biquad, 0, 2, dims)
    assert not checks.contains(biquad, 1, 2, dims)    # distinct quadratics
    assert not checks.contains(biquad, 4, 1, dims)


def test_hom_over_lattice_nodes():
    mixed = inputs.CORPUS["mixed_p2"]               # [E:K]_s = 2, chain 1,2,4
    assert [checks.hom_over(mixed, d) for d in (1, 2, 4)] == [2, 1, 1]
    biquad = inputs.CORPUS["biquadratic_p3"]
    assert [checks.hom_over(biquad, d) for d in (1, 2, 4)] == [4, 2, 1]
