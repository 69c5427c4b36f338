"""Checks of the program's answers against the expected ones in inputs.py.

Every check raises `Mismatch` on a wrong answer.  Expected values come
from the tower's rule or the hand-derived table, never from the program;
where no rule gives a value, the check tests a property every correct
answer has (a degree divides n, an inseparable degree is a power of p).
"""

from __future__ import annotations

import json

import fields


class Mismatch(Exception):
    """The program gave a wrong answer."""


class Failed(Exception):
    """The program gave no answer where one was expected."""


def expect(cond, what):
    if not cond:
        raise Mismatch(what)


def _is_p_power(m, p):
    while m > 1 and m % p == 0:
        m //= p
    return m == 1


def check_element_verdict(tower, el, degree, hom_count):
    """Degree and restriction count reported for an element."""
    if el.degree is not None:
        expect(degree == el.degree, f"degree {degree}, expected {el.degree}")
    expect(tower.degree % degree == 0, f"degree {degree} does not divide n")
    if el.separable:
        expect(hom_count == degree, f"|Hom| {hom_count} != degree {degree}")
    else:
        expect(hom_count < degree and degree % hom_count == 0
               and _is_p_power(degree // hom_count, tower.p),
               f"inseparable degree {degree}/{hom_count} is not a p-power")


def check_cli(tower, command, element, code, out, err):
    """The exit code and JSON report of one `fieldsep <command> --json`."""
    n, sep = tower.degree, tower.sep_degree
    if command == "primitive" and not tower.separable:
        expect(code == 2 and "separable input" in err,
               f"primitive on inseparable input: exit {code}")
        return
    if code != 0:
        raise Failed(f"exit {code}: {err.strip()}")
    r = json.loads(out)
    crit = r["criteria"]
    if command == "element":
        el = tower.elements[element]
        expect(r["separable"] is el.separable, f"separable={r['separable']}")
        expect(crit["derivative"] is el.separable
               and crit["hom_count"] is el.separable
               and crit["witness"] in (el.separable, None),
               f"criteria {crit}")
        check_element_verdict(tower, el, r["degree"], r["hom_count"])
        if not el.separable:
            expect(r["witness"]["kind"] == "canonical_subfield",
                   f"witness {r['witness']}")
        return
    expect(r["hom_count"] == sep,
           f"hom_count {r['hom_count']}, expected {sep}")
    expect(r["separable"] is tower.separable, f"separable={r['separable']}")
    if command == "hom-count":
        expect(r["degree"] == n, f"degree {r['degree']}")
    elif command == "check":
        expect(r["degree"] == n and r["closure_degree"] == sep,
               f"degree {r['degree']} closure {r['closure_degree']}")
        expect(crit["derivative"] is tower.separable
               and crit["hom_count"] is tower.separable
               and crit["witness"] in (tower.separable, None),
               f"criteria {crit}")
    elif command == "embeddings":
        expect(len(r["notes"]) == sep and len(set(r["notes"])) == sep,
               f"{len(set(r['notes']))} distinct maps, expected {sep}")
    elif command == "primitive":
        expect(r["degree"] == n and r["primitive"] is not None,
               f"primitive {r['primitive']}")
    elif command == "closure":
        expect(r["closure_degree"] == sep
               and r["notes"][0] == f"inseparable degree: {n // sep}",
               f"closure {r['closure_degree']} {r['notes'][:1]}")
    elif command == "subfields":
        completeness = "complete" if tower.complete else "sound_only"
        expect(r["notes"][0] == f"lattice completeness: {completeness}",
               r["notes"][0])
        dims = sorted(int(line.split()[1].rstrip(":"))
                      for line in r["notes"][1:])
        expect(dims == tower.lattice, f"subfield dims {dims}")
    else:
        raise ValueError(command)


def check_records(records):
    """`corpus.verify_entry` rows: at least one, and all passed."""
    expect(records, "no verification records")
    bad = [f"{r.check}: {r.detail}" for r in records if not r.passed]
    expect(not bad, "; ".join(bad))


# -- library queries against a built closure ----------------------------------


def check_lattice(tower, lattice):
    expect(sorted(L.dim for L in lattice.nodes) == tower.lattice,
           f"subfield dims {[L.dim for L in lattice.nodes]}")
    expect((lattice.completeness == "complete") is tower.complete,
           lattice.completeness)


def hom_over(tower, dim):
    """|Hom_L(E, N)| = [E:L]_s for a lattice node L of the given dimension.

    Separable E: [E:L].  E = K(s) with minimal polynomial g(x^(p^e)):
    every node of the canonical chain other than K contains the separable
    closure K(s^(p^e)), so E/L is purely inseparable.
    """
    if tower.separable:
        return tower.degree // dim
    return tower.sep_degree if dim == 1 else 1


def check_audit(tower, dim, audit):
    hom_l = hom_over(tower, dim)
    expect(audit.formula_holds, f"{audit} breaks the tower formula")
    expect((audit.hom_K_E, audit.hom_L_E, audit.hom_K_L)
           == (tower.sep_degree, hom_l, tower.sep_degree // hom_l), str(audit))


def contains(tower, i, j, dims):
    """L_i <= L_j for nodes of a complete lattice, or None if not decided.

    Over F_p there is one subfield per degree, so containment is
    divisibility; otherwise K lies in every node, every node lies in E,
    and distinct nodes of equal dimension are incomparable.
    """
    if i == j or dims[i] == 1 or dims[j] == tower.degree:
        return True
    if tower.finite:
        return dims[j] % dims[i] == 0
    if dims[i] >= dims[j]:
        return False
    return None


def check_minpoly(tower, el, mp):
    """A minimal polynomial over K: monic, of a degree dividing n,
    separable iff the element is, and over F_p irreducible (Rabin)."""
    coeffs = mp.coeffs
    d = len(coeffs) - 1
    expect(coeffs[-1] == coeffs[-1].field.one, "not monic")
    expect(tower.degree % d == 0 and (el.degree is None or d == el.degree),
           f"minimal polynomial degree {d}")
    moving = any(not c.is_zero() for k, c in enumerate(coeffs) if k % tower.p)
    expect(moving is el.separable,
           f"minimal polynomial separable={moving}")
    if tower.finite:
        expect(fields.is_irreducible([c.rep for c in coeffs], tower.p),
               "minimal polynomial is reducible over F_p")


def check_count(want, got):
    expect(got == want, f"count {got}, expected {want}")


def check_verdict(el, report):
    """A SeparabilityReport on an element."""
    expect(report.separable is el.separable, f"separable={report.separable}")
    if el.degree is not None:
        expect(report.degree == el.degree, f"degree {report.degree}")


def check_conjugates(tower, el, degree, roots):
    """The roots in N of an element's minimal polynomial: its conjugates,
    as many as [K(a):K]_s, since N is normal over K."""
    expect(len({r.rep for r in roots}) == len(roots), "repeated root")
    check_element_verdict(tower, el, degree, len(roots))


def check_l1l2(contained, result):
    """On separable input, containment and implication both equal the
    expected containment."""
    expect(result.containment is contained
           and result.implication is contained,
           f"containment {result.containment} "
           f"implication {result.implication}")
