"""Builtin corpus of towers and the cross-verification suite.

Each entry is a tower file (the same format the CLI reads) plus named
elements exercising separable, inseparable, and mixed behavior.  The
verification suite recomputes the core identities on every entry --
embedding counts against degrees, the tower counting formula, criteria
agreement on elements, closure consistency, and primitive elements --
and reports one pass/fail record per check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .embeddings import count_hom, normal_closure_context, tower_audit
from .errors import FieldSepError
from .parse import DEFAULT_HEIGHT_BOUND, parse_tower
from .separability import (canonical_inseparable_witness, hom_count_criterion,
                           is_separable_element, primitive_element,
                           separable_closure)
from .towers import Subfield, minimal_polynomial, stage_generators


@dataclass
class CorpusEntry:
    name: str
    text: str


BUILTIN = [
    CorpusEntry("gf4", """\
base Fp 2
gen w : x^2 + x + 1
elem a = w + 1
"""),
    CorpusEntry("gf16", """\
base Fp 2
gen w : x^2 + x + 1
gen v : x^2 + x + w
elem a = v + w
"""),
    CorpusEntry("gf27", """\
base Fp 3
gen c : x^3 + 2*x + 1
elem a = c^2 + 1
"""),
    CorpusEntry("gf64_tower", """\
base Fp 2
gen w : x^2 + x + 1
gen c : x^3 + w
elem a = c + w
"""),
    CorpusEntry("gf729", """\
base Fp 3
gen i : x^2 + 1
gen c : x^3 + x + i
elem a = c + i
"""),
    CorpusEntry("gf4096", """\
base Fp 2
gen w : x^2 + x + 1
gen c : x^3 + w
gen v : x^2 + x + w
elem a = v + c
"""),
    CorpusEntry("sqrt_t_p2", """\
base FpT 2
gen s : x^2 + t
elem a = s + 1
elem b = s^2 + s
"""),
    CorpusEntry("cbrt_t_p3", """\
base FpT 3
gen s : x^3 + 2*t
elem a = s + t
"""),
    CorpusEntry("fifth_t_p5", """\
base FpT 5
gen s : x^5 + 4*t
elem a = s + 2
"""),
    CorpusEntry("quartic_t_p2", """\
base FpT 2
gen a : x^4 + t
elem b = a^2
elem c = a^2 + a
"""),
    CorpusEntry("mixed_p2", """\
base FpT 2
gen b : x^4 + x^2 + t
elem a = b^2
elem c = b^2 + b
"""),
    CorpusEntry("sqrt_t_p3", """\
base FpT 3
gen s : x^2 + 2*t
elem a = s + t
"""),
    CorpusEntry("biquadratic_p3", """\
base FpT 3
gen s : x^2 + 2*t
gen u : x^2 + 2*t + 2
elem g = s + u
elem h = s*u
"""),
    CorpusEntry("insep_tower_p2", """\
base FpT 2
gen s : x^2 + t
gen w : x^2 + s + 1
elem a = w + s
"""),
    CorpusEntry("trans_tower_p3", """\
base FpT 3
gen s : x^2 + 2*t
gen w : x^2 + 2*s + 2
elem a = w + s
"""),
]


def builtin_corpus():
    """name -> parsed TowerSpec, rebuilt fresh on every call."""
    return {entry.name: parse_tower(entry.text) for entry in BUILTIN}


@dataclass
class CheckRecord:
    entry: str
    check: str
    passed: bool
    detail: str


def _stage_subfields(E):
    """Proper tower stages of E as subfields, bottom up, excluding K and E."""
    gens = stage_generators(E)
    return [Subfield(E, gens[:k]) for k in range(1, len(gens))]


def verify_entry(entry, height_bound=DEFAULT_HEIGHT_BOUND):
    """All cross-checks for one corpus entry, as CheckRecord rows."""
    records = []

    def record(check, passed, detail=""):
        records.append(CheckRecord(entry.name, check, bool(passed), detail))

    spec = parse_tower(entry.text, height_bound=height_bound)
    E = spec.field
    n = E.absolute_degree
    ctx = normal_closure_context(E)

    report = hom_count_criterion(E, ctx)
    record("hom_count_bounded", report.hom_count <= n,
           f"|Hom|={report.hom_count} degree={n}")

    for L in _stage_subfields(E):
        audit = tower_audit(E, L, ctx)
        record("tower_formula", audit.formula_holds,
               f"{audit.hom_K_E} = {audit.hom_L_E} * {audit.hom_K_L}")

    for name in sorted(spec.names):
        a = spec.element(name)
        rep = is_separable_element(a)
        hom_sub = count_hom(E, Subfield(E, [a]), ctx)
        expected = n // minimal_polynomial(a).degree if rep.separable else None
        if rep.separable:
            # separable a: Hom over K(a) has exactly [E : K(a)] maps when E/K(a)
            # is itself separable, and at most that many otherwise
            record("element_hom_consistent", hom_sub <= expected,
                   f"{name}: |Hom_K(a)|={hom_sub} [E:K(a)]={expected}")
        else:
            try:
                canonical_inseparable_witness(a, E, ctx)
                record("canonical_witness", True, name)
            except FieldSepError as exc:
                record("canonical_witness", False, f"{name}: {exc}")

    try:
        closure = separable_closure(E, ctx)
        record("closure_consistent",
               closure.separable_degree * closure.inseparable_degree == n
               and closure.separable_degree == report.hom_count,
               f"sep={closure.separable_degree} insep={closure.inseparable_degree}")
    except FieldSepError as exc:
        record("closure_consistent", False, str(exc))

    if report.separable and n > 1:
        try:
            gamma = primitive_element(E, ctx)
            record("primitive_element",
                   minimal_polynomial(gamma).degree == n, repr(gamma))
        except FieldSepError as exc:
            record("primitive_element", False, str(exc))
    return records


def verify_corpus(height_bound=DEFAULT_HEIGHT_BOUND):
    records = []
    for entry in BUILTIN:
        records.extend(verify_entry(entry, height_bound=height_bound))
    return records
