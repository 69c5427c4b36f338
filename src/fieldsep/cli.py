"""Command-line workbench: parse tower files, run separability analyses,
and execute the builtin cross-verification corpus.

Exit codes: 0 success / claims verified, 1 a checked property is
violated, 2 input error, 3 resource or capability bound exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .corpus import verify_corpus
from .embeddings import (count_hom, hom_set, normal_closure_context,
                         restriction)
from .errors import (CapabilityError, ContextTooSmallError, FieldSepError,
                     HeightBoundExceeded, InputError, PropertyViolation)
from .factor import distinct_root_count
from .lattice import canonical_chain, subfields_separable
from .parse import DEFAULT_HEIGHT_BOUND, parse_tower
from .separability import (canonical_inseparable_witness, hom_count_criterion,
                           is_separable_element, is_separable_element_by_witness,
                           l1l2_check, primitive_element, separable_closure)
from .towers import (Subfield, base_subfield, extension_stages,
                     minimal_polynomial, stage_generators)


def _report(degree, hom_count, separable, witness_flag=None, witness=None,
            closure_degree=None, primitive=None, notes=None):
    """The JSON report in its fixed key order.  The derivative and
    hom-count criteria read separable: a command raises PropertyViolation
    before its report when either disagrees."""
    return {
        "schema": 1,
        "degree": degree,
        "hom_count": hom_count,
        "separable": separable,
        "criteria": {
            "derivative": separable,
            "hom_count": separable,
            "witness": witness_flag,
        },
        "witness": witness,
        "closure_degree": closure_degree,
        "primitive": primitive,
        "notes": notes or [],
    }


def _emit(report, as_json):
    if as_json:
        print(json.dumps(report))
        return
    print(f"degree: {report['degree']}")
    print(f"hom count: {report['hom_count']}")
    print(f"separable: {report['separable']}")
    crit = report["criteria"]
    print("criteria: derivative={derivative} hom_count={hom_count} "
          "witness={witness}".format(**crit))
    w = report["witness"]
    if w is not None:
        parts = [f"{k}={v}" for k, v in w.items()]
        print("witness: " + " ".join(parts))
    if report["closure_degree"] is not None:
        print(f"closure degree: {report['closure_degree']}")
    if report["primitive"] is not None:
        print(f"primitive: {report['primitive']}")
    for note in report["notes"]:
        print(f"note: {note}")


def _subfield_from_arg(spec, E, arg):
    """A Subfield from a comma-separated list of declared names; K if empty."""
    if arg is None or arg.strip() in ("", "K"):
        return base_subfield(E)
    gens = [spec.element(name.strip())
            for name in arg.split(",") if name.strip()]
    return Subfield(E, gens)


def _canonical_witness_json(alpha, exponent, wrep, E, ctx):
    """The JSON witness object for an inseparable element of the given
    exponent, with the canonical witness of its witness report wrep when
    the witness route made one."""
    L = (canonical_inseparable_witness(alpha, E, ctx) if wrep is None
         else wrep.canonical_witness)
    p = E.characteristic
    gens = [] if L.dim == 1 else [repr(alpha ** (p ** exponent))]
    return {"kind": "canonical_subfield", "generators": gens}


def _until_inseparable(reports):
    """The reports, up to and including the first that is not separable."""
    out = []
    for rep in reports:
        out.append(rep)
        if not rep.separable:
            break
    return out


def cmd_check(spec, ctx, args):
    E = spec.field
    if args.element is not None:
        return _check_element(spec, E, ctx, args)
    n = E.absolute_degree
    gens = stage_generators(E)
    notes = []
    hom_rep = hom_count_criterion(E, ctx)
    reports = _until_inseparable(is_separable_element(g) for g in gens)
    derivative = all(r.separable for r in reports)
    if derivative != hom_rep.separable:
        raise PropertyViolation(
            "derivative and hom-count criteria disagree on the extension")
    try:
        wreps = _until_inseparable(
            is_separable_element_by_witness(g, E, ctx) for g in gens)
        witness_flag = all(r.separable for r in wreps)
    except CapabilityError as exc:
        notes.append(f"witness criterion unavailable: {exc}")
        wreps, witness_flag = [], None
    if witness_flag is not None and witness_flag != hom_rep.separable:
        raise PropertyViolation(
            "witness criterion disagrees with the hom count")
    pairs = [r.witness_pair for r in wreps if r.witness_pair is not None]
    witness = None
    if not hom_rep.separable:
        k = len(reports) - 1
        witness = _canonical_witness_json(
            gens[k], reports[k].exponent,
            wreps[k] if k < len(wreps) else None, E, ctx)
    elif pairs:
        phi, psi, over = pairs[-1]
        witness = {"kind": "pair", "images": [repr(phi.images), repr(psi.images)]}
    report = _report(n, hom_rep.hom_count, hom_rep.separable,
                     witness_flag=witness_flag, witness=witness,
                     closure_degree=separable_closure(E, ctx).separable_degree,
                     notes=notes)
    return report, 0


def _check_element(spec, E, ctx, args):
    alpha = spec.element(args.element)
    mp = minimal_polynomial(alpha)
    degree = mp.degree
    notes = []
    rep = is_separable_element(alpha)
    sub = Subfield(E, [alpha])
    hom_count = len({restriction(phi, sub) for phi in hom_set(E, None, ctx)})
    if hom_count != distinct_root_count(mp):
        raise PropertyViolation(
            "restriction count disagrees with the distinct-root count")
    homc = hom_count == degree
    if homc != rep.separable:
        raise PropertyViolation(
            "derivative and hom-count criteria disagree on the element")
    witness_flag = None
    witness = wrep = None
    try:
        wrep = is_separable_element_by_witness(alpha, E, ctx)
        witness_flag = wrep.separable
        if witness_flag != rep.separable:
            raise PropertyViolation(
                "witness criterion disagrees with the derivative criterion")
        if wrep.witness_pair is not None:
            phi, psi, _over = wrep.witness_pair
            witness = {"kind": "pair",
                       "images": [repr(phi.apply(alpha)), repr(psi.apply(alpha))]}
    except CapabilityError as exc:
        notes.append(f"witness criterion unavailable: {exc}")
    if not rep.separable:
        witness = _canonical_witness_json(alpha, rep.exponent, wrep, E, ctx)
    report = _report(degree, hom_count, rep.separable,
                     witness_flag=witness_flag, witness=witness, notes=notes)
    return report, 0


def cmd_hom_count(spec, ctx, args):
    E = spec.field
    L = _subfield_from_arg(spec, E, args.over)
    n = E.absolute_degree
    if n % L.dim:
        raise PropertyViolation("subfield dimension does not divide the degree")
    degree = n // L.dim
    count = count_hom(E, L, ctx)
    if count > degree:
        raise PropertyViolation("embedding count exceeds the relative degree")
    notes = []
    if L.dim > 1:
        notes.append(f"counted over a subfield of dimension {L.dim}")
    report = _report(degree, count, count == degree, notes=notes)
    return report, 0


def cmd_embeddings(spec, ctx, args):
    E = spec.field
    maps = hom_set(E, base_subfield(E), ctx)
    n = E.absolute_degree
    notes = [repr(phi) for phi in maps]
    report = _report(n, len(maps), len(maps) == n, notes=notes)
    return report, 0


def cmd_primitive(spec, ctx, args):
    E = spec.field
    hom_rep = hom_count_criterion(E, ctx)
    gamma = primitive_element(E, ctx)
    report = _report(E.absolute_degree, hom_rep.hom_count, hom_rep.separable,
                     primitive=repr(gamma))
    return report, 0


def cmd_closure(spec, ctx, args):
    E = spec.field
    hom_rep = hom_count_criterion(E, ctx)
    result = separable_closure(E, ctx)
    notes = [f"inseparable degree: {result.inseparable_degree}",
             "closure basis: " +
             ", ".join(repr(b) for b in result.closure.basis)]
    report = _report(E.absolute_degree, hom_rep.hom_count, hom_rep.separable,
                     closure_degree=result.separable_degree, notes=notes)
    return report, 0


def cmd_subfields(spec, ctx, args):
    E = spec.field
    hom_rep = hom_count_criterion(E, ctx)
    if hom_rep.separable:
        lattice = subfields_separable(E, ctx)
    elif len(extension_stages(E)) > 1:
        raise CapabilityError(
            "no subfield lattice for an inseparable tower of more than one stage")
    else:
        lattice = canonical_chain(E)
    notes = [f"lattice completeness: {lattice.completeness}"]
    for L in lattice.nodes:
        notes.append(f"dim {L.dim}: " + ", ".join(repr(b) for b in L.basis))
    report = _report(E.absolute_degree, hom_rep.hom_count, hom_rep.separable,
                     notes=notes)
    return report, 0


def cmd_l1l2(spec, ctx, args):
    E = spec.field
    hom_rep = hom_count_criterion(E, ctx)
    L1 = _subfield_from_arg(spec, E, args.left)
    L2 = _subfield_from_arg(spec, E, args.right)
    result = l1l2_check(L1, L2, E, ctx)
    notes = [f"containment: {result.containment}",
             f"implication: {result.implication}",
             f"equivalent: {result.equivalent}"]
    code = 0
    if hom_rep.separable and not result.equivalent:
        notes.append("equivalence fails on separable input")
        code = 1
    report = _report(E.absolute_degree, hom_rep.hom_count, hom_rep.separable,
                     notes=notes)
    return report, code


def cmd_verify_paper(args):
    records = verify_corpus(height_bound=args.height_bound)
    failed = [r for r in records if not r.passed]
    if args.json:
        payload = {
            "schema": 1,
            "corpus": "builtin",
            "passed": len(records) - len(failed),
            "failed": len(failed),
            "checks": [{"entry": r.entry, "check": r.check,
                        "passed": r.passed, "detail": r.detail}
                       for r in records],
        }
        print(json.dumps(payload))
    else:
        for r in records:
            status = "PASS" if r.passed else "FAIL"
            detail = f"  ({r.detail})" if r.detail else ""
            print(f"{status} {r.entry} {r.check}{detail}")
        print(f"{len(records) - len(failed)}/{len(records)} checks passed")
    return 1 if failed else 0


def _load_spec(args):
    if args.tower == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.tower, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read tower file: {exc}")
    return parse_tower(text, height_bound=args.height_bound)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fieldsep",
        description="Exact separability workbench for finite-degree "
                    "extensions of F_p and F_p(t).")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a JSON report")
    common.add_argument("--height-bound", type=int,
                        default=DEFAULT_HEIGHT_BOUND, metavar="H",
                        help="t-degree bound on the coefficients of the tower "
                             "file's generator polynomials")
    tower = argparse.ArgumentParser(add_help=False)
    tower.add_argument("tower", help="tower file path, or - for stdin")

    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("check", parents=[tower, common],
                       help="separability report for the extension or an element")
    p.add_argument("--element", metavar="NAME",
                   help="check a declared element instead of the extension")
    sub.add_parser("hom-count", parents=[tower, common],
                   help="count embeddings into a normal closure") \
       .add_argument("--over", metavar="GENS",
                     help="comma-separated names generating the base subfield")
    sub.add_parser("embeddings", parents=[tower, common],
                   help="list all base-fixing embeddings")
    sub.add_parser("primitive", parents=[tower, common],
                   help="find a single generator of a separable extension")
    sub.add_parser("closure", parents=[tower, common],
                   help="compute the separable closure inside the extension")
    sub.add_parser("subfields", parents=[tower, common],
                   help="enumerate intermediate subfields")
    p = sub.add_parser("l1l2", parents=[tower, common],
                       help="containment versus restriction implication")
    p.add_argument("--left", required=True, metavar="GENS",
                   help="generators of L1 (empty or K for the base)")
    p.add_argument("--right", required=True, metavar="GENS",
                   help="generators of L2 (empty or K for the base)")
    sub.add_parser("verify-paper", parents=[common],
                   help="run the builtin cross-verification corpus")
    return parser


COMMANDS = {
    "check": cmd_check,
    "hom-count": cmd_hom_count,
    "embeddings": cmd_embeddings,
    "primitive": cmd_primitive,
    "closure": cmd_closure,
    "subfields": cmd_subfields,
    "l1l2": cmd_l1l2,
}


# built once per process, at import: main is called many times in-process
PARSER = build_parser()


def main(argv=None):
    args = PARSER.parse_args(argv)
    try:
        if args.command == "verify-paper":
            return cmd_verify_paper(args)
        spec = _load_spec(args)
        ctx = normal_closure_context(spec.field)
        report, code = COMMANDS[args.command](spec, ctx, args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (HeightBoundExceeded, ContextTooSmallError, CapabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FieldSepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(report, args.json)
    return code


if __name__ == "__main__":
    sys.exit(main())
