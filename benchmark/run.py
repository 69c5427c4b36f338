"""End-to-end and per-layer benchmark of fieldsep.

    python3 benchmark/run.py --workload finite --seed 1 --seconds 35 --trace 0

Runs from the root of a source checkout and imports fieldsep from its
`src/` directory.  One process, one thread.  Set-up (import, input
generation and, for `queries`, building the closures) is repeated and
timed; then rounds, each running every operation of the workload once,
repeat until `--seconds` is used up.  Every answer is checked against
the expected one from inputs.py.

The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are end to end,
times in seconds at a fixed machine speed (see CALIBRATION_S):

* latency_geomean_s - geometric mean over operations of each
  operation's median wall time across rounds;
* work_s - the sum of those medians, the cost of one pass;
* setup_s - median set-up time;
* peak_rss_mb - peak resident set size of the process.

With `--trace 1` a set-up and a pass run with every layer's public
functions wrapped (calls, inclusive seconds), then a fresh set-up and a
pass under cProfile (self seconds per module).  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable

import checks
import fields
import inputs
import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_ROUNDS = 3
# The machine's speed drifts by up to half from minute to minute, and all
# pure-Python code slows alike.  A fixed computation of the benchmark's
# own (Rabin's test on one polynomial over F_3) is timed before every
# operation; the median of those times, c, measures the speed during the
# run, and every reported time is scaled by CALIBRATION_S / c: it is given
# in seconds at the speed at which the calibration takes CALIBRATION_S.
CALIBRATION_POLY = [1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1]
CALIBRATION_S = 0.0017
# set-ups per untraced run, of which the median is reported
SETUPS = {"finite": 11, "function-field": 11, "queries": 5}

# seeded tower shapes: (name, p, stage degrees) over F_p ...
FINITE_SEEDED = [("s_fp2_3", 2, [3]), ("s_fp3_2", 3, [2]),
                 ("s_fp5_3", 5, [3]), ("s_fp7_2", 7, [2])]
# ... and (name, p, d, e) for g(x^(p^e)) over F_p(t), deg g = d
FF_SEEDED = [("s_ft2_d1e2", 2, 1, 2), ("s_ft3_d1e1", 3, 1, 1),
             ("s_ft5_d1e1", 5, 1, 1), ("s_ft2_d2e1", 2, 2, 1),
             ("s_ft3_d2e0", 3, 2, 0)]


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], None]


# -- the program --------------------------------------------------------------


def import_fieldsep():
    """A fresh import of fieldsep from the checkout's src/ directory."""
    for name in [m for m in sys.modules
                 if m == "fieldsep" or m.startswith("fieldsep.")]:
        del sys.modules[name]
    fs = importlib.import_module("fieldsep")
    for mod in ("cli", "corpus", "parse", "towers", "embeddings",
                "separability", "lattice"):
        importlib.import_module(f"fieldsep.{mod}")
    return fs


def run_cli(fs, argv, text):
    """fieldsep.cli.main(argv) reading the tower from stdin."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = fs.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


# -- workloads ----------------------------------------------------------------


def cli_ops(fs, tower):
    """One operation per CLI command of the tower (and `verify_entry`)."""
    ops = []
    for cmd in tower.commands:
        if cmd == "verify":
            entry = fs.corpus.CorpusEntry(tower.name, tower.text)
            ops.append(Op(f"{tower.name} verify_entry",
                          lambda e=entry: fs.corpus.verify_entry(e),
                          checks.check_records))
            continue
        for el in sorted(tower.elements) if cmd == "element" else [None]:
            argv = ["check", "-", "--json", "--element", el] if el \
                else [cmd, "-", "--json"]
            ops.append(Op(f"{tower.name} {' '.join(argv[:1] + argv[3:])}",
                          partial(run_cli, fs, argv, tower.text),
                          partial(_check_cli, tower, cmd, el)))
    return ops


def _check_cli(tower, cmd, el, result):
    checks.check_cli(tower, cmd, el, *result)


def finite_towers(rng):
    towers = [inputs.corpus(name) for name in ("gf4", "gf16", "gf27")]
    towers += [inputs.corpus("gf64_tower", ["check"]),
               inputs.corpus("gf729", ["hom-count"])]
    towers += [inputs.seeded_finite(rng, name, p, degrees)
               for name, p, degrees in FINITE_SEEDED]
    return towers


def function_field_towers(rng):
    names = ("sqrt_t_p2", "cbrt_t_p3", "fifth_t_p5", "quartic_t_p2",
             "mixed_p2", "sqrt_t_p3", "insep_tower_p2")
    towers = [inputs.corpus(name) for name in names]
    towers += [inputs.corpus("biquadratic_p3", ["check", "hom-count"]),
               inputs.corpus("trans_tower_p3", ["hom-count"])]
    towers += [inputs.seeded_function_field(rng, name, p, d, e)
               for name, p, d, e in FF_SEEDED]
    return towers


def cli_workload(make_towers):
    def build(fs, rng):
        return [op for t in make_towers(rng) for op in cli_ops(fs, t)]
    return build


# -- queries against closures built in set-up ---------------------------------

# corpus towers for `queries`, with their generators and stage degrees
QUERY_CORPUS = {"gf64_tower": [("w", 2), ("c", 3)],
                "gf729": [("i", 2), ("c", 3)],
                "biquadratic_p3": [("s", 2), ("u", 2)],
                "mixed_p2": [("b", 4)]}
QUERY_SEEDED_FP = [("q_fp5_3", 5, [3])]
# towers whose element q gets a `roots_in` query: separable ones, since
# over an inseparable closure roots_in can fail (CHANGES.md), and not
# gf729, where one such query takes a fifth of a round
QUERY_ROOTS = ("gf64_tower", "biquadratic_p3")
QUERY_SEEDED_FT = [("q_ft3_d2e0", 3, 2, 0), ("q_ft2_d2e1", 2, 2, 1)]
L1L2_PAIRS = 3


def seeded_element(rng, tower, gens):
    """`elem q = ...`: every power-basis monomial, with random nonzero
    coefficients in F_p.

    It is separable iff the tower is: on a single inseparable stage it
    has a coordinate off the multiples of p^e.  Its degree is left to
    the property checks.
    """
    monos = [[]]
    for g, d in gens:
        monos = [m + [(g, k)] for m in monos for k in range(d)]
    terms = ["*".join([str(rng.randrange(1, tower.p))]
                      + [f"{g}^{k}" for g, k in mono if k]) for mono in monos]
    return ("elem q = " + " + ".join(terms),
            inputs.Element(tower.separable, None))


def query_towers(rng):
    towers = []
    for name, gens in QUERY_CORPUS.items():
        t = inputs.corpus(name)
        line, el = seeded_element(rng, t, gens)
        towers.append(replace(t, text=t.text + line + "\n",
                              elements={**t.elements, "q": el}, commands=()))
    towers += [inputs.seeded_finite(rng, name, p, degrees)
               for name, p, degrees in QUERY_SEEDED_FP]
    towers += [inputs.seeded_function_field(rng, name, p, d, e)
               for name, p, d, e in QUERY_SEEDED_FT]
    return towers


def lattice_of(fs, tower, E, ctx):
    """The subfield lattice by the route `fieldsep subfields` takes."""
    if tower.finite:
        return fs.lattice.subfields_finite(E)
    if tower.separable:
        return fs.lattice.subfields_separable(E, ctx)
    return fs.lattice.canonical_chain(E)


def build_queries(fs, rng):
    """Build each tower's closure and lattice; return the query operations."""
    ops = []
    for tower in query_towers(rng):
        spec = fs.parse.parse_tower(tower.text)
        E = spec.field
        ctx = fs.embeddings.normal_closure_context(E)
        lattice = lattice_of(fs, tower, E, ctx)
        checks.check_lattice(tower, lattice)
        ops += query_ops(fs, tower, spec, ctx, lattice)
    return ops


def query_ops(fs, tower, spec, ctx, lattice):
    E = spec.field
    sep, n = tower.sep_degree, tower.degree
    emb, sepy = fs.embeddings, fs.separability
    factor = sys.modules["fieldsep.factor"]
    name = tower.name

    def op(label, call, check):
        return Op(f"{name} {label}", call, check)

    def hom_count_ok(r):
        checks.expect(r.hom_count == sep and r.separable is tower.separable,
                      f"|Hom| {r.hom_count}")

    def closure_ok(r):
        checks.expect((r.separable_degree, r.inseparable_degree)
                      == (sep, n // sep), f"closure {r.separable_degree}")

    ops = [op("subfields", lambda: lattice_of(fs, tower, E, ctx),
              partial(checks.check_lattice, tower)),
           op("hom_count_criterion",
              lambda: sepy.hom_count_criterion(E, ctx), hom_count_ok),
           op("separable_closure",
              lambda: sepy.separable_closure(E, ctx), closure_ok)]
    if tower.separable:
        ops.append(op("primitive_element",
                      lambda: sepy.primitive_element(E, ctx),
                      partial(_check_primitive, fs, tower)))
    nodes = lattice.nodes
    dims = [L.dim for L in nodes]
    for i, L in enumerate(nodes):
        want = checks.hom_over(tower, L.dim)
        ops.append(op(f"tower_audit[{i}]",
                      partial(lambda L: emb.tower_audit(E, L, ctx), L),
                      partial(checks.check_audit, tower, L.dim)))
        ops.append(op(f"count_hom[{i}]",
                      partial(lambda L: emb.count_hom(E, L, ctx), L),
                      partial(checks.check_count, want)))
    complete = lattice if lattice.completeness == "complete" else None
    for el_name, el in sorted(tower.elements.items()):
        a = spec.element(el_name)
        ops.append(op(f"is_separable_element {el_name}",
                      partial(sepy.is_separable_element, a),
                      partial(checks.check_verdict, el)))
        ops.append(op(f"witness {el_name}",
                      partial(lambda a: sepy.is_separable_element_by_witness(
                          a, E, ctx, complete), a),
                      partial(checks.check_verdict, el)))
        ops.append(op(f"minimal_polynomial {el_name}",
                      partial(lambda a: fs.towers.minimal_polynomial(a), a),
                      partial(checks.check_minpoly, tower, el)))
        if name in QUERY_ROOTS and el_name == "q":
            mp = fs.towers.minimal_polynomial(a)
            ops.append(op(f"roots_in {el_name}",
                          partial(lambda mp: factor.roots_in(mp, ctx.N), mp),
                          partial(checks.check_conjugates, tower, el,
                                  mp.degree)))
    if tower.separable:
        # pairs whose containment a rule decides, proper subfields first
        decided = [(i, j, c) for i in range(len(nodes))
                   for j in range(len(nodes)) if i != j
                   for c in [checks.contains(tower, i, j, dims)]
                   if c is not None]
        decided.sort(key=lambda x: sum(dims[k] in (1, n) for k in x[:2]))
        for i, j, c in decided[:L1L2_PAIRS]:
            ops.append(op(f"l1l2[{i},{j}]",
                          partial(lambda L1, L2: sepy.l1l2_check(
                              L1, L2, E, ctx), nodes[i], nodes[j]),
                          partial(checks.check_l1l2, c)))
    return ops


def _check_primitive(fs, tower, gamma):
    mp = fs.towers.minimal_polynomial(gamma)
    checks.check_minpoly(tower, inputs.Element(True, tower.degree), mp)


WORKLOADS = {
    "finite": cli_workload(finite_towers),
    "function-field": cli_workload(function_field_towers),
    "queries": build_queries,
}


# -- measurement --------------------------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []

    def run(self, op, around=contextlib.nullcontext):
        """Run and check one operation; its wall time, or None on failure.

        `around` wraps the call alone, not the check of its answer.
        """
        self.attempted += 1
        try:
            with around():
                start = time.perf_counter()
                result = op.call()
                elapsed = time.perf_counter() - start
        except Exception as exc:          # the program gave no answer
            self.failed += 1
            print(f"failed: {op.name}: {exc!r}", file=sys.stderr)
            return None
        try:
            op.check(result)
        except checks.Failed as exc:
            self.failed += 1
            print(f"failed: {op.name}: {exc}", file=sys.stderr)
            return None
        except checks.Mismatch as exc:
            self.wrong.append(op.name)
            print(f"WRONG: {op.name}: {exc}", file=sys.stderr)
        return elapsed


def setup(workload, seed):
    """Import fieldsep afresh and build the workload's operations."""
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](import_fieldsep(), rng)


def calibrate():
    """Wall time of the fixed calibration computation."""
    start = time.perf_counter()
    for _ in range(2):
        fields.is_irreducible(CALIBRATION_POLY, 3)
    return time.perf_counter() - start


def measure(workload, seed, seconds):
    setup_times, setup_calibration = [], []
    for _ in range(SETUPS[workload]):
        ops = None          # let the previous set-up's objects go first
        gc.collect()
        setup_calibration.append(calibrate())
        start = time.perf_counter()
        ops = setup(workload, seed)
        setup_times.append(time.perf_counter() - start)
        setup_calibration.append(calibrate())
    tally = Tally()
    samples = {op.name: [] for op in ops}
    round_times = []
    calibration = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for op in ops:
            calibration.append(calibrate())
            dt = tally.run(op)
            if dt is not None:
                samples[op.name].append(dt)
        round_times.append(time.perf_counter() - t0)
        gc.collect()
        elapsed = time.perf_counter() - start
        if len(round_times) >= MIN_ROUNDS and \
                elapsed + statistics.median(round_times) > seconds:
            break
    medians = {name: statistics.median(xs) for name, xs in samples.items()
               if xs}
    # (unscaled value, speed factor) of each time; set-up is scaled by the
    # calibration taken around the set-ups, the rounds by their own
    speed = CALIBRATION_S / statistics.median(calibration)
    raw = {
        "latency_geomean_s": (math.exp(statistics.fmean(
            math.log(m) for m in medians.values())), speed),
        "work_s": (math.fsum(medians.values()), speed),
        "setup_s": (statistics.median(setup_times),
                    CALIBRATION_S / statistics.median(setup_calibration)),
    }
    report(medians, round_times, raw)
    metrics = {name: (value * factor, "s")
               for name, (value, factor) in raw.items()}
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return tally, metrics


def report(medians, round_times, raw):
    print(f"{len(round_times)} rounds of {len(medians)} operations, "
          f"median round {statistics.median(round_times):.3f} s; unscaled "
          + ", ".join(f"{k} {v:.4f} (scaled by {f:.4f})"
                      for k, (v, f) in raw.items()),
          file=sys.stderr)
    for name, m in sorted(medians.items(), key=lambda kv: -kv[1])[:8]:
        print(f"  {m:8.4f} s  {name}", file=sys.stderr)


def trace(workload, seed):
    """Set-up and one pass with the layers wrapped, then a fresh set-up
    (a new import, so unwrapped) and one pass under cProfile."""
    tally = Tally()
    fs = import_fieldsep()
    recorder = layers.Recorder()
    recorder.install(fs)
    with recorder.recording():
        ops = WORKLOADS[workload](fs, random.Random(f"{workload}:{seed}"))
    wrapped_s = math.fsum(tally.run(op, recorder.recording) or 0.0
                          for op in ops)
    print(f"wrapped pass {wrapped_s:.3f} s", file=sys.stderr)
    profile = layers.ModuleProfile(SRC / "fieldsep")
    with profile.recording():
        ops = setup(workload, seed)
    for op in ops:
        tally.run(op, profile.recording)
    values = {**recorder.metrics(), **profile.metrics()}
    return tally, {name: (values[name], unit)
                   for name, unit in layers.metric_names()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fieldsep" / "__init__.py").is_file():
        print(f"error: no fieldsep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = True
    if args.trace:
        tally, metrics = trace(args.workload, args.seed)
    else:
        tally, metrics = measure(args.workload, args.seed, args.seconds)
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
