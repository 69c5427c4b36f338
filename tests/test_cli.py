"""CLI surface: commands, report schema, exit codes, determinism, stdin."""

import gc
import importlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import weakref

import pytest

import fieldsep
from fieldsep.cli import main
from fieldsep.corpus import BUILTIN
from fieldsep.embeddings import normal_closure_context
from fieldsep.factor import roots_in
from fieldsep.parse import parse_tower
from fieldsep.poly import Poly
from fieldsep.towers import extension_stages, minimal_polynomial

SEP_TOWER = "base FpT 3\ngen s : x^2 + 2*t\nelem a = s + t\n"
INSEP_TOWER = "base FpT 2\ngen s : x^2 + t\nelem a = s + 1\n"
MIXED_TOWER = "base FpT 2\ngen b : x^4 + x^2 + t\nelem c = b^2\n"
BIQ_TOWER = ("base FpT 3\ngen s : x^2 + 2*t\ngen u : x^2 + 2*t + 2\n"
             "elem g = s + u\n")
GF16_TOWER = "base Fp 2\ngen w : x^2 + x + 1\ngen v : x^2 + x + w\n"
INSEP_TOWER_2 = "base FpT 2\ngen s : x^2 + t\ngen w : x^2 + s + 1\n"
HUGE_PRIME_TOWER = "base Fp 1000000000000000003\ngen s : x^2 + 1\n"

KEY_ORDER = ["schema", "degree", "hom_count", "separable", "criteria",
             "witness", "closure_degree", "primitive", "notes"]


@pytest.fixture
def tower_file(tmp_path):
    def write(text, name="input.tower"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_separable_json(capsys, tower_file):
    path = tower_file(SEP_TOWER)
    code, out, _err = run(capsys, ["check", path, "--json"])
    assert code == 0
    report = json.loads(out)
    assert list(report) == KEY_ORDER
    assert report["schema"] == 1
    assert report["degree"] == 2
    assert report["hom_count"] == 2
    assert report["separable"] is True
    assert report["criteria"] == {"derivative": True, "hom_count": True,
                                  "witness": True}
    assert report["witness"]["kind"] == "pair"
    assert report["closure_degree"] == 2


def test_check_inseparable_json(capsys, tower_file):
    path = tower_file(INSEP_TOWER)
    code, out, _err = run(capsys, ["check", path, "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["separable"] is False
    assert report["hom_count"] == 1
    assert report["criteria"]["derivative"] is False
    assert report["witness"] == {"kind": "canonical_subfield",
                                 "generators": []}
    assert report["closure_degree"] == 1


def test_check_element(capsys, tower_file):
    path = tower_file(MIXED_TOWER)
    code, out, _err = run(capsys, ["check", path, "--element", "c", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["degree"] == 2
    assert report["separable"] is True
    assert report["witness"]["kind"] == "pair"
    code2, _out, err = run(capsys, ["check", path, "--element", "zzz"])
    assert code2 == 2 and "zzz" in err


def test_check_human_output(capsys, tower_file):
    path = tower_file(SEP_TOWER)
    code, out, _err = run(capsys, ["check", path])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "degree: 2"
    assert lines[1] == "hom count: 2"
    assert lines[2] == "separable: True"


def test_hom_count_over_subfield(capsys, tower_file):
    path = tower_file(BIQ_TOWER)
    code, out, _err = run(capsys, ["hom-count", path, "--json"])
    report = json.loads(out)
    assert code == 0 and (report["degree"], report["hom_count"]) == (4, 4)
    code, out, _err = run(capsys, ["hom-count", path, "--over", "s", "--json"])
    report = json.loads(out)
    assert code == 0 and (report["degree"], report["hom_count"]) == (2, 2)
    assert any("dimension 2" in note for note in report["notes"])


def test_embeddings_listing(capsys, tower_file):
    path = tower_file(SEP_TOWER)
    code, out, _err = run(capsys, ["embeddings", path, "--json"])
    report = json.loads(out)
    assert code == 0
    assert len(report["notes"]) == 2
    assert all(note.startswith("Embedding(") for note in report["notes"])


def test_primitive(capsys, tower_file):
    path = tower_file(GF16_TOWER)
    code, out, _err = run(capsys, ["primitive", path, "--json"])
    report = json.loads(out)
    assert code == 0
    assert report["primitive"] is not None
    path2 = tower_file(INSEP_TOWER, "insep.tower")
    code2, _out, _err = run(capsys, ["primitive", path2, "--json"])
    assert code2 == 2  # inseparable input is an input error here


def test_closure(capsys, tower_file):
    path = tower_file(MIXED_TOWER)
    code, out, _err = run(capsys, ["closure", path, "--json"])
    report = json.loads(out)
    assert code == 0
    assert report["closure_degree"] == 2
    assert any("inseparable degree: 2" in n for n in report["notes"])


def test_subfields(capsys, tower_file):
    path = tower_file(GF16_TOWER)
    code, out, _err = run(capsys, ["subfields", path, "--json"])
    report = json.loads(out)
    assert code == 0
    assert report["notes"][0] == "lattice completeness: complete"
    assert sum(1 for n in report["notes"] if n.startswith("dim ")) == 3


def test_l1l2(capsys, tower_file):
    path = tower_file(BIQ_TOWER)
    code, out, _err = run(capsys,
                          ["l1l2", path, "--left", "K", "--right", "s",
                           "--json"])
    report = json.loads(out)
    assert code == 0
    assert "equivalent: True" in report["notes"]
    # the converse fails on inseparable input, reported but not an error
    path2 = tower_file(INSEP_TOWER, "insep.tower")
    code2, out2, _err = run(capsys,
                            ["l1l2", path2, "--left", "s", "--right", "K",
                             "--json"])
    report2 = json.loads(out2)
    assert code2 == 0
    assert "containment: False" in report2["notes"]
    assert "implication: True" in report2["notes"]
    assert "equivalent: False" in report2["notes"]


def test_l1l2_exits_1_when_equivalence_fails_on_separable_input(
        capsys, tower_file, monkeypatch):
    cli_module = importlib.import_module("fieldsep.cli")
    separability = importlib.import_module("fieldsep.separability")
    monkeypatch.setattr(cli_module, "l1l2_check", lambda *args:
                        separability.L1L2Result(True, False))
    code, out, _err = run(capsys, ["l1l2", tower_file(GF16_TOWER),
                                   "--left", "K", "--right", "w"])
    assert code == 1
    assert "equivalent: False" in out
    assert "note: equivalence fails on separable input" in out


@pytest.mark.parametrize("argv", [[], ["--element", "a"]])
def test_check_notes_an_unavailable_witness_criterion(capsys, tower_file,
                                                     monkeypatch, argv):
    # gf16's lattice has 3 nodes, one past the bound set here
    monkeypatch.setattr(importlib.import_module("fieldsep.lattice"),
                        "MAX_LATTICE_NODES", 2)
    path = tower_file(GF16_TOWER + "elem a = v + w\n")
    code, out, _err = run(capsys, ["check", path, "--json"] + argv)
    report = json.loads(out)
    assert code == 0 and report["separable"] is True
    assert report["criteria"]["witness"] is None
    assert report["witness"] is None
    assert [n for n in report["notes"]
            if n.startswith("witness criterion unavailable: ")] == [
        "witness criterion unavailable: the subfield lattice has more "
        "than 2 nodes"]


def test_exit_code_input_errors(capsys, tower_file):
    code, _out, err = run(capsys, ["check", "/nonexistent/path.tower"])
    assert code == 2 and "cannot read" in err
    path = tower_file("base Fp 2\ngen w : x^2 + 1\n", "bad.tower")
    code2, _out, err2 = run(capsys, ["check", path])
    assert code2 == 2 and "reducible" in err2


def test_exit_code_resource_bound(capsys, tower_file):
    path = tower_file("base FpT 2\ngen s : x^2 + t^7\n", "tall.tower")
    code, _out, err = run(capsys, ["check", path])
    assert code == 3
    assert "height bound" in err


@pytest.mark.parametrize("text", [
    "base FpT 2\ngen s : x^6 + t*x^2 + t\n",
    "base FpT 3\ngen s : x^9 + t*x^3 + t\n",
    "base FpT 7\ngen s : x^7 + t\ngen u : x^2 + s\n",
])
def test_exit_code_inseparable_stage_norm(capsys, tower_file, text):
    # factoring over an inseparable stage is refused before any norm search
    path = tower_file(text)
    start = time.perf_counter()
    code, _out, err = run(capsys, ["check", path])
    assert code == 3
    assert "no squarefree norm exists" in err
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("text", [
    "base Fp 2\ngen s : x^3000 + x + 1\n",
    "base Fp 2\ngen w : x^2 + x + 1\ngen s : x^32*x^1 + x + w\n",
])
def test_degree_budget_at_parse(capsys, tower_file, text):
    path = tower_file(text)
    start = time.perf_counter()
    code, out, err = run(capsys, ["check", path])
    assert code == 3 and out == ""
    assert "exceeds the degree bound 64" in err
    assert time.perf_counter() - start < 2


def test_huge_exponent_is_refused_before_multiplying(capsys, tower_file):
    path = tower_file("base Fp 2\ngen s : x^1000000000 + x + 1\n")
    code, out, err = run(capsys, ["check", path])
    assert code == 3 and out == ""
    assert err == ("error: degree 1 * 1000000000 of a power exceeds the "
                   "degree bound 64\n")


def test_subfields_inseparable_tower_is_a_capability_limit(capsys, tower_file):
    path = tower_file(INSEP_TOWER_2)
    for argv in (["subfields", path], ["subfields", path, "--json"]):
        code, out, err = run(capsys, argv)
        assert code == 3 and out == ""
        assert "inseparable tower of more than one stage" in err


@pytest.mark.parametrize("argv", [
    ["check"], ["check", "--element", "s"], ["hom-count"], ["embeddings"],
    ["primitive"], ["closure"], ["subfields"],
])
def test_huge_prime_base_ends(capsys, tower_file, argv):
    path = tower_file(HUGE_PRIME_TOWER)
    start = time.perf_counter()
    code, out, _err = run(capsys, [argv[0], path] + argv[1:])
    assert code == 0
    assert time.perf_counter() - start < 5
    if argv[0] == "primitive":
        assert "primitive: s" in out.splitlines()


def test_internal_check_failure_is_exit_1(capsys, tower_file, monkeypatch):
    # a norm of the wrong degree trips the interpolation check
    def wrong_degree(base, points, values):
        return Poly(base, [base.one])
    monkeypatch.setattr(importlib.import_module("fieldsep.factor"),
                        "_interpolate", wrong_degree)
    path = tower_file(BIQ_TOWER)
    code, out, err = run(capsys, ["check", path])
    assert code == 1 and out == ""
    assert "norm interpolation failed the degree check" in err
    assert "Traceback" not in err


def _extra_point_off(V, grid):
    """One more at one value of the extra t-row only."""
    grid[-1][0] = V._add(grid[-1][0], V._one)


def _off_the_prime_field(V, grid):
    """The generator z of the point field added to every value: each row
    interpolates to N(a, x) + z, and the constant coefficient of the
    x^0 coefficient interpolated in t gains z, which is not in F_p."""
    z = V.encode(V.fq.generator.rep)
    for row in grid:
        row[:] = [V._add(v, z) for v in row]


@pytest.mark.parametrize("corrupt,message", [
    (_extra_point_off, "norm interpolation failed the check at an extra point"),
    (_off_the_prime_field, "norm interpolation left the prime field"),
], ids=["extra_point", "prime_field"])
def test_norm_check_failure_is_exit_1(capsys, tower_file, monkeypatch,
                                      corrupt, message):
    # the norms of BIQ_TOWER are taken on the values of F_9
    factor = importlib.import_module("fieldsep.factor")
    norm_grid = factor._norm_grid

    def corrupted(V, mats, ts, xs):
        grid = norm_grid(V, mats, ts, xs)
        corrupt(V, grid)
        return grid
    monkeypatch.setattr(factor, "_norm_grid", corrupted)
    code, out, err = run(capsys, ["check", tower_file(BIQ_TOWER)])
    assert code == 1 and out == ""
    assert message in err
    assert "Traceback" not in err


def test_failed_closure_cross_check_is_exit_1(capsys, tower_file,
                                              monkeypatch):
    # |Hom| + 1 inside separable_closure only: its last cross-check fails
    separability = importlib.import_module("fieldsep.separability")
    count_hom = separability.count_hom

    def off_by_one(E, L, ctx):
        caller = sys._getframe(1).f_code.co_name
        return count_hom(E, L, ctx) + (caller == "separable_closure")
    monkeypatch.setattr(separability, "count_hom", off_by_one)
    code, out, err = run(capsys, ["check", tower_file(SEP_TOWER)])
    assert code == 1 and out == ""
    assert "does not match the separable degree |Hom| = 3" in err
    assert "Traceback" not in err


def test_json_determinism(capsys, tower_file):
    path = tower_file(BIQ_TOWER)
    argv = ["check", path, "--json"]
    _c1, out1, _e1 = run(capsys, argv)
    _c2, out2, _e2 = run(capsys, argv)
    assert out1 == out2


def test_stdin_tower(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(SEP_TOWER))
    code, out, _err = run(capsys, ["check", "-", "--json"])
    assert code == 0
    assert json.loads(out)["degree"] == 2


def _stage_refs(field):
    return [weakref.ref(s) for s in [field] + extension_stages(field)]


@pytest.mark.parametrize("name", ["gf16", "biquadratic_p3"])
def test_no_process_wide_memo_pins_a_checked_tower(capsys, monkeypatch,
                                                   name):
    """The point maps, minimal polynomials, closure contexts and values
    that a command memoizes go with the tower it parsed."""
    cli_module = importlib.import_module("fieldsep.cli")
    parse, refs = cli_module.parse_tower, []

    def recorded(*args, **kwargs):
        spec = parse(*args, **kwargs)
        refs.extend(_stage_refs(spec.field))
        return spec

    monkeypatch.setattr(cli_module, "parse_tower", recorded)
    text = next(e.text for e in BUILTIN if e.name == name)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _err = run(capsys, ["check", "-"])
    assert code == 0 and "hom count: 4" in out
    gc.collect()
    assert refs and all(ref() is None for ref in refs)


def test_no_process_wide_memo_pins_a_field_with_roots_found():
    E = parse_tower(next(e.text for e in BUILTIN
                         if e.name == "gf64_tower")).field
    N = normal_closure_context(E).N
    mp = minimal_polynomial(E.generator + 1)
    assert len(roots_in(mp, N)) == 6
    refs = _stage_refs(E)
    del E, N, mp
    gc.collect()
    assert all(ref() is None for ref in refs)


TRIQUADRATIC_TOWER = ("base FpT 3\ngen s : x^2 + t\ngen u : x^2 + t + 1\n"
                      "gen v : x^2 + t + 2\n")
DEGREE9_TOWER = "base FpT 7\ngen s : x^3 + t\ngen u : x^3 + t + 1\n"
X5_TOWER = "base FpT 5\ngen s : x^5 + x + t\n"


def run_child(tower_file, argv, text, deadline=10, memory=1 << 30):
    """(exit code, stdout, stderr) of the CLI as a child process, whose
    address space is capped at memory bytes."""
    src = os.path.dirname(os.path.dirname(fieldsep.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    path = tower_file(text)

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))

    result = subprocess.run(
        [sys.executable, "-m", "fieldsep.cli", argv[0], path] + argv[1:],
        capture_output=True, text=True, timeout=deadline, env=env,
        preexec_fn=cap)
    return result.returncode, result.stdout, result.stderr


@pytest.mark.parametrize("text,count", [(TRIQUADRATIC_TOWER, 8),
                                        (DEGREE9_TOWER, 9)])
def test_function_field_closures_end(tower_file, text, count):
    # norms by evaluation in t, shifts that do not repeat, and a known root
    # peeled off each stage minpoly
    code, out, err = run_child(tower_file, ["check"], text)
    assert code == 0 and "Traceback" not in err
    assert f"hom count: {count}" in out.splitlines()
    assert "separable: True" in out.splitlines()


def test_large_prime_function_field_closure_ends(tower_file):
    # the norm of the quadratic left over s takes its points in F_p itself
    code, out, err = run_child(
        tower_file, ["check"], "base FpT 1000000007\ngen s : x^3 + t\n")
    assert code == 0 and "Traceback" not in err
    assert "hom count: 3" in out.splitlines()


@pytest.mark.parametrize("text,count,dims", [
    # the closure adjoins one root of a quartic factor, over which the
    # other quadratic factor splits
    (X5_TOWER, 5, [1, 5]),
    # past the degree-8 cap of the Galois-group route the equalizers replaced
    (DEGREE9_TOWER, 9, [1, 3, 3, 3, 3, 9]),
    (TRIQUADRATIC_TOWER, 8, [1] + [2] * 7 + [4] * 7 + [8])],
    ids=["x5", "degree9", "triquadratic"])
def test_subfields_of_function_field_towers(tower_file, text, count, dims):
    code, out, _err = run_child(tower_file, ["subfields"], text)
    assert code == 0
    assert f"hom count: {count}" in out.splitlines()
    assert [int(line.split(":")[1].split()[1]) for line in out.splitlines()
            if line.startswith("note: dim")] == dims


def test_height_bound_gates_the_tower_file_with_the_flag(capsys, tower_file):
    path = tower_file("base FpT 3\ngen s : x^2 + t^7 + 1\n")
    code, _out, err = run(capsys, ["hom-count", path])
    assert code == 3 and "t-degree 7 exceeds the height bound 6" in err
    code, out, _err = run(capsys, ["hom-count", path, "--height-bound", "8"])
    assert code == 0 and "hom count: 2" in out.splitlines()


def test_height_bound_never_gates_computed_polynomials(capsys, tower_file):
    # every input coefficient has t-degree <= 3; u's absolute minimal
    # polynomial has t-degree 7
    path = tower_file("base FpT 3\ngen s : x^2 + 2*t\n"
                      "gen u : x^2 + t^3*s + 1\n")
    code, out, err = run(capsys, ["check", path])
    assert code == 0, err
    assert "hom count: 4" in out.splitlines()


def test_a_negative_height_bound_exits_2(capsys, tower_file):
    path = tower_file("base Fp 2\ngen w : x^2 + x + 1\n")
    for argv in (["check", path], ["verify-paper"]):
        code, out, err = run(capsys, argv + ["--height-bound", "-1"])
        assert code == 2 and out == ""
        assert err == "error: the height bound must be >= 0, got -1\n"


def test_a_linear_generator_is_refused_before_the_height_gate(
        capsys, tower_file):
    path = tower_file("base FpT 2\ngen s : x + t^9\n")
    code, _out, err = run(capsys, ["check", path])
    assert code == 2
    assert err == "error: extension polynomial must have degree >= 2\n"


def test_main_builds_no_parser_per_call(capsys, tower_file, monkeypatch):
    import argparse
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    path = tower_file(GF16_TOWER)
    assert run(capsys, ["check", path])[0] == 0
    assert run(capsys, ["hom-count", path, "--json"])[0] == 0
    assert built == []


# upper bounds: the eliminations check makes when every stage generator's
# minimal polynomial is found on the top field, at its full width
ELIMINATION_BOUNDS = {"sqrt_t_p2": 2, "cbrt_t_p3": 2, "fifth_t_p5": 2,
                      "biquadratic_p3": 4}


@pytest.mark.parametrize("name", list(ELIMINATION_BOUNDS))
def test_check_computes_a_generator_minpoly_at_most_three_times(
        capsys, tower_file, monkeypatch, name):
    # an elimination is a SpanBuilder that minimal_polynomial builds; a
    # memo hit builds none
    from fieldsep.corpus import BUILTIN
    from fieldsep.linalg import SpanBuilder
    towers = importlib.import_module("fieldsep.towers")
    widths = []

    class Counted(SpanBuilder):
        def __init__(self, base, n):
            if sys._getframe(1).f_code is towers.minimal_polynomial.__code__:
                widths.append(n)
            super().__init__(base, n)

    monkeypatch.setattr(towers, "SpanBuilder", Counted)
    text = next(e.text for e in BUILTIN if e.name == name)
    assert run(capsys, ["check", tower_file(text)])[0] == 0
    assert 0 < len(widths) <= ELIMINATION_BOUNDS[name]


def test_exit_code_when_no_norm_is_certified(capsys, tower_file,
                                             monkeypatch):
    # parse factors u's quadratic over F_3(t)(s) by Trager: all
    # (2 * 2)^2 + 8 shifts are tried, and the message says only what was
    # checked
    monkeypatch.setattr(importlib.import_module("fieldsep.factor"),
                        "_norm_to_base", lambda f, basis: (None, False))
    code, out, err = run(capsys, ["check", tower_file(BIQ_TOWER)])
    assert code == 3 and out == ""
    assert "no shift among the first 24 gave a norm certified squarefree " \
        "at its grid rows" in err


def test_p7_sextic_tower_check_ends(tower_file):
    # its closure's shifted norms of degree 60: no exact gcd decides one,
    # and the recombination screens its candidates at three more t-values
    code, out, err = run_child(
        tower_file, ["check"],
        "base FpT 7\ngen s : x^3 + t\ngen u : x^2 + s + 1\n")
    assert code == 0 and "Traceback" not in err
    assert "hom count: 6" in out.splitlines()


def test_kummer_sextic_embeddings_end(tower_file):
    # the closure factors a norm of degree 30 over F_7(t) by Hensel
    # lifting: it has 30 local factors at the first good point, whose
    # recombination ran past 30 s, and 5 at the point with the fewest
    code, out, err = run_child(tower_file, ["embeddings"],
                               "base FpT 7\ngen s : x^6 + t\n", deadline=2)
    assert code == 0 and "Traceback" not in err
    assert "hom count: 6" in out.splitlines()


def test_recombination_divides_exactly_only_true_factors(
        capsys, tower_file, monkeypatch):
    # check on the F_7 quartic sent 84 Hensel candidates to an exact
    # division over F_7(t) before the screen at three more t-values
    divides, exact = Poly.divides, []

    def counted(self, other):
        out = divides(self, other)
        if getattr(self.field, "kind", None) == "rational_function":
            exact.append(out)
        return out

    monkeypatch.setattr(Poly, "divides", counted)
    path = tower_file("base FpT 7\ngen s : x^4 + t*x + 1\n")
    assert run(capsys, ["check", path])[0] == 0
    assert all(exact)
