"""Golden CLI outputs: exit code, stdout and stderr of every command on
every corpus entry, compared byte for byte against tests/golden_cli.json.

The runs are `check`, `check --element NAME` for every declared element
and generator name, `hom-count`, `embeddings`, `primitive`, `closure` and
`subfields`, each with and without `--json`, on every builtin corpus
entry.  After them come `hom-count --over L` and `l1l2 --left L1 --right
L2` over a fixed set of subfield arguments (`K`, each generator and the
first two declared names as a pair), with and without `--json`, on every
entry but `gf4096`, where each run would build a degree-12 normal
closure.  Last come `verify-paper` and `verify-paper --json`, whose
records have no tower file and the entry name "builtin", the corpus
they run.

Regenerate the file, only when an output change is intended, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import tempfile

from fieldsep.cli import main
from fieldsep.corpus import BUILTIN
from fieldsep.parse import parse_tower
from fieldsep.towers import extension_stages

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_cli.json")
COMMANDS = ["check", "hom-count", "embeddings", "primitive", "closure",
            "subfields"]


def golden_runs():
    """(entry name, tower text, argv without the tower path), in file order."""
    runs = []
    for entry in BUILTIN:
        names = sorted(parse_tower(entry.text).names)
        commands = [["check", "--element", name] for name in names]
        commands += [[c] for c in COMMANDS]
        for cmd in commands:
            for flags in ([], ["--json"]):
                runs.append((entry.name, entry.text, cmd + flags))
    for entry in BUILTIN:
        if entry.name != "gf4096":
            args = subfield_args(parse_tower(entry.text))
            commands = [["hom-count", "--over", a] for a in args]
            commands += [["l1l2", "--left", a, "--right", b]
                         for a in args for b in args]
            runs += [(entry.name, entry.text, cmd + flags)
                     for cmd in commands for flags in ([], ["--json"])]
    runs += [("builtin", None, ["verify-paper"] + flags)
             for flags in ([], ["--json"])]
    return runs


def subfield_args(spec):
    """`K`, each generator name, and the first two declared names joined."""
    gens = [stage.gen_name for stage in extension_stages(spec.field)]
    return ["K"] + gens + [",".join(list(spec.names)[:2])]


def run_cli(text, argv, directory):
    """(exit code, stdout, stderr) of the CLI on a tower file, or on no
    file when text is None."""
    if text is not None:
        path = os.path.join(directory, "input.tower")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = [argv[0], path] + argv[1:]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def record_all():
    records = []
    with tempfile.TemporaryDirectory() as directory:
        for name, text, argv in golden_runs():
            code, out, err = run_cli(text, argv, directory)
            records.append({"entry": name, "argv": argv, "exit": code,
                            "stdout": out, "stderr": err})
    return records


def test_cli_outputs_match_golden(tmp_path):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    runs = golden_runs()
    assert [(r["entry"], r["argv"]) for r in golden] == \
        [(name, argv) for name, _text, argv in runs]
    mismatches = []
    for rec, (name, text, argv) in zip(golden, runs):
        got = run_cli(text, argv, str(tmp_path))
        if got != (rec["exit"], rec["stdout"], rec["stderr"]):
            mismatches.append(f"{name} {' '.join(argv)}")
    assert not mismatches, mismatches


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(record_all(), fh, indent=1)
        fh.write("\n")
