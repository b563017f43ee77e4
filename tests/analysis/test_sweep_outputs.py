"""The machine-readable face of every sweep, pinned.

Each ``--X all --json`` payload, ``--list --json`` and ``--self-check
--json`` is hashed after removing source locations (``file``/``line``
fields, and the checkout root inside messages) and renaming every
``%name`` value token by first appearance (as ``hlo.compiler.fingerprint``
does), with keys kept in emitted order.  Any drift in a verdict, a count,
a key or its order fails here; which global instruction ids a message
happens to quote does not, since that moves whenever some earlier step
allocates HLO (or stops allocating it: a lazy cache hit lowers nothing).
The digests were retaken with this normalizer at the commit before the
lazy runtime keyed its compile cache on trace text, and read the same
after it; the ``--self-check`` digest was retaken once more when the
primitive sweep began importing ``repro.nn`` (two more primitives, and
their plans).  Runs are subprocesses, so other in-process work cannot
shift the counters either.

Plus the CLI contracts the shared table guarantees: one mode flag per
run, every listed name resolvable, ``--ownership all``, and ``-q``.
"""

import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

from repro.analysis.__main__ import SUBSYSTEMS, main
from repro.analysis.corpus import StepProgram, UnknownProgram

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

PINNED = {
    "--trace": "2ef051648490938e15dc05787795eac26ef1731e8e2680a11d12ac65722cc300",
    "--derivatives": "fab8dc11c23b6140a9a61989daa0340adc1d19fefec0ec8976fb260e6f1e6029",
    "--concurrency": "ff0bfac39da908bd9941088242526cef4a1520b91cebe567cb3b4aba89233bf8",
    "--memory": "c44d62b3732b9b6fcfa08367654fd0f472a0db43c59f582571f0f99190de1e69",
    "--precision": "dc703e7b70bb5bb7b08f0baadb9ec4ee85509458ac308c9162b7e72924740f92",
    "--codegen": "b6f61da165927c06f06d3d60b57023738dd9ea8536f6817b1f92f0f71b6b98c6",
    "--list": "ec44a0c700fd5ea4b8eb7bc8f9562a422f924da18b9fd2c6c80b9eb45b9b17da",
    "--self-check": "449263c815fd15c6a516ed2545a3f7e6b22de391b91bab9cbdde5f987265875c",
}

_PAYLOADS = {}


def _payload(flag):
    """The parsed ``--json`` output of one fresh CLI run (cached)."""
    if flag not in _PAYLOADS:
        argv = [flag] if flag in ("--list", "--self-check") else [flag, "all"]
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", *argv, "--json"],
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        _PAYLOADS[flag] = json.loads(proc.stdout.replace(ROOT, "<REPO>"))
    return _PAYLOADS[flag]


def _without_locations(node):
    if isinstance(node, dict):
        return {
            key: _without_locations(value)
            for key, value in node.items()
            if key not in ("file", "line")
        }
    if isinstance(node, list):
        return [_without_locations(value) for value in node]
    return node


def _value_names_renamed(text):
    names = {}
    return re.sub(
        r"%[\w.\-]+",
        lambda match: names.setdefault(match.group(0), f"%v{len(names)}"),
        text,
    )


@pytest.mark.parametrize("flag", PINNED)
def test_json_payload_matches_its_pin(flag):
    text = json.dumps(_without_locations(_payload(flag)), separators=(",", ":"))
    text = _value_names_renamed(text)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[flag]


def test_self_check_counts_equal_the_benchmark_expectations():
    """A standalone ``--self-check`` reads every count the repo benchmark
    pins, so moving one fails here with the key named."""
    with open(os.path.join(ROOT, "benchmarks", "e2e", "expected.json")) as f:
        expected = json.load(f)
    payload = _payload("--self-check")
    assert {key: payload.get(key) for key in expected} == expected


@pytest.mark.parametrize(
    "row", [s for s in SUBSYSTEMS if s.flag in PINNED], ids=lambda s: s.flag
)
def test_corpus_counter_and_json_lengths_agree(row):
    payload = _payload(row.flag)
    if row.flag == "--concurrency":
        reports, checked = payload["corpus"], "concurrency_models_checked"
    else:
        reports, checked = payload, row.checked
    assert len(reports) == len(row.corpus)
    if checked is not None:  # the codegen sweep has no *_checked counter
        assert _payload("--self-check")[checked] == len(row.corpus)


@pytest.mark.parametrize(
    "row", [s for s in SUBSYSTEMS if s.corpus is not None], ids=lambda s: s.flag
)
def test_every_listed_name_is_accepted_by_its_flag(row):
    listed = next(r for r in _payload("--list") if r["flag"] == row.flag)
    assert listed["programs"] == row.corpus.names
    for name in listed["programs"] + ["all"]:
        row.corpus.lookup(name)  # lookup only: no analysis runs
    with pytest.raises(UnknownProgram, match="bundled names"):
        row.corpus.lookup("no_such_name")


def test_step_program_diagnostics_point_at_the_build_def_line():
    import linecache

    for row in SUBSYSTEMS:
        for program in row.corpus or ():
            if isinstance(program, StepProgram):
                where = program.location
                line = linecache.getline(where.filename, where.line)
                assert line.startswith(f"def {program.build.__name__}("), program


def test_two_mode_flags_are_a_usage_error(capsys):
    with pytest.raises(SystemExit) as usage:
        main(["--trace", "all", "--memory", "all"])
    assert usage.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    with pytest.raises(SystemExit) as usage:
        main(["--self-check", "--list"])
    assert usage.value.code == 2


def test_cli_ownership_all_judges_against_expected_verdicts(capsys):
    assert main(["--ownership", "all", "--json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    from repro.analysis.ownership import models

    names = [fn.__name__ for fn in models.CLEAN_SUITE]
    names += [fn.__name__ for fn, _verdict in models.VIOLATION_SUITE]
    assert [r["function"] for r in reports] == names
    assert all(r["ok"] and not r["problems"] for r in reports)
    # A seeded violation draws diagnostics yet passes: it was expected.
    caught = next(r for r in reports if r["function"] == "double_borrow_same_item")
    assert caught["expect"] == "error" and caught["diagnostics"]

    assert main(["--ownership", "all", "-q"]) == 0
    assert capsys.readouterr().out == (
        "10 function(s) checked, 0 failure(s); "
        "exclusivity verdicts all as expected\n"
    )


def test_cli_concurrency_single_model_honours_quiet(capsys):
    assert main(["--concurrency", "race_unlocked_counter", "-q"]) == 0
    quiet = capsys.readouterr().out
    assert quiet.startswith("concurrency analysis: 0 failure(s)")
    assert main(["--concurrency", "race_unlocked_counter"]) == 0
    loud = capsys.readouterr().out
    assert "race_unlocked_counter" in loud and loud.endswith(quiet)
