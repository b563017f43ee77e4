"""End-to-end precision analysis over the seeded corpus: verdicts, the
certified-contains-observed oracle cross-check, the CLI (--precision,
--list, --json) and the selfcheck sweep."""

import json

import numpy as np
import pytest

from repro.analysis.__main__ import SUBSYSTEMS, main
from repro.analysis.corpus import UnknownProgram
from repro.analysis.precision import CORPUS, analyze_precision_program
from repro.analysis.precision.report import accuracy_tolerance
from repro.errors import HloError
from repro.hlo.dtypes import finfo

_REPORTS = {}


def _report(name):
    if name not in _REPORTS:
        [program] = CORPUS.lookup(name)
        _REPORTS[name] = analyze_precision_program(program)
    return _REPORTS[name]


def test_corpus_covers_every_verdict_and_policy():
    expects = {p.expect for p in CORPUS}
    assert expects == {
        "clean",
        "overflow",
        "underflow",
        "accum-drift",
        "unsafe-cast",
    }
    assert {p.policy for p in CORPUS} == {"f16", "bf16"}
    assert len(CORPUS) == 12
    assert sum(p.expect == "clean" for p in CORPUS) == 7


@pytest.mark.parametrize("program", CORPUS, ids=lambda p: p.name)
def test_corpus_program_verdict_and_cross_check(program):
    report = _report(program.name)
    assert report.verdict_matches, (
        f"{program.name}: expected {program.expect}, got "
        f"{sorted(report.verdicts())}"
    )
    assert report.cross_check_ok
    assert report.checks  # at least one unique trace was audited
    for check in report.checks:
        assert check.contained, check.containment_failures
        assert check.manifestation_agrees
        assert check.planned_ok
        # The planned lowering re-checks clean no matter the verdict.
        assert not any(d.is_error for d in check.planned_diagnostics)


@pytest.mark.parametrize(
    "program", [p for p in CORPUS if p.expect != "clean"], ids=lambda p: p.name
)
def test_hazards_have_located_diagnostics_that_manifest(program):
    report = _report(program.name)
    errors = [d for d in report.diagnostics if d.is_error]
    assert errors
    assert all(d.location.line > 0 for d in errors)
    assert all(d.location.filename.endswith("models.py") for d in errors)
    assert all("fix-it" in d.message for d in errors)
    for check in report.checks:
        if program.expect in ("overflow", "unsafe-cast"):
            assert check.naive_error.introduced_nonfinite
        else:
            assert check.naive_error.max_scaled > accuracy_tolerance(
                program.policy
            )


@pytest.mark.parametrize(
    "program", [p for p in CORPUS if p.expect == "clean"], ids=lambda p: p.name
)
def test_clean_programs_have_zero_false_positives(program):
    report = _report(program.name)
    assert report.verdicts() == {"clean"}
    assert not any(d.is_error for d in report.diagnostics)
    tol = accuracy_tolerance(program.policy)
    for check in report.checks:
        assert not check.naive_error.introduced_nonfinite
        assert check.naive_error.max_scaled <= tol
        assert check.planned_error.max_scaled <= tol


def test_narrowing_shrinks_a_certified_peak():
    report = _report("activation_halving_f16")
    assert report.bytes_saved > 0
    [check] = report.checks
    # The 256x256 f16 intermediate halves against its f32 original.
    assert check.planned_peak_bytes < check.f32_peak_bytes


def test_accuracy_tolerance_scales_with_policy():
    assert accuracy_tolerance("f16") == 16.0 * finfo("f16").eps
    assert accuracy_tolerance("bf16") > accuracy_tolerance("f16")


def test_get_program_unknown_name():
    with pytest.raises(UnknownProgram, match="unknown precision program"):
        CORPUS.lookup("nonesuch")


def test_report_to_json_is_serializable():
    payload = _report("wide_range_unsafe_cast").to_json()
    text = json.dumps(payload)
    back = json.loads(text)
    assert back["program"] == "wide_range_unsafe_cast"
    assert back["verdict_matches"] is True
    assert back["cross_check_ok"] is True
    assert set(back["verdicts"]) == {"overflow", "unsafe-cast"}
    [trace] = back["traces"]
    assert trace["diagnostics"]
    assert isinstance(trace["f32_peak_bytes"], int)


# -- the dynamic oracle ------------------------------------------------------


def test_oracle_output_arity_mismatch_raises():
    from repro.analysis.precision.oracle import OracleRun, output_errors

    a = OracleRun("a", outputs=[np.zeros(3)])
    b = OracleRun("b", outputs=[])
    with pytest.raises(HloError, match="arity"):
        output_errors(a, b, "f16")


def test_oracle_flags_introduced_nonfinite():
    from repro.analysis.precision.oracle import OracleRun, output_errors

    ref = OracleRun("ref", outputs=[np.array([1.0, 2.0])])
    bad = OracleRun("obs", outputs=[np.array([1.0, np.inf])])
    err = output_errors(bad, ref, "f16")
    assert err.introduced_nonfinite
    ok = output_errors(ref, ref, "f16")
    assert not ok.introduced_nonfinite
    assert ok.max_scaled == 0.0 and ok.max_ulp == 0.0


def test_oracle_observed_stats_exclude_nan_from_minmax():
    from repro.analysis.precision.oracle import _stats_of

    stats = _stats_of(np.array([1.0, np.nan, 3.0]))
    assert stats.has_nan
    assert stats.lo == 1.0 and stats.hi == 3.0
    assert not stats.finite
    scalar = _stats_of(np.float64(2.5))
    assert scalar.lo == scalar.hi == 2.5


# -- the CLI -----------------------------------------------------------------


def test_cli_precision_single_program(capsys):
    assert main(["--precision", "large_sum_drift_f16"]) == 0
    out = capsys.readouterr().out
    assert "precision report: large_sum_drift_f16" in out
    assert "cross-check OK" in out
    assert "needs-f32-accum" in out
    assert "expected verdict: accum-drift (as predicted)" in out
    assert "1 program(s) audited, 0 failure(s)" in out


def test_cli_precision_all_quiet(capsys):
    assert main(["--precision", "all", "-q"]) == 0
    out = capsys.readouterr().out
    assert "12 program(s) audited, 0 failure(s)" in out
    assert "contain every observed value" in out


def test_cli_precision_json(capsys):
    assert main(["--precision", "exp_overflow_f16", "--json"]) == 0
    [payload] = json.loads(capsys.readouterr().out)
    assert payload["program"] == "exp_overflow_f16"
    assert payload["verdicts"] == ["overflow"]
    assert payload["verdict_matches"] and payload["cross_check_ok"]


def test_cli_precision_unknown_program():
    with pytest.raises(SystemExit, match="unknown precision program"):
        main(["--precision", "nonesuch"])


def test_cli_list_prints_dispatch_table(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for subsystem in SUBSYSTEMS:
        assert subsystem.flag in out
        assert f"sweep {subsystem.sweep}" in out
    assert "activation_halving_f16" in out  # precision corpus is listed
    assert "mlp_chain_reuse" in out  # memory corpus is listed


def test_cli_list_json(capsys):
    assert main(["--list", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["flag"] for r in rows] == [s.flag for s in SUBSYSTEMS]
    precision = next(r for r in rows if r["flag"] == "--precision")
    assert precision["sweep"] == 9
    assert "softmax_unstabilized" in precision["programs"]
    lint = next(r for r in rows if r["flag"] == "--lint")
    assert lint["programs"] == []


def test_cli_json_rejects_lint(capsys):
    # Every subcommand except --lint speaks JSON now.
    with pytest.raises(SystemExit):
        main(["--lint", "repro.analysis.lintdemo:mixed_bag", "--json"])
    assert "--json is not supported with --lint" in capsys.readouterr().err


def test_subsystem_sweeps_are_unique_and_ordered():
    sweeps = [s.sweep for s in SUBSYSTEMS]
    assert len(set(sweeps)) == len(sweeps)
    assert max(sweeps) == 10  # equivalence is the tenth sweep


# -- the selfcheck sweep and the experiment table ----------------------------


def test_selfcheck_precision_sweep_counters():
    from repro.analysis.selfcheck import SelfCheckReport, _check_sweep

    report = SelfCheckReport()
    _check_sweep(next(s for s in SUBSYSTEMS if s.flag == "--precision"), report)
    assert report.failures == []
    assert report.precision_programs_checked == len(CORPUS)
    assert report.precision_hazards_caught == 5
    assert report.intervals_contained == len(CORPUS)
    assert report.autocast_plans_verified == len(CORPUS)
    assert report.narrow_peak_bytes_saved > 0
    payload = report.to_json()
    assert payload["ok"] is True
    assert payload["narrow_peak_bytes_saved"] == report.narrow_peak_bytes_saved

