"""End-to-end memory planning over the seeded corpus: verdicts, the
static-vs-dynamic peak cross-check, the CLI and the printer annotations."""

import pytest

from repro.analysis.__main__ import main
from repro.analysis.corpus import UnknownProgram
from repro.analysis.memory import (
    CORPUS,
    analyze_memory_program,
    buffer_annotations,
)
from repro.hlo.printer import print_module


def _report(name):
    [program] = CORPUS.lookup(name)
    return analyze_memory_program(program)


def test_corpus_covers_every_verdict():
    expects = {p.expect for p in CORPUS}
    assert expects == {"clean", "over-budget", "unsafe-in-place", "tuple-aliasing"}
    assert len(CORPUS) == 9
    assert sum(p.straight_line for p in CORPUS) == 7


def test_mlp_chain_reuse_is_exact_with_pool_of_two():
    report = _report("mlp_chain_reuse")
    assert report.verdicts() == {"clean"}
    assert report.cross_check_ok
    [check] = report.checks
    # Three 512 B activations, two pool buffers (ping-pong through the
    # chain): certified == observed because the trace is straight-line.
    assert check.liveness.straight_line
    assert check.exact
    assert check.certificate.certified_peak_bytes == 1024
    assert check.observed_peak_bytes == 1024
    assert check.certificate.naive_bytes == 3072
    assert check.certificate.planned_pool_bytes == 1024
    assert check.certificate.reuse_factor == pytest.approx(3.0)
    assert check.plan.buffers_reused > 0


def test_reshape_pipeline_bound_is_sound_not_exact():
    report = _report("reshape_pipeline")
    assert report.verdicts() == {"clean"}
    assert report.cross_check_ok
    [check] = report.checks
    # NumPy reshapes this layout as a view, so the dynamic peak is below
    # the certified both-ways bound — sound, and declared non-exact.
    assert not check.liveness.straight_line
    assert check.sound
    assert check.certificate.certified_peak_bytes == 192
    assert check.observed_peak_bytes == 128


def test_over_budget_program_gets_fixits_and_remat():
    report = _report("held_activation_over_budget")
    assert report.verdicts() == {"over-budget"}
    assert report.cross_check_ok  # the *bound* still holds; budget failed
    [check] = report.checks
    assert check.certificate.certified_peak_bytes == 65536
    assert check.exact
    errors = [d for d in check.diagnostics if d.is_error]
    assert len(errors) == 1
    assert "exceeds the 40000 B budget" in errors[0].message
    assert errors[0].location.filename.endswith("models.py")
    assert errors[0].location.line > 0
    fixits = [d for d in check.diagnostics if d.severity == "warning"]
    assert 1 <= len(fixits) <= 3
    assert all(d.message.startswith("fix-it:") for d in fixits)
    assert check.remat, "carried values at the peak must be reported"


def test_corrupted_plans_are_caught_with_located_errors():
    for name, verdict, needle in (
        ("unsafe_inplace_plan", "unsafe-in-place", "non-elementwise op"),
        ("tuple_alias_plan", "tuple-aliasing", "output tuple still aliases"),
    ):
        report = _report(name)
        assert report.verdicts() == {verdict}, name
        assert report.cross_check_ok, name
        errors = [d for d in report.diagnostics if d.is_error]
        assert errors, name
        assert any(needle in d.message for d in errors), name
        assert all(d.location.line > 0 for d in errors), name


def test_get_program_unknown_name():
    with pytest.raises(UnknownProgram, match="unknown memory program"):
        CORPUS.lookup("nonesuch")


def test_cli_memory_single_program(capsys):
    assert main(["--memory", "sgd_fused_update"]) == 0
    out = capsys.readouterr().out
    assert "memory plan report: sgd_fused_update" in out
    assert "cross-check OK" in out
    assert "expected verdict: clean (as predicted)" in out
    assert "1 program(s) certified, 0 failure(s)" in out


def test_cli_memory_all_quiet(capsys):
    assert main(["--memory", "all", "-q"]) == 0
    out = capsys.readouterr().out
    assert "9 program(s) certified, 0 failure(s)" in out
    assert "hold against the dynamic tracker" in out


def test_cli_memory_unknown_program():
    with pytest.raises(SystemExit, match="unknown memory program"):
        main(["--memory", "nonesuch"])


def _traced_module():
    """Lower one small traced program to an optimized HLO module."""
    import numpy as np

    from repro.analysis.tracing.capture import capture_step_traces
    from repro.hlo.passes import optimize
    from repro.tensor import LazyTensorBarrier, Tensor, lazy_device
    from repro.tensor.lazy_backend import _lower_to_hlo

    device = lazy_device()
    x = Tensor(np.ones((4, 4), np.float32), device)
    w = Tensor(np.ones((4, 4), np.float32), device)

    def step_fn(step):
        y = (x @ w).relu()  # noqa: F841
        LazyTensorBarrier(device)

    capture = capture_step_traces(step_fn, steps=1, device=device)
    module, _ = _lower_to_hlo(capture.fragments[0].fragment.to_trace_nodes())
    optimize(module)
    return module


def test_printer_buffer_annotations_opt_in():
    module = _traced_module()
    plain = print_module(module)
    assert plain == print_module(module, annotate_buffers=False)
    assert "{buf=" not in plain and "{resident}" not in plain

    annotated = print_module(module, annotate_buffers=True)
    assert "{resident}" in annotated
    assert "{buf=0, live=[" in annotated
    # Stripping the annotations recovers the plain text exactly.
    stripped = "\n".join(line.split("  {")[0] for line in annotated.splitlines())
    assert stripped + "\n" == plain


def test_buffer_annotations_cover_every_instruction():
    module = _traced_module()
    notes = buffer_annotations(module)
    assert set(notes) == {inst.id for inst in module.schedule()}
    assert all(note.startswith("{") and note.endswith("}") for note in notes.values())

