"""The derivative report: corpus verdicts, pruning measurements, and the CLI."""

import pytest

from repro.analysis.__main__ import main
from repro.analysis.derivatives.models import CLEAN_MODELS, HAZARD_MODELS, MODELS
from repro.analysis.derivatives.report import (
    analyze_derivative_model,
    verify_derivatives,
)


class TestCorpusVerdicts:
    @pytest.mark.parametrize("model", CLEAN_MODELS, ids=lambda m: m.name)
    def test_clean_models_verify_with_zero_errors(self, model):
        report = analyze_derivative_model(model)
        assert report.verdicts() == {"clean"}
        assert report.cross_check_ok
        assert report.fd_match is True
        assert not any(d.is_error for d in report.diagnostics)

    @pytest.mark.parametrize("model", HAZARD_MODELS, ids=lambda m: m.name)
    def test_hazards_caught_with_expected_verdict(self, model):
        report = analyze_derivative_model(model)
        assert model.expect in report.verdicts()
        assert report.cross_check_ok
        # Every hazard comes with at least one located diagnostic.
        assert any(d.location.line > 0 for d in report.diagnostics)
        # Pruning drops dead captures only; no other hazard loses one.
        assert report.pruning is not None
        if model.expect == "dead-capture":
            assert report.pruning.entries_saved > 0
        else:
            assert report.pruning.entries_saved == 0

    def test_each_hazard_maps_to_exactly_one_verdict_class(self):
        for model in HAZARD_MODELS:
            report = analyze_derivative_model(model)
            assert report.verdicts() == {model.expect}, model.name


class TestBadDerivativesDisagreeWithFD:
    def test_wrong_transpose_gradient_differs_from_fd(self):
        report = analyze_derivative_model(MODELS["bad_scale"])
        assert report.fd_match is False

    def test_nonlinear_pullback_gradient_differs_from_fd(self):
        report = analyze_derivative_model(MODELS["bad_square"])
        assert report.fd_match is False


class TestPruningMeasurement:
    def test_dead_capture_measured_savings(self):
        report = analyze_derivative_model(MODELS["dead_capture"])
        assert report.pruning is not None
        assert report.pruning.entries_saved == 1
        assert report.pruning.gradients_identical

    def test_loop_dead_capture_saves_per_iteration(self):
        report = analyze_derivative_model(MODELS["loop_dead_capture"])
        # 2 dead sites × 3 iterations = 6 record entries never materialized.
        assert report.pruning.entries_saved == 6
        assert report.pruning.gradients_identical

    def test_clean_models_prune_nothing(self):
        for model in CLEAN_MODELS:
            report = analyze_derivative_model(model)
            assert report.pruning is not None, model.name
            assert report.pruning.entries_saved == 0, model.name


class TestRenderAndAnnotation:
    def test_render_mentions_every_section(self):
        text = analyze_derivative_model(MODELS["dead_capture"]).render()
        assert "rules checked" in text
        assert "transpose pairs" in text
        assert "capture liveness" in text
        assert "prune_captures" in text

    def test_annotated_sil_marks_dead_captures_and_activity(self):
        report = analyze_derivative_model(MODELS["dead_capture"])
        sil = report.annotated_sil()
        assert sil is not None
        assert "[dead capture]" in sil
        assert "[active]" in sil

    def test_verify_plain_callable(self):
        def cubic(x):
            return x * x * x

        report = verify_derivatives(cubic, args=(1.1,))
        assert report.verdicts() == {"clean"}
        assert report.cross_check_ok


class TestCLI:
    def test_single_model(self, capsys):
        assert main(["--derivatives", "bad_scale"]) == 0
        out = capsys.readouterr().out
        assert "wrong-transpose" in out
        assert "not the transpose of its JVP" in out
        assert "expected verdict: wrong-transpose (as predicted)" in out
        assert "sil @bad_scale_model" in out

    def test_all_models_quiet(self, capsys):
        assert main(["--derivatives", "all", "-q"]) == 0
        out = capsys.readouterr().out
        assert f"{len(MODELS)} function(s) verified, 0 failure(s)" in out

    def test_module_function_spec(self, capsys):
        spec = "repro.analysis.derivatives.models:polynomial"
        assert main(["--derivatives", spec]) == 0
        assert "clean" in capsys.readouterr().out

    def test_unknown_model_lists_names(self):
        with pytest.raises(SystemExit, match="unknown derivative model"):
            main(["--derivatives", "nonesuch"])

    def test_lint_flag(self, capsys):
        spec = "repro.analysis.derivatives.models:polynomial"
        assert main(["--lint", spec]) == 0
        assert "0 error(s)" in capsys.readouterr().out
