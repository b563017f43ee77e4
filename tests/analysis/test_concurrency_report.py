"""End-to-end concurrency reports and the ``--concurrency`` CLI."""

import pytest

from repro.analysis.__main__ import main
from repro.analysis.concurrency.models import CORPUS_MODELS
from repro.analysis.concurrency.report import CORPUS, analyze, analyze_runtime


@pytest.fixture(scope="module")
def runtime():
    return analyze_runtime()


@pytest.fixture(scope="module")
def corpus():
    return [analyze(model) for model in CORPUS.lookup("corpus")]


# ---------------------------------------------------------------------------
# The real engine comes back clean
# ---------------------------------------------------------------------------


def test_runtime_is_clean(runtime):
    assert runtime.verdicts() == {"clean"}
    assert runtime.cross_check_ok
    assert runtime.problems() == []
    assert not any(d.is_error for d in runtime.diagnostics), [
        d.message for d in runtime.diagnostics
    ]


def test_runtime_report_is_substantive(runtime):
    # Clean because it was checked, not because nothing was checked.
    assert len(runtime.inventory.fields) >= 40
    assert len([a for a in runtime.lockset.accesses if a.required]) >= 50
    assert len(runtime.determinism.findings) == 4
    text = runtime.render()
    assert "verdicts: clean (cross_check_ok=True)" in text


# ---------------------------------------------------------------------------
# The seeded corpus: every hazard caught, every clean model silent
# ---------------------------------------------------------------------------


def test_corpus_every_model_matches(corpus):
    assert all(not r.problems() for r in corpus), [r.render() for r in corpus]
    assert len(corpus) == len(CORPUS_MODELS) == 9


def test_corpus_covers_every_hazard_class(corpus):
    by_expect = {}
    for result in corpus:
        by_expect.setdefault(result.expect, []).append(result)
    assert len(by_expect["race"]) >= 3
    assert len(by_expect["deadlock"]) >= 1
    assert len(by_expect["order-sensitive-merge"]) >= 1
    assert len(by_expect["clean"]) >= 2


def test_corpus_hazards_have_located_error_diagnostics(corpus):
    for result in corpus:
        if result.expect == "clean":
            continue
        errors = [d for d in result.diagnostics if d.is_error]
        assert errors, result.name
        assert all(d.location.line > 0 for d in errors), result.name


def test_corpus_clean_models_have_no_errors(corpus):
    for result in corpus:
        if result.expect != "clean":
            continue
        assert result.verdicts() == {"clean"}, result.name
        assert not any(d.is_error for d in result.diagnostics), result.name


def test_inverted_pair_witness_recorded_both_edges(corpus):
    inverted = next(r for r in corpus if r.name == "deadlock_inverted_pair")
    assert ("corpus.lock_a", "corpus.lock_b") in inverted.dynamic_edges
    assert ("corpus.lock_b", "corpus.lock_a") in inverted.dynamic_edges
    # The statically predicted cycle and the dynamic witness agree.
    assert inverted.cross_check_ok
    assert "deadlock" in inverted.verdicts()


def test_consistent_pair_witness_matches_static(corpus):
    consistent = next(r for r in corpus if r.name == "clean_consistent_pair")
    assert consistent.dynamic_edges == {("corpus.lock_a", "corpus.lock_b")}
    assert consistent.cross_check_ok
    assert consistent.verdicts() == {"clean"}


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_concurrency_runtime(capsys):
    assert main(["--concurrency", "runtime"]) == 0
    out = capsys.readouterr().out
    assert "== concurrency analysis: runtime ==" in out
    assert out.endswith(
        "1 target(s) analyzed, 0 failure(s); "
        "locksets, lock order, and merges all verified\n"
    )


def test_cli_concurrency_all_quiet(capsys):
    assert main(["--concurrency", "all", "-q"]) == 0
    out = capsys.readouterr().out
    # Quiet mode suppresses the per-target reports, keeps the summary.
    assert out == (
        "10 target(s) analyzed, 0 failure(s); "
        "locksets, lock order, and merges all verified\n"
    )


def test_cli_concurrency_single_model(capsys):
    assert main(["--concurrency", "race_unlocked_counter"]) == 0
    out = capsys.readouterr().out
    assert "== concurrency analysis: race_unlocked_counter ==" in out
    assert "requires `corpus.lock_a`" in out
    assert "expected verdict: race (as predicted)" in out


def test_cli_concurrency_unknown_target():
    with pytest.raises(SystemExit, match="unknown concurrency target"):
        main(["--concurrency", "nonesuch"])
