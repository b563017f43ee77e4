"""The sweep-10 report layer: the clean corpus certifies with zero
diagnostics and a passing dynamic cross-check; the miscompile corpus is
caught with verdict-labelled, located diagnostics; rendering and the
verdict mapping follow the other analysis reports."""

import numpy as np
import pytest

from repro.analysis.corpus import UnknownProgram
from repro.analysis.equivalence import CORPUS, analyze_equivalence_program
from repro.analysis.equivalence.report import _bit_identical

CLEAN = [p for p in CORPUS if p.expect == "clean"]
MISCOMPILED = [p for p in CORPUS if p.expect != "clean"]


def test_corpus_covers_every_miscompile_class():
    assert {p.expect for p in MISCOMPILED} == {
        "wrong-broadcast",
        "stale-reuse",
        "dropped-convert",
        "reordered-op",
        "accum-elision",
    }
    assert len(CLEAN) >= 5


@pytest.mark.parametrize("program", CLEAN, ids=lambda p: p.name)
def test_clean_program_certifies_with_zero_false_positives(program):
    report = analyze_equivalence_program(program)
    assert report.verdicts() == {"clean"}
    assert report.cross_check_ok
    assert report.certified_fraction == 1.0
    assert not [d for d in report.diagnostics if d.is_error]
    for check in report.checks:
        assert check.result.certified
        assert check.bit_identical is True  # interpreted ≡ codegen'd, bitwise
        assert check.result.checked_values >= 1


@pytest.mark.parametrize("program", MISCOMPILED, ids=lambda p: p.name)
def test_miscompiled_program_is_caught_and_located(program):
    report = analyze_equivalence_program(program)
    assert report.verdicts() == {program.expect}
    assert report.cross_check_ok
    caught = [
        c for c in report.checks if not c.result.certified and c.located
    ]
    assert caught, "no rejected check carries a source location"
    for check in report.checks:
        # The untransformed emission still certifies (baseline)...
        assert check.baseline is not None and check.baseline.certified
        # ...and the corrupted variant is stopped statically: it never runs.
        assert check.bit_identical is None
    labels = [d.message for c in caught for d in c.diagnostics if d.is_error]
    assert any(m.startswith(program.expect) for m in labels)


def test_report_renders_one_line_per_trace():
    [program] = CORPUS.lookup(CLEAN[0].name)
    report = analyze_equivalence_program(program)
    text = report.render()
    assert CLEAN[0].name in text
    assert len(report.checks) >= 1


def test_unknown_model_name_raises():
    with pytest.raises(UnknownProgram, match="unknown equivalence program"):
        CORPUS.lookup("no_such_program")


def test_bit_identical_requires_exact_dtype_shape_and_bytes():
    a = np.arange(4, dtype=np.float32)
    assert _bit_identical(a, a.copy())
    assert not _bit_identical(a, a.astype(np.float64))
    assert not _bit_identical(a, a.reshape(2, 2))
    assert not _bit_identical(a, a + 0.5)
    assert _bit_identical((a, a), (a.copy(), a.copy()))
    assert not _bit_identical((a, a), (a,))
