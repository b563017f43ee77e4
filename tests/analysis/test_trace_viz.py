"""Trace visualisation annotations: cache keys, cut points, and
volatile-constant highlights driven by the static analyzer."""

import numpy as np

from repro.analysis.tracing import analyze_trace_program, cache_key
from repro.analysis.tracing.models import PROGRAMS
from repro.tensor import Tensor, lazy_device
from repro.viz import stability_timeline, trace_to_dot, trace_to_text


def _simple_roots():
    device = lazy_device()
    w = Tensor(np.ones(4, np.float32), device)
    out = w - w * 0.1
    return [out._impl]


def test_unannotated_rendering_is_unchanged():
    roots = _simple_roots()
    text = trace_to_text(roots)
    assert "cache key" not in text
    assert "cut point" not in text
    dot = trace_to_dot(roots)
    assert "label=\"cache key" not in dot
    assert "peripheries" not in dot


def test_annotated_text_carries_key_and_cut_points():
    roots = _simple_roots()
    text = trace_to_text(roots, annotate=True)
    assert text.startswith(f"# cache key {cache_key(roots)}")
    assert "cut point (materialized here)" in text
    # Exactly the root is marked as the cut point.
    assert text.count("cut point") == 1


def test_annotated_dot_marks_key_and_roots():
    roots = _simple_roots()
    dot = trace_to_dot(roots, annotate=True)
    assert f'label="cache key {cache_key(roots)}"' in dot
    assert "peripheries=2" in dot


def test_volatile_positions_highlight_the_constant():
    report = analyze_trace_program(PROGRAMS["lr_schedule_storm"])
    [position] = [v.position for v in report.stability.volatile_constants]
    fragment = report.capture.fragments[1].fragment
    text = trace_to_text(fragment.roots, volatile_positions=[position])
    [marked] = [ln for ln in text.splitlines() if "step-volatile" in ln]
    # The rendering walks fragment_order, so the marked line's %p is the
    # canonical position the retrace-storm detector reported.
    assert marked.startswith(f"%{position} = constant")
    dot = trace_to_dot(fragment.roots, volatile_positions=[position])
    assert "#ffb3b3" in dot


def test_stability_timeline_shows_cuts_and_cache_outcomes():
    report = analyze_trace_program(PROGRAMS["sgd_scalar_clean"])
    timeline = stability_timeline(report.stability)
    lines = timeline.splitlines()
    assert lines[0].startswith("step 0:") and "(compile)" in lines[0]
    assert all("(cache hit)" in ln for ln in lines[1:])
    assert all("cut by barrier" in ln for ln in lines)


def test_stability_timeline_flags_storms():
    report = analyze_trace_program(PROGRAMS["lr_schedule_storm"])
    timeline = stability_timeline(report.stability)
    assert "step-volatile" in timeline
    assert "(cache hit)" not in timeline  # every step recompiles
