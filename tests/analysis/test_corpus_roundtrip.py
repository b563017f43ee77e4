"""Printer -> parser -> printer golden round-trips over every module the
analysis corpora can produce — tracing, memory, precision, and equivalence
programs, including narrowed (f16/bf16) lowerings with explicit converts
and f32 accumulator attributes, and buffer-annotated printing.  The
equivalence corpus additionally pins codegen determinism: one canonical
key, one emitted source."""

import dataclasses

import numpy as np
import pytest

from repro.analysis.precision import CORPUS as PRECISION_CORPUS
from repro.analysis.precision.casts import (
    apply_plan,
    naive_assignment,
    plan_casts,
)
from repro.analysis.precision.intervals import Interval
from repro.analysis.precision.ranges import analyze_ranges
from repro.analysis.equivalence.models import CORPUS as EQUIVALENCE_CORPUS
from repro.analysis.memory.models import CORPUS as MEMORY_CORPUS
from repro.analysis.tracing.capture import unique_traces
from repro.analysis.tracing.models import CORPUS as TRACE_CORPUS
from repro.hlo import parse_module, print_module, verify_module


def _lowered_modules(program):
    """Every unique HLO module a corpus program's capture lowers to."""
    program = dataclasses.replace(program, steps=min(program.steps, 2))
    return [
        (module, params)
        for _key, module, params in unique_traces(program, keep_source_data=True)
    ]


def _assert_round_trip(module):
    text = print_module(module)
    reparsed = parse_module(text)
    assert print_module(reparsed) == text
    verify_module(reparsed)


@pytest.mark.parametrize("program", TRACE_CORPUS, ids=lambda p: p.name)
def test_trace_corpus_round_trips(program):
    # Programs without explicit barriers (unrolled_no_barrier,
    # auto_cut_reliance) may capture no fragments in two steps — the
    # round-trip claim is over every module that *was* lowered.
    for module, _params in _lowered_modules(program):
        _assert_round_trip(module)


@pytest.mark.parametrize("program", MEMORY_CORPUS, ids=lambda p: p.name)
def test_memory_corpus_round_trips(program):
    for module, _params in _lowered_modules(program):
        _assert_round_trip(module)


@pytest.mark.parametrize("program", PRECISION_CORPUS, ids=lambda p: p.name)
def test_precision_corpus_round_trips_original_and_narrowed(program):
    for module, param_nodes in _lowered_modules(program):
        _assert_round_trip(module)
        args = [np.asarray(p.data, np.float32) for p in param_nodes]
        intervals = {i: Interval.of_array(a) for i, a in enumerate(args)}
        # The naive and planned lowerings exercise the new dtype syntax:
        # f16/bf16 shapes, convert instructions, accum="f32" attributes.
        naive = apply_plan(module, naive_assignment(module, program.policy))
        planned = apply_plan(
            module,
            plan_casts(module, program.policy, analyze_ranges(module, intervals)),
        )
        for narrowed in (naive, planned):
            text = print_module(narrowed)
            assert program.policy in text  # dtype syntax is exercised
            _assert_round_trip(narrowed)


@pytest.mark.parametrize(
    "program",
    [MEMORY_CORPUS[0], PRECISION_CORPUS[0]],
    ids=lambda p: p.name,
)
def test_annotated_printing_round_trips(program):
    for module, _params in _lowered_modules(program):
        plain = print_module(module)
        annotated = print_module(module, annotate_buffers=True)
        assert "{buf=" in annotated or "{resident}" in annotated
        # The annotations are comments to the parser: reparsing the
        # annotated text recovers the same module as the plain text.
        assert print_module(parse_module(annotated)) == plain


@pytest.mark.parametrize(
    "program",
    [p for p in EQUIVALENCE_CORPUS if p.expect == "clean"],
    ids=lambda p: p.name,
)
def test_equivalence_corpus_round_trips_and_emits_deterministically(program):
    """The codegen'd corpus: every lowered module round-trips through the
    printer, and emission is a pure function of the canonical trace key —
    two independent builds of the same program produce byte-identical
    step-function source."""
    from repro.hlo import emit_module, optimize

    def emissions():
        out = []
        for module, _params in _lowered_modules(program):
            _assert_round_trip(module)
            generated = emit_module(optimize(module, fuse=True), key="k")
            # Emitted names are positional (p{n}/b{buf}/v{pos}), so the
            # source carries no builder counters at all.
            out.append((generated.source, generated.launches))
        return out

    first, second = emissions(), emissions()
    assert first and first == second
