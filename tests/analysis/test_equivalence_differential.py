"""The validator's argument reading against its earlier formulation.

``_SymbolicEvaluator`` classifies each call argument by its node type and
reads constants, tuples of constants, ``K[...]`` selectors and ``C[...]``
indices straight off the tree.  Before, it tried ``ast.literal_eval`` on
every argument and fell back to evaluation on ``ValueError``.  That
formulation is kept here as the reference: over every codegen corpus
program, every seeded miscompile and a set of mutated sources, both must
give the same verdict, counts and diagnostic text.  The installed step
must run the code compiled from the proven tree.
"""

import ast
import builtins
import re
from types import CodeType

import pytest

from repro.analysis.equivalence import validator
from repro.analysis.equivalence.miscompiles import MISCOMPILES
from repro.analysis.equivalence.normalform import LIT, TERM
from repro.analysis.equivalence.validator import _Reject, validate_translation
from repro.hlo import codegen
from repro.hlo.codegen import emit_module, freeze
from repro.hlo.compiler import Executable


def _reference_literal(node):
    return freeze(ast.literal_eval(node))


class _ReferenceEvaluator(validator._SymbolicEvaluator):
    """``_const``, ``_call_args`` and the selector reading of ``_call`` as
    they were: ``literal_eval`` first, evaluation on ``ValueError``."""

    def _const(self, node):
        if not (isinstance(node.value, ast.Name) and node.value.id == "C"):
            raise _Reject("only the constant pool C[...] may be subscripted", node)
        try:
            index = ast.literal_eval(node.slice)
        except ValueError:
            raise _Reject("constant pool index must be a literal", node) from None
        if not isinstance(index, int) or not 0 <= index < len(self.consts):
            raise _Reject(f"constant pool index {index!r} out of range", node)
        return self.table.const(self.consts[index])

    def _call_args(self, node):
        encoded = []
        for arg in node.args:
            try:
                encoded.append((LIT, _reference_literal(arg)))
            except ValueError:
                encoded.append((TERM, self.eval(arg)))
        return encoded

    def _call(self, node):
        func = node.func
        if node.keywords:
            raise _Reject("keyword arguments are outside the grammar", node)
        if isinstance(func, ast.Subscript) and isinstance(func.value, ast.Name):
            try:
                selector = ast.literal_eval(func.slice)
            except ValueError:
                raise _Reject("kernel selector must be a literal", node) from None
            if func.value.id == "K":
                return self.table.kernel(selector, self._call_args(node))
            if func.value.id == "CMP":
                if len(node.args) != 2:
                    raise _Reject("compare takes two operands", node)
                return self.table.compare(
                    selector, self.eval(node.args[0]), self.eval(node.args[1])
                )
            raise _Reject(f"unknown call table {func.value.id!r}", node)
        if isinstance(func, ast.Name):
            if func.id == "cast":
                if len(node.args) != 2:
                    raise _Reject("cast takes (value, dtype)", node)
                return self.table.cast(
                    _reference_literal(node.args[1]), self.eval(node.args[0])
                )
            if func.id == "narrow_reduce":
                if len(node.args) != 5:
                    raise _Reject(
                        "narrow_reduce takes (x, axes, keepdims, kind, dtype)", node
                    )
                return self.table.narrow_reduce(
                    self.eval(node.args[0]),
                    _reference_literal(node.args[1]),
                    _reference_literal(node.args[2]),
                    _reference_literal(node.args[3]),
                    _reference_literal(node.args[4]),
                )
        return super()._call(node)


#: (name, pattern, replacement): one textual mutation of an emitted source,
#: applied to the first match only.
_MUTATIONS = [
    ("negative literal", r", \((\d+),\)", r", (-1,)"),
    ("negative literal", r", \((\d+), (\d+)\)", r", -1"),
    ("tuple literal", r"(K\['(?:add|mul|sub|matmul)'\]\(\w+), \w+\)", r"\1, (1, 2))"),
    ("tuple of values", r"(K\['(?:add|mul|sub|matmul)'\]\(\w+), \w+\)", r"\1, (p0, p1))"),
    ("mixed tuple", r"(K\['broadcast_to'\]\(\w+), \(", r"\1, (p0, "),
    ("nested call", r"(K\['(?:add|mul|sub|matmul)'\]\(\w+), \w+\)", r"\1, K['relu'](p0))"),
    ("non-literal selector", r"K\['(\w+)'\]", r"K[p0]"),
    ("expression selector", r"K\['(\w+)'\]", r"K['\1' + '']"),
    ("pool index out of range", r"C\[\d+\]", r"C[99]"),
    ("negative pool index", r"C\[\d+\]", r"C[-1]"),
    ("non-literal pool index", r"C\[\d+\]", r"C[p0]"),
    ("string literal", r", False\b", r", 'False'"),
]


def _corpus_cases():
    """(module, source, consts, filename) for every codegen corpus trace:
    the emitted source, its seeded miscompiles and its mutations."""
    from repro.analysis.equivalence.models import CORPUS
    from repro.analysis.equivalence.report import _schedule_module
    from repro.analysis.tracing.capture import unique_traces

    cases, applied = [], set()
    for program in CORPUS:
        for key, module, params in unique_traces(program, keep_source_data=True):
            module, _ = _schedule_module(module, params, program)
            generated = emit_module(module, key=key)
            sources = [generated.source]
            sources += [bug.transform(generated.source) for bug in MISCOMPILES]
            for name, pattern, replacement in _MUTATIONS:
                mutated = re.sub(pattern, replacement, generated.source, count=1)
                if mutated != generated.source:
                    applied.add(name)
                    sources.append(mutated)
            for source in sources:
                if source is not None:
                    cases.append((module, source, generated.consts, generated.filename))
    assert applied == {name for name, _, _ in _MUTATIONS}
    return cases


@pytest.fixture(scope="module")
def corpus_cases():
    return _corpus_cases()


def _verdict(result):
    return (
        result.certified,
        result.divergent_value,
        result.checked_values,
        result.term_count,
        [str(d) for d in result.diagnostics],
    )


def test_argument_reading_matches_the_reference(corpus_cases, monkeypatch):
    certified = rejected = 0
    for module, source, consts, filename in corpus_cases:
        got = validate_translation(module, source, consts, filename)
        with monkeypatch.context() as mp:
            mp.setattr(validator, "_SymbolicEvaluator", _ReferenceEvaluator)
            want = validate_translation(module, source, consts, filename)
        assert _verdict(got) == _verdict(want), source
        assert (got.code is not None) == got.certified
        certified += got.certified
        rejected += not got.certified
    assert certified >= 9 and rejected >= 50


def _affine():
    from repro.hlo import HloBuilder, Shape, optimize

    b = HloBuilder("affine")
    x = b.parameter(Shape((4, 6)))
    w = b.parameter(Shape((6, 3)))
    bias = b.parameter(Shape((3,)))
    y = b.binary("add", b.dot(x, w), b.broadcast(bias, (4, 3)))
    return optimize(b.build(b.unary("relu", y)))


def test_installed_step_runs_the_code_compiled_from_the_proven_tree(monkeypatch):
    calls = []
    real_compile = builtins.compile

    def spy(source, *args, **kwargs):
        code = real_compile(source, *args, **kwargs)
        calls.append((source, code))
        return code

    module = _affine()
    codegen.clear_source_cache()
    monkeypatch.setattr(builtins, "compile", spy)
    try:
        installed = codegen.generate_certified(module, Executable(module), key="proven")
        # One parse of the text, one compile of the tree it produced.
        from_text = [c for c in calls if isinstance(c[0], str)]
        from_tree = [c for c in calls if isinstance(c[0], ast.Module)]
        assert len(from_text) == 1 and isinstance(from_text[0][1], ast.Module)
        assert from_text[0][1] is from_tree[0][0]
        assert len(from_tree) == 1
        step_codes = [c for c in from_tree[0][1].co_consts if isinstance(c, CodeType)]
        assert step_codes == [installed._fn.__code__]
        assert step_codes[0] is installed._fn.__code__

        calls.clear()
        again = codegen.generate_certified(module, Executable(module), key="proven")
        assert calls == []
        assert again._fn.__code__ is installed._fn.__code__
    finally:
        codegen.clear_source_cache()
