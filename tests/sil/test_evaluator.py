"""The one SIL evaluator: what every execution mode inherits from the walker.

The interpreter, the instruction counter, the VJP forward sweep, the JVP and
graph extraction all run blocks through ``repro.sil.interp.Evaluator.run``,
so the arity check, the step budget and the CFG-edge definition are each
tested once, across the modes.
"""

import pytest

from repro.core import gradient, jvp
from repro.core.synthesis import jvp_plan, vjp_plan
from repro.errors import InterpreterError
from repro.frameworks.graph_extraction import GraphExtractionError, check_shapes
from repro.sil import call_function, interp, ir, lower_function


def two_params(x, y):
    return x * y


def spin(x):
    while True:
        x = x + 1.0
    return x


def spin_static(n, t):
    while True:
        n = n + 1
    return t


# -- arity ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "run",
    [
        lambda f: call_function(f, (1.0,)),
        lambda f: interp.count_instructions(f, (1.0,)),
        lambda f: vjp_plan(f).execute_forward((1.0,)),
        lambda f: jvp_plan(f).execute((1.0,), (1.0,)),
    ],
    ids=["interpreter", "counter", "vjp", "jvp"],
)
def test_wrong_argument_count_is_one_located_error(run):
    with pytest.raises(InterpreterError, match=r"two_params expects 2 args, got 1"):
        run(lower_function(two_params))


def test_jvp_rejects_mismatched_tangent_count():
    plan = jvp_plan(lower_function(two_params))
    with pytest.raises(InterpreterError, match="2 args but 1 tangents"):
        plan.execute((1.0, 2.0), (1.0,))


# -- step budget ---------------------------------------------------------------


@pytest.mark.parametrize(
    "run",
    [
        lambda: call_function(lower_function(spin), (0.0,)),
        lambda: interp.count_instructions(lower_function(spin), (0.0,)),
        lambda: gradient(spin, 0.0),
        lambda: jvp(spin, (0.0,), (1.0,)),
    ],
    ids=["interpreter", "counter", "gradient", "jvp"],
)
def test_non_terminating_program_exhausts_the_step_budget(monkeypatch, run):
    monkeypatch.setattr(interp, "MAX_STEPS", 500)
    with pytest.raises(InterpreterError, match=r"spin: exceeded 500 steps"):
        run()


def test_extraction_reports_budget_as_extraction_error(monkeypatch):
    monkeypatch.setattr(interp, "MAX_STEPS", 500)
    with pytest.raises(GraphExtractionError, match=r"spin_static: exceeded 500 steps"):
        check_shapes(spin_static, 0, input_shapes=[(2,)])


def test_extraction_keeps_its_own_block_limit():
    with pytest.raises(GraphExtractionError, match="extraction did not terminate"):
        check_shapes(spin_static, 0, input_shapes=[(2,)])


def test_budget_counts_what_count_instructions_reports(monkeypatch):
    func = lower_function(two_params)
    executed = interp.count_instructions(func, (2.0, 3.0))
    assert executed == sum(len(b.instructions) for b in func.blocks)
    monkeypatch.setattr(interp, "MAX_STEPS", executed)
    assert call_function(func, (2.0, 3.0)) == 6.0
    monkeypatch.setattr(interp, "MAX_STEPS", executed - 1)
    with pytest.raises(InterpreterError, match="exceeded"):
        call_function(func, (2.0, 3.0))


# -- CFG edges -----------------------------------------------------------------


def test_terminator_edges_pair_each_successor_with_its_arguments():
    a, b, c = ir.Block("a"), ir.Block("b"), ir.Block("c")
    cond, x, y = ir.Value(), ir.Value(), ir.Value()
    assert ir.ReturnInst(x).edges() == []
    assert ir.BrInst(b, [x, y]).edges() == [(b, [x, y])]
    cond_br = ir.CondBrInst(cond, b, [x], c, [y, x])
    assert cond_br.edges() == [(b, [x]), (c, [y, x])]
    for term in (ir.ReturnInst(x), ir.BrInst(b, [x]), cond_br):
        a.instructions = [term]
        assert a.successors() == [dest for dest, _ in term.edges()]


def test_unknown_instruction_is_an_interpreter_error():
    class MysteryInst(ir.Instruction):
        pass

    func = ir.Function("mystery")
    block = func.new_block()
    block.append(MysteryInst())
    block.append(ir.ReturnInst(block.instructions[0].result))
    with pytest.raises(InterpreterError, match="cannot evaluate"):
        call_function(func, ())
