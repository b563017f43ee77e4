"""Step-program capture: extract a training step as a portable HLO program.

The baseline frameworks in the paper's comparisons (TensorFlow graphs,
PyTorch eager, JAX jit, TFLite) each execute a fixed computation per
training step; what differs is *how* their runtimes schedule it.  We
extract that fixed computation once — by tracing one real training step on
a lazy device — and hand the resulting program to engines that replay it
under different runtime disciplines and cost profiles.  All engines
therefore compute the exact same numerics on the shared kernel library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.hlo.parser import parse_module
from repro.hlo.printer import print_module
from repro.runtime.costmodel import S4TF_LAZY, DeviceProfile
from repro.tensor.device import Device
from repro.tensor.lazy_backend import _lower_to_hlo


@dataclass
class StepProgram:
    """A captured training-step program: canonical text + example inputs."""

    module_text: str
    example_args: list[np.ndarray]

    @property
    def op_count(self) -> int:
        module = self.to_module()
        return sum(
            1
            for inst in module.entry.post_order()
            if inst.opcode not in ("parameter", "constant", "tuple")
        )

    def to_module(self):
        """A fresh, independently-optimizable HloModule."""
        return parse_module(self.module_text)


def capture_step_program(
    run_one_step: Callable[[Device], None],
    profile: Optional[DeviceProfile] = None,
) -> StepProgram:
    """Trace ``run_one_step`` once on a lazy device and extract its program.

    ``run_one_step(device)`` must build its tensors on the given device and
    end with a single materialization point (the training library's
    automatic barrier provides exactly that).
    """
    device = Device("lazy", profile, S4TF_LAZY)
    traces: list[tuple[str, list]] = []

    def capture(targets, reason) -> None:
        # Every fragment's pre-optimization text and parameter values.
        module, params = _lower_to_hlo(targets)
        traces.append((print_module(module), [node.data for node in params]))

    device.runtime.fragment_observers.append(capture)
    run_one_step(device)
    if not traces:
        raise RuntimeError("the step function never materialized a trace")
    # The step's barrier fragment is the largest captured trace.
    text, args = max(traces, key=lambda t: len(t[0]))
    return StepProgram(text, args)
