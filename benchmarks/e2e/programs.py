"""Differentiable programs the benchmark owns.

They live in a real module because the frontend lowers a function from its
source file, and at module level because the process backend ships loss
functions to its workers by reference.

The four tensor-free programs exercise only ``sil``, ``core`` and
``valsem``.  Each has a fixed iteration count over the input ranges
``workloads.py`` draws from, so the work per gradient does not depend on
the seed.
"""

import math
from dataclasses import dataclass

from repro.core import differentiable_struct
from repro.nn import softmax_cross_entropy
from repro.valsem import inout

GRAVITY = 9.81
DRAG = 0.003
DT = 0.02
LAUNCH_HEIGHT = 1.5


def classifier_loss(model, x, y):
    return softmax_cross_entropy(model(x), y)


def power_loop(x):
    """Quickstart's data-dependent loop: 5 iterations for x in (2.52, 3.16)."""
    result = 1.0
    while result < 100.0:
        result = result * x
    return result


def branchy_accumulator(x):
    """20 iterations that switch branch once ``total`` passes 3."""
    total = 0.0
    for _ in range(20):
        if total > 3.0:
            total = total + math.sin(x) * 0.5
        else:
            total = total + x * x
    return total


@differentiable_struct
@dataclass
class Launch:
    angle: float
    speed: float


def landing_distance(launch):
    """Euler simulation of a projectile with quadratic drag; the last step
    interpolates the ground crossing, so the result is differentiable in
    the launch parameters although the step count is discrete."""
    vx = launch.speed * math.cos(launch.angle)
    vy = launch.speed * math.sin(launch.angle)
    x = 0.0
    y = LAUNCH_HEIGHT
    prev_x = x
    prev_y = y
    while y > 0.0:
        prev_x = x
        prev_y = y
        v = math.sqrt(vx * vx + vy * vy)
        vx = vx - DT * DRAG * v * vx
        vy = vy - DT * (GRAVITY + DRAG * v * vy)
        x = x + DT * vx
        y = y + DT * vy
    fraction = prev_y / (prev_y - y)
    return prev_x + fraction * (x - prev_x)


def subscript_sum(values, weights):
    """Weighted sum of squares over 16 subscripts of a 64-element array,
    after an ``inout`` mutation of the (inactive) weights."""
    with inout(weights, 0) as ref:
        ref.set(ref.get() * 0.5)
    total = 0.0
    for i in range(16):
        total = total + values[i] * values[i] * weights[i % 4]
    return total
