"""Lowerable model corpus for the ownership analyses.

The real optimizers in :mod:`repro.optim.optimizers` walk parameter trees
with higher-order ``tree_map`` lambdas, which is outside the lowered SIL
subset.  This module provides semantically equivalent **flat** update loops
written in the subset (subscript loads/stores over a parameter array), so
the static analyses can be exercised — and cross-checked against the real
runtime — on exactly the mutation pattern the paper's Section 4.3 cares
about: optimizer updates that must materialize **zero** parameter copies.

It also hosts the seeded exclusivity-violation suite: small programs whose
formal access scopes overlap.  Each entry records the verdict the static
borrow checker must produce (``"error"`` for certain violations that trap
with ``BorrowError`` on every run, ``"warning"`` for may-conflicts that
need the dynamic check), so the self-check can assert the checker flags
every one of them — with zero false positives on the clean corpus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.analysis.corpus import Corpus, CorpusProgram
from repro.valsem.inout import borrow_attr, borrow_item

# ---------------------------------------------------------------------------
# Clean corpus: optimizer update loops (all stores must be in-place).
# ---------------------------------------------------------------------------


def sgd_update(params, grads, lr):
    n = len(params)
    i = 0
    while i < n:
        params[i] = params[i] - grads[i] * lr
        i = i + 1
    return params


def momentum_update(params, velocity, grads, lr, beta):
    n = len(params)
    i = 0
    while i < n:
        velocity[i] = velocity[i] * beta + grads[i]
        params[i] = params[i] - velocity[i] * lr
        i = i + 1
    return params


def adam_update(params, m, v, grads, lr, beta1, beta2, eps):
    n = len(params)
    i = 0
    while i < n:
        g = grads[i]
        m[i] = m[i] * beta1 + g * (1.0 - beta1)
        v[i] = v[i] * beta2 + g * g * (1.0 - beta2)
        params[i] = params[i] - lr * m[i] / (math.sqrt(v[i]) + eps)
        i = i + 1
    return params


def rmsprop_update(params, sq, grads, lr, rho, eps):
    n = len(params)
    i = 0
    while i < n:
        g = grads[i]
        sq[i] = sq[i] * rho + g * g * (1.0 - rho)
        params[i] = params[i] - lr * g / (math.sqrt(sq[i]) + eps)
        i = i + 1
    return params


#: The update loops the CI ownership sweep runs (3 optimizers + momentum).
OPTIMIZER_MODELS = {
    "sgd_update": sgd_update,
    "momentum_update": momentum_update,
    "adam_update": adam_update,
    "rmsprop_update": rmsprop_update,
}


# ---------------------------------------------------------------------------
# Clean corpus: borrow scopes that must NOT be flagged (negative controls).
# ---------------------------------------------------------------------------


def disjoint_keys_ok(xs):
    with borrow_item(xs, 0) as ref:
        xs[1] = 2.0  # distinct constant key: provably disjoint location
        ref.set(1.0)
    return xs[0]


def copy_isolates_ok(xs, i):
    ys = xs.copy()
    with borrow_item(xs, i) as ref:
        ys[i] = 3.0  # distinct owner: logical copies never conflict
        ref.set(1.0)
    return ys[i] + xs[i]


CLEAN_SUITE = [
    sgd_update,
    momentum_update,
    adam_update,
    rmsprop_update,
    disjoint_keys_ok,
    copy_isolates_ok,
]


# ---------------------------------------------------------------------------
# Copy-materialization exemplars.
# ---------------------------------------------------------------------------


def copy_then_write(xs):
    ys = xs.copy()
    ys[0] = 1.0  # must-copy: first write after the logical copy
    ys[1] = 2.0  # in-place: the deep copy above restored uniqueness
    return ys


def array_subscript(values, a, b):
    # ``my_op`` of Appendix B: two subscript reads feeding an add.
    return values[a] + values[b]


# ---------------------------------------------------------------------------
# Seeded exclusivity-violation suite.
# ---------------------------------------------------------------------------


class TinyModel:
    """Minimal attribute-holding value for attr-borrow programs."""

    def __init__(self, weight=0.0, bias=0.0):
        self.weight = weight
        self.bias = bias


def double_borrow_same_item(xs, i):
    with borrow_item(xs, i) as outer:
        with borrow_item(xs, i) as inner:  # certain overlap: same owner+key
            inner.set(1.0)
        outer.set(2.0)
    return xs[i]


def write_under_attr_borrow(model):
    with borrow_attr(model, "weight") as ref:
        model.weight = 0.0  # second modify access to the borrowed attribute
        ref.set(1.0)
    return model.weight


def aug_assign_under_borrow(xs, i):
    with borrow_item(xs, i) as ref:
        xs[i] += 1.0  # read-modify-write opens a second modify access
        ref.set(0.0)
    return xs[i]


def aliased_writes_may_conflict(xs, i, j):
    with borrow_item(xs, i) as ref:
        xs[j] = 0.0  # conflicts iff i == j: needs the dynamic check
        ref.set(1.0)
    return xs[i]


#: (function, verdict the static borrow checker must produce).
VIOLATION_SUITE = [
    (double_borrow_same_item, "error"),
    (write_under_attr_borrow, "error"),
    (aug_assign_under_borrow, "error"),
    (aliased_writes_may_conflict, "warning"),
]


# ---------------------------------------------------------------------------
# The corpus table ``--ownership`` and self-check sweep 4 walk.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OwnershipModel(CorpusProgram):
    """A lowerable function expecting ``"clean"`` (no diagnostic at all),
    ``"error"`` or ``"warning"``; the two copy exemplars carry no
    expectation and are addressable by name only."""

    fn: Callable


CORPUS = Corpus(
    "function",
    *(
        OwnershipModel(fn.__name__, "clean suite", "clean", fn)
        for fn in CLEAN_SUITE
    ),
    OwnershipModel("copy_then_write", "copy exemplar", None, copy_then_write),
    OwnershipModel("array_subscript", "copy exemplar", None, array_subscript),
    *(
        OwnershipModel(fn.__name__, "seeded violation", verdict, fn)
        for fn, verdict in VIOLATION_SUITE
    ),
)
