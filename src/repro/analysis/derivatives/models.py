"""The seeded derivative-correctness corpus: models with known verdicts.

Mirrors :mod:`repro.analysis.tracing.models`: a clean suite the verifier
must pass with **zero** error diagnostics and ``cross_check_ok=True``
(static verdicts agreeing with every numeric probe), plus seeded hazards
— one per failure mode of hand-written derivative rules — each recording
the verdict the verifier must produce.

The hazard rules live on *raw* :class:`~repro.sil.primitives.Primitive`
instances that are **not** added to the global ``PRIMITIVES`` table, so
the registry-wide self-check sweeps never see them; the frontend lowers
them to direct apply sites like any other primitive global.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.analysis.corpus import Corpus, CorpusProgram
from repro.sil.primitives import Primitive

# ---------------------------------------------------------------------------
# Corpus entry shape.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DerivativeModel(CorpusProgram):
    """A differentiable program expecting ``"clean"``,
    ``"nonlinear-pullback"``, ``"wrong-transpose"``, ``"ill-typed-record"``
    or ``"dead-capture"``."""

    #: Sample arguments the report's finite-difference probe runs at.
    args: tuple[float, ...]
    build: Callable[[], Callable]
    wrt: tuple[int, ...] = (0,)


# ---------------------------------------------------------------------------
# Clean corpus.
# ---------------------------------------------------------------------------


def polynomial(x):
    return 3.0 * x * x + 2.0 * x + 1.0


def sigmoid_like(x):
    return 1.0 / (1.0 + math.exp(-x))


def branchy(x):
    if x > 1.0:
        return x * x
    return 3.0 * x


def loopy(x):
    total = 0.0
    for _ in range(4):
        total = total + x * x
    return total


def two_param(x, y):
    return x * math.sin(y) + y


def _scaled_sin(v):
    return math.sin(v) * 2.0


def _build_custom_clean():
    """A function whose call sites use a hand-registered (correct) VJP."""
    from repro.core.registry import derivative

    @derivative(of=_scaled_sin)
    def _scaled_sin_vjp(v):
        c = math.cos(v)
        return math.sin(v) * 2.0, lambda ct: (ct * 2.0 * c,)

    def custom_clean(x):
        return _scaled_sin(x) + x

    return custom_clean


# ---------------------------------------------------------------------------
# Seeded hazards: raw, unregistered primitives with defective rules.
# ---------------------------------------------------------------------------

#: Nonlinear pullback: d(square)/dx is 2x·ct, but this rule multiplies the
#: cotangent by itself — pb(a+b) ≠ pb(a)+pb(b).
_bad_square = Primitive(
    "bad_square_hazard",
    lambda x: x * x,
    vjp=lambda x: (x * x, lambda ct: (ct * ct,)),
)

#: Wrong transpose: the function is 3x (J = 3, so Jᵀ = 3) but the pullback
#: scales by 2.  Both rules are perfectly linear — only the pairing check
#: can catch this.
_bad_scale = Primitive(
    "bad_scale_hazard",
    lambda x: 3.0 * x,
    jvp=lambda primals, tangents: (3.0 * primals[0], 3.0 * tangents[0]),
    vjp=lambda x: (3.0 * x, lambda ct: (2.0 * ct,)),
)

#: Ill-typed record: the pullback returns a validity *flag* where the
#: cotangent belongs; Bool has no tangent space.
_bad_bool_ct = Primitive(
    "bad_bool_ct_hazard",
    lambda x: x * 2.0,
    vjp=lambda x: (x * 2.0, lambda ct: (True,)),
)

#: Ill-typed record, arity flavor: two arguments, one cotangent component.
_bad_arity = Primitive(
    "bad_arity_hazard",
    lambda x, y: x + y,
    vjp=lambda x, y: (x + y, lambda ct: (ct,)),
)


def bad_square_model(x):
    return _bad_square(x) + x


def bad_scale_model(x):
    return _bad_scale(x) + x


def bad_bool_ct_model(x):
    return _bad_bool_ct(x) + x


def bad_arity_model(x, y):
    return _bad_arity(x, y) * 2.0


def dead_capture(x):
    # exp(x) is varied and graph-useful, but its cotangent dies in the
    # float(int(.)) chain: the capture of y is dead weight.
    y = math.exp(x)
    k = float(int(y))
    return x * k


def loop_dead_capture(x):
    total = x
    for _ in range(3):
        y = math.exp(total)
        k = float(int(y) % 7)
        total = total + x * k
    return total


def _ret(fn):
    return lambda: fn


CLEAN_MODELS = [
    DerivativeModel(
        "polynomial",
        "quadratic polynomial: product/add/const rules",
        "clean",
        (1.3,),
        _ret(polynomial),
    ),
    DerivativeModel(
        "sigmoid_like",
        "1/(1+exp(-x)): division, exp, negation",
        "clean",
        (0.7,),
        _ret(sigmoid_like),
    ),
    DerivativeModel(
        "branchy",
        "data-dependent branch; per-block records",
        "clean",
        (2.1,),
        _ret(branchy),
    ),
    DerivativeModel(
        "loopy",
        "loop accumulation; value-id reuse across iterations",
        "clean",
        (0.9,),
        _ret(loopy),
    ),
    DerivativeModel(
        "two_param",
        "two parameters, trig, mixed activity",
        "clean",
        (1.1, 0.6),
        _ret(two_param),
        wrt=(0, 1),
    ),
    DerivativeModel(
        "custom_clean",
        "call site bound to a correct hand-registered VJP",
        "clean",
        (0.8,),
        _build_custom_clean,
    ),
]

HAZARD_MODELS = [
    DerivativeModel(
        "bad_square",
        "pullback multiplies the cotangent by itself (nonlinear map)",
        "nonlinear-pullback",
        (1.3,),
        _ret(bad_square_model),
    ),
    DerivativeModel(
        "bad_scale",
        "linear VJP that is not the transpose of the registered JVP",
        "wrong-transpose",
        (1.3,),
        _ret(bad_scale_model),
    ),
    DerivativeModel(
        "bad_bool_ct",
        "pullback returns a bool where a cotangent belongs",
        "ill-typed-record",
        (1.3,),
        _ret(bad_bool_ct_model),
    ),
    DerivativeModel(
        "bad_arity",
        "two-argument primitive, one-component pullback",
        "ill-typed-record",
        (1.3, 0.4),
        _ret(bad_arity_model),
        wrt=(0, 1),
    ),
    DerivativeModel(
        "dead_capture",
        "varied value whose cotangent dies in a discrete chain",
        "dead-capture",
        (1.3,),
        _ret(dead_capture),
    ),
    DerivativeModel(
        "loop_dead_capture",
        "dead capture re-recorded on every loop iteration",
        "dead-capture",
        (0.4,),
        _ret(loop_dead_capture),
    ),
]

CORPUS = Corpus("derivative model", *CLEAN_MODELS, *HAZARD_MODELS)
MODELS = CORPUS.by_name
