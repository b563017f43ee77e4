"""The user-facing Tensor type, generic over three implementations.

One API, three backends selected by device placement (Sections 3.1–3.3):

* ``naive`` — pure-Python lists, no dependencies;
* ``eager`` — op-by-op asynchronous dispatch of NumPy kernels on a
  simulated accelerator;
* ``lazy`` — implicit trace recording, JIT-compiled through HLO on first
  observation.

Tensor itself never asks which: every operation is ``_apply(op, operands,
**attrs)`` — a row of :mod:`repro.tensor.traceops` handed to the backend
the tensor's :class:`Device` bound at construction.

Tensor is a *value type*: every operation yields a fresh value, and the
in-place ``move_`` used by optimizers rebinds this variable's storage
without affecting any other tensor — mutable value semantics (Section 4).

Tensor conforms to the Differentiable protocol (tangent space = Tensor of
the same shape), so the AD system differentiates tensor code with the same
machinery it uses for floats and structs.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.errors import DeviceError, ShapeError
from repro.tensor.device import Device, default_device
from repro.tensor.traceops import normalize_axes

Scalar = Union[int, float]


class Tensor:
    """A multi-dimensional array placed on a :class:`Device`."""

    __slots__ = ("_impl", "device", "__weakref__")

    def __init__(self, data, device: Optional[Device] = None) -> None:
        if isinstance(data, Tensor):
            self.device = device or data.device
            self._impl = data._impl
        else:
            self.device = device or default_device()
            self._impl = self.device.source(data)
        if self.device.kind == "lazy":
            self.device.runtime.register_tensor(self)

    # -- constructors --------------------------------------------------------

    @classmethod
    def _wrap(cls, impl, device: Device) -> "Tensor":
        t = object.__new__(cls)
        t._impl = impl
        t.device = device
        if device.kind == "lazy":
            device.runtime.register_tensor(t)
        return t

    @classmethod
    def zeros(cls, shape: Sequence[int], device=None) -> "Tensor":
        return cls.full(shape, 0.0, device)

    @classmethod
    def ones(cls, shape: Sequence[int], device=None) -> "Tensor":
        return cls.full(shape, 1.0, device)

    @classmethod
    def full(cls, shape: Sequence[int], value: float, device=None) -> "Tensor":
        device = device or default_device()
        return cls._wrap(device.full(tuple(shape), value), device)

    @classmethod
    def randn(
        cls, shape: Sequence[int], device=None, seed: Optional[int] = None, scale=1.0
    ) -> "Tensor":
        rng = np.random.default_rng(seed)
        array = (rng.standard_normal(tuple(shape)) * scale).astype(np.float32)
        return cls(array, device)

    @classmethod
    def arange(cls, n: int, device=None) -> "Tensor":
        return cls(np.arange(n, dtype=np.float32), device)

    @classmethod
    def scalar(cls, value: float, device=None) -> "Tensor":
        return cls.full((), value, device)

    def zeros_like(self) -> "Tensor":
        return Tensor.zeros(self.shape, self.device)

    def ones_like(self) -> "Tensor":
        return Tensor.ones(self.shape, self.device)

    # -- shape & observation ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self._impl.shape)

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        n = 1
        for d in self.shape:
            n *= d
        return n

    def numpy(self) -> np.ndarray:
        """Observe the tensor's contents (a materialization point)."""
        return self.device.observe(self._impl)

    def item(self) -> float:
        if self.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.numpy().reshape(()))

    def __float__(self) -> float:
        return self.item()

    def __bool__(self) -> bool:
        return bool(self.item() != 0.0)

    def __repr__(self) -> str:
        if self.device.kind == "lazy" and not self._impl.is_source:
            return f"Tensor(<unmaterialized {self.shape}>, device={self.device.name})"
        return f"Tensor({self.numpy()!r}, device={self.device.name})"

    # -- internal dispatch --------------------------------------------------------

    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            if other.device is not self.device:
                raise DeviceError(
                    f"tensors on different devices: {self.device} vs {other.device}"
                )
            return other
        if isinstance(other, (int, float)):
            return Tensor._wrap(self.device.constant(float(other)), self.device)
        raise TypeError(f"cannot mix Tensor with {type(other).__name__}")

    def _apply(self, op: str, operands, **attrs) -> "Tensor":
        """One traced op (a row of ``repro.tensor.traceops``) on this
        tensor's device: computed, recorded or interpreted by its backend."""
        device = self.device
        return Tensor._wrap(
            device.apply(op, [t._impl for t in operands], attrs), device
        )

    def _binary(self, op: str, other) -> "Tensor":
        if not isinstance(other, (Tensor, int, float)):
            # Defer to the other operand's reflected operator (e.g. the
            # symbolic ZERO tangent's additive-identity behaviour).
            return NotImplemented
        return self._apply(op, (self, self._coerce(other)))

    def _rbinary(self, op: str, other) -> "Tensor":
        return self._coerce(other)._binary(op, self)

    def _compare(self, direction: str, other) -> "Tensor":
        return self._apply(
            "compare", (self, self._coerce(other)), direction=direction
        )

    # -- operators ------------------------------------------------------------------

    def __add__(self, other):
        return self._binary("add", other)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary("sub", other)

    def __rsub__(self, other):
        return self._rbinary("sub", other)

    def __mul__(self, other):
        return self._binary("mul", other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary("div", other)

    def __rtruediv__(self, other):
        return self._rbinary("div", other)

    def __pow__(self, other):
        return self._binary("pow", other)

    def __neg__(self):
        return self._apply("neg", (self,))

    def __gt__(self, other):
        return self._compare("gt", other)

    def __ge__(self, other):
        return self._compare("ge", other)

    def __lt__(self, other):
        return self._compare("lt", other)

    def __le__(self, other):
        return self._compare("le", other)

    def maximum(self, other):
        return self._binary("maximum", other)

    def minimum(self, other):
        return self._binary("minimum", other)

    def select(self, on_true, on_false):
        """Elementwise ``self ? on_true : on_false`` (self is a mask)."""
        return self._apply(
            "select", (self, self._coerce(on_true), self._coerce(on_false))
        )

    # -- math methods (dispatch targets for the generic math primitives) -----------

    def exp(self):
        return self._apply("exp", (self,))

    def log(self):
        return self._apply("log", (self,))

    def tanh(self):
        return self._apply("tanh", (self,))

    def sqrt(self):
        return self._apply("sqrt", (self,))

    def rsqrt(self):
        return self._apply("rsqrt", (self,))

    def sigmoid(self):
        return self._apply("sigmoid", (self,))

    def relu(self):
        return self._apply("relu", (self,))

    def abs(self):
        return self._apply("abs", (self,))

    __abs__ = abs

    def sign(self):
        return self._apply("sign", (self,))

    def relu_vjp(self):
        y = self.relu()
        mask = self._compare("gt", 0.0)

        def pullback(ct):
            return (mask.select(ct, 0.0),)

        return y, pullback

    def relu_jvp(self, dx):
        y = self.relu()
        mask = self._compare("gt", 0.0)
        return y, mask.select(dx, 0.0)

    # -- matmul -------------------------------------------------------------------

    def __matmul__(self, other):
        return self._apply("matmul", (self, self._coerce(other)))

    def __vjp_matmul__(self, other):
        a, b = self, self._coerce(other)
        y = a @ b

        def pullback(ct):
            return (ct @ b.T, a.T @ ct)

        return y, pullback

    @property
    def T(self) -> "Tensor":
        perm = tuple(reversed(range(self.rank)))
        return self.transposed(perm)

    # -- reductions & shape ops ------------------------------------------------------

    def sum(self, axes=None, keepdims: bool = False) -> "Tensor":
        return self._reduce("sum", axes, keepdims)

    def mean(self, axes=None, keepdims: bool = False) -> "Tensor":
        return self._reduce("mean", axes, keepdims)

    def max(self, axes=None, keepdims: bool = False) -> "Tensor":
        return self._reduce("max", axes, keepdims)

    def _reduce(self, kind: str, axes, keepdims: bool) -> "Tensor":
        if isinstance(axes, int):
            axes = (axes,)
        axes = normalize_axes(axes, self.shape)
        return self._apply("reduce", (self,), kind=kind, axes=axes, keepdims=keepdims)

    def reshaped(self, dims: Sequence[int]) -> "Tensor":
        dims = tuple(dims)
        if -1 in dims:
            known = 1
            for d in dims:
                if d != -1:
                    known *= d
            dims = tuple(self.size // known if d == -1 else d for d in dims)
        return self._apply("reshape", (self,), dims=dims)

    def transposed(self, perm: Sequence[int]) -> "Tensor":
        return self._apply("transpose", (self,), perm=tuple(perm))

    def broadcast_to(self, dims: Sequence[int]) -> "Tensor":
        dims = tuple(dims)
        if self.shape == dims:
            return self
        return self._apply("broadcast_to", (self,), dims=dims)

    def sum_to_match(self, target_shape) -> "Tensor":
        """Reduce broadcast dimensions so this tensor has ``target_shape``.

        The unbroadcast operation pullbacks use to route cotangents back to
        the pre-broadcast operand shapes."""
        target_shape = tuple(target_shape)
        if self.shape == target_shape:
            return self
        rank = self.rank
        lead = rank - len(target_shape)
        axes = tuple(range(lead)) + tuple(
            i + lead
            for i, d in enumerate(target_shape)
            if d == 1 and self.shape[i + lead] != 1
        )
        out = self.sum(axes=axes, keepdims=False) if axes else self
        if out.shape != target_shape:
            out = out.reshaped(target_shape)
        return out

    # -- indexing ---------------------------------------------------------------------

    def __len__(self) -> int:
        if self.rank == 0:
            raise TypeError("len() of a 0-d tensor")
        return self.shape[0]

    def __getitem__(self, index):
        """Row indexing and slicing along axis 0 (differentiable)."""
        if isinstance(index, slice):
            if index.step not in (None, 1):
                raise NotImplementedError("strided tensor slices")
            start, stop, _ = index.indices(self.shape[0])
            return self._slice_rows(start, stop)
        if isinstance(index, (int, np.integer)):
            return self._index_row(int(index))
        raise TypeError(f"unsupported tensor index {index!r}")

    def _index_row(self, i: int) -> "Tensor":
        n = self.shape[0]
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"index {i} out of range for axis of size {n}")
        return self._slice_rows(i, i + 1).reshaped(self.shape[1:])

    def _slice_rows(self, start: int, stop: int) -> "Tensor":
        starts = (start,) + (0,) * (self.rank - 1)
        sizes = (max(stop - start, 0),) + self.shape[1:]
        return self._apply("slice", (self,), starts=starts, sizes=sizes)

    def _pad_rows(self, before: int, after: int) -> "Tensor":
        paddings = ((before, after),) + ((0, 0),) * (self.rank - 1)
        return self._apply("pad", (self,), paddings=paddings)

    def __slice_vjp__(self, start, stop):
        """Pullback of ``self[start:stop]``: zero-pad the cotangent back."""
        n = self.shape[0]
        lo, hi, _ = slice(start, stop).indices(n)
        hi = max(hi, lo)
        piece = self._slice_rows(lo, hi)

        def pullback(ct):
            if not isinstance(ct, Tensor):
                ct = Tensor(ct, self.device)
            return (ct._pad_rows(lo, n - hi), None, None)

        return piece, pullback

    def __subscript_vjp__(self, i: int):
        """Pullback of ``self[i]``: embed the cotangent as one zero-padded
        row — the tensor counterpart of the Appendix B subscript adjoint."""
        n = self.shape[0]
        if i < 0:
            i += n
        row = self._index_row(i)

        def pullback(ct):
            if not isinstance(ct, Tensor):
                ct = Tensor(ct, self.device)
            expanded = ct.reshaped((1,) + self.shape[1:])
            return (expanded._pad_rows(i, n - 1 - i), None)

        return row, pullback

    # -- Differentiable conformance ---------------------------------------------------

    def __move__(self, tangent) -> "Tensor":
        return self + tangent

    def move_(self, tangent) -> None:
        """In-place exponential map: rebind this variable's storage.

        Mutable value semantics: no other tensor value can observe this
        mutation, because every operation produced fresh storage."""
        from repro.core.differentiable import ZERO

        if tangent is ZERO:
            return
        updated = self + tangent
        self._impl = updated._impl

    def __tangent_zero__(self) -> "Tensor":
        return self.zeros_like()

    def __cotangent_one__(self) -> "Tensor":
        if self.size != 1:
            from repro.errors import ReproError

            raise ReproError(
                "gradient requires a scalar loss; this tensor has shape "
                f"{self.shape}"
            )
        return self.ones_like()
