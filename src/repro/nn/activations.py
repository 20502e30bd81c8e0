"""Parameter-free activation modules.

All kernels allocate through :mod:`repro.nn.arena` and compute with
``out=`` ufunc calls whose operand order matches the plain expressions
they replaced, so results are bit-identical with or without an arena.
Modules whose output is a pure elementwise function additionally expose
``pipeline_out_meta``/``forward_into`` so the pipeline runtime can have
them compute straight into a reserved transport slot.
"""

from __future__ import annotations

import numpy as np

from repro.nn import arena
from repro.nn import functional as F
from repro.nn.module import Module


class ReLU(Module):
    def __init__(self):
        super().__init__()
        self._mask: np.ndarray | None = None

    def pipeline_out_meta(self, x: np.ndarray) -> tuple[tuple[int, ...], np.dtype]:
        return x.shape, np.result_type(x, 0.0)

    def forward(self, x: np.ndarray) -> np.ndarray:
        shape, dtype = self.pipeline_out_meta(x)
        y = arena.empty(shape, dtype)
        self.forward_into(x, y)
        return y

    def forward_into(self, x: np.ndarray, out: np.ndarray) -> None:
        mask = arena.empty(x.shape, bool)
        np.greater(x, 0, out=mask)
        self._mask = mask
        # np.maximum (not np.where on the mask) so NaNs propagate instead of
        # being silently zeroed — divergence must stay visible in the loss.
        np.maximum(x, 0.0, out=out)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """``grad_out * mask``.  A multiply, not a masked copy: a NaN/inf
        gradient under a closed mask propagates as NaN instead of being
        zeroed, for the same reason as the forward — divergence must stay
        visible."""
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        g = arena.empty(grad_out.shape, np.result_type(grad_out, 0.0))
        np.multiply(grad_out, self._mask, out=g)
        return g


class GELU(Module):
    def __init__(self):
        super().__init__()
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return F.gelu(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        g = F.gelu_grad(self._x)
        np.multiply(grad_out, g, out=g)
        return g


class Tanh(Module):
    def __init__(self):
        super().__init__()
        self._y: np.ndarray | None = None

    def pipeline_out_meta(self, x: np.ndarray) -> tuple[tuple[int, ...], np.dtype]:
        return x.shape, np.result_type(x, 0.0)

    def forward(self, x: np.ndarray) -> np.ndarray:
        shape, dtype = self.pipeline_out_meta(x)
        y = arena.empty(shape, dtype)
        self.forward_into(x, y)
        return y

    def forward_into(self, x: np.ndarray, out: np.ndarray) -> None:
        np.tanh(x, out=out)
        self._y = out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._y is None:
            raise RuntimeError("backward called before forward")
        t = arena.empty(self._y.shape, self._y.dtype)
        np.square(self._y, out=t)  # what ``y**2`` lowers to (numpy fast scalar power)
        np.subtract(1.0, t, out=t)
        np.multiply(grad_out, t, out=t)
        return t


class Sigmoid(Module):
    def __init__(self):
        super().__init__()
        self._y: np.ndarray | None = None

    def pipeline_out_meta(self, x: np.ndarray) -> tuple[tuple[int, ...], np.dtype]:
        return x.shape, np.result_type(x, 0.0)

    def forward(self, x: np.ndarray) -> np.ndarray:
        shape, dtype = self.pipeline_out_meta(x)
        y = arena.empty(shape, dtype)
        self.forward_into(x, y)
        return y

    def forward_into(self, x: np.ndarray, out: np.ndarray) -> None:
        np.negative(x, out=out)
        np.exp(out, out=out)
        np.add(1.0, out, out=out)
        np.divide(1.0, out, out=out)
        self._y = out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._y is None:
            raise RuntimeError("backward called before forward")
        g = arena.empty(grad_out.shape, np.result_type(grad_out, self._y))
        np.multiply(grad_out, self._y, out=g)
        t = arena.empty(self._y.shape, self._y.dtype)
        np.subtract(1.0, self._y, out=t)
        np.multiply(g, t, out=g)
        return g


class Identity(Module):
    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out
