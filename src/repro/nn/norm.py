"""Normalisation layers: BatchNorm2d, GroupNorm, LayerNorm.

All three share one normalisation kernel: reshape so the reduction axis is
last, normalise, and apply the standard fused backward

``dx = ivar * (g - mean(g) - xhat * mean(g * xhat))``

where ``g`` is the gradient w.r.t. ``xhat``.  The paper uses BatchNorm for
ResNet but notes (§4.1) that small microbatches are problematic for it; the
model zoo therefore defaults to GroupNorm [24] for tiny microbatches.
"""

from __future__ import annotations

import numpy as np

from repro.nn import arena, init
from repro.nn.module import Module, Parameter


def _normalize(x: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Normalise over the last axis; returns (xhat, ivar)."""
    mean = x.mean(axis=-1, keepdims=True)
    xhat = arena.empty(x.shape, np.result_type(x, mean))
    np.subtract(x, mean, out=xhat)
    # var = mean((x - mean)^2), the arithmetic np.var performs, without
    # np.var's second pass over x for a mean we already have
    sq = np.multiply(xhat, xhat)
    var = sq.sum(axis=-1, keepdims=True)
    var /= x.shape[-1]
    ivar = 1.0 / np.sqrt(var + eps)
    np.multiply(xhat, ivar, out=xhat)
    return xhat, ivar


def _normalize_backward(g: np.ndarray, xhat: np.ndarray, ivar: np.ndarray) -> np.ndarray:
    """Backward of :func:`_normalize` w.r.t. x, given grad w.r.t. xhat."""
    gm = g.mean(axis=-1, keepdims=True)
    t = arena.empty(g.shape, np.result_type(g, xhat))
    np.multiply(g, xhat, out=t)
    gxm = t.mean(axis=-1, keepdims=True)
    np.subtract(g, gm, out=t)
    u = arena.empty(t.shape, t.dtype)
    np.multiply(xhat, gxm, out=u)
    np.subtract(t, u, out=t)
    np.multiply(ivar, t, out=t)
    return t


class BatchNorm2d(Module):
    """Per-channel batch normalisation for NCHW inputs with running stats."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(init.ones((num_features,)))
        self.bias = Parameter(init.zeros((num_features,)))
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.num_features:
            raise ValueError(f"expected (B,{self.num_features},H,W), got {x.shape}")
        if self.training:
            if x.shape[0] * x.shape[2] * x.shape[3] < 2:
                raise ValueError("BatchNorm2d needs more than one element per channel")
            # (C, B*H*W): reduce per channel
            xt = x.transpose(1, 0, 2, 3).reshape(self.num_features, -1)
            xhat, ivar = _normalize(xt, self.eps)
            self._cache = (xhat, ivar, x.shape)
            mean = xt.mean(axis=-1)
            var = xt.var(axis=-1)
            m = self.momentum
            self.running_mean = (1 - m) * self.running_mean + m * mean
            self.running_var = (1 - m) * self.running_var + m * var
            y = xhat * self.weight.data[:, None] + self.bias.data[:, None]
            return y.reshape(self.num_features, x.shape[0], *x.shape[2:]).transpose(1, 0, 2, 3)
        ivar = 1.0 / np.sqrt(self.running_var + self.eps)
        xhat = (x - self.running_mean[None, :, None, None]) * ivar[None, :, None, None]
        self._cache = None
        return xhat * self.weight.data[None, :, None, None] + self.bias.data[None, :, None, None]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward requires a training-mode forward")
        xhat, ivar, x_shape = self._cache
        gt = grad_out.transpose(1, 0, 2, 3).reshape(self.num_features, -1)
        self.weight.grad += (gt * xhat).sum(axis=-1)
        self.bias.grad += gt.sum(axis=-1)
        dxhat = gt * self.weight.data[:, None]
        dxt = _normalize_backward(dxhat, xhat, ivar)
        return dxt.reshape(self.num_features, x_shape[0], *x_shape[2:]).transpose(1, 0, 2, 3)


class GroupNorm(Module):
    """Group normalisation for NCHW inputs (microbatch-size independent)."""

    def __init__(self, num_groups: int, num_channels: int, eps: float = 1e-5):
        super().__init__()
        if num_channels % num_groups != 0:
            raise ValueError(f"{num_channels} channels not divisible by {num_groups} groups")
        self.num_groups = num_groups
        self.num_channels = num_channels
        self.eps = eps
        self.weight = Parameter(init.ones((num_channels,)))
        self.bias = Parameter(init.zeros((num_channels,)))
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.num_channels:
            raise ValueError(f"expected (B,{self.num_channels},H,W), got {x.shape}")
        B, C, H, W = x.shape
        xg = x.reshape(B, self.num_groups, -1)
        xhat, ivar = _normalize(xg, self.eps)
        self._cache = (xhat, ivar, x.shape)
        # y and backward's t are plain allocations, not arena slabs: a slab
        # stays resident for two generations, which per (microbatch x norm)
        # is 60 MiB of peak_rss_mb on resnet_conv (docs/ARCHITECTURE.md)
        y = np.multiply(xhat.reshape(B, C, H, W), self.weight.data[:, None, None])
        np.add(y, self.bias.data[:, None, None], out=y)
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        xhat, ivar, x_shape = self._cache
        B, C, H, W = x_shape
        t = np.multiply(grad_out, xhat.reshape(B, C, H, W))
        self.weight.grad += t.sum(axis=(0, 2, 3))
        self.bias.grad += grad_out.sum(axis=(0, 2, 3))
        # t's reduction is consumed; reuse it for dxhat
        np.multiply(grad_out, self.weight.data[:, None, None], out=t)
        dx = _normalize_backward(t.reshape(B, self.num_groups, -1), xhat, ivar)
        return dx.reshape(B, C, H, W)


class LayerNorm(Module):
    """Layer normalisation over the trailing feature axis."""

    def __init__(self, features: int, eps: float = 1e-5):
        super().__init__()
        self.features = features
        self.eps = eps
        self.weight = Parameter(init.ones((features,)))
        self.bias = Parameter(init.zeros((features,)))
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != self.features:
            raise ValueError(f"expected trailing dim {self.features}, got {x.shape}")
        xhat, ivar = _normalize(x, self.eps)
        self._cache = (xhat, ivar)
        y = arena.empty(xhat.shape, np.result_type(xhat, self.weight.data))
        np.multiply(xhat, self.weight.data, out=y)
        np.add(y, self.bias.data, out=y)
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        xhat, ivar = self._cache
        flat_g = grad_out.reshape(-1, self.features)
        flat_x = xhat.reshape(-1, self.features)
        t = arena.empty(flat_g.shape, np.result_type(flat_g, flat_x))
        np.multiply(flat_g, flat_x, out=t)
        self.weight.grad += t.sum(axis=0)
        self.bias.grad += flat_g.sum(axis=0)
        dxhat = arena.empty(grad_out.shape, np.result_type(grad_out, self.weight.data))
        np.multiply(grad_out, self.weight.data, out=dxhat)
        return _normalize_backward(dxhat, xhat, ivar)
