"""2-D convolution via im2col and batched BLAS GEMMs."""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.module import Module, Parameter


class Conv2d(Module):
    """NCHW convolution ``y = W * x + b`` implemented with im2col/col2im.

    Weight shape ``(C_out, C_in, KH, KW)``.  As everywhere in this framework
    the input gradient is computed with the weights at *backward* time while
    the weight gradient uses the cached forward unfolding.

    With ``K = C_in*KH*KW`` and ``P = OH*OW`` the three contractions are
    ``np.matmul`` calls, one BLAS GEMM per batch element: forward
    ``(C_out,K) @ (B,K,P)``, weight grad ``sum_b (C_out,P) @ (P,K)`` and
    column grad ``(K,C_out) @ (B,C_out,P)``.  The unfolded buffers are
    plainly allocated, never arena slabs (see :func:`repro.nn.functional.im2col`).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
    ):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = (kernel_size, kernel_size)
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            init.kaiming_normal(
                (out_channels, in_channels, kernel_size, kernel_size), fan_in, rng
            )
        )
        self.use_bias = bias
        if bias:
            self.bias = Parameter(init.zeros((out_channels,)))
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None
        self._out_hw: tuple[int, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(f"expected (B,{self.in_channels},H,W), got {x.shape}")
        cols, (oh, ow) = F.im2col(x, self.kernel_size, self.stride, self.padding)
        self._cols = cols
        self._x_shape = x.shape
        self._out_hw = (oh, ow)
        w2 = self.weight.data.reshape(self.out_channels, -1)
        # (B, C_out, OH*OW) = (C_out, K) @ (B, K, OH*OW)
        y = np.matmul(w2, cols)
        if self.use_bias:
            y += self.bias.data[:, None]
        return y.reshape(x.shape[0], self.out_channels, oh, ow)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cols is None or self._x_shape is None or self._out_hw is None:
            raise RuntimeError("backward called before forward")
        B = grad_out.shape[0]
        g2 = grad_out.reshape(B, self.out_channels, -1)
        # weight grad from cached forward unfolding
        dw = np.matmul(g2, self._cols.transpose(0, 2, 1)).sum(axis=0)
        self.weight.grad += dw.reshape(self.weight.data.shape)
        if self.use_bias:
            self.bias.grad += g2.sum(axis=(0, 2))
        # input grad uses backward-time weights
        w2 = self.weight.data.reshape(self.out_channels, -1)
        dcols = np.matmul(w2.T, g2)
        return F.col2im(dcols, self._x_shape, self.kernel_size, self.stride, self.padding)
