"""Stateless numerical kernels shared by layers: stable softmax, GELU,
im2col/col2im for convolution, one-hot encoding.

Everything is vectorised numpy; the only Python loops are over kernel
positions (KH*KW, at most a handful of iterations).
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

from repro.nn import arena

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

# The big elementwise kernels below allocate through repro.nn.arena and
# chain out= ufunc calls in the exact operand order of the plain
# expressions they replaced — bit-identical results, no fresh temporaries
# on the pipeline workers' steady-state path.


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    t = arena.empty(x.shape, np.result_type(x, 0.0))
    np.subtract(x, np.max(x, axis=axis, keepdims=True), out=t)
    np.exp(t, out=t)
    np.divide(t, np.sum(t, axis=axis, keepdims=True), out=t)
    return t


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = arena.empty(x.shape, np.result_type(x, 0.0))
    np.subtract(x, np.max(x, axis=axis, keepdims=True), out=shifted)
    e = arena.empty(shifted.shape, shifted.dtype)
    np.exp(shifted, out=e)
    np.subtract(shifted, np.log(np.sum(e, axis=axis, keepdims=True)), out=shifted)
    return shifted


def softmax_backward(softmax_out: np.ndarray, grad_out: np.ndarray, axis: int = -1) -> np.ndarray:
    """Gradient through softmax given its output ``s``: ``s*(g - sum(g*s))``."""
    t = arena.empty(grad_out.shape, np.result_type(grad_out, softmax_out))
    np.multiply(grad_out, softmax_out, out=t)
    inner = np.sum(t, axis=axis, keepdims=True)
    np.subtract(grad_out, inner, out=t)
    np.multiply(softmax_out, t, out=t)
    return t


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact GELU ``0.5 x (1 + erf(x/√2))``."""
    t = arena.empty(x.shape, np.result_type(x, 0.0))
    np.divide(x, _SQRT2, out=t)
    erf(t, out=t)
    np.add(1.0, t, out=t)
    y = arena.empty(x.shape, t.dtype)
    np.multiply(0.5, x, out=y)
    np.multiply(y, t, out=y)
    return y


def gelu_grad(x: np.ndarray) -> np.ndarray:
    """d/dx GELU(x) = Φ(x) + x·φ(x)."""
    cdf = arena.empty(x.shape, np.result_type(x, 0.0))
    np.divide(x, _SQRT2, out=cdf)
    erf(cdf, out=cdf)
    np.add(1.0, cdf, out=cdf)
    np.multiply(0.5, cdf, out=cdf)
    pdf = arena.empty(x.shape, cdf.dtype)
    np.multiply(-0.5, x, out=pdf)
    np.multiply(pdf, x, out=pdf)
    np.exp(pdf, out=pdf)
    np.multiply(_INV_SQRT_2PI, pdf, out=pdf)
    np.multiply(x, pdf, out=pdf)
    np.add(cdf, pdf, out=cdf)
    return cdf


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """(N,) int labels -> (N, num_classes) float one-hot."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("labels out of range for num_classes")
    out = arena.empty((labels.shape[0], num_classes), np.float64)
    out.fill(0.0)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive conv output size for input={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


def im2col(
    x: np.ndarray, kernel: tuple[int, int], stride: int, padding: int
) -> tuple[np.ndarray, tuple[int, int]]:
    """Unfold NCHW input into columns.

    Returns ``(cols, (OH, OW))`` where ``cols`` has shape
    ``(B, C*KH*KW, OH*OW)``.
    """
    B, C, H, W = x.shape
    KH, KW = kernel
    OH = conv_output_size(H, KH, stride, padding)
    OW = conv_output_size(W, KW, stride, padding)
    if padding:
        padded = np.zeros((B, C, H + 2 * padding, W + 2 * padding), x.dtype)
        padded[:, :, padding:-padding, padding:-padding] = x
        x = padded
    # x's own strides, so a non-contiguous caller array is unfolded in place
    sB, sC, sH, sW = x.strides
    view = np.lib.stride_tricks.as_strided(
        x,
        shape=(B, C, KH, KW, OH, OW),
        strides=(sB, sC, sH, sW, sH * stride, sW * stride),
        writeable=False,
    )
    # Plainly allocated, not arena.empty: an arena never reuses a slab within
    # a step, so every (microbatch x conv) unfolding would stay resident for
    # two generations (docs/ARCHITECTURE.md, "Conv kernels").
    cols = np.empty((B, C * KH * KW, OH * OW), x.dtype)
    np.copyto(cols.reshape(B, C, KH, KW, OH, OW), view)
    return cols, (OH, OW)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: tuple[int, int],
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold columns back into NCHW, summing overlapping contributions.

    Inverse-adjoint of :func:`im2col`; used for the convolution input grad.
    """
    B, C, H, W = x_shape
    KH, KW = kernel
    OH = conv_output_size(H, KH, stride, padding)
    OW = conv_output_size(W, KW, stride, padding)
    cols = cols.reshape(B, C, KH, KW, OH, OW)
    padded = np.zeros((B, C, H + 2 * padding, W + 2 * padding))
    for kh in range(KH):
        h_end = kh + stride * OH
        for kw in range(KW):
            w_end = kw + stride * OW
            padded[:, :, kh:h_end:stride, kw:w_end:stride] += cols[:, :, kh, kw]
    if padding:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded
