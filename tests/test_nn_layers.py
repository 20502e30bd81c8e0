"""Gradient checks and behaviour tests for every layer type.

Each layer's analytic backward is validated against central differences for
both parameter gradients and input gradients — the foundation the entire
pipeline simulation rests on.
"""

import numpy as np
import pytest

from repro.nn import (
    AvgPool2d,
    BatchNorm2d,
    Bias,
    Conv2d,
    Dropout,
    Embedding,
    Flatten,
    GELU,
    GlobalAvgPool2d,
    GroupNorm,
    Identity,
    LayerNorm,
    Linear,
    MaxPool2d,
    MultiHeadAttention,
    PositionalEncoding,
    ReLU,
    Sigmoid,
    Tanh,
    causal_mask,
    padding_mask,
)
from tests.helpers import check_input_grad, check_param_grads


def _scalar_loss(out, w):
    return float(np.sum(out * w))


class TestLinear:
    def test_forward_shape(self, rng):
        m = Linear(5, 3, rng)
        assert m(rng.normal(size=(4, 5))).shape == (4, 3)

    def test_forward_3d(self, rng):
        m = Linear(5, 3, rng)
        assert m(rng.normal(size=(2, 7, 5))).shape == (2, 7, 3)

    def test_rejects_wrong_dim(self, rng):
        with pytest.raises(ValueError):
            Linear(5, 3, rng)(rng.normal(size=(4, 4)))

    def test_grad_check(self, rng, rng2):
        m = Linear(4, 3, rng)
        x = rng.normal(size=(5, 4))
        w = rng.normal(size=(5, 3))

        def loss():
            return _scalar_loss(m(x), w)

        def backward():
            m(x)
            m.backward(w)

        check_param_grads(m, loss, backward, rng2)

    def test_input_grad_check(self, rng, rng2):
        m = Linear(4, 3, rng)
        x = rng.normal(size=(5, 4))
        w = rng.normal(size=(5, 3))
        m(x)
        dx = m.backward(w)
        check_input_grad(lambda xx: _scalar_loss(m(xx), w), x, dx, rng2)

    def test_backward_before_forward_raises(self, rng):
        with pytest.raises(RuntimeError):
            Linear(2, 2, rng, bias=False)._x = None or Linear(2, 2, rng).backward(np.ones((1, 2)))

    def test_input_grad_uses_backward_time_weights(self, rng):
        """The defining pipeline property: dx is computed with the weights
        present at backward time, not forward time."""
        m = Linear(3, 2, rng, bias=False)
        x = rng.normal(size=(4, 3))
        m(x)
        w_new = rng.normal(size=(3, 2))
        m.weight.data = w_new
        g = rng.normal(size=(4, 2))
        dx = m.backward(g)
        np.testing.assert_allclose(dx, g @ w_new.T)

    def test_weight_grad_uses_cached_input(self, rng):
        m = Linear(3, 2, rng, bias=False)
        x = rng.normal(size=(4, 3))
        m(x)
        m.weight.data = rng.normal(size=(3, 2))  # swap weights post-forward
        g = rng.normal(size=(4, 2))
        m.backward(g)
        np.testing.assert_allclose(m.weight.grad, x.T @ g)


class TestBiasFlatten:
    def test_bias_grad(self, rng, rng2):
        m = Bias(4)
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(3, 4))

        def loss():
            return _scalar_loss(m(x), w)

        def backward():
            m(x)
            m.backward(w)

        check_param_grads(m, loss, backward, rng2)

    def test_flatten_roundtrip(self, rng):
        m = Flatten()
        x = rng.normal(size=(2, 3, 4))
        y = m(x)
        assert y.shape == (2, 12)
        assert m.backward(y).shape == x.shape


class TestActivations:
    @pytest.mark.parametrize("act_cls", [ReLU, GELU, Tanh, Sigmoid])
    def test_input_grad(self, act_cls, rng, rng2):
        m = act_cls()
        x = rng.normal(size=(3, 4)) + 0.05  # keep away from ReLU kink
        w = rng.normal(size=(3, 4))
        m(x)
        dx = m.backward(w)
        check_input_grad(lambda xx: _scalar_loss(m(xx), w), x, dx, rng2)

    def test_relu_zeroes_negatives(self):
        out = ReLU()(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out, [0, 0, 2])

    def test_relu_backward_is_a_multiply(self):
        """Open mask passes the gradient, closed mask zeroes a finite one, and
        a NaN gradient under a closed mask stays NaN (divergence stays
        visible) — the semantics of ``grad_out * mask``."""
        m = ReLU()
        m(np.array([1.0, -1.0, 2.0, -2.0]))
        g = m.backward(np.array([3.0, 5.0, np.nan, np.nan]))
        np.testing.assert_array_equal(g[:2], [3.0, 0.0])
        assert np.isnan(g[2]) and np.isnan(g[3])

    def test_identity_passthrough(self, rng):
        m = Identity()
        x = rng.normal(size=(2, 2))
        np.testing.assert_array_equal(m(x), x)
        np.testing.assert_array_equal(m.backward(x), x)


class TestConv2d:
    def test_forward_shape(self, rng):
        m = Conv2d(3, 5, 3, rng, stride=1, padding=1)
        assert m(rng.normal(size=(2, 3, 8, 8))).shape == (2, 5, 8, 8)

    def test_forward_stride(self, rng):
        m = Conv2d(3, 5, 3, rng, stride=2, padding=1)
        assert m(rng.normal(size=(2, 3, 8, 8))).shape == (2, 5, 4, 4)

    def test_rejects_wrong_channels(self, rng):
        with pytest.raises(ValueError):
            Conv2d(3, 5, 3, rng)(rng.normal(size=(1, 2, 8, 8)))

    def test_matches_direct_convolution(self, rng):
        m = Conv2d(1, 1, 3, rng, padding=0, bias=False)
        x = rng.normal(size=(1, 1, 5, 5))
        out = m(x)
        k = m.weight.data[0, 0]
        expected = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                expected[i, j] = np.sum(x[0, 0, i : i + 3, j : j + 3] * k)
        np.testing.assert_allclose(out[0, 0], expected)

    def test_grad_check(self, rng, rng2):
        m = Conv2d(2, 3, 3, rng, stride=2, padding=1)
        x = rng.normal(size=(2, 2, 6, 6))
        w = rng.normal(size=(2, 3, 3, 3))

        def loss():
            return _scalar_loss(m(x), w)

        def backward():
            m(x)
            m.backward(w)

        check_param_grads(m, loss, backward, rng2)

    def test_input_grad_check(self, rng, rng2):
        m = Conv2d(2, 3, 3, rng, padding=1)
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(1, 3, 5, 5))
        m(x)
        dx = m.backward(w)
        check_input_grad(lambda xx: _scalar_loss(m(xx), w), x, dx, rng2)


def _reference_conv(x, w, b, g, stride, padding):
    """Direct convolution and its three gradients, one scalar tap at a time
    (loops over batch, out-channel, output row/col, kernel row/col; only the
    in-channel axis is vectorised).  Returns ``(y, dw, db, dx)`` for the loss
    ``sum(y * g)``."""
    B, C, H, W = x.shape
    O, _, KH, KW = w.shape
    _, _, OH, OW = g.shape
    xp = np.zeros((B, C, H + 2 * padding, W + 2 * padding))
    xp[:, :, padding : padding + H, padding : padding + W] = x
    y = np.zeros((B, O, OH, OW))
    dw = np.zeros_like(w)
    dxp = np.zeros_like(xp)
    for n in range(B):
        for o in range(O):
            for i in range(OH):
                for j in range(OW):
                    for kh in range(KH):
                        for kw in range(KW):
                            r, c = i * stride + kh, j * stride + kw
                            y[n, o, i, j] += xp[n, :, r, c] @ w[o, :, kh, kw]
                            dw[o, :, kh, kw] += g[n, o, i, j] * xp[n, :, r, c]
                            dxp[n, :, r, c] += g[n, o, i, j] * w[o, :, kh, kw]
    if b is not None:
        y += b[None, :, None, None]
    db = g.sum(axis=(0, 2, 3))
    return y, dw, db, dxp[:, :, padding : padding + H, padding : padding + W]


class TestConv2dReference:
    """Conv2d's GEMM path against the loop reference, over every
    kernel/stride/padding/bias combination the model zoo uses.  The
    non-contiguous input is the transposed view ``BatchNorm2d.forward``
    returns; with ``padding=0`` im2col strides over it directly."""

    @pytest.mark.parametrize("contiguous", [True, False])
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("kernel", [1, 3])
    def test_forward_and_grads(self, kernel, stride, padding, bias, contiguous, rng):
        m = Conv2d(3, 4, kernel, rng, stride=stride, padding=padding, bias=bias)
        if bias:
            m.bias.data[:] = rng.normal(size=4)
        if contiguous:
            x = rng.normal(size=(2, 3, 6, 7))
        else:
            x = rng.normal(size=(3, 2, 6, 7)).transpose(1, 0, 2, 3)
            assert not x.flags.c_contiguous
        x_before = x.copy()
        y = m(x)
        g = rng.normal(size=y.shape)
        dx = m.backward(g)
        ref_y, ref_dw, ref_db, ref_dx = _reference_conv(
            x, m.weight.data, m.bias.data if bias else None, g, stride, padding
        )
        np.testing.assert_array_equal(x, x_before)
        np.testing.assert_allclose(y, ref_y, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(m.weight.grad, ref_dw, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(dx, ref_dx, rtol=1e-12, atol=1e-12)
        if bias:
            np.testing.assert_allclose(m.bias.grad, ref_db, rtol=1e-12, atol=1e-12)


class TestNorms:
    def test_batchnorm_normalizes(self, rng):
        m = BatchNorm2d(4)
        x = rng.normal(2.0, 3.0, size=(8, 4, 5, 5))
        y = m(x)
        assert abs(y.mean()) < 1e-7
        assert y.std() == pytest.approx(1.0, rel=1e-2)

    def test_batchnorm_running_stats_used_in_eval(self, rng):
        m = BatchNorm2d(2, momentum=1.0)
        x = rng.normal(5.0, 2.0, size=(16, 2, 4, 4))
        m(x)
        m.eval()
        y = m(x)
        assert abs(y.mean()) < 0.1

    def test_batchnorm_grad_check(self, rng, rng2):
        m = BatchNorm2d(3)
        x = rng.normal(size=(4, 3, 2, 2))
        w = rng.normal(size=(4, 3, 2, 2))

        def loss():
            return _scalar_loss(m(x), w)

        def backward():
            m(x)
            m.backward(w)

        check_param_grads(m, loss, backward, rng2)

    def test_batchnorm_input_grad(self, rng, rng2):
        m = BatchNorm2d(2)
        x = rng.normal(size=(3, 2, 2, 2))
        w = rng.normal(size=(3, 2, 2, 2))
        m(x)
        dx = m.backward(w)
        check_input_grad(lambda xx: _scalar_loss(m(xx), w), x, dx, rng2, atol=1e-4)

    def test_groupnorm_independent_of_batch(self, rng):
        """GroupNorm output for sample i doesn't depend on other samples —
        why the paper recommends it for tiny microbatches."""
        m = GroupNorm(2, 4)
        x = rng.normal(size=(4, 4, 3, 3))
        full = m(x)
        single = m(x[:1])
        np.testing.assert_allclose(full[:1], single)

    def test_groupnorm_rejects_bad_groups(self):
        with pytest.raises(ValueError):
            GroupNorm(3, 4)

    def test_groupnorm_grad_check(self, rng, rng2):
        m = GroupNorm(2, 4)
        x = rng.normal(size=(2, 4, 3, 3))
        w = rng.normal(size=(2, 4, 3, 3))

        def loss():
            return _scalar_loss(m(x), w)

        def backward():
            m(x)
            m.backward(w)

        check_param_grads(m, loss, backward, rng2)

    def test_groupnorm_input_grad(self, rng, rng2):
        m = GroupNorm(2, 4)
        x = rng.normal(size=(2, 4, 2, 2))
        w = rng.normal(size=(2, 4, 2, 2))
        m(x)
        dx = m.backward(w)
        check_input_grad(lambda xx: _scalar_loss(m(xx), w), x, dx, rng2, atol=1e-4)

    def test_layernorm_normalizes_rows(self, rng):
        m = LayerNorm(8)
        x = rng.normal(3.0, 2.0, size=(4, 8))
        y = m(x)
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-10)

    def test_layernorm_grad_check(self, rng, rng2):
        m = LayerNorm(6)
        x = rng.normal(size=(3, 6))
        w = rng.normal(size=(3, 6))

        def loss():
            return _scalar_loss(m(x), w)

        def backward():
            m(x)
            m.backward(w)

        check_param_grads(m, loss, backward, rng2)

    def test_layernorm_input_grad(self, rng, rng2):
        m = LayerNorm(6)
        x = rng.normal(size=(2, 4, 6))
        w = rng.normal(size=(2, 4, 6))
        m(x)
        dx = m.backward(w)
        check_input_grad(lambda xx: _scalar_loss(m(xx), w), x, dx, rng2, atol=1e-4)


class TestPooling:
    def test_avgpool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = AvgPool2d(2)(x)
        np.testing.assert_allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_maxpool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = MaxPool2d(2)(x)
        np.testing.assert_allclose(out[0, 0], [[5, 7], [13, 15]])

    @pytest.mark.parametrize("pool_cls", [AvgPool2d, MaxPool2d])
    def test_pool_input_grad(self, pool_cls, rng, rng2):
        m = pool_cls(2)
        x = rng.normal(size=(2, 3, 4, 4))
        w = rng.normal(size=(2, 3, 2, 2))
        m(x)
        dx = m.backward(w)
        check_input_grad(lambda xx: _scalar_loss(m(xx), w), x, dx, rng2)

    def test_global_avg_pool(self, rng):
        m = GlobalAvgPool2d()
        x = rng.normal(size=(2, 3, 4, 4))
        np.testing.assert_allclose(m(x), x.mean(axis=(2, 3)))

    def test_global_avg_pool_grad(self, rng, rng2):
        m = GlobalAvgPool2d()
        x = rng.normal(size=(2, 3, 4, 4))
        w = rng.normal(size=(2, 3))
        m(x)
        dx = m.backward(w)
        check_input_grad(lambda xx: _scalar_loss(m(xx), w), x, dx, rng2)


class TestEmbedding:
    def test_lookup(self, rng):
        m = Embedding(10, 4, rng)
        idx = np.array([[1, 2], [3, 1]])
        out = m(idx)
        np.testing.assert_allclose(out[0, 0], m.weight.data[1])
        np.testing.assert_allclose(out[1, 1], m.weight.data[1])

    def test_rejects_float_indices(self, rng):
        with pytest.raises(TypeError):
            Embedding(10, 4, rng)(np.array([[1.5]]))

    def test_rejects_out_of_vocab(self, rng):
        with pytest.raises(ValueError):
            Embedding(10, 4, rng)(np.array([[10]]))

    def test_scatter_add_grad(self, rng):
        m = Embedding(5, 3, rng)
        idx = np.array([[0, 0, 1]])
        m(idx)
        g = np.ones((1, 3, 3))
        m.backward(g)
        np.testing.assert_allclose(m.weight.grad[0], [2, 2, 2])  # two hits
        np.testing.assert_allclose(m.weight.grad[1], [1, 1, 1])
        np.testing.assert_allclose(m.weight.grad[2], [0, 0, 0])

    def test_cache_stack_for_shared_use(self, rng):
        """Tied embedding called twice must pop backward caches LIFO."""
        m = Embedding(5, 2, rng)
        m(np.array([[0]]))
        m(np.array([[1]]))
        m.backward(np.ones((1, 1, 2)))  # pops idx=1
        np.testing.assert_allclose(m.weight.grad[1], [1, 1])
        np.testing.assert_allclose(m.weight.grad[0], [0, 0])
        m.backward(np.ones((1, 1, 2)))  # pops idx=0
        np.testing.assert_allclose(m.weight.grad[0], [1, 1])

    def test_positional_encoding_added(self, rng):
        pe = PositionalEncoding(8, max_len=16)
        x = np.zeros((1, 4, 8))
        out = pe(x)
        np.testing.assert_allclose(out[0], pe.pe[:4])

    def test_positional_encoding_rejects_long_seq(self):
        pe = PositionalEncoding(8, max_len=4)
        with pytest.raises(ValueError):
            pe(np.zeros((1, 5, 8)))


class TestDropout:
    def test_eval_is_identity(self, rng):
        m = Dropout(0.5, rng)
        m.eval()
        x = rng.normal(size=(4, 4))
        np.testing.assert_array_equal(m(x), x)

    def test_p_zero_is_identity(self, rng):
        m = Dropout(0.0, rng)
        x = rng.normal(size=(4, 4))
        np.testing.assert_array_equal(m(x), x)

    def test_train_preserves_expectation(self, rng):
        m = Dropout(0.3, rng)
        x = np.ones((200, 200))
        assert m(x).mean() == pytest.approx(1.0, abs=0.02)

    def test_backward_uses_same_mask(self, rng):
        m = Dropout(0.5, rng)
        x = np.ones((8, 8))
        y = m(x)
        g = m.backward(np.ones_like(x))
        np.testing.assert_array_equal((y == 0), (g == 0))

    def test_rejects_bad_p(self, rng):
        with pytest.raises(ValueError):
            Dropout(1.0, rng)


class TestAttention:
    def test_forward_shape(self, rng):
        m = MultiHeadAttention(8, 2, rng)
        x = rng.normal(size=(2, 5, 8))
        assert m(x, x, x).shape == (2, 5, 8)

    def test_rejects_bad_heads(self, rng):
        with pytest.raises(ValueError):
            MultiHeadAttention(8, 3, rng)

    def test_causal_mask_blocks_future(self, rng):
        m = MultiHeadAttention(8, 2, rng)
        x = rng.normal(size=(1, 4, 8))
        mask = causal_mask(4)
        out1 = m(x, x, x, mask)
        x2 = x.copy()
        x2[0, 3] += 10.0  # perturb the last position
        out2 = m(x2, x2, x2, mask)
        np.testing.assert_allclose(out1[0, :3], out2[0, :3], atol=1e-10)

    def test_padding_mask_shape(self):
        mask = padding_mask(np.array([2, 4]), 4)
        assert mask.shape == (2, 1, 1, 4)
        assert mask[0, 0, 0].tolist() == [True, True, False, False]

    def test_grad_check_self_attention(self, rng, rng2):
        m = MultiHeadAttention(6, 2, rng)
        x = rng.normal(size=(2, 3, 6))
        w = rng.normal(size=(2, 3, 6))

        def loss():
            return _scalar_loss(m(x, x, x), w)

        def backward():
            m(x, x, x)
            dq, dk, dv = m.backward(w)

        check_param_grads(m, loss, backward, rng2, atol=1e-4)

    def test_input_grad_self_attention(self, rng, rng2):
        m = MultiHeadAttention(6, 2, rng)
        x = rng.normal(size=(1, 3, 6))
        w = rng.normal(size=(1, 3, 6))
        m(x, x, x)
        dq, dk, dv = m.backward(w)
        dx = dq + dk + dv
        check_input_grad(lambda xx: _scalar_loss(m(xx, xx, xx), w), x, dx, rng2, atol=1e-4)

    def test_cross_attention_grads_split(self, rng, rng2):
        m = MultiHeadAttention(6, 2, rng)
        q = rng.normal(size=(1, 2, 6))
        kv = rng.normal(size=(1, 4, 6))
        w = rng.normal(size=(1, 2, 6))
        m(q, kv, kv)
        dq, dk, dv = m.backward(w)
        assert dq.shape == q.shape
        assert dk.shape == kv.shape and dv.shape == kv.shape
        check_input_grad(lambda qq: _scalar_loss(m(qq, kv, kv), w), q, dq, rng2, atol=1e-4)
