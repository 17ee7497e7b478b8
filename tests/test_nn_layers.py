"""Gradient checks and behavioural tests for every nn layer."""

import numpy as np
import pytest

from repro.nn import (
    BatchNorm2d,
    Conv2d,
    Dropout,
    Embedding,
    GELU,
    LayerNorm,
    Linear,
    LSTM,
    MaxPool2d,
    MultiHeadSelfAttention,
    ReLU,
    Sigmoid,
    SoftmaxCrossEntropy,
    Tanh,
    TransformerEncoderLayer,
)
from util_gradcheck import gradcheck_input, gradcheck_model


def _x(*shape, seed=0, scale=1.0):
    return (np.random.default_rng(seed).normal(size=shape) * scale
            ).astype(np.float32)


class TestLinear:
    def test_forward_matches_numpy(self):
        lin = Linear(4, 3, rng=np.random.default_rng(1))
        x = _x(2, 4)
        np.testing.assert_allclose(
            lin.forward(x), x @ lin.W.data.T + lin.b.data, rtol=1e-5)

    def test_gradcheck(self):
        gradcheck_model(Linear(5, 4, rng=np.random.default_rng(2)), _x(3, 5))
        gradcheck_input(Linear(5, 4, rng=np.random.default_rng(2)), _x(3, 5))

    def test_3d_input(self):
        lin = Linear(4, 3, rng=np.random.default_rng(1))
        x = _x(2, 7, 4)
        assert lin.forward(x).shape == (2, 7, 3)
        gradcheck_model(Linear(4, 3, rng=np.random.default_rng(3)),
                        _x(2, 7, 4))


class TestActivations:
    @pytest.mark.parametrize("layer_cls", [ReLU, GELU, Tanh, Sigmoid])
    def test_gradcheck(self, layer_cls):
        x = _x(3, 6, seed=4)
        x += 0.2 * np.sign(x)  # keep away from the ReLU kink at 0
        gradcheck_input(layer_cls(), x)

    def test_relu_zeroes_negatives(self):
        r = ReLU()
        out = r.forward(np.array([[-1.0, 2.0]], dtype=np.float32))
        np.testing.assert_array_equal(out, [[0.0, 2.0]])

    def test_gelu_matches_reference_points(self):
        g = GELU()
        out = g.forward(np.array([0.0, 1.0, -1.0], dtype=np.float32))
        np.testing.assert_allclose(out, [0.0, 0.8412, -0.1588], atol=1e-3)

    def test_gelu_float32_matches_the_float64_formula(self):
        """Absolute tolerance: ``1 + tanh`` cancels for negative inputs,
        so ULPs of the result mean nothing there."""
        x = np.linspace(-10.0, 10.0, 20001, dtype=np.float32)
        out = GELU().forward(x)
        assert out.dtype == np.float32
        x64 = x.astype(np.float64)
        ref = 0.5 * x64 * (1.0 + np.tanh(
            np.sqrt(2.0 / np.pi) * (x64 + 0.044715 * x64 ** 3)))
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-6)

    def test_gelu_constant_is_float32(self):
        assert type(GELU._C) is np.float32
        assert GELU._C == np.float32(np.sqrt(2.0 / np.pi))


class TestConv2d:
    def test_output_shape(self):
        conv = Conv2d(3, 8, 3, padding=1, rng=np.random.default_rng(5))
        assert conv.forward(_x(2, 3, 8, 8)).shape == (2, 8, 8, 8)

    def test_stride(self):
        conv = Conv2d(1, 2, 3, stride=2, padding=1,
                      rng=np.random.default_rng(5))
        assert conv.forward(_x(1, 1, 8, 8)).shape == (1, 2, 4, 4)

    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(6)
        conv = Conv2d(2, 3, 3, padding=1, rng=rng)
        x = _x(1, 2, 5, 5, seed=7)
        out = conv.forward(x)
        # direct (slow) reference
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        ref = np.zeros_like(out)
        for f in range(3):
            for i in range(5):
                for j in range(5):
                    patch = xp[0, :, i:i + 3, j:j + 3]
                    ref[0, f, i, j] = np.sum(
                        patch * conv.W.data[f]) + conv.b.data[f]
        np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-5)

    def test_gradcheck(self):
        gradcheck_model(Conv2d(2, 3, 3, padding=1,
                               rng=np.random.default_rng(8)),
                        _x(2, 2, 4, 4, seed=9))
        gradcheck_input(Conv2d(2, 3, 3, padding=1,
                               rng=np.random.default_rng(8)),
                        _x(2, 2, 4, 4, seed=9))


class TestMaxPool:
    def test_pooling_values(self):
        mp = MaxPool2d(2)
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = mp.forward(x)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_gradcheck(self):
        gradcheck_input(MaxPool2d(2), _x(2, 2, 4, 4, seed=10))

    def test_indivisible_raises(self):
        with pytest.raises(ValueError):
            MaxPool2d(2).forward(_x(1, 1, 5, 4))


class TestNorms:
    def test_batchnorm_normalizes(self):
        bn = BatchNorm2d(3)
        x = _x(8, 3, 4, 4, seed=11, scale=5.0) + 2.0
        out = bn.forward(x, training=True)
        assert abs(out.mean()) < 1e-4
        assert abs(out.var() - 1.0) < 1e-2

    def test_batchnorm_running_stats_used_in_eval(self):
        bn = BatchNorm2d(2, momentum=1.0)
        x = _x(16, 2, 4, 4, seed=12, scale=2.0) + 1.0
        bn.forward(x, training=True)
        out = bn.forward(x, training=False)
        assert abs(out.mean()) < 0.05

    def test_batchnorm_gradcheck(self):
        gradcheck_model(BatchNorm2d(2), _x(4, 2, 3, 3, seed=13))
        gradcheck_input(BatchNorm2d(2), _x(4, 2, 3, 3, seed=13))

    def test_layernorm_gradcheck(self):
        gradcheck_model(LayerNorm(6), _x(4, 6, seed=14))
        gradcheck_input(LayerNorm(6), _x(2, 3, 6, seed=14))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d", [1, 2, 7, 8, 9, 31, 32, 33, 100, 768])
    def test_layernorm_statistics_are_numpys_bits(self, d, dtype):
        """The mean computed once and reused by the variance gives the
        bits of ``x.mean`` / ``x.var``, NaN and ±inf rows included."""
        x = (_x(3, 4, d, seed=d, scale=10.0) + 3.0).astype(dtype)
        x[0, 1, 0] = np.nan
        x[0, 2, -1] = np.inf
        x[1, 0, d // 2] = -np.inf
        x[2, 3] = 0.0
        ln = LayerNorm(d)
        with np.errstate(all="ignore"):
            ln.forward(x)
            mean = x.mean(axis=-1, keepdims=True)
            inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + ln.eps)
            xhat = (x - mean) * inv
        got_xhat, got_inv = ln._cache
        assert got_inv.dtype == inv.dtype and got_xhat.dtype == xhat.dtype
        assert got_inv.tobytes() == inv.tobytes()
        assert got_xhat.tobytes() == xhat.tobytes()


class TestDropout:
    def test_eval_is_identity(self):
        d = Dropout(0.5)
        x = _x(4, 4, seed=15)
        np.testing.assert_array_equal(d.forward(x, training=False), x)

    def test_training_scales_survivors(self):
        d = Dropout(0.5, rng=np.random.default_rng(16))
        x = np.ones((1000,), dtype=np.float32)
        out = d.forward(x, training=True)
        kept = out[out != 0]
        np.testing.assert_allclose(kept, 2.0)
        assert abs(out.mean() - 1.0) < 0.1

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestEmbedding:
    def test_lookup(self):
        emb = Embedding(10, 4, rng=np.random.default_rng(17))
        ids = np.array([[1, 2], [2, 3]])
        out = emb.forward(ids)
        np.testing.assert_array_equal(out[0, 1], emb.W.data[2])

    def test_grad_accumulates_repeats(self):
        emb = Embedding(5, 2, rng=np.random.default_rng(18))
        ids = np.array([[1, 1]])
        out = emb.forward(ids)
        emb.backward(np.ones_like(out))
        np.testing.assert_allclose(emb.W.grad[1], [2.0, 2.0])

    def test_rejects_float_ids(self):
        with pytest.raises(TypeError):
            Embedding(5, 2).forward(np.zeros((1, 2), dtype=np.float32))


class TestLSTM:
    def test_output_shape(self):
        lstm = LSTM(5, 7, num_layers=2, rng=np.random.default_rng(19))
        assert lstm.forward(_x(3, 4, 5, seed=20)).shape == (3, 4, 7)

    def test_gradcheck_single_layer(self):
        gradcheck_model(LSTM(3, 4, rng=np.random.default_rng(21)),
                        _x(2, 3, 3, seed=22), n_checks=16)
        gradcheck_input(LSTM(3, 4, rng=np.random.default_rng(21)),
                        _x(2, 3, 3, seed=22))

    def test_gradcheck_stacked(self):
        gradcheck_model(LSTM(3, 3, num_layers=2,
                             rng=np.random.default_rng(23)),
                        _x(2, 4, 3, seed=24), n_checks=16)

    def test_state_propagates_through_time(self):
        """Changing an early input changes later outputs."""
        lstm = LSTM(2, 3, rng=np.random.default_rng(25))
        x = _x(1, 5, 2, seed=26)
        out1 = lstm.forward(x).copy()
        x2 = x.copy()
        x2[0, 0] += 1.0
        out2 = lstm.forward(x2)
        assert not np.allclose(out1[0, -1], out2[0, -1])


class TestAttention:
    def test_output_shape(self):
        attn = MultiHeadSelfAttention(8, 2, rng=np.random.default_rng(27))
        assert attn.forward(_x(2, 5, 8, seed=28)).shape == (2, 5, 8)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dtype_follows_the_input(self, dtype):
        """float32 stays float32 (the head scale must not promote it), and
        float64 stays float64 so the gradient checks keep their precision."""
        attn = MultiHeadSelfAttention(12, 4, rng=np.random.default_rng(27))
        x = _x(2, 5, 12, seed=28).astype(dtype)
        out = attn.forward(x)
        assert out.dtype == dtype
        assert attn.backward(np.ones_like(out)).dtype == dtype

    def test_dim_head_mismatch(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(7, 2)

    def test_gradcheck(self):
        gradcheck_model(
            MultiHeadSelfAttention(4, 2, rng=np.random.default_rng(29)),
            _x(2, 3, 4, seed=30), n_checks=16)
        gradcheck_input(
            MultiHeadSelfAttention(4, 2, rng=np.random.default_rng(29)),
            _x(2, 3, 4, seed=30))

    def test_encoder_layer_gradcheck(self):
        gradcheck_model(
            TransformerEncoderLayer(4, 2, 8, rng=np.random.default_rng(31)),
            _x(2, 3, 4, seed=32), n_checks=20)

    @pytest.mark.parametrize("t", [1, 2, 3, 5, 16, 17])
    def test_softmax_row_max_by_halving(self, t):
        """The halving row max gives the softmax of ``x.max(axis=-1)``:
        odd widths, signed zeros, ±inf and NaN included."""
        from repro.nn.attention import _softmax
        x = _x(4, 3, t, seed=t, scale=5.0)
        x[0, 0, 0] = np.nan
        x[0, 1] = 0.0
        x[0, 1, ::2] = -0.0
        x[1, 0, -1] = np.inf
        x[1, 1, 0] = -np.inf
        x[2, 2] = -np.inf
        x[3, 0, t // 2] = 1e30
        with np.errstate(all="ignore"):
            e = np.exp(x - x.max(axis=-1, keepdims=True))
            want = e / e.sum(axis=-1, keepdims=True)
            got = _softmax(x)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    def test_permutation_equivariance(self):
        """Self-attention without masks is permutation-equivariant."""
        attn = MultiHeadSelfAttention(6, 2, rng=np.random.default_rng(33))
        x = _x(1, 4, 6, seed=34)
        out = attn.forward(x)
        perm = [2, 0, 3, 1]
        out_p = attn.forward(x[:, perm])
        np.testing.assert_allclose(out_p, out[:, perm], rtol=1e-4, atol=1e-5)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_loss(self):
        ce = SoftmaxCrossEntropy()
        logits = np.zeros((4, 10), dtype=np.float32)
        y = np.arange(4) % 10
        loss, _ = ce.forward_backward(logits, y)
        assert loss == pytest.approx(np.log(10), rel=1e-5)

    def test_gradient_sums_to_zero_per_row(self):
        ce = SoftmaxCrossEntropy()
        logits = _x(3, 5, seed=35)
        _, g = ce.forward_backward(logits, np.array([0, 1, 2]))
        np.testing.assert_allclose(g.sum(axis=1), 0.0, atol=1e-6)

    def test_ignore_index_masks(self):
        ce = SoftmaxCrossEntropy(ignore_index=-100)
        logits = _x(2, 4, 5, seed=36)
        y = np.full((2, 4), -100)
        y[0, 1] = 2
        loss, g = ce.forward_backward(logits, y)
        assert loss > 0
        assert np.all(g[1] == 0)
        assert np.all(g[0, 0] == 0) and np.any(g[0, 1] != 0)

    def test_all_ignored_returns_zero(self):
        ce = SoftmaxCrossEntropy()
        logits = _x(2, 3, seed=37)
        loss, g = ce.forward_backward(logits, np.array([-100, -100]))
        assert loss == 0.0 and np.all(g == 0)

    def test_numerical_gradient(self):
        ce = SoftmaxCrossEntropy()
        logits = _x(2, 4, seed=38).astype(np.float64)
        y = np.array([1, 3])
        _, g = ce.forward_backward(logits, y)
        eps = 1e-5
        for i in range(2):
            for j in range(4):
                lp = logits.copy(); lp[i, j] += eps
                lm = logits.copy(); lm[i, j] -= eps
                num = (ce.forward_backward(lp, y)[0]
                       - ce.forward_backward(lm, y)[0]) / (2 * eps)
                assert num == pytest.approx(g[i, j], rel=1e-3, abs=1e-6)
