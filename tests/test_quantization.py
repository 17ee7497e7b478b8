"""Quantization extension: codec properties and quantized allreduces."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.allreduce import make_allreduce
from repro.comm import nwords, run_spmd
from repro.quant import LinearQuantizer, dequantize_coo, quantize_coo
from repro.sparse import COOVector

values32 = hnp.arrays(np.float32, st.integers(1, 100),
                      elements=st.floats(-100, 100, allow_nan=False,
                                         width=32))


class TestCodec:
    @pytest.mark.parametrize("bits", [4, 8, 16])
    def test_roundtrip_error_bound(self, bits):
        rng = np.random.default_rng(0)
        v = rng.normal(size=1000).astype(np.float32)
        q = LinearQuantizer(bits)
        out = q.decode(q.encode(v))
        step = q.step_size(float(v.min()), float(v.max()))
        assert np.max(np.abs(out - v)) <= step / 2 + 1e-6

    @given(values32, st.sampled_from([4, 8, 16]))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_within_range(self, v, bits):
        q = LinearQuantizer(bits)
        out = q.decode(q.encode(v))
        assert out.size == v.size
        assert out.min() >= v.min() - 1e-4
        assert out.max() <= v.max() + 1e-4

    def test_stochastic_rounding_unbiased(self):
        q = LinearQuantizer(4, stochastic=True,
                            rng=np.random.default_rng(1))
        v = np.full(20000, 0.35, dtype=np.float32)
        v[0], v[-1] = 0.0, 1.0  # fix the range
        outs = q.decode(q.encode(v))
        assert abs(outs[1:-1].mean() - 0.35) < 0.005

    def test_empty(self):
        q = LinearQuantizer(8)
        qa = q.encode(np.empty(0, dtype=np.float32))
        assert qa.comm_nwords() == 2
        assert q.decode(qa).size == 0

    def test_constant_values(self):
        q = LinearQuantizer(8)
        v = np.full(7, 3.25, dtype=np.float32)
        np.testing.assert_allclose(q.decode(q.encode(v)), v)

    @pytest.mark.parametrize("stochastic", [False, True])
    @pytest.mark.parametrize("bits", [4, 8, 16])
    def test_range_wider_than_float32(self, bits, stochastic):
        """``hi - lo`` overflows float32: codes and values stay finite."""
        v = np.array([-3e38, 1e38, 3e38], dtype=np.float32)
        q = LinearQuantizer(bits, stochastic=stochastic)
        with np.errstate(over="raise", invalid="raise"):
            out = q.decode(q.encode(v))
        step = q.step_size(float(v.min()), float(v.max()))
        assert np.isfinite(out).all()
        assert out[0] == v[0] and out[-1] == v[-1]
        assert np.max(np.abs(out.astype(np.float64) - v)) <= step * 1.0001

    @pytest.mark.parametrize("stochastic", [False, True])
    @pytest.mark.parametrize("bits", [4, 8, 16])
    def test_subnormal_range(self, bits, stochastic):
        """The scale overflows float32: the range ends still encode as the
        lowest and highest code, no NaN reaches the integer cast."""
        v = np.array([0.0, 1e-45], dtype=np.float32)
        q = LinearQuantizer(bits, stochastic=stochastic)
        with np.errstate(over="raise", invalid="raise"):
            qa = q.encode(v)
            out = q.decode(qa)
        assert q._unpack(qa).tolist() == [0, q.levels]
        assert out.tobytes() == v.tobytes()

    @pytest.mark.parametrize("bits", [4, 8, 16])
    def test_float32_ranges_keep_their_codes(self, bits):
        """Where ``v - lo`` and the scale are finite in float32 the codes
        are the float32 formula's, bit for bit."""
        q = LinearQuantizer(bits)
        rng = np.random.default_rng(5)
        for exp in (-30, -3, 0, 3, 30, 37):
            v = (rng.standard_normal(999) * 10.0 ** exp).astype(np.float32)
            lo, hi = float(v.min()), float(v.max())
            want = np.clip(np.rint((v - lo) * (q.levels / (hi - lo))), 0,
                           q.levels)
            assert np.array_equal(q._unpack(q.encode(v)), want)

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            LinearQuantizer(3)

    def test_4bit_packs_two_per_byte(self):
        q = LinearQuantizer(4)
        qa = q.encode(np.linspace(0, 1, 10).astype(np.float32))
        assert qa.codes.nbytes == 5

    def test_wire_size_shrinks_with_bits(self):
        v = np.random.default_rng(2).normal(size=256).astype(np.float32)
        sizes = {b: LinearQuantizer(b).encode(v).comm_nwords()
                 for b in (4, 8, 16)}
        assert sizes[4] < sizes[8] < sizes[16] < 256


class TestQuantizedCOO:
    def test_payload_wire_accounting(self):
        vec = COOVector.from_arrays(1000, np.arange(64, dtype=np.int32),
                                    np.random.default_rng(3).normal(
                                        size=64).astype(np.float32))
        payload = quantize_coo(vec, LinearQuantizer(8))
        # 64 index words + 16 packed value words + 2 range words
        assert payload.comm_nwords() == 64 + 16 + 2
        assert nwords(payload) == payload.comm_nwords()

    def test_dequantize_preserves_support(self):
        vec = COOVector.from_arrays(100, [5, 50, 99], [1.0, -2.0, 3.0])
        q = LinearQuantizer(16)
        back = dequantize_coo(quantize_coo(vec, q), q)
        np.testing.assert_array_equal(back.indices, vec.indices)
        np.testing.assert_allclose(back.values, vec.values, atol=1e-3)


class TestQuantizedAllreduces:
    def _grads(self, p, n=512, seed=5):
        rng = np.random.default_rng(seed)
        return [rng.normal(size=n).astype(np.float32) for _ in range(p)]

    @pytest.mark.parametrize("scheme", ["topka_q", "oktopk_q"])
    def test_approximates_full_precision(self, scheme):
        p, k = 4, 32
        grads = self._grads(p)

        def prog(comm, name, kw):
            algo = make_allreduce(name, k=k, **kw)
            return algo.reduce(comm, grads[comm.rank], 1)

        exact_name = "topka" if scheme == "topka_q" else "oktopk"
        exact_kw = {} if scheme == "topka_q" else {"tau_prime": 1}
        q_kw = dict(exact_kw, bits=16, stochastic=False)
        ref = run_spmd(p, prog, exact_name, exact_kw)[0].update.to_dense()
        got = run_spmd(p, prog, scheme, q_kw)[0].update.to_dense()
        scale = np.abs(ref).max()
        np.testing.assert_allclose(got, ref, atol=2e-3 * scale)

    def test_volume_reduction_measured(self):
        p, n, k = 8, 4096, 128
        grads = self._grads(p, n)

        def prog(comm, name, kw):
            algo = make_allreduce(name, k=k, **kw)
            algo.reduce(comm, grads[comm.rank], 1)
            return int(comm.net.words_recv[comm.rank])

        full = np.mean(run_spmd(p, prog, "topka", {}).results)
        quant = np.mean(run_spmd(
            p, prog, "topka_q", {"bits": 8}).results)
        # 2k words -> ~1.25k words per vector (k idx + k/4 vals + 2)
        assert quant < 0.75 * full

    @pytest.mark.parametrize("bits", [8, 16])
    def test_quantized_oktopk_trains(self, bits):
        """Error feedback keeps quantized training converging to the same
        quality as full precision on a noisy quadratic."""
        p, n = 4, 128
        target = np.linspace(-1, 1, n).astype(np.float32)

        def prog(comm, name, kw):
            from repro.optim import TopkSGD
            algo = make_allreduce(name, k=16, **kw)
            opt = TopkSGD(algo, 0.2, n)
            w = np.zeros(n, dtype=np.float32)
            rng = np.random.default_rng(comm.rank)
            for _ in range(60):
                noise = rng.normal(0, 0.05, size=n).astype(np.float32)
                opt.step(comm, w, (w - target) + noise)
            return float(np.linalg.norm(w - target))

        q_err = max(run_spmd(p, prog, "oktopk_q",
                             {"bits": bits}).results)
        full_err = max(run_spmd(p, prog, "oktopk", {}).results)
        assert q_err < 0.6
        assert q_err <= full_err + 0.25

    def test_all_ranks_agree(self):
        p = 4
        grads = self._grads(p)

        def prog(comm):
            algo = make_allreduce("oktopk_q", k=16, bits=8)
            return algo.reduce(comm, grads[comm.rank], 1).update

        res = run_spmd(p, prog)
        for r in range(1, p):
            assert res[r] == res[0]

    def test_registry_lazy_loading(self):
        """Extension schemes resolve through make_allreduce without an
        explicit import of repro.quant."""
        algo = make_allreduce("topka_q", k=4, bits=4)
        assert algo.quantizer.bits == 4

    def test_unknown_scheme_still_raises(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            make_allreduce("nope")
