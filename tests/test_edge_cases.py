"""Edge cases and failure injection across the stack."""

import numpy as np
import pytest

from repro.allreduce import make_allreduce
from repro.comm import Network, NetworkModel, run_spmd
from repro.errors import ConfigError, RankFailedError
from repro.train import TrainerConfig


class TestAllreduceValidation:
    def test_k_must_be_positive(self):
        with pytest.raises(ConfigError):
            make_allreduce("oktopk", k=0)

    def test_density_range(self):
        with pytest.raises(ConfigError):
            make_allreduce("topka", density=0.0)
        with pytest.raises(ConfigError):
            make_allreduce("topka", density=1.5)

    def test_sparse_scheme_requires_k_or_density(self):
        with pytest.raises(ConfigError):
            make_allreduce("oktopk")

    def test_dense_needs_neither(self):
        make_allreduce("dense")

    def test_oktopk_invalid_periods(self):
        with pytest.raises(ValueError):
            make_allreduce("oktopk", k=4, tau=0)
        with pytest.raises(ValueError):
            make_allreduce("oktopk", k=4, tau_prime=0)

    def test_dense_ovlp_invalid_buckets(self):
        with pytest.raises(ValueError):
            make_allreduce("dense_ovlp", nbuckets=0)

    def test_reduce_rejects_2d_input(self):
        def prog(comm):
            algo = make_allreduce("oktopk", k=4)
            algo.reduce(comm, np.zeros((4, 4), dtype=np.float32), 1)

        with pytest.raises(RankFailedError):
            run_spmd(2, prog)

    def test_reduce_rejects_t_zero(self):
        def prog(comm):
            algo = make_allreduce("oktopk", k=4)
            algo.reduce(comm, np.zeros(16, dtype=np.float32), 0)

        with pytest.raises(RankFailedError):
            run_spmd(2, prog)


class TestDegenerateInputs:
    @pytest.mark.parametrize("scheme", ["topka", "topkdsa", "gtopk",
                                        "gaussiank", "oktopk"])
    def test_all_zero_gradient(self, scheme):
        def prog(comm):
            algo = make_allreduce(scheme, k=8)
            res = algo.reduce(comm, np.zeros(64, dtype=np.float32), 1)
            return res.update

        res = run_spmd(4, prog)
        dense = res[0].to_dense() if hasattr(res[0], "to_dense") else res[0]
        assert np.all(dense == 0)

    @pytest.mark.parametrize("scheme", ["topka", "oktopk", "gtopk"])
    def test_k_geq_n(self, scheme):
        """k as large as the gradient: everything is selected, the result
        equals the dense sum."""
        n, p = 16, 4

        def prog(comm):
            rng = np.random.default_rng(comm.rank)
            g = rng.normal(size=n).astype(np.float32)
            algo = make_allreduce(scheme, k=n)
            return algo.reduce(comm, g, 1).update.to_dense(), g

        res = run_spmd(p, prog)
        expect = np.sum([res[r][1] for r in range(p)], axis=0)
        np.testing.assert_allclose(res[0][0], expect, rtol=1e-4, atol=1e-5)

    def test_single_element_gradient(self):
        def prog(comm):
            algo = make_allreduce("oktopk", k=1)
            return algo.reduce(
                comm, np.array([float(comm.rank + 1)], dtype=np.float32),
                1).update.to_dense()

        res = run_spmd(3, prog)
        np.testing.assert_allclose(res[0], [6.0])

    def test_p1_everything_local(self):
        """Single worker: no communication at all in steady state."""
        def prog(comm):
            algo = make_allreduce("oktopk", k=8, tau_prime=64)
            rng = np.random.default_rng(0)
            for t in (1, 2):
                acc = rng.normal(size=128).astype(np.float32)
                if t == 2:
                    before = int(comm.net.words_sent[comm.rank])
                algo.reduce(comm, acc, t)
            return int(comm.net.words_sent[comm.rank]) - before

        assert run_spmd(1, prog)[0] == 0

    def test_nan_gradient_propagates_not_hangs(self):
        """NaNs are numerically poisonous but must not deadlock ranks."""
        def prog(comm):
            algo = make_allreduce("oktopk", k=4)
            acc = np.full(32, np.nan, dtype=np.float32)
            res = algo.reduce(comm, acc, 1)
            return res.update.nnz

        res = run_spmd(2, prog)  # completes without hanging
        assert all(isinstance(v, int) for v in res.results)


class TestTrainerConfigValidation:
    def test_iterations_positive(self):
        with pytest.raises(ConfigError):
            TrainerConfig(iterations=0)

    def test_mode_validated(self):
        with pytest.raises(ConfigError):
            TrainerConfig(iterations=1, mode="rmsprop")


class TestNetworkEdgeCases:
    def test_zero_size_messages_cost_latency_only(self):
        model = NetworkModel(alpha=1e-3, beta=1e-6)

        def prog(comm):
            if comm.rank == 0:
                comm.send(None, dest=1)
            else:
                comm.recv(0)
            return comm.clock

        res = run_spmd(2, prog, model=model)
        assert res[1] == pytest.approx(1e-3)

    def test_trace_records_transfers(self):
        net = Network(2, trace=True)

        def prog(comm):
            if comm.rank == 0:
                comm.send(np.zeros(5, dtype=np.float32), dest=1, tag=3)
            else:
                comm.recv(0, tag=3)

        run_spmd(2, prog, network=net)
        assert len(net.trace) == 1
        rec = net.trace[0]
        assert (rec.src, rec.dst, rec.tag, rec.nwords) == (0, 1, 3, 5)
        assert rec.t_done >= rec.t_first

    def test_save_restore_roundtrip(self):
        net = Network(2)

        def prog(comm):
            if comm.rank == 0:
                state = comm.net.save_state()
                comm.send(np.zeros(100, dtype=np.float32), dest=1)
                comm.net.restore_state(state)
            else:
                comm.recv(0)

        run_spmd(2, prog, network=net)
        assert net.stats().words_sent[0] == 0  # rolled back

    def test_mismatched_network_size(self):
        net = Network(4)
        with pytest.raises(ValueError):
            run_spmd(2, lambda comm: None, network=net)

    def test_negative_model_params_rejected(self):
        with pytest.raises(ValueError):
            NetworkModel(alpha=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       -float("inf")])
    @pytest.mark.parametrize("name", ["alpha", "beta", "gamma", "scan_time",
                                      "sort_time", "flop_time", "o_send",
                                      "o_inject"])
    def test_non_finite_model_params_rejected(self, name, value):
        """NaN passes a ``< 0`` guard and inf is no cost constant."""
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            NetworkModel(**{name: value})
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            NetworkModel().with_(**{name: value})
