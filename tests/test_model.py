import json
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from conftest import finite_difference_gradcheck, float64_copy, identity_stats, weighted_loss_value
from ridecast.nn import blas
from ridecast.nn.adam import Adam
from ridecast.nn.model import (
    CHECKPOINT_VERSION,
    ROW_BLOCK,
    SPLIT_MIN_SEQUENCES,
    CheckpointError,
    ModelConfig,
    TransformerRegressor,
    load_checkpoint,
    save_checkpoint,
)
from ridecast.nn.layers import mlp_forward
from ridecast.nn.tensor import Tensor
from ridecast.demand import N_BASE_FEATURES, NormStats

TINY = ModelConfig(seq_len=3, input_dim=5, d_model=4, n_blocks=1, embed_hidden=5,
                   block_hidden=6, head_hidden=3, n_tasks=4)
# the width and depth the decision and training paths run at
PRODUCTION = ModelConfig(seq_len=6, input_dim=112)


def reference_forward(x: np.ndarray, p: dict[str, np.ndarray], cfg: ModelConfig) -> np.ndarray:
    """Step-by-step numpy trace of the forward pass, independent of Tensor,
    with each task's head sliced out of the stacked head parameters."""

    def np_mlp(a, w1, b1, w2, b2):
        return np.maximum(a @ w1 + b1, 0.0) @ w2 + b2

    def np_ln(a, pre):
        mu = a.mean(axis=-1, keepdims=True)
        var = ((a - mu) ** 2).mean(axis=-1, keepdims=True)
        return p[pre + "gamma"] * (a - mu) / np.sqrt(var + 1e-5) + p[pre + "beta"]

    def np_attn(a, pre):
        q, k, v = a @ p[pre + "wq"], a @ p[pre + "wk"], a @ p[pre + "wv"]
        s = q @ k.T / np.sqrt(cfg.d_model)
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        return (e / e.sum(axis=-1, keepdims=True)) @ v

    def mlp_params(pre):
        return [p[pre + k] for k in ("w1", "b1", "w2", "b2")]

    o = np_mlp(x, *mlp_params("embed.")) + p["pos"]
    for b in range(cfg.n_blocks):
        pre = f"block{b}."
        h1 = np_attn(o + np_ln(o, pre + "ln1."), pre)
        o = np_mlp(h1 + np_ln(h1, pre + "ln2."), *mlp_params(pre + "mlp."))
    pooled = o.mean(axis=0)
    h = cfg.head_hidden
    return np.array([np_mlp(pooled, p["head.w1"][:, i * h:(i + 1) * h], p["head.b1"][i * h:(i + 1) * h],
                            p["head.w2"][i], p["head.b2"][i])
                     for i in range(cfg.n_tasks)])


class TestForward:
    def test_output_length_matches_task_count(self):
        model = TransformerRegressor(TINY, seed=0)
        x = np.random.default_rng(0).normal(size=(3, 5))
        assert model.predict(x).shape == (4,)
        assert model.predict(np.stack([x, x])).shape == (2, 4)

    def test_pure_function_of_input(self):
        model = TransformerRegressor(TINY, seed=1)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 5))
        batch = np.stack([x, rng.normal(size=(3, 5)), x])
        y = model.predict(batch)
        np.testing.assert_array_equal(y[0], y[2])
        np.testing.assert_array_equal(model.predict(batch), y)

    def test_nan_input_gives_nan_prediction(self):
        # a relu that maps NaN to 0 would return exactly head.b2 here
        model = TransformerRegressor(TINY, seed=0)
        x = np.random.default_rng(0).normal(size=(3, 5))
        x[1, 2] = np.nan
        assert np.all(np.isnan(model.predict(x)))

    def test_nan_input_gives_nan_losses_on_the_graph_path(self):
        # the softmax's row maximum must keep NaN as .max does; np.fmax would drop it
        model = TransformerRegressor(TINY, seed=0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 3, 5))
        x[2, 1, 2] = np.nan
        losses = model.task_losses(x, rng.normal(size=(4, 4)))
        assert not np.any(np.isfinite(losses.data))
        model.backward_weighted(losses, np.full(4, 0.25))
        assert not np.all(np.isfinite(model.params["embed.w1"].grad))

    @pytest.mark.parametrize("cfg", [TINY, PRODUCTION], ids=["tiny", "production"])
    def test_matches_reference_trace(self, cfg):
        for seed in (0, 1, 2):
            model = float64_copy(TransformerRegressor(cfg, seed=seed))
            x = np.random.default_rng(seed + 10).normal(size=(cfg.seq_len, cfg.input_dim))
            got = model.predict(x)
            want = reference_forward(x, {k: t.data for k, t in model.params.items()}, cfg)
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_stacked_head_replays_per_task_init_draws(self):
        # draws in the order of one (w1, w2) pair per task after the backbone;
        # the stacked head holds them bit for bit, cast once to float32
        c, h = TINY, TINY.head_hidden
        for seed in (0, 1, 2):
            model = TransformerRegressor(TINY, seed=seed)
            got = {k: t.data for k, t in model.params.items()}
            rng = np.random.default_rng(seed)
            want = {
                "embed.w1": rng.normal(0.0, np.sqrt(2.0 / c.input_dim), size=(c.input_dim, c.embed_hidden)),
                "embed.w2": rng.normal(0.0, np.sqrt(2.0 / c.embed_hidden), size=(c.embed_hidden, c.d_model)),
                "pos": rng.normal(0.0, 0.02, size=(c.seq_len, c.d_model)),
            }
            for b in range(c.n_blocks):
                for k in ("wq", "wk", "wv"):
                    want[f"block{b}.{k}"] = rng.normal(0.0, np.sqrt(1.0 / c.d_model), size=(c.d_model, c.d_model))
                want[f"block{b}.mlp.w1"] = rng.normal(0.0, np.sqrt(2.0 / c.d_model), size=(c.d_model, c.block_hidden))
                want[f"block{b}.mlp.w2"] = rng.normal(0.0, np.sqrt(2.0 / c.block_hidden),
                                                      size=(c.block_hidden, c.d_model))
            for k, v in want.items():
                np.testing.assert_array_equal(got[k], v.astype(np.float32), err_msg=k, strict=True)
            for i in range(c.n_tasks):
                w1 = rng.normal(0.0, np.sqrt(2.0 / c.d_model), size=(c.d_model, h))
                w2 = rng.normal(0.0, 0.01, size=(h, 1))
                np.testing.assert_array_equal(got["head.w1"][:, i * h:(i + 1) * h], w1.astype(np.float32))
                np.testing.assert_array_equal(got["head.w2"][i], w2[:, 0].astype(np.float32))
            assert got["head.w1"].shape == (c.d_model, c.n_tasks * h)
            assert got["head.w2"].shape == (c.n_tasks, h)
            np.testing.assert_array_equal(got["head.b1"], np.full(c.n_tasks * h, 0.01, dtype=np.float32))
            np.testing.assert_array_equal(got["head.b2"], np.zeros(c.n_tasks))

    def test_predict_records_no_graph(self, monkeypatch):
        import ridecast.nn.model as model_mod

        outputs = []

        def spy_mlp(*args, **kwargs):
            outputs.append(mlp_forward(*args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(model_mod, "mlp_forward", spy_mlp)
        model = TransformerRegressor(TINY, seed=2)
        forward = model._forward

        def spy_forward(x, p):
            outputs.append(forward(x, p))
            return outputs[-1]

        monkeypatch.setattr(model, "_forward", spy_forward)
        model.predict(np.random.default_rng(2).normal(size=(2, 3, 5)))
        # embed, one block MLP and the stacked head's (B, m) output
        assert len(outputs) == 3 and outputs[-1].shape == (2, 4)
        assert all(o._parents == () and o._backward is None and not o.requires_grad for o in outputs)
        assert all(p.grad is None and p.requires_grad for p in model.params.values())

    def test_float32_output_matches_float64_copy(self):
        for seed in (0, 1, 2):
            model = TransformerRegressor(TINY, seed=seed)
            x = np.random.default_rng(seed + 20).normal(size=(4, 3, 5))
            got = model.predict(x)
            assert got.dtype == np.float32
            np.testing.assert_allclose(got, float64_copy(model).predict(x), rtol=1e-5)

    def test_float32_output_matches_float64_copy_at_production_shape(self):
        # the same 1e-5 relative bound, taken over each batch's outputs as a whole: float32
        # rounding errs by about 1e-6 of the outputs' scale, and at d = 64 some outputs lie
        # near 0, where that is 1e-5..1e-4 of the element itself
        for seed in (0, 1, 2):
            model = TransformerRegressor(PRODUCTION, seed=seed)
            x = np.random.default_rng(seed + 20).normal(size=(4, PRODUCTION.seq_len, PRODUCTION.input_dim))
            got = model.predict(x)
            want = float64_copy(model).predict(x)
            assert got.dtype == np.float32
            assert np.linalg.norm(got - want) <= 1e-5 * np.linalg.norm(want)

    def test_rejects_wrong_shape(self):
        model = TransformerRegressor(TINY)
        with pytest.raises(ValueError):
            model.predict(np.zeros((4, 5)))  # wrong seq_len
        with pytest.raises(ValueError):
            model.predict(np.zeros((2, 3, 6)))  # wrong input_dim


def detached(model: TransformerRegressor) -> dict[str, Tensor]:
    """The model's parameters as graph-free tensors, as ``predict`` passes them."""
    return {k: Tensor(v.data) for k, v in model.params.items()}


def production_batch(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(n, PRODUCTION.seq_len, PRODUCTION.input_dim)).astype(np.float32)


@pytest.fixture
def blas_count():
    """The (get, set) thread-count pair of numpy's bundled OpenBLAS; skips where there is none."""
    pair = blas.openblas_threads()
    if pair is None:
        pytest.skip("numpy has no bundled OpenBLAS")
    return pair


def spy_forward(monkeypatch, model: TransformerRegressor, calls: list, fail_at: int = -1) -> None:
    """Record (thread, sequences, OpenBLAS count or None) as each ``_forward``
    call ends; raise on a batch of ``fail_at`` sequences."""
    forward = model._forward
    pair = blas.openblas_threads()

    def spy(x, p):
        y = None if len(x) == fail_at else forward(x, p)
        calls.append((threading.current_thread(), len(x), pair[0]() if pair else None))
        if y is None:
            raise RuntimeError("half failed")
        return y

    monkeypatch.setattr(model, "_forward", spy)


class TestSplitPredict:
    """``predict`` runs large batches as two row-aligned halves on two threads.

    The byte-identity cases were checked on numpy's OpenBLAS on x86-64, as
    the golden traces were: a BLAS whose kernels block float rows otherwise
    may move the bytes of a cut batch.  CI also runs this class under
    OPENBLAS_NUM_THREADS=1."""

    N, CUT = 500, 248   # a decision batch of 100 grids x 5 candidates

    @pytest.mark.parametrize("n", [1, SPLIT_MIN_SEQUENCES - 1, SPLIT_MIN_SEQUENCES, 37, 500, 1025, 2400])
    @pytest.mark.parametrize("wide", [False, True], ids=["float32", "float64"])
    def test_equals_one_whole_forward(self, n, wide):
        model = TransformerRegressor(PRODUCTION, seed=21)
        if wide:
            model = float64_copy(model)
        x = production_batch(n, seed=n)
        want = model._forward(x, detached(model)).data
        got = model.predict(x)
        assert got.dtype == want.dtype == model.dtype
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_cut_is_the_aligned_boundary_nearest_the_middle(self):
        # T = 6: a 16-row boundary falls every 8 sequences
        model = TransformerRegressor(PRODUCTION)
        assert model._cut(SPLIT_MIN_SEQUENCES - 1) is None
        assert [model._cut(n) for n in (self.N, 1025, 2400)] == [self.CUT, 512, 1200]
        for seq_len in range(1, 40):
            model = TransformerRegressor(ModelConfig(seq_len=seq_len, input_dim=1, d_model=1, embed_hidden=1,
                                                     block_hidden=1, head_hidden=1))
            for n in range(SPLIT_MIN_SEQUENCES, SPLIT_MIN_SEQUENCES + 40):
                aligned = [c for c in range(1, n) if c * seq_len % ROW_BLOCK == 0]
                assert model._cut(n) == min(aligned, key=lambda c: (abs(2 * c - n), c)), (seq_len, n)

    def test_holds_openblas_at_one_thread_and_restores_it(self, blas_count, monkeypatch):
        get, _ = blas_count
        model = TransformerRegressor(PRODUCTION, seed=22)
        calls: list = []
        spy_forward(monkeypatch, model, calls)
        before = get()
        model.predict(production_batch(self.N))
        assert get() == before
        assert sorted(n for _, n, _ in calls) == [self.CUT, self.N - self.CUT]
        assert [count for _, _, count in calls] == [1, 1]
        assert {thread for thread, _, _ in calls} == {threading.current_thread(), blas._worker.thread}

    def test_leaves_no_thread_but_the_one_worker(self, blas_count):
        model = TransformerRegressor(PRODUCTION, seed=22)
        x = production_batch(self.N)
        threads = set(threading.enumerate())
        for _ in range(3):
            model.predict(x)
            assert set(threading.enumerate()) - threads <= {blas._worker.thread}
        assert blas._worker.thread.daemon

    @pytest.mark.parametrize("half", [0, 1], ids=["worker", "caller"])
    def test_error_in_either_half_propagates_and_restores(self, blas_count, monkeypatch, half):
        get, _ = blas_count
        model = TransformerRegressor(PRODUCTION, seed=23)
        calls: list = []
        spy_forward(monkeypatch, model, calls, fail_at=(self.CUT, self.N - self.CUT)[half])
        before = get()
        with pytest.raises(RuntimeError, match="half failed"):
            model.predict(production_batch(self.N))
        assert len(calls) == 2  # the other half had ended
        assert get() == before
        threads = set(threading.enumerate())
        assert blas.in_parallel(lambda: 1, lambda: 2) == (1, 2)  # the worker still serves
        assert set(threading.enumerate()) == threads

    def test_concurrent_calls_restore_the_count(self, blas_count):
        # more callers than cores and a short switch interval; the count starts
        # at 2, so a hold that restored another hold's 1 would leave 1 behind
        get, set_ = blas_count
        model = TransformerRegressor(PRODUCTION, seed=24)
        x = production_batch(self.N)
        want = model.predict(x)
        results: list = []
        outer, interval = get(), sys.getswitchinterval()
        threads = [threading.Thread(target=lambda: results.append(model.predict(x))) for _ in range(4)]
        try:
            set_(2)
            sys.setswitchinterval(1e-5)
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert get() == 2
        finally:
            sys.setswitchinterval(interval)
            set_(outer)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == len(threads)
        assert all(r.tobytes() == want.tobytes() for r in results)

    def test_without_openblas_the_halves_run_in_order(self, monkeypatch):
        model = TransformerRegressor(PRODUCTION, seed=25)
        x = production_batch(self.N)
        want = model._forward(x, detached(model)).data
        calls: list = []
        spy_forward(monkeypatch, model, calls)
        monkeypatch.setattr(blas, "openblas_threads", lambda: None)
        got = model.predict(x)
        me = threading.current_thread()
        assert [(thread, n) for thread, n, _ in calls] == [(me, self.CUT), (me, self.N - self.CUT)]
        assert got.tobytes() == want.tobytes()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_fork_waits_for_a_hold_and_the_child_starts_its_own_worker(self, blas_count):
        # a child forked mid-hold would start with the lock taken and the count
        # at 1; one handed the parent's worker would wait for it forever
        get, _ = blas_count
        before = get()
        entered, release = threading.Event(), threading.Event()

        def first():
            entered.set()
            release.wait(10)

        holder = threading.Thread(target=blas.in_parallel, args=(first, lambda: None))
        holder.start()
        assert entered.wait(10)
        timer = threading.Timer(0.2, release.set)
        timer.start()
        pid = os.fork()
        if pid == 0:
            ok = not blas._lock.locked() and get() == before and blas.in_parallel(lambda: 1, lambda: 2) == (1, 2)
            os._exit(0 if ok and get() == before else 1)
        deadline = time.monotonic() + 30
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        holder.join(10)
        timer.join(10)
        assert not holder.is_alive() and not timer.is_alive()
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0
        assert get() == before


class TestBackward:
    def test_zero_loss_zero_gradients_at_exact_fit(self):
        model = TransformerRegressor(TINY, seed=4)
        x = np.random.default_rng(4).normal(size=(2, 3, 5))
        y = model.predict(x)
        losses = model.task_losses(x, y)
        np.testing.assert_array_equal(losses.data, np.zeros(4))
        model.backward_weighted(losses, np.full(4, 0.25))
        assert all(np.all(p.grad == 0) for p in model.params.values() if p.grad is not None)

    def test_one_hot_weights_isolate_heads(self):
        model = TransformerRegressor(TINY, seed=5)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 3, 5))
        y = rng.normal(size=(3, 4))
        w = np.array([0.0, 0.0, 1.0, 0.0])
        h = TINY.head_hidden

        model.zero_grad()
        model.backward_weighted(model.task_losses(x, y), w)
        grads = {k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                 for k, p in model.params.items()}
        for i in (0, 1, 3):
            cols = slice(i * h, (i + 1) * h)
            assert np.all(grads["head.w1"][:, cols] == 0)
            assert np.all(grads["head.b1"][cols] == 0)
            assert np.all(grads["head.w2"][i] == 0)
            assert grads["head.b2"][i] == 0
        assert np.any(grads["head.w1"][:, 2 * h:3 * h] != 0)

        # every gradient equals the one from task 2 alone: the other tasks'
        # targets are the model's own predictions, so their errors are zero
        solo = TransformerRegressor(TINY, seed=5)
        y_solo = solo.predict(x)
        y_solo[:, 2] = y[:, 2]
        solo.backward_weighted(solo.task_losses(x, y_solo), np.ones(4))
        for k, g in grads.items():
            np.testing.assert_allclose(g, solo.params[k].grad, atol=1e-12, err_msg=k)

    def test_gradients_match_finite_differences(self):
        for seed in (0, 1, 2):
            cfg = ModelConfig(seq_len=3, input_dim=4, d_model=4, n_blocks=1, embed_hidden=4,
                              block_hidden=5, head_hidden=3, n_tasks=2)
            model = float64_copy(TransformerRegressor(cfg, seed=seed))
            rng = np.random.default_rng(seed + 100)
            x = rng.normal(size=(2, 3, 4))
            y = rng.normal(size=(2, 2))
            w = rng.uniform(0.2, 1.0, size=2)
            w /= w.sum()
            assert finite_difference_gradcheck(model, x, y, w) < 1e-4

    def test_float32_gradients_match_float64_copy(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(8, 3, 5))
        y = rng.normal(size=(8, 4))
        w = np.array([0.1, 0.2, 0.3, 0.4])
        model = TransformerRegressor(TINY, seed=13)
        twin = float64_copy(model)
        for m in (model, twin):
            m.backward_weighted(m.task_losses(x, y), w)
        for k, p in model.params.items():
            want = twin.params[k].grad
            assert p.grad.dtype == np.float32 and want.dtype == np.float64
            assert np.linalg.norm(p.grad - want) <= 1e-3 * np.linalg.norm(want), k

    def test_per_task_losses_are_mean_squared_errors(self):
        model = TransformerRegressor(TINY, seed=6)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 3, 5))
        y = rng.normal(size=(4, 4))
        losses = model.task_losses(x, y)
        assert losses.shape == (4,)
        want = ((y - model.predict(x)) ** 2).mean(axis=0)
        np.testing.assert_allclose(losses.data, want, atol=1e-12)

    def test_non_finite_loss_detectable(self):
        model = TransformerRegressor(TINY, seed=7)
        x = np.random.default_rng(7).normal(size=(1, 3, 5))
        y = np.array([[0.0, np.nan, 0.0, 0.0]])
        losses = model.task_losses(x, y)
        assert np.isfinite(losses.data).tolist() == [True, False, True, True]


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        model = TransformerRegressor(TINY, seed=8)
        before = model.state_arrays()
        opt = Adam(model.params, lr=1e-3)
        model.zero_grad()
        opt.step()
        after = model.state_arrays()
        for k in before:
            np.testing.assert_array_equal(before[k], after[k])

    def test_first_step_magnitude_is_learning_rate(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = Adam({"p": p}, lr=0.01)
        p.grad = np.array([3.0, -7.0])
        opt.step()
        # bias-corrected first step moves each coordinate by ~lr against the sign
        np.testing.assert_allclose(np.abs(np.array([1.0, -2.0]) - p.data), 0.01, rtol=1e-6)

    def test_quadratic_bowl_descends(self):
        x = Tensor(np.array([4.0, -3.0]), requires_grad=True)
        opt = Adam({"x": x}, lr=0.02)
        losses = []
        for _ in range(400):
            losses.append(float((x.data * x.data).sum()))
            x.grad = 2 * x.data
            opt.step()
        # monotone while far from the floor; Adam steps ~lr per coordinate,
        # so the loss can only chatter once |x| reaches that scale
        assert all(a >= b for a, b in zip(losses[10:150], losses[11:151]))
        assert losses[-1] < 1e-2 * losses[0]


class TestDtype:
    def test_training_step_and_predict_stay_float32(self, monkeypatch):
        # a silent upcast would keep every output correct and lose the speed
        results = []
        make = Tensor._result

        def spy(data, parents, backward):
            results.append(make(data, parents, backward))
            return results[-1]

        monkeypatch.setattr(Tensor, "_result", staticmethod(spy))
        cfg = ModelConfig(seq_len=6, input_dim=12)
        model = TransformerRegressor(cfg, seed=14)
        rng = np.random.default_rng(14)
        x = rng.normal(size=(5, 6, 12))
        y = rng.normal(size=(5, cfg.n_tasks))
        opt = Adam(model.params)
        model.zero_grad()
        model.backward_weighted(model.task_losses(x, y), np.full(cfg.n_tasks, 1.0 / cfg.n_tasks))
        opt.step()
        pred = model.predict(x)
        assert results and all(r.data.dtype == np.float32 for r in results)
        for k, p in model.params.items():
            assert p.data.dtype == np.float32 and p.grad.dtype == np.float32, k
        for moments in (opt._m, opt._v):
            assert set(moments) == set(model.params)
            assert all(v.dtype == np.float32 for v in moments.values())
        assert pred.dtype == np.float32


class TestCheckpoint:
    def test_roundtrip_preserves_predictions(self, tmp_path):
        model = TransformerRegressor(TINY, seed=9)
        fstats = NormStats(mean=np.linspace(-1.0, 1.0, N_BASE_FEATURES), std=np.full(N_BASE_FEATURES, 2.0))
        lstats = NormStats(mean=np.array([0.5, 2.0, 0.4, 30.0]), std=np.array([0.2, 1.0, 0.1, 10.0]))
        path = tmp_path / "model.json"
        save_checkpoint(path, model, fstats, lstats, meta={"strategy": "WESM"})
        ck = load_checkpoint(path)
        for k, v in model.state_arrays().items():
            np.testing.assert_array_equal(ck.model.params[k].data, v, err_msg=k, strict=True)
        x = np.random.default_rng(9).normal(size=(3, 5))
        np.testing.assert_array_equal(ck.model.predict(x), model.predict(x))
        np.testing.assert_array_equal(ck.feature_stats.mean, fstats.mean)
        np.testing.assert_array_equal(ck.label_stats.mean, lstats.mean)
        assert ck.meta["strategy"] == "WESM"

    def test_refuses_architecture_mismatch(self, tmp_path):
        model = TransformerRegressor(TINY, seed=10)
        path = tmp_path / "model.json"
        save_checkpoint(path, model, identity_stats(N_BASE_FEATURES), identity_stats(4))
        with pytest.raises(CheckpointError):
            load_checkpoint(path, expect={"input_dim": 9})
        load_checkpoint(path, expect={"input_dim": 5, "n_tasks": 4})  # compatible

    # feature stats cover the measured columns, not the model's input width (TINY's is 5)
    @pytest.mark.parametrize("feature_width, label_width", [(1, 4), (TINY.input_dim, 4), (N_BASE_FEATURES, 1),
                                                            (N_BASE_FEATURES, 3)])
    def test_refuses_stats_of_the_wrong_width(self, tmp_path, feature_width, label_width):
        # a one-entry label stat would otherwise denormalise all four tasks by one scalar
        path = tmp_path / "model.json"
        save_checkpoint(path, TransformerRegressor(TINY, seed=10),
                        NormStats(mean=np.full(feature_width, 5.0), std=np.full(feature_width, 2.0)),
                        NormStats(mean=np.full(label_width, 5.0), std=np.full(label_width, 2.0)))
        with pytest.raises(CheckpointError, match="feature" if feature_width != N_BASE_FEATURES else "label"):
            load_checkpoint(path)

    def test_refuses_bad_version(self, tmp_path):
        path = tmp_path / "model.json"
        model = TransformerRegressor(TINY, seed=11)
        save_checkpoint(path, model, identity_stats(N_BASE_FEATURES), identity_stats(4))
        blob = path.read_text().replace(f'"format_version": {CHECKPOINT_VERSION}', '"format_version": 99')
        assert '"format_version": 99' in blob
        path.write_text(blob)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_refuses_garbage_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("not json")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("blob", ["[]", "null", '"model"'])
    def test_refuses_json_that_is_not_an_object(self, tmp_path, blob):
        path = tmp_path / "model.json"
        path.write_text(blob)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def _edited(self, tmp_path, edit):
        path = tmp_path / "model.json"
        save_checkpoint(path, TransformerRegressor(TINY, seed=12), identity_stats(N_BASE_FEATURES), identity_stats(4))
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        return path

    def test_refuses_v1_checkpoint(self, tmp_path):
        def downgrade(p):
            p["format_version"] = 1
            p["config"].update(residual_mode="literal", positional=True, ln_eps=1e-5)

        path = self._edited(tmp_path, downgrade)
        with pytest.raises(CheckpointError, match="version 1"):
            load_checkpoint(path)

    def test_refuses_v2_checkpoint(self, tmp_path):
        # version 2 feature stats span every input column, the one-hots included
        def downgrade(p):
            p["format_version"] = 2
            p["feature_stats"] = identity_stats(TINY.input_dim).as_dict()

        path = self._edited(tmp_path, downgrade)
        with pytest.raises(CheckpointError, match="version 2"):
            load_checkpoint(path)

    def test_refuses_zero_std_stats(self, tmp_path):
        path = self._edited(tmp_path, lambda p: p["label_stats"]["std"].__setitem__(0, 0.0))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_refuses_non_finite_stats(self, tmp_path):
        path = self._edited(tmp_path, lambda p: p["feature_stats"]["mean"].__setitem__(1, float("nan")))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_refuses_unknown_expect_key(self, tmp_path):
        path = self._edited(tmp_path, lambda p: None)
        with pytest.raises(CheckpointError, match="n_heads"):
            load_checkpoint(path, expect={"n_heads": 2})

    def test_refuses_unknown_config_key(self, tmp_path):
        path = self._edited(tmp_path, lambda p: p["config"].update(n_heads=2))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_refuses_missing_params(self, tmp_path):
        path = self._edited(tmp_path, lambda p: p.pop("params"))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_refuses_non_finite_params(self, tmp_path):
        def poison(p):
            p["params"]["embed.b1"][0] = float("nan")

        path = self._edited(tmp_path, poison)
        with pytest.raises(CheckpointError, match="embed.b1"):
            load_checkpoint(path)

    def test_refuses_values_beyond_float32_range(self, tmp_path):
        # finite in the float64 the JSON parses to, inf once cast to float32
        def overflow(p):
            p["params"]["head.w2"][1][0] = 1e39

        path = self._edited(tmp_path, overflow)
        with pytest.raises(CheckpointError, match="head.w2"):
            load_checkpoint(path)

    def test_loads_float64_values_within_float32_rounding(self, tmp_path):
        # a payload carries no dtype: values written by a float64 model load
        # into float32 parameters, rounded once
        rng = np.random.default_rng(15)
        wide = float64_copy(TransformerRegressor(TINY, seed=15))
        for t in wide.params.values():
            t.data = t.data + rng.normal(0.0, 1e-3, size=t.shape)
        path = tmp_path / "model.json"
        save_checkpoint(path, wide, identity_stats(N_BASE_FEATURES), identity_stats(4))
        ck = load_checkpoint(path)
        for k, v in wide.state_arrays().items():
            np.testing.assert_array_equal(ck.model.params[k].data, v.astype(np.float32), err_msg=k, strict=True)
        x = rng.normal(size=(4, 3, 5))
        np.testing.assert_allclose(ck.model.predict(x), wide.predict(x), rtol=1e-5, atol=1e-6)
