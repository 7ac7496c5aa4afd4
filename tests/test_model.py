import dataclasses
import hashlib
import json
import re
import resource
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (
    finite_difference_gradcheck,
    float64_copy,
    identity_stats,
    model_input,
    one_hot_reference,
    one_hot_rows,
    weighted_loss_value,
)
from ridecast.nn.adam import Adam
from ridecast.nn.model import (
    CHECKPOINT_VERSION,
    MALLOC_THRESHOLDS,
    CheckpointError,
    ModelConfig,
    TransformerRegressor,
    keep_freed_heap,
    libc_version,
    load_checkpoint,
    save_checkpoint,
)
from ridecast.demand import COL_GRID, COL_TOD, N_BASE_FEATURES, N_INPUT_COLUMNS, N_TOD, NormStats

# two grids: the smallest input_dim, 13, leaves one
TINY = ModelConfig(seq_len=3, input_dim=N_BASE_FEATURES + 2 + N_TOD, d_model=4, n_blocks=1, embed_hidden=5,
                   block_hidden=6, head_hidden=3, n_tasks=4)
# the width and depth the decision and training paths run at
PRODUCTION = ModelConfig(seq_len=6, input_dim=112)


def reference_forward(x: np.ndarray, p: dict[str, np.ndarray], cfg: ModelConfig) -> np.ndarray:
    """Step-by-step numpy trace of the forward pass, independent of the layer
    chain, with each task's head sliced out of the stacked head parameters."""

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
        x = model_input(np.random.default_rng(0), 1, TINY)
        assert model.predict(x).shape == (1, 4)
        assert model.predict(np.concatenate([x, x])).shape == (2, 4)

    def test_pure_function_of_input(self):
        model = TransformerRegressor(TINY, seed=1)
        batch = model_input(np.random.default_rng(1), 2, TINY)[[0, 1, 0]]
        y = model.predict(batch)
        np.testing.assert_array_equal(y[0], y[2])
        np.testing.assert_array_equal(model.predict(batch), y)

    def test_nan_input_gives_nan_prediction(self):
        # a relu that maps NaN to 0 would return exactly head.b2 here
        model = TransformerRegressor(TINY, seed=0)
        x = model_input(np.random.default_rng(0), 1, TINY)
        x[0, 1, 2] = np.nan
        assert np.all(np.isnan(model.predict(x)))

    def test_nan_input_gives_nan_losses_on_the_tape_path(self):
        # the softmax's row maximum must keep NaN as .max does; np.fmax would drop it
        model = TransformerRegressor(TINY, seed=0)
        rng = np.random.default_rng(0)
        x = model_input(rng, 4, TINY)
        x[2, 1, 2] = np.nan
        losses, tape = model.task_losses(x, rng.normal(size=(4, 4)))
        assert not np.any(np.isfinite(losses))
        model.backward_weighted(tape, np.full(4, 0.25))
        assert not np.all(np.isfinite(model.grads["embed.w1"]))

    @pytest.mark.parametrize("cfg", [TINY, PRODUCTION], ids=["tiny", "production"])
    @pytest.mark.parametrize("padded", [False, True], ids=["real", "padded"])
    def test_matches_reference_trace(self, cfg, padded):
        # the reference multiplies the one-hot form of the input by the whole first weight
        for seed in (0, 1, 2):
            model = float64_copy(TransformerRegressor(cfg, seed=seed))
            x = model_input(np.random.default_rng(seed + 10), 1, cfg, padded=padded)
            got = model.predict(x)[0]
            want = reference_forward(one_hot_rows(x[0], cfg.n_cells), model.params, cfg)
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_stacked_head_replays_per_task_init_draws(self):
        # draws in the order of one (w1, w2) pair per task after the backbone;
        # the stacked head holds them bit for bit, cast once to float32
        c, h = TINY, TINY.head_hidden
        for seed in (0, 1, 2):
            model = TransformerRegressor(TINY, seed=seed)
            got = model.params
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

    def test_predict_records_no_tape(self, monkeypatch):
        # and runs the graph-free attention, which keeps at most two of Q, K and V live
        import ridecast.nn.model as model_mod

        model = TransformerRegressor(TINY, seed=2)
        forward, attend = model._forward, model_mod.attention
        tapes, attended = [], []

        def spy_forward(x, tape=None):
            tapes.append(tape)
            return forward(x, tape)

        def spy_attention(*args):
            attended.append(len(args[0]))
            return attend(*args)

        monkeypatch.setattr(model, "_forward", spy_forward)
        monkeypatch.setattr(model_mod, "attention", spy_attention)
        assert model.predict(model_input(np.random.default_rng(2), 2, TINY)).shape == (2, 4)
        assert tapes == [None] and model.grads == {} and attended == [2] * TINY.n_blocks

    def test_float32_output_matches_float64_copy(self):
        for seed in (0, 1, 2):
            model = TransformerRegressor(TINY, seed=seed)
            x = model_input(np.random.default_rng(seed + 20), 4, TINY)
            got = model.predict(x)
            assert got.dtype == np.float32
            np.testing.assert_allclose(got, float64_copy(model).predict(x), rtol=1e-5)

    def test_float32_output_matches_float64_copy_at_production_shape(self):
        # the same 1e-5 relative bound, taken over each batch's outputs as a whole: float32
        # rounding errs by about 1e-6 of the outputs' scale, and at d = 64 some outputs lie
        # near 0, where that is 1e-5..1e-4 of the element itself
        for seed in (0, 1, 2):
            model = TransformerRegressor(PRODUCTION, seed=seed)
            x = model_input(np.random.default_rng(seed + 20), 4, PRODUCTION)
            got = model.predict(x)
            want = float64_copy(model).predict(x)
            assert got.dtype == np.float32
            assert np.linalg.norm(got - want) <= 1e-5 * np.linalg.norm(want)

    def test_rejects_wrong_shape(self):
        model = TransformerRegressor(TINY)
        with pytest.raises(ValueError):
            model.predict(np.zeros((3, N_INPUT_COLUMNS)))  # one (T, D) sequence, not a batch
        with pytest.raises(ValueError):
            model.predict(np.zeros((1, 4, N_INPUT_COLUMNS)))  # wrong seq_len
        with pytest.raises(ValueError):
            model.predict(np.zeros((2, 3, N_INPUT_COLUMNS + 1)))  # wrong width
        with pytest.raises(ValueError, match=re.escape(f"expected (B, 3, {N_INPUT_COLUMNS})")):
            model.predict(one_hot_rows(model_input(np.random.default_rng(3), 2, TINY), TINY.n_cells))  # one-hots


class TestCheckInput:
    """The index columns must hold whole numbers in range, -1 in both on padding rows; each bad value
    raises a ValueError that names its column, before any layer runs."""

    @pytest.mark.parametrize("col, name, n", [(COL_GRID, "grid", TINY.n_cells), (COL_TOD, "time-of-day", N_TOD)],
                             ids=["grid", "tod"])
    @pytest.mark.parametrize("value", ["n", -2.0, 1.5, np.nan, np.inf, -np.inf], ids=["n", "-2", "1.5", "nan", "inf",
                                                                                    "-inf"])
    @pytest.mark.parametrize("path", ["predict", "task_losses"])
    def test_bad_index_names_its_column(self, col, name, n, value, path):
        model = TransformerRegressor(TINY, seed=20)
        x = model_input(np.random.default_rng(20), 4, TINY)
        x[2, 1, col] = n if value == "n" else value
        want = f"{x[2, 1, col]:g}"
        with pytest.raises(ValueError, match=re.escape(f"{name} index column holds {want}, expected a whole "
                                                       f"number in -1..{n - 1}")):
            if path == "predict":
                model.predict(x)
            else:
                model.task_losses(x, np.zeros((4, 4)))

    @pytest.mark.parametrize("col", [COL_GRID, COL_TOD], ids=["grid", "tod"])
    def test_minus_one_in_one_index_column_only(self, col):
        model = TransformerRegressor(TINY, seed=20)
        x = model_input(np.random.default_rng(20), 4, TINY)
        x[1, 0, col] = -1.0
        with pytest.raises(ValueError, match="grid and time-of-day index columns must be -1 together"):
            model.predict(x)

    def test_accepts_every_index_and_padding(self):
        model = TransformerRegressor(TINY, seed=20)
        x = np.zeros((TINY.n_cells * N_TOD + 1, TINY.seq_len, N_INPUT_COLUMNS))
        x[:-1, :, COL_GRID] = np.repeat(np.arange(TINY.n_cells), N_TOD)[:, None]
        x[:-1, :, COL_TOD] = np.tile(np.arange(N_TOD), TINY.n_cells)[:, None]
        x[-1, :, COL_GRID:] = -1.0  # all padding
        assert np.all(np.isfinite(model.predict(x)))

    def test_nan_in_a_measured_column_is_not_an_index_error(self):
        # it reaches the predictions and the losses (TestForward's NaN tests), and only that sequence's predictions
        model = TransformerRegressor(TINY, seed=20)
        x = model_input(np.random.default_rng(20), 4, TINY)
        x[1, 2, N_BASE_FEATURES - 1] = np.nan
        pred = model.predict(x)
        assert np.all(np.isnan(pred[1])) and np.all(np.isfinite(np.delete(pred, 1, axis=0)))
        assert np.all(np.isnan(model.task_losses(x, np.zeros((4, 4)))[0]))


def production_batch(n: int, seed: int = 0) -> np.ndarray:
    return model_input(np.random.default_rng(seed), n, PRODUCTION, padded=True).astype(np.float32)


class TestPredictIsOneWholePass:
    def test_decision_batch_runs_whole_on_the_calling_thread(self, monkeypatch):
        # a decision batch of 100 grids x 5 candidates: one _forward over all
        # of it, and no thread started
        model = TransformerRegressor(PRODUCTION, seed=21)
        x = production_batch(500)
        want = model._forward(x)
        forward, calls = model._forward, []

        def spy(x, tape=None):
            calls.append((threading.current_thread(), len(x)))
            return forward(x, tape)

        monkeypatch.setattr(model, "_forward", spy)
        threads = threading.enumerate()
        got = model.predict(x)
        assert threading.enumerate() == threads
        assert calls == [(threading.current_thread(), 500)]
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 319, 320, 37, 500, 1025, 2400])
    @pytest.mark.parametrize("wide", [False, True], ids=["float32", "float64"])
    def test_equals_one_whole_forward(self, n, wide):
        # batches on both sides of the size predict once split at, in the
        # model's dtype whatever the input's
        model = TransformerRegressor(PRODUCTION, seed=21)
        if wide:
            model = float64_copy(model)
        x = production_batch(n, seed=n)
        want = model._forward(x.astype(model.dtype))
        got = model.predict(x)
        assert got.dtype == want.dtype == model.dtype
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_traced_peak_stays_under_three_mib(self):
        # a decision batch through the graph-free attention peaks 2.3 MiB over
        # its start; routed through self_attention it peaks 3.8 MiB
        model = TransformerRegressor(PRODUCTION, seed=21)
        x = production_batch(500)
        model.predict(x)  # warm-up
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            model.predict(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 3 * 2**20


@pytest.mark.one_blas_thread
class TestTrainingHoldsOneTape:
    def test_two_steps_peak_under_one_and_a_half_tapes(self):
        # a training step as train runs it, keeping its tape variable into the next step's forward;
        # backward consumes the tape, so that forward does not run with the last step's graph alive
        model = TransformerRegressor(PRODUCTION, seed=21)
        rng = np.random.default_rng(21)
        x, y = production_batch(256, seed=21), rng.normal(size=(256, PRODUCTION.n_tasks))
        w = np.full(PRODUCTION.n_tasks, 1.0 / PRODUCTION.n_tasks)
        optimizer = Adam(model.params, lr=1e-3)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            losses, tape = model.task_losses(x, y)
            tape_bytes = tracemalloc.get_traced_memory()[0] - before
            model.backward_weighted(tape, w)  # warm-up: Adam's moments now exist
            optimizer.step(model.grads)
            del losses, tape
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            for _ in range(2):
                model.zero_grad()
                losses, tape = model.task_losses(x, y)
                model.backward_weighted(tape, w)
                assert tape == []
                optimizer.step(model.grads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 1.5 * tape_bytes


def warm_minor_faults(call) -> int:
    """Minor page faults of two calls after one warm-up call."""
    call()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(2):
        call()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


@pytest.mark.skipif(not (libc_version() or "").startswith("glibc"), reason="the pinned malloc thresholds are glibc's")
@pytest.mark.one_blas_thread
class TestWarmCallsReuseTheHeap:
    """With glibc's thresholds pinned on import, a warmed training step or ``predict`` allocates from the heap
    the last call freed; with glibc's defaults each call page-faulted it back, thousands of faults a step."""

    def test_predict(self):
        model = TransformerRegressor(PRODUCTION, seed=21)
        x = production_batch(500)
        assert warm_minor_faults(lambda: model.predict(x)) < 64

    def test_training_step(self):
        model = TransformerRegressor(PRODUCTION, seed=21)
        rng = np.random.default_rng(21)
        x, y = production_batch(1024, seed=21), rng.normal(size=(1024, PRODUCTION.n_tasks))
        w = np.full(PRODUCTION.n_tasks, 1.0 / PRODUCTION.n_tasks)
        optimizer = Adam(model.params, lr=1e-3)

        def step():
            model.zero_grad()
            _, tape = model.task_losses(x, y)
            model.backward_weighted(tape, w)
            optimizer.step(model.grads)

        assert warm_minor_faults(step) < 256


class TestKeepFreedHeap:
    """``keep_freed_heap`` against a stand-in C library whose ``mallopt`` returns ``result``."""

    @staticmethod
    def libc(result: int) -> tuple[SimpleNamespace, list]:
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return result

        return SimpleNamespace(mallopt=mallopt), calls

    @pytest.mark.parametrize("version", [None, "", "musl 1.2"])
    def test_other_libc_is_left_alone(self, version):
        libc, calls = self.libc(0)  # musl's mallopt is a stub returning 0
        keep_freed_heap(version, libc)
        assert calls == []

    def test_glibc_gets_both_thresholds(self):
        libc, calls = self.libc(1)
        keep_freed_heap("glibc 2.36", libc)
        assert calls == list(MALLOC_THRESHOLDS)

    def test_glibc_refusal_raises(self):
        libc, calls = self.libc(0)
        with pytest.raises(OSError, match="refused mallopt"):
            keep_freed_heap("glibc 2.36", libc)
        assert calls == [MALLOC_THRESHOLDS[0]]


@pytest.mark.one_blas_thread
class TestIndexLookupMatchesOneHots:
    """The embedding's lookup of the grid and time-of-day rows gives the bytes of the one-hot product it
    replaced: predictions, per-task losses and every gradient equal those of ``one_hot_reference``, which
    runs ``mlp_forward`` over ``one_hot_rows`` of the same padded batch.  Byte equality rests on the BLAS
    summing a GEMM's inner dimension in order, as numpy's OpenBLAS does on x86-64 at these hidden widths."""

    @pytest.mark.parametrize("n", [1, 7, 37, 64, 96, 320, 500, 1024, 2400])
    @pytest.mark.parametrize("embed_hidden", [16, 64])
    @pytest.mark.parametrize("wide", [False, True], ids=["float32", "float64"])
    def test_predictions_losses_and_gradients(self, n, embed_hidden, wide):
        model = TransformerRegressor(dataclasses.replace(PRODUCTION, embed_hidden=embed_hidden), seed=n)
        if wide:
            model = float64_copy(model)
        ref = one_hot_reference(model)
        rng = np.random.default_rng(n)
        x = model_input(rng, n, model.config, padded=True).astype(np.float32)
        y = rng.normal(size=(n, model.config.n_tasks))
        w = np.array([0.1, 0.2, 0.3, 0.4])
        got, want = model.predict(x), ref.predict(x)
        assert got.dtype == want.dtype == model.dtype and got.tobytes() == want.tobytes()
        losses = []
        for m in (model, ref):
            loss, tape = m.task_losses(x, y)
            losses.append(loss.tobytes())
            m.backward_weighted(tape, w)
        assert losses[0] == losses[1]
        assert set(model.grads) == set(ref.grads) == set(model.params)
        for k, g in model.grads.items():
            assert g.dtype == ref.grads[k].dtype and g.tobytes() == ref.grads[k].tobytes(), k


class TestBackward:
    def test_zero_loss_zero_gradients_at_exact_fit(self):
        model = TransformerRegressor(TINY, seed=4)
        x = model_input(np.random.default_rng(4), 2, TINY)
        y = model.predict(x)
        losses, tape = model.task_losses(x, y)
        np.testing.assert_array_equal(losses, np.zeros(4))
        model.backward_weighted(tape, np.full(4, 0.25))
        assert all(np.all(g == 0) for g in model.grads.values())

    @pytest.mark.parametrize("weights", [np.array([0.5]), 0.5, np.array([np.nan, 0.0, 0.0, 1.0]),
                                         np.array([0.2, 0.3, 0.5])], ids=["one", "scalar", "nan", "three"])
    def test_rejects_weights_that_are_not_finite_per_task(self, weights):
        # one weight or a scalar would broadcast over the 4 tasks, and NaN would reach every gradient
        model = TransformerRegressor(TINY, seed=8)
        rng = np.random.default_rng(8)
        tape = model.task_losses(model_input(rng, 3, TINY), rng.normal(size=(3, 4)))[1]
        with pytest.raises(ValueError, match=re.escape("weights must be a finite (4,) array")):
            model.backward_weighted(tape, weights)
        assert model.grads == {}

    def test_consumed_tape_is_refused(self):
        # a second backward over the same tape would run nothing and leave the first one's gradients
        model = TransformerRegressor(TINY, seed=9)
        rng = np.random.default_rng(9)
        tape = model.task_losses(model_input(rng, 3, TINY), rng.normal(size=(3, 4)))[1]
        model.backward_weighted(tape, np.full(4, 0.25))
        assert tape == [] and set(model.grads) == set(model.params)
        with pytest.raises(ValueError, match="the tape is empty"):
            model.backward_weighted(tape, np.full(4, 0.25))

    @pytest.mark.parametrize("shape", [(4,), (4, 1), (4, 3), (4, 5), (3, 4)])
    def test_task_losses_rejects_labels_that_are_not_batch_by_tasks(self, shape):
        # the batch holds m = 4 sequences, so 1-D labels would broadcast across the tasks
        model = TransformerRegressor(TINY, seed=6)
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError, match=re.escape(f"expected labels of shape (4, 4), got {shape}")):
            model.task_losses(model_input(rng, 4, TINY), rng.normal(size=shape))

    def test_one_hot_weights_isolate_heads(self):
        model = TransformerRegressor(TINY, seed=5)
        rng = np.random.default_rng(5)
        x = model_input(rng, 3, TINY)
        y = rng.normal(size=(3, 4))
        w = np.array([0.0, 0.0, 1.0, 0.0])
        h = TINY.head_hidden

        model.zero_grad()
        model.backward_weighted(model.task_losses(x, y)[1], w)
        grads = model.grads
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
        solo.backward_weighted(solo.task_losses(x, y_solo)[1], np.ones(4))
        for k, g in grads.items():
            np.testing.assert_allclose(g, solo.grads[k], atol=1e-12, err_msg=k)

    def test_gradients_match_finite_differences(self):
        for seed in (0, 1, 2):
            # one grid, and padding rows, so that w1's grid, time-of-day and measured rows all see gradients
            # from real rows and none from padding rows
            cfg = ModelConfig(seq_len=3, input_dim=N_BASE_FEATURES + 1 + N_TOD, d_model=4, n_blocks=1,
                              embed_hidden=4, block_hidden=5, head_hidden=3, n_tasks=2)
            model = float64_copy(TransformerRegressor(cfg, seed=seed))
            rng = np.random.default_rng(seed + 100)
            x = model_input(rng, 3, cfg, padded=True)
            y = rng.normal(size=(3, 2))
            w = rng.uniform(0.2, 1.0, size=2)
            w /= w.sum()
            assert finite_difference_gradcheck(model, x, y, w) < 1e-4

    def test_float32_gradients_match_float64_copy(self):
        rng = np.random.default_rng(13)
        x = model_input(rng, 8, TINY, padded=True)
        y = rng.normal(size=(8, 4))
        w = np.array([0.1, 0.2, 0.3, 0.4])
        model = TransformerRegressor(TINY, seed=13)
        twin = float64_copy(model)
        for m in (model, twin):
            m.backward_weighted(m.task_losses(x, y)[1], w)
        for k, g in model.grads.items():
            want = twin.grads[k]
            assert g.dtype == np.float32 and want.dtype == np.float64
            assert np.linalg.norm(g - want) <= 1e-3 * np.linalg.norm(want), k

    def test_per_task_losses_are_mean_squared_errors(self):
        model = TransformerRegressor(TINY, seed=6)
        rng = np.random.default_rng(6)
        x = model_input(rng, 4, TINY)
        y = rng.normal(size=(4, 4))
        losses = model.task_losses(x, y)[0]
        assert losses.shape == (4,)
        want = ((y - model.predict(x)) ** 2).mean(axis=0)
        np.testing.assert_allclose(losses, want, atol=1e-12)

    def test_non_finite_loss_detectable(self):
        model = TransformerRegressor(TINY, seed=7)
        x = model_input(np.random.default_rng(7), 1, TINY)
        y = np.array([[0.0, np.nan, 0.0, 0.0]])
        losses = model.task_losses(x, y)[0]
        assert np.isfinite(losses).tolist() == [True, False, True, True]


class TestChain:
    """The model is one chain of layers, each naming its parameters."""

    @pytest.mark.parametrize("cfg", [TINY, PRODUCTION], ids=["tiny", "production"])
    def test_names_each_parameter_in_exactly_one_layer(self, cfg):
        # what lets backward_weighted set each gradient instead of summing
        model = TransformerRegressor(cfg)
        names = [k for _, layer_names in model._chain for k in layer_names]
        assert len(names) == len(set(names)) and set(names) == set(model.params)

    @pytest.mark.parametrize("wide", [False, True], ids=["float32", "float64"])
    def test_backward_sets_a_gradient_for_every_parameter(self, wide):
        model = TransformerRegressor(TINY, seed=16)
        if wide:
            model = float64_copy(model)
        rng = np.random.default_rng(16)
        model.backward_weighted(model.task_losses(model_input(rng, 3, TINY), rng.normal(size=(3, 4)))[1],
                                np.full(4, 0.25))
        assert set(model.grads) == set(model.params)
        for k, p in model.params.items():
            assert model.grads[k].shape == p.shape and model.grads[k].dtype == p.dtype, k

    def test_weights_are_copied(self):
        # float32 weights already have the model's dtype, so only a deliberate copy is a new array
        model = TransformerRegressor(TINY, seed=17)
        rng = np.random.default_rng(17)
        losses, tape = model.task_losses(model_input(rng, 3, TINY), rng.normal(size=(3, 4)))
        seeds = []
        back, names = tape[-1]
        tape[-1] = (lambda g: (seeds.append(g), back(g))[1], names)
        w = np.full(4, 0.25, dtype=np.float32)
        model.backward_weighted(tape, w)
        assert len(seeds) == 1 and seeds[0] is not w and not np.shares_memory(seeds[0], w)
        assert seeds[0].tobytes() == w.tobytes()

    def test_zero_grad_clears_grads(self):
        model = TransformerRegressor(TINY, seed=18)
        rng = np.random.default_rng(18)
        model.backward_weighted(model.task_losses(model_input(rng, 2, TINY), rng.normal(size=(2, 4)))[1],
                                np.full(4, 0.25))
        assert model.grads
        model.zero_grad()
        assert model.grads == {}

    @pytest.mark.parametrize("n", [500, 1024])
    def test_tape_and_inference_attention_give_equal_bytes(self, n):
        # predict runs the graph-free attention and training the fused one; the
        # golden decision and training traces rely on their outputs agreeing
        model = TransformerRegressor(PRODUCTION, seed=19)
        x = production_batch(n, seed=n)
        want = model._forward(x)
        got = model._forward(x, [])
        assert got.dtype == want.dtype == np.float32
        assert got.shape == want.shape == (n, PRODUCTION.n_tasks) and got.tobytes() == want.tobytes()


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        model = TransformerRegressor(TINY, seed=8)
        before = model.state_arrays()
        opt = Adam(model.params, lr=1e-3)
        opt.step({k: np.zeros_like(p) for k, p in model.params.items()})
        after = model.state_arrays()
        for k in before:
            np.testing.assert_array_equal(before[k], after[k])

    def test_first_step_magnitude_is_learning_rate(self):
        p = np.array([1.0, -2.0])
        opt = Adam({"p": p}, lr=0.01)
        opt.step({"p": np.array([3.0, -7.0])})
        # bias-corrected first step moves each coordinate by ~lr against the sign
        np.testing.assert_allclose(np.abs(np.array([1.0, -2.0]) - p), 0.01, rtol=1e-6)

    def test_quadratic_bowl_descends(self):
        x = np.array([4.0, -3.0])
        opt = Adam({"x": x}, lr=0.02)
        losses = []
        for _ in range(400):
            losses.append(float((x * x).sum()))
            opt.step({"x": 2 * x})
        # monotone while far from the floor; Adam steps ~lr per coordinate,
        # so the loss can only chatter once |x| reaches that scale
        assert all(a >= b for a, b in zip(losses[10:150], losses[11:151]))
        assert losses[-1] < 1e-2 * losses[0]


class TestDtype:
    def test_training_step_and_predict_stay_float32(self, monkeypatch):
        # a silent upcast would keep every output correct and lose the speed
        import ridecast.nn.model as model_mod

        arrays = []

        def spying(layer):
            def spy(*args):
                out = layer(*args)
                arrays.append(out if isinstance(out, np.ndarray) else out[0])
                return out
            return spy

        for name in ("embed", "add_position", "add_layer_norm", "self_attention", "attention", "mlp_forward",
                     "pooled_heads", "task_mse"):
            monkeypatch.setattr(model_mod, name, spying(getattr(model_mod, name)))
        cfg = ModelConfig(seq_len=6, input_dim=N_BASE_FEATURES + 4 + N_TOD)
        model = TransformerRegressor(cfg, seed=14)
        rng = np.random.default_rng(14)
        x = model_input(rng, 5, cfg, padded=True)
        y = rng.normal(size=(5, cfg.n_tasks))
        opt = Adam(model.params, lr=1e-3)
        model.zero_grad()
        losses, tape = model.task_losses(x, y)
        # every layer output of the chain (4 per block) and the losses
        assert len(arrays) == 2 + 4 * cfg.n_blocks + 2
        tape[:] = [(spying(back), names) for back, names in tape]
        model.backward_weighted(tape, np.full(cfg.n_tasks, 1.0 / cfg.n_tasks))
        opt.step(model.grads)
        pred = model.predict(x)
        assert len(arrays) == 2 * (2 + 4 * cfg.n_blocks + 2) + 3 + 4 * cfg.n_blocks
        assert all(a is None or a.dtype == np.float32 for a in arrays)
        for k, p in model.params.items():
            assert p.dtype == np.float32 and model.grads[k].dtype == np.float32, k
        for moments in (opt._m, opt._v):
            assert set(moments) == set(model.params)
            assert all(v.dtype == np.float32 for v in moments.values())
        assert pred.dtype == np.float32


class TestModelConfig:
    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(ModelConfig)])
    @pytest.mark.parametrize("value", [4.5, 4.0, 0])
    def test_sizes_must_be_integers_at_least_one(self, field, value):
        # d_model=4.5 used to pass and fail later with a TypeError in the draws
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(TINY, **{field: value})

    def test_numpy_integers_are_accepted(self):
        cfg = ModelConfig(**{k: np.int64(v) for k, v in dataclasses.asdict(TINY).items()})
        assert cfg == TINY
        assert TransformerRegressor(cfg).predict(np.zeros((1, 3, N_INPUT_COLUMNS))).shape == (1, 4)

    @pytest.mark.parametrize("input_dim", [1, N_BASE_FEATURES, N_BASE_FEATURES + N_TOD])
    def test_input_dim_leaves_a_grid_row(self, input_dim):
        # the first layer needs a row per measured column, per time of day and for at least one grid
        with pytest.raises(ValueError, match=f"input_dim must be an integer >= {N_BASE_FEATURES + N_TOD + 1}"):
            dataclasses.replace(TINY, input_dim=input_dim)
        assert dataclasses.replace(TINY, input_dim=N_BASE_FEATURES + N_TOD + 1).n_cells == 1


class TestCheckpoint:
    def test_roundtrip_preserves_predictions(self, tmp_path):
        model = TransformerRegressor(TINY, seed=9)
        fstats = NormStats(mean=np.linspace(-1.0, 1.0, N_BASE_FEATURES), std=np.full(N_BASE_FEATURES, 2.0))
        lstats = NormStats(mean=np.array([0.5, 2.0, 0.4, 30.0]), std=np.array([0.2, 1.0, 0.1, 10.0]))
        path = tmp_path / "model.json"
        save_checkpoint(path, model, fstats, lstats, meta={"strategy": "WESM"})
        ck = load_checkpoint(path)
        for k, v in model.state_arrays().items():
            np.testing.assert_array_equal(ck.model.params[k], v, err_msg=k, strict=True)
        x = model_input(np.random.default_rng(9), 2, TINY, padded=True)
        np.testing.assert_array_equal(ck.model.predict(x), model.predict(x))
        np.testing.assert_array_equal(ck.feature_stats.mean, fstats.mean)
        np.testing.assert_array_equal(ck.label_stats.mean, lstats.mean)
        assert ck.meta["strategy"] == "WESM"

    # a production-width checkpoint as save_checkpoint wrote it while the model's input held the one-hot
    # columns, and that model's predictions on the one-hot form of a padded 37-sequence batch
    V3_FILE = "ac987be5422f850e471a50b06cf669f4ff9699d4ca3a236116a7e14830b74ce5"
    V3_PREDICTIONS = "1ef19f2ef3a8dc28432bbb1278fcc541ebb285967fe428c991d3775fca4e3cc3"

    def test_v3_layout_predicts_the_one_hot_bytes_on_index_input(self, tmp_path):
        path = tmp_path / "model.json"
        fstats = NormStats(mean=np.linspace(-1.0, 1.0, N_BASE_FEATURES), std=np.full(N_BASE_FEATURES, 2.0))
        lstats = NormStats(mean=np.array([0.5, 2.0, 0.4, 30.0]), std=np.array([0.2, 1.0, 0.1, 10.0]))
        save_checkpoint(path, TransformerRegressor(PRODUCTION, seed=23), fstats, lstats, meta={"strategy": "WESM"})
        assert CHECKPOINT_VERSION == 3
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.V3_FILE
        x = model_input(np.random.default_rng(23), 37, PRODUCTION, padded=True).astype(np.float32)
        pred = load_checkpoint(path, expect={"input_dim": 112}).model.predict(x)
        assert pred.dtype == np.float32 and hashlib.sha256(pred.tobytes()).hexdigest() == self.V3_PREDICTIONS

    def test_refuses_architecture_mismatch(self, tmp_path):
        model = TransformerRegressor(TINY, seed=10)
        path = tmp_path / "model.json"
        save_checkpoint(path, model, identity_stats(N_BASE_FEATURES), identity_stats(4))
        with pytest.raises(CheckpointError):
            load_checkpoint(path, expect={"input_dim": 9})
        load_checkpoint(path, expect={"input_dim": TINY.input_dim, "n_tasks": 4})  # compatible

    # feature stats cover the measured columns, not the model's input width (TINY's is 14)
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

    def test_refuses_non_integer_config(self, tmp_path):
        # used to escape as the TypeError of the parameter draws
        path = self._edited(tmp_path, lambda p: p["config"].update(d_model=4.5))
        with pytest.raises(CheckpointError, match="d_model"):
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

    def test_non_finite_params_not_saved(self, tmp_path):
        # JSON has no NaN: the file would hold a non-standard token, and load_checkpoint would refuse it
        model = TransformerRegressor(TINY, seed=12)
        model.params["head.b2"][1] = np.nan
        path = tmp_path / "model.json"
        with pytest.raises(CheckpointError, match="head.b2"):
            save_checkpoint(path, model, identity_stats(N_BASE_FEATURES), identity_stats(4))
        assert not path.exists()

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
        for k, p in wide.params.items():
            wide.params[k] = p + rng.normal(0.0, 1e-3, size=p.shape)
        path = tmp_path / "model.json"
        save_checkpoint(path, wide, identity_stats(N_BASE_FEATURES), identity_stats(4))
        ck = load_checkpoint(path)
        for k, v in wide.state_arrays().items():
            np.testing.assert_array_equal(ck.model.params[k], v.astype(np.float32), err_msg=k, strict=True)
        x = model_input(rng, 4, TINY)
        np.testing.assert_allclose(ck.model.predict(x), wide.predict(x), rtol=1e-5, atol=1e-6)
