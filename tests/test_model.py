import json

import numpy as np
import pytest

from conftest import finite_difference_gradcheck, float64_copy, identity_stats, weighted_loss_value
from ridecast.nn.adam import Adam
from ridecast.nn.model import (
    CHECKPOINT_VERSION,
    CheckpointError,
    ModelConfig,
    TransformerRegressor,
    load_checkpoint,
    save_checkpoint,
)
from ridecast.nn.layers import mlp_forward
from ridecast.nn.tensor import Tensor
from ridecast.demand import NormStats

TINY = ModelConfig(seq_len=3, input_dim=5, d_model=4, n_blocks=1, embed_hidden=5,
                   block_hidden=6, head_hidden=3, n_tasks=4)


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

    def test_matches_reference_trace(self):
        for seed in (0, 1, 2):
            model = float64_copy(TransformerRegressor(TINY, seed=seed))
            x = np.random.default_rng(seed + 10).normal(size=(3, 5))
            got = model.predict(x)
            want = reference_forward(x, {k: t.data for k, t in model.params.items()}, TINY)
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

    def test_rejects_wrong_shape(self):
        model = TransformerRegressor(TINY)
        with pytest.raises(ValueError):
            model.predict(np.zeros((4, 5)))  # wrong seq_len
        with pytest.raises(ValueError):
            model.predict(np.zeros((2, 3, 6)))  # wrong input_dim


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
            x.zero_grad()
            loss = (x * x).sum()
            loss.backward()
            losses.append(loss.item())
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
        fstats = NormStats(mean=np.zeros(5), std=np.ones(5))
        lstats = NormStats(mean=np.array([0.5, 2.0, 0.4, 30.0]), std=np.array([0.2, 1.0, 0.1, 10.0]))
        path = tmp_path / "model.json"
        save_checkpoint(path, model, fstats, lstats, meta={"strategy": "WESM"})
        ck = load_checkpoint(path)
        for k, v in model.state_arrays().items():
            np.testing.assert_array_equal(ck.model.params[k].data, v, err_msg=k, strict=True)
        x = np.random.default_rng(9).normal(size=(3, 5))
        np.testing.assert_array_equal(ck.model.predict(x), model.predict(x))
        np.testing.assert_array_equal(ck.label_stats.mean, lstats.mean)
        assert ck.meta["strategy"] == "WESM"

    def test_refuses_architecture_mismatch(self, tmp_path):
        model = TransformerRegressor(TINY, seed=10)
        path = tmp_path / "model.json"
        save_checkpoint(path, model, identity_stats(5), identity_stats(4))
        with pytest.raises(CheckpointError):
            load_checkpoint(path, expect={"input_dim": 9})
        load_checkpoint(path, expect={"input_dim": 5, "n_tasks": 4})  # compatible

    @pytest.mark.parametrize("feature_width, label_width", [(1, 4), (6, 4), (5, 1), (5, 3)])
    def test_refuses_stats_of_the_wrong_width(self, tmp_path, feature_width, label_width):
        # a one-entry label stat would otherwise denormalise all four tasks by one scalar
        path = tmp_path / "model.json"
        save_checkpoint(path, TransformerRegressor(TINY, seed=10),
                        NormStats(mean=np.full(feature_width, 5.0), std=np.full(feature_width, 2.0)),
                        NormStats(mean=np.full(label_width, 5.0), std=np.full(label_width, 2.0)))
        with pytest.raises(CheckpointError, match="feature" if feature_width != 5 else "label"):
            load_checkpoint(path)

    def test_refuses_bad_version(self, tmp_path):
        path = tmp_path / "model.json"
        model = TransformerRegressor(TINY, seed=11)
        save_checkpoint(path, model, identity_stats(5), identity_stats(4))
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
        save_checkpoint(path, TransformerRegressor(TINY, seed=12), identity_stats(5), identity_stats(4))
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
        # a v2 payload carries no dtype: values written by a float64 model load
        # into float32 parameters, rounded once
        rng = np.random.default_rng(15)
        wide = float64_copy(TransformerRegressor(TINY, seed=15))
        for t in wide.params.values():
            t.data = t.data + rng.normal(0.0, 1e-3, size=t.shape)
        path = tmp_path / "model.json"
        save_checkpoint(path, wide, identity_stats(5), identity_stats(4))
        ck = load_checkpoint(path)
        for k, v in wide.state_arrays().items():
            np.testing.assert_array_equal(ck.model.params[k].data, v.astype(np.float32), err_msg=k, strict=True)
        x = rng.normal(size=(4, 3, 5))
        np.testing.assert_allclose(ck.model.predict(x), wide.predict(x), rtol=1e-5, atol=1e-6)
