import json

import numpy as np
import pytest

from conftest import finite_difference_gradcheck, weighted_loss_value
from ridecast.nn.adam import Adam
from ridecast.nn.model import (
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
    """Step-by-step numpy trace of the forward pass, independent of Tensor."""

    def np_mlp(a, pre):
        h = np.maximum(a @ p[pre + "w1"] + p[pre + "b1"], 0.0)
        return h @ p[pre + "w2"] + p[pre + "b2"]

    def np_ln(a, pre):
        mu = a.mean(axis=-1, keepdims=True)
        var = ((a - mu) ** 2).mean(axis=-1, keepdims=True)
        return p[pre + "gamma"] * (a - mu) / np.sqrt(var + cfg.ln_eps) + p[pre + "beta"]

    def np_attn(a, pre):
        q, k, v = a @ p[pre + "wq"], a @ p[pre + "wk"], a @ p[pre + "wv"]
        s = q @ k.T / np.sqrt(cfg.d_model)
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        return (e / e.sum(axis=-1, keepdims=True)) @ v

    o = np_mlp(x, "embed.")
    if cfg.positional:
        o = o + p["pos"]
    for b in range(cfg.n_blocks):
        pre = f"block{b}."
        h1 = np_attn(o + np_ln(o, pre + "ln1."), pre)
        h2 = np_mlp(h1 + np_ln(h1, pre + "ln2."), pre + "mlp.")
        o = h2
    pooled = o.mean(axis=0)
    return np.array([np_mlp(pooled[None, :], f"head{i}.")[0, 0] for i in range(cfg.n_tasks)])


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

    def test_matches_reference_trace(self):
        for seed in (0, 1, 2):
            model = TransformerRegressor(TINY, seed=seed)
            x = np.random.default_rng(seed + 10).normal(size=(3, 5))
            got = model.predict(x)
            want = reference_forward(x, {k: t.data for k, t in model.params.items()}, TINY)
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_prenorm_variant_matches_reference(self):
        cfg = ModelConfig(seq_len=3, input_dim=5, d_model=4, n_blocks=2, embed_hidden=5,
                          block_hidden=6, head_hidden=3, n_tasks=2, residual_mode="prenorm")
        model = TransformerRegressor(cfg, seed=3)
        p = {k: t.data for k, t in model.params.items()}
        x = np.random.default_rng(3).normal(size=(3, 5))

        def np_mlp(a, pre):
            h = np.maximum(a @ p[pre + "w1"] + p[pre + "b1"], 0.0)
            return h @ p[pre + "w2"] + p[pre + "b2"]

        def np_ln(a, pre):
            mu = a.mean(axis=-1, keepdims=True)
            var = ((a - mu) ** 2).mean(axis=-1, keepdims=True)
            return p[pre + "gamma"] * (a - mu) / np.sqrt(var + cfg.ln_eps) + p[pre + "beta"]

        def np_attn(a, pre):
            q, k, v = a @ p[pre + "wq"], a @ p[pre + "wk"], a @ p[pre + "wv"]
            s = q @ k.T / np.sqrt(cfg.d_model)
            e = np.exp(s - s.max(axis=-1, keepdims=True))
            return (e / e.sum(axis=-1, keepdims=True)) @ v

        o = np_mlp(x, "embed.") + p["pos"]
        for b in range(cfg.n_blocks):
            pre = f"block{b}."
            h1 = o + np_attn(np_ln(o, pre + "ln1."), pre)
            o = h1 + np_mlp(np_ln(h1, pre + "ln2."), pre + "mlp.")
        pooled = o.mean(axis=0)
        want = np.array([np_mlp(pooled[None, :], f"head{i}.")[0, 0] for i in range(cfg.n_tasks)])
        np.testing.assert_allclose(model.predict(x), want, atol=1e-10)

    def test_predict_records_no_graph(self, monkeypatch):
        import ridecast.nn.model as model_mod

        outputs = []

        def spy_mlp(*args, **kwargs):
            outputs.append(mlp_forward(*args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(model_mod, "mlp_forward", spy_mlp)
        model = TransformerRegressor(TINY, seed=2)
        model.predict(np.random.default_rng(2).normal(size=(2, 3, 5)))
        # embed, one block MLP and four heads
        assert len(outputs) == 6
        assert all(o._parents == () and o._backward is None and not o.requires_grad for o in outputs)
        assert all(p.grad is None and p.requires_grad for p in model.params.values())

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
        assert all(l.item() == 0.0 for l in losses)
        model.backward_weighted(losses, np.full(4, 0.25))
        assert all(np.all(p.grad == 0) for p in model.params.values() if p.grad is not None)

    def test_one_hot_weights_isolate_heads(self):
        model = TransformerRegressor(TINY, seed=5)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 3, 5))
        y = rng.normal(size=(3, 4))
        w = np.array([0.0, 0.0, 1.0, 0.0])

        model.zero_grad()
        model.backward_weighted(model.task_losses(x, y), w)
        onehot_grads = {k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                        for k, p in model.params.items()}
        for i in (0, 1, 3):
            for suffix in ("w1", "b1", "w2", "b2"):
                assert np.all(onehot_grads[f"head{i}.{suffix}"] == 0)
        assert np.any(onehot_grads["head2.w1"] != 0)

        # backbone gradient equals the task-2-only gradient
        solo = TransformerRegressor(TINY, seed=5)
        solo.backward_weighted([solo.task_losses(x, y)[2]], np.array([1.0]))
        for k, g in onehot_grads.items():
            if k.startswith("head"):
                continue
            np.testing.assert_allclose(g, solo.params[k].grad, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        for seed in (0, 1, 2):
            cfg = ModelConfig(seq_len=3, input_dim=4, d_model=4, n_blocks=1, embed_hidden=4,
                              block_hidden=5, head_hidden=3, n_tasks=2)
            model = TransformerRegressor(cfg, seed=seed)
            rng = np.random.default_rng(seed + 100)
            x = rng.normal(size=(2, 3, 4))
            y = rng.normal(size=(2, 2))
            w = rng.uniform(0.2, 1.0, size=2)
            w /= w.sum()
            assert finite_difference_gradcheck(model, x, y, w) < 1e-4

    def test_per_task_losses_are_mean_squared_errors(self):
        model = TransformerRegressor(TINY, seed=6)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 3, 5))
        y = rng.normal(size=(4, 4))
        losses = np.array([l.item() for l in model.task_losses(x, y)])
        want = ((y - model.predict(x)) ** 2).mean(axis=0)
        np.testing.assert_allclose(losses, want, atol=1e-12)

    def test_non_finite_loss_detectable(self):
        model = TransformerRegressor(TINY, seed=7)
        x = np.random.default_rng(7).normal(size=(1, 3, 5))
        y = np.array([[0.0, np.nan, 0.0, 0.0]])
        losses = model.task_losses(x, y)
        assert not all(np.isfinite(l.item()) for l in losses)


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


class TestCheckpoint:
    def test_roundtrip_preserves_predictions(self, tmp_path):
        model = TransformerRegressor(TINY, seed=9)
        fstats = NormStats(mean=np.zeros(5), std=np.ones(5))
        lstats = NormStats(mean=np.array([0.5, 2.0, 0.4, 30.0]), std=np.array([0.2, 1.0, 0.1, 10.0]))
        path = tmp_path / "model.json"
        save_checkpoint(path, model, fstats, lstats, meta={"strategy": "WESM"})
        ck = load_checkpoint(path)
        x = np.random.default_rng(9).normal(size=(3, 5))
        np.testing.assert_array_equal(ck.model.predict(x), model.predict(x))
        np.testing.assert_array_equal(ck.label_stats.mean, lstats.mean)
        assert ck.meta["strategy"] == "WESM"

    def test_refuses_architecture_mismatch(self, tmp_path):
        model = TransformerRegressor(TINY, seed=10)
        path = tmp_path / "model.json"
        save_checkpoint(path, model, NormStats.identity(5), NormStats.identity(4))
        with pytest.raises(CheckpointError):
            load_checkpoint(path, expect={"input_dim": 9})
        load_checkpoint(path, expect={"input_dim": 5, "n_tasks": 4})  # compatible

    def test_refuses_bad_version(self, tmp_path):
        path = tmp_path / "model.json"
        model = TransformerRegressor(TINY, seed=11)
        save_checkpoint(path, model, NormStats.identity(5), NormStats.identity(4))
        blob = path.read_text().replace('"format_version": 1', '"format_version": 99')
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
        save_checkpoint(path, TransformerRegressor(TINY, seed=12), NormStats.identity(5), NormStats.identity(4))
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        return path

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
