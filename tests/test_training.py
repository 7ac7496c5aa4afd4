import numpy as np
import pytest

from ridecast.nn.model import ModelConfig, TransformerRegressor
from ridecast.training import (
    StrategyConfig,
    TrainConfig,
    TrainingDiverged,
    aggregate_losses,
    strategy_weights,
    _test_losses,
    train,
)


def _denominator(kind: str, gamma: float, history_len: int) -> float:
    """sum_{j=0..T} c^j, read back as 1 / the aggregate of a lone unit loss."""
    cfg = StrategyConfig(kind=kind, gamma=gamma, history_len=history_len)
    return 1.0 / aggregate_losses(cfg, [], np.array([1.0]))[0]


class TestNormalizationFactor:
    def test_closed_form_small(self):
        assert _denominator("WESM", 0.5, 2) == pytest.approx(1.75, abs=1e-15)

    def test_closed_form_table_defaults(self):
        assert _denominator("ESM", 0.1, 10) == pytest.approx((1 - 0.1**11) / 0.9, abs=1e-15)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            gamma = float(rng.uniform(0.01, 0.99))
            t = int(rng.integers(1, 30))
            direct = sum(gamma**j for j in range(t + 1))
            assert abs(_denominator("WESM", gamma, t) - direct) < 1e-12

    @pytest.mark.parametrize("kind", ["FW", "AM", "WAM"])
    def test_undecayed_kinds_divide_by_window_length(self, kind):
        # gamma is ignored: c = 1, so the denominator is T + 1 exactly
        agg = aggregate_losses(StrategyConfig(kind=kind, gamma=0.3, history_len=6), [], np.array([7.0]))
        assert agg[0] == 1.0


class TestAggregation:
    def test_decayed_hand_example(self):
        # T=1, gamma=0.5: (0.5*0.4 + 0.2) / 1.5
        cfg = StrategyConfig(kind="WESM", gamma=0.5, history_len=1)
        agg = aggregate_losses(cfg, [np.array([0.4])], np.array([0.2]))
        assert agg[0] == pytest.approx(0.4 / 1.5, rel=1e-12)

    def test_decayed_empty_history(self):
        cfg = StrategyConfig(kind="ESM", gamma=0.3, history_len=5)
        agg = aggregate_losses(cfg, [], np.array([0.7]))
        assert agg[0] == pytest.approx(0.7 / _denominator("ESM", 0.3, 5), rel=1e-12)

    def test_decayed_vanishing_gamma_returns_current(self):
        cfg = StrategyConfig(kind="WESM", gamma=1e-12, history_len=10)
        hist = [np.array([5.0])] * 10
        agg = aggregate_losses(cfg, hist, np.array([0.7]))
        assert agg[0] == pytest.approx(0.7, abs=1e-9)

    def test_decayed_constant_history_is_identity(self):
        # weights gamma^j / norm sum to one, so a constant series maps to itself
        cfg = StrategyConfig(kind="WESM", gamma=0.4, history_len=7)
        hist = [np.array([2.5, 0.3])] * 7
        agg = aggregate_losses(cfg, hist, np.array([2.5, 0.3]))
        np.testing.assert_allclose(agg, [2.5, 0.3], rtol=1e-12)

    def test_uniform_hand_example(self):
        agg = aggregate_losses(StrategyConfig(kind="WAM", history_len=1), [np.array([0.4])], np.array([0.2]))
        assert agg[0] == pytest.approx(0.3, rel=1e-12)

    def test_uniform_constant_series(self):
        hist = [np.array([0.9])] * 4
        agg = aggregate_losses(StrategyConfig(kind="AM", history_len=4), hist, np.array([0.9]))
        assert agg[0] == pytest.approx(0.9, rel=1e-12)

    def test_uniform_empty_history(self):
        agg = aggregate_losses(StrategyConfig(kind="WAM", history_len=5), [], np.array([0.6]))
        assert agg[0] == pytest.approx(0.1, rel=1e-12)

    def test_decayed_near_one_approaches_uniform(self):
        rng = np.random.default_rng(1)
        hist = [rng.uniform(0.1, 2.0, size=3) for _ in range(6)]
        cur = rng.uniform(0.1, 2.0, size=3)
        dec = aggregate_losses(StrategyConfig(kind="WESM", gamma=0.999, history_len=6), hist, cur)
        uni = aggregate_losses(StrategyConfig(kind="WAM", history_len=6), hist, cur)
        np.testing.assert_allclose(dec, uni, rtol=5e-3)

    def test_leaves_current_untouched(self):
        cur = np.array([0.2, 0.4])
        aggregate_losses(StrategyConfig(kind="WESM", history_len=2), [np.array([1.0, 1.0])], cur)
        np.testing.assert_array_equal(cur, [0.2, 0.4])


class TestStrategyWeights:
    def test_wesm_normalizes(self):
        np.testing.assert_allclose(strategy_weights("WESM", np.array([2.0, 1.0, 1.0])),
                                   [0.5, 0.25, 0.25])

    def test_am_argmax_one_hot(self):
        np.testing.assert_array_equal(strategy_weights("AM", np.array([0.3, 0.1, 0.1, 0.1])),
                                      [1.0, 0.0, 0.0, 0.0])

    def test_fw_constant(self):
        for agg in (np.array([9.0, 0.1, 3.0, 2.0]), np.zeros(4)):
            np.testing.assert_array_equal(strategy_weights("FW", agg), [0.25] * 4)

    def test_argmax_tie_breaks_to_lowest_index(self):
        np.testing.assert_array_equal(strategy_weights("ESM", np.array([0.5, 0.5, 0.2])),
                                      [1.0, 0.0, 0.0])

    def test_all_zero_falls_back_to_uniform(self):
        for kind in ("AM", "WAM", "ESM", "WESM"):
            np.testing.assert_array_equal(strategy_weights(kind, np.zeros(4)), [0.25] * 4)

    def test_simplex_and_scale_equivariance(self):
        rng = np.random.default_rng(2)
        for _ in range(250):
            m = int(rng.integers(2, 6))
            agg = rng.uniform(0.0, 5.0, size=m)
            c = float(rng.uniform(0.1, 50.0))
            for kind in ("FW", "AM", "WAM", "ESM", "WESM"):
                w = strategy_weights(kind, agg)
                assert np.all(w >= 0)
                assert abs(w.sum() - 1.0) < 1e-9
                np.testing.assert_allclose(strategy_weights(kind, c * agg), w, atol=1e-9)

    def test_refresh_gamma_limit_identity(self):
        # as gamma -> 0 WESM weighting reduces to normalized instantaneous losses
        cfg = StrategyConfig(kind="WESM", gamma=1e-12, history_len=10)
        rng = np.random.default_rng(3)
        recent = [rng.uniform(0.1, 2.0, size=3) for _ in range(10)]
        current = np.array([0.5, 1.0, 0.5])
        w = strategy_weights("WESM", aggregate_losses(cfg, recent, current))
        np.testing.assert_allclose(w, current / current.sum(), atol=1e-9)


class TestConfigs:
    def test_strategy_config_validation(self):
        with pytest.raises(ValueError):
            StrategyConfig(kind="XX")
        with pytest.raises(ValueError):
            StrategyConfig(gamma=1.0)
        with pytest.raises(ValueError):
            StrategyConfig(refresh_every=0)

    @pytest.mark.parametrize("kwargs, match", [
        ({"batch_size": 0}, "batch_size"), ({"batch_size": -4}, "batch_size"),
        ({"epochs": 0}, "epochs"), ({"lr": 0.0}, "lr"), ({"lr": -1e-3}, "lr"),
        ({"lr": float("nan")}, "lr"), ({"lr": float("inf")}, "lr"),
    ])
    def test_train_config_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            TrainConfig(**kwargs)

    def test_table_defaults(self):
        cfg = StrategyConfig()
        assert cfg.gamma == 0.1
        assert cfg.history_len == 10
        assert cfg.refresh_every == 10
        assert TrainConfig().batch_size == 1024
        assert TrainConfig().lr == 1e-3


def _synthetic_tasks(seed: int, n: int, scales=(1.0, 1.0, 1.0, 1.0)):
    """Four regression tasks on (T=4, D=6) sequences with per-task scales.

    Task weight vectors are unit-norm so equal scales give exchangeable tasks.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 4, 6))
    pooled = x.mean(axis=1)
    w = rng.normal(size=(6, 4))
    w /= np.linalg.norm(w, axis=0)
    y = pooled @ w + 0.05 * rng.normal(size=(n, 4))
    y *= np.asarray(scales)
    return x, y


def _small_model(seed: int = 0) -> TransformerRegressor:
    cfg = ModelConfig(seq_len=4, input_dim=6, d_model=8, n_blocks=1, embed_hidden=8,
                      block_hidden=8, head_hidden=8, n_tasks=4)
    return TransformerRegressor(cfg, seed=seed)


class TestTrainLoop:
    def test_weights_on_simplex_every_step(self):
        x, y = _synthetic_tasks(0, 256)
        res = train(_small_model(0), x[:192], y[:192], x[192:], y[192:],
                    StrategyConfig(kind="WESM", refresh_every=5),
                    TrainConfig(batch_size=64, epochs=4, seed=0))
        assert np.all(res.weights >= 0)
        np.testing.assert_allclose(res.weights.sum(axis=1), 1.0, atol=1e-9)

    def test_wesm_weights_near_uniform_for_identical_tasks(self):
        x, y = _synthetic_tasks(1, 384)
        res = train(_small_model(1), x[:320], y[:320], x[320:], y[320:],
                    StrategyConfig(kind="WESM", refresh_every=5),
                    TrainConfig(batch_size=64, epochs=10, seed=1))
        late = res.weights[-20:].mean(axis=0)
        assert np.max(np.abs(late - 0.25)) < 0.05

    def test_am_prefers_large_scale_task_early(self):
        x, y = _synthetic_tasks(2, 384, scales=(1.0, 1.0, 1.0, 10.0))
        res = train(_small_model(2), x[:320], y[:320], x[320:], y[320:],
                    StrategyConfig(kind="AM", refresh_every=5),
                    TrainConfig(batch_size=64, epochs=6, seed=2))
        early = [s for s in res.refresh_steps if s < len(res.weights)][:10]
        picks = [int(np.argmax(res.weights[s])) for s in early]
        assert np.mean([p == 3 for p in picks]) > 0.8

    def test_am_weights_are_one_hot(self):
        x, y = _synthetic_tasks(3, 256)
        res = train(_small_model(3), x[:192], y[:192], x[192:], y[192:],
                    StrategyConfig(kind="AM", refresh_every=5),
                    TrainConfig(batch_size=64, epochs=3, seed=3))
        for w in res.weights:
            assert sorted(w)[-1] == 1.0 and w.sum() == 1.0

    def test_training_reduces_loss(self):
        x, y = _synthetic_tasks(4, 384)
        model = _small_model(4)
        before = ((y[320:] - model.predict(x[320:])) ** 2).mean()
        res = train(model, x[:320], y[:320], x[320:], y[320:],
                    StrategyConfig(kind="WESM"),
                    TrainConfig(batch_size=64, epochs=40, seed=4, lr=3e-3))
        assert res.test_losses[-1].mean() < 0.3 * before

    def test_test_losses_evaluated_once_per_epoch(self):
        x, y = _synthetic_tasks(8, 256)
        model = _small_model(8)
        res = train(model, x[:192], y[:192], x[192:], y[192:],
                    StrategyConfig(kind="WESM"), TrainConfig(batch_size=64, epochs=3, seed=8))
        assert res.train_losses.shape == (9, 4)
        assert res.test_losses.shape == (3, 4)
        np.testing.assert_array_equal(res.test_losses[-1], _test_losses(model, x[192:], y[192:]))

    def test_divergence_aborts_with_diagnostics(self):
        x, y = _synthetic_tasks(5, 128)
        y[:, 1] = np.nan
        with pytest.raises(TrainingDiverged) as exc:
            train(_small_model(5), x[:96], y[:96], x[96:], y[96:],
                  StrategyConfig(), TrainConfig(batch_size=32, epochs=1))
        assert exc.value.step == 0

    def test_deterministic_given_seed(self):
        x, y = _synthetic_tasks(6, 192)
        r1 = train(_small_model(6), x[:160], y[:160], x[160:], y[160:],
                   StrategyConfig(kind="ESM", refresh_every=3),
                   TrainConfig(batch_size=32, epochs=3, seed=6))
        r2 = train(_small_model(6), x[:160], y[:160], x[160:], y[160:],
                   StrategyConfig(kind="ESM", refresh_every=3),
                   TrainConfig(batch_size=32, epochs=3, seed=6))
        np.testing.assert_array_equal(r1.train_losses, r2.train_losses)
        np.testing.assert_array_equal(r1.weights, r2.weights)

    def test_rejects_empty_sets(self):
        x, y = _synthetic_tasks(7, 64)
        with pytest.raises(ValueError):
            train(_small_model(7), x[:0], y[:0], x, y, StrategyConfig(), TrainConfig())

    def test_rejects_inputs_and_labels_of_different_lengths(self):
        x, y = _synthetic_tasks(7, 10)
        with pytest.raises(ValueError, match="differ in length"):
            train(_small_model(7), x[:6], y, x[6:], y[6:], StrategyConfig(), TrainConfig())
        with pytest.raises(ValueError, match="differ in length"):
            train(_small_model(7), x[:6], y[:6], x[6:], y[6:7], StrategyConfig(), TrainConfig())

    @pytest.mark.parametrize("kind", ["FW", "AM", "WAM", "ESM", "WESM"])
    def test_weights_recomputed_from_the_loss_curve(self, kind):
        # every refresh at step s aggregates L_s with the T losses before it,
        # so a window one step too long or too short changes the bits
        gamma, t, every = 0.5, 4, 3
        x, y = _synthetic_tasks(9, 256, scales=(1.0, 2.0, 0.5, 4.0))
        res = train(_small_model(9), x[:192], y[:192], x[192:], y[192:],
                    StrategyConfig(kind=kind, gamma=gamma, history_len=t, refresh_every=every),
                    TrainConfig(batch_size=16, epochs=2, seed=9))
        n = len(res.train_losses)
        assert res.refresh_steps == list(range(0, n, every))
        c = gamma if kind in ("ESM", "WESM") else 1.0
        norm = t + 1 if c == 1.0 else (1.0 - c ** (t + 1)) / (1.0 - c)
        for s in res.refresh_steps:
            acc = res.train_losses[s].copy()
            for j in range(1, min(t, s) + 1):
                acc += c**j * res.train_losses[s - j]
            np.testing.assert_array_equal(res.weights[s], strategy_weights(kind, acc / norm), err_msg=f"step {s}")
            for k in range(s + 1, min(s + every, n)):
                np.testing.assert_array_equal(res.weights[k], res.weights[s], err_msg=f"step {k}")
