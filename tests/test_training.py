import hashlib
import re

import numpy as np
import pytest

from ridecast.demand import COL_GRID, COL_TOD, N_BASE_FEATURES, N_INPUT_COLUMNS, N_TOD
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

    @pytest.mark.parametrize("field", ["history_len", "refresh_every"])
    @pytest.mark.parametrize("value", [2.5, 2.0])
    def test_strategy_counts_must_be_integers(self, field, value):
        # refresh_every=2.5 used to train, refreshing every 5 steps, and
        # history_len=2.5 to fail at the first refresh with a TypeError
        with pytest.raises(ValueError, match=field):
            StrategyConfig(**{field: value})
        assert StrategyConfig(**{field: np.int64(3)}) == StrategyConfig(**{field: 3})

    @pytest.mark.parametrize("kwargs, match", [
        ({"batch_size": 0}, "batch_size"), ({"batch_size": -4}, "batch_size"),
        ({"epochs": 0}, "epochs"), ({"lr": 0.0}, "lr"), ({"lr": -1e-3}, "lr"),
        ({"lr": float("nan")}, "lr"), ({"lr": float("inf")}, "lr"),
        # 2.5 used to pass here and fail later with a TypeError
        ({"batch_size": 2.5}, "batch_size"), ({"epochs": 1.5}, "epochs"), ({"batch_size": 64.0}, "batch_size"),
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
    """Four regression tasks on T=4 sequences of six normal measured columns, the other two zero, with
    per-task scales; every row is grid 0 at time of day 0.

    Task weight vectors are unit-norm so equal scales give exchangeable tasks.
    """
    rng = np.random.default_rng(seed)
    x = np.zeros((n, 4, N_INPUT_COLUMNS))
    x[..., :6] = rng.normal(size=(n, 4, 6))
    pooled = x[..., :6].mean(axis=1)
    w = rng.normal(size=(6, 4))
    w /= np.linalg.norm(w, axis=0)
    y = pooled @ w + 0.05 * rng.normal(size=(n, 4))
    y *= np.asarray(scales)
    return x, y


def _small_model(seed: int = 0) -> TransformerRegressor:
    cfg = ModelConfig(seq_len=4, input_dim=N_BASE_FEATURES + 1 + N_TOD, d_model=8, n_blocks=1, embed_hidden=8,
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
        strategy = StrategyConfig(kind="AM", refresh_every=5)
        res = train(_small_model(2), x[:320], y[:320], x[320:], y[320:], strategy,
                    TrainConfig(batch_size=64, epochs=6, seed=2))
        early = list(range(0, len(res.steps), strategy.refresh_every))[:10]
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
        # one Adam step at this rate throws the weights far enough that the
        # next batch's losses overflow
        x, y = _synthetic_tasks(5, 128)
        with pytest.raises(TrainingDiverged) as exc, np.errstate(over="ignore", invalid="ignore"):
            train(_small_model(5), x[:96], y[:96], x[96:], y[96:],
                  StrategyConfig(), TrainConfig(batch_size=32, lr=1e10, epochs=1))
        assert exc.value.step == 1
        assert np.all(np.isfinite(exc.value.last_losses)) and np.all(exc.value.last_losses > 0)

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

    @pytest.mark.parametrize("side", ["train", "test"])
    @pytest.mark.parametrize("cols", [(1,), (), (3,), (5,)], ids=["N,1", "N", "N,3", "N,5"])
    def test_rejects_labels_that_are_not_n_by_tasks(self, side, cols):
        # (N, 1) or (N,) labels would broadcast across all four heads
        x, y = _synthetic_tasks(7, 10)
        labels = {"train": y[:6], "test": y[6:]}
        labels[side] = np.zeros((len(labels[side]), *cols))
        with pytest.raises(ValueError, match=re.escape(f"{side} labels must have shape (N, 4), "
                                                       f"got {labels[side].shape}")):
            train(_small_model(7), x[:6], labels["train"], x[6:], labels["test"], StrategyConfig(), TrainConfig())

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("kind", ["features", "labels"])
    @pytest.mark.parametrize("side", ["train", "test"])
    def test_rejects_non_finite_inputs(self, side, kind, value):
        # unchecked, a NaN test feature gives all-NaN test losses, and a NaN
        # train value a TrainingDiverged that blames the training
        x, y = _synthetic_tasks(7, 10)
        arrays = {("train", "features"): x[:6], ("train", "labels"): y[:6],
                  ("test", "features"): x[6:], ("test", "labels"): y[6:]}  # train's argument order
        bad = arrays[side, kind].copy()
        bad.flat[bad.size // 2] = value
        arrays[side, kind] = bad
        with pytest.raises(ValueError, match=f"{side} {kind} are not all finite"):
            train(_small_model(7), *arrays.values(), StrategyConfig(), TrainConfig())

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
        c = gamma if kind in ("ESM", "WESM") else 1.0
        norm = t + 1 if c == 1.0 else (1.0 - c ** (t + 1)) / (1.0 - c)
        for s in range(0, n, every):
            acc = res.train_losses[s].copy()
            for j in range(1, min(t, s) + 1):
                acc += c**j * res.train_losses[s - j]
            np.testing.assert_array_equal(res.weights[s], strategy_weights(kind, acc / norm), err_msg=f"step {s}")
            for k in range(s + 1, min(s + every, n)):
                np.testing.assert_array_equal(res.weights[k], res.weights[s], err_msg=f"step {k}")


GOLDEN_STRATEGY = StrategyConfig(kind="WESM", refresh_every=3)


def golden_run():
    """A fixed-seed WESM run of the production-width forecaster.

    320 training and 64 test sequences of (T=6) float32 inputs laid out as
    the data layer builds them: eight z-scored measured columns, then a grid
    index over 100 cells and a time-of-day code, the same in every row of a
    sequence.  Labels are four tasks read off the pooled measured columns
    plus noise.  The one-hot form of the same inputs gives the same bytes
    (``TestIndexLookupMatchesOneHots``).
    """
    rng = np.random.default_rng(31)
    n, t = 384, 6
    x = np.zeros((n, t, N_INPUT_COLUMNS), dtype=np.float32)
    x[..., :N_BASE_FEATURES] = rng.normal(size=(n, t, N_BASE_FEATURES))
    x[..., COL_GRID] = rng.integers(0, 100, n)[:, None]
    x[..., COL_TOD] = rng.integers(0, N_TOD, n)[:, None]
    y = x[..., :N_BASE_FEATURES].mean(axis=1) @ rng.normal(size=(8, 4)) + 0.1 * rng.normal(size=(n, 4))
    model = TransformerRegressor(ModelConfig(seq_len=t, input_dim=112), seed=31)
    return train(model, x[:320], y[:320], x[320:], y[320:], GOLDEN_STRATEGY,
                 TrainConfig(batch_size=64, epochs=2, seed=31))


@pytest.mark.one_blas_thread
class TestGoldenTrainingTrace:
    """Pins the bytes of a fixed-seed training run's loss curves and task
    weights.  A change that moves them must say why in CHANGES.md and re-pin.
    The pins were taken with numpy's OpenBLAS on x86-64; a BLAS that orders
    float32 sums differently may move the bytes."""

    TRAIN_LOSSES = "4e0e611872480f38d4c1ca8ac02bc2dd4e3fd046a32bbf5c4443877089abd84f"
    TEST_LOSSES = "78c5ee8e82e8aa77ee5210143af4f0ef029a822d95593620efcf9ee834e90ffa"
    WEIGHTS = "542fbe0a315db0ef40c86a1c14d0e184dd5b28a44fe750626f150052ec364883"

    def test_run(self):
        res = golden_run()
        assert res.train_losses.shape == (10, 4) and res.test_losses.shape == (2, 4)
        # the weights change only at refresh steps, and the trace would pin
        # little if they never moved off uniform
        refresh = set(range(0, len(res.steps), GOLDEN_STRATEGY.refresh_every))
        changed = {k for k in range(1, len(res.weights)) if not np.array_equal(res.weights[k], res.weights[k - 1])}
        assert changed and changed <= refresh
        got = {name: hashlib.sha256(getattr(res, name).tobytes()).hexdigest()
               for name in ("train_losses", "test_losses", "weights")}
        assert got == {"train_losses": self.TRAIN_LOSSES, "test_losses": self.TEST_LOSSES,
                       "weights": self.WEIGHTS}
