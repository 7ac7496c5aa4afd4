"""Multi-task training strategies over per-task loss histories.

Four strategies are a decay c crossed with a weighting rule over the
aggregated losses, and FW keeps constant weights:

             argmax task    proportional
  c = 1      AM             WAM
  c = gamma  ESM            WESM
  FW         constant 1/m weights

Aggregation weights the j-steps-old entry of the loss curve by c^j over the
last T steps; missing history during warmup counts as zero.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .market import check_count
from .nn.adam import Adam
from .nn.model import TransformerRegressor

STRATEGY_KINDS = ("FW", "AM", "WAM", "ESM", "WESM")


class TrainingDiverged(RuntimeError):
    def __init__(self, step: int, last_losses: np.ndarray):
        super().__init__(f"non-finite loss at step {step}; last finite per-task losses {last_losses}")
        self.step = step
        self.last_losses = last_losses


@dataclass(frozen=True)
class StrategyConfig:
    kind: str = "WESM"
    gamma: float = 0.1          # decay factor on historical losses
    history_len: int = 10       # T, number of recorded past steps
    refresh_every: int = 10     # steps between weight recomputations

    def __post_init__(self) -> None:
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"kind must be one of {STRATEGY_KINDS}")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("gamma must lie in (0, 1)")
        check_count("history_len", self.history_len)
        check_count("refresh_every", self.refresh_every)


def aggregate_losses(cfg: StrategyConfig, recent: Sequence[np.ndarray], current: np.ndarray) -> np.ndarray:
    """(l_t + sum_j c^j * L_{t-j}) / sum_{j=0..T} c^j with ``recent`` newest first.

    c is gamma for ESM/WESM and 1 otherwise; the denominator is T + 1 for c = 1
    and the geometric closed form (1 - c^(T+1)) / (1 - c) else.
    """
    c = cfg.gamma if cfg.kind in ("ESM", "WESM") else 1.0
    acc = np.array(current, dtype=float)
    for j, past in enumerate(recent, start=1):
        acc += c**j * past
    t = cfg.history_len
    return acc / (t + 1 if c == 1.0 else (1.0 - c ** (t + 1)) / (1.0 - c))


def strategy_weights(kind: str, aggregated: np.ndarray) -> np.ndarray:
    """Task weight vector on the simplex for one aggregated loss vector.

    FW ignores the losses; WAM/WESM normalize them; AM/ESM put all weight on
    the argmax task (lowest index on ties).  An all-zero vector falls back
    to uniform weights.
    """
    agg = np.asarray(aggregated, dtype=float)
    m = agg.shape[0]
    if np.any(agg < 0):
        raise ValueError("aggregated losses must be >= 0")
    if kind == "FW":
        return np.full(m, 1.0 / m)
    total = agg.sum()
    if total <= 0.0:
        return np.full(m, 1.0 / m)
    if kind in ("WAM", "WESM"):
        return agg / total
    if kind in ("AM", "ESM"):
        w = np.zeros(m)
        w[int(np.argmax(agg))] = 1.0
        return w
    raise ValueError(f"unknown strategy kind {kind!r}")


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 1024
    lr: float = 1e-3
    epochs: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        check_count("batch_size", self.batch_size)
        check_count("epochs", self.epochs)
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")


@dataclass
class TrainResult:
    steps: np.ndarray          # (S,)
    train_losses: np.ndarray   # (S, m)
    test_losses: np.ndarray    # (epochs, m) after each epoch
    weights: np.ndarray        # (S, m) weight in force at each step


def _test_losses(model: TransformerRegressor, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    pred = model.predict(x)
    return ((y - pred) ** 2).mean(axis=0)


def train(
    model: TransformerRegressor,
    train_x: np.ndarray,
    train_y: np.ndarray,
    test_x: np.ndarray,
    test_y: np.ndarray,
    strategy: StrategyConfig = StrategyConfig(),
    cfg: TrainConfig = TrainConfig(),
) -> TrainResult:
    """Mini-batch training with strategy-controlled task weights.

    Per step: batch losses are computed and appended to the loss curve; every
    ``refresh_every`` steps the weights are recomputed from this step's losses
    and the curve's last ``history_len`` entries, and held constant in
    between; the weighted loss sum is backpropagated, consuming the step's
    tape so that one step's activations are alive at a time, and an
    adaptive-moment step applied.  Non-finite features or labels are
    refused before the first step, and non-finite losses abort.  The test
    set is evaluated once after each epoch.
    """
    if len(train_x) == 0 or len(test_x) == 0:
        raise ValueError("train and test sets must be nonempty")
    if len(train_x) != len(train_y) or len(test_x) != len(test_y):
        raise ValueError(f"inputs and labels differ in length: train {len(train_x)} vs {len(train_y)}, "
                         f"test {len(test_x)} vs {len(test_y)}")
    m = model.config.n_tasks
    for name, y in (("train", train_y), ("test", test_y)):
        if np.shape(y) != (len(y), m):
            raise ValueError(f"{name} labels must have shape (N, {m}), got {np.shape(y)}")
    for name, arrays in (("train", (train_x, train_y)), ("test", (test_x, test_y))):
        for kind, a in zip(("features", "labels"), arrays):
            # min and max propagate NaN and reach inf without a full-size temporary, unlike isfinite
            if not (np.isfinite(a.min()) and np.isfinite(a.max())):
                raise ValueError(f"{name} {kind} are not all finite")
    rng = np.random.default_rng(cfg.seed)
    optimizer = Adam(model.params, lr=cfg.lr)
    weights = np.full(m, 1.0 / m)
    curve_train: list[np.ndarray] = []
    curve_test: list[np.ndarray] = []
    curve_w: list[np.ndarray] = []

    for _ in range(cfg.epochs):
        order = rng.permutation(len(train_x))
        for lo in range(0, len(order), cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            model.zero_grad()
            # the model casts the batch to its own dtype; curves stay float64
            batch_losses, tape = model.task_losses(train_x[idx], train_y[idx])
            losses = batch_losses.astype(np.float64)
            step = len(curve_train)
            if not np.all(np.isfinite(losses)):
                raise TrainingDiverged(step, curve_train[-1] if curve_train else np.zeros(m))
            if step % strategy.refresh_every == 0:
                recent = curve_train[-strategy.history_len:][::-1]
                weights = strategy_weights(strategy.kind, aggregate_losses(strategy, recent, losses))
            model.backward_weighted(tape, weights)
            optimizer.step(model.grads)
            curve_train.append(losses)
            curve_w.append(weights.copy())
        curve_test.append(_test_losses(model, test_x, test_y))

    return TrainResult(
        steps=np.arange(len(curve_train)),
        train_losses=np.array(curve_train),
        test_losses=np.array(curve_test),
        weights=np.array(curve_w),
    )
