"""Multi-task training strategies over per-task loss histories.

Five strategies drive the weighted backward pass:

  FW    constant 1/m weights;
  AM    uniform historical aggregation, update only the argmax-loss task;
  WAM   uniform aggregation, weights proportional to aggregated losses;
  ESM   exponential-decay aggregation, argmax-task update;
  WESM  exponential-decay aggregation, proportional weights.

Aggregated losses weight the j-steps-old entry by gamma^j (decayed forms)
or equally (uniform forms); missing history during warmup counts as zero.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

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
        if self.history_len < 1 or self.refresh_every < 1:
            raise ValueError("history_len and refresh_every must be >= 1")


class LossHistory:
    """Ring buffer of the last T per-task loss vectors, oldest evicted first."""

    def __init__(self, capacity: int, n_tasks: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.n_tasks = n_tasks
        self._buf: deque[np.ndarray] = deque(maxlen=capacity)

    def push(self, losses: np.ndarray) -> None:
        losses = np.asarray(losses, dtype=float)
        if losses.shape != (self.n_tasks,):
            raise ValueError(f"expected ({self.n_tasks},) loss vector")
        if np.any(~np.isfinite(losses)) or np.any(losses < 0):
            raise ValueError("losses must be finite and >= 0")
        self._buf.append(losses.copy())

    def recent_first(self) -> list[np.ndarray]:
        """Entries ordered newest to oldest (entry j is j+1 steps old)."""
        return list(reversed(self._buf))

    def __len__(self) -> int:
        return len(self._buf)


def normalization_factor(gamma: float, history_len: int) -> float:
    """Geometric series sum_{j=0..T} gamma^j = (1 - gamma^(T+1)) / (1 - gamma)."""
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must lie in (0, 1)")
    return (1.0 - gamma ** (history_len + 1)) / (1.0 - gamma)


def aggregate_decayed(
    history: Sequence[np.ndarray],
    current: np.ndarray,
    gamma: float,
    norm: float,
) -> np.ndarray:
    """(sum_j gamma^j * L_{t-j} + l_t) / norm with history newest-first."""
    acc = np.asarray(current, dtype=float).copy()
    for j, past in enumerate(history, start=1):
        acc += gamma**j * np.asarray(past, dtype=float)
    return acc / norm


def aggregate_uniform(
    history: Sequence[np.ndarray],
    current: np.ndarray,
    history_len: int,
) -> np.ndarray:
    """(sum_j L_{t-j} + l_t) / (T + 1); absent warmup entries count as zero."""
    acc = np.asarray(current, dtype=float).copy()
    for past in history:
        acc += np.asarray(past, dtype=float)
    return acc / (history_len + 1)


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


def refresh_weights(cfg: StrategyConfig, history: LossHistory, current: np.ndarray) -> np.ndarray:
    """Weights for the next refresh interval given history + this step's losses."""
    if cfg.kind == "FW":
        return strategy_weights("FW", np.asarray(current, dtype=float))
    recent = history.recent_first()
    if cfg.kind in ("AM", "WAM"):
        agg = aggregate_uniform(recent, current, cfg.history_len)
    else:
        norm = normalization_factor(cfg.gamma, cfg.history_len)
        agg = aggregate_decayed(recent, current, cfg.gamma, norm)
    return strategy_weights(cfg.kind, agg)


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
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")


@dataclass
class TrainResult:
    steps: np.ndarray          # (S,)
    train_losses: np.ndarray   # (S, m)
    test_losses: np.ndarray    # (epochs, m) after each epoch
    weights: np.ndarray        # (S, m) weight in force at each step
    refresh_steps: list[int] = field(default_factory=list)

    @property
    def n_tasks(self) -> int:
        return self.train_losses.shape[1]

    def final_test_losses(self) -> np.ndarray:
        return self.test_losses[-1]


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

    Per step: batch losses are computed and recorded in the history; every
    ``refresh_every`` steps the weights are recomputed from that history and
    held constant in between; the weighted loss sum is backpropagated and an
    adaptive-moment step applied.  Non-finite losses abort.  The test set
    is evaluated once after each epoch.
    """
    if len(train_x) == 0 or len(test_x) == 0:
        raise ValueError("train and test sets must be nonempty")
    m = model.config.n_tasks
    rng = np.random.default_rng(cfg.seed)
    optimizer = Adam(model.params, lr=cfg.lr)
    history = LossHistory(strategy.history_len, m)
    weights = np.full(m, 1.0 / m)
    last_finite = np.zeros(m)
    steps: list[int] = []
    curve_train: list[np.ndarray] = []
    curve_test: list[np.ndarray] = []
    curve_w: list[np.ndarray] = []
    refresh_steps: list[int] = []

    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(len(train_x))
        for lo in range(0, len(order), cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            model.zero_grad()
            # the model casts the batch to its own dtype; curves stay float64
            loss_tensor = model.task_losses(train_x[idx], train_y[idx])
            losses = loss_tensor.data.astype(np.float64)
            if not np.all(np.isfinite(losses)):
                raise TrainingDiverged(step, last_finite)
            last_finite = losses
            if step % strategy.refresh_every == 0:
                weights = refresh_weights(strategy, history, losses)
                refresh_steps.append(step)
            history.push(losses)
            model.backward_weighted(loss_tensor, weights)
            optimizer.step()
            steps.append(step)
            curve_train.append(losses)
            curve_w.append(weights.copy())
            step += 1
        curve_test.append(_test_losses(model, test_x, test_y))

    return TrainResult(
        steps=np.array(steps),
        train_losses=np.array(curve_train),
        test_losses=np.array(curve_test),
        weights=np.array(curve_w),
        refresh_steps=refresh_steps,
    )
