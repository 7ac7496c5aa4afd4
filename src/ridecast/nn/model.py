"""Multi-task transformer-encoder forecaster.

Input is a normalized (T, D) market feature sequence; an embedding MLP lifts
rows to model width, n encoder blocks transform them, the sequence is
mean-pooled, and one small MLP head per task emits a scalar prediction.

The default block wiring feeds SelfAtten(o + LayerNorm(o)) and then
MLP(h1 + LayerNorm(h1)): the normalized branch is added to the raw input
*before* the sublayer, not after it.  ``residual_mode="prenorm"`` switches
to the conventional pre-norm residual for comparison.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from ..demand import NormStats
from .layers import layer_norm, mlp_forward, self_attention
from .tensor import Tensor, parameter

CHECKPOINT_VERSION = 1

RESIDUAL_MODES = ("literal", "prenorm")

# Small constant bias init keeps relu units active at step 0.  With the
# default block wiring the MLP output *replaces* the block input, so a fully
# dead hidden row would zero the whole sequence position.
BIAS_INIT = 0.01


class CheckpointError(ValueError):
    """Checkpoint unreadable or incompatible with the requested architecture."""


@dataclass(frozen=True)
class ModelConfig:
    seq_len: int
    input_dim: int
    d_model: int = 64
    n_blocks: int = 2
    embed_hidden: int = 64
    block_hidden: int = 64
    head_hidden: int = 32
    n_tasks: int = 4
    residual_mode: str = "literal"
    positional: bool = True
    ln_eps: float = 1e-5

    def __post_init__(self) -> None:
        dims = (self.seq_len, self.input_dim, self.d_model, self.n_blocks,
                self.embed_hidden, self.block_hidden, self.head_hidden, self.n_tasks)
        if min(dims) < 1:
            raise ValueError("all model dimensions must be >= 1")
        if self.residual_mode not in RESIDUAL_MODES:
            raise ValueError(f"residual_mode must be one of {RESIDUAL_MODES}")


class TransformerRegressor:
    """Owns the parameter tensors and builds the forward/backward graph."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        c = config
        p: dict[str, Tensor] = {}
        p["embed.w1"] = parameter((c.input_dim, c.embed_hidden), rng, np.sqrt(2.0 / c.input_dim))
        p["embed.b1"] = parameter(np.full(c.embed_hidden, BIAS_INIT))
        p["embed.w2"] = parameter((c.embed_hidden, c.d_model), rng, np.sqrt(2.0 / c.embed_hidden))
        p["embed.b2"] = parameter(np.zeros(c.d_model))
        if c.positional:
            p["pos"] = parameter(rng.normal(0.0, 0.02, size=(c.seq_len, c.d_model)))
        for b in range(c.n_blocks):
            pre = f"block{b}."
            p[pre + "ln1.gamma"] = parameter(np.ones(c.d_model))
            p[pre + "ln1.beta"] = parameter(np.zeros(c.d_model))
            p[pre + "wq"] = parameter((c.d_model, c.d_model), rng, np.sqrt(1.0 / c.d_model))
            p[pre + "wk"] = parameter((c.d_model, c.d_model), rng, np.sqrt(1.0 / c.d_model))
            p[pre + "wv"] = parameter((c.d_model, c.d_model), rng, np.sqrt(1.0 / c.d_model))
            p[pre + "ln2.gamma"] = parameter(np.ones(c.d_model))
            p[pre + "ln2.beta"] = parameter(np.zeros(c.d_model))
            p[pre + "mlp.w1"] = parameter((c.d_model, c.block_hidden), rng, np.sqrt(2.0 / c.d_model))
            p[pre + "mlp.b1"] = parameter(np.full(c.block_hidden, BIAS_INIT))
            p[pre + "mlp.w2"] = parameter((c.block_hidden, c.d_model), rng, np.sqrt(2.0 / c.block_hidden))
            p[pre + "mlp.b2"] = parameter(np.full(c.d_model, BIAS_INIT))
        for i in range(c.n_tasks):
            pre = f"head{i}."
            p[pre + "w1"] = parameter((c.d_model, c.head_hidden), rng, np.sqrt(2.0 / c.d_model))
            p[pre + "b1"] = parameter(np.full(c.head_hidden, BIAS_INIT))
            # small output layer keeps initial predictions near zero, so the
            # first losses reflect target variance rather than random offsets
            p[pre + "w2"] = parameter((c.head_hidden, 1), rng, 0.01)
            p[pre + "b2"] = parameter(np.zeros(1))
        self.params = p

    # -- forward -------------------------------------------------------------

    def _forward(self, x: np.ndarray, p: dict[str, Tensor]) -> list[Tensor]:
        """Per-task outputs, each (B, 1), for a (B, T, D) batch under parameters p."""
        self._check_input(x)
        c = self.config
        o = mlp_forward(Tensor(x), p["embed.w1"], p["embed.b1"], p["embed.w2"], p["embed.b2"])
        if c.positional:
            o = o + p["pos"]
        for b in range(c.n_blocks):
            pre = f"block{b}."
            ln1 = lambda t: layer_norm(t, p[pre + "ln1.gamma"], p[pre + "ln1.beta"], c.ln_eps)
            ln2 = lambda t: layer_norm(t, p[pre + "ln2.gamma"], p[pre + "ln2.beta"], c.ln_eps)
            attn = lambda t: self_attention(t, p[pre + "wq"], p[pre + "wk"], p[pre + "wv"])
            block_mlp = lambda t: mlp_forward(t, p[pre + "mlp.w1"], p[pre + "mlp.b1"],
                                              p[pre + "mlp.w2"], p[pre + "mlp.b2"])
            if c.residual_mode == "literal":
                o = o + ln1(o)
                o = attn(o)
                o = o + ln2(o)
                o = block_mlp(o)
            else:
                o = o + attn(ln1(o))
                o = o + block_mlp(ln2(o))
        pooled = o.mean(axis=-2)  # pool over the sequence axis
        return [mlp_forward(pooled, p[f"head{i}.w1"], p[f"head{i}.b1"], p[f"head{i}.w2"], p[f"head{i}.b2"])
                for i in range(c.n_tasks)]

    def forward_heads(self, x: np.ndarray) -> list[Tensor]:
        """Per-task output tensors for a (B, T, D) batch, each (B, 1)."""
        return self._forward(x, self.params)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Pure inference on detached parameters, so no graph is recorded:
        (T, D) -> (m,) or (B, T, D) -> (B, m)."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 2
        if single:
            x = x[None, :, :]
        outs = self._forward(x, {k: Tensor(v.data) for k, v in self.params.items()})
        y = np.concatenate([o.data for o in outs], axis=1)
        return y[0] if single else y

    def task_losses(self, x: np.ndarray, y: np.ndarray) -> list[Tensor]:
        """Per-task mean squared errors over the batch, as scalar tensors."""
        y = np.asarray(y, dtype=float)
        outs = self.forward_heads(x)
        losses = []
        for i, out in enumerate(outs):
            err = out - Tensor(y[:, i : i + 1])
            losses.append((err * err).mean())
        return losses

    def backward_weighted(self, losses: list[Tensor], weights: np.ndarray) -> Tensor:
        """Backpropagate sum_i w_i * l_i; returns the objective tensor."""
        total = None
        for w, l in zip(weights, losses):
            term = l * float(w)
            total = term if total is None else total + term
        total.backward()
        return total

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def _check_input(self, x: np.ndarray) -> None:
        c = self.config
        if x.ndim != 3 or x.shape[1] != c.seq_len or x.shape[2] != c.input_dim:
            raise ValueError(f"expected (B, {c.seq_len}, {c.input_dim}), got {x.shape}")

    # -- persistence ----------------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {k: p.data.copy() for k, p in self.params.items()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        if set(arrays) != set(self.params):
            raise CheckpointError("parameter name mismatch")
        for k, arr in arrays.items():
            if self.params[k].data.shape != arr.shape:
                raise CheckpointError(f"shape mismatch for {k}")
            if not np.all(np.isfinite(arr)):
                raise CheckpointError(f"non-finite values in {k}")
            self.params[k].data = np.asarray(arr, dtype=np.float64).copy()


@dataclass(frozen=True)
class Checkpoint:
    model: TransformerRegressor
    feature_stats: NormStats
    label_stats: NormStats
    meta: dict


def save_checkpoint(
    path: str | Path,
    model: TransformerRegressor,
    feature_stats: NormStats,
    label_stats: NormStats,
    meta: Optional[dict] = None,
) -> None:
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "params": {k: v.tolist() for k, v in model.state_arrays().items()},
        "feature_stats": feature_stats.as_dict(),
        "label_stats": label_stats.as_dict(),
        "meta": meta or {},
    }
    Path(path).write_text(json.dumps(payload))


def load_checkpoint(path: str | Path, expect: Optional[dict] = None) -> Checkpoint:
    """Load a checkpoint, refusing version or architecture mismatches.

    ``expect`` maps ModelConfig field names to required values (e.g. the
    input_dim implied by the scenario's grid size).
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
    version = payload.get("format_version") if isinstance(payload, dict) else None
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    try:
        config = ModelConfig(**payload["config"])
        arrays = {k: np.array(v, dtype=np.float64) for k, v in payload["params"].items()}
        feature_stats = NormStats.from_dict(payload["feature_stats"])
        label_stats = NormStats.from_dict(payload["label_stats"])
    except (KeyError, TypeError) as e:
        raise CheckpointError(f"malformed checkpoint {path}: {e!r}") from e
    if expect:
        for key, want in expect.items():
            got = getattr(config, key)
            if got != want:
                raise CheckpointError(f"architecture mismatch: {key}={got}, scenario needs {want}")
    model = TransformerRegressor(config)
    model.load_state_arrays(arrays)
    return Checkpoint(model=model, feature_stats=feature_stats, label_stats=label_stats,
                      meta=payload.get("meta", {}))
