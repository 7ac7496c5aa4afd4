"""Multi-task transformer-encoder forecaster.

Input is a normalized (T, D) market feature sequence: measured columns
z-scored, grid and time-of-day one-hots 0/1.  An embedding MLP lifts
rows to model width and adds a learned positional table, n encoder blocks
transform them and the sequence is mean-pooled.  One stacked head emits all
m task predictions as a single (B, m) tensor: a (d, m*h) matmul gives each
task its own h relu units (task i in columns i*h..(i+1)*h), and task i's
output is the dot product of its units with row i of an (m, h) weight.

Each block feeds SelfAtten(o + LayerNorm(o)) and then MLP(h1 + LayerNorm(h1)):
the normalized branch is added to the raw input *before* the sublayer, not
after it.  Each o + LayerNorm(o) is one ``add_layer_norm`` node, so a block
records four nodes: two residual norms, attention and the MLP.  Before the
blocks come the embedding MLP and ``add_position``; after them one
``pooled_heads`` node pools and applies the head, and in training one
``task_mse`` node gives the per-task losses.  The weighted objective is not
a node: ``backward_weighted`` seeds the loss node with the task weights.
The layers keep NaN: a NaN anywhere in an input sequence reaches that
sequence's predictions, and in training every task's loss.

``predict`` runs a batch of ``SPLIT_MIN_SEQUENCES`` or more sequences as two
halves at once, one on the calling thread and one on a worker thread, with
numpy's OpenBLAS held at one thread (``blas.in_parallel``), and concatenates
their outputs.  The cut is the multiple of ``ROW_BLOCK`` input rows (sequences
x T) nearest the batch's middle.  OpenBLAS's matrix kernels take rows 16 at
a time and a final partial block through narrower kernels, whose last bits
can differ, so an aligned cut leaves every row in the block the whole batch
put it in and the output bytes are those of one whole forward pass; cutting
500 sequences at 250 instead of 248 moves one sequence's float32 outputs.
The BLAS thread count moves no bytes.  Smaller batches run whole on the
calling thread.

Parameters are drawn in float64 and stored as float32 (``PARAM_DTYPE``), so
the forward pass, gradients and Adam moments are all float32.  Every op
follows its data's dtype: a model whose parameters are upcast to float64
runs in float64 end to end, which is how the finite-difference gradcheck
runs it.  Inputs built by the data layer (``normalized_features``, the radius
source's batches) are ``PARAM_DTYPE`` whatever the model's dtype.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from ..demand import N_BASE_FEATURES, NormStats
from .blas import in_parallel
from .layers import add_layer_norm, add_position, mlp_forward, pooled_heads, self_attention, task_mse
from .tensor import Tensor, parameter

CHECKPOINT_VERSION = 3
PARAM_DTYPE = np.float32
# ``predict`` cuts a batch only at a multiple of this many input rows (sequences x T).
ROW_BLOCK = 16
# ``predict`` splits batches of at least this many sequences.  At the default
# ModelConfig on a 2-core x86-64 box, the two halves took 0.77-0.85 of a whole
# pass at 320 sequences, 0.85-1.12 at 192-288 and 1.27-1.45 at 128: both
# halves run the layers' Python under one GIL, so the split pays only once
# the BLAS work dominates.
SPLIT_MIN_SEQUENCES = 320

# Small constant bias init keeps relu units active at step 0.  With the
# block wiring the MLP output *replaces* the block input, so a fully dead
# hidden row would zero the whole sequence position.
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

    def __post_init__(self) -> None:
        if min(asdict(self).values()) < 1:
            raise ValueError("all model dimensions must be >= 1")


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
        # draws go task by task, hidden weights before the output row; the
        # stacked head keeps each task's draws as its own slice
        w1, w2 = [], []
        for _ in range(c.n_tasks):
            w1.append(rng.normal(0.0, np.sqrt(2.0 / c.d_model), size=(c.d_model, c.head_hidden)))
            # small output weights keep initial predictions near zero, so the
            # first losses reflect target variance rather than random offsets
            w2.append(rng.normal(0.0, 0.01, size=c.head_hidden))
        p["head.w1"] = parameter(np.concatenate(w1, axis=1))
        p["head.b1"] = parameter(np.full(c.n_tasks * c.head_hidden, BIAS_INIT))
        p["head.w2"] = parameter(np.stack(w2))
        p["head.b2"] = parameter(np.zeros(c.n_tasks))
        for t in p.values():
            t.data = t.data.astype(PARAM_DTYPE)
        self.params = p

    @property
    def dtype(self) -> np.dtype:
        """The parameters' dtype, which inputs and targets are cast to."""
        return self.params["head.b2"].data.dtype

    # -- forward -------------------------------------------------------------

    def _forward(self, x: np.ndarray, p: dict[str, Tensor]) -> Tensor:
        """(B, m) task outputs for a (B, T, D) batch under parameters p."""
        x = np.asarray(x, dtype=self.dtype)
        self._check_input(x)
        o = mlp_forward(Tensor(x), p["embed.w1"], p["embed.b1"], p["embed.w2"], p["embed.b2"])
        o = add_position(o, p["pos"])
        for b in range(self.config.n_blocks):
            pre = f"block{b}."
            o = add_layer_norm(o, p[pre + "ln1.gamma"], p[pre + "ln1.beta"])
            o = self_attention(o, p[pre + "wq"], p[pre + "wk"], p[pre + "wv"])
            o = add_layer_norm(o, p[pre + "ln2.gamma"], p[pre + "ln2.beta"])
            o = mlp_forward(o, p[pre + "mlp.w1"], p[pre + "mlp.b1"], p[pre + "mlp.w2"], p[pre + "mlp.b2"])
        return pooled_heads(o, p["head.w1"], p["head.b1"], p["head.w2"], p["head.b2"])

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Pure inference on detached parameters, so no graph is recorded:
        (T, D) -> (m,) or (B, T, D) -> (B, m).

        A batch of ``SPLIT_MIN_SEQUENCES`` or more runs as two halves on two
        threads with OpenBLAS held at one thread and restored after, cut at
        the ``ROW_BLOCK``-row boundary nearest the middle, so the output bytes
        equal one whole ``_forward``'s.  Without numpy's bundled OpenBLAS the
        halves run one after the other."""
        x = np.asarray(x, dtype=self.dtype)
        single = x.ndim == 2
        if single:
            x = x[None, :, :]
        p = {k: Tensor(v.data) for k, v in self.params.items()}
        cut = self._cut(len(x))
        if cut is None:
            y = self._forward(x, p).data
        else:
            y = np.concatenate(in_parallel(lambda: self._forward(x[:cut], p).data,
                                           lambda: self._forward(x[cut:], p).data))
        return y[0] if single else y

    def _cut(self, n: int) -> Optional[int]:
        """The sequence count of ``predict``'s first half for a batch of n, or
        None to run it whole: the count nearest n / 2 whose rows (count x T)
        are a multiple of ``ROW_BLOCK``, the lower one on a tie."""
        if n < SPLIT_MIN_SEQUENCES:
            return None
        unit = ROW_BLOCK // math.gcd(ROW_BLOCK, self.config.seq_len)
        return unit * ((n + unit - 1) // (2 * unit))

    def task_losses(self, x: np.ndarray, y: np.ndarray) -> Tensor:
        """Per-task mean squared errors over the batch, as one (m,) tensor."""
        return task_mse(self._forward(x, self.params), Tensor(np.asarray(y, dtype=self.dtype)))

    def backward_weighted(self, losses: Tensor, weights: np.ndarray) -> Tensor:
        """Backpropagate sum_i w_i * l_i, which seeds the loss node with w in
        its dtype; returns a tensor holding the objective's value."""
        w = np.asarray(weights, dtype=losses.data.dtype)
        losses.backward(w)
        return Tensor((losses.data * w).sum())

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
            p = self.params[k]
            if p.data.shape != arr.shape:
                raise CheckpointError(f"shape mismatch for {k}")
            # checked after the cast: a finite float64 beyond the float32
            # range becomes inf there
            with np.errstate(over="ignore"):
                cast = np.array(arr, dtype=p.data.dtype)
            if not np.all(np.isfinite(cast)):
                raise CheckpointError(f"non-finite values in {k}")
            p.data = cast


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

    Feature stats cover the ``N_BASE_FEATURES`` measured columns only, whatever
    the model's input width; version 2 files, whose feature stats span every
    input column, are refused.

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
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"malformed checkpoint {path}: {e!r}") from e
    widths = (("feature", feature_stats, N_BASE_FEATURES), ("label", label_stats, config.n_tasks))
    for name, stats, width in widths:
        if stats.mean.shape != (width,):
            raise CheckpointError(f"{name} stats have shape {stats.mean.shape}, model needs ({width},)")
    have = asdict(config)
    for key, want in (expect or {}).items():
        if key not in have:
            raise CheckpointError(f"unknown architecture key {key!r}")
        if have[key] != want:
            raise CheckpointError(f"architecture mismatch: {key}={have[key]}, scenario needs {want}")
    model = TransformerRegressor(config)
    model.load_state_arrays(arrays)
    return Checkpoint(model=model, feature_stats=feature_stats, label_stats=label_stats,
                      meta=payload.get("meta", {}))
