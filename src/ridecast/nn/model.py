"""Multi-task transformer-encoder forecaster.

Input is a (B, T, ``N_INPUT_COLUMNS``) batch of normalized market feature
sequences: the measured columns z-scored, then the grid index and the time of
day's code as whole numbers, -1 in both on padding rows.  An embedding MLP
lifts rows to model width; its first layer holds a learned row per measured
column, per grid and per time of day, ``ModelConfig.input_dim`` rows in all,
as many as the one-hot input it stands for would have columns.  A learned
positional table is added, n encoder blocks transform the rows and the
sequence is mean-pooled.  One stacked head emits all
m task predictions as a single (B, m) array: a (d, m*h) matmul gives each
task its own h relu units (task i in columns i*h..(i+1)*h), and task i's
output is the dot product of its units with row i of an (m, h) weight.

The model is one chain of layers (``layers.py``), each with its parameter
names: the embedding MLP, ``add_position``, four layers per block and
``pooled_heads``.  Each block feeds SelfAtten(o + LayerNorm(o)) and then
MLP(h1 + LayerNorm(h1)): the normalized branch is added to the raw input
*before* the sublayer, not after it, and each o + LayerNorm(o) is one
``add_layer_norm`` layer.  The chain names each parameter in exactly one
layer.  Training records a tape of each layer's ``back`` with its parameter
names, ending in that of ``task_mse``, which gives the per-task losses.
``backward_weighted`` consumes the tape from the task weights: it pops and
runs the last entry until none is left, so the weighted objective is not a
layer, and sets each parameter's gradient in ``grads``.  What a layer kept
is freed once its gradients exist, and a training step holds one tape at a
time.  Inference records no tape, which selects the graph-free
``attention``.  The index columns are checked on the way in; the layers keep
NaN, so a NaN in a measured column reaches that sequence's predictions, and
in training every task's loss.

Importing this module pins glibc's malloc thresholds (``keep_freed_heap``):
a training step or a ``predict`` frees arrays that the next call allocates
again, and glibc would otherwise return that freed heap to the kernel after
each call and page-fault it back in the next.

Parameters are drawn in float64 and stored as float32 (``PARAM_DTYPE``), so
the forward pass, gradients and Adam moments are all float32.  Every layer
follows its data's dtype: a model whose parameters are upcast to float64
runs in float64 end to end, which is how the finite-difference gradcheck
runs it.  Inputs built by the data layer (``normalized_features``, the radius
source's batches) are ``PARAM_DTYPE`` whatever the model's dtype.
"""
from __future__ import annotations

import ctypes
import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from ..demand import COL_GRID, COL_TOD, N_BASE_FEATURES, N_INPUT_COLUMNS, N_TOD, NormStats
from ..market import check_count
from .layers import (add_layer_norm, add_position, attention, embed, mlp_forward, pooled_heads, self_attention,
                     task_mse)

CHECKPOINT_VERSION = 3
PARAM_DTYPE = np.float32

# Small constant bias init keeps relu units active at step 0.  With the
# block wiring the MLP output *replaces* the block input, so a fully dead
# hidden row would zero the whole sequence position.
BIAS_INIT = 0.01

# glibc's mallopt parameters (malloc.h) and the values pinned for them.  32 MiB
# is the highest mmap threshold glibc's own dynamic threshold reaches, and the
# trim threshold is twice it, as glibc sets it dynamically: the process starts
# where glibc settles once it has freed a large mmapped chunk.  Arrays under
# 32 MiB then come from the heap, and up to 64 MiB of its freed top is kept.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MALLOC_THRESHOLDS = ((M_MMAP_THRESHOLD, 32 << 20), (M_TRIM_THRESHOLD, 64 << 20))


def libc_version() -> Optional[str]:
    """glibc's "glibc X.Y", or None where the C library is another one."""
    if "CS_GNU_LIBC_VERSION" not in getattr(os, "confstr_names", {}):
        return None
    return os.confstr("CS_GNU_LIBC_VERSION")


def keep_freed_heap(version: Optional[str], libc=None) -> None:
    """Set ``MALLOC_THRESHOLDS`` through ``mallopt`` where ``version`` names glibc; elsewhere do nothing.

    ``libc`` defaults to the process's own C library.  glibc's ``mallopt``
    returns 0 on error, which raises ``OSError``; other C libraries' (musl's
    is a stub returning 0) are never called."""
    if not (version or "").startswith("glibc"):
        return
    mallopt = (libc or ctypes.CDLL(None)).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param, value in MALLOC_THRESHOLDS:
        if mallopt(param, value) == 0:
            raise OSError(f"glibc {version} refused mallopt({param}, {value})")


keep_freed_heap(libc_version())


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
        for name, value in asdict(self).items():
            check_count(name, value)
        check_count("input_dim", self.input_dim, N_BASE_FEATURES + N_TOD + 1)

    @property
    def n_cells(self) -> int:
        """Grids with an embedding row: input_dim less the measured and time-of-day rows."""
        return self.input_dim - N_BASE_FEATURES - N_TOD


class TransformerRegressor:
    """Owns the parameter arrays, their gradients and the layer chain."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        c = config
        p: dict[str, np.ndarray] = {}
        chain: list[tuple] = []

        def normal(scale: float, *shape: int) -> np.ndarray:
            return rng.normal(0.0, scale, size=shape)

        def link(layer, prefix: str, **arrays: np.ndarray) -> None:
            chain.append((layer, [prefix + k for k in arrays]))
            p.update(zip(chain[-1][1], arrays.values()))

        link(embed, "embed.", w1=normal(np.sqrt(2.0 / c.input_dim), c.input_dim, c.embed_hidden),
             b1=np.full(c.embed_hidden, BIAS_INIT),
             w2=normal(np.sqrt(2.0 / c.embed_hidden), c.embed_hidden, c.d_model), b2=np.zeros(c.d_model))
        link(add_position, "", pos=normal(0.02, c.seq_len, c.d_model))
        for b in range(c.n_blocks):
            pre = f"block{b}."
            link(add_layer_norm, pre + "ln1.", gamma=np.ones(c.d_model), beta=np.zeros(c.d_model))
            link(self_attention, pre, **{k: normal(np.sqrt(1.0 / c.d_model), c.d_model, c.d_model)
                                         for k in ("wq", "wk", "wv")})
            link(add_layer_norm, pre + "ln2.", gamma=np.ones(c.d_model), beta=np.zeros(c.d_model))
            link(mlp_forward, pre + "mlp.", w1=normal(np.sqrt(2.0 / c.d_model), c.d_model, c.block_hidden),
                 b1=np.full(c.block_hidden, BIAS_INIT),
                 w2=normal(np.sqrt(2.0 / c.block_hidden), c.block_hidden, c.d_model),
                 b2=np.full(c.d_model, BIAS_INIT))
        # draws go task by task, hidden weights before the output row; the
        # stacked head keeps each task's draws as its own slice
        w1, w2 = [], []
        for _ in range(c.n_tasks):
            w1.append(normal(np.sqrt(2.0 / c.d_model), c.d_model, c.head_hidden))
            # small output weights keep initial predictions near zero, so the
            # first losses reflect target variance rather than random offsets
            w2.append(normal(0.01, c.head_hidden))
        link(pooled_heads, "head.", w1=np.concatenate(w1, axis=1), b1=np.full(c.n_tasks * c.head_hidden, BIAS_INIT),
             w2=np.stack(w2), b2=np.zeros(c.n_tasks))
        self.params = {k: v.astype(PARAM_DTYPE) for k, v in p.items()}
        self.grads: dict[str, np.ndarray] = {}
        self._chain = chain

    @property
    def dtype(self) -> np.dtype:
        """The parameters' dtype, which inputs and targets are cast to."""
        return self.params["head.b2"].dtype

    # -- forward -------------------------------------------------------------

    def _forward(self, x: np.ndarray, tape: Optional[list] = None) -> np.ndarray:
        """(B, m) task outputs for a (B, T, D) batch.  With a tape, each layer
        appends its (back, parameter names); without one each back is dropped
        as its layer returns, and attention runs the graph-free ``attention``."""
        o = np.asarray(x, dtype=self.dtype)
        self._check_input(o)
        for layer, names in self._chain:
            w = [self.params[k] for k in names]
            if tape is None:
                o = attention(o, *w) if layer is self_attention else layer(o, *w)[0]
            else:
                o, back = layer(o, *w)
                tape.append((back, names))
        return o

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Pure inference, recording no tape: (B, T, D) -> (B, m)."""
        return self._forward(x)

    def task_losses(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, list]:
        """Per-task mean squared errors over the batch as one (m,) array, and
        the tape that ``backward_weighted`` runs."""
        tape: list = []
        pred, target = self._forward(x, tape), np.asarray(y, dtype=self.dtype)
        if target.shape != pred.shape:
            raise ValueError(f"expected labels of shape {pred.shape}, got {target.shape}")
        losses, back = task_mse(pred, target)
        tape.append((back, []))
        return losses, tape

    def backward_weighted(self, tape: list, weights: np.ndarray) -> None:
        """Set ``grads`` to the gradients of sum_i w_i * l_i, consuming the tape.

        w must be a finite (m,) array; a copy in the model's dtype seeds the
        tape's last back.  Each entry is popped as it runs, so what its layer
        kept is freed once its gradients exist, and the tape is empty on
        return; an empty tape is refused.  The chain names each parameter in
        one layer, so each gradient is set, not summed."""
        g = np.array(weights, dtype=self.dtype)
        m = self.config.n_tasks
        if g.shape != (m,) or not np.all(np.isfinite(g)):
            raise ValueError(f"weights must be a finite ({m},) array, got {g.tolist()!r}")
        if not tape:
            raise ValueError("the tape is empty: each backward consumes the tape of one task_losses call")
        while tape:
            back, names = tape.pop()
            g, *grads = back(g)
            self.grads.update(zip(names, grads))

    def zero_grad(self) -> None:
        self.grads.clear()

    def _check_input(self, x: np.ndarray) -> None:
        """The shape, and index columns of whole numbers in range, -1 in both or in neither."""
        c = self.config
        if x.ndim != 3 or x.shape[1:] != (c.seq_len, N_INPUT_COLUMNS):
            raise ValueError(f"expected (B, {c.seq_len}, {N_INPUT_COLUMNS}), got {x.shape}")
        grid, tod = x[..., COL_GRID], x[..., COL_TOD]
        for name, col, n in (("grid", grid, c.n_cells), ("time-of-day", tod, N_TOD)):
            # NaN fails every comparison, and floor leaves it and +-inf as they are
            bad = ~((col >= -1) & (col < n) & (np.floor(col) == col))
            if np.any(bad):
                raise ValueError(f"{name} index column holds {float(col[bad][0]):g}, "
                                 f"expected a whole number in -1..{n - 1}")
        if np.any((grid < 0) != (tod < 0)):
            raise ValueError("grid and time-of-day index columns must be -1 together, on padding rows only")

    # -- persistence ----------------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {k: p.copy() for k, p in self.params.items()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        if set(arrays) != set(self.params):
            raise CheckpointError("parameter name mismatch")
        for k, arr in arrays.items():
            p = self.params[k]
            if p.shape != arr.shape:
                raise CheckpointError(f"shape mismatch for {k}")
            # checked after the cast: a finite float64 beyond the float32
            # range becomes inf there
            with np.errstate(over="ignore"):
                cast = np.array(arr, dtype=p.dtype)
            if not np.all(np.isfinite(cast)):
                raise CheckpointError(f"non-finite values in {k}")
            self.params[k] = cast


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
    for k, p in model.params.items():  # JSON has no NaN or inf, and load_checkpoint refuses them
        if not np.all(np.isfinite(p)):
            raise CheckpointError(f"non-finite values in {k}: the checkpoint could not be loaded")
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
        feature_stats.check_width("feature", N_BASE_FEATURES)
        label_stats.check_width("label", config.n_tasks)
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"malformed checkpoint {path}: {e!r}") from e
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
