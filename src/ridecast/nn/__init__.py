from .adam import Adam
from .layers import add_layer_norm, add_position, mlp_forward, pooled_heads, self_attention, task_mse
from .model import (
    Checkpoint,
    CheckpointError,
    ModelConfig,
    TransformerRegressor,
    load_checkpoint,
    save_checkpoint,
)
from .tensor import Tensor, parameter

__all__ = [
    "Adam",
    "Checkpoint",
    "CheckpointError",
    "ModelConfig",
    "Tensor",
    "TransformerRegressor",
    "add_layer_norm",
    "add_position",
    "load_checkpoint",
    "mlp_forward",
    "parameter",
    "pooled_heads",
    "save_checkpoint",
    "self_attention",
    "task_mse",
]
