from .adam import Adam
from .layers import add_layer_norm, mlp_forward, self_attention
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
    "load_checkpoint",
    "mlp_forward",
    "parameter",
    "save_checkpoint",
    "self_attention",
]
