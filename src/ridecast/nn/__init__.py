from .adam import Adam
from .layers import (add_layer_norm, add_position, attention, embed, mlp_forward, pooled_heads, self_attention,
                     task_mse)
from .model import (
    Checkpoint,
    CheckpointError,
    ModelConfig,
    TransformerRegressor,
    load_checkpoint,
    save_checkpoint,
)

__all__ = [
    "Adam",
    "Checkpoint",
    "CheckpointError",
    "ModelConfig",
    "TransformerRegressor",
    "add_layer_norm",
    "add_position",
    "attention",
    "embed",
    "load_checkpoint",
    "mlp_forward",
    "pooled_heads",
    "save_checkpoint",
    "self_attention",
    "task_mse",
]
