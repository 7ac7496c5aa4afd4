from .adam import Adam
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
    "load_checkpoint",
    "save_checkpoint",
]
