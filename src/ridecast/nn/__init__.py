from .model import ModelConfig, TransformerRegressor

__all__ = ["ModelConfig", "TransformerRegressor"]
