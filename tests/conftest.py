import numpy as np

from ridecast.nn.model import TransformerRegressor


def numeric_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central differences of scalar f() in every element of x, perturbed in place."""
    g = np.zeros(x.shape)
    for i in np.ndindex(x.shape):
        orig = x[i]
        x[i] = orig + h
        up = f()
        x[i] = orig - h
        down = f()
        x[i] = orig
        g[i] = (up - down) / (2 * h)
    return g


def weighted_loss_value(model: TransformerRegressor, x: np.ndarray, y: np.ndarray,
                        weights: np.ndarray) -> float:
    """Objective value only (no graph): sum_i w_i * mean((y_i - yhat_i)^2)."""
    pred = model.predict(x)
    per_task = ((y - pred) ** 2).mean(axis=0)
    return float(np.dot(weights, per_task))


def finite_difference_gradcheck(model: TransformerRegressor, x: np.ndarray, y: np.ndarray,
                                weights: np.ndarray, h: float = 1e-5) -> float:
    """Max relative error between analytic gradients and central differences,
    swept over every element of every parameter tensor."""
    model.zero_grad()
    losses = model.task_losses(x, y)
    model.backward_weighted(losses, weights)
    worst = 0.0
    for name, p in model.params.items():
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = weighted_loss_value(model, x, y, weights)
            flat[j] = orig - h
            down = weighted_loss_value(model, x, y, weights)
            flat[j] = orig
            numeric = (up - down) / (2 * h)
            a = analytic.reshape(-1)[j]
            err = abs(a - numeric) / max(1e-6, abs(a) + abs(numeric))
            worst = max(worst, err)
    return worst
