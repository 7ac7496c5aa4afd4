import numpy as np
import pytest

from ridecast.nn.tensor import Tensor, parameter


def numeric_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f()
        flat[i] = orig - h
        down = f()
        flat[i] = orig
        gf[i] = (up - down) / (2 * h)
    return g


def check_op(build, *arrays, seed=0):
    """Compare autodiff gradients of scalar-valued build(*tensors) against
    central finite differences for every input array."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*tensors)
    out.backward()
    for t, a in zip(tensors, arrays):
        expected = numeric_grad(lambda: float(build(*[Tensor(x.data) for x in tensors]).data), a)
        np.testing.assert_allclose(t.grad, expected, rtol=1e-5, atol=1e-7)


class TestForwardValues:
    def test_add_mul_matmul(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal((a + b).data, [[6, 8], [10, 12]])
        np.testing.assert_array_equal((a * b).data, [[5, 12], [21, 32]])
        np.testing.assert_array_equal((a @ b).data, [[19, 22], [43, 50]])

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(4, 7)) * 30)
        s = x.softmax(axis=-1)
        np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(s.data >= 0)

    def test_softmax_is_shift_stable(self):
        x = np.array([[1000.0, 1000.0, 1000.0]])
        s = Tensor(x).softmax()
        np.testing.assert_allclose(s.data, 1.0 / 3.0, atol=1e-15)

    def test_mean_and_sum(self):
        x = Tensor(np.arange(12.0).reshape(3, 4))
        assert x.mean().item() == 5.5
        np.testing.assert_array_equal(x.sum(axis=0).data, [12, 15, 18, 21])
        assert x.mean(axis=1, keepdims=True).shape == (3, 1)


class TestGradients:
    def test_add_broadcast(self):
        rng = np.random.default_rng(1)
        check_op(lambda a, b: ((a + b) * (a + b)).sum(),
                 rng.normal(size=(3, 4)), rng.normal(size=(4,)))

    def test_mul_broadcast(self):
        rng = np.random.default_rng(2)
        check_op(lambda a, b: (a * b).sum(),
                 rng.normal(size=(2, 3, 4)), rng.normal(size=(3, 4)))

    def test_sub_div(self):
        rng = np.random.default_rng(3)
        check_op(lambda a, b: (a / b - b).sum(),
                 rng.normal(size=(3, 3)), rng.uniform(1.0, 2.0, size=(3, 3)))

    def test_matmul_batched(self):
        rng = np.random.default_rng(4)
        check_op(lambda a, w: (a @ w).sum(),
                 rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)))

    def test_matmul_3d_weight_nonuniform_upstream(self):
        rng = np.random.default_rng(41)
        c = rng.normal(size=(2, 3, 5))
        check_op(lambda a, w: ((a @ w) * c).sum(),
                 rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)))

    def test_matmul_4d_weight_nonuniform_upstream(self):
        rng = np.random.default_rng(42)
        c = rng.normal(size=(2, 3, 4, 2))
        check_op(lambda a, w: ((a @ w) * c).sum(),
                 rng.normal(size=(2, 3, 4, 5)), rng.normal(size=(5, 2)))

    def test_matmul_non_contiguous_left_operand(self):
        rng = np.random.default_rng(43)
        c = rng.normal(size=(2, 4, 5))

        def build(a, w):
            swapped = a.swap_last_axes()
            assert not swapped.data.flags.c_contiguous
            return ((swapped @ w) * c).sum()

        check_op(build, rng.normal(size=(2, 3, 4)), rng.normal(size=(3, 5)))

    def test_matmul_weight_path_matches_stacked_matmul(self):
        rng = np.random.default_rng(44)
        a = rng.normal(size=(3, 4, 5))
        w = rng.normal(size=(5, 2))
        np.testing.assert_allclose((Tensor(a) @ Tensor(w)).data, np.matmul(a, w), rtol=1e-13, atol=1e-13)

    def test_matmul_both_batched(self):
        rng = np.random.default_rng(5)
        check_op(lambda a, b: (a @ b).sum(),
                 rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 4, 3)))

    def test_relu(self):
        rng = np.random.default_rng(6)
        check_op(lambda a: (a.relu() * a.relu()).sum(), rng.normal(size=(5, 5)) + 0.01)

    def test_sqrt(self):
        rng = np.random.default_rng(7)
        check_op(lambda a: a.sqrt().sum(), rng.uniform(0.5, 3.0, size=(4, 4)))

    def test_softmax(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=(3, 5))
        check_op(lambda a: (a.softmax(axis=-1) * w).sum(), rng.normal(size=(3, 5)))

    def test_mean_axis(self):
        rng = np.random.default_rng(9)
        check_op(lambda a: (a.mean(axis=1) * a.mean(axis=1)).sum(), rng.normal(size=(3, 4, 2)))

    def test_swap_and_reshape(self):
        rng = np.random.default_rng(10)
        check_op(lambda a: (a.swap_last_axes() @ a).sum(), rng.normal(size=(3, 4)))
        check_op(lambda a: (a.reshape(2, 6) * a.reshape(2, 6)).sum(), rng.normal(size=(3, 4)))

    def test_gradient_accumulates_on_reuse(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * x + x  # dy/dx = 2x + 1 = 5
        y.backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_zero_grad_resets(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        (x * x).backward()
        x.zero_grad()
        assert x.grad is None

    def test_no_grad_tracking_for_constants(self):
        a = Tensor(np.ones((2, 2)))
        b = Tensor(np.ones((2, 2)))
        out = a @ b + a
        assert not out.requires_grad and out._backward is None


class TestParameter:
    def test_seeded_init_is_reproducible(self):
        p1 = parameter((3, 3), np.random.default_rng(42), 0.5)
        p2 = parameter((3, 3), np.random.default_rng(42), 0.5)
        np.testing.assert_array_equal(p1.data, p2.data)
        assert p1.requires_grad

    def test_wraps_explicit_values(self):
        p = parameter(np.eye(2))
        np.testing.assert_array_equal(p.data, np.eye(2))
