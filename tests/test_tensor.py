import numpy as np

from conftest import numeric_grad
from ridecast.nn.layers import add_layer_norm, mlp_forward, self_attention
from ridecast.nn.tensor import Tensor, parameter


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

    def test_sub(self):
        rng = np.random.default_rng(3)
        check_op(lambda a, b: ((a - b) * b - a).sum(),
                 rng.normal(size=(3, 3)), rng.normal(size=(3, 3)))

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
            assert not a.data.flags.c_contiguous
            return ((a @ w) * c).sum()

        check_op(build, np.swapaxes(rng.normal(size=(2, 3, 4)), -1, -2), rng.normal(size=(3, 5)))

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

    def test_mean_axis(self):
        rng = np.random.default_rng(9)
        check_op(lambda a: (a.mean(axis=1) * a.mean(axis=1)).sum(), rng.normal(size=(3, 4, 2)))

    def test_reshape(self):
        rng = np.random.default_rng(10)
        check_op(lambda a: (a.reshape(4, 3) @ a).sum(), rng.normal(size=(3, 4)))
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


def graph_nodes(root: Tensor) -> list[Tensor]:
    """Every node reachable from root through parent links, each once."""
    nodes, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


class TestBackwardContract:
    def test_interior_gradients_released_leaf_gradients_kept(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(2, 3, 4)))
        leaves = {name: Tensor(rng.normal(size=shape), requires_grad=True) for name, shape in [
            ("w1", (4, 5)), ("b1", (5,)), ("w2", (5, 4)), ("b2", (4,)), ("gamma", (4,)), ("beta", (4,)),
            ("wq", (4, 4)), ("wk", (4, 4)), ("wv", (4, 4)), ("head", (4, 2)),
        ]}
        p = leaves
        o = mlp_forward(x, p["w1"], p["b1"], p["w2"], p["b2"])
        o = add_layer_norm(o, p["gamma"], p["beta"])
        o = self_attention(o, p["wq"], p["wk"], p["wv"])
        out = ((o.mean(axis=-2) @ p["head"]).relu() - 0.5).sum()
        out.backward()

        nodes = graph_nodes(out)
        interior = [n for n in nodes if n._parents]
        assert len(interior) >= 6
        assert all(n.grad is None for n in interior)
        assert x.grad is None and not x.requires_grad
        for name, leaf in leaves.items():
            assert isinstance(leaf.grad, np.ndarray) and leaf.grad.shape == leaf.shape, name
        assert all(any(n is leaf for n in nodes) for leaf in leaves.values())

    def test_seed_is_copied(self):
        leaf = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        seed = np.array([3.0, -4.0])
        leaf.backward(seed)
        seed[:] = 99.0
        np.testing.assert_array_equal(leaf.grad, [3.0, -4.0])

        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([5.0, 6.0]), requires_grad=True)
        seed = np.array([3.0, -4.0])
        (a + b).backward(seed)
        seed[:] = 99.0
        np.testing.assert_array_equal(a.grad, [3.0, -4.0])
        np.testing.assert_array_equal(b.grad, [3.0, -4.0])

    def test_shared_gradient_array_is_not_written_in_place(self):
        # s hands one array to a and b; t hands one array to s and a, so a
        # receives a second gradient after b already holds the shared one
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        s = a + b
        (s + a).sum().backward()
        np.testing.assert_array_equal(a.grad, [2.0, 2.0])
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])


class TestParameter:
    def test_seeded_init_is_reproducible(self):
        p1 = parameter((3, 3), np.random.default_rng(42), 0.5)
        p2 = parameter((3, 3), np.random.default_rng(42), 0.5)
        np.testing.assert_array_equal(p1.data, p2.data)
        assert p1.requires_grad

    def test_wraps_explicit_values(self):
        p = parameter(np.eye(2))
        np.testing.assert_array_equal(p.data, np.eye(2))
