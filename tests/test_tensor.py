import numpy as np

from ridecast.nn.layers import add_layer_norm, add_position, mlp_forward, pooled_heads, self_attention, task_mse
from ridecast.nn.tensor import Tensor, _send, parameter


class TestGradients:
    def test_gradient_accumulates_on_reuse(self):
        # p is the table of both adds, so it receives the seed's sum over B twice
        x = Tensor(np.ones((1, 2, 3)))
        p = Tensor(np.zeros((2, 3)), requires_grad=True)
        add_position(add_position(x, p), p).backward(np.full((1, 2, 3), 1.5))
        np.testing.assert_array_equal(p.grad, np.full((2, 3), 3.0))

    def test_zero_grad_resets(self):
        p = Tensor(np.zeros((2, 3)), requires_grad=True)
        add_position(Tensor(np.ones((1, 2, 3))), p).backward(np.ones((1, 2, 3)))
        assert p.grad is not None
        p.zero_grad()
        assert p.grad is None

    def test_no_grad_tracking_for_constants(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 3, 4)))
        head = [Tensor(rng.normal(size=shape)) for shape in ((4, 6), (6,), (2, 3), (2,))]
        out = task_mse(pooled_heads(add_position(x, Tensor(np.ones((3, 4)))), *head), Tensor(np.ones((2, 2))))
        assert not out.requires_grad and out._backward is None and out._parents == ()


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
            ("pos", (3, 4)), ("wq", (4, 4)), ("wk", (4, 4)), ("wv", (4, 4)),
            ("hw1", (4, 6)), ("hb1", (6,)), ("hw2", (2, 3)), ("hb2", (2,)),
        ]}
        p = leaves
        o = mlp_forward(x, p["w1"], p["b1"], p["w2"], p["b2"])
        o = add_position(o, p["pos"])
        o = add_layer_norm(o, p["gamma"], p["beta"])
        o = self_attention(o, p["wq"], p["wk"], p["wv"])
        out = task_mse(pooled_heads(o, p["hw1"], p["hb1"], p["hw2"], p["hb2"]), Tensor(rng.normal(size=(2, 2))))
        out.backward(np.array([0.3, 0.7]))

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

        a = Tensor(np.array([[[1.0, 2.0]]]), requires_grad=True)
        b = Tensor(np.array([[5.0, 6.0]]), requires_grad=True)
        seed = np.array([[[3.0, -4.0]]])
        add_position(a, b).backward(seed)
        seed[:] = 99.0
        np.testing.assert_array_equal(a.grad, [[[3.0, -4.0]]])
        np.testing.assert_array_equal(b.grad, [[3.0, -4.0]])

    def test_shared_gradient_array_is_not_written_in_place(self):
        # no layer hands one array to two parents, which the engine allows, so
        # the test builds such a node: s hands one array to a and b, t hands
        # one array to s and a, so a receives a second gradient after b
        # already holds the shared one
        def tee(a, b):
            return Tensor._result(a.data + b.data, (a, b), lambda g: _send((a, lambda: g), (b, lambda: g)))

        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        tee(tee(a, b), a).backward(np.ones(2))
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
