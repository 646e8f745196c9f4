import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minmax_fbsde import autodiff as ad
from minmax_fbsde.autodiff import Tape, finite_difference_check
from minmax_fbsde.neural import (
    AdamState,
    LstmLayerParams,
    NonFiniteGradient,
    adam_step,
    init_net,
    lstm_cell_forward,
    lstm_stack_forward,
    xavier_init,
    zero_state,
)
from minmax_fbsde.training import PARAM_NAMES, _views
from reference import lstm_stack


class TestInit:
    def test_shapes(self):
        rng = np.random.default_rng(0)
        net = init_net(input_dim=3, hidden_size=5, output_dim=2, rng=rng)
        assert net.layer1.W.shape == (20, 3)
        assert net.layer1.U.shape == (20, 5)
        assert net.layer1.b.shape == (20, 1)
        assert net.layer2.W.shape == (20, 5)
        assert net.out_w.shape == (2, 5)
        assert net.out_b.shape == (2, 1)

    def test_xavier_bound(self):
        rng = np.random.default_rng(1)
        w = xavier_init(40, 60, rng)
        bound = np.sqrt(6.0 / (40 + 60))
        assert np.max(np.abs(w)) <= bound
        # uniform over the interval, not collapsed near zero
        assert np.max(np.abs(w)) > 0.8 * bound

    def test_forget_gate_bias_one(self):
        rng = np.random.default_rng(2)
        net = init_net(3, 4, 1, rng)
        b = net.layer1.b.ravel()
        np.testing.assert_array_equal(b[0:4], 0.0)
        np.testing.assert_array_equal(b[4:8], 1.0)
        np.testing.assert_array_equal(b[8:16], 0.0)

    def test_deterministic_given_rng_seed(self):
        a = init_net(3, 4, 2, np.random.default_rng(7))
        b = init_net(3, 4, 2, np.random.default_rng(7))
        for x, y in zip(a.arrays(), b.arrays()):
            np.testing.assert_array_equal(x, y)


class TestCellForward:
    def test_zero_weights_hand_value(self):
        # all-zero parameters: every gate sits at sigmoid(0) = 1/2 and the
        # candidate at tanh(0) = 0, so c halves and h = 0.5 tanh(c)
        layer = LstmLayerParams(W=np.zeros((4, 1)), U=np.zeros((4, 1)), b=np.zeros((4, 1)))
        h, c = lstm_cell_forward(layer, np.array([[3.0]]), np.array([[0.0]]),
                                 np.array([[2.0]]))
        assert c[0, 0] == pytest.approx(1.0)
        assert h[0, 0] == pytest.approx(0.5 * np.tanh(1.0))

    def test_batch_columns_independent(self):
        rng = np.random.default_rng(3)
        net = init_net(2, 4, 1, rng)
        x = rng.normal(size=(2, 5))
        out_all, _ = lstm_stack_forward(net, x)
        for j in range(5):
            out_j, _ = lstm_stack_forward(net, x[:, j : j + 1])
            np.testing.assert_allclose(out_all[:, j : j + 1], out_j, atol=1e-14)

    def test_state_threading(self):
        rng = np.random.default_rng(4)
        net = init_net(2, 3, 1, rng)
        x1 = rng.normal(size=(2, 1))
        x2 = rng.normal(size=(2, 1))
        _, state = lstm_stack_forward(net, x1)
        out_seq, _ = lstm_stack_forward(net, x2, state)
        out_fresh, _ = lstm_stack_forward(net, x2)
        assert np.max(np.abs(out_seq - out_fresh)) > 1e-12

    def test_zero_state_shapes(self):
        net = init_net(2, 3, 1, np.random.default_rng(0))
        (h1, c1), (h2, c2) = zero_state(net, 7)
        assert h1.shape == (3, 7) and c1.shape == (3, 7)
        assert h2.shape == (3, 7) and c2.shape == (3, 7)
        assert not h1.any() and not c2.any()


class TestCellGradient:
    def test_stack_gradient_matches_finite_differences(self):
        # the stack taped by the tests' reference, from a zero state
        rng = np.random.default_rng(5)
        net0 = init_net(2, 3, 1, rng)
        x0 = rng.normal(size=(2, 2))
        shapes = dict(zip(PARAM_NAMES, (a.shape for a in net0.arrays())))

        def f(vec):
            tape = Tape()
            leaves = [tape.leaf(view) for _, view in _views(vec, shapes)]
            out, _ = lstm_stack(leaves, tape.leaf(x0), zero_state(net0, 2))
            y = ad.sumsq(out)
            grads = tape.backward(y, leaves)
            return float(y.value[0, 0]), np.concatenate([g.ravel() for g in grads])

        point = np.concatenate([a.ravel() for a in net0.arrays()])
        assert finite_difference_check(f, point) < 1e-5


class TestAdam:
    def test_first_step_closed_form(self):
        theta = np.array([1.0])
        named = _views(theta, {"w": (1, 1)})
        state = AdamState.zeros(theta.size, lr=1e-3)
        adam_step(state, named, dict(_views(np.array([3.0]), {"w": (1, 1)})))
        # bias correction makes the first step lr * g / (|g| + eps)
        expected = 1.0 - 1e-3 * 3.0 / (3.0 + 1e-8)
        assert theta[0] == pytest.approx(expected, abs=1e-15)
        assert named[0][1][0, 0] == theta[0]
        assert state.t == 1

    def test_moments_update(self):
        theta = np.array([0.0])
        named = _views(theta, {"w": (1, 1)})
        state = AdamState.zeros(theta.size)
        adam_step(state, named, dict(_views(np.array([2.0]), {"w": (1, 1)})))
        assert state.m[0] == pytest.approx(0.1 * 2.0)
        assert state.v[0] == pytest.approx(0.001 * 4.0)

    def test_nonfinite_gradient_leaves_params_untouched(self):
        shapes = {"a": (2, 1), "b": (1, 2)}
        theta = np.array([1.0, 2.0, 3.0, 4.0])
        named = _views(theta, shapes)
        state = AdamState.zeros(theta.size)
        state.m[:], state.v[:] = 0.5, 0.25
        grads = dict(_views(np.array([1.0, 1.0, np.nan, 1.0]), shapes))  # b's first entry
        with pytest.raises(NonFiniteGradient, match="'b'"):
            adam_step(state, named, grads)
        np.testing.assert_array_equal(theta, [1.0, 2.0, 3.0, 4.0])
        assert state.t == 0
        np.testing.assert_array_equal(state.m, 0.5)
        np.testing.assert_array_equal(state.v, 0.25)
        grads = dict(_views(np.array([np.inf, 1.0, 1.0, 1.0]), shapes))
        with pytest.raises(NonFiniteGradient, match="'a'"):
            adam_step(state, named, grads)

    def test_descends_simple_quadratic(self):
        theta = np.array([5.0])
        named = _views(theta, {"w": (1, 1)})
        state = AdamState.zeros(theta.size, lr=0.1)
        for _ in range(300):
            adam_step(state, named, dict(_views(2.0 * theta, {"w": (1, 1)})))
        assert abs(theta[0]) < 0.2

    def test_whole_vector_update_matches_each_entry(self):
        # the flat update equals a per-parameter one bit for bit: Adam is element-wise
        rng = np.random.default_rng(0)
        shapes = {"a": (3, 2), "b": (1, 1), "c": (2, 1)}
        theta, g = rng.normal(size=9), rng.normal(size=9)
        flat = theta.copy()
        state = AdamState.zeros(9, lr=0.01)
        adam_step(state, _views(flat, shapes), dict(_views(g, shapes)))
        for i in range(9):
            one = AdamState.zeros(1, lr=0.01)
            p = theta[i : i + 1].copy()
            adam_step(one, [("x", p.reshape(1, 1))], {"x": g[i : i + 1].reshape(1, 1)})
            assert (p[0], one.m[0], one.v[0]) == (flat[i], state.m[i], state.v[i])

    def test_arrays_that_do_not_tile_one_vector_are_refused(self):
        theta = np.zeros(3)
        named = _views(theta, {"a": (1, 1), "b": (2, 1)})
        state = AdamState.zeros(3)
        separate = {"a": np.ones((1, 1)), "b": np.ones((2, 1))}
        with pytest.raises(ValueError, match="consecutive views of one float64 vector"):
            adam_step(state, named, separate)
        swapped = [named[1], named[0]]
        with pytest.raises(ValueError, match="consecutive views"):
            adam_step(state, swapped, dict(_views(np.ones(3), {"b": (2, 1), "a": (1, 1)})))
        short = AdamState.zeros(2)
        with pytest.raises(ValueError, match="moments hold 2 entries, the parameters 3"):
            adam_step(short, named, dict(_views(np.ones(3), {"a": (1, 1), "b": (2, 1)})))
        assert state.t == short.t == 0 and not theta.any() and not short.m.any()


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 3), st.integers(0, 10**6))
def test_stack_output_shape(input_dim, hidden, out_dim, seed):
    rng = np.random.default_rng(seed)
    net = init_net(input_dim, hidden, out_dim, rng)
    x = rng.normal(size=(input_dim, 6))
    out, ((h1, c1), (h2, c2)) = lstm_stack_forward(net, x)
    assert out.shape == (out_dim, 6)
    assert h1.shape == (hidden, 6) and c2.shape == (hidden, 6)
    assert np.all(np.isfinite(out))
