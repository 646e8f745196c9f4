import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minmax_fbsde.systems import (
    NOISE_PRESETS,
    SYSTEM_FACTORIES,
    CostSpec,
    SystemModel,
    deviation_from,
    lq_double_integrator,
    make_system,
    pendulum,
    quadcopter,
    resolve_noise_scale,
    wrap_angle,
)


class TestNoisePresets:
    def test_preset_values(self):
        assert NOISE_PRESETS["low"] == 0.1
        assert NOISE_PRESETS["high"] == 0.8

    def test_resolve(self):
        assert resolve_noise_scale("low") == 0.1
        assert resolve_noise_scale(0.37) == 0.37
        with pytest.raises(ValueError):
            resolve_noise_scale("medium")
        with pytest.raises(ValueError):
            resolve_noise_scale(-0.1)


class TestWrap:
    def test_zero(self):
        assert wrap_angle(0.0) == 0.0

    def test_range(self):
        for delta in np.linspace(-20, 20, 401):
            w = wrap_angle(delta)
            assert -np.pi < w <= np.pi + 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-30, 30, allow_nan=False), st.integers(-4, 4))
    def test_period_invariance(self, delta, k):
        a = wrap_angle(delta)
        b = wrap_angle(delta + 2 * np.pi * k)
        assert a == pytest.approx(b, abs=1e-9)


class TestDeviation:
    def test_plain_dims_untouched(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        target = np.array([0.5, 1.0])
        dev = deviation_from(X, target, angle_dims=())
        np.testing.assert_allclose(dev, X - target.reshape(-1, 1))

    def test_angle_dim_wraps(self):
        X = np.array([[2 * np.pi + 0.3], [0.0]])
        dev = deviation_from(X, np.array([0.0, 0.0]), angle_dims=(0,))
        assert dev[0, 0] == pytest.approx(0.3, abs=1e-12)

    def test_cost_invariant_under_full_turns(self):
        sys = pendulum()
        costs = CostSpec(
            running_weights=np.array([1.0, 0.1]),
            terminal_weights=np.array([100.0, 10.0]),
            target=sys.target, r_u=np.array([[0.1]]), epsilon=1.0,
            angle_dims=sys.angle_dims,
        )
        x = np.array([[2.5], [-0.7]])
        shifted = x + np.array([[2 * np.pi * 3], [0.0]])
        assert costs.terminal_expr(x)[0, 0] == pytest.approx(
            costs.terminal_expr(shifted)[0, 0], rel=1e-12)
        assert costs.running_expr(x)[0, 0] == pytest.approx(
            costs.running_expr(shifted)[0, 0], rel=1e-12)


class TestCostSpec:
    def make(self, **kw):
        base = dict(
            running_weights=np.array([1.0, 0.1]),
            terminal_weights=np.array([10.0, 1.0]),
            target=np.zeros(2),
            r_u=np.array([[1.0]]),
            epsilon=1.0,
        )
        base.update(kw)
        return CostSpec(**base)

    def test_scalar_r_u_promoted(self):
        costs = self.make(r_u=2.0)
        assert costs.r_u.shape == (1, 1)
        assert costs.r_u[0, 0] == 2.0

    def test_vector_r_u_becomes_diagonal(self):
        costs = self.make(r_u=np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(costs.r_u, np.diag([1.0, 2.0, 3.0]))

    def test_indefinite_r_u_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            self.make(r_u=np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_nonfinite_r_u_rejected(self, bad):
        with pytest.raises(ValueError, match="R_u"):
            self.make(r_u=np.array([[bad]]))

    def test_asymmetric_r_u_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            self.make(r_u=np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            self.make(running_weights=np.array([-1.0, 0.1]))

    def test_epsilon_bound(self):
        with pytest.raises(ValueError, match="epsilon"):
            self.make(epsilon=0.0)

    def test_beta_bound(self):
        with pytest.raises(ValueError, match="beta"):
            self.make(beta=1.5)

    def test_solve_r(self):
        costs = self.make(r_u=np.array([2.0, 4.0]))
        rhs = np.array([[2.0], [4.0]])
        np.testing.assert_allclose(costs.solve_r(rhs), [[1.0], [1.0]])

    def test_hand_running_cost(self):
        # weights (1, 0.1), target (pi, 0), state (0, 0): the angle deviation
        # wraps to magnitude pi, so q = 0.5 * pi^2
        sys = pendulum()
        costs = self.make(target=sys.target, angle_dims=(0,))
        q = costs.running_expr(np.zeros((2, 1)))[0, 0]
        assert q == pytest.approx(0.5 * np.pi**2)

    def test_terminal_at_target_is_zero(self):
        costs = self.make()
        assert costs.terminal_expr(np.zeros((2, 1)))[0, 0] == 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=2, max_size=2))
    def test_costs_nonnegative(self, xs):
        costs = self.make()
        x = np.array(xs).reshape(2, 1)
        assert costs.running_expr(x)[0, 0] >= 0.0
        assert costs.terminal_expr(x)[0, 0] >= 0.0

    def test_batched_columns_match_single(self):
        costs = self.make()
        X = np.array([[1.0, -2.0, 0.5], [0.3, 0.0, -1.0]])
        batched = costs.running_expr(X).ravel()
        singles = [costs.running_expr(X[:, j : j + 1])[0, 0] for j in range(3)]
        np.testing.assert_allclose(batched, singles)


class TestPendulum:
    def test_dimensions(self):
        sys = pendulum()
        assert (sys.n, sys.m, sys.p) == (2, 1, 1)
        np.testing.assert_allclose(sys.target, [np.pi, 0.0])
        np.testing.assert_allclose(sys.x0, [0.0, 0.0])

    def test_drift_hand_value(self):
        sys = pendulum()
        f = sys.drift(np.array([[0.1], [0.3]]))
        assert f[0, 0] == pytest.approx(0.3)
        expected = (-0.1 * 0.3 - 9.81 * np.sin(0.1)) / 1.0
        assert f[1, 0] == pytest.approx(expected)

    def test_actuation_on_velocity_channel(self):
        sys = pendulum()
        G = sys.actuation
        assert G[0, 0] == 0.0
        assert G[1, 0] == pytest.approx(1.0)  # 1/(m l^2)

    def test_noise_channel_identity(self):
        # sigma @ gamma_u is the physical G = (0, 1/(m l^2)) at every noise level
        for sys, inertia in ((pendulum("low"), 1.0), (pendulum("high"), 1.0),
                             (pendulum("low", mass=2.0), 2.0)):
            np.testing.assert_array_equal(sys.sigma @ sys.gamma_u, [[0.0], [1.0 / inertia]])
            np.testing.assert_array_equal(sys.actuation, sys.sigma @ sys.gamma_u)

    def test_success_tolerances(self):
        sys = pendulum()
        np.testing.assert_allclose(sys.success_tol, [0.2, 1.0])

    def test_undamped_energy_conservation_order(self):
        # with damping off and no control the Euler flow's energy drift
        # shrinks roughly linearly with the step size
        sys = pendulum(damping=0.0)

        def energy(x):
            theta, omega = x
            return 0.5 * omega**2 - 9.81 * np.cos(theta)

        def drift_flow(dt, steps):
            x = np.array([[2.0], [0.0]])
            for _ in range(steps):
                x = x + dt * sys.drift(x)
            return abs(energy(x.ravel()) - energy([2.0, 0.0]))

        err_coarse = drift_flow(0.01, 100)
        err_fine = drift_flow(0.005, 200)
        assert err_fine < 0.75 * err_coarse


class TestQuadcopter:
    def test_dimensions(self):
        sys = quadcopter()
        assert (sys.n, sys.m, sys.p) == (12, 4, 4)
        assert len(sys.state_labels) == 12

    def test_hover_trim_zero_drift(self):
        sys = quadcopter()
        f = sys.drift(sys.x0.reshape(-1, 1))
        np.testing.assert_allclose(f, 0.0, atol=1e-14)

    def test_noise_channel_identity(self):
        # sigma @ gamma_u is the physical G: the specific force pushes up
        # (-1 on the w row) and each torque drives its own rate
        expected = np.zeros((12, 4))
        expected[8:, :] = np.diag([-1.0, 1.0, 1.0, 1.0])
        for noise in ("low", "high"):
            sys = quadcopter(noise)
            np.testing.assert_array_equal(sys.sigma @ sys.gamma_u, expected)
            np.testing.assert_array_equal(sys.actuation, expected)

    def test_noise_enters_actuated_rows_only(self):
        sys = quadcopter()
        nonzero_rows = sorted(set(np.nonzero(sys.sigma)[0]))
        assert nonzero_rows == [8, 9, 10, 11]  # w, p, q, r rates

    def test_target_one_meter_up_forward_right(self):
        sys = quadcopter()
        np.testing.assert_allclose(sys.target[:3], [1.0, 1.0, -1.0])
        np.testing.assert_allclose(sys.target[3:], 0.0)

    def test_position_tolerance(self):
        sys = quadcopter()
        np.testing.assert_allclose(sys.success_tol[:3], 0.25)

    def test_velocity_kinematics(self):
        # 1 m/s forward body velocity at level attitude moves pn only
        sys = quadcopter()
        x = np.zeros((12, 1))
        x[6, 0] = 1.0
        f = sys.drift(x)
        assert f[0, 0] == pytest.approx(1.0)
        assert abs(f[1, 0]) < 1e-14 and abs(f[2, 0]) < 1e-14

    def test_gravity_tilt_accelerates_body_frame(self):
        # pitch -0.1 rad is nose down in this frame, so gravity picks up the
        # forward body velocity at +g sin(0.1)
        sys = quadcopter()
        x = np.zeros((12, 1))
        x[4, 0] = -0.1
        f = sys.drift(x)
        assert f[6, 0] == pytest.approx(9.81 * np.sin(0.1), rel=1e-9)
        # trim thrust no longer cancels the body-z gravity component
        assert f[8, 0] == pytest.approx(9.81 * (np.cos(0.1) - 1.0), rel=1e-9)


class TestLq:
    def test_double_integrator_matrices(self):
        sys = lq_double_integrator(noise=0.2)
        f = sys.drift(np.array([[1.0], [2.0]]))
        assert f[0, 0] == 2.0 and f[1, 0] == 0.0
        np.testing.assert_allclose(sys.actuation, [[0.0], [1.0]])
        np.testing.assert_allclose(sys.sigma, [[0.0], [0.2]])
        np.testing.assert_allclose(sys.gamma_u, [[5.0]])

    def test_noise_channel_identity(self):
        sys = lq_double_integrator(0.2)
        np.testing.assert_array_equal(sys.sigma @ sys.gamma_u, [[0.0], [1.0]])
        np.testing.assert_array_equal(sys.actuation, [[0.0], [1.0]])


class TestFactories:
    def test_names(self):
        assert set(SYSTEM_FACTORIES) == {"pendulum", "quadcopter", "lq"}

    def test_make_system(self):
        sys = make_system("pendulum", noise="high")
        assert sys.params["noise_scale"] == 0.8

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="cartpole"):
            make_system("cartpole")

    def test_actuation_is_derived(self):
        # G is sigma @ gamma_u, never a stored field that could disagree
        assert "actuation" not in {f.name for f in dataclasses.fields(SystemModel)}
        sys = make_system("lq", noise=0.0)
        np.testing.assert_array_equal(sys.actuation, np.zeros((2, 1)))
        with pytest.raises(AttributeError):
            sys.actuation = np.ones((2, 1))
