import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minmax_fbsde import autodiff as ad
from minmax_fbsde import fbsde
from minmax_fbsde.config import build_runtime, parse_config
from minmax_fbsde.fbsde import (
    PURPOSE_EVAL,
    PURPOSE_TRAIN,
    HorizonGrid,
    rollout_batch,
    sample_noise,
    training_loss,
)
from minmax_fbsde.systems import CostSpec, SystemModel, pendulum
from minmax_fbsde.training import TrainConfig, init_store
from reference import bsde_step, feedback_controls, fsde_step, h_drift, noise_block, optimal_controls


def pendulum_costs(epsilon=1.0, beta=0.8):
    sys = pendulum()
    return sys, CostSpec(
        running_weights=np.array([1.0, 0.1]),
        terminal_weights=np.array([100.0, 10.0]),
        target=sys.target,
        r_u=np.array([[0.1]]),
        epsilon=epsilon,
        beta=beta,
        weight_decay=1e-4,
        angle_dims=sys.angle_dims,
    )


class TestHorizonGrid:
    def test_dt(self):
        grid = HorizonGrid(0.0, 1.5, 75)
        assert grid.dt == pytest.approx(0.02)
        assert len(grid.times()) == 76
        assert grid.times()[-1] == pytest.approx(1.5)

    def test_exact_cover(self):
        grid = HorizonGrid(0.0, 1.0, 3)
        assert grid.steps * grid.dt == pytest.approx(1.0 - 0.0, abs=1e-15)

    def test_degenerate_requires_equal_endpoints(self):
        grid = HorizonGrid(1.0, 1.0, 0)
        assert grid.dt == 0.0
        with pytest.raises(ValueError):
            HorizonGrid(0.0, 1.0, 0)

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            HorizonGrid(0.0, 1.0, -1)


class TestNoise:
    def test_shape(self):
        noise = sample_noise(0, PURPOSE_TRAIN, 0, batch=5, steps=7, m=3)
        assert noise.shape == (7, 3, 5)

    def test_reproducible(self):
        a = noise_block(3, PURPOSE_TRAIN, 2, 1, steps=4, m=2)
        b = noise_block(3, PURPOSE_TRAIN, 2, 1, steps=4, m=2)
        np.testing.assert_array_equal(a, b)

    def test_purpose_streams_disjoint(self):
        a = noise_block(3, PURPOSE_TRAIN, 0, 0, steps=4, m=2)
        b = noise_block(3, PURPOSE_EVAL, 0, 0, steps=4, m=2)
        assert np.max(np.abs(a - b)) > 1e-6

    def test_iteration_and_sample_streams_disjoint(self):
        base = noise_block(3, PURPOSE_TRAIN, 0, 0, steps=4, m=2)
        other_iter = noise_block(3, PURPOSE_TRAIN, 1, 0, steps=4, m=2)
        other_sample = noise_block(3, PURPOSE_TRAIN, 0, 1, steps=4, m=2)
        assert np.max(np.abs(base - other_iter)) > 1e-6
        assert np.max(np.abs(base - other_sample)) > 1e-6

    def test_standard_normal_moments(self):
        noise = sample_noise(0, PURPOSE_TRAIN, 0, batch=400, steps=20, m=2)
        assert abs(noise.mean()) < 0.02
        assert abs(noise.std() - 1.0) < 0.02

    @pytest.mark.parametrize("seed", [0, 7, 2**32 + 3])
    @pytest.mark.parametrize("purpose", [0, 1, 2])
    @pytest.mark.parametrize("iteration", [0, 5, 2**32 + 1])
    def test_batched_keys_match_per_sample_oracle(self, seed, purpose, iteration):
        # the batched key derivation must reproduce noise_block bit for bit,
        # including seeds and iterations that take two uint32 words
        for batch in (0, 1, 3, 257):
            for m in (1, 6):
                for steps in (0, 4):
                    got = sample_noise(seed, purpose, iteration, batch, steps, m)
                    want = np.empty((steps, m, batch))
                    for i in range(batch):
                        want[:, :, i] = noise_block(seed, purpose, iteration, i, steps, m)
                    assert got.shape == want.shape and got.flags.c_contiguous
                    assert got.tobytes() == want.tobytes(), (batch, m, steps)


class TestControls:
    def test_zero_gradient_zero_controls(self):
        u, v = optimal_controls(np.zeros(2), np.eye(2), np.eye(2), 1.0)
        assert not u.any() and not v.any()

    def test_scalar_hand_value(self):
        u, v = optimal_controls(np.array([4.0]), np.array([[1.0]]), np.array([[2.0]]), 2.0)
        assert u[0] == pytest.approx(-2.0)
        assert v[0] == pytest.approx(2.0)

    def test_risk_neutral_limit_scaling(self):
        z = np.array([3.0, -1.0])
        _, v = optimal_controls(z, np.eye(2), np.eye(2), 1e12)
        assert np.linalg.norm(v) <= 1e-12 * np.linalg.norm(z) + 1e-30

    def test_indefinite_r_u_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            optimal_controls(np.ones(2), np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]]), 1.0)

    def test_epsilon_positive_required(self):
        with pytest.raises(ValueError, match="epsilon"):
            optimal_controls(np.array([1.0]), np.array([[1.0]]), np.array([[1.0]]), 0.0)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=2))
    def test_linear_in_z(self, zs):
        z = np.array(zs)
        gamma = np.array([[1.0, 0.0], [0.5, 2.0]])
        r = np.diag([1.0, 3.0])
        u1, v1 = optimal_controls(z, gamma, r, 0.7)
        u2, v2 = optimal_controls(2.0 * z, gamma, r, 0.7)
        np.testing.assert_allclose(u2, 2.0 * u1, atol=1e-12)
        np.testing.assert_allclose(v2, 2.0 * v1, atol=1e-12)


class TestGenerator:
    def test_zero_z_gives_running_cost(self):
        sys, costs = pendulum_costs()
        x = np.array([0.3, -0.2])
        h = h_drift(x, np.zeros(1), costs, sys.gamma_u)
        assert h == pytest.approx(costs.running_expr(x.reshape(-1, 1))[0, 0])

    def test_scalar_hand_value(self):
        costs = CostSpec(
            running_weights=np.array([2.0]), terminal_weights=np.array([2.0]),
            target=np.zeros(1), r_u=np.array([[1.0]]), epsilon=2.0,
        )
        # q = 0.5 * 2 * 1^2 = 1 at x=1; S = 1 - 1/2; h = 1 - 0.5*4*0.5 = 0
        h = h_drift(np.array([1.0]), np.array([2.0]), costs, np.array([[1.0]]))
        assert h == pytest.approx(0.0)

    def test_risk_neutral_limit(self):
        sys, costs_big = pendulum_costs(epsilon=1e9)
        z = np.array([1.7])
        h_rs = h_drift(sys.x0, z, costs_big, sys.gamma_u, mode="minmax")
        h_rn = h_drift(sys.x0, z, costs_big, sys.gamma_u, mode="baseline")
        assert abs(h_rs - h_rn) <= (1.0 / 1e9) * float(z @ z)

    def test_pure_function_of_inputs(self):
        sys, costs = pendulum_costs()
        x, z = np.array([0.5, 0.5]), np.array([0.3])
        vals = {h_drift(x, z, costs, sys.gamma_u) for _ in range(5)}
        assert len(vals) == 1

    def test_sigma_form_cross_check(self):
        # h computed from z must equal the state-gradient form
        # q - 0.5 vx' (Sigma Gamma R^-1 Gamma' Sigma' - (1/eps) Sigma Sigma') vx
        # whenever z = Sigma' vx
        sys, costs = pendulum_costs(epsilon=0.7)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=2)
            vx = rng.normal(size=(2, 1))
            z = sys.sigma.T @ vx
            h_z = h_drift(x, z.ravel(), costs, sys.gamma_u)
            inner = (
                sys.sigma @ sys.gamma_u @ costs.solve_r(sys.gamma_u.T) @ sys.sigma.T
                - (1.0 / costs.epsilon) * (sys.sigma @ sys.sigma.T)
            )
            q = costs.running_expr(x.reshape(-1, 1))[0, 0]
            h_sigma = q - 0.5 * float((vx.T @ inner @ vx)[0, 0])
            assert h_z == pytest.approx(h_sigma, rel=1e-12, abs=1e-12)


class TestSteps:
    def test_fsde_zero_everything_is_identity(self):
        sys, _ = pendulum_costs()
        grid = HorizonGrid(0.0, 0.02, 1)
        x = np.array([np.pi, 0.0])  # zero drift point up to sin(pi) noise
        nxt = fsde_step(x, np.zeros(1), np.zeros(1), np.zeros(1), sys, grid)
        np.testing.assert_allclose(nxt, x, atol=1e-15)

    def test_fsde_pendulum_hand_step(self):
        # unit noise channel: sigma column (0, 1), gamma_u = 1
        sys = pendulum(noise=1.0)
        grid = HorizonGrid(0.0, 0.02, 1)
        x = np.array([np.pi, 0.0])
        nxt = fsde_step(x, np.array([0.5]), np.zeros(1), np.zeros(1), sys, grid)
        assert nxt[1] == pytest.approx(0.01, abs=1e-12)
        assert nxt[0] == pytest.approx(np.pi)

    def test_fsde_euler_order_on_linear_flow(self):
        decay = SystemModel(
            name="decay", n=1, m=1, p=1,
            drift=lambda X: -np.asarray(X),
            sigma=np.zeros((1, 1)),
            gamma_u=np.ones((1, 1)), target=np.zeros(1), x0=np.ones(1),
            state_labels=("x",), success_tol=np.ones(1), angle_dims=(),
        )

        def flow(steps):
            grid = HorizonGrid(0.0, 1.0, steps)
            x = np.array([1.0])
            for _ in range(steps):
                x = fsde_step(x, np.zeros(1), np.zeros(1), np.zeros(1), decay, grid)
            return abs(x[0] - math.exp(-1.0))

        err2, err1 = flow(40), flow(80)
        assert err1 == pytest.approx(err2 / 2, rel=0.1)

    def test_bsde_zero_h_zero_z_identity(self):
        grid = HorizonGrid(0.0, 0.1, 1)
        out = bsde_step(1.5, np.zeros(2), 0.0, np.zeros(1), np.zeros(2),
                        np.ones((2, 1)), np.zeros(2), grid)
        assert out == 1.5

    def test_bsde_hand_value(self):
        # y=1, h=2, z=(1), K = Gamma_u u + v = (3), dt=0.1, no noise.
        # Ito for the value along the tilted flow adds z'K dt, so the update
        # is y + (z'K - h) dt = 1 + (3 - 2) * 0.1
        grid = HorizonGrid(0.0, 0.1, 1)
        out = bsde_step(1.0, np.array([1.0]), 2.0, np.array([3.0]), np.zeros(1),
                        np.array([[1.0]]), np.zeros(1), grid)
        assert out == pytest.approx(1.1)

    def test_bsde_noise_term(self):
        grid = HorizonGrid(0.0, 0.04, 1)
        out = bsde_step(0.0, np.array([2.0]), 0.0, np.zeros(1), np.zeros(1),
                        np.array([[1.0]]), np.array([0.5]), grid)
        assert out == pytest.approx(2.0 * 0.5 * math.sqrt(0.04))


class TestRollout:
    def make(self, batch=4, steps=5, seed=0, mode="minmax", **kw):
        sys, costs = pendulum_costs()
        grid = HorizonGrid(0.0, steps * 0.02, steps)
        cfg = TrainConfig(iterations=1, batch_size=batch, grid=grid, seed=seed,
                          hidden_size=4)
        store = init_store(sys, cfg)
        return sys, costs, grid, store, rollout_batch(
            store, sys, costs, grid, batch, seed, mode=mode, **kw)

    def test_shapes(self):
        sys, costs, grid, store, batch = self.make()
        assert batch.states.shape == (6, 2, 4)
        assert batch.values.shape == (6, 1, 4)
        assert batch.z_grads.shape == (6, 1, 4)
        assert batch.noise.shape == (5, 1, 4)
        assert batch.terminal_targets.shape == (1, 4)
        assert batch.alive.shape == (4,)

    def test_initial_state_is_xi_everywhere(self):
        sys, costs, grid, store, batch = self.make()
        for i in range(batch.batch_size):
            np.testing.assert_array_equal(batch.states[0, :, i], sys.x0)

    def test_determinism_bit_identical(self):
        _, _, _, _, a = self.make(seed=9)
        _, _, _, _, b = self.make(seed=9)
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.z_grads, b.z_grads)

    def test_degenerate_grid(self):
        sys, costs = pendulum_costs()
        cfg = TrainConfig(iterations=1, batch_size=3,
                          grid=HorizonGrid(0.0, 0.02, 1), seed=0, hidden_size=4)
        store = init_store(sys, cfg)
        grid = HorizonGrid(0.0, 0.0, 0)
        batch = rollout_batch(store, sys, costs, grid, 3, 0)
        assert batch.states.shape == (1, 2, 3)
        expected = costs.terminal_expr(sys.x0.reshape(-1, 1))[0, 0]
        np.testing.assert_allclose(batch.terminal_targets, expected)

    def test_zero_net_zero_noise_is_euler_flow(self):
        sys, costs, grid, store, _ = self.make()
        store.theta[:] = 0.0  # the network's weights, y0 and z0
        noise = np.zeros((grid.steps, sys.m, 2))
        batch = rollout_batch(store, sys, costs, grid, 2, 0, noise=noise)
        x = sys.x0.reshape(-1, 1)
        for k in range(grid.steps):
            np.testing.assert_allclose(batch.states[k, :, 0], x.ravel(), atol=1e-13)
            x = x + sys.drift(x) * grid.dt
        np.testing.assert_allclose(batch.states[-1, :, 0], x.ravel(), atol=1e-13)

    def test_single_draw_feeds_both_equations(self):
        # reconstruct step 0 by hand from the recorded noise: the forward and
        # value updates must both be explained by the same increment
        sys, costs, grid, store, batch = self.make(batch=2, steps=3, seed=5)
        i = 0
        x0 = batch.states[0, :, i]
        y0 = batch.values[0, 0, i]
        z0 = batch.z_grads[0, :, i]
        u0, v0 = optimal_controls(z0, sys.gamma_u, costs.r_u, costs.epsilon)
        dw = batch.noise[0, :, i]
        h0 = h_drift(x0, z0, costs, sys.gamma_u, mode=batch.mode)
        np.testing.assert_allclose(
            fsde_step(x0, u0, v0, dw, sys, grid), batch.states[1, :, i], atol=1e-12)
        assert bsde_step(y0, z0, h0, u0, v0, sys.gamma_u, dw, grid) == pytest.approx(
            batch.values[1, 0, i], abs=1e-12)

    def test_controls_consistent_with_recorded_z(self):
        # the batch keeps z only: at every step and sample, the controls of
        # the recorded z must explain the recorded state and value updates
        sys, costs, grid, store, batch = self.make(batch=3, steps=4, seed=2)
        controls, adversary = feedback_controls(batch.z_grads, sys, costs, batch.mode)
        for k in range(grid.steps):
            for i in range(3):
                u_ref, v_ref = optimal_controls(
                    batch.z_grads[k, :, i], sys.gamma_u, costs.r_u, costs.epsilon)
                np.testing.assert_allclose(controls[k, :, i], u_ref, atol=1e-12)
                np.testing.assert_allclose(adversary[k, :, i], v_ref, atol=1e-12)
                x, z, dw = batch.states[k, :, i], batch.z_grads[k, :, i], batch.noise[k, :, i]
                np.testing.assert_allclose(fsde_step(x, u_ref, v_ref, dw, sys, grid),
                                           batch.states[k + 1, :, i], rtol=1e-12, atol=1e-12)
                h = h_drift(x, z, costs, sys.gamma_u, mode=batch.mode)
                assert bsde_step(batch.values[k, 0, i], z, h, u_ref, v_ref, sys.gamma_u, dw,
                                 grid) == pytest.approx(batch.values[k + 1, 0, i], abs=1e-12)

    def test_risk_neutral_limit_matches_baseline(self):
        sys, costs = pendulum_costs(epsilon=1e12)
        grid = HorizonGrid(0.0, 0.4, 20)
        cfg = TrainConfig(iterations=1, batch_size=8, grid=grid, seed=4, hidden_size=8)
        store = init_store(sys, cfg)
        mm = rollout_batch(store, sys, costs, grid, 8, 4, mode="minmax", adversary=True)
        bl = rollout_batch(store, sys, costs, grid, 8, 4, mode="baseline")
        assert np.max(np.abs(mm.states - bl.states)) < 1e-6
        assert np.max(np.abs(mm.values - bl.values)) < 1e-6
        assert np.max(np.abs(mm.z_grads - bl.z_grads)) < 1e-6

    @staticmethod
    def folded_inv_eps(monkeypatch) -> list:
        """The ``inv_eps`` of every ``autodiff.fold_step`` call: the adversary
        acts on the dynamics only through the fold's I/epsilon term."""
        seen = []
        original = ad.fold_step

        def recorded(*args):
            seen.append(args[-1])
            return original(*args)

        monkeypatch.setattr(ad, "fold_step", recorded)
        return seen

    def test_baseline_never_calls_adversary(self, monkeypatch):
        seen = self.folded_inv_eps(monkeypatch)
        self.make(mode="baseline", batch=2, steps=2)
        assert seen == [None]

    def test_eval_mode_never_calls_adversary(self, monkeypatch):
        seen = self.folded_inv_eps(monkeypatch)
        self.make(mode="minmax", adversary=False, batch=2, steps=2)
        assert seen == [None]

    def test_adversary_folds_one_over_epsilon(self, monkeypatch):
        seen = self.folded_inv_eps(monkeypatch)
        sys, costs, *_ = self.make(mode="minmax", adversary=True, batch=2, steps=2)
        assert seen == [1.0 / costs.epsilon]

    @pytest.mark.parametrize("system", ["pendulum", "quadcopter", "lq"])
    def test_adversary_off_moves_the_state_as_baseline(self, system):
        # the adversary that moves the state is the I/epsilon term of the
        # step's gain; with it off, a cheap adversary (epsilon = 1e-3) must
        # leave the states and value gradients exactly at the baseline's,
        # and every state must be the reference Euler step with v = 0
        cfg = parse_config(None, [f"system={system}", "cost.epsilon=0.001", "train.steps=5",
                                  "train.horizon=0.1", "train.hidden_size=4"])
        setup = build_runtime(cfg)
        store = init_store(setup.system, setup.train)
        run = functools.partial(rollout_batch, store, setup.system, setup.costs, setup.grid, 4, 3)
        off = run(mode="minmax", adversary=False)
        base = run(mode="baseline")
        np.testing.assert_array_equal(off.states, base.states)
        np.testing.assert_array_equal(off.z_grads, base.z_grads)
        controls, adversary = feedback_controls(off.z_grads, setup.system, setup.costs,
                                                adversary=False)
        assert not adversary.any()
        for k in range(setup.grid.steps):
            for i in range(4):
                step = fsde_step(off.states[k, :, i], controls[k, :, i], adversary[k, :, i],
                                 off.noise[k, :, i], setup.system, setup.grid)
                np.testing.assert_allclose(off.states[k + 1, :, i], step, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("poison", [np.nan, np.inf])
    def test_alive_is_the_per_step_accumulation(self, poison):
        # alive is taken once from the recorded states; it must equal the
        # mask accumulated after every step, here with a column poisoned at
        # the first step and one at the last
        sys, costs, grid, store, _ = self.make()
        noise = sample_noise(0, PURPOSE_TRAIN, 0, 4, grid.steps, sys.m)
        noise[0, :, 0] = poison
        noise[-1, :, 2] = poison
        batch = rollout_batch(store, sys, costs, grid, 4, 0, noise=noise)
        alive = np.ones(4, dtype=bool)
        for step in range(grid.steps):
            alive &= np.all(np.isfinite(batch.states[step + 1]), axis=0)
        assert batch.alive.tolist() == alive.tolist() == [False, True, False, True]

    def test_divergent_column_isolated(self):
        # poison one column's noise; the others must finish clean, and bit for
        # bit as they do with that column's noise left alone: neither the
        # LSTM's ones row nor its one GEMM over [x; h; 1] mixes columns
        sys, costs, grid, store, _ = self.make()
        clean = sample_noise(0, PURPOSE_TRAIN, 0, 4, grid.steps, sys.m)
        reference = rollout_batch(store, sys, costs, grid, 4, 0, noise=clean)
        others = [0, 2, 3]
        for poison in (np.nan, np.inf):
            noise = clean.copy()
            noise[2, :, 1] = poison
            batch = rollout_batch(store, sys, costs, grid, 4, 0, noise=noise)
            assert batch.alive.tolist() == [True, False, True, True]
            assert batch.diverged == 1
            assert np.all(np.isfinite(batch.states[:, :, others]))
            for key in ("states", "values", "z_grads"):
                assert np.array_equal(getattr(batch, key)[:, :, others],
                                      getattr(reference, key)[:, :, others]), (poison, key)


class TestAlive:
    """A sample is alive only when its states, values and terminal cost are
    all finite."""

    def make(self):
        sys, costs = pendulum_costs()
        grid = HorizonGrid(0.0, 0.1, 5)
        store = init_store(sys, TrainConfig(iterations=1, batch_size=4, grid=grid, seed=0,
                                            hidden_size=4))
        return sys, costs, grid, store, sample_noise(0, PURPOSE_TRAIN, 0, 4, 5, sys.m)

    def test_overflowing_terminal_cost(self):
        sys, costs, grid, store, noise = self.make()
        noise[-1, :, 1] = 1e200  # x_N and y_N stay finite, g(x_N) overflows
        batch = rollout_batch(store, sys, costs, grid, 4, 0, noise=noise)
        assert np.all(np.isfinite(batch.states)) and np.all(np.isfinite(batch.values))
        assert not np.isfinite(batch.terminal_targets[0, 1])
        assert batch.alive.tolist() == [True, False, True, True]

    def test_non_finite_value(self):
        sys, costs, grid, store, noise = self.make()
        batch = rollout_batch(store, sys, costs, grid, 4, 0, noise=noise, y0=np.array([[np.inf]]))
        assert np.all(np.isfinite(batch.states)) and np.all(np.isfinite(batch.terminal_targets))
        assert batch.diverged == 4


class TestTrainingLoss:
    def make_batch(self, y_star, y_term):
        y_star = np.asarray(y_star, dtype=np.float64).reshape(1, -1)
        y_term = np.asarray(y_term, dtype=np.float64)
        m = y_star.shape[1]
        values = np.zeros((2, 1, m))
        values[-1, 0, :] = y_term
        return fbsde.RolloutBatch(
            states=np.zeros((2, 1, m)), values=values, z_grads=np.zeros((2, 1, m)),
            noise=np.zeros((1, 1, m)), terminal_targets=y_star,
            alive=np.ones(m, dtype=bool), mode="minmax",
        )

    def test_perfect_prediction_beta_one(self):
        batch = self.make_batch([2.0, 3.0], [2.0, 3.0])
        assert training_loss(batch, 0.0, beta=1.0, weight_decay=0.0) == 0.0

    def test_hand_value(self):
        batch = self.make_batch([2.0], [0.0])
        assert training_loss(batch, 0.0, beta=0.5, weight_decay=0.0) == pytest.approx(4.0)

    def test_regularizer_additive(self):
        batch = self.make_batch([2.0], [0.0])
        base = training_loss(batch, 10.0, beta=0.5, weight_decay=0.0)
        reg = training_loss(batch, 10.0, beta=0.5, weight_decay=0.1)
        assert reg - base == pytest.approx(1.0)

    def test_dead_columns_excluded(self):
        batch = self.make_batch([2.0, 100.0], [0.0, np.nan])
        batch.alive[1] = False
        assert training_loss(batch, 0.0, beta=0.5, weight_decay=0.0) == pytest.approx(4.0)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.0, 1.0), st.lists(st.floats(-3, 3, allow_nan=False),
                                         min_size=2, max_size=5))
    def test_matches_direct_formula(self, beta, targets):
        y_star = np.array(targets)
        y_term = y_star * 0.5
        batch = self.make_batch(y_star, y_term)
        expect = np.mean(beta * (y_star - y_term) ** 2 + (1 - beta) * y_star**2)
        got = training_loss(batch, 0.0, beta=beta, weight_decay=0.0)
        assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)
