import dataclasses
import json
import math
import os

import numpy as np
import pytest

from minmax_fbsde.config import build_runtime, default_config, override
from minmax_fbsde.evaluation import (
    EVAL_SCHEMA,
    LqBenchmark,
    RiccatiBlowUp,
    bsde_consistency_gaps,
    epsilon_sweep,
    evaluate,
    lq_benchmark,
    riccati_oracle,
    summarize,
    sweep_to_csv,
    task_success,
    terminal_success,
    total_state_variance,
    variance_reduction,
)
from minmax_fbsde.fbsde import HorizonGrid, rollout_batch, sample_noise
from minmax_fbsde.systems import CostSpec, pendulum, quadcopter, wrap_angle
from minmax_fbsde.training import TrainConfig, init_store, load_checkpoint


def pendulum_setup(steps=5, batch=8):
    sys = pendulum(noise="low")
    costs = CostSpec(
        running_weights=[1.0, 0.1], terminal_weights=[100.0, 10.0],
        target=sys.target, r_u=[[0.1]], epsilon=1.0, beta=0.8,
        weight_decay=1e-4, angle_dims=sys.angle_dims,
    )
    grid = HorizonGrid(0.0, steps * 0.02, steps)
    cfg = TrainConfig(iterations=1, batch_size=batch, grid=grid, seed=0, hidden_size=4)
    return sys, costs, grid, init_store(sys, cfg)


def lq_setup(**tops):
    """The default ``lq`` runtime; keywords replace top-level config keys."""
    return build_runtime(override(default_config("lq"), **tops))


class TestTaskSuccess:
    def test_inside_box(self):
        sys = pendulum()
        traj = np.array([[0.0, 0.0], [np.pi - 0.19, 0.5]])
        assert task_success(traj, sys)

    def test_angle_outside_box(self):
        sys = pendulum()
        traj = np.array([[0.0, 0.0], [np.pi - 0.5, 0.0]])
        assert not task_success(traj, sys)

    def test_rate_outside_box(self):
        sys = pendulum()
        traj = np.array([[0.0, 0.0], [np.pi, 1.5]])
        assert not task_success(traj, sys)

    def test_exactly_on_target(self):
        sys = pendulum()
        assert task_success(np.array([[0.0, 0.0], [np.pi, 0.0]]), sys)

    def test_angle_judged_on_circle(self):
        sys = pendulum()
        traj = np.array([[0.0, 0.0], [np.pi + 2 * np.pi - 0.1, 0.0]])
        assert task_success(traj, sys)
        traj = np.array([[0.0, 0.0], [-np.pi + 0.05, 0.0]])
        assert task_success(traj, sys)

    def test_nonfinite_terminal_fails(self):
        sys = pendulum()
        assert not task_success(np.array([[0.0, 0.0], [np.nan, 0.0]]), sys)

    def test_only_terminal_state_matters(self):
        sys = pendulum()
        traj = np.array([[99.0, 99.0], [np.pi, 0.0]])
        assert task_success(traj, sys)


def task_success_oracle(terminal, sys):
    """The per-trajectory check spelled out state by state."""
    if not np.all(np.isfinite(terminal)):
        return False
    dev = terminal - sys.target
    for j in sys.angle_dims:
        dev[j] = wrap_angle(dev[j])
    return bool(np.all(np.abs(dev) <= sys.success_tol))


def terminal_states(sys, cols, seed):
    """(n, cols) terminal states around the target: about half inside the
    box, angle rows shifted by whole and half turns beyond +-pi, some
    columns exactly on the tolerance boundary and some non-finite."""
    rng = np.random.default_rng(seed)
    tol = np.where(np.isfinite(sys.success_tol), sys.success_tol, 10.0)
    dev = rng.uniform(-1.3, 1.3, size=(sys.n, cols)) * tol.reshape(-1, 1)
    for j in sys.angle_dims:
        dev[j] += 2 * np.pi * rng.integers(-3, 4, size=cols)
        dev[j, ::11] += np.pi
    x = sys.target.reshape(-1, 1) + dev
    zero_target = [j for j in range(sys.n) if sys.target[j] == 0.0 and np.isfinite(sys.success_tol[j])]
    for j in zero_target:
        x[j, 1::7] = sys.success_tol[j]
        x[j, 2::7] = -sys.success_tol[j]
        x[j, 3::7] = np.nextafter(sys.success_tol[j], np.inf)
    x[0, 4::13] = np.nan
    x[-1, 5::17] = np.inf
    x[1, 6::19] = -np.inf
    return x


class TestTerminalSuccess:
    @pytest.mark.parametrize("system", [pendulum, quadcopter])
    def test_columns_agree_with_per_trajectory_check(self, system):
        sys = system()
        x = terminal_states(sys, 400, seed=3)
        mask = terminal_success(x, sys)
        assert mask.shape == (400,) and mask.dtype == bool
        want = [task_success_oracle(x[:, i].copy(), sys) for i in range(400)]
        assert mask.tolist() == want
        assert mask.tolist() == [task_success(x[:, i].reshape(1, -1), sys) for i in range(400)]
        assert 50 < sum(want) < 350  # both outcomes well represented
        assert not mask[4::13].any()

    def test_boundary_is_inside(self):
        sys = pendulum()
        x = np.array([[np.pi, np.pi, np.pi], [1.0, -1.0, np.nextafter(1.0, 2.0)]])
        assert terminal_success(x, sys).tolist() == [True, True, False]

    def test_input_left_unchanged(self):
        sys = quadcopter()
        x = terminal_states(sys, 50, seed=4)
        before = x.copy()
        terminal_success(x, sys)
        np.testing.assert_array_equal(x, before)

    def test_summarize_counts_live_columns(self):
        sys, costs, grid, store = pendulum_setup(batch=64)
        batch = rollout_batch(store, sys, costs, grid, 64, 5, mode="minmax", adversary=False)
        batch.states[-1] = terminal_states(sys, 64, seed=5)
        batch.alive &= np.all(np.isfinite(batch.states[-1]), axis=0)
        report = summarize(batch, sys, costs, grid, "minmax", False, 5)
        live = np.flatnonzero(batch.alive)
        hits = sum(task_success_oracle(batch.states[-1, :, i].copy(), sys) for i in live)
        assert report.success_rate == hits / live.size
        assert 0 < hits < live.size


class TestVariance:
    def test_hand_value(self):
        trajs = np.array([0.0, 2.0]).reshape(2, 1, 1)
        assert total_state_variance(trajs) == pytest.approx(2.0)

    def test_sums_over_steps_and_dims(self):
        rng = np.random.default_rng(0)
        trajs = rng.normal(size=(6, 4, 3))
        total = sum(
            total_state_variance(trajs[:, [s], [d]].reshape(6, 1, 1))
            for s in range(4) for d in range(3)
        )
        assert total_state_variance(trajs) == pytest.approx(total)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        trajs = rng.normal(size=(5, 3, 2))
        shuffled = trajs[[3, 1, 4, 0, 2]]
        assert total_state_variance(shuffled) == pytest.approx(
            total_state_variance(trajs))

    def test_identical_trajectories_zero(self):
        trajs = np.ones((4, 3, 2))
        assert total_state_variance(trajs) == 0.0

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="two"):
            total_state_variance(np.ones((1, 3, 2)))

    def test_needs_three_axes(self):
        with pytest.raises(ValueError, match="shape"):
            total_state_variance(np.ones((4, 3)))


class TestEvaluate:
    def test_report_fields(self):
        sys, costs, grid, store = pendulum_setup()
        report = evaluate(store, sys, costs, grid, 8, 1234, mode="minmax")
        assert report.batch_size == 8
        assert report.seed == 1234
        assert 0.0 <= report.success_rate <= 1.0
        assert report.total_state_variance > 0
        assert math.isfinite(report.mean_terminal_cost)
        assert report.state_mean.shape == (grid.steps + 1, sys.n)
        assert report.state_std.shape == (grid.steps + 1, sys.n)
        assert report.y0 == pytest.approx(float(store.y0[0, 0]))
        assert report.noise_scale == pytest.approx(0.1)
        assert report.epsilon == 1.0
        d = report.to_dict()
        assert d["schema"] == EVAL_SCHEMA
        assert d["success_tolerance"] == [0.2, 1.0]

    def test_deterministic(self):
        sys, costs, grid, store = pendulum_setup()
        a = evaluate(store, sys, costs, grid, 8, 1234)
        b = evaluate(store, sys, costs, grid, 8, 1234)
        assert a.to_dict() == b.to_dict()
        assert a.trajectory_csv() == b.trajectory_csv()

    def test_batch_too_small(self):
        sys, costs, grid, store = pendulum_setup()
        with pytest.raises(ValueError, match="two"):
            evaluate(store, sys, costs, grid, 1, 0)

    def test_diverged_samples_excluded(self):
        sys, costs, grid, store = pendulum_setup()
        noise = sample_noise(0, 1, 0, 8, grid.steps, sys.m)
        noise[1, :, 2] = np.nan
        batch = rollout_batch(store, sys, costs, grid, 8, 0, mode="minmax",
                              adversary=False, noise=noise)
        report = summarize(batch, sys, costs, grid, mode="minmax",
                           adversary=False, seed=0)
        assert report.diverged == 1
        assert math.isfinite(report.total_state_variance)
        assert math.isfinite(report.mean_terminal_cost)

    def test_all_statistics_from_live_columns_only(self):
        sys, costs, grid, store = pendulum_setup()
        clean = sample_noise(0, 1, 0, 7, grid.steps, sys.m)
        noise = np.concatenate([clean, np.full((grid.steps, sys.m, 1), np.nan)], axis=2)
        poisoned = rollout_batch(store, sys, costs, grid, 8, 0, mode="minmax",
                                 adversary=False, noise=noise)
        clean_batch = rollout_batch(store, sys, costs, grid, 7, 0, mode="minmax",
                                    adversary=False, noise=clean)
        a = summarize(poisoned, sys, costs, grid, "minmax", False, 0)
        b = summarize(clean_batch, sys, costs, grid, "minmax", False, 0)
        assert a.total_state_variance == pytest.approx(b.total_state_variance)
        assert a.mean_terminal_cost == pytest.approx(b.mean_terminal_cost)
        assert a.success_rate == b.success_rate

    @pytest.mark.parametrize("dead", [[], [2, 9]])
    def test_summary_matches_the_per_statistic_passes(self, dead):
        # the reference copies the live columns and takes the total variance,
        # the mean and np.std in separate passes; the report and its bands
        # must come out byte for byte the same
        sys, costs, grid, store = pendulum_setup(steps=6)
        noise = sample_noise(5, 1, 0, 40, grid.steps, sys.m)
        noise[3, :, dead] = np.nan
        batch = rollout_batch(store, sys, costs, grid, 40, 5, mode="minmax",
                              adversary=False, noise=noise)
        assert batch.diverged == len(dead)
        report = summarize(batch, sys, costs, grid, "minmax", False, 5)
        states = batch.states[:, :, batch.alive]
        expected = dataclasses.replace(
            report,
            total_state_variance=total_state_variance(np.moveaxis(states, 2, 0)),
            state_mean=np.mean(states, axis=2).copy(),
            state_std=np.std(states, axis=2, ddof=1),
        )
        assert report.to_json() == expected.to_json()
        assert report.trajectory_csv() == expected.trajectory_csv()
        assert np.array_equal(report.state_std, expected.state_std)

    def test_trajectory_csv_layout(self):
        sys, costs, grid, store = pendulum_setup(steps=3)
        report = evaluate(store, sys, costs, grid, 4, 0)
        lines = report.trajectory_csv("risk_sensitive").splitlines()
        assert lines[0] == "# schema minmax-fbsde.trajectories.v1"
        assert lines[1] == "condition,step,time,state,label,mean,std,lo95,hi95"
        assert len(lines) == 2 + (grid.steps + 1) * sys.n
        first = lines[2].split(",")
        assert first[0] == "risk_sensitive"
        mu, sd, lo, hi = map(float, (first[5], first[6], first[7], first[8]))
        assert lo == pytest.approx(mu - 1.96 * sd)
        assert hi == pytest.approx(mu + 1.96 * sd)

    def test_variance_reduction_row(self):
        sys, costs, grid, store = pendulum_setup()
        base = evaluate(store, sys, costs, grid, 8, 1234)
        cand = evaluate(store, sys, costs, grid, 8, 1234)
        object.__setattr__ if False else setattr(cand, "total_state_variance",
                                                 base.total_state_variance / 2)
        row = variance_reduction(base, cand)
        assert row["variance_reduction_pct"] == pytest.approx(50.0)
        assert row["baseline_variance"] == pytest.approx(base.total_state_variance)


class TestRiccati:
    def test_terminal_condition(self):
        bench = lq_benchmark(lq_setup())
        grid = HorizonGrid(0.0, 1.0, 20)
        ric = riccati_oracle(bench, grid)
        np.testing.assert_allclose(ric.p_mats[-1], bench.qf_mat, atol=1e-14)
        assert ric.c_offs[-1] == 0.0

    def test_scalar_closed_form(self):
        # P' = -(1 - P^2), P(1) = 0 has the solution P(t) = tanh(1 - t)
        bench = LqBenchmark(a_mat=[[0.0]], b_mat=[[1.0]], sigma=[[0.0]],
                            q_mat=[[1.0]], qf_mat=[[0.0]], r_mat=[[1.0]], x0=[1.0])
        grid = HorizonGrid(0.0, 1.0, 50)
        ric = riccati_oracle(bench, grid, refine=20)
        for k, t in enumerate(grid.times()):
            assert ric.p_mats[k][0, 0] == pytest.approx(math.tanh(1.0 - t), abs=1e-10)

    def test_stationary_point_is_preserved(self):
        # with A + A' + Q - P S P = 0 at P = I the solution stays at I
        a = np.array([[-1.0, 0.5], [0.5, -1.0]])
        q = np.eye(2) - a - a.T
        bench = LqBenchmark(a_mat=a, b_mat=np.eye(2), sigma=np.zeros((2, 2)),
                            q_mat=q, qf_mat=np.eye(2), r_mat=np.eye(2), x0=[1.0, 0.0])
        ric = riccati_oracle(bench, HorizonGrid(0.0, 2.0, 40))
        for k in range(41):
            np.testing.assert_allclose(ric.p_mats[k], np.eye(2), atol=1e-12)
        np.testing.assert_allclose(ric.c_offs, 0.0, atol=1e-14)

    def test_path_stays_symmetric_psd(self):
        bench = lq_benchmark(lq_setup())
        ric = riccati_oracle(bench, HorizonGrid(0.0, 1.0, 50))
        for p in ric.p_mats:
            np.testing.assert_allclose(p, p.T, atol=1e-12)
            assert np.min(np.linalg.eigvalsh(p)) > 0

    def test_noise_feeds_offset(self):
        # c' = -0.5 tr(P Sigma Sigma') < 0 backward, so c(0) > 0 with noise
        bench = lq_benchmark(lq_setup(noise=0.5))
        ric = riccati_oracle(bench, HorizonGrid(0.0, 1.0, 50))
        assert ric.c_offs[0] > 0
        quiet = lq_benchmark(lq_setup(noise=0.0))
        ric0 = riccati_oracle(quiet, HorizonGrid(0.0, 1.0, 50))
        np.testing.assert_allclose(ric0.c_offs, 0.0, atol=1e-14)

    def test_refinement_converges(self):
        bench = lq_benchmark(lq_setup())
        grid = HorizonGrid(0.0, 1.0, 10)
        ref = riccati_oracle(bench, grid, refine=80)
        err5 = np.max(np.abs(riccati_oracle(bench, grid, refine=5).p_mats - ref.p_mats))
        err10 = np.max(np.abs(riccati_oracle(bench, grid, refine=10).p_mats - ref.p_mats))
        assert err10 < err5 / 8  # fourth-order integrator
        assert err10 < 1e-7

    def test_adversary_raises_value(self):
        # a live adversary makes the game dearer: P_rs - P_rn is PSD
        bench = lq_benchmark(lq_setup())
        grid = HorizonGrid(0.0, 1.0, 20)
        rn = riccati_oracle(bench, grid, inv_epsilon=0.0)
        rs = riccati_oracle(bench, grid, inv_epsilon=10.0)
        gap = rs.p_mats[0] - rn.p_mats[0]
        assert np.min(np.linalg.eigvalsh(gap)) > -1e-12

    def test_ill_posed_temperature_blows_up(self):
        # below epsilon = r sigma^2 the quadratic form loses definiteness
        bench = lq_benchmark(lq_setup(noise=0.2))
        grid = HorizonGrid(0.0, 1.0, 50)
        with pytest.raises(RiccatiBlowUp):
            riccati_oracle(bench, grid, inv_epsilon=1000.0)

    def test_value_and_gradient_agree(self):
        bench = lq_benchmark(lq_setup())
        ric = riccati_oracle(bench, HorizonGrid(0.0, 1.0, 10))
        x = np.array([0.7, -0.3])
        assert ric.value(x, 2) == pytest.approx(
            0.5 * x @ ric.p_mats[2] @ x + ric.c_offs[2])
        np.testing.assert_allclose(ric.gradient(x, 2), ric.p_mats[2] @ x)
        cols = np.column_stack([x, 2 * x])
        np.testing.assert_allclose(
            ric.z_of(cols, 2), bench.sigma.T @ ric.p_mats[2] @ cols)


class TestLqBenchmarkFromSetup:
    def test_reads_the_runtime(self):
        cfg = override(default_config("lq"), noise=0.5)
        cfg.cost.running_weights = [2.0, 0.3]
        cfg.cost.control_weight = 4.0
        setup = build_runtime(cfg)
        bench = lq_benchmark(setup)
        np.testing.assert_array_equal(bench.sigma, [[0.0], [0.5]])
        np.testing.assert_array_equal(bench.q_mat, np.diag([2.0, 0.3]))
        np.testing.assert_array_equal(bench.r_mat, [[4.0]])
        x = np.array([[0.3, -1.0], [2.0, 0.5]])
        np.testing.assert_array_equal(setup.system.drift(x), bench.a_mat @ x)

    def test_nonlinear_system_rejected(self):
        with pytest.raises(ValueError, match="lq"):
            lq_benchmark(build_runtime(default_config("pendulum")))


class TestConsistencyGaps:
    def test_gaps_shrink_with_dt(self):
        gaps = bsde_consistency_gaps(lq_setup(), samples=64)
        assert [dt for dt, _ in gaps] == [0.04, 0.02, 0.01]
        values = [g for _, g in gaps]
        assert values[0] > values[1] > values[2]

    def test_minmax_mode_also_consistent(self):
        cfg = default_config("lq")
        cfg.cost.epsilon = 2.0
        gaps = bsde_consistency_gaps(build_runtime(cfg), samples=32, mode="minmax")
        values = [g for _, g in gaps]
        assert values[0] > values[1] > values[2]

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError, match="multiple"):
            bsde_consistency_gaps(lq_setup(), dts=(0.025, 0.01), samples=4)

    def test_non_lq_setup_rejected(self):
        with pytest.raises(ValueError, match="lq"):
            bsde_consistency_gaps(build_runtime(default_config("pendulum")), samples=4)


class TestSweep:
    def test_csv_layout(self):
        rows = [
            {"epsilon": None, "mode": "baseline", "status": "ok",
             "success_rate": 1.0, "total_state_variance": 0.5,
             "mean_terminal_cost": 2.0, "checkpoint": "a.ckpt"},
            {"epsilon": 0.05, "mode": "minmax", "status": "failed",
             "success_rate": 0.0, "total_state_variance": None,
             "mean_terminal_cost": None, "checkpoint": "b.ckpt"},
        ]
        lines = sweep_to_csv(rows).splitlines()
        assert lines[0] == "# schema minmax-fbsde.sweep.v1"
        assert lines[1].startswith("epsilon,mode,status")
        assert lines[2] == ",baseline,ok,1.0,0.5,2.0,a.ckpt"
        assert lines[3] == "0.05,minmax,failed,0.0,,,b.ckpt"

    def test_empty_rows(self):
        lines = sweep_to_csv([]).splitlines()
        assert len(lines) == 2

    def test_rejects_nonpositive_epsilon(self, tmp_path):
        cfg = default_config("lq")
        with pytest.raises(ValueError, match="positive"):
            epsilon_sweep(cfg, [0.5, -1.0], str(tmp_path))

    def test_micro_sweep_end_to_end(self, tmp_path):
        cfg = default_config("lq")
        cfg = override(cfg, out=str(tmp_path))
        cfg.train.iterations = 3
        cfg.train.batch_size = 4
        cfg.train.steps = 5
        cfg.train.horizon = 0.1
        cfg.eval.batch_size = 8
        cfg.sweep.success_threshold = 0.0
        rows = epsilon_sweep(cfg, [0.5], str(tmp_path))
        assert [r["mode"] for r in rows] == ["baseline", "minmax"]
        assert rows[0]["epsilon"] is None
        assert rows[1]["epsilon"] == 0.5
        assert all(r["status"] == "ok" for r in rows)
        assert (tmp_path / "sweep.csv").exists()
        assert (tmp_path / "baseline" / "checkpoint.ckpt").exists()
        assert (tmp_path / "eps_0.5" / "checkpoint.ckpt").exists()

        # second pass reuses the cached checkpoints and reproduces the rows
        before = (tmp_path / "eps_0.5" / "checkpoint.ckpt").read_bytes()
        again = epsilon_sweep(cfg, [0.5], str(tmp_path))
        assert again == rows
        assert (tmp_path / "eps_0.5" / "checkpoint.ckpt").read_bytes() == before

    def test_reports_next_to_checkpoints(self, tmp_path):
        cfg = default_config("lq")
        cfg.train.iterations = 2
        cfg.train.batch_size = 4
        cfg.train.steps = 5
        cfg.train.horizon = 0.1
        cfg.eval.batch_size = 8
        rows = epsilon_sweep(cfg, [0.5], str(tmp_path))
        reports = {}
        for label, mode, eps in (("baseline", "baseline", None), ("eps_0.5", "minmax", 0.5)):
            setup = build_runtime(override(cfg, mode=mode, epsilon=eps))
            store, _ = load_checkpoint(str(tmp_path / label / "checkpoint.ckpt"))
            reports[mode] = evaluate(store, setup.system, setup.costs, setup.grid,
                                     setup.eval_batch, setup.eval_seed, mode=mode)
            written = json.loads((tmp_path / label / "eval_report.json").read_text())
            assert written == reports[mode].to_dict()
        assert "variance_reduction_pct" not in rows[0]
        comparison = variance_reduction(reports["baseline"], reports["minmax"])
        assert rows[1]["variance_reduction_pct"] == comparison["variance_reduction_pct"]
        # the whole comparison is on disk next to the table, which is unchanged
        written = json.loads((tmp_path / "variance_reduction.json").read_text())
        assert written == {"eps_0.5": comparison}
        assert (tmp_path / "sweep.csv").read_text() == sweep_to_csv(rows)
        assert "variance_reduction_pct" not in (tmp_path / "sweep.csv").read_text()

    def test_checkpoint_paths_relative_to_sweep_dir(self, tmp_path):
        cfg = default_config("lq")
        cfg.train.iterations = 2
        cfg.train.batch_size = 4
        cfg.train.steps = 5
        cfg.train.horizon = 0.1
        cfg.eval.batch_size = 8
        out = tmp_path / "sweep"
        rows = epsilon_sweep(cfg, [0.5], str(out))
        assert [r["checkpoint"] for r in rows] == [
            os.path.join("baseline", "checkpoint.ckpt"),
            os.path.join("eps_0.5", "checkpoint.ckpt"),
        ]
        for row in rows:
            assert (out / row["checkpoint"]).exists()
        assert str(tmp_path) not in (out / "sweep.csv").read_text()
