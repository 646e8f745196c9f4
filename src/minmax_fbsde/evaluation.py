"""Evaluation: tape-free rollouts of a trained controller, dispersion and
success metrics, the epsilon sweep, and the closed-form linear-quadratic
oracle used to validate the solver end to end.

At test time the adversary is switched off; the code path for the
adversarial control is simply never invoked (not merely given a zero
multiplier), which a structural test can verify by stubbing it out.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import fbsde
from .fbsde import HorizonGrid, RolloutBatch
from .systems import CostSpec, SystemModel, wrap_angle
from .training import ParamStore

EVAL_SCHEMA = "minmax-fbsde.eval-report.v1"
TRAJECTORY_SCHEMA = "minmax-fbsde.trajectories.v1"
SWEEP_SCHEMA = "minmax-fbsde.sweep.v1"


def terminal_success(terminal: np.ndarray, sys: SystemModel) -> np.ndarray:
    """(M,) bool: which columns of the (n, M) terminal states are finite and
    land in the per-dimension tolerance box around the target (angle
    dimensions compared on the circle)."""
    terminal = np.asarray(terminal, dtype=np.float64)
    ok = np.all(np.isfinite(terminal), axis=0)
    dev = terminal[:, ok] - sys.target.reshape(-1, 1)
    for j in sys.angle_dims:
        dev[j] = wrap_angle(dev[j])
    ok[ok] = np.all(np.abs(dev) <= sys.success_tol.reshape(-1, 1), axis=0)
    return ok


def task_success(trajectory: np.ndarray, sys: SystemModel) -> bool:
    """``terminal_success`` of one trajectory's last state; (steps, n) input."""
    terminal = np.asarray(trajectory, dtype=np.float64)[-1]
    return bool(terminal_success(terminal.reshape(-1, 1), sys)[0])


def total_state_variance(trajectories: np.ndarray) -> float:
    """Sum over time steps and state dimensions of the unbiased sample
    variance across trajectories. Input is (M, steps, n) with M >= 2."""
    arr = np.asarray(trajectories, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"expected (M, steps, n) trajectories, got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise ValueError("variance needs at least two trajectories")
    return float(np.sum(np.var(arr, axis=0, ddof=1)))


@dataclass
class EvalReport:
    """Dispersion, cost and success statistics for one evaluated condition."""

    mode: str
    adversary: bool
    batch_size: int
    seed: int
    diverged: int
    success_rate: float
    total_state_variance: float
    mean_terminal_cost: float
    std_terminal_cost: float
    mean_value_gap: float
    y0: float
    times: np.ndarray
    state_mean: np.ndarray  # (N+1, n)
    state_std: np.ndarray  # (N+1, n)
    state_labels: tuple[str, ...]
    noise_scale: float
    epsilon: float
    success_tolerance: tuple[float, ...] = ()

    def to_dict(self) -> dict:
        return {
            "schema": EVAL_SCHEMA,
            "mode": self.mode,
            "adversary": self.adversary,
            "batch_size": self.batch_size,
            "seed": self.seed,
            "diverged": self.diverged,
            "success_rate": self.success_rate,
            "total_state_variance": self.total_state_variance,
            "mean_terminal_cost": self.mean_terminal_cost,
            "std_terminal_cost": self.std_terminal_cost,
            "mean_value_gap": self.mean_value_gap,
            "y0": self.y0,
            "noise_scale": self.noise_scale,
            "epsilon": self.epsilon,
            "success_tolerance": list(self.success_tolerance),
            "state_labels": list(self.state_labels),
        }

    def to_json(self) -> str:
        """``to_dict`` as the text of ``eval_report.json``."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def trajectory_csv(self, condition: str = "default") -> str:
        """Per-step mean, std and 95% bands for every state, long format."""
        lines = [
            f"# schema {TRAJECTORY_SCHEMA}",
            "condition,step,time,state,label,mean,std,lo95,hi95",
        ]
        for step, t in enumerate(self.times):
            for j, label in enumerate(self.state_labels):
                mu = float(self.state_mean[step, j])
                sd = float(self.state_std[step, j])
                lines.append(
                    f"{condition},{step},{float(t)!r},{j},{label},{mu!r},{sd!r},"
                    f"{mu - 1.96 * sd!r},{mu + 1.96 * sd!r}"
                )
        return "\n".join(lines) + "\n"


def evaluate(
    store: ParamStore,
    sys: SystemModel,
    costs: CostSpec,
    grid: HorizonGrid,
    batch_size: int,
    seed: int,
    mode: str = "minmax",
    adversary: bool = False,
    workers: int = 1,
    noise: np.ndarray | None = None,
) -> EvalReport:
    """Roll out the trained feedback controller tape-free and summarize.

    Diverged samples are excluded from every statistic and reported in
    ``diverged``. With ``adversary`` False (the default, and always for
    baseline mode) the adversarial control is structurally absent.
    ``workers`` accepts only 1: the whole batch is one vectorized rollout.
    """
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers!r}: the batch runs serially")
    if batch_size < 2:
        raise ValueError("evaluation needs at least two trajectories")
    batch = fbsde.rollout_batch(
        store, sys, costs, grid, batch_size, seed,
        mode=mode, adversary=adversary, purpose=fbsde.PURPOSE_EVAL,
        noise=noise,
    )
    return summarize(batch, sys, costs, grid, mode=mode, adversary=adversary, seed=seed)


def summarize(
    batch: RolloutBatch,
    sys: SystemModel,
    costs: CostSpec,
    grid: HorizonGrid,
    mode: str,
    adversary: bool,
    seed: int,
) -> EvalReport:
    alive = batch.alive
    m_valid = int(np.count_nonzero(alive))
    if m_valid < 2:
        raise ValueError(f"only {m_valid} live trajectories; cannot summarize")
    y_star = batch.terminal_targets[0, alive]
    y_term = batch.values[-1, 0, alive]
    successes = int(np.count_nonzero(terminal_success(batch.states[-1][:, alive], sys)))
    # live states, sample-major (Mv, N+1, n), summed over samples in turn; this one copy is
    # the variance's scratch, and the results are np.mean, np.var and np.std (ddof=1) to the bit
    live = np.moveaxis(batch.states, 2, 0)[alive]
    state_mean = np.add.reduce(live, axis=0) / m_valid
    live -= state_mean
    state_var = np.add.reduce(np.square(live, out=live), axis=0) / (m_valid - 1)

    return EvalReport(
        mode=mode,
        adversary=adversary,
        batch_size=batch.batch_size,
        seed=seed,
        diverged=batch.diverged,
        success_rate=successes / m_valid,
        total_state_variance=float(np.sum(state_var)),
        mean_terminal_cost=float(np.mean(y_star)),
        std_terminal_cost=float(np.std(y_star, ddof=1)),
        mean_value_gap=float(np.mean(np.abs(y_term - y_star))),
        y0=float(batch.values[0, 0, 0]),
        times=grid.times(),
        state_mean=state_mean,
        state_std=np.sqrt(state_var),
        state_labels=sys.state_labels,
        noise_scale=float(sys.params.get("noise_scale", float("nan"))),
        epsilon=costs.epsilon,
        success_tolerance=tuple(float(t) for t in np.ravel(sys.success_tol)),
    )


def variance_reduction(baseline: EvalReport, candidate: EvalReport) -> dict:
    """Comparison row: how much dispersion the candidate removes."""
    base = baseline.total_state_variance
    cand = candidate.total_state_variance
    return {
        "baseline_variance": base,
        "candidate_variance": cand,
        "variance_reduction_pct": 100.0 * (1.0 - cand / base) if base > 0 else 0.0,
        "baseline_terminal_cost": baseline.mean_terminal_cost,
        "candidate_terminal_cost": candidate.mean_terminal_cost,
    }


# ---------------------------------------------------------------------------
# linear-quadratic oracle


@dataclass
class LqBenchmark:
    """Finite-horizon linear-quadratic problem with additive noise.

    dynamics dx = (A x + B u) dt + Sigma dw, cost
    0.5 x' Q x running, 0.5 x' Qf x terminal, 0.5 u' R u control price.
    """

    a_mat: np.ndarray
    b_mat: np.ndarray
    sigma: np.ndarray
    q_mat: np.ndarray
    qf_mat: np.ndarray
    r_mat: np.ndarray
    x0: np.ndarray

    def __post_init__(self):
        for name in ("a_mat", "b_mat", "sigma", "q_mat", "qf_mat", "r_mat"):
            setattr(self, name, np.atleast_2d(np.asarray(getattr(self, name), np.float64)))
        self.x0 = np.asarray(self.x0, dtype=np.float64).ravel()

    @property
    def n(self) -> int:
        return self.a_mat.shape[0]


def lq_benchmark(setup) -> LqBenchmark:
    """The linear-quadratic problem an ``lq`` runtime setup trains on.

    A is the system's drift matrix, B its actuation Sigma Gamma_u, Q and Qf
    the diagonal cost weights, R the control price and x0 the start state.
    """
    sys, costs = setup.system, setup.costs
    if "drift_matrix" not in sys.params:
        raise ValueError(f"system {sys.name!r} has no linear drift; the oracle needs 'lq'")
    return LqBenchmark(
        a_mat=sys.params["drift_matrix"],
        b_mat=sys.actuation,
        sigma=sys.sigma,
        q_mat=np.diag(costs.running_weights),
        qf_mat=np.diag(costs.terminal_weights),
        r_mat=costs.r_u,
        x0=sys.x0,
    )


class RiccatiBlowUp(RuntimeError):
    pass


@dataclass
class RiccatiSolution:
    """Backward Riccati pass sampled on the rollout grid.

    V(x, t_k) = 0.5 x' P_k x + c_k;  value gradient P_k x;  the diffusion
    adds cost through c'(t) = -0.5 tr(P Sigma Sigma').
    """

    grid: HorizonGrid
    p_mats: np.ndarray  # (N+1, n, n)
    c_offs: np.ndarray  # (N+1,)
    bench: LqBenchmark

    def value(self, x, k: int) -> float:
        x = np.asarray(x, dtype=np.float64).ravel()
        return 0.5 * float(x @ self.p_mats[k] @ x) + float(self.c_offs[k])

    def gradient(self, x, k: int) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64).ravel()
        return self.p_mats[k] @ x

    def z_of(self, x_cols: np.ndarray, k: int) -> np.ndarray:
        """Sigma' Vx for a column batch (n, M) -> (m, M)."""
        return self.bench.sigma.T @ (self.p_mats[k] @ x_cols)


def riccati_oracle(bench: LqBenchmark, grid: HorizonGrid, inv_epsilon: float = 0.0, refine: int = 10) -> RiccatiSolution:
    """Integrate the matrix Riccati equation backward from the terminal
    weight with fixed-step RK4 at dt/refine.

    P' = -(A'P + P A + Q - P S P),  S = B R^{-1} B' - inv_epsilon Sigma Sigma'
    c' = -0.5 tr(P Sigma Sigma'),   P(T) = Qf, c(T) = 0.
    """
    a, b, q = bench.a_mat, bench.b_mat, bench.q_mat
    sig2 = bench.sigma @ bench.sigma.T
    s_mat = b @ np.linalg.solve(bench.r_mat, b.T) - inv_epsilon * sig2

    def rhs(p):
        dp = -(a.T @ p + p @ a + q - p @ s_mat @ p)
        dc = -0.5 * float(np.trace(p @ sig2))
        return dp, dc

    n_grid = grid.steps
    p_mats = np.empty((n_grid + 1, bench.n, bench.n))
    c_offs = np.empty(n_grid + 1)
    p_cur = bench.qf_mat.copy()
    c_cur = 0.0
    p_mats[n_grid] = p_cur
    c_offs[n_grid] = c_cur
    hstep = -grid.dt / refine  # backward in time
    for k in range(n_grid, 0, -1):
        for _ in range(refine):
            k1p, k1c = rhs(p_cur)
            k2p, k2c = rhs(p_cur + 0.5 * hstep * k1p)
            k3p, k3c = rhs(p_cur + 0.5 * hstep * k2p)
            k4p, k4c = rhs(p_cur + hstep * k3p)
            p_cur = p_cur + (hstep / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
            c_cur = c_cur + (hstep / 6.0) * (k1c + 2 * k2c + 2 * k3c + k4c)
            if not np.all(np.isfinite(p_cur)) or abs(c_cur) > 1e12 or np.max(np.abs(p_cur)) > 1e12:
                raise RiccatiBlowUp(
                    f"Riccati integration blew up near t={grid.start + (k - 1) * grid.dt:.4f}"
                )
        p_cur = 0.5 * (p_cur + p_cur.T)
        p_mats[k - 1] = p_cur
        c_offs[k - 1] = c_cur
    return RiccatiSolution(grid=grid, p_mats=p_mats, c_offs=c_offs, bench=bench)


def bsde_consistency_gaps(
    setup,
    dts: Sequence[float] = (0.04, 0.02, 0.01),
    samples: int = 256,
    seed: int = 7,
    mode: str = "baseline",
) -> list[tuple[float, float]]:
    """Mean |y_N - g(x_N)| when the exact value gradient drives the rollout.

    The system, the costs (epsilon included) and the horizon come from the
    ``lq`` runtime ``setup``, the value gradient from its Riccati oracle
    (``lq_benchmark`` raises ValueError for any other system). The same
    Brownian paths drive every grid (coarse increments are sums of fine
    ones), so the gaps isolate pure time-discretization error; they must
    shrink as dt does.
    """
    bench = lq_benchmark(setup)
    sys, costs = setup.system, setup.costs
    start, horizon = setup.grid.start, setup.grid.end - setup.grid.start
    dts = sorted(set(float(d) for d in dts), reverse=True)
    finest = dts[-1]
    steps_fine = int(round(horizon / finest))
    if not math.isclose(steps_fine * finest, horizon, rel_tol=1e-9):
        raise ValueError("horizon must be an integer multiple of the finest dt")
    inv_eps = 1.0 / costs.epsilon if mode == "minmax" else 0.0

    fine = fbsde.sample_noise(seed, fbsde.PURPOSE_CONSISTENCY, 0, samples, steps_fine, sys.m)

    out = []
    for dt in dts:
        group = int(round(dt / finest))
        if not math.isclose(group * finest, dt, rel_tol=1e-9):
            raise ValueError(f"dt {dt} is not a multiple of the finest dt {finest}")
        steps = steps_fine // group
        # unit normals add as dw_coarse = sum(dw_fine) / sqrt(group)
        coarse = fine[: steps * group].reshape(steps, group, sys.m, samples).sum(axis=1)
        coarse /= math.sqrt(group)
        grid = HorizonGrid(start, start + horizon, steps)
        ric = riccati_oracle(bench, grid, inv_epsilon=inv_eps)
        batch = fbsde.rollout_batch(
            None, sys, costs, grid, samples, seed,
            mode=mode, noise=coarse,
            z_fn=lambda xv, k: ric.z_of(xv, k),
            y0=np.array([[ric.value(bench.x0, 0)]]),
            z0=ric.z_of(bench.x0.reshape(-1, 1), 0),
        )
        alive = batch.alive
        gap = float(np.mean(np.abs(batch.values[-1, 0, alive] - batch.terminal_targets[0, alive])))
        out.append((dt, gap))
    return out


# ---------------------------------------------------------------------------
# epsilon sweep


def sweep_to_csv(rows: list[dict]) -> str:
    cols = [
        "epsilon", "mode", "status", "success_rate",
        "total_state_variance", "mean_terminal_cost", "checkpoint",
    ]
    lines = [f"# schema {SWEEP_SCHEMA}", ",".join(cols)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(c)) for c in cols))
    return "\n".join(lines) + "\n"


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def epsilon_sweep(config, epsilons: Iterable[float], out_dir: str) -> list[dict]:
    """Train and evaluate one controller per adversary temperature, plus the
    risk-neutral baseline, reusing a cached checkpoint only where
    ``training.train_or_load`` finds it trained by the same code and settings.

    Each condition's ``eval_report.json`` goes next to its checkpoint, and
    each min-max row carries ``variance_reduction_pct`` against the baseline
    (None when either side has no report). ``variance_reduction.json`` next
    to ``sweep.csv`` holds the whole ``variance_reduction`` comparison of
    each min-max condition, keyed by its label (null where the row has
    none). Failed trainings become rows with status ``failed`` and the sweep
    moves on. A run counts as successful when its success rate clears the
    sweep threshold. Each row's ``checkpoint`` is relative to ``out_dir``, so
    the table does not depend on where the sweep
    directory lives.
    """
    from . import config as config_mod
    from . import training

    rows = []
    baseline = None
    reductions = {}
    eps_values = [float(e) for e in epsilons]
    if any(e <= 0 for e in eps_values):
        raise ValueError("every sweep epsilon must be positive")
    jobs = [("minmax", e) for e in eps_values]
    if jobs:
        jobs.insert(0, ("baseline", None))
    for mode, eps in jobs:
        label = "baseline" if eps is None else f"eps_{eps:g}"
        job_cfg = config_mod.override(config, mode=mode, epsilon=eps)
        setup = config_mod.build_runtime(job_cfg)
        row = {
            "epsilon": eps,
            "mode": mode,
            "status": "ok",
            "success_rate": None,
            "total_state_variance": None,
            "mean_terminal_cost": None,
            "checkpoint": os.path.join(label, "checkpoint.ckpt"),
        }
        if mode == "minmax":
            row["variance_reduction_pct"] = None
            reductions[label] = None
        try:
            store, _ = training.train_or_load(setup, os.path.join(out_dir, label))
            report = evaluate(
                store, setup.system, setup.costs, setup.grid,
                setup.eval_batch, setup.eval_seed, mode=mode, adversary=False,
            )
            with open(os.path.join(out_dir, label, "eval_report.json"), "w") as fh:
                fh.write(report.to_json())
            if mode == "baseline":
                baseline = report
            elif baseline is not None:
                reductions[label] = variance_reduction(baseline, report)
                row["variance_reduction_pct"] = reductions[label]["variance_reduction_pct"]
            row["success_rate"] = report.success_rate
            row["total_state_variance"] = report.total_state_variance
            row["mean_terminal_cost"] = report.mean_terminal_cost
            if report.success_rate < config.sweep.success_threshold:
                row["status"] = "failed"
        except Exception as exc:  # noqa: BLE001 - sweep must keep going
            row["status"] = "failed"
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "sweep.csv"), "w") as fh:
        fh.write(sweep_to_csv(rows))
    with open(os.path.join(out_dir, "variance_reduction.json"), "w") as fh:
        fh.write(json.dumps(reductions, indent=2, sort_keys=True) + "\n")
    return rows
