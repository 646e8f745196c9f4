"""Importance-sampled forward-backward SDE rollouts.

Forward state process (Euler-Maruyama, unit-normal increments dw):

    x_{n+1} = x_n + f(x_n) dt + Sigma ((Gamma_u u*_n + v*_n) dt + dw_n sqrt(dt))

Backward value process, compensated for the drift change so the propagated
value stays consistent with the unmodified PDE:

    y_{n+1} = y_n + (-h_n + z_n' (Gamma_u u*_n + v*_n)) dt + z_n' dw_n sqrt(dt)

with the feedback controls

    u*_n = -R_u^{-1} Gamma_u' z_n          (minimizer)
    v*_n = z_n / epsilon                   (adversary, training only)

and the generator

    h = q(x) - 0.5 z' (Gamma_u R_u^{-1} Gamma_u' - I/epsilon) z.

The baseline (risk-neutral) mode drops the 1/epsilon terms and hard-zeroes
the adversary; it is the epsilon -> infinity limit of the min-max mode.

Everything is written against the dual-mode expression helpers: with a tape
the whole rollout, including the drift, is differentiable end to end; without
one it runs as plain vectorized numpy. Samples live in columns, so one tape
carries the entire batch. Per time step the tape records 12 nodes on the
pendulum and the quadcopter (13 on ``lq``, whose linear drift is a constant
matrix times x): one each for the running cost and the drift (``column_map``
nodes, see ``systems``), one fused ``fbsde_step`` for both updates above plus two
row slices that take x' and y' out of it, and for the value-gradient predictor
two fused LSTM cells with two row slices each and one ``affine`` read-out.
The controls are recorded from values only; ``fbsde_step`` derives its own
from z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from . import autodiff as ad
from . import neural
from .autodiff import Tape, Var
from .systems import CostSpec, SystemModel

# domain separation for the counter-based noise streams
PURPOSE_TRAIN = 0
PURPOSE_EVAL = 1
PURPOSE_CONSISTENCY = 2


@dataclass(frozen=True)
class HorizonGrid:
    """Uniform time grid on [start, end] with ``steps`` Euler steps."""

    start: float
    end: float
    steps: int
    dt: float = field(init=False)

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"steps must be nonnegative, got {self.steps}")
        if self.end < self.start:
            raise ValueError(f"end {self.end} precedes start {self.start}")
        if self.steps == 0:
            if self.end != self.start:
                raise ValueError("a zero-step grid must have end == start")
            object.__setattr__(self, "dt", 0.0)
        else:
            object.__setattr__(self, "dt", (self.end - self.start) / self.steps)

    def times(self) -> np.ndarray:
        return self.start + self.dt * np.arange(self.steps + 1)


def noise_block(seed: int, purpose: int, iteration: int, sample: int, steps: int, m: int) -> np.ndarray:
    """Unit-normal increments for one sample, (steps, m).

    Counter-based: the block is a pure function of (seed, purpose,
    iteration, sample), so any sample's draws can be regenerated in
    isolation and are independent of batch layout or worker count.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(purpose, iteration, sample))
    gen = np.random.Generator(np.random.Philox(ss))
    return gen.standard_normal((steps, m))


def sample_noise(seed: int, purpose: int, iteration: int, batch: int, steps: int, m: int) -> np.ndarray:
    """Stacked increments for a batch, (steps, m, batch); column i is sample i."""
    out = np.empty((steps, m, batch))
    for i in range(batch):
        out[:, :, i] = noise_block(seed, purpose, iteration, i, steps, m)
    return out


# ---------------------------------------------------------------------------
# single-vector step operations


def minimizing_control(z, gain):
    """u* = gain @ z with gain = -R_u^{-1} Gamma_u' precomputed."""
    return ad.matmul(gain, z)


def adversary_control(z, inv_epsilon: float):
    """v* = z / epsilon."""
    return ad.smul(z, inv_epsilon)


def optimal_controls(z, gamma_u, r_u, epsilon: float):
    """Feedback controls (u*, v*) for a single value-gradient vector z (m,)."""
    import scipy.linalg

    z = np.asarray(z, dtype=np.float64).reshape(-1, 1)
    gamma_u = np.atleast_2d(np.asarray(gamma_u, dtype=np.float64))
    r_u = np.atleast_2d(np.asarray(r_u, dtype=np.float64))
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    chol = scipy.linalg.cho_factor(r_u)
    gain = -scipy.linalg.cho_solve(chol, gamma_u.T)
    u = minimizing_control(z, gain)
    v = adversary_control(z, 1.0 / epsilon)
    return np.asarray(u).ravel(), np.asarray(v).ravel()


def h_quadratic(costs: CostSpec, gamma_u: np.ndarray, inv_epsilon: float) -> np.ndarray:
    """S = Gamma_u R_u^{-1} Gamma_u' - inv_epsilon * I, the generator's quadratic form."""
    m = gamma_u.shape[0]
    return gamma_u @ costs.solve_r(gamma_u.T) - inv_epsilon * np.eye(m)


def h_drift(x, z, costs: CostSpec, gamma_u, t: float = 0.0, mode: str = "minmax") -> float:
    """Generator h at a single state: q(x) - 0.5 z' S z."""
    z = np.asarray(z, dtype=np.float64).reshape(-1, 1)
    gamma_u = np.atleast_2d(np.asarray(gamma_u, dtype=np.float64))
    inv_eps = 1.0 / costs.epsilon if mode == "minmax" else 0.0
    s_mat = h_quadratic(costs, gamma_u, inv_eps)
    return costs.running_cost(x, t) - 0.5 * float((z.T @ s_mat @ z)[0, 0])


def fsde_step(x, u, v, dw, sys: SystemModel, grid: HorizonGrid, t: float | None = None):
    """One Euler step of the modified forward SDE, single state vector."""
    x = np.asarray(x, dtype=np.float64).reshape(-1, 1)
    u = np.asarray(u, dtype=np.float64).reshape(-1, 1)
    v = np.asarray(v, dtype=np.float64).reshape(-1, 1)
    dw = np.asarray(dw, dtype=np.float64).reshape(-1, 1)
    t = grid.start if t is None else t
    f = sys.drift(x, t)
    k = sys.gamma_u @ u + v
    nxt = x + f * grid.dt + sys.sigma @ (k * grid.dt + dw * math.sqrt(grid.dt))
    return np.asarray(nxt).ravel()


def bsde_step(y: float, z, h: float, u, v, gamma_u, dw, grid: HorizonGrid) -> float:
    """One Euler step of the compensated backward SDE, scalar value."""
    z = np.asarray(z, dtype=np.float64).reshape(-1, 1)
    u = np.asarray(u, dtype=np.float64).reshape(-1, 1)
    v = np.asarray(v, dtype=np.float64).reshape(-1, 1)
    dw = np.asarray(dw, dtype=np.float64).reshape(-1, 1)
    gamma_u = np.atleast_2d(np.asarray(gamma_u, dtype=np.float64))
    k = gamma_u @ u + v
    drift = -float(h) + float((z.T @ k)[0, 0])
    return float(y) + drift * grid.dt + float((z.T @ dw)[0, 0]) * math.sqrt(grid.dt)


# ---------------------------------------------------------------------------
# batched rollout


@dataclass
class TapeHandles:
    """Live tape nodes a training step needs after the rollout."""

    tape: Tape
    y_terminal: Var
    y_star: Var
    x_terminal: Var


@dataclass
class RolloutBatch:
    """Recorded trajectories; the sample index is always the last axis."""

    states: np.ndarray  # (N+1, n, M)
    values: np.ndarray  # (N+1, 1, M)
    z_grads: np.ndarray  # (N+1, m, M)
    controls: np.ndarray  # (N, p, M)
    adversary_controls: np.ndarray  # (N, m, M)
    noise: np.ndarray  # (N, m, M)
    terminal_targets: np.ndarray  # (1, M), g(x_N)
    alive: np.ndarray  # (M,) bool
    mode: str
    seed: int
    handles: TapeHandles | None = field(default=None, repr=False, compare=False)

    @property
    def batch_size(self) -> int:
        return self.states.shape[2]

    @property
    def diverged(self) -> int:
        return int(np.sum(~self.alive))

    def trajectory(self, i: int) -> np.ndarray:
        """States of sample i as (N+1, n)."""
        return self.states[:, :, i]


def _value_of(x) -> np.ndarray:
    return x.value if isinstance(x, Var) else np.asarray(x)


def _broadcast_cols(vec, batch: int, tape: Tape | None):
    """(k, 1) -> (k, M) via an explicit ones row; dual-mode."""
    if isinstance(vec, Var):
        ones = vec.tape.constant(np.ones((1, batch)))
        return ad.matmul(vec, ones)
    arr = np.asarray(vec, dtype=np.float64).reshape(-1, 1)
    out = arr @ np.ones((1, batch))
    return tape.constant(out) if tape is not None else out


def _rollout_core(
    net: neural.NetParams | None,
    y0,
    z0,
    sys: SystemModel,
    costs: CostSpec,
    grid: HorizonGrid,
    noise: np.ndarray,
    mode: str,
    adversary: bool,
    tape: Tape | None,
    z_fn: Callable | None,
):
    """Roll one column chunk. Returns (record dict, handles or None).

    Columns are independent throughout (every cross-entry contraction runs
    over rows only), so a sample that goes non-finite cannot contaminate its
    neighbours; it is flagged in ``alive`` and its tail records are garbage.
    """
    n_steps = grid.steps
    batch = noise.shape[2]
    dt = grid.dt
    sqdt = math.sqrt(dt) if dt > 0 else 0.0
    inv_eps = (1.0 / costs.epsilon) if mode == "minmax" else 0.0

    gain = -costs.solve_r(sys.gamma_u.T)  # (p, m)
    s_mat = h_quadratic(costs, sys.gamma_u, inv_eps)
    sigma = sys.sigma
    gamma_u = sys.gamma_u

    x0 = np.repeat(sys.x0.reshape(-1, 1), batch, axis=1)
    if tape is not None:
        x_cur = tape.constant(x0)
    else:
        x_cur = x0
    y_cur = _broadcast_cols(y0, batch, tape)
    z_cur = _broadcast_cols(z0, batch, tape)

    states = np.empty((n_steps + 1, sys.n, batch))
    values = np.empty((n_steps + 1, 1, batch))
    z_grads = np.empty((n_steps + 1, sys.m, batch))
    controls = np.empty((n_steps, sys.p, batch))
    adv_controls = np.zeros((n_steps, sys.m, batch))
    alive = np.ones(batch, dtype=bool)

    states[0] = _value_of(x_cur)
    values[0] = _value_of(y_cur)
    z_grads[0] = _value_of(z_cur)

    lstm_state = None
    adv_scale = inv_eps if adversary else None
    with np.errstate(all="ignore"):
        for step in range(n_steps):
            t_now = grid.start + step * dt
            z_vals = _value_of(z_cur)
            controls[step] = minimizing_control(z_vals, gain)
            if adversary:
                adv_controls[step] = adversary_control(z_vals, inv_eps)

            q_run = costs.running_expr(x_cur, t_now)
            f_drift = sys.drift(x_cur, t_now)
            consts = ad.StepConstants(
                noise[step], gamma_u, gain, s_mat, sigma, dt, sqdt, adv_scale
            )
            xy = ad.fbsde_step(x_cur, y_cur, z_cur, f_drift, q_run, consts)
            x_cur = ad.rows(xy, 0, sys.n)
            y_cur = ad.rows(xy, sys.n, sys.n + 1)

            x_vals = _value_of(x_cur)
            alive &= np.all(np.isfinite(x_vals), axis=0)

            if z_fn is not None:
                z_cur = z_fn(x_vals, step + 1)
                if tape is not None:
                    z_cur = tape.constant(z_cur)
            else:
                z_cur, lstm_state = neural.lstm_stack_forward(net, x_cur, lstm_state)

            states[step + 1] = x_vals
            values[step + 1] = _value_of(y_cur)
            z_grads[step + 1] = _value_of(z_cur)

        y_star = costs.terminal_expr(x_cur)

    record = {
        "states": states,
        "values": values,
        "z_grads": z_grads,
        "controls": controls,
        "adversary_controls": adv_controls,
        "terminal_targets": _value_of(y_star).reshape(1, batch),
        "alive": alive,
    }
    handles = None
    if tape is not None:
        handles = TapeHandles(tape=tape, y_terminal=y_cur, y_star=y_star, x_terminal=x_cur)
    return record, handles


def rollout_batch(
    params,
    sys: SystemModel,
    costs: CostSpec,
    grid: HorizonGrid,
    batch_size: int,
    seed: int,
    *,
    mode: str = "minmax",
    adversary: bool | None = None,
    iteration: int = 0,
    purpose: int = PURPOSE_TRAIN,
    tape: Tape | None = None,
    noise: np.ndarray | None = None,
    z_fn: Callable | None = None,
    y0=None,
    z0=None,
    workers: int = 1,
) -> RolloutBatch:
    """Simulate a batch of coupled forward/backward trajectories.

    ``params`` needs attributes ``net`` (NetParams), ``y0`` (1, 1) and ``z0``
    (m, 1); during training those hold tape Vars. With ``tape`` set the whole
    batch is recorded on it and ``.handles`` exposes the terminal nodes; the
    tape path always runs as a single chunk. ``z_fn(x_values, step) -> (m, M)``
    substitutes an external value-gradient predictor (tape-free only).

    Noise defaults to the counter-based stream indexed by
    (seed, purpose, iteration, sample, step); pass ``noise`` explicitly to
    couple grids or force specific increments.
    """
    if mode not in ("minmax", "baseline"):
        raise ValueError(f"mode must be 'minmax' or 'baseline', got {mode!r}")
    if adversary is None:
        adversary = mode == "minmax"
    if mode == "baseline":
        adversary = False
    if z_fn is not None and tape is not None:
        raise ValueError("an injected value-gradient predictor runs tape-free only")

    if noise is None:
        noise = sample_noise(seed, purpose, iteration, batch_size, grid.steps, sys.m)
    else:
        noise = np.asarray(noise, dtype=np.float64)
        if noise.shape != (grid.steps, sys.m, batch_size):
            raise ValueError(
                f"noise must have shape {(grid.steps, sys.m, batch_size)}, got {noise.shape}"
            )

    net = params.net if params is not None else None
    y0 = params.y0 if y0 is None else y0
    z0 = params.z0 if z0 is None else z0

    if tape is not None or workers <= 1 or batch_size <= 1:
        record, handles = _rollout_core(
            net, y0, z0, sys, costs, grid, noise, mode, adversary, tape, z_fn
        )
    else:
        from concurrent.futures import ThreadPoolExecutor

        n_chunks = min(workers, batch_size)
        bounds = np.linspace(0, batch_size, n_chunks + 1).astype(int)
        spans = [(bounds[i], bounds[i + 1]) for i in range(n_chunks) if bounds[i] < bounds[i + 1]]

        def run(span):
            lo, hi = span
            return _rollout_core(
                net, y0, z0, sys, costs, grid, noise[:, :, lo:hi], mode, adversary, None, z_fn
            )[0]

        with ThreadPoolExecutor(max_workers=len(spans)) as pool:
            parts = list(pool.map(run, spans))
        record = {
            key: np.concatenate([p[key] for p in parts], axis=-1)
            for key in parts[0]
        }
        handles = None

    return RolloutBatch(
        states=record["states"],
        values=record["values"],
        z_grads=record["z_grads"],
        controls=record["controls"],
        adversary_controls=record["adversary_controls"],
        noise=noise,
        terminal_targets=record["terminal_targets"],
        alive=record["alive"],
        mode=mode,
        seed=seed,
        handles=handles,
    )


# ---------------------------------------------------------------------------
# training loss


def training_loss_expr(y_star, y_terminal, theta_vars, beta: float, weight_decay: float, batch: int):
    """Taped loss: beta-weighted terminal mismatch, terminal-cost pressure,
    and parameter decay over the network weights only."""
    resid = ad.sumsq(ad.sub(y_star, y_terminal))
    pressure = ad.sumsq(y_star)
    loss = ad.add(ad.smul(resid, beta / batch), ad.smul(pressure, (1.0 - beta) / batch))
    if weight_decay > 0 and theta_vars:
        reg = ad.sumsq(theta_vars[0])
        for w in theta_vars[1:]:
            reg = ad.add(reg, ad.sumsq(w))
        loss = ad.add(loss, ad.smul(reg, weight_decay))
    return loss


def training_loss(batch: RolloutBatch, theta_norm_sq: float, beta: float, weight_decay: float) -> float:
    """Loss recomputed from recorded values (live columns only)."""
    alive = batch.alive
    m_valid = int(np.sum(alive))
    if m_valid == 0:
        raise ValueError("no live samples in batch")
    y_star = batch.terminal_targets[0, alive]
    y_term = batch.values[-1, 0, alive]
    resid = float(np.sum((y_star - y_term) ** 2))
    pressure = float(np.sum(y_star**2))
    return (beta * resid + (1.0 - beta) * pressure) / m_valid + weight_decay * float(theta_norm_sq)
