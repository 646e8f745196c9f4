"""Single-vector references that the batched solver is tested against.

Each function spells out one piece of the FBSDE scheme for a single sample,
written from its definition rather than from the batched kernels: the
per-sample noise stream that ``fbsde.sample_noise`` must reproduce bit for
bit, the feedback controls, the generator h, and one Euler step of the
forward and of the backward equation.
"""

import math

import numpy as np

from minmax_fbsde.fbsde import HorizonGrid, adversary_control, h_quadratic, minimizing_control
from minmax_fbsde.systems import CostSpec, SystemModel


def noise_block(seed: int, purpose: int, iteration: int, sample: int, steps: int, m: int) -> np.ndarray:
    """Unit-normal increments for one sample, (steps, m).

    Counter-based: the block is a pure function of (seed, purpose,
    iteration, sample), so any sample's draws can be regenerated in
    isolation and are independent of the batch size and column order.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(purpose, iteration, sample))
    gen = np.random.Generator(np.random.Philox(ss))
    return gen.standard_normal((steps, m))


def optimal_controls(z, gamma_u, r_u, epsilon: float):
    """Feedback controls (u*, v*) for a single value-gradient vector z (m,).

    Raises ``LinAlgError`` unless R_u is positive definite.
    """
    z = np.asarray(z, dtype=np.float64).reshape(-1, 1)
    gamma_u = np.atleast_2d(np.asarray(gamma_u, dtype=np.float64))
    r_u = np.atleast_2d(np.asarray(r_u, dtype=np.float64))
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    np.linalg.cholesky(r_u)
    gain = -np.linalg.solve(r_u, gamma_u.T)
    u = minimizing_control(z, gain)
    v = adversary_control(z, 1.0 / epsilon)
    return np.asarray(u).ravel(), np.asarray(v).ravel()


def h_drift(x, z, costs: CostSpec, gamma_u, mode: str = "minmax") -> float:
    """Generator h at a single state: q(x) - 0.5 z' S z."""
    z = np.asarray(z, dtype=np.float64).reshape(-1, 1)
    gamma_u = np.atleast_2d(np.asarray(gamma_u, dtype=np.float64))
    inv_eps = 1.0 / costs.epsilon if mode == "minmax" else 0.0
    s_mat = h_quadratic(costs, gamma_u, inv_eps)
    q = costs.running_expr(np.asarray(x, dtype=np.float64).reshape(-1, 1))[0, 0]
    return float(q) - 0.5 * float((z.T @ s_mat @ z)[0, 0])


def fsde_step(x, u, v, dw, sys: SystemModel, grid: HorizonGrid):
    """One Euler step of the modified forward SDE, single state vector."""
    x = np.asarray(x, dtype=np.float64).reshape(-1, 1)
    u = np.asarray(u, dtype=np.float64).reshape(-1, 1)
    v = np.asarray(v, dtype=np.float64).reshape(-1, 1)
    dw = np.asarray(dw, dtype=np.float64).reshape(-1, 1)
    f = sys.drift(x)
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
