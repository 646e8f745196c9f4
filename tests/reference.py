"""References that the batched solver is tested against.

The single-vector functions spell out one piece of the FBSDE scheme for a
single sample, written from its definition rather than from the batched
kernels: the per-sample noise stream that ``fbsde.sample_noise`` must
reproduce bit for bit, the feedback controls, the generator h, and one Euler
step of the forward and of the backward equation. The element-wise ops
(``sigmoid``, ``tanh``, ``sin``, ``cos``, ``concat_rows``) are what the tests
compose the fused kernels from, taped or tape-free; the solver's tape has no
such primitives.
"""

import functools
import math

import numpy as np

from minmax_fbsde import autodiff as ad
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


def _elementwise(fn, slope):
    """An element-wise op as one ``column_map``, whose product multiplies the
    cotangent by the derivative ``slope(x, value)``."""
    def forward(x):
        value = fn(x)
        return value, value

    return lambda x: ad.column_map(x, forward, lambda g, x, value: g * slope(x, value))


def _logistic(a):
    """0.5 tanh(a / 2) + 0.5, in the LSTM kernel's operation order."""
    half = np.tanh(np.multiply(a, 0.5))
    half *= 0.5
    half += 0.5
    return half


sigmoid = _elementwise(_logistic, lambda x, s: s * (1.0 - s))
tanh = _elementwise(np.tanh, lambda x, t: 1.0 - t * t)
sin = _elementwise(np.sin, lambda x, _: np.cos(x))
cos = _elementwise(np.cos, lambda x, _: -np.sin(x))


def placement(rows, offset, width):
    """0/1 matrix that puts ``rows`` columns at ``offset`` of a ``width``-column block."""
    place = np.zeros((rows, width))
    place[np.arange(rows), offset + np.arange(rows)] = 1.0
    return place


def concat_rows(parts):
    """The parts stacked by rows, as a sum of 0/1 placement products; exact
    for finite inputs."""
    ends = np.cumsum([0] + [part.shape[0] for part in parts])
    pieces = [ad.matmul(placement(hi - lo, lo, ends[-1]).T, part)
              for part, lo, hi in zip(parts, ends, ends[1:])]
    return functools.reduce(ad.add, pieces)
