"""References that the batched solver is tested against.

The single-vector functions spell out one piece of the FBSDE scheme for a
single sample, written from its definition rather than from the batched
kernels: the per-sample noise stream that ``fbsde.sample_noise`` must
reproduce bit for bit, the feedback controls, the generator h, and one Euler
step of the forward and of the backward equation. ``feedback_controls``
derives the controls u* and v* of a whole rollout from its recorded value
gradients, since ``fbsde.RolloutBatch`` keeps only z: the rollout folds the
controls into each step's constants (``autodiff.fold_step``). The ops ``mul``,
``total``, ``matmul``, ``rows``, ``sigmoid``, ``tanh``, ``sin``, ``cos`` and
``concat_rows`` are what the tests compose the fused kernels from and
scalarize with, taped or tape-free; the solver's tape has no such
primitives.

``taped_gradients`` is the gradient oracle of a training step. It writes the
rollout and the loss out step by step on one ``autodiff.Tape``, from the
fused primitives, ``rows`` and the loss head, never through
``fbsde.rollout_batch``, and ``Tape.backward`` differentiates it; the
training adjoint (``fbsde.rollout_adjoint``) must agree with it.
"""

import functools
import math
from types import SimpleNamespace

import numpy as np

from minmax_fbsde import autodiff as ad
from minmax_fbsde import fbsde
from minmax_fbsde.autodiff import Tape
from minmax_fbsde.fbsde import HorizonGrid, h_quadratic
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


def minimizing_control(z, gain, out=None):
    """u* = gain @ z (into ``out``) with gain = -R_u^{-1} Gamma_u' precomputed."""
    return np.matmul(gain, z, out=out)


def adversary_control(z, inv_epsilon: float, out=None):
    """v* = z / epsilon (into ``out``)."""
    return np.multiply(z, float(inv_epsilon), out=out)


def feedback_controls(z_grads, sys: SystemModel, costs: CostSpec, mode: str = "minmax",
                      adversary: bool | None = None):
    """The controls of a rollout's N steps, u* (N, p, M) and v* (N, m, M),
    from its recorded value gradients z_grads (N+1, m, M). ``mode`` and
    ``adversary`` are the rollout's, with ``rollout_batch``'s defaults: v*
    is zero unless the adversary acts."""
    adversary = mode == "minmax" and adversary is not False
    z = z_grads[:-1]
    gain = -costs.solve_r(sys.gamma_u.T)
    u = np.empty((len(z), gain.shape[0], z.shape[2]))
    v = np.zeros_like(z)
    for k, z_k in enumerate(z):
        minimizing_control(z_k, gain, u[k])
        if adversary:
            adversary_control(z_k, 1.0 / costs.epsilon, v[k])
    return u, v


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


MUL = ad._binary("element-multiply", np.multiply, lambda g, vals, _: (g * vals[1], g * vals[0]))
SUM = ad.Primitive("sum", lambda vals, _: (np.sum(vals[0]).reshape(1, 1), None),
                   lambda g, vals, _: (np.full(vals[0].shape, g[0, 0]),))


def mul(a, b):
    """a * b entry by entry; the shapes must match."""
    return ad.call(MUL, (a, b))


def total(x):
    """Sum of all entries, as a (1, 1) matrix."""
    return ad.call(SUM, (x,))


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


_affine = ad.affine  # the primitive, also where a test swaps ``ad.affine`` for a composition


def matmul(a, b):
    """a @ b as one ``affine`` with a zero bias, which adds nothing."""
    return _affine(a, b, np.zeros((a.shape[0], 1)))


def rows(x, lo, hi):
    """Rows [lo, hi) of x as one ``column_map``, whose product puts the
    cotangent back in those rows."""
    def forward(a):
        if not 0 <= lo < hi <= a.shape[0]:
            raise ad.ShapeError(f"rows: bounds [{lo}, {hi}) invalid for {a.shape}")
        return a[lo:hi], a.shape[0]

    def vjp(g, a, height):
        full = np.zeros((height, g.shape[1]))
        full[lo:hi] = g
        return full

    return ad.column_map(x, forward, vjp)


def concat_rows(parts):
    """The parts stacked by rows, as a sum of 0/1 placement products; exact
    for finite inputs."""
    ends = np.cumsum([0] + [part.shape[0] for part in parts])
    pieces = [matmul(placement(hi - lo, lo, ends[-1]).T, part)
              for part, lo, hi in zip(parts, ends, ends[1:])]
    return functools.reduce(ad.add, pieces)


def lstm_stack(weights, x, state):
    """The value-gradient predictor on a tape: both LSTM cells, each
    [h'; c'] split by ``rows``, then the read-out. ``weights`` are the eight
    arrays in ``NetParams.arrays()`` order and ``state`` is
    ((h1, c1), (h2, c2)). Returns (z, new state)."""
    *cells, w_out, b_out = weights
    new_state = []
    for (w, u, b), (h, c) in zip((cells[:3], cells[3:]), state):
        hid = u.shape[1]
        cell = ad.lstm_cell(w, u, b, x, h, c)
        x = rows(cell, 0, hid)
        new_state.append((x, rows(cell, hid, 2 * hid)))
    return ad.affine(w_out, x, b_out), tuple(new_state)


def taped_gradients(store, sys: SystemModel, costs: CostSpec, grid: HorizonGrid,
                    noise: np.ndarray, mode: str = "minmax", adversary: bool | None = None):
    """A training step's loss and gradients, from one tape.

    The step is the one ``training.training_step`` takes on the noise block
    (steps, m, M): y0 and z0 broadcast to every column, then per step the
    running cost, the drift and ``fbsde_step`` with x' and y' split off by
    ``rows``, and the predictor's z_{k+1}, and the training loss on g(x_N)
    and y_N. Returns (record, loss, gradients by parameter name). ``record``
    holds the tape and, as ``fbsde.RolloutBatch`` lays them out, the states,
    values, z_grads, controls, adversary controls and terminal targets read
    off the node values.
    """
    adversary = mode == "minmax" and adversary is not False
    steps, m, cols = noise.shape
    tape = Tape()
    leaves = {name: tape.leaf(arr) for name, arr in store.named_parameters()}
    *weights, y0, z0 = leaves.values()
    inv_eps = 1.0 / costs.epsilon if mode == "minmax" else 0.0
    gain = -costs.solve_r(sys.gamma_u.T)
    fold = ad.fold_step(sys.gamma_u, gain, h_quadratic(costs, sys.gamma_u, inv_eps), sys.sigma,
                        grid.dt, inv_eps if adversary else None)

    ones = np.ones((1, cols))
    x = tape.leaf(np.repeat(sys.x0.reshape(-1, 1), cols, axis=1))
    y = ad.affine(np.zeros((1, 1)), ones, y0)  # 0 1' + y0 1'
    z = ad.affine(np.zeros((m, 1)), ones, z0)
    state = tuple((np.zeros((u.shape[1], cols)),) * 2 for u in (weights[1], weights[4]))  # U1, U2
    record = SimpleNamespace(tape=tape, states=[x.value], values=[y.value], z_grads=[z.value],
                             controls=[], adversary_controls=[])
    for k in range(steps):
        record.controls.append(minimizing_control(z.value, gain))
        record.adversary_controls.append(
            adversary_control(z.value, inv_eps) if adversary else np.zeros((m, cols)))
        xy = ad.fbsde_step(x, y, z, sys.drift(x), costs.running_expr(x), fold, noise[k])
        x, y = rows(xy, 0, sys.n), rows(xy, sys.n, sys.n + 1)
        z, state = lstm_stack(weights, x, state)
        record.states.append(x.value)
        record.values.append(y.value)
        record.z_grads.append(z.value)
    y_star = costs.terminal_expr(x)
    for key in ("states", "values", "z_grads", "controls", "adversary_controls"):
        setattr(record, key, np.array(getattr(record, key)))
    record.terminal_targets = y_star.value
    loss = fbsde.training_loss_expr(y_star, y, weights, costs.beta, costs.weight_decay, cols)
    grads = tape.backward(loss, list(leaves.values()))
    return record, float(loss.value[0, 0]), dict(zip(leaves, grads))
