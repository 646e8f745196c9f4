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

A rollout folds a step's constants once (``autodiff.fold_step``): with
Gamma_u u* + v* = K z, Q = (K + S / 2) dt and G = dt Sigma K (S the
quadratic form of h), a step is w = Q z + dw sqrt(dt), y' = y - q dt + z'w
and x' = x + f dt + G z + Sigma dw sqrt(dt): the updates above, to rounding.

Everything is written against the dual-mode expression helpers; samples
live in columns. Without a tape the rollout runs as plain vectorized numpy,
and that is how training runs it too: inside ``autodiff.saving`` it logs what
each fused kernel saved, and ``rollout_adjoint`` then backpropagates through
time from the cotangents of the terminal state and value. Training tapes only
the loss head.

A tape-free rollout packs each LSTM layer's weights once
(``neural.pack_net``): [W U b] as one array whose sigmoid rows are halved,
since sigma(a) = 0.5 tanh(a / 2) + 0.5 and halving is exact. Each cell is one
GEMM over the block [x; h; 1] and one tanh over all gate rows, and keeps no
copy of its block: the adjoint rebuilds each step's in one reused array and
forms that step's share of the [W U b] gradient with one GEMM.

With a tape, the whole rollout is recorded instead; that path is the gradient
oracle the adjoint is tested and audited against (``gradcheck``). Per time
step it records 12 nodes on every system: one each for the running cost and
the drift (``column_map`` nodes, see ``systems``), one fused ``fbsde_step``
for both updates above plus two row slices that take x' and y' out of it,
and for the value-gradient predictor two fused LSTM cells with two row slices
each and one ``affine`` read-out. The controls are recorded from values
only; ``fbsde_step`` derives its own from z.

The increments dw are counter-based: sample i of a batch draws from a Philox
stream keyed by ``SeedSequence(seed, spawn_key=(purpose, iteration, i))``
(``noise_block``). ``sample_noise`` derives the keys of the whole batch in one
vectorized pass and re-keys a single generator per sample, bit for bit the
same draws as ``noise_block`` column by column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

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
    isolation and are independent of the batch size and column order.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(purpose, iteration, sample))
    gen = np.random.Generator(np.random.Philox(ss))
    return gen.standard_normal((steps, m))


# NumPy's SeedSequence constants: hashmix, mix, and generate_state
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _uint32_words(value: int) -> int:
    return max(1, -(-int(value).bit_length() // 32))


def _sample_keys(seed: int, purpose: int, iteration: int, batch: int) -> np.ndarray:
    """Philox keys of ``SeedSequence(seed, spawn_key=(purpose, iteration, i))``
    for i < batch, (batch, 2) uint64, computed for all i at once.

    Sample i's entropy is the parent's, ``spawn_key=(purpose, iteration)``,
    plus the one word i. So its pool is the parent's pool with i hashed into
    every word, the hash constant continuing after the parent's
    ``pool_size * words`` hashmix calls, and its key is
    ``generate_state(2, uint64)`` of that pool. uint32 arrays wrap
    silently, so the arithmetic below is NumPy's to the bit.
    """
    parent = np.random.SeedSequence(int(seed), spawn_key=(purpose, iteration))
    size = parent.pool_size
    words = max(size, _uint32_words(seed)) + _uint32_words(purpose) + _uint32_words(iteration)
    hash_a = _HASH_INIT_A * pow(_HASH_MULT_A, size * words, 1 << 32) & _MASK32
    hash_b = _HASH_INIT_B
    sample = np.arange(batch, dtype=np.uint32)
    shift = np.uint32(16)
    state = np.empty((batch, size), dtype=np.uint32)
    for d in range(size):
        hashed = sample ^ np.uint32(hash_a)
        hash_a = hash_a * _HASH_MULT_A & _MASK32
        hashed *= np.uint32(hash_a)
        hashed ^= hashed >> shift
        word = np.uint32(_MIX_MULT_L * int(parent.pool[d]) & _MASK32) - np.uint32(_MIX_MULT_R) * hashed
        word ^= word >> shift
        word ^= np.uint32(hash_b)
        hash_b = hash_b * _HASH_MULT_B & _MASK32
        word *= np.uint32(hash_b)
        word ^= word >> shift
        state[:, d] = word
    return state.astype("<u4").view("<u8").astype(np.uint64)


def sample_noise(seed: int, purpose: int, iteration: int, batch: int, steps: int, m: int) -> np.ndarray:
    """Stacked increments for a batch, (steps, m, batch); column i is sample i.

    Bit-identical to ``noise_block`` column by column, which stays the
    definition: the keys of all samples come from ``_sample_keys`` in one
    pass, and one Philox generator is re-keyed per sample.
    """
    keys = _sample_keys(seed, purpose, iteration, batch)
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    counter = np.zeros(4, dtype=np.uint64)
    out = np.empty((batch, steps, m))
    for i in range(batch):
        state["state"] = {"counter": counter, "key": keys[i]}
        bitgen.state = state
        gen.standard_normal(out=out[i])
    return np.ascontiguousarray(out.transpose(1, 2, 0))


# ---------------------------------------------------------------------------
# single-vector step operations


def minimizing_control(z, gain, out=None):
    """u* = gain @ z (into ``out``) with gain = -R_u^{-1} Gamma_u' precomputed."""
    return np.matmul(gain, z, out=out)


def adversary_control(z, inv_epsilon: float, out=None):
    """v* = z / epsilon (into ``out``)."""
    return np.multiply(z, float(inv_epsilon), out=out)


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
) -> RolloutBatch:
    """Simulate a batch of coupled forward/backward trajectories.

    ``params`` needs attributes ``net`` (NetParams), ``y0`` (1, 1) and ``z0``
    (m, 1); they hold tape Vars when ``tape`` is set, and then the whole batch
    is recorded on it and ``.handles`` exposes the terminal nodes (the taped
    gradient oracle). Training runs it tape-free inside ``autodiff.saving``
    and differentiates it with ``rollout_adjoint``. Tape-free, the network's
    weights are packed once at the start (``neural.pack_net``), so they must
    not change during the call.
    ``z_fn(x_values, step) -> (m, M)`` substitutes an external value-gradient
    predictor (tape-free only).

    Noise defaults to the counter-based stream indexed by
    (seed, purpose, iteration, sample, step); pass ``noise`` explicitly to
    couple grids or force specific increments.

    Samples sit in columns and stay independent throughout (every
    cross-entry contraction runs over rows only), so a sample that goes
    non-finite cannot contaminate its neighbours; it is flagged in ``alive``
    and its tail records are garbage.
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

    n_steps = grid.steps
    batch = noise.shape[2]
    net = params.net if params is not None else None
    if net is not None and tape is None:
        net = neural.pack_net(net, batch)  # once per rollout, never per cell
    y0 = params.y0 if y0 is None else y0
    z0 = params.z0 if z0 is None else z0
    dt = grid.dt
    sqdt = math.sqrt(dt) if dt > 0 else 0.0
    inv_eps = (1.0 / costs.epsilon) if mode == "minmax" else 0.0

    gain = -costs.solve_r(sys.gamma_u.T)  # (p, m)
    s_mat = h_quadratic(costs, sys.gamma_u, inv_eps)

    x0 = np.repeat(sys.x0.reshape(-1, 1), batch, axis=1)
    x_cur = tape.constant(x0) if tape is not None else x0
    y_cur = _broadcast_cols(y0, batch, tape)
    z_cur = _broadcast_cols(z0, batch, tape)

    states = np.empty((n_steps + 1, sys.n, batch))
    values = np.empty((n_steps + 1, 1, batch))
    z_grads = np.empty((n_steps + 1, sys.m, batch))
    controls = np.empty((n_steps, sys.p, batch))
    adv_controls = np.zeros((n_steps, sys.m, batch))

    states[0] = _value_of(x_cur)
    values[0] = _value_of(y_cur)
    z_grads[0] = _value_of(z_cur)

    lstm_state = None
    step_args = (sys.gamma_u, gain, s_mat, sys.sigma, dt, sqdt, inv_eps if adversary else None)
    fold = ad.fold_step(ad.StepConstants(None, *step_args))  # once per rollout
    with np.errstate(all="ignore"):
        for step in range(n_steps):
            t_now = grid.start + step * dt
            z_vals = _value_of(z_cur)
            minimizing_control(z_vals, gain, controls[step])
            if adversary:
                adversary_control(z_vals, inv_eps, adv_controls[step])

            q_run = costs.running_expr(x_cur, t_now)
            f_drift = sys.drift(x_cur, t_now)
            consts = ad.StepConstants(noise[step], *step_args, fold)
            xy = ad.fbsde_step(x_cur, y_cur, z_cur, f_drift, q_run, consts)
            x_cur = ad.rows(xy, 0, sys.n)
            y_cur = ad.rows(xy, sys.n, sys.n + 1)

            x_vals = _value_of(x_cur)
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
    alive = np.all(np.isfinite(states[1:]), axis=(0, 1))

    handles = None
    if tape is not None:
        handles = TapeHandles(tape=tape, y_terminal=y_cur, y_star=y_star, x_terminal=x_cur)
    return RolloutBatch(
        states=states,
        values=values,
        z_grads=z_grads,
        controls=controls,
        adversary_controls=adv_controls,
        noise=noise,
        terminal_targets=_value_of(y_star).reshape(1, batch),
        alive=alive,
        mode=mode,
        handles=handles,
    )


# ---------------------------------------------------------------------------
# training adjoint

# the fused calls of one rollout step, in the order ``rollout_batch`` makes them
_STEP_OPS = ("column_map", "column_map", "fbsde_step", "lstm_cell", "lstm_cell", "affine")


def rollout_adjoint(saved: list, g_x: np.ndarray, g_y: np.ndarray):
    """Backpropagation through time over one tape-free ``rollout_batch``.

    ``saved`` is the log of ``autodiff.saving`` around the call: per step
    the running cost and the drift (one ``column_map`` each), ``fbsde_step``,
    the two LSTM cells and the read-out, then the terminal cost. ``g_x``
    (n, M) and ``g_y`` (1, M) are a scalar loss's cotangents at the terminal
    state and value. Returns its gradients as (NetParams, d y0, d z0).

    The reverse loop carries only the recurrent cotangents (x, y, z and the
    LSTM states) through the primitives' own backward kernels. Each cell's
    pre-activation cotangent and its block [x; h; 1], rebuilt from the
    logged x and h, go into arrays reused at every step, and one GEMM of the
    two adds that step's share of the packed [W U b] gradient; nothing is
    kept per step beyond the log. The last step's LSTM pass feeds nothing,
    so it gets no cotangent.
    """
    n_steps, extra = divmod(len(saved) - 1, len(_STEP_OPS))
    if n_steps < 1 or extra or [op for op, _, _ in saved] != [*_STEP_OPS * n_steps, "column_map"]:
        raise ValueError("rollout_adjoint: the log is not one rollout of the LSTM predictor "
                         "with a one-column_map drift and running cost")
    steps = [saved[i : i + len(_STEP_OPS)] for i in range(0, len(saved) - 1, len(_STEP_OPS))]
    (_, cell1, (*_, pack1)), (_, cell2, (*_, pack2)), (_, read, _) = steps[0][3:]
    hid1, hid2 = cell1[1].shape[1], cell2[1].shape[1]
    n, cols = g_x.shape
    # gradients of each layer's packed [W U b] and of the read-out, summed
    # over the live steps; the pre-activation cotangents and the packs'
    # block scratch are reused at every step
    d_p1, d_p2 = np.zeros_like(pack1.gates), np.zeros_like(pack2.gates)
    d_w_out, d_b_out = np.zeros_like(read[0]), np.zeros_like(read[2])
    d_pre1, d_pre2 = np.empty((4 * hid1, cols)), np.empty((4 * hid2, cols))
    g_cell1 = np.empty((2 * hid1, cols))
    g_cell2 = np.empty((2 * hid2, cols))
    g_h1, g_c1 = np.zeros((hid1, cols)), np.zeros((hid1, cols))
    g_h2, g_c2 = np.zeros((hid2, cols)), np.zeros((hid2, cols))
    g_z = None
    for t in range(n_steps - 1, -1, -1):
        cost, drift, step, (_, v1, s1), (_, v2, s2), (_, vo, _) = steps[t]
        if t < n_steps - 1:
            # z_{t+1} = read-out(layer 2(layer 1(x_{t+1})))
            d_w, d_b = ad.weight_vjp(g_z, vo[1])
            d_w_out += d_w
            d_b_out += d_b
            np.add(ad.affine_vjp(g_z, vo), g_h2, out=g_cell2[:hid2])
            g_cell2[hid2:] = g_c2
            d_h1, g_h2, g_c2, _ = ad.lstm_cell_vjp(g_cell2, v2, s2, d_pre2)
            d_p2 += d_pre2 @ ad.lstm_block(v2[3], v2[4], pack2.block).T
            np.add(g_h1, d_h1, out=g_cell1[:hid1])
            g_cell1[hid1:] = g_c1
            d_x, g_h1, g_c1, _ = ad.lstm_cell_vjp(g_cell1, v1, s1, d_pre1)
            d_p1 += d_pre1 @ ad.lstm_block(v1[3], v1[4], pack1.block).T
            g_x = g_x + d_x
        d_x, g_y, g_z, d_f, d_q = ad.fbsde_step_vjp(g_x, g_y, step[1], step[2])
        for (_, (x,), (vjp, aux)), g in ((drift, d_f), (cost, d_q)):
            d_x = d_x + vjp(g, x, aux)
        g_x = d_x

    grads = neural.NetParams.of([*ad.unpack_lstm(d_p1, n), *ad.unpack_lstm(d_p2, hid1),
                                 d_w_out, d_b_out])
    return grads, g_y.sum(axis=1, keepdims=True), g_z.sum(axis=1, keepdims=True)


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
