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

A rollout folds a step's constants once (``autodiff.fold_step``) and
passes the fold to every ``autodiff.fbsde_step``: with
Gamma_u u* + v* = K z, Q = (K + S / 2) dt and G = dt Sigma K (S the
quadratic form of h), a step is w = Q z + dw sqrt(dt), y' = y - q dt + z'w
and x' = x + f dt + G z + Sigma dw sqrt(dt): the updates above, to rounding.

The rollout runs on plain NumPy arrays, samples in columns. Training runs
it inside ``autodiff.saving``, which logs what each fused kernel saved, and
``rollout_adjoint`` then backpropagates through time from the cotangents of
the terminal state and value; training tapes only the loss head.

A rollout packs each LSTM layer's weights once (``neural.pack_net``):
[W U b] as one array whose sigmoid rows are halved, since
sigma(a) = 0.5 tanh(a / 2) + 0.5 and halving is exact. Each cell is one GEMM
over the block [x; h; 1] and one tanh over all gate rows, and keeps neither
its block nor tanh c': the adjoint rebuilds each step's in arrays reused at
every step and forms that step's share of the [W U b] gradient with one
GEMM.

The adjoint is tested against an independent oracle, ``taped_gradients`` in
``tests/reference.py``, which writes the same rollout and loss step by step
on one ``autodiff.Tape``.

The increments dw are counter-based: sample i of a batch draws from a Philox
stream keyed by ``SeedSequence(seed, spawn_key=(purpose, iteration, i))``.
``sample_noise`` derives the keys of the whole batch in one vectorized pass
and re-keys a single generator per sample, bit for bit the same draws as that
per-sample definition, ``noise_block`` in ``tests/reference.py``, column by
column.
"""

from __future__ import annotations

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

    Bit-identical column by column to the per-sample definition,
    ``noise_block`` in ``tests/reference.py``: the keys of all samples come
    from ``_sample_keys`` in one pass, and one Philox generator is re-keyed
    per sample.
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


def h_quadratic(costs: CostSpec, gamma_u: np.ndarray, inv_epsilon: float) -> np.ndarray:
    """S = Gamma_u R_u^{-1} Gamma_u' - inv_epsilon * I, the generator's quadratic form."""
    m = gamma_u.shape[0]
    return gamma_u @ costs.solve_r(gamma_u.T) - inv_epsilon * np.eye(m)


# ---------------------------------------------------------------------------
# batched rollout


@dataclass
class TapeHandles:
    """Live tape nodes of a training step's loss head."""

    tape: Tape
    y_terminal: Var
    y_star: Var


@dataclass
class RolloutBatch:
    """Recorded trajectories; the sample index is always the last axis. The controls
    follow from ``z_grads``: u* = gain z, and v* = z / epsilon while the adversary acts."""

    states: np.ndarray  # (N+1, n, M)
    values: np.ndarray  # (N+1, 1, M)
    z_grads: np.ndarray  # (N+1, m, M)
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
    noise: np.ndarray | None = None,
    z_fn: Callable | None = None,
    y0=None,
    z0=None,
) -> RolloutBatch:
    """Simulate a batch of coupled forward/backward trajectories.

    ``params`` needs attributes ``net`` (NetParams), ``y0`` (1, 1) and ``z0``
    (m, 1). The network's weights are packed once at the start
    (``neural.pack_net``), so they must not change during the call. Training
    runs it inside ``autodiff.saving`` and differentiates it with
    ``rollout_adjoint``; the log references the batch's records, which must
    not change before that.
    ``z_fn(x_values, step) -> (m, M)`` substitutes an external value-gradient
    predictor.

    Noise defaults to the counter-based stream indexed by
    (seed, purpose, iteration, sample, step); pass ``noise`` explicitly to
    couple grids or force specific increments.

    Samples sit in columns and stay independent throughout (every
    cross-entry contraction runs over rows only), so a sample that goes
    non-finite cannot contaminate its neighbours. A sample is ``alive`` only
    when its states, values and terminal cost are all finite; a dead
    sample's tail records are garbage.
    """
    if mode not in ("minmax", "baseline"):
        raise ValueError(f"mode must be 'minmax' or 'baseline', got {mode!r}")
    if adversary is None:
        adversary = mode == "minmax"
    if mode == "baseline":
        adversary = False

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
    if net is not None:
        net = neural.pack_net(net, batch)  # once per rollout, never per cell
    y0 = params.y0 if y0 is None else y0
    z0 = params.z0 if z0 is None else z0
    dt = grid.dt
    inv_eps = (1.0 / costs.epsilon) if mode == "minmax" else 0.0

    gain = -costs.solve_r(sys.gamma_u.T)  # (p, m)
    s_mat = h_quadratic(costs, sys.gamma_u, inv_eps)

    states, values, z_grads = (np.empty((n_steps + 1, k, batch)) for k in (sys.n, 1, sys.m))
    for record, start in ((states, sys.x0), (values, y0), (z_grads, z0)):
        record[0] = np.reshape(start, (-1, 1))  # (k, 1) broadcast to (k, M)

    # every step reads its inputs from the record rows, so a logged call
    # references the records instead of keeping a copy of its own
    x_cur, y_cur, z_cur = states[0], values[0], z_grads[0]
    lstm_state = None
    fold = ad.fold_step(sys.gamma_u, gain, s_mat, sys.sigma, dt, inv_eps if adversary else None)
    with np.errstate(all="ignore"):
        for step in range(n_steps):
            q_run = costs.running_expr(x_cur)
            f_drift = sys.drift(x_cur)
            xy = ad.fbsde_step(x_cur, y_cur, z_cur, f_drift, q_run, fold, noise[step])
            x_cur, y_cur, z_cur = states[step + 1], values[step + 1], z_grads[step + 1]
            x_cur[...], y_cur[...] = xy[: sys.n], xy[sys.n :]
            if z_fn is not None:
                z_cur[...] = z_fn(x_cur, step + 1)
            else:
                z_cur[...], lstm_state = neural.lstm_stack_forward(net, x_cur, lstm_state)

        y_star = costs.terminal_expr(x_cur)
    alive = np.isfinite(y_star[0])
    for record in (states, values):
        alive &= np.all(np.isfinite(record), axis=(0, 1))
    return RolloutBatch(states=states, values=values, z_grads=z_grads, noise=noise,
                        terminal_targets=y_star.reshape(1, batch), alive=alive, mode=mode)


# ---------------------------------------------------------------------------
# training adjoint

# the fused calls of one rollout step, in the order ``rollout_batch`` makes them
_STEP_OPS = (ad.COLUMN_MAP, ad.COLUMN_MAP, ad.FBSDE_STEP, ad.LSTM_CELL, ad.LSTM_CELL, ad.AFFINE)


def rollout_adjoint(saved: list, g_x: np.ndarray, g_y: np.ndarray):
    """Backpropagation through time over one ``rollout_batch``.

    ``saved`` is the log of ``autodiff.saving`` around the call: per step
    the running cost and the drift (one ``column_map`` each), ``fbsde_step``,
    the two LSTM cells and the read-out, then the terminal cost. ``g_x``
    (n, M) and ``g_y`` (1, M) are a scalar loss's cotangents at the terminal
    state and value. Returns its gradients as (NetParams, d y0, d z0).

    The reverse loop carries only the recurrent cotangents (x, y, z and the
    LSTM states) through the primitives' own backward kernels. Per layer,
    the arrays a step writes are made once per rollout and reused at every
    step: ``lstm_cell_vjp``'s scratch (the rebuilt tanh c', the cotangent of
    c', the activations' slope and the pre-activation cotangent), the pack's
    block [x; h; 1], rebuilt from the logged x and h, and the GEMM of the
    two, the step's share of the packed [W U b] gradient. Nothing is kept
    per step beyond the log. The last step's LSTM pass feeds nothing, so it
    gets no cotangent.
    """
    n_steps, extra = divmod(len(saved) - 1, len(_STEP_OPS))
    layout = [*_STEP_OPS * n_steps, ad.COLUMN_MAP]
    if n_steps < 1 or extra or any(prim is not op for (prim, _, _), op in zip(saved, layout)):
        raise ValueError("rollout_adjoint: the log is not one rollout of the LSTM predictor "
                         "with a one-column_map drift and running cost")
    steps = [saved[i : i + len(_STEP_OPS)] for i in range(0, len(saved) - 1, len(_STEP_OPS))]
    (_, cell1, (*_, pack1)), (_, cell2, (*_, pack2)), (_, read, _) = steps[0][3:]
    hid1, hid2 = cell1[1].shape[1], cell2[1].shape[1]
    n, cols = g_x.shape
    # gradients of each layer's packed [W U b] and of the read-out, summed
    # over the live steps
    d_p1, d_p2 = np.zeros_like(pack1.gates), np.zeros_like(pack2.gates)
    prod1, prod2 = np.empty_like(pack1.gates), np.empty_like(pack2.gates)
    d_w_out, d_b_out = np.zeros_like(read[0]), np.zeros_like(read[2])
    work1, work2 = ad.lstm_vjp_scratch(hid1, cols), ad.lstm_vjp_scratch(hid2, cols)
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
            g_h = ad.affine_vjp(g_z, vo)
            g_h += g_h2
            d_h1, g_h2, g_c2, d_pre2 = ad.lstm_cell_vjp(g_h, g_c2, v2, s2, work2)
            d_p2 += np.matmul(d_pre2, ad.lstm_block(v2[3], v2[4], pack2.block).T, out=prod2)
            d_h1 += g_h1
            d_x, g_h1, g_c1, d_pre1 = ad.lstm_cell_vjp(d_h1, g_c1, v1, s1, work1)
            d_p1 += np.matmul(d_pre1, ad.lstm_block(v1[3], v1[4], pack1.block).T, out=prod1)
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
