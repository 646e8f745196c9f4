"""Gradient audits: every reverse-mode derivative in the package is compared
against central finite differences at random points. The audit covers the
primitive operations (the fused ``lstm_cell``, which runs its one-GEMM
packed kernel, ``affine`` and ``fbsde_step`` included, the last in both
minmax and baseline form), the hand-written
``column_map`` products of the system drifts (``drift-pendulum``,
``drift-quadcopter``, ``drift-lq``) and of the angle-wrapped quadratic cost
(``quadratic-cost``), one recurrent cell step (``lstm-step``), and a full
multi-step rollout including the training loss, differentiated twice: on one
tape (``rollout-loss-pendulum``, the taped oracle ``taped_gradients``) and by
the adjoint that training uses (``adjoint-rollout-loss-pendulum``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from . import autodiff as ad
from . import fbsde
from .autodiff import Tape, finite_difference_check
from .fbsde import HorizonGrid
from .neural import NetParams, init_net, lstm_stack_forward
from .systems import CostSpec, lq_double_integrator, pendulum, quadcopter
from .training import ParamStore, TrainConfig, init_store, training_step


@dataclass
class AuditRow:
    name: str
    points: int
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.max_error < self.tolerance)


@lru_cache(maxsize=None)
def _weights(shape: tuple[int, int]) -> np.ndarray:
    w = np.random.default_rng(12345).normal(size=shape)
    w.flags.writeable = False  # one cached array is shared by every probe
    return w


def _scalarize(tape: Tape, var: ad.Var) -> ad.Var:
    """Contract any node to (1,1) with a fixed random weighting so the
    finite-difference probe exercises every output entry."""
    return ad.total(ad.mul(var, tape.constant(_weights(var.shape))))


def _audit(op_name: str, fn, shapes, points: int, seed: int) -> AuditRow:
    """``fn`` applied to one leaf per shape, probed at ``points`` random points
    drawn uniformly from [-2, 2]."""
    rng = np.random.default_rng(seed)
    sizes = [int(np.prod(shape)) for shape in shapes]
    bounds = np.cumsum([0] + sizes)
    worst = 0.0
    for _ in range(points):
        vec0 = rng.uniform(-2.0, 2.0, size=bounds[-1])

        def f(vec):
            tape = Tape()
            leaves = [tape.leaf(vec[lo:hi].reshape(shape))
                      for lo, hi, shape in zip(bounds, bounds[1:], shapes)]
            out = _scalarize(tape, fn(*leaves))
            grads = tape.backward(out, leaves)
            return float(out.value[0, 0]), np.concatenate([g.ravel() for g in grads])

        worst = max(worst, finite_difference_check(f, vec0))
    return AuditRow(op_name, points, worst, 1e-4)


def _step_constants(mode: str) -> ad.StepConstants:
    """Random constants for a step with n=3, m=2, p=2 on two columns. S is
    deliberately not symmetric, so the audit covers the general quadratic form."""
    rng = np.random.default_rng(7)
    n, m, p, cols, dt = 3, 2, 2, 2, 0.1
    return ad.StepConstants(
        dw=rng.normal(size=(m, cols)),
        gamma_u=rng.normal(size=(m, p)),
        gain=rng.normal(size=(p, m)),
        s_mat=rng.normal(size=(m, m)),
        sigma=rng.normal(size=(n, m)),
        dt=dt,
        sqdt=float(np.sqrt(dt)),
        inv_eps=0.7 if mode == "minmax" else None,
    )


def audit_primitives(points: int = 100) -> list[AuditRow]:
    """Every primitive, fused ones included, at ``points`` random points each."""
    unary = [
        ("scalar-multiply", lambda x: ad.smul(x, -1.7)),
        ("tanh", ad.tanh),
        ("sigmoid", ad.sigmoid),
        ("sin", ad.sin),
        ("cos", ad.cos),
        ("sum", ad.total),
        ("sum-of-squares", ad.sumsq),
    ]
    rows = [
        _audit("matrix-multiply", ad.matmul, [(3, 4), (4, 5)], points, seed=1),
        _audit("add", ad.add, [(3, 4), (3, 4)], points, seed=1),
        _audit("subtract", ad.sub, [(3, 4), (3, 4)], points, seed=1),
        _audit("element-multiply", ad.mul, [(3, 4), (3, 4)], points, seed=1),
    ]
    rows += [_audit(name, fn, [(3, 4)], points, seed=0) for name, fn in unary]
    rows.append(_audit("slice-rows", lambda x: ad.rows(x, 1, 3), [(4, 3)], points, seed=0))
    rows.append(_audit("concat-rows", lambda a, b: ad.vstack([a, b, a]),
                       [(2, 3), (3, 3)], points, seed=1))
    hid, d, cols = 2, 3, 2
    rows.append(_audit(
        "lstm-cell", ad.lstm_cell,
        [(4 * hid, d), (4 * hid, hid), (4 * hid, 1), (d, cols), (hid, cols), (hid, cols)],
        points, seed=2,
    ))
    rows.append(_audit("affine", ad.affine, [(2, 3), (3, 4), (2, 1)], points, seed=2))
    for mode in ("minmax", "baseline"):
        consts = _step_constants(mode)
        n, m = consts.sigma.shape
        cols = consts.dw.shape[1]
        rows.append(_audit(
            f"fbsde-step-{mode}",
            lambda x, y, z, f, q, c=consts: ad.fbsde_step(x, y, z, f, q, c),
            [(n, cols), (1, cols), (m, cols), (n, cols), (1, cols)],
            points, seed=2,
        ))
    cols = 2
    quad = quadcopter()
    for sys in (pendulum(), quad, lq_double_integrator()):
        rows.append(_audit(f"drift-{sys.name}", sys.drift, [(sys.n, cols)], points, seed=3))
    # targets at pi on the quadcopter's angle dims: probes in [-2, 2] then
    # deviate by up to 2 + pi, so about half of them take the wrap path
    target = np.full(quad.n, 0.5)
    target[list(quad.angle_dims)] = np.pi
    weights = np.linspace(0.5, 2.0, quad.n)
    costs = CostSpec(running_weights=weights, terminal_weights=weights, target=target,
                     r_u=np.eye(quad.p), epsilon=1.0, angle_dims=quad.angle_dims)
    rows.append(_audit("quadratic-cost", costs.running_expr, [(quad.n, cols)], points, seed=3))
    return rows


def audit_lstm_step(hidden: int = 5, input_dim: int = 3, batch: int = 4,
                    seed: int = 3, tol: float = 1e-4) -> AuditRow:
    """One forward pass of the two-layer recurrent cell with every weight,
    input and carry state perturbed."""
    rng = np.random.default_rng(seed)
    net0 = init_net(input_dim, hidden, 2, rng)
    sizes = [arr.size for arr in net0.arrays()]
    shapes = [arr.shape for arr in net0.arrays()]
    x_size = input_dim * batch
    total_size = sum(sizes) + x_size

    def f(vec):
        tape = Tape()
        offset = 0
        leaves = []
        for size, shape in zip(sizes, shapes):
            leaves.append(tape.leaf(vec[offset:offset + size].reshape(shape)))
            offset += size
        x = tape.leaf(vec[offset:offset + x_size].reshape(input_dim, batch))
        out, _ = lstm_stack_forward(NetParams.of(leaves), x)
        leaves.append(x)
        scal = _scalarize(tape, out)
        grads = tape.backward(scal, leaves)
        return float(scal.value[0, 0]), np.concatenate([g.ravel() for g in grads])

    point = rng.uniform(-0.8, 0.8, size=total_size)
    err = finite_difference_check(f, point)
    return AuditRow("lstm-step", 1, err, tol)


def taped_gradients(store: ParamStore, sys, costs: CostSpec, grid: HorizonGrid,
                    noise: np.ndarray, mode: str = "minmax", adversary: bool | None = None):
    """The gradient oracle of a training step: the whole rollout and the
    training loss recorded on one tape and differentiated by ``Tape.backward``.

    Returns (batch, loss, gradients by parameter name); ``batch.handles.tape``
    holds the tape.
    """
    tape = Tape()
    leaves = {name: tape.leaf(arr) for name, arr in store.named_parameters()}
    *weights, y0, z0 = leaves.values()
    params = SimpleNamespace(net=NetParams.of(weights), y0=y0, z0=z0)
    batch = fbsde.rollout_batch(params, sys, costs, grid, noise.shape[2], seed=0, mode=mode,
                                adversary=adversary, tape=tape, noise=noise)
    h = batch.handles
    loss = fbsde.training_loss_expr(h.y_star, h.y_terminal, weights,
                                    costs.beta, costs.weight_decay, noise.shape[2])
    grads = tape.backward(loss, list(leaves.values()))
    return batch, float(loss.value[0, 0]), dict(zip(leaves, grads))


def audit_rollout(steps: int = 5, batch: int = 2, seed: int = 11,
                  tol: float = 1e-4, system: str = "pendulum", adjoint: bool = False) -> AuditRow:
    """Full solver pass: multi-step importance-sampled rollout plus training
    loss, differentiated with respect to every trainable parameter by the
    taped oracle (``taped_gradients``) or, with ``adjoint``, by the adjoint
    of ``training.training_step``."""
    sys = pendulum(noise="low") if system == "pendulum" else lq_double_integrator()
    costs = CostSpec(
        running_weights=np.array([1.0, 0.1]),
        terminal_weights=np.array([10.0, 1.0]),
        target=sys.target,
        r_u=np.array([[0.5]]),
        epsilon=1.0,
        beta=0.8,
        weight_decay=1e-4,
        angle_dims=sys.angle_dims,
    )

    grid = HorizonGrid(0.0, steps * 0.02, steps)
    cfg = TrainConfig(iterations=1, batch_size=batch, grid=grid, seed=seed, hidden_size=4)
    store = init_store(sys, cfg)
    noise = fbsde.sample_noise(seed, fbsde.PURPOSE_TRAIN, 0, batch, steps, sys.m)

    def f(vec):
        probe = ParamStore(vec, store.shapes)
        if adjoint:
            # draws the same noise: (seed, PURPOSE_TRAIN, iteration 0)
            result = training_step(probe, sys, costs, grid, batch, seed, 0, "minmax")
            return result.loss, result.grad
        _, loss, grads = taped_gradients(probe, sys, costs, grid, noise, "minmax")
        return loss, np.concatenate([g.ravel() for g in grads.values()])

    err = finite_difference_check(f, store.theta, step=1e-5)
    return AuditRow(f"{'adjoint-' if adjoint else ''}rollout-loss-{system}", 1, err, tol)


def run_all(points: int = 100) -> list[AuditRow]:
    rows = audit_primitives(points)
    rows.append(audit_lstm_step())
    rows.append(audit_rollout())
    rows.append(audit_rollout(adjoint=True))
    return rows


def format_report(rows: list[AuditRow]) -> str:
    lines = ["gradient audit (reverse mode vs central differences)"]
    for row in rows:
        status = "ok" if row.passed else "FAIL"
        lines.append(f"  {row.name:<29s} max |err| = {row.max_error:.3e}  [{status}]")
    worst = max(row.max_error for row in rows)
    lines.append(f"worst case {worst:.3e}")
    return "\n".join(lines)
