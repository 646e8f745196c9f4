"""Gradient audits: every reverse-mode derivative in the package is compared
against central finite differences at random points, 13 rows in all. Each
``Primitive`` in ``autodiff.PRIMITIVES`` has a row under its ``name``, which
checks its ``vjp`` against its ``kernel`` as the runtime calls them: one call
on plain arrays inside ``autodiff.saving``, whose logged inputs and saved
arrays go to the ``vjp``, as in the training adjoint. The rows are the four
elementary ones (``add``, ``subtract``, ``scalar-multiply``,
``sum-of-squares``), the fused ``lstm-cell`` (its one-GEMM packed kernel),
``affine`` and ``fbsde-step`` (minmax and baseline form, each on a
``fold_step`` fold), and ``column-map`` through its callers: the
hand-written products of the system drifts (``drift-pendulum``,
``drift-quadcopter``, ``drift-lq``) and of the angle-wrapped quadratic cost
(``quadratic-cost``). Then a full multi-step rollout including the training
loss, differentiated by the adjoint that training uses
(``adjoint-rollout-loss-pendulum``). The taped oracle that the adjoint is
also checked against lives in ``tests/reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .autodiff import finite_difference_check
from .fbsde import HorizonGrid
from .systems import CostSpec, lq_double_integrator, pendulum, quadcopter
from .training import ParamStore, TrainConfig, init_store, training_step


TOLERANCE = 1e-4  # largest relative error an audited derivative may show


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


def _audit(op_name: str, fn, shapes, points: int, seed: int) -> AuditRow:
    """``fn``, one primitive call, applied to one array per shape and probed
    at ``points`` random points drawn uniformly from [-2, 2]. A fixed random
    weighting W of the call's value makes it scalar, so the probe exercises
    every output entry; its gradient is the primitive's ``vjp`` of W on what
    the call logged."""
    rng = np.random.default_rng(seed)
    sizes = [int(np.prod(shape)) for shape in shapes]
    bounds = np.cumsum([0] + sizes)
    worst = 0.0
    for _ in range(points):
        vec0 = rng.uniform(-2.0, 2.0, size=bounds[-1])

        def f(vec):
            args = [vec[lo:hi].reshape(shape) for lo, hi, shape in zip(bounds, bounds[1:], shapes)]
            with ad.saving() as log:
                value = fn(*args)
            ((prim, vals, saved),) = log
            weights = _weights(value.shape)
            grads = prim.vjp(weights, vals, saved)
            return float(np.sum(value * weights)), np.concatenate([g.ravel() for g in grads])

        worst = max(worst, finite_difference_check(f, vec0))
    return AuditRow(op_name, points, worst, TOLERANCE)


def _step_args(mode: str) -> tuple[ad.StepFold, np.ndarray]:
    """The fold and increments of a step with n=3, m=2, p=2 on two columns. S
    is deliberately not symmetric, so the audit covers the general quadratic form."""
    rng = np.random.default_rng(7)
    n, m, p, cols = 3, 2, 2, 2
    dw, gamma_u, gain, s_mat, sigma = (rng.normal(size=shape) for shape
                                       in ((m, cols), (m, p), (p, m), (m, m), (n, m)))
    return ad.fold_step(gamma_u, gain, s_mat, sigma, 0.1, 0.7 if mode == "minmax" else None), dw


def audit_primitives(points: int = 100) -> list[AuditRow]:
    """Every primitive, fused ones included, at ``points`` random points each."""
    rows = [
        _audit("add", ad.add, [(3, 4), (3, 4)], points, seed=1),
        _audit("subtract", ad.sub, [(3, 4), (3, 4)], points, seed=1),
        _audit("scalar-multiply", lambda x: ad.smul(x, -1.7), [(3, 4)], points, seed=0),
        _audit("sum-of-squares", ad.sumsq, [(3, 4)], points, seed=0),
    ]
    hid, d, cols = 2, 3, 2
    rows.append(_audit(
        "lstm-cell", ad.lstm_cell,
        [(4 * hid, d), (4 * hid, hid), (4 * hid, 1), (d, cols), (hid, cols), (hid, cols)],
        points, seed=2,
    ))
    rows.append(_audit("affine", ad.affine, [(2, 3), (3, 4), (2, 1)], points, seed=2))
    for mode in ("minmax", "baseline"):
        fold, dw = _step_args(mode)
        n, m = fold.sigma.shape
        cols = dw.shape[1]
        rows.append(_audit(
            f"fbsde-step-{mode}",
            lambda x, y, z, f, q, fold=fold, dw=dw: ad.fbsde_step(x, y, z, f, q, fold, dw),
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


def audit_problem():
    """The audited training step: a 5-step importance-sampled pendulum
    rollout of 2 samples plus training loss. Returns (system, costs, grid,
    batch, seed, store)."""
    steps, batch, seed = 5, 2, 11
    sys = pendulum(noise="low")
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
    return sys, costs, grid, batch, seed, init_store(sys, cfg)


def audit_rollout() -> AuditRow:
    """Full solver pass: ``audit_problem``'s step differentiated with respect
    to every trainable parameter by the adjoint of ``training.training_step``."""
    sys, costs, grid, batch, seed, store = audit_problem()

    def f(vec):
        # every probe draws the same noise: (seed, PURPOSE_TRAIN, iteration 0)
        result = training_step(ParamStore(vec, store.shapes), sys, costs, grid, batch, seed, 0,
                               "minmax")
        return result.loss, result.grad

    err = finite_difference_check(f, store.theta, step=1e-5)
    return AuditRow("adjoint-rollout-loss-pendulum", 1, err, TOLERANCE)


def run_all(points: int = 100) -> list[AuditRow]:
    return [*audit_primitives(points), audit_rollout()]


def format_report(rows: list[AuditRow]) -> str:
    lines = ["gradient audit (reverse mode vs central differences)"]
    for row in rows:
        status = "ok" if row.passed else "FAIL"
        lines.append(f"  {row.name:<29s} max |err| = {row.max_error:.3e}  [{status}]")
    worst = max(row.max_error for row in rows)
    lines.append(f"worst case {worst:.3e}")
    return "\n".join(lines)
