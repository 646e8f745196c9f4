"""Control-affine stochastic systems and quadratic task costs.

Dynamics have the form

    dx = f(x) dt + G u dt + Sigma dw,      G = Sigma @ Gamma_u

with constant diffusion Sigma and constant noise-to-control map Gamma_u for
every system shipped here. The control enters through the noise channels, so
the actuation G is not stored: ``SystemModel.actuation`` is Sigma @ Gamma_u.
Each system is defined once, by its factory: its constants (masses, lengths,
inertias) and its success box are fixed there, and a config only selects the
system and its noise level.

Drift functions operate on column batches (n, M). Every drift and both
quadratic costs are each one ``autodiff.column_map``: a NumPy forward plus
its hand-written vector-Jacobian product, which the training adjoint
(``fbsde.rollout_adjoint``) finds in the ``autodiff.saving`` log. Given a
tape Var, as the tests' taped oracle gives them, a call records one node.

Angle coordinates are wrapped to (-pi, pi] around the target for cost and
success evaluation only, never inside integration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from . import autodiff as ad

TWO_PI = 2.0 * np.pi

# noise presets: multiplier applied to each system's unit noise pattern
NOISE_PRESETS = {"low": 0.1, "high": 0.8}


def resolve_noise_scale(noise) -> float:
    if isinstance(noise, str):
        try:
            return NOISE_PRESETS[noise]
        except KeyError:
            raise ValueError(
                f"unknown noise preset {noise!r}; use one of {sorted(NOISE_PRESETS)} or a number"
            ) from None
    scale = float(noise)
    if scale < 0:
        raise ValueError(f"noise scale must be nonnegative, got {scale}")
    return scale


@dataclass
class SystemModel:
    """A task: dynamics, noise layout, goal state, and success tolerances.

    ``success_tol`` is a per-dimension tolerance on the terminal deviation
    from ``target``; unconstrained dimensions carry ``inf``. The actuation G
    is derived, ``sigma @ gamma_u``, so it cannot disagree with the noise
    layout.
    """

    name: str
    n: int
    p: int
    m: int
    drift: Callable  # drift(X) on (n, M) columns, dual-mode; every system is time-invariant
    sigma: np.ndarray  # (n, m)
    gamma_u: np.ndarray  # (m, p)
    target: np.ndarray  # (n,)
    x0: np.ndarray  # (n,)
    state_labels: tuple[str, ...]
    success_tol: np.ndarray  # (n,)
    angle_dims: tuple[int, ...] = ()
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.sigma = np.asarray(self.sigma, dtype=np.float64).reshape(self.n, self.m)
        self.gamma_u = np.asarray(self.gamma_u, dtype=np.float64).reshape(self.m, self.p)
        self.target = np.asarray(self.target, dtype=np.float64).reshape(self.n)
        self.x0 = np.asarray(self.x0, dtype=np.float64).reshape(self.n)
        self.success_tol = np.asarray(self.success_tol, dtype=np.float64).reshape(self.n)

    @property
    def actuation(self) -> np.ndarray:
        """G = Sigma @ Gamma_u, (n, p); zero when the system carries no noise."""
        return self.sigma @ self.gamma_u


def wrap_angle(delta):
    """Wrap a plain array of angle deviations to (-pi, pi]."""
    return delta - TWO_PI * np.ceil((delta - np.pi) / TWO_PI)


def deviation_from(X: np.ndarray, target: np.ndarray, angle_dims: tuple[int, ...]) -> np.ndarray:
    """X (n, M) minus target, with angle rows shifted by whole periods.

    The per-column period shift depends on the values only; the cost treats
    it as a constant, which is exact (the cost is periodic) and gives the
    almost-everywhere derivative.
    """
    target = np.asarray(target, dtype=np.float64).reshape(-1, 1)
    dev = X - target
    if angle_dims:
        lo, hi = angle_dims[0], angle_dims[-1] + 1
        rows = slice(lo, hi) if angle_dims == tuple(range(lo, hi)) else list(angle_dims)
        raw = dev[rows]
        dev[rows] = X[rows] - (target[rows] + (raw - wrap_angle(raw)))
    return dev


@dataclass
class CostSpec:
    """Quadratic running/terminal penalties plus game parameters.

    running cost  q(x) = 0.5 * sum_j rw[j] * dev_j(x)^2
    terminal cost g(x) = 0.5 * sum_j tw[j] * dev_j(x)^2
    control price R_u (positive definite), adversary temperature epsilon > 0,
    terminal-matching weight beta in [0, 1], parameter decay lambda >= 0.
    """

    running_weights: np.ndarray
    terminal_weights: np.ndarray
    target: np.ndarray
    r_u: np.ndarray
    epsilon: float
    beta: float = 0.8
    weight_decay: float = 1e-4
    angle_dims: tuple[int, ...] = ()

    def __post_init__(self):
        self.running_weights = np.asarray(self.running_weights, dtype=np.float64).ravel()
        self.terminal_weights = np.asarray(self.terminal_weights, dtype=np.float64).ravel()
        self.target = np.asarray(self.target, dtype=np.float64).ravel()
        r = np.asarray(self.r_u, dtype=np.float64)
        if r.ndim == 0:
            r = r.reshape(1, 1)
        elif r.ndim == 1:
            r = np.diag(r)
        self.r_u = r
        self.angle_dims = tuple(int(j) for j in self.angle_dims)
        self._quad_maps = {}  # id(weights) -> (weights, forward, vjp); see ``_quad``
        if np.any(self.running_weights < 0) or np.any(self.terminal_weights < 0):
            raise ValueError("cost weights must be nonnegative")
        if not (self.epsilon > 0):
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not (0.0 <= self.beta <= 1.0):
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        if self.weight_decay < 0:
            raise ValueError(f"weight decay must be nonnegative, got {self.weight_decay}")
        if self.r_u.ndim != 2 or self.r_u.shape[0] != self.r_u.shape[1]:
            raise ValueError(f"R_u must be square, got shape {self.r_u.shape}")
        if not np.all(np.isfinite(self.r_u)):
            raise ValueError("R_u must be finite")
        if not np.allclose(self.r_u, self.r_u.T, atol=1e-12):
            raise ValueError("R_u must be symmetric positive definite")
        try:
            np.linalg.cholesky(self.r_u)
        except np.linalg.LinAlgError as exc:
            raise ValueError("R_u must be symmetric positive definite") from exc

    def solve_r(self, rhs: np.ndarray) -> np.ndarray:
        """R_u^{-1} @ rhs by a linear solve (no explicit inverse)."""
        return np.linalg.solve(self.r_u, rhs)

    def _quad(self, X, weights: np.ndarray):
        maps = self._quad_maps.get(id(weights))  # built once per weight vector
        if maps is None or maps[0] is not weights:
            w_row, w_col = weights.reshape(1, -1), weights.reshape(-1, 1)

            def forward(x):
                dev = deviation_from(x, self.target, self.angle_dims)
                return (w_row @ (dev * dev)) * 0.5, dev

            def vjp(g, x, dev):
                return (g * w_col) * dev

            maps = self._quad_maps[id(weights)] = (weights, forward, vjp)
        return ad.column_map(X, maps[1], maps[2])

    def running_expr(self, X):
        """Batched running cost, (1, M) from (n, M); dual-mode."""
        return self._quad(X, self.running_weights)

    def terminal_expr(self, X):
        """Batched terminal cost, (1, M) from (n, M); dual-mode."""
        return self._quad(X, self.terminal_weights)


# ---------------------------------------------------------------------------
# pendulum


def pendulum(
    noise: Any = "low",
    mass: float = 1.0,
    length: float = 1.0,
    damping: float = 0.1,
    gravity: float = 9.81,
) -> SystemModel:
    """Torque-actuated pendulum, state (theta, theta_dot), theta = 0 hanging down.

    theta_ddot = (u - damping * theta_dot - mass * gravity * length * sin(theta))
                 / (mass * length^2)

    The swing-up goal is the upright state (pi, 0). Noise enters the
    angular-acceleration channel only.
    """
    scale = resolve_noise_scale(noise)
    inertia = mass * length * length
    grav_coeff = mass * gravity * length

    def forward(X):
        out = np.empty(X.shape)
        out[0] = X[1]
        out[1] = (X[1] * (-damping) + np.sin(X[0]) * (-grav_coeff)) * (1.0 / inertia)
        return out, None

    def vjp(g, X, saved):
        g_acc, out = g[1] * (1.0 / inertia), np.empty(X.shape)
        out[0] = g_acc * (-grav_coeff) * np.cos(X[0])
        out[1] = g[0] + g_acc * (-damping)
        return out

    def drift(X):
        return ad.column_map(X, forward, vjp)

    # G = sigma @ gamma = (0, 1/inertia); at noise 0 both vanish, the
    # degenerate noiseless variant used by deterministic tests
    sigma = np.array([[0.0], [scale / inertia]])
    gamma = np.array([[1.0 / scale if scale > 0 else 0.0]])

    return SystemModel(
        name="pendulum",
        n=2,
        p=1,
        m=1,
        drift=drift,
        sigma=sigma,
        gamma_u=gamma,
        target=np.array([np.pi, 0.0]),
        x0=np.array([0.0, 0.0]),
        state_labels=("theta", "theta_dot"),
        success_tol=np.array([0.2, 1.0]),
        angle_dims=(0,),
        params={
            "mass": mass,
            "length": length,
            "damping": damping,
            "gravity": gravity,
            "noise_scale": scale,
        },
    )


# ---------------------------------------------------------------------------
# quadcopter


def quadcopter(
    noise: Any = "low",
    mass: float = 0.5,
    arm: float = 0.17,
    jx: float = 4.85e-3,
    jy: float = 4.85e-3,
    jz: float = 8.81e-3,
    gravity: float = 9.81,
) -> SystemModel:
    """Twelve-state rigid-body quadcopter in a north-east-down frame.

    State: position (pn, pe, pd), attitude (phi, theta, psi), body-frame
    velocity (u, v, w), body rates (pr, qr, rr). Attitude kinematics use the
    near-hover identification of Euler-angle rates with body rates. Controls
    are the collective-thrust and three-torque combinations expressed in
    normalized units: vertical specific force above hover (thrust / mass)
    and body angular accelerations (torque / inertia). Physical rotor forces
    are a constant diagonal reparameterization of these inputs (mass and the
    inertia moments), absorbed into the control price; the hover thrust is
    folded into the drift so zero control holds the trim exactly.

    The reach target is 1 m forward, 1 m right and 1 m up: (1, 1, -1) in NED
    position coordinates. Noise enters the four actuated acceleration
    channels (w_dot, p_dot, q_dot, r_dot).
    """
    scale = resolve_noise_scale(noise)

    grav = float(gravity)
    cp, cq, cr = (jy - jz) / jx, (jz - jx) / jy, (jx - jy) / jz

    def forward(X):
        phi, th, psi, u, v, w, pr, qr, rr = X[3:]
        sphi, cphi = np.sin(phi), np.cos(phi)
        sth, cth = np.sin(th), np.cos(th)
        spsi, cpsi = np.sin(psi), np.cos(psi)
        out = np.empty(X.shape)
        # inertial position rates: R(phi, theta, psi) @ body velocity
        out[0] = cth * cpsi * u + ((sphi * sth * cpsi - cphi * spsi) * v
                                   + (cphi * sth * cpsi + sphi * spsi) * w)
        out[1] = cth * spsi * u + ((sphi * sth * spsi + cphi * cpsi) * v
                                   + (cphi * sth * spsi - sphi * cpsi) * w)
        out[2] = sth * -1.0 * u + (sphi * cth * v + cphi * cth * w)
        out[3:6] = X[9:]
        # body-frame accelerations; hover thrust cancels gravity at trim
        out[6] = (rr * v - qr * w) - sth * grav
        out[7] = (pr * w - rr * u) + cth * sphi * grav
        out[8] = (qr * u - pr * v) + (cth * cphi - 1.0) * grav
        out[9] = qr * rr * cp
        out[10] = pr * rr * cq
        out[11] = pr * qr * cr
        return out, (sphi, cphi, sth, cth, spsi, cpsi, out)

    def vjp(g, X, saved):
        sphi, cphi, sth, cth, spsi, cpsi, out = saved
        u, v, w, pr, qr, rr = X[6:]
        g_n, g_e, g_d, g_pr, g_qr, g_rr, g_u, g_v, g_w, g_p, g_q, g_r = g
        # R' applied to the position-rate cotangent, one body axis per row
        r_u = cth * cpsi * g_n + cth * spsi * g_e - sth * g_d
        r_v = ((sphi * sth * cpsi - cphi * spsi) * g_n
               + (sphi * sth * spsi + cphi * cpsi) * g_e + sphi * cth * g_d)
        r_w = ((cphi * sth * cpsi + sphi * spsi) * g_n
               + (cphi * sth * spsi - sphi * cpsi) * g_e + cphi * cth * g_d)
        dx = np.zeros(X.shape)  # positions do not enter the drift
        # attitude: dR/dphi = [0, R[:, 2], -R[:, 1]]; dR/dtheta maps the body
        # velocity to (cpsi pd_dot, spsi pd_dot, -tilt); dR/dpsi rotates the
        # horizontal position rates by a quarter turn
        tilt = cth * u + sth * (sphi * v + cphi * w)
        dx[3] = r_w * v - r_v * w + grav * cth * (cphi * g_v - sphi * g_w)
        dx[4] = ((cpsi * g_n + spsi * g_e) * out[2] - tilt * g_d
                 - grav * (cth * g_u + sth * (sphi * g_v + cphi * g_w)))
        dx[5] = out[0] * g_e - out[1] * g_n
        # body velocity: R' term plus the Coriolis products with the rates
        dx[6] = r_u + qr * g_w - rr * g_v
        dx[7] = r_v + rr * g_u - pr * g_w
        dx[8] = r_w + pr * g_v - qr * g_u
        # body rates: attitude kinematics, Coriolis and the gyroscopic products
        dx[9] = g_pr + w * g_v - v * g_w + cq * rr * g_q + cr * qr * g_r
        dx[10] = g_qr + u * g_w - w * g_u + cp * rr * g_p + cr * pr * g_r
        dx[11] = g_rr + v * g_u - u * g_v + cp * qr * g_p + cq * pr * g_q
        return dx

    def drift(X):
        return ad.column_map(X, forward, vjp)

    # noise and control share the w, p, q, r rate rows; the specific force
    # acts along -z_body (up), so G = sigma @ gamma is -1 on the thrust row
    sigma = np.zeros((12, 4))
    gamma = np.zeros((4, 4))
    if scale > 0:
        for k, (row, sign) in enumerate(((8, -1.0), (9, 1.0), (10, 1.0), (11, 1.0))):
            sigma[row, k] = scale
            gamma[k, k] = sign / scale

    target = np.zeros(12)
    target[0], target[1], target[2] = 1.0, 1.0, -1.0

    tol = np.full(12, np.inf)
    tol[0] = tol[1] = tol[2] = 0.25

    return SystemModel(
        name="quadcopter",
        n=12,
        p=4,
        m=4,
        drift=drift,
        sigma=sigma,
        gamma_u=gamma,
        target=target,
        x0=np.zeros(12),
        state_labels=(
            "pn", "pe", "pd", "phi", "theta", "psi",
            "u", "v", "w", "p", "q", "r",
        ),
        success_tol=tol,
        angle_dims=(3, 4, 5),
        params={
            "mass": mass,
            "arm": arm,
            "jx": jx,
            "jy": jy,
            "jz": jz,
            "gravity": gravity,
            "noise_scale": scale,
        },
    )


# ---------------------------------------------------------------------------
# linear-quadratic benchmark system (double integrator)


def lq_double_integrator(noise: Any = 0.2) -> SystemModel:
    """Stochastic double integrator: position/velocity, force input.

    x_dot = v, v_dot = u + noise; the closed-form value function of the
    quadratic problem built on top of this system is the solver's oracle.
    The drift is ``params["drift_matrix"]`` times x, so the oracle reads A
    from the system (``evaluation.lq_benchmark``).
    """
    scale = resolve_noise_scale(noise)
    drift_matrix = [[0.0, 1.0], [0.0, 0.0]]
    a_mat = np.array(drift_matrix)

    def forward(X):
        return a_mat @ X, None

    def vjp(g, X, saved):
        return a_mat.T @ g

    def drift(X):
        return ad.column_map(X, forward, vjp)

    sigma = np.array([[0.0], [scale]])  # G = sigma @ gamma = (0, 1)
    gamma = np.array([[1.0 / scale if scale > 0 else 0.0]])

    return SystemModel(
        name="lq",
        n=2,
        p=1,
        m=1,
        drift=drift,
        sigma=sigma,
        gamma_u=gamma,
        target=np.zeros(2),
        x0=np.array([1.0, 0.0]),
        state_labels=("position", "velocity"),
        success_tol=np.array([0.25, 0.5]),
        angle_dims=(),
        params={"noise_scale": scale, "drift_matrix": drift_matrix},
    )


SYSTEM_FACTORIES = {
    "pendulum": pendulum,
    "quadcopter": quadcopter,
    "lq": lq_double_integrator,
}


def make_system(name: str, noise: Any = "low") -> SystemModel:
    """The named system at a noise preset or scale, with the constants and the
    success box its factory fixes."""
    try:
        factory = SYSTEM_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown system {name!r}; available: {sorted(SYSTEM_FACTORIES)}"
        ) from None
    return factory(noise=noise)
