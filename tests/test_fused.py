"""The fused tape primitives against the element-wise compositions they
replace. The compositions below are the oracle: they spell each block out in
the tape's elementary primitives and the reference ops of
``tests/reference.py``, in the same operation order as the fused kernels.
That includes the system drifts and the quadratic cost, which the solver
runs as one ``column_map`` each."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from minmax_fbsde import autodiff as ad
from minmax_fbsde import fbsde, gradcheck, training
from minmax_fbsde.autodiff import Tape
from minmax_fbsde.config import build_runtime, default_config
from minmax_fbsde.fbsde import h_quadratic
from minmax_fbsde.systems import pendulum, quadcopter, wrap_angle
from reference import (bsde_step, concat_rows, cos, fsde_step, h_drift, matmul, mul, placement,
                       rows, sigmoid, sin, tanh, taped_gradients, total)


def _ones_row(x):
    cols = x.shape[1] if isinstance(x, ad.Var) else np.asarray(x).shape[1]
    return np.ones((1, cols))


def lstm_cell_composed(W, U, b, x, h_prev, c_prev, pack=None):
    """The cell in the packed order: [W U b] (assembled exactly, by 0/1
    products, from the current W, U and b; ``pack`` is ignored) times the
    block [x; h; 1], then the gates."""
    hid, d = U.shape[1], W.shape[1]
    width = d + hid + 1
    packed = ad.add(
        ad.add(matmul(W, placement(d, 0, width)), matmul(U, placement(hid, d, width))),
        matmul(b, placement(1, d + hid, width)),
    )
    pre = matmul(packed, concat_rows([x, h_prev, _ones_row(x)]))
    gate_i = sigmoid(rows(pre, 0, hid))
    gate_f = sigmoid(rows(pre, hid, 2 * hid))
    cand = tanh(rows(pre, 2 * hid, 3 * hid))
    gate_o = sigmoid(rows(pre, 3 * hid, 4 * hid))
    c_new = ad.add(mul(gate_f, c_prev), mul(gate_i, cand))
    h_new = mul(gate_o, tanh(c_new))
    return concat_rows([h_new, c_new])


def affine_composed(W, x, b):
    return ad.add(matmul(W, x), matmul(b, _ones_row(x)))


def fbsde_step_composed(x, y, z, f, q, fold, dw):
    """The step in the folded order: w = Q z + dw sqrt(dt),
    y' = y - q dt + 1'(z * w) and x' = x + f dt + G z + Sigma dw sqrt(dt),
    with Q, G, Sigma, dt and sqrt(dt) read from ``fold``."""
    dw_hat = dw * fold.sqdt
    w = ad.add(matmul(fold.q, z), dw_hat)
    col_sum = np.ones((1, dw.shape[0]))  # 1'(z * w) as a ones-row product
    y_new = ad.add(ad.sub(y, ad.smul(q, fold.dt)), matmul(col_sum, mul(z, w)))
    x_new = ad.add(ad.add(ad.add(x, ad.smul(f, fold.dt)), matmul(fold.g, z)), fold.sigma @ dw_hat)
    return concat_rows([x_new, y_new])


def fold_from_definitions(gamma_u, gain, s_mat, sigma, dt, inv_eps):
    """The step's constants worked out here, not by ``fold_step``: K =
    Gamma_u gain (+ I inv_eps when the adversary acts), Q = (K + S / 2) dt,
    G = Sigma K dt and sqrt(dt)."""
    k = gamma_u @ gain
    if inv_eps is not None:
        k = k + np.eye(k.shape[0]) * inv_eps
    return SimpleNamespace(q=(k + s_mat * 0.5) * dt, g=(sigma @ k) * dt, sigma=sigma, dt=dt,
                           sqdt=math.sqrt(dt))


def pendulum_drift_composed(sys):
    damping, gravity = sys.params["damping"], sys.params["gravity"]
    inertia = sys.params["mass"] * sys.params["length"] ** 2
    grav_coeff = sys.params["mass"] * gravity * sys.params["length"]

    def drift(X):
        theta = rows(X, 0, 1)
        omega = rows(X, 1, 2)
        acc = ad.smul(ad.add(ad.smul(omega, -damping), ad.smul(sin(theta), -grav_coeff)),
                      1.0 / inertia)
        return concat_rows((omega, acc))

    return drift


def _one_like(x):
    if isinstance(x, ad.Var):
        return x.tape.leaf(np.ones(x.shape))
    return np.ones(np.asarray(x).shape)


def quadcopter_drift_composed(sys):
    jx, jy, jz = sys.params["jx"], sys.params["jy"], sys.params["jz"]
    gravity = sys.params["gravity"]

    def drift(X):
        phi, th, psi = rows(X, 3, 4), rows(X, 4, 5), rows(X, 5, 6)
        u, v, w = rows(X, 6, 7), rows(X, 7, 8), rows(X, 8, 9)
        pr, qr, rr = rows(X, 9, 10), rows(X, 10, 11), rows(X, 11, 12)
        sphi, cphi = sin(phi), cos(phi)
        sth, cth = sin(th), cos(th)
        spsi, cpsi = sin(psi), cos(psi)
        pn_dot = ad.add(
            mul(mul(cth, cpsi), u),
            ad.add(
                mul(ad.sub(mul(mul(sphi, sth), cpsi), mul(cphi, spsi)), v),
                mul(ad.add(mul(mul(cphi, sth), cpsi), mul(sphi, spsi)), w),
            ),
        )
        pe_dot = ad.add(
            mul(mul(cth, spsi), u),
            ad.add(
                mul(ad.add(mul(mul(sphi, sth), spsi), mul(cphi, cpsi)), v),
                mul(ad.sub(mul(mul(cphi, sth), spsi), mul(sphi, cpsi)), w),
            ),
        )
        pd_dot = ad.add(
            mul(ad.smul(sth, -1.0), u),
            ad.add(mul(mul(sphi, cth), v), mul(mul(cphi, cth), w)),
        )
        u_dot = ad.sub(ad.sub(mul(rr, v), mul(qr, w)), ad.smul(sth, gravity))
        v_dot = ad.add(ad.sub(mul(pr, w), mul(rr, u)), ad.smul(mul(cth, sphi), gravity))
        w_dot = ad.add(
            ad.sub(mul(qr, u), mul(pr, v)),
            ad.smul(ad.sub(mul(cth, cphi), _one_like(u)), gravity),
        )
        p_dot = ad.smul(mul(qr, rr), (jy - jz) / jx)
        q_dot = ad.smul(mul(pr, rr), (jz - jx) / jy)
        r_dot = ad.smul(mul(pr, qr), (jx - jy) / jz)
        return concat_rows(
            (pn_dot, pe_dot, pd_dot, pr, qr, rr, u_dot, v_dot, w_dot, p_dot, q_dot, r_dot)
        )

    return drift


DRIFTS = {"pendulum": (pendulum, pendulum_drift_composed),
          "quadcopter": (quadcopter, quadcopter_drift_composed)}


def quad_composed(costs, X, weights):
    """The quadratic cost with the angle offsets taken from values."""
    vals = X.value if isinstance(X, ad.Var) else np.asarray(X)
    n, cols = vals.shape
    target = costs.target
    offsets = np.repeat(target.reshape(n, 1), cols, axis=1)
    for j in costs.angle_dims:
        raw = vals[j] - target[j]
        offsets[j] += raw - wrap_angle(raw)
    dev = ad.sub(X, offsets)
    return ad.smul(matmul(weights.reshape(1, -1), mul(dev, dev)), 0.5)


def quadcopter_costs():
    setup = build_runtime(default_config("quadcopter"))
    return setup.costs


def lstm_inputs(rng, hid=5, d=3, cols=7):
    return (
        rng.normal(size=(4 * hid, d)), rng.normal(size=(4 * hid, hid)),
        rng.normal(size=(4 * hid, 1)), rng.normal(size=(d, cols)),
        rng.normal(size=(hid, cols)), rng.normal(size=(hid, cols)),
    )


def affine_inputs(rng, k=4, d=5, cols=7):
    return rng.normal(size=(k, d)), rng.normal(size=(d, cols)), rng.normal(size=(k, 1))


def step_inputs(rng, mode, n=3, m=2, p=2, cols=7):
    """Input values, (fold, dw) and the raw draws the fold was made from,
    for one step; S is not symmetric."""
    dw, gamma_u, gain, s_mat, sigma = (rng.normal(size=shape) for shape
                                       in ((m, cols), (m, p), (p, m), (m, m), (n, m)))
    raw = (gamma_u, gain, s_mat, sigma, 0.02, 0.5 if mode == "minmax" else None)
    vals = (rng.normal(size=(n, cols)), rng.normal(size=(1, cols)),
            rng.normal(size=(m, cols)), rng.normal(size=(n, cols)),
            rng.normal(size=(1, cols)))
    return vals, (ad.fold_step(*raw), dw), raw


def make_case(name, rng):
    """(fused, composed, input values, trailing constants) for one primitive.

    The composed step leaves the fold it is passed unread and uses
    ``fold_from_definitions`` of the same draws, so the comparison checks
    ``fold_step`` as well as the kernel."""
    if name == "lstm_cell":
        return ad.lstm_cell, lstm_cell_composed, lstm_inputs(rng), ()
    if name == "affine":
        return ad.affine, affine_composed, affine_inputs(rng), ()
    vals, extra, raw = step_inputs(rng, name.rsplit("_", 1)[1])
    defined = fold_from_definitions(*raw)

    def composed(x, y, z, f, q, _fold, dw):
        return fbsde_step_composed(x, y, z, f, q, defined, dw)

    return ad.fbsde_step, composed, vals, extra


CASES = ["lstm_cell", "affine", "fbsde_step_minmax", "fbsde_step_baseline"]


def taped(fn, vals, extra):
    """Value and input gradients of a fixed random weighting of fn's output."""
    tape = Tape()
    leaves = [tape.leaf(v) for v in vals]
    out = fn(*leaves, *extra)
    w = np.random.default_rng(99).normal(size=out.shape)
    loss = total(mul(out, w))
    return out.value, tape.backward(loss, leaves)


class TestPrimitives:
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tapefree_bit_identical(self, case, seed):
        fused, composed, vals, extra = make_case(case, np.random.default_rng(seed))
        assert np.array_equal(fused(*vals, *extra), composed(*vals, *extra))

    @pytest.mark.parametrize("case", CASES)
    def test_taped_forward_and_gradients(self, case):
        fused, composed, vals, extra = make_case(case, np.random.default_rng(3))
        out_f, grads_f = taped(fused, vals, extra)
        out_c, grads_c = taped(composed, vals, extra)
        np.testing.assert_allclose(out_f, out_c, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(out_f, fused(*vals, *extra))
        for g_f, g_c in zip(grads_f, grads_c):
            scale = max(1.0, float(np.max(np.abs(g_c))))
            assert np.max(np.abs(g_f - g_c)) <= 1e-10 * scale

    def test_one_node_each(self):
        for case in CASES:
            fused, _, vals, extra = make_case(case, np.random.default_rng(4))
            tape = Tape()
            leaves = [tape.leaf(v) for v in vals]
            fused(*leaves, *extra)
            assert len(tape) == len(vals) + 1, case

    def test_shape_errors(self):
        rng = np.random.default_rng(5)
        W, U, b, x, h, c = lstm_inputs(rng)
        with pytest.raises(ad.ShapeError, match="lstm-cell"):
            ad.lstm_cell(W, U, b, x, h[:, :3], c)
        Wa, xa, ba = affine_inputs(rng)
        with pytest.raises(ad.ShapeError, match="affine"):
            ad.affine(Wa, xa, ba[:2])
        vals, (fold, dw), _ = step_inputs(rng, "minmax")
        with pytest.raises(ad.ShapeError, match="fbsde-step"):
            ad.fbsde_step(vals[0], vals[1], vals[2], vals[3][:2], vals[4], fold, dw)


def map_points(rng, n, cols=9, spread=6.0):
    """Random states whose angles reach well beyond +-pi."""
    return rng.uniform(-spread, spread, size=(n, cols))


def assert_close_rel(actual, expected, rel=1e-12):
    scale = max(1e-300, float(np.max(np.abs(expected))))
    assert np.max(np.abs(actual - expected)) <= rel * scale


class TestSystemMaps:
    @pytest.mark.parametrize("system", sorted(DRIFTS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_drift_tapefree_bit_identical(self, system, seed):
        factory, composed = DRIFTS[system]
        sys = factory()
        X = map_points(np.random.default_rng(seed), sys.n)
        assert np.array_equal(sys.drift(X), composed(sys)(X))

    @pytest.mark.parametrize("system", sorted(DRIFTS))
    def test_drift_taped_gradients(self, system):
        factory, composed = DRIFTS[system]
        sys = factory(damping=0.3) if system == "pendulum" else factory(jx=4e-3)
        X = map_points(np.random.default_rng(3), sys.n)
        out_f, (g_f,) = taped(sys.drift, (X,), ())
        out_c, (g_c,) = taped(composed(sys), (X,), ())
        assert np.array_equal(out_f, out_c)
        assert_close_rel(g_f, g_c)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cost_tapefree_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        for costs in (quadcopter_costs(), build_runtime(default_config("pendulum")).costs):
            X = map_points(rng, costs.target.size)
            assert np.any(np.abs(X[list(costs.angle_dims)]) > np.pi)
            assert np.array_equal(costs.running_expr(X),
                                  quad_composed(costs, X, costs.running_weights))
            assert np.array_equal(costs.terminal_expr(X),
                                  quad_composed(costs, X, costs.terminal_weights))

    def test_cost_taped_gradients(self):
        costs = quadcopter_costs()
        X = map_points(np.random.default_rng(4), costs.target.size)
        for weights, fused in ((costs.running_weights, costs.running_expr),
                               (costs.terminal_weights, costs.terminal_expr)):
            out_f, (g_f,) = taped(fused, (X,), ())
            out_c, (g_c,) = taped(lambda x: quad_composed(costs, x, weights), (X,), ())
            assert np.array_equal(out_f, out_c)
            assert_close_rel(g_f, g_c)

    def test_one_node_per_call(self):
        costs = quadcopter_costs()
        sys = quadcopter()
        tape = Tape()
        x = tape.leaf(map_points(np.random.default_rng(5), sys.n))
        sys.drift(x)
        costs.running_expr(x)
        costs.terminal_expr(x)
        assert len(tape) == 4

    def test_column_map_rejects_changed_columns(self):
        with pytest.raises(ad.ShapeError, match="column-map"):
            ad.column_map(np.ones((2, 3)), lambda x: (x[:, :2], None), None)


def small_runtime(system, mode, steps=8):
    cfg = default_config(system)
    cfg.mode = mode
    cfg.train.steps = steps
    cfg.train.horizon = steps * 0.02
    setup = build_runtime(cfg)
    store = training.init_store(setup.system, setup.train)
    store.y0[:] = 0.4
    store.z0[:] = 0.3  # nonzero, so the controls act from the first step
    return setup, store


def taped_rollout(setup, store, adversary, batch=5, seed=3):
    noise = fbsde.sample_noise(seed, fbsde.PURPOSE_TRAIN, 0, batch, setup.grid.steps,
                               setup.system.m)
    return taped_gradients(store, setup.system, setup.costs, setup.grid, noise, setup.train.mode,
                           adversary)


ROLLOUTS = [(s, mode, adv) for s in ("pendulum", "quadcopter", "lq")
            for mode, adv in (("minmax", True), ("minmax", False), ("baseline", False))]


class TestRollout:
    @pytest.mark.parametrize("system,mode,adversary", ROLLOUTS)
    def test_matches_composition(self, system, mode, adversary, monkeypatch):
        setup, store = small_runtime(system, mode)
        fused_free = fbsde.rollout_batch(store, setup.system, setup.costs, setup.grid,
                                         6, 2, mode=mode, adversary=adversary)
        fused_taped, fused_loss, fused_grads = taped_rollout(setup, store, adversary)
        monkeypatch.setattr(ad, "lstm_cell", lstm_cell_composed)
        monkeypatch.setattr(ad, "affine", affine_composed)
        monkeypatch.setattr(ad, "fbsde_step", fbsde_step_composed)
        if system in DRIFTS:
            monkeypatch.setattr(setup.system, "drift", DRIFTS[system][1](setup.system))
        monkeypatch.setattr(setup.costs, "_quad",
                            lambda X, weights, costs=setup.costs: quad_composed(costs, X, weights))
        plain_free = fbsde.rollout_batch(store, setup.system, setup.costs, setup.grid,
                                         6, 2, mode=mode, adversary=adversary)
        plain_taped, plain_loss, plain_grads = taped_rollout(setup, store, adversary)

        for key in ("states", "values", "z_grads", "terminal_targets"):
            assert np.array_equal(getattr(fused_free, key), getattr(plain_free, key)), key
        for key in ("states", "values", "z_grads", "controls", "adversary_controls",
                    "terminal_targets"):
            np.testing.assert_allclose(getattr(fused_taped, key), getattr(plain_taped, key),
                                       rtol=0, atol=1e-12)
        assert fused_loss == pytest.approx(plain_loss, rel=1e-12, abs=1e-12)
        for name, g in plain_grads.items():
            scale = max(1e-300, float(np.max(np.abs(g))))
            assert np.max(np.abs(fused_grads[name] - g)) <= 1e-10 * scale, name

    @pytest.mark.parametrize("system", ["pendulum", "quadcopter"])
    @pytest.mark.parametrize("mode,adversary", [("minmax", True), ("minmax", False),
                                                ("baseline", False)])
    def test_columns_match_single_vector_steps(self, system, mode, adversary):
        setup, _ = small_runtime(system, mode)
        sys, costs, grid = setup.system, setup.costs, setup.grid
        rng = np.random.default_rng(6)
        cols = 4
        x = sys.x0.reshape(-1, 1) + 0.3 * rng.normal(size=(sys.n, cols))
        y = rng.normal(size=(1, cols))
        z = rng.normal(size=(sys.m, cols))
        dw = rng.normal(size=(sys.m, cols))
        inv_eps = 1.0 / costs.epsilon if mode == "minmax" else 0.0
        gain = -costs.solve_r(sys.gamma_u.T)
        fold = ad.fold_step(sys.gamma_u, gain, h_quadratic(costs, sys.gamma_u, inv_eps),
                            sys.sigma, grid.dt, inv_eps if adversary else None)
        xy = ad.fbsde_step(x, y, z, sys.drift(x), costs.running_expr(x), fold, dw)
        for i in range(cols):
            u = gain @ z[:, i]
            v = z[:, i] * inv_eps if adversary else np.zeros(sys.m)
            h = h_drift(x[:, i], z[:, i], costs, sys.gamma_u, mode=mode)
            np.testing.assert_allclose(
                xy[: sys.n, i], fsde_step(x[:, i], u, v, dw[:, i], sys, grid),
                rtol=1e-12, atol=1e-12)
            assert xy[sys.n, i] == pytest.approx(
                bsde_step(y[0, i], z[:, i], h, u, v, sys.gamma_u, dw[:, i], grid),
                rel=1e-12, abs=1e-12)


class TestFold:
    @pytest.mark.parametrize("system", ["pendulum", "quadcopter"])
    @pytest.mark.parametrize("mode,adversary", [("minmax", True), ("minmax", False),
                                                ("baseline", False)])
    def test_constants_match_their_definitions(self, system, mode, adversary, monkeypatch):
        setup, store = small_runtime(system, mode)
        sys, costs, dt = setup.system, setup.costs, setup.grid.dt
        folds = []
        original = ad.fold_step
        monkeypatch.setattr(ad, "fold_step",
                            lambda *args: folds.append(original(*args)) or folds[-1])
        fbsde.rollout_batch(store, sys, costs, setup.grid, 3, 2, mode=mode, adversary=adversary)
        (fold,) = folds
        eye = np.eye(sys.m)
        inv_eps = 1.0 / costs.epsilon if mode == "minmax" else 0.0
        u_gain = sys.gamma_u @ -costs.solve_r(sys.gamma_u.T)  # Gamma_u u* = u_gain z
        k = u_gain + eye * inv_eps if adversary else u_gain
        s_mat = sys.gamma_u @ costs.solve_r(sys.gamma_u.T) - inv_eps * eye
        assert_close_rel(fold.q, (k + 0.5 * s_mat) * dt, rel=1e-15)
        assert_close_rel(fold.g, dt * (sys.sigma @ k), rel=1e-15)
        assert (fold.dt, fold.sqdt) == (dt, math.sqrt(dt))


def nodes_per_time_step(system):
    """Tape nodes per time step of the taped oracle of a training step."""
    setup = build_runtime(default_config(system))
    store = training.init_store(setup.system, setup.train)
    noise = fbsde.sample_noise(0, fbsde.PURPOSE_TRAIN, 0, 4, setup.grid.steps, setup.system.m)
    record, _, _ = taped_gradients(store, setup.system, setup.costs, setup.grid, noise,
                                   setup.train.mode)
    return len(record.tape) / setup.grid.steps


def test_pendulum_step_node_budget():
    """One pendulum training step stays within 13 tape nodes per time step."""
    assert nodes_per_time_step("pendulum") <= 13


def test_quadcopter_step_node_budget():
    """The quadcopter drift and cost record one node each, like the pendulum's."""
    assert nodes_per_time_step("quadcopter") <= 13


def test_audit_honours_points_and_covers_fused(monkeypatch):
    calls = []
    real = gradcheck.finite_difference_check

    def counting(f, point, step=1e-6):
        calls.append(1)
        return real(f, point, step)

    monkeypatch.setattr(gradcheck, "finite_difference_check", counting)
    audit = gradcheck.audit_primitives(points=2)
    names = [row.name for row in audit]
    for fused in ("lstm-cell", "affine", "fbsde-step-minmax", "fbsde-step-baseline",
                  "drift-pendulum", "drift-quadcopter", "drift-lq", "quadratic-cost"):
        assert fused in names
    assert len(calls) == 2 * len(audit)
    assert all(row.points == 2 and row.passed for row in audit)


def test_every_primitive_has_an_audit_row():
    """The ``name`` of each primitive in ``PRIMITIVES`` is an audit row's, or
    the prefix of some (``fbsde-step-minmax``); ``column-map`` is audited
    through its callers, the drifts and the quadratic cost."""
    names = [row.name for row in gradcheck.audit_primitives(points=1)]
    for public in (prim.name for prim in ad.PRIMITIVES):
        prefixes = ("drift", "quadratic-cost") if public == "column-map" else (public,)
        assert any(name == p or name.startswith(f"{p}-") for name in names for p in prefixes), public


def _without_c(vjp):
    """The cell's vjp less the cotangent of c, f * g_c'."""
    return lambda g, vals, saved: (*vjp(g, vals, saved)[:5], np.zeros_like(vals[5]))


def _without_b(vjp):
    """The affine vjp less the cotangent of b."""
    return lambda g, vals, saved: (*vjp(g, vals, saved)[:2], np.zeros_like(vals[2]))


def _without_g(vjp):
    """The step's vjp less the ``fold.g.T @ g_x`` term of the cotangent of z."""
    return lambda g, vals, saved: vjp(g, vals, (saved[0]._replace(g=0 * saved[0].g), saved[1]))


@pytest.mark.parametrize("prim,drop,failing", [
    ("LSTM_CELL", _without_c, ["lstm-cell"]),
    ("AFFINE", _without_b, ["affine"]),
    ("FBSDE_STEP", _without_g, ["fbsde-step-minmax", "fbsde-step-baseline"]),
])
def test_the_audit_catches_a_wrong_vjp(prim, drop, failing, monkeypatch):
    """A primitive whose vjp drops one term fails its own rows and no other."""
    monkeypatch.setattr(ad, prim, getattr(ad, prim)._replace(vjp=drop(getattr(ad, prim).vjp)))
    assert [row.name for row in gradcheck.audit_primitives(points=2) if not row.passed] == failing
