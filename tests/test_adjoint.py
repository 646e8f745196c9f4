"""The training step's adjoint against the taped oracle.

``training.training_step`` rolls the batch out on arrays, tapes only the
loss head and carries the cotangents back with ``fbsde.rollout_adjoint``.
``reference.taped_gradients`` writes the same rollout and loss on one tape
and differentiates it with ``Tape.backward``; the two must agree, and the
oracle itself is checked against central differences.
"""

import numpy as np
import pytest

from minmax_fbsde import autodiff as ad
from minmax_fbsde import fbsde, gradcheck, neural, training
from minmax_fbsde.autodiff import Tape, finite_difference_check
from minmax_fbsde.config import build_runtime, default_config
from reference import feedback_controls, lstm_stack, mul, taped_gradients, total


def runtime(system, mode, steps=10):
    cfg = default_config(system)
    cfg.mode = mode
    cfg.train.steps = steps
    cfg.train.horizon = steps * 0.02
    setup = build_runtime(cfg)
    store = training.init_store(setup.system, setup.train)
    rng = np.random.default_rng(4)
    store.y0[:] = 0.4
    store.z0[:] = rng.normal(size=store.z0.shape)  # the controls act from the first step
    return setup, store


def step(setup, store, batch, seed=5, iteration=2, **kw):
    return training.training_step(store, setup.system, setup.costs, setup.grid, batch, seed,
                                  iteration, setup.train.mode, **kw)


def oracle(setup, store, noise):
    return taped_gradients(store, setup.system, setup.costs, setup.grid, noise, setup.train.mode)


def assert_gradients_match(grads, expected, rel=1e-12):
    assert list(grads) == list(expected)
    for name, g in expected.items():
        assert grads[name].shape == g.shape, name
        scale = max(1e-300, float(np.max(np.abs(g))))
        assert np.max(np.abs(grads[name] - g)) <= rel * scale, name


CASES = [(system, mode) for system in ("pendulum", "quadcopter", "lq")
         for mode in ("minmax", "baseline")]


class TestAgainstTape:
    @pytest.mark.parametrize("system,mode", CASES)
    def test_loss_bit_equal_and_gradients_match(self, system, mode):
        setup, store = runtime(system, mode)
        result = step(setup, store, 6)
        noise = fbsde.sample_noise(5, fbsde.PURPOSE_TRAIN, 2, 6, setup.grid.steps, setup.system.m)
        batch, loss, grads = oracle(setup, store, noise)
        assert result.loss == loss
        assert_gradients_match(result.grads, grads)
        for key in ("states", "values", "z_grads", "terminal_targets"):
            assert np.array_equal(getattr(result.batch, key), getattr(batch, key)), key
        # the oracle applies u* and v* step by step; the batch keeps only z
        derived = feedback_controls(result.batch.z_grads, setup.system, setup.costs, mode)
        for got, want in zip(derived, (batch.controls, batch.adversary_controls)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("system", ["pendulum", "quadcopter", "lq"])
    def test_matches_after_divergence_rebuild(self, system, monkeypatch):
        setup, store = runtime(system, "minmax")
        steps, m = setup.grid.steps, setup.system.m
        clean = fbsde.sample_noise(5, fbsde.PURPOSE_TRAIN, 2, 10, steps, m)
        poisoned = clean.copy()
        poisoned[3, :, 2] = np.inf
        poisoned[6, :, 7] = np.nan
        monkeypatch.setattr(fbsde, "sample_noise", lambda *args: poisoned)
        result = step(setup, store, 10, divergence_tolerance=0.2)
        assert result.diverged == 2
        assert result.batch.batch_size == 8

        keep = np.ones(10, dtype=bool)
        keep[[2, 7]] = False
        _, loss, grads = oracle(setup, store, clean[:, :, keep])
        assert result.loss == loss
        assert_gradients_match(result.grads, grads)

    def test_single_step_horizon(self):
        # the only LSTM pass feeds nothing: its weights get no gradient but decay
        setup, store = runtime("pendulum", "minmax", steps=1)
        result = step(setup, store, 4)
        noise = fbsde.sample_noise(5, fbsde.PURPOSE_TRAIN, 2, 4, 1, setup.system.m)
        _, loss, grads = oracle(setup, store, noise)
        assert result.loss == loss
        assert_gradients_match(result.grads, grads)


class TestOracle:
    """The taped oracle itself, against central differences."""

    def test_predictor_matches_central_differences(self):
        # both cells and the read-out, with every weight, the input and the
        # carried states perturbed (hidden size 5, input size 3, batch 4)
        hidden, input_dim, batch = 5, 3, 4
        rng = np.random.default_rng(3)
        net0 = neural.init_net(input_dim, hidden, 2, rng)
        shapes = dict(zip(training.PARAM_NAMES, (a.shape for a in net0.arrays())))
        shapes.update(x=(input_dim, batch), h1=(hidden, batch), c1=(hidden, batch),
                      h2=(hidden, batch), c2=(hidden, batch))

        def f(vec):
            tape = Tape()
            *weights, x, h1, c1, h2, c2 = leaves = [tape.leaf(view) for _, view
                                                    in training._views(vec, shapes)]
            z, _ = lstm_stack(weights, x, ((h1, c1), (h2, c2)))
            scalar = total(mul(z, gradcheck._weights(z.shape)))
            grads = tape.backward(scalar, leaves)
            return float(scalar.value[0, 0]), np.concatenate([g.ravel() for g in grads])

        point = rng.uniform(-0.8, 0.8, size=sum(r * c for r, c in shapes.values()))
        assert finite_difference_check(f, point) < gradcheck.TOLERANCE

        # and on arrays it is the solver's predictor, bit for bit
        *weights, x, h1, c1, h2, c2 = [v for _, v in training._views(point, shapes)]
        state = ((h1, c1), (h2, c2))
        z_ref, state_ref = lstm_stack(weights, x, state)
        z, new_state = neural.lstm_stack_forward(neural.NetParams.of(weights), x, state)
        assert np.array_equal(z, z_ref)
        for got, want in zip(sum(new_state, ()), sum(state_ref, ())):
            assert np.array_equal(got, want)

    def test_rollout_loss_matches_central_differences(self):
        # the audit's training step, differentiated on the tape
        sys, costs, grid, batch, seed, store = gradcheck.audit_problem()
        noise = fbsde.sample_noise(seed, fbsde.PURPOSE_TRAIN, 0, batch, grid.steps, sys.m)

        def f(vec):
            _, loss, grads = taped_gradients(training.ParamStore(vec, store.shapes), sys, costs,
                                             grid, noise, "minmax")
            return loss, np.concatenate([g.ravel() for g in grads.values()])

        assert finite_difference_check(f, store.theta, step=1e-5) < gradcheck.TOLERANCE


class TestLossHead:
    @pytest.mark.parametrize("steps", [3, 12])
    def test_tape_holds_only_the_loss_head(self, steps):
        setup, store = runtime("quadcopter", "minmax", steps=steps)
        result = step(setup, store, 4)
        handles = result.batch.handles
        assert isinstance(handles.tape, Tape)
        # 10 leaves (g(x_T), y_T and eight weight arrays), the loss and the
        # weight decay: independent of the number of steps
        assert len(handles.tape) == 33
        assert np.array_equal(handles.y_terminal.value, result.batch.values[-1])
        assert np.array_equal(handles.y_star.value, result.batch.terminal_targets)

    @pytest.mark.parametrize("iterations", [1, 2])
    def test_terminal_cost_evaluated_once_per_step(self, monkeypatch, iterations):
        # installed by setattr on the instance, as the benchmark's tracer does
        setup, store = runtime("pendulum", "minmax", steps=3)
        calls = []
        terminal_expr = setup.costs.terminal_expr

        def counted(x):
            calls.append(x.shape)
            return terminal_expr(x)

        monkeypatch.setattr(setup.costs, "terminal_expr", counted)
        for k in range(iterations):
            step(setup, store, 4, iteration=k)
        assert calls == [(setup.system.n, 4)] * iterations


class TestSaving:
    def test_values_unchanged_and_log_in_call_order(self):
        setup, store = runtime("pendulum", "minmax", steps=4)
        plain = fbsde.rollout_batch(store, setup.system, setup.costs, setup.grid, 5, 1)
        with ad.saving() as saved:
            logged = fbsde.rollout_batch(store, setup.system, setup.costs, setup.grid, 5, 1)
        for key in ("states", "values", "z_grads", "terminal_targets"):
            assert np.array_equal(getattr(plain, key), getattr(logged, key)), key
        step_ops = [ad.COLUMN_MAP, ad.COLUMN_MAP, ad.FBSDE_STEP, ad.LSTM_CELL, ad.LSTM_CELL,
                    ad.AFFINE]
        expected = step_ops * 4 + [ad.COLUMN_MAP]
        logged = [prim for prim, _, _ in saved]
        assert [prim.name for prim in logged] == [prim.name for prim in expected]
        assert all(prim is op for prim, op in zip(logged, expected))

    @staticmethod
    def logged_bytes(saved, batch) -> int:
        """Bytes of the distinct arrays that own what the log's values and
        saved tuples reference, each owner counted once, beyond the arrays
        that ``batch`` returns anyway."""
        owners = {}

        def visit(obj):
            if isinstance(obj, np.ndarray):
                while isinstance(obj.base, np.ndarray):
                    obj = obj.base
                owners[id(obj)] = obj.nbytes
            elif isinstance(obj, tuple):
                for item in obj:
                    visit(item)

        for _, vals, kept in saved:
            visit((vals, kept))
        for record in vars(batch).values():
            if isinstance(record, np.ndarray):
                owners.pop(id(record), None)
        return sum(owners.values())

    @pytest.mark.parametrize("system,steps,batch,budget", [
        ("pendulum", 4, 5, 114_688),
        ("quadcopter", 3, 4, 384_680),
    ], ids=["pendulum", "quadcopter"])
    def test_log_byte_budget(self, system, steps, batch, budget):
        # a cell saves c', a view of its own value, not tanh c': with one
        # (h, M) array more per cell the log would hold 2 N h M 8 bytes more.
        # Every step reads x, y and z from the record rows, so the log keeps
        # no copy of a state, value or z of its own
        setup, store = runtime(system, "minmax", steps=steps)
        with ad.saving() as saved:
            record = fbsde.rollout_batch(store, setup.system, setup.costs, setup.grid, batch, 1)
        assert self.logged_bytes(saved, record) == budget
        layout = fbsde._STEP_OPS
        for t in range(steps):
            cost, drift, step, cell1 = (vals for _, vals, _ in saved[t * len(layout):][:4])
            for x in (cost[0], drift[0], step[0]):
                assert np.shares_memory(x, record.states[t])
            assert np.shares_memory(step[1], record.values[t])
            assert np.shares_memory(step[2], record.z_grads[t])
            assert np.shares_memory(cell1[3], record.states[t + 1])
        assert np.shares_memory(saved[-1][1][0], record.states[steps])
        cells = [(vals, kept) for prim, vals, kept in saved if prim is ad.LSTM_CELL]
        # each layer's cell feeds its value [h'; c'] to that layer's next cell
        for (_, (_, c_new, _)), (vals, _) in zip(cells, cells[2:]):
            assert np.shares_memory(c_new, vals[5]) and np.array_equal(c_new, vals[5])
        value, (_, c_new, _) = ad.LSTM_CELL.kernel(cells[0][0], None)
        assert np.shares_memory(c_new, value) and np.array_equal(c_new, value[len(c_new):])

    def test_logs_nothing_outside_the_block(self):
        with ad.saving() as saved:
            pass
        ad.affine(np.ones((2, 3)), np.ones((3, 4)), np.ones((2, 1)))
        assert saved == []

    def test_blocks_do_not_nest(self):
        with ad.saving():
            with pytest.raises(RuntimeError, match="nest"):
                with ad.saving():
                    pass
        with ad.saving() as saved:  # the failed attempt left no block open
            pass
        assert saved == []

    def test_adjoint_rejects_a_composed_drift(self):
        # a drift written in plain NumPy logs no column_map, so the log does
        # not have the layout the adjoint reads
        setup, store = runtime("pendulum", "minmax", steps=3)

        def composed(X):
            return np.vstack((X[1:2], np.sin(X[0:1]) * -9.81))

        setup.system.drift = composed
        with pytest.raises(ValueError, match="column_map"):
            step(setup, store, 4)


class TestPacking:
    """``autodiff.pack_lstm`` runs once per layer and rollout, never per cell,
    and a packed copy never outlives the weights it was made from."""

    @staticmethod
    def count_packs(monkeypatch):
        calls = []
        original = ad.pack_lstm

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(ad, "pack_lstm", counted)
        return calls

    def test_packs_per_rollout_independent_of_steps(self, monkeypatch):
        calls = self.count_packs(monkeypatch)
        counts = {}
        for steps in (3, 12):
            setup, store = runtime("pendulum", "minmax", steps=steps)
            del calls[:]
            fbsde.rollout_batch(store, setup.system, setup.costs, setup.grid, 4, 1)
            counts[steps, "rollout"] = len(calls)
            del calls[:]
            step(setup, store, 4)
            counts[steps, "training step"] = len(calls)
        # one pack per layer: the training step's adjoint reuses the rollout's
        assert counts == {(3, "rollout"): 2, (12, "rollout"): 2,
                          (3, "training step"): 2, (12, "training step"): 2}

    def test_next_step_uses_the_updated_weights(self):
        setup, store = runtime("pendulum", "minmax", steps=6)
        first = step(setup, store, 5, iteration=0)
        neural.adam_step(store.adam, store.named_parameters(), first.grads)
        after = step(setup, store, 5, iteration=1)
        rebuilt = training.ParamStore(store.theta.copy(), store.shapes)
        fresh = step(setup, rebuilt, 5, iteration=1)
        assert after.loss == fresh.loss
        for name, g in fresh.grads.items():
            assert np.array_equal(after.grads[name], g), name
        # and the step did move: the update reached the rollout
        stale = step(setup, store, 5, iteration=0)
        assert stale.loss != first.loss


class TestFolding:
    """``autodiff.fold_step`` folds the step constants once per rollout,
    never per Euler step, and the adjoint reuses the rollout's fold."""

    def test_folds_per_rollout_independent_of_steps(self, monkeypatch):
        folds = []
        original = ad.fold_step

        def counted(*args):
            folds.append(original(*args))
            return folds[-1]

        monkeypatch.setattr(ad, "fold_step", counted)
        counts = {}
        for steps in (3, 12):
            setup, store = runtime("pendulum", "minmax", steps=steps)
            del folds[:]
            with ad.saving() as saved:
                fbsde.rollout_batch(store, setup.system, setup.costs, setup.grid, 4, 1)
            counts[steps, "rollout"] = len(folds)
            logged = [aux[0] for prim, _, aux in saved if prim is ad.FBSDE_STEP]
            assert len(logged) == steps and all(fold is folds[0] for fold in logged)
            del folds[:]
            step(setup, store, 4)
            counts[steps, "training step"] = len(folds)
        assert counts == {(3, "rollout"): 1, (12, "rollout"): 1,
                          (3, "training step"): 1, (12, "training step"): 1}
