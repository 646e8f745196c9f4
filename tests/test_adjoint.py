"""The training step's adjoint against the taped oracle.

``training.training_step`` rolls the batch out tape-free, tapes only the
loss head and carries the cotangents back with ``fbsde.rollout_adjoint``.
``gradcheck.taped_gradients`` records the same rollout and loss on one tape
and differentiates it with ``Tape.backward``; the two must agree.
"""

import numpy as np
import pytest

from minmax_fbsde import autodiff as ad
from minmax_fbsde import fbsde, gradcheck, neural, training
from minmax_fbsde.autodiff import Tape
from minmax_fbsde.config import build_runtime, default_config


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
    return gradcheck.taped_gradients(store, setup.system, setup.costs, setup.grid, noise,
                                     setup.train.mode)


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


class TestLossHead:
    @pytest.mark.parametrize("steps", [3, 12])
    def test_tape_holds_only_the_loss_head(self, steps):
        setup, store = runtime("quadcopter", "minmax", steps=steps)
        result = step(setup, store, 4)
        handles = result.batch.handles
        assert isinstance(handles.tape, Tape)
        # 10 leaves (x_T, y_T and eight weight arrays), the terminal cost, the
        # loss and the weight decay: independent of the number of steps
        assert len(handles.tape) == 34
        assert np.array_equal(handles.x_terminal.value, result.batch.states[-1])
        assert np.array_equal(handles.y_terminal.value, result.batch.values[-1])
        assert np.array_equal(handles.y_star.value, result.batch.terminal_targets)


class TestSaving:
    def test_values_unchanged_and_log_in_call_order(self):
        setup, store = runtime("pendulum", "minmax", steps=4)
        plain = fbsde.rollout_batch(store, setup.system, setup.costs, setup.grid, 5, 1)
        with ad.saving() as saved:
            logged = fbsde.rollout_batch(store, setup.system, setup.costs, setup.grid, 5, 1)
        for key in ("states", "values", "z_grads", "controls", "terminal_targets"):
            assert np.array_equal(getattr(plain, key), getattr(logged, key)), key
        step_ops = ["column_map", "column_map", "fbsde_step", "lstm_cell", "lstm_cell", "affine"]
        assert [op for op, _, _ in saved] == step_ops * 4 + ["column_map"]

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
        # a drift spelled out in element-wise primitives logs no column_map,
        # so the log does not have the layout the adjoint reads
        setup, store = runtime("pendulum", "minmax", steps=3)

        def composed(X, t=0.0):
            return ad.vstack((ad.rows(X, 1, 2), ad.smul(ad.sin(ad.rows(X, 0, 1)), -9.81)))

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

        def counted(c):
            folds.append(original(c))
            return folds[-1]

        monkeypatch.setattr(ad, "fold_step", counted)
        counts = {}
        for steps in (3, 12):
            setup, store = runtime("pendulum", "minmax", steps=steps)
            del folds[:]
            with ad.saving() as saved:
                fbsde.rollout_batch(store, setup.system, setup.costs, setup.grid, 4, 1)
            counts[steps, "rollout"] = len(folds)
            logged = [aux[0] for op, _, aux in saved if op == "fbsde_step"]
            assert len(logged) == steps and all(fold is folds[0] for fold in logged)
            del folds[:]
            step(setup, store, 4)
            counts[steps, "training step"] = len(folds)
        assert counts == {(3, "rollout"): 1, (12, "rollout"): 1,
                          (3, "training step"): 1, (12, "training step"): 1}
