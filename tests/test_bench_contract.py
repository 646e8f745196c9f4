"""The solver surface that ``bench/run.py`` relies on, at a tiny size.

The benchmark calls ``training_step`` with ``workers`` and
``divergence_tolerance``, reads ``result.batch.handles.tape``, recomputes
the loss with ``fbsde.training_loss`` and, with ``--trace 1``, wraps public
entry points by ``setattr`` on their module, class or instance. It exits 3
when a wrapped layer of a workload's map (training or evaluation) records no
call in an op, or a layer outside that map records one. These tests install
counting wrappers the same way, so a refactor that moves work off those
entry points fails here first.
"""

import math

import pytest

from minmax_fbsde import config, evaluation, fbsde, neural, training
from minmax_fbsde.autodiff import Tape

TINY = ["system=pendulum", "mode=minmax", "workers=1", "train.steps=3",
        "train.hidden_size=4", "train.batch_size=4", "seed=3"]

# (owner, attribute, layer) for the module and class entry points the
# benchmark wraps; the per-instance ones are added once the runtime exists
MODULE_ENTRY_POINTS = [
    (config, "build_runtime", "config.build_runtime"),
    (training, "save_checkpoint", "training.save_checkpoint"),
    (training, "load_checkpoint", "training.load_checkpoint"),
    (training, "training_step", "training.step"),
    (fbsde, "sample_noise", "fbsde.noise"),
    (fbsde, "rollout_batch", "fbsde.rollout"),
    (neural, "lstm_stack_forward", "neural.lstm"),
    (neural, "adam_step", "neural.adam"),
    (training.Tape, "backward", "autodiff.backward"),
    (evaluation, "evaluate", "evaluation.evaluate"),
    (evaluation, "summarize", "evaluation.summarize"),
]

# the layers one training step plus its set-up must call, and only these
TRAIN_LAYERS = {
    "config.build_runtime", "training.step", "fbsde.noise", "fbsde.rollout",
    "neural.lstm", "systems.drift", "systems.cost", "autodiff.backward", "neural.adam",
}
# the layers one evaluation plus its set-up (a checkpoint saved and loaded
# back) must call, and only these
EVAL_LAYERS = {
    "config.build_runtime", "training.save_checkpoint", "training.load_checkpoint",
    "evaluation.evaluate", "fbsde.rollout", "fbsde.noise", "neural.lstm",
    "systems.drift", "systems.cost", "evaluation.summarize",
}
SETUP_LAYERS = {"config.build_runtime", "training.save_checkpoint", "training.load_checkpoint"}


class CallCounter:
    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.calls = {}

    def patch(self, owner, attr, layer):
        original = getattr(owner, attr)
        self.calls.setdefault(layer, 0)

        def counted(*args, **kwargs):
            self.calls[layer] += 1
            return original(*args, **kwargs)

        self.monkeypatch.setattr(owner, attr, counted)


def set_up(counter=None, overrides=()):
    cfg = config.parse_config(None, [*TINY, *overrides])
    setup = config.build_runtime(cfg)
    if counter is not None:
        counter.patch(setup.system, "drift", "systems.drift")
        counter.patch(setup.costs, "running_expr", "systems.cost")
        counter.patch(setup.costs, "terminal_expr", "systems.cost")
    return setup, training.init_store(setup.system, setup.train)


def bench_step(setup, store, k=0):
    """One op of the benchmark's training workload."""
    theta_sq = store.theta_norm_sq()
    result = training.training_step(
        store, setup.system, setup.costs, setup.grid, setup.train.batch_size, setup.train.seed,
        k, setup.train.mode, workers=setup.train.workers,
        divergence_tolerance=setup.train.divergence_tolerance,
    )
    neural.adam_step(store.adam, store.named_parameters(), result.grads)
    return result, theta_sq


def test_step_result_surface():
    setup, store = set_up()
    result, theta_sq = bench_step(setup, store)
    tape = result.batch.handles.tape
    assert isinstance(tape, Tape)
    assert len(tape) > 0
    assert sum(tape.value(i).nbytes for i in range(len(tape))) > 0
    recomputed = fbsde.training_loss(result.batch, theta_sq, setup.costs.beta,
                                     setup.costs.weight_decay)
    assert math.isfinite(result.loss)
    assert abs(recomputed - result.loss) <= 1e-9 * max(1.0, abs(result.loss))
    assert result.batch.batch_size == setup.train.batch_size
    assert result.batch.diverged == 0


def test_workers_other_than_one_still_rejected():
    setup, store = set_up()
    with pytest.raises(ValueError, match="workers"):
        training.training_step(store, setup.system, setup.costs, setup.grid, 4, 3, 0,
                               setup.train.mode, workers=2, divergence_tolerance=0.1)


@pytest.mark.parametrize("steps", [1, 2])
def test_each_step_calls_every_training_layer(monkeypatch, steps):
    counter = CallCounter(monkeypatch)
    for owner, attr, layer in MODULE_ENTRY_POINTS:
        counter.patch(owner, attr, layer)
    setup, store = set_up(counter)
    after_setup = dict(counter.calls)
    for k in range(steps):
        bench_step(setup, store, k)
    per_step = {layer: counter.calls[layer] - after_setup.get(layer, 0) for layer in counter.calls}
    called = {layer for layer, n in counter.calls.items() if n}
    assert called == TRAIN_LAYERS
    for layer in TRAIN_LAYERS - {"config.build_runtime"}:
        assert per_step[layer] >= steps, layer


def eval_set_up(counter, work_dir):
    """The benchmark's evaluation set-up: a fresh model through a checkpoint."""
    setup, store = set_up(counter, ["eval.batch_size=8"])
    path = str(work_dir / "checkpoint.ckpt")
    training.save_checkpoint(store, path, seed=setup.train.seed, config_hash=setup.model_hash)
    store, manifest = training.load_checkpoint(path)
    training.validate_checkpoint(
        manifest, training.expected_shapes(setup.system, setup.train.hidden_size),
        setup.model_hash,
    )
    return setup, store


@pytest.mark.parametrize("ops", [1, 2])
def test_each_evaluation_calls_every_evaluation_layer(monkeypatch, tmp_path, ops):
    counter = CallCounter(monkeypatch)
    for owner, attr, layer in MODULE_ENTRY_POINTS:
        counter.patch(owner, attr, layer)
    setup, store = eval_set_up(counter, tmp_path)
    after_setup = dict(counter.calls)
    for k in range(ops):
        evaluation.evaluate(store, setup.system, setup.costs, setup.grid, setup.eval_batch,
                            setup.eval_seed + k, mode=setup.train.mode, adversary=False,
                            workers=setup.workers)
    per_op = {layer: counter.calls[layer] - after_setup.get(layer, 0) for layer in counter.calls}
    called = {layer for layer, n in counter.calls.items() if n}
    assert called == EVAL_LAYERS
    for layer in EVAL_LAYERS - SETUP_LAYERS:
        assert per_op[layer] >= ops, layer
