"""Training loop: adjoint-differentiated rollouts, Adam on network weights
and the trainable initial value/gradient pair, checkpointing, and a
deterministic loss history.

Every trainable parameter lives in one float64 vector θ, laid out in
``expected_shapes`` order; the network's arrays, y0 and z0 are reshaped views
of it, a step's gradient is one vector of the same layout, Adam's moments
are two more, and a checkpoint's payload is θ ‖ m ‖ v.

All stochasticity flows through counter-based streams keyed by the run seed,
so a (config, seed) pair reproduces every draw bit for bit. A step rolls the
whole batch out tape-free, samples in columns, tapes only the loss head and
backpropagates through time with ``fbsde.rollout_adjoint``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, fields
from types import SimpleNamespace
from typing import Callable

import numpy as np

from . import autodiff as ad
from . import fbsde, neural, systems
from .autodiff import Tape
from .fbsde import HorizonGrid, RolloutBatch
from .systems import CostSpec, SystemModel

CHECKPOINT_SCHEMA = "minmax-fbsde.checkpoint.v1"
LOSS_SCHEMA = "minmax-fbsde.loss-history.v1"

class TrainingDiverged(RuntimeError):
    """More than the tolerated fraction of samples went non-finite."""


@dataclass
class TrainConfig:
    iterations: int
    batch_size: int
    grid: HorizonGrid
    mode: str = "minmax"
    seed: int = 0
    hidden_size: int = 16
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    checkpoint_every: int = 500
    clip_norm: float | None = None
    forget_bias: float = 1.0
    workers: int = 1  # accepted for existing callers; only 1 is valid
    divergence_tolerance: float = 0.1

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if self.grid.steps < 1:
            raise ValueError("training needs at least one time step")
        if self.mode not in ("minmax", "baseline"):
            raise ValueError(f"mode must be 'minmax' or 'baseline', got {self.mode!r}")
        if self.workers != 1:
            raise ValueError(f"workers must be 1, got {self.workers!r}: the batch runs serially")


def expected_shapes(sys: SystemModel, hidden_size: int) -> dict[str, tuple[int, int]]:
    """Name and (rows, cols) of every trainable parameter, in the order that θ,
    Adam's moments and a checkpoint lay them out. ``sys`` needs ``n`` and ``m``."""
    h, n, m = hidden_size, sys.n, sys.m
    return {
        "lstm1.W": (4 * h, n), "lstm1.U": (4 * h, h), "lstm1.b": (4 * h, 1),
        "lstm2.W": (4 * h, h), "lstm2.U": (4 * h, h), "lstm2.b": (4 * h, 1),
        "out.W": (m, h), "out.b": (m, 1),
        "psi.y0": (1, 1), "psi.z0": (m, 1),
    }


PARAM_NAMES = tuple(expected_shapes(SimpleNamespace(n=0, m=0), 0))  # for manifests of any size


def _views(vec: np.ndarray, shapes: dict[str, tuple[int, int]]) -> list[tuple[str, np.ndarray]]:
    """(name, view) pairs that tile the flat ``vec`` in ``shapes`` order."""
    views, start = [], 0
    for name, (rows, cols) in shapes.items():
        views.append((name, vec[start : start + rows * cols].reshape(rows, cols)))
        start += rows * cols
    return views


@dataclass
class ParamStore:
    """Trainable state: the flat parameter vector ``theta`` laid out as
    ``shapes`` (``expected_shapes``), and Adam's state over it. ``net``, ``y0``
    and ``z0`` are views of ``theta``, so writing them writes θ."""

    theta: np.ndarray
    shapes: dict[str, tuple[int, int]]
    adam: neural.AdamState | None = None

    def named_parameters(self) -> list[tuple[str, np.ndarray]]:
        return _views(self.theta, self.shapes)

    @property
    def net(self) -> neural.NetParams:
        return neural.NetParams.of(a for _, a in self.named_parameters()[:-2])

    @property
    def y0(self) -> np.ndarray:  # (1, 1)
        return self.named_parameters()[-2][1]

    @property
    def z0(self) -> np.ndarray:  # (m, 1)
        return self.named_parameters()[-1][1]

    def theta_norm_sq(self) -> float:
        return float(sum(np.sum(a * a) for a in self.net.arrays()))


def init_store(sys: SystemModel, cfg: TrainConfig) -> ParamStore:
    """Seeded initialization; parameter draws use their own substream."""
    ss = np.random.SeedSequence(entropy=int(cfg.seed), spawn_key=(9, 0, 0))
    rng = np.random.Generator(np.random.Philox(ss))
    net = neural.init_net(sys.n, cfg.hidden_size, sys.m, rng, forget_bias=cfg.forget_bias)
    theta = np.concatenate([a.ravel() for a in net.arrays()] + [np.zeros(1 + sys.m)])
    adam = neural.AdamState.zeros(theta.size, lr=cfg.learning_rate, beta1=cfg.adam_beta1,
                                  beta2=cfg.adam_beta2, eps=cfg.adam_epsilon)
    return ParamStore(theta, expected_shapes(sys, cfg.hidden_size), adam)


@dataclass
class StepResult:
    loss: float
    batch: RolloutBatch
    grad: np.ndarray  # laid out like ``store.theta``
    grads: dict  # views of ``grad`` by parameter name
    diverged: int
    mean_terminal_cost: float


def _logged_rollout(store, sys, costs, grid, noise, mode):
    """One tape-free rollout over a (possibly reduced) noise block, with the
    fused calls that ``fbsde.rollout_adjoint`` reads logged."""
    with ad.saving() as saved:
        batch = fbsde.rollout_batch(
            store, sys, costs, grid, noise.shape[2], seed=0, mode=mode, noise=noise,
        )
    return batch, saved


def training_step(
    store: ParamStore,
    sys: SystemModel,
    costs: CostSpec,
    grid: HorizonGrid,
    batch_size: int,
    seed: int,
    iteration: int,
    mode: str,
    workers: int = 1,
    divergence_tolerance: float = 0.1,
) -> StepResult:
    """Roll the batch out, backpropagate the loss, return the gradients.

    The rollout runs tape-free; only the loss head (terminal cost, loss and
    weight decay) is taped, with the terminal state and value as leaves, and
    ``fbsde.rollout_adjoint`` carries its cotangents back through the steps.
    Samples that go non-finite are dropped and the rollout is rerun on the
    survivors (their noise streams are untouched by the exclusion); more than
    ``divergence_tolerance`` dead samples aborts the run. ``workers`` accepts
    only 1: the whole batch is one pass.
    """
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers!r}: the batch runs serially")
    noise = fbsde.sample_noise(seed, fbsde.PURPOSE_TRAIN, iteration, batch_size, grid.steps, sys.m)

    batch, saved = _logged_rollout(store, sys, costs, grid, noise, mode)
    diverged = batch.diverged
    if diverged:
        if diverged > divergence_tolerance * batch_size:
            raise TrainingDiverged(
                f"iteration {iteration}: {diverged}/{batch_size} samples diverged"
            )
        batch, saved = _logged_rollout(store, sys, costs, grid, noise[:, :, batch.alive], mode)
        batch.alive = np.ones(batch.batch_size, dtype=bool)

    tape = Tape()
    x_terminal = tape.leaf(batch.states[-1])
    y_terminal = tape.leaf(batch.values[-1])
    theta = [tape.leaf(arr) for arr in store.net.arrays()]
    y_star = costs.terminal_expr(x_terminal)
    loss_var = fbsde.training_loss_expr(
        y_star, y_terminal, theta, costs.beta, costs.weight_decay, batch.batch_size
    )
    loss = float(loss_var.value[0, 0])
    if not math.isfinite(loss):
        raise TrainingDiverged(f"iteration {iteration}: non-finite loss {loss!r}")
    batch.handles = fbsde.TapeHandles(tape, y_terminal, y_star, x_terminal)

    g_x, g_y, *decay = tape.backward(loss_var, [x_terminal, y_terminal, *theta])
    net_grads, g_y0, g_z0 = fbsde.rollout_adjoint(saved, g_x, g_y)
    grad = np.empty_like(store.theta)
    grads = dict(_views(grad, store.shapes))
    *net_views, y0_view, z0_view = grads.values()
    for out, g, d in zip(net_views, net_grads.arrays(), decay):
        np.add(g, d, out=out)
    y0_view[...], z0_view[...] = g_y0, g_z0
    mean_tc = float(np.mean(batch.terminal_targets))
    return StepResult(loss=loss, batch=batch, grad=grad, grads=grads, diverged=diverged,
                      mean_terminal_cost=mean_tc)


def clip_gradients(grad: np.ndarray, clip_norm: float) -> float:
    """Global-norm clipping of the flat gradient in place; returns the
    pre-clip norm."""
    norm = float(np.linalg.norm(grad))
    if norm > clip_norm > 0:
        grad *= clip_norm / norm
    return norm


@dataclass
class HistoryRow:
    iteration: int
    loss: float
    mean_terminal_cost: float
    diverged: int


def history_to_csv(history: list[HistoryRow]) -> str:
    lines = [f"# schema {LOSS_SCHEMA}", "iteration,loss,mean_terminal_cost,diverged"]
    for row in history:
        lines.append(f"{row.iteration},{row.loss!r},{row.mean_terminal_cost!r},{row.diverged}")
    return "\n".join(lines) + "\n"


def train(
    sys: SystemModel,
    costs: CostSpec,
    cfg: TrainConfig,
    out_dir: str | None = None,
    config_hash: str = "",
    progress: Callable[[HistoryRow], None] | None = None,
    store: ParamStore | None = None,
) -> tuple[ParamStore, list[HistoryRow]]:
    """Run the full optimization. Writes checkpoints and the loss history
    under ``out_dir`` when given; on divergence the last checkpoint survives.
    """
    if store is None:
        store = init_store(sys, cfg)
    history: list[HistoryRow] = []
    ckpt_path = os.path.join(out_dir, "checkpoint.ckpt") if out_dir else None
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    def flush():
        if out_dir:
            with open(os.path.join(out_dir, "loss_history.csv"), "w") as fh:
                fh.write(history_to_csv(history))

    try:
        for k in range(cfg.iterations):
            result = training_step(
                store, sys, costs, cfg.grid, cfg.batch_size, cfg.seed, k, cfg.mode,
                divergence_tolerance=cfg.divergence_tolerance,
            )
            if cfg.clip_norm:
                clip_gradients(result.grad, cfg.clip_norm)
            neural.adam_step(store.adam, store.named_parameters(), result.grads)
            row = HistoryRow(k, result.loss, result.mean_terminal_cost, result.diverged)
            history.append(row)
            if progress is not None:
                progress(row)
            if ckpt_path and cfg.checkpoint_every and (k + 1) % cfg.checkpoint_every == 0:
                save_checkpoint(store, ckpt_path, seed=cfg.seed, config_hash=config_hash)
    except (TrainingDiverged, neural.NonFiniteGradient):
        flush()
        raise
    if ckpt_path:
        save_checkpoint(store, ckpt_path, seed=cfg.seed, config_hash=config_hash)
    flush()
    return store, history


# ---------------------------------------------------------------------------
# cached training: reuse a checkpoint only if the same code trained it under
# the same settings

PROVENANCE_FILE = "provenance"


def source_hash() -> str:
    """sha256 of the source of every module that shapes the trained numbers."""
    digest = hashlib.sha256()
    for path in (ad.__file__, neural.__file__, fbsde.__file__, systems.__file__, __file__):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return digest.hexdigest()


def provenance_key(setup) -> str:
    """Hash of a runtime setup's resolved training config, costs and system,
    and of ``source_hash()``. A cached checkpoint is valid for this key only."""
    costs = {f.name: getattr(setup.costs, f.name) for f in fields(setup.costs)}
    payload = {
        "system": [setup.system.name, setup.system.params],
        "train": asdict(setup.train),
        "costs": {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in costs.items()},
        "source": source_hash(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def train_or_load(
    setup, job_dir: str, progress: Callable[[HistoryRow], None] | None = None,
) -> tuple[ParamStore, list[HistoryRow] | None]:
    """Train ``setup`` into ``job_dir``, or reuse the checkpoint found there.

    The checkpoint is reused only when the ``provenance`` file next to it
    holds ``provenance_key(setup)``, so a changed budget, cost or solver
    source retrains. ``progress`` is passed to ``train``. Returns the store
    and the loss history, which is None when the checkpoint was reused.
    """
    key = provenance_key(setup)
    ckpt = os.path.join(job_dir, "checkpoint.ckpt")
    sidecar = os.path.join(job_dir, PROVENANCE_FILE)
    try:
        with open(sidecar) as fh:
            fresh = fh.read().strip() == key
    except OSError:
        fresh = False
    if fresh:
        try:
            store, manifest = load_checkpoint(ckpt)
            validate_checkpoint(
                manifest, expected_shapes(setup.system, setup.train.hidden_size), setup.model_hash
            )
            return store, None
        except (CheckpointError, OSError):
            pass  # unreadable cache: retrain below
    os.makedirs(job_dir, exist_ok=True)
    if os.path.exists(sidecar):
        os.remove(sidecar)  # an interrupted retrain must not look finished
    store, history = train(
        setup.system, setup.costs, setup.train,
        out_dir=job_dir, config_hash=setup.model_hash, progress=progress,
    )
    with open(sidecar, "w") as fh:
        fh.write(key + "\n")
    return store, history


# ---------------------------------------------------------------------------
# checkpoints: one-line JSON manifest + flat little-endian float64 stream


def save_checkpoint(store: ParamStore, path: str, seed: int = 0, config_hash: str = "") -> None:
    manifest = {
        "schema": CHECKPOINT_SCHEMA,
        "config_hash": config_hash,
        "seed": int(seed),
        "adam": {
            "t": store.adam.t,
            "lr": store.adam.lr,
            "beta1": store.adam.beta1,
            "beta2": store.adam.beta2,
            "eps": store.adam.eps,
        },
        "entries": [
            {"name": prefix + name, "rows": int(rows), "cols": int(cols)}
            for prefix in ("", "adam.m.", "adam.v.") for name, (rows, cols) in store.shapes.items()
        ],
    }
    payload = np.concatenate([store.theta, store.adam.m, store.adam.v], dtype="<f8").tobytes()
    blob = json.dumps(manifest, sort_keys=True).encode() + b"\n" + payload
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
    os.replace(tmp, path)


class CheckpointError(ValueError):
    pass


def _manifest_entries(manifest, prefix: str = "") -> list[tuple[str, int, int]]:
    """(name, rows, cols) of every payload entry; CheckpointError if malformed."""
    entries = manifest.get("entries") if isinstance(manifest, dict) else None
    if not isinstance(entries, list):
        raise CheckpointError(f"{prefix}manifest lacks the 'entries' list")
    out = []
    for i, e in enumerate(entries):
        try:
            name, rows, cols = str(e["name"]), int(e["rows"]), int(e["cols"])
        except (KeyError, TypeError, ValueError):
            raise CheckpointError(
                f"{prefix}manifest entry {i} lacks a name, rows or cols"
            ) from None
        if rows < 0 or cols < 0:
            raise CheckpointError(f"{prefix}manifest entry {name!r} has a negative shape")
        out.append((name, rows, cols))
    return out


def load_checkpoint(path: str) -> tuple[ParamStore, dict]:
    """Rebuild a ParamStore (parameters and optimizer moments) from disk."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"checkpoint not found: {path}")
    with open(path, "rb") as fh:
        blob = fh.read()
    head, sep, payload = blob.partition(b"\n")
    if not sep:
        raise CheckpointError(f"{path}: missing manifest line")
    try:
        manifest = json.loads(head.decode())
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: malformed manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{path}: manifest is not a JSON object")
    if manifest.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"{path}: schema {manifest.get('schema')!r}, expected {CHECKPOINT_SCHEMA!r}"
        )
    entries = _manifest_entries(manifest, f"{path}: ")
    expected = sum(rows * cols for _, rows, cols in entries) * 8
    if len(payload) != expected:
        raise CheckpointError(
            f"{path}: expected {expected} payload bytes, found {len(payload)}"
        )
    params = entries[: len(PARAM_NAMES)]
    layout = [(prefix + name, rows, cols)
              for prefix in ("", "adam.m.", "adam.v.") for name, rows, cols in params]
    if [name for name, _, _ in params] != list(PARAM_NAMES) or entries != layout:
        raise CheckpointError(
            f"{path}: manifest entries are not the parameters {', '.join(PARAM_NAMES)}, "
            "then adam.m.* and adam.v.* over them, in that order"
        )
    try:
        meta = manifest["adam"]
        settings = dict(lr=float(meta["lr"]), beta1=float(meta["beta1"]),
                        beta2=float(meta["beta2"]), eps=float(meta["eps"]), t=int(meta["t"]))
    except (KeyError, TypeError, ValueError):
        raise CheckpointError(
            f"{path}: manifest lacks the optimizer state 'adam' (t, lr, beta1, beta2, eps)"
        ) from None
    theta, m, v = (np.array(part, dtype=np.float64)
                   for part in np.split(np.frombuffer(payload, dtype="<f8"), 3))
    shapes = {name: (rows, cols) for name, rows, cols in params}
    return ParamStore(theta, shapes, neural.AdamState(m, v, **settings)), manifest


def validate_checkpoint(manifest: dict, shapes: dict[str, tuple[int, int]], config_hash: str | None = None) -> None:
    """Reject a checkpoint whose shapes or config hash do not match."""
    listed = {name: (rows, cols) for name, rows, cols in _manifest_entries(manifest)}
    for name, shape in shapes.items():
        if name not in listed:
            raise CheckpointError(f"manifest lacks entry {name!r}")
        if listed[name] != shape:
            raise CheckpointError(
                f"shape mismatch for {name!r}: checkpoint {listed[name]}, expected {shape}"
            )
    if config_hash is not None and manifest.get("config_hash") not in ("", config_hash):
        raise CheckpointError(
            f"config hash mismatch: checkpoint {manifest.get('config_hash')!r}, "
            f"expected {config_hash!r}"
        )
