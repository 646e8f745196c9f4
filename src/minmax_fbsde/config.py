"""Experiment configuration: YAML files plus dotted-path overrides resolve
into one fully-defaulted, validated ExperimentConfig. Unknown keys are
rejected with the offending dotted path. The resolved config serializes next
to every output so any run can be reproduced from its artifacts alone.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import re
from dataclasses import dataclass, field, asdict
from typing import Any

import numpy as np
import yaml

from .fbsde import HorizonGrid
from .systems import (
    NOISE_PRESETS,
    SYSTEM_FACTORIES,
    CostSpec,
    SystemModel,
    make_system,
)
from .training import TrainConfig


class ConfigError(ValueError):
    """Invalid configuration; the message names the dotted key path."""


class _Loader(yaml.SafeLoader):
    """PyYAML's safe loader that also reads ``1e6`` and ``5e-1`` as floats;
    the YAML 1.1 rules it follows otherwise require a dot in every float."""


_Loader.add_implicit_resolver("tag:yaml.org,2002:float",
                              re.compile(r"^[-+]?[0-9]+(?:\.[0-9]+)?[eE][-+]?[0-9]+$"),
                              list("-+0123456789"))


@dataclass
class CostSection:
    running_weights: list[float] = field(default_factory=list)
    terminal_weights: list[float] = field(default_factory=list)
    control_weight: Any = 1.0  # scalar or per-channel list
    epsilon: float = 1.0
    beta: float = 0.8
    weight_decay: float = 1e-4


@dataclass
class TrainSection:
    iterations: int = 3000
    batch_size: int = 128
    horizon: float = 1.5
    steps: int = 75
    hidden_size: int = 16
    learning_rate: float = 1e-3
    divergence_tolerance: float = 0.1


@dataclass
class EvalSection:
    batch_size: int = 128
    seed: int = 1234
    checkpoint: Any = None  # default: <out>/checkpoint.ckpt


@dataclass
class SweepSection:
    epsilons: list[float] = field(default_factory=list)


@dataclass
class ExperimentConfig:
    system: str = "pendulum"
    mode: str = "minmax"
    noise: Any = "low"  # preset name or explicit scale
    seed: int = 0
    workers: int = 1  # accepted for existing configs; rollouts are serial, so only 1
    out: str = "runs/pendulum"
    cost: CostSection = field(default_factory=CostSection)
    train: TrainSection = field(default_factory=TrainSection)
    eval: EvalSection = field(default_factory=EvalSection)
    sweep: SweepSection = field(default_factory=SweepSection)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_yaml(self) -> str:
        return yaml.safe_dump(self.to_dict(), sort_keys=True)


SYSTEM_DEFAULTS: dict[str, dict] = {
    "pendulum": {
        "noise": "low",
        "out": "runs/pendulum",
        "cost": {
            "running_weights": [1.0, 0.1],
            "terminal_weights": [100.0, 10.0],
            "control_weight": 0.1,
            "epsilon": 1.0,
        },
        "train": {"iterations": 3000, "batch_size": 128, "horizon": 1.5, "steps": 75,
                  "hidden_size": 16},
        # grid brackets the well-posedness threshold eps = R_u sigma^2 so the
        # smallest value demonstrates adversary takeover
        "sweep": {"epsilons": [0.0005, 0.005, 0.05, 0.5, 5.0, 50.0]},
    },
    "quadcopter": {
        "noise": "low",
        "out": "runs/quadcopter",
        "cost": {
            "running_weights": [2.0, 2.0, 2.0, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.05, 0.05, 0.05],
            "terminal_weights": [100.0, 100.0, 100.0, 5.0, 5.0, 5.0, 10.0, 10.0, 10.0, 1.0, 1.0, 1.0],
            "control_weight": [1.0, 1.0, 1.0, 1.0],
            "epsilon": 1.0,
        },
        "train": {"iterations": 4000, "batch_size": 128, "horizon": 2.0, "steps": 100,
                  "hidden_size": 32},
        "sweep": {"epsilons": [0.02, 0.2, 2.0, 20.0, 200.0]},
    },
    "lq": {
        "noise": 0.2,
        "out": "runs/lq",
        "cost": {
            "running_weights": [1.0, 0.1],
            "terminal_weights": [10.0, 1.0],
            "control_weight": 1.0,
            "epsilon": 1e6,
            # pure per-sample consistency: its minimizer is the value
            # function itself, which is what the oracle comparison checks
            "beta": 1.0,
            "weight_decay": 1e-5,
        },
        "train": {"iterations": 2000, "batch_size": 64, "horizon": 1.0, "steps": 50,
                  "hidden_size": 16, "learning_rate": 1e-2},
        "eval": {"batch_size": 256},
        "sweep": {"epsilons": []},
    },
}


def default_config(system: str = "pendulum") -> ExperimentConfig:
    if system not in SYSTEM_FACTORIES:
        raise ConfigError(f"system: unknown system {system!r}; "
                          f"expected one of {sorted(SYSTEM_FACTORIES)}")
    cfg = ExperimentConfig(system=system)
    _merge_into(cfg, SYSTEM_DEFAULTS[system], path="")
    return cfg


_SECTIONS = {"cost": CostSection, "train": TrainSection, "eval": EvalSection,
             "sweep": SweepSection}


def _merge_into(cfg, data: dict, path: str) -> None:
    for key, value in data.items():
        dotted = f"{path}{key}"
        if not hasattr(cfg, key):
            raise ConfigError(f"{dotted}: unknown configuration key")
        if key in _SECTIONS and path == "":
            if not isinstance(value, dict):
                raise ConfigError(f"{dotted}: expected a mapping")
            _merge_into(getattr(cfg, key), value, path=f"{dotted}.")
        else:
            setattr(cfg, key, value)


def _set_dotted(tree: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = tree
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"{dotted}: cannot descend into non-mapping")
    if value != {} or not isinstance(node.get(parts[-1]), dict):
        # an empty mapping adds nothing to a section, but still names its key
        node[parts[-1]] = value


def parse_overrides(pairs: list[str]) -> dict:
    tree: dict = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not of the form key=value")
        key, _, raw = pair.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"override {pair!r} has an empty key")
        try:
            value = yaml.load(raw, Loader=_Loader)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{key}: unparseable value {raw!r} ({exc})") from exc
        _set_dotted(tree, key, value)
    return tree


def parse_config(path: str | None = None, overrides: list[str] | None = None) -> ExperimentConfig:
    """Load YAML (if given), apply dotted overrides, fill per-system defaults,
    validate. An empty file plus ``system=pendulum`` yields the full
    defaulted pendulum config."""
    data: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                loaded = yaml.load(fh, Loader=_Loader)
        except OSError as exc:
            raise ConfigError(f"config file {path}: {exc.strerror or exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(
                f"config file {path}: not UTF-8 text (byte {exc.start}: {exc.reason})"
            ) from exc
        except yaml.YAMLError as exc:
            detail = " ".join(str(exc).split())
            raise ConfigError(f"config file {path}: invalid YAML: {detail}") from exc
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must contain a mapping")
        data = loaded
    for dotted, value in _flatten(parse_overrides(overrides or [])):
        _set_dotted(data, dotted, value)

    system = data.get("system", "pendulum")
    if not isinstance(system, str):
        raise ConfigError(f"system: expected a name string, got {system!r}")
    cfg = default_config(system)
    _merge_into(cfg, data, path="")
    validate_config(cfg)
    return cfg


def _flatten(tree: dict, prefix: str = ""):
    for key, value in tree.items():
        dotted = f"{prefix}{key}"
        if isinstance(value, dict) and value:
            yield from _flatten(value, prefix=f"{dotted}.")
        else:
            yield dotted, value


def _require(cond: bool, dotted: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{dotted}: {message}")


def _num(value, dotted: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             dotted, f"expected a number, got {value!r}")
    value = float(value)
    _require(math.isfinite(value), dotted, f"expected a finite number, got {value!r}")
    return value


def _int(value, dotted: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool),
             dotted, f"expected an integer, got {value!r}")
    return value


def _numlist(value, dotted: str) -> list[float]:
    _require(isinstance(value, (list, tuple)), dotted,
             f"expected a list of numbers, got {value!r}")
    return [_num(v, f"{dotted}[{i}]") for i, v in enumerate(value)]


def validate_config(cfg: ExperimentConfig) -> None:
    """Check every setting, naming the first bad one by its dotted key, and
    store each float-typed setting as a float, so ``beta: 1`` and
    ``beta: 1.0`` are one config, one ``config.yaml`` and one fingerprint.
    Integer settings refuse a float such as ``3.0``."""
    _require(cfg.system in SYSTEM_FACTORIES, "system",
             f"unknown system {cfg.system!r}; expected one of {sorted(SYSTEM_FACTORIES)}")
    dims = SYSTEM_FACTORIES[cfg.system]()  # n and p, as the one definition fixes them
    _require(cfg.mode in ("minmax", "baseline"), "mode",
             f"expected minmax or baseline, got {cfg.mode!r}")
    if isinstance(cfg.noise, str):
        _require(cfg.noise in NOISE_PRESETS, "noise",
                 f"unknown preset {cfg.noise!r}; presets: {sorted(NOISE_PRESETS)}")
    else:
        cfg.noise = _num(cfg.noise, "noise")
        _require(cfg.noise >= 0, "noise", "scale must be >= 0")
    _require(_int(cfg.seed, "seed") >= 0, "seed", "must be >= 0")
    _require(_int(cfg.workers, "workers") == 1, "workers",
             f"must be 1, got {cfg.workers}: the batch runs serially")
    _require(isinstance(cfg.out, str) and cfg.out, "out", "must be a non-empty path")

    c = cfg.cost
    for key in ("running_weights", "terminal_weights"):
        weights = _numlist(getattr(c, key), f"cost.{key}")
        _require(all(w >= 0 for w in weights), f"cost.{key}", "weights must be >= 0")
        _require(len(weights) == dims.n, f"cost.{key}",
                 f"expected {dims.n} entries for {cfg.system}, got {len(weights)}")
        setattr(c, key, weights)
    if isinstance(c.control_weight, (list, tuple)):
        c.control_weight = _numlist(c.control_weight, "cost.control_weight")
        _require(all(w > 0 for w in c.control_weight), "cost.control_weight", "entries must be > 0")
        _require(len(c.control_weight) == dims.p, "cost.control_weight",
                 f"expected {dims.p} entries, got {len(c.control_weight)}")
    else:
        c.control_weight = _num(c.control_weight, "cost.control_weight")
        _require(c.control_weight > 0, "cost.control_weight", "must be > 0")
    c.epsilon = _num(c.epsilon, "cost.epsilon")
    _require(c.epsilon > 0, "cost.epsilon", "must be > 0")
    c.beta = _num(c.beta, "cost.beta")
    _require(0.0 <= c.beta <= 1.0, "cost.beta", "must lie in [0, 1]")
    c.weight_decay = _num(c.weight_decay, "cost.weight_decay")
    _require(c.weight_decay >= 0, "cost.weight_decay", "must be >= 0")

    t = cfg.train
    _require(_int(t.iterations, "train.iterations") >= 1, "train.iterations", "must be >= 1")
    _require(_int(t.batch_size, "train.batch_size") >= 1, "train.batch_size", "must be >= 1")
    t.horizon = _num(t.horizon, "train.horizon")
    _require(t.horizon > 0, "train.horizon", "must be > 0")
    _require(_int(t.steps, "train.steps") >= 1, "train.steps", "must be >= 1")
    _require(_int(t.hidden_size, "train.hidden_size") >= 1, "train.hidden_size", "must be >= 1")
    t.learning_rate = _num(t.learning_rate, "train.learning_rate")
    _require(t.learning_rate > 0, "train.learning_rate", "must be > 0")
    t.divergence_tolerance = _num(t.divergence_tolerance, "train.divergence_tolerance")
    _require(0 <= t.divergence_tolerance <= 1, "train.divergence_tolerance", "must lie in [0, 1]")

    e = cfg.eval
    _require(_int(e.batch_size, "eval.batch_size") >= 2, "eval.batch_size", "must be >= 2")
    _require(_int(e.seed, "eval.seed") >= 0, "eval.seed", "must be >= 0")
    if e.checkpoint is not None:
        _require(isinstance(e.checkpoint, str), "eval.checkpoint", "must be a path or null")

    s = cfg.sweep
    s.epsilons = _numlist(s.epsilons, "sweep.epsilons")
    for i, eps in enumerate(s.epsilons):
        _require(eps > 0, f"sweep.epsilons[{i}]", "must be > 0")


def override(cfg: ExperimentConfig, mode: str | None = None,
             epsilon: float | None = None, **tops) -> ExperimentConfig:
    """Deep-copied config with the given fields replaced."""
    new = copy.deepcopy(cfg)
    if mode is not None:
        new.mode = mode
    if epsilon is not None:
        new.cost.epsilon = float(epsilon)
    for key, value in tops.items():
        if not hasattr(new, key):
            raise ConfigError(f"{key}: unknown configuration key")
        setattr(new, key, value)
    validate_config(new)
    return new


def model_fingerprint(cfg: ExperimentConfig) -> str:
    """Short hash of everything that defines a trained model: system, noise,
    mode, seed, the cost section and the whole train section (architecture,
    grid and budget). The system's constants are not settings: they live in
    its factory in ``systems.py``, whose source the checkpoint's ``source``
    covers. This is a checkpoint's ``config_hash``, so ``eval`` and
    ``training.train_or_load`` refuse a model trained under other settings.
    ``out``, ``workers``, ``eval.*`` and ``sweep.*`` do not enter it. Numbers
    enter as ``validate_config`` stores them, so ``1`` and ``1.0`` agree."""
    payload = {
        "system": cfg.system,
        "noise": cfg.noise,
        "mode": cfg.mode,
        "seed": cfg.seed,
        "cost": asdict(cfg.cost),
        "train": asdict(cfg.train),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


@dataclass
class RuntimeSetup:
    """Everything the solver needs, assembled from one ExperimentConfig."""

    system: SystemModel
    costs: CostSpec
    grid: HorizonGrid
    train: TrainConfig
    eval_batch: int
    eval_seed: int
    workers: int  # always 1
    model_hash: str
    out: str
    checkpoint_path: str


def build_runtime(cfg: ExperimentConfig) -> RuntimeSetup:
    validate_config(cfg)
    sys = make_system(cfg.system, noise=cfg.noise)
    cw = cfg.cost.control_weight
    if isinstance(cw, (list, tuple)):
        r_u = np.asarray(cw, dtype=np.float64)
    else:
        r_u = np.full(sys.p, float(cw))

    costs = CostSpec(
        running_weights=np.asarray(cfg.cost.running_weights, dtype=np.float64),
        terminal_weights=np.asarray(cfg.cost.terminal_weights, dtype=np.float64),
        target=sys.target,
        r_u=r_u,
        epsilon=float(cfg.cost.epsilon),
        beta=float(cfg.cost.beta),
        weight_decay=float(cfg.cost.weight_decay),
        angle_dims=sys.angle_dims,
    )
    grid = HorizonGrid(0.0, float(cfg.train.horizon), int(cfg.train.steps))
    train = TrainConfig(
        iterations=cfg.train.iterations,
        batch_size=cfg.train.batch_size,
        grid=grid,
        mode=cfg.mode,
        seed=cfg.seed,
        hidden_size=cfg.train.hidden_size,
        learning_rate=cfg.train.learning_rate,
        workers=cfg.workers,
        divergence_tolerance=cfg.train.divergence_tolerance,
    )
    ckpt = cfg.eval.checkpoint or f"{cfg.out}/checkpoint.ckpt"
    return RuntimeSetup(
        system=sys,
        costs=costs,
        grid=grid,
        train=train,
        eval_batch=cfg.eval.batch_size,
        eval_seed=cfg.eval.seed,
        workers=cfg.workers,
        model_hash=model_fingerprint(cfg),
        out=cfg.out,
        checkpoint_path=ckpt,
    )
