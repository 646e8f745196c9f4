"""Min-max FBSDE solver.

Numerical solution of risk-sensitive stochastic optimal control problems by
propagating coupled forward-backward stochastic differential equations under
importance sampling, with a recurrent network predicting the value gradient
along each trajectory. Training the controller plays a zero-sum game against
a worst-case disturbance; at test time only the learned feedback runs.
"""

__version__ = "0.1.0"

from .autodiff import Tape, Var, finite_difference_check
from .config import ExperimentConfig, build_runtime, default_config, parse_config
from .evaluation import (
    EvalReport,
    LqBenchmark,
    evaluate,
    epsilon_sweep,
    riccati_oracle,
    task_success,
    total_state_variance,
)
from .fbsde import HorizonGrid, RolloutBatch, optimal_controls, rollout_batch
from .systems import CostSpec, SystemModel, lq_double_integrator, make_system, pendulum, quadcopter
from .training import (
    ParamStore,
    TrainConfig,
    TrainingDiverged,
    load_checkpoint,
    save_checkpoint,
    train,
    training_step,
)

__all__ = [
    "__version__",
    "Tape",
    "Var",
    "finite_difference_check",
    "ExperimentConfig",
    "build_runtime",
    "default_config",
    "parse_config",
    "EvalReport",
    "LqBenchmark",
    "evaluate",
    "epsilon_sweep",
    "riccati_oracle",
    "task_success",
    "total_state_variance",
    "HorizonGrid",
    "RolloutBatch",
    "optimal_controls",
    "rollout_batch",
    "CostSpec",
    "SystemModel",
    "lq_double_integrator",
    "make_system",
    "pendulum",
    "quadcopter",
    "ParamStore",
    "TrainConfig",
    "TrainingDiverged",
    "load_checkpoint",
    "save_checkpoint",
    "train",
    "training_step",
]
