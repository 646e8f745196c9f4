"""Solver benchmark: training-step latency and rollout throughput.

    python3 bench/run.py --workload pendulum-train-b64 --seed 1 --seconds 34 --trace 0

Runs one workload in this process with default NumPy threading, measures for
``--seconds`` seconds and checks every op's output. The last stdout line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
the per-layer metrics with ``--trace 1``. A full record (run metadata,
metrics, and with ``--trace 1`` every span) goes to
``.bench_out/<workload>-seed<seed>-trace<trace>.json`` under the repository
root. The exit code is 1 when any output check failed, 2 when the solver
sources are missing, 3 when a traced layer recorded calls where the layer
map expects none or none where it expects some.

The solver is imported from ``src/`` of the checkout that holds this file
and is never modified: per-layer numbers come from wrapping its public
entry points (see tracing.py and README.md).
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from tracing import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
# fresh interpreters timed per run, before and after the timed phase so the
# median spans two stretches of the machine's load; setup_s is their median
SETUP_BEFORE, SETUP_AFTER = 3, 2


@dataclass(frozen=True)
class Workload:
    kind: str  # "train": training_step + adam_step; "eval": one evaluate call
    overrides: tuple[str, ...]  # config --set pairs; seed is added per run
    repeat: int  # train: steps from a fresh init_store; eval: eval seeds cycled
    warmup: int  # untimed ops before the timed phase
    layers: frozenset  # span names that must record calls; all others none


TRAIN_LAYERS = frozenset({
    "config.build_runtime", "training.step", "fbsde.noise", "fbsde.rollout",
    "neural.lstm", "systems.drift", "systems.cost", "autodiff.backward", "neural.adam",
})
EVAL_LAYERS = frozenset({
    "config.build_runtime", "training.save_checkpoint", "training.load_checkpoint",
    "evaluation.evaluate", "fbsde.rollout", "fbsde.noise", "neural.lstm",
    "systems.drift", "systems.cost", "evaluation.summarize",
})
# the reasons for each workload are in BENCHMARK.json and README.md
WORKLOADS = {
    "pendulum-train-b64": Workload(
        "train", ("system=pendulum", "train.batch_size=64"), 20, 3, TRAIN_LAYERS),
    "quadcopter-train-b128": Workload(
        "train", ("system=quadcopter", "train.batch_size=128"), 8, 3, TRAIN_LAYERS),
    "pendulum-eval-b4096": Workload(
        "eval", ("system=pendulum", "eval.batch_size=4096"), 3, 1, EVAL_LAYERS),
}
COMMON = ("mode=minmax", "workers=1")


class LayerMapError(RuntimeError):
    """A wrapped layer recorded calls that the workload's map does not expect."""


def import_solver():
    """The solver package from ``src/`` of this checkout, or exit 2."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "minmax_fbsde", "__init__.py")):
        print(f"bench: solver sources not found under {src}", file=sys.stderr)
        sys.exit(2)
    if src not in sys.path:
        sys.path.insert(0, src)
    import minmax_fbsde
    from minmax_fbsde import config, evaluation, fbsde, neural, training

    if not os.path.abspath(minmax_fbsde.__file__).startswith(src + os.sep):
        print(f"bench: imported {minmax_fbsde.__file__}, not the checkout's copy", file=sys.stderr)
        sys.exit(2)
    return config, evaluation, fbsde, neural, training


def set_up(mods, wl: Workload, seed: int, work_dir: str):
    """Runtime and parameters, as a user of the workload builds them."""
    config, _, _, _, training = mods
    cfg = config.parse_config(None, [*wl.overrides, *COMMON, f"seed={seed}", f"eval.seed={seed}"])
    setup = config.build_runtime(cfg)
    store = training.init_store(setup.system, setup.train)
    if wl.kind == "eval":
        path = os.path.join(work_dir, "checkpoint.ckpt")
        training.save_checkpoint(store, path, seed=seed, config_hash=setup.model_hash)
        store, manifest = training.load_checkpoint(path)
        training.validate_checkpoint(
            manifest, training.expected_shapes(setup.system, setup.train.hidden_size),
            setup.model_hash,
        )
    return setup, store


def setup_child(args) -> None:
    """Entry of a fresh interpreter timed by ``measure_setup_s``."""
    mods = import_solver()
    wl = Workload(args.kind, tuple(args.set), 1, 0, frozenset())
    os.makedirs(args.work, exist_ok=True)
    set_up(mods, wl, args.seed, args.work)
    print("ready", flush=True)


def measure_setup_s(wl: Workload, seed: int, work_dir: str, count: int) -> list[float]:
    """Seconds from launching a fresh interpreter until it is ready to run ops."""
    times = []
    for _ in range(count):
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-child", "--kind", wl.kind,
               "--seed", str(seed), "--work", os.path.join(work_dir, "setup")]
        cmd += [f"--set={pair}" for pair in wl.overrides + COMMON]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up child exited {code} without becoming ready")
        times.append(elapsed)
    return times


# ---------------------------------------------------------------------------
# ops


class TrainRunner:
    """One op is ``training_step`` plus ``adam_step``; every ``repeat`` steps
    the parameters restart from ``init_store(seed)``, and each step's
    loss-history row must equal the row of the same step in the first pass."""

    def __init__(self, mods, wl, setup, store, seed):
        self.mods, self.wl, self.setup, self.seed = mods, wl, setup, seed
        self.store = store
        self.batch = setup.train.batch_size
        self.k = 0
        self.reference: list = []
        self.result = None  # held until the next step ends, as training.train does

    def op(self, tracer):
        _, _, fbsde, neural, training = self.mods
        s = self.setup
        if self.k == self.wl.repeat:
            self.store = training.init_store(s.system, s.train)
            self.k = 0
        store, k = self.store, self.k
        self.k += 1
        theta_sq = store.theta_norm_sq()
        span = tracer.begin("op") if tracer else None
        t0 = time.perf_counter()
        try:
            result = training.training_step(
                store, s.system, s.costs, s.grid, self.batch, self.seed, k, s.train.mode,
                workers=s.train.workers, divergence_tolerance=s.train.divergence_tolerance,
            )
            neural.adam_step(store.adam, store.named_parameters(), result.grads)
            failure = None
        except (training.TrainingDiverged, neural.NonFiniteGradient, ValueError) as exc:
            failure = f"step {k}: {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.end(span)
        if failure:
            self.k = self.wl.repeat
            return elapsed, failure, None
        self.result = result
        row = training.HistoryRow(k, result.loss, result.mean_terminal_cost, result.diverged)
        recomputed = fbsde.training_loss(result.batch, theta_sq, s.costs.beta, s.costs.weight_decay)
        if not math.isfinite(result.loss):
            failure = f"step {k}: non-finite loss {result.loss!r}"
        elif abs(recomputed - result.loss) > 1e-9 * max(1.0, abs(result.loss)):
            failure = f"step {k}: taped loss {result.loss!r} != recomputed {recomputed!r}"
        elif k < len(self.reference) and row != self.reference[k]:
            failure = f"step {k}: loss history differs from the first pass"
        elif k == len(self.reference):
            self.reference.append(row)
        return elapsed, failure, result.batch.handles.tape

    def digest(self) -> str:
        history = self.mods[4].history_to_csv(self.reference)
        return hashlib.sha256(history.encode()).hexdigest()


class EvalRunner:
    """One op is ``evaluate`` on a fresh batch; the ``repeat`` eval seeds are
    cycled and each report must be byte-identical to the first one for its seed."""

    def __init__(self, mods, wl, setup, store, seed):
        self.mods, self.wl, self.setup, self.store = mods, wl, setup, store
        self.batch = setup.eval_batch
        self.seeds = [setup.eval_seed * wl.repeat + r for r in range(wl.repeat)]
        self.j = 0
        self.reference: dict[int, str] = {}

    def op(self, tracer):
        evaluation = self.mods[1]
        s = self.setup
        eval_seed = self.seeds[self.j % len(self.seeds)]
        self.j += 1
        span = tracer.begin("op") if tracer else None
        t0 = time.perf_counter()
        try:
            report = evaluation.evaluate(
                self.store, s.system, s.costs, s.grid, self.batch, eval_seed,
                mode=s.train.mode, adversary=False, workers=s.workers,
            )
            failure = None
        except ValueError as exc:
            failure = f"eval seed {eval_seed}: ValueError: {exc}"
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.end(span)
        if failure:
            return elapsed, failure, None
        d = report.to_dict()
        stats = ("success_rate", "total_state_variance", "mean_terminal_cost",
                 "std_terminal_cost", "mean_value_gap", "y0")
        digest = hashlib.sha256(
            (json.dumps(d, sort_keys=True) + report.trajectory_csv()).encode()
        ).hexdigest()
        if not all(math.isfinite(d[key]) for key in stats):
            failure = f"eval seed {eval_seed}: non-finite report statistic"
        elif not 0.0 <= d["success_rate"] <= 1.0 or d["batch_size"] != self.batch:
            failure = f"eval seed {eval_seed}: report out of range"
        elif d["diverged"] > 0.1 * self.batch:
            failure = f"eval seed {eval_seed}: {d['diverged']} of {self.batch} trajectories diverged"
        elif self.reference.setdefault(eval_seed, digest) != digest:
            failure = f"eval seed {eval_seed}: report differs from the first one"
        return elapsed, failure, None

    def digest(self) -> str:
        joined = ",".join(self.reference[s] for s in sorted(self.reference))
        return hashlib.sha256(joined.encode()).hexdigest()


@dataclass
class Phase:
    op_ms: list
    failures: list
    wall_s: float
    cpu_s: float
    tape_nodes: list
    tape_mb: list


def run_phase(runner, seconds: float, tracer=None) -> Phase:
    """Ops back to back (a closed loop of one caller) for ``seconds``; at least one."""
    op_ms, failures, nodes, mb = [], [], [], []
    cpu0, t0 = time.process_time(), time.perf_counter()
    while True:
        if tracer:
            tracer.op = len(op_ms)
        elapsed, failure, tape = runner.op(tracer)
        op_ms.append(1e3 * elapsed)
        if failure:
            failures.append(failure)
        if tracer and tape is not None:
            nodes.append(len(tape))
            mb.append(sum(tape.value(i).nbytes for i in range(len(tape))) / 1e6)
        if time.perf_counter() - t0 >= seconds:
            break
    wall = time.perf_counter() - t0
    if tracer:
        tracer.op = "idle"
    return Phase(op_ms, failures, wall, time.process_time() - cpu0, nodes, mb)


# ---------------------------------------------------------------------------
# metrics


def tail_report(op_ms: list) -> dict:
    """The sample count, and p90 only where at least ten ops lie beyond it."""
    out = {"n_ops": len(op_ms)}
    if len(op_ms) >= 100:
        out["op_ms.p90"] = statistics.quantiles(op_ms, n=10)[8]
    return out


def end_to_end(phase: Phase, batch: int, setup_s: list) -> dict:
    return {
        "op_ms.p50": (statistics.median(phase.op_ms), "ms"),
        "traj_per_s": (batch * len(phase.op_ms) / phase.wall_s, "1/s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }


def per_layer(tracer: Tracer, traced: Phase, plain: Phase) -> dict:
    """Per-op medians over the traced phase; set-up layers per call."""
    ops = sorted({op for op in tracer.ops if isinstance(op, int)})
    per_op = {op: {} for op in ops}
    setup_ms: dict = {}
    for name, op, ms in zip(tracer.names, tracer.ops, tracer.self_ms()):
        if op == "setup":
            setup_ms.setdefault(name, []).append(ms)
        elif isinstance(op, int):
            ms_sum, calls = per_op[op].get(name, (0.0, 0))
            per_op[op][name] = (ms_sum + ms, calls + 1)
    rollouts = [extra for idx, extra in tracer.extras.items() if isinstance(tracer.ops[idx], int)]
    attempted = sum(size for size, _ in rollouts)
    diverged = sum(dead for _, dead in rollouts)

    def med(name, field=0):
        """Median self ms (field 0) or call count (field 1, an exact count) per op."""
        values = [per_op[op].get(name, (0.0, 0))[field] for op in ops]
        return statistics.median(values) if field == 0 else statistics.median_low(values)

    def passes(op):
        steps = per_op[op].get("training.step", (0.0, 0))[1]
        return per_op[op].get("fbsde.rollout", (0.0, 0))[1] / steps if steps else 0.0

    def setup_call(name):
        return statistics.mean(setup_ms[name]) if name in setup_ms else 0.0

    traced_p50, plain_p50 = statistics.median(traced.op_ms), statistics.median(plain.op_ms)
    return {
        "autodiff.tape_nodes": (statistics.median_low(traced.tape_nodes) if traced.tape_nodes else 0, "count"),
        "autodiff.tape_mb": (statistics.median_low(traced.tape_mb) if traced.tape_mb else 0.0, "MB"),
        "autodiff.backward_ms": (med("autodiff.backward"), "ms"),
        "neural.lstm_ms": (med("neural.lstm"), "ms"),
        "neural.lstm_calls": (med("neural.lstm", 1), "count"),
        "neural.adam_ms": (med("neural.adam"), "ms"),
        "systems.drift_ms": (med("systems.drift"), "ms"),
        "systems.drift_calls": (med("systems.drift", 1), "count"),
        "systems.cost_ms": (med("systems.cost"), "ms"),
        "fbsde.noise_ms": (med("fbsde.noise"), "ms"),
        "fbsde.update_ms": (med("fbsde.rollout"), "ms"),
        "fbsde.diverged_ratio": (diverged / attempted if attempted else 0.0, "ratio"),
        "training.passes_per_step": (statistics.median(passes(op) for op in ops), "count"),
        "training.step_self_ms": (med("training.step"), "ms"),
        "training.checkpoint_save_ms": (setup_call("training.save_checkpoint"), "ms"),
        "training.checkpoint_load_ms": (setup_call("training.load_checkpoint"), "ms"),
        "config.build_runtime_ms": (setup_call("config.build_runtime"), "ms"),
        "evaluation.summarize_ms": (med("evaluation.summarize"), "ms"),
        "python.gc_ms": (statistics.median(tracer.gc_ms[op] for op in ops), "ms"),
        "python.gc_collections": (statistics.median_low(tracer.gc_collections[op] for op in ops), "count"),
        "python.cpu_util": (plain.cpu_s / plain.wall_s, "ratio"),
        "trace.op_ms.p50": (traced_p50, "ms"),
        "trace.overhead_ms": (traced_p50 - plain_p50, "ms"),
    }


def check_layer_map(tracer: Tracer, wl: Workload) -> None:
    called = set(tracer.names) - {"op"}
    missing = sorted(wl.layers - called)
    unexpected = sorted(called - wl.layers)
    if missing or unexpected:
        raise LayerMapError(f"layers with no calls: {missing}; layers called unexpectedly: {unexpected}")


def instrument(tracer: Tracer, mods) -> None:
    """Wrap the module-level entry points; call before ``set_up``."""
    config, evaluation, fbsde, neural, training = mods
    tracer.patch(config, "build_runtime", "config.build_runtime")
    tracer.patch(training, "save_checkpoint", "training.save_checkpoint")
    tracer.patch(training, "load_checkpoint", "training.load_checkpoint")
    tracer.patch(training, "training_step", "training.step")
    tracer.patch(fbsde, "sample_noise", "fbsde.noise")
    tracer.patch(fbsde, "rollout_batch", "fbsde.rollout", count=lambda b: (b.batch_size, b.diverged))
    tracer.patch(neural, "lstm_stack_forward", "neural.lstm")
    tracer.patch(neural, "adam_step", "neural.adam")
    tracer.patch(training.Tape, "backward", "autodiff.backward")
    tracer.patch(evaluation, "evaluate", "evaluation.evaluate")
    tracer.patch(evaluation, "summarize", "evaluation.summarize")


def instrument_instances(tracer: Tracer, setup) -> None:
    """Wrap the system's drift and the cost expressions of one runtime."""
    tracer.patch(setup.system, "drift", "systems.drift")
    tracer.patch(setup.costs, "running_expr", "systems.cost")
    tracer.patch(setup.costs, "terminal_expr", "systems.cost")


# ---------------------------------------------------------------------------
# metadata


def blas_threads() -> int | None:
    """OpenBLAS thread count, read from the library NumPy loaded."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# driver


def run(mods, name: str, wl: Workload, seed: int, seconds: float, trace: bool, work_dir: str) -> dict:
    """Set up, warm up, measure; returns the full record of the run."""
    setup_s = [] if trace else measure_setup_s(wl, seed, work_dir, SETUP_BEFORE)
    record = {"metadata": metadata(name, seed, seconds, int(trace))}
    runner_cls = TrainRunner if wl.kind == "train" else EvalRunner
    if trace:
        tracer = Tracer()
        with tracer.installed():
            instrument(tracer, mods)
            setup, store = set_up(mods, wl, seed, work_dir)
            instrument_instances(tracer, setup)
            runner = runner_cls(mods, wl, setup, store, seed)
            tracer.op = "warmup"
            phases = [run_phase(runner, 0.0) for _ in range(wl.warmup)]
            traced = run_phase(runner, seconds / 2, tracer=tracer)
        # the same ops with every wrapper removed; the p50 gap is the tracing overhead
        plain = run_phase(runner, seconds / 2)
        phases += [traced, plain]
        check_layer_map(tracer, wl)
        metrics = per_layer(tracer, traced, plain)
        record["spans"] = tracer.to_dict()
    else:
        setup, store = set_up(mods, wl, seed, work_dir)
        runner = runner_cls(mods, wl, setup, store, seed)
        phases = [run_phase(runner, 0.0) for _ in range(wl.warmup)]
        timed = run_phase(runner, seconds)
        phases.append(timed)
        setup_s += measure_setup_s(wl, seed, work_dir, SETUP_AFTER)
        metrics = end_to_end(timed, runner.batch, setup_s)
        record["op_ms"] = tail_report(timed.op_ms)
        record["op_ms_samples"] = timed.op_ms
        record["setup_s_samples"] = setup_s
    failures = [f for p in phases for f in p.failures]
    attempted = sum(len(p.op_ms) for p in phases)
    record["digest"] = runner.digest()
    record["failures"] = failures
    record["failed_op_ratio"] = len(failures) / attempted
    record["result"] = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one timed set-up in a fresh interpreter
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--kind", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    parser.add_argument("--set", action="append", default=[], help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_child:
        setup_child(args)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    return report(args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


def report(name: str, wl: Workload, seed: int, seconds: float, trace: bool) -> int:
    """Run, write the record under .bench_out, print the summary and the result line."""
    mods = import_solver()
    work_dir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        record = run(mods, name, wl, seed, seconds, trace, work_dir)
    except LayerMapError as exc:
        print(f"bench: {name}: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh)
    result = record["result"]
    print(json.dumps(record["metadata"], sort_keys=True))
    for key, metric in result["metrics"].items():
        print(f"{name} {key} = {metric['value']:.6g} {metric['unit']}")
    for key, value in record.get("op_ms", {}).items():
        print(f"{name} {key} = {value:.6g}{'' if key == 'n_ops' else ' ms'}")
    print(f"{name} failed_op_ratio = {record['failed_op_ratio']:.6g} "
          f"({result['failed']} of {result['attempted']} ops)")
    for failure in record["failures"]:
        print(f"{name} FAILED {failure}", file=sys.stderr)
    print(f"{name} digest = {record['digest']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
