"""Command line surface: train, eval, sweep, oracle-check, grad-check.

Every command resolves one ExperimentConfig (YAML file, then repeatable
``--set dotted.key=value`` overrides, then the direct flags), echoes the
resolved config and run metadata into the output directory (``eval`` as
``eval_config.yaml`` and ``eval_run.json``, so that evaluating into the
training directory keeps ``train``'s record), and exits nonzero with a
message on any failure. Outputs carry no timestamps, so a repeated run with
the same seed reproduces its files byte for byte.
``train`` and ``sweep`` train through ``training.train_or_load``, so a re-run
reuses a checkpoint that the same config and solver source produced.
"""

from __future__ import annotations

import argparse
import json
import os
import sys as _sys

import numpy as np

from . import __version__
from . import config as config_mod
from . import evaluation, gradcheck, training
from .config import ConfigError
from .evaluation import RiccatiBlowUp, riccati_oracle
from .fbsde import HorizonGrid
from .training import CheckpointError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minmax-fbsde",
        description="Min-max FBSDE solver: train and evaluate risk-sensitive "
                    "feedback controllers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("train", "optimize a controller and write checkpoint plus loss history"),
        ("eval", "roll out a trained controller and write the evaluation report"),
        ("sweep", "train and evaluate across the configured adversary strengths"),
        ("oracle-check", "validate the solver against the closed-form LQ oracle"),
        ("grad-check", "audit every reverse-mode gradient against finite differences"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", metavar="PATH", default=None,
                         help="YAML experiment config")
        cmd.add_argument("--set", metavar="KEY=VALUE", action="append", default=[],
                         dest="overrides", help="override a config entry by dotted path")
        cmd.add_argument("--out", metavar="DIR", default=None, help="output directory")
        cmd.add_argument("--seed", type=int, default=None, help="training seed")
        cmd.add_argument("--mode", choices=("minmax", "baseline"), default=None,
                         help="controller mode")
    return parser


def resolve_config(args) -> config_mod.ExperimentConfig:
    cfg = config_mod.parse_config(args.config, args.overrides)
    if args.out is not None:
        cfg.out = args.out
    if args.seed is not None:
        cfg.seed = args.seed
    if args.mode is not None:
        cfg.mode = args.mode
    config_mod.validate_config(cfg)
    return cfg


def write_run_metadata(out_dir: str, cfg, command: str, prefix: str = "") -> None:
    """``<prefix>config.yaml`` and ``<prefix>run.json`` in ``out_dir``. ``eval``
    uses the prefix ``eval_``, so it keeps what ``train`` wrote beside the
    checkpoint."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, prefix + "config.yaml"), "w") as fh:
        fh.write(cfg.to_yaml())
    meta = {
        "command": command,
        "version": __version__,
        "seed": cfg.seed,
        "eval_seed": cfg.eval.seed,
        "model_hash": config_mod.model_fingerprint(cfg),
    }
    with open(os.path.join(out_dir, prefix + "run.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_train(cfg) -> int:
    setup = config_mod.build_runtime(cfg)
    write_run_metadata(cfg.out, cfg, "train")

    def progress(row):
        if row.iteration % 100 == 0 or row.iteration == setup.train.iterations - 1:
            print(f"iter {row.iteration:>6d}  loss {row.loss:.6g}  "
                  f"terminal cost {row.mean_terminal_cost:.6g}  diverged {row.diverged}")

    _, history = training.train_or_load(setup, cfg.out, progress=progress)
    if history is None:
        print(f"reused the checkpoint in {cfg.out}: same config and solver source")
    print(f"checkpoint: {os.path.join(cfg.out, 'checkpoint.ckpt')}")
    print(f"loss history: {os.path.join(cfg.out, 'loss_history.csv')}")
    return 0


def cmd_eval(cfg) -> int:
    setup = config_mod.build_runtime(cfg)
    ckpt = setup.checkpoint_path
    if not os.path.exists(ckpt):
        print(f"checkpoint not found: {ckpt}", file=_sys.stderr)
        return 1
    store, manifest = training.load_checkpoint(ckpt)
    training.validate_checkpoint(
        manifest,
        training.expected_shapes(setup.system, setup.train.hidden_size),
        setup.model_hash,
    )
    report = evaluation.evaluate(
        store, setup.system, setup.costs, setup.grid,
        setup.eval_batch, setup.eval_seed, mode=cfg.mode, adversary=False,
    )
    write_run_metadata(cfg.out, cfg, "eval", prefix="eval_")
    with open(os.path.join(cfg.out, "eval_report.json"), "w") as fh:
        fh.write(report.to_json())
    with open(os.path.join(cfg.out, "trajectories.csv"), "w") as fh:
        fh.write(report.trajectory_csv(condition=cfg.mode))
    print(f"success rate       {report.success_rate:.4f}")
    print(f"total state var    {report.total_state_variance:.6g}")
    print(f"mean terminal cost {report.mean_terminal_cost:.6g}")
    print(f"diverged           {report.diverged}")
    print(f"report: {os.path.join(cfg.out, 'eval_report.json')}")
    return 0


def cmd_sweep(cfg) -> int:
    write_run_metadata(cfg.out, cfg, "sweep")
    rows = evaluation.epsilon_sweep(cfg, cfg.sweep.epsilons, cfg.out)
    print(f"{'epsilon':>10s} {'mode':>9s} {'status':>7s} {'success':>8s} {'variance':>12s} "
          f"{'reduction %':>11s}")
    for row in rows:
        eps = "-" if row["epsilon"] is None else f"{row['epsilon']:g}"
        succ = "-" if row["success_rate"] is None else f"{row['success_rate']:.3f}"
        var = "-" if row["total_state_variance"] is None else f"{row['total_state_variance']:.5g}"
        pct = row.get("variance_reduction_pct")
        pct = "-" if pct is None else f"{pct:.2f}"
        print(f"{eps:>10s} {row['mode']:>9s} {row['status']:>7s} {succ:>8s} {var:>12s} {pct:>11s}")
    print(f"table: {os.path.join(cfg.out, 'sweep.csv')}")
    return 0


def cmd_oracle_check(cfg) -> int:
    """Closed-form sanity checks on the Riccati integrator, then a short training
    run on the linear benchmark compared against it (the game value in min-max mode)."""
    checks: list[tuple[str, bool, str]] = []

    bench0 = evaluation.LqBenchmark(
        a_mat=np.zeros((2, 2)), b_mat=np.zeros((2, 1)), sigma=np.zeros((2, 1)),
        q_mat=np.zeros((2, 2)), qf_mat=np.eye(2), r_mat=np.eye(1), x0=[1.0, 0.0],
    )
    grid0 = HorizonGrid(0.0, 1.0, 10)
    sol0 = riccati_oracle(bench0, grid0)
    stationary = bool(
        np.allclose(sol0.p_mats, np.eye(2), atol=1e-12)
        and np.allclose(sol0.c_offs, 0.0, atol=1e-12)
    )
    checks.append(("stationary weight stays fixed", stationary,
                   f"max |P - I| = {np.max(np.abs(sol0.p_mats - np.eye(2))):.2e}"))

    bench1 = evaluation.LqBenchmark(
        a_mat=[[0.0]], b_mat=[[1.0]], sigma=[[0.0]], q_mat=[[1.0]],
        qf_mat=[[0.0]], r_mat=[[1.0]], x0=[1.0],
    )
    grid1 = HorizonGrid(0.0, 1.0, 50)
    p0 = float(riccati_oracle(bench1, grid1).p_mats[0, 0, 0])
    expected = float(np.tanh(1.0))
    checks.append(("scalar closed form", abs(p0 - expected) < 1e-8,
                   f"P(0) = {p0:.10f}, closed form {expected:.10f}"))

    p0_fine = float(riccati_oracle(bench1, grid1, refine=20).p_mats[0, 0, 0])
    checks.append(("step halving self-consistent", abs(p0 - p0_fine) < 1e-8,
                   f"|P(0) - P_half(0)| = {abs(p0 - p0_fine):.2e}"))

    setup = config_mod.build_runtime(cfg)
    bench = evaluation.lq_benchmark(setup)
    inv_eps = 1.0 / setup.costs.epsilon if cfg.mode == "minmax" else 0.0
    try:
        oracle = riccati_oracle(bench, setup.grid, inv_epsilon=inv_eps)
    except RiccatiBlowUp as exc:
        raise RiccatiBlowUp(
            f"{exc}: the game has no value on this horizon (T={setup.grid.end - setup.grid.start:g}) "
            f"at the temperature cost.epsilon={setup.costs.epsilon:g}"
        ) from None
    v0 = oracle.value(bench.x0, 0)
    z0_ref = oracle.z_of(bench.x0.reshape(-1, 1), 0)

    print(f"training the linear benchmark ({cfg.mode} mode, oracle value {v0:.6f})")
    store, history = training.train(setup.system, setup.costs, setup.train,
                                    out_dir=None, config_hash=setup.model_hash)
    y0 = float(store.y0[0, 0])
    y_rel = abs(y0 - v0) / abs(v0)
    z_rel = float(np.linalg.norm(store.z0 - z0_ref) / max(np.linalg.norm(z0_ref), 1e-12))
    checks.append(("initial value within 5% of oracle", y_rel < 0.05,
                   f"trained {y0:.6f}, oracle {v0:.6f}, rel err {y_rel:.4f}"))
    checks.append(("initial gradient within 10% of oracle", z_rel < 0.10,
                   f"rel norm err {z_rel:.4f}"))

    all_ok = all(ok for _, ok, _ in checks)
    for name, ok, detail in checks:
        print(f"  [{'ok' if ok else 'FAIL'}] {name}: {detail}")
    if cfg.out:
        write_run_metadata(cfg.out, cfg, "oracle-check")
        payload = {
            "schema": "minmax-fbsde.oracle-report.v1",
            "checks": [{"name": n, "passed": ok, "detail": d} for n, ok, d in checks],
            "mode": cfg.mode,
            "oracle_value": v0,
            "trained_value": y0,
            "final_loss": history[-1].loss,
        }
        with open(os.path.join(cfg.out, "oracle_report.json"), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if all_ok else 1


def cmd_grad_check(cfg) -> int:
    rows = gradcheck.run_all()
    print(gradcheck.format_report(rows))
    if cfg.out:
        write_run_metadata(cfg.out, cfg, "grad-check")
        payload = {
            "schema": "minmax-fbsde.gradcheck-report.v1",
            "rows": [
                {"name": r.name, "points": r.points, "max_error": r.max_error,
                 "tolerance": r.tolerance, "passed": r.passed}
                for r in rows
            ],
        }
        with open(os.path.join(cfg.out, "gradcheck_report.json"), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if all(r.passed for r in rows) else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "oracle-check":
        # the oracle command always runs the linear benchmark, by default risk-neutral
        args.overrides = args.overrides + ["system=lq"]
        if args.mode is None:
            args.mode = "baseline"
    try:
        cfg = resolve_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2

    try:
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "eval":
            return cmd_eval(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "oracle-check":
            return cmd_oracle_check(cfg)
        if args.command == "grad-check":
            return cmd_grad_check(cfg)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    except (CheckpointError, ConfigError, RiccatiBlowUp, training.TrainingDiverged) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command}")
