#!/usr/bin/env python3
"""Matched-budget dispersion comparison of the two controller modes.

Trains the risk-sensitive and risk-neutral controllers under identical
budgets and compares their closed-loop dispersion on a shared test set.

Both runs use the same training seed and the same counter-based noise
streams, so the only difference between them is the adversary. Checkpoints
are cached per mode: re-running the script reuses finished trainings as long
as the configuration and the solver source are unchanged.

Example:
    python scripts/compare_variance.py --out runs/variance
    python scripts/compare_variance.py --set train.iterations=500 \
        --set train.batch_size=64 --out runs/variance_quick
"""

import argparse
import json
import os
import sys

from minmax_fbsde import config as config_mod
from minmax_fbsde import evaluation, training


def train_or_load(cfg, label: str):
    setup = config_mod.build_runtime(cfg)
    job_dir = os.path.join(cfg.out, label)
    print(f"[{label}] {setup.train.iterations} iterations at batch "
          f"{setup.train.batch_size} in {job_dir}")
    store, history = training.train_or_load(setup, job_dir)
    if history is None:
        print(f"[{label}] reused the cached checkpoint")
    else:
        print(f"[{label}] final loss {history[-1].loss:.6g}")
    return store, setup


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", default=None, help="YAML experiment config")
    parser.add_argument("--set", action="append", default=[], dest="overrides",
                        metavar="KEY=VALUE", help="override a config entry")
    parser.add_argument("--out", default="runs/variance", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="training seed")
    args = parser.parse_args()

    cfg = config_mod.parse_config(args.config, args.overrides)
    cfg.out = args.out
    if args.seed is not None:
        cfg.seed = args.seed

    reports = {}
    for mode in ("baseline", "minmax"):
        job = config_mod.override(cfg, mode=mode)
        store, setup = train_or_load(job, mode)
        report = evaluation.evaluate(
            store, setup.system, setup.costs, setup.grid,
            setup.eval_batch, setup.eval_seed, mode=mode, adversary=False,
        )
        reports[mode] = report
        print(f"[{mode}] success {report.success_rate:.3f}  "
              f"total state variance {report.total_state_variance:.6g}  "
              f"mean terminal cost {report.mean_terminal_cost:.6g}")

    row = evaluation.variance_reduction(reports["baseline"], reports["minmax"])
    print()
    print(f"{'condition':>14s} {'variance':>12s} {'terminal cost':>14s}")
    print(f"{'baseline':>14s} {row['baseline_variance']:>12.6g} "
          f"{row['baseline_terminal_cost']:>14.6g}")
    print(f"{'risk-sensitive':>14s} {row['candidate_variance']:>12.6g} "
          f"{row['candidate_terminal_cost']:>14.6g}")
    print(f"variance reduction: {row['variance_reduction_pct']:.2f}%")

    os.makedirs(cfg.out, exist_ok=True)
    payload = {
        "comparison": row,
        "baseline": reports["baseline"].to_dict(),
        "minmax": reports["minmax"].to_dict(),
    }
    path = os.path.join(cfg.out, "variance_comparison.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"written: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
