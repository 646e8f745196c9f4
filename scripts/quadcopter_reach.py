#!/usr/bin/env python3
"""Train the quadcopter reach task and report terminal accuracy per state.

The task: fly from hover at the origin to hover at (1, 1, -1) in NED
coordinates (so one meter up) within a two second horizon. Controls are in
normalized units, vertical specific force above hover and three body angular
accelerations; the physical constants (mass, arm, inertia) that map them to
rotor forces live in the system model parameters and are printed below.

This is the most expensive experiment in the repository. The default budget
(4000 iterations at batch 128) takes roughly 15 minutes on one CPU; success
saturates much earlier and longer training mostly lowers dispersion.

Example:
    python scripts/quadcopter_reach.py --out runs/quadcopter
    python scripts/quadcopter_reach.py --set train.iterations=1000
"""

import argparse
import json
import os
import sys

import numpy as np

from minmax_fbsde import config as config_mod
from minmax_fbsde import evaluation, training


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", default=None, help="YAML experiment config")
    parser.add_argument("--set", action="append", default=[], dest="overrides",
                        metavar="KEY=VALUE", help="override a config entry")
    parser.add_argument("--out", default="runs/quadcopter", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="training seed")
    args = parser.parse_args()

    overrides = ["system=quadcopter"] + args.overrides
    cfg = config_mod.parse_config(args.config, overrides)
    cfg.out = args.out
    if args.seed is not None:
        cfg.seed = args.seed
    setup = config_mod.build_runtime(cfg)

    consts = {k: float(setup.system.params[k])
              for k in ("mass", "arm", "jx", "jy", "jz", "gravity", "noise_scale")}
    print("model constants:", json.dumps(consts, sort_keys=True))
    target_ned = tuple(float(v) for v in np.ravel(setup.system.target)[:3])
    print(f"target (NED): {target_ned}  "
          f"horizon {setup.grid.end}s  steps {setup.grid.steps}")

    print(f"{setup.train.iterations} iterations at batch {setup.train.batch_size} "
          f"(training takes a while unless {setup.out} holds a matching checkpoint)")
    store, history = training.train_or_load(setup, setup.out)
    if history is None:
        print("reused the cached checkpoint")
    else:
        print(f"final loss {history[-1].loss:.6g}")

    report = evaluation.evaluate(
        store, setup.system, setup.costs, setup.grid,
        setup.eval_batch, setup.eval_seed, mode=cfg.mode, adversary=False,
    )
    print()
    print(f"success rate: {report.success_rate:.3f} "
          f"({report.batch_size - report.diverged} live trajectories)")
    print(f"total state variance: {report.total_state_variance:.6g}")
    print()
    print(f"{'state':>8s} {'target':>8s} {'terminal mean':>14s} {'terminal sd':>12s}")
    target_flat = np.ravel(setup.system.target)
    for i, label in enumerate(setup.system.state_labels):
        tgt = float(target_flat[i])
        mu = float(report.state_mean[-1, i])
        sd = float(report.state_std[-1, i])
        print(f"{label:>8s} {tgt:>8.2f} {mu:>14.4f} {sd:>12.4f}")

    os.makedirs(setup.out, exist_ok=True)
    path = os.path.join(setup.out, "eval_report.json")
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"written: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
