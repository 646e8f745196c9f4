"""End-to-end acceptance gate for the solver.

Each test checks one release criterion and prints a single PASS/FAIL line,
so a full run reads as a checklist. The training-backed criteria cache
their checkpoints under runs/acceptance/; the first run trains everything
(about seven minutes on two cores), later runs reuse the artifacts as long
as the budgets and the solver source are unchanged (see
``training.train_or_load``). Delete runs/acceptance/ to retrain from scratch.

Budgets are deliberately smaller than the shipped defaults where the quick
setting already clears the bar from the default training seed; the defaults
in minmax_fbsde.config keep a wider margin across seeds.
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from minmax_fbsde import gradcheck, training
from minmax_fbsde.config import build_runtime, default_config, validate_config
from minmax_fbsde.evaluation import (
    LqBenchmark,
    bsde_consistency_gaps,
    epsilon_sweep,
    evaluate,
    lq_benchmark,
    riccati_oracle,
    variance_reduction,
)
from minmax_fbsde.fbsde import HorizonGrid, rollout_batch
from minmax_fbsde.training import TrainConfig, init_store

ACCEPT_DIR = Path(__file__).resolve().parents[1] / "runs" / "acceptance"

# quick pendulum budget for the gate; the shipped default (3000 x 128) is
# slower but succeeds from every training seed tried, see the readme
QUICK_ITERS = 500
QUICK_BATCH = 64


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def _train_or_load(cfg, label: str):
    """Train under runs/acceptance/<label>, or reuse a checkpoint trained by
    the current code under the same settings."""
    setup = build_runtime(cfg)
    store, _ = training.train_or_load(setup, str(ACCEPT_DIR / label))
    return store, setup


def _pendulum_quick(mode: str):
    cfg = default_config("pendulum")
    cfg.mode = mode
    cfg.train.iterations = QUICK_ITERS
    cfg.train.batch_size = QUICK_BATCH
    validate_config(cfg)
    store, setup = _train_or_load(cfg, f"pendulum_{mode}")
    report = evaluate(
        store, setup.system, setup.costs, setup.grid,
        setup.eval_batch, setup.eval_seed, mode=mode, adversary=False,
    )
    return store, setup, report


@pytest.fixture(scope="session")
def pendulum_minmax():
    return _pendulum_quick("minmax")


@pytest.fixture(scope="session")
def pendulum_baseline():
    return _pendulum_quick("baseline")


def test_criterion_01_gradient_audit(capsys):
    rows = gradcheck.run_all()
    names = [row.name for row in rows]
    assert any("lstm" in n for n in names)
    assert any("rollout" in n for n in names)
    assert sum("lstm" not in n and "rollout" not in n for n in names) >= 10
    worst = max(row.max_error for row in rows)
    ok = all(row.passed for row in rows) and worst < 1e-4
    _report(capsys, 1, ok,
            f"gradient audit: {len(rows)} checks, worst rel err {worst:.2e} "
            f"(tolerance 1e-4)")


@pytest.mark.slow
def test_criterion_02_lq_value_oracle(capsys):
    # closed-form sanity on the backward-Riccati integrator first
    scalar = LqBenchmark(a_mat=[[0.0]], b_mat=[[1.0]], sigma=[[0.0]],
                         q_mat=[[1.0]], qf_mat=[[0.0]], r_mat=[[1.0]], x0=[1.0])
    p0 = float(riccati_oracle(scalar, HorizonGrid(0.0, 1.0, 50)).p_mats[0, 0, 0])
    scalar_err = abs(p0 - math.tanh(1.0))
    assert scalar_err < 1e-6

    cfg = default_config("lq")
    cfg.mode = "baseline"
    validate_config(cfg)
    store, setup = _train_or_load(cfg, "lq_baseline")
    bench = lq_benchmark(setup)
    v0 = riccati_oracle(bench, setup.grid).value(bench.x0, 0)
    y0 = float(store.y0[0, 0])
    rel = abs(y0 - v0) / abs(v0)
    _report(capsys, 2, rel < 0.05,
            f"linear benchmark: trained value {y0:.4f} vs oracle {v0:.4f}, "
            f"rel err {100 * rel:.1f}% (< 5%); scalar P(0) err {scalar_err:.1e}")


def test_criterion_03_risk_neutral_limit(capsys):
    setup = build_runtime(default_config("pendulum"))
    sys, grid = setup.system, setup.grid
    costs = dataclasses.replace(setup.costs, epsilon=1e12)
    cfg = TrainConfig(iterations=1, batch_size=16, grid=grid, seed=0,
                      hidden_size=setup.train.hidden_size)
    store = init_store(sys, cfg)
    mm = rollout_batch(store, sys, costs, grid, 16, 0,
                       mode="minmax", adversary=True)
    bl = rollout_batch(store, sys, costs, grid, 16, 0, mode="baseline")
    diffs = {
        "states": np.max(np.abs(mm.states - bl.states)),
        "values": np.max(np.abs(mm.values - bl.values)),
        "gradients": np.max(np.abs(mm.z_grads - bl.z_grads)),
        "controls": np.max(np.abs(mm.controls - bl.controls)),
        "adversary": np.max(np.abs(mm.adversary_controls - bl.adversary_controls)),
        "targets": np.max(np.abs(mm.terminal_targets - bl.terminal_targets)),
    }
    assert np.array_equal(mm.noise, bl.noise)
    assert np.array_equal(mm.alive, bl.alive)
    worst = max(diffs.values())
    _report(capsys, 3, worst < 1e-6,
            f"risk-neutral limit: adversarial rollout at epsilon 1e12 matches "
            f"the baseline, max |diff| {worst:.2e} over all recorded values")


def test_criterion_04_consistency_order(capsys):
    cfg = default_config("lq")
    cfg.cost.epsilon = 2.0
    setup = build_runtime(cfg)
    shown, ok = [], True
    for mode in ("baseline", "minmax"):
        gaps = bsde_consistency_gaps(setup, dts=(0.04, 0.02, 0.01), samples=256, mode=mode)
        values = [gap for _, gap in gaps]
        ok = ok and all(a > b for a, b in zip(values, values[1:]))
        shown.append(f"{mode}: " + ", ".join(f"dt={dt:g}: {gap:.4f}" for dt, gap in gaps))
    _report(capsys, 4, ok,
            f"terminal consistency gap decreases with the step ({'; '.join(shown)})")


@pytest.mark.slow
def test_criterion_05_pendulum_swing_up(capsys, pendulum_minmax):
    _, setup, report = pendulum_minmax
    assert setup.grid.steps == 75
    assert setup.grid.dt == pytest.approx(0.02)
    assert setup.grid.end == pytest.approx(1.5)
    assert report.batch_size == 128
    assert float(setup.system.params["noise_scale"]) == pytest.approx(0.1)
    _report(capsys, 5, report.success_rate >= 0.80,
            f"pendulum swing-up: success {report.success_rate:.3f} over "
            f"{report.batch_size} low-noise test trajectories (need 0.80)")


@pytest.mark.slow
def test_criterion_06_variance_reduction(capsys, pendulum_minmax, pendulum_baseline):
    _, mm_setup, mm_report = pendulum_minmax
    _, bl_setup, bl_report = pendulum_baseline
    # identical budgets and seeds; the adversary is the only difference
    assert mm_setup.train.iterations == bl_setup.train.iterations
    assert mm_setup.train.batch_size == bl_setup.train.batch_size
    assert mm_setup.train.seed == bl_setup.train.seed
    assert mm_report.seed == bl_report.seed
    row = variance_reduction(bl_report, mm_report)
    pct = row["variance_reduction_pct"]
    ok = row["candidate_variance"] < row["baseline_variance"] and pct >= 5.0
    _report(capsys, 6, ok,
            f"variance reduction: {row['candidate_variance']:.4f} vs baseline "
            f"{row['baseline_variance']:.4f}, reduction {pct:.1f}% (need 5%)")


@pytest.mark.slow
def test_criterion_07_epsilon_sweep(capsys):
    cfg = default_config("pendulum")
    cfg.train.iterations = 800
    cfg.train.batch_size = QUICK_BATCH
    validate_config(cfg)
    epsilons = cfg.sweep.epsilons
    assert len(epsilons) >= 5
    rows = epsilon_sweep(cfg, epsilons, str(ACCEPT_DIR / "sweep"))

    baseline = next(r for r in rows if r["mode"] == "baseline")
    assert baseline["status"] == "ok"
    smallest = min(epsilons)
    largest = max(epsilons)
    small_row = next(r for r in rows if r["epsilon"] == smallest)
    interior_ok = [
        r for r in rows
        if r["mode"] == "minmax" and r["status"] == "ok"
        and smallest < r["epsilon"] < largest
        and r["total_state_variance"] <= baseline["total_state_variance"]
    ]
    ok = small_row["status"] == "failed" and len(interior_ok) > 0
    best = min((r["total_state_variance"] for r in interior_ok), default=float("nan"))
    _report(capsys, 7, ok,
            f"epsilon sweep over {len(epsilons)} values: smallest "
            f"({smallest:g}) fails, {len(interior_ok)} intermediate values "
            f"succeed with variance <= baseline (best {best:.4f} vs "
            f"{baseline['total_state_variance']:.4f})")


def test_criterion_08_determinism(capsys, tmp_path):
    cfg = default_config("pendulum")
    cfg.train.iterations = 40
    cfg.train.batch_size = 8
    cfg.train.steps = 15
    cfg.train.horizon = 0.3
    validate_config(cfg)
    setup = build_runtime(cfg)

    blobs = []
    for rep in ("a", "b"):
        out = tmp_path / rep
        out.mkdir()
        store, _ = training.train(setup.system, setup.costs, setup.train,
                                  out_dir=str(out), config_hash=setup.model_hash)
        blobs.append({
            "history": (out / "loss_history.csv").read_bytes(),
            "checkpoint": (out / "checkpoint.ckpt").read_bytes(),
        })
    train_same = blobs[0] == blobs[1]

    reports = []
    for _ in range(2):
        rep = evaluate(store, setup.system, setup.costs, setup.grid,
                       16, setup.eval_seed, mode=cfg.mode, adversary=False)
        reports.append(json.dumps(rep.to_dict(), sort_keys=True).encode()
                       + rep.trajectory_csv().encode())
    eval_same = reports[0] == reports[1]
    _report(capsys, 8, train_same and eval_same,
            f"determinism: repeated training byte-identical "
            f"(history and checkpoint: {train_same}), repeated evaluation "
            f"byte-identical (report and trajectories: {eval_same})")


@pytest.mark.stretch
@pytest.mark.slow
def test_criterion_09_quadcopter_reach(capsys):
    cfg = default_config("quadcopter")
    # success saturates long before the shipped default budget; a quarter
    # of it keeps this check under five minutes
    cfg.train.iterations = 1000
    validate_config(cfg)
    store, setup = _train_or_load(cfg, "quadcopter")
    report = evaluate(
        store, setup.system, setup.costs, setup.grid,
        setup.eval_batch, setup.eval_seed, mode=cfg.mode, adversary=False,
    )
    assert setup.grid.end == pytest.approx(2.0)
    target = tuple(float(v) for v in np.ravel(setup.system.target)[:3])
    assert target == (1.0, 1.0, -1.0)
    consts = {k: float(setup.system.params[k])
              for k in ("mass", "arm", "jx", "jy", "jz", "gravity")}
    _report(capsys, 9, report.success_rate >= 0.50,
            f"quadcopter reach to NED {target}: success "
            f"{report.success_rate:.3f} over {report.batch_size} low-noise "
            f"trajectories (need 0.50); constants {json.dumps(consts)}")
