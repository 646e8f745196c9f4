"""Smoke test of the benchmark at tiny sizes; asserts the result schema, never a timing.

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

ROOT = os.path.dirname(BENCH_DIR)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

TINY = {
    "train": ("train.steps=3", "train.hidden_size=4", "train.batch_size=8"),
    "eval": ("train.steps=3", "train.hidden_size=4", "eval.batch_size=16"),
}


def tiny(wl: run.Workload, **changes) -> run.Workload:
    return dataclasses.replace(wl, overrides=wl.overrides + TINY[wl.kind], repeat=2, warmup=1, **changes)


def result_line(name, wl, trace, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    code = run.report(name, wl, seed=3, seconds=0.2, trace=trace)
    return code, capsys.readouterr().out.strip().splitlines()[-1]


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_metric_emitted_with_its_unit(name, trace, tmp_path, monkeypatch, capsys):
    code, line = result_line(name, tiny(run.WORKLOADS[name]), trace, tmp_path, monkeypatch, capsys)
    assert code == 0
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    with open(tmp_path / f"{name}-seed3-trace{trace}.json") as fh:
        record = json.load(fh)
    assert set(record["metadata"]) >= {"cpu_model", "nproc", "python", "numpy", "scipy",
                                       "blas", "blas_threads", "git_commit", "seed"}


def test_exact_counts_repeat_across_traced_runs(tmp_path, monkeypatch, capsys):
    wl = tiny(run.WORKLOADS["pendulum-train-b64"])
    exact = ("autodiff.tape_nodes", "autodiff.tape_mb", "training.passes_per_step",
             "neural.lstm_calls", "systems.drift_calls")
    counts = []
    for _ in range(2):
        _, line = result_line("pendulum-train-b64", wl, 1, tmp_path, monkeypatch, capsys)
        metrics = json.loads(line)["metrics"]
        counts.append({k: metrics[k]["value"] for k in exact})
    assert counts[0] == counts[1]
    assert counts[0]["neural.lstm_calls"] == 3 and counts[0]["autodiff.tape_nodes"] > 0


def test_layer_with_no_calls_fails_loudly(tmp_path, monkeypatch, capsys):
    wl = tiny(run.WORKLOADS["pendulum-train-b64"], layers=run.TRAIN_LAYERS | {"evaluation.summarize"})
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    assert run.report("pendulum-train-b64", wl, seed=3, seconds=0.2, trace=True) == 3
    assert "evaluation.summarize" in capsys.readouterr().err


def test_fails_without_solver_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pendulum-train-b64",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
