import copy
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from minmax_fbsde import config, fbsde, neural, training
from minmax_fbsde.cli import main
from minmax_fbsde.evaluation import evaluate
from minmax_fbsde.fbsde import PURPOSE_TRAIN, HorizonGrid, rollout_batch, sample_noise, training_loss
from minmax_fbsde.systems import CostSpec, pendulum
from minmax_fbsde.training import (
    CHECKPOINT_SCHEMA,
    CheckpointError,
    HistoryRow,
    ParamStore,
    TrainConfig,
    TrainingDiverged,
    expected_shapes,
    history_to_csv,
    init_store,
    load_checkpoint,
    save_checkpoint,
    train,
    training_step,
    validate_checkpoint,
)


def small_problem(steps=5, batch=8, seed=0, **cfg_kw):
    sys = pendulum(noise="low")
    costs = CostSpec(
        running_weights=[1.0, 0.1], terminal_weights=[100.0, 10.0],
        target=sys.target, r_u=[[0.1]], epsilon=1.0, beta=0.8,
        weight_decay=1e-4, angle_dims=sys.angle_dims,
    )
    grid = HorizonGrid(0.0, steps * 0.02, steps)
    cfg = TrainConfig(iterations=3, batch_size=batch, grid=grid, seed=seed,
                      hidden_size=6, **cfg_kw)
    return sys, costs, cfg


class TestStore:
    def test_parameters_are_views_of_theta(self):
        sys, costs, cfg = small_problem()
        store = init_store(sys, cfg)
        shapes = expected_shapes(sys, cfg.hidden_size)
        assert store.theta.shape == (sum(r * c for r, c in shapes.values()),)
        assert store.adam.m.shape == store.adam.v.shape == store.theta.shape
        flat = np.concatenate([a.ravel() for _, a in store.named_parameters()])
        np.testing.assert_array_equal(flat, store.theta)
        store.y0[0, 0] = 1.5
        store.net.out_b[:] = 2.5
        assert store.theta[-1 - sys.m] == 1.5
        np.testing.assert_array_equal(store.theta[-1 - 2 * sys.m : -1 - sys.m], 2.5)

    def test_init_shapes(self):
        sys, costs, cfg = small_problem()
        store = init_store(sys, cfg)
        shapes = expected_shapes(sys, cfg.hidden_size)
        for name, arr in store.named_parameters():
            assert arr.shape == shapes[name], name

    def test_init_deterministic(self):
        sys, costs, cfg = small_problem(seed=3)
        a = init_store(sys, cfg)
        b = init_store(sys, cfg)
        for (name, x), (_, y) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(x, y)

    def test_psi_starts_at_zero(self):
        sys, costs, cfg = small_problem()
        store = init_store(sys, cfg)
        assert not store.y0.any() and not store.z0.any()

    def test_theta_norm_excludes_psi(self):
        sys, costs, cfg = small_problem()
        store = init_store(sys, cfg)
        store.y0[:] = 100.0
        direct = sum(float(np.sum(a * a)) for a in store.net.arrays())
        assert store.theta_norm_sq() == pytest.approx(direct)


class TestTrainingStep:
    def test_loss_matches_tapefree_recompute(self):
        sys, costs, cfg = small_problem()
        store = init_store(sys, cfg)
        result = training_step(store, sys, costs, cfg.grid, cfg.batch_size,
                               cfg.seed, 0, "minmax")
        replay = rollout_batch(
            store, sys, costs, cfg.grid, cfg.batch_size, cfg.seed,
            mode="minmax", iteration=0, purpose=PURPOSE_TRAIN,
        )
        expect = training_loss(replay, store.theta_norm_sq(), costs.beta,
                               costs.weight_decay)
        assert result.loss == pytest.approx(expect, rel=1e-12)

    def test_gradients_are_views_of_one_vector(self):
        sys, costs, cfg = small_problem()
        store = init_store(sys, cfg)
        result = training_step(store, sys, costs, cfg.grid, cfg.batch_size,
                               cfg.seed, 0, "minmax")
        assert result.grad.shape == store.theta.shape
        assert list(result.grads) == list(expected_shapes(sys, cfg.hidden_size))
        flat = np.concatenate([g.ravel() for g in result.grads.values()])
        np.testing.assert_array_equal(flat, result.grad)
        assert all(np.shares_memory(g, result.grad) for g in result.grads.values())

    def test_gradient_reaches_every_parameter(self):
        sys, costs, cfg = small_problem()
        store = init_store(sys, cfg)
        result = training_step(store, sys, costs, cfg.grid, cfg.batch_size,
                               cfg.seed, 0, "minmax")
        for name, _ in store.named_parameters():
            assert np.any(result.grads[name] != 0.0), f"zero gradient for {name}"
            assert np.all(np.isfinite(result.grads[name])), name

    def test_y0_gradient_matches_finite_difference(self):
        sys, costs, cfg = small_problem(batch=4)
        store = init_store(sys, cfg)
        result = training_step(store, sys, costs, cfg.grid, 4, cfg.seed, 0, "minmax")
        noise = sample_noise(cfg.seed, PURPOSE_TRAIN, 0, 4, cfg.grid.steps, sys.m)

        def loss_at(y0_val):
            probe = copy.deepcopy(store)
            probe.y0[0, 0] = y0_val
            batch = rollout_batch(probe, sys, costs, cfg.grid, 4, cfg.seed,
                                  mode="minmax", noise=noise)
            return training_loss(batch, probe.theta_norm_sq(), costs.beta,
                                 costs.weight_decay)

        step = 1e-6
        fd = (loss_at(step) - loss_at(-step)) / (2 * step)
        assert result.grads["psi.y0"][0, 0] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_workers_other_than_one_rejected(self):
        sys, costs, cfg = small_problem(batch=4)
        store = init_store(sys, cfg)
        with pytest.raises(ValueError, match="workers"):
            training_step(store, sys, costs, cfg.grid, 4, cfg.seed, 0, "minmax", workers=2)
        with pytest.raises(ValueError, match="workers"):
            evaluate(store, sys, costs, cfg.grid, 4, cfg.seed, workers=2)
        with pytest.raises(ValueError, match="workers"):
            small_problem(workers=2)

    def test_partial_divergence_rebuilds_on_survivors(self, monkeypatch):
        sys, costs, cfg = small_problem(batch=8)
        store = init_store(sys, cfg)
        clean = sample_noise(cfg.seed, PURPOSE_TRAIN, 0, 8, cfg.grid.steps, sys.m)

        def poisoned(seed, purpose, iteration, batch, steps, m):
            noise = clean.copy()
            noise[1, :, 3] = np.nan
            return noise

        monkeypatch.setattr(fbsde, "sample_noise", poisoned)
        result = training_step(store, sys, costs, cfg.grid, 8, cfg.seed, 0,
                               "minmax", divergence_tolerance=0.2)
        assert result.diverged == 1
        assert math.isfinite(result.loss)
        assert all(np.all(np.isfinite(g)) for g in result.grads.values())

        # survivors' streams are untouched: the gradient equals a clean run
        # over the same seven columns
        keep = np.ones(8, dtype=bool)
        keep[3] = False
        monkeypatch.setattr(fbsde, "sample_noise",
                            lambda *a: clean[:, :, keep])
        clean_run = training_step(store, sys, costs, cfg.grid, 7, cfg.seed, 0,
                                  "minmax")
        for name in result.grads:
            np.testing.assert_allclose(result.grads[name], clean_run.grads[name],
                                       atol=1e-14)

    def test_overflowing_terminal_cost_is_dropped(self, monkeypatch):
        # sample 3's states and values stay finite but g(x_N) overflows: it is
        # dropped like a sample whose state overflows, and the step runs on
        # the survivors instead of ending on an infinite loss
        sys, costs, cfg = small_problem(batch=8)
        store = init_store(sys, cfg)
        clean = sample_noise(cfg.seed, PURPOSE_TRAIN, 0, 8, cfg.grid.steps, sys.m)
        noise = clean.copy()
        noise[-1, :, 3] = 1e200
        batch = rollout_batch(store, sys, costs, cfg.grid, 8, cfg.seed, noise=noise)
        assert np.all(np.isfinite(batch.states)) and np.all(np.isfinite(batch.values))
        assert not np.isfinite(batch.terminal_targets[0, 3])

        monkeypatch.setattr(fbsde, "sample_noise", lambda *a: noise)
        result = training_step(store, sys, costs, cfg.grid, 8, cfg.seed, 0,
                               "minmax", divergence_tolerance=0.2)
        assert result.diverged == 1
        keep = np.arange(8) != 3
        monkeypatch.setattr(fbsde, "sample_noise", lambda *a: clean[:, :, keep])
        clean_run = training_step(store, sys, costs, cfg.grid, 7, cfg.seed, 0, "minmax")
        assert result.loss == clean_run.loss
        for name in result.grads:
            np.testing.assert_array_equal(result.grads[name], clean_run.grads[name])

    @pytest.mark.parametrize("poison", [np.nan, np.inf])
    def test_poisoned_columns_raise_no_warning(self, poison, monkeypatch):
        # a column that goes non-finite is dropped without a RuntimeWarning,
        # in the tape-free rollout and through a whole training step
        sys, costs, cfg = small_problem(batch=8)
        store = init_store(sys, cfg)
        noise = sample_noise(cfg.seed, PURPOSE_TRAIN, 0, 8, cfg.grid.steps, sys.m)
        noise[1, :, 3] = poison
        noise[-1, :, 6] = poison
        monkeypatch.setattr(fbsde, "sample_noise", lambda *args: noise)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            batch = rollout_batch(store, sys, costs, cfg.grid, 8, cfg.seed, noise=noise)
            result = training_step(store, sys, costs, cfg.grid, 8, cfg.seed, 0,
                                   "minmax", divergence_tolerance=0.25)
        assert batch.alive.tolist() == [True] * 3 + [False] + [True] * 2 + [False, True]
        assert result.diverged == 2
        assert math.isfinite(result.loss)

    def test_excess_divergence_aborts(self, monkeypatch):
        sys, costs, cfg = small_problem(batch=8)
        store = init_store(sys, cfg)
        clean = sample_noise(cfg.seed, PURPOSE_TRAIN, 0, 8, cfg.grid.steps, sys.m)

        def poisoned(seed, purpose, iteration, batch, steps, m):
            noise = clean.copy()
            noise[1, :, :3] = np.nan
            return noise

        monkeypatch.setattr(fbsde, "sample_noise", poisoned)
        with pytest.raises(TrainingDiverged, match="3/8 samples diverged"):
            training_step(store, sys, costs, cfg.grid, 8, cfg.seed, 0, "minmax",
                          divergence_tolerance=0.1)


class TestTrainLoop:
    def test_loss_decreases_on_short_run(self):
        sys, costs, cfg = small_problem(steps=20, batch=16)
        cfg = TrainConfig(iterations=60, batch_size=16, grid=cfg.grid,
                          seed=0, hidden_size=6, learning_rate=3e-3)
        store, history = train(sys, costs, cfg)
        losses = [row.loss for row in history]
        assert np.median(losses[-6:]) < np.median(losses[:6])

    def test_parameters_move(self):
        sys, costs, cfg = small_problem()
        ref = init_store(sys, cfg)
        store, _ = train(sys, costs, cfg)
        assert store.y0[0, 0] != 0.0
        moved = [np.any(a != b) for (_, a), (_, b)
                 in zip(store.named_parameters(), ref.named_parameters())]
        assert all(moved)

    def test_writes_artifacts(self, tmp_path):
        sys, costs, cfg = small_problem()
        out = tmp_path / "run"
        store, history = train(sys, costs, cfg, out_dir=str(out), config_hash="abc")
        assert (out / "checkpoint.ckpt").exists()
        csv = (out / "loss_history.csv").read_text()
        assert csv.startswith("# schema minmax-fbsde.loss-history.v1\n")
        assert len(csv.strip().splitlines()) == 2 + cfg.iterations
        loaded, manifest = load_checkpoint(str(out / "checkpoint.ckpt"))
        assert manifest["config_hash"] == "abc"
        np.testing.assert_array_equal(loaded.y0, store.y0)

    def test_history_deterministic(self, tmp_path):
        sys, costs, cfg = small_problem(seed=5)
        a = tmp_path / "a"
        b = tmp_path / "b"
        train(sys, costs, cfg, out_dir=str(a))
        train(sys, costs, cfg, out_dir=str(b))
        assert (a / "loss_history.csv").read_bytes() == (b / "loss_history.csv").read_bytes()
        assert (a / "checkpoint.ckpt").read_bytes() == (b / "checkpoint.ckpt").read_bytes()

    def test_progress_callback(self):
        sys, costs, cfg = small_problem()
        rows = []
        train(sys, costs, cfg, progress=rows.append)
        assert [r.iteration for r in rows] == [0, 1, 2]

    def test_divergence_flushes_history(self, tmp_path, monkeypatch):
        sys, costs, cfg = small_problem(batch=4)
        calls = {"n": 0}
        real = fbsde.sample_noise

        def flaky(seed, purpose, iteration, batch, steps, m):
            noise = real(seed, purpose, iteration, batch, steps, m)
            calls["n"] += 1
            if calls["n"] >= 3:
                noise[0, :, :] = np.nan
            return noise

        monkeypatch.setattr(fbsde, "sample_noise", flaky)
        out = tmp_path / "run"
        out.mkdir()
        (out / "checkpoint.ckpt").write_bytes(b"a previous run's checkpoint")
        with pytest.raises(TrainingDiverged):
            train(sys, costs, cfg, out_dir=str(out))
        csv = (out / "loss_history.csv").read_text()
        assert len(csv.strip().splitlines()) == 2 + 2  # header lines + 2 clean iters
        assert not (out / "checkpoint.ckpt").exists()


def malformed(blob: bytes, kind: str) -> bytes:
    """A checkpoint with its entries reordered (out.b before out.W, bytes
    moved with them), one entry missing (with its bytes) or one extra entry
    (with 8 bytes)."""
    head, _, payload = blob.partition(b"\n")
    manifest = json.loads(head)
    sizes = [8 * e["rows"] * e["cols"] for e in manifest["entries"]]
    offsets = np.cumsum([0] + sizes)
    pairs = [(e, payload[lo:hi]) for e, lo, hi in zip(manifest["entries"], offsets, offsets[1:])]
    if kind == "reordered":
        pairs[6], pairs[7] = pairs[7], pairs[6]
    elif kind == "missing":
        del pairs[7]
    else:
        pairs.append(({"name": "extra", "rows": 1, "cols": 1}, bytes(8)))
    manifest["entries"] = [e for e, _ in pairs]
    return json.dumps(manifest, sort_keys=True).encode() + b"\n" + b"".join(c for _, c in pairs)


def as_v2(blob: bytes) -> bytes:
    """A v3 checkpoint rewritten as v2: the same θ, under a manifest without
    ``source``."""
    head, _, payload = blob.partition(b"\n")
    manifest = json.loads(head)
    manifest["schema"] = "minmax-fbsde.checkpoint.v2"
    del manifest["source"]
    return json.dumps(manifest, sort_keys=True).encode() + b"\n" + payload


def with_nonfinite(blob: bytes, value: float) -> bytes:
    """A checkpoint with ``value`` written into the last element of ``out.b``
    and into ``psi.z0``, so the first bad parameter is ``out.b``."""
    head, _, payload = blob.partition(b"\n")
    theta = np.frombuffer(payload, dtype="<f8").copy()
    store = ParamStore(theta, {e["name"]: (e["rows"], e["cols"])
                               for e in json.loads(head)["entries"]})
    store.net.out_b[-1] = value
    store.z0[...] = value
    return head + b"\n" + theta.astype("<f8").tobytes()


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        sys, costs, cfg = small_problem()
        store, _ = train(sys, costs, cfg)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(store, path, seed=7, config_hash="deadbeef")
        loaded, manifest = load_checkpoint(path)
        assert manifest["seed"] == 7
        assert manifest["schema"] == CHECKPOINT_SCHEMA
        for (name, a), (_, b) in zip(store.named_parameters(), loaded.named_parameters()):
            np.testing.assert_array_equal(a, b)
        assert loaded.shapes == store.shapes
        assert loaded.adam is None
        assert loaded.theta.dtype == store.theta.dtype == np.float64
        assert loaded.theta.tobytes() == store.theta.tobytes()

    def test_v3_bytes_entry_by_entry(self, tmp_path):
        # the v3 layout: a sorted-key JSON manifest line, then every parameter
        # in expected_shapes order, each little-endian float64
        sys, costs, cfg = small_problem()
        store, _ = train(sys, costs, cfg)
        shapes = expected_shapes(sys, cfg.hidden_size)
        named = dict(store.named_parameters())
        entries = [(name, named[name]) for name in shapes]
        manifest = {
            "schema": CHECKPOINT_SCHEMA, "config_hash": "cafe", "seed": 4,
            "source": training.source_hash(),
            "entries": [{"name": name, "rows": a.shape[0], "cols": a.shape[1]}
                        for name, a in entries],
        }
        expected = (json.dumps(manifest, sort_keys=True).encode() + b"\n"
                    + b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for _, a in entries))
        path = tmp_path / "model.ckpt"
        save_checkpoint(store, str(path), seed=4, config_hash="cafe")
        assert path.read_bytes() == expected

        loaded, _ = load_checkpoint(str(path))
        again = tmp_path / "again.ckpt"
        save_checkpoint(loaded, str(again), seed=4, config_hash="cafe")
        assert again.read_bytes() == expected

    def test_save_is_deterministic(self, tmp_path):
        sys, costs, cfg = small_problem()
        store = init_store(sys, cfg)
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(store, p1)
        save_checkpoint(store, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="checkpoint not found"):
            load_checkpoint(str(tmp_path / "nope.ckpt"))

    def test_truncated_payload(self, tmp_path):
        sys, costs, cfg = small_problem()
        store = init_store(sys, cfg)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(store, path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-16])
        with pytest.raises(CheckpointError, match=r"expected \d+ payload bytes, found \d+"):
            load_checkpoint(path)

    def test_garbled_manifest(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        open(path, "wb").write(b"{not json\n1234")
        with pytest.raises(CheckpointError, match="malformed manifest"):
            load_checkpoint(path)

    def test_wrong_schema(self, tmp_path):
        sys, costs, cfg = small_problem()
        store = init_store(sys, cfg)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(store, path)
        blob = open(path, "rb").read()
        head, _, payload = blob.partition(b"\n")
        head = head.replace(CHECKPOINT_SCHEMA.encode(), b"other.v9")
        open(path, "wb").write(head + b"\n" + payload)
        with pytest.raises(CheckpointError, match="schema"):
            load_checkpoint(path)

    def test_shape_validation(self, tmp_path):
        sys, costs, cfg = small_problem()
        store = init_store(sys, cfg)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(store, path)
        _, manifest = load_checkpoint(path)
        validate_checkpoint(manifest, expected_shapes(sys, cfg.hidden_size))
        with pytest.raises(CheckpointError, match="shape mismatch"):
            validate_checkpoint(manifest, expected_shapes(sys, cfg.hidden_size + 1))

    def test_hash_validation_names_both_hashes(self, tmp_path):
        sys, costs, cfg = small_problem()
        store = init_store(sys, cfg)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(store, path, config_hash="aaa111")
        _, manifest = load_checkpoint(path)
        shapes = expected_shapes(sys, cfg.hidden_size)
        validate_checkpoint(manifest, shapes, config_hash="aaa111")
        with pytest.raises(CheckpointError, match="aaa111.*bbb222"):
            validate_checkpoint(manifest, shapes, config_hash="bbb222")

    def test_blank_hash_refused_when_a_hash_is_given(self, tmp_path):
        sys, costs, cfg = small_problem()
        store = init_store(sys, cfg)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(store, path, config_hash="")
        _, manifest = load_checkpoint(path)
        shapes = expected_shapes(sys, cfg.hidden_size)
        validate_checkpoint(manifest, shapes)
        with pytest.raises(CheckpointError, match="checkpoint '', expected 'whatever'"):
            validate_checkpoint(manifest, shapes, config_hash="whatever")

    @staticmethod
    def _rewrite_manifest(path, edit):
        head, _, payload = open(path, "rb").read().partition(b"\n")
        manifest = json.loads(head)
        edit(manifest)
        open(path, "wb").write(json.dumps(manifest).encode() + b"\n" + payload)
        return manifest

    @pytest.mark.parametrize("key", ["entries", "schema"])
    def test_manifest_missing_section(self, tmp_path, key):
        sys, costs, cfg = small_problem()
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(init_store(sys, cfg), path)
        manifest = self._rewrite_manifest(path, lambda m: m.pop(key))
        with pytest.raises(CheckpointError, match=key):
            load_checkpoint(path)
        if key == "entries":
            with pytest.raises(CheckpointError, match=key):
                validate_checkpoint(manifest, expected_shapes(sys, cfg.hidden_size))

    @pytest.mark.parametrize("field", ["name", "rows", "cols"])
    def test_manifest_entry_missing_field(self, tmp_path, field):
        sys, costs, cfg = small_problem()
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(init_store(sys, cfg), path)
        manifest = self._rewrite_manifest(path, lambda m: m["entries"][3].pop(field))
        with pytest.raises(CheckpointError, match="entry 3"):
            load_checkpoint(path)
        with pytest.raises(CheckpointError, match="entry 3"):
            validate_checkpoint(manifest, expected_shapes(sys, cfg.hidden_size))

    @pytest.mark.parametrize("kind", ["reordered", "missing", "extra"])
    def test_entry_layout_is_enforced(self, tmp_path, kind):
        sys, costs, cfg = small_problem()
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_store(sys, cfg), str(path))
        path.write_bytes(malformed(path.read_bytes(), kind))
        with pytest.raises(CheckpointError, match="in that order"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("kind", ["reordered", "missing", "extra", "v2", "nonfinite-nan",
                                      "nonfinite-inf"])
    def test_eval_of_a_malformed_layout_is_one_error_line(self, tmp_path, capsys, kind):
        micro = ["--set", "system=lq", "--set", "train.iterations=2",
                 "--set", "train.batch_size=4", "--set", "train.steps=5",
                 "--set", "train.horizon=0.1", "--set", "eval.batch_size=8",
                 "--out", str(tmp_path / "run")]
        assert main(["train", *micro]) == 0
        ckpt = tmp_path / "run" / "checkpoint.ckpt"
        blob = ckpt.read_bytes()
        if kind == "v2":
            ckpt.write_bytes(as_v2(blob))
        elif kind.startswith("nonfinite"):
            ckpt.write_bytes(with_nonfinite(blob, float(kind.split("-")[1])))
        else:
            ckpt.write_bytes(malformed(blob, kind))
        capsys.readouterr()
        assert main(["eval", *micro]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        if kind == "v2":
            assert "'minmax-fbsde.checkpoint.v2', expected 'minmax-fbsde.checkpoint.v3'" in err
        elif kind.startswith("nonfinite"):
            assert "parameter 'out.b' holds a non-finite value" in err
        else:
            assert "in that order" in err

    def test_nonfinite_parameter_refused(self, tmp_path):
        sys, costs, cfg = small_problem()
        store = init_store(sys, cfg)
        store.y0[0, 0] = np.inf
        store.net.layer2.b[3] = np.nan
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(store, path)
        with pytest.raises(CheckpointError, match="parameter 'lstm2.b' holds a non-finite value"):
            load_checkpoint(path)

    def test_manifest_negative_shape(self, tmp_path):
        # negating both sides keeps the payload size consistent
        sys, costs, cfg = small_problem()
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(init_store(sys, cfg), path)

        def negate(m):
            m["entries"][3]["rows"] *= -1
            m["entries"][3]["cols"] *= -1

        self._rewrite_manifest(path, negate)
        with pytest.raises(CheckpointError, match="negative shape"):
            load_checkpoint(path)


class TestHistoryCsv:
    def test_layout(self):
        rows = [HistoryRow(0, 1.5, 12.25, 0), HistoryRow(1, 0.75, 11.0, 2)]
        text = history_to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "# schema minmax-fbsde.loss-history.v1"
        assert lines[1] == "iteration,loss,mean_terminal_cost,diverged"
        assert lines[2] == "0,1.5,12.25,0"
        assert lines[3] == "1,0.75,11.0,2"

    def test_repr_floats_round_trip(self):
        row = HistoryRow(0, 1.0 / 3.0, math.pi, 0)
        line = history_to_csv([row]).splitlines()[2]
        _, loss, tc, _ = line.split(",")
        assert float(loss) == row.loss
        assert float(tc) == row.mean_terminal_cost


class TestTrainOrLoad:
    def setup_for(self, iterations=2):
        from minmax_fbsde.config import build_runtime, default_config

        cfg = default_config("pendulum")
        cfg.train.iterations = iterations
        cfg.train.batch_size = 4
        cfg.train.steps = 3
        cfg.train.horizon = 0.06
        cfg.train.hidden_size = 4
        return build_runtime(cfg)

    def test_reuses_only_its_own_checkpoint(self, tmp_path):
        job = str(tmp_path / "job")
        store, history = training.train_or_load(self.setup_for(), job)
        assert len(history) == 2
        again, reused = training.train_or_load(self.setup_for(), job)
        assert reused is None
        for (name, a), (_, b) in zip(store.named_parameters(), again.named_parameters()):
            assert np.array_equal(a, b), name

    def test_changed_iterations_retrain(self, tmp_path):
        job = str(tmp_path / "job")
        training.train_or_load(self.setup_for(2), job)
        _, history = training.train_or_load(self.setup_for(3), job)
        assert history is not None and len(history) == 3

    def test_changed_source_retrains(self, tmp_path, monkeypatch):
        job = str(tmp_path / "job")
        training.train_or_load(self.setup_for(), job)
        monkeypatch.setattr(training, "source_hash", lambda: "edited solver")
        _, history = training.train_or_load(self.setup_for(), job)
        assert history is not None
        _, history = training.train_or_load(self.setup_for(), job)
        assert history is None

    def test_source_covers_the_config_module(self, tmp_path, monkeypatch):
        # config.build_runtime makes R_u, the grid and TrainConfig
        edited = tmp_path / "config.py"
        edited.write_bytes(Path(config.__file__).read_bytes() + b"# edited\n")
        before = training.source_hash()
        monkeypatch.setattr(config, "__file__", str(edited))
        assert training.source_hash() != before

    @pytest.mark.parametrize("stale", ["source", "v2"])
    def test_stale_checkpoint_retrains(self, tmp_path, stale):
        # a checkpoint written by other solver source, or in the v2 layout,
        # which recorded no source at all
        setup = self.setup_for()
        job = tmp_path / "job"
        train(setup.system, setup.costs, setup.train, out_dir=str(job),
              config_hash=setup.model_hash)
        ckpt = job / "checkpoint.ckpt"
        blob = ckpt.read_bytes()
        if stale == "v2":
            ckpt.write_bytes(as_v2(blob))
        else:
            head, _, payload = blob.partition(b"\n")
            manifest = dict(json.loads(head), source="edited solver")
            ckpt.write_bytes(json.dumps(manifest, sort_keys=True).encode() + b"\n" + payload)
        _, history = training.train_or_load(setup, str(job))
        assert history is not None
        _, manifest = load_checkpoint(str(ckpt))
        assert manifest["schema"] == CHECKPOINT_SCHEMA
        assert manifest["source"] == training.source_hash()
        assert sorted(p.name for p in job.iterdir()) == ["checkpoint.ckpt", "loss_history.csv"]
