import ast
import csv
import dataclasses
import json
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from minmax_fbsde import config as config_mod
from minmax_fbsde import evaluation, fbsde, training
from minmax_fbsde.cli import build_parser, main, resolve_config
from minmax_fbsde.config import (
    ConfigError,
    build_runtime,
    default_config,
    model_fingerprint,
    override,
    parse_config,
    parse_overrides,
    validate_config,
)

# one Adam step at this learning rate ruins the model
RUINOUS = ["--set", "train.iterations=1", "--set", "train.batch_size=4",
           "--set", "train.learning_rate=1e300", "--set", "train.steps=5",
           "--set", "train.hidden_size=4"]
MICRO = [
    "--set", "system=lq",
    "--set", "train.iterations=2",
    "--set", "train.batch_size=4",
    "--set", "train.steps=5",
    "--set", "train.horizon=0.1",
    "--set", "eval.batch_size=8",
]


class TestDefaults:
    def test_pendulum_defaults(self):
        cfg = default_config("pendulum")
        assert cfg.cost.epsilon == 1.0
        assert cfg.cost.control_weight == 0.1
        assert cfg.train.steps == 75
        assert cfg.train.horizon == 1.5
        assert cfg.noise == "low"
        assert len(cfg.sweep.epsilons) >= 5
        assert min(cfg.sweep.epsilons) < 0.001 < max(cfg.sweep.epsilons)

    def test_lq_defaults(self):
        cfg = default_config("lq")
        assert cfg.cost.beta == 1.0
        assert cfg.train.learning_rate == 0.01
        assert cfg.eval.batch_size == 256

    def test_unknown_system(self):
        with pytest.raises(ConfigError, match="unknown system"):
            default_config("cartpole")

    def test_every_default_validates(self):
        for name in ("pendulum", "quadcopter", "lq"):
            validate_config(default_config(name))


class TestParse:
    def test_empty_file_plus_system_override(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        cfg = parse_config(str(path), ["system=pendulum"])
        assert cfg.to_dict() == default_config("pendulum").to_dict()

    def test_file_values_merge_over_defaults(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text("system: lq\ntrain:\n  iterations: 7\n")
        cfg = parse_config(str(path))
        assert cfg.train.iterations == 7
        assert cfg.train.learning_rate == 0.01  # untouched lq default

    def test_empty_mapping_override_keeps_the_file_section(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text("train:\n  iterations: 7\n")
        assert parse_config(str(path), ["train={}"]).train.iterations == 7

    def test_override_beats_file(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text("train:\n  iterations: 7\n")
        cfg = parse_config(str(path), ["train.iterations=9"])
        assert cfg.train.iterations == 9

    def test_round_trip(self, tmp_path):
        cfg = default_config("quadcopter")
        cfg.seed = 17
        cfg.cost.epsilon = 12.5
        path = tmp_path / "echo.yaml"
        path.write_text(cfg.to_yaml())
        again = parse_config(str(path))
        assert again.to_dict() == cfg.to_dict()

    def test_unknown_key_names_dotted_path(self):
        with pytest.raises(ConfigError, match="train.warmup"):
            parse_config(None, ["train.warmup=5"])
        with pytest.raises(ConfigError, match="turbo"):
            parse_config(None, ["turbo=1"])

    def test_typed_values(self):
        tree = parse_overrides(["eval.checkpoint=null", "cost.epsilon=0.5",
                                "sweep.epsilons=[1.0, 2.0]", "noise=high"])
        assert tree["eval"]["checkpoint"] is None
        assert tree["cost"]["epsilon"] == 0.5
        assert tree["sweep"]["epsilons"] == [1.0, 2.0]
        assert tree["noise"] == "high"

    def test_exponent_numbers_are_floats(self, tmp_path):
        # 1e6 is lq's own default temperature; YAML 1.1 alone would read a string
        default = parse_config(None, ["system=lq"])
        given = parse_config(None, ["system=lq", "cost.epsilon=1e6"])
        assert model_fingerprint(given) == model_fingerprint(default)
        assert given.to_yaml() == default.to_yaml()
        path = tmp_path / "exp.yaml"
        path.write_text("train:\n  learning_rate: 1e-3\n")
        assert parse_config(str(path), ["noise=5e-1"]).train.learning_rate == 1e-3
        assert parse_config(None, ["noise=5e-1"]).noise == 0.5
        assert parse_overrides(["cost.epsilon=-2.5E+2"])["cost"]["epsilon"] == -250.0

    def test_malformed_override(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_overrides(["no_equals_sign"])

    def test_nonmapping_file_rejected(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- a\n- b\n")
        with pytest.raises(ConfigError, match="mapping"):
            parse_config(str(path))


class TestValidation:
    @pytest.mark.parametrize("key,value,fragment", [
        ("cost.epsilon", -1, "cost.epsilon"),
        ("cost.beta", 1.5, "cost.beta"),
        ("cost.weight_decay", -0.1, "cost.weight_decay"),
        ("train.iterations", 0, "train.iterations"),
        ("train.learning_rate", 0, "train.learning_rate"),
        ("eval.batch_size", 1, "eval.batch_size"),
        ("workers", 0, "workers"),
        ("workers", 2, "workers"),
        ("mode", "'both'", "mode"),
        ("noise", "'medium'", "noise"),
        ("sweep.epsilons", "[1.0, 0.0]", "sweep.epsilons"),
        ("cost.control_weight", ".inf", "cost.control_weight"),
        ("cost.epsilon", ".inf", "cost.epsilon"),
        ("cost.epsilon", "-.inf", "cost.epsilon"),
        ("cost.epsilon", ".nan", "cost.epsilon"),
        ("train.learning_rate", ".nan", "train.learning_rate"),
        ("cost.running_weights", "[1.0, .nan]", r"cost.running_weights\[1\]"),
        ("sweep.epsilons", "[1.0, .inf]", r"sweep.epsilons\[1\]"),
        ("train.steps", "3.0", "train.steps"),
        ("eval.seed", "7.0", "eval.seed"),
        ("seed", -1, "seed"),
        ("eval.seed", -5, "eval.seed"),
    ])
    def test_bad_value_names_its_key(self, key, value, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_config(None, [f"{key}={value}"])

    @pytest.mark.parametrize("source", ["set", "file"])
    @pytest.mark.parametrize("key,value,removed", [
        # training settings that had one value in use and are constants now;
        # their ids keep the short names they were first listed under
        *(pytest.param(f"train.{key}", value, f"train.{key}", id=f"{key}-{value}")
          for key, value in (("clip_norm", -2), ("adam_beta1", 0.9), ("adam_beta2", 0.999),
                             ("adam_epsilon", 1e-8), ("forget_bias", 1.0),
                             ("checkpoint_every", 500))),
        # a system's constants and its success test live in systems.py, and
        # the sweep's success rate is a constant beside epsilon_sweep
        *(pytest.param(key, value, removed, id=key) for key, value, removed in (
            ("physics", {}, "physics"),
            ("physics.mass", 2.0, "physics"),
            ("physics.wing_span", 1, "physics"),
            ("physics.length", 0, "physics"),
            ("eval.success_tolerance", [0.5, 2.0], "eval.success_tolerance"),
            ("sweep.success_threshold", 0.0, "sweep.success_threshold"),
        )),
    ])
    def test_removed_training_key_exits_two(self, tmp_path, capsys, source, key, value, removed):
        if source == "set":
            args = ["--set", f"{key}={json.dumps(value)}"]
        else:
            tree = value
            for part in reversed(key.split(".")):
                tree = {part: tree}
            path = tmp_path / "exp.yaml"
            path.write_text(yaml.safe_dump(tree))
            args = ["--config", str(path)]
        assert main(["train", *MICRO, *args, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {removed}: unknown configuration key\n"
        assert not (tmp_path / "out").exists()

    def test_weight_count_checked_at_build(self):
        cfg = default_config("pendulum")
        cfg.cost.running_weights = [1.0, 0.1, 0.5]
        with pytest.raises(ConfigError, match="running_weights.*expected 2"):
            build_runtime(cfg)

    def test_control_weight_count_checked_at_build(self):
        cfg = default_config("quadcopter")
        cfg.cost.control_weight = [1.0, 2.0]
        with pytest.raises(ConfigError, match="control_weight.*expected 4"):
            build_runtime(cfg)


class TestRuntimeAssembly:
    def test_pendulum_setup(self):
        setup = build_runtime(default_config("pendulum"))
        assert setup.system.name == "pendulum"
        np.testing.assert_array_equal(setup.costs.r_u, [[0.1]])
        assert setup.grid.steps == 75
        assert setup.grid.dt == pytest.approx(0.02)
        assert setup.checkpoint_path == "runs/pendulum/checkpoint.ckpt"
        assert setup.train.mode == "minmax"

    def test_explicit_checkpoint_respected(self):
        cfg = default_config("pendulum")
        cfg.eval.checkpoint = "elsewhere/model.ckpt"
        assert build_runtime(cfg).checkpoint_path == "elsewhere/model.ckpt"

    def test_fingerprint_ignores_bookkeeping(self):
        a = default_config("pendulum")
        b = default_config("pendulum")
        b.out = "elsewhere"
        b.workers = 2
        b.eval = config_mod.EvalSection(batch_size=4, seed=5, checkpoint="x.ckpt")
        b.sweep = config_mod.SweepSection(epsilons=[3.0])
        assert model_fingerprint(a) == model_fingerprint(b)

    def test_fingerprint_tracks_model_shape(self):
        # every training and cost setting, and every top-level key that
        # shapes the trained model, enters the fingerprint
        a = default_config("pendulum")
        tops = {"system": "lq", "mode": "baseline", "noise": "high", "seed": 1}
        inputs = [(None, name, value) for name, value in tops.items()]
        for section, kind in (("train", config_mod.TrainSection), ("cost", config_mod.CostSection)):
            for f in dataclasses.fields(kind):
                old = getattr(getattr(a, section), f.name)
                inputs.append((section, f.name, [*old, 1.0] if isinstance(old, list) else old + 1))
        for section, name, value in inputs:
            b = default_config("pendulum")
            setattr(b if section is None else getattr(b, section), name, value)
            assert model_fingerprint(a) != model_fingerprint(b), (section, name)

    def test_integer_spelling_of_a_float_setting_is_the_same_config(self):
        # every float-typed setting is stored as a float, so "1" and "1.0"
        # give one fingerprint and one config.yaml; control_weight and noise
        # are typed Any (a list or a preset name fits too) and join by hand
        is_list = {"cost.control_weight": False, "noise": False}
        for section, kind in (("cost", config_mod.CostSection),
                              ("train", config_mod.TrainSection),
                              ("sweep", config_mod.SweepSection)):
            for f in dataclasses.fields(kind):
                if f.type in ("float", "list[float]"):
                    is_list[f"{section}.{f.name}"] = f.type == "list[float]"
        assert len(is_list) == 11
        for key, listed in is_list.items():
            spell = (lambda v: f"[{v}, {v}]") if listed else str
            ints = parse_config(None, ["system=lq", f"{key}={spell(1)}"])
            floats = parse_config(None, ["system=lq", f"{key}={spell(1.0)}"])
            assert model_fingerprint(ints) == model_fingerprint(floats), key
            assert ints.to_yaml() == floats.to_yaml(), key

    def test_override_is_a_deep_copy(self):
        cfg = default_config("pendulum")
        tweaked = override(cfg, mode="baseline", epsilon=3.0)
        assert cfg.mode == "minmax" and cfg.cost.epsilon == 1.0
        assert tweaked.mode == "baseline" and tweaked.cost.epsilon == 3.0
        tweaked.cost.running_weights[0] = 99.0
        assert cfg.cost.running_weights[0] == 1.0

    def test_override_validates(self):
        with pytest.raises(ConfigError):
            override(default_config("pendulum"), epsilon=-1.0)
        with pytest.raises(ConfigError, match="unknown"):
            override(default_config("pendulum"), banana=1)


class TestCommands:
    def test_parser_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
        assert "command" in capsys.readouterr().err

    def test_train_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["train", *MICRO, "--out", str(out)])
        assert code == 0
        for name in ("config.yaml", "run.json", "checkpoint.ckpt", "loss_history.csv"):
            assert (out / name).exists(), name
        meta = json.loads((out / "run.json").read_text())
        assert meta["command"] == "train"
        assert set(meta) == {"command", "version", "seed", "eval_seed", "model_hash"}
        assert "checkpoint:" in capsys.readouterr().out

    def test_train_deterministic_artifacts(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["train", *MICRO, "--out", str(a)]) == 0
        assert main(["train", *MICRO, "--out", str(b)]) == 0
        assert (a / "loss_history.csv").read_bytes() == (b / "loss_history.csv").read_bytes()
        assert (a / "checkpoint.ckpt").read_bytes() == (b / "checkpoint.ckpt").read_bytes()

    def test_train_reuses_an_unchanged_checkpoint(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "run"
        assert main(["train", *MICRO, "--out", str(out)]) == 0
        ckpt, history = (out / "checkpoint.ckpt").read_bytes(), (out / "loss_history.csv").read_bytes()
        capsys.readouterr()

        def refuse(*args, **kwargs):
            raise AssertionError("training.train called for an unchanged config")

        with monkeypatch.context() as patch:
            patch.setattr(training, "train", refuse)
            assert main(["train", *MICRO, "--out", str(out)]) == 0
        assert "reused the checkpoint" in capsys.readouterr().out
        assert (out / "checkpoint.ckpt").read_bytes() == ckpt
        assert (out / "loss_history.csv").read_bytes() == history

        assert main(["train", *MICRO, "--set", "train.iterations=3", "--out", str(out)]) == 0
        assert "reused" not in capsys.readouterr().out
        assert (out / "checkpoint.ckpt").read_bytes() != ckpt
        assert (out / "loss_history.csv").read_text().splitlines()[-1].startswith("2,")

    def test_eval_missing_checkpoint(self, tmp_path, capsys):
        out = tmp_path / "none"
        code = main(["eval", *MICRO, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "checkpoint not found" in err
        assert str(out / "checkpoint.ckpt") in err

    def test_eval_after_a_diverged_retrain_finds_no_checkpoint(self, tmp_path, capsys,
                                                               monkeypatch):
        # the seed-1 retrain removes the seed-0 checkpoint before its first
        # step, so eval finds no file rather than a stale one
        out = tmp_path / "run"
        assert main(["train", *MICRO, "--out", str(out)]) == 0

        def nan_noise(seed, purpose, iteration, batch, steps, m):
            return np.full((steps, m, batch), np.nan)

        with monkeypatch.context() as patch:
            patch.setattr(fbsde, "sample_noise", nan_noise)
            assert main(["train", *MICRO, "--seed", "1", "--out", str(out)]) == 1
        capsys.readouterr()
        assert main(["eval", *MICRO, "--seed", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: checkpoint not found: {out / 'checkpoint.ckpt'}\n"

    def test_eval_after_train(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", *MICRO, "--out", str(out)]) == 0
        assert main(["eval", *MICRO, "--out", str(out)]) == 0
        report = json.loads((out / "eval_report.json").read_text())
        assert report["schema"] == "minmax-fbsde.eval-report.v1"
        assert report["batch_size"] == 8
        csv = (out / "trajectories.csv").read_text()
        assert csv.startswith("# schema minmax-fbsde.trajectories.v1")
        assert "success rate" in capsys.readouterr().out

        before = (out / "eval_report.json").read_bytes()
        assert main(["eval", *MICRO, "--out", str(out)]) == 0
        assert (out / "eval_report.json").read_bytes() == before

    def test_eval_keeps_the_train_metadata(self, tmp_path):
        out = tmp_path / "run"
        assert main(["train", *MICRO, "--out", str(out)]) == 0
        written = {name: (out / name).read_bytes() for name in ("run.json", "config.yaml")}
        assert main(["eval", *MICRO, "--out", str(out)]) == 0
        for name, before in written.items():
            assert (out / name).read_bytes() == before, name
        assert json.loads((out / "run.json").read_text())["command"] == "train"
        meta = json.loads((out / "eval_run.json").read_text())
        assert meta["command"] == "eval"
        assert (out / "eval_config.yaml").read_bytes() == written["config.yaml"]

    @pytest.mark.parametrize("command,extra,prefix", [
        ("grad-check", [], "gradcheck_"),
        ("oracle-check", [], "oracle_"),
        ("sweep", ["--set", "sweep.epsilons=[0.5]"], "sweep_"),
    ], ids=["grad-check", "oracle-check", "sweep"])
    def test_no_other_command_rewrites_the_train_record(self, tmp_path, command, extra,
                                                        prefix):
        out = tmp_path / "run"
        assert main(["train", *MICRO, "--out", str(out)]) == 0
        written = {name: (out / name).read_bytes() for name in ("run.json", "config.yaml")}
        # oracle-check's 2-iteration model fails its comparison and exits 1;
        # the record is written either way
        main([command, *MICRO, *extra, "--out", str(out)])
        for name, before in written.items():
            assert (out / name).read_bytes() == before, name
        assert json.loads((out / f"{prefix}run.json").read_text())["command"] == command
        assert (out / f"{prefix}config.yaml").exists()

    def test_eval_refuses_another_seed_or_budget(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", *MICRO, "--seed", "0", "--out", str(out)]) == 0
        trained = json.loads((out / "checkpoint.ckpt").read_bytes().partition(b"\n")[0])
        for other in (["--seed", "1"], ["--set", "train.iterations=3"]):
            args = [*MICRO, *other, "--out", str(out)]
            expected = model_fingerprint(resolve_config(build_parser().parse_args(["eval", *args])))
            capsys.readouterr()
            assert main(["eval", *args]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: config hash mismatch") and err.count("\n") == 1
            assert trained["config_hash"] in err and expected in err
        assert main(["eval", *MICRO, "--seed", "0", "--out", str(out)]) == 0

    def test_eval_accepts_the_integer_spelling_it_was_trained_with(self, tmp_path):
        # lq's default cost.beta is 1.0; training with "1" names the same model
        out = tmp_path / "run"
        assert main(["train", *MICRO, "--set", "cost.beta=1", "--out", str(out)]) == 0
        assert "  beta: 1.0\n" in (out / "config.yaml").read_text()
        assert main(["eval", *MICRO, "--out", str(out)]) == 0

    def test_eval_rejects_mismatched_architecture(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", *MICRO, "--out", str(out)]) == 0
        code = main(["eval", *MICRO, "--set", "train.hidden_size=8",
                     "--out", str(out)])
        assert code == 1
        assert "shape mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["entries", "schema"])
    def test_eval_malformed_manifest_exits_one(self, tmp_path, capsys, key):
        out = tmp_path / "run"
        assert main(["train", *MICRO, "--out", str(out)]) == 0
        ckpt = out / "checkpoint.ckpt"
        head, _, payload = ckpt.read_bytes().partition(b"\n")
        manifest = json.loads(head)
        del manifest[key]
        ckpt.write_bytes(json.dumps(manifest).encode() + b"\n" + payload)
        capsys.readouterr()
        assert main(["eval", *MICRO, "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and key in err[0]

    def test_flag_overrides_win(self, tmp_path):
        out = tmp_path / "run"
        assert main(["train", *MICRO, "--out", str(out), "--seed", "5",
                     "--mode", "baseline"]) == 0
        cfg = (out / "config.yaml").read_text()
        assert "seed: 5" in cfg
        assert "mode: baseline" in cfg

    def test_sweep_micro(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep", *MICRO, "--set", "sweep.epsilons=[0.5]", "--out", str(out)])
        assert code == 0
        text = (out / "sweep.csv").read_text()
        assert text.startswith("# schema minmax-fbsde.sweep.v1")
        assert "baseline" in text and "0.5" in text
        # 2 iterations may or may not clear the fixed success rate; each
        # row's status follows it either way
        rows = list(csv.DictReader(text.splitlines()[1:]))
        assert [r["mode"] for r in rows] == ["baseline", "minmax"]
        for r in rows:
            ok = float(r["success_rate"]) >= evaluation.SWEEP_MIN_SUCCESS
            assert r["status"] == ("ok" if ok else "failed"), r
        stdout = capsys.readouterr().out
        assert "epsilon" in stdout and "baseline" in stdout and "reduction %" in stdout

    def test_bad_config_exits_two(self, capsys):
        code = main(["train", "--set", "cost.epsilon=-1"])
        assert code == 2
        assert "cost.epsilon" in capsys.readouterr().err
        assert main(["train", "--seed", "-3"]) == 2
        assert capsys.readouterr().err == "error: seed: must be >= 0\n"

    def test_workers_other_than_one_exits_two(self, tmp_path, capsys):
        assert main(["train", *MICRO, "--set", "workers=2", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: workers: ") and err.count("\n") == 1
        with pytest.raises(SystemExit) as exc:
            main(["train", "--workers", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("pair", ["cost.control_weight=.inf", "cost.epsilon=.nan"])
    def test_nonfinite_number_exits_two(self, tmp_path, capsys, pair):
        assert main(["train", *MICRO, "--set", pair, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {pair.split('=')[0]}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["train", "eval", "sweep"])
    def test_weight_count_exits_two_before_any_output(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        args = [command, "--set", "cost.running_weights=[1]", "--out", str(out)]
        assert main(args) == 2
        assert capsys.readouterr().err == (
            "error: cost.running_weights: expected 2 entries for pendulum, got 1\n")
        assert not out.exists()

    def test_runaway_loss_is_one_error_line(self, tmp_path, capsys):
        args = ["train", "--set", "train.learning_rate=1.0e+100", "--set", "train.iterations=5",
                "--set", "train.batch_size=8", "--set", "train.steps=5",
                "--out", str(tmp_path / "out")]
        assert main(args) == 1
        assert capsys.readouterr().err == "error: iteration 1: non-finite loss inf\n"

    def test_overflowing_model_is_one_error_line(self, tmp_path, capsys):
        # finite weights near 1e300, like those one Adam step at lr 1e300
        # leaves, overflow every terminal cost of their rollouts: no trajectory
        # is alive. ``train`` saves no such model, so this test does
        out = tmp_path / "out"
        cfg = resolve_config(build_parser().parse_args(["train", "--out", str(out), *RUINOUS]))
        setup = build_runtime(cfg)
        store = training.init_store(setup.system, setup.train)
        store.theta *= 1e300
        assert np.all(np.isfinite(store.theta))
        out.mkdir()
        training.save_checkpoint(store, setup.checkpoint_path, seed=cfg.seed,
                                 config_hash=setup.model_hash)
        assert main(["eval", "--out", str(out), *RUINOUS, "--set", "eval.batch_size=8"]) == 1
        err = capsys.readouterr().err
        assert err == "error: only 0 live trajectories; cannot summarize\n"
        assert not (out / "eval_report.json").exists()

    def test_a_ruinous_last_update_leaves_no_checkpoint(self, tmp_path, capsys):
        # the one row's loss predates the update that ruins the model
        out = tmp_path / "out"
        assert main(["train", "--out", str(out), *RUINOUS]) == 1
        assert capsys.readouterr().err == ("error: final parameters: 4/4 samples of their "
                                           "rollout diverged\n")
        assert not (out / "checkpoint.ckpt").exists()
        rows = (out / "loss_history.csv").read_text().splitlines()
        assert len(rows) == 3 and rows[2].startswith("0,")

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_quadcopter_reports_are_strict_json(self, tmp_path, command):
        # nine of its twelve dimensions have no success tolerance (inf)
        out = tmp_path / "quad"
        sets = ["--set", "system=quadcopter", "--set", "train.iterations=1",
                "--set", "train.batch_size=4", "--set", "train.steps=3",
                "--set", "train.hidden_size=4", "--set", "eval.batch_size=8",
                "--set", "sweep.epsilons=[0.5]"]
        if command == "eval":
            assert main(["train", "--out", str(out), *sets]) == 0
        assert main([command, "--out", str(out), *sets]) == 0
        paths = ([out / "eval_report.json"] if command == "eval"
                 else [out / label / "eval_report.json" for label in ("baseline", "eps_0.5")])
        for path in paths:
            text = path.read_text()
            assert "Infinity" not in text

            def reject(constant):
                raise ValueError(f"{path}: {constant}")

            tolerance = json.loads(text, parse_constant=reject)["success_tolerance"]
            assert tolerance.count(None) == 9 and all(t is None or t > 0 for t in tolerance)
        if command == "sweep":  # every condition was evaluated
            rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()[1:]))
            assert len(rows) == 2 and all(row["success_rate"] for row in rows), rows

    def test_missing_config_file_exits_two(self, capsys):
        code = main(["train", "--config", "/nonexistent/exp.yaml"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,fragment", [
        ("yaml", "invalid YAML"),
        ("directory", "directory"),
        ("latin-1", "not UTF-8"),
    ])
    def test_unreadable_config_file_exits_two(self, tmp_path, capsys, kind, fragment):
        path = tmp_path / "exp.yaml"
        if kind == "yaml":
            path.write_text("system: [\n")
        elif kind == "directory":
            path.mkdir()
        else:
            path.write_bytes("system: pendulum  # r\xe9glage\n".encode("latin-1"))
        with pytest.raises(ConfigError, match=fragment):
            parse_config(str(path))
        code = main(["train", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and fragment in err
        assert err.count("\n") == 1

    def test_grad_check_passes(self, tmp_path, capsys):
        out = tmp_path / "audit"
        code = main(["grad-check", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "[ok]" in stdout and "FAIL" not in stdout
        payload = json.loads((out / "gradcheck_report.json").read_text())
        assert payload["schema"] == "minmax-fbsde.gradcheck-report.v1"
        assert all(row["passed"] for row in payload["rows"])

    def test_oracle_check_plumbing(self, tmp_path, capsys):
        # tiny budget: the closed-form checks must pass and be reported even
        # though the under-trained network comparison fails
        out = tmp_path / "oracle"
        code = main(["oracle-check", "--set", "train.iterations=2",
                     "--set", "train.batch_size=4", "--out", str(out)])
        stdout = capsys.readouterr().out
        assert "[ok] stationary weight stays fixed" in stdout
        assert "[ok] scalar closed form" in stdout
        assert "[ok] step halving self-consistent" in stdout
        assert code == 1  # 2 iterations cannot match the oracle
        payload = json.loads((out / "oracle_report.json").read_text())
        names = {c["name"]: c["passed"] for c in payload["checks"]}
        assert names["scalar closed form"]
        assert not names["initial value within 5% of oracle"]
        assert payload["mode"] == "baseline"
        assert "(baseline mode" in stdout

    def test_oracle_check_minmax_uses_the_game_value(self, tmp_path, capsys):
        # report fields only: at 2 iterations the comparison itself must fail
        out = tmp_path / "oracle"
        code = main(["oracle-check", "--mode", "minmax", "--set", "cost.epsilon=0.2",
                     "--set", "train.iterations=2", "--set", "train.batch_size=4",
                     "--out", str(out)])
        stdout = capsys.readouterr().out
        payload = json.loads((out / "oracle_report.json").read_text())
        setup = config_mod.build_runtime(
            config_mod.parse_config(None, ["system=lq", "cost.epsilon=0.2"]))
        bench = evaluation.lq_benchmark(setup)
        game = evaluation.riccati_oracle(bench, setup.grid, inv_epsilon=5.0).value(bench.x0, 0)
        neutral = evaluation.riccati_oracle(bench, setup.grid).value(bench.x0, 0)
        euler = evaluation.discrete_riccati(bench, setup.grid, inv_epsilon=5.0).value(bench.x0, 0)
        assert code == 1
        assert payload["mode"] == "minmax"
        assert payload["oracle_value"] == game
        assert payload["euler_value"] == euler
        assert game > 1.05 * neutral
        assert f"(minmax mode, oracle value {game:.6f})" in stdout
        assert f"(discrete Riccati): {euler:.6f}" in stdout

    def test_oracle_check_of_a_ruinous_run_is_one_error_line(self, capsys):
        # the last update ruins the model: the final-θ check ends training
        # before any comparison with the oracle, which would overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["oracle-check", *RUINOUS]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: final parameters: 4/4 samples of their rollout diverged\n"
        assert "trained" not in captured.out

    def test_oracle_check_below_the_breakdown_is_one_error_line(self, tmp_path, capsys):
        # epsilon = 0.01 lies below epsilon* ~ 0.0323 at T = 1: the game has no value
        code = main(["oracle-check", "--mode", "minmax", "--set", "cost.epsilon=0.01",
                     "--out", str(tmp_path / "oracle")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Riccati" in err
        assert "cost.epsilon=0.01" in err
        assert "game has no value on this horizon" in err


ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def readme_commands() -> list[str]:
    """Every ``minmax-fbsde ...`` line inside the README's fenced blocks."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), re.M | re.S)
    return [line.strip() for block in blocks for line in block.splitlines()
            if line.startswith("minmax-fbsde ")]


def readme_configuration() -> str:
    """The YAML block of the README's ``## Configuration`` section."""
    section = README.read_text().split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"^```yaml\n(.*?)^```", section, re.M | re.S).group(1)


def test_readme_configuration_parses(tmp_path):
    # every documented key must exist; a removed key still documented fails here
    path = tmp_path / "readme.yaml"
    path.write_text(readme_configuration())
    cfg = parse_config(str(path))
    assert cfg.to_dict() == default_config("pendulum").to_dict()


def settable_keys(node, prefix: str = ""):
    """Every dotted key of a config dataclass, descending into its sections."""
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if dataclasses.is_dataclass(value):
            yield from settable_keys(value, prefix=f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}"


def test_readme_configuration_names_every_key():
    # a key added to or removed from the config must be added to or removed
    # from the README's block too; workers is left out on purpose: it accepts
    # only 1 and stays settable because the benchmark sets it
    documented = {key for key, _ in config_mod._flatten(yaml.safe_load(readme_configuration()))}
    accepted = set(settable_keys(default_config("pendulum")))
    assert documented == accepted - {"workers"}
    assert "workers" in accepted


def test_readme_output_files_name_every_schema():
    # a schema bump that leaves the README on the old name fails here
    section = README.read_text().split("\n## Output files\n", 1)[1].split("\n## ", 1)[0]
    for schema in (training.CHECKPOINT_SCHEMA, training.LOSS_SCHEMA, evaluation.EVAL_SCHEMA,
                   evaluation.TRAJECTORY_SCHEMA, evaluation.SWEEP_SCHEMA):
        assert f"`{schema}`" in section, schema


class TestReadmeCommands:
    def test_readme_lists_every_command(self):
        used = {shlex.split(line)[1] for line in readme_commands()}
        assert used == {"train", "eval", "sweep", "oracle-check", "grad-check"}

    @pytest.mark.parametrize("line", readme_commands())
    def test_documented_command_resolves(self, line):
        args = build_parser().parse_args(shlex.split(line)[1:])
        resolve_config(args)


PACKAGE = ROOT / "src" / "minmax_fbsde"
# defined in src/ and called only by tests, on purpose
TEST_ONLY = {
    "bsde_consistency_gaps",  # acceptance criterion 4's consistency check
}
# defined in src/ and called only by the gradient audit, on purpose; outside
# its own module the audit is no caller of anything else
AUDIT_ONLY = {
    "finite_difference_check": "the central differences every audit row is checked against",
}


def module_level_definitions(tree: ast.Module):
    """Names of the functions and classes a module defines, and of their
    classes' methods as ``Class.method``; dunders are left out."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)) and not node.name.startswith("__"):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}"


def referenced_names(tree: ast.Module):
    """Every name a module reads, every attribute it looks up and every name it imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
            if node.asname:
                yield node.asname


def autodiff_references(tree: ast.Module, inside: bool):
    """The ``autodiff`` names a module uses: ``ad.<name>``, ``autodiff.<name>``,
    an import from ``.autodiff`` or, ``inside`` ``autodiff.py``, a bare name;
    ``np.sin`` is no use of an ``autodiff.sin``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in ("ad", "autodiff")):
            yield node.attr
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("autodiff"):
            yield from (alias.name for alias in node.names)
        elif inside and isinstance(node, ast.Name):
            yield node.id


def test_src_defines_only_code_that_runs():
    # the package's own modules and the benchmark are the callers; the
    # package's __init__ only re-exports, and an export is not a call
    src = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))
           if p.name != "__init__.py"}
    callers = [(stem, tree) for stem, tree in src.items() if stem != "gradcheck"]
    callers += [("bench", ast.parse(p.read_text())) for p in sorted((ROOT / "bench").glob("*.py"))]
    used = {name for _, tree in callers for name in referenced_names(tree)}
    used_ad = {name for stem, tree in callers
               for name in autodiff_references(tree, stem == "autodiff")}
    audit = set(referenced_names(src["gradcheck"]))
    unused = []
    for stem, tree in src.items():
        for name in module_level_definitions(tree):
            short = name.rsplit(".", 1)[-1]
            # a method is looked up on an instance, so any attribute counts
            pool = used_ad if stem == "autodiff" and "." not in name else used
            # the audit calls its own helpers and the AUDIT_ONLY names
            audited = short in audit and (stem == "gradcheck" or name in AUDIT_ONLY)
            if not (short in pool or name in TEST_ONLY or audited):
                unused.append(f"{stem}.{name}")
    assert not unused, f"defined in src/ but only tests or the audit use them: {unused}"


def identifiers(node: ast.AST):
    """Every name, attribute and parameter that ``node`` and its body spell."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.arg):
            yield sub.arg


def test_the_tape_knows_no_primitive():
    """``Tape`` runs every primitive through its ``kernel`` and ``vjp``
    alone: no method names a primitive, its helper, kernel or backward, or a
    per-op table, and none compares against a string such as an op's name."""
    tree = ast.parse((PACKAGE / "autodiff.py").read_text())
    (tape,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Tape"]
    defined = {name for name in module_level_definitions(tree) if "." not in name}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        defined |= {target.id for target in targets if isinstance(target, ast.Name)}
    # the module's names, less the ones a tape is made of
    forbidden = (defined | {"_forward", "_backward", "_FUSED"}) - {
        "Tape", "Var", "_Node", "Primitive", "ShapeError", "as_matrix"}
    methods = [node for node in tape.body if isinstance(node, ast.FunctionDef)]
    named = sorted({f"Tape.{method.name}: {name}" for method in methods
                    for name in identifiers(method) if name in forbidden})
    compared = sorted({f"Tape.{method.name}: line {node.lineno}" for method in methods
                       for node in ast.walk(method) if isinstance(node, ast.Compare)
                       and any(isinstance(side, ast.Constant) and isinstance(side.value, str)
                               for side in (node.left, *node.comparators))})
    assert not named and not compared, f"the tape knows primitives: {named + compared}"


def test_the_runtime_has_one_mode():
    """The rollout, its adjoint, the network, the systems and the gradient
    audit run on arrays only: none of them names ``Var``, ``Tape`` or a tape.
    The audit checks each primitive's ``vjp`` on a logged tape-free call, as
    the training adjoint runs it."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    runtime = []
    for stem in ("fbsde", "neural", "systems", "gradcheck"):
        tree = ast.parse((PACKAGE / f"{stem}.py").read_text())
        runtime += [(stem, node) for node in ast.walk(tree) if isinstance(node, functions)
                    and (stem != "fbsde" or getattr(node, "name", "") in ("rollout_batch",
                                                                          "rollout_adjoint"))]
    assert {node.name for stem, node in runtime if stem == "fbsde"} == {"rollout_batch",
                                                                       "rollout_adjoint"}
    taped = sorted({f"{stem}.{getattr(node, 'name', 'lambda')}: {name}" for stem, node in runtime
                    for name in identifiers(node)
                    if name in ("Var", "Tape") or "tape" in name.lower()})
    assert not taped, f"runtime code that names the tape: {taped}"
