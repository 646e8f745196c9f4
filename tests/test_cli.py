import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from minmax_fbsde import config as config_mod
from minmax_fbsde import evaluation, training
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
        tree = parse_overrides(["train.clip_norm=null", "cost.epsilon=0.5",
                                "sweep.epsilons=[1.0, 2.0]", "noise=high"])
        assert tree["train"]["clip_norm"] is None
        assert tree["cost"]["epsilon"] == 0.5
        assert tree["sweep"]["epsilons"] == [1.0, 2.0]
        assert tree["noise"] == "high"

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
        ("train.clip_norm", -2, "train.clip_norm"),
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
        ("eval.success_tolerance", "[.nan, 1.0]", r"eval.success_tolerance\[0\]"),
    ])
    def test_bad_value_names_its_key(self, key, value, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_config(None, [f"{key}={value}"])

    def test_infinite_success_tolerance_leaves_a_dimension_free(self):
        cfg = parse_config(None, ["eval.success_tolerance=[.inf, 1.0]"])
        setup = build_runtime(cfg)
        np.testing.assert_array_equal(setup.system.success_tol, [np.inf, 1.0])

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

    def test_success_tolerance_override(self):
        cfg = default_config("pendulum")
        cfg.eval.success_tolerance = [0.5, 2.0]
        setup = build_runtime(cfg)
        np.testing.assert_array_equal(setup.system.success_tol, [0.5, 2.0])
        cfg.eval.success_tolerance = [0.5]
        with pytest.raises(ConfigError, match="success_tolerance"):
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

    def test_physics_reach_the_system(self):
        cfg = default_config("pendulum")
        cfg.physics = {"mass": 2.0}
        setup = build_runtime(cfg)
        assert setup.system.params["mass"] == 2.0

    def test_fingerprint_ignores_bookkeeping(self):
        a = default_config("pendulum")
        b = default_config("pendulum")
        b.seed = 99
        b.out = "elsewhere"
        b.eval.batch_size = 4
        b.train.iterations = 1
        assert model_fingerprint(a) == model_fingerprint(b)

    def test_fingerprint_tracks_model_shape(self):
        a = default_config("pendulum")
        for mutate in (
            lambda c: setattr(c.train, "hidden_size", 99),
            lambda c: setattr(c.cost, "epsilon", 99.0),
            lambda c: setattr(c, "mode", "baseline"),
            lambda c: setattr(c, "noise", "high"),
        ):
            b = default_config("pendulum")
            mutate(b)
            assert model_fingerprint(a) != model_fingerprint(b)

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
        assert "checkpoint not found" in err
        assert str(out / "checkpoint.ckpt") in err

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

    def test_eval_rejects_mismatched_architecture(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", *MICRO, "--out", str(out)]) == 0
        code = main(["eval", *MICRO, "--set", "train.hidden_size=8",
                     "--out", str(out)])
        assert code == 1
        assert "shape mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["entries", "adam"])
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
        code = main(["sweep", *MICRO,
                     "--set", "sweep.epsilons=[0.5]",
                     "--set", "sweep.success_threshold=0.0",
                     "--out", str(out)])
        assert code == 0
        text = (out / "sweep.csv").read_text()
        assert text.startswith("# schema minmax-fbsde.sweep.v1")
        assert "baseline" in text and "0.5" in text
        stdout = capsys.readouterr().out
        assert "epsilon" in stdout and "baseline" in stdout and "reduction %" in stdout

    def test_bad_config_exits_two(self, capsys):
        code = main(["train", "--set", "cost.epsilon=-1"])
        assert code == 2
        assert "cost.epsilon" in capsys.readouterr().err

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
        assert code == 1
        assert payload["mode"] == "minmax"
        assert payload["oracle_value"] == game
        assert game > 1.05 * neutral
        assert f"(minmax mode, oracle value {game:.6f})" in stdout

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


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[str]:
    """Every ``minmax-fbsde ...`` line inside the README's fenced blocks."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), re.M | re.S)
    return [line.strip() for block in blocks for line in block.splitlines()
            if line.startswith("minmax-fbsde ")]


class TestReadmeCommands:
    def test_readme_lists_every_command(self):
        used = {shlex.split(line)[1] for line in readme_commands()}
        assert used == {"train", "eval", "sweep", "oracle-check", "grad-check"}

    @pytest.mark.parametrize("line", readme_commands())
    def test_documented_command_resolves(self, line):
        args = build_parser().parse_args(shlex.split(line)[1:])
        resolve_config(args)
