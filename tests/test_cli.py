"""CLI verbs, strict config handling, exit codes, output files."""

import csv
import io
import json
import multiprocessing
import os
import struct
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from warmproto import cli, fps, trainer
from warmproto.cli import ExperimentConfig, load_experiment_config, main, worker_cap
from warmproto.episodes import MAX_SIZE, GeneratorConfig, load_episode, save_episode
from warmproto.errors import ArgumentError, CheckpointError, ConfigError, NumericError
from warmproto.fps import evaluate_fps, fps_seed_sweep
from warmproto.rng import derive_rng
from warmproto.trainer import TrainConfig, evaluate, make_eval_episodes, train
from warmproto.warm import ABLATION_GRID, VARIANTS, init_params, load_checkpoint, save_checkpoint

REPO = Path(__file__).resolve().parents[1]
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# what a fresh interpreter sees once it has imported the package, after numpy if argv[1] says so
PIN_SCRIPT = """
import json, os, sys
if sys.argv[1] == "numpy":
    import numpy
import warmproto
from warmproto.cli import worker_cap
env = {var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
print(json.dumps([warmproto.BLAS_PINNED, env, worker_cap()]))
"""

SMALL_CONFIG = {
    "generator": {"feature_dim": 8, "points_per_cloud": 128, "min_fg_points": 16},
    "train": {"epochs": 1, "episodes_per_epoch": 4, "num_tokens": 6},
    "eval_episodes": 3,
    "num_episodes": 3,
    "fps_seeds": 3,
    "seeds": [0],
    "token_counts": [2, 4],
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return path


def fresh_env(**values):
    """The environment for a subprocess that imports this tree's package:
    this one's, less the BLAS variables (which the package's import set
    here), plus ``values``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return dict(env, **values)


def use_workers(monkeypatch, count):
    """Run the verbs on ``count`` workers, or on what ``worker_cap`` gives when None."""
    monkeypatch.setattr(cli, "worker_cap", worker_cap if count is None else lambda: count)


def read_csv(path):
    with Path(path).open() as fh:
        return list(csv.reader(fh))


class TestConfigLoading:
    def test_defaults_when_no_file(self):
        cfg = load_experiment_config(None)
        assert cfg.method == "warm"
        assert cfg.generator.feature_dim == 32

    def test_bundled_default_config_parses(self):
        path = REPO / "configs" / "default.json"
        cfg = load_experiment_config(path)
        assert cfg.train.lr == pytest.approx(1e-4)
        assert cfg.train.num_tokens == 100
        # field for field: a key missing from the file or set otherwise shows here
        assert json.loads(path.read_text()) == json.loads(json.dumps(asdict(ExperimentConfig())))

    def _exits_on_unknown(self, tmp_path, capsys, data, field):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown field(s)") and err.count("\n") == 1
        assert f"'{field}'" in err
        assert not (tmp_path / "o").exists()
        return err

    def test_unknown_top_level_field(self, tmp_path, capsys):
        # a misspelt section, and the split switches that configs no longer have
        for field, value in [("generatro", {}), ("eval_split", "novel"), ("gen_split", "novel")]:
            self._exits_on_unknown(tmp_path, capsys, {field: value}, field)

    def test_unknown_nested_field(self, tmp_path, capsys):
        # a misspelt field, and the training switches that configs no longer have
        for field, value in [("learning_rate", 0.1), ("scale_logits", False), ("grad_clip", None), ("eps", 1e-4)]:
            err = self._exits_on_unknown(tmp_path, capsys, {"train": {field: value}}, field)
            assert "'train'" in err

    def test_repeated_key_exit_1(self, tmp_path, capsys):
        # json.loads alone keeps the last value, so the invalid first one would pass unchecked
        text = json.dumps(SMALL_CONFIG)
        path = tmp_path / "c.json"
        for raw, key in [
            ('{"eval_episodes": 0, ' + text[1:], "eval_episodes"),
            (text.replace('"train": {', '"train": {"num_tokens": 0, '), "num_tokens"),
        ]:
            path.write_text(raw)
            assert main(["gen", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert f"'{key}'" in err
            assert not (tmp_path / "o").exists()

    def test_non_utf8_config_exit_1(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_bytes(b"\xff{")
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config {path}: ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{\n  "train": oops\n}')
        with pytest.raises(ConfigError) as err:
            load_experiment_config(path)
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize(
        "data, field",
        [
            pytest.param({"generator": {"feature_dim": "32"}}, "feature_dim", id="feature_dim-string"),
            pytest.param({"train": {"lr": None}}, "lr", id="lr-null"),
            pytest.param({"eval_episodes": "3"}, "eval_episodes", id="eval_episodes-string"),
            pytest.param({"train": {"lr_milestones": 0.5}}, "lr_milestones", id="lr_milestones-number"),
            pytest.param({"seeds": 5}, "seeds", id="seeds-number"),
            pytest.param({"token_counts": [1.5]}, "token_counts", id="token_counts-float"),
            # integers past a double's range, and past int()'s 4,300-digit limit, which json.loads applies
            pytest.param({"train": {"lr": 10**400}}, "lr", id="lr-huge-int"),
            pytest.param({"generator": {"instance_spread": 10**400}}, "instance_spread", id="spread-huge-int"),
            pytest.param('{"train": {"lr": 1%s}}' % ("0" * 5000), "lr", id="lr-5001-digits"),
            pytest.param('{"eval_episodes": -1%s}' % ("0" * 5000), "eval_episodes", id="eval_episodes-5001-digits"),
            pytest.param({"generator": 3}, "generator", id="generator-number"),
            pytest.param({"train": [1]}, "train", id="train-list"),
        ],
    )
    def test_wrong_json_type_exit_1(self, tmp_path, capsys, data, field):
        path = tmp_path / "c.json"
        path.write_text(data if isinstance(data, str) else json.dumps(data))
        assert main(["gen", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"'{field}'" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "data, field",
        [
            pytest.param({"train": {"weight_decay": float("nan")}}, "weight_decay", id="weight_decay-NaN"),
            pytest.param({"generator": {"instance_spread": float("inf")}}, "instance_spread", id="spread-Infinity"),
            pytest.param({"train": {"lam": float("nan")}}, "lam", id="lam-NaN"),
            pytest.param({"train": {"lr_milestones": [0.6, -float("inf")]}}, "lr_milestones", id="milestone-Infinity"),
        ],
    )
    def test_non_finite_json_float_exit_1(self, tmp_path, capsys, data, field):
        path = tmp_path / "c.json"
        text = json.dumps(data)  # the NaN and Infinity literals, which json.loads reads back
        assert "NaN" in text or "Infinity" in text
        path.write_text(text)
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"'{field}'" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "verb, data, field",
        [
            pytest.param("gen", {"generator": {"feature_dim": 10**30}}, "feature_dim", id="feature_dim"),
            pytest.param("gen", {"generator": {"points_per_cloud": 10**12}}, "points_per_cloud", id="points"),
            pytest.param("train", {"train": {"epochs": 10**30}}, "epochs", id="epochs"),
            pytest.param("train", {"train": {"epochs": 2**16, "episodes_per_epoch": 2**16}}, "epochs", id="steps"),
            pytest.param("train", {"train": {"num_tokens": 10**30}}, "num_tokens", id="num_tokens"),
            pytest.param("token-sweep", {"token_counts": [1, 2**32]}, "token_counts", id="token_counts"),
            pytest.param("eval", {"method": "fps-min-dist", "eval_episodes": 2**32}, "eval_episodes", id="episodes"),
            # WARM-EP1 stores class ids as u32
            pytest.param("gen", {"generator": {"novel_classes": [2**32, 9]}}, "novel_classes", id="class_id"),
        ],
    )
    def test_oversized_integer_exit_1(self, tmp_path, capsys, verb, data, field):
        # rejected while the config is read: nothing is allocated or run
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        assert main([verb, "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert field in err and str(MAX_SIZE) in err
        assert not (tmp_path / "o").exists()

    def test_largest_sizes_are_valid(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(
            json.dumps({"generator": {"bg_components": MAX_SIZE}, "train": {"epochs": 1, "episodes_per_epoch": MAX_SIZE}})
        )
        cfg = load_experiment_config(path)  # read only: nothing runs
        assert cfg.generator.bg_components == MAX_SIZE and cfg.train.total_steps == MAX_SIZE

    def test_out_of_memory_exit_1(self, tmp_path, monkeypatch, capsys):
        # the error numpy raises for an allocation that cannot be met, without making one
        def too_big(*args, **kwargs):
            raise MemoryError("Unable to allocate 140. TiB for an array with shape (1000000000000, 32)")

        monkeypatch.setattr(cli, "gen_episode", too_big)
        assert main(["gen", "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: Unable to allocate") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "build, field",
        [
            pytest.param(lambda: GeneratorConfig(k_shot=0), "k_shot", id="generator"),
            pytest.param(lambda: replace(TrainConfig(), num_tokens=0), "num_tokens", id="train-replace"),
            pytest.param(lambda: ExperimentConfig(fps_seeds=0), "fps_seeds", id="experiment"),
        ],
    )
    def test_configs_check_themselves_when_built(self, build, field):
        with pytest.raises(ConfigError, match=f"^{field} must be >= 1, got 0$"):
            build()

    def test_json_integers_fill_float_fields(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"train": {"lr": 1, "lam": 2}, "generator": {"instance_spread": 4}}))
        cfg = load_experiment_config(path)
        assert cfg.train.lr == 1 and cfg.train.lam == 2 and cfg.generator.instance_spread == 4

    def test_method_strings(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        for name in ["fps-min-dist", *VARIANTS]:
            path.write_text(json.dumps({"method": name}))
            assert load_experiment_config(path).method == name
        for name in ("ablation:whiten,on", "mystery"):
            path.write_text(json.dumps({"method": name}))
            with pytest.raises(ConfigError):
                load_experiment_config(path)
            assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: unknown method {name!r}; expected one of ") and err.count("\n") == 1
            assert all(repr(valid) in err for valid in ["fps-min-dist", *VARIANTS])
        assert not (tmp_path / "o").exists()


class TestGen:
    def test_gen_byte_identical_and_round_trip(self, config_path, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["gen", "--config", str(config_path), "--out", str(out1)]) == 0
        assert main(["gen", "--config", str(config_path), "--out", str(out2)]) == 0
        files1 = sorted(out1.glob("*.warmep"))
        assert len(files1) == 3
        for f1 in files1:
            assert f1.read_bytes() == (out2 / f1.name).read_bytes()
        sidecar = json.loads((out1 / "generator_config.json").read_text())
        assert sidecar["command"] == "gen" and len(sidecar["config_sha256"]) == 64

    def test_gen_refuses_another_batchs_files(self, config_path, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["gen", "--config", str(config_path), "--out", str(out)]) == 0
        assert main(["gen", "--config", str(config_path), "--out", str(out)]) == 0  # same batch again
        before = {f.name: f.read_bytes() for f in out.iterdir()}
        fewer, more = tmp_path / "fewer.json", tmp_path / "more.json"
        fewer.write_text(json.dumps(dict(SMALL_CONFIG, num_episodes=2)))
        more.write_text(json.dumps(dict(SMALL_CONFIG, num_episodes=4)))
        assert main(["gen", "--config", str(fewer), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {out} holds ep_00002.warmep, which a batch of 2 does not write\n"
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before  # nothing deleted or rewritten
        assert main(["gen", "--config", str(more), "--out", str(out)]) == 0
        assert len(list(out.glob("*.warmep"))) == 4
        (out / "other.warmep").write_bytes(b"")
        assert main(["gen", "--config", str(more), "--out", str(out)]) == 1
        assert "holds other.warmep," in capsys.readouterr().err

    def test_gen_invalid_config_exit_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{bad json")
        assert main(["gen", "--config", str(path), "--out", str(tmp_path / "o")]) == 1


class TestTrainEval:
    def test_full_pipeline(self, config_path, tmp_path):
        train_out = tmp_path / "train"
        assert main(["train", "--config", str(config_path), "--out", str(train_out)]) == 0
        assert (train_out / "checkpoint.json").exists()
        log = read_csv(train_out / "training_log.csv")
        assert log[0] == ["episode_idx", "loss_margin", "loss_sim", "loss_total", "grad_norm", "lr"]
        assert len(log) == 5  # header + 4 episodes
        assert (train_out / "timing.csv").exists()

        eval_out = tmp_path / "eval"
        code = main(
            [
                "eval",
                "--config",
                str(config_path),
                "--checkpoint",
                str(train_out / "checkpoint.json"),
                "--out",
                str(eval_out),
            ]
        )
        assert code == 0
        rows = read_csv(eval_out / "metrics.csv")
        assert rows[0] == [
            "miou", "iou_0", "iou_1", "d_intra", "d_inter", "d_instance",
            "attn_entropy", "attn_diversity", "qk_dist",
        ]
        assert len(rows) == 2
        assert 0.0 <= float(rows[1][0]) <= 1.0

    def test_train_epochs_zero_checkpoint_equals_init(self, tmp_path):
        cfg = dict(SMALL_CONFIG)
        cfg["train"] = dict(cfg["train"], epochs=0)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 0
        ckpt = json.loads((out / "checkpoint.json").read_text())
        assert np.asarray(ckpt["tokens"]).shape == (12, 8)

    def test_eval_dim_mismatch_exit_1(self, config_path, tmp_path, capsys):
        train_out = tmp_path / "train"
        main(["train", "--config", str(config_path), "--out", str(train_out)])
        other = dict(SMALL_CONFIG)
        other["generator"] = dict(other["generator"], feature_dim=16)
        other_path = tmp_path / "other.json"
        other_path.write_text(json.dumps(other))
        code = main(
            [
                "eval",
                "--config",
                str(other_path),
                "--checkpoint",
                str(train_out / "checkpoint.json"),
                "--out",
                str(tmp_path / "eval"),
            ]
        )
        assert code == 1
        assert "D=" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("verb", ["eval", "eval+fps-min-dist", "ablate", "token-sweep", "sweep-fps"])
    def test_mixed_dims_in_data_dir_exit_1(self, config_path, tmp_path, monkeypatch, capfd, verb, workers):
        # episode 0 matches the D=8 config and checkpoint, episode 1 has D=16
        verb, _, method = verb.partition("+")
        data = tmp_path / "data"
        other = dict(SMALL_CONFIG, generator=dict(SMALL_CONFIG["generator"], feature_dim=16), num_episodes=2)
        other_path = tmp_path / "other.json"
        other_path.write_text(json.dumps(other))
        assert main(["gen", "--config", str(config_path), "--out", str(tmp_path / "d8")]) == 0
        assert main(["gen", "--config", str(other_path), "--out", str(tmp_path / "d16")]) == 0
        data.mkdir()
        (data / "ep_0.warmep").write_bytes((tmp_path / "d8" / "ep_00000.warmep").read_bytes())
        (data / "ep_1.warmep").write_bytes((tmp_path / "d16" / "ep_00001.warmep").read_bytes())
        run_config = config_path
        if method:
            run_config = tmp_path / "method.json"
            run_config.write_text(json.dumps(dict(SMALL_CONFIG, method=method)))
        argv = [verb, "--config", str(run_config), "--data", str(data), "--out", str(tmp_path / "o")]
        if verb == "eval" and not method:
            assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "train")]) == 0
            argv += ["--checkpoint", str(tmp_path / "train" / "checkpoint.json")]
        use_workers(monkeypatch, int(workers))

        def no_grid(*args, **kwargs):
            raise AssertionError("the grid trained before the batch was checked")

        # the grids must reject the batch before training a single run
        monkeypatch.setattr("warmproto.cli.run_grid", no_grid)
        capfd.readouterr()
        assert main(argv) == 1
        err = capfd.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "episode 1 has D=16" in err and "Traceback" not in err

    @pytest.mark.parametrize("batch_ways, config_ways", [(3, 1), (1, 3)])
    @pytest.mark.parametrize("verb", ["eval", "sweep-fps"])
    def test_n_way_mismatch_in_data_dir_exit_1(self, tmp_path, capfd, verb, batch_ways, config_ways):
        # the per-class IoU columns follow the config's n_way, so a batch
        # with other ways would lose columns or write empty ones
        def config(ways, name):
            generator = dict(SMALL_CONFIG["generator"], n_way=ways, min_fg_points=8)
            path = tmp_path / name
            path.write_text(json.dumps(dict(SMALL_CONFIG, generator=generator, method="fps-min-dist")))
            return str(path)

        data = tmp_path / "data"
        assert main(["gen", "--config", config(batch_ways, "batch.json"), "--out", str(data)]) == 0
        capfd.readouterr()
        argv = [verb, "--config", config(config_ways, "run.json"), "--data", str(data), "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        err = capfd.readouterr().err
        assert err == f"error: config has n_way={config_ways} but episode 0 has n_way={batch_ways}\n"
        assert not (tmp_path / "o" / ("metrics.csv" if verb == "eval" else "sweep.csv")).exists()

    def test_eval_fps_needs_no_checkpoint(self, config_path, tmp_path):
        cfg = dict(SMALL_CONFIG, method="fps-min-dist")
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "eval"
        assert main(["eval", "--config", str(path), "--out", str(out)]) == 0
        rows = read_csv(out / "metrics.csv")
        assert rows[1][6] == ""  # no attention entropy for the baseline

    def test_eval_from_generated_data_dir(self, config_path, tmp_path):
        data = tmp_path / "data"
        main(["gen", "--config", str(config_path), "--out", str(data)])
        cfg = dict(SMALL_CONFIG, method="fps-min-dist")
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "eval"
        code = main(["eval", "--config", str(path), "--data", str(data), "--out", str(out)])
        assert code == 0

    @pytest.mark.parametrize("method, code", [("naive", 0), ("center", 1), ("warm", 1)])
    def test_one_point_support_class_fails_only_where_read(self, config_path, tmp_path, capsys, method, code):
        # a --data foreground of one point has no covariance; "naive" reads none
        data = tmp_path / "data"
        assert main(["gen", "--config", str(config_path), "--out", str(data)]) == 0
        episode = load_episode(data / "ep_00001.warmep")
        labels = episode.support[0].labels
        labels[1:][labels[1:] == 1] = 0
        labels[0] = 1
        save_episode(episode, data / "ep_00001.warmep")
        checkpoint = tmp_path / "checkpoint.json"
        save_checkpoint(checkpoint, init_params(8, 6, derive_rng(0)), seed=0)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, method=method)))
        out = tmp_path / "o"
        capsys.readouterr()
        argv = ["eval", "--config", str(path), "--checkpoint", str(checkpoint), "--data", str(data), "--out", str(out)]
        assert main(argv) == code
        err = capsys.readouterr().err
        if code:
            assert err == "error: need at least 2 points for covariance, got 1\n"
        else:
            assert err == "" and len(read_csv(out / "metrics.csv")) == 2

    def test_train_missing_out_usage_error(self, config_path):
        assert main(["train", "--config", str(config_path)]) == 1


class TestSweeps:
    def test_sweep_fps_single_seed(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, fps_seeds=1)))
        out = tmp_path / "sweep"
        assert main(["sweep-fps", "--config", str(path), "--out", str(out)]) == 0
        rows = read_csv(out / "sweep.csv")
        assert rows[0] == ["seed", "mean_miou", "iou_0", "iou_1"]
        assert len(rows) == 2
        summary = read_csv(out / "sweep_summary.csv")
        assert summary[0] == ["best", "worst", "mean", "stdev", "spread"]
        assert float(summary[1][0]) == float(summary[1][1])  # best == worst with one seed
        assert float(summary[1][4]) == 0.0

    def test_sweep_fps_multi_seed(self, config_path, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep-fps", "--config", str(config_path), "--out", str(out)]) == 0
        rows = read_csv(out / "sweep.csv")
        assert len(rows) == 4  # header + 3 seeds from config

    def test_ablate_grid_rows(self, config_path, tmp_path):
        out = tmp_path / "ablate"
        assert main(["ablate", "--config", str(config_path), "--out", str(out)]) == 0
        rows = read_csv(out / "ablation.csv")
        assert rows[0] == ["variant", "seed", "qk_dist", "miou"]
        variants = [r[0] for r in rows[1:]]
        assert variants == [
            "naive", "center", "normalize", "whiten",
            "center+restore", "normalize+restore", "whiten+restore",
        ]

    def test_token_sweep_columns(self, config_path, tmp_path):
        out = tmp_path / "tokens"
        assert main(["token-sweep", "--config", str(config_path), "--out", str(out)]) == 0
        rows = read_csv(out / "token_sweep.csv")
        assert rows[0] == ["M", "miou_mean", "miou_std"]
        assert [r[0] for r in rows[1:]] == ["2", "4"]

    def test_report_prints_summaries(self, tmp_path, capsys):
        path = tmp_path / "two.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, fps_seeds=2)))
        out = tmp_path / "sweep"
        assert main(["sweep-fps", "--config", str(path), "--out", str(out)]) == 0
        assert main(["report", "--data", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "sweep_summary.csv" in printed

    def test_report_empty_dir_exit_1(self, tmp_path):
        assert main(["report", "--data", str(tmp_path)]) == 1

    def test_report_non_utf8_csv_exit_3(self, tmp_path, capsys):
        path = tmp_path / "metrics.csv"
        path.write_bytes(b"miou\r\n\xff\r\n")
        assert main(["report", "--data", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"io/format failure: {path} ") and err.count("\n") == 1

    def test_report_oversized_csv_field_exit_3(self, tmp_path, capsys):
        # the csv module refuses a field over its 131,072-character limit
        path = tmp_path / "metrics.csv"
        path.write_text("miou\r\n" + "x" * 200_000 + "\r\n")
        assert main(["report", "--data", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"io/format failure: {path} ") and err.count("\n") == 1


def csv_bytes(rows):
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode()


class TestSeedFlags:
    """``train --seed`` runs what its config runs with the value written in:
    the same files, the sidecar and the checkpoint's config hash too."""

    def test_flag_writes_what_the_config_field_writes(self, config_path, tmp_path):
        written = tmp_path / "written.json"
        written.write_text(json.dumps(dict(SMALL_CONFIG, train=dict(SMALL_CONFIG["train"], seed=5))))
        assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "flag"), "--seed", "5"]) == 0
        assert main(["train", "--config", str(written), "--out", str(tmp_path / "field")]) == 0
        files = {
            name: {p.name: p.read_bytes() for p in (tmp_path / name).iterdir() if p.name != "timing.csv"}
            for name in ("flag", "field")
        }
        assert files["flag"] == files["field"]


class TestGridMatchesSeparateRuns:
    """ablate and token-sweep train each seed's runs in lockstep on shared
    episodes; their files must equal one train + evaluate call per run."""

    def _config(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, seeds=[0, 1])))
        cfg = load_experiment_config(path)
        episodes = make_eval_episodes(cfg.generator, cfg.eval_episodes, cfg.eval_seed)
        return path, cfg, episodes

    def test_ablate_two_seeds(self, tmp_path):
        path, cfg, episodes = self._config(tmp_path)
        out = tmp_path / "ablate"
        assert main(["ablate", "--config", str(path), "--out", str(out)]) == 0
        rows = [["variant", "seed", "qk_dist", "miou"]]
        for seed in cfg.seeds:
            for variant in ABLATION_GRID:
                params = train(replace(cfg.train, seed=seed), cfg.generator, variant=variant).params
                (report,) = evaluate([(params, variant)], episodes)
                rows.append([variant, seed, repr(report.qk_dist), repr(report.miou)])
        assert (out / "ablation.csv").read_bytes() == csv_bytes(rows)

    def test_token_sweep_two_seeds(self, tmp_path):
        path, cfg, episodes = self._config(tmp_path)
        out = tmp_path / "tokens"
        assert main(["token-sweep", "--config", str(path), "--out", str(out)]) == 0
        rows = [["M", "miou_mean", "miou_std"]]
        for m in cfg.token_counts:
            scores = []
            for seed in cfg.seeds:
                params = train(replace(cfg.train, seed=seed, num_tokens=m), cfg.generator).params
                scores.append(evaluate([(params, "warm")], episodes)[0].miou)
            rows.append([m, repr(float(np.mean(scores))), repr(float(np.std(scores)))])
        assert (out / "token_sweep.csv").read_bytes() == csv_bytes(rows)


class TestGridWorkers:
    """``worker_cap`` sets the worker processes of ablate and token-sweep;
    the files and the failures must not depend on it."""

    @pytest.mark.parametrize("verb, output", [("ablate", "ablation.csv"), ("token-sweep", "token_sweep.csv")])
    def test_same_bytes_at_every_worker_count(self, tmp_path, monkeypatch, verb, output):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, seeds=[0, 1], token_counts=[2, 4, 6])))
        files = {}
        # None means one worker per usable CPU; 3 cuts 7 ablate runs 3+2+2, 2 cuts 3 token runs 2+1
        for workers in (None, 1, 2, 3):
            use_workers(monkeypatch, workers)
            out = tmp_path / f"out-{workers}"
            assert main([verb, "--config", str(path), "--out", str(out)]) == 0
            files[workers] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert all(f == files[1] for f in files.values())
        assert output in files[1]

    def test_default_workers_one_per_cpu_whatever_blas_says(self, monkeypatch):
        cpus = len(os.sched_getaffinity(0))
        monkeypatch.setattr(cli, "BLAS_PINNED", True)
        for threads in (None, "1", "2", str(cpus)):
            for var in BLAS_VARS:
                if threads is None:
                    monkeypatch.delenv(var, raising=False)
                else:
                    monkeypatch.setenv(var, threads)
            assert worker_cap() == cpus

    def test_no_environment_variable_sets_the_count(self, monkeypatch):
        # a WARM_THREADS in the environment is not read: only the CPU set counts
        monkeypatch.setattr(cli, "BLAS_PINNED", True)
        monkeypatch.setenv("WARM_THREADS", "3")
        assert worker_cap() == len(os.sched_getaffinity(0))

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no sched_setaffinity on this platform")
    def test_one_worker_when_pinned_to_one_cpu(self):
        # limiting the CPU set is how to run on fewer workers; WARM_THREADS is not read
        one_cpu = {min(os.sched_getaffinity(0))}
        argv = [sys.executable, "-c", PIN_SCRIPT, "warmproto"]
        done = subprocess.run(
            argv,
            env=fresh_env(WARM_THREADS="2"),
            preexec_fn=lambda: os.sched_setaffinity(0, one_cpu),
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        pinned, _, workers = json.loads(done.stdout)
        assert pinned is True and workers == 1

    @pytest.mark.parametrize("first", ["warmproto", "numpy"])
    def test_import_pins_blas_unless_numpy_came_first(self, first):
        env = fresh_env(OPENBLAS_NUM_THREADS="2")
        argv = [sys.executable, "-c", PIN_SCRIPT, first]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60, check=True)
        pinned, seen, workers = json.loads(done.stdout)
        if first == "numpy":  # numpy has read the user's value: it stands, untouched, at one worker
            assert pinned is False and workers == 1
            assert seen == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": None}
        else:  # the user's value does not win
            assert pinned is True and workers == len(os.sched_getaffinity(0))
            assert seen == dict.fromkeys(BLAS_VARS, "1")

    def test_numeric_error_in_worker_exit_2_same_message(self, config_path, tmp_path, monkeypatch, capsys):
        # forked workers inherit the patch; one grid variant's loss turns non-finite
        real = trainer.episode_forward

        def failing(params, support, variant):
            protos, shots = real(params, support, variant)
            if variant == "normalize+restore":
                protos = {c: np.full_like(p, np.nan) for c, p in protos.items()}
            return protos, shots

        monkeypatch.setattr(trainer, "episode_forward", failing)
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, seeds=[0, 1])))
        messages = {}
        for workers in (1, 2, 3):
            use_workers(monkeypatch, workers)
            code = main(["ablate", "--config", str(path), "--out", str(tmp_path / str(workers))])
            assert code == 2
            messages[workers] = capsys.readouterr().err
        assert "'normalize+restore'" in messages[1] and "seed=0" in messages[1]
        assert messages[2] == messages[1] and messages[3] == messages[1]


class TestEvalWorkers:
    """eval scores contiguous slices of its batch on ``worker_cap`` forked
    workers; the files and the failures must not depend on the count."""

    def _setup(self, tmp_path, episodes, **overrides):
        # gen_seed == eval_seed, so --data and in-memory eval score the same batch
        data = dict(SMALL_CONFIG, eval_episodes=episodes, num_episodes=episodes, **overrides)
        path = tmp_path / f"config-{episodes}.json"
        path.write_text(json.dumps(data))
        checkpoint = tmp_path / "train" / "checkpoint.json"
        if not checkpoint.exists():
            assert main(["train", "--config", str(path), "--out", str(checkpoint.parent)]) == 0
        batch = tmp_path / f"data-{episodes}"
        assert main(["gen", "--config", str(path), "--out", str(batch)]) == 0
        return path, checkpoint, batch

    def _eval(self, path, checkpoint, out, data=None):
        argv = ["eval", "--config", str(path), "--checkpoint", str(checkpoint), "--out", str(out)]
        return main(argv + (["--data", str(data)] if data else []))

    @pytest.mark.parametrize("method", ["warm", "naive"])
    def test_same_bytes_at_every_worker_count(self, tmp_path, monkeypatch, method):
        # 2 episodes are fewer than 3 workers; 5 are cut 3+2 on 2 workers and 2+2+1 on 3
        for episodes in (2, 5):
            path, checkpoint, batch = self._setup(tmp_path, episodes, method=method)
            files = {}
            for workers in (None, 1, 2, 3):
                use_workers(monkeypatch, workers)
                for data in (None, batch):
                    out = tmp_path / f"out-{episodes}-{workers}-{data is None}"
                    assert self._eval(path, checkpoint, out, data) == 0
                    files[workers, data] = {p.name: p.read_bytes() for p in out.iterdir()}
            assert all(f == files[1, None] for f in files.values())
            assert sorted(files[1, None]) == ["eval_config.json", "metrics.csv"]

    def test_workers_score_the_batch_and_are_joined(self, tmp_path, monkeypatch):
        # forked workers inherit the patch and leave one file per scored episode
        real = trainer._score_episode

        def recording(runs, episode, *options):
            (tmp_path / "pids" / f"{os.getpid()}-{episode.query[0].features[0, 0]!r}").touch()
            return real(runs, episode, *options)

        path, checkpoint, _ = self._setup(tmp_path, 5)
        (tmp_path / "pids").mkdir()
        monkeypatch.setattr(trainer, "_score_episode", recording)
        use_workers(monkeypatch, 2)
        assert self._eval(path, checkpoint, tmp_path / "out") == 0
        assert multiprocessing.active_children() == []
        names = [p.name.split("-", 1) for p in (tmp_path / "pids").iterdir()]
        assert len(names) == 5 and len({key for _, key in names}) == 5
        assert len({pid for pid, _ in names}) == 2 and str(os.getpid()) not in {pid for pid, _ in names}

    def test_numeric_error_in_worker_exit_2_same_message(self, tmp_path, monkeypatch, capsys):
        path, checkpoint, _ = self._setup(tmp_path, 5)
        cfg = load_experiment_config(path)
        batch = make_eval_episodes(cfg.generator, cfg.eval_episodes, cfg.eval_seed)
        index = {float(e.query[0].features[0, 0]): i for i, e in enumerate(batch)}
        real = trainer._score_episode

        # episodes 1 and 3 fail: on 2 and 3 workers they fall in different slices
        def failing(runs, episode, *options):
            i = index[float(episode.query[0].features[0, 0])]
            if i in (1, 3):
                raise NumericError(f"non-finite score in episode {i}")
            return real(runs, episode, *options)

        monkeypatch.setattr(trainer, "_score_episode", failing)
        messages = {}
        for workers in (1, 2, 3):
            use_workers(monkeypatch, workers)
            assert self._eval(path, checkpoint, tmp_path / str(workers)) == 2
            messages[workers] = capsys.readouterr().err
            assert multiprocessing.active_children() == []
        assert messages[1] == "numeric failure: non-finite score in episode 1\n"
        assert messages[2] == messages[1] and messages[3] == messages[1]


class TestFpsWorkers:
    """sweep-fps and eval with fps-min-dist score contiguous slices of
    their batch on ``worker_cap`` forked workers, as eval does with an
    attention method; the files and the failures must not depend on the
    count."""

    OUTPUTS = {
        "sweep-fps": ["sweep.csv", "sweep_config.json", "sweep_summary.csv"],
        "eval": ["eval_config.json", "metrics.csv"],
    }

    def _setup(self, tmp_path, episodes):
        # gen_seed == eval_seed, so --data and in-memory runs score the same batch
        path = tmp_path / f"config-{episodes}.json"
        data = dict(SMALL_CONFIG, eval_episodes=episodes, num_episodes=episodes, method="fps-min-dist")
        path.write_text(json.dumps(data))
        batch = tmp_path / f"data-{episodes}"
        assert main(["gen", "--config", str(path), "--out", str(batch)]) == 0
        return path, batch

    def _run(self, verb, path, out, data=None):
        argv = [verb, "--config", str(path), "--out", str(out)]
        return main(argv + (["--data", str(data)] if data else []))

    @pytest.mark.parametrize("verb", ["sweep-fps", "eval"])
    def test_same_bytes_at_every_worker_count(self, tmp_path, monkeypatch, verb):
        # 2 episodes are fewer than 3 workers; 5 are cut 3+2 on 2 workers and 2+2+1 on 3
        for episodes in (2, 5):
            path, batch = self._setup(tmp_path, episodes)
            files = {}
            for workers in (None, 1, 2, 3):
                use_workers(monkeypatch, workers)
                for data in (None, batch):
                    out = tmp_path / f"out-{episodes}-{workers}-{data is None}"
                    assert self._run(verb, path, out, data) == 0
                    files[workers, data] = {p.name: p.read_bytes() for p in out.iterdir()}
            assert all(f == files[1, None] for f in files.values())
            assert sorted(files[1, None]) == self.OUTPUTS[verb]
            # the library calls too, at up to more workers than episodes
            cfg = load_experiment_config(path)
            memory = make_eval_episodes(cfg.generator, episodes, cfg.eval_seed)
            if verb == "sweep-fps":
                results = [fps_seed_sweep(memory, 3, [2, 0, 2], workers) for workers in (1, 2, 3, 7)]
            else:
                results = [evaluate_fps(memory, 3, 4, workers) for workers in (1, 2, 3, 7)]
            assert all(r == results[0] for r in results)
            assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("verb", ["sweep-fps", "eval"])
    def test_workers_score_the_batch_and_are_joined(self, tmp_path, monkeypatch, verb):
        # forked workers inherit the patch and leave one file per (process, scored episode)
        real = fps.fps_prototypes

        def recording(support, count, rng):
            (tmp_path / "pids" / f"{os.getpid()}-{support[0][0, 0]!r}").touch()
            return real(support, count, rng)

        path, batch = self._setup(tmp_path, 5)
        (tmp_path / "pids").mkdir()
        monkeypatch.setattr(fps, "fps_prototypes", recording)
        use_workers(monkeypatch, 2)
        assert self._run(verb, path, tmp_path / "out", batch) == 0
        assert multiprocessing.active_children() == []
        names = [p.name.split("-", 1) for p in (tmp_path / "pids").iterdir()]
        assert len(names) == 5 and len({key for _, key in names}) == 5
        assert len({pid for pid, _ in names}) == 2 and str(os.getpid()) not in {pid for pid, _ in names}

    @pytest.mark.parametrize(
        "score",
        [
            lambda episodes, workers=1: evaluate([(init_params(32, 6, derive_rng(0)), "warm")], episodes, workers),
            lambda episodes, workers=1: evaluate_fps(episodes, 3, 0, workers),
            lambda episodes, workers=1: fps_seed_sweep(episodes, 3, range(2), workers),
        ],
        ids=["evaluate", "evaluate_fps", "fps_seed_sweep"],
    )
    def test_rejects_bad_worker_count_and_empty_batch(self, score):
        cfg = load_experiment_config(None)
        episodes = make_eval_episodes(cfg.generator, 2, 0)
        with pytest.raises(ArgumentError, match="workers must be >= 1"):
            score(episodes, workers=0)
        with pytest.raises(ArgumentError, match="at least one episode"):
            score([])

    @pytest.mark.parametrize("verb", ["sweep-fps", "eval"])
    def test_body_error_in_a_worker_exit_3_one_line(self, tmp_path, monkeypatch, capfd, wait_limit, verb):
        path, batch = self._setup(tmp_path, 4)
        third = batch / "ep_00002.warmep"
        raw = bytearray(third.read_bytes())
        raw[34:42] = struct.pack("<d", float("nan"))  # the first feature, after the header and one class id
        third.write_bytes(bytes(raw))
        loads, real = tmp_path / "loads", cli.load_episode
        loads.mkdir()

        # forked workers inherit the patch; the file of each loading process names what it read
        def recording(path):
            with (loads / str(os.getpid())).open("a") as fh:
                fh.write(Path(path).name + "\n")
            return real(path)

        monkeypatch.setattr(cli, "load_episode", recording)
        errors = {}
        for workers in (1, 2):
            use_workers(monkeypatch, workers)
            capfd.readouterr()
            assert self._run(verb, path, tmp_path / str(workers), batch) == 3
            assert multiprocessing.active_children() == []
            errors[workers] = capfd.readouterr().err
        assert errors[1] == "io/format failure: non-finite feature value in cloud 0 (byte offset 34)\n"
        assert errors[2] == errors[1]
        # at 2 workers the corrupt file was read in a worker, not by the caller
        by_pid = {p.name: p.read_text().split() for p in loads.iterdir()}
        assert [pid for pid, names in by_pid.items() if third.name in names and pid != str(os.getpid())]


class TestStreamedBatch:
    """Of ``--data``'s files only the headers are read before any work;
    each episode's body is read where it is scored, once."""

    def _batch(self, tmp_path, monkeypatch):
        """A 4-file batch scored on 2 workers: the config, the data and ``eval``'s argv."""
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, eval_episodes=4, num_episodes=4)))
        data = tmp_path / "data"
        assert main(["gen", "--config", str(path), "--out", str(data)]) == 0
        checkpoint = tmp_path / "checkpoint.json"
        save_checkpoint(checkpoint, init_params(8, 6, derive_rng(0)), seed=0)
        use_workers(monkeypatch, 2)
        argv = ["eval", "--config", str(path), "--checkpoint", str(checkpoint), "--data", str(data)]
        return path, data, argv + ["--out", str(tmp_path / "o")]

    @pytest.mark.parametrize(
        "verb, method",
        [("eval", None), ("sweep-fps", "fps-min-dist"), ("eval", "fps-min-dist")],
        ids=["eval", "sweep-fps", "eval-fps-min-dist"],
    )
    def test_workers_load_their_own_episodes_once(self, tmp_path, monkeypatch, verb, method):
        path, data, argv = self._batch(tmp_path, monkeypatch)
        if method:
            # the FPS verbs read no checkpoint
            path.write_text(json.dumps(dict(json.loads(path.read_text()), method=method)))
            argv = [verb, "--config", str(path), "--data", str(data), "--out", str(tmp_path / "o")]
        loads, real = tmp_path / "loads", cli.load_episode
        loads.mkdir()

        # forked workers inherit the patch and log each load in a file per process
        def recording(path):
            with (loads / str(os.getpid())).open("a") as fh:
                fh.write(Path(path).name + "\n")
            return real(path)

        monkeypatch.setattr(cli, "load_episode", recording)
        assert main(argv) == 0
        assert multiprocessing.active_children() == []
        by_pid = {p.name: p.read_text().split() for p in loads.iterdir()}
        assert len(by_pid) == 2 and str(os.getpid()) not in by_pid
        assert sorted(sum(by_pid.values(), [])) == sorted(p.name for p in data.glob("*.warmep"))

    def test_body_error_in_a_worker_exit_3_one_line(self, tmp_path, monkeypatch, capfd, wait_limit):
        _, data, argv = self._batch(tmp_path, monkeypatch)
        third = data / "ep_00002.warmep"
        raw = bytearray(third.read_bytes())
        raw[34:42] = struct.pack("<d", float("nan"))  # the first feature, after the header and one class id
        third.write_bytes(bytes(raw))
        capfd.readouterr()
        assert main(argv) == 3
        assert multiprocessing.active_children() == []
        assert capfd.readouterr().err == "io/format failure: non-finite feature value in cloud 0 (byte offset 34)\n"

    @pytest.mark.parametrize("defect, code", [("truncated", 3), ("D=16", 1)])
    def test_ablate_rejects_a_bad_header_before_training(self, tmp_path, monkeypatch, capfd, defect, code):
        path, data, _ = self._batch(tmp_path, monkeypatch)
        last = data / "ep_00003.warmep"
        if defect == "truncated":
            last.write_bytes(last.read_bytes()[:-1])
        else:
            other = tmp_path / "d16.json"
            generator = dict(SMALL_CONFIG["generator"], feature_dim=16)
            other.write_text(json.dumps(dict(SMALL_CONFIG, generator=generator, num_episodes=4)))
            assert main(["gen", "--config", str(other), "--out", str(tmp_path / "d16")]) == 0
            last.write_bytes((tmp_path / "d16" / last.name).read_bytes())

        def no_training(*args, **kwargs):
            raise AssertionError("a run trained before the batch was checked")

        monkeypatch.setattr(trainer, "train_grid", no_training)
        capfd.readouterr()
        assert main(["ablate", "--config", str(path), "--data", str(data), "--out", str(tmp_path / "a")]) == code
        err = capfd.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        if defect == "truncated":
            assert err.startswith("io/format failure: size mismatch: header (N=1, K=1, U=1, L=128, D=8) implies ")
        else:
            assert err == "error: config has D=8 but episode 3 has D=16\n"


class TestTrainWorkers:
    """With ``worker_cap`` above 1, train's episodes come from a forked
    producer; the files and the failures must not depend on it, and no
    process may outlive the call."""

    def test_same_bytes_at_one_and_two_workers(self, config_path, tmp_path, monkeypatch):
        files = {}
        for workers in (1, 2):
            use_workers(monkeypatch, workers)
            out = tmp_path / str(workers)
            assert main(["train", "--config", str(config_path), "--out", str(out), "--seed", "5"]) == 0
            assert multiprocessing.active_children() == []
            files[workers] = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "timing.csv"}
        assert sorted(files[1]) == ["checkpoint.json", "train_config.json", "training_log.csv"]
        assert files[2] == files[1]

    def test_non_finite_loss_mid_run_exit_2_same_message(self, tmp_path, monkeypatch, capsys, wait_limit):
        # the parent's third forward pass turns non-finite while the producer runs ahead
        real, calls = trainer.episode_forward, []

        def failing(params, support, variant):
            protos, shots = real(params, support, variant)
            calls.append(None)
            if len(calls) == 3:
                protos = {c: np.full_like(p, np.nan) for c, p in protos.items()}
            return protos, shots

        monkeypatch.setattr(trainer, "episode_forward", failing)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, train=dict(SMALL_CONFIG["train"], episodes_per_epoch=40))))
        messages = {}
        for workers in (1, 2):
            calls.clear()
            use_workers(monkeypatch, workers)
            assert main(["train", "--config", str(path), "--out", str(tmp_path / str(workers))]) == 2
            assert multiprocessing.active_children() == []
            messages[workers] = capsys.readouterr().err
        assert messages[1].startswith("numeric failure: non-finite loss or gradient at step 2 of variant 'warm'")
        assert messages[2] == messages[1]


class TestBlasThreads:
    """The import pins BLAS to one thread, so a verb writes the same bytes
    whatever BLAS variables it was started with."""

    def test_same_bytes_at_any_blas_variables(self, tmp_path):
        path = tmp_path / "two.json"  # the default config, cut to 2 steps and 10 eval episodes
        path.write_text(json.dumps({"train": {"epochs": 1, "episodes_per_epoch": 2}, "eval_episodes": 10}))
        warmproto = [sys.executable, "-m", "warmproto.cli"]
        files = {}
        for threads in ("1", "2", None):
            env = fresh_env() if threads is None else fresh_env(**dict.fromkeys(BLAS_VARS, threads))
            out = tmp_path / f"threads-{threads}"
            for verb, *extra in (["train"], ["eval", "--checkpoint", str(out / "train" / "checkpoint.json")]):
                argv = [*warmproto, verb, *extra, "--config", str(path), "--out", str(out / verb)]
                subprocess.run(argv, env=env, capture_output=True, check=True, timeout=300)
            files[threads] = {
                str(p.relative_to(out)): p.read_bytes()
                for p in out.rglob("*")
                if p.is_file() and p.name != "timing.csv"
            }
        assert {"train/training_log.csv", "train/checkpoint.json", "eval/metrics.csv"} <= set(files["1"])
        assert files["2"] == files["1"]
        assert files[None] == files["1"]


class TestDeadWorker:
    """A forked worker that exits without sending its results is an OS
    failure: exit 3 with one stderr line, and no process outlives the call."""

    # per verb, the trainer binding a worker calls first, and how many of its calls go through
    @pytest.mark.parametrize(
        "verb, target, calls", [("train", "gen_episode", 3), ("eval", "_score_episode", 0), ("ablate", "train_grid", 0)]
    )
    def test_exit_3_with_one_line(self, config_path, tmp_path, monkeypatch, capfd, wait_limit, verb, target, calls):
        checkpoint = tmp_path / "train" / "checkpoint.json"
        assert main(["train", "--config", str(config_path), "--out", str(checkpoint.parent)]) == 0
        parent, real, made = os.getpid(), getattr(trainer, target), []

        # the children inherit the patch and the parent's empty call list
        def dying(*args, **kwargs):
            if os.getpid() != parent:
                made.append(None)
                if len(made) > calls:
                    os._exit(9)
            return real(*args, **kwargs)

        monkeypatch.setattr(trainer, target, dying)
        use_workers(monkeypatch, 2)
        capfd.readouterr()
        argv = [verb, "--config", str(config_path), "--out", str(tmp_path / "out")]
        assert main(argv + (["--checkpoint", str(checkpoint)] if verb == "eval" else [])) == 3
        assert multiprocessing.active_children() == []
        err = capfd.readouterr().err
        assert err == "io/format failure: a forked worker exited with code 9 before sending its results\n"


class TestExitCodes:
    @pytest.mark.parametrize("verb", ["gen", "eval", "sweep-fps", "ablate", "token-sweep"])
    def test_seed_flag_only_on_verbs_that_read_it(self, config_path, tmp_path, capsys, verb):
        # every seed but train's is set in the config only
        for flag in (["--seed", "3"], ["--seeds", "2"]):
            code = main([verb, "--config", str(config_path), "--out", str(tmp_path / "o"), *flag])
            assert code == 1
            assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "verb, data, argv, name",
        [
            pytest.param("train", {"train": {"seed": -1}}, [], "train seed", id="train.seed"),
            pytest.param("train", {"generator": {"seed": -2}}, [], "generator seed", id="generator.seed"),
            pytest.param("train", {}, ["--seed", "-3"], "--seed", id="train--seed"),
            pytest.param("ablate", {"seeds": [0, -1]}, [], "seeds", id="seeds"),
            pytest.param("gen", {"gen_seed": -5}, [], "gen_seed", id="gen_seed"),
            pytest.param("eval", {"eval_seed": -4, "method": "fps-min-dist"}, [], "eval_seed", id="eval_seed"),
            # a class id seeds its class center
            pytest.param("train", {"generator": {"base_classes": [-1, 0, 1, 2]}}, [], "base_classes", id="class_id"),
        ],
    )
    def test_negative_seed_exit_1_before_any_output(self, tmp_path, capsys, verb, data, argv, name):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**SMALL_CONFIG, **data}))
        out = tmp_path / "o"
        assert main([verb, "--config", str(path), "--out", str(out)] + argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert name in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "defect",
        [
            pytest.param(lambda c: {**c, "feature_dim": "x"}, id="feature_dim-string"),
            pytest.param(lambda c: {**c, "feature_dim": None}, id="feature_dim-null"),
            pytest.param(lambda c: {**c, "w_q": {}}, id="w_q-object"),
            pytest.param(lambda c: [c], id="top-level-list"),
            pytest.param(lambda c: {**c, "w_q": [[float("nan")] + c["w_q"][0][1:]] + c["w_q"][1:]}, id="w_q-nan"),
            pytest.param(lambda c: {**c, "w_q": [[10**400] + c["w_q"][0][1:]] + c["w_q"][1:]}, id="w_q-huge-int"),
            # json.dumps cannot write these: the test puts the digits in place of the marker
            pytest.param(lambda c: {**c, "w_k": [["DIGITS"] + c["w_k"][0][1:]] + c["w_k"][1:]}, id="w_k-5001-digits"),
            pytest.param(lambda c: {**c, "feature_dim": "DIGITS"}, id="feature_dim-5001-digits"),
        ],
    )
    def test_malformed_checkpoint_exit_1(self, config_path, tmp_path, capsys, defect):
        checkpoint = tmp_path / "checkpoint.json"
        save_checkpoint(checkpoint, init_params(8, 6, derive_rng(0)), seed=0)
        text = json.dumps(defect(json.loads(checkpoint.read_text())))
        checkpoint.write_text(text.replace('"DIGITS"', "1" + "0" * 5000))
        with pytest.raises(CheckpointError):
            load_checkpoint(checkpoint)
        argv = ["eval", "--config", str(config_path), "--checkpoint", str(checkpoint), "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: checkpoint {checkpoint} ") and err.count("\n") == 1

    def test_non_utf8_checkpoint_exit_1(self, config_path, tmp_path, capsys):
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_bytes(b"\xff{")
        argv = ["eval", "--config", str(config_path), "--checkpoint", str(checkpoint), "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read checkpoint {checkpoint}: ") and err.count("\n") == 1

    def test_non_finite_training_loss_exit_2(self, tmp_path, capsys):
        # class centers near 1e200 overflow every squared distance
        generator = dict(
            SMALL_CONFIG["generator"], inter_class_scale=1e200, intra_class_scale=0.0, instance_spread=1.0
        )
        train_cfg = dict(SMALL_CONFIG["train"], episodes_per_epoch=2)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, method="naive", generator=generator, train=train_cfg)))
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: non-finite loss or gradient at step 0 of variant 'naive'")
        assert "seed=0" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("verb", ["train", "ablate"])
    def test_numeric_failure_is_one_stderr_line(self, tmp_path, verb):
        # as a program, without pytest's warning capture; ablate's grid workers,
        # one per usable CPU, overflow too, in forked processes
        generator = dict(
            SMALL_CONFIG["generator"], inter_class_scale=1e200, intra_class_scale=0.0, instance_spread=1.0
        )
        train_cfg = dict(SMALL_CONFIG["train"], episodes_per_epoch=2)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, method="naive", generator=generator, train=train_cfg)))
        env = fresh_env()
        argv = [sys.executable, "-m", "warmproto.cli", verb, "--config", str(path), "--out", str(tmp_path / "o")]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 2
        assert done.stderr.startswith("numeric failure: non-finite loss or gradient at step 0 of variant ")
        assert len(done.stderr.splitlines()) == 1, done.stderr

    def test_eval_without_checkpoint_exit_1_before_any_work(self, config_path, tmp_path, monkeypatch, capsys):
        def no_batch(*args):
            raise AssertionError("the eval batch was built")

        monkeypatch.setattr(cli, "_eval_batch", no_batch)
        out = tmp_path / "o"
        assert main(["eval", "--config", str(config_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: method 'warm' needs --checkpoint\n"
        assert not out.exists()

    def test_eval_fps_checkpoint_exit_1_before_any_work(self, tmp_path, capsys):
        fps = tmp_path / "fps.json"
        fps.write_text(json.dumps(dict(SMALL_CONFIG, method="fps-min-dist")))
        out = tmp_path / "o"
        code = main(["eval", "--config", str(fps), "--checkpoint", str(tmp_path / "none.json"), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--checkpoint" in err and err.count("\n") == 1
        assert not out.exists()

    def test_unknown_command_exit_1(self):
        assert main(["frobnicate"]) == 1

    def test_help_exit_0(self):
        assert main(["--help"]) == 0

    def test_missing_data_dir_exit_1(self, config_path, tmp_path):
        code = main(
            [
                "eval",
                "--config",
                str(config_path),
                "--data",
                str(tmp_path / "nope"),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 1  # empty/missing dir is an argument problem

    def test_corrupt_episode_file_exit_3(self, config_path, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        (data / "ep_00000.warmep").write_bytes(b"WARM-EP1 garbage")
        cfg = dict(SMALL_CONFIG, method="fps-min-dist")
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        code = main(["eval", "--config", str(path), "--data", str(data), "--out", str(tmp_path / "o")])
        assert code == 3

    @pytest.mark.parametrize("defect", ["duplicate class ids", "support without foreground"])
    def test_inconsistent_episode_file_exit_3(self, tmp_path, defect, capsys):
        cfg = dict(SMALL_CONFIG, generator=dict(SMALL_CONFIG["generator"], n_way=2, k_shot=2))
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        data = tmp_path / "data"
        assert main(["gen", "--config", str(path), "--out", str(data)]) == 0
        episode = load_episode(data / "ep_00000.warmep")
        if defect == "duplicate class ids":
            episode.class_ids = [episode.class_ids[0]] * 2 + episode.class_ids[2:]
        else:
            episode.support[3].labels[:] = 0  # way 1, shot 1
        save_episode(episode, data / "ep_00000.warmep")
        code = main(["sweep-fps", "--config", str(path), "--data", str(data), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "io/format failure" in capsys.readouterr().err
