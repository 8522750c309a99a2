"""CLI verbs, strict config handling, exit codes, output files."""

import csv
import io
import json
import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from warmproto import cli, trainer
from warmproto.cli import BLAS_THREAD_VARS, load_experiment_config, main, parse_method, worker_cap
from warmproto.episodes import load_episode, save_episode
from warmproto.errors import CheckpointError, ConfigError, NumericError
from warmproto.rng import make_rng
from warmproto.trainer import evaluate, make_eval_episodes, train
from warmproto.warm import ABLATION_GRID, init_params, load_checkpoint, save_checkpoint

REPO = Path(__file__).resolve().parents[1]

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


def read_csv(path):
    with Path(path).open() as fh:
        return list(csv.reader(fh))


class TestConfigLoading:
    def test_defaults_when_no_file(self):
        cfg = load_experiment_config(None)
        assert cfg.method == "warm"
        assert cfg.generator.feature_dim == 32

    def test_bundled_default_config_parses(self):
        cfg = load_experiment_config(REPO / "configs" / "default.json")
        cfg.validate()
        assert cfg.train.lr == pytest.approx(1e-4)
        assert cfg.train.num_tokens == 100

    def test_unknown_top_level_field(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"generatro": {}}))
        with pytest.raises(ConfigError) as err:
            load_experiment_config(path)
        assert "generatro" in str(err.value)

    def test_unknown_nested_field(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"train": {"learning_rate": 0.1}}))
        with pytest.raises(ConfigError) as err:
            load_experiment_config(path)
        assert "learning_rate" in str(err.value) and "train" in str(err.value)

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
        ],
    )
    def test_wrong_json_type_exit_1(self, tmp_path, capsys, data, field):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        assert main(["gen", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"'{field}'" in err

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

    def test_json_integers_fill_float_fields(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"train": {"lr": 1, "grad_clip": 2}, "generator": {"instance_spread": 4}}))
        cfg = load_experiment_config(path)
        assert cfg.train.lr == 1 and cfg.train.grad_clip == 2 and cfg.generator.instance_spread == 4

    def test_method_strings(self):
        assert parse_method("warm") == "warm"
        assert parse_method("fps-min-dist") == "fps-min-dist"
        assert parse_method("ablation:whiten,on") == "whiten+restore"
        assert parse_method("ablation:center,off") == "center"
        for name in ABLATION_GRID:
            assert parse_method(name) == name
        for mode in ("naive", "center", "normalize", "whiten"):
            for flag in ("on", "off"):
                expected = "naive" if mode == "naive" else mode + ("+restore" if flag == "on" else "")
                assert parse_method(f"ablation:{mode},{flag}") == expected
        with pytest.raises(ConfigError):
            parse_method("ablation:whitening,on")
        with pytest.raises(ConfigError):
            parse_method("mystery")


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
        monkeypatch.setenv("WARM_THREADS", workers)

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

    def test_train_missing_out_usage_error(self, config_path):
        assert main(["train", "--config", str(config_path)]) == 1


class TestSweeps:
    def test_sweep_fps_single_seed(self, config_path, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep-fps", "--config", str(config_path), "--out", str(out), "--seeds", "1"]) == 0
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

    def test_report_prints_summaries(self, config_path, tmp_path, capsys):
        out = tmp_path / "sweep"
        main(["sweep-fps", "--config", str(config_path), "--out", str(out), "--seeds", "2"])
        assert main(["report", "--data", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "sweep_summary.csv" in printed

    def test_report_empty_dir_exit_1(self, tmp_path):
        assert main(["report", "--data", str(tmp_path)]) == 1


def csv_bytes(rows):
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode()


class TestGridMatchesSeparateRuns:
    """ablate and token-sweep train each seed's runs in lockstep on shared
    episodes; their files must equal one train + evaluate call per run."""

    def _config(self, tmp_path, **train_overrides):
        data = dict(SMALL_CONFIG, seeds=[0, 1])
        data["train"] = dict(data["train"], **train_overrides)
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(data))
        cfg = load_experiment_config(path)
        episodes = make_eval_episodes(cfg.generator, cfg.eval_episodes, cfg.eval_seed, cfg.eval_split)
        return path, cfg, episodes

    def test_ablate_two_seeds(self, tmp_path):
        path, cfg, episodes = self._config(tmp_path)
        out = tmp_path / "ablate"
        assert main(["ablate", "--config", str(path), "--out", str(out)]) == 0
        rows = [["variant", "seed", "qk_dist", "miou"]]
        for seed in cfg.seeds:
            for variant in ABLATION_GRID:
                params = train(replace(cfg.train, seed=seed), cfg.generator, variant=variant).params
                report = evaluate(params, episodes, variant, cfg.train.eps, cfg.train.scale_logits)
                rows.append([variant, seed, repr(report.qk_dist), repr(report.miou)])
        assert (out / "ablation.csv").read_bytes() == csv_bytes(rows)

    @pytest.mark.parametrize("scale_logits", [False, True])
    def test_token_sweep_two_seeds(self, tmp_path, scale_logits):
        path, cfg, episodes = self._config(tmp_path, scale_logits=scale_logits)
        out = tmp_path / "tokens"
        assert main(["token-sweep", "--config", str(path), "--out", str(out)]) == 0
        rows = [["M", "miou_mean", "miou_std"]]
        for m in cfg.token_counts:
            scores = []
            for seed in cfg.seeds:
                params = train(replace(cfg.train, seed=seed, num_tokens=m), cfg.generator).params
                scores.append(evaluate(params, episodes, scale_logits=scale_logits).miou)
            rows.append([m, repr(float(np.mean(scores))), repr(float(np.std(scores)))])
        assert (out / "token_sweep.csv").read_bytes() == csv_bytes(rows)


class TestGridWorkers:
    """WARM_THREADS sets the worker processes of ablate and token-sweep;
    the files and the failures must not depend on it."""

    @pytest.mark.parametrize("verb, output", [("ablate", "ablation.csv"), ("token-sweep", "token_sweep.csv")])
    def test_same_bytes_at_every_worker_count(self, tmp_path, monkeypatch, verb, output):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, seeds=[0, 1], token_counts=[2, 4, 6])))
        files = {}
        # unset means one worker per usable CPU; 3 cuts 7 ablate runs 3+2+2, 2 cuts 3 token runs 2+1
        for workers in (None, "1", "2", "3"):
            if workers is None:
                monkeypatch.delenv("WARM_THREADS", raising=False)
            else:
                monkeypatch.setenv("WARM_THREADS", workers)
            out = tmp_path / f"out-{workers}"
            assert main([verb, "--config", str(path), "--out", str(out)]) == 0
            files[workers] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert all(f == files["1"] for f in files.values())
        assert output in files["1"]

    def test_default_workers_leave_a_cpu_per_blas_thread(self, monkeypatch):
        cpus = len(os.sched_getaffinity(0))
        monkeypatch.delenv("WARM_THREADS", raising=False)
        for var in BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        assert worker_cap() == 1  # BLAS already threads over every CPU
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        assert worker_cap() == cpus
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(cpus))
        assert worker_cap() == 1
        monkeypatch.setenv("WARM_THREADS", "3")
        assert worker_cap() == 3

    @pytest.mark.parametrize("value", ["0", "x"])
    def test_bad_worker_count_exit_1(self, config_path, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("WARM_THREADS", value)
        code = main(["ablate", "--config", str(config_path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "WARM_THREADS" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_numeric_error_in_worker_exit_2_same_message(self, config_path, tmp_path, monkeypatch, capsys):
        # forked workers inherit the patch; one grid variant's loss turns non-finite
        real = trainer.episode_forward

        def failing(params, episode, variant, eps, scale_logits):
            protos, shots = real(params, episode, variant, eps, scale_logits)
            if variant == "normalize+restore":
                protos = {c: np.full_like(p, np.nan) for c, p in protos.items()}
            return protos, shots

        monkeypatch.setattr(trainer, "episode_forward", failing)
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, seeds=[0, 1])))
        messages = {}
        for workers in ("1", "2", "3"):
            monkeypatch.setenv("WARM_THREADS", workers)
            code = main(["ablate", "--config", str(path), "--out", str(tmp_path / workers)])
            assert code == 2
            messages[workers] = capsys.readouterr().err
        assert "'normalize+restore'" in messages["1"] and "seed=0" in messages["1"]
        assert messages["2"] == messages["1"] and messages["3"] == messages["1"]


class TestEvalWorkers:
    """eval scores contiguous slices of its batch on WARM_THREADS forked
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

    @pytest.mark.parametrize("method, scale_logits", [("warm", False), ("naive", False), ("warm", True)])
    def test_same_bytes_at_every_worker_count(self, tmp_path, monkeypatch, method, scale_logits):
        train_cfg = dict(SMALL_CONFIG["train"], scale_logits=scale_logits)
        # 2 episodes are fewer than 3 workers; 5 are cut 3+2 on 2 workers and 2+2+1 on 3
        for episodes in (2, 5):
            path, checkpoint, batch = self._setup(tmp_path, episodes, method=method, train=train_cfg)
            files = {}
            for workers in (None, "1", "2", "3"):
                if workers is None:
                    monkeypatch.delenv("WARM_THREADS", raising=False)
                else:
                    monkeypatch.setenv("WARM_THREADS", workers)
                for data in (None, batch):
                    out = tmp_path / f"out-{episodes}-{workers}-{data is None}"
                    assert self._eval(path, checkpoint, out, data) == 0
                    files[workers, data] = {p.name: p.read_bytes() for p in out.iterdir()}
            assert all(f == files["1", None] for f in files.values())
            assert sorted(files["1", None]) == ["eval_config.json", "metrics.csv"]

    def test_workers_score_the_batch_and_are_joined(self, tmp_path, monkeypatch):
        # forked workers inherit the patch and leave one file per scored episode
        real = trainer._score_episode

        def recording(params, episode, *options):
            (tmp_path / "pids" / f"{os.getpid()}-{episode.query[0].features[0, 0]!r}").touch()
            return real(params, episode, *options)

        path, checkpoint, _ = self._setup(tmp_path, 5)
        (tmp_path / "pids").mkdir()
        monkeypatch.setattr(trainer, "_score_episode", recording)
        monkeypatch.setenv("WARM_THREADS", "2")
        assert self._eval(path, checkpoint, tmp_path / "out") == 0
        assert multiprocessing.active_children() == []
        names = [p.name.split("-", 1) for p in (tmp_path / "pids").iterdir()]
        assert len(names) == 5 and len({key for _, key in names}) == 5
        assert len({pid for pid, _ in names}) == 2 and str(os.getpid()) not in {pid for pid, _ in names}

    def test_numeric_error_in_worker_exit_2_same_message(self, tmp_path, monkeypatch, capsys):
        path, checkpoint, _ = self._setup(tmp_path, 5)
        cfg = load_experiment_config(path)
        batch = make_eval_episodes(cfg.generator, cfg.eval_episodes, cfg.eval_seed, cfg.eval_split)
        index = {float(e.query[0].features[0, 0]): i for i, e in enumerate(batch)}
        real = trainer._score_episode

        # episodes 1 and 3 fail: on 2 and 3 workers they fall in different slices
        def failing(params, episode, *options):
            i = index[float(episode.query[0].features[0, 0])]
            if i in (1, 3):
                raise NumericError(f"non-finite score in episode {i}")
            return real(params, episode, *options)

        monkeypatch.setattr(trainer, "_score_episode", failing)
        messages = {}
        for workers in ("1", "2", "3"):
            monkeypatch.setenv("WARM_THREADS", workers)
            assert self._eval(path, checkpoint, tmp_path / workers) == 2
            messages[workers] = capsys.readouterr().err
            assert multiprocessing.active_children() == []
        assert messages["1"] == "numeric failure: non-finite score in episode 1\n"
        assert messages["2"] == messages["1"] and messages["3"] == messages["1"]


class TestTrainWorkers:
    """With WARM_THREADS above 1, train's episodes come from a forked
    producer; the files and the failures must not depend on it, and no
    process may outlive the call."""

    def test_same_bytes_at_one_and_two_workers(self, config_path, tmp_path, monkeypatch):
        files = {}
        for workers in ("1", "2"):
            monkeypatch.setenv("WARM_THREADS", workers)
            out = tmp_path / workers
            assert main(["train", "--config", str(config_path), "--out", str(out), "--seed", "5"]) == 0
            assert multiprocessing.active_children() == []
            files[workers] = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "timing.csv"}
        assert sorted(files["1"]) == ["checkpoint.json", "train_config.json", "training_log.csv"]
        assert files["2"] == files["1"]

    def test_non_finite_loss_mid_run_exit_2_same_message(self, tmp_path, monkeypatch, capsys, wait_limit):
        # the parent's third forward pass turns non-finite while the producer runs ahead
        real, calls = trainer.episode_forward, []

        def failing(params, episode, variant, eps, scale_logits):
            protos, shots = real(params, episode, variant, eps, scale_logits)
            calls.append(None)
            if len(calls) == 3:
                protos = {c: np.full_like(p, np.nan) for c, p in protos.items()}
            return protos, shots

        monkeypatch.setattr(trainer, "episode_forward", failing)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, train=dict(SMALL_CONFIG["train"], episodes_per_epoch=40))))
        messages = {}
        for workers in ("1", "2"):
            calls.clear()
            monkeypatch.setenv("WARM_THREADS", workers)
            assert main(["train", "--config", str(path), "--out", str(tmp_path / workers)]) == 2
            assert multiprocessing.active_children() == []
            messages[workers] = capsys.readouterr().err
        assert messages["1"].startswith("numeric failure: non-finite loss or gradient at step 2 of variant 'warm'")
        assert messages["2"] == messages["1"]


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
        monkeypatch.setenv("WARM_THREADS", "2")
        capfd.readouterr()
        argv = [verb, "--config", str(config_path), "--out", str(tmp_path / "out")]
        assert main(argv + (["--checkpoint", str(checkpoint)] if verb == "eval" else [])) == 3
        assert multiprocessing.active_children() == []
        err = capfd.readouterr().err
        assert err == "io/format failure: a forked worker exited with code 9 before sending its results\n"


class TestExitCodes:
    @pytest.mark.parametrize("verb", ["sweep-fps", "ablate", "token-sweep"])
    def test_seed_flag_only_on_verbs_that_read_it(self, config_path, tmp_path, capsys, verb):
        code = main([verb, "--config", str(config_path), "--out", str(tmp_path / "o"), "--seed", "3"])
        assert code == 1
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_eval_seed_only_for_fps(self, config_path, tmp_path, capsys):
        assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "t")]) == 0
        checkpoint = str(tmp_path / "t" / "checkpoint.json")
        out = tmp_path / "o"
        code = main(["eval", "--config", str(config_path), "--checkpoint", checkpoint, "--out", str(out), "--seed", "5"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --seed ") and "'warm'" in err and len(err.splitlines()) == 1
        assert not out.exists()
        fps = tmp_path / "fps.json"
        fps.write_text(json.dumps(dict(SMALL_CONFIG, method="fps-min-dist")))
        assert main(["eval", "--config", str(fps), "--out", str(out), "--seed", "5"]) == 0
        assert (out / "metrics.csv").exists()

    @pytest.mark.parametrize("verb", ["sweep-fps", "ablate"])
    def test_zero_seeds_exit_1_before_any_work(self, config_path, tmp_path, monkeypatch, capsys, verb):
        def no_batch(*args):
            raise AssertionError("the eval batch was built")

        monkeypatch.setattr(cli, "_eval_batch", no_batch)
        code = main([verb, "--config", str(config_path), "--out", str(tmp_path / "o"), "--seeds", "0"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "verb, data, argv, name",
        [
            pytest.param("train", {"train": {"seed": -1}}, [], "train seed", id="train.seed"),
            pytest.param("train", {"generator": {"seed": -2}}, [], "generator seed", id="generator.seed"),
            pytest.param("train", {}, ["--seed", "-3"], "--seed", id="train--seed"),
            pytest.param("ablate", {"seeds": [0, -1]}, [], "seeds", id="seeds"),
            pytest.param("gen", {"gen_seed": -5}, [], "gen_seed", id="gen_seed"),
            pytest.param("gen", {}, ["--seed", "-1"], "--seed", id="gen--seed"),
            pytest.param("eval", {"eval_seed": -4, "method": "fps-min-dist"}, [], "eval_seed", id="eval_seed"),
            pytest.param("eval", {"method": "fps-min-dist"}, ["--seed", "-2"], "--seed", id="eval--seed"),
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
        ],
    )
    def test_malformed_checkpoint_exit_1(self, config_path, tmp_path, capsys, defect):
        checkpoint = tmp_path / "checkpoint.json"
        save_checkpoint(checkpoint, init_params(8, 6, make_rng(0)), seed=0)
        checkpoint.write_text(json.dumps(defect(json.loads(checkpoint.read_text()))))
        with pytest.raises(CheckpointError):
            load_checkpoint(checkpoint)
        argv = ["eval", "--config", str(config_path), "--checkpoint", str(checkpoint), "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: checkpoint {checkpoint} ") and err.count("\n") == 1

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
        # as a program, without pytest's warning capture; ablate's two grid workers
        # overflow too, in forked processes
        generator = dict(
            SMALL_CONFIG["generator"], inter_class_scale=1e200, intra_class_scale=0.0, instance_spread=1.0
        )
        train_cfg = dict(SMALL_CONFIG["train"], episodes_per_epoch=2)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, method="naive", generator=generator, train=train_cfg)))
        env = dict(os.environ, WARM_THREADS="2", OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
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

    def test_unknown_command_exit_1(self):
        assert main(["frobnicate"]) == 1

    def test_help_exit_0(self):
        assert main(["--help"]) == 0

    def test_missing_data_dir_exit_3(self, config_path, tmp_path):
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
