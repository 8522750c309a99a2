"""Optimizer update, learning-rate schedule, training loop, evaluation."""

import multiprocessing
import os
import signal
import time
from dataclasses import replace

import numpy as np
import pytest

from warmproto import GeneratorConfig, TrainConfig, apply_update, evaluate, init_params, make_rng, train
from warmproto import trainer
from warmproto.errors import ArgumentError, CheckpointError, ConfigError, NumericError
from warmproto.trainer import TrainRun, init_optimizer, lr_at, make_eval_episodes, run_grid, train_grid
from warmproto.warm import ABLATION_GRID, PARAM_NAMES, load_checkpoint, params_as_dict

DESK = GeneratorConfig(feature_dim=8, points_per_cloud=128, min_fg_points=16)
FAST = TrainConfig(epochs=1, episodes_per_epoch=5, num_tokens=6)


def zero_grads(params):
    return {name: np.zeros_like(arr) for name, arr in params_as_dict(params).items()}


class TestApplyUpdate:
    def test_zero_gradient_no_decay_keeps_params(self):
        params = init_params(4, 3, make_rng(0))
        state = init_optimizer(params)
        new, state2 = apply_update(params, zero_grads(params), state, lr=0.1, weight_decay=0.0)
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(getattr(new, name), getattr(params, name))
        assert state2.step == 1

    def test_decay_only_path_shrinks_exponentially(self):
        params = init_params(4, 3, make_rng(1))
        state = init_optimizer(params)
        lr, wd = 0.01, 0.5
        new, _ = apply_update(params, zero_grads(params), state, lr=lr, weight_decay=wd)
        for name in PARAM_NAMES:
            np.testing.assert_allclose(getattr(new, name), (1 - lr * wd) * getattr(params, name), atol=1e-15)

    def test_constant_gradient_step_size_approaches_lr(self):
        params = init_params(3, 2, make_rng(2))
        state = init_optimizer(params)
        grads = {name: np.full_like(arr, 2.0) for name, arr in params_as_dict(params).items()}
        lr = 1e-3
        for _ in range(300):
            prev = params
            params, state = apply_update(params, grads, state, lr=lr, weight_decay=0.0)
        delta = np.abs(params.tokens - prev.tokens)
        np.testing.assert_allclose(delta, lr, rtol=1e-5)

    def test_pure_function_inputs_untouched(self):
        params = init_params(3, 2, make_rng(3))
        state = init_optimizer(params)
        tokens_before = params.tokens.copy()
        m_before = state.m["tokens"].copy()
        grads = {name: np.ones_like(arr) for name, arr in params_as_dict(params).items()}
        apply_update(params, grads, state, lr=0.1, weight_decay=0.1)
        np.testing.assert_array_equal(params.tokens, tokens_before)
        np.testing.assert_array_equal(state.m["tokens"], m_before)


class TestLrSchedule:
    def test_milestones_exact(self):
        cfg = TrainConfig(epochs=10, episodes_per_epoch=10, lr=1e-4)
        assert cfg.total_steps == 100
        assert lr_at(cfg, 0) == 1e-4
        assert lr_at(cfg, 59) == 1e-4
        assert lr_at(cfg, 60) == pytest.approx(1e-5)
        assert lr_at(cfg, 79) == pytest.approx(1e-5)
        assert lr_at(cfg, 80) == pytest.approx(1e-6)
        assert lr_at(cfg, 99) == pytest.approx(1e-6)

    def test_fractional_milestones_floor(self):
        cfg = TrainConfig(epochs=1, episodes_per_epoch=7)
        # milestones at floor(4.2) = 4 and floor(5.6) = 5
        lrs = [lr_at(cfg, s) for s in range(7)]
        assert lrs[:4] == [cfg.lr] * 4
        assert lrs[4] == pytest.approx(cfg.lr * 0.1)
        assert lrs[5] == pytest.approx(cfg.lr * 0.01)

    def test_invalid_milestones_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr_milestones=(0.8, 0.6)).validate()
        with pytest.raises(ConfigError):
            TrainConfig(lr_milestones=(0.0, 0.5)).validate()


class TestTrain:
    def test_epochs_zero_returns_init(self, tmp_path):
        cfg = TrainConfig(epochs=0, episodes_per_epoch=5, num_tokens=6)
        result = train(cfg, DESK, out_dir=tmp_path)
        initial = TrainRun.start(cfg, DESK, "warm").params
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(getattr(result.params, name), getattr(initial, name))
        loaded, _ = load_checkpoint(tmp_path / "checkpoint.json")
        np.testing.assert_array_equal(loaded.tokens, result.params.tokens)

    def test_determinism_bit_identical(self, tmp_path):
        cfg = TrainConfig(epochs=1, episodes_per_epoch=8, num_tokens=6, seed=3)
        a = train(cfg, DESK, out_dir=tmp_path / "a")
        b = train(cfg, DESK, out_dir=tmp_path / "b")
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(getattr(a.params, name), getattr(b.params, name))
        assert a.log == b.log
        log_a = (tmp_path / "a" / "training_log.csv").read_bytes()
        log_b = (tmp_path / "b" / "training_log.csv").read_bytes()
        assert log_a == log_b
        ck_a = (tmp_path / "a" / "checkpoint.json").read_bytes()
        ck_b = (tmp_path / "b" / "checkpoint.json").read_bytes()
        assert ck_a == ck_b

    def test_log_columns_and_lr_schedule_in_log(self):
        cfg = TrainConfig(epochs=1, episodes_per_epoch=10, num_tokens=6)
        result = train(cfg, DESK)
        assert len(result.log) == 10
        lrs = [row[5] for row in result.log]
        assert lrs[0] == cfg.lr and lrs[-1] == pytest.approx(cfg.lr * 0.01)
        for row in result.log:
            assert np.isfinite(row[3]) and np.isfinite(row[4])

    def test_training_episodes_use_base_classes_only(self):
        # novel-only generator pool would be a contract violation; the
        # checked assertion is exercised indirectly via class discipline
        cfg = TrainConfig(epochs=1, episodes_per_epoch=5, num_tokens=6)
        result = train(cfg, DESK)
        assert result.params.tokens.shape == (12, 8)

    def test_loss_decreases_on_desk_config_across_seeds(self, trained):
        # default desk config, seeds 0..9: training loss must come down
        # (windowed means: single-episode losses vary with task difficulty)
        improved = 0
        for seed in range(10):
            log = trained("warm", seed).log
            first = np.mean([row[3] for row in log[:100]])
            last = np.mean([row[3] for row in log[-100:]])
            improved += last < first
        assert improved / 10 >= 0.95

    def test_fps_variant_rejected(self):
        with pytest.raises(Exception):
            train(FAST, DESK, variant="fps-min-dist")


class TestTrainGrid:
    def test_runs_equal_standalone_train(self):
        cfg = TrainConfig(epochs=1, episodes_per_epoch=6, num_tokens=6, seed=4)
        runs = [
            (cfg, "naive"),
            (cfg, "normalize+restore"),
            (cfg, "warm"),
            (replace(cfg, num_tokens=3, scale_logits=True), "whiten"),
        ]
        for (run_cfg, variant), grid in zip(runs, train_grid(runs, DESK)):
            alone = train(run_cfg, DESK, variant=variant)
            for name in PARAM_NAMES:
                np.testing.assert_array_equal(getattr(grid.params, name), getattr(alone.params, name))
            assert grid.log == alone.log
            assert len(grid.wall) == 6

    def test_runs_must_share_seed_and_steps(self):
        with pytest.raises(ArgumentError):
            train_grid([(FAST, "warm"), (replace(FAST, seed=1), "warm")], DESK)
        with pytest.raises(ArgumentError):
            train_grid([(FAST, "warm"), (replace(FAST, epochs=2), "warm")], DESK)
        with pytest.raises(ArgumentError):
            train_grid([], DESK)


class TestEpisodeProducer:
    """With more than one worker, a forked child generates the training
    episodes; the run must not depend on it, and no child may outlive it."""

    TWO_WAY = GeneratorConfig(feature_dim=8, points_per_cloud=128, min_fg_points=16, n_way=2, k_shot=2)
    LONG = replace(FAST, episodes_per_epoch=40)  # more episodes than the pipe holds

    @pytest.mark.parametrize("gen_cfg", [DESK, TWO_WAY], ids=["1-way-1-shot", "2-way-2-shot"])
    def test_same_run_at_two_workers(self, tmp_path, monkeypatch, gen_cfg):
        # the child inherits the patch and marks each episode it generates in a file per process
        real = trainer.gen_episode

        def recording(cfg, rng, split):
            with (tmp_path / "pids" / str(os.getpid())).open("a") as fh:
                fh.write(".")
            return real(cfg, rng, split=split)

        monkeypatch.setattr(trainer, "gen_episode", recording)
        runs = {}
        for workers in (1, 2):
            (tmp_path / "pids").mkdir()
            runs[workers] = train(FAST, gen_cfg, workers=workers)
            assert multiprocessing.active_children() == []
            generated = {p.name: len(p.read_text()) for p in (tmp_path / "pids").iterdir()}
            assert list(generated.values()) == [FAST.total_steps]
            assert (str(os.getpid()) in generated) == (workers == 1)
            (tmp_path / "pids").rename(tmp_path / f"pids-{workers}")
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(getattr(runs[2].params, name), getattr(runs[1].params, name))
        assert runs[2].log == runs[1].log
        assert len(runs[2].wall) == FAST.total_steps

    def test_producer_error_is_raised_with_its_type_and_message(self, monkeypatch, wait_limit):
        # the forked child starts from the parent's empty call list
        real, calls = trainer.gen_episode, []

        def failing(cfg, rng, split):
            calls.append(None)
            if len(calls) == 4:
                raise NumericError("no episode at step 3")
            return real(cfg, rng, split=split)

        monkeypatch.setattr(trainer, "gen_episode", failing)
        for workers in (1, 2):
            calls.clear()
            with pytest.raises(NumericError) as err:
                train(self.LONG, DESK, workers=workers)
            assert type(err.value) is NumericError and str(err.value) == "no episode at step 3"
            assert multiprocessing.active_children() == []

    def test_interrupt_joins_the_producer(self, monkeypatch, wait_limit):
        real = TrainRun.step

        def interrupted(run, episode, step):
            if step == 2:
                raise KeyboardInterrupt
            real(run, episode, step)

        monkeypatch.setattr(TrainRun, "step", interrupted)
        with pytest.raises(KeyboardInterrupt):
            train(self.LONG, DESK, workers=2)
        assert multiprocessing.active_children() == []

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ArgumentError):
            train_grid([(FAST, "warm")], DESK, workers=0)


class TestRunGrid:
    SEED_RUNS = [
        [(replace(FAST, seed=seed), v) for v in ("naive", "whiten", "center+restore", "warm", "normalize")]
        for seed in (2, 9)
    ]

    def test_same_results_at_every_worker_count(self, tmp_path, monkeypatch):
        # forked workers inherit the patch and leave one file per evaluated run
        real = trainer.evaluate

        def recording(params, episodes, variant, eps, scale_logits):
            (tmp_path / f"{os.getpid()}-{variant}-{params.tokens[0, 0]!r}").touch()
            return real(params, episodes, variant, eps, scale_logits)

        monkeypatch.setattr(trainer, "evaluate", recording)
        episodes = make_eval_episodes(DESK, 3, 77)
        reference = run_grid(self.SEED_RUNS, DESK, episodes, workers=1)
        assert {p.name.split("-")[0] for p in tmp_path.iterdir()} == {str(os.getpid())}
        for runs, row in zip(self.SEED_RUNS, reference):
            for (cfg, variant), (result, scored) in zip(runs, row):
                alone = train(cfg, DESK, variant=variant)
                np.testing.assert_array_equal(result.params.tokens, alone.params.tokens)
                assert scored == real(alone.params, episodes, variant, cfg.eps, cfg.scale_logits)
        for workers in (2, 3):
            for path in tmp_path.iterdir():
                path.unlink()
            grid = run_grid(self.SEED_RUNS, DESK, episodes, workers=workers)
            pids = {p.name.split("-")[0] for p in tmp_path.iterdir()}
            assert 0 < len(pids) <= workers and str(os.getpid()) not in pids
            assert multiprocessing.active_children() == []  # the pool was joined
            for row, ref_row in zip(grid, reference):
                for (result, scored), (ref_result, ref_scored) in zip(row, ref_row):
                    for name in PARAM_NAMES:
                        np.testing.assert_array_equal(getattr(result.params, name), getattr(ref_result.params, name))
                    assert result.log == ref_result.log
                    assert scored == ref_scored

    def test_worker_error_is_the_first_in_run_order(self, monkeypatch):
        real = trainer.episode_forward

        def failing(params, episode, variant, eps, scale_logits):
            protos, shots = real(params, episode, variant, eps, scale_logits)
            if variant in ("center+restore", "normalize"):
                protos = {c: np.full_like(p, np.nan) for c, p in protos.items()}
            return protos, shots

        monkeypatch.setattr(trainer, "episode_forward", failing)
        episodes = make_eval_episodes(DESK, 2, 77)
        messages = []
        for workers in (1, 2, 3):
            with pytest.raises(NumericError) as err:
                run_grid(self.SEED_RUNS, DESK, episodes, workers=workers)
            messages.append(str(err.value))
        assert "'center+restore'" in messages[0] and "seed=2" in messages[0]
        assert messages == [messages[0]] * 3

    def test_pairs_of_all_seeds_are_cut_once(self, tmp_path, monkeypatch):
        # 21 pairs on 2 workers are cut 11+10, so seed 1 trains in both and 4 episode streams are drawn
        seed_runs = [[(replace(FAST, episodes_per_epoch=3, seed=seed), v) for v in ABLATION_GRID] for seed in range(3)]
        episodes = make_eval_episodes(DESK, 2, 77)
        reference = run_grid(seed_runs, DESK, episodes, workers=1)
        real = trainer.gen_episode

        # forked workers inherit the patch and mark each training episode in a file per process
        def recording(cfg, rng, split):
            with (tmp_path / str(os.getpid())).open("a") as fh:
                fh.write(".")
            return real(cfg, rng, split=split)

        monkeypatch.setattr(trainer, "gen_episode", recording)
        grid = run_grid(seed_runs, DESK, episodes, workers=2)
        generated = {p.name: len(p.read_text()) for p in tmp_path.iterdir()}
        assert len(generated) <= 2 and str(os.getpid()) not in generated
        assert sum(generated.values()) == 4 * 3
        assert multiprocessing.active_children() == []
        for row, ref_row in zip(grid, reference, strict=True):
            for (result, scored), (ref_result, ref_scored) in zip(row, ref_row, strict=True):
                for name in PARAM_NAMES:
                    np.testing.assert_array_equal(getattr(result.params, name), getattr(ref_result.params, name))
                assert result.log == ref_result.log
                assert scored == ref_scored

    def test_interrupt_stops_the_workers(self, monkeypatch, wait_limit):
        parent, real = os.getpid(), trainer.train_grid

        def slow(runs, gen_cfg):
            if os.getpid() != parent:
                time.sleep(20)
            return real(runs, gen_cfg)

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        monkeypatch.setattr(trainer, "train_grid", slow)
        episodes = make_eval_episodes(DESK, 1, 77)
        signal.signal(signal.SIGALRM, interrupt)  # wait_limit puts the previous handler back
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_grid(self.SEED_RUNS, DESK, episodes, workers=2)
        assert time.monotonic() - started < 10
        assert multiprocessing.active_children() == []

    def test_rejects_empty_grid_and_bad_worker_count(self):
        episodes = make_eval_episodes(DESK, 1, 77)
        for seed_runs, workers in (([], 1), ([[]], 1), (self.SEED_RUNS, 0)):
            with pytest.raises(ArgumentError):
                run_grid(seed_runs, DESK, episodes, workers=workers)


class TestEvaluate:
    def test_deterministic(self):
        episodes = make_eval_episodes(DESK, 4, 123)
        params = init_params(8, 6, make_rng(5))
        assert evaluate(params, episodes) == evaluate(params, episodes)

    def test_ground_truth_means_on_separable_data(self):
        # prototypes at the true class means on well-separated data with a
        # single background component (a mixture mean sits between blobs)
        gen = GeneratorConfig(
            feature_dim=8, points_per_cloud=128, min_fg_points=16,
            inter_class_scale=60.0, intra_class_scale=0.5, instance_spread=0.5,
            bg_components=1,
        )
        episodes = make_eval_episodes(gen, 5, 321)
        from warmproto.losses import point_distances, predict
        from warmproto.metrics import miou

        scores = []
        for ep in episodes:
            protos = {c: f.mean(axis=0, keepdims=True) for c, f in ep.pooled_support_by_class().items()}
            preds = np.concatenate([predict(point_distances(q.features, protos)) for q in ep.query])
            truth = np.concatenate([q.labels for q in ep.query])
            scores.append(miou(preds, truth, {0, 1})[0])
        assert np.mean(scores) > 0.99

    def test_checkpoint_dim_mismatch(self):
        episodes = make_eval_episodes(DESK, 2, 11)
        params = init_params(16, 6, make_rng(6))
        with pytest.raises(CheckpointError):
            evaluate(params, episodes)

    def test_report_fields_populated(self):
        episodes = make_eval_episodes(DESK, 3, 17)
        params = init_params(8, 6, make_rng(7))
        report = evaluate(params, episodes)
        assert 0.0 <= report.miou <= 1.0
        assert report.d_instance > 0
        assert report.attn_entropy is not None and 0 <= report.attn_entropy <= 1
        assert report.attn_diversity is not None
        assert report.qk_dist is not None and report.qk_dist >= 0
        assert set(report.per_class_iou) == {0, 1}

    def test_trained_beats_untrained_on_benchmark(self, trained, default_gen, bench_episodes, evaluated):
        run = trained("warm", 0)
        after = evaluated("warm", 0).miou
        before = evaluate(TrainRun.start(run.cfg, default_gen, "warm").params, bench_episodes, "warm").miou
        assert after > before
