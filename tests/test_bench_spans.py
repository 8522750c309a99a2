"""The benchmark's traced run wraps program functions by their module
binding; a binding that no longer resolves silently drops its layer from
the per-layer breakdown."""

import importlib.util
import json
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_binding_resolves():
    tracer = load_tracer()
    targets = [target for bindings, _ in tracer.SPANS.values() for target in bindings]
    assert targets
    assert [t for t in targets if tracer._resolve(t) is None] == []


def test_traced_sweep_fps_records_its_layers(tmp_path, monkeypatch):
    # in one process: the tracer sees no span inside a forked worker
    from warmproto import cli

    monkeypatch.setattr(cli, "worker_cap", lambda: 1)
    episodes, seeds, n_way = 3, 2, 2
    config = {
        "generator": {"feature_dim": 8, "points_per_cloud": 128, "min_fg_points": 16, "n_way": n_way},
        "eval_episodes": episodes,
        "fps_seeds": seeds,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    tracer = load_tracer()
    with tracer.Tracer() as traced:
        # through the module attribute, which the tracer wraps as cli.verb
        assert cli.main(["sweep-fps", "--config", str(path), "--out", str(tmp_path / "sweep")]) == 0
    calls = {name: count for name, (count, _) in traced.self_times().items()}
    assert traced.missing == []
    assert calls["cli.verb"] == 1
    assert calls["fps.sample"] == episodes * seeds * (n_way + 1)
    assert calls["metrics.miou"] == episodes * seeds
    assert calls["losses.distance_field"] > 0


def test_every_span_is_called_by_the_verbs(tmp_path, monkeypatch):
    # in one process, so every call goes through the wrapped bindings
    from warmproto import cli

    monkeypatch.setattr(cli, "worker_cap", lambda: 1)
    config = {
        "generator": {"feature_dim": 8, "points_per_cloud": 128, "min_fg_points": 16},
        "train": {"epochs": 1, "episodes_per_epoch": 2, "num_tokens": 4},
        "eval_episodes": 2,
        "num_episodes": 2,
        "fps_seeds": 2,
        "seeds": [0],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    fps = tmp_path / "fps.json"
    fps.write_text(json.dumps(dict(config, method="fps-min-dist")))
    data, checkpoint = tmp_path / "data", tmp_path / "train" / "checkpoint.json"
    verbs = [
        ["gen", "--config", str(path), "--out", str(data)],
        ["train", "--config", str(path), "--out", str(checkpoint.parent)],
        ["eval", "--config", str(path), "--checkpoint", str(checkpoint), "--data", str(data)],
        ["eval", "--config", str(fps)],
        ["sweep-fps", "--config", str(path)],
        ["ablate", "--config", str(path)],
    ]
    tracer = load_tracer()
    with tracer.Tracer() as traced:
        for i, argv in enumerate(verbs):
            if argv[0] not in ("gen", "train"):
                argv += ["--out", str(tmp_path / f"out-{i}")]
            assert cli.main(argv) == 0, argv
    calls = {name: count for name, (count, _) in traced.self_times().items()}
    assert traced.missing == []
    assert calls["cli.verb"] == len(verbs)
    assert [name for name in tracer.SPANS if calls[name] == 0] == []
