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


def test_traced_sweep_fps_records_its_layers(tmp_path):
    from warmproto import cli

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
