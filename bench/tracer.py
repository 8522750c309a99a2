"""In-memory span recorder for the traced benchmark run.

A span wraps one public function of warmproto under the module binding
its caller looks it up by (``warmproto.trainer.gen_episode`` is the name
``train`` calls, ``warmproto.cli.gen_episode`` the one ``gen`` calls), so
every call through that binding records (name, start, end, parent).
Spans stay in a list until the run ends; ``restore`` puts the original
functions back.

A layer's self time is its spans' durations minus the time covered by
their direct children.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np


def _stream_key(cfg, rng, *args, **kwargs):
    """Identity of the generator stream an episode is drawn from."""
    state = rng.bit_generator.state["state"]
    return cfg, state["state"], state["inc"]


def _matrix_key(features, *args, **kwargs):
    """Identity of a support-feature matrix, by content."""
    a = np.ascontiguousarray(features, dtype=np.float64)
    return a.shape, hashlib.blake2b(a.tobytes(), digest_size=16).digest()


def _file_size(path, *args, **kwargs):
    return os.path.getsize(path)


# span name -> (bindings to wrap, optional probe run on each call's arguments;
# the tracer stores each probe value with the index of its outermost span)
SPANS: dict[str, tuple[tuple[str, ...], object]] = {
    "cli.verb": (("warmproto.cli:main",), None),
    "trainer.train": (("warmproto.cli:train",), None),
    "trainer.update": (("warmproto.trainer:apply_update",), None),
    "trainer.evaluate": (("warmproto.cli:evaluate",), None),
    "episodes.gen": (("warmproto.cli:gen_episode", "warmproto.trainer:gen_episode"), _stream_key),
    "episodes.load": (("warmproto.cli:load_episode",), _file_size),
    "episodes.save": (("warmproto.cli:save_episode",), None),
    "episodes.split": (
        (
            "warmproto.episodes:Episode.support_features_by_class",
            "warmproto.episodes:Episode.pooled_support_by_class",
        ),
        None,
    ),
    "warm.forward": (("warmproto.trainer:ablation_forward",), None),
    "warm.average_shots": (("warmproto.trainer:average_shots",), None),
    "warm.stats": (("warmproto.warm:compute_stats",), _matrix_key),
    "linalg.eigh": (("warmproto.linalg:sym_eig",), None),
    "warm.backward": (("warmproto.trainer:warm_backward",), None),
    "linalg.pairwise": (
        ("warmproto.losses:pairwise_distances", "warmproto.trainer:pairwise_distances"),
        None,
    ),
    "losses.distance_field": (
        ("warmproto.trainer:point_distances", "warmproto.fps:point_distances"),
        None,
    ),
    "losses.margin_grad": (("warmproto.trainer:margin_loss_grad",), None),
    "losses.simplification": (("warmproto.trainer:simplification_loss_and_grad",), None),
    "metrics.miou": (("warmproto.trainer:miou", "warmproto.fps:miou"), None),
    "metrics.attention": (
        ("warmproto.trainer:attention_entropy", "warmproto.trainer:attention_diversity"),
        None,
    ),
    "metrics.dispersion": (
        (
            "warmproto.trainer:dispersion_metrics",
            "warmproto.trainer:fg_summaries",
            "warmproto.fps:dispersion_metrics",
            "warmproto.fps:fg_summaries",
        ),
        None,
    ),
    "fps.sample": (("warmproto.fps:farthest_point_sampling",), None),
    "fps.evaluate": (("warmproto.cli:evaluate_fps", "warmproto.fps:evaluate_fps"), None),
}


def _resolve(target: str):
    """'pkg.module:Name.attr' -> (object holding attr, attr), or None if gone."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
    if owner is None or attr not in vars(owner):
        return None
    return owner, attr


class Tracer:
    """Records spans for the functions named in ``SPANS``.

    Use as a context manager: entering wraps every binding, leaving puts
    the originals back even when the traced code raised.
    """

    def __init__(self):
        # probes get spans of their own, so their cost leaves the caller's self time
        self.names = list(SPANS) + ["bench.probe"]
        self.spans: list[tuple[int, float, float, int] | None] = []
        self.probes: dict[str, list] = defaultdict(list)
        self.probe_errors: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []  # bindings the program no longer has
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for name_id, (name, (targets, probe)) in enumerate(SPANS.items()):
                for target in targets:
                    found = _resolve(target)
                    if found is None:
                        self.missing.append(target)
                        continue
                    owner, attr = found
                    original = vars(owner)[attr]
                    setattr(owner, attr, self._wrap(name_id, name, original, probe))
                    self._saved.append((owner, attr, original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name_id: int, name: str, fn, probe):
        spans, stack = self.spans, self._stack
        probes, probe_errors = self.probes[name], self.probe_errors
        probe_id = len(self.names) - 1

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if probe is not None:
                start = perf_counter()
                try:
                    # keyed by the outermost span: repeats count within one verb call
                    probes.append((stack[0] if stack else -1, probe(*args, **kwargs)))
                except Exception:  # a probe must never break the traced program
                    probe_errors[name] += 1
                spans.append((probe_id, start, perf_counter(), stack[-1] if stack else -1))
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name_id, start, end, stack[-1] if stack else -1)

        return traced

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, total self seconds)."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        for index, (name_id, start, end, _) in enumerate(self.spans):
            calls[name_id] += 1
            own[name_id] += end - start - covered[index]
        return {name: (calls[i], own[i]) for i, name in enumerate(self.names)}

    def write(self, path: Path) -> None:
        """Write every span as [name index, start s, end s, parent index]."""
        Path(path).write_text(json.dumps({"names": self.names, "spans": self.spans}))
