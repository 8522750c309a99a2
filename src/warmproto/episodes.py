"""Synthetic N-way K-shot episodes and the on-disk episode container.

Feature geometry: every class owns a fixed center in feature space, drawn
once per benchmark seed. Each cloud places one instance per foreground
way (class center plus instance jitter) and a background mixture of
distractor-class instances, so backgrounds are multi-modal. Points
scatter around their instance center through a random triangular channel
mixing map, which injects instance-specific channel correlations; the
decorrelation step of the prototype operator has something real to
remove.

Labels are episode-local: 0 is background, way w is labeled w+1, and
``class_ids[w]`` records which global class way w stands for.
"""

from __future__ import annotations

import functools
import os
import struct
import sys
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import ArgumentError, ConfigError, EmptyClassError, FormatError
from .files import atomic_write
from .linalg import require_finite
from .rng import derive_rng

MAGIC = b"WARM-EP1"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<8sHIIIII")  # magic, version, N, K, U, L, D
# the largest N, K, U, L or D the header holds; the configs bound every size and count by it
MAX_SIZE = 2**32 - 1
# the largest seed: 64 bits of SeedSequence entropy
MAX_SEED = 2**64 - 1

BACKGROUND = 0

_CENTER_STREAM = 101

# Per-cloud foreground share is drawn uniformly from this band.
_FG_FRACTION = (0.35, 0.65)


@dataclass
class PointCloud:
    """Point-wise features (L x D) with per-point episode-local labels."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ArgumentError(f"features must be 2-D, got shape {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise ArgumentError(
                f"labels length {self.labels.shape} does not match {self.features.shape[0]} points"
            )
        if self.labels.size and self.labels.min() < 0:
            raise ArgumentError("labels must be nonnegative")
        require_finite(self.features, "features")

    @property
    def num_points(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


@dataclass
class Episode:
    """One N-way K-shot task: support clouds (way-major) and query clouds."""

    n_way: int
    k_shot: int
    support: list[PointCloud]
    query: list[PointCloud]
    class_ids: list[int]

    def __post_init__(self):
        if len(self.support) != self.n_way * self.k_shot:
            raise ArgumentError(
                f"expected {self.n_way * self.k_shot} support clouds, got {len(self.support)}"
            )
        if not self.query:
            raise ArgumentError("episode needs at least one query cloud")
        if len(set(self.class_ids)) != self.n_way:
            raise ArgumentError(f"class_ids must be {self.n_way} distinct ids, got {self.class_ids}")
        for cloud in self.support + self.query:
            if cloud.labels.size and cloud.labels.max() > self.n_way:
                raise ArgumentError("cloud labels exceed the number of ways")
        for way in range(self.n_way):
            for shot in range(self.k_shot):
                cloud = self.support_cloud(way, shot)
                if not np.any(cloud.labels == way + 1):
                    raise EmptyClassError(f"support cloud (way={way}, shot={shot}) has no foreground")

    def support_cloud(self, way: int, shot: int) -> PointCloud:
        return self.support[way * self.k_shot + shot]

    def support_features_by_class(self, shot: int) -> dict[int, np.ndarray]:
        """Per-class support features for one shot.

        Way w maps to its cloud's foreground rows; background pools the
        background rows of all of this shot's clouds in way order.
        """
        out: dict[int, np.ndarray] = {}
        bg_parts = []
        for way in range(self.n_way):
            fg, bg = split_fg_bg(self.support_cloud(way, shot), way + 1)
            out[way + 1] = fg
            bg_parts.append(bg)
        out[BACKGROUND] = np.vstack(bg_parts)
        return out

    def pooled_support_by_class(self) -> dict[int, np.ndarray]:
        """Per-class support features pooled over all shots."""
        parts: dict[int, list[np.ndarray]] = {label: [] for label in range(self.n_way + 1)}
        for shot in range(self.k_shot):
            for label, feats in self.support_features_by_class(shot).items():
                parts[label].append(feats)
        return {label: np.vstack(blocks) for label, blocks in parts.items()}


class EpisodeBatch(Sequence):
    """Episodes built only when read: item i is ``make(keys[i])``, such
    as an episode file's path for ``load_episode``.

    Nothing is kept: every read makes its episode again, so a reader
    holds one episode at a time and a forked worker builds only those of
    its own slice. A caller that reads the batch more than once and would
    rather not rebuild it holds ``list(batch)``.
    """

    def __init__(self, make: Callable[..., Episode], keys: Sequence):
        self.make, self.keys = make, keys

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, index: int) -> Episode:
        return self.make(self.keys[index])

    def __iter__(self) -> Iterator[Episode]:
        return map(self.make, self.keys)


@dataclass(frozen=True)
class GeneratorConfig:
    """Benchmark geometry.

    The defaults put episodes in a deliberately overlapping regime
    (instance jitter and point spread comparable to the class-center
    spacing, strong channel correlation): separable enough to learn,
    ambiguous enough that prototype quality decides the outcome.
    """

    feature_dim: int = 32
    points_per_cloud: int = 512
    n_way: int = 1
    k_shot: int = 1
    num_query: int = 1
    inter_class_scale: float = 7.0
    intra_class_scale: float = 6.0
    instance_spread: float = 10.0
    channel_corr_strength: float = 0.95
    base_classes: tuple[int, ...] = (0, 1, 2, 3, 4, 5, 6, 7)
    novel_classes: tuple[int, ...] = (8, 9, 10, 11, 12, 13, 14, 15)
    seed: int = 0
    min_fg_points: int = 32
    bg_components: int = 4

    def __post_init__(self) -> None:
        check_types(self)
        check_range(self, ("feature_dim", "points_per_cloud", "n_way", "k_shot", "num_query", "bg_components"), 1)
        check_range(self, ("min_fg_points",), 2)
        check_range(self, ("seed",), 0, MAX_SEED, prefix="generator ")
        check_range(self, ("inter_class_scale", "intra_class_scale", "instance_spread"), 0, sys.float_info.max)
        if not 0.0 <= self.channel_corr_strength < 1.0:
            raise ConfigError(
                f"channel_corr_strength must lie in [0, 1), got {self.channel_corr_strength}"
            )
        # WARM-EP1 stores class ids as u32
        check_range(self, ("base_classes", "novel_classes"), 0)
        base, novel = set(self.base_classes), set(self.novel_classes)
        if base & novel:
            raise ConfigError(f"base and novel classes overlap: {sorted(base & novel)}")
        for split_name, split in (("base_classes", self.base_classes), ("novel_classes", self.novel_classes)):
            # a repeated id would be counted as a distractor it cannot supply
            if len(set(split)) != len(split):
                raise ConfigError(f"{split_name} must hold distinct class ids, got {list(split)}")
            if len(split) <= self.n_way:
                raise ConfigError(
                    f"{split_name} needs more than n_way={self.n_way} classes to supply distractors"
                )
        floor_fg = int(self.points_per_cloud * _FG_FRACTION[0])
        if floor_fg < self.n_way * self.min_fg_points:
            raise ConfigError(
                f"points_per_cloud={self.points_per_cloud} too small for "
                f"{self.n_way} ways at min_fg_points={self.min_fg_points}"
            )


def check_types(cfg) -> None:
    """The one type rule of the three configs, run first in ``__post_init__``: ConfigError naming
    the first field whose value does not ``fit`` its default (no build resolves annotations)."""
    for f in fields(cfg):
        if not fits(value := getattr(cfg, f.name), f.default):
            raise ConfigError(f"{type(cfg).__name__} field '{f.name}' must be {f.type}, got {value!r}")


def fits(value, like) -> bool:
    """Whether ``value`` has the type of ``like``: an int for an int; an int or
    a float in a double's finite range for a float; a nonempty tuple of values
    that fit ``like[0]`` for a tuple; else an instance. A bool fits nothing."""
    if isinstance(like, tuple):
        return isinstance(value, tuple) and len(value) > 0 and all(fits(v, like[0]) for v in value)
    if isinstance(like, float):
        return (fits(value, 0) or isinstance(value, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, type(like)) and not isinstance(value, bool)


def check_range(cfg, names, low, high=MAX_SIZE, prefix: str = "") -> None:
    """Raise ConfigError for the first field of ``names``, or element of a
    tuple field, outside [low, high], naming the field and the bound it
    broke; float fields pass ``high=sys.float_info.max``. Above ``MAX_SIZE``
    a size is one numpy could not allocate, or a count no run would finish."""
    for name in names:
        value = getattr(cfg, name)
        for v in value if isinstance(value, tuple) else (value,):
            if not v >= low:
                raise ConfigError(f"{prefix}{name} must be >= {low}, got {v}")
            if not v <= high:
                raise ConfigError(f"{prefix}{name} must be <= {high}, got {v}")


def class_center(cfg: GeneratorConfig, class_id: int) -> np.ndarray:
    """Global center of a class, fixed for the lifetime of a benchmark seed.

    Read-only: one array per (seed, scale, D, class) is shared by every
    episode that draws the class.
    """
    return _class_center(cfg.seed, cfg.inter_class_scale, cfg.feature_dim, int(class_id))


@functools.lru_cache(maxsize=1024)
def _class_center(seed: int, scale: float, dim: int, class_id: int) -> np.ndarray:
    center = scale * derive_rng(seed, _CENTER_STREAM, class_id).standard_normal(dim)
    center.setflags(write=False)
    return center


def _mixing_map(rng: np.random.Generator, dim: int, corr: float) -> np.ndarray:
    tri = np.tril(rng.standard_normal((dim, dim)))
    diag = np.diagonal(tri).copy()
    # keep rows away from zero so normalization is safe
    tri[np.arange(dim), np.arange(dim)] = diag + np.copysign(0.5, diag)
    tri /= np.linalg.norm(tri, axis=1, keepdims=True)
    return (1.0 - corr) * np.eye(dim) + corr * tri


def _instances(
    rng: np.random.Generator, cfg: GeneratorConfig, ways: list[tuple[int, int]], counts
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Feature and label parts of one instance per (label, class) way with
    its point count: a jittered class center, then, for a way with points,
    its channel mixing map and the mixed noise around that center."""
    feature_parts, label_parts = [], []
    for (label, cls), n in zip(ways, counts):
        center = class_center(cfg, cls) + cfg.intra_class_scale * rng.standard_normal(cfg.feature_dim)
        if n > 0:
            mix = _mixing_map(rng, cfg.feature_dim, cfg.channel_corr_strength)
            noise = rng.standard_normal((n, cfg.feature_dim)) @ mix.T
            feature_parts.append(center + cfg.instance_spread * noise)
            label_parts.append(np.full(n, label, dtype=np.int64))
    return feature_parts, label_parts


def _cloud(
    rng: np.random.Generator, cfg: GeneratorConfig, ways: list[tuple[int, int]], distractors: list[int]
) -> PointCloud:
    """A cloud with one instance per (label, class) way (one for a support
    cloud, every way for a query) over a background of distractors. The
    background keeps at least ``min_fg_points``, shared by a multinomial
    draw in which a distractor may draw no points."""
    total = cfg.points_per_cloud
    n_fg = max(int(round(total * rng.uniform(*_FG_FRACTION))), len(ways) * cfg.min_fg_points)
    n_fg = min(n_fg, total - cfg.min_fg_points)
    base, extra = divmod(n_fg, len(ways))
    features, labels = _instances(rng, cfg, ways, [base + (i < extra) for i in range(len(ways))])
    bg_counts = rng.multinomial(total - n_fg, [1.0 / len(distractors)] * len(distractors))
    bg_features, bg_labels = _instances(rng, cfg, [(BACKGROUND, cls) for cls in distractors], bg_counts)
    perm = rng.permutation(total)
    return PointCloud(np.vstack(features + bg_features)[perm], np.concatenate(labels + bg_labels)[perm])


def gen_episode(cfg: GeneratorConfig, rng: np.random.Generator, split: str = "base") -> Episode:
    """Sample one episode whose ways come from the requested class split.

    Deterministic given (cfg, generator state): the class centers depend
    only on cfg.seed, everything else is drawn from ``rng`` in a fixed
    order. Background distractor classes are drawn once per episode and
    shared by all of its clouds.
    """
    if split == "base":
        pool = cfg.base_classes
    elif split == "novel":
        pool = cfg.novel_classes
    else:
        raise ArgumentError(f"split must be 'base' or 'novel', got {split!r}")
    ways = [int(c) for c in rng.choice(pool, size=cfg.n_way, replace=False)]
    rest = [c for c in pool if c not in ways]
    distractors = [int(c) for c in rng.choice(rest, size=min(cfg.bg_components, len(rest)), replace=False)]
    support = [
        _cloud(rng, cfg, [(label, cls)], distractors) for label, cls in enumerate(ways, 1) for _ in range(cfg.k_shot)
    ]
    query = [_cloud(rng, cfg, list(enumerate(ways, 1)), distractors) for _ in range(cfg.num_query)]
    return Episode(cfg.n_way, cfg.k_shot, support, query, ways)


def split_fg_bg(cloud: PointCloud, class_label: int) -> tuple[np.ndarray, np.ndarray]:
    """Partition a cloud's feature rows into (class_label, rest).

    Point order is preserved inside each part. Raises EmptyClassError when
    the cloud has no points of the class; an empty background is returned
    as a (0 x D) matrix.
    """
    mask = cloud.labels == class_label
    if not np.any(mask):
        raise EmptyClassError(f"cloud contains no points of class {class_label}")
    return cloud.features[mask], cloud.features[~mask]


def save_episode(episode: Episode, path) -> None:
    """Serialize an episode to the WARM-EP1 binary container."""
    n, k, u = episode.n_way, episode.k_shot, len(episode.query)
    clouds = episode.support + episode.query
    l, d = clouds[0].num_points, clouds[0].feature_dim
    for cloud in clouds:
        if cloud.num_points != l or cloud.feature_dim != d:
            raise ArgumentError("all clouds in a file must share L and D")
    parts = [_HEADER.pack(MAGIC, FORMAT_VERSION, n, k, u, l, d)]
    parts.append(np.asarray(episode.class_ids, dtype="<u4").tobytes())
    for cloud in clouds:
        parts.append(np.ascontiguousarray(cloud.features, dtype="<f8").tobytes())
        parts.append(np.ascontiguousarray(cloud.labels, dtype="<u4").tobytes())
    atomic_write(path, b"".join(parts))


class EpisodeHeader(NamedTuple):
    """The sizes a WARM-EP1 header declares."""

    n_way: int
    k_shot: int
    num_query: int
    points: int
    feature_dim: int


def _read_header(fh) -> EpisodeHeader:
    """The header of the WARM-EP1 file open as ``fh``, read from its
    start, after the checks that need nothing else: the magic and
    version, no zero size, and a file size the sizes imply. ``fh`` is
    left at the end of the header."""
    size = os.fstat(fh.fileno()).st_size
    data = fh.read(_HEADER.size)
    if len(data) < _HEADER.size:
        raise FormatError(f"truncated header: file has {size} bytes, header needs {_HEADER.size}", offset=size)
    magic, version, n, k, u, l, d = _HEADER.unpack(data)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported version {version}, expected {FORMAT_VERSION}", offset=8)
    for name, value, off in (("N", n, 10), ("K", k, 14), ("U", u, 18), ("L", l, 22), ("D", d, 26)):
        if value < 1:
            raise FormatError(f"header field {name} must be >= 1, got {value}", offset=off)
    expected = _HEADER.size + 4 * n + (n * k + u) * (8 * l * d + 4 * l)
    if size != expected:
        raise FormatError(
            f"size mismatch: header (N={n}, K={k}, U={u}, L={l}, D={d}) implies "
            f"{expected} bytes, file has {size}",
            offset=min(expected, size),
        )
    return EpisodeHeader(n, k, u, l, d)


def read_header(path) -> EpisodeHeader:
    """A WARM-EP1 file's header, checked as ``load_episode`` checks it,
    from its header bytes and its size alone: the body is not read."""
    with open(path, "rb") as fh:
        return _read_header(fh)


def load_episode(path) -> Episode:
    """Read a WARM-EP1 container back into an Episode.

    Malformed files, and well-formed ones that describe an invalid episode
    (repeated class ids, a support cloud without foreground), raise
    FormatError carrying the byte offset of the problem; a truncated file
    never yields a partial episode.
    """
    with open(path, "rb") as fh:
        n, k, u, l, d = _read_header(fh)
        offset = _HEADER.size
        class_ids = [int(c) for c in np.fromfile(fh, dtype="<u4", count=n)]
        if len(set(class_ids)) != n:
            raise FormatError(f"class ids {class_ids} are not {n} distinct ids", offset=offset)
        offset += 4 * n
        clouds = []
        for i in range(n * k + u):
            features = np.fromfile(fh, dtype="<f8", count=l * d).reshape(l, d)
            if not np.all(np.isfinite(features)):
                raise FormatError(f"non-finite feature value in cloud {i}", offset=offset)
            offset += 8 * l * d
            labels = np.fromfile(fh, dtype="<u4", count=l).astype(np.int64)
            if labels.max(initial=0) > n:
                raise FormatError(
                    f"cloud {i} has label {int(labels.max())} exceeding n_way={n}", offset=offset
                )
            if i < n * k and not np.any(labels == i // k + 1):
                raise FormatError(
                    f"support cloud {i} (way={i // k}, shot={i % k}) has no foreground", offset=offset
                )
            offset += 4 * l
            clouds.append(PointCloud(features, labels))
    return Episode(n, k, clouds[: n * k], clouds[n * k :], class_ids)
