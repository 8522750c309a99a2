"""Prototype generation by aligned cross-attention.

The full operator runs three stages per class: whiten the class's support
features (subtract the mean, multiply by the inverse covariance root),
let that class's learnable token pool attend to the whitened features
through a single projection-only attention head, then color the attended
tokens back (covariance root and mean restored). Ablation variants swap
whitening for plain centering or per-channel normalization, or skip the
restoration; the naive variant attends to raw features directly.

Foreground ways share one token pool, background has its own; each pool
only ever attends to its own class's features. Whitening statistics are
constants with respect to the learnables (the features come from a fixed
source), so the backward pass never differentiates through the
eigendecomposition, and ``episode_support`` computes them once per
episode for every run that reads it. With K shots a class's statistics
and its attention keys are those of all K shots' rows together.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .episodes import BACKGROUND, MAX_SEED, Episode, fits
from .errors import ArgumentError, CheckpointError, EmptyClassError, InsufficientPointsError, NumericError
from .files import atomic_write, json_int
from .linalg import half_powers, require_finite, softmax_rows

# The one table of forward variants: name -> (feature transform, restore).
# The rows of the component-ablation grid are exactly the first seven
# entries; "warm" names the full operator.
VARIANTS: dict[str, tuple[str, bool]] = {
    "naive": ("naive", False),
    "center": ("center", False),
    "normalize": ("normalize", False),
    "whiten": ("whiten", False),
    "center+restore": ("center", True),
    "normalize+restore": ("normalize", True),
    "whiten+restore": ("whiten", True),
    "warm": ("whiten", True),
}

ABLATION_GRID = tuple(VARIANTS)[:7]


def resolve_variant(name: str) -> tuple[str, bool]:
    try:
        return VARIANTS[name]
    except KeyError:
        raise ArgumentError(f"unknown variant {name!r}; expected one of {sorted(VARIANTS)}") from None


@dataclass
class WhitenStats:
    """Per-class mean and covariance, the covariance's clamped +/- half
    powers and its clamped per-channel standard deviation (``scale``)."""

    mean: np.ndarray
    cov: np.ndarray
    inv_sqrt: np.ndarray
    sqrt: np.ndarray
    scale: np.ndarray


def compute_stats(features: np.ndarray, eps: float = 1e-4) -> WhitenStats:
    """Alignment/restoration statistics of one class's support features.

    Covariance uses the unbiased divisor (rows - 1); its eigenvalues
    below eps are clamped before the half powers are taken, its diagonal
    before ``scale``. Every forward pass reads statistics at this default.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ArgumentError(f"features must be 2-D, got shape {features.shape}")
    if features.shape[0] < 2:
        raise InsufficientPointsError(
            f"need at least 2 points for covariance, got {features.shape[0]}"
        )
    mean = features.mean(axis=0)
    centered = features - mean
    cov = centered.T @ centered / (features.shape[0] - 1)
    cov = 0.5 * (cov + cov.T)
    inv_sqrt, sqrt = half_powers(cov, eps)
    scale = np.sqrt(np.maximum(np.diagonal(cov), eps))
    return WhitenStats(mean=mean, cov=cov, inv_sqrt=inv_sqrt, sqrt=sqrt, scale=scale)


def whiten(features: np.ndarray, stats: WhitenStats) -> np.ndarray:
    """Zero-mean, channel-decorrelated view of the features."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape[1] != stats.mean.shape[0]:
        raise ArgumentError(
            f"dimension mismatch: features have D={features.shape[1]}, stats have D={stats.mean.shape[0]}"
        )
    return (features - stats.mean) @ stats.inv_sqrt


def color(tokens: np.ndarray, stats: WhitenStats) -> np.ndarray:
    """Restore the removed statistics: tokens @ cov^(1/2) + mean."""
    tokens = np.asarray(tokens, dtype=np.float64)
    if tokens.shape[1] != stats.mean.shape[0]:
        raise ArgumentError(
            f"dimension mismatch: tokens have D={tokens.shape[1]}, stats have D={stats.mean.shape[0]}"
        )
    return tokens @ stats.sqrt + stats.mean


PARAM_NAMES = ("tokens", "w_q", "w_k", "w_v")


@dataclass
class WarmParams:
    """Learnable state: 2M prototypical tokens and the three projections.

    Rows [:M] of ``tokens`` are the foreground pool (shared across ways),
    rows [M:] the background pool. Projections are bias-free D x D maps.
    """

    tokens: np.ndarray
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray

    def __post_init__(self):
        for name in PARAM_NAMES:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if self.tokens.ndim != 2 or self.tokens.shape[0] % 2 != 0:
            raise ArgumentError(f"tokens must be (2M x D), got shape {self.tokens.shape}")
        d = self.tokens.shape[1]
        for name in PARAM_NAMES[1:]:  # the projections
            w = getattr(self, name)
            if w.shape != (d, d):
                raise ArgumentError(f"{name} must be ({d} x {d}), got {w.shape}")
            require_finite(w, name)
        require_finite(self.tokens, "tokens")

    @property
    def num_tokens(self) -> int:
        return self.tokens.shape[0] // 2

    @property
    def feature_dim(self) -> int:
        return self.tokens.shape[1]

    def token_rows(self, class_label: int) -> slice:
        """Rows of ``tokens`` holding the class's pool."""
        m = self.num_tokens
        return slice(m, 2 * m) if class_label == BACKGROUND else slice(0, m)


def params_as_dict(params: WarmParams) -> dict[str, np.ndarray]:
    return {name: getattr(params, name) for name in PARAM_NAMES}


def init_params(
    feature_dim: int, num_tokens: int, rng: np.random.Generator, token_std: float = 0.02
) -> WarmParams:
    """Gaussian tokens (std token_std, compact next to feature dispersion)
    and gaussian projections with std 3/sqrt(D).

    The projection scale is a few times larger than the classic 1/sqrt(D)
    so the attention logits have unit-order spread over whitened keys from
    the very first step; with smaller projections the head starts out
    uniform and stays that way for the whole desk-scale step budget.
    """
    if feature_dim < 1 or num_tokens < 1:
        raise ArgumentError("feature_dim and num_tokens must be >= 1")
    proj_scale = 3.0 / np.sqrt(feature_dim)
    return WarmParams(
        tokens=token_std * rng.standard_normal((2 * num_tokens, feature_dim)),
        w_q=proj_scale * rng.standard_normal((feature_dim, feature_dim)),
        w_k=proj_scale * rng.standard_normal((feature_dim, feature_dim)),
        w_v=proj_scale * rng.standard_normal((feature_dim, feature_dim)),
    )


@dataclass
class ClassTrace:
    """Everything the backward pass and the diagnostics need per class."""

    rows: slice  # the class's token pool, as rows of WarmParams.tokens
    keys_in: np.ndarray  # transformed features actually fed to attention
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    weights: np.ndarray
    attended: np.ndarray
    out_map: np.ndarray | None  # restoration matrix, None means identity


@dataclass
class ForwardResult:
    prototypes: dict[int, np.ndarray]
    per_class: dict[int, ClassTrace]


@dataclass
class ShotSupport:
    """Support features per class, with each class's transform statistics
    (``compute_stats``). Where they cannot be taken (too few points, or
    not finite), every class holds that error instead, for the forward of
    a variant that reads them to raise."""

    features: dict[int, np.ndarray]
    stats: dict[int, WhitenStats | InsufficientPointsError | NumericError]


def shot_support(features_by_class: dict[int, np.ndarray]) -> ShotSupport:
    """The forward inputs of a support split by class, for every variant."""
    if not features_by_class:
        raise ArgumentError("features_by_class is empty")
    features = {}
    for label in sorted(features_by_class):
        features[label] = np.asarray(features_by_class[label], dtype=np.float64)
        if features[label].shape[0] == 0:
            raise EmptyClassError(f"class {label} has no support features")
    try:
        stats = {label: compute_stats(f) for label, f in features.items()}
    except (InsufficientPointsError, NumericError) as exc:
        # "naive" reads no statistics; a grid step still fails at its first failing run in run order
        stats = dict.fromkeys(features, exc)
    return ShotSupport(features, stats)


def episode_support(episode: Episode) -> ShotSupport:
    """The episode's support split by class and pooled over its shots
    (``Episode.pooled_support_by_class``), with one set of statistics per
    class: everything the forward pass of any variant takes from the
    episode. With K shots each class's operator reads all K shots' rows.

    It depends on the episode alone, never on the parameters or the
    variant, so one result serves every run that steps on or scores the
    episode.
    """
    return shot_support(episode.pooled_support_by_class())


def _class_transform(
    features: np.ndarray, stats: WhitenStats | Exception, mode: str, restore: bool
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Returns (keys_in, out_map, out_shift) for one class."""
    if mode == "naive":
        return features, None, None
    if isinstance(stats, Exception):
        raise stats
    out_shift = stats.mean if restore else None
    if mode == "center":
        return features - stats.mean, None, out_shift
    if mode == "normalize":
        keys = (features - stats.mean) / stats.scale
        return keys, (np.diag(stats.scale) if restore else None), out_shift
    return whiten(features, stats), (stats.sqrt if restore else None), out_shift


def ablation_forward(params: WarmParams, support: ShotSupport, variant: str) -> ForwardResult:
    """Forward pass of one ``VARIANTS`` entry: the full operator ("warm")
    or one of its ablations, on a support split by class (``shot_support``).

    Per class: transform the features, attend with the class's token pool
    (single head, softmax(Wq(tokens) Wk(keys)^T) Wv(keys), no logit
    scaling), add the residual, then apply the restoration map (if any).
    """
    mode, restore = resolve_variant(variant)
    prototypes: dict[int, np.ndarray] = {}
    traces: dict[int, ClassTrace] = {}
    for label, features in support.features.items():
        rows = params.token_rows(label)
        tokens = params.tokens[rows]
        keys_in, out_map, out_shift = _class_transform(features, support.stats[label], mode, restore)
        q = tokens @ params.w_q
        k = keys_in @ params.w_k
        v = keys_in @ params.w_v
        weights = softmax_rows(q @ k.T)
        attended = weights @ v
        mid = tokens + attended
        out = mid if out_map is None else mid @ out_map
        if out_shift is not None:
            out = out + out_shift
        prototypes[label] = out
        traces[label] = ClassTrace(rows, keys_in, q, k, v, weights, attended, out_map)
    return ForwardResult(prototypes, traces)


def warm_backward(
    params: WarmParams, result: ForwardResult, grad_by_class: dict[int, np.ndarray]
) -> dict[str, np.ndarray]:
    """Exact reverse-mode gradients of the forward pass.

    ``grad_by_class`` holds the loss gradient with respect to each class's
    prototype matrix; contributions are summed over classes. Transform
    statistics are treated as constants.
    """
    grads = {name: np.zeros_like(arr) for name, arr in params_as_dict(params).items()}
    for label in sorted(grad_by_class):
        trace = result.per_class.get(label)
        if trace is None:
            raise ArgumentError(f"no forward trace recorded for class {label}")
        g = np.asarray(grad_by_class[label], dtype=np.float64)
        if g.shape != trace.attended.shape:
            raise ArgumentError(
                f"gradient for class {label} has shape {g.shape}, expected {trace.attended.shape}"
            )
        d_mid = g if trace.out_map is None else g @ trace.out_map.T
        # attended = weights @ v, with the residual token path on the side
        d_weights = d_mid @ trace.v.T
        d_v = trace.weights.T @ d_mid
        tmp = d_weights * trace.weights
        d_logits = tmp - trace.weights * tmp.sum(axis=1, keepdims=True)
        d_q = d_logits @ trace.k
        d_k = d_logits.T @ trace.q
        grads["w_q"] += params.tokens[trace.rows].T @ d_q
        grads["w_k"] += trace.keys_in.T @ d_k
        grads["w_v"] += trace.keys_in.T @ d_v
        d_tokens = d_mid + d_q @ params.w_q.T
        grads["tokens"][trace.rows] += d_tokens
    return grads


def average_shots(sets: list[dict[int, np.ndarray]]) -> dict[int, np.ndarray]:
    """Element-wise mean of prototype sets that cover the same classes."""
    if not sets:
        raise ArgumentError("no prototype sets to average")
    first = sets[0]
    for other in sets[1:]:
        if sorted(other) != sorted(first):
            raise ArgumentError("prototype sets cover different classes")
        for label in first:
            if other[label].shape != first[label].shape:
                raise ArgumentError(f"shape mismatch for class {label}")
    return {label: np.mean([s[label] for s in sets], axis=0) for label in first}


def save_checkpoint(path, params: WarmParams, seed: int, config_hash: str = "") -> None:
    """Persist parameters as JSON, atomically."""
    payload = {
        "version": 1,
        "feature_dim": params.feature_dim,
        "num_tokens": params.num_tokens,
        "seed": int(seed),
        "config_sha256": config_hash,
        **{name: getattr(params, name).tolist() for name in PARAM_NAMES},
    }
    atomic_write(path, json.dumps(payload, sort_keys=True))


def load_checkpoint(path) -> tuple[WarmParams, dict]:
    """Read a checkpoint back; malformed or inconsistent content raises CheckpointError."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"), parse_int=json_int)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise CheckpointError(f"checkpoint {path} must hold a JSON object at the top level")
    required = {"version", "feature_dim", "num_tokens", "seed", *PARAM_NAMES}
    missing = required - payload.keys()
    if missing:
        raise CheckpointError(f"checkpoint {path} is missing fields {sorted(missing)}")
    for key in ("version", "feature_dim", "num_tokens", "seed"):
        if not fits(payload[key], 0):
            raise CheckpointError(f"checkpoint {path} field '{key}' must be an integer, got {payload[key]!r}")
    if payload["version"] != 1:
        raise CheckpointError(f"unsupported checkpoint version {payload['version']}")
    if not 0 <= payload["seed"] <= MAX_SEED:
        raise CheckpointError(f"checkpoint {path} field 'seed' must lie in [0, {MAX_SEED}], got {payload['seed']}")
    try:
        params = WarmParams(**{name: np.array(payload[name], dtype=np.float64) for name in PARAM_NAMES})
    # ArgumentError is a ValueError; NumericError is json's NaN or infinity; OverflowError a huge integer
    except (TypeError, ValueError, OverflowError, NumericError) as exc:
        raise CheckpointError(f"checkpoint {path} holds malformed values: {exc}") from exc
    if params.feature_dim != payload["feature_dim"] or params.num_tokens != payload["num_tokens"]:
        raise CheckpointError(
            f"checkpoint arrays are ({params.num_tokens} tokens, D={params.feature_dim}) "
            f"but header says ({payload['num_tokens']} tokens, D={payload['feature_dim']})"
        )
    meta = {k: payload[k] for k in ("version", "feature_dim", "num_tokens", "seed", "config_sha256") if k in payload}
    return params, meta
