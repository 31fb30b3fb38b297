"""Synthetic multi-task dataset generator.

Stands in for the pretrained backbones: features are drawn uniformly in
[-pi, pi]^d and labels come from random affine teachers, so every
classification task is separable by construction at noise_level 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .losses import TaskSpec, sigmoid

_MAX_TEACHER_DRAWS = 200


@dataclass(frozen=True)
class SyntheticSpec:
    feature_dim: int
    tasks: tuple  # of TaskSpec
    n_train: int
    n_val: int
    teacher_seed: int = 0
    noise_level: float = 0.0  # label-flip probability

    def __post_init__(self):
        object.__setattr__(self, "tasks", tuple(self.tasks))
        if self.feature_dim < 1:
            raise ConfigError("feature_dim must be >= 1")
        if self.n_train < 1 or self.n_val < 1:
            raise ConfigError("need at least one train and one val sample")
        if not 0.0 <= self.noise_level < 0.5:
            raise ConfigError("noise_level must be in [0, 0.5)")
        if self.teacher_seed < 0:
            raise ConfigError(f"teacher_seed must be >= 0, got {self.teacher_seed}")


@dataclass
class MultiTaskBatch:
    features: np.ndarray       # (N, d)
    labels: dict               # task name -> (N,) array; MISSING marks gaps

    @property
    def num_samples(self) -> int:
        return self.features.shape[0]

    def subset(self, indices: np.ndarray) -> "MultiTaskBatch":
        return MultiTaskBatch(
            features=self.features[indices],
            labels={name: vals[indices] for name, vals in self.labels.items()},
        )


def _balanced(labels: np.ndarray, num_classes: int) -> bool:
    # every class carries at least 40% of its uniform share
    counts = np.bincount(labels, minlength=num_classes)
    return counts.min() >= 0.4 / num_classes * len(labels)


def _sparse_affine(rng, rows: int, d: int):
    """Random affine teachers supported on a single shared coordinate.

    One active feature per task keeps the label structure learnable by
    angle-encoded circuits of small depth (each feature enters the encoder
    exactly once, so model logits carry only frequency-one harmonics per
    feature) while the classical linear baseline fits it trivially.
    """
    w = np.zeros((rows, d))
    j = int(rng.integers(d))
    w[:, j] = rng.choice([-1.0, 1.0], rows) * rng.uniform(0.5, 1.5, rows)
    b = rng.uniform(-0.5, 0.5, rows)
    return w, b


def _interval_labels(rng, features, k: int):
    """K classes from K intervals of one coordinate, with jittered cuts and a
    random class order.

    An argmax of K affine maps of one coordinate splits it into pieces of
    very uneven width, so for K > 3 it rarely shows every class.  Cuts moved
    at most 0.3/K from the K-quantiles of the uniform feature range give each
    class at least 40% of its uniform share in expectation; the balance check
    redraws the rare miss.
    """
    j = int(rng.integers(features.shape[1]))
    levels = (np.arange(1, k) + rng.uniform(-0.3, 0.3, k - 1)) / k
    cuts = np.pi * (2.0 * levels - 1.0)
    return rng.permutation(k)[np.searchsorted(cuts, features[:, j])]


def _draw_teacher_labels(rng, features, spec: TaskSpec):
    """Teacher labels, re-drawing the teacher until classes balance: an affine
    argmax for K <= 3 classes, ``_interval_labels`` above."""
    d = features.shape[1]
    if spec.kind == "regression":
        w, b = _sparse_affine(rng, 1, d)
        return sigmoid(features @ w[0] + b[0])
    k = 2 if spec.kind == "binary" else spec.num_classes
    for _ in range(_MAX_TEACHER_DRAWS):
        if k > 3:
            labels = _interval_labels(rng, features, k)
        else:
            w, b = _sparse_affine(rng, k, d)
            labels = np.argmax(features @ w.T + b, axis=1)
        if _balanced(labels, k):
            return labels
    raise ConfigError(f"could not draw a balanced teacher for task {spec.name!r}")


def gen_synthetic(spec: SyntheticSpec) -> tuple:
    """Deterministic (train, val) pair for the given teacher seed."""
    rng = np.random.default_rng(spec.teacher_seed)
    # separate stream so teachers are identical across noise levels
    noise_rng = np.random.default_rng([spec.teacher_seed, 1])
    n_total = spec.n_train + spec.n_val
    features = rng.uniform(-np.pi, np.pi, (n_total, spec.feature_dim))

    labels = {}
    for task in spec.tasks:
        vals = _draw_teacher_labels(rng, features, task)
        if task.kind != "regression" and spec.noise_level > 0.0:
            k = 2 if task.kind == "binary" else task.num_classes
            flip = noise_rng.random(n_total) < spec.noise_level
            shift = noise_rng.integers(1, k, n_total)
            vals = np.where(flip, (vals + shift) % k, vals)
        labels[task.name] = vals

    train = MultiTaskBatch(features[: spec.n_train],
                           {n: v[: spec.n_train].copy() for n, v in labels.items()})
    val = MultiTaskBatch(features[spec.n_train:],
                         {n: v[spec.n_train:].copy() for n, v in labels.items()})
    return train, val
