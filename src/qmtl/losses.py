"""Multi-task losses and label handling.

Class labels use the MISSING sentinel (-100) for unlabeled entries; these
contribute zero loss and zero gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError

MISSING = -100


@dataclass
class TaskSpec:
    name: str
    kind: str  # "binary" | "multiclass" | "regression"
    num_classes: int = 2
    lambda_weight: float = 1.0
    metrics: tuple = ("accuracy",)
    loss: str = "default"  # "default" | "focal"
    focal_gamma: float = 2.0
    focal_alpha: float = 1.0
    class_weights: Optional[np.ndarray] = None
    eval_binarize: bool = False  # 3-class training with binary evaluation

    def __post_init__(self):
        if self.kind not in ("binary", "multiclass", "regression"):
            raise ConfigError(f"unknown task kind {self.kind!r}")
        if self.kind == "multiclass" and self.num_classes < 2:
            raise ConfigError("multiclass tasks need num_classes >= 2")
        # each bound written so that NaN fails it
        if not 0.0 <= self.lambda_weight < np.inf:
            raise ConfigError(f"task {self.name!r}: 'lambda' must be finite and >= 0, "
                              f"got {self.lambda_weight}")
        if not 0.0 <= self.focal_gamma < np.inf:
            raise ConfigError(f"task {self.name!r}: 'focal_gamma' must be finite and >= 0, "
                              f"got {self.focal_gamma}")
        if not 0.0 < self.focal_alpha < np.inf:
            raise ConfigError(f"task {self.name!r}: 'focal_alpha' must be finite and > 0, "
                              f"got {self.focal_alpha}")
        if self.eval_binarize and (self.kind, self.num_classes) != ("multiclass", 3):
            raise ConfigError(f"task {self.name!r}: 'eval_binarize' needs a 3-class "
                              "multiclass task")
        if self.loss not in ("default", "focal"):
            raise ConfigError(f"task {self.name!r}: unknown loss {self.loss!r}; "
                              "expected 'default' or 'focal'")
        if self.loss == "focal" and self.kind != "multiclass":
            raise ConfigError(f"task {self.name!r}: focal loss needs a multiclass task, "
                              f"not {self.kind!r}")
        from .metrics import METRIC_TAGS  # metrics imports MISSING from here

        self.metrics = tuple(self.metrics)
        if not self.metrics:
            raise ConfigError(f"task {self.name!r} needs at least one metric")
        for tag in self.metrics:
            if tag not in METRIC_TAGS:
                raise ConfigError(
                    f"task {self.name!r}: unknown metric tag {tag!r}; expected one of {METRIC_TAGS}"
                )

    @property
    def num_logits(self) -> int:
        return self.num_classes if self.kind == "multiclass" else 1


def sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _log_softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def binary_loss_batch(logits: np.ndarray, labels: np.ndarray):
    """Logistic loss on a single logit; labels in {0, 1}."""
    z = logits.reshape(-1)
    sign = 2.0 * labels - 1.0
    values = np.logaddexp(0.0, -sign * z)
    dlogits = (-sign * sigmoid(-sign * z)).reshape(-1, 1)
    return values, dlogits


def multiclass_loss_batch(
    logits: np.ndarray,
    labels: np.ndarray,
    class_weights: Optional[np.ndarray] = None,
    focal_gamma: Optional[float] = None,
    focal_alpha: float = 1.0,
):
    """Softmax cross-entropy, optionally focal-weighted: -a*w_c*(1-p)^g*log p."""
    labels = labels.astype(int)
    n, k = logits.shape
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"class label out of range for K={k}")
    logp = _log_softmax(logits)
    p = np.exp(logp)
    rows = np.arange(n)
    p_true = p[rows, labels]
    logp_true = logp[rows, labels]
    w = np.ones(n) if class_weights is None else np.asarray(class_weights)[labels]

    onehot = np.zeros_like(p)
    onehot[rows, labels] = 1.0
    if focal_gamma is None:
        values = -w * logp_true
        dvalues_dp_true = -w / p_true
    else:
        g = focal_gamma
        one_minus = 1.0 - p_true
        values = -focal_alpha * w * one_minus**g * logp_true
        dvalues_dp_true = -focal_alpha * w * (
            -g * one_minus ** (g - 1.0) * logp_true + one_minus**g / p_true
        )
    # dp_true/dlogit_j = p_true * (onehot_j - p_j)
    dlogits = dvalues_dp_true[:, None] * p_true[:, None] * (onehot - p)
    return values, dlogits


def regression_loss_batch(logits: np.ndarray, targets: np.ndarray):
    z = logits.reshape(-1)
    diff = z - targets
    return diff**2, (2.0 * diff).reshape(-1, 1)


def task_loss_and_grad(spec: TaskSpec, logits: np.ndarray, labels: np.ndarray) -> tuple:
    """Mean loss over labeled entries and dL/dlogits, with MISSING masked out.

    Returns (value, dlogits of logits.shape, n_labeled); the gradient already
    carries the 1/n_labeled factor.
    """
    logits = np.asarray(logits, dtype=float)
    labels = np.asarray(labels)
    mask = labels != MISSING
    n = int(mask.sum())
    dfull = np.zeros_like(logits)
    if n == 0:
        return 0.0, dfull, 0
    sub_logits = logits[mask]
    sub_labels = labels[mask]
    if spec.kind == "binary":
        values, dsub = binary_loss_batch(sub_logits, sub_labels.astype(float))
    elif spec.kind == "regression":
        values, dsub = regression_loss_batch(sub_logits, sub_labels.astype(float))
    else:
        gamma = spec.focal_gamma if spec.loss == "focal" else None
        values, dsub = multiclass_loss_batch(
            sub_logits, sub_labels, spec.class_weights, gamma, spec.focal_alpha
        )
    dfull[mask] = dsub / n
    return float(values.sum() / n), dfull, n


def class_weights(counts: Sequence[int], total: int, num_classes: int) -> np.ndarray:
    """Inverse-frequency weights w_c = N / (K * n_c)."""
    counts = np.asarray(counts, dtype=float)
    if np.any(counts <= 0):
        raise ConfigError("class_weights requires every class count > 0")
    return total / (num_classes * counts)


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(_log_softmax(np.asarray(logits, dtype=float)))
