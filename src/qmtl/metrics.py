"""Evaluation metrics with an explicit degenerate flag.

Undefined denominators (constant predictor, no predicted positives, ...)
return 0 with degenerate=True so sweep tables stay total.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import MISSING

METRIC_TAGS = ("accuracy", "precision", "recall", "f1", "mcc", "pearson", "spearman")


@dataclass(frozen=True)
class MetricResult:
    value: float
    degenerate: bool = False


def _mask_missing(preds, labels):
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    mask = labels != MISSING
    if not mask.any():
        raise ValueError("no labeled entries to score")
    return preds[mask], labels[mask]


def accuracy(preds, labels) -> MetricResult:
    preds, labels = _mask_missing(preds, labels)
    return MetricResult(float(np.mean(preds == labels)))


def _binary_counts(preds, labels):
    tp = int(np.sum((preds == 1) & (labels == 1)))
    fp = int(np.sum((preds == 1) & (labels == 0)))
    fn = int(np.sum((preds == 0) & (labels == 1)))
    tn = int(np.sum((preds == 0) & (labels == 0)))
    return tp, fp, fn, tn


def _safe_div(num, den):
    if den == 0:
        return 0.0, True
    return num / den, False


def precision(preds, labels, num_classes: int = 2) -> MetricResult:
    return _prf(preds, labels, num_classes, "precision")


def recall(preds, labels, num_classes: int = 2) -> MetricResult:
    return _prf(preds, labels, num_classes, "recall")


def f1(preds, labels, num_classes: int = 2) -> MetricResult:
    return _prf(preds, labels, num_classes, "f1")


def _prf_binary(preds, labels, which):
    tp, fp, fn, _ = _binary_counts(preds, labels)
    p, p_deg = _safe_div(tp, tp + fp)
    r, r_deg = _safe_div(tp, tp + fn)
    if which == "precision":
        return p, p_deg
    if which == "recall":
        return r, r_deg
    if p + r == 0:
        return 0.0, True
    return 2 * p * r / (p + r), p_deg or r_deg


def _prf(preds, labels, num_classes, which) -> MetricResult:
    """Positive-class scores for binary; macro average for multiclass."""
    preds, labels = _mask_missing(preds, labels)
    if num_classes <= 2:
        value, degenerate = _prf_binary(preds.astype(int), labels.astype(int), which)
        return MetricResult(float(value), degenerate)
    values = []
    degenerate = False
    for c in range(num_classes):
        v, d = _prf_binary((preds == c).astype(int), (labels == c).astype(int), which)
        values.append(v)
        degenerate = degenerate or d
    return MetricResult(float(np.mean(values)), degenerate)


def mcc(preds, labels) -> MetricResult:
    """Matthews correlation for binary predictions."""
    preds, labels = _mask_missing(preds, labels)
    tp, fp, fn, tn = _binary_counts(preds.astype(int), labels.astype(int))
    den = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if den == 0:
        return MetricResult(0.0, True)
    return MetricResult(float((tp * tn - fp * fn) / np.sqrt(den)))


def pearson(preds, labels) -> MetricResult:
    preds, labels = _mask_missing(preds, labels)
    x = preds.astype(float) - np.mean(preds)
    y = labels.astype(float) - np.mean(labels)
    den = np.sqrt(np.sum(x**2) * np.sum(y**2))
    if den == 0:
        return MetricResult(0.0, True)
    return MetricResult(float(np.sum(x * y) / den))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    order = np.argsort(x, kind="mergesort")
    ranks = np.empty(len(x))
    sx = x[order]
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and sx[j + 1] == sx[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(preds, labels) -> MetricResult:
    preds, labels = _mask_missing(preds, labels)
    return pearson(_average_ranks(preds.astype(float)), _average_ranks(labels.astype(float)))


def compute_metric(tag: str, preds, labels, num_classes: int = 2) -> MetricResult:
    if tag not in METRIC_TAGS:
        raise ValueError(f"unknown metric tag {tag!r}")
    if tag in ("precision", "recall", "f1"):
        return _prf(preds, labels, num_classes, tag)
    return {"accuracy": accuracy, "mcc": mcc, "pearson": pearson,
            "spearman": spearman}[tag](preds, labels)
