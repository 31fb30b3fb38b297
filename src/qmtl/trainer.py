"""Training protocols, evaluation, and run history.

Three protocols: "task_sampled" (one task drawn per update, capped batches),
"parallel" (weighted sum over all tasks per batch, fully labeled data only),
and "masked_parallel" (parallel with MISSING masking).  On fully labeled
data masked_parallel and parallel share the exact same code path, so their
runs are bit-identical at a fixed seed.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .data import MultiTaskBatch
from .errors import ConfigError, DegenerateBatchError, DivergenceError
from .gradients import loss_gradient
from .losses import MISSING, TaskSpec, class_weights, softmax, task_loss_and_grad
from .metrics import compute_metric
from .optim import AdamState, PlateauScheduler, adam_step, clip_global_norm

PROTOCOLS = ("task_sampled", "parallel", "masked_parallel")
_REAL_FIELDS = ("lr", "weight_decay", "clip_norm", "scheduler_factor", "min_lr")
_COUNT_FIELDS = ("epochs", "batch_size", "eval_every", "scheduler_patience",
                 "early_stop_patience", "seed")


@dataclass
class TrainConfig:
    lr: float = 0.05
    weight_decay: float = 0.0
    clip_norm: float = 1.0
    epochs: int = 50
    batch_size: int = 32
    protocol: str = "parallel"
    cap: Optional[int] = None          # max batches per task per epoch (task_sampled)
    scheduler_factor: float = 0.2
    scheduler_patience: int = 10
    min_lr: float = 1e-7
    early_stop_patience: int = 5
    seed: int = 0
    optimizer: str = "adam"            # "adam" | "adamw"
    eval_every: int = 1                # epochs between validation passes

    def __post_init__(self):
        for names, kind, what in ((_REAL_FIELDS, numbers.Real, "a number"),
                                  (_COUNT_FIELDS, numbers.Integral, "an integer")):
            for name in names:
                value = getattr(self, name)
                if isinstance(value, bool) or not isinstance(value, kind):
                    raise ConfigError(f"train {name!r} must be {what}, got {value!r}")
        cap = self.cap
        if cap is not None and (isinstance(cap, bool) or not isinstance(cap, numbers.Integral)
                                or cap < 1):
            raise ConfigError(f"train 'cap' must be an integer >= 1 or null, got {cap!r}")
        for name, ok, rule in (("lr", self.lr > 0, "> 0"),
                               ("clip_norm", self.clip_norm > 0, "> 0"),
                               ("weight_decay", self.weight_decay >= 0, ">= 0"),
                               ("scheduler_factor", 0 < self.scheduler_factor <= 1, "in (0, 1]"),
                               ("min_lr", self.min_lr >= 0, ">= 0")):
            if not (ok and math.isfinite(getattr(self, name))):
                raise ConfigError(f"train {name!r} must be finite and {rule}, "
                                  f"got {getattr(self, name)!r}")
        for name, lowest in (("epochs", 1), ("batch_size", 1), ("eval_every", 1), ("seed", 0),
                             ("scheduler_patience", 0), ("early_stop_patience", 1)):
            if getattr(self, name) < lowest:
                raise ConfigError(f"train {name!r} must be >= {lowest}, got {getattr(self, name)}")
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"unknown protocol {self.protocol!r}")
        if self.optimizer not in ("adam", "adamw"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class TrainResult:
    history: list
    best_params: np.ndarray
    best_value: float
    final_params: np.ndarray
    epochs_run: int


def predictions_for_task(spec: TaskSpec, logits: np.ndarray):
    """(predictions, labels_transform) pair used for metric computation."""
    if spec.kind == "binary":
        return (logits.reshape(-1) > 0).astype(int)
    if spec.kind == "regression":
        return logits.reshape(-1)
    if spec.eval_binarize:
        # 3-class (uncertain/negative/positive) -> binary positive decision
        probs = softmax(logits)
        pos = probs[:, 2] / np.where(probs[:, 1] + probs[:, 2] > 0,
                                     probs[:, 1] + probs[:, 2], 1.0)
        return (pos > 0.5).astype(int)
    return np.argmax(logits, axis=1)


def _eval_labels(spec: TaskSpec, labels: np.ndarray) -> np.ndarray:
    if spec.eval_binarize:
        # class 2 -> positive, class 1 -> negative, uncertain (0) dropped
        out = np.full(labels.shape, MISSING)
        out[labels == 2] = 1
        out[labels == 1] = 0
        return out
    return labels


def _chance_level(spec: TaskSpec, eval_labels: np.ndarray, num_classes: int) -> float:
    """The primary metric of a constant predictor on ``eval_labels``: the
    majority labeled class (the lowest on a tie), or the label mean for
    regression.  Correlation metrics of a constant are 0."""
    labeled = eval_labels[eval_labels != MISSING]
    if spec.kind == "regression":
        constant = np.mean(labeled)
    else:
        constant = np.argmax(np.bincount(labeled.astype(int)))
    preds = np.full(eval_labels.shape, constant)
    return compute_metric(spec.metrics[0], preds, eval_labels, num_classes).value


def report_from_logits(logits: dict, labels_by_task: dict,
                       task_specs: Sequence[TaskSpec]) -> dict:
    """Per-task metric and loss table from precomputed logits.

    Each entry also holds ``chance``, the primary (first-listed) metric of a
    constant predictor on the same labels, and ``margin``, the primary
    metric minus ``chance``, so a task that learned nothing reads a margin
    near 0.
    """
    report = {}
    for spec in task_specs:
        labels = np.asarray(labels_by_task[spec.name])
        value, _, n_labeled = task_loss_and_grad(spec, logits[spec.name], labels)
        preds = predictions_for_task(spec, logits[spec.name])
        eval_labels = _eval_labels(spec, labels)
        entry = {"loss": value, "n_labeled": n_labeled}
        num_classes = 2 if spec.eval_binarize else spec.num_classes
        for tag in spec.metrics:
            result = compute_metric(tag, preds, eval_labels, num_classes)
            entry[tag] = result.value
            if result.degenerate:
                entry[f"{tag}_degenerate"] = True
        entry["chance"] = _chance_level(spec, eval_labels, num_classes)
        entry["margin"] = entry[spec.metrics[0]] - entry["chance"]
        report[spec.name] = entry
    return report


def evaluate(head_model, params: np.ndarray, data: MultiTaskBatch,
             task_specs: Sequence[TaskSpec]) -> dict:
    """Per-task metric and loss table on a dataset."""
    logits = head_model.forward_batch(params, data.features)
    return report_from_logits(logits, data.labels, task_specs)


def monitored_value(report: dict, task_specs: Sequence[TaskSpec]) -> float:
    """Macro average of each task's primary (first-listed) metric."""
    return float(np.mean([report[s.name][s.metrics[0]] for s in task_specs]))


def resolve_class_weights(specs: Sequence[TaskSpec], data: MultiTaskBatch) -> list:
    """``specs`` with each focal multiclass task's missing class weights set
    from the label counts of ``data``, the training split; a spec that has
    its weights already is kept as it is."""
    resolved = []
    for spec in specs:
        if spec.loss == "focal" and spec.class_weights is None:
            labels = np.asarray(data.labels[spec.name])
            labels = labels[labels != MISSING]
            counts = np.bincount(labels.astype(int), minlength=spec.num_classes)
            weights = class_weights(counts, len(labels), spec.num_classes)
            spec = replace(spec, class_weights=weights)
        resolved.append(spec)
    return resolved


def _batches(indices: np.ndarray, batch_size: int) -> list:
    return [indices[i:i + batch_size] for i in range(0, len(indices), batch_size)]


def train(head_model, train_data: MultiTaskBatch, val_data: MultiTaskBatch,
          task_specs: Sequence[TaskSpec], cfg: TrainConfig) -> TrainResult:
    """Fit ``head_model``; one history record per validation pass.

    Besides loss, monitor and learning rate, a record holds its epoch's phase
    times (``gradient_s``, ``optimizer_s``, ``eval_s``), the mean global
    gradient norm of its updates before and after clipping (``grad_norm``,
    ``grad_norm_clipped``) and ``rows_per_s``, the rows it updated on per
    second of its update loop.
    """
    if train_data.num_samples == 0:
        raise ConfigError("empty training set")
    task_specs = resolve_class_weights(list(task_specs), train_data)

    if cfg.protocol == "parallel":
        for spec in task_specs:
            if np.any(np.asarray(train_data.labels[spec.name]) == MISSING):
                raise ConfigError(
                    "parallel protocol requires fully labeled data; "
                    "use masked_parallel for partial labels"
                )

    rng_shuffle = np.random.default_rng([cfg.seed, 0])
    rng_task = np.random.default_rng([cfg.seed, 1])
    params = head_model.init_params(cfg.seed)
    state = AdamState.zeros(head_model.num_params)
    scheduler = PlateauScheduler(
        lr=cfg.lr, factor=cfg.scheduler_factor,
        patience=cfg.scheduler_patience, min_lr=cfg.min_lr, mode="max",
    )
    weight_decay = cfg.weight_decay if cfg.optimizer == "adamw" else 0.0
    decay_mask = head_model.decay_mask()

    history: list = []
    best_value = -np.inf
    best_params = params.copy()
    stale_evals = 0
    step = 0
    lr = cfg.lr
    start = time.perf_counter()
    epoch = 0

    for epoch in range(1, cfg.epochs + 1):
        epoch_loss = 0.0
        n_updates = 0
        gradient_s = optimizer_s = 0.0
        grad_norm = grad_norm_clipped = 0.0
        rows = 0
        epoch_start = time.perf_counter()

        if cfg.protocol in ("parallel", "masked_parallel"):
            order = rng_shuffle.permutation(train_data.num_samples)
            jobs = [(task_specs, batch) for batch in _batches(order, cfg.batch_size)]
        else:
            per_task = []
            for spec in task_specs:
                labeled = np.flatnonzero(np.asarray(train_data.labels[spec.name]) != MISSING)
                shuffled = labeled[rng_shuffle.permutation(len(labeled))]
                batches = _batches(shuffled, cfg.batch_size)
                if cfg.cap is not None:
                    batches = batches[: cfg.cap]
                per_task.append(([spec], batches))
            jobs = []
            remaining = np.array([len(b) for _, b in per_task], dtype=float)
            cursors = [0] * len(per_task)
            while remaining.sum() > 0:
                if len(per_task) == 1:
                    t = 0
                else:
                    t = int(rng_task.choice(len(per_task), p=remaining / remaining.sum()))
                specs_t, batches_t = per_task[t]
                jobs.append((specs_t, batches_t[cursors[t]]))
                cursors[t] += 1
                remaining[t] -= 1

        for specs_j, batch_idx in jobs:
            sub = train_data.subset(batch_idx)
            tick = time.perf_counter()
            try:
                # a diverging step overflows; the check below reports it
                with np.errstate(all="ignore"):
                    value, grad = loss_gradient(head_model, params, sub.features,
                                                sub.labels, specs_j)
            except DegenerateBatchError:
                continue
            finally:
                gradient_s += time.perf_counter() - tick
            if not (np.isfinite(value) and np.all(np.isfinite(grad))):
                raise DivergenceError(
                    f"training diverged at epoch {epoch}, step {step + 1}: the loss or "
                    f"its gradient is not finite; try a smaller 'lr' (now {lr:g})")
            tick = time.perf_counter()
            grad_norm += float(np.linalg.norm(grad))
            grad = clip_global_norm(grad, cfg.clip_norm)
            grad_norm_clipped += float(np.linalg.norm(grad))
            params = adam_step(params, grad, state, lr,
                               weight_decay=weight_decay, decay_mask=decay_mask)
            optimizer_s += time.perf_counter() - tick
            epoch_loss += value
            rows += len(batch_idx)
            step += 1
            n_updates += 1
        train_s = time.perf_counter() - epoch_start

        if epoch % cfg.eval_every != 0 and epoch != cfg.epochs:
            continue

        tick = time.perf_counter()
        report = evaluate(head_model, params, val_data, task_specs)
        eval_s = time.perf_counter() - tick
        value = monitored_value(report, task_specs)
        lr = scheduler.step(value)
        history.append({
            "step": step,
            "epoch": epoch,
            "lr": lr,
            "train_loss": epoch_loss / max(n_updates, 1),
            "monitor": value,
            "wall_time": time.perf_counter() - start,
            "gradient_s": gradient_s,
            "optimizer_s": optimizer_s,
            "eval_s": eval_s,
            "grad_norm": grad_norm / max(n_updates, 1),
            "grad_norm_clipped": grad_norm_clipped / max(n_updates, 1),
            "rows_per_s": rows / train_s if train_s > 0 else 0.0,
            "tasks": report,
        })
        if value > best_value:
            best_value = value
            best_params = params.copy()
            stale_evals = 0
        else:
            stale_evals += 1
            if stale_evals >= cfg.early_stop_patience:
                break

    return TrainResult(
        history=history,
        best_params=best_params,
        best_value=best_value,
        final_params=params,
        epochs_run=epoch,
    )
