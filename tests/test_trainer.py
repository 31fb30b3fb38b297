import numpy as np
import pytest

from qmtl.data import MultiTaskBatch
from qmtl.errors import ConfigError
from qmtl.losses import MISSING, TaskSpec
from qmtl.model import ClassicalHeadModel
from qmtl.trainer import (
    TrainConfig,
    _eval_labels,
    evaluate,
    monitored_value,
    predictions_for_task,
    report_from_logits,
    train,
)


def _toy_data(n=64, d=4, seed=0, missing_in=None):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, d))
    labels = {
        "u": (features[:, 0] > 0).astype(int),
        "v": np.digitize(features[:, 1], [-0.5, 0.5]),
    }
    if missing_in:
        labels[missing_in] = labels[missing_in].copy()
        labels[missing_in][::3] = MISSING
    return MultiTaskBatch(features, labels)


SPECS = [
    TaskSpec("u", "binary"),
    TaskSpec("v", "multiclass", num_classes=3),
]


def _model():
    return ClassicalHeadModel(4, [1, 3], ["u", "v"])


def _cfg(**kw):
    base = dict(lr=0.05, epochs=3, batch_size=16, seed=0, protocol="parallel")
    base.update(kw)
    return TrainConfig(**base)


def test_train_is_deterministic():
    data, val = _toy_data(), _toy_data(seed=1)
    a = train(_model(), data, val, SPECS, _cfg())
    b = train(_model(), data, val, SPECS, _cfg())
    np.testing.assert_array_equal(a.final_params, b.final_params)
    np.testing.assert_array_equal(a.best_params, b.best_params)
    assert a.best_value == b.best_value
    assert [h["train_loss"] for h in a.history] == [h["train_loss"] for h in b.history]


def test_masked_parallel_matches_parallel_on_full_labels():
    data, val = _toy_data(), _toy_data(seed=1)
    a = train(_model(), data, val, SPECS, _cfg(protocol="parallel"))
    b = train(_model(), data, val, SPECS, _cfg(protocol="masked_parallel"))
    np.testing.assert_array_equal(a.final_params, b.final_params)


def test_task_sampled_single_task_matches_parallel():
    data, val = _toy_data(), _toy_data(seed=1)
    specs = [SPECS[0]]
    a = train(_model(), data, val, specs, _cfg(protocol="parallel"))
    b = train(_model(), data, val, specs, _cfg(protocol="task_sampled"))
    np.testing.assert_array_equal(a.final_params, b.final_params)


def test_parallel_rejects_missing_labels():
    data = _toy_data(missing_in="v")
    with pytest.raises(ConfigError):
        train(_model(), data, _toy_data(seed=1), SPECS, _cfg(protocol="parallel"))


def test_masked_parallel_accepts_missing_labels():
    data, val = _toy_data(missing_in="v"), _toy_data(seed=1)
    result = train(_model(), data, val, SPECS, _cfg(protocol="masked_parallel"))
    assert result.epochs_run == 3
    assert np.all(np.isfinite(result.final_params))


def test_training_reduces_loss():
    data, val = _toy_data(n=128), _toy_data(n=64, seed=1)
    model = _model()
    cfg = _cfg(epochs=40, lr=0.1)
    result = train(model, data, val, SPECS, cfg)
    start = evaluate(model, model.init_params(cfg.seed), data, SPECS)
    end = evaluate(model, result.final_params, data, SPECS)
    for name in ("u", "v"):
        assert end[name]["loss"] < start[name]["loss"]
    # linearly separable tasks should be solved almost perfectly
    assert end["u"]["accuracy"] > 0.9


def test_history_records_lr_and_monitor():
    data, val = _toy_data(), _toy_data(seed=1)
    result = train(_model(), data, val, SPECS, _cfg(epochs=2))
    assert len(result.history) >= 2
    for row in result.history:
        assert {"step", "epoch", "lr", "train_loss"} <= set(row)
    monitored = [h for h in result.history if "monitor" in h]
    assert monitored and all(np.isfinite(h["monitor"]) for h in monitored)


def test_history_records_phase_times():
    data, val = _toy_data(), _toy_data(seed=1)
    for clip_norm in (1.0, 1e-3):
        result = train(_model(), data, val, SPECS, _cfg(epochs=2, clip_norm=clip_norm))
        assert result.history
        for row in result.history:
            for key in ("gradient_s", "optimizer_s", "eval_s"):
                assert row[key] >= 0.0
            assert row["gradient_s"] + row["optimizer_s"] + row["eval_s"] <= row["wall_time"]
            # the parallel protocol trains on every row once per epoch
            assert row["rows_per_s"] >= data.num_samples / row["wall_time"]
            assert row["grad_norm"] > 0.0
            assert row["grad_norm_clipped"] <= min(row["grad_norm"], clip_norm) * (1 + 1e-12)
            if clip_norm < 1.0:  # every step is clipped to the bound
                assert row["grad_norm_clipped"] == pytest.approx(clip_norm, rel=1e-12)


def test_predictions_binary_and_multiclass():
    binary = TaskSpec("b", "binary")
    np.testing.assert_array_equal(
        predictions_for_task(binary, np.array([[-1.0], [2.0]])), [0, 1]
    )
    multi = TaskSpec("m", "multiclass", num_classes=3)
    logits = np.array([[0.1, 2.0, -1.0], [0.0, 0.0, 5.0]])
    np.testing.assert_array_equal(predictions_for_task(multi, logits), [1, 2])
    reg = TaskSpec("r", "regression")
    np.testing.assert_allclose(
        predictions_for_task(reg, np.array([[0.3], [-0.7]])), [0.3, -0.7]
    )


def test_eval_binarize_prediction_and_labels():
    spec = TaskSpec("c", "multiclass", num_classes=3, eval_binarize=True)
    # positive logit dominates -> predict 1; negative dominates -> 0
    logits = np.array([[0.0, -3.0, 3.0], [0.0, 3.0, -3.0], [9.0, 0.0, 0.0]])
    np.testing.assert_array_equal(predictions_for_task(spec, logits), [1, 0, 0])
    labels = np.array([0, 1, 2, 1])
    np.testing.assert_array_equal(_eval_labels(spec, labels),
                                  [MISSING, 0, 1, 0])


def test_report_marks_degenerate_metrics_and_missing_counts():
    spec = TaskSpec("u", "binary", metrics=("accuracy", "f1"))
    logits = {"u": np.array([[-1.0], [-1.0], [-1.0]])}
    labels = {"u": np.array([0, 0, MISSING])}
    report = report_from_logits(logits, labels, [spec])
    assert report["u"]["n_labeled"] == 2
    assert report["u"]["accuracy"] == 1.0
    # no positives anywhere -> F1 denominator vanishes
    assert report["u"].get("f1_degenerate") is True


def test_report_chance_is_the_majority_class():
    spec = TaskSpec("u", "binary", metrics=("accuracy", "mcc"))
    # labeled: three 1s, one 0; the predictor gets 3 of 4 right
    logits = {"u": np.array([[1.0], [1.0], [-1.0], [-1.0], [1.0]])}
    labels = {"u": np.array([1, 1, 1, 0, MISSING])}
    entry = report_from_logits(logits, labels, [spec])["u"]
    assert entry["chance"] == 0.75
    assert entry["accuracy"] == 0.75
    assert entry["margin"] == 0.0
    mcc_first = TaskSpec("u", "binary", metrics=("mcc",))
    entry = report_from_logits(logits, labels, [mcc_first])["u"]
    assert entry["chance"] == 0.0
    assert entry["margin"] == entry["mcc"]


def test_binary_report_does_not_read_num_classes():
    # f1 first, so chance reads the class count too
    logits = {"u": np.array([[1.0], [-1.0], [1.0], [1.0], [-1.0], [-1.0], [1.0], [-1.0]])}
    labels = {"u": np.array([1, 0, 0, 1, 1, 0, 1, 0])}
    reports = [report_from_logits(logits, labels, [TaskSpec(
        "u", "binary", num_classes=k, metrics=("f1", "precision", "recall", "accuracy"))])
        for k in (2, 3, 4)]
    assert reports[0]["u"]["f1"] == 0.75
    assert reports[0] == reports[1] == reports[2]


def test_report_chance_of_regression_is_zero():
    spec = TaskSpec("r", "regression", metrics=("pearson",))
    labels = np.array([0.5, -1.0, 2.0, 0.25])
    entry = report_from_logits({"r": labels[:, None]}, {"r": labels}, [spec])["r"]
    assert entry["chance"] == 0.0
    assert entry["pearson"] == pytest.approx(1.0)
    assert entry["margin"] == entry["pearson"]


def test_monitored_value_macro_average():
    report = {"u": {"accuracy": 1.0}, "v": {"accuracy": 0.5}}
    assert monitored_value(report, SPECS) == pytest.approx(0.75)


def test_focal_class_weights_filled_from_train_counts():
    data, val = _toy_data(n=96), _toy_data(seed=1)
    specs = [
        TaskSpec("u", "binary"),
        TaskSpec("v", "multiclass", num_classes=3, loss="focal"),
    ]
    result = train(_model(), data, val, specs, _cfg(epochs=1))
    assert np.all(np.isfinite(result.final_params))


def test_early_stopping_halts_on_stale_monitor():
    data, val = _toy_data(), _toy_data(seed=1)
    cfg = _cfg(epochs=100, lr=1e-12, early_stop_patience=3, eval_every=1)
    result = train(_model(), data, val, SPECS, cfg)
    assert result.epochs_run < 100


def test_empty_training_set_rejected():
    empty = MultiTaskBatch(np.zeros((0, 4)), {"u": np.zeros(0), "v": np.zeros(0)})
    with pytest.raises(ConfigError):
        train(_model(), empty, _toy_data(), SPECS, _cfg())


def test_invalid_protocol_rejected():
    with pytest.raises(ConfigError):
        _cfg(protocol="bogus")


def test_train_config_refuses_an_infinite_lr():
    # through `qmtl train` an infinite lr would also end in an error naming
    # 'lr', the divergence check's, after a first step
    with pytest.raises(ConfigError, match="'lr' must be finite"):
        TrainConfig(lr=float("inf"))


def test_train_config_accepts_the_range_edges():
    TrainConfig(cap=1, weight_decay=0.0, scheduler_factor=1.0, min_lr=0.0,
                scheduler_patience=0, early_stop_patience=1)
