import numpy as np
import pytest

from qmtl.data import MultiTaskBatch, SyntheticSpec, gen_synthetic
from qmtl.errors import ConfigError
from qmtl.losses import MISSING, TaskSpec

TASKS = (
    TaskSpec("a", "binary"),
    TaskSpec("b", "multiclass", num_classes=3),
    TaskSpec("c", "regression"),
)


def _spec(**kw):
    base = dict(feature_dim=12, tasks=TASKS, n_train=512, n_val=128,
                teacher_seed=0, noise_level=0.0)
    base.update(kw)
    return SyntheticSpec(**base)


def test_shapes_and_ranges():
    train, val = gen_synthetic(_spec())
    assert train.features.shape == (512, 12)
    assert val.features.shape == (128, 12)
    assert np.all(train.features >= -np.pi) and np.all(train.features <= np.pi)
    assert set(train.labels) == {"a", "b", "c"}
    assert set(np.unique(train.labels["a"])) <= {0, 1}
    assert set(np.unique(train.labels["b"])) <= {0, 1, 2}
    assert np.all((train.labels["c"] >= 0) & (train.labels["c"] <= 1))


def test_determinism():
    a_train, a_val = gen_synthetic(_spec())
    b_train, b_val = gen_synthetic(_spec())
    np.testing.assert_array_equal(a_train.features, b_train.features)
    for name in a_train.labels:
        np.testing.assert_array_equal(a_train.labels[name], b_train.labels[name])
        np.testing.assert_array_equal(a_val.labels[name], b_val.labels[name])


def test_different_seeds_differ():
    a_train, _ = gen_synthetic(_spec(teacher_seed=0))
    b_train, _ = gen_synthetic(_spec(teacher_seed=1))
    assert not np.array_equal(a_train.features, b_train.features)


def test_class_balance_rejection_rule():
    for seed in range(5):
        train, val = gen_synthetic(_spec(teacher_seed=seed))
        for name, k in (("a", 2), ("b", 3)):
            labels = np.concatenate([train.labels[name], val.labels[name]])
            counts = np.bincount(labels.astype(int), minlength=k)
            assert counts.min() >= 0.4 / k * len(labels)


def test_labels_are_threshold_functions_of_one_coordinate():
    # binary teachers depend on a single feature via one threshold: sorted by
    # the active coordinate, labels form exactly two contiguous runs
    train, val = gen_synthetic(_spec())
    x = np.vstack([train.features, val.features])
    y = np.concatenate([train.labels["a"], val.labels["a"]]).astype(float)
    corr = [abs(np.corrcoef(x[:, j], y)[0, 1]) for j in range(12)]
    j = int(np.argmax(corr))
    ys = y[np.argsort(x[:, j])]
    assert int(np.sum(ys[1:] != ys[:-1])) == 1


@pytest.mark.parametrize("k", [4, 9])
def test_many_class_teacher_is_balanced_intervals_of_one_coordinate(k):
    # K > 3 classes: sorted by the active coordinate, the labels form exactly
    # K contiguous runs, one per class, each within the balance rule
    for seed in range(3):
        train, val = gen_synthetic(_spec(
            tasks=(TaskSpec("m", "multiclass", num_classes=k),), teacher_seed=seed))
        x = np.vstack([train.features, val.features])
        y = np.concatenate([train.labels["m"], val.labels["m"]])
        counts = np.bincount(y, minlength=k)
        assert counts.min() >= 0.4 / k * len(y)
        runs = [int(np.sum(np.diff(y[np.argsort(x[:, j])]) != 0)) + 1 for j in range(12)]
        assert min(runs) == k


def test_label_noise_flips_fraction():
    clean, _ = gen_synthetic(_spec())
    noisy, _ = gen_synthetic(_spec(noise_level=0.2))
    np.testing.assert_array_equal(clean.features, noisy.features)
    flips = np.mean(clean.labels["a"] != noisy.labels["a"])
    assert 0.1 < flips < 0.3
    # regression targets are never flipped
    np.testing.assert_array_equal(clean.labels["c"], noisy.labels["c"])


def test_spec_validation():
    with pytest.raises(ConfigError):
        _spec(feature_dim=0)
    with pytest.raises(ConfigError):
        _spec(n_train=0)
    with pytest.raises(ConfigError):
        _spec(noise_level=0.5)
    with pytest.raises(ConfigError):
        _spec(noise_level=-0.1)


def test_subset():
    train, _ = gen_synthetic(_spec())
    sub = train.subset(np.array([3, 5, 8]))
    assert sub.num_samples == 3
    np.testing.assert_array_equal(sub.features, train.features[[3, 5, 8]])
    np.testing.assert_array_equal(sub.labels["a"], train.labels["a"][[3, 5, 8]])


def test_missing_sentinel_allowed_in_batches():
    batch = MultiTaskBatch(np.zeros((2, 1)), {"a": np.array([MISSING, 1])})
    assert batch.num_samples == 2
