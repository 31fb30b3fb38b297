import numpy as np
import pytest

from qmtl.errors import ConfigError
from qmtl.losses import (
    MISSING,
    TaskSpec,
    binary_loss_batch,
    class_weights,
    multiclass_loss_batch,
    regression_loss_batch,
    softmax,
    task_loss_and_grad,
)


def test_binary_loss_at_zero_logit():
    values, dlogits = binary_loss_batch(np.array([[0.0]]), np.array([1.0]))
    assert values[0] == pytest.approx(np.log(2))
    assert dlogits[0, 0] == pytest.approx(-0.5)


def test_binary_loss_grad_matches_fd():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(8, 1))
    y = rng.integers(0, 2, 8).astype(float)
    _, grad = binary_loss_batch(z, y)
    eps = 1e-6
    for i in range(8):
        up, _ = binary_loss_batch(z[i:i + 1] + eps, y[i:i + 1])
        dn, _ = binary_loss_batch(z[i:i + 1] - eps, y[i:i + 1])
        assert grad[i, 0] == pytest.approx((up[0] - dn[0]) / (2 * eps), abs=1e-6)


def test_cross_entropy_confident_correct():
    values, _ = multiclass_loss_batch(np.array([[10.0, 0.0, 0.0]]), np.array([0]))
    assert values[0] == pytest.approx(2 * np.exp(-10), rel=1e-3)


def test_focal_loss_at_even_odds():
    # p_true = 0.5, gamma=2, alpha=1: 0.25 * ln 2
    values, _ = multiclass_loss_batch(
        np.array([[0.0, 0.0]]), np.array([0]), focal_gamma=2.0, focal_alpha=1.0
    )
    assert values[0] == pytest.approx(0.25 * np.log(2))


def test_focal_reduces_easy_example_weight():
    easy = np.array([[4.0, 0.0]])
    plain, _ = multiclass_loss_batch(easy, np.array([0]))
    focal, _ = multiclass_loss_batch(easy, np.array([0]), focal_gamma=2.0)
    assert focal[0] < plain[0]


@pytest.mark.parametrize("gamma,weights", [
    (None, None),
    (2.0, None),
    (2.0, np.array([2.0, 0.5, 1.0])),
])
def test_multiclass_grad_matches_fd(gamma, weights):
    rng = np.random.default_rng(1)
    z = rng.normal(size=(5, 3))
    y = rng.integers(0, 3, 5)
    _, grad = multiclass_loss_batch(z, y, weights, gamma)
    eps = 1e-6
    for i in range(5):
        for j in range(3):
            zp, zm = z.copy(), z.copy()
            zp[i, j] += eps
            zm[i, j] -= eps
            up, _ = multiclass_loss_batch(zp[i:i + 1], y[i:i + 1], weights, gamma)
            dn, _ = multiclass_loss_batch(zm[i:i + 1], y[i:i + 1], weights, gamma)
            assert grad[i, j] == pytest.approx((up[0] - dn[0]) / (2 * eps), abs=1e-5)


def test_label_out_of_range():
    with pytest.raises(ValueError):
        multiclass_loss_batch(np.zeros((1, 3)), np.array([3]))


def test_regression_loss():
    values, grad = regression_loss_batch(np.array([[0.7]]), np.array([0.2]))
    assert values[0] == pytest.approx(0.25)
    assert grad[0, 0] == pytest.approx(1.0)


def test_task_loss_and_grad_masks_missing():
    spec = TaskSpec("t", "binary")
    logits = np.array([[0.0], [5.0], [-5.0]])
    labels = np.array([1, MISSING, MISSING])
    value, dlogits, n = task_loss_and_grad(spec, logits, labels)
    assert n == 1
    assert value == pytest.approx(np.log(2))
    assert dlogits[1, 0] == 0.0 and dlogits[2, 0] == 0.0
    assert dlogits[0, 0] == pytest.approx(-0.5)


def test_task_loss_empty_batch():
    spec = TaskSpec("t", "binary")
    value, dlogits, n = task_loss_and_grad(
        spec, np.zeros((2, 1)), np.array([MISSING, MISSING])
    )
    assert (value, n) == (0.0, 0)
    assert not dlogits.any()


def test_task_loss_mean_carries_into_grad():
    spec = TaskSpec("t", "regression")
    logits = np.array([[1.0], [2.0]])
    labels = np.array([0.0, 0.0])
    value, dlogits, n = task_loss_and_grad(spec, logits, labels)
    assert value == pytest.approx((1.0 + 4.0) / 2)
    np.testing.assert_allclose(dlogits, [[1.0], [2.0]])  # 2*diff / n


def test_class_weights():
    w = class_weights([10, 30, 60], 100, 3)
    np.testing.assert_allclose(w, [100 / 30, 100 / 90, 100 / 180])
    with pytest.raises(ConfigError):
        class_weights([10, 0, 90], 100, 3)


def test_softmax_stable():
    probs = softmax(np.array([1000.0, 1000.0, 1000.0]))
    np.testing.assert_allclose(probs, [1 / 3] * 3)


def test_task_spec_validation():
    with pytest.raises(ConfigError):
        TaskSpec("t", "nope")
    with pytest.raises(ConfigError):
        TaskSpec("t", "multiclass", num_classes=1)
    with pytest.raises(ConfigError):
        TaskSpec("t", "binary", lambda_weight=-1.0)
    with pytest.raises(ConfigError, match="auroc"):
        TaskSpec("t", "binary", metrics=("accuracy", "auroc"))
    with pytest.raises(ConfigError):
        TaskSpec("t", "binary", metrics=())
    assert TaskSpec("t", "multiclass", num_classes=3).num_logits == 3
    assert TaskSpec("t", "regression").num_logits == 1
