import numpy as np
import pytest

from qmtl.errors import ConfigError
from qmtl.gradients import param_shift_jacobian
from qmtl.model import (
    Calibration,
    ClassicalHeadModel,
    HqnnHeadModel,
    QmtlHeadModel,
    QmtlModelConfig,
    SharedEncoderConfig,
    TaskHeadConfig,
    assemble,
    build_shared_encoder,
    build_task_head,
    count_params_classical,
    count_params_quantum,
    default_readout,
    forward,
    forward_batch,
    scaling_table,
)
from qmtl.statevector import pauli


def _three_task_config(calibration="none"):
    return QmtlModelConfig(
        SharedEncoderConfig(num_qubits=4, layers=3),
        [
            TaskHeadConfig("alpha", (0,), 1, calibration=Calibration(calibration)),
            TaskHeadConfig("beta", (1,), 1, calibration=Calibration(calibration)),
            TaskHeadConfig("gamma", (2, 3), 3, calibration=Calibration(calibration)),
        ],
    )


def test_encoder_gate_and_param_counts():
    circuit = build_shared_encoder(SharedEncoderConfig(num_qubits=2, layers=1))
    # H wall (2) + Rx embeds (2) + Rz/Ry pairs (4) + ladder CNOT (1)
    assert len(circuit.ops) == 9
    assert circuit.num_trainable == 2
    assert circuit.num_inputs == 2
    kinds = [op.kind for op in circuit.ops]
    assert kinds == ["h", "h", "rx", "rx", "rz", "ry", "rz", "ry", "cnot"]


def test_encoder_shares_angle_between_rz_and_ry():
    circuit = build_shared_encoder(SharedEncoderConfig(num_qubits=2, layers=1))
    rz = [op for op in circuit.ops if op.kind == "rz"]
    ry = [op for op in circuit.ops if op.kind == "ry"]
    for z, y in zip(rz, ry):
        assert z.params[0].index == y.params[0].index


def test_encoder_entangling_flag():
    with_cx = build_shared_encoder(SharedEncoderConfig(num_qubits=3, layers=2))
    without = build_shared_encoder(SharedEncoderConfig(3, 2, entangling=False))
    n_cnot = sum(op.kind == "cnot" for op in with_cx.ops)
    assert n_cnot == 4  # (Q-1) per layer
    assert sum(op.kind == "cnot" for op in without.ops) == 0
    assert without.num_trainable == with_cx.num_trainable


def test_head_ring_entangler():
    two = build_task_head(TaskHeadConfig("t", (5, 7), 3), 0)
    assert sum(op.kind == "cnot" for op in two) == 2
    assert [op.qubits for op in two if op.kind == "cnot"] == [(7, 5), (5, 7)]
    one = build_task_head(TaskHeadConfig("t", (2,), 1), 4)
    assert sum(op.kind == "cnot" for op in one) == 0
    assert [op.qubits for op in one] == [(2,)]
    assert [ref.index for ref in one[0].params] == [4, 5, 6]  # one Rot from first_theta
    ry_head = build_task_head(TaskHeadConfig("t", (0, 1), 3, k_theta=1), 0)
    assert sum(len(op.params) for op in ry_head) == 2
    assert all(op.kind in ("ry", "cnot") for op in ry_head)


def test_param_budgets_match_closed_form():
    config = _three_task_config()
    budget = count_params_quantum(config)
    assert budget.shared == 12
    assert budget.per_head == (3, 3, 6)
    assert budget.total == 24
    assert count_params_classical(12, [1, 1, 3]) == 2 * 13 + 3 * 13


def test_default_readouts():
    assert [str(o) for o in default_readout(1, 1)] == ["Z0"]
    assert [str(o) for o in default_readout(3, 2)] == ["Z0", "Z1", "X0*X1"]
    assert [str(o) for o in default_readout(9, 4)] == [
        "Z0", "Z1", "Z2", "Z3",
        "Z0*Z1", "Z1*Z2", "Z2*Z3", "Z0*Z3",
        "X0*X1*X2*X3",
    ]
    with pytest.raises(ConfigError):
        default_readout(5, 2)


def test_config_validation():
    with pytest.raises(ConfigError):
        QmtlModelConfig(
            SharedEncoderConfig(2, 1),
            [TaskHeadConfig("a", (0,), 1), TaskHeadConfig("b", (0,), 1)],
        )
    with pytest.raises(ConfigError):
        QmtlModelConfig(SharedEncoderConfig(2, 1), [TaskHeadConfig("a", (5,), 1)])
    with pytest.raises(ConfigError):
        TaskHeadConfig("a", (0,), 1, k_theta=2)
    with pytest.raises(ConfigError):
        TaskHeadConfig("a", (), 1)
    for qubits in (("a",), (0.5,), (True,)):
        with pytest.raises(ConfigError, match="not an integer"):
            TaskHeadConfig("a", qubits, 1)
    # a head shape with no readout is refused when the config is built
    for outputs, qubits in ((2, (0,)), (1, (0, 1)), (3, (0, 1, 2)), (0, (0,))):
        with pytest.raises(ConfigError, match=r"supported \(r, S\): \(1, 1\), \(3, 2\)"):
            TaskHeadConfig("a", qubits, outputs)


def test_assemble_layout():
    model = assemble(_three_task_config(calibration="affine"))
    assert model.num_circuit_params == 24
    # affine is per-logit: 2*1 + 2*1 + 2*3
    assert model.num_calibration_params == 10
    assert model.num_params == 34
    assert model.task_names == ("alpha", "beta", "gamma")
    assert len(model.observables) == 5
    mask = model.decay_mask()
    assert not mask[:24].any() and mask[24:].all()


def test_init_params_ranges():
    model = assemble(_three_task_config(calibration="affine"))
    params = model.init_params(seed=0)
    assert np.all((params[:24] >= 0) & (params[:24] < 2 * np.pi))
    # affine calibration initializes to gamma=1, beta=0.5 per logit
    np.testing.assert_allclose(
        params[24:], [1.0, 0.5, 1.0, 0.5, 1.0, 1.0, 1.0, 0.5, 0.5, 0.5]
    )
    again = model.init_params(seed=0)
    np.testing.assert_array_equal(params, again)


def test_head_locality():
    model = assemble(_three_task_config())
    rng = np.random.default_rng(0)
    params = model.init_params(seed=2)
    x = rng.uniform(-np.pi, np.pi, 12)
    base, _ = forward_batch(model, params, x[None])
    for head in model.heads:
        bumped = params.copy()
        bumped[head.theta_slice] += 0.2
        out, _ = forward_batch(model, bumped, x[None])
        for other in model.heads:
            if other.name == head.name:
                assert np.max(np.abs(out[other.name] - base[other.name])) > 1e-6
            else:
                np.testing.assert_allclose(out[other.name], base[other.name],
                                           atol=1e-12)


def test_cross_task_jacobian_blocks_zero():
    model = assemble(_three_task_config())
    params = model.init_params(seed=1)
    x = np.linspace(-1, 1, 12)
    jac = param_shift_jacobian(model.circuit, params[:24], x, list(model.observables))
    for head in model.heads:
        for other in model.heads:
            if other.name == head.name:
                continue
            block = jac[other.logit_slice, head.theta_slice]
            np.testing.assert_allclose(block, 0.0, atol=1e-12)


def test_forward_batch_matches_single():
    config = _three_task_config(calibration="affine")
    model = assemble(config)
    rng = np.random.default_rng(4)
    params = model.init_params(seed=0)
    params[24:] = rng.normal(1.0, 0.1, model.num_calibration_params)
    features = rng.uniform(-np.pi, np.pi, (3, 12))
    batch, _ = forward_batch(model, params, features)
    for i in range(3):
        single, _ = forward_batch(model, params, features[i][None])
        for name in model.task_names:
            np.testing.assert_allclose(batch[name][i], single[name][0], atol=1e-13)


def test_forward_with_shots_approximates_exact():
    model = assemble(_three_task_config())
    params = model.init_params(seed=3)
    x = np.zeros(12)
    exact, _ = forward_batch(model, params, x[None])
    sampled = forward(model, params, x[None], shots=200_000, seed=0)
    for name in model.task_names:
        np.testing.assert_allclose(sampled[name], exact[name], atol=0.02)


def test_scaling_table_single_parameter_regime():
    rows = scaling_table([1, 10, 100], outputs=2, layers=3, k_theta=1,
                         head_layers=1, head_size=1)
    by_t = {row["T"]: row for row in rows}
    assert by_t[10]["P_Q"] == 40 and by_t[10]["P_C"] == 620
    assert by_t[10]["d"] == 30
    assert by_t[100]["P_Q"] == 400 and by_t[100]["P_C"] == 60200
    with pytest.raises(ConfigError):
        scaling_table([1], outputs=0, layers=3, k_theta=1, head_layers=1, head_size=1)


def test_classical_head_model_grads():
    model = ClassicalHeadModel(4, [1, 3], ["u", "v"])
    assert model.num_params == 1 * 5 + 3 * 5
    rng = np.random.default_rng(0)
    params = model.init_params(seed=0)
    features = rng.normal(size=(6, 4))
    out, state = model.forward_state(params, features)
    assert out["u"].shape == (6, 1) and out["v"].shape == (6, 3)
    dlogits = {"u": rng.normal(size=(6, 1)), "v": rng.normal(size=(6, 3))}
    grad = model.backward_batch(params, state, dlogits)
    eps = 1e-6

    def scalar(p):
        o = model.forward_batch(p, features)
        return sum(float(np.sum(o[n] * dlogits[n])) for n in o)

    for i in range(model.num_params):
        up, dn = params.copy(), params.copy()
        up[i] += eps
        dn[i] -= eps
        assert grad[i] == pytest.approx((scalar(up) - scalar(dn)) / (2 * eps), abs=1e-5)


def test_hqnn_head_model_grads():
    model = HqnnHeadModel(5, 4, [1, 2], ["u", "v"])
    assert model.decay_mask().sum() == model.num_params - model.n_circuit
    rng = np.random.default_rng(1)
    params = model.init_params(seed=0)
    features = rng.normal(size=(3, 5))
    dlogits = {"u": rng.normal(size=(3, 1)), "v": rng.normal(size=(3, 2))}
    _, state = model.forward_state(params, features)
    grad = model.backward_batch(params, state, dlogits)
    eps = 1e-6

    def scalar(p):
        o = model.forward_batch(p, features)
        return sum(float(np.sum(o[n] * dlogits[n])) for n in o)

    for i in range(model.num_params):
        up, dn = params.copy(), params.copy()
        up[i] += eps
        dn[i] -= eps
        assert grad[i] == pytest.approx((scalar(up) - scalar(dn)) / (2 * eps), abs=2e-5)


def test_qmtl_head_model_grads():
    """backward_batch from the state of one forward_state, against central
    differences of the logits; the state can be taken twice."""
    model = QmtlHeadModel(_three_task_config(calibration="affine"))
    rng = np.random.default_rng(5)
    params = model.init_params(seed=0)
    params[model.model.num_circuit_params:] += rng.normal(0.0, 0.1,
                                                          model.model.num_calibration_params)
    features = rng.uniform(-np.pi, np.pi, (3, 12))
    # "beta" absent: its head contributes nothing
    dlogits = {"alpha": rng.normal(size=(3, 1)), "gamma": rng.normal(size=(3, 3))}
    logits, state = model.forward_state(params, features)
    assert logits.keys() == model.forward_batch(params, features).keys()
    grad = model.backward_batch(params, state, dlogits)
    np.testing.assert_array_equal(model.backward_batch(params, state, dlogits), grad)
    eps = 1e-6

    def scalar(p):
        o = model.forward_batch(p, features)
        return sum(float(np.sum(o[n] * dlogits[n])) for n in dlogits)

    for i in range(model.num_params):
        up, dn = params.copy(), params.copy()
        up[i] += eps
        dn[i] -= eps
        assert grad[i] == pytest.approx((scalar(up) - scalar(dn)) / (2 * eps), abs=1e-5)


@pytest.mark.parametrize("d, q, outputs, expected", [(5, 4, [1, 2], 70), (12, 4, [1, 1, 3], 101)],
                         ids=["d5-q4", "toy"])
def test_hqnn_num_params(d, q, outputs, expected):
    # VQC 9Q + projection 3d + 3 + scale 1 + task layers sum_t r_t (Q + 1)
    model = HqnnHeadModel(d, q, outputs, [f"t{i}" for i in range(len(outputs))])
    assert model.num_params == 9 * q + 3 * d + 3 + 1 + sum(r * (q + 1) for r in outputs)
    assert model.num_params == expected


def test_hqnn_init_layout():
    """[VQC angles | projection W, b | scale | task W_t, b_t ...], drawn in
    that order from one generator: the layout checkpoints are stored in."""
    model = HqnnHeadModel(5, 4, [1, 2], ["u", "v"])
    rng = np.random.default_rng(3)
    expected = np.concatenate([
        rng.uniform(0.0, 2 * np.pi, 36),
        rng.normal(0.0, 1.0 / np.sqrt(5), 15), np.zeros(3),
        [1.0],
        rng.normal(0.0, 1.0 / np.sqrt(4), 4), np.zeros(1),
        rng.normal(0.0, 1.0 / np.sqrt(4), 8), np.zeros(2),
    ])
    np.testing.assert_array_equal(model.init_params(3), expected)


def test_classical_input_gradient_matches_fd():
    model = ClassicalHeadModel(4, [1, 3], ["u", "v"])
    rng = np.random.default_rng(2)
    params = model.init_params(seed=1)
    features = rng.normal(size=(3, 4))
    dlogits = {"v": rng.normal(size=(3, 3))}  # "u" absent: it contributes nothing
    dx = model.input_gradient(params, dlogits, 3)
    eps = 1e-6
    for i, j in np.ndindex(features.shape):
        up, dn = features.copy(), features.copy()
        up[i, j] += eps
        dn[i, j] -= eps
        diff = model.forward_batch(params, up)["v"] - model.forward_batch(params, dn)["v"]
        assert dx[i, j] == pytest.approx(np.sum(diff * dlogits["v"]) / (2 * eps), abs=1e-6)


def test_hqnn_decay_mask_excludes_circuit_angles():
    model = HqnnHeadModel(5, 4, [1], ["u"])
    mask = model.decay_mask()
    assert not mask[: model.n_circuit].any()
    assert mask[model.n_circuit:].all()


def test_qmtl_head_model_interface():
    model = QmtlHeadModel(_three_task_config())
    assert model.task_names == ["alpha", "beta", "gamma"]
    assert model.outputs == {"alpha": 1, "beta": 1, "gamma": 3}
    params = model.init_params(seed=0)
    out = model.forward_batch(params, np.zeros((2, 12)))
    assert out["gamma"].shape == (2, 3)
