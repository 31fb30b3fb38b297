import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmtl import circuit as circuit_module
from qmtl import cli
from qmtl.circuit import (
    FACTORS,
    Circuit,
    GateOp,
    const,
    feature,
    random_circuit,
    run_batch,
    trainable,
)
from qmtl.data import gen_synthetic
from qmtl.gradients import (
    _shifted,
    adjoint_reverse,
    adjoint_vjp,
    finite_diff_jacobian,
    loss_gradient,
    param_shift_jacobian_batch,
)
from qmtl.errors import DegenerateBatchError
from qmtl.losses import MISSING, TaskSpec
from qmtl.model import (
    Calibration,
    QmtlHeadModel,
    QmtlModelConfig,
    SharedEncoderConfig,
    TaskHeadConfig,
)
from qmtl.presets import PRESETS, get_preset
from qmtl.statevector import PauliString, pauli
from oracles import gate_matrix, input_shift_jacobian_batch, param_shift_jacobian


def test_single_ry_closed_form():
    circuit = Circuit(1, [GateOp("ry", (0,), (trainable(0),))], 1, 0)
    theta = np.array([0.6])
    jac = param_shift_jacobian(circuit, theta, (), [pauli("Z0")])
    assert jac.shape == (1, 1)
    assert jac[0, 0] == pytest.approx(-np.sin(0.6), abs=1e-12)


def test_shared_parameter_sums_occurrences():
    # <Z> = cos(2*theta) when the same angle drives two stacked Ry gates
    circuit = Circuit(
        1,
        [GateOp("ry", (0,), (trainable(0),)), GateOp("ry", (0,), (trainable(0),))],
        1, 0,
    )
    theta = np.array([0.37])
    jac = param_shift_jacobian(circuit, theta, (), [pauli("Z0")])
    assert jac[0, 0] == pytest.approx(-2 * np.sin(2 * 0.37), abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_param_shift_matches_finite_diff(seed):
    rng = np.random.default_rng(seed)
    num_qubits = int(rng.integers(2, 5))
    circuit = random_circuit(num_qubits, int(rng.integers(10, 30)), rng, num_inputs=2)
    theta = rng.uniform(0, 2 * np.pi, circuit.num_trainable)
    features = rng.uniform(-np.pi, np.pi, 2)
    observables = [pauli("Z0"), pauli(f"X0*X{num_qubits - 1}")]
    analytic = param_shift_jacobian(circuit, theta, features, observables)
    numeric = finite_diff_jacobian(circuit, theta, features, observables)
    np.testing.assert_allclose(analytic, numeric, atol=1e-6)


def test_param_shift_batch_matches_single():
    rng = np.random.default_rng(2)
    circuit = random_circuit(3, 20, rng, num_inputs=2)
    theta = rng.uniform(0, 2 * np.pi, circuit.num_trainable)
    features = rng.uniform(-np.pi, np.pi, (4, 2))
    observables = [pauli("Z0"), pauli("Z1*Z2")]
    batch = param_shift_jacobian_batch(circuit, theta, features, observables)
    assert batch.shape == (4, 2, circuit.num_trainable)
    for i, row in enumerate(features):
        single = param_shift_jacobian(circuit, theta, row, observables)
        np.testing.assert_allclose(batch[i], single, atol=1e-12)


def test_input_shift_jacobian_matches_fd():
    rng = np.random.default_rng(5)
    circuit = Circuit(
        2,
        [
            GateOp("ry", (0,), (feature(0),)),
            GateOp("ry", (1,), (feature(1),)),
            GateOp("cnot", (0, 1)),
            GateOp("rx", (0,), (trainable(0),)),
        ],
        1, 2,
    )
    theta = rng.uniform(0, 2 * np.pi, 1)
    features = rng.uniform(-np.pi, np.pi, (3, 2))
    observables = [pauli("Z0"), pauli("Z1")]
    jac = input_shift_jacobian_batch(circuit, theta, features, observables)
    assert jac.shape == (3, 2, 2)
    from qmtl.circuit import evaluate_expectations

    eps = 1e-6
    for b in range(3):
        for i in range(2):
            up = features[b].copy()
            dn = features[b].copy()
            up[i] += eps
            dn[i] -= eps
            fd = (
                np.asarray(evaluate_expectations(circuit, theta, up, observables))
                - np.asarray(evaluate_expectations(circuit, theta, dn, observables))
            ) / (2 * eps)
            np.testing.assert_allclose(jac[b, :, i], fd, atol=1e-6)


def _tiny_model():
    config = QmtlModelConfig(
        SharedEncoderConfig(num_qubits=2, layers=1),
        [
            TaskHeadConfig("u", (0,), 1, calibration=Calibration("affine")),
            TaskHeadConfig("v", (1,), 1, calibration=Calibration("temperature")),
        ],
    )
    return QmtlHeadModel(config)


def test_loss_gradient_matches_fd_through_model():
    model = _tiny_model()
    specs = [TaskSpec("u", "binary"), TaskSpec("v", "regression", lambda_weight=0.5)]
    rng = np.random.default_rng(0)
    params = model.init_params(seed=1)
    features = rng.uniform(-np.pi, np.pi, (5, 2))
    labels = {"u": np.array([1, 0, 1, MISSING, 0]),
              "v": rng.uniform(0, 1, 5)}
    value, grad = loss_gradient(model, params, features, labels, specs)
    eps = 1e-6
    for i in range(model.num_params):
        up, dn = params.copy(), params.copy()
        up[i] += eps
        dn[i] -= eps
        v_up, _ = loss_gradient(model, up, features, labels, specs)
        v_dn, _ = loss_gradient(model, dn, features, labels, specs)
        assert grad[i] == pytest.approx((v_up - v_dn) / (2 * eps), abs=2e-5)


def test_loss_gradient_all_missing_raises():
    model = _tiny_model()
    specs = [TaskSpec("u", "binary")]
    params = model.init_params()
    with pytest.raises(DegenerateBatchError):
        loss_gradient(model, params, np.zeros((2, 2)),
                      {"u": np.array([MISSING, MISSING])}, specs)


@pytest.mark.parametrize("name", sorted(n for n in PRESETS if "heads" in PRESETS[n]))
def test_every_preset_builds_data_and_takes_a_step(name):
    config = get_preset(name)
    specs = cli.task_specs_from(config)
    train, _ = gen_synthetic(cli.data_spec_from(config, specs))
    model = cli.head_model_from(config, specs)
    sub = train.subset(np.arange(4))
    value, grad = loss_gradient(model, model.init_params(0), sub.features, sub.labels, specs)
    assert np.isfinite(value) and grad.shape == (model.num_params,)
    assert np.all(np.isfinite(grad)) and np.any(grad != 0.0)


def test_corrupted_shift_detected():
    # negative control for the gradcheck property
    rng = np.random.default_rng(0)
    circuit = random_circuit(4, 20, rng)
    theta = rng.uniform(0, 2 * np.pi, circuit.num_trainable)
    observables = [pauli("Z0")]
    bad = param_shift_jacobian(circuit, theta, (), observables,
                               shift=np.pi / 2 * 1.01)
    good = finite_diff_jacobian(circuit, theta, (), observables)
    assert np.max(np.abs(bad - good)) > 1e-5


# ---------------------------------------------------------------------------
# adjoint VJP, the training engine, against the shift and difference oracles


def _random_problem(seed, batch=3):
    rng = np.random.default_rng(seed)
    nq = int(rng.integers(2, 5))
    depth = int(rng.integers(20, 45))
    circuit = random_circuit(nq, depth, rng, num_trainable=max(1, depth // 6), num_inputs=3)
    theta = rng.uniform(0, 2 * np.pi, circuit.num_trainable)
    features = rng.uniform(-np.pi, np.pi, (batch, 3))
    observables = [pauli("Z0"), PauliString({0: "X", nq - 1: "Y"}), pauli(f"Z{nq - 1}")]
    weights = rng.normal(size=(batch, len(observables)))
    return circuit, theta, features, observables, weights


@pytest.mark.parametrize("seed", range(8))
def test_adjoint_vjp_matches_shift_jacobians(seed):
    circuit, theta, features, observables, weights = _random_problem(seed)
    kinds = {op.kind for op in circuit.ops}
    refs = [ref for op in circuit.ops for ref in op.params]
    thetas = [ref.index for ref in refs if ref.kind == "theta"]
    # the oracle must cover every branch of the reverse sweep
    assert {"rot", "cnot"} <= kinds and kinds & {"h", "x", "y", "z"}
    assert {"theta", "input", "const"} <= {ref.kind for ref in refs}
    assert len(thetas) > len(set(thetas))

    raw, dtheta, dinputs = adjoint_vjp(circuit, theta, features, observables, weights)
    np.testing.assert_allclose(
        raw, circuit_module.run_batch(circuit, theta, features, observables).raw,
        rtol=0, atol=1e-12)
    shift = param_shift_jacobian_batch(circuit, theta, features, observables)
    np.testing.assert_allclose(dtheta, np.einsum("bo,bop->p", weights, shift),
                               rtol=0, atol=1e-10)
    inputs = input_shift_jacobian_batch(circuit, theta, features, observables)
    np.testing.assert_allclose(dinputs, np.einsum("bo,boi->bi", weights, inputs),
                               rtol=0, atol=1e-10)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), nq=st.integers(1, 4), depth=st.integers(1, 30))
def test_adjoint_equals_shift_equals_finite_differences(seed, nq, depth):
    rng = np.random.default_rng(seed)
    circuit = random_circuit(nq, depth, rng, num_inputs=2)
    theta = rng.uniform(0, 2 * np.pi, circuit.num_trainable)
    row = rng.uniform(-np.pi, np.pi, 2)
    observables = [pauli("Z0"), PauliString({0: "X", nq - 1: "Z"})]
    weights = rng.normal(size=(1, len(observables)))
    _, adjoint, _ = adjoint_vjp(circuit, theta, row[None, :], observables, weights)
    shift = weights[0] @ param_shift_jacobian(circuit, theta, row, observables)
    numeric = weights[0] @ finite_diff_jacobian(circuit, theta, row, observables)
    np.testing.assert_allclose(adjoint, shift, rtol=0, atol=1e-10)
    np.testing.assert_allclose(adjoint, numeric, rtol=0, atol=1e-6)


def _input_bound_rot_circuit(nq):
    """Per qubit a Hadamard, rot gates with input-bound slots, a reused
    trainable angle and a constant, and a CNOT ring when nq > 1."""
    ops = []
    for q in range(nq):
        ops += [GateOp("h", (q,)),
                GateOp("rot", (q,), (feature(0), trainable(0), feature(1))),
                GateOp("rx", (q,), (trainable(1),))]
    ops += [GateOp("cnot", (q, (q + 1) % nq)) for q in range(nq) if nq > 1]
    for q in range(nq):
        ops += [GateOp("rot", (q,), (trainable(2), const(0.4), feature(2))),
                GateOp("z", (q,)),
                GateOp("ry", (q,), (feature(0),)),
                GateOp("rz", (q,), (trainable(0),))]
    return Circuit(nq, ops, 3, 3)


@pytest.mark.parametrize("nq,batch", [(1, 3), (3, 1), (1, 1)])
def test_adjoint_matches_shift_jacobians_at_one_qubit_and_one_row(nq, batch):
    rng = np.random.default_rng(10 * nq + batch)
    circuit = _input_bound_rot_circuit(nq)
    theta = rng.uniform(0, 2 * np.pi, circuit.num_trainable)
    features = rng.uniform(-np.pi, np.pi, (batch, circuit.num_inputs))
    observables = [pauli("Z0"), pauli("X0"), pauli(f"Y{nq - 1}")]
    weights = rng.normal(size=(batch, len(observables)))
    _, dtheta, dinputs = adjoint_vjp(circuit, theta, features, observables, weights)
    shift = param_shift_jacobian_batch(circuit, theta, features, observables)
    np.testing.assert_allclose(dtheta, np.einsum("bo,bop->p", weights, shift),
                               rtol=0, atol=1e-10)
    inputs = input_shift_jacobian_batch(circuit, theta, features, observables)
    np.testing.assert_allclose(dinputs, np.einsum("bo,boi->bi", weights, inputs),
                               rtol=0, atol=1e-10)


def test_adjoint_reverse_is_repeatable_and_leaves_the_run_as_it_is():
    circuit, theta, features, observables, weights = _random_problem(3)
    run = circuit_module.run_batch(circuit, theta, features, observables)
    amps = run.amps.copy()
    def flat(recorded):  # a group's fused stack, then each factor's
        return [recorded[0], *recorded[1]]

    matrices = [[m.copy() for m in flat(rec)] for rec in run.matrices]
    first = adjoint_reverse(circuit, run, weights)
    second = adjoint_reverse(circuit, run, weights)
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
    assert np.array_equal(run.amps, amps)
    assert len(run.matrices) == len(circuit.plan.groups) == len(matrices)
    for recorded, kept in zip(run.matrices, matrices):
        assert all(np.array_equal(a, b) for a, b in zip(flat(recorded), kept, strict=True))


@pytest.mark.parametrize("bound", ["theta", "input"])
@pytest.mark.parametrize("kind,slot", [("rx", 0), ("ry", 0), ("rz", 0),
                                       ("rot", 0), ("rot", 1), ("rot", 2)])
def test_shifted_copy_moves_one_occurrence_of_the_angle(kind, slot, bound):
    ref = trainable(0) if bound == "theta" else feature(0)
    if kind == "rot":
        refs = [trainable(1), feature(1), const(0.7)]
        refs[slot] = ref
    else:
        refs = [ref]

    def circuit_with(target_refs):
        # the same ref also drives gates before and after the target op
        ops = [GateOp("h", (0,)), GateOp("h", (1,)), GateOp("ry", (0,), (ref,)),
               GateOp("cnot", (0, 1)), GateOp(kind, (1,), target_refs),
               GateOp("cnot", (1, 0)), GateOp("rx", (1,), (ref,)),
               GateOp("rot", (0,), (ref, trainable(1), feature(1)))]
        return Circuit(2, ops, 2, 2)

    rng = np.random.default_rng(slot)
    theta = rng.uniform(0, 2 * np.pi, 2)
    features = rng.uniform(-np.pi, np.pi, (3, 2))
    observables = [pauli("Z0"), pauli("X1"), pauli("Y0*Z1")]
    delta = 0.37
    circuit = circuit_with(refs)
    ops = list(circuit.ops)
    shifted = run_batch(_shifted(circuit, 4, slot, delta), theta, features, observables)
    assert list(circuit.ops) == ops
    for b, row in enumerate(features):
        value = theta[0] if bound == "theta" else row[0]
        moved = list(refs)
        moved[slot] = const(value + delta)
        expected = run_batch(circuit_with(moved), theta, row[None], observables)
        np.testing.assert_allclose(shifted.amps[b], expected.amps[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(shifted.raw[b], expected.raw[0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("variant", ["qmtl", "hqnn"])
def test_loss_gradient_runs_the_circuit_once(monkeypatch, variant):
    config = dict(get_preset("toy"), variant=variant)
    specs = cli.task_specs_from(config)
    train_data, _ = gen_synthetic(cli.data_spec_from(config, specs))
    model = cli.head_model_from(config, specs)
    batch = train_data.subset(np.arange(config["train"]["batch_size"]))

    runs = []
    original = circuit_module._run

    def counted(*args, **kwargs):
        runs.append(1)
        return original(*args, **kwargs)

    # every qmtl namespace holding _run, however it imported it
    for name, module in list(sys.modules.items()):
        if name == "qmtl" or name.startswith("qmtl."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    loss_gradient(model, model.init_params(0), batch.features, batch.labels, specs)
    assert len(runs) == 1


_ROTATIONS = {"X": "rx", "Y": "ry", "Z": "rz"}


def _toy_problem(layers):
    config = get_preset("toy")
    config["encoder"] = dict(config["encoder"], layers=layers)
    config["data"] = dict(config["data"], feature_dim=config["encoder"]["qubits"] * layers)
    specs = cli.task_specs_from(config)
    train_data, _ = gen_synthetic(cli.data_spec_from(config, specs))
    model = cli.head_model_from(config, specs)
    return model, specs, train_data.subset(np.arange(64))


def _counted_builds(monkeypatch):
    built = []
    for kind, build in list(circuit_module._BUILDERS.items()):
        def counted(angles, kind=kind, build=build):
            built.append(kind)
            return build(angles)
        monkeypatch.setitem(circuit_module._BUILDERS, kind, counted)
    return built


@pytest.mark.parametrize("layers", [3, 6])
def test_a_run_builds_one_rotation_stack_per_group_and_kind(monkeypatch, layers):
    """``run_batch`` makes one rotation-matrix build per (signature group,
    rotation kind), however deep the encoder; the reverse sweep of a loss
    gradient builds none.  Every recorded factor matrix is the bits of
    ``gate_matrix`` on its own angle."""
    model, specs, batch = _toy_problem(layers)
    circuit = model.model.circuit
    params = model.init_params(0)
    theta = params[: model.model.num_circuit_params]
    built = _counted_builds(monkeypatch)
    run = run_batch(circuit, theta, batch.features, model.model.observables)
    expected = sorted(kind for group in circuit.plan.groups for kind, *_ in group.builds)
    assert sorted(built) == expected == ["rx", "ry", "rz"]
    rotations = sum(refs is not None for group in circuit.plan.groups
                    for _, refs in group.factors) * len(circuit.plan.groups[0].members)
    assert rotations > 10 * len(built)
    built.clear()
    loss_gradient(model, params, batch.features, batch.labels, specs)
    assert sorted(built) == expected

    for j, place in enumerate(circuit.plan.places):
        if place is None:
            continue
        g, i = place
        factors = [op_factor for op_idx in circuit.blocks[j]
                   for op_factor in FACTORS[circuit.ops[op_idx].kind]]
        for (kind, axis, slot), (plan_axis, refs), stack in zip(
                factors, circuit.plan.groups[g].factors, run.matrices[g][1], strict=True):
            assert axis == plan_axis
            if refs is None:
                assert np.array_equal(stack[i], gate_matrix(kind))
                continue
            ref = refs[i]
            angle = {"theta": lambda: theta[ref.index],
                     "input": lambda: batch.features[:, ref.index],
                     "const": lambda: ref.value}[ref.kind]()
            assert _ROTATIONS[axis] == kind
            expected_mat = gate_matrix(kind, (angle,))
            assert stack[i].shape == expected_mat.shape
            assert np.array_equal(stack[i], expected_mat)

@pytest.mark.parametrize("preset", ["toy", "glue-like"])
def test_each_row_gets_the_bits_it_gets_alone(preset):
    """From a batch of 16 rows, each row's ``run_batch`` amplitudes and raw
    values, its per-row ``_block_matrices`` stacks and its ``adjoint_reverse``
    ``dinputs`` row equal that row run alone, bit for bit: on ``toy``
    (Q = 4, the written-out ``sv.mul_2x2`` kernel) and ``glue-like`` (Q = 10,
    the matmul kernel)."""
    config = get_preset(preset)
    specs = cli.task_specs_from(config)
    train_data, _ = gen_synthetic(cli.data_spec_from(config, specs))
    model = cli.head_model_from(config, specs).model
    circuit, observables = model.circuit, model.observables
    theta = model.init_params(0)[: model.num_circuit_params]
    features = train_data.features[:16]
    weights = np.random.default_rng(0).normal(size=(16, len(observables)))
    run = run_batch(circuit, theta, features, observables)
    dinputs = adjoint_reverse(circuit, run, weights)[1]
    for b in range(16):
        alone = run_batch(circuit, theta, features[b:b + 1], observables)
        assert np.array_equal(run.amps[b], alone.amps[0])
        assert np.array_equal(run.raw[b], alone.raw[0])
        for (fused, factors), (fused_1, factors_1) in zip(run.matrices, alone.matrices,
                                                          strict=True):
            for stack, stack_1 in zip((fused, *factors), (fused_1, *factors_1), strict=True):
                assert np.array_equal(stack[:, b] if stack.ndim == 4 else stack,
                                      stack_1[:, 0] if stack_1.ndim == 4 else stack_1)
        assert np.array_equal(dinputs[b], adjoint_reverse(circuit, alone, weights[b:b + 1])[1][0])
