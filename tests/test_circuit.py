import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmtl import circuit as circuit_module
from qmtl.circuit import (
    Circuit,
    GateOp,
    _run,
    _stack_mul,
    const,
    evaluate,
    evaluate_expectations,
    feature,
    gate_blocks,
    group_commuting,
    random_circuit,
    run_batch,
    trainable,
)
from qmtl.errors import CapacityError
from qmtl.gradients import adjoint_vjp
from qmtl.statevector import (
    MAX_QUBITS,
    check_capacity,
    pauli,
    zero_batch,
)
from oracles import gate_matrix
from test_statevector import dense_1q, dense_cnot


def _resolve(ref, theta, features):
    """The angle of one ParamRef; ``features`` may be (d,) or (B, d)."""
    if ref.kind == "theta":
        return theta[ref.index]
    if ref.kind == "input":
        return features[..., ref.index]
    return ref.value


def _bell_circuit():
    return Circuit(2, [GateOp("h", (0,)), GateOp("cnot", (0, 1))],
                   num_trainable=0, num_inputs=0)


def test_evaluate_bell_state():
    (amps,) = evaluate(_bell_circuit(), (), [[]])
    assert amps.shape == (4,)
    np.testing.assert_allclose(amps, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)], atol=1e-15)


def test_evaluate_matches_manual_application():
    circuit = Circuit(
        2,
        [
            GateOp("h", (0,)),
            GateOp("rx", (0,), (trainable(0),)),
            GateOp("rot", (1,), (trainable(1), feature(0), const(0.4))),
            GateOp("cnot", (0, 1)),
            GateOp("ry", (1,), (trainable(0),)),  # shared angle
        ],
        num_trainable=2,
        num_inputs=1,
    )
    theta = np.array([0.7, -1.2])
    features = np.array([2.1])
    amps = evaluate(circuit, theta, features[None])[0]

    ref = zero_batch(2, 1)[0]
    for gate in (dense_1q(gate_matrix("h"), 0, 2),
                 dense_1q(gate_matrix("rx", (0.7,)), 0, 2),
                 dense_1q(gate_matrix("rot", (-1.2, 2.1, 0.4)), 1, 2),
                 dense_cnot(0, 1, 2),
                 dense_1q(gate_matrix("ry", (0.7,)), 1, 2)):
        ref = gate @ ref
    np.testing.assert_allclose(amps, ref, atol=1e-14)


def test_circuit_followed_by_inverse_is_identity():
    rng = np.random.default_rng(11)
    circuit = random_circuit(3, 25, rng)
    theta = rng.uniform(0, 2 * np.pi, circuit.num_trainable)
    amps = evaluate(circuit, theta, [[]])[0]
    # apply the inverse ops in reverse order
    from qmtl.statevector import apply_matrix, apply_cnot_array

    for op in reversed(circuit.ops):
        if op.kind == "cnot":
            amps = apply_cnot_array(amps, op.qubits[0], op.qubits[1], 3)
        else:
            angles = [_resolve(ref, theta, np.array([])) for ref in op.params]
            mat = gate_matrix(op.kind, tuple(angles))
            amps = apply_matrix(amps, mat.conj().T, op.qubits[0], 3)
    expected = np.zeros(8, dtype=complex)
    expected[0] = 1.0
    np.testing.assert_allclose(amps, expected, atol=1e-12)


def test_gateop_validation():
    with pytest.raises(ValueError):
        GateOp("h", (0,), (trainable(0),))  # h takes no parameters
    with pytest.raises(ValueError):
        GateOp("rot", (0,), (trainable(0),))  # rot takes three
    with pytest.raises(ValueError):
        GateOp("cnot", (0,))  # two qubits required
    with pytest.raises(ValueError):
        GateOp("nope", (0,))


def test_binding_validation():
    circuit = Circuit(1, [GateOp("rx", (0,), (trainable(0),))], 1, 0)
    with pytest.raises(ValueError):
        evaluate(circuit, (), [[]])
    with pytest.raises(ValueError):
        evaluate(circuit, (0.1, 0.2), [[]])


def test_trainable_index_range_checked():
    with pytest.raises(ValueError):
        Circuit(1, [GateOp("rx", (0,), (trainable(3),))], num_trainable=1, num_inputs=0)
    with pytest.raises(ValueError):
        Circuit(1, [GateOp("rx", (0,), (feature(0),))], num_trainable=0, num_inputs=0)
    with pytest.raises(ValueError):
        Circuit(1, [GateOp("rx", (1,), (const(0.5),))], num_trainable=0, num_inputs=0)


def test_evaluate_expectations():
    circuit = Circuit(1, [GateOp("ry", (0,), (trainable(0),))], 1, 0)
    (value,) = evaluate_expectations(circuit, [0.9], (), [pauli("Z0")])
    assert value == pytest.approx(np.cos(0.9))


def test_evaluate_expectations_batch_matches_loop():
    rng = np.random.default_rng(4)
    circuit = random_circuit(3, 15, rng, num_inputs=2)
    theta = rng.uniform(0, 2 * np.pi, circuit.num_trainable)
    features = rng.uniform(-np.pi, np.pi, (6, 2))
    observables = [pauli("Z0"), pauli("X1*Z2"), pauli("Y0*Y1")]
    batch = run_batch(circuit, theta, features, observables).raw
    assert batch.shape == (6, 3)
    for i, row in enumerate(features):
        single = evaluate_expectations(circuit, theta, row, observables)
        np.testing.assert_allclose(batch[i], single, atol=1e-13)


@pytest.mark.parametrize("spec", ["Z3", "Z0*Z3"])
def test_observable_outside_register_refused_on_batches(spec):
    # two rows of 3 qubits are 16 amplitudes, which a qubit-3 Pauli would
    # read as one 4-qubit state unless the binding check refuses it
    rng = np.random.default_rng(0)
    circuit = random_circuit(3, 12, rng, num_inputs=2)
    theta = rng.uniform(0, 2 * np.pi, circuit.num_trainable)
    features = rng.uniform(-np.pi, np.pi, (2, 2))
    observables = [pauli("Z0"), pauli(spec)]
    with pytest.raises(IndexError):
        run_batch(circuit, theta, features, observables).raw
    with pytest.raises(IndexError):
        adjoint_vjp(circuit, theta, features, observables, np.ones((2, 2)))
    with pytest.raises(IndexError):
        evaluate_expectations(circuit, theta, features[0], observables)


def test_group_commuting_greedy_order_stable():
    observables = [pauli("Z0"), pauli("Z1"), pauli("X0*X1"), pauli("Z0*Z1")]
    groups = group_commuting(observables)
    assert [["Z0", "Z1", "Z0*Z1"], ["X0*X1"]] == [[str(o) for o in g] for g in groups]
    # every observable lands in exactly one group
    flat = [str(o) for g in groups for o in g]
    assert sorted(flat) == sorted(str(o) for o in observables)


def test_group_commuting_singletons():
    groups = group_commuting([pauli("X0"), pauli("Y0"), pauli("Z0")])
    assert len(groups) == 3


@pytest.mark.parametrize("num_qubits,rows", [
    (4, ((1 << MAX_QUBITS) >> 4) + 1),   # one row over the amplitude budget
    (MAX_QUBITS, 2),                     # two full-size registers
    (MAX_QUBITS + 1, 1),                 # one register above MAX_QUBITS
])
def test_oversized_batch_refused_before_allocation(num_qubits, rows):
    circuit = Circuit(num_qubits, [GateOp("h", (0,))], 0, 0)
    features = np.empty((rows, 0))  # no inputs: the matrix holds no bytes
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            run_batch(circuit, [], features, [pauli("Z0")]).raw
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_capacity_budget_boundary():
    check_capacity(4, (1 << MAX_QUBITS) >> 4)
    check_capacity(MAX_QUBITS, 1)
    with pytest.raises(CapacityError):
        check_capacity(4, ((1 << MAX_QUBITS) >> 4) + 1)
    with pytest.raises(CapacityError):
        check_capacity(0, 1)


def _dense_op(op, theta, x, num_qubits):
    """Full 2**Q unitary of one gate."""
    if op.kind == "cnot":
        return dense_cnot(*op.qubits, num_qubits)
    mat = gate_matrix(op.kind, [_resolve(ref, theta, x) for ref in op.params])
    return dense_1q(mat, op.qubits[0], num_qubits)


def _gate_by_gate(circuit, theta, x):
    unitary = np.eye(1 << circuit.num_qubits, dtype=complex)
    for op in circuit.ops:
        unitary = _dense_op(op, theta, x, circuit.num_qubits) @ unitary
    return unitary


def _check_run_against_dense(circuit, rng, rows=3):
    theta = rng.uniform(0, 2 * np.pi, circuit.num_trainable)
    features = rng.uniform(-np.pi, np.pi, (rows, circuit.num_inputs))
    dim = 1 << circuit.num_qubits
    amps = rng.normal(size=(rows, dim)) + 1j * rng.normal(size=(rows, dim))
    out, _ = _run(amps, circuit, theta, features)
    for b in range(rows):
        expected = _gate_by_gate(circuit, theta, features[b]) @ amps[b]
        np.testing.assert_allclose(out[b], expected, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), nq=st.integers(1, 5), depth=st.integers(1, 40))
def test_fused_run_matches_gate_by_gate_unitary(seed, nq, depth):
    """random_circuit draws CNOTs on and off each block's qubit, input refs
    and trainable indices with replacement (reused angles)."""
    rng = np.random.default_rng(seed)
    circuit = random_circuit(nq, depth, rng, num_inputs=2)
    _check_run_against_dense(circuit, rng)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), nq=st.integers(1, 5), depth=st.integers(1, 40))
def test_run_keeps_the_norm(seed, nq, depth):
    rng = np.random.default_rng(seed)
    circuit = random_circuit(nq, depth, rng, num_inputs=2)
    theta = rng.uniform(0, 2 * np.pi, circuit.num_trainable)
    features = rng.uniform(-np.pi, np.pi, (3, 2))
    amps = rng.normal(size=(3, 1 << nq)) + 1j * rng.normal(size=(3, 1 << nq))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    out, _ = _run(amps, circuit, theta, features)
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, rtol=0, atol=1e-12)


def _inverse_ops(circuit, theta, row):
    """The ops of U^dagger for one feature row, each angle bound as a constant."""
    ops = []
    for op in reversed(circuit.ops):
        angles = [-float(_resolve(ref, theta, row)) for ref in op.params]
        if op.kind == "rot":  # rot(a, b, g)^dagger = rot(-g, -b, -a)
            angles.reverse()
        ops.append(GateOp(op.kind, op.qubits, [const(a) for a in angles]))
    return ops


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), nq=st.integers(1, 5), depth=st.integers(1, 40))
def test_random_circuit_then_its_inverse_returns_to_zero(seed, nq, depth):
    rng = np.random.default_rng(seed)
    circuit = random_circuit(nq, depth, rng, num_inputs=2)
    theta = rng.uniform(0, 2 * np.pi, circuit.num_trainable)
    row = rng.uniform(-np.pi, np.pi, 2)
    both = Circuit(nq, [*circuit.ops, *_inverse_ops(circuit, theta, row)],
                   circuit.num_trainable, circuit.num_inputs)
    out, _ = _run(zero_batch(nq, 1), both, theta, row[None])
    np.testing.assert_allclose(out, zero_batch(nq, 1), rtol=0, atol=1e-12)


def _straddling_circuit():
    """Blocks that run across CNOTs on other qubits: qubit 0's ops 0, 2, 4
    across CNOTs 3 and 6, qubit 1's ops 5, 7 across CNOT 6, qubit 2's ops
    9, 13 across CNOT 11; CNOTs 3, 8 and 11 cut the qubits they touch."""
    th, x = trainable, feature
    ops = [
        GateOp("h", (0,)),                          # 0
        GateOp("rx", (1,), (x(0),)),                # 1
        GateOp("ry", (0,), (th(0),)),               # 2
        GateOp("cnot", (1, 2)),                     # 3
        GateOp("rot", (0,), (th(1), x(1), th(0))),  # 4
        GateOp("rz", (1,), (th(2),)),               # 5
        GateOp("cnot", (2, 3)),                     # 6
        GateOp("ry", (1,), (th(2),)),               # 7
        GateOp("cnot", (0, 1)),                     # 8
        GateOp("rx", (2,), (x(0),)),                # 9
        GateOp("rz", (0,), (th(1),)),               # 10
        GateOp("cnot", (3, 0)),                     # 11
        GateOp("h", (0,)),                          # 12
        GateOp("rx", (2,), (th(0),)),               # 13
    ]
    return Circuit(4, ops, num_trainable=3, num_inputs=2)


def test_blocks_straddle_cnots_on_other_qubits(monkeypatch):
    circuit = _straddling_circuit()
    assert gate_blocks(circuit) == [
        (1,), (3,), (6,), (0, 2, 4), (5, 7), (8,), (10,), (11,), (12,), (9, 13),
    ]
    _check_run_against_dense(circuit, np.random.default_rng(0))

    def past_own_cnot(circuit):
        """Wrong: merges qubit 0's gates across the CNOTs that touch it."""
        blocks = [b for b in gate_blocks(circuit) if b not in [(0, 2, 4), (10,), (12,)]]
        return [(0, 2, 4, 10, 12)] + blocks

    monkeypatch.setattr(circuit_module, "gate_blocks", past_own_cnot)
    with pytest.raises(AssertionError):
        _check_run_against_dense(_straddling_circuit(), np.random.default_rng(0))


def test_circuit_is_frozen_and_schedules_its_blocks_once():
    ops = list(_straddling_circuit().ops)
    circuit = Circuit(4, ops, num_trainable=3, num_inputs=2)
    ops.append(GateOp("h", (1,)))  # the circuit keeps its own tuple
    assert isinstance(circuit.ops, tuple) and len(circuit.ops) == 14
    assert circuit.blocks == tuple(gate_blocks(circuit))
    for name, value in [("ops", ()), ("num_qubits", 5), ("blocks", ())]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(circuit, name, value)


@pytest.mark.parametrize("a_rows,b_rows", [(False, False), (False, True), (True, False),
                                           (True, True)])
def test_stack_mul_matches_matmul_for_every_shape_pairing(a_rows, b_rows):
    """Member-stacked rotation matrices, shared (n, 2, 2) or per row
    (n, B, 2, 2): two shared stacks are one matmul, bit for bit; a per-row
    operand is written out, within 1e-15 of ``a @ b``."""
    rng = np.random.default_rng(a_rows + 2 * b_rows)
    n, rows = 5, 7

    def stack(per_row):
        angles = rng.uniform(0, 2 * np.pi, (n, rows) if per_row else (n,))
        return gate_matrix("rot", (angles, rng.uniform(0, 2 * np.pi), angles[::-1]))

    a, b = stack(a_rows), stack(b_rows)
    out = _stack_mul(a, b)
    expected = ((a[:, None] if b_rows > a_rows else a)
                @ (b[:, None] if a_rows > b_rows else b))
    assert out.shape == expected.shape == ((n, rows, 2, 2) if a_rows or b_rows else (n, 2, 2))
    if a_rows or b_rows:
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-15)
    else:
        assert np.array_equal(out, expected)
