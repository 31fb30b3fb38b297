import numpy as np
import pytest

from qmtl.circuit import Circuit, GateOp
from qmtl.errors import CapacityError, GroupingError
from qmtl.statevector import (
    FIXED_GATES,
    PauliString,
    apply_cnot_array,
    apply_matrix,
    check_group,
    expectation_array,
    gate_matrix,
    pauli,
    rot_matrix,
    rx_matrix,
    ry_matrix,
    rz_matrix,
    sample_expectation,
    zero_batch,
)

_X = FIXED_GATES["x"]
_Y = FIXED_GATES["y"]
_Z = FIXED_GATES["z"]


def dense_1q(mat, qubit, num_qubits):
    """Kronecker-product embedding of a 2x2 gate (little-endian: qubit 0 is
    the least significant bit, i.e. the last kron factor)."""
    out = np.eye(1, dtype=complex)
    for q in range(num_qubits):
        out = np.kron(mat if q == qubit else np.eye(2), out)
    return out


def dense_cnot(control, target, num_qubits):
    dim = 1 << num_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        j = i ^ (1 << target) if (i >> control) & 1 else i
        out[j, i] = 1.0
    return out


def random_state(num_qubits, seed):
    """Normalised random 1-D amplitudes."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return amps / np.linalg.norm(amps)


def zero_state(num_qubits):
    return zero_batch(num_qubits, 1)[0]


def apply_gate(amps, kind, qubit, angles=()):
    return apply_matrix(amps, gate_matrix(kind, angles), qubit, amps.shape[-1].bit_length() - 1)


def expectation(amps, obs):
    return float(expectation_array(amps, obs.as_dict(), amps.shape[-1].bit_length() - 1))


def test_zero_batch_is_the_zero_state():
    amps = zero_batch(3, 2)
    assert amps.shape == (2, 8)
    assert amps.dtype == complex
    np.testing.assert_array_equal(amps[:, 0], 1.0)
    np.testing.assert_allclose(np.sum(np.abs(amps) ** 2, axis=1), 1.0)


@pytest.mark.parametrize("bad", [0, -1, 25])
def test_capacity_guard(bad):
    with pytest.raises(CapacityError):
        zero_batch(bad, 1)


def test_rotation_convention():
    # exp(-i*theta*P/2)
    theta = 0.83
    for kind, p in (("rx", _X), ("ry", _Y), ("rz", _Z)):
        expected = np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * p
        np.testing.assert_allclose(gate_matrix(kind, (theta,)), expected, atol=1e-14)


def test_rot_gate_order():
    a, b, g = 0.3, 1.1, -0.7
    expected = rz_matrix(g) @ ry_matrix(b) @ rz_matrix(a)
    np.testing.assert_allclose(rot_matrix(a, b, g), expected, atol=1e-14)


def test_gates_unitary():
    rng = np.random.default_rng(0)
    mats = [gate_matrix(k) for k in ("h", "x", "y", "z")]
    mats.append(rot_matrix(*rng.uniform(0, 2 * np.pi, 3)))
    for kind in ("rx", "ry", "rz"):
        mats.append(gate_matrix(kind, (rng.uniform(0, 2 * np.pi),)))
    for m in mats:
        np.testing.assert_allclose(m @ m.conj().T, np.eye(2), atol=1e-14)


def test_little_endian_indexing():
    # X on qubit 0 flips the least significant bit: |00> -> |01> = index 1
    np.testing.assert_allclose(apply_gate(zero_state(2), "x", 0), [0, 1, 0, 0], atol=1e-15)
    np.testing.assert_allclose(apply_gate(zero_state(2), "x", 1), [0, 0, 1, 0], atol=1e-15)


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
def test_named_gate_matches_dense_oracle(num_qubits):
    rng = np.random.default_rng(num_qubits)
    for trial in range(5):
        state = random_state(num_qubits, seed=100 * num_qubits + trial)
        kind = rng.choice(["h", "x", "y", "z", "rx", "ry", "rz", "rot"])
        if kind == "rot":
            angles = tuple(rng.uniform(0, 2 * np.pi, 3))
        elif kind in ("rx", "ry", "rz"):
            angles = (rng.uniform(0, 2 * np.pi),)
        else:
            angles = ()
        qubit = int(rng.integers(num_qubits))
        mat = gate_matrix(kind, angles)
        expected = dense_1q(mat, qubit, num_qubits) @ state
        np.testing.assert_allclose(apply_matrix(state, mat, qubit, num_qubits), expected,
                                   atol=1e-13)


@pytest.mark.parametrize("num_qubits", range(1, 8))
def test_apply_matrix_matches_dense_oracle_on_every_qubit(num_qubits):
    """Shared and per-row matrices, on a single state and on a batch."""
    rng = np.random.default_rng(20 + num_qubits)
    dim, rows = 1 << num_qubits, 3
    for qubit in range(num_qubits):
        amps = rng.normal(size=(rows, dim)) + 1j * rng.normal(size=(rows, dim))
        shared = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        per_row = rng.normal(size=(rows, 2, 2)) + 1j * rng.normal(size=(rows, 2, 2))
        dense = dense_1q(shared, qubit, num_qubits)
        single = apply_matrix(amps[0], shared, qubit, num_qubits)
        assert single.shape == (dim,)
        np.testing.assert_allclose(single, dense @ amps[0], atol=1e-12)
        batch = apply_matrix(amps, shared, qubit, num_qubits)
        assert batch.shape == (rows, dim)
        np.testing.assert_allclose(batch, amps @ dense.T, atol=1e-12)
        expected = np.stack([dense_1q(per_row[b], qubit, num_qubits) @ amps[b]
                             for b in range(rows)])
        np.testing.assert_allclose(apply_matrix(amps, per_row, qubit, num_qubits),
                                   expected, atol=1e-12)


def test_apply_cnot_matches_dense_oracle():
    rng = np.random.default_rng(7)
    for trial in range(10):
        num_qubits = int(rng.integers(2, 5))
        state = random_state(num_qubits, seed=trial)
        control = int(rng.integers(num_qubits))
        target = int(rng.integers(num_qubits - 1))
        target += target >= control
        expected = dense_cnot(control, target, num_qubits) @ state
        np.testing.assert_allclose(apply_cnot_array(state, control, target, num_qubits),
                                   expected, atol=1e-14)


@pytest.mark.parametrize("num_qubits", range(2, 8))
def test_apply_cnot_matches_dense_oracle_on_every_pair(num_qubits):
    """Every (control, target) pair, on a single state and on a batch; the
    result is a C-ordered new array and the input is left as it was."""
    rng = np.random.default_rng(40 + num_qubits)
    dim, rows = 1 << num_qubits, 3
    for control in range(num_qubits):
        for target in range(num_qubits):
            if control == target:
                continue
            amps = rng.normal(size=(rows, dim)) + 1j * rng.normal(size=(rows, dim))
            before = amps.copy()
            dense = dense_cnot(control, target, num_qubits)
            single = apply_cnot_array(amps[0], control, target, num_qubits)
            batch = apply_cnot_array(amps, control, target, num_qubits)
            np.testing.assert_array_equal(single, dense @ amps[0])
            np.testing.assert_array_equal(batch, amps @ dense.T)
            for out in (single, batch):
                assert out.flags.c_contiguous
            np.testing.assert_array_equal(amps, before)


def test_cnot_validation():
    with pytest.raises(ValueError):
        GateOp("cnot", (1, 1))
    with pytest.raises(ValueError):
        Circuit(2, [GateOp("cnot", (0, 2))])


def test_expectation_known_values():
    state = zero_state(2)
    assert expectation(state, pauli("Z0")) == pytest.approx(1.0)
    state = apply_gate(state, "h", 0)
    assert expectation(state, pauli("X0")) == pytest.approx(1.0)
    assert expectation(state, pauli("Z0")) == pytest.approx(0.0, abs=1e-15)


def test_expectation_matches_dense_oracle():
    rng = np.random.default_rng(3)
    for trial in range(10):
        num_qubits = int(rng.integers(1, 5))
        state = random_state(num_qubits, seed=50 + trial)
        terms = {}
        for q in range(num_qubits):
            if rng.random() < 0.6:
                terms[q] = str(rng.choice(["X", "Y", "Z"]))
        if not terms:
            terms[0] = "Z"
        obs = PauliString(terms)
        dense = np.eye(1, dtype=complex)
        for q in range(num_qubits):
            m = FIXED_GATES[terms[q].lower()] if q in terms else np.eye(2)
            dense = np.kron(m, dense)
        expected = np.real(state.conj() @ dense @ state)
        value = expectation(state, obs)
        assert value == pytest.approx(expected, abs=1e-13)
        assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12


def test_pauli_string_parse_and_str():
    obs = pauli("X0*Z2")
    assert obs.as_dict() == {0: "X", 2: "Z"}
    assert str(obs) == "X0*Z2"
    assert obs.qubits == (0, 2)
    assert obs.max_qubit() == 2


def test_pauli_string_validation():
    with pytest.raises(ValueError):
        PauliString({})
    with pytest.raises(ValueError):
        PauliString({0: "Q"})
    with pytest.raises(ValueError):
        PauliString({-1: "Z"})


def test_pauli_remap():
    obs = pauli("Z0*X1").remap([2, 3])
    assert obs.as_dict() == {2: "Z", 3: "X"}


def test_qubit_wise_commutes():
    assert pauli("Z0").qubit_wise_commutes(pauli("Z1"))
    assert pauli("Z0").qubit_wise_commutes(pauli("Z0*Z1"))
    assert not pauli("Z0").qubit_wise_commutes(pauli("X0*X1"))


def test_check_group():
    check_group([pauli("Z0"), pauli("Z1"), pauli("Z0*Z1")])
    with pytest.raises(GroupingError):
        check_group([pauli("Z0"), pauli("X0")])


def test_sample_expectation_converges():
    state = apply_cnot_array(apply_gate(zero_state(2), "ry", 0, (0.9,)), 0, 1, 2)
    group = [pauli("Z0"), pauli("Z1"), pauli("Z0*Z1")]
    estimates = sample_expectation(state, group, shots=200_000, seed=5)
    for obs, est in zip(group, estimates):
        assert est == pytest.approx(expectation(state, obs), abs=0.01)


def test_sample_expectation_x_basis():
    state = apply_gate(zero_state(1), "h", 0)
    (est,) = sample_expectation(state, [pauli("X0")], shots=100, seed=0)
    assert est == pytest.approx(1.0)


def test_sample_expectation_y_basis():
    # Rx(-pi/2)|0> = |+i>, the +1 eigenstate of Y: every shot reads +1
    state = apply_gate(zero_state(1), "rx", 0, (-np.pi / 2,))
    (est,) = sample_expectation(state, [pauli("Y0")], shots=100, seed=0)
    assert est == 1.0


def test_sample_expectation_mixed_basis_group():
    state = random_state(3, seed=11)
    group = [pauli("X0*Y1"), pauli("Z2")]
    shots = 200_000
    estimates = sample_expectation(state, group, shots=shots, seed=2)
    for obs, est in zip(group, estimates):
        exact = expectation(state, obs)
        assert abs(exact) < 0.9  # keeps the binomial SE away from zero
        se = np.sqrt((1.0 - exact ** 2) / shots)
        assert abs(est - exact) < 6 * se


def test_sample_expectation_deterministic():
    state = apply_gate(zero_state(2), "ry", 0, (1.2,))
    a = sample_expectation(state, [pauli("Z0")], shots=500, seed=3)
    b = sample_expectation(state, [pauli("Z0")], shots=500, seed=3)
    assert a == b


def test_sample_expectation_refuses_bad_input():
    state = zero_state(2)
    with pytest.raises(ValueError):
        sample_expectation(state, [pauli("Z0")], shots=0, seed=0)
    with pytest.raises(GroupingError):
        sample_expectation(state, [pauli("Z0"), pauli("X0")], shots=10, seed=0)
    with pytest.raises(IndexError):
        sample_expectation(state, [pauli("Z0"), pauli("Z0*Z2")], shots=10, seed=0)
