import itertools

import numpy as np
import pytest

import qmtl.noise as noise_module
from qmtl.circuit import Circuit, GateOp, evaluate_expectations, random_circuit, trainable
from qmtl.noise import NoiseSpec, noisy_expectations
from qmtl.statevector import gate_matrix, pauli


def _ry_circuit():
    return Circuit(1, [GateOp("ry", (0,), (trainable(0),))], 1, 0)


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(p1=-0.1, p2=0.0)
    with pytest.raises(ValueError):
        NoiseSpec(p1=0.0, p2=1.5)
    with pytest.raises(ValueError):
        NoiseSpec(p1=0.1, p2=0.1, num_trajectories=0)


def test_zero_noise_is_bitwise_exact():
    rng = np.random.default_rng(1)
    circuit = random_circuit(3, 15, rng)
    theta = rng.uniform(0, 2 * np.pi, circuit.num_trainable)
    observables = [pauli("Z0"), pauli("X1*Z2")]
    exact = evaluate_expectations(circuit, theta, (), observables)
    noisy = noisy_expectations(circuit, theta, (), observables,
                               NoiseSpec(p1=0.0, p2=0.0, num_trajectories=7))
    assert np.array_equal(np.asarray(exact), np.asarray(noisy))


@pytest.mark.parametrize("p", [0.05, 0.2])
def test_depolarizing_attenuation_closed_form(p):
    # single Ry(theta) with 1q depolarizing: E[<Z>] = (1 - 4p/3) cos(theta)
    theta = 0.8
    n = 4000
    noise = NoiseSpec(p1=p, p2=0.0, num_trajectories=n, seed=42)
    (value,) = noisy_expectations(_ry_circuit(), [theta], (), [pauli("Z0")], noise)
    expected = (1 - 4 * p / 3) * np.cos(theta)
    # each trajectory yields +-cos(theta); allow 4 binomial standard errors
    se = np.sqrt((1 - (1 - 4 * p / 3) ** 2) / n) * abs(np.cos(theta))
    assert abs(value - expected) <= 4 * se


def test_noise_deterministic_given_seed():
    noise = NoiseSpec(p1=0.1, p2=0.0, num_trajectories=50, seed=3)
    a = noisy_expectations(_ry_circuit(), [0.5], (), [pauli("Z0")], noise)
    b = noisy_expectations(_ry_circuit(), [0.5], (), [pauli("Z0")], noise)
    assert np.array_equal(a, b)


def test_two_qubit_noise_attenuates_entangled_expectation():
    circuit = Circuit(
        2, [GateOp("h", (0,)), GateOp("cnot", (0, 1))], 0, 0
    )
    obs = [pauli("Z0*Z1")]
    exact = evaluate_expectations(circuit, (), (), obs)
    assert exact[0] == pytest.approx(1.0)
    noise = NoiseSpec(p1=0.0, p2=0.3, num_trajectories=3000, seed=0)
    (noisy,) = noisy_expectations(circuit, (), (), obs, noise)
    # Pauli insertion after the CNOT flips ZZ for 8 of 15 choices:
    # E = 1 - p2 * 16/15... empirically just require clear attenuation
    assert 0.5 < noisy < 0.95


# ---------------------------------------------------------------------------
# exact oracle: dense density-matrix evolution of the same Pauli-twirl channel

_I2 = np.eye(2, dtype=complex)
_PAULI_2X2 = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _on_qubit(mat, qubit, num_qubits):
    """A 2x2 operator on one qubit of a little-endian register, as a dense matrix."""
    dim = 1 << num_qubits
    return np.kron(np.kron(np.eye(dim >> (qubit + 1)), mat), np.eye(1 << qubit))


def _cnot_dense(control, target, num_qubits):
    dim = 1 << num_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        out[i ^ (1 << target) if (i >> control) & 1 else i, i] = 1.0
    return out


def _angle(ref, theta, features):
    if ref.kind == "theta":
        return theta[ref.index]
    if ref.kind == "input":
        return features[ref.index]
    return ref.value


def _pauli_dense(terms, num_qubits):
    """Dense matrix of a product of 2x2 operators keyed by qubit."""
    out = np.eye(1 << num_qubits, dtype=complex)
    for qubit, mat in terms:
        out = out @ _on_qubit(mat, qubit, num_qubits)
    return out


def _depolarize(rho, qubits, p, num_qubits):
    """(1 - p) rho + p / (4^k - 1) * sum of P rho P over non-identity Paulis P."""
    singles = [_I2, *_PAULI_2X2.values()]
    paulis = [_pauli_dense(zip(qubits, combo), num_qubits)
              for combo in itertools.product(singles, repeat=len(qubits))]
    twirled = sum(P @ rho @ P.conj().T for P in paulis[1:])
    return (1.0 - p) * rho + p / (len(paulis) - 1) * twirled


def _density_matrix_expectations(circuit, theta, features, observables, p1, p2):
    nq = circuit.num_qubits
    rho = np.zeros((1 << nq, 1 << nq), dtype=complex)
    rho[0, 0] = 1.0
    for op in circuit.ops:
        if op.kind == "cnot":
            U = _cnot_dense(op.qubits[0], op.qubits[1], nq)
            rho = _depolarize(U @ rho @ U.conj().T, op.qubits, p2, nq)
        else:
            angles = [_angle(ref, theta, features) for ref in op.params]
            U = _on_qubit(gate_matrix(op.kind, angles), op.qubits[0], nq)
            rho = _depolarize(U @ rho @ U.conj().T, op.qubits, p1, nq)
    return np.array([
        np.real(np.trace(rho @ _pauli_dense(
            [(q, _PAULI_2X2[axis]) for q, axis in obs.terms], nq)))
        for obs in observables
    ])


def _oracle_case():
    """A 4-qubit random circuit with CNOTs, input features and shared angles."""
    rng = np.random.default_rng(4)
    circuit = random_circuit(4, 30, rng, num_trainable=5, num_inputs=3)
    refs = [ref for op in circuit.ops for ref in op.params]
    thetas = [ref.index for ref in refs if ref.kind == "theta"]
    assert any(op.kind == "cnot" for op in circuit.ops)
    assert any(ref.kind == "input" for ref in refs)
    assert len(thetas) > len(set(thetas))
    theta = rng.uniform(0, 2 * np.pi, circuit.num_trainable)
    x = rng.uniform(0, np.pi, circuit.num_inputs)
    observables = [pauli("X0"), pauli("Z3"), pauli("X1*Z2"), pauli("Y3")]
    return circuit, theta, x, observables


def _six_se(oracle, trajectories):
    return 6.0 * np.sqrt((1.0 - oracle ** 2) / trajectories)


def test_trajectories_match_density_matrix_oracle():
    circuit, theta, x, observables = _oracle_case()
    p1, p2, n = 0.02, 0.1, 2000
    oracle = _density_matrix_expectations(circuit, theta, x, observables, p1, p2)
    exact = evaluate_expectations(circuit, theta, x, observables)
    # the noise moves every value by more than the tolerance
    assert np.all(np.abs(exact - oracle) > _six_se(oracle, n))
    values = noisy_expectations(circuit, theta, x, observables,
                                NoiseSpec(p1=p1, p2=p2, num_trajectories=n, seed=5))
    assert np.all(np.abs(values - oracle) <= _six_se(oracle, n)), (values, oracle)


def test_chunked_trajectories_match_oracle_and_are_deterministic(monkeypatch):
    circuit, theta, x, observables = _oracle_case()
    p1, p2, n = 0.02, 0.1, 2000
    # 2**9 rows per chunk: three full chunks and a partial one
    monkeypatch.setattr(noise_module, "MAX_QUBITS", circuit.num_qubits + 9)
    runs = []
    original = noise_module._run

    def counting_run(*args, **kwargs):
        runs.append(args[0].shape[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(noise_module, "_run", counting_run)
    spec = NoiseSpec(p1=p1, p2=p2, num_trajectories=n, seed=5)
    first = noisy_expectations(circuit, theta, x, observables, spec)
    assert runs == [512, 512, 512, 464]
    second = noisy_expectations(circuit, theta, x, observables, spec)
    assert np.array_equal(first, second)
    oracle = _density_matrix_expectations(circuit, theta, x, observables, p1, p2)
    assert np.all(np.abs(first - oracle) <= _six_se(oracle, n)), (first, oracle)


def test_noisy_expectations_checks_bindings():
    circuit, theta, x, observables = _oracle_case()
    noise = NoiseSpec(p1=0.01, p2=0.01, num_trajectories=8, seed=0)
    with pytest.raises(ValueError, match="trainable"):
        noisy_expectations(circuit, theta[:-1], x, observables, noise)
    # one row per trajectory would otherwise broadcast along the batch axis
    rows = np.tile(x, (noise.num_trajectories, 1))
    with pytest.raises(ValueError, match="input features"):
        noisy_expectations(circuit, theta, rows, observables, noise)
