import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qmtl.noise as noise_module
from qmtl.circuit import (
    Circuit,
    GateOp,
    _run,
    evaluate_expectations,
    feature,
    gate_blocks,
    random_circuit,
    trainable,
)
from qmtl.errors import CapacityError
from qmtl.noise import NoiseSpec, engine, noisy_expectations
from qmtl.statevector import PauliString, pauli, zero_batch
from oracles import gate_matrix


def _ry_circuit():
    return Circuit(1, [GateOp("ry", (0,), (trainable(0),))], 1, 0)


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(p1=-0.1, p2=0.0)
    with pytest.raises(ValueError):
        NoiseSpec(p1=0.0, p2=1.5)
    with pytest.raises(ValueError):
        NoiseSpec(p1=0.1, p2=0.1, num_trajectories=0)


@pytest.mark.parametrize("count", [2.5, 3.0, True, np.float64(4.0), "4"])
def test_noise_spec_refuses_a_trajectory_count_that_is_no_integer(count):
    with pytest.raises(ValueError, match="num_trajectories"):
        NoiseSpec(p1=0.1, p2=0.1, num_trajectories=count)


def test_noise_spec_takes_a_numpy_integer_trajectory_count(monkeypatch):
    circuit = Circuit(2, [GateOp("h", (0,)), GateOp("cnot", (0, 1))], 0, 0)
    monkeypatch.setattr(noise_module, "EXACT_QUBITS", 1)  # the trajectory engine
    spec = NoiseSpec(p1=0.1, p2=0.1, num_trajectories=np.int64(30), seed=2)
    values = noisy_expectations(circuit, (), [[]], [pauli("Z0*Z1")], spec)
    assert np.array_equal(values, noisy_expectations(
        circuit, (), [[]], [pauli("Z0*Z1")], replace(spec, num_trajectories=30)))


def test_zero_noise_is_bitwise_exact():
    rng = np.random.default_rng(1)
    circuit = random_circuit(3, 15, rng)
    theta = rng.uniform(0, 2 * np.pi, circuit.num_trainable)
    observables = [pauli("Z0"), pauli("X1*Z2")]
    exact = evaluate_expectations(circuit, theta, (), observables)
    noisy = noisy_expectations(circuit, theta, [[]], observables,
                               NoiseSpec(p1=0.0, p2=0.0, num_trajectories=7))[0]
    assert np.array_equal(np.asarray(exact), np.asarray(noisy))


@pytest.mark.parametrize("p", [0.05, 0.2])
def test_depolarizing_attenuation_closed_form(p):
    # single Ry(theta) with 1q depolarizing: E[<Z>] = (1 - 4p/3) cos(theta)
    theta = 0.8
    n = 4000
    noise = NoiseSpec(p1=p, p2=0.0, num_trajectories=n, seed=42)
    (value,) = noisy_expectations(_ry_circuit(), [theta], [[]], [pauli("Z0")], noise)[0]
    expected = (1 - 4 * p / 3) * np.cos(theta)
    # each trajectory yields +-cos(theta); allow 4 binomial standard errors
    se = np.sqrt((1 - (1 - 4 * p / 3) ** 2) / n) * abs(np.cos(theta))
    assert abs(value - expected) <= 4 * se


def test_noise_deterministic_given_seed():
    noise = NoiseSpec(p1=0.1, p2=0.0, num_trajectories=50, seed=3)
    a = noisy_expectations(_ry_circuit(), [0.5], [[]], [pauli("Z0")], noise)
    b = noisy_expectations(_ry_circuit(), [0.5], [[]], [pauli("Z0")], noise)
    assert np.array_equal(a, b)


def test_two_qubit_noise_attenuates_entangled_expectation():
    circuit = Circuit(
        2, [GateOp("h", (0,)), GateOp("cnot", (0, 1))], 0, 0
    )
    obs = [pauli("Z0*Z1")]
    exact = evaluate_expectations(circuit, (), (), obs)
    assert exact[0] == pytest.approx(1.0)
    noise = NoiseSpec(p1=0.0, p2=0.3, num_trajectories=3000, seed=0)
    assert engine(circuit.num_qubits) == "density_matrix"
    (noisy,) = noisy_expectations(circuit, (), [[]], obs, noise)[0]
    # a Pauli inserted after the CNOT flips ZZ for 8 of the 15 choices, so
    # <ZZ> = 1 - 2 * 8/15 * p2 = 1 - 16 p2 / 15
    assert noisy == pytest.approx(1.0 - 16.0 * 0.3 / 15.0, rel=0, abs=1e-12)


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
    values = noisy_expectations(circuit, theta, x[None], observables,
                                NoiseSpec(p1=p1, p2=p2, num_trajectories=n, seed=5))[0]
    assert np.all(np.abs(values - oracle) <= _six_se(oracle, n)), (values, oracle)


def test_trajectory_engine_matches_density_matrix_oracle():
    circuit, theta, x, observables = _oracle_case()
    p1, p2, n = 0.02, 0.1, 2000
    oracle = _density_matrix_expectations(circuit, theta, x, observables, p1, p2)
    values = noise_module._trajectories(circuit, theta, x, observables,
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
    first = noise_module._trajectories(circuit, theta, x, observables, spec)
    assert runs == [512, 512, 512, 464]
    second = noise_module._trajectories(circuit, theta, x, observables, spec)
    assert np.array_equal(first, second)
    oracle = _density_matrix_expectations(circuit, theta, x, observables, p1, p2)
    assert np.all(np.abs(first - oracle) <= _six_se(oracle, n)), (first, oracle)


def test_trajectories_twirl_a_long_block_once_at_its_merged_fidelity(monkeypatch):
    """Five gates on qubit 0 form one block, noised by one sampled twirl of
    fidelity (1 - 4 p1 / 3)**5; the oracle twirls after every gate."""
    th = trainable
    ops = [GateOp("h", (0,)), GateOp("rx", (0,), (th(0),)), GateOp("ry", (0,), (th(1),)),
           GateOp("rz", (0,), (th(2),)), GateOp("rot", (0,), (th(3), th(1), feature(0))),
           GateOp("ry", (1,), (th(2),)), GateOp("cnot", (0, 1)),
           GateOp("rx", (1,), (feature(0),))]
    circuit = Circuit(2, ops, 4, 1)
    assert circuit.blocks[0] == (0, 1, 2, 3, 4)
    theta, x = np.array([0.3, 1.1, -0.4, 0.9]), np.array([0.2])
    observables = [pauli("Z0"), pauli("X0"), pauli("Y0*Z1"), pauli("Z1")]
    p1, p2, n = 0.2, 0.1, 4000
    spec = NoiseSpec(p1=p1, p2=p2, num_trajectories=n, seed=11)
    oracle = _density_matrix_expectations(circuit, theta, x, observables, p1, p2)
    values = noise_module._trajectories(circuit, theta, x, observables, spec)
    assert np.all(np.abs(values - oracle) <= _six_se(oracle, n)), (values, oracle)
    # control: one gate's twirl per block, the merge done wrong, is caught
    fidelity = noise_module._fidelity
    monkeypatch.setattr(noise_module, "_fidelity",
                        lambda circuit, block, p1, p2: fidelity(circuit, block[:1], p1, p2))
    wrong = noise_module._trajectories(circuit, theta, x, observables, spec)
    assert np.any(np.abs(wrong - oracle) > _six_se(oracle, n)), (wrong, oracle)


@pytest.mark.parametrize("num_qubits, chosen", [
    (1, "density_matrix"),
    (4, "density_matrix"),   # toy
    (7, "density_matrix"),   # EXACT_QUBITS
    (8, "trajectories"),
    (10, "trajectories"),    # glue-like, chexpert-like
    (13, "trajectories"),    # mustard-like
])
def test_engine_rule_picks_by_size(num_qubits, chosen):
    assert noise_module.EXACT_QUBITS == 7
    assert engine(num_qubits) == chosen


def test_noisy_expectations_runs_the_engine_the_rule_picks(monkeypatch):
    circuit, theta, x, observables = _oracle_case()
    spec = NoiseSpec(p1=0.02, p2=0.1, num_trajectories=8, seed=5)
    assert np.array_equal(
        noisy_expectations(circuit, theta, x[None], observables, spec),
        noise_module._density_matrix(circuit, theta, x[None], observables, 0.02, 0.1))
    monkeypatch.setattr(noise_module, "EXACT_QUBITS", circuit.num_qubits - 1)
    assert np.array_equal(
        noisy_expectations(circuit, theta, x[None], observables, spec)[0],
        noise_module._trajectories(circuit, theta, x, observables, spec))


def test_noisy_expectations_checks_bindings(monkeypatch):
    circuit, theta, x, observables = _oracle_case()
    noise = NoiseSpec(p1=0.01, p2=0.01, num_trajectories=8, seed=0)
    with pytest.raises(ValueError, match="trainable"):
        noisy_expectations(circuit, theta[:-1], x[None], observables, noise)
    # a 1-D row is no (B, d) matrix, on either engine and without noise
    for spec in (noise, replace(noise, p1=0.0, p2=0.0)):
        with pytest.raises(ValueError, match="input features"):
            noisy_expectations(circuit, theta, x, observables, spec)
    monkeypatch.setattr(noise_module, "EXACT_QUBITS", circuit.num_qubits - 1)
    with pytest.raises(ValueError, match="input features"):
        noisy_expectations(circuit, theta, x, observables, noise)


def _oracle_rows(rows):
    """The oracle case with ``rows`` feature rows, the first its own."""
    circuit, theta, x, observables = _oracle_case()
    more = np.random.default_rng(8).uniform(0, np.pi, (rows - 1, circuit.num_inputs))
    return circuit, theta, np.vstack([x, more]), observables


def test_batched_density_matrix_matches_row_by_row():
    circuit, theta, rows, observables = _oracle_rows(5)
    spec = NoiseSpec(p1=0.02, p2=0.1)
    batched = noisy_expectations(circuit, theta, rows, observables, spec)
    single = np.vstack([noisy_expectations(circuit, theta, row[None], observables, spec)
                        for row in rows])
    assert batched.shape == (5, len(observables))
    assert np.array_equal(batched, single)


def test_chunked_density_matrix_gives_the_unchunked_bits(monkeypatch):
    circuit, theta, rows, observables = _oracle_rows(5)
    spec = NoiseSpec(p1=0.02, p2=0.1)
    whole = noisy_expectations(circuit, theta, rows, observables, spec)
    # 2 rows of 4**Q amplitudes per chunk: two full chunks and a lone row
    monkeypatch.setattr(noise_module, "MAX_QUBITS", 2 * circuit.num_qubits + 1)
    runs = []
    original = noise_module._run

    def counting_run(*args, **kwargs):
        runs.append(args[0].shape[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(noise_module, "_run", counting_run)
    chunked = noisy_expectations(circuit, theta, rows, observables, spec)
    assert runs == [2, 2, 1]
    assert np.array_equal(chunked, whole)


def test_batched_trajectories_equal_each_row_alone(monkeypatch):
    circuit, theta, rows, observables = _oracle_rows(3)
    monkeypatch.setattr(noise_module, "EXACT_QUBITS", circuit.num_qubits - 1)
    spec = NoiseSpec(p1=0.02, p2=0.1, num_trajectories=64, seed=5)
    batched = noisy_expectations(circuit, theta, rows, observables, spec)
    assert batched.shape == (3, len(observables))
    for row, values in zip(rows, batched):
        assert np.array_equal(values,
                              noisy_expectations(circuit, theta, row[None], observables, spec)[0])


# ---------------------------------------------------------------------------
# exact engine


# f = 1 - 4 p1 / 3 and f2 = 1 - 16 p2 / 15 are 0 at p1 = 3/4, p2 = 15/16 and
# negative at p = 1
@pytest.mark.parametrize("p1, p2", [(0.02, 0.1), (0.75, 15 / 16), (1.0, 1.0), (0.75, 1.0),
                                    (1.0, 0.0)])
def test_density_matrix_engine_matches_oracle(p1, p2):
    circuit, theta, x, observables = _oracle_case()
    assert max(len(block) for block in gate_blocks(circuit)) > 1
    assert engine(circuit.num_qubits) == "density_matrix"
    oracle = _density_matrix_expectations(circuit, theta, x, observables, p1, p2)
    values = noisy_expectations(circuit, theta, x[None], observables,
                                NoiseSpec(p1=p1, p2=p2, num_trajectories=2000, seed=5))[0]
    np.testing.assert_allclose(values, oracle, rtol=0, atol=1e-12)


@pytest.mark.parametrize("nq", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("p1, p2", [(0.02, 0.1), (0.75, 15 / 16), (1.0, 1.0)])
def test_density_matrix_readout_matches_oracle_on_x_y_and_mixed_strings(nq, p1, p2):
    """The readout table's flips and phases, Y's -i (1 - 2 r_q) above all."""
    rng = np.random.default_rng(nq)
    circuit = random_circuit(nq, 25, rng, num_inputs=2)
    theta = rng.uniform(0, 2 * np.pi, circuit.num_trainable)
    rows = rng.uniform(-np.pi, np.pi, (3, 2))
    cycle = "XYZ" * nq
    observables = [PauliString({q: "X" for q in range(nq)}),
                   PauliString({q: "Y" for q in range(nq)}),
                   PauliString({q: cycle[q] for q in range(nq)}),
                   PauliString({q: cycle[q + 1] for q in range(nq)}),
                   PauliString({nq - 1: "Y"}), pauli("X0")]
    values = noisy_expectations(circuit, theta, rows, observables, NoiseSpec(p1=p1, p2=p2))
    oracles = np.array([_density_matrix_expectations(circuit, theta, row, observables, p1, p2)
                        for row in rows])
    np.testing.assert_allclose(values, oracles, rtol=0, atol=1e-12)
    if p1 < 0.5:  # a sign error on a Y phase would show
        assert np.abs(oracles[:, 1:5]).max() > 0.05


# a batch is split into chunks that fit the budget; one row above it is refused
@pytest.mark.parametrize("num_qubits, rows", [(13, 1)])
def test_density_matrix_batch_refused_before_allocation(num_qubits, rows):
    circuit = Circuit(num_qubits, [GateOp("h", (0,))], 0, 0)
    features = np.empty((rows, 0))  # no inputs: the matrix holds no bytes
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            noise_module._density_matrix(circuit, [], features, [pauli("Z0")], 0.1, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_density_matrix_engine_is_deterministic_and_exact_at_zero_noise():
    circuit, theta, x, observables = _oracle_case()
    spec = NoiseSpec(p1=0.02, p2=0.1, num_trajectories=1000)
    first = noisy_expectations(circuit, theta, x[None], observables, spec)
    again = noisy_expectations(circuit, theta, x[None], observables,
                               replace(spec, num_trajectories=4000, seed=9))
    assert np.array_equal(first, again)
    zero = replace(spec, p1=0.0, p2=0.0)
    assert np.array_equal(noisy_expectations(circuit, theta, x[None], observables, zero)[0],
                          evaluate_expectations(circuit, theta, x, observables))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), nq=st.integers(1, 4), depth=st.integers(1, 30),
       p1=st.floats(0.0, 1.0), p2=st.floats(0.0, 1.0))
def test_noisy_density_matrix_keeps_trace_one_and_stays_hermitian(seed, nq, depth, p1, p2):
    rng = np.random.default_rng(seed)
    circuit = random_circuit(nq, depth, rng, num_inputs=2)
    theta = rng.uniform(0, 2 * np.pi, circuit.num_trainable)
    rows = rng.uniform(-np.pi, np.pi, (2, 2))
    rho, _ = _run(zero_batch(2 * nq, 2), circuit, theta, rows,
                  after_block=noise_module._density_channel(circuit, p1, p2))
    dim = 1 << nq
    # amplitude r + (c << Q) is rho[r, c], so the reshape gives rho transposed
    for mat in rho.reshape(2, dim, dim):
        assert abs(np.trace(mat) - 1.0) <= 1e-12
        np.testing.assert_allclose(mat, mat.conj().T, rtol=0, atol=1e-12)
