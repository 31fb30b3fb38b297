"""Depolarizing gate noise via Pauli-twirl trajectory sampling.

Each trajectory inserts, after every single-qubit gate with probability p1,
one of {X, Y, Z} uniformly on that qubit, and after every two-qubit gate with
probability p2 one of the 15 non-identity two-qubit Paulis uniformly
(Wallman & Emerson, arXiv:1512.01098).

The trajectories run together, one per row of a (T, 2**Q) amplitude array,
through a single pass over the gates: after each gate one uniform draw per row
decides which rows are hit, and only those rows get their Pauli.  Rows are
split into chunks of at most 2**MAX_QUBITS amplitudes (one chunk for 1000
trajectories up to Q = 14).  The chunk size depends only on Q, so the
estimate is a pure function of the circuit, its bindings, the observables and
the NoiseSpec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import statevector as sv
from .circuit import Circuit, _check_bindings, _run, evaluate_expectations
from .statevector import MAX_QUBITS, PauliString


@dataclass(frozen=True)
class NoiseSpec:
    p1: float
    p2: float
    num_trajectories: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p1 <= 1.0 or not 0.0 <= self.p2 <= 1.0:
            raise ValueError("depolarizing probabilities must be in [0, 1]")
        if self.num_trajectories < 1:
            raise ValueError("num_trajectories must be >= 1")


# I, X, Y, Z; a two-qubit Pauli k in 1..15 is the pair (k >> 2, k & 3)
_PAULIS = np.stack([np.eye(2, dtype=complex)] + [sv.PAULI_MATRICES[a] for a in "XYZ"])


def noisy_expectations(
    circuit: Circuit,
    theta: Sequence[float],
    features: Sequence[float],
    observables: Sequence[PauliString],
    noise: NoiseSpec,
) -> np.ndarray:
    """Monte-Carlo average of observable expectations over noisy trajectories.

    With p1 = p2 = 0 this returns the exact noiseless expectations
    bit-for-bit (trajectories are degenerate).
    """
    if noise.p1 == 0.0 and noise.p2 == 0.0:
        return evaluate_expectations(circuit, theta, features, observables)

    theta, features = _check_bindings(circuit, theta, features)
    nq = circuit.num_qubits
    rng = np.random.default_rng(noise.seed)

    def hook(amps, op):
        """Insert a sampled Pauli after ``op`` into each row of ``amps`` that is hit."""
        cnot = op.kind == "cnot"
        p = noise.p2 if cnot else noise.p1
        if p == 0.0:
            return amps
        hit = np.flatnonzero(rng.random(len(amps)) < p)
        if not hit.size:
            return amps
        if cnot:
            pair = rng.integers(1, 16, size=hit.size)
            rows = sv.apply_matrix(amps[hit], _PAULIS[pair >> 2], op.qubits[0], nq)
            rows = sv.apply_matrix(rows, _PAULIS[pair & 3], op.qubits[1], nq)
        else:
            axis = rng.integers(1, 4, size=hit.size)
            rows = sv.apply_matrix(amps[hit], _PAULIS[axis], op.qubits[0], nq)
        amps[hit] = rows
        return amps

    chunk = max(1, (1 << MAX_QUBITS) >> nq)
    total = np.zeros(len(observables))
    for start in range(0, noise.num_trajectories, chunk):
        amps = sv.zero_batch(nq, min(chunk, noise.num_trajectories - start))
        amps = _run(amps, circuit, theta, features, noise_hook=hook)
        for i, obs in enumerate(observables):
            total[i] += sv.expectation_array(amps, obs.as_dict(), nq).sum()
    return total / noise.num_trajectories
