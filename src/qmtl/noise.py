"""Depolarizing gate noise: the Pauli-twirl channel, exact or sampled.

The channel follows every single-qubit gate with, at probability p1, one of
{X, Y, Z} uniformly on that qubit, and every CNOT with, at probability p2,
one of the 15 non-identity two-qubit Paulis uniformly (Wallman & Emerson,
arXiv:1512.01098).  As the twirl commutes with every unitary on its qubits,
the noise of a block of ``circuit.blocks`` is one twirl after it, of
fidelity f (``_fidelity``).  Two engines estimate its expectations, and
``engine`` picks one from the register size Q alone:

* ``"density_matrix"``, when Q <= EXACT_QUBITS: the exact channel, with the
  density matrix rho of each row stored as 2Q-qubit amplitudes (row bits
  0..Q-1, column bits Q..2Q-1) and run through ``circuit.blocks`` as a
  state, all rows in one pass, in chunks of at most 2**MAX_QUBITS
  amplitudes.  A block U on qubit q is U on bit q and conj(U) on bit q + Q,
  then one depolarizing update.  The result does not depend on the
  trajectory count or the seed.
* ``"trajectories"`` otherwise: per feature row, T Monte-Carlo trajectories,
  one per row of a (T, 2**Q) amplitude array, run together through one pass
  over ``circuit.blocks``, from the same seed for every feature row.  After
  each block on n qubits one uniform draw per row hits it at the rate
  (1 - f)(1 - 4**-n), and only the rows hit get a Pauli, uniform among the
  4**n - 1 non-identity ones.  Rows are split into chunks of at most
  2**MAX_QUBITS amplitudes, a size that depends only on Q, so the estimate
  is a pure function of the circuit, its bindings, the observables and the
  NoiseSpec.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import statevector as sv
from .circuit import Circuit, _run, bind, run_batch
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


# I, X, Y, Z; a Pauli k in 1..4**n - 1 on n qubits has one base-4 digit per
# qubit, the last qubit's lowest: on two, the pair (k >> 2, k & 3)
_PAULIS = np.stack([np.eye(2, dtype=complex)] + [sv.PAULI_MATRICES[a] for a in "XYZ"])


# rho's 4**Q amplitudes against T trajectories of 2**Q, timed per row of a
# glue-like register (3 entangling layers, one BLAS thread): the exact engine
# is at least 2x faster than 500 trajectories up to Q = 7, about as fast at
# Q = 8 and slower from Q = 9 on, as its cost grows 4x per qubit and theirs 2x
EXACT_QUBITS = 7


def engine(num_qubits: int) -> str:
    """``"density_matrix"`` for registers of at most EXACT_QUBITS qubits,
    else ``"trajectories"``."""
    return "density_matrix" if num_qubits <= EXACT_QUBITS else "trajectories"


def noisy_expectations(
    circuit: Circuit,
    theta: Sequence[float],
    features: np.ndarray,
    observables: Sequence[PauliString],
    noise: NoiseSpec,
) -> np.ndarray:
    """Observable expectations under the noise channel, one row per row of
    the (B, num_inputs) feature matrix: (B, n_obs), from the engine that
    ``engine`` picks.  Each row gets the bits it gets alone: the exact engine
    runs every row in one pass, the trajectory engine one row after another.

    With p1 = p2 = 0 this returns the exact noiseless expectations
    bit-for-bit.
    """
    if noise.p1 == 0.0 and noise.p2 == 0.0:
        return run_batch(circuit, theta, features, observables).raw
    theta, features = bind(circuit, theta, features, observables)
    if engine(circuit.num_qubits) == "density_matrix":
        return _density_matrix(circuit, theta, features, observables, noise.p1, noise.p2)
    return np.reshape([_trajectories(circuit, theta, row, observables, noise)
                       for row in features], (len(features), len(observables)))


# ---------------------------------------------------------------------------
# exact engine


def _depolarize(rho: np.ndarray, qubits: tuple, f: float, num_qubits: int) -> np.ndarray:
    """rho -> f rho + (1 - f) I/2**k (x) Tr_qubits rho on each row of 2Q-qubit
    amplitudes: the uniform twirl on k qubits, with f = 1 - 4**k p / (4**k - 1)."""
    v = rho.reshape(rho.shape[:-1] + (2,) * (2 * num_qubits))
    # axis of amplitude bit b is last - b: row bit q, column bit q + Q
    last = v.ndim - 1
    diagonals = []
    for bits in itertools.product((0, 1), repeat=len(qubits)):
        index = [slice(None)] * v.ndim
        for q, bit in zip(qubits, bits):
            index[last - q] = index[last - q - num_qubits] = bit
        diagonals.append(v[tuple(index)])
    mixed = (1.0 - f) / len(diagonals) * sum(diagonals)
    v *= f
    for diagonal in diagonals:
        diagonal += mixed
    return v.reshape(rho.shape)


def _fidelity(circuit: Circuit, block: tuple, p1: float, p2: float) -> float:
    """The fidelity f of a block's twirl: f2 = 1 - 16 p2 / 15 for a CNOT,
    (1 - 4 p1 / 3)**k for a 1-qubit block of k gates."""
    if circuit.ops[block[0]].kind == "cnot":
        return 1.0 - 16.0 * p2 / 15.0
    return (1.0 - 4.0 * p1 / 3.0) ** len(block)


def _density_channel(circuit: Circuit, p1: float, p2: float):
    """``_run``'s ``after_block`` for rho: a block's column half (conj(U) on the
    column bits) and its depolarizing update."""
    nq = circuit.num_qubits
    fidelity = {block: _fidelity(circuit, block, p1, p2) for block in circuit.blocks}

    def after_block(rho, block, recorded):
        qubits = circuit.ops[block[0]].qubits
        if recorded is None:
            rho = sv.apply_cnot_array(rho, qubits[0] + nq, qubits[1] + nq, 2 * nq)
        else:
            rho = sv.apply_matrix(rho, np.conj(recorded[0]), qubits[0] + nq, 2 * nq)
        f = fidelity[block]
        return rho if f == 1.0 else _depolarize(rho, qubits, f, nq)

    return after_block


def _density_matrix(
    circuit: Circuit,
    theta: np.ndarray,
    features: np.ndarray,
    observables: Sequence[PauliString],
    p1: float,
    p2: float,
) -> np.ndarray:
    """Exact expectations for each row of a bound (B, d) feature matrix:
    (B, n_obs), from one ``_run`` per chunk of 2**MAX_QUBITS amplitudes."""
    nq = circuit.num_qubits
    channel = _density_channel(circuit, p1, p2)
    chunk = max(1, (1 << MAX_QUBITS) >> (2 * nq))
    # Tr(P rho): the diagonal r = c, amplitude r + (c << Q), of P on the row bits
    diagonal = np.arange(1 << nq) * ((1 << nq) + 1)
    out = np.empty((len(features), len(observables)))
    for start in range(0, len(features), chunk):
        rows = features[start:start + chunk]
        rho = _run(sv.zero_batch(2 * nq, len(rows)), circuit, theta, rows, after_block=channel)
        for i, obs in enumerate(observables):
            acted = sv.apply_pauli_string(rho, obs.as_dict(), 2 * nq)
            # take, unlike acted[:, diagonal], is C-ordered, so a row's sum does
            # not depend on how many rows share the chunk
            out[start:start + len(rows), i] = np.real(
                np.take(acted, diagonal, axis=-1).sum(axis=-1))
    return out


# ---------------------------------------------------------------------------
# trajectory engine


def _trajectories(
    circuit: Circuit,
    theta: np.ndarray,
    features: np.ndarray,
    observables: Sequence[PauliString],
    noise: NoiseSpec,
) -> np.ndarray:
    """Monte-Carlo average of the expectations of one bound (d,) feature row
    over ``noise.num_trajectories`` trajectories drawn from ``noise.seed``,
    one sampled twirl per block of ``circuit.blocks``."""
    nq = circuit.num_qubits
    rng = np.random.default_rng(noise.seed)

    def hook(amps, block, recorded):
        """Insert a sampled Pauli after the block into each row of ``amps`` that is hit."""
        qubits = circuit.ops[block[0]].qubits
        # the rate at which the block's twirl applies a non-identity Pauli
        p = (1.0 - _fidelity(circuit, block, noise.p1, noise.p2)) * (1.0 - 4.0 ** -len(qubits))
        if p == 0.0:
            return amps
        hit = np.flatnonzero(rng.random(len(amps)) < p)
        if not hit.size:
            return amps
        paulis = rng.integers(1, 4 ** len(qubits), size=hit.size)
        rows = amps[hit]
        for qubit in reversed(qubits):
            rows = sv.apply_matrix(rows, _PAULIS[paulis & 3], qubit, nq)
            paulis >>= 2
        amps[hit] = rows
        return amps

    chunk = max(1, (1 << MAX_QUBITS) >> nq)
    total = np.zeros(len(observables))
    for start in range(0, noise.num_trajectories, chunk):
        amps = sv.zero_batch(nq, min(chunk, noise.num_trajectories - start))
        amps = _run(amps, circuit, theta, features, after_block=hook)
        for i, obs in enumerate(observables):
            total[i] += sv.expectation_array(amps, obs.as_dict(), nq).sum()
    return total / noise.num_trajectories
