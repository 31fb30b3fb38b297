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
  amplitudes.  A block U on qubit q is U on bit q (``circuit._run``), then
  conj(U) on bit q + Q, one matmul over the contiguous bits below it, then
  the twirl in place: it scales rho by f and adds to the entries whose row
  and column bits of q agree (``_depolarize``).  Tr(P rho) of every
  observable P comes from one gather of 2**Q entries per observable, from
  a table worked out once per register size and observable list
  (``_readout``).  The result does not depend on the trajectory count or
  the seed.
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

import functools
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
        if (not isinstance(self.num_trajectories, (int, np.integer))
                or isinstance(self.num_trajectories, bool)):
            raise ValueError(f"num_trajectories must be an integer, "
                             f"got {self.num_trajectories!r}")
        if self.num_trajectories < 1:
            raise ValueError("num_trajectories must be >= 1")


# I, X, Y, Z; a Pauli k in 1..4**n - 1 on n qubits has one base-4 digit per
# qubit, the last qubit's lowest: on two, the pair (k >> 2, k & 3)
_PAULIS = np.stack([np.eye(2, dtype=complex)] + [sv.PAULI_MATRICES[a] for a in "XYZ"])


# rho's 4**Q amplitudes against T trajectories of 2**Q, timed per row of a
# glue-like register (3 entangling layers, one BLAS thread): the exact engine
# is at least 2x faster than 500 trajectories up to Q = 7, 1.3x faster at
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
    amplitudes, in place: the uniform twirl on k qubits, with f = 1 - 4**k p
    / (4**k - 1).  It adds to rho's diagonal blocks on the qubits (row bits
    = column bits, ``_diagonals``) and scales the rest."""
    shape, indices = _diagonals(qubits, num_qubits)
    v = rho.reshape(rho.shape[:-1] + shape)
    diagonals = [v[index] for index in indices]
    mixed = (1.0 - f) / len(diagonals) * sum(diagonals)
    v *= f
    for diagonal in diagonals:
        diagonal += mixed
    return v.reshape(rho.shape)


@functools.lru_cache(maxsize=256)
def _diagonals(qubits: tuple, num_qubits: int) -> tuple:
    """``(shape, indices)``: a view shape of 2Q-qubit amplitudes with an axis
    of 2 for each row bit q and column bit q + Q of ``qubits`` and one for
    each run of other bits, and per setting of the qubits' bits the index of
    the entries whose row and column bits both take it."""
    marked = sorted([*qubits, *(q + num_qubits for q in qubits)], reverse=True)
    shape, top = [], 2 * num_qubits
    for bit in marked:
        shape += [1 << (top - bit - 1), 2]
        top = bit
    shape.append(1 << top)
    axis = {bit: 2 * i + 1 for i, bit in enumerate(marked)}
    indices = []
    for bits in itertools.product((0, 1), repeat=len(qubits)):
        index = [slice(None)] * len(shape)
        for q, bit in zip(qubits, bits):
            index[axis[q]] = index[axis[q + num_qubits]] = bit
        indices.append((Ellipsis, *index))
    return tuple(shape), tuple(indices)


def _fidelity(circuit: Circuit, block: tuple, p1: float, p2: float) -> float:
    """The fidelity f of a block's twirl: f2 = 1 - 16 p2 / 15 for a CNOT,
    (1 - 4 p1 / 3)**k for a 1-qubit block of k gates."""
    if circuit.ops[block[0]].kind == "cnot":
        return 1.0 - 16.0 * p2 / 15.0
    return (1.0 - 4.0 * p1 / 3.0) ** len(block)


def _density_channel(circuit: Circuit, p1: float, p2: float):
    """``_run``'s ``after_block`` for rho: a block's column half, then its
    twirl (``_depolarize``).  A 1-qubit block's column half, conj(U) on
    column bit q + Q, is one matmul, as the bits below that bit are
    contiguous; a CNOT's is a swap on the column bits.

    Column half and twirl as one 4x4 map on the bit pair (q + Q, q) would
    need two transposing copies of rho, one each way: per row of a
    glue-like-shaped register that was no faster at Q = 4 and took 1.8x as
    long at Q = 7 (one BLAS thread)."""
    nq = circuit.num_qubits
    fidelity = {block: _fidelity(circuit, block, p1, p2) for block in circuit.blocks}

    def after_block(rho, block, mat):
        qubits = circuit.ops[block[0]].qubits
        if mat is None:
            rho = sv.apply_cnot_array(rho, qubits[0] + nq, qubits[1] + nq, 2 * nq)
        else:
            left = np.conj(mat) if mat.ndim == 2 else np.conj(mat)[:, None]
            columns = rho.reshape(len(rho), -1, 2, 1 << (qubits[0] + nq))
            rho = (left @ columns).reshape(rho.shape)
        f = fidelity[block]
        return rho if f == 1.0 else _depolarize(rho, qubits, f, nq)

    return after_block


@functools.lru_cache(maxsize=64)
def _readout(num_qubits: int, observables: tuple) -> tuple:
    """``(index, phase)``, each (n_obs, 2**Q), such that Tr(P rho) = sum_r
    phase[o, r] rho[index[o, r]] for observable o = P: the amplitude of
    rho[r ^ flip_P, r], where flip_P has the bits of P's X and Y factors,
    and P's entry there, a product of 1 - 2 r_q per Z factor and
    -i (1 - 2 r_q) per Y factor."""
    r = np.arange(1 << num_qubits)
    index = np.empty((len(observables), len(r)), dtype=np.intp)
    phase = np.ones((len(observables), len(r)), dtype=complex)
    for o, obs in enumerate(observables):
        flip = 0
        for q, axis in obs.terms:
            sign = 1 - 2 * ((r >> q) & 1)
            if axis != "Z":
                flip |= 1 << q
            if axis == "Z":
                phase[o] *= sign
            elif axis == "Y":
                phase[o] *= -1j * sign
        index[o] = (r ^ flip) + (r << num_qubits)
    # every call with these observables gets these arrays
    index.flags.writeable = phase.flags.writeable = False
    return index, phase


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
    index, phase = _readout(nq, tuple(observables))
    out = np.empty((len(features), len(observables)))
    for start in range(0, len(features), chunk):
        rows = features[start:start + chunk]
        rho, _ = _run(sv.zero_batch(2 * nq, len(rows)), circuit, theta, rows,
                      after_block=channel)
        # take is C-ordered, so a row's sum does not depend on how many rows
        # share the chunk
        out[start:start + len(rows)] = np.real((np.take(rho, index, axis=-1) * phase).sum(-1))
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

    def hook(amps, block, mat):
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
        amps, _ = _run(amps, circuit, theta, features, after_block=hook)
        for i, obs in enumerate(observables):
            total[i] += sv.expectation_array(amps, obs.as_dict(), nq).sum()
    return total / noise.num_trajectories
