"""Micro-benchmarks of the statevector kernels at Q = 4, 10 and 13, of
one noisy block on a density matrix at Q = 4 and 10, and of shot sampling
at Q = 4 and 10.

Run from the repository root with

    pytest benchmarks --benchmark-only

or, to run each case once as a smoke test without timing it,

    pytest benchmarks --benchmark-disable

They sit outside the test suite's ``testpaths``, so a plain ``pytest`` never
collects or times them.  Batch sizes keep B * 2**Q at or below 2**15
amplitudes (512 KB), as in a ``toy`` (Q = 4) or ``glue-like`` (Q = 10) batch.
A density matrix is one row of 4**Q amplitudes, as the exact noise engine
stores each feature row's.  Shot sampling draws 4096 shots of one state's
1-D amplitudes, as ``model.forward`` does per row and commuting group.
"""

import numpy as np
import pytest

from qmtl.circuit import Circuit, GateOp, _run, const
from qmtl.noise import _density_channel
from qmtl.statevector import (
    apply_cnot_array,
    apply_matrix,
    pauli,
    sample_expectation,
    zero_batch,
)

# (Q, B): qubits and rows
SIZES = [(4, 64), (10, 32), (13, 4)]


def _amps(num_qubits, rows, rng):
    dim = 1 << num_qubits
    return rng.normal(size=(rows, dim)) + 1j * rng.normal(size=(rows, dim))


def _matrix_cases():
    for nq, rows in SIZES:
        for qubit in sorted({0, 1, nq // 2, nq - 1}):
            for kind in ("shared", "per_row"):
                yield pytest.param(nq, rows, qubit, kind, id=f"Q{nq}-B{rows}-q{qubit}-{kind}")


@pytest.mark.parametrize("nq,rows,qubit,kind", list(_matrix_cases()))
def test_apply_matrix(benchmark, nq, rows, qubit, kind):
    rng = np.random.default_rng(0)
    amps = _amps(nq, rows, rng)
    shape = (2, 2) if kind == "shared" else (rows, 2, 2)
    mat = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    out = benchmark(apply_matrix, amps, mat, qubit, nq)
    assert out.shape == amps.shape


@pytest.mark.parametrize("nq,rows", SIZES, ids=[f"Q{nq}-B{rows}" for nq, rows in SIZES])
def test_apply_cnot_array(benchmark, nq, rows):
    amps = _amps(nq, rows, np.random.default_rng(0))
    out = benchmark(apply_cnot_array, amps, 0, nq - 1, nq)
    assert out.shape == amps.shape


DENSITY_QUBITS = (4, 10)


def _density_cases():
    for nq in DENSITY_QUBITS:
        for qubit in (0, nq - 1):
            yield pytest.param(nq, GateOp("ry", (qubit,), (const(0.3),)),
                               id=f"Q{nq}-ry-q{qubit}")
        yield pytest.param(nq, GateOp("cnot", (0, nq - 1)), id=f"Q{nq}-cnot")


@pytest.mark.parametrize("nq,op", list(_density_cases()))
def test_density_matrix_block(benchmark, nq, op):
    """One gate block under p1 = p2 = 0.01 on a one-row rho, through
    ``circuit._run`` with ``noise._density_channel``."""
    circuit = Circuit(nq, [op])
    rho = zero_batch(2 * nq, 1)
    out = benchmark(_run, rho, circuit, np.empty(0), np.empty(0),
                    after_block=_density_channel(circuit, 0.01, 0.01))
    assert out.shape == rho.shape
    assert np.real(out[0, ::(1 << nq) + 1].sum()) == pytest.approx(1.0)


SHOTS = 4096


@pytest.mark.parametrize("nq", (4, 10), ids=["Q4", "Q10"])
def test_sample_expectation(benchmark, nq):
    """The all-Z group of ``toy`` (Q = 4) and ``glue-like`` (Q = 10), the
    first commuting group each row samples."""
    amps = _amps(nq, 1, np.random.default_rng(0))[0]
    amps /= np.linalg.norm(amps)
    group = [pauli(f"Z{q}") for q in range(nq)]
    out = benchmark(sample_expectation, amps, group, SHOTS, 0)
    assert len(out) == nq
    assert all(-1.0 <= est <= 1.0 for est in out)
