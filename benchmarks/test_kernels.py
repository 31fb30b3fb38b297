"""Micro-benchmarks of the statevector kernels at Q = 4, 10 and 13.

Run from the repository root with

    pytest benchmarks --benchmark-only

They sit outside the test suite's ``testpaths``, so a plain ``pytest`` never
collects or times them.  Batch sizes keep B * 2**Q at or below 2**15
amplitudes (512 KB), as in a ``toy`` (Q = 4) or ``glue-like`` (Q = 10) batch.
"""

import numpy as np
import pytest

from qmtl.statevector import apply_cnot_array, apply_matrix

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
