"""Micro-benchmarks of the statevector kernels at Q = 4, 10 and 13, of
per-row matrices at Q = 6 and 7, either side of the width up to which
``apply_matrix`` writes them out, of one noisy block on a density matrix at
Q = 4 and 10, of shot sampling at Q = 4 and 10, and of one training step's
circuit gradient (``loss_gradient``), its reverse sweep alone
(``adjoint_reverse``) and the build of every block matrix of its run
(``circuit._block_matrices``) on a ``toy`` and a ``glue-like`` batch.

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
A noisy 1-qubit block is one 2x2 pass on its row bit, one on its column
bit and a depolarizing update; a CNOT is two swaps and a depolarizing
update.
The gradient cases take the ``toy`` preset's first 64 training rows with
every task, and the first 32 labeled ``glue-like`` rows of its first task,
shaped like the one-task batch of a ``task_sampled`` step; the reverse
sweep cases time ``adjoint_reverse`` from one recorded forward run of that
batch.
"""

import numpy as np
import pytest

from qmtl import cli
from qmtl.circuit import Circuit, GateOp, _block_matrices, _run, const
from qmtl.data import gen_synthetic
from qmtl.gradients import adjoint_reverse, loss_gradient
from qmtl.losses import MISSING
from qmtl.noise import _density_channel
from qmtl.presets import get_preset
from qmtl.statevector import (
    apply_cnot_array,
    apply_matrix,
    pauli,
    sample_expectation,
    zero_batch,
)

# (Q, B): qubits and rows
SIZES = [(4, 64), (10, 32), (13, 4)]
# per-row matrices only, either side of statevector._WRITTEN_OUT_QUBITS
PER_ROW_SIZES = [(6, 64), (7, 64)]


def _amps(num_qubits, rows, rng):
    dim = 1 << num_qubits
    return rng.normal(size=(rows, dim)) + 1j * rng.normal(size=(rows, dim))


def _matrix_cases():
    for nq, rows in SIZES + PER_ROW_SIZES:
        for qubit in sorted({0, 1, nq // 2, nq - 1}):
            for kind in ("shared", "per_row") if (nq, rows) in SIZES else ("per_row",):
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
    out, _ = benchmark(_run, rho, circuit, np.empty(0), np.empty((1, 0)),
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


GRADIENT_BATCHES = pytest.mark.parametrize(
    "preset,rows,one_task", [("toy", 64, False), ("glue-like", 32, True)],
    ids=["toy-B64", "glue-like-B32"])


def _gradient_batch(preset, rows, one_task):
    """(head model, task specs, batch) of a ``toy`` or ``glue-like`` step."""
    config = get_preset(preset)
    specs = cli.task_specs_from(config)
    train_data, _ = gen_synthetic(cli.data_spec_from(config, specs))
    model = cli.head_model_from(config, specs)
    if one_task:
        specs = specs[:1]
        labeled = np.flatnonzero(np.asarray(train_data.labels[specs[0].name]) != MISSING)
        return model, specs, train_data.subset(labeled[:rows])
    return model, specs, train_data.subset(np.arange(rows))


@GRADIENT_BATCHES
def test_loss_gradient(benchmark, preset, rows, one_task):
    model, specs, batch = _gradient_batch(preset, rows, one_task)
    params = model.init_params(0)
    _, grad = benchmark(loss_gradient, model, params, batch.features, batch.labels, specs)
    assert grad.shape == params.shape and np.all(np.isfinite(grad))


@GRADIENT_BATCHES
def test_adjoint_reverse(benchmark, preset, rows, one_task):
    model, _, batch = _gradient_batch(preset, rows, one_task)
    _, run = model.forward_state(model.init_params(0), batch.features)
    weights = np.random.default_rng(0).normal(size=run.raw.shape)
    dtheta, dinputs = benchmark(adjoint_reverse, model.model.circuit, run, weights)
    assert dtheta.shape == (model.model.circuit.num_trainable,)
    assert np.all(np.isfinite(dtheta)) and dinputs.shape == batch.features.shape


@GRADIENT_BATCHES
def test_block_matrices(benchmark, preset, rows, one_task):
    """Every block and factor matrix of one forward run, from the circuit's
    plan."""
    model, _, batch = _gradient_batch(preset, rows, one_task)
    circuit = model.model.circuit
    theta = model.init_params(0)[: model.model.num_circuit_params]
    matrices = benchmark(_block_matrices, circuit, theta, batch.features)
    assert len(matrices) == len(circuit.plan.groups)
    for (fused, _), group in zip(matrices, circuit.plan.groups):
        assert len(fused) == len(group.members) and np.all(np.isfinite(fused))
