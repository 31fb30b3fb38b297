"""Circuit gradients: the adjoint-state vector-Jacobian product that training
uses, and the independent oracles that check it.

Training differentiates the circuit by the adjoint method, with one circuit
run per step: the forward that gives the logits (``circuit.run_batch``)
keeps its final state, and each fused gate block's matrix with the matrix
of every gate factor in it (``circuit.blocks``, ``circuit.FACTORS``),
stacked per signature group of ``circuit.plan``, and
``adjoint_reverse`` sweeps back from it, un-computing the state one block at
a time with the recorded U^dagger, so its cost does not grow with the number
of parameters.  Within a block the sweep carries one (B, 2, 2) cross matrix
of the adjoint and forward states back through the block's recorded factor
matrices, reading each angle's derivative off two of its entries; it builds
no matrix of its own; it starts from lambda = sum_o w_o P_o|psi>, read off
``statevector.pauli_table``.  ``adjoint_vjp`` is the two composed, for a bare
circuit.  The parameter-shift Jacobians (exact for Pauli rotations, and
runnable on hardware) and central finite differences stay as oracles for
``qmtl gradcheck`` and the tests.  A shift Jacobian runs, per gate
occurrence, a copy of the circuit with that angle shifted (``_shifted``),
split into the same ``circuit.FACTORS`` factors.

A trainable index referenced by m gate occurrences is differentiated by
summing over its occurrences (product rule); parameter reuse in the shared
encoder makes this the general case.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import statevector as sv
from .circuit import (
    FACTORS,
    Circuit,
    CircuitRun,
    GateOp,
    const,
    evaluate_expectations,
    run_batch,
)
from .errors import DegenerateBatchError
from .statevector import PauliString

SHIFT = np.pi / 2.0


def _occurrences(circuit: Circuit, kind: str) -> list:
    """Per parameter index, the list of (op_index, slot) gate occurrences."""
    size = circuit.num_trainable if kind == "theta" else circuit.num_inputs
    occ = [[] for _ in range(size)]
    for op_idx, op in enumerate(circuit.ops):
        for slot, ref in enumerate(op.params):
            if ref.kind == kind:
                occ[ref.index].append((op_idx, slot))
    return occ


def _shifted(circuit: Circuit, op_idx: int, slot: int, delta: float) -> Circuit:
    """A copy of ``circuit`` with the angle of one gate occurrence, slot
    ``slot`` of op ``op_idx``, shifted by ``delta``.

    The op is split into its Pauli rotations (``FACTORS``, with the same
    ParamRefs), and a ``const(delta)`` rotation about the same axis follows
    the factor of that slot; R_P(delta) R_P(a) = R_P(a + delta).
    """
    op = circuit.ops[op_idx]
    split = []
    for kind, _, factor_slot in FACTORS[op.kind]:
        split.append(GateOp(kind, op.qubits, (op.params[factor_slot],)))
        if factor_slot == slot:
            split.append(GateOp(kind, op.qubits, (const(delta),)))
    ops = [*circuit.ops[:op_idx], *split, *circuit.ops[op_idx + 1:]]
    return Circuit(circuit.num_qubits, ops, circuit.num_trainable, circuit.num_inputs)


def _shift_jacobian(circuit, theta, features, observables, kind, shift):
    """(B, n_obs, n) shift-rule Jacobian over a (B, d) feature matrix: per
    gate occurrence, the half difference of two runs of a ``_shifted`` copy
    of the circuit, at +shift and -shift."""
    occ = _occurrences(circuit, kind)
    jac = np.zeros((len(features), len(observables), len(occ)))
    for index, places in enumerate(occ):
        for op_idx, slot in places:
            plus = run_batch(_shifted(circuit, op_idx, slot, shift),
                             theta, features, observables).raw
            minus = run_batch(_shifted(circuit, op_idx, slot, -shift),
                              theta, features, observables).raw
            jac[..., index] += (plus - minus) / 2.0
    return jac


def param_shift_jacobian_batch(
    circuit: Circuit,
    theta: Sequence[float],
    features: np.ndarray,
    observables: Sequence[PauliString],
    shift: float = SHIFT,
) -> np.ndarray:
    """d<O_i>/d theta_j over a (B, d) feature matrix, (B, n_obs, n_theta),
    exact for Pauli-generated rotations.  ``shift`` is a verification hook;
    anything other than pi/2 deliberately breaks exactness."""
    return _shift_jacobian(circuit, theta, features, observables, "theta", shift)


def finite_diff_jacobian(
    circuit: Circuit,
    theta: Sequence[float],
    features: Sequence[float],
    observables: Sequence[PauliString],
    eps: float = 1e-6,
) -> np.ndarray:
    """Central-difference oracle, independent of the shift and adjoint paths."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    theta = np.asarray(theta, dtype=float)
    jac = np.zeros((len(observables), circuit.num_trainable))
    for j in range(circuit.num_trainable):
        up = theta.copy()
        up[j] += eps
        down = theta.copy()
        down[j] -= eps
        plus = evaluate_expectations(circuit, up, features, observables)
        minus = evaluate_expectations(circuit, down, features, observables)
        jac[:, j] = (plus - minus) / (2.0 * eps)
    return jac


def _cross(psi: np.ndarray, lam: np.ndarray, qubit: int, num_qubits: int) -> np.ndarray:
    """C[b, i, j] = sum over the other qubits of conj(lam_i) psi_j, so that
    <lam|G|psi> = sum_ij G[i, j] C[b, i, j] for any 2x2 G on ``qubit``."""
    shape = (psi.shape[0], (1 << num_qubits) >> (qubit + 1), 2, 1 << qubit)
    lam = np.conj(lam).reshape(shape)
    psi = psi.reshape(shape)
    cross = np.empty((shape[0], 2, 2), dtype=complex)
    for i in (0, 1):
        for j in (0, 1):
            cross[:, i, j] = np.einsum("bhl,bhl->b", lam[:, :, i], psi[:, :, j])
    return cross


def _pauli_pick(cross: np.ndarray, axis: str) -> np.ndarray:
    """Im <lam|P|psi> per row for the Pauli ``axis`` P, from the cross matrix."""
    if axis == "Z":
        return np.imag(cross[:, 0, 0] - cross[:, 1, 1])
    if axis == "X":
        return np.imag(cross[:, 0, 1] + cross[:, 1, 0])
    return np.real(cross[:, 1, 0] - cross[:, 0, 1])


def _step_back(cross: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """The cross matrix of the states before the gate ``mat``: mat^T C conj(mat).

    A shared (2, 2) ``mat`` is one (B, 4) @ (4, 4) product with
    kron(mat, conj(mat)); a per-row (B, 2, 2) one is two ``sv.mul_2x2``
    products.
    """
    if mat.ndim == 2:
        kron = (mat[:, None, :, None] * np.conj(mat)[None, :, None, :]).reshape(4, 4)
        return (cross.reshape(-1, 4) @ kron).reshape(cross.shape)
    return sv.mul_2x2(np.swapaxes(mat, -1, -2), sv.mul_2x2(cross, np.conj(mat)))


def adjoint_reverse(circuit: Circuit, run: CircuitRun, weights: np.ndarray) -> tuple:
    """``(dtheta, dinputs)`` for L = sum_{b,o} weights[b,o] <P_o>_b, from a
    forward ``run`` (``circuit.run_batch``) of ``circuit``: its final
    amplitudes and its recorded block and factor matrices.  The circuit is
    not run again, and no angle is resolved.

    ``dtheta`` is dL/dtheta summed over rows and over every occurrence of a
    reused slot, and ``dinputs`` is the per-row (B, n_inputs) dL/d(input
    angle).

    Adjoint-state differentiation (Jones & Gacon, arXiv:2009.02823): form
    lambda = sum_o w_o P_o |psi>, then walk ``circuit.blocks`` in reverse,
    un-computing psi and lambda with each block's recorded U^dagger.  Within
    a 1-qubit block the sweep carries the (B, 2, 2) cross matrix
    C = sum conj(lambda_i) psi_j (``_cross``), taken once at the block's
    output, back through the block's recorded factors, last acting first, as
    far as the first acting one with a trainable or input angle.  A rotation
    exp(-i a P / 2) contributes Im <lambda|P|psi> at its own output, a pick
    of two entries of C (``_pauli_pick``); C then steps back past the factor
    g as g^T C conj(g) (``_step_back``).  Intermediate states are
    un-computed, never stored, so memory stays at psi, lambda and one scratch
    array; the run's amplitudes and matrices are left as they are.
    """
    psi = run.amps
    weights = np.asarray(weights, dtype=float)
    nq = circuit.num_qubits
    lam = np.zeros_like(psi)
    for o, acted in enumerate(sv.apply_paulis(psi, run.observables)):
        lam += weights[:, o, None] * acted

    dtheta = np.zeros(circuit.num_trainable)
    dinputs = np.zeros((psi.shape[0], circuit.num_inputs))
    for block, place in zip(reversed(circuit.blocks), reversed(circuit.plan.places)):
        op = circuit.ops[block[0]]
        if place is None:  # a CNOT, its own inverse
            psi = sv.apply_cnot_array(psi, op.qubits[0], op.qubits[1], nq)
            lam = sv.apply_cnot_array(lam, op.qubits[0], op.qubits[1], nq)
            continue
        g, i = place
        group = circuit.plan.groups[g]
        fused, factors = run.matrices[g]
        qubit = op.qubits[0]
        live = [k for k, (_, refs) in enumerate(group.factors)
                if refs is not None and refs[i].kind != "const"]
        if live:
            cross = _cross(psi, lam, qubit, nq)
            for k in range(len(factors) - 1, live[0] - 1, -1):
                if k in live:
                    axis, refs = group.factors[k]
                    grad = _pauli_pick(cross, axis)
                    if refs[i].kind == "theta":
                        dtheta[refs[i].index] += grad.sum()
                    else:
                        dinputs[:, refs[i].index] += grad
                if k > live[0]:
                    cross = _step_back(cross, factors[k][i])
        inverse = np.conj(np.swapaxes(fused[i], -1, -2))
        psi = sv.apply_matrix(psi, inverse, qubit, nq)
        lam = sv.apply_matrix(lam, inverse, qubit, nq)
    return dtheta, dinputs


def adjoint_vjp(
    circuit: Circuit,
    theta: Sequence[float],
    features: np.ndarray,
    observables: Sequence[PauliString],
    weights: np.ndarray,
) -> tuple:
    """``(raw, dtheta, dinputs)``: the (B, n_obs) expectations of one forward
    ``run_batch`` and ``adjoint_reverse`` from it."""
    run = run_batch(circuit, theta, features, observables)
    return (run.raw, *adjoint_reverse(circuit, run, weights))


def loss_gradient(head_model, params: np.ndarray, features: np.ndarray,
                  labels: dict, task_specs: Sequence) -> tuple:
    """Total multi-task loss and its gradient over the model's parameters,
    from one forward pass: ``head_model.forward_state`` gives the logits and
    their state, and ``head_model.backward_batch`` takes that state.

    ``labels[name]`` is a length-B array with the MISSING sentinel marking
    unlabeled entries.  Per task the loss is lambda_t times the mean over
    labeled entries; missing entries contribute exactly zero gradient.
    """
    from .losses import task_loss_and_grad

    features = np.asarray(features, dtype=float)
    logits, state = head_model.forward_state(params, features)
    total = 0.0
    dlogits = {}
    contributed = 0
    for spec in task_specs:
        value, dlogit, n_labeled = task_loss_and_grad(
            spec, logits[spec.name], np.asarray(labels[spec.name])
        )
        total += spec.lambda_weight * value
        dlogits[spec.name] = spec.lambda_weight * dlogit
        contributed += n_labeled
    if contributed == 0:
        raise DegenerateBatchError("no labeled entries in batch for any task")
    grad = head_model.backward_batch(params, state, dlogits)
    return total, grad
