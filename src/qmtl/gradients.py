"""Circuit gradients: the adjoint-state vector-Jacobian product that training
uses, and the independent oracles that check it.

Training differentiates the circuit with ``adjoint_vjp``: one forward run,
then one reverse sweep that un-computes the state one fused gate block
(``circuit.gate_blocks``) at a time, so its cost does not grow with the
number of parameters.  The parameter-shift
Jacobians (exact for Pauli rotations, and runnable on hardware) and central
finite differences stay as oracles for ``qmtl gradcheck`` and the tests.

A trainable index referenced by m gate occurrences is differentiated by
summing over its occurrences (product rule); parameter reuse in the shared
encoder makes this the general case.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import statevector as sv
from .circuit import (
    Circuit,
    ROTATION_KINDS,
    _resolve,
    _run,
    bind,
    evaluate_expectations,
    evaluate_expectations_batch,
    gate_blocks,
)
from .errors import DegenerateBatchError, UnsupportedGateError
from .statevector import PauliString

SHIFT = np.pi / 2.0


def _occurrences(circuit: Circuit, kind: str) -> list:
    """Per parameter index, the list of (op_index, slot) gate occurrences."""
    size = circuit.num_trainable if kind == "theta" else circuit.num_inputs
    occ = [[] for _ in range(size)]
    for op_idx, op in enumerate(circuit.ops):
        for slot, ref in enumerate(op.params):
            if ref.kind == kind:
                if op.kind not in ROTATION_KINDS:
                    raise UnsupportedGateError(
                        f"{kind} slot {ref.index} bound to non-rotation gate {op.kind!r}"
                    )
                occ[ref.index].append((op_idx, slot))
    return occ


def _shift_jacobian(circuit, theta, features, observables, kind, shift):
    """(B, n_obs, n) shift-rule Jacobian over a (B, d) feature matrix."""
    occ = _occurrences(circuit, kind)
    jac = np.zeros((len(features), len(observables), len(occ)))
    for index, places in enumerate(occ):
        for place in places:
            plus = evaluate_expectations_batch(circuit, theta, features, observables,
                                               {place: shift})
            minus = evaluate_expectations_batch(circuit, theta, features, observables,
                                                {place: -shift})
            jac[..., index] += (plus - minus) / 2.0
    return jac


def param_shift_jacobian(
    circuit: Circuit,
    theta: Sequence[float],
    features: Sequence[float],
    observables: Sequence[PauliString],
    shift: float = SHIFT,
) -> np.ndarray:
    """d<O_i>/d theta_j for one feature row, exact for Pauli-generated
    rotations: row 0 of ``param_shift_jacobian_batch`` over a batch of one.

    ``shift`` exists as a verification hook; anything other than pi/2
    deliberately breaks exactness.
    """
    row = np.asarray(features, dtype=float)[None]
    return _shift_jacobian(circuit, theta, row, observables, "theta", shift)[0]


def param_shift_jacobian_batch(
    circuit: Circuit,
    theta: Sequence[float],
    features: np.ndarray,
    observables: Sequence[PauliString],
    shift: float = SHIFT,
) -> np.ndarray:
    """(B, n_obs, n_theta) Jacobian over a batch of feature rows."""
    return _shift_jacobian(circuit, theta, features, observables, "theta", shift)


def input_shift_jacobian_batch(
    circuit: Circuit,
    theta: Sequence[float],
    features: np.ndarray,
    observables: Sequence[PauliString],
    shift: float = SHIFT,
) -> np.ndarray:
    """(B, n_obs, n_inputs) Jacobian wrt input-bound rotation angles."""
    return _shift_jacobian(circuit, theta, features, observables, "input", shift)


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


# the Pauli rotations each gate is made of, in the order they act, as
# (kind, generator, parameter slot); rot(a, b, g) = rz(g) ry(b) rz(a)
_FACTORS = {
    "rx": (("rx", "X", 0),),
    "ry": (("ry", "Y", 0),),
    "rz": (("rz", "Z", 0),),
    "rot": (("rz", "Z", 0), ("ry", "Y", 1), ("rz", "Z", 2)),
}


def _dagger(mat: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(mat, -1, -2))


def _factors(op, theta: np.ndarray, features: np.ndarray) -> list:
    """(matrix, generator, ParamRef) per factor of a 1-qubit gate, in acting order."""
    if op.kind in sv.FIXED_GATES:
        return [(sv.FIXED_GATES[op.kind], None, None)]
    if op.kind not in _FACTORS:
        raise UnsupportedGateError(f"no adjoint rule for gate {op.kind!r}")
    out = []
    for kind, axis, slot in _FACTORS[op.kind]:
        ref = op.params[slot]
        mat = sv.gate_matrix(kind, [_resolve(ref, theta, features)])
        out.append((mat, sv.PAULI_MATRICES[axis], ref))
    return out


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


def adjoint_vjp(
    circuit: Circuit,
    theta: Sequence[float],
    features: np.ndarray,
    observables: Sequence[PauliString],
    weights: np.ndarray,
) -> tuple:
    """``(raw, dtheta, dinputs)`` for L = sum_{b,o} weights[b,o] <P_o>_b.

    ``raw`` is the (B, n_obs) matrix of expectations, ``dtheta`` is dL/dtheta
    summed over rows and over every occurrence of a reused slot, and
    ``dinputs`` is the per-row (B, n_inputs) dL/d(input angle).

    Adjoint-state differentiation (Jones & Gacon, arXiv:2009.02823): run the
    circuit forward once, form lambda = sum_o w_o P_o |psi>, then walk the
    blocks of ``gate_blocks`` in reverse, applying each block's U^dagger to
    both psi and lambda.  A rotation exp(-i a G / 2) followed, inside its
    block, by the factors V contributes Im <lambda|V G V^dagger|psi>, taken
    at the block's output, so a block costs one ``_cross`` and one U^dagger
    on each of psi and lambda, however many gates it holds.  Intermediate
    states are un-computed, never stored, so memory stays at psi, lambda
    and one scratch array.
    """
    theta, features = bind(circuit, theta, features, observables)
    weights = np.asarray(weights, dtype=float)
    nq = circuit.num_qubits
    psi = _run(sv.zero_batch(nq, len(features)), circuit, theta, features)
    raw = np.empty((psi.shape[0], len(observables)))
    lam = np.zeros_like(psi)
    for o, obs in enumerate(observables):
        raw[:, o] = sv.expectation_array(psi, obs.as_dict(), nq)
        lam += weights[:, o, None] * sv.apply_pauli_string(psi, obs.as_dict(), nq)

    dtheta = np.zeros(circuit.num_trainable)
    dinputs = np.zeros((psi.shape[0], circuit.num_inputs))
    for block in reversed(gate_blocks(circuit)):
        op = circuit.ops[block[0]]
        if op.kind == "cnot":  # its own inverse
            psi = sv.apply_cnot_array(psi, op.qubits[0], op.qubits[1], nq)
            lam = sv.apply_cnot_array(lam, op.qubits[0], op.qubits[1], nq)
            continue
        qubit = op.qubits[0]
        cross = None
        after = np.eye(2)  # the block's factors that act after the current one
        for op_idx in reversed(block):
            for mat, generator, ref in reversed(_factors(circuit.ops[op_idx], theta, features)):
                if ref is not None and ref.kind != "const":
                    if cross is None:
                        cross = _cross(psi, lam, qubit, nq)
                    rotated = after @ generator @ _dagger(after)
                    grad = np.imag(np.sum(rotated * cross, axis=(-2, -1)))
                    if ref.kind == "theta":
                        dtheta[ref.index] += grad.sum()
                    else:
                        dinputs[:, ref.index] += grad
                after = after @ mat
        inverse = _dagger(after)
        psi = sv.apply_matrix(psi, inverse, qubit, nq)
        lam = sv.apply_matrix(lam, inverse, qubit, nq)
    return raw, dtheta, dinputs


def loss_gradient(head_model, params: np.ndarray, features: np.ndarray,
                  labels: dict, task_specs: Sequence) -> tuple:
    """Total multi-task loss and its gradient over the model's parameters.

    ``labels[name]`` is a length-B array with the MISSING sentinel marking
    unlabeled entries.  Per task the loss is lambda_t times the mean over
    labeled entries; missing entries contribute exactly zero gradient.
    """
    from .losses import task_loss_and_grad

    features = np.asarray(features, dtype=float)
    logits = head_model.forward_batch(params, features)
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
    grad = head_model.backward_batch(params, features, dlogits)
    return total, grad
