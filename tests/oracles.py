"""Oracles only the tests call: each named 1-qubit gate's 2x2 matrix from
its own angles, one gate at a time, as the circuit's fused blocks must
compose them (rot(a, b, g) = rz(g) @ ry(b) @ rz(a)); and the shift-rule
Jacobians of one feature row and of the input angles."""

from typing import Sequence

import numpy as np

from qmtl.gradients import SHIFT, _shift_jacobian
from qmtl.statevector import FIXED_GATES, rx_matrix, ry_matrix, rz_matrix


def rot_matrix(alpha, beta, gamma):
    # rightmost factor acts first on the state
    return rz_matrix(gamma) @ ry_matrix(beta) @ rz_matrix(alpha)


ROTATION_GATES = {"rx": rx_matrix, "ry": ry_matrix, "rz": rz_matrix, "rot": rot_matrix}


def gate_matrix(kind: str, angles: Sequence = ()) -> np.ndarray:
    """2x2 matrix for a named single-qubit gate (batched if angles are arrays)."""
    if kind in FIXED_GATES:
        if angles:
            raise ValueError(f"gate {kind!r} takes no angles")
        return FIXED_GATES[kind]
    if kind == "rot":
        if len(angles) != 3:
            raise ValueError("rot takes exactly 3 angles")
        return rot_matrix(*angles)
    if kind in ROTATION_GATES:
        if len(angles) != 1:
            raise ValueError(f"gate {kind!r} takes exactly 1 angle")
        return ROTATION_GATES[kind](angles[0])
    raise ValueError(f"unknown single-qubit gate {kind!r}")


def param_shift_jacobian(circuit, theta, features, observables, shift=SHIFT):
    """d<O_i>/d theta_j for one (d,) feature row: row 0 of the batch form."""
    row = np.asarray(features, dtype=float)[None]
    return _shift_jacobian(circuit, theta, row, observables, "theta", shift)[0]


def input_shift_jacobian_batch(circuit, theta, features, observables, shift=SHIFT):
    """(B, n_obs, n_inputs) shift-rule Jacobian wrt input-bound rotation angles."""
    return _shift_jacobian(circuit, theta, features, observables, "input", shift)
