"""Exact statevector simulation of few-qubit circuits.

A state is a plain complex array of shape (..., 2**num_qubits), one row per
state; there is no wrapper type.  Basis indices are little-endian, i.e.
qubit 0 is the least significant bit of the amplitude index.  Rotation
gates follow the exp(-i*theta*P/2) convention; rot(a, b, g) =
rz(g) @ ry(b) @ rz(a).  All arithmetic is complex128.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CapacityError, GroupingError

MAX_QUBITS = 24

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)

FIXED_GATES = {"h": _H, "x": _X, "y": _Y, "z": _Z}
PAULI_MATRICES = {"X": _X, "Y": _Y, "Z": _Z}


def rx_matrix(theta):
    theta = np.asarray(theta, dtype=float)
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    m = np.empty(theta.shape + (2, 2), dtype=complex)
    m[..., 0, 0] = c
    m[..., 0, 1] = -1j * s
    m[..., 1, 0] = -1j * s
    m[..., 1, 1] = c
    return m


def ry_matrix(theta):
    theta = np.asarray(theta, dtype=float)
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    m = np.empty(theta.shape + (2, 2), dtype=complex)
    m[..., 0, 0] = c
    m[..., 0, 1] = -s
    m[..., 1, 0] = s
    m[..., 1, 1] = c
    return m


def rz_matrix(theta):
    theta = np.asarray(theta, dtype=float)
    m = np.zeros(theta.shape + (2, 2), dtype=complex)
    m[..., 0, 0] = np.exp(-0.5j * theta)
    m[..., 1, 1] = np.exp(0.5j * theta)
    return m


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


# ---------------------------------------------------------------------------
# array kernels: operate on amplitudes of shape (..., 2**num_qubits)


# below this qubit the (..., 2, 2**q) slices have fewer than 16 columns, too
# few for a matmul to pay off, so apply_matrix folds the qubits below in
_FOLD_QUBITS = 4
_EYES = tuple(np.eye(1 << q) for q in range(_FOLD_QUBITS))


def apply_matrix(amps: np.ndarray, mat: np.ndarray, qubit: int, num_qubits: int) -> np.ndarray:
    """Apply a 2x2 matrix (optionally batched over leading dims) to one qubit.

    A shared (2, 2) matrix on qubit q < _FOLD_QUBITS is folded with the
    qubits below it into kron(mat, I) and applied as one gemm on the flat
    ``(-1, 2**(q+1))`` view; a per-row matrix is one batched matmul.  Higher
    qubits use ``mat @ (..., 2, 2**q)``, whose inner axis is long enough.
    """
    dim = 1 << num_qubits
    batch = amps.shape[:-1]
    if qubit < _FOLD_QUBITS:
        low = 1 << qubit
        width = 2 * low
        block = mat[..., :, None, :, None] * _EYES[qubit][:, None, :]
        block = block.reshape(mat.shape[:-2] + (width, width))
        rows = (-1,) if mat.ndim == 2 else batch + (-1,)
        out = amps.reshape(rows + (width,)) @ np.swapaxes(block, -1, -2)
    else:
        a = amps.reshape(batch + (dim >> (qubit + 1), 2, 1 << qubit))
        out = (mat if mat.ndim == 2 else mat[..., None, :, :]) @ a
    return out.reshape(batch + (dim,))


def apply_cnot_array(amps: np.ndarray, control: int, target: int, num_qubits: int) -> np.ndarray:
    """A C-ordered copy of ``amps`` whose control = 1 slice has its target = 0
    and target = 1 halves swapped; no index array is built."""
    high, low = max(control, target), min(control, target)
    shape = amps.shape[:-1] + ((1 << num_qubits) >> (high + 1), 2,
                               (1 << high) >> (low + 1), 2, 1 << low)
    src = amps.reshape(shape)
    out = amps.copy()  # C order, so this reshape is a view
    dst = out.reshape(shape)
    if control == high:  # control bit on axis -4, target bit on axis -2
        dst[..., 1, :, :, :] = src[..., 1, :, ::-1, :]
    else:
        dst[..., :, :, 1, :] = src[..., ::-1, :, 1, :]
    return out


def apply_pauli_string(amps: np.ndarray, terms: Mapping[int, str], num_qubits: int) -> np.ndarray:
    out = amps
    for qubit, axis in terms.items():
        out = apply_matrix(out, PAULI_MATRICES[axis], qubit, num_qubits)
    return out


def expectation_array(amps: np.ndarray, terms: Mapping[int, str], num_qubits: int) -> np.ndarray:
    """<psi|P|psi> along the last axis; returns real values of the batch shape."""
    acted = apply_pauli_string(amps, terms, num_qubits)
    return np.real(np.einsum("...s,...s->...", np.conj(amps), acted))


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit Pauli operators, keyed by qubit index."""

    terms: tuple

    def __init__(self, terms: Mapping[int, str] | Iterable[tuple]):
        items = sorted(dict(terms).items())
        if not items:
            raise ValueError("PauliString must act on at least one qubit")
        for qubit, axis in items:
            if qubit < 0:
                raise ValueError(f"negative qubit index {qubit}")
            if axis not in ("X", "Y", "Z"):
                raise ValueError(f"invalid Pauli axis {axis!r}")
        object.__setattr__(self, "terms", tuple(items))

    def as_dict(self) -> dict:
        return dict(self.terms)

    @property
    def qubits(self) -> tuple:
        return tuple(q for q, _ in self.terms)

    def max_qubit(self) -> int:
        return self.terms[-1][0]

    def qubit_wise_commutes(self, other: "PauliString") -> bool:
        mine = self.as_dict()
        theirs = other.as_dict()
        return all(mine[q] == theirs[q] for q in mine.keys() & theirs.keys())

    def remap(self, mapping: Sequence[int]) -> "PauliString":
        """Rewrite local qubit indices through ``mapping`` (local -> global)."""
        return PauliString({mapping[q]: axis for q, axis in self.terms})

    def __str__(self) -> str:
        return "*".join(f"{axis}{q}" for q, axis in self.terms)


def pauli(spec: str) -> PauliString:
    """Parse compact forms like ``"Z0"`` or ``"X0*X1"``."""
    terms = {}
    for part in spec.replace(" ", "").split("*"):
        terms[int(part[1:])] = part[0].upper()
    return PauliString(terms)


def check_capacity(num_qubits: int, rows: int) -> None:
    """Refuse registers above MAX_QUBITS and batches above 2**MAX_QUBITS amplitudes."""
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise CapacityError(f"qubit count must be in [1, {MAX_QUBITS}], got {num_qubits}")
    if rows << num_qubits > 1 << MAX_QUBITS:
        raise CapacityError(
            f"{rows} rows of {num_qubits} qubits exceed the 2**{MAX_QUBITS}-amplitude budget"
        )


def zero_batch(num_qubits: int, rows: int) -> np.ndarray:
    """(rows, 2**num_qubits) amplitudes, each row |0...0>; checked before allocating."""
    check_capacity(num_qubits, rows)
    amps = np.zeros((rows, 1 << num_qubits), dtype=complex)
    amps[:, 0] = 1.0
    return amps


def check_group(group: Sequence[PauliString]) -> None:
    for i, a in enumerate(group):
        for b in group[i + 1:]:
            if not a.qubit_wise_commutes(b):
                raise GroupingError(f"{a} and {b} do not qubit-wise commute")


def sample_expectation(
    amps: np.ndarray,
    group: Sequence[PauliString],
    shots: int,
    seed,
) -> list:
    """Shot-based estimates for a qubit-wise-commuting group in one basis setting.

    ``amps`` is one state's 1-D amplitudes, of length 2**Q.  ``seed`` is an
    int or a sequence of ints, passed to ``default_rng``.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    check_group(group)
    num_qubits = amps.shape[-1].bit_length() - 1
    for obs in group:
        if obs.max_qubit() >= num_qubits:
            raise IndexError(
                f"observable {obs} acts on qubit {obs.max_qubit()}, "
                f"state has {num_qubits} qubits"
            )

    # shared basis: the axis every string uses on each measured qubit
    basis = {}
    for obs in group:
        basis.update(obs.as_dict())

    for qubit, axis in basis.items():
        if axis == "X":
            amps = apply_matrix(amps, _H, qubit, num_qubits)
        elif axis == "Y":
            sdg = np.array([[1, 0], [0, -1j]], dtype=complex)
            amps = apply_matrix(amps, sdg, qubit, num_qubits)
            amps = apply_matrix(amps, _H, qubit, num_qubits)

    probs = np.abs(amps) ** 2
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    outcomes = rng.choice(len(probs), size=shots, p=probs)

    estimates = []
    for obs in group:
        signs = np.ones(shots)
        for qubit in obs.qubits:
            signs = signs * (1.0 - 2.0 * ((outcomes >> qubit) & 1))
        estimates.append(float(np.mean(signs)))
    return estimates
