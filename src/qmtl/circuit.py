"""Backend-independent circuit representation with symbolic parameter slots.

Ops are applied left-to-right: ops[0] acts first on |0...0>.  A trainable
index may be referenced by several gates (shared parameters).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import statevector as sv
from .statevector import PauliString

GATE_ARITY = {
    # kind: (num_qubits, num_params)
    "h": (1, 0),
    "x": (1, 0),
    "y": (1, 0),
    "z": (1, 0),
    "rx": (1, 1),
    "ry": (1, 1),
    "rz": (1, 1),
    "rot": (1, 3),
    "cnot": (2, 0),
}

ROTATION_KINDS = ("rx", "ry", "rz", "rot")


@dataclass(frozen=True)
class ParamRef:
    """Symbolic angle source: trainable slot, input feature, or constant."""

    kind: str  # "theta" | "input" | "const"
    index: int = 0
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in ("theta", "input", "const"):
            raise ValueError(f"invalid ParamRef kind {self.kind!r}")


def trainable(index: int) -> ParamRef:
    return ParamRef("theta", index)


def feature(index: int) -> ParamRef:
    return ParamRef("input", index)


def const(value: float) -> ParamRef:
    return ParamRef("const", value=float(value))


@dataclass(frozen=True)
class GateOp:
    kind: str
    qubits: tuple
    params: tuple = ()

    def __init__(self, kind: str, qubits: Sequence[int], params: Sequence[ParamRef] = ()):
        if kind not in GATE_ARITY:
            raise ValueError(f"unknown gate kind {kind!r}")
        nq, npar = GATE_ARITY[kind]
        qubits = tuple(qubits)
        params = tuple(params)
        if len(qubits) != nq:
            raise ValueError(f"{kind} takes {nq} qubit(s), got {qubits}")
        if len(params) != npar:
            raise ValueError(f"{kind} takes {npar} parameter(s), got {len(params)}")
        if nq == 2 and qubits[0] == qubits[1]:
            raise ValueError("two-qubit gate needs distinct qubits")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "qubits", qubits)
        object.__setattr__(self, "params", params)


@dataclass
class Circuit:
    num_qubits: int
    ops: list = field(default_factory=list)
    num_trainable: int = 0
    num_inputs: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for op in self.ops:
            for q in op.qubits:
                if not 0 <= q < self.num_qubits:
                    raise ValueError(f"qubit {q} out of range in {op}")
            for ref in op.params:
                if ref.kind == "theta" and not 0 <= ref.index < self.num_trainable:
                    raise ValueError(f"trainable index {ref.index} out of range")
                if ref.kind == "input" and not 0 <= ref.index < self.num_inputs:
                    raise ValueError(f"input index {ref.index} out of range")


def _resolve(ref: ParamRef, theta: np.ndarray, features: np.ndarray):
    """Angle value for one ParamRef; features may be (d,) or (B, d)."""
    if ref.kind == "theta":
        return theta[ref.index]
    if ref.kind == "input":
        return features[..., ref.index]
    return ref.value


def gate_blocks(circuit: Circuit) -> list:
    """``circuit.ops`` indices grouped into the blocks that ``_run`` applies.

    Each CNOT is a block of its own; all 1-qubit gates on qubit q between two
    CNOTs that touch q form one block, in acting order.  A block on q is
    emitted just before the next CNOT that touches q (or at the end), so it
    moves only past CNOTs on other qubits, with which it commutes.
    """
    blocks = []
    pending = {}
    for op_idx, op in enumerate(circuit.ops):
        if op.kind == "cnot":
            for q in op.qubits:
                if q in pending:
                    blocks.append(tuple(pending.pop(q)))
            blocks.append((op_idx,))
        else:
            pending.setdefault(op.qubits[0], []).append(op_idx)
    blocks.extend(tuple(ops) for _, ops in sorted(pending.items()))
    return blocks


def _block_matrix(circuit: Circuit, block: tuple, theta: np.ndarray, features: np.ndarray,
                  override: Optional[dict]) -> np.ndarray:
    """Product of the gate matrices of a 1-qubit block; (B, 2, 2) when an
    input angle of a (B, d) feature matrix enters it."""
    mat = None
    for op_idx in block:
        op = circuit.ops[op_idx]
        angles = [_resolve(ref, theta, features) for ref in op.params]
        if override:
            for slot in range(len(angles)):
                delta = override.get((op_idx, slot))
                if delta is not None:
                    angles[slot] = angles[slot] + delta
        gate = sv.gate_matrix(op.kind, angles)
        mat = gate if mat is None else gate @ mat
    return mat


def _run(
    amps: np.ndarray,
    circuit: Circuit,
    theta: np.ndarray,
    features: np.ndarray,
    override: Optional[dict] = None,
    blocks: Optional[list] = None,
    after_block=None,
) -> np.ndarray:
    """Apply all ops to ``amps`` (shape (..., 2**n)), one block per kernel call.

    The register may be wider than the circuit (n >= Q): the ops act on its
    qubits 0..Q-1, which are the row bits of a density matrix stored as
    2Q-qubit amplitudes.  ``blocks`` defaults to ``gate_blocks(circuit)``.
    ``override`` maps (op_index, slot) -> additive angle shift for a single
    gate occurrence.  ``after_block(amps, block, mat) -> amps`` runs after
    every block, with the block's 2x2 matrix (None for a CNOT).
    """
    nq = amps.shape[-1].bit_length() - 1
    for block in gate_blocks(circuit) if blocks is None else blocks:
        op = circuit.ops[block[0]]
        if op.kind == "cnot":
            mat = None
            amps = sv.apply_cnot_array(amps, op.qubits[0], op.qubits[1], nq)
        else:
            mat = _block_matrix(circuit, block, theta, features, override)
            amps = sv.apply_matrix(amps, mat, op.qubits[0], nq)
        if after_block is not None:
            amps = after_block(amps, block, mat)
    return amps


def bind(circuit: Circuit, theta: Sequence[float], features: np.ndarray,
         observables: Sequence[PauliString] = ()) -> tuple:
    """Checked ``(theta, features)`` bindings for the (B, num_inputs) feature
    matrix; a single row is a batch of one.

    Raises IndexError for an observable on a qubit outside the register.
    The caller allocates the amplitudes with ``sv.zero_batch``, which refuses
    a batch above the simulator's amplitude budget before allocating.
    """
    theta = np.asarray(theta, dtype=float)
    features = np.asarray(features, dtype=float)
    if theta.shape != (circuit.num_trainable,):
        raise ValueError(
            f"expected {circuit.num_trainable} trainable values, got shape {theta.shape}"
        )
    if features.ndim != 2 or features.shape[1] != circuit.num_inputs:
        raise ValueError(
            f"expected (B, {circuit.num_inputs}) input features, got shape {features.shape}"
        )
    for obs in observables:
        if obs.max_qubit() >= circuit.num_qubits:
            raise IndexError(f"observable {obs} out of range for Q={circuit.num_qubits}")
    return theta, features


def evaluate(circuit: Circuit, theta: Sequence[float], features: np.ndarray) -> np.ndarray:
    """The (B, 2**Q) amplitudes of the circuit run from |0...0> with concrete
    parameter bindings, one row per row of the (B, num_inputs) feature
    matrix, from one ``_run``."""
    theta, features = bind(circuit, theta, features)
    return _run(sv.zero_batch(circuit.num_qubits, len(features)), circuit, theta, features)


def evaluate_expectations(
    circuit: Circuit,
    theta: Sequence[float],
    features: Sequence[float],
    observables: Sequence[PauliString],
    override: Optional[dict] = None,
) -> np.ndarray:
    """Exact expectation of each observable for one feature row, in the given
    order: row 0 of a batch of one."""
    row = np.asarray(features, dtype=float)[None]
    return evaluate_expectations_batch(circuit, theta, row, observables, override)[0]


def evaluate_expectations_batch(
    circuit: Circuit,
    theta: Sequence[float],
    features: np.ndarray,
    observables: Sequence[PauliString],
    override: Optional[dict] = None,
) -> np.ndarray:
    """Expectations for a batch of feature rows; returns (B, n_observables)."""
    theta, features = bind(circuit, theta, features, observables)
    amps = _run(sv.zero_batch(circuit.num_qubits, len(features)), circuit, theta, features,
                override=override)
    out = np.empty((len(amps), len(observables)))
    for i, obs in enumerate(observables):
        out[:, i] = sv.expectation_array(amps, obs.as_dict(), circuit.num_qubits)
    return out


def group_commuting(observables: Sequence[PauliString]) -> list:
    """Greedy, order-stable grouping into qubit-wise-commuting sets."""
    groups: list = []
    for obs in observables:
        for group in groups:
            if all(obs.qubit_wise_commutes(member) for member in group):
                group.append(obs)
                break
        else:
            groups.append([obs])
    return groups


def random_circuit(num_qubits: int, depth: int, rng,
                   num_trainable: Optional[int] = None,
                   num_inputs: int = 0) -> Circuit:
    """Random test circuit mixing fixed gates, rotations, and CNOTs.

    Rotation angles draw their trainable indices with replacement, so deep
    circuits naturally exercise the shared-parameter (reused-angle) path.
    """
    if num_trainable is None:
        num_trainable = max(1, depth // 2)
    ops = []
    for _ in range(depth):
        roll = rng.random()
        qubit = int(rng.integers(num_qubits))
        if roll < 0.15:
            ops.append(GateOp(str(rng.choice(["h", "x", "y", "z"])), (qubit,), ()))
        elif roll < 0.35 and num_qubits >= 2:
            target = int(rng.integers(num_qubits - 1))
            target += target >= qubit
            ops.append(GateOp("cnot", (qubit, target), ()))
        else:
            kind = str(rng.choice(["rx", "ry", "rz", "rot"]))
            arity = 3 if kind == "rot" else 1
            refs = []
            for _ in range(arity):
                sub = rng.random()
                if num_inputs and sub < 0.2:
                    refs.append(feature(int(rng.integers(num_inputs))))
                elif sub < 0.85:
                    refs.append(trainable(int(rng.integers(num_trainable))))
                else:
                    refs.append(const(float(rng.uniform(0.0, 2 * np.pi))))
            ops.append(GateOp(kind, (qubit,), refs))
    return Circuit(num_qubits, ops, num_trainable, num_inputs)
