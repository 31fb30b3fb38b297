"""Backend-independent circuit representation with symbolic parameter slots.

Ops are applied left-to-right: ops[0] acts first on |0...0>.  A trainable
index may be referenced by several gates (shared parameters).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import statevector as sv
from .statevector import PauliString

# the gates each 1-qubit kind is made of, in the order they act, as
# (kind, generator, parameter slot); a fixed gate is one factor with neither
# generator nor slot, and rot(a, b, g) = rz(g) ry(b) rz(a)
FACTORS = {
    **{kind: ((kind, None, None),) for kind in sv.FIXED_GATES},
    "rx": (("rx", "X", 0),),
    "ry": (("ry", "Y", 0),),
    "rz": (("rz", "Z", 0),),
    "rot": (("rz", "Z", 0), ("ry", "Y", 1), ("rz", "Z", 2)),
}

# kind: (num_qubits, num_params)
GATE_ARITY = {kind: (1, sum(slot is not None for *_, slot in factors))
              for kind, factors in FACTORS.items()} | {"cnot": (2, 0)}


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


@dataclass(frozen=True)
class Circuit:
    """An immutable gate list, its ``gate_blocks`` schedule ``blocks`` and
    the angle plan ``plan`` its block matrices are built from (``_plan``),
    both worked out once when the circuit is built; every engine runs them."""

    num_qubits: int
    ops: tuple = ()
    num_trainable: int = 0
    num_inputs: int = 0
    blocks: tuple = field(init=False, repr=False, compare=False)
    plan: _Plan = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:
            for q in op.qubits:
                if not 0 <= q < self.num_qubits:
                    raise ValueError(f"qubit {q} out of range in {op}")
            for ref in op.params:
                if ref.kind == "theta" and not 0 <= ref.index < self.num_trainable:
                    raise ValueError(f"trainable index {ref.index} out of range")
                if ref.kind == "input" and not 0 <= ref.index < self.num_inputs:
                    raise ValueError(f"input index {ref.index} out of range")
        object.__setattr__(self, "blocks", tuple(gate_blocks(self)))
        object.__setattr__(self, "plan", _plan(self))


class _Group(NamedTuple):
    """The 1-qubit blocks of ``Circuit.blocks`` that share one signature: the
    kind of each op, and which of its angles are inputs.  ``_block_matrices``
    builds their matrices stacked along a leading member axis."""

    members: tuple  # the blocks' positions in ``Circuit.blocks``
    spans: tuple  # per op of a block, the (start, stop) span of its factors
    factors: tuple  # per factor, in acting order: (axis, refs), one ref per member
    fixed: tuple  # per factor, a fixed gate's (n, 2, 2) stack, else None
    # per rotation kind: (kind, shared factors, their (k, n) angle-table
    # indices, input factors, their (k, n) feature indices)
    builds: tuple


class _Plan(NamedTuple):
    """How ``_block_matrices`` builds a circuit's block matrices."""

    groups: tuple  # of _Group
    places: tuple  # per block, its (group, member) pair, None for a CNOT
    consts: np.ndarray  # the const angles, after theta in the angle table


_BUILDERS = {"rx": sv.rx_matrix, "ry": sv.ry_matrix, "rz": sv.rz_matrix}


def _plan(circuit: Circuit) -> _Plan:
    """Group the 1-qubit blocks of ``circuit.blocks`` by signature, and index
    the source of every rotation angle of each group."""
    by_signature = {}
    for j, block in enumerate(circuit.blocks):
        ops = [circuit.ops[i] for i in block]
        if ops[0].kind != "cnot":
            signature = tuple((op.kind, tuple(ref.kind == "input" for ref in op.params))
                              for op in ops)
            by_signature.setdefault(signature, []).append(j)
    consts, groups, places = [], [], [None] * len(circuit.blocks)

    def table_index(ref):
        if ref.kind == "theta":
            return ref.index
        consts.append(ref.value)
        return circuit.num_trainable + len(consts) - 1

    for members in by_signature.values():
        blocks = [[circuit.ops[i] for i in circuit.blocks[j]] for j in members]
        spans, factors, fixed = [], [], []
        # per rotation kind: shared factors, their indices, input factors, theirs
        sources = {kind: ([], [], [], []) for kind in _BUILDERS}
        for k, op in enumerate(blocks[0]):
            spans.append((len(factors), len(factors) + len(FACTORS[op.kind])))
            for kind, axis, slot in FACTORS[op.kind]:
                if slot is None:
                    factors.append((axis, None))
                    # every run records this stack, so no run may write to it
                    stack = np.stack([sv.FIXED_GATES[kind]] * len(members))
                    stack.flags.writeable = False
                    fixed.append(stack)
                    continue
                refs = tuple(ops[k].params[slot] for ops in blocks)
                shared, shared_idx, inputs, input_idx = sources[kind]
                if refs[0].kind == "input":
                    inputs.append(len(factors))
                    input_idx.append([ref.index for ref in refs])
                else:
                    shared.append(len(factors))
                    shared_idx.append([table_index(ref) for ref in refs])
                factors.append((axis, refs))
                fixed.append(None)
        builds = tuple(
            (kind, tuple(shared), np.array(shared_idx, dtype=np.intp).reshape(-1, len(members)),
             tuple(inputs), np.array(input_idx, dtype=np.intp).reshape(-1, len(members)))
            for kind, (shared, shared_idx, inputs, input_idx) in sources.items()
            if shared or inputs)
        for i, j in enumerate(members):
            places[j] = (len(groups), i)
        groups.append(_Group(tuple(members), tuple(spans), tuple(factors), tuple(fixed), builds))
    return _Plan(tuple(groups), tuple(places), np.array(consts, dtype=float))


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


def _stack_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for two member-stacked 2x2 matrices, each (n, 2, 2) or
    per row (n, B, 2, 2): one matmul for two shared stacks, and
    ``sv.mul_2x2`` when either is per row, so a row's bits do not depend on
    the batch."""
    if a.ndim == b.ndim == 3:
        return a @ b
    if a.ndim < b.ndim:
        a = a[:, None]
    elif b.ndim < a.ndim:
        b = b[:, None]
    return sv.mul_2x2(a, b)


def _block_matrices(circuit: Circuit, theta: np.ndarray, features: np.ndarray) -> tuple:
    """Every 1-qubit block's matrices, one ``(fused, factors)`` pair per group
    of ``circuit.plan``: the member-stacked product of each block's gate
    matrices, (n, 2, 2), or (n, B, 2, 2) when an input angle of a (B, d)
    feature matrix enters it, and one such stack per ``FACTORS`` factor in
    acting order (``_Group.factors``).

    Each group gathers its angles of one rotation kind with one fancy index
    (``features`` for input slots, ``theta`` and the circuit's constants for
    the rest) and builds their matrices in one call.  A gate's factors are
    multiplied last acting first, so that a rot groups as
    (rz(g) @ ry(b)) @ rz(a), and each gate then left-multiplies the block's
    product so far, each product by ``_stack_mul``."""
    table = np.concatenate((theta, circuit.plan.consts))
    rows = features.shape[:-1]
    columns = features.T
    out = []
    for group in circuit.plan.groups:
        mats = list(group.fixed)
        for kind, shared, shared_idx, inputs, input_idx in group.builds:
            built = _BUILDERS[kind](np.concatenate(
                (table[shared_idx].ravel(), columns[input_idx].ravel())))
            split = shared_idx.size
            mats_shared = built[:split].reshape(shared_idx.shape + (2, 2))
            mats_per_row = built[split:].reshape(input_idx.shape + rows + (2, 2))
            for r, t in enumerate(shared):
                mats[t] = mats_shared[r]
            for r, t in enumerate(inputs):
                mats[t] = mats_per_row[r]
        fused = None
        for start, stop in group.spans:
            gate = mats[stop - 1]
            for t in range(stop - 2, start - 1, -1):
                gate = _stack_mul(gate, mats[t])
            fused = gate if fused is None else _stack_mul(gate, fused)
        out.append((fused, tuple(mats)))
    return tuple(out)


def _run(
    amps: np.ndarray,
    circuit: Circuit,
    theta: np.ndarray,
    features: np.ndarray,
    after_block=None,
) -> tuple:
    """``(amps, matrices)``: ``circuit.blocks`` applied to ``amps`` (shape
    (..., 2**n)), one kernel call per block, and the run's
    ``_block_matrices``, built once before the walk.

    The register may be wider than the circuit (n >= Q): the ops act on its
    qubits 0..Q-1, which are the row bits of a density matrix stored as
    2Q-qubit amplitudes.  ``after_block(amps, block, mat) -> amps`` runs
    after every block, with the block's fused matrix, None for a CNOT.
    """
    nq = amps.shape[-1].bit_length() - 1
    matrices = _block_matrices(circuit, theta, features)
    for block, place in zip(circuit.blocks, circuit.plan.places):
        op = circuit.ops[block[0]]
        if place is None:
            mat = None
            amps = sv.apply_cnot_array(amps, op.qubits[0], op.qubits[1], nq)
        else:
            mat = matrices[place[0]][0][place[1]]
            amps = sv.apply_matrix(amps, mat, op.qubits[0], nq)
        if after_block is not None:
            amps = after_block(amps, block, mat)
    return amps, matrices


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
    return _run(sv.zero_batch(circuit.num_qubits, len(features)), circuit, theta, features)[0]


def evaluate_expectations(
    circuit: Circuit,
    theta: Sequence[float],
    features: Sequence[float],
    observables: Sequence[PauliString],
) -> np.ndarray:
    """Exact expectation of each observable for one feature row, in the given
    order: row 0 of a batch of one."""
    row = np.asarray(features, dtype=float)[None]
    return run_batch(circuit, theta, row, observables).raw[0]


class CircuitRun(NamedTuple):
    """One run of a (B, d) feature matrix: the observables, their
    (B, n_observables) expectations ``raw`` and the final (B, 2**Q)
    amplitudes, where the adjoint reverse sweep
    (``gradients.adjoint_reverse``) starts.

    ``matrices`` is the run's ``_block_matrices``: per group of
    ``circuit.plan``, the member-stacked fused matrices of its blocks and the
    stacked matrices of each of their gate factors.  Block j is member i of
    group g, ``(g, i) = circuit.plan.places[j]``; the reverse sweep
    un-computes the state with its matrices."""

    observables: tuple
    raw: np.ndarray
    amps: np.ndarray
    matrices: tuple


def run_batch(
    circuit: Circuit,
    theta: Sequence[float],
    features: np.ndarray,
    observables: Sequence[PauliString],
) -> CircuitRun:
    """The ``CircuitRun`` of a batch of feature rows, from one ``_run``."""
    theta, features = bind(circuit, theta, features, observables)
    amps, matrices = _run(sv.zero_batch(circuit.num_qubits, len(features)), circuit, theta,
                          features)
    return CircuitRun(tuple(observables), sv.expectations(amps, observables), amps, matrices)


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
