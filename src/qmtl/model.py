"""Model builders: shared encoder + task-local heads, baselines, and the
closed-form parameter accounting.

Encoder trainables come first in the global parameter layout, followed by
head trainables in declaration order, then per-head calibration scalars.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .circuit import (
    Circuit,
    GateOp,
    evaluate,
    evaluate_expectations_batch,
    feature,
    group_commuting,
    trainable,
)
from .errors import ConfigError
from .statevector import PauliString, pauli, sample_expectation


# ---------------------------------------------------------------------------
# configuration types


@dataclass(frozen=True)
class SharedEncoderConfig:
    num_qubits: int
    layers: int
    entangling: bool = True

    def __post_init__(self):
        if self.num_qubits < 1 or self.layers < 1:
            raise ConfigError("encoder needs num_qubits >= 1 and layers >= 1")

    @property
    def feature_dim(self) -> int:
        # capacity match: the encoder consumes exactly Q*L features
        return self.num_qubits * self.layers


@dataclass(frozen=True)
class Calibration:
    """logit = gamma * raw + beta per head: "affine" trains (gamma_i, beta_i)
    per logit, initialized to (1.0, 0.5); "temperature" trains one gamma = tau,
    initialized to 1.0; "none" trains nothing."""

    kind: str = "none"  # "none" | "affine" | "temperature"

    def __post_init__(self):
        if self.kind not in ("none", "affine", "temperature"):
            raise ConfigError(f"unknown calibration kind {self.kind!r}")

    def num_params(self, outputs: int) -> int:
        return len(self.initial_values(outputs))

    def initial_values(self, outputs: int) -> list:
        # affine is per-logit so it can move multiclass decision boundaries
        return {"none": [], "affine": [1.0] * outputs + [0.5] * outputs,
                "temperature": [1.0]}[self.kind]


# the fixed Pauli readout of each supported (outputs r, head size S), over
# local qubit indices 0..S-1
_READOUTS = {
    (1, 1): ("Z0",),
    (3, 2): ("Z0", "Z1", "X0*X1"),
    (9, 4): ("Z0", "Z1", "Z2", "Z3",
             "Z0*Z1", "Z1*Z2", "Z2*Z3", "Z3*Z0",
             "X0*X1*X2*X3"),
}


def _unsupported(outputs: int, size: int) -> str:
    shapes = ", ".join(f"({r}, {s})" for r, s in _READOUTS)
    return f"no readout for r={outputs} outputs on S={size} qubits; supported (r, S): {shapes}"


def default_readout(outputs: int, size: int) -> tuple:
    """The readout the architecture enumerates for (r, S) in {(1,1),(3,2),(9,4)}."""
    if (outputs, size) not in _READOUTS:
        raise ConfigError(_unsupported(outputs, size))
    return tuple(pauli(s) for s in _READOUTS[(outputs, size)])


@dataclass(frozen=True)
class TaskHeadConfig:
    name: str
    qubits: tuple
    outputs: int
    layers: int = 1
    k_theta: int = 3
    calibration: Calibration = field(default_factory=Calibration)

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(self.qubits))
        if not self.qubits:
            raise ConfigError(f"head {self.name!r} needs at least one qubit")
        for q in self.qubits:
            if isinstance(q, bool) or not isinstance(q, numbers.Integral):
                raise ConfigError(f"head {self.name!r} qubit {q!r} is not an integer")
        if len(set(self.qubits)) != len(self.qubits):
            raise ConfigError(f"head {self.name!r} repeats a qubit")
        if self.layers < 0:
            raise ConfigError("head layers must be >= 0")
        if self.k_theta not in (1, 3):
            raise ConfigError("k_theta must be 1 or 3")
        if (self.outputs, self.size) not in _READOUTS:
            raise ConfigError(f"head {self.name!r}: {_unsupported(self.outputs, self.size)}")

    @property
    def size(self) -> int:
        return len(self.qubits)

    @property
    def num_trainable(self) -> int:
        return self.k_theta * self.size * self.layers


@dataclass(frozen=True)
class QmtlModelConfig:
    encoder: SharedEncoderConfig
    heads: tuple

    def __post_init__(self):
        object.__setattr__(self, "heads", tuple(self.heads))
        used = set()
        for head in self.heads:
            overlap = used & set(head.qubits)
            if overlap:
                raise ConfigError(f"head {head.name!r} reuses qubits {sorted(overlap)}")
            for q in head.qubits:
                if not 0 <= q < self.encoder.num_qubits:
                    raise ConfigError(f"head {head.name!r} qubit {q} out of range")
            used |= set(head.qubits)


@dataclass(frozen=True)
class ParamBudget:
    shared: int
    per_head: tuple
    @property
    def total(self) -> int:
        return self.shared + sum(self.per_head)


# ---------------------------------------------------------------------------
# circuit builders


def build_shared_encoder(cfg: SharedEncoderConfig) -> Circuit:
    """H wall, then L blocks of Rx(feature) / shared Rz+Ry(theta) / CNOT ladder."""
    q, layers = cfg.num_qubits, cfg.layers
    ops = [GateOp("h", (j,)) for j in range(q)]
    for layer in range(layers):
        for j in range(q):
            ops.append(GateOp("rx", (j,), (feature(layer * q + j),)))
        for j in range(q):
            ref = trainable(layer * q + j)
            ops.append(GateOp("rz", (j,), (ref,)))
            ops.append(GateOp("ry", (j,), (ref,)))
        if cfg.entangling:
            for j in range(q - 1):
                ops.append(GateOp("cnot", (j, j + 1)))
    return Circuit(q, ops, num_trainable=q * layers, num_inputs=cfg.feature_dim)


def build_task_head(cfg: TaskHeadConfig, first_theta: int) -> list:
    """Strongly-entangling block on the head's qubits, trainables numbered
    from ``first_theta``: rotations + ring CNOTs."""
    q, s = cfg.qubits, cfg.size
    kind = "rot" if cfg.k_theta == 3 else "ry"
    ops = []
    next_param = first_theta
    for _ in range(cfg.layers):
        for qubit in q:
            refs = tuple(trainable(next_param + k) for k in range(cfg.k_theta))
            ops.append(GateOp(kind, (qubit,), refs))
            next_param += cfg.k_theta
        if s >= 2:
            # descending ring order: on two qubits the ascending order
            # collapses all but one readout to input-independent constants
            # (conjugating Z0/X0X1 through CNOT(0,1)CNOT(1,0) detaches them
            # from qubit 0), while this order keeps every readout responsive
            for j in reversed(range(s)):
                ops.append(GateOp("cnot", (q[j], q[(j + 1) % s])))
    return ops


# ---------------------------------------------------------------------------
# assembled model


@dataclass(frozen=True)
class AssembledHead:
    name: str
    observables: tuple        # global-qubit PauliStrings
    logit_slice: slice        # into the concatenated raw-expectation vector
    calibration: Calibration
    calib_slice: slice        # into the full parameter vector
    theta_slice: slice        # this head's circuit trainables

    @property
    def outputs(self) -> int:
        return self.logit_slice.stop - self.logit_slice.start


@dataclass(frozen=True)
class QmtlModel:
    config: QmtlModelConfig
    circuit: Circuit
    heads: tuple
    num_circuit_params: int
    num_calibration_params: int

    @property
    def num_params(self) -> int:
        return self.num_circuit_params + self.num_calibration_params

    @property
    def observables(self) -> tuple:
        return tuple(obs for head in self.heads for obs in head.observables)

    @property
    def task_names(self) -> tuple:
        return tuple(head.name for head in self.heads)

    def decay_mask(self) -> np.ndarray:
        # weight decay applies to calibration scalars only, never to angles
        mask = np.zeros(self.num_params, dtype=bool)
        mask[self.num_circuit_params:] = True
        return mask

    def init_params(self, seed: int = 0) -> np.ndarray:
        rng = np.random.default_rng(seed)
        params = np.empty(self.num_params)
        params[: self.num_circuit_params] = rng.uniform(0.0, 2 * np.pi, self.num_circuit_params)
        for head in self.heads:
            params[head.calib_slice] = head.calibration.initial_values(head.outputs)
        return params


def assemble(config: QmtlModelConfig) -> QmtlModel:
    """The global circuit and parameter layout: encoder angles, then each
    head's angles in declaration order, then each head's calibration scalars."""
    encoder = build_shared_encoder(config.encoder)
    ops = list(encoder.ops)
    num_circuit = encoder.num_trainable + sum(h.num_trainable for h in config.heads)
    theta, logit, calib = encoder.num_trainable, 0, num_circuit
    heads = []
    for cfg in config.heads:
        ops += build_task_head(cfg, theta)
        n_calib = cfg.calibration.num_params(cfg.outputs)
        heads.append(AssembledHead(
            name=cfg.name,
            observables=tuple(obs.remap(cfg.qubits)
                              for obs in default_readout(cfg.outputs, cfg.size)),
            logit_slice=slice(logit, logit + cfg.outputs),
            calibration=cfg.calibration,
            calib_slice=slice(calib, calib + n_calib),
            theta_slice=slice(theta, theta + cfg.num_trainable),
        ))
        theta += cfg.num_trainable
        logit += cfg.outputs
        calib += n_calib

    circuit = Circuit(
        config.encoder.num_qubits, ops,
        num_trainable=num_circuit, num_inputs=encoder.num_inputs,
    )
    return QmtlModel(
        config=config,
        circuit=circuit,
        heads=tuple(heads),
        num_circuit_params=num_circuit,
        num_calibration_params=calib - num_circuit,
    )


def _gamma_beta(head: AssembledHead, params: np.ndarray) -> tuple:
    """The head's calibration logit = gamma * raw + beta as (gamma, beta): the
    per-logit (gamma_i, beta_i) for affine, (tau, None) for temperature and
    (None, None) for none, where None leaves the logit as it is."""
    scalars = params[head.calib_slice]
    if head.calibration.kind == "affine":
        return scalars[: head.outputs], scalars[head.outputs:]
    return (scalars[0] if head.calibration.kind == "temperature" else None), None


def _calibrate(head: AssembledHead, raw: np.ndarray, params: np.ndarray) -> np.ndarray:
    gamma, beta = _gamma_beta(head, params)
    scaled = raw if gamma is None else gamma * raw
    return scaled if beta is None else beta + scaled


def logits_from_raw(model: QmtlModel, params: np.ndarray, raw: np.ndarray) -> dict:
    """Per-task calibrated logits from raw expectations of shape (..., n_observables)."""
    return {
        head.name: _calibrate(head, raw[..., head.logit_slice], params)
        for head in model.heads
    }


def forward(model: QmtlModel, params: np.ndarray, features: np.ndarray, shots: int,
            seed: int = 0) -> dict:
    """Per-task logit matrices (B, r_t) for a batch of feature rows, with each
    observable estimated from ``shots`` samples of its commuting group: row
    i, group g draws from ``default_rng([seed, i, g])``.  ``forward_batch``
    gives the exact logits."""
    amps = evaluate(model.circuit, params[: model.num_circuit_params], features)
    observables = list(model.observables)
    column = {id(obs): k for k, obs in enumerate(observables)}
    groups = group_commuting(observables)
    columns = [[column[id(obs)] for obs in group] for group in groups]
    raw = np.empty((len(amps), len(observables)))
    for i, row in enumerate(amps):
        for g, group in enumerate(groups):
            raw[i, columns[g]] = sample_expectation(row, group, shots, [seed, i, g])
    return logits_from_raw(model, params, raw)


def forward_batch(model: QmtlModel, params: np.ndarray, features: np.ndarray) -> dict:
    """Per-task logit matrices (B, r_t) for a batch of feature rows."""
    theta = params[: model.num_circuit_params]
    raw = evaluate_expectations_batch(model.circuit, theta, features, list(model.observables))
    return logits_from_raw(model, params, raw)


def backward_batch(model: QmtlModel, params: np.ndarray, features: np.ndarray,
                   dlogits: dict) -> np.ndarray:
    """Chain-rule gradient of a scalar loss through logits.

    ``dlogits[name]`` holds dL/dlogit of shape (B, r_t); the returned vector
    covers circuit angles then calibration scalars.
    """
    from .gradients import adjoint_vjp

    # dL/draw per observable; heads absent from dlogits (task not in the
    # current batch) contribute zero
    draw = np.zeros((len(features), len(model.observables)))
    for head in model.heads:
        if head.name not in dlogits:
            continue
        d = np.asarray(dlogits[head.name])
        gamma, _ = _gamma_beta(head, params)
        draw[:, head.logit_slice] = d if gamma is None else gamma * d

    theta = params[: model.num_circuit_params]
    raw, dtheta, _ = adjoint_vjp(model.circuit, theta, features,
                                 list(model.observables), draw)
    grad = np.zeros(model.num_params)
    grad[: model.num_circuit_params] = dtheta

    # analytic calibration derivatives from the same forward run's raw values
    for head in model.heads:
        if head.name not in dlogits:
            continue
        d = np.asarray(dlogits[head.name])
        gamma, beta = _gamma_beta(head, params)
        calib = grad[head.calib_slice]
        if gamma is not None:
            # d/dgamma_i per logit; a scalar tau sums over every logit
            z = raw[:, head.logit_slice]
            calib[: np.size(gamma)] = np.sum(d * z, axis=0 if np.ndim(gamma) else None)
        if beta is not None:
            calib[np.size(gamma):] = np.sum(d, axis=0)          # d/dbeta_i
    return grad


# ---------------------------------------------------------------------------
# parameter accounting


def count_params_quantum(config: QmtlModelConfig) -> ParamBudget:
    """Circuit trainables only; calibration scalars are reported separately."""
    shared = config.encoder.num_qubits * config.encoder.layers
    per_head = tuple(head.num_trainable for head in config.heads)
    return ParamBudget(shared=shared, per_head=per_head)


def count_params_classical(feature_dim: int, outputs_per_task: Sequence[int]) -> int:
    """One linear layer per task: sum_t r_t * (d + 1)."""
    if feature_dim < 1:
        raise ConfigError("feature_dim must be >= 1")
    return sum(r * (feature_dim + 1) for r in outputs_per_task)


def scaling_table(
    task_counts: Sequence[int],
    outputs: int,
    layers: int,
    k_theta: int,
    head_layers: int,
    head_size: int,
) -> list:
    """Rows of (T, d=S*T*L, P_C, P_Q, ratio) under the equal-size idealization."""
    if min(outputs, layers, k_theta, head_layers, head_size, *task_counts) < 1:
        raise ConfigError("scaling_table arguments must all be positive")
    rows = []
    for t in task_counts:
        d = head_size * t * layers
        p_c = count_params_classical(d, [outputs] * t)
        p_q = head_size * t * (layers + k_theta * head_layers)
        rows.append({"T": t, "d": d, "P_C": p_c, "P_Q": p_q, "ratio": p_q / p_c})
    return rows


# ---------------------------------------------------------------------------
# baseline heads
#
# All head models share one interface: a flat parameter vector, forward_batch
# producing per-task logits, and backward_batch consuming per-task dL/dlogit.


class QmtlHeadModel:
    """Adapter giving the assembled quantum model the common head interface."""

    def __init__(self, config: QmtlModelConfig):
        self.model = assemble(config)
        self.task_names = list(self.model.task_names)
        self.outputs = {h.name: h.outputs for h in self.model.heads}
        self.feature_dim = self.model.circuit.num_inputs

    @property
    def num_params(self) -> int:
        return self.model.num_params

    def decay_mask(self) -> np.ndarray:
        return self.model.decay_mask()

    def init_params(self, seed: int = 0) -> np.ndarray:
        return self.model.init_params(seed)

    def forward_batch(self, params, features):
        return forward_batch(self.model, params, features)

    def backward_batch(self, params, features, dlogits):
        return backward_batch(self.model, params, features, dlogits)


class ClassicalHeadModel:
    """Hard-parameter-sharing baseline: one linear layer per task, logits_t =
    x @ W_t.T + b_t, laid out task by task as [W_t (r_t x d, row-major) | b_t].
    The HQNN baseline builds its projection and task layers from it."""

    def __init__(self, feature_dim: int, outputs_per_task: Sequence[int],
                 task_names: Sequence[str]):
        if len(outputs_per_task) != len(task_names):
            raise ConfigError("outputs_per_task and task_names must align")
        self.feature_dim = feature_dim
        self.task_names = list(task_names)
        self.outputs = dict(zip(task_names, outputs_per_task))
        self.num_params = count_params_classical(feature_dim, outputs_per_task)

    def decay_mask(self) -> np.ndarray:
        return np.ones(self.num_params, dtype=bool)

    def init_params(self, seed: int = 0) -> np.ndarray:
        return self.draw_params(np.random.default_rng(seed))

    def draw_params(self, rng: np.random.Generator) -> np.ndarray:
        """Weights N(0, 1/d) drawn task by task from ``rng``; biases 0."""
        params = np.zeros(self.num_params)
        for _, w, _, _ in self._layers(params):
            w[...] = rng.normal(0.0, 1.0 / np.sqrt(self.feature_dim), w.shape)
        return params

    def _layers(self, params):
        """(name, W_t view of ``params``, W_t slice, b_t slice) per task."""
        d, offset = self.feature_dim, 0
        for name in self.task_names:
            w_slice = slice(offset, offset + self.outputs[name] * d)
            offset = w_slice.stop + self.outputs[name]
            yield name, params[w_slice].reshape(-1, d), w_slice, slice(w_slice.stop, offset)

    def forward_batch(self, params, features):
        features = np.asarray(features, dtype=float)
        return {name: features @ w.T + params[b] for name, w, _, b in self._layers(params)}

    def backward_batch(self, params, features, dlogits):
        features = np.asarray(features, dtype=float)
        grad = np.zeros(self.num_params)
        for name, _, w, b in self._layers(params):
            if name in dlogits:
                d = np.asarray(dlogits[name])
                grad[w] = (d.T @ features).ravel()
                grad[b] = d.sum(axis=0)
        return grad

    def input_gradient(self, params, dlogits, rows: int) -> np.ndarray:
        """dL/dx = sum_t dlogits_t @ W_t over the tasks in ``dlogits``, (rows, d)."""
        dx = np.zeros((rows, self.feature_dim))
        for name, w, _, _ in self._layers(params):
            if name in dlogits:
                dx += np.asarray(dlogits[name]) @ w
        return dx


def build_hqnn_circuit(num_qubits: int) -> Circuit:
    """Simplified bottleneck-VQC stand-in: three repetitions of Ry(input) on
    the first three qubits, a full Rot layer, and ring CNOTs."""
    if num_qubits < 2:
        raise ConfigError("HQNN circuit needs at least 2 qubits")
    ops = []
    next_theta = 0
    for _ in range(3):
        for j in range(min(3, num_qubits)):
            ops.append(GateOp("ry", (j,), (feature(j),)))
        for j in range(num_qubits):
            ops.append(GateOp("rot", (j,), tuple(trainable(next_theta + k) for k in range(3))))
            next_theta += 3
        for j in range(num_qubits):
            ops.append(GateOp("cnot", (j, (j + 1) % num_qubits)))
    return Circuit(num_qubits, ops, num_trainable=next_theta, num_inputs=3)


class HqnnHeadModel:
    """Hybrid baseline: trainable projection d->3, small VQC, per-qubit <Z>
    scaled by a trainable scalar, then per-task linear layers.  Parameters
    are [VQC angles | projection W, b | scale | task W_t, b_t ...]; the
    projection and task layers are ``ClassicalHeadModel``s."""

    BOTTLENECK = 3

    def __init__(self, feature_dim: int, num_qubits: int,
                 outputs_per_task: Sequence[int], task_names: Sequence[str]):
        self.feature_dim = feature_dim
        self.num_qubits = num_qubits
        self.circuit = build_hqnn_circuit(num_qubits)
        self.observables = [PauliString({q: "Z"}) for q in range(num_qubits)]
        self.projection = ClassicalHeadModel(feature_dim, [self.BOTTLENECK], ["projection"])
        self.tasks = ClassicalHeadModel(num_qubits, outputs_per_task, task_names)
        self.task_names = self.tasks.task_names
        self.outputs = self.tasks.outputs

        self.n_circuit = self.circuit.num_trainable
        self.scale = self.n_circuit + self.projection.num_params
        self.num_params = self.scale + 1 + self.tasks.num_params

    def decay_mask(self) -> np.ndarray:
        mask = np.ones(self.num_params, dtype=bool)
        mask[: self.n_circuit] = False
        return mask

    def init_params(self, seed: int = 0) -> np.ndarray:
        rng = np.random.default_rng(seed)
        theta = rng.uniform(0.0, 2 * np.pi, self.n_circuit)
        return np.concatenate([theta, self.projection.draw_params(rng), [1.0],
                               self.tasks.draw_params(rng)])

    def _split(self, params):
        """(VQC angles, projection params, scale, task-layer params) views."""
        return (params[: self.n_circuit], params[self.n_circuit:self.scale],
                params[self.scale], params[self.scale + 1:])

    def forward_batch(self, params, features):
        theta, proj, scale, tasks = self._split(params)
        u = self.projection.forward_batch(proj, features)["projection"]
        expect = evaluate_expectations_batch(self.circuit, theta, u, self.observables)
        return self.tasks.forward_batch(tasks, scale * expect)

    def backward_batch(self, params, features, dlogits):
        from .gradients import adjoint_vjp

        features = np.asarray(features, dtype=float)
        theta, proj, scale, tasks = self._split(params)
        u = self.projection.forward_batch(proj, features)["projection"]
        dscaled = self.tasks.input_gradient(tasks, dlogits, len(features))
        expect, dtheta, du = adjoint_vjp(self.circuit, theta, u, self.observables,
                                         scale * dscaled)
        return np.concatenate([
            dtheta,
            self.projection.backward_batch(proj, features, {"projection": du}),
            [np.sum(dscaled * expect)],
            self.tasks.backward_batch(tasks, scale * expect, dlogits),
        ])
