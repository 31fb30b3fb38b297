"""Model builders: shared encoder + task-local heads, baselines, and the
closed-form parameter accounting.

Encoder trainables come first in the global parameter layout, followed by
head trainables in declaration order, then per-head calibration scalars.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

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
    kind: str = "none"  # "none" | "affine" | "temperature"
    gamma: float = 1.0
    beta: float = 0.5
    tau: float = 1.0

    def __post_init__(self):
        if self.kind not in ("none", "affine", "temperature"):
            raise ConfigError(f"unknown calibration kind {self.kind!r}")

    def num_params(self, outputs: int) -> int:
        # affine is per-logit so it can move multiclass decision boundaries
        return {"none": 0, "affine": 2 * outputs, "temperature": 1}[self.kind]

    def initial_values(self, outputs: int) -> list:
        if self.kind == "affine":
            return [self.gamma] * outputs + [self.beta] * outputs
        if self.kind == "temperature":
            return [self.tau]
        return []


@dataclass(frozen=True)
class TaskHeadConfig:
    name: str
    qubits: tuple
    outputs: int
    layers: int = 1
    k_theta: int = 3
    readout: Optional[tuple] = None  # PauliStrings over local indices 0..S-1
    calibration: Calibration = field(default_factory=Calibration)

    def __init__(self, name, qubits, outputs, layers=1, k_theta=3, readout=None,
                 calibration=None):
        qubits = tuple(qubits)
        if not qubits:
            raise ConfigError(f"head {name!r} needs at least one qubit")
        if len(set(qubits)) != len(qubits):
            raise ConfigError(f"head {name!r} repeats a qubit")
        if layers < 0:
            raise ConfigError("head layers must be >= 0")
        if k_theta not in (1, 3):
            raise ConfigError("k_theta must be 1 or 3")
        if outputs < 1:
            raise ConfigError("outputs must be >= 1")
        readout = tuple(readout) if readout is not None else None
        if readout is not None:
            if len(readout) != outputs:
                raise ConfigError(f"head {name!r}: readout size must equal outputs")
            for obs in readout:
                if obs.max_qubit() >= len(qubits):
                    raise ConfigError(f"head {name!r}: readout {obs} exceeds sub-register")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "qubits", qubits)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "k_theta", k_theta)
        object.__setattr__(self, "readout", readout)
        object.__setattr__(self, "calibration", calibration or Calibration())

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

    def __init__(self, encoder: SharedEncoderConfig, heads: Sequence[TaskHeadConfig]):
        heads = tuple(heads)
        used = set()
        for head in heads:
            overlap = used & set(head.qubits)
            if overlap:
                raise ConfigError(f"head {head.name!r} reuses qubits {sorted(overlap)}")
            for q in head.qubits:
                if not 0 <= q < encoder.num_qubits:
                    raise ConfigError(f"head {head.name!r} qubit {q} out of range")
            used |= set(head.qubits)
        object.__setattr__(self, "encoder", encoder)
        object.__setattr__(self, "heads", heads)


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


def build_task_head(cfg: TaskHeadConfig) -> Circuit:
    """Strongly-entangling block on local qubits 0..S-1: rotations + ring CNOTs."""
    s = cfg.size
    ops = []
    next_param = 0
    for _ in range(cfg.layers):
        for j in range(s):
            if cfg.k_theta == 3:
                ops.append(GateOp("rot", (j,), tuple(trainable(next_param + k) for k in range(3))))
                next_param += 3
            else:
                ops.append(GateOp("ry", (j,), (trainable(next_param),)))
                next_param += 1
        if s >= 2:
            # descending ring order: on two qubits the ascending order
            # collapses all but one readout to input-independent constants
            # (conjugating Z0/X0X1 through CNOT(0,1)CNOT(1,0) detaches them
            # from qubit 0), while this order keeps every readout responsive
            for j in reversed(range(s)):
                ops.append(GateOp("cnot", (j, (j + 1) % s)))
    return Circuit(max(s, 1), ops, num_trainable=next_param, num_inputs=0)


_READOUTS = {
    (1, 1): ("Z0",),
    (3, 2): ("Z0", "Z1", "X0*X1"),
    (9, 4): ("Z0", "Z1", "Z2", "Z3",
             "Z0*Z1", "Z1*Z2", "Z2*Z3", "Z3*Z0",
             "X0*X1*X2*X3"),
}


def default_readout(outputs: int, size: int) -> tuple:
    """Readout sets the architecture enumerates for (r, S) in {(1,1),(3,2),(9,4)}."""
    key = (outputs, size)
    if key not in _READOUTS:
        raise ConfigError(
            f"no default readout for r={outputs}, S={size}; "
            "supply a custom readout or use generic_readout()"
        )
    return tuple(pauli(s) for s in _READOUTS[key])


def generic_readout(outputs: int, size: int) -> tuple:
    """Extension rule for unenumerated (r, S): single-qubit Z, then ZZ ring,
    then the all-X string, truncated to r."""
    candidates = [PauliString({j: "Z"}) for j in range(size)]
    if size == 2:
        candidates.append(PauliString({0: "Z", 1: "Z"}))
    elif size > 2:
        candidates.extend(
            PauliString({j: "Z", (j + 1) % size: "Z"}) for j in range(size)
        )
    candidates.append(PauliString({j: "X" for j in range(size)}))
    if outputs > len(candidates):
        raise ConfigError(
            f"generic readout supports at most {len(candidates)} outputs for S={size}"
        )
    return tuple(candidates[:outputs])


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
    """Concatenate encoder and head fragments into one global circuit."""
    encoder = build_shared_encoder(config.encoder)
    ops = list(encoder.ops)
    next_theta = encoder.num_trainable
    heads = []
    logit_offset = 0

    head_specs = []
    for head_cfg in config.heads:
        fragment = build_task_head(head_cfg)
        mapping = head_cfg.qubits
        for op in fragment.ops:
            qubits = tuple(mapping[q] for q in op.qubits)
            params = tuple(
                trainable(next_theta + ref.index) if ref.kind == "theta" else ref
                for ref in op.params
            )
            ops.append(GateOp(op.kind, qubits, params))
        readout = head_cfg.readout or default_readout(head_cfg.outputs, head_cfg.size)
        observables = tuple(obs.remap(mapping) for obs in readout)
        head_specs.append(
            (head_cfg, observables,
             slice(logit_offset, logit_offset + head_cfg.outputs),
             slice(next_theta, next_theta + fragment.num_trainable))
        )
        next_theta += fragment.num_trainable
        logit_offset += head_cfg.outputs

    num_circuit = next_theta
    calib_offset = num_circuit
    for head_cfg, observables, logit_slice, theta_slice in head_specs:
        n = head_cfg.calibration.num_params(head_cfg.outputs)
        heads.append(
            AssembledHead(
                name=head_cfg.name,
                observables=observables,
                logit_slice=logit_slice,
                calibration=head_cfg.calibration,
                calib_slice=slice(calib_offset, calib_offset + n),
                theta_slice=theta_slice,
            )
        )
        calib_offset += n

    circuit = Circuit(
        config.encoder.num_qubits, ops,
        num_trainable=num_circuit, num_inputs=encoder.num_inputs,
    )
    return QmtlModel(
        config=config,
        circuit=circuit,
        heads=tuple(heads),
        num_circuit_params=num_circuit,
        num_calibration_params=calib_offset - num_circuit,
    )


def _calibrate(head: AssembledHead, raw: np.ndarray, params: np.ndarray) -> np.ndarray:
    cal = head.calibration
    if cal.kind == "affine":
        r = head.outputs
        scalars = params[head.calib_slice]
        gamma, beta = scalars[:r], scalars[r:]
        return beta + gamma * raw
    if cal.kind == "temperature":
        (tau,) = params[head.calib_slice]
        return tau * raw
    return raw


def logits_from_raw(model: QmtlModel, params: np.ndarray, raw: np.ndarray) -> dict:
    """Per-task calibrated logits from raw expectations of shape (..., n_observables)."""
    return {
        head.name: _calibrate(head, raw[..., head.logit_slice], params)
        for head in model.heads
    }


def forward(
    model: QmtlModel,
    params: np.ndarray,
    features: Sequence[float],
    shots: Optional[int] = None,
    seed: Union[int, Sequence[int]] = 0,
) -> dict:
    """Per-task logits for one feature vector.  The exact logits are row 0
    of ``forward_batch`` over a batch of one.

    With ``shots`` set, observables are estimated by sampling commuting
    groups instead of exact expectation values; group ``gi`` draws from
    ``default_rng([*seed, gi])`` (an int seed counts as ``(seed,)``), so a
    caller that passes ``(seed, row)`` gets one stream per (seed, row, group).
    """
    if shots is None:
        logits = forward_batch(model, params, np.asarray(features, dtype=float)[None])
        return {name: rows[0] for name, rows in logits.items()}
    amps = evaluate(model.circuit, params[: model.num_circuit_params], features)
    observables = list(model.observables)
    values = {}
    for gi, group in enumerate(group_commuting(observables)):
        ests = sample_expectation(amps, group, shots, [*np.atleast_1d(seed), gi])
        for obs, est in zip(group, ests):
            values[id(obs)] = est
    raw = np.array([values[id(obs)] for obs in observables])
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
        cal = head.calibration
        if cal.kind == "affine":
            draw[:, head.logit_slice] = params[head.calib_slice][: head.outputs] * d
        elif cal.kind == "temperature":
            draw[:, head.logit_slice] = params[head.calib_slice][0] * d
        else:
            draw[:, head.logit_slice] = d

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
        z = raw[:, head.logit_slice]
        s = head.calib_slice.start
        if head.calibration.kind == "affine":
            r = head.outputs
            grad[s:s + r] = np.sum(d * z, axis=0)              # d/dgamma_i
            grad[s + r:s + 2 * r] = np.sum(d, axis=0)          # d/dbeta_i
        elif head.calibration.kind == "temperature":
            grad[s] = np.sum(d * z)                            # d/dtau
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
        p_c = t * outputs * (d + 1)
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
        self.outputs = {h.name: h.logit_slice.stop - h.logit_slice.start
                        for h in self.model.heads}
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
    """Hard-parameter-sharing baseline: one linear layer per task."""

    def __init__(self, feature_dim: int, outputs_per_task: Sequence[int],
                 task_names: Sequence[str]):
        if len(outputs_per_task) != len(task_names):
            raise ConfigError("outputs_per_task and task_names must align")
        self.feature_dim = feature_dim
        self.task_names = list(task_names)
        self.outputs = dict(zip(task_names, outputs_per_task))
        self._slices = {}
        offset = 0
        for name in self.task_names:
            r = self.outputs[name]
            self._slices[name] = (slice(offset, offset + r * feature_dim),
                                  slice(offset + r * feature_dim, offset + r * (feature_dim + 1)))
            offset += r * (feature_dim + 1)
        self._num_params = offset

    @property
    def num_params(self) -> int:
        return self._num_params

    def decay_mask(self) -> np.ndarray:
        return np.ones(self._num_params, dtype=bool)

    def init_params(self, seed: int = 0) -> np.ndarray:
        rng = np.random.default_rng(seed)
        params = np.zeros(self._num_params)
        for name in self.task_names:
            w_slice, _ = self._slices[name]
            n = w_slice.stop - w_slice.start
            params[w_slice] = rng.normal(0.0, 1.0 / np.sqrt(self.feature_dim), n)
        return params

    def _unpack(self, params, name):
        w_slice, b_slice = self._slices[name]
        r = self.outputs[name]
        w = params[w_slice].reshape(r, self.feature_dim)
        b = params[b_slice]
        return w, b

    def forward_batch(self, params, features):
        features = np.asarray(features, dtype=float)
        out = {}
        for name in self.task_names:
            w, b = self._unpack(params, name)
            out[name] = features @ w.T + b
        return out

    def backward_batch(self, params, features, dlogits):
        features = np.asarray(features, dtype=float)
        grad = np.zeros(self._num_params)
        for name in self.task_names:
            if name not in dlogits:
                continue
            d = np.asarray(dlogits[name])
            w_slice, b_slice = self._slices[name]
            grad[w_slice] = (d.T @ features).ravel()
            grad[b_slice] = d.sum(axis=0)
        return grad


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
    scaled by a trainable scalar, then per-task linear layers."""

    BOTTLENECK = 3

    def __init__(self, feature_dim: int, num_qubits: int,
                 outputs_per_task: Sequence[int], task_names: Sequence[str]):
        self.feature_dim = feature_dim
        self.num_qubits = num_qubits
        self.task_names = list(task_names)
        self.outputs = dict(zip(task_names, outputs_per_task))
        self.circuit = build_hqnn_circuit(num_qubits)
        self.observables = [PauliString({q: "Z"}) for q in range(num_qubits)]

        b = self.BOTTLENECK
        self.n_circuit = self.circuit.num_trainable
        offset = self.n_circuit
        self.proj_w = slice(offset, offset + b * feature_dim)
        offset += b * feature_dim
        self.proj_b = slice(offset, offset + b)
        offset += b
        self.scale = offset
        offset += 1
        self._head_slices = {}
        for name in self.task_names:
            r = self.outputs[name]
            self._head_slices[name] = (
                slice(offset, offset + r * num_qubits),
                slice(offset + r * num_qubits, offset + r * (num_qubits + 1)),
            )
            offset += r * (num_qubits + 1)
        self._num_params = offset

    @property
    def num_params(self) -> int:
        return self._num_params

    def decay_mask(self) -> np.ndarray:
        mask = np.ones(self._num_params, dtype=bool)
        mask[: self.n_circuit] = False
        return mask

    def init_params(self, seed: int = 0) -> np.ndarray:
        rng = np.random.default_rng(seed)
        params = np.zeros(self._num_params)
        params[: self.n_circuit] = rng.uniform(0.0, 2 * np.pi, self.n_circuit)
        params[self.proj_w] = rng.normal(
            0.0, 1.0 / np.sqrt(self.feature_dim), self.BOTTLENECK * self.feature_dim
        )
        params[self.scale] = 1.0
        for name in self.task_names:
            w_slice, _ = self._head_slices[name]
            n = w_slice.stop - w_slice.start
            params[w_slice] = rng.normal(0.0, 1.0 / np.sqrt(self.num_qubits), n)
        return params

    def _project(self, params, features):
        a = params[self.proj_w].reshape(self.BOTTLENECK, self.feature_dim)
        return features @ a.T + params[self.proj_b]

    def forward_batch(self, params, features):
        features = np.asarray(features, dtype=float)
        u = self._project(params, features)
        theta = params[: self.n_circuit]
        expect = evaluate_expectations_batch(self.circuit, theta, u, self.observables)
        scaled = params[self.scale] * expect
        out = {}
        for name in self.task_names:
            w_slice, b_slice = self._head_slices[name]
            r = self.outputs[name]
            w = params[w_slice].reshape(r, self.num_qubits)
            out[name] = scaled @ w.T + params[b_slice]
        return out

    def backward_batch(self, params, features, dlogits):
        from .gradients import adjoint_vjp

        features = np.asarray(features, dtype=float)
        u = self._project(params, features)
        theta = params[: self.n_circuit]
        scale = params[self.scale]

        grad = np.zeros(self._num_params)
        dscaled = np.zeros((len(features), self.num_qubits))
        for name in self.task_names:
            if name in dlogits:
                w = params[self._head_slices[name][0]].reshape(self.outputs[name],
                                                               self.num_qubits)
                dscaled += np.asarray(dlogits[name]) @ w

        expect, dtheta, du = adjoint_vjp(self.circuit, theta, u, self.observables,
                                         scale * dscaled)
        grad[: self.n_circuit] = dtheta
        grad[self.scale] = np.sum(dscaled * expect)
        grad[self.proj_w] = (du.T @ features).ravel()
        grad[self.proj_b] = du.sum(axis=0)

        scaled = scale * expect
        for name in self.task_names:
            if name not in dlogits:
                continue
            d = np.asarray(dlogits[name])
            w_slice, b_slice = self._head_slices[name]
            grad[w_slice] = (d.T @ scaled).ravel()
            grad[b_slice] = d.sum(axis=0)
        return grad
