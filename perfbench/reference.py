"""Correctness gates with references written here in plain numpy.

* gradient: ``loss_gradient`` against central differences of the loss
  computed from ``forward_batch`` logits.  No shift rule is involved, so the
  gate also holds for any future gradient engine.
* shots: each estimate within ``K_SE`` standard errors of the exact value.
* noise: each trajectory estimate within ``K_SE`` standard errors of a
  density-matrix evolution of the same Pauli-twirl channel.
"""

from __future__ import annotations

import numpy as np

from qmtl import losses

K_SE = 6.0            # per-estimate false alarm below 1e-8 for a normal tail
FD_EPS = 1e-5
GRAD_RTOL = 1e-6      # of max(1, |grad|_inf); a 1% error in the largest entry is far above it

# ---------------------------------------------------------------------------
# gradient


def batch_loss(head_model, params, features, labels, specs):
    logits = head_model.forward_batch(params, features)
    return sum(spec.lambda_weight * losses.task_loss_and_grad(
        spec, logits[spec.name], np.asarray(labels[spec.name]))[0] for spec in specs)


def central_difference(head_model, params, features, labels, specs):
    grad = np.empty(len(params))
    for j in range(len(params)):
        up, down = params.copy(), params.copy()
        up[j] += FD_EPS
        down[j] -= FD_EPS
        grad[j] = (batch_loss(head_model, up, features, labels, specs)
                   - batch_loss(head_model, down, features, labels, specs)) / (2 * FD_EPS)
    return grad


def gradient_matches(grad, numeric):
    tol = GRAD_RTOL * max(1.0, float(np.max(np.abs(numeric))))
    return bool(np.max(np.abs(grad - numeric)) <= tol)


def negative_control(grad):
    """The same gradient with its largest component scaled by 1.01."""
    bad = grad.copy()
    bad[np.argmax(np.abs(bad))] *= 1.01
    return bad


# ---------------------------------------------------------------------------
# calibration (affine / temperature / none), as documented in the model


def calibrate(model, params, raw):
    """Logits per head from raw expectations of shape (..., n_observables)."""
    out = {}
    for head in model.heads:
        z = raw[..., head.logit_slice]
        scalars = params[head.calib_slice]
        if head.calibration.kind == "affine":
            r = head.outputs
            out[head.name] = scalars[r:] + scalars[:r] * z
        elif head.calibration.kind == "temperature":
            out[head.name] = scalars[0] * z
        else:
            out[head.name] = z
    return out


def within_se(model, params, got, exact_raw, samples):
    """Every logit within K_SE standard errors of the logit of ``exact_raw``.

    A per-sample value lies in [-1, 1] with mean mu, so its variance is at
    most 1 - mu**2; that bound is exact for +-1 shot outcomes.
    """
    want = calibrate(model, params, exact_raw)
    se = np.sqrt(np.clip(1.0 - exact_raw ** 2, 0.0, None) / samples)
    # calibration is affine in the raw value, so its slope carries the error
    ones, zeros = (calibrate(model, params, np.full(exact_raw.shape[-1], v)) for v in (1, 0))
    return all(np.all(np.abs(got[h.name] - want[h.name])
                      <= K_SE * se[..., h.logit_slice] * np.abs(ones[h.name] - zeros[h.name])
                      + 1e-9)
               for h in model.heads)


# ---------------------------------------------------------------------------
# density-matrix reference for depolarizing Pauli-twirl noise

_I = np.eye(2, dtype=complex)
_PAULI = {"X": np.array([[0, 1], [1, 0]], dtype=complex),
          "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
          "Z": np.array([[1, 0], [0, -1]], dtype=complex)}
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)


def _rotation(axis, angle):
    # exp(-i angle P / 2)
    return np.cos(angle / 2) * _I - 1j * np.sin(angle / 2) * _PAULI[axis]


def _gate(kind, angles):
    if kind == "h":
        return _H
    if kind in ("x", "y", "z"):
        return _PAULI[kind.upper()]
    if kind == "rot":
        alpha, beta, gamma = angles
        return _rotation("Z", gamma) @ _rotation("Y", beta) @ _rotation("Z", alpha)
    return _rotation(kind[1].upper(), angles[0])


def _on_qubits(mats, num_qubits):
    """Full operator for {qubit: 2x2}; qubit 0 is the least significant bit."""
    full = np.ones((1, 1), dtype=complex)
    for q in reversed(range(num_qubits)):
        full = np.kron(full, mats.get(q, _I))
    return full


def _cnot(control, target, num_qubits):
    dim = 1 << num_qubits
    idx = np.arange(dim)
    perm = np.where((idx >> control) & 1 == 1, idx ^ (1 << target), idx)
    full = np.zeros((dim, dim), dtype=complex)
    full[perm, idx] = 1.0
    return full


def _twirl(rho, paulis, p):
    mixed = sum(op @ rho @ op.conj().T for op in paulis) / len(paulis)
    return (1.0 - p) * rho + p * mixed


def density_matrix_expectations(circuit, theta, x, observables, p1, p2):
    """Exact expectations under the trajectory model of ``qmtl.noise``: after
    each 1-qubit gate a uniform X/Y/Z with probability p1, after each CNOT a
    uniform non-identity 2-qubit Pauli with probability p2."""
    n = circuit.num_qubits
    rho = np.zeros((1 << n, 1 << n), dtype=complex)
    rho[0, 0] = 1.0
    for op in circuit.ops:
        if op.kind == "cnot":
            u = _cnot(op.qubits[0], op.qubits[1], n)
            a, b = op.qubits
            paulis = [_on_qubits({q: m for q, m in ((a, pa), (b, pb)) if m is not None}, n)
                      for pa in (None, *_PAULI.values()) for pb in (None, *_PAULI.values())
                      if pa is not None or pb is not None]
            p = p2
        else:
            angles = [theta[r.index] if r.kind == "theta" else
                      x[r.index] if r.kind == "input" else r.value for r in op.params]
            u = _on_qubits({op.qubits[0]: _gate(op.kind, angles)}, n)
            paulis = [_on_qubits({op.qubits[0]: m}, n) for m in _PAULI.values()]
            p = p1
        rho = u @ rho @ u.conj().T
        if p > 0.0:
            rho = _twirl(rho, paulis, p)
    return np.array([np.real(np.trace(_on_qubits(
        {q: _PAULI[axis] for q, axis in obs.terms}, n) @ rho)) for obs in observables])
