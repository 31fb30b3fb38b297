"""Per-layer tracing by wrapping public functions of the ``qmtl`` modules.

``Tracer.install`` replaces each wrapped function in every ``qmtl``
namespace that holds a reference to it (modules import several of them by
name), so calls made through any of those names are recorded.  Each wrapper
keeps three aggregates per function: calls, busy seconds, and self seconds
(busy time minus the time of wrapped calls made inside it).  Spans are
aggregated instead of stored because a noisy evaluation makes about a
million kernel calls per row.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# module -> public functions to wrap; circuit._run is the gate loop that
# every evaluation path shares, so its self time is the per-gate overhead
WRAPPED = {
    "statevector": ("apply_matrix", "apply_cnot_array", "expectation_array",
                    "sample_expectation"),
    "circuit": ("evaluate_expectations_batch", "evaluate_expectations", "evaluate", "_run"),
    "model": ("forward_batch", "backward_batch", "forward"),
    "gradients": ("loss_gradient", "param_shift_jacobian_batch"),
    "losses": ("task_loss_and_grad",),
    "optim": ("clip_global_norm", "adam_step"),
    "metrics": ("compute_metric",),
    "trainer": ("train", "evaluate"),
    "noise": ("noisy_expectations",),
    "data": ("gen_synthetic",),
    "cli": ("eval_logits",),
}

# namespaces that import a wrapped function by name; install() checks that
# each of these now holds the wrapper, so a missed reference cannot go unseen
BY_NAME_IMPORTS = (
    ("trainer", "loss_gradient"), ("trainer", "adam_step"),
    ("trainer", "clip_global_norm"), ("trainer", "task_loss_and_grad"),
    ("cli", "forward"), ("cli", "noisy_expectations"),
    ("model", "evaluate_expectations_batch"), ("gradients", "evaluate_expectations_batch"),
    ("noise", "_run"),
)

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in WRAPPED.items() for fn in fns)

# a gradient angle counts as useful when it is above this share of the
# largest one; structurally zero entries come out exactly 0 or at rounding level
USEFUL_REL_TOL = 1e-12


class Tracer:
    def __init__(self):
        self.calls = {name: 0 for name in FUNCTIONS}
        self.busy = {name: 0.0 for name in FUNCTIONS}
        self.self_time = {name: 0.0 for name in FUNCTIONS}
        self.bytes = {"statevector.apply_matrix": 0, "statevector.apply_cnot_array": 0}
        self.rows = 0
        self.trajectories = 0
        self.shots = 0
        self.runs_in_gradient = 0
        self.gradient_steps = 0     # loss_gradient calls on a circuit model
        self.useful = []            # per such call: share of angles with dL != 0
        self._stack = []            # [name, child seconds] of open spans
        self._saved = []            # (namespace, attribute, original)

    # -- span bookkeeping -------------------------------------------------

    def _wrap(self, name, fn):
        stack = self._stack
        record = self._RECORDERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self.calls[name] += 1
                self.busy[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if record is not None:
                record(self, args, kwargs, out)
            return out

        wrapper.__wrapped_by_tracer__ = fn
        return wrapper

    def _in_gradient(self):
        return any(frame[0] == "gradients.loss_gradient" for frame in self._stack)

    # computed, not measured: one read and one write of the amplitude array
    def _rec_apply_matrix(self, args, kwargs, out):
        self.bytes["statevector.apply_matrix"] += 2 * args[0].nbytes

    # plus the int64 permutation index the gather reads
    def _rec_apply_cnot(self, args, kwargs, out):
        amps = args[0]
        self.bytes["statevector.apply_cnot_array"] += 2 * amps.nbytes + 8 * amps.shape[-1]

    def _rec_batch(self, args, kwargs, out):
        self.rows += np.shape(args[2])[0]

    def _rec_run(self, args, kwargs, out):
        if self._in_gradient():
            self.runs_in_gradient += 1

    def _rec_noisy(self, args, kwargs, out):
        noise = args[4] if len(args) > 4 else kwargs["noise"]
        if noise.p1 > 0.0 or noise.p2 > 0.0:
            self.trajectories += noise.num_trajectories

    def _rec_shots(self, args, kwargs, out):
        self.shots += args[2] if len(args) > 2 else kwargs["shots"]

    def _rec_loss_gradient(self, args, kwargs, out):
        circuit_model = getattr(args[0], "model", None)
        if circuit_model is None:
            return
        grad = np.abs(out[1][: circuit_model.num_circuit_params])
        self.gradient_steps += 1
        self.useful.append(
            np.count_nonzero(grad > USEFUL_REL_TOL * grad.max()) / grad.size)

    _RECORDERS = {
        "statevector.apply_matrix": _rec_apply_matrix,
        "statevector.apply_cnot_array": _rec_apply_cnot,
        "circuit.evaluate_expectations_batch": _rec_batch,
        "circuit._run": _rec_run,
        "noise.noisy_expectations": _rec_noisy,
        "statevector.sample_expectation": _rec_shots,
        "gradients.loss_gradient": _rec_loss_gradient,
    }

    # -- installation -----------------------------------------------------

    def install(self):
        namespaces = [m for key, m in sorted(sys.modules.items())
                      if m is not None and (key == "qmtl" or key.startswith("qmtl."))]
        for mod, fns in WRAPPED.items():
            home = sys.modules[f"qmtl.{mod}"]
            for fn in fns:
                original = getattr(home, fn, None)
                if original is None:
                    continue  # reported as zero calls
                wrapper = self._wrap(f"{mod}.{fn}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._saved.append((ns, attr, original))
                            setattr(ns, attr, wrapper)
        for mod, fn in BY_NAME_IMPORTS:
            held = getattr(sys.modules[f"qmtl.{mod}"], fn, None)
            if held is not None and not hasattr(held, "__wrapped_by_tracer__"):
                self.uninstall()
                raise RuntimeError(f"qmtl.{mod}.{fn} was not wrapped")

    def uninstall(self):
        for ns, attr, original in reversed(self._saved):
            setattr(ns, attr, original)
        self._saved.clear()

    # -- results ----------------------------------------------------------

    def metrics(self):
        out = {}
        for name in FUNCTIONS:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.s"] = (self.busy[name], "s")
            out[f"{name}.self_s"] = (self.self_time[name], "s")
        for key, value in self.bytes.items():
            out[f"{key}.bytes"] = (value, "bytes_computed")
        out["circuit.evaluate_expectations_batch.rows"] = (self.rows, "rows")
        out["gradients.circuit_runs_per_step"] = (
            self.runs_in_gradient / self.gradient_steps if self.gradient_steps else 0.0,
            "runs/step")
        out["gradients.useful_param_frac"] = (
            float(np.mean(self.useful)) if self.useful else 0.0, "frac")
        out["noise.noisy_expectations.trajectories"] = (self.trajectories, "count")
        out["statevector.sample_expectation.shots"] = (self.shots, "count")
        return out
