"""The benchmark's workloads, each driven through qmtl's public API.

Every call into qmtl goes through a module attribute (``trainer.train``,
``cli.eval_logits``, ...) so that the tracer's wrappers see it.  Each
workload times one kind of operation, so its ``ms_per_row`` is one number a
user waits for.  A workload has:

* ``phase``: the name under which its timing prints (``train_rows_per_s``,
  ``step_ms``, ``eval_noisy_ms_per_row``, ...);
* ``setup(seed)``: what a user's process does before any work (preset ->
  config, synthetic data, model assembly);
* ``gates(ctx, tally)``: gradient and exact-eval gates, run outside the
  timed region;
* ``timed(ctx, seconds, tally)``: the timed loop, returning samples
  ``(seconds, rows)``; it gates each output outside its timing;
* ``fixed(ctx, tally)``: a fixed amount of the same work, whose outputs the
  traced run must reproduce bit for bit;
* ``check(ctx, outputs, tally)``: gates on ``fixed`` outputs.

The seed drives parameter init, batch order, task draws and the shot and
noise streams; the preset's own teacher seed fixes the data.
"""

from __future__ import annotations

import itertools
import math
import time
import traceback
from types import SimpleNamespace

import numpy as np

from qmtl import circuit, cli, data, gradients, optim, presets, trainer
from qmtl.losses import MISSING
from qmtl.noise import NoiseSpec
from qmtl.optim import AdamState

import reference

TOY_EPOCHS = 1           # epochs per trainer.train call on train-toy
GLUE_TIMED_STEPS = 1     # a glue-like step outlasts the run, so the count is fixed
GATE_ROWS = 4            # rows in the gradient gate's sub-batch
SHOTS = 4096
SHOT_ROWS = 16           # rows per shot-sampled eval call
NOISE_P = 0.01           # p1 = p2
TRAJECTORIES = 1000
NOISY_FIXED_ROWS = 2


class Tally:
    """Attempted and failed operations; an operation fails if it raises or
    its output fails a gate."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.control_tripped = []   # one entry per gradient gate's negative control

    def check(self, ok, what, count=1):
        self.attempted += count
        if not ok:
            self.failed += count
            self.notes.append(what)
        return ok

    def guard(self, fn, what):
        """(True, fn()) or, if it raises, (False, None) with the traceback noted."""
        try:
            return True, fn()
        except Exception:  # the caller counts the failed operation and goes on
            self.notes.append(f"{what} raised:\n{traceback.format_exc()}")
            return False, None


def _preset(name, seed, **train):
    config = presets.get_preset(name)
    config["train"].update(train)
    specs = cli.task_specs_from(config)
    train_data, val_data = data.gen_synthetic(cli.data_spec_from(config, specs))
    cfg = cli.train_config_from(config, seed_override=seed)
    return config, specs, cfg, train_data, val_data


def _clocked(fn):
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def _gradient_gate(model, params, sub, specs, tally, what):
    ok, out = tally.guard(
        lambda: gradients.loss_gradient(model, params, sub.features, sub.labels, specs),
        f"{what} gradient gate")
    if not ok:
        tally.check(False, f"{what}: gradient gate")
        return
    grad = out[1]
    numeric = reference.central_difference(model, params, sub.features, sub.labels, specs)
    tally.check(reference.gradient_matches(grad, numeric),
                f"{what}: loss_gradient disagrees with central differences")
    # not an operation, but the gate must reject it
    tally.control_tripped.append(
        not reference.gradient_matches(reference.negative_control(grad), numeric))


class TrainToy:
    """trainer.train on the toy preset, qmtl heads."""

    phase = "train_rows_per_s"
    required = ("data.gen_synthetic", "trainer.train", "trainer.evaluate",
                "gradients.loss_gradient", "losses.task_loss_and_grad",
                "optim.clip_global_norm", "optim.adam_step", "metrics.compute_metric",
                "model.forward_batch", "circuit._run", "statevector.apply_matrix")

    def setup(self, seed):
        config, specs, cfg, train_data, val_data = _preset("toy", seed, epochs=TOY_EPOCHS)
        return SimpleNamespace(
            specs=specs, cfg=cfg, train=train_data, val=val_data,
            model=cli.head_model_from(config, specs),
            steps=TOY_EPOCHS * math.ceil(train_data.num_samples / cfg.batch_size),
            rows=TOY_EPOCHS * train_data.num_samples,
        )

    def gates(self, ctx, tally):
        _gradient_gate(ctx.model, ctx.model.init_params(ctx.cfg.seed),
                       ctx.train.subset(np.arange(GATE_ROWS)), ctx.specs, tally, "toy")

    def _call(self, ctx, tally):
        ok, out = tally.guard(lambda: _clocked(lambda: trainer.train(
            ctx.model, ctx.train, ctx.val, ctx.specs, ctx.cfg)), "toy train")
        if not ok:
            tally.check(False, "toy train", ctx.steps)
        return out

    def timed(self, ctx, seconds, tally):
        samples, first = [], None
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            out = self._call(ctx, tally)
            if out is None:
                break
            elapsed, result = out
            samples.append((elapsed, ctx.rows))
            # every call starts from the same seed, so it must end identically
            if first is None:
                first = result.final_params
            tally.check(np.array_equal(first, result.final_params),
                        "toy train is not deterministic", ctx.steps)
        return samples

    def fixed(self, ctx, tally):
        out = self._call(ctx, tally)
        if out is None:
            return {}
        tally.check(True, "toy train", ctx.steps)
        return {"params": out[1].final_params}

    def check(self, ctx, outputs, tally):
        pass  # the gradient gate and the determinism check cover training


class TrainGlue:
    """glue-like steps: one seeded task per step, loss_gradient -> clip -> AdamW."""

    phase = "step_ms"
    required = ("data.gen_synthetic", "gradients.loss_gradient",
                "losses.task_loss_and_grad", "optim.clip_global_norm", "optim.adam_step",
                "model.forward_batch", "circuit._run", "statevector.apply_matrix")

    def setup(self, seed):
        config, specs, cfg, train_data, _ = _preset("glue-like", seed)
        return SimpleNamespace(specs=specs, cfg=cfg, train=train_data, seed=seed,
                               model=cli.head_model_from(config, specs))

    def _batches(self, ctx):
        """Endless seeded (task spec, batch) draws."""
        rng_task = np.random.default_rng([ctx.seed, 1])
        rng_rows = np.random.default_rng([ctx.seed, 0])
        while True:
            spec = ctx.specs[int(rng_task.integers(len(ctx.specs)))]
            labeled = np.flatnonzero(np.asarray(ctx.train.labels[spec.name]) != MISSING)
            rows = rng_rows.choice(labeled, ctx.cfg.batch_size, replace=False)
            yield spec, ctx.train.subset(rows)

    def gates(self, ctx, tally):
        spec, sub = next(self._batches(ctx))
        _gradient_gate(ctx.model, ctx.model.init_params(ctx.seed),
                       sub.subset(np.arange(GATE_ROWS)), [spec], tally, "glue-like")

    def _steps(self, ctx, count, tally):
        """(wall time, params) after each of ``count`` optimizer steps; the
        list ends early, with time None, if a step fails."""
        model, cfg = ctx.model, ctx.cfg
        params = model.init_params(ctx.seed)
        adam = AdamState.zeros(model.num_params)
        weight_decay = cfg.weight_decay if cfg.optimizer == "adamw" else 0.0
        mask = model.decay_mask()

        def step(spec, sub):
            _, grad = gradients.loss_gradient(model, params, sub.features, sub.labels, [spec])
            grad = optim.clip_global_norm(grad, cfg.clip_norm)
            return optim.adam_step(params, grad, adam, cfg.lr,
                                   weight_decay=weight_decay, decay_mask=mask)

        out = []
        for spec, sub in itertools.islice(self._batches(ctx), count):
            ok, result = tally.guard(lambda: _clocked(lambda: step(spec, sub)),
                                     "glue-like step")
            tally.check(ok, "glue-like step")
            if not ok:
                out.append((None, params))
                break
            elapsed, params = result
            out.append((elapsed, params))
        return out

    def timed(self, ctx, seconds, tally):
        return [(elapsed, ctx.cfg.batch_size)
                for elapsed, _ in self._steps(ctx, GLUE_TIMED_STEPS, tally)
                if elapsed is not None]

    def fixed(self, ctx, tally):
        return {"params": self._steps(ctx, 1, tally)[-1][1]}

    def check(self, ctx, outputs, tally):
        pass


class EvalToy:
    """cli.eval_logits on the toy validation rows, with shots or with noise."""

    LAYERS = {
        "shots": ("model.forward", "circuit.evaluate", "statevector.sample_expectation"),
        "noisy": ("noise.noisy_expectations",),
    }

    def __init__(self, mode):
        self.mode = mode
        self.phase = f"eval_{mode}_ms_per_row"
        self.required = ("data.gen_synthetic", "cli.eval_logits", "circuit._run",
                         "statevector.apply_matrix") + self.LAYERS[mode]

    def setup(self, seed):
        config, specs, _, _, val_data = _preset("toy", seed)
        model = cli.head_model_from(config, specs)
        return SimpleNamespace(model=model, val=val_data, seed=seed,
                               params=model.init_params(seed))

    def _references(self, ctx):
        """Single-row exact expectations of every val row, computed once."""
        if not hasattr(ctx, "exact_raw"):
            model = ctx.model.model
            theta = ctx.params[: model.num_circuit_params]
            ctx.exact_raw = np.stack([circuit.evaluate_expectations(
                model.circuit, theta, x, list(model.observables)) for x in ctx.val.features])
            ctx.noisy_raw = {}
        return ctx.exact_raw

    def gates(self, ctx, tally):
        """Exact eval of every val row equals the single-row evaluation."""
        exact = reference.calibrate(ctx.model.model, ctx.params, self._references(ctx))
        ok, logits = tally.guard(lambda: cli.eval_logits(
            ctx.model, ctx.params, ctx.val.features), "exact eval")
        tally.check(ok and all(np.allclose(logits[name], exact[name], rtol=0.0, atol=1e-12)
                               for name in exact),
                    "exact eval differs from single-row circuit.evaluate_expectations")

    def _plans(self, ctx):
        """Endless (rows, eval_logits kwargs) draws for this mode."""
        rng = np.random.default_rng([ctx.seed, 2])
        n = ctx.val.num_samples
        order = rng.permutation(n)
        for call in itertools.count():
            if self.mode == "shots":
                rows = np.take(order, np.arange(SHOT_ROWS) + call * SHOT_ROWS, mode="wrap")
                yield rows, {"shots": SHOTS, "seed": int(rng.integers(2 ** 31))}
            else:
                noise = NoiseSpec(p1=NOISE_P, p2=NOISE_P, num_trajectories=TRAJECTORIES,
                                  seed=int(rng.integers(2 ** 31)))
                yield order[[call % n]], {"noise": noise}

    def _call(self, ctx, rows, kwargs, tally):
        ok, out = tally.guard(lambda: _clocked(lambda: cli.eval_logits(
            ctx.model, ctx.params, ctx.val.features[rows], **kwargs)), f"{self.mode} eval")
        if not ok:
            tally.check(False, f"{self.mode} eval")
        return out

    def timed(self, ctx, seconds, tally):
        samples = []
        plans = self._plans(ctx)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            rows, kwargs = next(plans)
            out = self._call(ctx, rows, kwargs, tally)
            if out is None:
                break
            samples.append((out[0], len(rows)))
            # gate each output at once, so no output is held
            self.check(ctx, [(rows, out[1])], tally)
        return samples

    def fixed(self, ctx, tally):
        rows, kwargs = next(self._plans(ctx))
        if self.mode == "noisy":
            rows = np.arange(NOISY_FIXED_ROWS)
        out = self._call(ctx, rows, kwargs, tally)
        return [] if out is None else [(rows, out[1])]

    def check(self, ctx, outputs, tally):
        """Gate eval outputs against references, computed once per row."""
        model, params = ctx.model.model, ctx.params
        theta = params[: model.num_circuit_params]
        exact_raw = self._references(ctx)
        for rows, logits in outputs:
            if self.mode == "shots":
                ok = reference.within_se(model, params, logits, exact_raw[rows], SHOTS)
            else:
                for r in rows:
                    if r not in ctx.noisy_raw:
                        ctx.noisy_raw[r] = reference.density_matrix_expectations(
                            model.circuit, theta, ctx.val.features[r], model.observables,
                            NOISE_P, NOISE_P)
                ref = np.stack([ctx.noisy_raw[r] for r in rows])
                ok = reference.within_se(model, params, logits, ref, TRAJECTORIES)
            tally.check(ok, f"{self.mode} eval of val rows {rows[:4].tolist()} failed its gate")


WORKLOADS = {
    "train-toy": TrainToy(),
    "train-glue": TrainGlue(),
    "eval-toy-shots": EvalToy("shots"),
    "eval-toy-noisy": EvalToy("noisy"),
}
