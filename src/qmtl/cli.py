"""Command-line front end: parameter accounting, gradient checks, training,
evaluation, and ablation/noise sweeps over synthetic multi-task datasets.

Exit codes: 0 success, 1 configuration error, 2 failed gradcheck property.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .circuit import random_circuit
from .data import SyntheticSpec, gen_synthetic
from .errors import ConfigError, QmtlError
from .gradients import SHIFT, adjoint_vjp, finite_diff_jacobian, param_shift_jacobian
from .losses import TaskSpec
from .model import (
    Calibration,
    ClassicalHeadModel,
    HqnnHeadModel,
    QmtlHeadModel,
    QmtlModelConfig,
    SharedEncoderConfig,
    TaskHeadConfig,
    count_params_quantum,
    forward,
    logits_from_raw,
    scaling_table,
)
from .noise import EXACT_QUBITS, NoiseSpec, engine, noisy_expectations
from .presets import PRESETS, get_preset
from .statevector import PauliString
from .trainer import TrainConfig, evaluate, report_from_logits, resolve_class_weights, train

VARIANTS = ("qmtl", "classical", "hqnn")
CHECKPOINT_VERSION = 1
HQNN_QUBITS = 4
NUMBER = (int, float)


# ---------------------------------------------------------------------------
# config plumbing


def load_config(args) -> dict:
    if args.preset is not None and args.config is not None:
        raise ConfigError("--config and --preset are mutually exclusive")
    if args.preset is not None:
        try:
            return get_preset(args.preset)
        except KeyError:
            raise ConfigError(
                f"unknown preset {args.preset!r}; available: {', '.join(sorted(PRESETS))}"
            )
    if args.config is None:
        raise ConfigError("either --config or --preset is required")
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}")
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{args.config}:{exc.lineno}:{exc.colno}: {exc.msg}")
    if not isinstance(config, dict):
        raise ConfigError(f"{args.config}: top level must be an object")
    return config


def _require(section: dict, key: str, where: str = "config", kind=object):
    """``section[key]``, or a ConfigError naming the missing key, a section
    that is not an object, or a value that is not a ``kind`` (a type or a
    tuple of types).  A JSON boolean is no integer or number here, though
    Python's ``bool`` is an ``int``."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object, got {section!r}")
    if key not in section:
        raise ConfigError(f"{where} has no {key!r}")
    value = section[key]
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if not isinstance(value, kinds) or (isinstance(value, bool) and int in kinds):
        names = " or ".join(k.__name__ for k in kinds)
        raise ConfigError(f"{where} {key!r} must be a {names}, got {value!r}")
    return value


def _optional(section: dict, key: str, default, where: str = "config", kind=object):
    """``section[key]`` checked as ``_require`` checks it, or ``default`` when
    the key is absent."""
    if isinstance(section, dict) and key not in section:
        return default
    return _require(section, key, where, kind)


# every key each section accepts: key -> (default, type), REQUIRED for a key
# without a default; a key outside its section's table is refused
REQUIRED = object()
_TOP_KEYS = {"variant": ("qmtl", str), "encoder": (None, dict), "heads": (REQUIRED, list),
             "data": (REQUIRED, dict), "train": ({}, dict), "hqnn": ({}, dict),
             "scaling": (None, dict)}
_ENCODER_KEYS = {"qubits": (REQUIRED, int), "layers": (REQUIRED, int),
                 "entangling": (True, bool)}
_HEAD_KEYS = {
    "name": (REQUIRED, str), "kind": ("binary", str), "num_classes": (2, int),
    "lambda": (1.0, NUMBER), "metrics": (("accuracy",), list), "loss": ("default", str),
    "focal_gamma": (2.0, NUMBER), "focal_alpha": (1.0, NUMBER), "eval_binarize": (False, bool),
    # the circuit head, read for the qmtl variant; `outputs` defaults to the
    # task's logit count and must equal it when given
    "qubits": (None, list), "outputs": (None, int), "layers": (1, int), "k_theta": (3, int),
    "calibration": ("none", str),
}
_DATA_KEYS = {"feature_dim": (REQUIRED, int), "n_train": (None, int), "n_val": (None, int),
              "teacher_seed": (0, int), "noise_level": (0.0, NUMBER)}
_HQNN_KEYS = {"qubits": (HQNN_QUBITS, int)}
# TrainConfig checks its own values
_TRAIN_KEYS = {f.name: (f.default, object) for f in fields(TrainConfig)}


@dataclass(frozen=True)
class Experiment:
    """An experiment config, read and checked once; every command takes one."""

    raw: dict                         # the JSON as given, stored in checkpoints and reports
    variant: str
    specs: tuple                      # of TaskSpec, one per head
    feature_dim: int
    model: Optional[QmtlModelConfig]  # None for the classical and hqnn baselines
    data: Optional[SyntheticSpec]     # None without data sizes, as `params` allows
    train: TrainConfig
    hqnn_qubits: int

    def head_model(self, variant=None):
        """The head model of ``variant``, by default the configured one."""
        variant = variant or self.variant
        if variant == "qmtl":
            return QmtlHeadModel(self.model)
        outputs, names = [s.num_logits for s in self.specs], [s.name for s in self.specs]
        if variant == "classical":
            return ClassicalHeadModel(self.feature_dim, outputs, names)
        return HqnnHeadModel(self.feature_dim, self.hqnn_qubits, outputs, names)

    def datasets(self) -> tuple:
        """(specs, train, val): the config's data, and the specs with focal
        class weights resolved from the training split as ``train`` resolves
        them, so every report scores the loss that training minimizes."""
        if self.data is None:
            raise ConfigError("data needs 'n_train' and 'n_val' to build datasets")
        train_data, val_data = gen_synthetic(self.data)
        return resolve_class_weights(self.specs, train_data), train_data, val_data

    def budget(self) -> dict:
        """Parameter counts of the baseline heads, and of the quantum circuit
        for the qmtl variant; every report holds them."""
        out = {variant: self.head_model(variant).num_params for variant in ("classical", "hqnn")}
        if self.model is not None:
            budget = count_params_quantum(self.model)
            out["quantum"] = {
                "shared": budget.shared,
                "per_head": {s.name: n for s, n in zip(self.specs, budget.per_head)},
                "total": budget.total,
            }
        return out


def parse_experiment(config: dict) -> Experiment:
    """``config`` read into an ``Experiment``, or a ConfigError naming the
    first unknown key, missing key, wrong type or value that breaks a rule,
    so that every command refuses the same configs."""

    def read(section, where: str, table: dict) -> dict:
        if not isinstance(section, dict):
            raise ConfigError(f"{where} must be an object, got {section!r}")
        unknown = sorted(set(section) - set(table))
        if unknown:
            raise ConfigError(f"unknown {where} keys: {unknown}")
        return {key: _require(section, key, where, kind) if default is REQUIRED
                else _optional(section, key, default, where, kind)
                for key, (default, kind) in table.items()}

    top = read(config, "config", _TOP_KEYS)
    variant = top["variant"]
    if variant not in VARIANTS:
        raise ConfigError(f"unknown head variant {variant!r}; expected one of {VARIANTS}")
    if not top["heads"]:
        raise ConfigError("config 'heads' must list at least one head")
    specs, heads = [], []
    for i, entry in enumerate(top["heads"]):
        h = read(entry, f"head {i}", _HEAD_KEYS)
        spec = TaskSpec(
            name=h["name"], kind=h["kind"], num_classes=h["num_classes"],
            lambda_weight=h["lambda"], metrics=tuple(h["metrics"]), loss=h["loss"],
            focal_gamma=h["focal_gamma"], focal_alpha=h["focal_alpha"],
            eval_binarize=h["eval_binarize"],
        )
        outputs = spec.num_logits if h["outputs"] is None else h["outputs"]
        if variant == "qmtl":
            heads.append(TaskHeadConfig(
                name=spec.name, qubits=_require(entry, "qubits", f"head {i}", list),
                outputs=outputs, layers=h["layers"], k_theta=h["k_theta"],
                calibration=Calibration(kind=h["calibration"]),
            ))
        if outputs != spec.num_logits:
            raise ConfigError(f"head {spec.name!r} has {outputs} outputs, but its "
                              f"{spec.kind} task has {spec.num_logits} logits")
        specs.append(spec)
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ConfigError(f"head names must be unique, got {names}")

    d = read(top["data"], "data", _DATA_KEYS)
    # checked with or without the data sizes
    data = SyntheticSpec(tasks=specs, **{k: 1 if v is None else v for k, v in d.items()})
    model = None
    # an encoder is checked whenever given, and the qmtl variant needs one
    if variant == "qmtl" or top["encoder"] is not None:
        e = read(_require(config, "encoder"), "encoder", _ENCODER_KEYS)
        encoder = SharedEncoderConfig(e["qubits"], e["layers"], e["entangling"])
        if d["feature_dim"] != encoder.feature_dim:
            raise ConfigError(f"data.feature_dim is {d['feature_dim']}, but the encoder "
                              f"consumes qubits * layers = {encoder.feature_dim} features")
        if variant == "qmtl":
            model = QmtlModelConfig(encoder, heads)
    exp = Experiment(
        raw=config, variant=variant, specs=tuple(specs), feature_dim=d["feature_dim"],
        model=model, data=None if None in (d["n_train"], d["n_val"]) else data,
        train=TrainConfig(**read(top["train"], "train", _TRAIN_KEYS)),
        hqnn_qubits=read(top["hqnn"], "hqnn", _HQNN_KEYS)["qubits"],
    )
    exp.budget()  # every report holds it, so a config it cannot count is refused here
    return exp


# kept for callers outside the CLI (the benchmark, tools and tests); the
# tasks come from ``config``, and ``specs`` is accepted as before
def task_specs_from(config: dict) -> list:
    return list(parse_experiment(config).specs)


def data_spec_from(config: dict, specs) -> SyntheticSpec:
    return parse_experiment(config).data


def train_config_from(config: dict, seed_override=None) -> TrainConfig:
    train_cfg = parse_experiment(config).train
    return train_cfg if seed_override is None else replace(train_cfg, seed=seed_override)


def head_model_from(config: dict, specs):
    return parse_experiment(config).head_model()


# ---------------------------------------------------------------------------
# artifact IO


def write_checkpoint(path: Path, config: dict, params: np.ndarray, seed: int) -> None:
    payload = {
        "version": CHECKPOINT_VERSION,
        "seed": seed,
        "num_params": int(len(params)),
        "params": [float(v) for v in params],
        "config": config,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")


def read_checkpoint(path: Path) -> dict:
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read checkpoint {path}: {exc}")
    if not isinstance(payload, dict):
        raise ConfigError(f"checkpoint {path}: top level must be an object")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {payload.get('version')!r}")
    missing = [key for key in ("seed", "num_params", "params", "config") if key not in payload]
    if missing:
        raise ConfigError(f"checkpoint {path} is missing {', '.join(missing)}")
    params = payload["params"]
    if not isinstance(params, list) or not all(
            isinstance(v, NUMBER) and not isinstance(v, bool) and math.isfinite(v)
            for v in params):
        raise ConfigError(f"checkpoint {path}: 'params' must be a list of finite numbers")
    for key in ("num_params", "seed"):
        if not isinstance(payload[key], int) or isinstance(payload[key], bool):
            raise ConfigError(f"checkpoint {path}: {key!r} must be an integer, "
                              f"got {payload[key]!r}")
    _nonnegative_seeds([payload["seed"]], f"checkpoint {path}: 'seed'")
    if len(params) != payload["num_params"]:
        raise ConfigError("checkpoint is corrupt: parameter count mismatch")
    return payload


def checkpoint_model(checkpoint: dict, exp: Experiment) -> tuple:
    """The head model ``exp`` builds and the checkpoint's parameters for it,
    or a ConfigError when the two sizes differ."""
    head_model = exp.head_model()
    if head_model.num_params != checkpoint["num_params"]:
        raise ConfigError(f"checkpoint/config mismatch: checkpoint has {checkpoint['num_params']} "
                          f"parameters, config builds {head_model.num_params}")
    return head_model, np.array(checkpoint["params"], dtype=float)


def run_report(exp: Experiment, report: dict, seed: int, extra=None) -> dict:
    out = {
        "config": exp.raw,
        "budget": exp.budget(),
        "tasks": report,
        "seed": seed,
        "versions": {"qmtl": __version__, "numpy": np.__version__},
    }
    if extra:
        out.update(extra)
    return out


def _print_task_table(report: dict) -> None:
    for name, entry in report.items():
        cells = [f"{k}={v:.4f}" for k, v in entry.items()
                 if isinstance(v, float)]
        print(f"  {name}: " + " ".join(cells))


# ---------------------------------------------------------------------------
# noisy / sampled evaluation


def eval_logits(head_model, params, features, *, shots=None, noise=None, seed=0):
    """Per-task logit matrices for every row of ``features``: exact, from
    ``shots`` samples, or under depolarizing ``noise``.

    Shot sampling and noise are only meaningful for the quantum model; the
    classical/HQNN baselines always evaluate exactly.  The exact and the
    shot-sampled logits of all rows come from one call; row i, commuting
    group g samples shots from its own stream, keyed (seed, i, g).  Noise
    runs one ``noisy_expectations`` call per row, on the engine that
    ``noise.engine(Q)`` picks: the exact density matrix for Q <=
    ``noise.EXACT_QUBITS``, else ``noise.num_trajectories`` trajectories
    drawn from ``noise.seed``.  Give at most one of ``shots`` and ``noise``.
    """
    if (shots is None and noise is None) or not isinstance(head_model, QmtlHeadModel):
        return head_model.forward_batch(params, features)
    model = head_model.model
    if noise is None:
        return forward(model, params, features, shots, seed)
    theta = params[: model.num_circuit_params]
    obs = list(model.observables)
    # one row per call, though noisy_expectations takes them all: the
    # benchmark's tracer (perfbench/tracing.py) counts num_trajectories once
    # per call, so only one-row calls keep its trajectory count right
    raw = np.concatenate([noisy_expectations(model.circuit, theta, x[None], obs, noise)
                          for x in np.asarray(features, dtype=float)])
    return logits_from_raw(model, params, raw)


# ---------------------------------------------------------------------------
# subcommands


def cmd_params(args) -> int:
    config = load_config(args)
    if "scaling" in config:
        s = _require(config, "scaling", kind=dict)
        counts = _require(s, "task_counts", "scaling", list)
        if not all(isinstance(t, int) and not isinstance(t, bool) for t in counts):
            raise ConfigError(f"scaling 'task_counts' must be integers, got {counts!r}")
        rows = scaling_table(counts, **{
            key: _require(s, key, "scaling", int)
            for key in ("outputs", "layers", "k_theta", "head_layers", "head_size")
        })
        print("T\td\tP_C\tP_Q\tratio\tratio*T")
        for row in rows:
            print(f"{row['T']}\t{row['d']}\t{row['P_C']}\t{row['P_Q']}"
                  f"\t{row['ratio']:.8f}\t{row['ratio'] * row['T']:.8f}")
        return 0
    # the counts need no data sizes or train section, but the parser refuses
    # a bad value in either, as it does for `train`
    budget = parse_experiment(config).budget()
    if "quantum" in budget:
        q = budget["quantum"]
        print(f"P_shared {q['shared']}")
        for name, n in q["per_head"].items():
            print(f"p_head {name} {n}")
        print(f"P_Q {q['total']}")
    print(f"P_C {budget['classical']}")
    print(f"P_HQNN {budget['hqnn']}")
    return 0


GRADCHECK_TOL = 1e-5


def _gradcheck_observables(num_qubits: int, rng) -> list:
    obs = [PauliString({0: "Z"})]
    terms = {}
    for q in range(min(num_qubits, 2)):
        terms[int(rng.integers(num_qubits))] = str(rng.choice(["X", "Y", "Z"]))
    obs.append(PauliString(terms))
    return obs


def _max_dev(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b))) if a.size else 0.0


def cmd_gradcheck(args) -> int:
    """Parameter shift (max_dev) and the adjoint training gradient with random
    observable weights (adjoint_dev), each against finite differences."""
    if not 1 <= args.qubits <= 8:
        raise ConfigError(f"gradcheck supports 1 to 8 qubits, got --qubits {args.qubits}")
    if args.depth < 1:
        raise ConfigError(f"--depth must be >= 1, got {args.depth}")
    shift = SHIFT * (1.01 if args.corrupt_shift else 1.0)
    seeds = _nonnegative_seeds(_parse_int_list(args.seeds), "--seeds")
    print("seed\tmax_dev\tadjoint_dev\tstatus")
    ok = True
    for seed in seeds:
        rng = np.random.default_rng(seed)
        circuit = random_circuit(args.qubits, args.depth, rng)
        theta = rng.uniform(0.0, 2 * np.pi, circuit.num_trainable)
        observables = _gradcheck_observables(args.qubits, rng)
        weights = rng.normal(size=(1, len(observables)))
        analytic = param_shift_jacobian(circuit, theta, (), observables, shift=shift)
        numeric = finite_diff_jacobian(circuit, theta, (), observables)
        _, adjoint, _ = adjoint_vjp(circuit, theta, np.zeros((1, 0)), observables, weights)
        dev = _max_dev(analytic, numeric)
        adjoint_dev = _max_dev(adjoint, weights[0] @ numeric)
        passed = dev <= GRADCHECK_TOL and adjoint_dev <= GRADCHECK_TOL
        ok &= passed
        print(f"{seed}\t{dev:.3e}\t{adjoint_dev:.3e}\t{'pass' if passed else 'FAIL'}")
    return 0 if ok else 2


def cmd_train(args) -> int:
    exp = parse_experiment(load_config(args))
    seed = args.seed if args.seed is not None else exp.train.seed
    report, result = _train_and_eval(exp, seed)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "history.jsonl", "w") as fh:
        for record in result.history:
            fh.write(json.dumps(record) + "\n")
    write_checkpoint(out_dir / "checkpoint.json", exp.raw, result.best_params, seed)
    summary = run_report(exp, report, seed, extra={
        "history": "history.jsonl",
        "epochs_run": result.epochs_run,
        "monitor": result.best_value,
    })
    (out_dir / "report.json").write_text(json.dumps(summary, indent=2) + "\n")

    print(f"trained {exp.variant} head for {result.epochs_run} epochs "
          f"(monitor {result.best_value:.4f})")
    _print_task_table(report)
    print(f"artifacts in {out_dir}")
    return 0


def _noise_spec(p1: float, p2: float, trajectories: int, seed: int):
    """The NoiseSpec of the noise flags, None when both probabilities are 0."""
    try:
        noise = NoiseSpec(p1=p1, p2=p2, num_trajectories=trajectories, seed=seed)
    except ValueError as exc:
        raise ConfigError(f"invalid noise settings: {exc}")
    return None if p1 == 0.0 and p2 == 0.0 else noise


def cmd_eval(args) -> int:
    if args.shots is not None and args.shots < 1:
        raise ConfigError(f"--shots must be >= 1, got {args.shots}")
    if args.shots is not None and (args.p1, args.p2) != (0.0, 0.0):
        raise ConfigError("--shots cannot be combined with --p1/--p2: "
                          "noisy evaluation takes no shots")
    if args.seed is not None:
        _nonnegative_seeds([args.seed], "--seed")
    checkpoint = read_checkpoint(Path(args.checkpoint))
    exp = parse_experiment(checkpoint["config"] if args.config is None and args.preset is None
                           else load_config(args))
    seed = args.seed if args.seed is not None else checkpoint["seed"]
    noise = _noise_spec(args.p1, args.p2, args.trajectories, seed)
    head_model, params = checkpoint_model(checkpoint, exp)
    specs, _, val_data = exp.datasets()
    logits = eval_logits(head_model, params, val_data.features,
                         shots=args.shots, noise=noise,
                         seed=seed)
    report = report_from_logits(logits, val_data.labels, specs)
    noise_engine = None
    if noise is not None and isinstance(head_model, QmtlHeadModel):
        noise_engine = engine(head_model.model.circuit.num_qubits)
    summary = run_report(exp, report, seed, extra={
        "checkpoint": str(args.checkpoint),
        "shots": args.shots,
        "noise": {"p1": args.p1, "p2": args.p2, "trajectories": args.trajectories,
                  "engine": noise_engine},
    })
    if args.out_dir is not None:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps(summary["tasks"], indent=2))
    return 0


SWEEP_KINDS = ("depth-L", "depth-Lh", "entanglement", "noise")
_SWEEP_FIXED_COLUMNS = ("kind", "seed", "L", "L_h", "entangling", "p1", "p2",
                        "P_shared", "P_Q", "P_C")


def _parse_int_list(text: str) -> list:
    try:
        return [int(v) for v in str(text).split(",") if v != ""]
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}")


def _nonnegative_seeds(seeds: list, what: str) -> list:
    """``seeds``, or a ConfigError naming ``what`` if one is negative: numpy's
    generators take only seeds >= 0."""
    for seed in seeds:
        if seed < 0:
            raise ConfigError(f"{what} must be >= 0, got {seed}")
    return seeds


def _parse_float_list(text: str) -> list:
    try:
        return [float(v) for v in str(text).split(",") if v != ""]
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}")


def _sweep_columns(specs) -> list:
    cols = list(_SWEEP_FIXED_COLUMNS)
    for spec in specs:
        for tag in spec.metrics:
            cols.append(f"{spec.name}.{tag}")
        cols.append(f"{spec.name}.loss")
    return cols


def _metric_cells(report: dict, specs) -> dict:
    cells = {}
    for spec in specs:
        for tag in spec.metrics:
            cells[f"{spec.name}.{tag}"] = report[spec.name][tag]
        cells[f"{spec.name}.loss"] = report[spec.name]["loss"]
    return cells


def _budget_cells(exp: Experiment) -> dict:
    """The P_C cell of a sweep row, and P_shared and P_Q for the qmtl variant."""
    budget = exp.budget()
    cells = {"P_C": budget["classical"]}
    if "quantum" in budget:
        cells["P_shared"] = budget["quantum"]["shared"]
        cells["P_Q"] = budget["quantum"]["total"]
    return cells


def _rebuild_config(config: dict, *, layers=None, head_layers=None, entangling=None):
    """``config`` with the swept values set; every row reports its encoder."""
    out = json.loads(json.dumps(config))
    encoder = _require(out, "encoder")
    if layers is not None:
        encoder["layers"] = layers
        # capacity matching: the encoder consumes exactly Q*L features
        out["data"]["feature_dim"] = encoder["qubits"] * layers
    if head_layers is not None:
        for h in out["heads"]:
            h["layers"] = head_layers
    if entangling is not None:
        encoder["entangling"] = entangling
    return out


def _train_and_eval(exp: Experiment, seed: int):
    specs, train_data, val_data = exp.datasets()
    head_model = exp.head_model()
    result = train(head_model, train_data, val_data, specs, replace(exp.train, seed=seed))
    return evaluate(head_model, result.best_params, val_data, specs), result


def cmd_sweep(args) -> int:
    if args.kind not in SWEEP_KINDS:
        raise ConfigError(f"unknown sweep kind {args.kind!r}; expected one of {SWEEP_KINDS}")
    base = parse_experiment(load_config(args))
    seeds = _nonnegative_seeds(_parse_int_list(args.seeds), "--seeds")
    if args.seed is not None:
        seeds = _nonnegative_seeds([args.seed], "--seed")

    rows = []
    if args.kind == "noise":
        grid = _parse_float_list(args.grid) if args.grid else [0.0, 0.01, 0.05, 0.1, 0.2]
        # checked before any training; each seed gets its own noise stream
        noises = [_noise_spec(p, p, args.trajectories, 0) for p in grid]
        checkpoint = None if args.checkpoint is None else read_checkpoint(Path(args.checkpoint))
        if checkpoint is None:
            head_model = base.head_model()
        else:
            # the checkpoint's config builds the model, so its tasks name the columns
            base = parse_experiment(checkpoint["config"])
            head_model, params = checkpoint_model(checkpoint, base)
        specs, train_data, val_data = base.datasets()
        cells = _budget_cells(base)
        for seed in seeds:
            if checkpoint is None:
                cfg = replace(base.train, seed=seed)
                params = train(head_model, train_data, val_data, specs, cfg).best_params
            for p, noise in zip(grid, noises):
                if noise is not None:
                    noise = replace(noise, seed=seed)
                logits = eval_logits(head_model, params, val_data.features,
                                     noise=noise, seed=seed)
                report = report_from_logits(logits, val_data.labels, specs)
                rows.append({"kind": "noise", "seed": seed, "p1": p, "p2": p, **cells,
                             **_metric_cells(report, specs)})
    else:
        if args.kind == "depth-L":
            grid = _parse_int_list(args.grid) if args.grid else [2, 3, 4]
            configs = [_rebuild_config(base.raw, layers=L) for L in grid]
        elif args.kind == "depth-Lh":
            grid = _parse_int_list(args.grid) if args.grid else [1, 2]
            configs = [_rebuild_config(base.raw, head_layers=Lh) for Lh in grid]
        else:
            configs = [_rebuild_config(base.raw, entangling=flag) for flag in (True, False)]
        if not configs:
            raise ConfigError("empty sweep grid")
        # every grid point is parsed, and so checked, before any training
        for exp in [parse_experiment(config) for config in configs]:
            encoder = exp.raw["encoder"]
            cells = {"kind": args.kind, "L": encoder["layers"],
                     "L_h": exp.raw["heads"][0].get("layers", 1),
                     "entangling": encoder.get("entangling", True), **_budget_cells(exp)}
            for seed in seeds:
                report, _ = _train_and_eval(exp, seed)
                rows.append({"seed": seed, **cells, **_metric_cells(report, exp.specs)})

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"sweep_{args.kind}.csv"
    columns = _sweep_columns(base.specs)
    with open(out_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    print(f"wrote {len(rows)} rows to {out_path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


TRAJECTORIES_HELP = (
    f"noise trajectories, used only for Q > {EXACT_QUBITS} qubits: smaller registers "
    "get the exact density matrix")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmtl",
        description="Variational multi-task quantum head: parameter accounting, "
                    "training, and ablation sweeps on synthetic data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_dir_default=None):
        p.add_argument("--config", help="path to a JSON experiment config")
        p.add_argument("--preset", choices=sorted(PRESETS),
                       help="use a shipped configuration")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's training seed")
        if out_dir_default is not None:
            p.add_argument("--out-dir", default=out_dir_default,
                           help="directory for run artifacts")

    p = sub.add_parser("params", help="print quantum/classical parameter counts")
    common(p)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("gradcheck",
                       help="compare parameter-shift and adjoint gradients to "
                            "finite differences")
    p.add_argument("--qubits", type=int, default=4)
    p.add_argument("--depth", type=int, default=20)
    p.add_argument("--seeds", default="0,1,2,3,4",
                   help="comma-separated circuit seeds")
    p.add_argument("--corrupt-shift", action="store_true",
                   help=argparse.SUPPRESS)  # negative-control test hook
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("train", help="train a head variant on synthetic data")
    common(p, out_dir_default="runs/latest")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a stored checkpoint")
    common(p)
    p.add_argument("--out-dir", default=None, help="optional report directory")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--shots", type=int, default=None,
                   help="estimate observables from this many shots")
    p.add_argument("--p1", type=float, default=0.0,
                   help="depolarizing probability after 1-qubit gates")
    p.add_argument("--p2", type=float, default=0.0,
                   help="depolarizing probability after CNOTs")
    p.add_argument("--trajectories", type=int, default=1000, help=TRAJECTORIES_HELP)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="run an ablation or noise sweep, emit CSV")
    common(p, out_dir_default="runs/sweep")
    p.add_argument("kind", choices=SWEEP_KINDS)
    p.add_argument("--grid", default=None,
                   help="comma-separated grid values (depths or noise probs)")
    p.add_argument("--seeds", default="0", help="comma-separated training seeds")
    p.add_argument("--checkpoint", default=None,
                   help="fixed checkpoint for the noise sweep (skips training)")
    p.add_argument("--trajectories", type=int, default=500, help=TRAJECTORIES_HELP)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except QmtlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
