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
from dataclasses import replace
from pathlib import Path

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
    count_params_classical,
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


def _feature_dim(config: dict) -> int:
    return _require(_require(config, "data"), "feature_dim", "data", int)


def _heads(config: dict) -> list:
    """The config's head entries, at least one, each checked to be an object
    with a name."""
    heads = _require(config, "heads", kind=list)
    if not heads:
        raise ConfigError("config 'heads' must list at least one head")
    for i, h in enumerate(heads):
        if not isinstance(h, dict) or "name" not in h:
            raise ConfigError(f"head {i} has no 'name'")
    return heads


def model_config_from(config: dict) -> QmtlModelConfig:
    enc = _require(config, "encoder")
    encoder = SharedEncoderConfig(
        num_qubits=_require(enc, "qubits", "encoder", int),
        layers=_require(enc, "layers", "encoder", int),
        entangling=_optional(enc, "entangling", True, "encoder", bool),
    )
    feature_dim = _feature_dim(config)
    if feature_dim != encoder.feature_dim:
        raise ConfigError(
            f"data.feature_dim is {feature_dim}, but the encoder consumes "
            f"qubits * layers = {encoder.feature_dim} features"
        )
    heads = []
    for i, h in enumerate(_heads(config)):
        heads.append(TaskHeadConfig(
            name=h["name"],
            qubits=_require(h, "qubits", f"head {i}", list),
            outputs=_require(h, "outputs", f"head {i}", int),
            layers=_optional(h, "layers", 1, f"head {i}", int),
            k_theta=_optional(h, "k_theta", 3, f"head {i}", int),
            calibration=Calibration(kind=_optional(h, "calibration", "none", f"head {i}", str)),
        ))
    return QmtlModelConfig(encoder, heads)


def task_specs_from(config: dict) -> list:
    specs = []
    for i, h in enumerate(_heads(config)):
        where = f"head {i}"
        specs.append(TaskSpec(
            name=h["name"],
            kind=_optional(h, "kind", "binary", where, str),
            num_classes=_optional(h, "num_classes", 2, where, int),
            lambda_weight=_optional(h, "lambda", 1.0, where, NUMBER),
            metrics=tuple(_optional(h, "metrics", ["accuracy"], where, list)),
            loss=_optional(h, "loss", "default", where, str),
            focal_gamma=_optional(h, "focal_gamma", 2.0, where, NUMBER),
            focal_alpha=_optional(h, "focal_alpha", 1.0, where, NUMBER),
            eval_binarize=_optional(h, "eval_binarize", False, where, bool),
        ))
    return specs


def _data_options(config: dict) -> dict:
    d = _require(config, "data")
    return {"teacher_seed": _optional(d, "teacher_seed", 0, "data", int),
            "noise_level": _optional(d, "noise_level", 0.0, "data", NUMBER)}


def data_spec_from(config: dict, specs) -> SyntheticSpec:
    d = _require(config, "data")
    return SyntheticSpec(
        feature_dim=_feature_dim(config),
        tasks=specs,
        n_train=_require(d, "n_train", "data", int),
        n_val=_require(d, "n_val", "data", int),
        **_data_options(config),
    )


def _datasets(config: dict, specs) -> tuple:
    """(specs, train, val): the config's data, and ``specs`` with focal class
    weights resolved from the training split as ``train`` resolves them, so
    every report scores the loss that training minimizes."""
    train_data, val_data = gen_synthetic(data_spec_from(config, specs))
    return resolve_class_weights(specs, train_data), train_data, val_data


def _train_section(config: dict) -> dict:
    return _optional(config, "train", {}, kind=dict)


def train_config_from(config: dict, seed_override=None) -> TrainConfig:
    t = dict(_train_section(config))
    if seed_override is not None:
        t["seed"] = seed_override
    known = {f for f in TrainConfig.__dataclass_fields__}
    unknown = set(t) - known
    if unknown:
        raise ConfigError(f"unknown train keys: {sorted(unknown)}")
    return TrainConfig(**t)


def _hqnn_qubits(config: dict) -> int:
    hqnn = _optional(config, "hqnn", {}, kind=dict)
    return _optional(hqnn, "qubits", HQNN_QUBITS, "hqnn", int)


def _variant(config: dict) -> str:
    variant = _optional(config, "variant", "qmtl", kind=str)
    if variant not in VARIANTS:
        raise ConfigError(f"unknown head variant {variant!r}; expected one of {VARIANTS}")
    return variant


def head_model_from(config: dict, specs):
    variant = _variant(config)
    names = [s.name for s in specs]
    outputs = [s.num_logits for s in specs]
    # read for every variant, as every report holds the HQNN budget
    hqnn_qubits = _hqnn_qubits(config)
    if variant == "qmtl":
        return QmtlHeadModel(model_config_from(config))
    feature_dim = _feature_dim(config)
    if variant == "classical":
        return ClassicalHeadModel(feature_dim, outputs, names)
    return HqnnHeadModel(feature_dim, hqnn_qubits, outputs, names)


def budget_dict(config: dict, specs) -> dict:
    """Quantum/classical/HQNN parameter counts for the configured shape."""
    feature_dim = _feature_dim(config)
    outputs = [s.num_logits for s in specs]
    names = [s.name for s in specs]
    out = {
        "classical": count_params_classical(feature_dim, outputs),
        "hqnn": HqnnHeadModel(feature_dim, _hqnn_qubits(config), outputs, names).num_params,
    }
    if _variant(config) == "qmtl":
        budget = count_params_quantum(model_config_from(config))
        out["quantum"] = {
            "shared": budget.shared,
            "per_head": dict(zip(names, budget.per_head)),
            "total": budget.total,
        }
    return out


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


def checkpoint_model(checkpoint: dict, config: dict, specs) -> tuple:
    """The head model ``config`` builds and the checkpoint's parameters for
    it, or a ConfigError when the two sizes differ."""
    head_model = head_model_from(config, specs)
    if head_model.num_params != checkpoint["num_params"]:
        raise ConfigError(
            f"checkpoint/config mismatch: checkpoint has {checkpoint['num_params']} "
            f"parameters, config builds {head_model.num_params}"
        )
    return head_model, np.array(checkpoint["params"], dtype=float)


def run_report(config: dict, report: dict, specs, seed: int, extra=None) -> dict:
    out = {
        "config": config,
        "budget": budget_dict(config, specs),
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
    """Per-task logits, optionally under shot sampling or depolarizing noise.

    Shot sampling and noise are only meaningful for the quantum model; the
    classical/HQNN baselines always evaluate exactly.  Row i, commuting group
    g samples shots from its own stream, keyed (seed, i, g).  Noise runs one
    ``noisy_expectations`` call per row, on the engine that
    ``noise.engine(Q)`` picks: the exact density matrix for Q <=
    ``noise.EXACT_QUBITS``, else ``noise.num_trajectories`` trajectories drawn
    from ``noise.seed``.
    """
    if (shots is None and noise is None) or not isinstance(head_model, QmtlHeadModel):
        return head_model.forward_batch(params, features)
    model = head_model.model
    if noise is not None:
        theta = params[: model.num_circuit_params]
        obs = list(model.observables)
        raw = np.stack([
            noisy_expectations(model.circuit, theta, x, obs, noise)
            for x in features
        ])
        return logits_from_raw(model, params, raw)
    rows = [forward(model, params, x, shots=shots, seed=(seed, i))
            for i, x in enumerate(features)]
    return {name: np.stack([r[name] for r in rows]) for name in model.task_names}


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
    specs = task_specs_from(config)
    # the counts need no data sizes or train section, but a bad value in
    # either is refused here as `train` refuses it
    _data_options(config)
    for key in ("n_train", "n_val"):
        _optional(config["data"], key, None, "data", int)
    train_config_from(config)
    budget = budget_dict(config, specs)
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
    config = load_config(args)
    seed = args.seed if args.seed is not None else _train_section(config).get("seed", 0)
    specs, report, result = _train_and_eval(config, seed)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "history.jsonl", "w") as fh:
        for record in result.history:
            fh.write(json.dumps(record) + "\n")
    write_checkpoint(out_dir / "checkpoint.json", config, result.best_params, seed)
    summary = run_report(config, report, specs, seed, extra={
        "history": "history.jsonl",
        "epochs_run": result.epochs_run,
        "monitor": result.best_value,
    })
    (out_dir / "report.json").write_text(json.dumps(summary, indent=2) + "\n")

    print(f"trained {_variant(config)} head for {result.epochs_run} epochs "
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
    if args.seed is not None:
        _nonnegative_seeds([args.seed], "--seed")
    checkpoint = read_checkpoint(Path(args.checkpoint))
    config = checkpoint["config"] if args.config is None and args.preset is None \
        else load_config(args)
    specs = task_specs_from(config)
    seed = args.seed if args.seed is not None else checkpoint["seed"]
    noise = _noise_spec(args.p1, args.p2, args.trajectories, seed)
    head_model, params = checkpoint_model(checkpoint, config, specs)
    specs, _, val_data = _datasets(config, specs)
    logits = eval_logits(head_model, params, val_data.features,
                         shots=args.shots, noise=noise,
                         seed=seed)
    report = report_from_logits(logits, val_data.labels, specs)
    noise_engine = None
    if noise is not None and isinstance(head_model, QmtlHeadModel):
        noise_engine = engine(head_model.model.circuit.num_qubits)
    summary = run_report(config, report, specs, seed, extra={
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


def _budget_cells(config: dict, specs) -> dict:
    """The P_C cell of a sweep row, and P_shared and P_Q for the qmtl variant."""
    budget = budget_dict(config, specs)
    cells = {"P_C": budget["classical"]}
    if "quantum" in budget:
        cells["P_shared"] = budget["quantum"]["shared"]
        cells["P_Q"] = budget["quantum"]["total"]
    return cells


def _rebuild_config(config: dict, *, layers=None, head_layers=None, entangling=None):
    out = json.loads(json.dumps(config))
    if layers is not None:
        encoder = _require(out, "encoder")
        encoder["layers"] = layers
        # capacity matching: the encoder consumes exactly Q*L features
        _require(out, "data")["feature_dim"] = _require(encoder, "qubits", "encoder") * layers
    if head_layers is not None:
        for h in out["heads"]:
            h["layers"] = head_layers
    if entangling is not None:
        _require(out, "encoder")["entangling"] = entangling
    return out


def _train_and_eval(config: dict, seed: int):
    specs = task_specs_from(config)
    cfg = train_config_from(config, seed_override=seed)
    specs, train_data, val_data = _datasets(config, specs)
    head_model = head_model_from(config, specs)
    result = train(head_model, train_data, val_data, specs, cfg)
    report = evaluate(head_model, result.best_params, val_data, specs)
    return specs, report, result


def cmd_sweep(args) -> int:
    if args.kind not in SWEEP_KINDS:
        raise ConfigError(f"unknown sweep kind {args.kind!r}; expected one of {SWEEP_KINDS}")
    base = load_config(args)
    base_specs = task_specs_from(base)
    seeds = _nonnegative_seeds(_parse_int_list(args.seeds), "--seeds")
    if args.seed is not None:
        seeds = _nonnegative_seeds([args.seed], "--seed")

    rows = []
    if args.kind == "noise":
        grid = _parse_float_list(args.grid) if args.grid else [0.0, 0.01, 0.05, 0.1, 0.2]
        # checked before any training; each seed gets its own noise stream
        noises = [_noise_spec(p, p, args.trajectories, 0) for p in grid]
        checkpoint = None if args.checkpoint is None else read_checkpoint(Path(args.checkpoint))
        config = base if checkpoint is None else checkpoint["config"]
        specs = task_specs_from(config)
        if checkpoint is None:
            head_model = head_model_from(config, specs)
        else:
            head_model, params = checkpoint_model(checkpoint, config, specs)
        specs, train_data, val_data = _datasets(config, specs)
        cells = _budget_cells(config, specs)
        for seed in seeds:
            if checkpoint is None:
                cfg = train_config_from(config, seed_override=seed)
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
            configs = [_rebuild_config(base, layers=L) for L in grid]
        elif args.kind == "depth-Lh":
            grid = _parse_int_list(args.grid) if args.grid else [1, 2]
            configs = [_rebuild_config(base, head_layers=Lh) for Lh in grid]
        else:
            configs = [_rebuild_config(base, entangling=flag) for flag in (True, False)]
        if not configs:
            raise ConfigError("empty sweep grid")
        for config in configs:
            specs = task_specs_from(config)
            encoder = _require(config, "encoder")
            # the cells that do not depend on the seed, read before any training
            cells = {"kind": args.kind,
                     "L": _require(encoder, "layers", "encoder"),
                     "L_h": config["heads"][0].get("layers", 1),
                     "entangling": _optional(encoder, "entangling", True, "encoder"),
                     **_budget_cells(config, specs)}
            for seed in seeds:
                _, report, _ = _train_and_eval(config, seed)
                rows.append({"seed": seed, **cells, **_metric_cells(report, specs)})

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"sweep_{args.kind}.csv"
    columns = _sweep_columns(base_specs)
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
