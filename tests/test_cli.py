import csv
import json

import numpy as np
import pytest

import qmtl.model
import qmtl.noise
from qmtl.cli import eval_logits, head_model_from, main, parse_experiment, task_specs_from
from qmtl.errors import ConfigError
from qmtl.presets import PRESETS, get_preset


TINY_CONFIG = {
    "variant": "qmtl",
    "encoder": {"qubits": 2, "layers": 2},
    "heads": [
        {"name": "u", "qubits": [0], "outputs": 1, "kind": "binary"},
        {"name": "v", "qubits": [1], "outputs": 1, "kind": "binary"},
    ],
    "data": {"feature_dim": 4, "n_train": 24, "n_val": 12, "teacher_seed": 0},
    "train": {"lr": 0.1, "epochs": 2, "batch_size": 12, "protocol": "parallel",
              "seed": 0},
}


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return str(path)


def test_params_preset_counts(capsys):
    assert main(["params", "--preset", "glue-like"]) == 0
    out = capsys.readouterr().out
    assert "P_shared 30" in out
    assert "P_Q 60" in out
    assert "P_C 341" in out


def test_params_scaling_table(capsys):
    assert main(["params", "--preset", "theorem1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split("\t") == ["T", "d", "P_C", "P_Q", "ratio", "ratio*T"]
    by_t = {row.split("\t")[0]: row.split("\t") for row in lines[1:]}
    assert by_t["10"][1:4] == ["30", "620", "40"] or by_t["10"][1:4] == ["30", "620", "40"]
    # single-parameter regime: P_Q = 4T, P_C = T(d+1) with d = 3Q = 3*... fixed
    t10 = by_t["10"]
    assert t10[2] == "620" and t10[3] == "40"


_BAD_SCALING = {
    "scaling-key": (lambda cfg: cfg["scaling"].update(typo_key=5), "unknown scaling keys"),
    "top-key": (lambda cfg: cfg.update(typo_key=5), "unknown config keys"),
    "variant": (lambda cfg: cfg.update(variant="bogus"), "unknown head variant 'bogus'"),
    "task_counts-empty": (lambda cfg: cfg["scaling"].update(task_counts=[]), "non-empty"),
    "task_counts-bool": (lambda cfg: cfg["scaling"].update(task_counts=[True]), "task_counts"),
    # a scaling config holds `variant` and `scaling` only
    "heads": (lambda cfg: cfg.update(heads=3), "unknown config keys: ['heads']"),
}


@pytest.mark.parametrize("fault", sorted(_BAD_SCALING))
def test_params_refuses_a_bad_scaling_config(tmp_path, capsys, fault):
    edit, needle = _BAD_SCALING[fault]
    config = get_preset("theorem1")
    edit(config)
    path = tmp_path / "scaling.json"
    path.write_text(json.dumps(config))
    assert main(["params", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and needle in captured.err
    assert captured.out == ""  # no table


def test_params_refuses_other_sections_beside_scaling(tmp_path, capsys):
    config = dict(get_preset("theorem1"), heads=[{"bogus": 1}], train={"lr": -5})
    assert set(get_preset("theorem1")) == {"variant", "scaling"}
    path = tmp_path / "scaling.json"
    path.write_text(json.dumps(config))
    err = _fails_cleanly(["params", "--config", str(path)], capsys)
    assert "unknown config keys: ['heads', 'train']" in err


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--qubits", "3", "--depth", "10",
                 "--seeds", "0,1"]) == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 2


def test_gradcheck_detects_corrupted_shift(capsys):
    code = main(["gradcheck", "--qubits", "4", "--depth", "20",
                 "--seeds", "0", "--corrupt-shift"])
    assert code == 2
    assert "FAIL" in capsys.readouterr().out


def test_gradcheck_rejects_large_systems(capsys):
    assert main(["gradcheck", "--qubits", "9"]) == 1


@pytest.mark.parametrize("flag", ["--qubits", "--depth"])
def test_gradcheck_rejects_empty_circuits(capsys, flag):
    err = _fails_cleanly(["gradcheck", flag, "0", "--seeds", "0"], capsys)
    assert flag in err


def test_config_and_preset_are_exclusive(tiny_config):
    assert main(["params", "--config", tiny_config, "--preset", "toy"]) == 1


def test_missing_config_reports_error(tmp_path, capsys):
    assert main(["params", "--config", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_json_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"variant": "qmtl",,}')
    assert main(["params", "--config", str(bad)]) == 1
    assert ":1:20:" in capsys.readouterr().err


def test_train_writes_artifacts(tiny_config, tmp_path):
    out = tmp_path / "run"
    assert main(["train", "--config", tiny_config, "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report["tasks"]) == {"u", "v"}
    assert report["seed"] == 0
    checkpoint = json.loads((out / "checkpoint.json").read_text())
    assert checkpoint["num_params"] == len(checkpoint["params"])
    history = [json.loads(line)
               for line in (out / "history.jsonl").read_text().splitlines()]
    assert history and all("train_loss" in row for row in history)


def test_train_deterministic_across_runs(tiny_config, tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["train", "--config", tiny_config, "--out-dir", str(out)]) == 0
        outs.append(json.loads((out / "report.json").read_text()))
    assert outs[0]["tasks"] == outs[1]["tasks"]
    checks = [json.loads((tmp_path / tag / "checkpoint.json").read_text())
              for tag in ("a", "b")]
    assert checks[0]["params"] == checks[1]["params"]


def test_eval_reproduces_training_report(tiny_config, tmp_path):
    out = tmp_path / "run"
    main(["train", "--config", tiny_config, "--out-dir", str(out)])
    eval_out = tmp_path / "eval"
    assert main(["eval", "--checkpoint", str(out / "checkpoint.json"),
                 "--out-dir", str(eval_out)]) == 0
    trained = json.loads((out / "report.json").read_text())["tasks"]
    evaluated = json.loads((eval_out / "report.json").read_text())["tasks"]
    for name in trained:
        for key in ("loss", "accuracy"):
            assert evaluated[name][key] == pytest.approx(trained[name][key],
                                                         abs=1e-12)


def test_eval_rejects_mismatched_config(tiny_config, tmp_path, capsys):
    out = tmp_path / "run"
    main(["train", "--config", tiny_config, "--out-dir", str(out)])
    other = dict(TINY_CONFIG)
    other["encoder"] = {"qubits": 2, "layers": 3}
    other["data"] = dict(TINY_CONFIG["data"], feature_dim=6)
    other_path = tmp_path / "other.json"
    other_path.write_text(json.dumps(other))
    code = main(["eval", "--checkpoint", str(out / "checkpoint.json"),
                 "--config", str(other_path)])
    assert code == 1
    assert "mismatch" in capsys.readouterr().err


def test_eval_with_shots_runs(tiny_config, tmp_path, capsys):
    out = tmp_path / "run"
    main(["train", "--config", tiny_config, "--out-dir", str(out)])
    assert main(["eval", "--checkpoint", str(out / "checkpoint.json"),
                 "--shots", "256"]) == 0


def test_sweep_entanglement_rows(tiny_config, tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "entanglement", "--config", tiny_config,
                 "--seeds", "0,1", "--out-dir", str(out)]) == 0
    with open(out / "sweep_entanglement.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert {r["entangling"] for r in rows} == {"True", "False"}
    assert {r["seed"] for r in rows} == {"0", "1"}
    for row in rows:
        assert float(row["u.accuracy"]) >= 0.0
        assert row["P_C"] != ""


def test_sweep_depth_l_tracks_param_budget(tiny_config, tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "depth-L", "--config", tiny_config,
                 "--grid", "1,2", "--out-dir", str(out)]) == 0
    with open(out / "sweep_depth-L.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["L"] for r in rows] == ["1", "2"]
    for row in rows:
        assert int(row["P_shared"]) == 2 * int(row["L"])


def test_sweep_noise_zero_matches_noiseless(tiny_config, tmp_path):
    run = tmp_path / "run"
    main(["train", "--config", tiny_config, "--out-dir", str(run)])
    out = tmp_path / "sweep"
    assert main(["sweep", "noise", "--config", tiny_config,
                 "--checkpoint", str(run / "checkpoint.json"),
                 "--grid", "0.0,0.05", "--trajectories", "64",
                 "--out-dir", str(out)]) == 0
    with open(out / "sweep_noise.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    trained = json.loads((run / "report.json").read_text())["tasks"]
    clean = rows[0]
    assert float(clean["p1"]) == 0.0
    for name in ("u", "v"):
        assert float(clean[f"{name}.loss"]) == pytest.approx(
            trained[name]["loss"], abs=1e-12)


# a focal multiclass head: training weights its loss by the classes of the
# training split
FOCAL_CONFIG = dict(
    TINY_CONFIG,
    encoder={"qubits": 3, "layers": 2},
    heads=[TINY_CONFIG["heads"][0],
           {"name": "w", "qubits": [1, 2], "outputs": 3, "kind": "multiclass",
            "num_classes": 3, "loss": "focal"}],
    data=dict(TINY_CONFIG["data"], feature_dim=6),
)


def test_every_report_scores_the_training_loss(tmp_path, capsys):
    path = tmp_path / "focal.json"
    path.write_text(json.dumps(FOCAL_CONFIG))
    run = tmp_path / "run"
    assert main(["train", "--config", str(path), "--out-dir", str(run)]) == 0
    report = json.loads((run / "report.json").read_text())
    history = [json.loads(line) for line in (run / "history.jsonl").read_text().splitlines()]
    best = next(record for record in history if record["monitor"] == report["monitor"])
    assert report["tasks"] == best["tasks"]

    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run / "checkpoint.json")]) == 0
    assert json.loads(capsys.readouterr().out) == report["tasks"]

    out = tmp_path / "sweep"
    assert main(["sweep", "noise", "--config", str(path), "--grid", "0",
                 "--checkpoint", str(run / "checkpoint.json"), "--out-dir", str(out)]) == 0
    with open(out / "sweep_noise.csv") as fh:
        (row,) = csv.DictReader(fh)
    for name, entry in report["tasks"].items():
        assert float(row[f"{name}.loss"]) == entry["loss"]


def test_unknown_train_key_rejected(tmp_path, capsys):
    cfg = json.loads(json.dumps(TINY_CONFIG))
    cfg["train"]["learning_rate"] = 0.1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(path),
                 "--out-dir", str(tmp_path / "o")]) == 1
    assert "learning_rate" in capsys.readouterr().err


@pytest.fixture
def checkpoint(tiny_config, tmp_path):
    out = tmp_path / "run"
    assert main(["train", "--config", tiny_config, "--out-dir", str(out)]) == 0
    return out / "checkpoint.json"


def _fails_cleanly(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    return err


def test_eval_rejects_zero_shots(checkpoint, capsys):
    err = _fails_cleanly(["eval", "--checkpoint", str(checkpoint), "--shots", "0"], capsys)
    assert "--shots" in err


def test_eval_rejects_zero_trajectories(checkpoint, capsys):
    _fails_cleanly(["eval", "--checkpoint", str(checkpoint), "--p1", "0.01",
                    "--trajectories", "0"], capsys)


def test_eval_rejects_probability_above_one(checkpoint, capsys):
    _fails_cleanly(["eval", "--checkpoint", str(checkpoint), "--p1", "1.5"], capsys)


@pytest.mark.parametrize("noise", [["--p1", "0.05"], ["--p2", "0.05"]], ids=["p1", "p2"])
def test_eval_with_shots_and_noise_fails_cleanly(checkpoint, tmp_path, capsys, noise):
    # noisy evaluation takes no shots, so a report must not record them
    out = tmp_path / "eval"
    err = _fails_cleanly(["eval", "--checkpoint", str(checkpoint), "--shots", "3",
                          "--out-dir", str(out)] + noise, capsys)
    assert "--shots" in err
    assert not out.exists()


@pytest.mark.parametrize("key", ["params", "num_params"])
def test_eval_rejects_checkpoint_without_key(checkpoint, tmp_path, capsys, key):
    payload = json.loads(checkpoint.read_text())
    del payload[key]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(payload))
    err = _fails_cleanly(["eval", "--checkpoint", str(broken)], capsys)
    assert key in err


_BAD_CHECKPOINTS = {
    "params-string": (lambda p: p["params"].__setitem__(0, "x"), "params"),
    "params-not-list": (lambda p: p.update(params=5), "params"),
    "params-null": (lambda p: p["params"].__setitem__(0, None), "params"),
    "params-bool": (lambda p: p["params"].__setitem__(0, True), "params"),
    "num_params-string": (lambda p: p.update(num_params="3"), "num_params"),
    "seed-string": (lambda p: p.update(seed="x"), "seed"),
    "seed-negative": (lambda p: p.update(seed=-1), "seed"),
}


@pytest.mark.parametrize("fault", sorted(_BAD_CHECKPOINTS))
def test_eval_rejects_bad_checkpoint_value(checkpoint, tmp_path, capsys, fault):
    edit, key = _BAD_CHECKPOINTS[fault]
    payload = json.loads(checkpoint.read_text())
    edit(payload)
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(payload))
    err = _fails_cleanly(["eval", "--checkpoint", str(broken), "--shots", "10"], capsys)
    assert key in err


@pytest.mark.parametrize("argv, flag", [
    (["gradcheck", "--seeds", "0,-1"], "--seeds"),
    (["eval", "--seed", "-2", "--shots", "10"], "--seed"),
    (["sweep", "noise", "--seeds", "-1"], "--seeds"),
    (["sweep", "noise", "--seed", "-1"], "--seed"),
], ids=["gradcheck-seeds", "eval-seed", "sweep-seeds", "sweep-seed"])
def test_negative_seed_fails_cleanly(checkpoint, tiny_config, tmp_path, capsys, argv, flag):
    if argv[0] != "gradcheck":
        argv = argv + ["--checkpoint", str(checkpoint)]
    if argv[0] == "sweep":
        argv = argv + ["--config", tiny_config, "--out-dir", str(tmp_path / "sweep")]
    err = _fails_cleanly(argv, capsys)
    assert f"{flag} must be >= 0" in err
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("argv, flag", [
    (["gradcheck", "--seeds", ""], "--seeds"),
    (["gradcheck", "--seeds", "0,x"], "--seeds"),
    (["sweep", "noise", "--grid", ","], "--grid"),
    (["sweep", "depth-L", "--seeds", ""], "--seeds"),
    (["sweep", "depth-L", "--grid", ","], "--grid"),
], ids=["gradcheck-seeds", "gradcheck-seeds-bad", "sweep-noise-grid", "sweep-depth-seeds",
        "sweep-depth-grid"])
def test_empty_or_bad_list_fails_cleanly(tiny_config, tmp_path, capsys, argv, flag):
    if argv[0] == "sweep":
        argv = argv + ["--config", tiny_config, "--out-dir", str(tmp_path / "sweep")]
    err = _fails_cleanly(argv, capsys)
    assert f"{flag} expects comma-separated" in err
    assert not (tmp_path / "sweep").exists()


def test_sweep_empty_grid_means_the_default_grid(tiny_config, tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "depth-L", "--config", tiny_config, "--grid", "",
                 "--out-dir", str(out)]) == 0
    with open(out / "sweep_depth-L.csv") as fh:
        assert [r["L"] for r in csv.DictReader(fh)] == ["2", "3", "4"]


def test_sweep_noise_columns_name_the_checkpoint_tasks(checkpoint, tmp_path):
    renamed = json.loads(json.dumps(TINY_CONFIG))
    for head, name in zip(renamed["heads"], ("a", "b")):
        head["name"] = name
    path = tmp_path / "renamed.json"
    path.write_text(json.dumps(renamed))
    out = tmp_path / "sweep"
    assert main(["sweep", "noise", "--config", str(path), "--checkpoint", str(checkpoint),
                 "--grid", "0.0,0.05", "--out-dir", str(out)]) == 0
    with open(out / "sweep_noise.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    for row in rows:
        assert not any(key.startswith(("a.", "b.")) for key in row)
        for name in ("u", "v"):
            assert 0.0 <= float(row[f"{name}.accuracy"]) <= 1.0
            assert float(row[f"{name}.loss"]) > 0.0


def test_sweep_noise_rejects_zero_trajectories(tiny_config, checkpoint, tmp_path, capsys):
    _fails_cleanly(["sweep", "noise", "--config", tiny_config,
                    "--checkpoint", str(checkpoint), "--grid", "0.0,0.05",
                    "--trajectories", "0", "--out-dir", str(tmp_path / "sweep")], capsys)
    assert not (tmp_path / "sweep" / "sweep_noise.csv").exists()


def test_gradcheck_reports_adjoint_column(capsys):
    assert main(["gradcheck", "--qubits", "3", "--depth", "12", "--seeds", "4"]) == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    assert header.split("\t") == ["seed", "max_dev", "adjoint_dev", "status"]
    assert float(row.split("\t")[2]) <= 1e-5


def _broken_config_argv(tmp_path, command, edit):
    cfg = json.loads(json.dumps(TINY_CONFIG))
    edit(cfg)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(cfg))
    argv = [command, "--config", str(path)]
    if command == "train":
        argv += ["--out-dir", str(tmp_path / "run")]
    return argv


def test_params_needs_no_data_sizes_or_train_section(tmp_path, capsys):
    cfg = json.loads(json.dumps(TINY_CONFIG))
    del cfg["train"], cfg["data"]["n_train"], cfg["data"]["n_val"]
    path = tmp_path / "counts.json"
    path.write_text(json.dumps(cfg))
    assert main(["params", "--config", str(path)]) == 0
    assert "P_Q " in capsys.readouterr().out


@pytest.mark.parametrize("command", ["params", "train"])
def test_head_without_name_fails_cleanly(tmp_path, capsys, command):
    def edit(cfg):
        del cfg["heads"][1]["name"]
    err = _fails_cleanly(_broken_config_argv(tmp_path, command, edit), capsys)
    assert "head 1" in err and "name" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["params", "train"])
def test_feature_dim_mismatch_fails_cleanly(tmp_path, capsys, command):
    def edit(cfg):
        cfg["data"]["feature_dim"] = 5
    err = _fails_cleanly(_broken_config_argv(tmp_path, command, edit), capsys)
    assert "feature_dim" in err and "4" in err
    assert not (tmp_path / "run").exists()


_MISSING_KEYS = {
    "encoder.qubits": (lambda cfg: cfg["encoder"].pop("qubits"), "encoder"),
    "head.qubits": (lambda cfg: cfg["heads"][0].pop("qubits"), "head 0"),
    "data.feature_dim": (lambda cfg: cfg["data"].pop("feature_dim"), "data"),
}


@pytest.mark.parametrize("command", ["params", "train"])
@pytest.mark.parametrize("missing", sorted(_MISSING_KEYS))
def test_missing_config_key_fails_cleanly(tmp_path, capsys, command, missing):
    edit, where = _MISSING_KEYS[missing]
    err = _fails_cleanly(_broken_config_argv(tmp_path, command, edit), capsys)
    assert where in err and missing.split(".")[1] in err
    assert not (tmp_path / "run").exists()


def test_shot_streams_are_distinct_and_reproducible(monkeypatch):
    config = get_preset("toy")
    specs = task_specs_from(config)
    head_model = head_model_from(config, specs)
    params = head_model.init_params(0)
    features = np.random.default_rng(0).uniform(-1.0, 1.0, (3, config["data"]["feature_dim"]))
    keys = []
    sample = qmtl.model.sample_expectation

    def recording(amps, group, shots, seed):
        keys.append(seed)
        return sample(amps, group, shots, seed)

    monkeypatch.setattr(qmtl.model, "sample_expectation", recording)
    first = eval_logits(head_model, params, features, shots=64, seed=5)
    assert len(keys) == 3 * 2  # rows x commuting groups of the toy observables
    streams = {tuple(np.random.default_rng(key).integers(1 << 62, size=4)) for key in keys}
    assert len(streams) == len(keys)
    again = eval_logits(head_model, params, features, shots=64, seed=5)
    for name in first:
        np.testing.assert_array_equal(first[name], again[name])


_BAD_TRAIN_KEYS = {
    "batch_size": 0,
    "eval_every": 0,
    "lr": "x",
    "epochs": 0,
    "seed": -1,
    "cap": 0,  # trained nothing under task_sampled
    "cap-negative": -1,  # dropped each task's last batch
    "cap-bool": True,  # ran as cap 1
    "lr-inf": float("inf"),
    "clip_norm-nan": float("nan"),
    "weight_decay": -1,
    "weight_decay-nan": float("nan"),
    "scheduler_factor": 2.0,  # grew the learning rate on every plateau
    "scheduler_factor-zero": 0.0,
    "min_lr": -1,
    "scheduler_patience": -3,
    "early_stop_patience": 0,
}


@pytest.mark.parametrize("key", sorted(_BAD_TRAIN_KEYS))
def test_bad_train_key_fails_cleanly(tmp_path, capsys, key):
    name = key.split("-")[0]

    def edit(cfg):
        cfg["train"][name] = _BAD_TRAIN_KEYS[key]
    err = _fails_cleanly(_broken_config_argv(tmp_path, "train", edit), capsys)
    assert name in err
    assert not (tmp_path / "run").exists()


_BAD_SHAPES = {
    "heads": (lambda cfg: cfg.update(heads=5), "heads"),
    "no-heads": (lambda cfg: cfg.update(heads=[]), "at least one head"),
    "encoder": (lambda cfg: cfg.update(encoder=4), "encoder"),
    "metric": (lambda cfg: cfg["heads"][0].update(metrics=["accuracy", "auroc"]), "auroc"),
    # the scaling table is read by `params` only
    "scaling": (lambda cfg: cfg.update(scaling={}), "task_counts"),
    "task_counts": (lambda cfg: cfg.update(scaling=dict(
        get_preset("theorem1")["scaling"], task_counts=3)), "task_counts"),
    # a JSON boolean is no integer or number, though Python's bool is an int
    "outputs-bool": (lambda cfg: cfg["heads"][0].update(outputs=True), "'outputs' must be"),
    "encoder-qubits-bool": (lambda cfg: cfg["encoder"].update(qubits=True), "'qubits' must be"),
    "lambda-bool": (lambda cfg: cfg["heads"][0].update({"lambda": True}), "'lambda' must be"),
    "n_train-bool": (lambda cfg: cfg["data"].update(n_train=True), "'n_train' must be"),
    "head-qubit-str": (lambda cfg: cfg["heads"][0].update(qubits=["a"]), "not an integer"),
    "head-qubit-float": (lambda cfg: cfg["heads"][0].update(qubits=[0.5]), "not an integer"),
    # refused by `params` too, not only once `train` builds the circuit
    "head-shape": (lambda cfg: cfg["heads"][0].update(outputs=2),
                   "supported (r, S): (1, 1), (3, 2), (9, 4)"),
}


@pytest.mark.parametrize("command, fault", [
    (command, fault) for fault in sorted(_BAD_SHAPES) for command in ("params", "train")
    if command == "params" or fault not in ("scaling", "task_counts")
])
def test_bad_config_shape_fails_cleanly(tmp_path, capsys, command, fault):
    edit, needle = _BAD_SHAPES[fault]
    err = _fails_cleanly(_broken_config_argv(tmp_path, command, edit), capsys)
    assert needle in err
    assert not (tmp_path / "run").exists()


# optional keys, read with a default when absent, given a value of the wrong
# type or out of range
_BAD_OPTIONAL_KEYS = {
    "train": (lambda cfg: cfg.update(train=5), "train"),
    "hqnn": (lambda cfg: cfg.update(hqnn=5), "hqnn"),
    "num_classes": (lambda cfg: cfg["heads"][0].update(num_classes="3"), "num_classes"),
    "lambda": (lambda cfg: cfg["heads"][0].update({"lambda": "1"}), "lambda"),
    "layers": (lambda cfg: cfg["heads"][0].update(layers="2"), "layers"),
    "noise_level": (lambda cfg: cfg["data"].update(noise_level="0.1"), "noise_level"),
    "teacher_seed": (lambda cfg: cfg["data"].update(teacher_seed="x"), "teacher_seed"),
    "teacher_seed-negative": (lambda cfg: cfg["data"].update(teacher_seed=-1), "teacher_seed"),
    "metrics": (lambda cfg: cfg["heads"][0].update(metrics=5), "metrics"),
    "loss": (lambda cfg: cfg["heads"][0].update(loss=5), "loss"),
    "focal_gamma": (lambda cfg: cfg["heads"][0].update(focal_gamma="x"), "focal_gamma"),
    "focal_alpha": (lambda cfg: cfg["heads"][0].update(focal_alpha="x"), "focal_alpha"),
    "eval_binarize": (lambda cfg: cfg["heads"][0].update(eval_binarize="x"), "eval_binarize"),
    "entangling": (lambda cfg: cfg["encoder"].update(entangling="x"), "entangling"),
    "variant": (lambda cfg: cfg.update(variant=["qmtl"]), "variant"),
}


@pytest.mark.parametrize("command", ["params", "train"])
@pytest.mark.parametrize("key", sorted(_BAD_OPTIONAL_KEYS))
def test_bad_optional_key_fails_cleanly(tmp_path, capsys, command, key):
    edit, needle = _BAD_OPTIONAL_KEYS[key]
    err = _fails_cleanly(_broken_config_argv(tmp_path, command, edit), capsys)
    assert needle in err
    assert not (tmp_path / "run").exists()


def _binarized_two_class_head(cfg):
    cfg["variant"] = "classical"
    cfg["heads"][0].update(kind="multiclass", num_classes=2, outputs=2, eval_binarize=True)


# task values that trained to a nonsense report, diverged or crashed
_BAD_TASK_VALUES = {
    "eval_binarize-binary": (lambda cfg: cfg["heads"][0].update(eval_binarize=True),
                             "eval_binarize"),
    "eval_binarize-2-class": (_binarized_two_class_head, "eval_binarize"),
    "lambda-nan": (lambda cfg: cfg["heads"][0].update({"lambda": float("nan")}), "lambda"),
    "lambda-inf": (lambda cfg: cfg["heads"][0].update({"lambda": float("inf")}), "lambda"),
    "focal_gamma-negative": (lambda cfg: cfg["heads"][0].update(focal_gamma=-1), "focal_gamma"),
    "focal_gamma-nan": (lambda cfg: cfg["heads"][0].update(focal_gamma=float("nan")),
                        "focal_gamma"),
    "focal_alpha-nan": (lambda cfg: cfg["heads"][0].update(focal_alpha=float("nan")),
                        "focal_alpha"),
    "focal_alpha-negative": (lambda cfg: cfg["heads"][0].update(focal_alpha=-2), "focal_alpha"),
    "focal_alpha-zero": (lambda cfg: cfg["heads"][0].update(focal_alpha=0), "focal_alpha"),
}


@pytest.mark.parametrize("command", ["params", "train"])
@pytest.mark.parametrize("fault", sorted(_BAD_TASK_VALUES))
def test_bad_task_value_fails_cleanly(tmp_path, capsys, command, fault):
    edit, needle = _BAD_TASK_VALUES[fault]
    err = _fails_cleanly(_broken_config_argv(tmp_path, command, edit), capsys)
    assert needle in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flags, exact_qubits, chosen", [
    ([], 7, None),
    (["--p1", "0.01", "--trajectories", "4"], 7, "density_matrix"),
    (["--p1", "0.01", "--trajectories", "4"], 1, "trajectories"),  # Q = 2 > 1
])
def test_eval_report_records_noise_engine(checkpoint, tmp_path, monkeypatch, flags,
                                          exact_qubits, chosen):
    monkeypatch.setattr(qmtl.noise, "EXACT_QUBITS", exact_qubits)
    out = tmp_path / "eval"
    assert main(["eval", "--checkpoint", str(checkpoint), "--out-dir", str(out)] + flags) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["noise"]["engine"] == chosen


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_divergent_training_fails_cleanly(tmp_path, capsys):
    config = get_preset("toy")
    config["train"].update(lr=1e3, epochs=2)
    path = tmp_path / "diverge.json"
    path.write_text(json.dumps(config))
    err = _fails_cleanly(["train", "--config", str(path), "--out-dir", str(tmp_path / "run")],
                         capsys)
    assert "diverged at epoch 1" in err and "step" in err and "smaller 'lr'" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("kind", ["entanglement", "depth-Lh"])
def test_sweep_without_encoder_fails_cleanly(tmp_path, capsys, kind):
    def edit(cfg):
        cfg["variant"] = "classical"
        del cfg["encoder"]
    argv = _broken_config_argv(tmp_path, "sweep", edit)
    err = _fails_cleanly(argv[:1] + [kind] + argv[1:] + ["--out-dir", str(tmp_path / "sweep")],
                         capsys)
    assert "'encoder'" in err
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("variant", ["classical", "hqnn"])
def test_baseline_train_eval_round_trip(tmp_path, capsys, variant):
    config = dict(TINY_CONFIG, variant=variant)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    run, out = tmp_path / "run", tmp_path / "eval"
    assert main(["train", "--config", str(path), "--out-dir", str(run)]) == 0
    assert f"trained {variant} head" in capsys.readouterr().out
    assert main(["eval", "--checkpoint", str(run / "checkpoint.json"),
                 "--out-dir", str(out)]) == 0
    trained = json.loads((run / "report.json").read_text())
    evaluated = json.loads((out / "report.json").read_text())
    assert evaluated["tasks"] == trained["tasks"]
    assert evaluated["budget"] == trained["budget"]
    assert trained["budget"]["hqnn"] == 9 * 4 + 3 * 4 + 3 + 1 + 2 * (4 + 1)


def _binary_head_with_three_outputs(cfg):
    cfg["encoder"]["qubits"], cfg["data"]["feature_dim"] = 3, 6
    cfg["heads"][1].update(qubits=[1, 2], outputs=3)


# configs that every command refuses, each with a word of its one-line error
_REFUSED_CONFIGS = {
    # a head's outputs must equal its task's logit count
    "outputs-binary": (_binary_head_with_three_outputs,
                       "has 3 outputs, but its binary task has 1 logits"),
    "outputs-multiclass": (lambda cfg: cfg["heads"][1].update(
        kind="multiclass", num_classes=3, outputs=1), "its multiclass task has 3 logits"),
    "n_train": (lambda cfg: cfg["data"].update(n_train=0), "at least one train"),
    "noise_level": (lambda cfg: cfg["data"].update(noise_level=0.7), "noise_level"),
    "teacher_seed": (lambda cfg: cfg["data"].update(teacher_seed=-1), "teacher_seed"),
    "duplicate-name": (lambda cfg: cfg["heads"][1].update(name="u"), "unique"),
    "unknown-head-key": (lambda cfg: cfg["heads"][0].update(kindd="binary"), "kindd"),
    "cap": (lambda cfg: cfg["train"].update(cap=0), "cap"),
    "loss": (lambda cfg: cfg["heads"][0].update(loss="nope"), "'nope'"),
    "focal-binary": (lambda cfg: cfg["heads"][0].update(loss="focal"), "multiclass"),
    # every report holds the HQNN count, so `train` must not fail at its report
    "hqnn-qubits": (lambda cfg: cfg.update(hqnn={"qubits": 1}), "at least 2 qubits"),
}


@pytest.mark.parametrize("command", ["params", "train", "eval", "sweep"])
@pytest.mark.parametrize("fault", sorted(_REFUSED_CONFIGS))
def test_every_command_refuses_the_same_configs(request, tmp_path, capsys, command, fault):
    edit, needle = _REFUSED_CONFIGS[fault]
    out = tmp_path / "out"
    argv = {"params": ["params"], "train": ["train", "--out-dir", str(out)],
            "sweep": ["sweep", "entanglement", "--out-dir", str(out)]}.get(command)
    if command == "eval":
        checkpoint = request.getfixturevalue("checkpoint")  # trained from the intact config
        argv = ["eval", "--checkpoint", str(checkpoint), "--out-dir", str(out)]
    config = _broken_config_argv(tmp_path, "params", edit)[1:]
    err = _fails_cleanly(argv + config, capsys)
    assert needle in err and len(err.splitlines()) == 1
    assert not out.exists()


# `train` keys: test_unknown_train_key_rejected
@pytest.mark.parametrize("section", ["config", "encoder", "head 0", "data", "hqnn"])
def test_unknown_key_refused_in_every_section(tmp_path, capsys, section):
    def edit(cfg):
        cfg["hqnn"] = {}
        {"config": cfg, "encoder": cfg["encoder"], "head 0": cfg["heads"][0],
         "data": cfg["data"], "hqnn": cfg["hqnn"]}[section]["lamda"] = 1
    err = _fails_cleanly(_broken_config_argv(tmp_path, "params", edit), capsys)
    assert f"unknown {section} keys: ['lamda']" in err


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_every_preset_survives_a_json_round_trip(tmp_path, capsys, name):
    config = get_preset(name)
    path = tmp_path / "preset.json"
    path.write_text(json.dumps(config))
    assert main(["params", "--preset", name]) == 0
    expected = capsys.readouterr().out
    assert main(["params", "--config", str(path)]) == 0
    assert capsys.readouterr().out == expected
    if "heads" in config:
        assert parse_experiment(json.loads(path.read_text())) == parse_experiment(config)
        # `outputs` defaults to each task's logit count
        for head in config["heads"]:
            del head["outputs"]
        assert parse_experiment(config).model == parse_experiment(get_preset(name)).model


@pytest.fixture
def classical_checkpoint(tmp_path):
    path = tmp_path / "classical.json"
    path.write_text(json.dumps(dict(TINY_CONFIG, variant="classical")))
    out = tmp_path / "classical-run"
    assert main(["train", "--config", str(path), "--out-dir", str(out)]) == 0
    return path, out / "checkpoint.json"


@pytest.mark.parametrize("flags", [["--shots", "3"], ["--p1", "0.5"]], ids=["shots", "p1"])
def test_eval_refuses_shots_and_noise_on_a_classical_model(classical_checkpoint, tmp_path,
                                                           capsys, flags):
    _, checkpoint = classical_checkpoint
    out = tmp_path / "eval"
    err = _fails_cleanly(["eval", "--checkpoint", str(checkpoint), "--out-dir", str(out)]
                         + flags, capsys)
    assert "qmtl variant only" in err
    assert not out.exists()


def test_sweep_noise_refuses_a_classical_model(classical_checkpoint, tmp_path, capsys,
                                               monkeypatch):
    config, _ = classical_checkpoint
    monkeypatch.setattr("qmtl.cli.train", lambda *args, **kwargs: pytest.fail("trained"))
    out = tmp_path / "sweep"
    err = _fails_cleanly(["sweep", "noise", "--config", str(config), "--grid", "0,0.05",
                          "--out-dir", str(out)], capsys)
    assert "qmtl variant only" in err and "'classical'" in err
    assert not out.exists()


def test_eval_logits_refuses_shots_on_an_hqnn_model():
    config = dict(TINY_CONFIG, variant="hqnn")
    model = head_model_from(config, task_specs_from(config))
    with pytest.raises(ConfigError, match="qmtl variant only"):
        eval_logits(model, model.init_params(0), np.zeros((2, 4)), shots=8)
