"""Print a sha256 per output item and one over all items, to compare two
checkouts for bit-identical results on one machine.  No golden values are
stored: run ``PYTHONPATH=src python tools/outputs_digest.py`` in both and
diff the outputs.

Items: per circuit preset, the assembled QMTL circuit (every op's kind,
qubits and parameter refs) and each head's slices and observables; per head
variant and preset, the initial parameters at seeds 0 and 3,
``forward_batch``, ``loss_gradient`` and ``backward_batch`` (all tasks, and
the first alone) on 16 training rows; per variant a 3-epoch toy training run;
``cli.eval_logits`` on 8 toy rows exact, with 4096 shots and with
p1 = p2 = 0.01 depolarizing noise (the density-matrix engine); and on 2
glue-like rows with that noise over 50 trajectories (the trajectory engine).
"""

import hashlib

import numpy as np

from qmtl import cli
from qmtl.data import gen_synthetic
from qmtl.gradients import loss_gradient
from qmtl.noise import NoiseSpec
from qmtl.presets import get_preset
from qmtl.trainer import train

VARIANTS = ("qmtl", "classical", "hqnn")
ROWS = 16
# the history fields that do not depend on wall time
HISTORY_KEYS = ("step", "epoch", "lr", "train_loss", "monitor", "grad_norm",
                "grad_norm_clipped", "tasks")


def digest(value, h=None) -> str:
    h = h or hashlib.sha256()
    if isinstance(value, str):
        h.update(value.encode())
    elif isinstance(value, dict):
        for key in sorted(value):
            h.update(str(key).encode())
            digest(value[key], h)
    elif isinstance(value, (list, tuple)):
        for item in value:
            digest(item, h)
    else:
        h.update(np.ascontiguousarray(value, dtype=float).tobytes())
    return h.hexdigest()


def setup(preset: str, variant: str):
    config = dict(get_preset(preset), variant=variant)
    specs = cli.task_specs_from(config)
    train_data, val_data = gen_synthetic(cli.data_spec_from(config, specs))
    return config, specs, cli.head_model_from(config, specs), train_data, val_data


def span(part: slice) -> list:
    return [part.start, part.stop]


items = {}
for preset in ("toy", "glue-like", "chexpert-like", "mustard-like"):
    config = get_preset(preset)
    model = cli.head_model_from(config, cli.task_specs_from(config)).model
    items[f"circuit/{preset}"] = [
        [model.circuit.num_qubits, model.num_circuit_params, model.num_calibration_params],
        [[op.kind, op.qubits, [[ref.kind, ref.index, ref.value] for ref in op.params]]
         for op in model.circuit.ops],
        [[head.name, span(head.theta_slice), span(head.logit_slice), span(head.calib_slice),
          head.calibration.kind, [str(obs) for obs in head.observables]]
         for head in model.heads],
    ]

for preset in ("toy", "glue-like", "chexpert-like"):
    for variant in VARIANTS:
        config, specs, model, train_data, _ = setup(preset, variant)
        x, labels = train_data.features[:ROWS], train_data.subset(np.arange(ROWS)).labels
        params = model.init_params(3)
        rng = np.random.default_rng(7)
        dlogits = {name: rng.normal(size=(ROWS, r)) for name, r in model.outputs.items()}
        first = {model.task_names[0]: dlogits[model.task_names[0]]}
        tag = f"{variant}/{preset}"
        items[f"{tag}/init"] = [model.init_params(0), params]
        items[f"{tag}/forward"] = model.forward_batch(params, x)
        items[f"{tag}/loss_gradient"] = loss_gradient(model, params, x, labels, specs)
        items[f"{tag}/backward"] = [model.backward_batch(params, x, dlogits),
                                    model.backward_batch(params, x, first)]

for variant in VARIANTS:
    config, specs, model, train_data, val_data = setup("toy", variant)
    cfg = cli.train_config_from(dict(config, train=dict(config["train"], epochs=3)))
    result = train(model, train_data, val_data, specs, cfg)
    items[f"{variant}/toy/train"] = [result.best_params, result.final_params, [
        {key: record[key] for key in HISTORY_KEYS} for record in result.history]]

_, _, model, _, val_data = setup("toy", "qmtl")
params, x = model.init_params(0), val_data.features[:8]
items["qmtl/toy/eval-exact"] = cli.eval_logits(model, params, x)
items["qmtl/toy/eval-shots"] = cli.eval_logits(model, params, x, shots=4096, seed=0)
items["qmtl/toy/eval-noise"] = cli.eval_logits(model, params, x,
                                               noise=NoiseSpec(p1=0.01, p2=0.01, seed=0))

_, _, model, _, val_data = setup("glue-like", "qmtl")
items["qmtl/glue-like/eval-noise"] = cli.eval_logits(
    model, model.init_params(0), val_data.features[:2],
    noise=NoiseSpec(p1=0.01, p2=0.01, num_trajectories=50, seed=0))

digests = {name: digest(value) for name, value in items.items()}
for name, hexdigest in digests.items():
    print(f"{hexdigest}  {name}")
print(f"{hashlib.sha256(''.join(digests.values()).encode()).hexdigest()}  total")
