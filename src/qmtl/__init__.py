"""Parameter-efficient multi-task learning heads built from shallow
variational quantum circuits, with a statevector simulator on plain
amplitude arrays, adjoint-state training gradients checked against
parameter-shift and finite-difference oracles, depolarizing-noise
evaluation on two engines (the exact density matrix for small registers,
Monte-Carlo trajectories above), and a training/experiment CLI.
"""

from .errors import (
    CapacityError,
    ConfigError,
    DegenerateBatchError,
    DivergenceError,
    GroupingError,
    QmtlError,
    UnsupportedGateError,
)
from .statevector import (
    PauliString,
    pauli,
    sample_expectation,
)
from .circuit import (
    Circuit,
    GateOp,
    ParamRef,
    const,
    evaluate,
    evaluate_expectations,
    evaluate_expectations_batch,
    feature,
    group_commuting,
    random_circuit,
    trainable,
)
from .noise import NoiseSpec, noisy_expectations
from .model import (
    Calibration,
    ClassicalHeadModel,
    HqnnHeadModel,
    ParamBudget,
    QmtlHeadModel,
    QmtlModel,
    QmtlModelConfig,
    SharedEncoderConfig,
    TaskHeadConfig,
    assemble,
    build_shared_encoder,
    build_task_head,
    count_params_classical,
    count_params_quantum,
    default_readout,
    forward,
    forward_batch,
    scaling_table,
)
from .gradients import (
    adjoint_vjp,
    finite_diff_jacobian,
    input_shift_jacobian_batch,
    loss_gradient,
    param_shift_jacobian,
    param_shift_jacobian_batch,
)
from .losses import MISSING, TaskSpec, class_weights
from .metrics import MetricResult, compute_metric
from .optim import AdamState, PlateauScheduler, adam_step, clip_global_norm
from .data import MultiTaskBatch, SyntheticSpec, gen_synthetic
from .trainer import TrainConfig, TrainResult, evaluate as evaluate_model, train
from .presets import PRESETS, get_preset

__version__ = "0.1.0"
