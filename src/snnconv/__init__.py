"""snnconv: train quantized-activation networks, convert them to spiking
networks, simulate them, and analyze where spike timing makes the two
disagree.

Typical flow::

    from snnconv import mlp_preset, init_network, train, TrainConfig
    from snnconv import convert, snn_simulate, srp_inference

    net = mlp_preset(quant_steps=4)
    init_network(net, seed=0)
    train(net, images, labels, TrainConfig(epochs=20))
    snn = convert(net)
    plain = snn_simulate(snn, x, timesteps=8)
    masked = srp_inference(snn, x, tau=4, timesteps=8)
"""

from .activation import qcfs, qcfs_backward
from .analysis import (
    ErrorReport,
    LayerErrorStats,
    SrpEffect,
    TheoremResult,
    TheoremVerdict,
    UnevennessCase,
    classify_cases,
    error_type_I_distribution,
    error_type_II_distribution,
    random_theorem_sweep,
    srp_effect_report,
    verify_theorem1,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .datasets import (
    DatasetHandle,
    load_csv_dataset,
    load_idx_pair,
    standardization_stats,
    standardize,
    synthetic_digits,
)
from .engine import (
    SimResult,
    SnnNetwork,
    Stage,
    TraceRecorder,
    constant_current_phi,
    convert,
    even_timing_phi,
    if_scan,
    if_step,
    snn_forced_phi,
    snn_simulate,
    srp_inference,
)
from .errors import (
    ConversionError,
    DataFormatError,
    DataValidationError,
    ParameterError,
    ShapeError,
    SnnConvError,
    TrainingDivergenceError,
)
from .network import (
    ActivationRecord,
    LayerParams,
    NetworkSpec,
    ann_forward,
    cnn_preset,
    mlp_preset,
)
from .training import (
    TrainConfig,
    TrainHistory,
    accuracy,
    cosine_lr,
    init_network,
    prepare_inputs,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "qcfs", "qcfs_backward",
    "ErrorReport", "LayerErrorStats", "SrpEffect", "TheoremResult", "TheoremVerdict",
    "UnevennessCase", "classify_cases",
    "error_type_I_distribution", "error_type_II_distribution",
    "random_theorem_sweep", "srp_effect_report", "verify_theorem1",
    "load_checkpoint", "save_checkpoint",
    "DatasetHandle", "load_csv_dataset", "load_idx_pair",
    "standardization_stats", "standardize", "synthetic_digits",
    "SimResult", "SnnNetwork", "Stage", "TraceRecorder",
    "constant_current_phi", "convert",
    "even_timing_phi", "if_scan", "if_step", "snn_forced_phi", "snn_simulate",
    "srp_inference",
    "ConversionError", "DataFormatError", "DataValidationError",
    "ParameterError", "ShapeError", "SnnConvError",
    "TrainingDivergenceError",
    "ActivationRecord", "LayerParams", "NetworkSpec", "ann_forward",
    "cnn_preset", "mlp_preset",
    "TrainConfig", "TrainHistory", "accuracy", "cosine_lr",
    "init_network", "prepare_inputs", "train",
]
