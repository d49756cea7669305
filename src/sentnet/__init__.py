"""sentnet: transfer learning and architecture surgery for small CNN classifiers."""

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .data import (
    DatasetManifest,
    ManifestRecord,
    PreprocessConfig,
    ViewSource,
    audit_folds,
    load_manifest,
    stratified_kfold,
    ten_crop,
)
from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    DivergenceError,
    SentnetError,
    ShapeError,
    SurgeryError,
)
from .harness import ExperimentConfig, cross_validate, evaluate, fuse_scores, write_report
from .network import (
    ForwardState,
    LayerKind,
    LayerSpec,
    NetworkSpec,
    backward,
    count_parameters,
    forward,
    infer_shapes,
    init_params,
    reference_spec,
    reference_spec_small,
)
from .ops import GradPair
from .optim import OptState, TrainConfig, lr_at, sgd_step, train
from .probe import ProbeReport, extract_features, fit_probe, probe_all_layers
from .surgery import SurgeryPlan, apply, preset_plan

__version__ = "0.1.0"
