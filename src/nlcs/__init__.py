"""Consistent sparse coding and dictionary learning from nonlinear
compressive measurements (clipping, quantization, 1-bit, masking, and
general linear maps)."""

from .dictlearn import (
    DictLearnConfig,
    LearnTrace,
    dict_update,
    export_dictionary_text,
    learn,
    load_dictionary,
    project_dictionary,
    save_dictionary,
)
from .linops import dct_dictionary, prox_l0_topk, prox_l1, spectral_norm
from .measurements import (
    Batch,
    Clip,
    DegenerateObservationError,
    GeneralLinear,
    GeneralQuantizer,
    Identity,
    IntervalSet,
    Mask,
    MeasurementModel,
    Observation,
    OneBit,
    SingularModelError,
    UniformQuantizer,
    apply_measurement,
    cost,
    estimate_clip_model,
    feasibility_intervals,
    gradient,
    project,
    project_linear,
)
from .pipeline import (
    EvalRow,
    FrameSpec,
    SyntheticSpec,
    angular_snr_db,
    frame_signal,
    gen_synthetic,
    overlap_add,
    snr_db,
    speech_like_signal,
    uniform_quantizer_for_bits,
    wav_read,
    wav_write,
)
from .solvers import (
    L0,
    L1,
    DivergenceError,
    HomotopyConfig,
    SolveTrace,
    SolverConfig,
    StageRecord,
    consistency_level,
    objective,
    sparse_code_adaptive,
    sparse_code_fixed,
)

__version__ = "0.1.0"
