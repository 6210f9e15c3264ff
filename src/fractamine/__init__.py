"""Fourier-denoised multifractal analysis of embedding series, plus a
Hurst-feature-aware neural classifier built on a small reverse-mode
autodiff core."""

from .activations import KINDS, ActivationSpec, apply, apply_derivative, breakpoints
from .autodiff import DiffArray, grad_check
from .fourier_denoise import (
    FourierModel,
    denoise,
    fit_fourier,
    reconstruct,
    select_order,
)
from .multifractal import (
    METHODS,
    FluctuationTable,
    HurstProfile,
    MfaConfig,
    default_q_grid,
    default_scales,
    fluctuation,
    hurst_profile,
    profile_series,
)
from .neuralnet import (
    ModelConfig,
    ModelParams,
    deffsi_forward,
    hurst_features,
    init_params,
    load_checkpoint,
    predict_proba,
    save_checkpoint,
)
from .series import (
    EmbeddingMatrix,
    LabeledDataset,
    Series,
    load_series,
    mean_embedding,
    synth_binomial_cascade,
    synth_embedded_corpus,
    synth_fgn,
    synth_gaussian_noise,
)
from .training import (
    TrainConfig,
    TrainingDiverged,
    evaluate,
    split_dataset,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "ActivationSpec",
    "DiffArray",
    "EmbeddingMatrix",
    "FluctuationTable",
    "FourierModel",
    "HurstProfile",
    "KINDS",
    "LabeledDataset",
    "METHODS",
    "MfaConfig",
    "ModelConfig",
    "ModelParams",
    "Series",
    "TrainConfig",
    "TrainingDiverged",
    "apply",
    "apply_derivative",
    "breakpoints",
    "deffsi_forward",
    "default_q_grid",
    "default_scales",
    "denoise",
    "evaluate",
    "fit_fourier",
    "fluctuation",
    "grad_check",
    "hurst_features",
    "hurst_profile",
    "init_params",
    "load_checkpoint",
    "load_series",
    "mean_embedding",
    "predict_proba",
    "profile_series",
    "reconstruct",
    "save_checkpoint",
    "select_order",
    "split_dataset",
    "synth_binomial_cascade",
    "synth_embedded_corpus",
    "synth_fgn",
    "synth_gaussian_noise",
    "train",
]
