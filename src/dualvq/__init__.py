"""Dual-codebook vector quantization in a small VQ-GAN-style autoencoder.

A from-scratch float64 tensor engine with reverse-mode differentiation
carries the whole model; the quantizer splits the latent channel-wise
into a transformer-refined global half and a deterministic local half.
"""

from .autodiff import NonFiniteError, ShapeError, Tensor, backward
from .codebook import Codebook, QuantizationResult, nearest_indices, quantize_st, usage_stats, vq_terms
from .config import ConfigError, ExperimentConfig, load_config
from .dual_quantizer import Head, QuantizerState, quantize_dual, split_channels
from .metrics import compression_ratio, emit_utilization, frechet_gaussian, l1_metric, l2_metric, psnr
from .model import (
    ModelState,
    StepReport,
    TrainConfig,
    adaptive_lambda,
    discriminator_loss,
    generator_losses,
    init_model,
    training_step,
)
from .run import evaluate_state, export_codebook, run_ablation, run_eval, run_train
from .transformer import TransformerParams, refine

__version__ = "0.1.0"

__all__ = [
    "Codebook",
    "ConfigError",
    "ExperimentConfig",
    "Head",
    "ModelState",
    "NonFiniteError",
    "QuantizationResult",
    "QuantizerState",
    "ShapeError",
    "StepReport",
    "Tensor",
    "TrainConfig",
    "TransformerParams",
    "adaptive_lambda",
    "backward",
    "compression_ratio",
    "discriminator_loss",
    "emit_utilization",
    "evaluate_state",
    "export_codebook",
    "frechet_gaussian",
    "generator_losses",
    "init_model",
    "l1_metric",
    "l2_metric",
    "load_config",
    "nearest_indices",
    "psnr",
    "quantize_dual",
    "quantize_st",
    "refine",
    "run_ablation",
    "run_eval",
    "run_train",
    "split_channels",
    "training_step",
    "usage_stats",
    "vq_terms",
]
