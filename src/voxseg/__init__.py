"""Volumetric brain-tumor segmentation toolkit.

Classical prior generation, a multi-scale attention U-Net running on a
built-in reverse-mode autodiff engine, Dice+BCE training, and
Monte-Carlo-dropout uncertainty estimation, all runnable at desk scale
on synthetic phantoms.
"""

from .autodiff import DropoutMode, Tensor, backward, grad_check, no_grad
from .losses import bce_loss, combined_loss, dice_loss
from .metrics import (
    MetricReport,
    RegionMasks,
    UndefinedMetricError,
    compose_regions,
    dice_score,
    extract_boundary,
    hausdorff,
)
from .network import NetworkConfig, TumorSegNet, count_params
from .phantom import PhantomSpec, gen_phantom, split_dataset
from .prior import PriorConfig, TumorStdStats, build_input, generate_prior, tumor_std_stats
from .training import (
    AdamW,
    FitResult,
    McResult,
    TrainConfig,
    TrainingDivergedError,
    cosine_lr,
    evaluate_case,
    fit,
    mc_infer,
)
from .volume_io import MultiModalVolume, VolumeHeader, export_slice_pgm, read_volume, write_volume

__version__ = "0.1.0"
