"""Training loop, optimizer, schedules, and Monte-Carlo-dropout inference.

Training runs decoupled-weight-decay Adam under a cosine learning-rate
schedule until the validation loss has not strictly improved for more
than `patience` epochs. Inference keeps dropout active across several
stochastic forward passes; the per-voxel mean is the prediction and the
per-voxel population variance is the uncertainty map.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .autodiff import DropoutMode, Tensor, _openblas, backward, derive_rng, no_grad
from .losses import combined_loss
from .metrics import (
    REGIONS,
    MetricReport,
    RegionMasks,
    UndefinedMetricError,
    compose_regions,
    dice_score,
    hausdorff,
)
from .network import NetworkConfig, TumorSegNet
from .prior import PriorConfig, build_input, derive_delta, generate_prior
from .volume_io import MultiModalVolume

__all__ = [
    "TrainConfig",
    "TrainingDivergedError",
    "AdamW",
    "cosine_lr",
    "EpochStats",
    "FitResult",
    "McResult",
    "prepare_case",
    "fit",
    "mc_infer",
    "evaluate_case",
    "format_history",
]


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during optimization."""


@dataclass
class TrainConfig:
    """Optimization hyperparameters plus the prior and MC switches. The
    architecture switches live in `NetworkConfig` alone, so `voxseg train`
    records them in config.json under "net" only."""

    lr_init: float = 1e-4
    weight_decay: float = 1e-5
    cosine_T: int = 50
    lr_min: float = 0.0
    cosine_restarts: bool = False
    max_epochs: int = 1000
    patience: int = 150
    seed: int = 0
    use_prior: bool = True
    use_mc: bool = True

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.cosine_T < 1:
            raise ValueError(f"cosine_T must be >= 1, got {self.cosine_T}")
        if self.patience < 0:
            raise ValueError(f"patience must be >= 0, got {self.patience}")
        for name in ("lr_init", "lr_min", "weight_decay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


class AdamW:
    """Adam with decoupled weight decay.

    Decay applies only to parameters with 2 or more axes (conv kernels);
    biases, normalization scales/shifts, and the attention gates are
    exempt. Betas and epsilon are the method's standard constants.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, named_params, lr: float = 1e-4, weight_decay: float = 0.0):
        self.named_params = list(named_params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.m = {name: np.zeros_like(p.data) for name, p in self.named_params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.named_params}
        self.t = 0

    def step(self, lr: float | None = None) -> None:
        """One update from the gradients currently stored on the parameters."""
        if lr is None:
            lr = self.lr
        self.t += 1
        bc1 = 1.0 - self.BETA1 ** self.t
        bc2 = 1.0 - self.BETA2 ** self.t
        for name, p in self.named_params:
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ValueError(f"gradient shape {g.shape} != parameter shape {p.data.shape} for {name}")
            m = self.m[name]
            v = self.v[name]
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.EPS)
            p.data -= lr * update
            if self.weight_decay > 0.0 and p.data.ndim >= 2:
                p.data -= lr * self.weight_decay * p.data

    def zero_grad(self) -> None:
        for _, p in self.named_params:
            p.zero_grad()


def cosine_lr(epoch: int, config: TrainConfig) -> float:
    """Cosine annealing from lr_init to lr_min over cosine_T epochs.

    Past cosine_T the rate stays clamped at lr_min unless
    `cosine_restarts` is set, in which case the cosine continues
    periodically (so the rate climbs back after each trough).
    """
    t = float(epoch) if config.cosine_restarts else float(min(epoch, config.cosine_T))
    span = config.lr_init - config.lr_min
    return config.lr_min + span * (1.0 + math.cos(math.pi * t / config.cosine_T)) / 2.0


@dataclass
class EpochStats:
    epoch: int
    lr: float
    train_loss: float
    val_loss: float


@dataclass
class FitResult:
    net: TumorSegNet
    best_state: dict[str, np.ndarray]
    best_epoch: int
    best_val_loss: float
    history: list[EpochStats]
    stopped_early: bool
    prior_config: PriorConfig | None  # resolved config; reuse at inference


@dataclass
class McResult:
    """Aggregate of stochastic forward passes for one case."""

    mean: np.ndarray  # (3, D, H, W) in [0, 1]
    variance: np.ndarray  # (3, D, H, W), population variance
    masks: RegionMasks
    n_passes: int


def prepare_case(volume: MultiModalVolume, use_prior: bool,
                 prior_config: PriorConfig | None = None) -> tuple[Tensor, np.ndarray | None]:
    """Network input (and target channels when labels exist) for one case.

    The prior channel is generated from FLAIR when `use_prior` is set;
    targets are the stacked region masks (`RegionMasks.stack`) as float32.
    """
    prior = None
    if use_prior:
        prior = generate_prior(volume.flair, prior_config or PriorConfig())
    x = build_input(volume, prior)
    target = None
    if volume.labels is not None:
        target = compose_regions(volume.labels).stack().astype(np.float32)[None]
    return x, target


def fit(train_volumes, val_volumes, net_config: NetworkConfig | None,
        config: TrainConfig, prior_config: PriorConfig | None = None) -> FitResult:
    """Train on the given cases and return the best checkpoint plus history.

    Every epoch walks the training cases one at a time (batch size 1),
    accumulates the combined Dice/cross-entropy loss, and steps the
    optimizer at the cosine-scheduled rate. Validation runs with dropout
    off, and training stops once its loss has not strictly improved for
    more than `patience` epochs. The returned network carries the last
    epoch's parameters; the best-validation epoch's are in `best_state`.

    When no prior configuration is given, the region-growing tolerance is
    derived from the labeled training split (median tumor-intensity std).
    """
    if not train_volumes or not val_volumes:
        raise ValueError("need non-empty train and validation splits")
    if prior_config is None and config.use_prior:
        prior_config = PriorConfig(delta=derive_delta(train_volumes), rng_seed=config.seed)

    train_cases = [prepare_case(v, config.use_prior, prior_config) for v in train_volumes]
    val_cases = [prepare_case(v, config.use_prior, prior_config) for v in val_volumes]
    for i, (_, target) in enumerate(train_cases + val_cases):
        if target is None:
            raise ValueError(f"case {i} has no labels")
    channels = train_cases[0][0].shape[1]
    if net_config is None:
        net_config = NetworkConfig(in_channels=channels)
    elif net_config.in_channels != channels:
        raise ValueError(f"net_config.in_channels={net_config.in_channels} != {channels} input channels")

    net = TumorSegNet(net_config, seed=config.seed)
    optimizer = AdamW(list(net.named_parameters()), lr=config.lr_init,
                      weight_decay=config.weight_decay)
    history: list[EpochStats] = []
    best_val_loss = math.inf
    stopped_early = False

    for epoch in range(config.max_epochs):
        lr = cosine_lr(epoch, config)
        train_losses = []
        for case_idx, (x, target) in enumerate(train_cases):
            optimizer.zero_grad()
            rng = derive_rng(config.seed, 1, epoch, case_idx)
            try:
                pred = net.forward(x, DropoutMode.TRAIN, rng)
                loss = combined_loss(pred, target)
            except FloatingPointError as exc:
                raise TrainingDivergedError(
                    f"non-finite values at epoch {epoch}, case {case_idx}: {exc}"
                ) from exc
            backward(loss)
            optimizer.step(lr)
            train_losses.append(loss.item())

        val_losses = []
        with no_grad():
            for x, target in val_cases:
                try:
                    pred = net.forward(x, DropoutMode.OFF)
                    val_losses.append(combined_loss(pred, target).item())
                except FloatingPointError as exc:
                    raise TrainingDivergedError(
                        f"non-finite values in validation at epoch {epoch}: {exc}"
                    ) from exc
        train_loss = float(np.mean(train_losses))
        val_loss = float(np.mean(val_losses))
        history.append(EpochStats(epoch, lr, train_loss, val_loss))

        # epoch 0 always improves (a non-finite loss raised above)
        if val_loss < best_val_loss:
            best_val_loss, best_epoch, best_state = val_loss, epoch, net.state_dict()
        elif epoch - best_epoch > config.patience:
            stopped_early = True
            break

    return FitResult(net=net, best_state=best_state, best_epoch=best_epoch,
                     best_val_loss=best_val_loss, history=history,
                     stopped_early=stopped_early,
                     prior_config=prior_config if config.use_prior else None)


# Threads that run MC passes at once: the target machine has 2 cores, and
# each worker beyond the first holds another full set of activations.
_MC_WORKERS = 2


def mc_infer(net: TumorSegNet, x: Tensor, n_passes: int = 20, seed: int = 0,
             use_mc: bool = True) -> McResult:
    """Monte-Carlo-dropout inference: mean prediction, variance uncertainty.

    Dropout stays active across `n_passes` stochastic forwards, pass `i`
    seeded `derive_rng(seed, 2, i)`; masks binarize the returned float32
    mean at 0.5. With `use_mc` off this is a single deterministic forward
    with zero variance.

    The passes are independent, so up to `_MC_WORKERS` threads (never
    more than the CPUs this process may use) run them at once: the caller
    takes the even passes and a helper thread the odd ones. Each extra
    worker holds another pass's activations, a live peak of about 43 MB
    at 64x64x32. While they run, the process-wide OpenBLAS thread count
    is pinned to 1, so each pass keeps one core, and restored afterwards;
    without OpenBLAS thread control the passes run on the caller alone.
    Mean and variance are summed in pass order, as numpy's `mean(axis=0)`
    and `var(axis=0)` over the stacked passes would, so the result is
    byte-identical for any worker count.
    """
    if n_passes < 1:
        raise ValueError("n_passes must be >= 1")
    if not use_mc:
        n_passes = 1
    outputs: list[np.ndarray | None] = [None] * n_passes
    dropout = DropoutMode.MC_ACTIVE if use_mc else DropoutMode.OFF  # OFF ignores the rng

    def run(first: int, step: int) -> None:
        with no_grad():  # autodiff's mode is per thread: each worker sets its own
            for i in range(first, n_passes, step):
                outputs[i] = net.forward(x, dropout, derive_rng(seed, 2, i)).data[0]

    blas = _openblas()
    workers = 1 if blas is None else min(n_passes, len(os.sched_getaffinity(0)), _MC_WORKERS)
    if workers == 1:
        run(0, 1)
    else:
        threads = blas.get_threads()
        blas.set_threads(1)
        try:
            with ThreadPoolExecutor(workers - 1) as pool:
                helpers = [pool.submit(run, j, workers) for j in range(1, workers)]
                run(0, workers)
                for helper in helpers:
                    helper.result()
        finally:
            blas.set_threads(threads)

    mean = outputs[0].astype(np.float64)
    for out in outputs[1:]:
        mean += out
    mean /= n_passes
    variance = np.zeros_like(mean)  # population variance over passes
    for out in outputs:
        dev = out - mean
        dev *= dev
        variance += dev
    variance /= n_passes
    mean32 = mean.astype(np.float32)
    return McResult(mean=mean32, variance=variance.astype(np.float32),
                    masks=RegionMasks(*(mean32 >= 0.5)), n_passes=n_passes)


def evaluate_case(masks: RegionMasks, gt_labels: np.ndarray,
                  spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)) -> MetricReport:
    """Dice and Hausdorff per region against coded ground-truth labels.

    Undefined Hausdorff distances (either mask empty) become NaN plus an
    explicit flag; both-empty Dice pairs are flagged as trivially perfect.
    """
    gt = compose_regions(gt_labels)
    values: dict[str, float] = {}
    flags: list[str] = []
    for region in REGIONS:
        pred_mask = getattr(masks, region)
        gt_mask = getattr(gt, region)
        values[f"dice_{region}"] = dice_score(pred_mask, gt_mask)
        if not pred_mask.any() and not gt_mask.any():
            flags.append(f"dice_{region}_both_empty")
        try:
            values[f"hd_{region}"] = hausdorff(pred_mask, gt_mask, spacing)
        except UndefinedMetricError:
            values[f"hd_{region}"] = float("nan")
            flags.append(f"hd_{region}_undefined")
    return MetricReport(flags=flags, **values)


def format_history(history: list[EpochStats]) -> str:
    """One `epoch,lr,train_loss,val_loss` line per epoch."""
    lines = ["epoch,lr,train_loss,val_loss"]
    for h in history:
        lines.append(f"{h.epoch},{h.lr!r},{h.train_loss!r},{h.val_loss!r}")
    return "\n".join(lines) + "\n"
