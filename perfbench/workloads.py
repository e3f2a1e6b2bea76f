"""The three benchmark workloads: inputs, set-up, one timed op, output checks.

Every call into voxseg goes through the module attribute (`training.mc_infer`,
never a name imported from it), so that the tracer's wrappers see it.

- train-32: steady-state training steps at 32x32x16, driven exactly as
  `fit` drives them (same seeds, same schedule), cycling four phantoms.
- mc-64: the `voxseg infer` path for one 64x64x32 case with 20 MC passes.
- classical-brats: `generate_prior` plus Dice/Hausdorff scoring on a
  240x240x155 phantom; no network op runs.
"""

from __future__ import annotations

import hashlib
import math
import time
from pathlib import Path

import numpy as np

from voxseg import autodiff, checkpoint, losses, metrics, network, phantom, prior, training, volume_io

DIGEST_STEPS = 16  # train-32 digests the parameters after this many steps
FIT_CHECK_EPOCHS = 2
MC_CHECK_PASSES = 3
PRIOR_DICE_FLOOR = 0.8
BRATS_RADIUS = 0.23  # middle of PhantomSpec's default (0.18, 0.28) range


class CheckFailed(Exception):
    """An output of the program is wrong."""


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def params_digest(net) -> str:
    return digest(*(p.data for _, p in net.named_parameters()))


def untimed(name, fn, *args):
    """Stands in for Tracer.span when no tracer is installed."""
    return fn(*args)


def _read_case(img: Path, lbl: Path | None) -> volume_io.MultiModalVolume:
    _, grids = volume_io.read_volume(img)
    labels = None if lbl is None else volume_io.read_volume(lbl)[1][0]
    return volume_io.MultiModalVolume(grids.astype(np.float32), labels)


def _write_phantoms(spec: phantom.PhantomSpec, work: Path, with_labels: bool) -> None:
    for i in range(spec.n_cases):
        vol = phantom.gen_phantom(spec, i)
        volume_io.write_volume(work / f"case_{i}_img.sg3d", vol.modalities)
        if with_labels:
            volume_io.write_volume(work / f"case_{i}_lbl.sg3d", vol.labels[None])


# ---------------------------------------------------------------------------
# train-32
# ---------------------------------------------------------------------------


class DrivenTraining:
    """`fit`'s per-step work, one step per call, with `fit`'s seeds."""

    def __init__(self, volumes, seed: int, span=untimed):
        self.seed = seed
        self.span = span
        self.config = training.TrainConfig(seed=seed)
        self.prior_config = prior.PriorConfig(delta=prior.derive_delta(volumes), rng_seed=seed)
        self.cases = [training.prepare_case(v, True, self.prior_config) for v in volumes]
        self.net = network.TumorSegNet(network.NetworkConfig(in_channels=5), seed=seed)
        self.opt = training.AdamW(list(self.net.named_parameters()), lr=self.config.lr_init,
                                  weight_decay=self.config.weight_decay)
        self.steps = 0

    def step(self) -> float:
        epoch, case_idx = divmod(self.steps, len(self.cases))
        x, target = self.cases[case_idx]
        self.opt.zero_grad()
        rng = autodiff.derive_rng(self.seed, 1, epoch, case_idx)
        pred = self.span("training.forward", self.net.forward, x, autodiff.DropoutMode.TRAIN, rng)
        loss = losses.combined_loss(pred, target)
        value = loss.item()
        if not math.isfinite(value):
            raise CheckFailed(f"non-finite loss {value} at step {self.steps}")
        self.span("training.backward", autodiff.backward, loss)
        self.opt.step(training.cosine_lr(epoch, self.config))
        self.steps += 1
        return value


def check_losses(losses_seen: list[float]) -> None:
    """Finite, and the mean of the last quarter is below the first loss."""
    if len(losses_seen) < 2:
        raise CheckFailed(f"need at least 2 losses, got {len(losses_seen)}")
    if not all(math.isfinite(v) for v in losses_seen):
        raise CheckFailed("non-finite loss")
    tail = losses_seen[-max(1, len(losses_seen) // 4):]
    if not float(np.mean(tail)) < losses_seen[0]:
        raise CheckFailed(f"loss did not fall: first {losses_seen[0]:.6f}, last-quarter mean {np.mean(tail):.6f}")


def check_same_params(a, b) -> None:
    pa, pb = dict(a.named_parameters()), dict(b.named_parameters())
    if list(pa) != list(pb):
        raise CheckFailed("parameter names differ")
    for name in pa:
        if pa[name].data.tobytes() != pb[name].data.tobytes():
            raise CheckFailed(f"parameter {name} differs from fit()")


def fit_equivalence(seed: int) -> str:
    """A short driven run gives the parameters `fit` gives; returns their digest."""
    spec = phantom.PhantomSpec(dims=(16, 16, 8), n_cases=3, rng_seed=seed)
    vols = [phantom.gen_phantom(spec, i) for i in range(3)]
    train_vols, val_vols = vols[:2], vols[2:]
    config = training.TrainConfig(seed=seed, max_epochs=FIT_CHECK_EPOCHS, patience=FIT_CHECK_EPOCHS)
    fitted = training.fit(train_vols, val_vols, None, config)
    driven = DrivenTraining(train_vols, seed)
    for _ in range(FIT_CHECK_EPOCHS * len(train_vols)):
        driven.step()
    check_same_params(fitted.net, driven.net)
    return params_digest(driven.net)


class Train32:
    name = "train-32"
    op_name, unit = "step", "steps"

    def __init__(self, seed: int, work: Path, smoke: bool):
        self.seed, self.work = seed, work
        self.dims = (16, 16, 8) if smoke else (32, 32, 16)
        self.n_cases = 2 if smoke else 4
        self.span = untimed

    def make_inputs(self) -> None:
        spec = phantom.PhantomSpec(dims=self.dims, n_cases=self.n_cases, rng_seed=self.seed)
        _write_phantoms(spec, self.work, with_labels=True)

    def setup(self) -> None:
        vols = [_read_case(self.work / f"case_{i}_img.sg3d", self.work / f"case_{i}_lbl.sg3d")
                for i in range(self.n_cases)]
        self.train = DrivenTraining(vols, self.seed, span=lambda *a: self.span(*a))
        t0 = time.perf_counter()
        self.losses = [self.train.step()]
        self.warmup_s = time.perf_counter() - t0
        self.digests: dict[str, str] = {}

    def op(self, i: int) -> dict:
        t0 = time.perf_counter()
        loss = self.train.step()
        s = time.perf_counter() - t0
        self.losses.append(loss)
        if self.train.steps == DIGEST_STEPS:
            self.digests[f"params_after_{DIGEST_STEPS}_steps"] = params_digest(self.train.net)
        return {"s": s, "units": 1}

    def _check_fit(self) -> None:
        self.digests["fit_check_params"] = fit_equivalence(self.seed)

    def post_checks(self) -> list[tuple[str, object]]:
        return [("losses", lambda: check_losses(self.losses)), ("fit_equivalence", self._check_fit)]

    def result_extra(self) -> dict:
        return {"first_loss": self.losses[0], "last_loss": self.losses[-1], "steps": self.train.steps}


# ---------------------------------------------------------------------------
# mc-64
# ---------------------------------------------------------------------------


def perturbed_net(seed: int) -> network.TumorSegNet:
    """Seeded initialization with every parameter moved off its init value,
    so zero-initialized attention gates do real work."""
    net = network.TumorSegNet(network.NetworkConfig(), seed=seed)
    rng = autodiff.derive_rng(seed, 7)
    for _, p in net.named_parameters():
        scale = 0.1 * float(np.std(p.data)) or 0.05
        p.data = (p.data + rng.normal(0.0, scale, size=p.data.shape)).astype(np.float32)
    return net


def check_mc_outputs(mean: np.ndarray, variance: np.ndarray, masks: np.ndarray) -> None:
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(variance))):
        raise CheckFailed("non-finite MC mean or variance")
    if mean.min() < 0.0 or mean.max() > 1.0:
        raise CheckFailed(f"MC mean outside [0, 1]: [{mean.min()}, {mean.max()}]")
    if variance.min() < 0.0 or variance.max() > 0.25:
        raise CheckFailed(f"MC variance outside [0, 0.25]: [{variance.min()}, {variance.max()}]")
    if not np.array_equal(masks.astype(bool), mean >= 0.5):
        raise CheckFailed("masks differ from mean >= 0.5")


def mc_equivalence(net, seed: int, n: int = MC_CHECK_PASSES) -> None:
    """mc_infer(n) equals mean and variance of n single passes seeded
    derive_rng(seed, 2, i), byte for byte, on a 32x32x16 case."""
    vol = phantom.gen_phantom(phantom.PhantomSpec(dims=(32, 32, 16), n_cases=1, rng_seed=seed), 0)
    x = prior.build_input(vol, prior.generate_prior(vol.flair, prior.PriorConfig(rng_seed=seed)))
    mc = training.mc_infer(net, x, n_passes=n, seed=seed)
    outs = np.empty((n, net.config.out_channels) + x.shape[2:], dtype=np.float64)
    with autodiff.no_grad():
        for i in range(n):
            outs[i] = net.forward(x, autodiff.DropoutMode.MC_ACTIVE, autodiff.derive_rng(seed, 2, i)).data[0]
    if mc.mean.tobytes() != outs.mean(axis=0).astype(np.float32).tobytes():
        raise CheckFailed(f"mc_infer({n}) mean differs from {n} single passes")
    if mc.variance.tobytes() != outs.var(axis=0).astype(np.float32).tobytes():
        raise CheckFailed(f"mc_infer({n}) variance differs from {n} single passes")


class Mc64:
    name = "mc-64"
    op_name, unit = "case", "passes"

    def __init__(self, seed: int, work: Path, smoke: bool):
        self.seed, self.work = seed, work
        self.dims = (16, 16, 8) if smoke else (64, 64, 32)
        self.n_passes = 3 if smoke else 20  # 20 is the CLI default
        self.img = work / "case_0_img.sg3d"
        self.ckpt = work / "checkpoint.sgcp"
        self.out = work / "infer"
        self.span = untimed

    def make_inputs(self) -> None:
        spec = phantom.PhantomSpec(dims=self.dims, n_cases=1, rng_seed=self.seed)
        _write_phantoms(spec, self.work, with_labels=False)
        checkpoint.save_checkpoint(self.ckpt, perturbed_net(self.seed).state_dict())

    def _load(self):
        vol = _read_case(self.img, None)
        net = network.TumorSegNet(network.NetworkConfig(), seed=self.seed)
        net.load_state(checkpoint.load_checkpoint(self.ckpt))
        return vol, net

    def setup(self) -> None:
        self.out.mkdir(exist_ok=True)
        vol, net = self._load()
        x = prior.build_input(vol, prior.generate_prior(vol.flair, prior.PriorConfig(rng_seed=self.seed)))
        t0 = time.perf_counter()
        with autodiff.no_grad():
            net.forward(x, autodiff.DropoutMode.MC_ACTIVE, autodiff.derive_rng(self.seed, 2, 0))
        self.warmup_s = time.perf_counter() - t0
        self.digests: dict[str, str] = {}

    def op(self, i: int) -> dict:
        """One `voxseg infer` case: read, load, prior, input, MC, write."""
        t0 = time.perf_counter()
        vol, net = self._load()
        t1 = time.perf_counter()
        pri = prior.generate_prior(vol.flair, prior.PriorConfig(rng_seed=self.seed))
        t2 = time.perf_counter()
        x = prior.build_input(vol, pri)
        t3 = time.perf_counter()
        mc = training.mc_infer(net, x, n_passes=self.n_passes, seed=self.seed)
        t4 = time.perf_counter()
        volume_io.write_volume(self.out / "mean.sg3d", mc.mean)
        volume_io.write_volume(self.out / "variance.sg3d", mc.variance)
        masks = np.stack([mc.masks.et, mc.masks.wt, mc.masks.tc]).astype(np.uint8)
        volume_io.write_volume(self.out / "masks.sg3d", masks)
        t5 = time.perf_counter()
        self._check_written()
        return {"s": t5 - t0, "units": self.n_passes, "prior_s": t2 - t1,
                "mc_pass_s": (t4 - t3) / self.n_passes}

    def _check_written(self) -> None:
        mean = volume_io.read_volume(self.out / "mean.sg3d")[1]
        variance = volume_io.read_volume(self.out / "variance.sg3d")[1]
        masks = volume_io.read_volume(self.out / "masks.sg3d")[1]
        check_mc_outputs(mean, variance, masks)
        d = digest(mean, variance, masks)
        first = self.digests.setdefault("mc_mean_variance_masks", d)
        if d != first:
            raise CheckFailed("MC outputs differ between repeats of the same case")

    def post_checks(self) -> list[tuple[str, object]]:
        return [("mc_equivalence", lambda: mc_equivalence(self._load()[1], self.seed))]

    def result_extra(self) -> dict:
        return {"n_passes": self.n_passes}


# ---------------------------------------------------------------------------
# classical-brats
# ---------------------------------------------------------------------------


def shift_inward(mask: np.ndarray, k: int, axis: int) -> np.ndarray:
    """Translate a mask by k voxels along `axis`, toward the volume centre."""
    idx = np.nonzero(mask)[axis]
    sign = 1 if idx.mean() < (mask.shape[axis] - 1) / 2 else -1
    out = np.zeros_like(mask)
    src = [slice(None)] * 3
    dst = [slice(None)] * 3
    if sign > 0:
        src[axis], dst[axis] = slice(0, -k), slice(k, None)
    else:
        src[axis], dst[axis] = slice(k, None), slice(0, -k)
    out[tuple(dst)] = mask[tuple(src)]
    return out


def tumor_placement(spec: phantom.PhantomSpec, case: int) -> tuple[int, int]:
    """(voxels of the tumor sphere, how many of them lie inside the brain)
    for one case, found by repeating gen_phantom's placement draws."""
    dims = np.array(spec.dims)
    brain_center, brain_radii = dims / 2.0 - 0.5, dims * 0.45
    rng = autodiff.derive_rng(spec.rng_seed, case)
    r = rng.uniform(*spec.tumor_radius_range) * float(dims.min())
    for _ in range(100):
        center = np.array([rng.uniform(r, n - 1 - r) for n in dims])
        if np.all((np.abs(center - brain_center) + r) / brain_radii <= 1.0):
            break
    lo = np.floor(center - r).astype(int)
    grid = np.indices(np.ceil(center + r).astype(int) + 1 - lo).astype(np.float64)
    grid += lo.reshape(3, 1, 1, 1)
    sphere = sum(((grid[i] - center[i]) / r) ** 2 for i in range(3)) <= 1.0
    inside = sum(((grid[i] - brain_center[i]) / brain_radii[i]) ** 2 for i in range(3)) <= 1.0
    return int(sphere.sum()), int((sphere & inside).sum())


def unclipped_case(spec: phantom.PhantomSpec) -> tuple[int, int]:
    """First case index whose tumor lies wholly inside the brain, with its
    voxel count.

    The brain ellipsoid clips about half of gen_phantom's tumors, which
    would make case cost depend on the seed's draw; this skips those
    cases without generating them.
    """
    for case in range(1000):
        n, kept = tumor_placement(spec, case)
        if kept == n:
            return case, n
    raise CheckFailed("no unclipped phantom case found")


def check_scores(prior_mask: np.ndarray, scores: dict, k: int) -> None:
    if not prior_mask.any():
        raise CheckFailed("empty prior")
    if not scores["dice_wt"] > PRIOR_DICE_FLOOR:
        raise CheckFailed(f"prior Dice vs WT {scores['dice_wt']:.4f} <= {PRIOR_DICE_FLOOR}")
    for region in ("et", "tc"):
        if scores[f"hd_{region}"] != float(k):
            raise CheckFailed(f"Hausdorff of {region} vs its {k}-voxel translate is {scores[f'hd_{region}']}")
    if not math.isfinite(scores["hd_wt"]):
        raise CheckFailed("non-finite WT Hausdorff")


class ClassicalBrats:
    name = "classical-brats"
    op_name, unit = "case", "cases"

    def __init__(self, seed: int, work: Path, smoke: bool):
        self.seed, self.work = seed, work
        self.dims = (48, 48, 32) if smoke else (240, 240, 155)
        self.img = work / "case_0_img.sg3d"
        self.lbl = work / "case_0_lbl.sg3d"
        self.span = untimed

    def make_inputs(self) -> None:
        spec = phantom.PhantomSpec(dims=self.dims, n_cases=1, rng_seed=self.seed,
                                   tumor_radius_range=(BRATS_RADIUS, BRATS_RADIUS))
        case, n = unclipped_case(spec)
        vol = phantom.gen_phantom(spec, case)
        got = int((vol.labels > 0).sum())
        if got != n:
            raise CheckFailed(f"phantom case {case} has {got} tumor voxels, not the {n} of its "
                              "unclipped sphere: gen_phantom's placement changed")
        volume_io.write_volume(self.img, vol.modalities)
        volume_io.write_volume(self.lbl, vol.labels[None])

    def setup(self) -> None:
        self.warmup_s = None
        self.digests: dict[str, str] = {}

    def op(self, i: int) -> dict:
        rng = autodiff.derive_rng(self.seed, 9, i)
        k, axis = int(rng.integers(1, 4)), int(rng.integers(0, 3))
        t0 = time.perf_counter()
        vol = _read_case(self.img, self.lbl)
        t1 = time.perf_counter()
        prior_mask = prior.generate_prior(vol.flair, prior.PriorConfig(rng_seed=self.seed))
        t2 = time.perf_counter()
        # the prediction is benchmark input, built outside the timed stages
        labels = vol.labels
        pred = {"wt": prior_mask,
                "et": shift_inward(labels == 4, k, axis),
                "tc": shift_inward((labels == 1) | (labels == 4), k, axis)}
        t3 = time.perf_counter()
        gt = metrics.compose_regions(labels)
        scores = {}
        for region in ("et", "wt", "tc"):
            scores[f"dice_{region}"] = metrics.dice_score(pred[region], getattr(gt, region))
            scores[f"hd_{region}"] = metrics.hausdorff(pred[region], getattr(gt, region))
        t4 = time.perf_counter()
        check_scores(prior_mask, scores, k)
        d = digest(np.packbits(prior_mask))
        if self.digests.setdefault("prior_mask", d) != d:
            raise CheckFailed("prior differs between repeats of the same case")
        return {"s": (t2 - t0) + (t4 - t3), "units": 1, "prior_s": t2 - t1, "eval_s": t4 - t3}

    def post_checks(self) -> list[tuple[str, object]]:
        return []

    def result_extra(self) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (Train32, Mc64, ClassicalBrats)}
