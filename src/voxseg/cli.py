"""Command-line surface: phantom data, priors, training, inference, metrics.

Every subcommand writes a run manifest (the fully resolved configuration)
next to its outputs, so any result can be reproduced from the manifest
alone. Exit codes: 0 success, 1 usage error, 2 runtime failure; numbers
and seeds out of range are usage errors, raised before any output exists.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from .autodiff import _openblas
from .metrics import REGIONS, RegionMasks, compose_regions
from .network import CA_REDUCTION, NetworkConfig, TumorSegNet, count_params
from .phantom import PhantomSpec, gen_phantom, split_dataset
from .prior import PriorConfig, generate_prior, tumor_std_stats
from .training import (
    TrainConfig,
    evaluate_case,
    fit,
    format_history,
    mc_infer,
    prepare_case,
)
from .verify import run_gradient_checks
from .volume_io import (
    MultiModalVolume,
    atomic_open,
    check_label_codes,
    export_slice_pgm,
    read_volume,
    write_volume,
)

__all__ = ["main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_at_least(lo: int):
    def parse(text: str) -> int:
        try:
            if int(text) >= lo:
                return int(text)
        except ValueError:
            pass
        raise UsageError(f"expected an integer >= {lo}, got {text!r}")
    return parse


_seed = _int_at_least(0)


def _positive_float(text: str) -> float:
    try:
        if math.isfinite(float(text)) and float(text) > 0:
            return float(text)
    except ValueError:
        pass
    raise UsageError(f"expected a finite number > 0, got {text!r}")


def _config(cls, **kwargs):
    """`cls(**kwargs)`, with the config's own range checks as usage errors."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _add_global_flags(parser, suppress: bool) -> None:
    # the same flags parse before or after the subcommand; the subparser
    # copies use SUPPRESS so an omitted flag never clobbers the root value
    kwargs = {"default": argparse.SUPPRESS} if suppress else {}
    parser.add_argument("--seed", type=_seed, help="root RNG seed (default: env SEED or 0)",
                        **({"default": argparse.SUPPRESS} if suppress else {"default": None}))
    parser.add_argument("--deterministic", action="store_true",
                        help="accepted for reproducible scripts; every output already "
                             "depends only on --seed and the inputs", **kwargs)


def _build_parser() -> _Parser:
    parser = _Parser(prog="voxseg", description=__doc__)
    _add_global_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate a synthetic multi-modal dataset")
    _add_global_flags(p, suppress=True)
    p.add_argument("--cases", type=int, default=10)
    p.add_argument("--dims", type=str, default="32x32x16", help="DxHxW")
    p.add_argument("--noise", type=float, default=4.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("prior", help="classical prior mask from a volume's FLAIR channel")
    _add_global_flags(p, suppress=True)
    p.add_argument("--img", required=True, help="4-channel SG3D volume")
    p.add_argument("--out", required=True, help="output SG3D mask path")
    p.add_argument("--bins", type=int, default=256)
    p.add_argument("--n-seeds", type=int, default=10)
    p.add_argument("--delta", type=float, default=35.0)
    p.add_argument("--component-connectivity", type=int, default=26, choices=(6, 26))
    p.add_argument("--growth-connectivity", type=int, default=6, choices=(6, 26))

    p = sub.add_parser("train", help="fit the network on a phantom dataset directory")
    _add_global_flags(p, suppress=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=1000)
    p.add_argument("--patience", type=int, default=150)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--lr-min", type=float, default=0.0)
    p.add_argument("--weight-decay", type=float, default=1e-5)
    p.add_argument("--cosine-t", type=int, default=50)
    p.add_argument("--cosine-restarts", action="store_true")
    p.add_argument("--widths", type=str, default="8,16,32,64")
    p.add_argument("--dropout", type=float, default=0.2)
    p.add_argument("--no-prior", action="store_true")
    p.add_argument("--no-msff", action="store_true")
    p.add_argument("--no-aam", action="store_true")
    p.add_argument("--no-mc", action="store_true")

    p = sub.add_parser("infer", help="MC-dropout inference for one case")
    _add_global_flags(p, suppress=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--img", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--passes", type=_int_at_least(1), default=20)

    p = sub.add_parser("eval", help="score a prediction against labels")
    _add_global_flags(p, suppress=True)
    p.add_argument("--pred", required=True, help="SG3D: 3-channel 0/1 region masks or 1-channel coded labels")
    p.add_argument("--labels", required=True, help="SG3D: 1-channel coded labels")
    p.add_argument("--out", required=True, help="metric report text file")
    p.add_argument("--spacing", type=str, default="1,1,1")

    p = sub.add_parser("gradcheck", help="run the float64 gradient-check suite")
    _add_global_flags(p, suppress=True)
    p.add_argument("--out", default=".")
    p.add_argument("--tolerance", type=_positive_float, default=1e-5)

    p = sub.add_parser("stats", help="tumor-intensity standard deviations over a labeled dataset")
    _add_global_flags(p, suppress=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    return parser


def _write_manifest(out: Path, args: argparse.Namespace) -> None:
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "command"}
    lines = [f"command={args.command}"] + [f"{k}={v}" for k, v in resolved.items()]
    if args.command in ("train", "infer"):
        # the network's output bits depend on the BLAS kernel that ran it
        blas = _openblas()
        lines.append(f"blas_core={blas.corename if blas else 'unknown'}")
        lines.append(f"blas_threads={blas.get_threads() if blas else 'unknown'}")
    # the command has written `out` already: a directory, or a file
    path = out / "run_manifest.txt" if out.is_dir() else out.with_name(out.name + ".manifest.txt")
    with atomic_open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _parse_ints(text: str, parts: list[str], what: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise UsageError(f"expected {what} as integers, got {text!r}") from None


def _parse_dims(text: str) -> tuple[int, int, int]:
    dims = _parse_ints(text, text.lower().replace("x", ",").split(","), "DxHxW dims")
    if len(dims) != 3:
        raise UsageError(f"expected DxHxW dims, got {text!r}")
    return dims


def _load_case(img_path: Path, lbl_path: Path | None) -> MultiModalVolume:
    _, grids = read_volume(img_path)
    if grids.shape[0] != 4:
        raise ValueError(f"{img_path}: expected 4 modality channels, found {grids.shape[0]}")
    if not np.isfinite(grids).all():
        raise ValueError(f"{img_path}: {np.count_nonzero(~np.isfinite(grids))} non-finite voxels")
    labels = None if lbl_path is None else _read_labels(lbl_path)
    return MultiModalVolume(grids.astype(np.float32), labels)


def _read_labels(path: Path) -> np.ndarray:
    _, lbl = read_volume(path)
    if lbl.shape[0] != 1:
        raise ValueError(f"{path}: labels must have 1 channel, found {lbl.shape[0]}")
    return lbl[0]


def _dataset_cases(data_dir: Path) -> list[tuple[Path, Path]]:
    imgs = sorted(data_dir.glob("case_*_img.sg3d"))
    if not imgs:
        raise FileNotFoundError(f"no case_*_img.sg3d files under {data_dir}")
    pairs = []
    for img in imgs:
        lbl = img.with_name(img.name.replace("_img", "_lbl"))
        if not lbl.exists():
            raise FileNotFoundError(f"missing labels {lbl}")
        pairs.append((img, lbl))
    return pairs


def _cmd_phantom(args) -> int:
    spec = _config(PhantomSpec, dims=_parse_dims(args.dims), n_cases=args.cases,
                   rng_seed=args.seed, noise_sigma=args.noise)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    for idx in range(spec.n_cases):
        vol = gen_phantom(spec, idx)
        write_volume(out / f"case_{idx:03d}_img.sg3d", vol.modalities)
        write_volume(out / f"case_{idx:03d}_lbl.sg3d", vol.labels[None])
    print(f"wrote {2 * spec.n_cases} SG3D files to {out}")
    return 0


def _cmd_prior(args) -> int:
    config = _config(PriorConfig, histogram_bins=args.bins, n_seeds=args.n_seeds, delta=args.delta,
                     component_connectivity=args.component_connectivity,
                     growth_connectivity=args.growth_connectivity, rng_seed=args.seed)
    vol = _load_case(Path(args.img), None)
    prior = generate_prior(vol.flair, config)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_volume(out, prior[None].astype(np.uint8))
    print(f"prior mask: {int(prior.sum())} voxels -> {out}")
    return 0


def _split_volumes(pairs: list[tuple[Path, Path]], seed: int):
    if len(pairs) >= 10:
        train_ids, val_ids, _ = split_dataset(list(range(len(pairs))), seed=seed)
    else:
        # tiny datasets: last case validates, the rest train
        train_ids = list(range(len(pairs) - 1)) or [0]
        val_ids = [len(pairs) - 1]
    train = [_load_case(*pairs[i]) for i in train_ids]
    val = [_load_case(*pairs[i]) for i in val_ids]
    return train, val


def _cmd_train(args) -> int:
    widths = _parse_ints(args.widths, args.widths.split(","), "--widths")
    config = _config(
        TrainConfig, lr_init=args.lr, lr_min=args.lr_min, weight_decay=args.weight_decay,
        cosine_T=args.cosine_t, cosine_restarts=args.cosine_restarts,
        max_epochs=args.epochs, patience=args.patience,
        seed=args.seed, use_prior=not args.no_prior, use_mc=not args.no_mc,
    )
    net_config = _config(
        NetworkConfig, in_channels=4 if args.no_prior else 5, stage_widths=widths,
        dropout_rate=args.dropout, use_msff=not args.no_msff, use_aam=not args.no_aam,
    )
    pairs = _dataset_cases(Path(args.data))
    train_volumes, val_volumes = _split_volumes(pairs, args.seed)
    result = fit(train_volumes, val_volumes, net_config, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ckpt.save_checkpoint(out / "checkpoint.sgcp", result.best_state)
    with atomic_open(out / "history.csv", "w") as f:
        f.write(format_history(result.history))
    net_json = {
        "net": {k: list(v) if isinstance(v, tuple) else v
                for k, v in vars(net_config).items()},
        "train": {k: v for k, v in vars(config).items()},
        "prior": None if result.prior_config is None else dict(vars(result.prior_config)),
        "params": count_params(result.net),
        "best_epoch": result.best_epoch,
        "best_val_loss": result.best_val_loss,
    }
    with atomic_open(out / "config.json", "w") as f:
        f.write(json.dumps(net_json, indent=2) + "\n")
    print(f"trained {len(result.history)} epochs; best val loss "
          f"{result.best_val_loss:.4f} at epoch {result.best_epoch} -> {out}")
    return 0


# "net" settings that older config.json files record, each at the one value it may hold
_RETIRED_NET_SETTINGS = {"out_channels": NetworkConfig.out_channels, "ca_reduction": CA_REDUCTION,
                         "spatial_attention_voxel_cap": 32768, "aam_before_merge": False, "aam_mode": "channel"}


def _cmd_infer(args) -> int:
    ckpt_path = Path(args.checkpoint)
    config_path = ckpt_path.parent / "config.json"
    if not config_path.exists():
        raise FileNotFoundError(f"missing {config_path} (written by `voxseg train`)")
    try:
        stored = json.loads(config_path.read_text())
        net_kwargs = dict(stored["net"])
        for key, fixed in _RETIRED_NET_SETTINGS.items():
            if net_kwargs.pop(key, fixed) != fixed:
                raise ValueError(f"net setting {key} must be {fixed!r} or absent")
        net_kwargs["stage_widths"] = tuple(net_kwargs["stage_widths"])
        net_config = NetworkConfig(**net_kwargs)
        use_prior, use_mc = stored["train"]["use_prior"], stored["train"]["use_mc"]
        # regrow the prior exactly as during training (same derived delta)
        stored_prior = stored.get("prior")
        prior_config = PriorConfig(**stored_prior) if stored_prior else PriorConfig(rng_seed=args.seed)
    except KeyError as exc:
        raise ValueError(f"{config_path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        raise ValueError(f"{config_path}: {exc}") from None

    net = TumorSegNet(net_config, seed=args.seed)
    net.load_state(ckpt.load_checkpoint(ckpt_path))

    vol = _load_case(Path(args.img), None)
    x, _ = prepare_case(vol, use_prior, prior_config)
    mc = mc_infer(net, x, n_passes=args.passes, seed=args.seed, use_mc=use_mc)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    write_volume(out / "mean.sg3d", mc.mean)
    write_volume(out / "variance.sg3d", mc.variance)
    write_volume(out / "masks.sg3d", mc.masks.stack().astype(np.uint8))
    mid = vol.dims[2] // 2
    for i, region in enumerate(REGIONS):
        export_slice_pgm(mc.mean[i], "axial", mid, (0.0, 1.0), out / f"mean_{region}.pgm")
        export_slice_pgm(mc.variance[i], "axial", mid, (0.0, 0.25), out / f"uncertainty_{region}.pgm")
    print(f"{mc.n_passes} passes -> {out} (mean, variance, masks, slice figures)")
    return 0


def _parse_spacing(text: str) -> tuple[float, float, float]:
    try:
        spacing = tuple(float(p) for p in text.split(","))
    except ValueError:
        spacing = ()
    if len(spacing) != 3 or not all(math.isfinite(v) and v > 0 for v in spacing):
        raise UsageError(f"expected 3 finite spacing values > 0, got {text!r}")
    return spacing


def _cmd_eval(args) -> int:
    spacing = _parse_spacing(args.spacing)
    _, pred = read_volume(Path(args.pred))
    labels = _read_labels(Path(args.labels))
    check_label_codes(labels, f"--labels {Path(args.labels).name}")
    if pred.shape[0] == len(REGIONS):
        if not np.isin(pred, (0, 1)).all():
            raise ValueError(f"{args.pred}: a 3-channel prediction must be 0/1 masks (infer's masks.sg3d)")
        masks = RegionMasks(*(pred > 0))
    elif pred.shape[0] == 1:
        check_label_codes(pred[0], f"--pred {Path(args.pred).name}")
        masks = compose_regions(pred[0])
    else:
        raise ValueError(f"prediction must have 1 or {len(REGIONS)} channels, found {pred.shape[0]}")
    report = evaluate_case(masks, labels, spacing)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(out, "w") as f:
        f.write(report.to_text())
    print(report.to_text().strip())
    return 0


def _cmd_gradcheck(args) -> int:
    results = run_gradient_checks(tolerance=args.tolerance, seed=args.seed)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status} {r.name}: max rel error {r.max_rel_error:.3e} (tolerance {r.tolerance:.0e})"
        print(line)
        lines.append(line)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with atomic_open(out / "gradcheck_report.txt", "w") as f:
        f.write("\n".join(lines) + "\n")
    if not all(r.passed for r in results):
        print("gradient checks FAILED", file=sys.stderr)
        return 2
    return 0


def _cmd_stats(args) -> int:
    pairs = _dataset_cases(Path(args.data))
    cases = []
    for img, lbl in pairs:
        vol = _load_case(img, lbl)
        cases.append((vol.flair, vol.labels))
    stats = tumor_std_stats(cases)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"min={stats.min!r}", f"max={stats.max!r}", f"median={stats.median!r}"]
    lines += [f"case_{i}={v!r}" for i, v in enumerate(stats.per_case)]
    with atomic_open(out, "w") as f:
        f.write("\n".join(lines) + "\n")
    print(f"tumor-intensity std over {len(stats.per_case)} cases: "
          f"min {stats.min:.2f}, median {stats.median:.2f}, max {stats.max:.2f}")
    return 0


_COMMANDS = {
    "phantom": _cmd_phantom,
    "prior": _cmd_prior,
    "train": _cmd_train,
    "infer": _cmd_infer,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
    "stats": _cmd_stats,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.seed is None:
            args.seed = _seed(os.environ.get("SEED", "0"))
        rc = _COMMANDS[args.command](args)
        _write_manifest(Path(args.out), args)
        return rc
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures map to exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
