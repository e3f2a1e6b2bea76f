"""One workload process: `inputs` writes the seeded inputs, `run` sets up,
runs the closed loop for the given seconds, checks the outputs and writes
a JSON result file. Started by run.py, never by hand."""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracer as tracing
import workloads


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("inputs", "run"))
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--t0", type=float, default=None, help="time.monotonic() when set-up began")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--smoke", action="store_true")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None."""
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _proc_field(path, key):
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: no dict form
        blas_version = None
    mem = _proc_field("/proc/meminfo", "MemTotal")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "ram_gb": round(int(mem.split()[0]) / 2 ** 20, 2) if mem else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------


def closed_loop(wl, seconds: float, tracer: tracing.Tracer | None = None) -> list[dict]:
    """Run ops back to back until `seconds` have passed (at least one).

    With a tracer, every second op runs traced and there is at least one
    op of each kind, so traced and untraced ops see the same machine load.
    """
    records = []
    t_end = time.perf_counter() + seconds
    while len(records) < (2 if tracer else 1) or time.perf_counter() < t_end:
        traced = tracer is not None and len(records) % 2 == 1
        if traced:
            tracer.install()
            wl.span = tracer.span
        try:
            rec = wl.op(len(records))
            rec["ok"] = True
        except Exception as exc:  # a failed op counts toward fail_share
            rec = {"ok": False, "units": getattr(wl, "n_passes", 1),
                   "error": "".join(traceback.format_exception_only(type(exc), exc)).strip()}
            traceback.print_exc()
        finally:
            if traced:
                wl.span = workloads.untimed
                tracer.uninstall()
        rec["traced"] = traced
        records.append(rec)
    return records


def _median(values):
    return float(np.median(values)) if values else 0.0


# ---------------------------------------------------------------------------
# per-layer metrics from the traced ops
# ---------------------------------------------------------------------------


def conv_expectation(net, spatial) -> tuple[int, int]:
    """(Conv3d module count, sum of Conv3d.flops(n_out)) for one forward."""
    from voxseg import network

    n0 = int(np.prod(spatial))

    def walk(module, n, pooled):
        if isinstance(module, network.Conv3d):
            return 1, module.flops(1 if pooled else n)
        calls = flops = 0
        inner_pooled = pooled or isinstance(module, network.ChannelAttention)
        for attr in vars(module).values():
            for child in attr if isinstance(attr, (list, tuple)) else (attr,):
                if isinstance(child, network.Module):
                    c, f = walk(child, n, inner_pooled)
                    calls, flops = calls + c, flops + f
        return calls, flops

    parts = [walk(enc, n0 // 8 ** i, False) for i, enc in enumerate(net.encoders)]
    parts += [walk(dec, n0 // 8 ** lvl, False) for dec, lvl in zip(net.decoders, (2, 1, 0))]
    parts.append(walk(net.head, n0, False))
    return sum(c for c, _ in parts), sum(f for _, f in parts)


def check_trace(tr: tracing.Tracer, wl) -> dict:
    """Trace counts against the model's own: conv calls and FLOPs per forward."""
    from voxseg import network

    forwards = int(tr.counts["network.forward.calls"])
    if not forwards:
        return {}
    net = network.TumorSegNet(network.NetworkConfig(), seed=0)
    n_conv, flops = conv_expectation(net, wl.dims)
    calls = tr.counts["autodiff.conv3d.calls"] / forwards
    traced_flops = tr.counts["autodiff.conv3d.flop"] / forwards
    if calls != n_conv:
        raise workloads.CheckFailed(f"traced conv3d calls per forward {calls} != {n_conv} Conv3d modules")
    if traced_flops != flops:
        raise workloads.CheckFailed(f"traced conv3d FLOPs per forward {traced_flops} != {flops} from Conv3d.flops")
    if wl.name == "train-32":
        _, _, span_calls = tr.totals()
        if not span_calls.get("autodiff.conv3d.bwd"):
            raise tracing.TraceError("no backward rule was timed: the _backward_rule hook is missing")
    return {"conv3d_modules": n_conv, "conv3d_calls_per_forward": calls,
            "conv3d_gflop_per_forward": flops / 1e9}


NETWORK_SPANS = ["encoder0", "encoder1", "encoder2", "encoder3", "decoder0", "decoder1", "decoder2",
                 "attention", "calibration", "head"]
# inclusive layer spans, reported as <span>_s
LAYER_SPANS = ("training.adamw_step", "training.forward", "training.backward", "training.mc_infer",
               "prior.otsu", "prior.largest_component", "prior.select_seeds", "prior.region_grow",
               "prior.build_input", "metrics.extract_boundary", "metrics.hausdorff", "metrics.dice",
               "metrics.compose_regions", "volume_io.read", "volume_io.write", "checkpoint.load")
PER_OP_COUNTS = ("prior.candidate_voxels", "prior.grown_voxels", "metrics.boundary_points")


def layer_metrics(tr: tracing.Tracer, n_ops: int) -> dict[str, float]:
    """Per-op figures: op self times, layer inclusive times, counts."""
    incl, selft, _ = tr.totals()
    m: dict[str, float] = {}
    for g in tracing.OP_GROUP_NAMES:
        m[f"autodiff.{g}.calls"] = tr.counts[f"autodiff.{g}.calls"] / n_ops
        m[f"autodiff.{g}.fwd_s"] = selft[f"autodiff.{g}.fwd"] / n_ops
        m[f"autodiff.{g}.bwd_s"] = selft[f"autodiff.{g}.bwd"] / n_ops
    gflop = tr.counts["autodiff.conv3d.flop"] / 1e9 / n_ops
    m["autodiff.conv3d.gflop"] = gflop
    m["autodiff.conv3d.gflop_per_s"] = gflop / m["autodiff.conv3d.fwd_s"] if m["autodiff.conv3d.fwd_s"] else 0.0
    m["autodiff.conv3d.mbytes"] = tr.counts["autodiff.conv3d.bytes"] / 1e6 / n_ops
    m["autodiff.backward_s"] = incl["autodiff.backward"] / n_ops
    m["autodiff.backward.overhead_s"] = selft["autodiff.backward"] / n_ops
    for name in NETWORK_SPANS:
        m[f"network.{name}.fwd_s"] = incl[f"network.{name}"] / n_ops
    m["losses.combined_loss.fwd_s"] = incl["losses.combined_loss"] / n_ops
    for span in LAYER_SPANS:
        m[f"{span}_s"] = incl[span] / n_ops
    total, n = tr.time_under("network.forward", "training.mc_infer")
    m["training.mc_pass_s"] = total / n if n else 0.0
    for count in PER_OP_COUNTS:
        m[count] = tr.counts[count] / n_ops
    m["volume_io.mbytes"] = tr.counts["volume_io.bytes"] / 1e6 / n_ops
    return m


def setup_layer_metrics(tr: tracing.Tracer) -> dict[str, float]:
    """Per-call times of the input-writing process."""
    incl, _, calls = tr.totals()
    return {f"{name}_s": incl[name] / calls[name] if calls[name] else 0.0
            for name in ("phantom.gen", "checkpoint.save")}


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------


def _write(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=1, sort_keys=True))


def _run_post_checks(wl) -> list[str]:
    errors = []
    for name, fn in wl.post_checks():
        try:
            fn()
        except Exception as exc:  # every failed check is reported, not just the first
            traceback.print_exc()
            errors.append(f"{name}: {exc}")
    return errors


def traced_run(wl, seconds: float, spans_path: Path, check_errors: list[str]):
    """Alternate untraced and traced ops; returns the records, the
    per-layer metrics (per traced op) and the trace checks."""
    tr = tracing.Tracer()
    records = closed_loop(wl, seconds, tr)
    tr.write(spans_path)
    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    un_s = _median([r["s"] for r in untraced if r["ok"]])
    tr_s = _median([r["s"] for r in traced if r["ok"]])
    layers = layer_metrics(tr, len(traced))
    layers.update({
        "trace.untraced_op_s": un_s,
        "trace.traced_op_s": tr_s,
        "trace.overhead_s": tr_s - un_s,
        "trace.overhead_pct": 100.0 * (tr_s - un_s) / un_s if un_s else 0.0,
        "trace.spans": len(tr.spans) / len(traced),
    })
    checks = {}
    try:
        checks = check_trace(tr, wl)
    except (workloads.CheckFailed, tracing.TraceError) as exc:
        check_errors.append(f"trace: {exc}")
    return records, layers, checks


def main(argv=None) -> int:
    args = _parse(argv)
    work = Path(args.work)
    wl = workloads.WORKLOADS[args.workload](args.seed, work, args.smoke)

    if args.mode == "inputs":
        if args.trace:
            with tracing.Tracer() as tr:
                wl.make_inputs()
            _write(args.result, {"setup_layers": setup_layer_metrics(tr)})
        else:
            wl.make_inputs()
        return 0

    wl.setup()
    result = {"setup_s": time.monotonic() - args.t0 if args.t0 is not None else None}
    if args.setup_only:
        _write(args.result, result)
        return 0

    check_errors = []
    if args.trace:
        records, result["layers"], result["trace_checks"] = traced_run(
            wl, args.seconds, Path(args.result).parent / "spans.jsonl", check_errors)
    else:
        records = closed_loop(wl, args.seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result["records"] = records
    result["warmup_s"] = wl.warmup_s
    result["check_errors"] = check_errors + _run_post_checks(wl)
    result["extra"] = wl.result_extra()
    result["digests"] = wl.digests
    result["op"], result["unit"] = wl.op_name, wl.unit
    result["env"] = environment(args.seed)
    _write(args.result, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
