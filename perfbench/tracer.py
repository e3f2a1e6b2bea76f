"""Outside-in tracer: timing wrappers around voxseg's public functions.

Nothing in `src/` knows about it. `Tracer.install` replaces each traced
function in every loaded `voxseg.*` module that holds it (the network,
losses, training and cli modules import the ops by name), replaces the
forward methods of the network classes, and wraps the backward rule
recorded on every tensor a traced op returns. `Tracer.uninstall` puts
every original back and raises if any is still missing.

Spans carry a name, start, end and parent index; they are kept in
memory and aggregated (or written out) when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# autodiff op -> group reported as autodiff.<group>.*
OP_GROUPS = {
    "conv3d": "conv3d",
    "conv_transpose3d": "conv_transpose3d",
    "dropout": "dropout",
    "group_norm": "group_norm",
    "contract": "contract",
    "maxpool3d": "maxpool3d",
    "relu": "elementwise",
    "sigmoid": "elementwise",
    "softmax": "elementwise",
    "add": "elementwise",
    "mul": "elementwise",
    "div": "elementwise",
    "clamp": "elementwise",
    "tlog": "elementwise",
    "reshape": "shape",
    "concat": "shape",
    "tsum": "shape",
    "global_avg_pool": "shape",
}
OP_GROUP_NAMES = ("conv3d", "conv_transpose3d", "dropout", "group_norm", "contract",
                  "maxpool3d", "elementwise", "shape")

# (module, function) -> span name; layer spans are inclusive
LAYER_FUNCTIONS = {
    ("autodiff", "backward"): "autodiff.backward",
    ("losses", "combined_loss"): "losses.combined_loss",
    ("training", "mc_infer"): "training.mc_infer",
    ("prior", "otsu_threshold"): "prior.otsu",
    ("prior", "largest_component"): "prior.largest_component",
    ("prior", "select_seeds"): "prior.select_seeds",
    ("prior", "region_grow"): "prior.region_grow",
    ("prior", "build_input"): "prior.build_input",
    ("metrics", "extract_boundary"): "metrics.extract_boundary",
    ("metrics", "hausdorff"): "metrics.hausdorff",
    ("metrics", "dice_score"): "metrics.dice",
    ("metrics", "compose_regions"): "metrics.compose_regions",
    ("volume_io", "read_volume"): "volume_io.read",
    ("volume_io", "write_volume"): "volume_io.write",
    ("checkpoint", "load_checkpoint"): "checkpoint.load",
    ("checkpoint", "save_checkpoint"): "checkpoint.save",
    ("phantom", "gen_phantom"): "phantom.gen",
}

# (module, class, method) -> span name (None: resolved per instance)
LAYER_METHODS = {
    ("training", "AdamW", "step"): "training.adamw_step",
    ("network", "TumorSegNet", "forward"): "network.forward",
    ("network", "MultiScaleFusion", "forward"): None,
    ("network", "_DecoderStage", "forward"): None,
    ("network", "Conv3d", "forward"): None,
    ("network", "AdaptiveAttention", "forward"): "network.attention",
    ("network", "FeatureCalibration", "forward"): "network.calibration",
}


class TraceError(RuntimeError):
    """The tracer could not hook, or could not restore, the program."""


def _voxseg_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "voxseg" or name.startswith("voxseg."))]


class Tracer:
    """Collects spans and counts while installed."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._instance_names: dict[int, str] = {}

    # -- span recording ------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called `name`."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent)

    # -- wrappers ------------------------------------------------------------

    def _wrap_op(self, fn, op):
        group = OP_GROUPS[op]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = tracer.span(f"autodiff.{group}.fwd", fn, *args, **kwargs)
            tracer.counts[f"autodiff.{group}.calls"] += 1
            try:
                rule = out._backward_rule
            except AttributeError:
                raise TraceError(f"{op} returned a tensor without _backward_rule; "
                                 "backward time cannot be taken") from None
            # ops such as dropout with mode OFF hand back their input, whose
            # rule belongs to the op that made it
            if rule is not None and not any(out is a for a in args):
                out._backward_rule = tracer._wrap_rule(rule, group)
            if group == "conv3d":
                tracer._count_conv(args[0], args[1], out)
            return out

        return wrapper

    def _wrap_rule(self, rule, group):
        name = f"autodiff.{group}.bwd"

        def timed_rule(g):
            return self.span(name, rule, g)

        return timed_rule

    def _count_conv(self, x, weight, out):
        cout, cin, k = weight.shape[0], weight.shape[1], weight.shape[2]
        n_out = out.data.size // cout  # batch x output voxels
        item = out.data.itemsize
        patch = cin * k ** 3 * n_out * item if k > 1 else 0
        self.counts["autodiff.conv3d.flop"] += 2 * cin * k ** 3 * cout * n_out
        self.counts["autodiff.conv3d.bytes"] += x.data.nbytes + weight.data.nbytes + out.data.nbytes + patch

    def _wrap_layer(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = tracer.span(name, fn, *args, **kwargs)
            tracer._count_layer(name, args, out)
            return out

        return wrapper

    def _count_layer(self, name, args, out):
        c = self.counts
        if name == "prior.largest_component":
            c["prior.candidate_voxels"] += int(args[0].sum())
        elif name == "prior.region_grow":
            c["prior.grown_voxels"] += int(out.sum())
        elif name == "metrics.extract_boundary":
            c["metrics.boundary_points"] += len(out)
        elif name == "volume_io.read":
            c["volume_io.bytes"] += out[1].nbytes
        elif name == "volume_io.write":
            c["volume_io.bytes"] += out.payload_bytes
        elif name == "network.forward":
            c["network.forward.calls"] += 1

    def _wrap_method(self, fn, cls_name, fixed_name):
        tracer = self
        names = self._instance_names

        if cls_name == "TumorSegNet":
            @functools.wraps(fn)
            def wrapper(net, *args, **kwargs):
                tracer._register(net)
                out = tracer.span(fixed_name, fn, net, *args, **kwargs)
                tracer._count_layer(fixed_name, args, out)
                return out
        elif fixed_name is None:
            @functools.wraps(fn)
            def wrapper(module, *args, **kwargs):
                name = names.get(id(module))
                if name is None:
                    return fn(module, *args, **kwargs)
                return tracer.span(name, fn, module, *args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(module, *args, **kwargs):
                return tracer.span(fixed_name, fn, module, *args, **kwargs)
        return wrapper

    def _register(self, net):
        names = self._instance_names
        names.clear()
        for i, enc in enumerate(net.encoders):
            names[id(enc)] = f"network.encoder{i}"
        # decoders are built for stage indices 2, 1, 0 (see layer_manifest)
        for stage, idx in zip(net.decoders, (2, 1, 0)):
            names[id(stage)] = f"network.decoder{idx}"
        names[id(net.head)] = "network.head"

    # -- install / uninstall -------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        import voxseg.autodiff as autodiff  # noqa: F401  (loads every submodule)
        import voxseg.cli  # noqa: F401

        if "_backward_rule" not in getattr(autodiff.Tensor, "__slots__", ()):
            raise TraceError("voxseg.autodiff.Tensor has no _backward_rule slot to hook")
        modules = _voxseg_modules()
        originals = {}
        for op in OP_GROUPS:
            fn = getattr(autodiff, op, None)
            if fn is None:
                raise TraceError(f"voxseg.autodiff.{op} not found")
            originals[fn] = self._wrap_op(fn, op)
        for (mod, func), name in LAYER_FUNCTIONS.items():
            fn = getattr(sys.modules[f"voxseg.{mod}"], func, None)
            if fn is None:
                raise TraceError(f"voxseg.{mod}.{func} not found")
            originals[fn] = self._wrap_layer(fn, name)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if callable(value) and not isinstance(value, type):
                    try:
                        new = originals.get(value)
                    except TypeError:  # unhashable callable
                        continue
                    if new is not None:
                        self._patch(m, attr, new)
        for (mod, cls_name, meth), name in LAYER_METHODS.items():
            cls = getattr(sys.modules[f"voxseg.{mod}"], cls_name, None)
            if cls is None or meth not in vars(cls):
                raise TraceError(f"voxseg.{mod}.{cls_name}.{meth} not found")
            self._patch(cls, meth, self._wrap_method(vars(cls)[meth], cls_name, name))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        left = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._patches
                if vars(o).get(a) is not orig]
        self._patches.clear()
        if left:
            raise TraceError(f"wrappers left in place: {left}")

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- aggregation ---------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """(inclusive seconds, self seconds, calls) per span name."""
        incl: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        calls: dict[str, int] = defaultdict(int)
        for name, t0, t1, parent in self.spans:
            d = t1 - t0
            incl[name] += d
            calls[name] += 1
            if parent >= 0:
                child[parent] += d
        selft: dict[str, float] = defaultdict(float)
        for (name, t0, t1, _), c in zip(self.spans, child):
            selft[name] += (t1 - t0) - c
        return incl, selft, calls

    def time_under(self, name: str, parent_name: str) -> tuple[float, int]:
        """Total seconds and count of `name` spans whose parent is `parent_name`."""
        total, n = 0.0, 0
        for sname, t0, t1, parent in self.spans:
            if sname == name and parent >= 0 and self.spans[parent][0] == parent_name:
                total += t1 - t0
                n += 1
        return total, n

    def write(self, path) -> None:
        """Spans as JSON lines: name, start, end, parent index."""
        with open(path, "w") as f:
            for name, t0, t1, parent in self.spans:
                f.write(json.dumps([name, round(t0, 7), round(t1, 7), parent]) + "\n")
