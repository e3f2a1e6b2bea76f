"""voxseg benchmark: one command, one workload per fresh process.

    python3 perfbench/run.py --workload train-32 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a voxseg checkout (it imports `src/voxseg`). With
`--trace 0` the last stdout line is a JSON object whose metrics are the
end-to-end metrics of BENCHMARK.json; with `--trace 1` they are the
per-layer metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("train-32", "mc-64", "classical-brats")
SETUP_REPEATS = 3  # set-ups per untraced run; setup_s is their median
DEADLINE_S = 170.0  # a run must end within 180 s

E2E_UNITS = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "peak_rss_mb": "MB"}
# what each generic metric is called for one workload, in the printed report
ALIASES = {
    "train-32": {"op_p50_s": "train_step_p50_s", "op_tail_s": "train_step_tail_s"},
    "mc-64": {"op_p50_s": "infer_case_s", "op_tail_s": "infer_case_tail_s"},
    "classical-brats": {"op_p50_s": "brats_case_p50_s", "op_tail_s": "brats_case_tail_s"},
}


class BenchError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith("gflop_per_s"):
        return "GFLOP/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("gflop"):
        return "GFLOP"
    if name.endswith("mbytes"):
        return "MB"
    return "count"


def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it; the
    maximum when there are fewer than eleven samples."""
    n = len(values)
    ordered = sorted(values)
    if n < 11:
        return ordered[-1], f"max of {n}"
    idx = n - 11  # ordered[idx] has exactly ten samples above it
    return ordered[idx], f"p{100 * (idx + 1) // n} of {n}"


def checkout_root() -> Path:
    root = Path.cwd()
    if not (root / "src" / "voxseg" / "__init__.py").is_file():
        raise BenchError(f"no src/voxseg under {root}; run from the root of a voxseg checkout")
    return root


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    threads = str(min(2, len(os.sched_getaffinity(0))))
    env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
               PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    return env


class Runner:
    def __init__(self, root: Path, args, deadline: float):
        self.root, self.args, self.deadline = root, args, deadline
        self.env = child_env(root)

    def child(self, mode: str, work: Path, result: Path, extra=()) -> dict:
        a = self.args
        cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", self.workload,
               "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", str(a.trace),
               "--work", str(work), "--result", str(result), *extra]
        if a.smoke:
            cmd.append("--smoke")
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time before starting a worker")
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=sys.stderr, stderr=sys.stderr)
        try:
            code = proc.wait(timeout=left)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{mode} worker for {self.workload} ran past the deadline") from None
        if code != 0:
            raise BenchError(f"{mode} worker for {self.workload} exited with {code}")
        return json.loads(result.read_text()) if result.exists() else {}

    def run_workload(self, workload: str) -> dict:
        self.workload = workload
        a = self.args
        work = self.root / ".perfbench_work" / f"{workload}-{a.seed}-{os.getpid()}"
        out_dir = self.root / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            setups, setup_layers = [], {}
            repeats = 1 if a.trace else SETUP_REPEATS
            for rep in range(repeats):
                t0 = time.monotonic()
                gen = self.child("inputs", work, work / "inputs.json")
                setup_layers = gen.get("setup_layers", setup_layers)
                last = rep == repeats - 1
                res = self.child("run", work, work / "result.json",
                                 ["--t0", repr(t0)] + ([] if last else ["--setup-only"]))
                setups.append(res["setup_s"])
            if a.trace:
                shutil.copy(work / "spans.jsonl", out_dir / f"spans-{workload}-seed{a.seed}.jsonl")
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                work.parent.rmdir()
            except OSError:  # another run is still using it
                pass
        res["setups"] = setups
        res["setup_layers"] = setup_layers
        return res


def summarize(workload: str, res: dict, trace: int) -> dict:
    records = res["records"]
    ok = [r for r in records if r["ok"]]
    if not ok:
        raise BenchError(f"every {res['op']} of {workload} failed: {records[0].get('error')}")
    attempted = sum(r["units"] for r in records)
    failed = sum(r["units"] for r in records if not r["ok"]) + len(res["check_errors"])
    times = [r["s"] for r in ok if not r["traced"]]
    p50 = statistics.median(times)
    tail_s, tail_label = tail(times)
    detail = {"op": res["op"], "unit": res["unit"], "samples": len(times), "tail": tail_label,
              "fail_share": failed / attempted, "setups_s": res["setups"]}
    # medians of the stages some workloads time inside an op
    for key, name in (("prior_s", "prior_case_s"), ("eval_s", "eval_case_s"), ("mc_pass_s", "mc_pass_p50_s")):
        vals = [r[key] for r in ok if key in r]
        if vals:
            detail[name] = statistics.median(vals)
    if res.get("warmup_s") is not None:
        steady = detail.get("mc_pass_p50_s", p50)
        detail["warmup_s"] = res["warmup_s"]
        detail["warmup_ratio"] = res["warmup_s"] / steady
    if trace:
        metrics = dict(res["layers"])
        metrics.update(res["setup_layers"])
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(metrics.items())}
    else:
        values = {"setup_s": statistics.median(res["setups"]), "op_p50_s": p50,
                  "op_tail_s": tail_s, "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    return {
        "correct": not res["check_errors"] and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": detail,
        "check_errors": res["check_errors"],
        "digests": res["digests"],
        "env": res["env"],
        "extra": res.get("extra", {}),
        "trace_checks": res.get("trace_checks", {}),
    }


def print_report(workload: str, seed: int, trace: int, s: dict) -> None:
    d = s["detail"]
    p = functools.partial(print, flush=True)
    p(f"== {workload} seed {seed} ({'traced' if trace else 'untraced'}) ==")
    if not trace:
        aliases = ALIASES[workload]
        for name, m in s["metrics"].items():
            alias = f"  [{aliases[name]}]" if name in aliases else ""
            p(f"  {name:<34} {m['value']:.6g} {m['unit']}{alias}")
    else:
        for name, m in s["metrics"].items():
            if m["value"]:
                p(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    p(f"  {'samples':<34} {d['samples']} x {d['op']} (tail = {d['tail']})")
    for key, unit in (("mc_pass_p50_s", "s"), ("prior_case_s", "s"), ("eval_case_s", "s"),
                      ("warmup_s", "s"), ("warmup_ratio", "x")):
        if key in d:
            p(f"  {key:<34} {d[key]:.6g} {unit}")
    p(f"  {'fail_share':<34} {d['fail_share']:.6g} ({s['failed']}/{s['attempted']} {d['unit']})")
    for err in s["check_errors"]:
        p(f"  CHECK FAILED: {err}")
    p(f"  digests: {json.dumps(s['digests'], sort_keys=True)}")
    p(f"  env: {json.dumps(s['env'], sort_keys=True)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)
    started = time.monotonic()
    try:
        root = checkout_root()
        runner = Runner(root, args, deadline=started + DEADLINE_S)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        if len(names) > 1:
            runner.deadline = float("inf")
        summaries = {}
        for name in names:
            s = summarize(name, runner.run_workload(name), args.trace)
            print_report(name, args.seed, args.trace, s)
            summaries[name] = s
            out = root / ".perfbench_out" / f"{name}-seed{args.seed}-trace{args.trace}.json"
            out.write_text(json.dumps(s, indent=1, sort_keys=True) + "\n")
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if len(summaries) == 1:
        s = summaries[names[0]]
        print(json.dumps({k: s[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
