#!/usr/bin/env python3
"""Benchmark of lapsegan: three workloads, end-to-end and per-layer metrics.

    python3 lapsebench/run.py --workload desk-pipeline --seed 1 --seconds 20 --trace 0
    python3 lapsebench/run.py --workload all            # each workload in its own process
    python3 lapsebench/run.py --write-benchmark-json    # regenerate BENCHMARK.json

Run from the repository root. The package is imported from ``src/`` as it
stands; nothing is installed. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones from a separate traced run. The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

# one BLAS/OpenMP thread; main() sets them before numpy loads (numpy is
# imported only inside the functions that need it)
THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".lapsebench-out"

SPEC = {
    "command": ["python3", "lapsebench/run.py"],
    "paths": ["lapsebench"],
    "run_seconds": 20,
    "workloads": [
        {"name": "desk-pipeline",
         "why": "README walkthrough at 64x64, width 1/8, batch 2: small GEMMs where "
                "im2col/col2im copies dominate, Gram/rank losses, frequent checkpoint "
                "writes, evaluation split between generation and SSIM"},
        {"name": "full-train",
         "why": "stage-1 training at the paper's 128x128, width 1, batch 1: large "
                "conv/deconv GEMMs and their buffers set time and peak memory"},
        {"name": "full-generate",
         "why": "generate and evaluate with a 128x128 width-1 stage-2 checkpoint: "
                "tape-free forward passes, inference batch norm, checkpoint reads"},
    ],
    "end_to_end": [
        {"name": "stage1_s_per_iter", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "stage2_s_per_iter", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "eval_clips_per_s", "unit": "clips/s", "better": "higher", "bound": 0.25},
        {"name": "generate_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
    "per_layer": [
        {"name": f"ops.{op}.{d}_ms", "unit": "ms", "better": "lower"}
        for op in ("conv3d", "deconv3d", "batchnorm3d", "activation") for d in ("fwd", "bwd")
    ] + [
        {"name": f"ops.{op}.gflop_per_s", "unit": "GFLOP/s", "better": "higher"}
        for op in ("conv3d", "deconv3d")
    ] + [
        {"name": name, "unit": "ms", "better": "lower"} for name in (
            "tensor.backward_ms", "models.forward_generator_ms",
            "models.forward_discriminator_ms")
    ] + [
        {"name": "models.tape_mb", "unit": "MB", "better": "lower"},
    ] + [
        {"name": name, "unit": "ms", "better": "lower"} for name in (
            "losses.gram_ms", "losses.rank_loss_total_ms", "losses.content_loss_ms",
            "training.adam_step_ms", "training.save_checkpoint_ms")
    ] + [
        {"name": "training.checkpoint_mb", "unit": "MB", "better": "lower"},
    ] + [
        {"name": name, "unit": "ms", "better": "lower"} for name in (
            "training.load_checkpoint_ms", "training.generate_video_ms",
            "data.load_batch_ms", "data.ingest_ms", "data.export_clip_ms",
            "metrics.ssim_ms", "metrics.mse_ms")
    ] + [
        {"name": f"{m}.self_pct", "unit": "%", "better": "lower"} for m in (
            "ops", "tensor", "models", "losses", "training", "data", "metrics")
    ] + [
        {"name": "trace.overhead_pct", "unit": "%", "better": "lower"},
    ],
}
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def machine_info():
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {"cpu": cpu, "cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "threads": {k: os.environ[k] for k in THREAD_VARS}}


def run_workload(name, seed, seconds, trace, work):
    """One workload in this process; returns (result dict, lines to print,
    raw samples)."""
    import numpy as np
    import tracing
    import workloads
    from lapsegan import ops

    workload = workloads.WORKLOADS[name]
    lines = []

    def one_pass(sub, tracer=None, check=True):
        p = workloads.Pass(work / sub, seed, seconds, tracer)
        start = time.perf_counter()
        if tracer is None:
            workload.run(p)
        else:
            with tracer.installed():
                workload.run(p)
        p.wall = time.perf_counter() - start
        if check:
            workload.check(p)
        lines.append(f"{sub} pass {p.wall:.1f} s, checks {time.perf_counter() - start - p.wall:.1f} s")
        return p

    if not trace:
        p = one_pass("untraced")
        metrics = p.metrics()
        for kind, values in p.samples.items():
            lines.append(f"samples {kind}: {len(values)}, "
                         + " ".join(f"{v:.4g}" for v in values))
    else:
        # the untraced pass is only the base of the overhead figure; it
        # computes the same outputs as the traced one, which is checked
        base = one_pass("untraced", check=False)
        tracer = tracing.Tracer()
        p = one_pass("traced", tracer)
        tracer.write(work.parent / f"{work.name}-spans.json")
        focus = lambda phase: not phase.startswith("companion")  # noqa: E731
        rng = np.random.default_rng(seed)
        ms, gflops = tracing.layer_pass(workload.specs(), workload.batch, workload.bn_mode,
                                        rng, workload.layer_repeats)
        spec = workload.specs()[0]
        params = ops.init_parameters(spec, seed)
        metrics = {f"{op}.fwd_ms": ms[op] for op in tracing.OPS}
        metrics.update({f"{op}.bwd_ms": ms[op + ".bwd"] for op in tracing.OPS})
        metrics.update({f"{op}.gflop_per_s": v for op, v in gflops.items()})
        metrics["models.tape_mb"] = tracing.tape_megabytes(spec, params, workload.batch, rng)
        del params
        for span in ("tensor.backward", "models.forward_generator",
                     "models.forward_discriminator", "losses.gram", "losses.rank_loss_total",
                     "losses.content_loss", "training.adam_step", "training.save_checkpoint",
                     "training.load_checkpoint", "training.generate_video", "data.load_batch",
                     "data.ingest", "data.export_clip", "metrics.ssim", "metrics.mse"):
            metrics[f"{span}_ms"] = tracer.median_ms(span, focus)
        saves = tracer.calls("training.save_checkpoint", focus)
        metrics["training.checkpoint_mb"] = float(np.median([s["bytes"] for s in saves])) / 1e6
        self_s = tracer.self_seconds()
        for module in tracing.MODULES:
            metrics[f"{module}.self_pct"] = 100.0 * sum(
                v for k, v in self_s.items() if k.split(".")[0] == module) / p.wall
        metrics["trace.overhead_pct"] = 100.0 * (p.wall - base.wall) / base.wall
        lines.append(f"traced pass {p.wall:.3f} s, untraced pass {base.wall:.3f} s, "
                     f"{len(tracer.spans)} spans")
        lines.append("self time by span (s):")
        for k, v in sorted(self_s.items(), key=lambda kv: -kv[1])[:20]:
            lines.append(f"  {k:<32} {v:9.3f}")
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    missing = [k for k in names if metrics.get(k) is None]
    if missing:
        raise RuntimeError(f"no measurement for {missing}")
    result = {"correct": all(ok for _, ok, _ in p.checks), "attempted": p.attempted,
              "failed": p.failed,
              "metrics": {k: {"value": float(metrics[k]), "unit": UNITS[k]} for k in names}}
    for check, ok, detail in p.checks:
        lines.append(f"check {check}: {'PASS' if ok else 'FAIL'} ({detail})")
    raw = {"samples": dict(p.samples), "setups": p.setups, "warmups": dict(p.warmups),
           "setup_once": p.once,
           "checks": p.checks}
    return result, lines, raw


def run_all(args):
    """Each workload in its own process, one after the other."""
    code = 0
    for w in SPEC["workloads"]:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT)
        code = code or proc.returncode
    return code


def main(argv=None):
    os.environ.update(THREAD_VARS)
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true")
    args = parser.parse_args(argv)
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(SPEC, indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    if not (ROOT / "src" / "lapsegan" / "__init__.py").is_file():
        print(f"error: no lapsegan package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        result, lines, raw = run_workload(args.workload, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info = machine_info()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in info.items()))
    for line in lines:
        print(line)
    for k, m in result["metrics"].items():
        print(f"metric {k} = {m['value']:.6g} {m['unit']}")
    print(f"operations: attempted {result['attempted']}, failed {result['failed']}")
    (OUT / f"{work.name}.json").write_text(json.dumps(dict(result, machine=info, **raw)))
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
