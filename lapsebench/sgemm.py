#!/usr/bin/env python3
"""Single-thread float32 GEMM ceiling for the forward GEMM of every conv
and deconv layer of one geometry, to read ``ops.*.gflop_per_s`` against.

    python3 lapsebench/sgemm.py --resolution 128 --width 1 --batch 1

Each layer's forward is one GEMM (conv: (Cout x Cin*K) @ (Cin*K x L_out);
deconv: (Cout*K x Cin) @ (Cin x L_in)); the best of ``REPEATS`` timings
of ``numpy.matmul`` on random operands of those shapes is reported.
"""
import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from lapsegan import models  # noqa: E402

REPEATS = 3


def gemm_shapes(spec, batch):
    in_spatial = spec.input_shape[1:]
    for layer in spec.layers:
        k = int(np.prod(layer.params.kernel))
        if layer.params.transposed:
            shape = (layer.out_channels * k, layer.in_channels, int(np.prod(in_spatial)))
        else:
            shape = (layer.out_channels, layer.in_channels * k, int(np.prod(layer.out_shape[1:])))
        yield f"{spec.kind[0]}.{layer.name}", batch, shape
        in_spatial = layer.out_shape[1:]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--resolution", type=int, default=128)
    parser.add_argument("--width", type=float, default=1.0)
    parser.add_argument("--batch", type=int, default=1)
    args = parser.parse_args()
    rng = np.random.default_rng(0)
    specs = [models.build_generator(1, args.resolution, args.width),
             models.build_discriminator(args.resolution, args.width)]
    total_flops = total_s = 0.0
    print(f"{'layer':<12}{'M':>7}{'K':>8}{'N':>8}  GFLOP/s")
    for spec in specs:
        for name, batch, (m, k, n) in gemm_shapes(spec, args.batch):
            a = rng.standard_normal((m, k), dtype=np.float32)
            b = rng.standard_normal((batch, k, n), dtype=np.float32)
            best = float("inf")
            for _ in range(REPEATS):
                start = time.perf_counter()
                a[None] @ b
                best = min(best, time.perf_counter() - start)
            flops = 2.0 * batch * m * k * n
            total_flops += flops
            total_s += best
            print(f"{name:<12}{m:>7}{k:>8}{n:>8}  {flops / best / 1e9:7.1f}")
    print(f"all layers: {total_flops / 1e9:.1f} GFLOP at {total_flops / total_s / 1e9:.1f} GFLOP/s")


if __name__ == "__main__":
    main()
