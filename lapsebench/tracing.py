"""Tracing for the benchmark's traced run (``--trace 1``).

A ``Tracer`` wraps the public functions of lapsegan's modules where the
program looks them up, records one span (name, start, end, parent, phase)
per call in memory, and writes them out when the run ends. The backward
closure of every conv/deconv/batch-norm/activation output is wrapped too,
so op backward spans nest under ``tensor.backward``. Nothing inside
``src/`` changes.

``layer_pass`` calls the ops directly on the layer shapes of a workload's
network specs and runs ``tensor.backward`` on a scalar of each output; the
``ops.*`` per-layer metrics come from it.
"""
from __future__ import annotations

import importlib
import json
import os
import statistics
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from lapsegan import models, ops, tensor
from lapsegan.tensor import Tensor

# (module holding the name the program calls through, attribute, span name)
SITES = (
    ("lapsegan.models", "conv3d", "ops.conv3d"),
    ("lapsegan.models", "deconv3d", "ops.deconv3d"),
    ("lapsegan.models", "batchnorm3d", "ops.batchnorm3d"),
    ("lapsegan.models", "activation", "ops.activation"),
    ("lapsegan.training", "backward", "tensor.backward"),
    ("lapsegan.training", "forward_generator", "models.forward_generator"),
    ("lapsegan.training", "forward_discriminator", "models.forward_discriminator"),
    ("lapsegan.training", "gram", "losses.gram"),
    ("lapsegan.training", "rank_loss_total", "losses.rank_loss_total"),
    ("lapsegan.training", "content_loss", "losses.content_loss"),
    ("lapsegan.training", "load_batch", "data.load_batch"),
    ("lapsegan.training", "adam_step", "training.adam_step"),
    ("lapsegan.training", "save_checkpoint", "training.save_checkpoint"),
    ("lapsegan.training", "load_checkpoint", "training.load_checkpoint"),
    ("lapsegan.training", "generate_video", "training.generate_video"),
    ("lapsegan.data", "ingest", "data.ingest"),
    ("lapsegan.data", "export_clip", "data.export_clip"),
    ("lapsegan.metrics", "ssim", "metrics.ssim"),
    ("lapsegan.metrics", "mse", "metrics.mse"),
)
OPS = ("ops.conv3d", "ops.deconv3d", "ops.batchnorm3d", "ops.activation")
MODULES = ("ops", "tensor", "models", "losses", "training", "data", "metrics")


class Tracer:
    """In-memory spans of one traced pass."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.phase = ""

    @contextmanager
    def span(self, name):
        rec = {"id": len(self.spans), "name": name, "start": time.perf_counter(),
               "end": None, "parent": self._stack[-1] if self._stack else None,
               "phase": self.phase}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def wrap(self, fn, name):
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if name in OPS and out._backward is not None:
                out._backward = self._traced_backward(out._backward, name + ".bwd")
            elif name == "training.save_checkpoint":
                rec["bytes"] = os.path.getsize(out)
            return out
        return traced

    def _traced_backward(self, closure, name):
        def backward(g):
            with self.span(name):
                closure(g)
        return backward

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, name in SITES:
                module = importlib.import_module(module_name)
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.wrap(getattr(module, attr), name))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    # -- summaries ---------------------------------------------------------

    def self_seconds(self):
        """Per span name: total duration minus the part its children cover."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"] - child[s["id"]]
        return dict(out)

    def calls(self, name, focus):
        """Spans of one name, from the phases ``focus`` accepts when there
        are any there, else from every phase."""
        spans = [s for s in self.spans if s["name"] == name]
        chosen = [s for s in spans if focus(s["phase"])]
        return chosen or spans

    def median_ms(self, name, focus):
        spans = self.calls(name, focus)
        return 1e3 * statistics.median(s["end"] - s["start"] for s in spans) if spans else None

    def write(self, path):
        with open(path, "w") as fp:
            json.dump([{k: s[k] for k in ("name", "start", "end", "parent", "phase")}
                       for s in self.spans], fp)


def conv_flops(layer, batch, in_spatial):
    """Multiply-adds times two of one conv or deconv layer."""
    k = int(np.prod(layer.params.kernel))
    positions = int(np.prod(in_spatial if layer.params.transposed else layer.out_shape[1:]))
    return 2.0 * batch * layer.in_channels * layer.out_channels * k * positions


def layer_pass(specs, batch, bn_mode, rng, repeats):
    """Forward and backward of every op on the layer shapes of ``specs``.

    Returns per-op milliseconds per pass over all the layers (median of
    ``repeats`` passes) and the conv/deconv forward GFLOP/s.
    """
    totals = []
    flops = defaultdict(float)
    for rep in range(repeats):
        tracer = Tracer()
        op_fns = {name: tracer.wrap(getattr(ops, name.split(".")[1]), name) for name in OPS}
        for spec in specs:
            in_spatial = spec.input_shape[1:]
            for layer in spec.layers:
                kind = "ops.deconv3d" if layer.params.transposed else "ops.conv3d"
                x = _leaf(rng, (batch, layer.in_channels) + tuple(in_spatial))
                k = tuple(layer.params.kernel)
                wshape = ((layer.in_channels, layer.out_channels) if layer.params.transposed
                          else (layer.out_channels, layer.in_channels)) + k
                w = _leaf(rng, wshape, 0.02)
                b = _leaf(rng, (layer.out_channels,), 0.02)
                out = op_fns[kind](x, w, b, layer.params)
                tensor.backward(out.sum())
                if rep == 0:
                    flops[kind] += conv_flops(layer, batch, in_spatial)
                if layer.batch_norm:
                    c = layer.out_channels
                    state = ops.BatchNormState(
                        gamma=_leaf(rng, (c,), 0.02, 1.0), beta=_leaf(rng, (c,), 0.02),
                        running_mean=np.zeros(c, np.float32),
                        running_var=np.ones(c, np.float32))
                    y = op_fns["ops.batchnorm3d"](_as_leaf(out), state, bn_mode,
                                                  update_running=False)
                    tensor.backward(y.sum())
                    out = y
                if layer.activation is not None:
                    y = op_fns["ops.activation"](layer.activation, _as_leaf(out))
                    tensor.backward(y.sum())
                in_spatial = layer.out_shape[1:]
        per_op = defaultdict(float)
        for s in tracer.spans:
            per_op[s["name"]] += 1e3 * (s["end"] - s["start"])
        totals.append(per_op)
    ms = {name: statistics.median(t[name] for t in totals)
          for name in totals[0]}
    gflops = {kind: flops[kind] / (1e6 * ms[kind]) for kind in flops}
    return ms, gflops


def _leaf(rng, shape, std=1.0, mean=0.0):
    return Tensor((mean + std * rng.standard_normal(shape)).astype(np.float32),
                  requires_grad=True)


def _as_leaf(t):
    return Tensor(t.values, requires_grad=True)


def tape_megabytes(spec, params, batch, rng):
    """Memory tracemalloc still counts as allocated when a taped generator
    forward returns, on top of its input."""
    x = Tensor(rng.uniform(-1, 1, (batch,) + spec.input_shape).astype(np.float32))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = models.forward_generator(spec, params, x)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    del out
    return held / 1e6
