"""Differentiable 3D network kernels: convolution, transposed convolution,
batch normalization, activations, and parameter initialization.

Convolutions are cross-correlations (no kernel flip) computed as im2col +
GEMM; volumes are (N, C, T, H, W). Private primitives do all of it:
``_phase_grid`` pads a volume, ``_im2col`` gathers a block of its kernel
windows into columns and ``_col2im`` scatter-adds a block of columns back
and crops. ``_correlate`` multiplies a weight matrix with the columns,
``_correlate_adjoint`` is its data adjoint (the transposed GEMM, then
``_col2im``) and ``_weight_gradient`` forms dW. A transposed convolution is
exactly the data adjoint of a convolution (Dumoulin & Visin,
arXiv:1603.07285), so ``deconv3d`` is ``conv3d`` with the roles swapped:
conv3d runs ``_correlate`` forward and ``_correlate_adjoint`` for dX,
deconv3d runs ``_correlate_adjoint`` forward and ``_correlate`` over the
windows of the upstream gradient for dX. Both take dW from
``_weight_gradient``.

No convolution builds a whole (C*K, L) column buffer, and the tape keeps
none: im2col is a pure copy, so conv3d's backward gathers the columns again
from the input it already links to (recompute, Chen et al.,
arXiv:1604.06174). Columns come in blocks of at most ``_BLOCK`` elements,
and each GEMM is split along an output axis only, never along its reduction
axis, so every output element is the dot product the whole GEMM forms:
``_correlate`` over blocks of output frames (GEMM columns),
``_weight_gradient`` over blocks of the gathered channels (columns of dW),
``_correlate_adjoint`` over blocks of output channels (GEMM rows), each
scattered as soon as it is computed. Channels share no voxel, so every voxel
still receives its taps in (kt, kh, kw) order. This keeps the bits only
while BLAS computes a block as it computes the same rows or columns of the
whole product; OpenBLAS runs small products on other kernels, so blocks are
balanced, the fewest that fit the bound with lengths that differ by at most
one index, and never a small remainder. A product of one weight row (a
single filter's forward or dW) is a matrix-vector product, whose bits
OpenBLAS's gemv changes with the number of outputs one call covers, so it
stays one block.

Each (sample, block) pair is one job, and ``_run`` runs the jobs of an op on
a pool with one thread per CPU (one job, or one CPU, runs inline). A job's
GEMM is the call the batched matmul makes for that sample, and each job
writes only its own slice of an array the calling thread made, so the bits
do not depend on the number of threads or on which job finishes first.
``_weight_gradient``'s calling thread adds the samples' products in sample
order. The calling thread also makes every buffer a job uses, one set per
worker, reused job after job: at most one column block per worker is in
flight. Workers never make a ``Tensor`` or touch the tape, so the
module-global state of ``tensor.no_grad`` stays correct.

The rearrangement works on a stride-phase grid (space-to-depth, Shi et al.,
arXiv:1609.07009): the zero-padded volume is stored as
(N, C, st, sh, sw, Tq, Hq, Wq), phase (i, j, l) holding every padded voxel
whose index is (i, j, l) modulo the stride. Kernel tap (a, b, d) then reads or
scatter-adds one unit-stride block of phase (a%st, b%sh, d%sw) at offset
(a//st, b//sh, d//sw), instead of striding over the padded volume on every
axis. The taps that share an offset read phases 0, 1, ... at the same place,
so one basic-slice copy or add covers them all: ceil(k/s)^3 numpy calls per
gather or scatter instead of k^3. Offsets are visited in (kt, kh, kw) order,
so each voxel of a scatter still receives its additions in tap order.
"""
from __future__ import annotations

import os
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ContractError, DimensionError
from .tensor import Tensor, _accumulate

LEAKY_SLOPE = 0.2  # DCGAN convention; applied to every leaky_relu
BN_EPS = 1e-5
BN_MOMENTUM = 0.1  # weight of the new batch statistic
# Elements per column block: 24 MB of float32, under glibc's 32 MB dynamic
# mmap ceiling, so freed blocks come back as warm memory. No desk-scale layer
# (64x64, width 1/8, batch <= 2, at most 4.7M elements) splits: smaller blocks
# there lowered glibc's trim threshold below a generate's heap churn, which
# then faulted in fresh pages on every call.
_BLOCK = 6 << 20
# Pool threads: one per CPU this process may run on.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else os.cpu_count() or 1
_pool = None


@dataclass(frozen=True)
class ConvParams:
    """Geometry of one conv/deconv layer: counts, kernel, stride, padding."""

    num_filters: int
    kernel: tuple
    stride: tuple = (1, 1, 1)
    padding: tuple = (0, 0, 0)
    transposed: bool = False

    def __post_init__(self):
        if self.num_filters < 1:
            raise DimensionError("num_filters must be >= 1")
        for name in ("kernel", "stride", "padding"):
            v = getattr(self, name)
            if len(v) != 3:
                raise DimensionError(f"{name} must have 3 extents, got {v}")
        if any(k < 1 for k in self.kernel) or any(s < 1 for s in self.stride):
            raise DimensionError("kernel and stride extents must be >= 1")
        if any(p < 0 for p in self.padding):
            raise DimensionError("padding must be >= 0")


def conv_output_extent(n, k, s, p):
    out = (n + 2 * p - k) // s + 1
    if n + 2 * p < k or out < 1:
        raise DimensionError(
            f"conv output extent not positive: in={n} kernel={k} stride={s} pad={p}")
    return out


def deconv_output_extent(n, k, s, p):
    out = (n - 1) * s - 2 * p + k
    if out < 1:
        raise DimensionError(
            f"deconv output extent not positive: in={n} kernel={k} stride={s} pad={p}")
    return out


def conv_output_shape(spatial, params):
    return tuple(conv_output_extent(n, k, s, p) for n, k, s, p in
                 zip(spatial, params.kernel, params.stride, params.padding))


def deconv_output_shape(spatial, params):
    return tuple(deconv_output_extent(n, k, s, p) for n, k, s, p in
                 zip(spatial, params.kernel, params.stride, params.padding))


def _phase_layout(spatial, params):
    """The stride-phase layout of a (N,C,*spatial) volume zero-padded by
    ``params.padding``: the per-axis extent of one phase, and one
    (grid index, volume index) pair per phase that places the volume in it."""
    stride, padding = params.stride, params.padding
    extents = tuple(-(-(n + 2 * p) // s) for n, s, p in zip(spatial, stride, padding))
    axes = []
    for n, s, p in zip(spatial, stride, padding):
        axis = []
        for i in range(s):
            first = (i - p) % s  # first voxel whose padded index is i mod s
            q = (first + p) // s
            axis.append((i, slice(q, q + len(range(first, n, s))), slice(first, n, s)))
        axes.append(axis)
    slices = [((slice(None), slice(None), i, j, l, qt, qh, qw), (Ellipsis, vt, vh, vw))
              for (i, qt, vt), (j, qh, vh), (l, qw, vw) in product(*axes)]
    return extents, slices


def _offsets(params, origins):
    """One (column index, grid index) pair per kernel offset q = tap // stride,
    in (kt, kh, kw) order, over the window origins ``origins`` (one range per
    axis). Per axis, offset q covers the kernel's taps q*s, q*s+1, ... up to
    q*s+s-1, and tap q*s+i reads phase i at offset q, so one basic slice of
    the grid, phases 0, 1, ..., holds the windows of them all."""
    axes = []
    for k, s, r in zip(params.kernel, params.stride, origins):
        axes.append([(slice(q * s, min(k, q * s + s)), slice(0, min(s, k - q * s)),
                      slice(q + r.start, q + r.stop)) for q in range(-(-k // s))])
    for (ta, pa, oa), (tb, pb, ob), (td, pd, od) in product(*axes):
        yield (Ellipsis, ta, tb, td, slice(None), slice(None), slice(None)), \
            (slice(None), slice(None), pa, pb, pd, oa, ob, od)


def _blocks(extent, unit, split=True):
    """Split ``range(extent)`` into the fewest blocks of at most ``_BLOCK``
    elements, ``unit`` elements per index and one index at least, as slices
    whose lengths differ by at most one: no block is a small remainder.
    ``split=False`` keeps one block."""
    count = -(-extent // max(1, _BLOCK // unit)) if split else 1
    return [slice(extent * i // count, extent * (i + 1) // count) for i in range(count)]


def _executor():
    """The pool of ``_WORKERS`` threads, made on first use."""
    global _pool
    if _pool is None:
        _pool = ThreadPoolExecutor(_WORKERS, thread_name_prefix="lapsegan-ops")
    return _pool


def _forget_pool():
    global _pool
    _pool = None  # a forked child has none of its parent's threads


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _inline(fn, *args):
    """``Executor.submit`` that runs ``fn`` in the calling thread."""
    future = Future()
    future.set_result(fn(*args))
    return future


def _run(job, tasks, buffers, done=None):
    """Call ``job(scratch, *task)`` for every task of the list ``tasks`` and
    then, in the calling thread and in task order, ``done(scratch, *task)``.
    ``scratch`` holds one flat array per (elements, dtype) of ``buffers``
    for each job that may be in flight, no two running jobs sharing one. The
    calling thread makes them all: as slices of one array where that fits
    in ``_BLOCK`` elements, so that it is one warm heap chunk, as the batched
    block it replaces was, and one array each where it does not. One task,
    or one worker, runs inline; otherwise the jobs run on the pool, at most
    one per worker at a time. Every job's result is read, so an exception in
    a job raises here, once no job of the call is running."""
    slots = 1 if len(tasks) == 1 or _WORKERS == 1 else min(_WORKERS, len(tasks))
    free = [[] for _ in range(slots)]
    for size, dtype in buffers:
        whole = np.empty(slots * size, dtype) if slots * size <= _BLOCK else None
        for i, scratch in enumerate(free):
            scratch.append(np.empty(size, dtype) if whole is None else
                           whole[i * size:(i + 1) * size])
    submit = _executor().submit if slots > 1 else _inline
    running = deque()

    def finish():
        scratch, task, future = running.popleft()
        future.result()
        if done is not None:
            done(scratch, *task)
        free.append(scratch)

    try:
        for task in tasks:
            if not free:
                finish()
            scratch = free.pop()
            running.append((scratch, task, submit(job, scratch, *task)))
        while running:
            finish()
    finally:
        wait([future for _, _, future in running])


def _phase_grid(v, params):
    """Zero-pad a (N,C,*spatial) volume into its phase grid."""
    extents, slices = _phase_layout(v.shape[2:], params)
    grid = np.zeros(v.shape[:2] + tuple(params.stride) + extents, dtype=v.dtype)
    for gi, vi in slices:
        grid[gi] = v[vi]
    return grid


def _im2col(grid, params, origins, out):
    """Gather the kernel windows at ``origins`` (one range per axis) of a
    phase grid into one column block (N, C*kt*kh*kw, #origins), window-major
    in (C, kt, kh, kw) order, held at the front of the flat buffer ``out``:
    one copy per kernel offset."""
    n, c = grid.shape[:2]
    shape = (n, c) + tuple(params.kernel) + tuple(len(r) for r in origins)
    cols = out[:int(np.prod(shape))].reshape(shape)
    for taps, blocks in _offsets(params, origins):
        cols[taps] = grid[blocks]
    return cols.reshape(n, c * int(np.prod(params.kernel)), -1)


def _correlate(w_mat, grid, params, windows):
    """Correlate the (C_out, C_in*K) weight with every window of a phase
    grid, ``windows`` origins per axis: (N, C_out, L), one job per sample and
    block of output frames."""
    n = grid.shape[0]
    to, ho, wo = windows
    out = np.empty((n, w_mat.shape[0], to * ho * wo), np.result_type(w_mat, grid))
    frames = _blocks(to, n * w_mat.shape[1] * ho * wo, split=len(w_mat) > 1)
    widest = max(f.stop - f.start for f in frames)

    def job(scratch, i, f):
        cols = _im2col(grid[i:i + 1], params, (range(to)[f], range(ho), range(wo)),
                       scratch[0])
        np.matmul(w_mat, cols[0], out=out[i, :, f.start * ho * wo:f.stop * ho * wo])

    _run(job, [(i, f) for i in range(n) for f in frames],
         [(w_mat.shape[1] * widest * ho * wo, grid.dtype)])
    return out


def _col2im(cols, params, windows, out, grid):
    """The adjoint of ``_im2col``: scatter-add a column block (N, C*K, L) of
    ``windows`` origins per axis, one kernel offset at a time, into a phase
    grid zeroed at the front of the flat buffer ``grid``, then crop the grid
    into the (N, C, *spatial) volume ``out``."""
    extents, slices = _phase_layout(out.shape[2:], params)
    cols = cols.reshape(out.shape[:2] + tuple(params.kernel) + tuple(windows))
    shape = out.shape[:2] + tuple(params.stride) + extents
    grid = grid[:int(np.prod(shape))].reshape(shape)
    grid[...] = 0
    for taps, blocks in _offsets(params, tuple(range(e) for e in windows)):
        grid[blocks] += cols[taps]
    for gi, vi in slices:
        out[vi] = grid[gi]


def _correlate_adjoint(w_mat, g_mat, channels, params, windows, spatial):
    """The data adjoint of ``_correlate``: the transposed GEMM onto
    ``windows`` origins and its ``_col2im`` into a (N, channels, *spatial)
    volume, one job per sample and block of ``channels`` (rows of the
    GEMM)."""
    n, _, positions = g_mat.shape
    k = int(np.prod(params.kernel))
    v = np.empty((n, channels) + tuple(spatial), dtype=g_mat.dtype)
    blocks = _blocks(channels, n * k * positions)
    widest = max(ch.stop - ch.start for ch in blocks)
    extents, _ = _phase_layout(spatial, params)
    phases = int(np.prod(params.stride)) * int(np.prod(extents))

    def job(scratch, i, ch):
        cols, grid = scratch
        cols = cols[:(ch.stop - ch.start) * k * positions].reshape(-1, positions)
        np.matmul(w_mat[:, ch.start * k:ch.stop * k].T, g_mat[i], out=cols)
        _col2im(cols[None], params, windows, v[i:i + 1, ch], grid)

    _run(job, [(i, ch) for i in range(n) for ch in blocks],
         [(widest * k * positions, np.result_type(w_mat, g_mat)),
          (widest * phases, v.dtype)])
    return v


def _weight_gradient(weight, lhs, grid, params, windows):
    """Accumulate the sum over the batch of ``lhs[n] @ cols[n].T`` into the
    weight's gradient, ``cols`` the windows of a phase grid, one job per block
    of the grid's channels (columns of dW) and sample. The first sample's
    product lands in dW; the calling thread adds each later one in sample
    order. A batched sum starts from 0 + p0, which differs from p0 only in
    the sign of a zero, and ``_accumulate``'s 0 + g clears that. With one
    output position a product is an outer product."""
    n, c = grid.shape[:2]
    k = int(np.prod(params.kernel))
    rows, positions = lhs.shape[1:]
    origins = tuple(range(e) for e in windows)
    dw = np.empty((rows, c * k), np.result_type(lhs, grid))
    blocks = _blocks(c, n * k * positions, split=rows > 1)
    widest = max(ch.stop - ch.start for ch in blocks) * k

    def job(scratch, ch, i):
        cols, part = scratch
        cols = _im2col(grid[i:i + 1, ch], params, origins, cols)[0]
        out = dw[:, ch.start * k:ch.stop * k] if i == 0 else \
            part[:rows * cols.shape[0]].reshape(rows, -1)
        if positions == 1:
            np.multiply(lhs[i], cols.T, out=out)
        else:
            np.matmul(lhs[i], cols.T, out=out)

    def done(scratch, ch, i):
        if i > 0:
            dw[:, ch.start * k:ch.stop * k] += \
                scratch[1][:rows * (ch.stop - ch.start) * k].reshape(rows, -1)

    _run(job, [(ch, i) for ch in blocks for i in range(n)],
         [(widest * positions, grid.dtype), (rows * widest if n > 1 else 0, dw.dtype)],
         done)
    _accumulate(weight, dw.reshape(weight.values.shape))


def _check_volume(x, what):
    if x.ndim != 5:
        raise DimensionError(f"{what} must be rank-5 (N,C,T,H,W), got {x.shape}")


def _check_conv(x, weight, bias, params, transposed):
    """Check the operands of conv3d, or of deconv3d when ``transposed``;
    return (C_in, C_out)."""
    _check_volume(x, ("deconv3d" if transposed else "conv3d") + " input")
    c_in, c_out = weight.shape[:2] if transposed else weight.shape[1::-1]
    if weight.shape[2:] != tuple(params.kernel) or c_out != params.num_filters:
        raise DimensionError(f"weight shape {weight.shape} does not match {params}")
    if x.shape[1] != c_in:
        raise DimensionError(f"channel mismatch: input {x.shape[1]} vs weight {c_in}")
    if bias.shape != (c_out,):
        raise DimensionError(f"bias shape {bias.shape} != ({c_out},)")
    return c_in, c_out


def conv3d(x, weight, bias, params):
    """3D cross-correlation with zero padding plus per-filter bias.

    x: (N, C_in, T, H, W); weight: (C_out, C_in, kt, kh, kw); bias: (C_out,).
    Differentiable w.r.t. all three tensor arguments.
    """
    c_in, c_out = _check_conv(x, weight, bias, params, transposed=False)
    n = x.shape[0]
    in_spatial = x.shape[2:]
    out_spatial = conv_output_shape(in_spatial, params)
    w_mat = weight.values.reshape(c_out, -1)
    out = _correlate(w_mat, _phase_grid(x.values, params), params, out_spatial)
    out += bias.values[None, :, None]
    out = out.reshape((n, c_out) + out_spatial)

    def backward(g):
        g_mat = g.reshape(n, c_out, -1)
        if bias.requires_grad:
            _accumulate(bias, g_mat.sum(axis=(0, 2)))
        if weight.requires_grad:
            _weight_gradient(weight, g_mat, _phase_grid(x.values, params), params,
                             out_spatial)
        if x.requires_grad:
            _accumulate(x, _correlate_adjoint(w_mat, g_mat, c_in, params, out_spatial,
                                              in_spatial))

    return Tensor._from_op(out, (x, weight, bias), backward, "conv3d")


def deconv3d(x, weight, bias, params):
    """3D transposed convolution: the adjoint of ``conv3d`` in its input,
    with independently learned weights.

    x: (N, C_in, T, H, W); weight: (C_in, C_out, kt, kh, kw); bias: (C_out,).
    Output spatial extent per axis: (in - 1)*stride - 2*pad + kernel.
    """
    c_in, c_out = _check_conv(x, weight, bias, params, transposed=True)
    n = x.shape[0]
    in_spatial = x.shape[2:]
    out_spatial = deconv_output_shape(in_spatial, params)
    x_mat = x.values.reshape(n, c_in, -1)
    w_mat = weight.values.reshape(c_in, -1)  # (C_in, C_out*K)
    out = _correlate_adjoint(w_mat, x_mat, c_out, params, in_spatial, out_spatial)
    out += bias.values[None, :, None, None, None]

    def backward(g):
        grid = _phase_grid(g, params)
        if bias.requires_grad:
            _accumulate(bias, g.sum(axis=(0, 2, 3, 4)))
        if weight.requires_grad:
            _weight_gradient(weight, x_mat, grid, params, in_spatial)
        if x.requires_grad:
            _accumulate(x, _correlate(w_mat, grid, params, in_spatial).reshape(x.values.shape))

    return Tensor._from_op(out, (x, weight, bias), backward, "deconv3d")


@dataclass
class BatchNormState:
    """Learnable scale/shift plus (generators only) running statistics."""

    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray | None = None
    running_var: np.ndarray | None = None

    def __post_init__(self):
        c = self.gamma.shape[0]
        stats = (self.beta, self.running_mean, self.running_var)
        if [getattr(a, "shape", None) for a in stats] not in ([(c,)] * 3, [(c,), None, None]):
            raise DimensionError("batch-norm state extents must all equal channel count, "
                                 "with both running statistics or neither")


def batchnorm3d(x, state, mode, update_running=True):
    """Per-channel batch normalization over the (N,T,H,W) axes.

    train mode normalizes with batch statistics (differentiable through
    them) and, if ``update_running``, folds them into the running averages
    with weight ``BN_MOMENTUM``; inference mode uses the stored running
    statistics. Either adds ``BN_EPS`` to the variance.
    """
    _check_volume(x, "batchnorm3d input")
    if mode not in ("train", "inference"):
        raise ContractError(f"unknown batchnorm mode {mode!r}")
    if state.running_mean is None and (mode == "inference" or update_running):
        raise ContractError("batch-norm state has no running statistics")
    c = x.shape[1]
    if state.gamma.shape[0] != c:
        raise DimensionError(f"channel mismatch: input {c} vs state {state.gamma.shape[0]}")
    axes = (0, 2, 3, 4)
    m = x.size // c
    gamma, beta = state.gamma, state.beta
    gview = gamma.values[None, :, None, None, None]

    if mode == "train":
        if m < 2:
            raise ContractError("train-mode batch norm needs >= 2 values per channel")
        mu = x.values.mean(axis=axes)
        centered = x.values - mu[None, :, None, None, None]
        var = np.mean(centered * centered, axis=axes)
        inv_std = 1.0 / np.sqrt(var + x.values.dtype.type(BN_EPS))
        xhat = centered * inv_std[None, :, None, None, None]
        if update_running:
            w = BN_MOMENTUM
            state.running_mean *= 1.0 - w
            state.running_mean += w * mu.astype(state.running_mean.dtype)
            state.running_var *= 1.0 - w
            state.running_var += w * var.astype(state.running_var.dtype)

        def input_gradient(g):
            dxhat = g * gview
            mean_d = dxhat.mean(axis=axes)[None, :, None, None, None]
            mean_dx = (dxhat * xhat).mean(axis=axes)[None, :, None, None, None]
            return (dxhat - mean_d - xhat * mean_dx) * inv_std[None, :, None, None, None]
    else:
        inv_std = 1.0 / np.sqrt(state.running_var + BN_EPS)
        xhat = ((x.values - state.running_mean[None, :, None, None, None])
                * inv_std[None, :, None, None, None]).astype(x.values.dtype)

        def input_gradient(g):
            scale = (gamma.values * inv_std).astype(x.values.dtype)
            return g * scale[None, :, None, None, None]

    def backward(g):
        if beta.requires_grad:
            _accumulate(beta, g.sum(axis=axes))
        if gamma.requires_grad:
            _accumulate(gamma, (g * xhat).sum(axis=axes))
        if x.requires_grad:
            _accumulate(x, input_gradient(g))

    out = xhat * gview + beta.values[None, :, None, None, None]
    return Tensor._from_op(out, (x, gamma, beta), backward, "batchnorm3d")


def activation(kind, x):
    """Elementwise nonlinearity. sigmoid stays strictly inside (0,1) and
    tanh strictly inside (-1,1) even where float rounding would saturate."""
    v = x.values
    dt = v.dtype
    if kind == "leaky_relu":
        # with 0 < slope < 1, max(v, slope*v) is v where v >= 0 and slope*v
        # elsewhere, NaN included, and max(mask, slope) is the per-element slope
        slope = dt.type(LEAKY_SLOPE)
        mask = v >= 0
        out = np.maximum(v, slope * v)

        def backward(g):
            _accumulate(x, g * np.maximum(mask, slope))
    elif kind == "relu":
        out = np.maximum(v, dt.type(0))
        mask = v > 0

        def backward(g):
            _accumulate(x, g * mask)
    elif kind == "tanh":
        out = np.clip(np.tanh(v), np.nextafter(dt.type(-1), dt.type(0)),
                      np.nextafter(dt.type(1), dt.type(0)))

        def backward(g):
            _accumulate(x, g * (1.0 - out * out))
    elif kind == "sigmoid":
        out = np.empty_like(v)
        pos = v >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
        ev = np.exp(v[~pos])
        out[~pos] = ev / (1.0 + ev)
        np.clip(out, np.nextafter(dt.type(0), dt.type(1)),
                np.nextafter(dt.type(1), dt.type(0)), out=out)

        def backward(g):
            _accumulate(x, g * out * (1.0 - out))
    else:
        raise ContractError(f"unknown activation kind {kind!r}")
    return Tensor._from_op(out, (x,), backward, kind)


class ParameterSet:
    """Named learnable tensors plus non-learnable running-stat buffers."""

    def __init__(self):
        self.tensors = {}   # name -> Tensor (requires_grad)
        self.buffers = {}   # name -> np.ndarray

    def zero_grad(self):
        for t in self.tensors.values():
            t.grad = None

    def clone(self):
        out = ParameterSet()
        for k, t in self.tensors.items():
            out.tensors[k] = Tensor(t.values.copy(), requires_grad=True)
        for k, b in self.buffers.items():
            out.buffers[k] = b.copy()
        return out


INIT_WEIGHT_STD = 0.02
INIT_GAMMA_STD = 0.02


def init_parameters(spec, seed, dtype=np.float32):
    """Draw a fresh parameter set for a network spec, deterministic per seed.

    Conv/deconv weights ~ N(0, 0.02^2), biases 0; batch-norm gamma
    ~ N(1, 0.02^2), beta 0, and in generators only running stats (0, 1).
    """
    rng = np.random.default_rng(seed)
    params = ParameterSet()
    for layer in spec.layers:
        k = layer.params.kernel
        if layer.params.transposed:
            wshape = (layer.in_channels, layer.out_channels) + tuple(k)
        else:
            wshape = (layer.out_channels, layer.in_channels) + tuple(k)
        w = rng.normal(0.0, INIT_WEIGHT_STD, size=wshape)
        params.tensors[f"{layer.name}.weight"] = Tensor(
            w.astype(dtype), requires_grad=True)
        params.tensors[f"{layer.name}.bias"] = Tensor(
            np.zeros(layer.out_channels, dtype=dtype), requires_grad=True)
        if layer.batch_norm:
            g = rng.normal(1.0, INIT_GAMMA_STD, size=layer.out_channels)
            params.tensors[f"{layer.name}.gamma"] = Tensor(
                g.astype(dtype), requires_grad=True)
            params.tensors[f"{layer.name}.beta"] = Tensor(
                np.zeros(layer.out_channels, dtype=dtype), requires_grad=True)
            if spec.kind == "generator":
                params.buffers[f"{layer.name}.running_mean"] = np.zeros(
                    layer.out_channels, dtype=dtype)
                params.buffers[f"{layer.name}.running_var"] = np.ones(
                    layer.out_channels, dtype=dtype)
    return params
