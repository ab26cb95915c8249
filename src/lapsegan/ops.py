"""Differentiable 3D network kernels: convolution, transposed convolution,
batch normalization, activations, and parameter initialization.

Convolutions are cross-correlations (no kernel flip) computed as im2col +
GEMM; volumes are (N, C, T, H, W). Three private primitives do all of it:
``_im2col`` pads a volume and gathers its kernel windows into columns,
``_correlate`` multiplies a weight matrix with those columns, and
``_correlate_adjoint`` is their data adjoint: the transposed GEMM, a
scatter-add of the columns back onto the padded volume, then a crop.
A transposed convolution is exactly the data adjoint of a convolution
(Dumoulin & Visin, arXiv:1603.07285), so ``deconv3d`` is ``conv3d`` with the
roles swapped: conv3d runs ``_correlate`` forward and ``_correlate_adjoint``
for dX, deconv3d runs ``_correlate_adjoint`` forward and ``_correlate`` over
the windows of the upstream gradient for dX. Both take dW from
``_weight_gradient``.

The rearrangement works on a stride-phase grid (space-to-depth, Shi et al.,
arXiv:1609.07009): the zero-padded volume is stored as
(N, C, st, sh, sw, Tq, Hq, Wq), phase (i, j, l) holding every padded voxel
whose index is (i, j, l) modulo the stride. Kernel tap (a, b, d) then reads or
scatter-adds one unit-stride block of phase (a%st, b%sh, d%sw) at offset
(a//st, b//sh, d//sw), instead of striding over the padded volume on every
axis. Taps are visited in (kt, kh, kw) order, so each voxel of a scatter
receives its additions in that fixed order.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ContractError, DimensionError
from .tensor import Tensor, _accumulate

LEAKY_SLOPE = 0.2  # DCGAN convention; applied to every leaky_relu
BN_EPS = 1e-5
BN_MOMENTUM = 0.1  # weight of the new batch statistic


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


def _tap(stride, kernel_offset, extents):
    """Phase-grid index of kernel tap (a,b,d) over ``extents`` window origins:
    one unit-stride block of phase (a%st, b%sh, d%sw)."""
    phase = tuple(k % s for k, s in zip(kernel_offset, stride))
    blocks = tuple(slice(k // s, k // s + e)
                   for k, s, e in zip(kernel_offset, stride, extents))
    return (slice(None), slice(None)) + phase + blocks


def _im2col(v, params, windows):
    """Pad a (N,C,*spatial) volume into its phase grid and gather its kernel
    windows, ``windows`` origins per axis, into (N, C*kt*kh*kw, To*Ho*Wo),
    window-major in (C, kt, kh, kw) order."""
    n, c = v.shape[:2]
    extents, slices = _phase_layout(v.shape[2:], params)
    grid = np.zeros((n, c) + tuple(params.stride) + extents, dtype=v.dtype)
    for gi, vi in slices:
        grid[gi] = v[vi]
    cols = np.empty((n, c) + tuple(params.kernel) + tuple(windows), dtype=v.dtype)
    for a, b, d in np.ndindex(*params.kernel):
        cols[:, :, a, b, d] = grid[_tap(params.stride, (a, b, d), windows)]
    return cols.reshape(n, c * int(np.prod(params.kernel)), -1)


def _correlate(w_mat, cols):
    """Correlate the (C_out, C_in*K) weight with every window: (N, C_out, L)."""
    return w_mat[None] @ cols


def _correlate_adjoint(w_mat, g_mat, channels, params, windows, spatial):
    """The data adjoint of ``_correlate`` over ``_im2col``: the transposed GEMM
    onto ``windows`` origins, scatter-added tap by tap into a zeroed phase
    grid, then cropped to the (N, channels, *spatial) volume."""
    n = g_mat.shape[0]
    kernel, stride = params.kernel, params.stride
    cols = w_mat.T[None] @ g_mat
    cols = cols.reshape((n, channels) + tuple(kernel) + tuple(windows))
    extents, slices = _phase_layout(spatial, params)
    grid = np.zeros((n, channels) + tuple(stride) + extents, dtype=g_mat.dtype)
    for a, b, d in np.ndindex(*kernel):
        grid[_tap(stride, (a, b, d), windows)] += cols[:, :, a, b, d]
    v = np.empty((n, channels) + tuple(spatial), dtype=grid.dtype)
    for gi, vi in slices:
        v[vi] = grid[gi]
    return v


def _weight_gradient(weight, lhs, cols):
    """Accumulate the sum over the batch of ``lhs[n] @ cols[n].T`` into the
    weight's gradient. For one sample, the sum would only compute 0 + g,
    which ``_accumulate`` does anyway, so the copy is skipped."""
    dw = lhs @ cols.transpose(0, 2, 1)
    dw = dw[0] if len(dw) == 1 else dw.sum(axis=0)
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
    cols = _im2col(x.values, params, out_spatial)
    w_mat = weight.values.reshape(c_out, -1)
    out = _correlate(w_mat, cols)
    out += bias.values[None, :, None]
    out = out.reshape((n, c_out) + out_spatial)
    if not weight.requires_grad:
        cols = None  # only dW reads it; a frozen weight's layer tapes none

    def backward(g):
        g_mat = g.reshape(n, c_out, -1)
        if bias.requires_grad:
            _accumulate(bias, g_mat.sum(axis=(0, 2)))
        if weight.requires_grad:
            if cols is None:
                raise ContractError("conv3d weight was frozen when the forward ran, "
                                    "so its cols were not kept; run the forward again")
            _weight_gradient(weight, g_mat, cols)
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
        gcols = _im2col(g, params, in_spatial)
        if bias.requires_grad:
            _accumulate(bias, g.sum(axis=(0, 2, 3, 4)))
        if weight.requires_grad:
            _weight_gradient(weight, x_mat, gcols)
        if x.requires_grad:
            _accumulate(x, _correlate(w_mat, gcols).reshape(x.values.shape))

    return Tensor._from_op(out, (x, weight, bias), backward, "deconv3d")


@dataclass
class BatchNormState:
    """Learnable scale/shift plus (generators only) running statistics."""

    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray | None = None
    running_var: np.ndarray | None = None
    momentum: float = BN_MOMENTUM
    eps: float = BN_EPS

    def __post_init__(self):
        c = self.gamma.shape[0]
        stats = (self.beta, self.running_mean, self.running_var)
        if [getattr(a, "shape", None) for a in stats] not in ([(c,)] * 3, [(c,), None, None]):
            raise DimensionError("batch-norm state extents must all equal channel count, "
                                 "with both running statistics or neither")
        if not 0.0 < self.momentum < 1.0:
            raise ContractError("momentum must lie in (0,1)")


def batchnorm3d(x, state, mode, update_running=True):
    """Per-channel batch normalization over the (N,T,H,W) axes.

    train mode normalizes with batch statistics (differentiable through
    them) and, if ``update_running``, folds them into the running averages;
    inference mode uses the stored running statistics.
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
        inv_std = 1.0 / np.sqrt(var + x.values.dtype.type(state.eps))
        xhat = centered * inv_std[None, :, None, None, None]
        if update_running:
            w = state.momentum
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
        inv_std = 1.0 / np.sqrt(state.running_var + state.eps)
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
