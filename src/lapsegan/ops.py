"""Differentiable 3D network kernels: convolution, transposed convolution,
batch normalization, activations, and parameter initialization.

Convolutions are cross-correlations (no kernel flip) computed as im2col +
GEMM; the transposed convolution is the exact adjoint of the forward
convolution with respect to its input, so the pair shares the col/im
rearrangement helpers. Volumes are (N, C, T, H, W).
"""
from __future__ import annotations

from dataclasses import dataclass

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


def _im2col(xp, kernel, stride, out_spatial):
    """Gather kernel windows of a padded (N,C,Tp,Hp,Wp) volume into
    (N, C*kt*kh*kw, To*Ho*Wo), window-major in (C, kt, kh, kw) order."""
    n, c = xp.shape[:2]
    kt, kh, kw = kernel
    st, sh, sw = stride
    to, ho, wo = out_spatial
    cols = np.empty((n, c, kt, kh, kw, to, ho, wo), dtype=xp.dtype)
    for a in range(kt):
        for b in range(kh):
            for d in range(kw):
                cols[:, :, a, b, d] = xp[:, :, a:a + st * to:st,
                                         b:b + sh * ho:sh, d:d + sw * wo:sw]
    return cols.reshape(n, c * kt * kh * kw, to * ho * wo)


def _col2im(cols, channels, kernel, stride, in_spatial, padded_spatial, dtype):
    """Scatter-add the inverse of ``_im2col`` back into a padded volume."""
    n = cols.shape[0]
    kt, kh, kw = kernel
    st, sh, sw = stride
    to, ho, wo = in_spatial
    cols = cols.reshape(n, channels, kt, kh, kw, to, ho, wo)
    out = np.zeros((n, channels) + tuple(padded_spatial), dtype=dtype)
    for a in range(kt):
        for b in range(kh):
            for d in range(kw):
                out[:, :, a:a + st * to:st, b:b + sh * ho:sh,
                    d:d + sw * wo:sw] += cols[:, :, a, b, d]
    return out


def _check_volume(x, what):
    if x.ndim != 5:
        raise DimensionError(f"{what} must be rank-5 (N,C,T,H,W), got {x.shape}")


def conv3d(x, weight, bias, params):
    """3D cross-correlation with zero padding plus per-filter bias.

    x: (N, C_in, T, H, W); weight: (C_out, C_in, kt, kh, kw); bias: (C_out,).
    Differentiable w.r.t. all three tensor arguments.
    """
    _check_volume(x, "conv3d input")
    c_out, c_in = weight.shape[:2]
    if weight.shape[2:] != tuple(params.kernel) or c_out != params.num_filters:
        raise DimensionError(f"weight shape {weight.shape} does not match {params}")
    if x.shape[1] != c_in:
        raise DimensionError(f"channel mismatch: input {x.shape[1]} vs weight {c_in}")
    if bias.shape != (c_out,):
        raise DimensionError(f"bias shape {bias.shape} != ({c_out},)")

    n = x.shape[0]
    out_spatial = conv_output_shape(x.shape[2:], params)
    pt, ph, pw = params.padding
    xp = np.pad(x.values, ((0, 0), (0, 0), (pt, pt), (ph, ph), (pw, pw)))
    cols = _im2col(xp, params.kernel, params.stride, out_spatial)
    w_mat = weight.values.reshape(c_out, -1)
    out = w_mat[None] @ cols + bias.values[None, :, None]
    out = out.reshape((n, c_out) + out_spatial)

    def backward(g):
        g_mat = g.reshape(n, c_out, -1)
        if bias.requires_grad:
            _accumulate(bias, g_mat.sum(axis=(0, 2)))
        if weight.requires_grad:
            dw = (g_mat @ cols.transpose(0, 2, 1)).sum(axis=0)
            _accumulate(weight, dw.reshape(weight.values.shape))
        if x.requires_grad:
            dcols = w_mat.T[None] @ g_mat
            dxp = _col2im(dcols, c_in, params.kernel, params.stride,
                          out_spatial, xp.shape[2:], g.dtype)
            tp, hp, wp = xp.shape[2:]
            _accumulate(x, dxp[:, :, pt:tp - pt, ph:hp - ph,
                              pw:wp - pw])

    return Tensor._from_op(out, (x, weight, bias), backward, "conv3d")


def deconv3d(x, weight, bias, params):
    """3D transposed convolution: the adjoint of ``conv3d`` in its input,
    with independently learned weights.

    x: (N, C_in, T, H, W); weight: (C_in, C_out, kt, kh, kw); bias: (C_out,).
    Output spatial extent per axis: (in - 1)*stride - 2*pad + kernel.
    """
    _check_volume(x, "deconv3d input")
    c_in, c_out = weight.shape[:2]
    if weight.shape[2:] != tuple(params.kernel) or c_out != params.num_filters:
        raise DimensionError(f"weight shape {weight.shape} does not match {params}")
    if x.shape[1] != c_in:
        raise DimensionError(f"channel mismatch: input {x.shape[1]} vs weight {c_in}")
    if bias.shape != (c_out,):
        raise DimensionError(f"bias shape {bias.shape} != ({c_out},)")

    n = x.shape[0]
    in_spatial = x.shape[2:]
    out_spatial = deconv_output_shape(in_spatial, params)
    pt, ph, pw = params.padding
    padded_spatial = tuple((m - 1) * s + k for m, s, k in
                           zip(in_spatial, params.stride, params.kernel))

    x_mat = x.values.reshape(n, c_in, -1)
    w_mat = weight.values.reshape(c_in, -1)  # (C_in, C_out*K)
    cols = w_mat.T[None] @ x_mat  # (N, C_out*K, L_in)
    full = _col2im(cols, c_out, params.kernel, params.stride,
                   in_spatial, padded_spatial, x.values.dtype)
    tp, hp, wp = padded_spatial
    out = full[:, :, pt:tp - pt, ph:hp - ph, pw:wp - pw]
    out = out + bias.values[None, :, None, None, None]

    def backward(g):
        gp = np.pad(g, ((0, 0), (0, 0), (pt, pt), (ph, ph), (pw, pw)))
        gcols = _im2col(gp, params.kernel, params.stride, in_spatial)
        if bias.requires_grad:
            _accumulate(bias, g.sum(axis=(0, 2, 3, 4)))
        if weight.requires_grad:
            dw = (x_mat @ gcols.transpose(0, 2, 1)).sum(axis=0)
            _accumulate(weight, dw.reshape(weight.values.shape))
        if x.requires_grad:
            dx = w_mat[None] @ gcols
            _accumulate(x, dx.reshape(x.values.shape))

    return Tensor._from_op(np.ascontiguousarray(out), (x, weight, bias),
                           backward, "deconv3d")


@dataclass
class BatchNormState:
    """Learnable scale/shift plus running statistics for one channel axis."""

    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = BN_MOMENTUM
    eps: float = BN_EPS

    def __post_init__(self):
        c = self.gamma.shape[0]
        if not (self.beta.shape == (c,) and self.running_mean.shape == (c,)
                and self.running_var.shape == (c,)):
            raise DimensionError("batch-norm state extents must all equal channel count")
        if not 0.0 < self.momentum < 1.0:
            raise ContractError("momentum must lie in (0,1)")


def batchnorm3d(x, state, mode, update_running=True):
    """Per-channel batch normalization over the (N,T,H,W) axes.

    train mode normalizes with batch statistics (differentiable through
    them) and folds the batch stats into the running averages; inference
    mode uses the stored running statistics.
    """
    _check_volume(x, "batchnorm3d input")
    if mode not in ("train", "inference"):
        raise ContractError(f"unknown batchnorm mode {mode!r}")
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

        def backward(g):
            if beta.requires_grad:
                _accumulate(beta, g.sum(axis=axes))
            if gamma.requires_grad:
                _accumulate(gamma, (g * xhat).sum(axis=axes))
            if x.requires_grad:
                dxhat = g * gview
                mean_d = dxhat.mean(axis=axes)[None, :, None, None, None]
                mean_dx = (dxhat * xhat).mean(axis=axes)[None, :, None, None, None]
                dx = (dxhat - mean_d - xhat * mean_dx) * inv_std[None, :, None, None, None]
                _accumulate(x, dx)
    else:
        inv_std = 1.0 / np.sqrt(state.running_var + state.eps)
        xhat = ((x.values - state.running_mean[None, :, None, None, None])
                * inv_std[None, :, None, None, None]).astype(x.values.dtype)

        def backward(g):
            if beta.requires_grad:
                _accumulate(beta, g.sum(axis=axes))
            if gamma.requires_grad:
                _accumulate(gamma, (g * xhat).sum(axis=axes))
            if x.requires_grad:
                scale = (gamma.values * inv_std).astype(x.values.dtype)
                _accumulate(x, g * scale[None, :, None, None, None])

    out = xhat * gview + beta.values[None, :, None, None, None]
    return Tensor._from_op(out, (x, gamma, beta), backward, "batchnorm3d")


def activation(kind, x):
    """Elementwise nonlinearity. sigmoid stays strictly inside (0,1) and
    tanh strictly inside (-1,1) even where float rounding would saturate."""
    v = x.values
    dt = v.dtype
    if kind == "leaky_relu":
        out = np.where(v >= 0, v, dt.type(LEAKY_SLOPE) * v)
        slope = np.where(v >= 0, dt.type(1), dt.type(LEAKY_SLOPE))

        def backward(g):
            _accumulate(x, g * slope)
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
    ~ N(1, 0.02^2), beta 0, running stats (0, 1).
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
            params.buffers[f"{layer.name}.running_mean"] = np.zeros(
                layer.out_channels, dtype=dtype)
            params.buffers[f"{layer.name}.running_var"] = np.ones(
                layer.out_channels, dtype=dtype)
    return params
