"""Network assembly: the two generators and two discriminators.

Generators are 12-layer (or 10-layer at 64 resolution) 3D U-nets whose
encoder activations are added element-wise into the decoder inputs; the
stage-2 generator drops the two outermost skip pairs so it cannot collapse
into an identity map. Discriminators reuse the encoder plus a single-node
sigmoid head and expose feature taps for the motion descriptor.

A generator's input is often one frame repeated (``duplicate_frame``). When
its frames all share frame 0's bits and no tape is recorded, the leading
encoder convs compute only their first, one interior and last output frame,
the only distinct ones, and repeat the interior frame back to full length;
every output bit stays that of the full computation.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import takewhile

import numpy as np

from .errors import ConfigError, DimensionError
from .ops import (BatchNormState, ConvParams, activation, batchnorm3d, conv3d,
                  conv_output_shape, deconv3d, deconv_output_shape)
from .tensor import Tensor, recording

CLIP_FRAMES = 32  # temporal extent of every video the networks see
RESOLUTIONS = (128, 64)  # frame sizes the networks are built for

# (name, filters, kernel, stride, padding) for the 128-resolution generator.
# deconv1's temporal kernel extent is 2 (not the nominal 4): the bottleneck
# time extent is 1 and the conv5 skip target is 2, so only k_t=2 keeps the
# encoder/decoder shapes symmetric.
_GENERATOR_TABLE = (
    ("conv1", 32, (3, 4, 4), (1, 2, 2), (1, 1, 1)),
    ("conv2", 64, (4, 4, 4), (2, 2, 2), (1, 1, 1)),
    ("conv3", 128, (4, 4, 4), (2, 2, 2), (1, 1, 1)),
    ("conv4", 256, (4, 4, 4), (2, 2, 2), (1, 1, 1)),
    ("conv5", 512, (4, 4, 4), (2, 2, 2), (1, 1, 1)),
    ("conv6", 512, (2, 4, 4), (1, 1, 1), (0, 0, 0)),
    ("deconv1", 512, (2, 4, 4), (1, 1, 1), (0, 0, 0)),
    ("deconv2", 256, (4, 4, 4), (2, 2, 2), (1, 1, 1)),
    ("deconv3", 128, (4, 4, 4), (2, 2, 2), (1, 1, 1)),
    ("deconv4", 64, (4, 4, 4), (2, 2, 2), (1, 1, 1)),
    ("deconv5", 32, (4, 4, 4), (2, 2, 2), (1, 1, 1)),
    ("deconv6", 3, (3, 4, 4), (1, 2, 2), (1, 1, 1)),
)

# encoder layer added into each decoder layer's input (full 128-res net)
_SKIPS_STAGE1 = {
    "deconv6": "conv1",
    "deconv5": "conv2",
    "deconv4": "conv3",
    "deconv3": "conv4",
    "deconv2": "conv5",
}
_STAGE2_REMOVED = (("conv1", "deconv6"), ("conv2", "deconv5"))


@dataclass(frozen=True)
class LayerSpec:
    name: str
    params: ConvParams
    in_channels: int
    batch_norm: bool
    activation: str | None
    out_shape: tuple  # (C, T, H, W) per sample

    @property
    def out_channels(self):
        return self.params.num_filters


@dataclass(frozen=True)
class NetworkSpec:
    kind: str                 # "generator" | "discriminator"
    stage: int | None
    resolution: int
    width_multiplier: float
    input_shape: tuple        # (C, T, H, W)
    layers: tuple
    skip_map: dict = field(default_factory=dict)   # decoder name -> encoder name
    taps: tuple = ()          # feature-tap layer names (discriminators)


def _scale_width(base, width_multiplier):
    return max(1, round(base * width_multiplier))


def _check_resolution(resolution):
    if resolution not in RESOLUTIONS:
        raise ConfigError(f"resolution must be {' or '.join(map(str, RESOLUTIONS))}, "
                          f"got {resolution}")


def _check_width(width_multiplier):
    if not 0.0 < width_multiplier <= 1.0:
        raise ConfigError(f"width_multiplier must lie in (0,1], got {width_multiplier}")


def _assemble(rows, skip_map, resolution, width_multiplier, kind, stage, taps=()):
    """Chain output shapes through the rows, apply width scaling, and verify
    every skip junction; raises DimensionError on any mismatch."""
    layers = []
    shapes = {}
    channels, spatial = 3, (CLIP_FRAMES, resolution, resolution)
    last_index = len(rows) - 1
    for i, (name, filters, kernel, stride, padding, bn, act) in enumerate(rows):
        transposed = name.startswith("deconv")
        # the output/score layer keeps its channel count; width scales the rest
        scaled = filters if i == last_index else _scale_width(filters, width_multiplier)
        params = ConvParams(scaled, kernel, stride, padding, transposed=transposed)
        if transposed:
            out_spatial = deconv_output_shape(spatial, params)
        else:
            out_spatial = conv_output_shape(spatial, params)
        if name in skip_map:
            source = shapes.get(skip_map[name])
            if source is None:
                raise DimensionError(
                    f"skip source {skip_map[name]!r} not built before {name!r}")
            if source != (channels,) + tuple(spatial):
                raise DimensionError(
                    f"skip junction mismatch at {name}: encoder {source} vs "
                    f"decoder input {(channels,) + tuple(spatial)}")
        layers.append(LayerSpec(name, params, channels, bn, act,
                                (scaled,) + tuple(out_spatial)))
        shapes[name] = (scaled,) + tuple(out_spatial)
        channels, spatial = scaled, out_spatial
    return NetworkSpec(kind=kind, stage=stage, resolution=resolution,
                       width_multiplier=width_multiplier,
                       input_shape=(3, CLIP_FRAMES, resolution, resolution),
                       layers=tuple(layers), skip_map=dict(skip_map), taps=tuple(taps))


def _generator_rows(resolution):
    """Table rows with normalization/activation flags for one resolution.

    Batch norm rides every layer except the first remaining conv, the 1x1x1
    bottleneck conv, and the output deconv; conv activations are leaky,
    deconv activations plain ReLU, and the output layer is tanh. First and
    output layer are picked by position: at 64 resolution, which drops
    conv1/deconv6, conv2 carries no batch norm and deconv5 is the output.
    """
    rows = []
    table = [r for r in _GENERATOR_TABLE
             if resolution == 128 or r[0] not in ("conv1", "deconv6")]
    first_name, out_name = table[0][0], table[-1][0]
    for name, filters, kernel, stride, padding in table:
        if name == out_name:
            rows.append((name, 3, kernel, stride, padding, False, "tanh"))
        elif name in (first_name, "conv6"):
            rows.append((name, filters, kernel, stride, padding, False, "leaky_relu"))
        elif name.startswith("conv"):
            rows.append((name, filters, kernel, stride, padding, True, "leaky_relu"))
        else:
            rows.append((name, filters, kernel, stride, padding, True, "relu"))
    return rows


def build_generator(stage, resolution, width_multiplier=1.0):
    """Declarative spec for the stage-1 or stage-2 generator."""
    if stage not in (1, 2):
        raise ConfigError(f"stage must be 1 or 2, got {stage}")
    _check_resolution(resolution)
    _check_width(width_multiplier)
    rows = _generator_rows(resolution)
    present = {r[0] for r in rows}
    skip_map = {d: e for d, e in _SKIPS_STAGE1.items()
                if d in present and e in present}
    if stage == 2:
        for enc, dec in _STAGE2_REMOVED:
            skip_map.pop(dec, None)
    return _assemble(rows, skip_map, resolution, width_multiplier,
                     "generator", stage)


def build_discriminator(resolution, width_multiplier=1.0):
    """Spec for a video discriminator: the generator encoder plus a
    single-filter sigmoid head; feature taps after the first and third
    convolutional layers feed the motion descriptor. The encoder rows are the
    generator's, so batch norm rides every conv except the first remaining
    one (conv2 at 64 resolution)."""
    _check_resolution(resolution)
    _check_width(width_multiplier)
    rows = list(takewhile(lambda r: r[0] != "conv6", _generator_rows(resolution)))
    # final single node over the (512,2,4,4) encoder output
    rows.append(("score", 1, (2, 4, 4), (1, 1, 1), (0, 0, 0), False, "sigmoid"))
    conv_names = [r[0] for r in rows[:-1]]
    taps = (conv_names[0], conv_names[2])
    return _assemble(rows, {}, resolution, width_multiplier,
                     "discriminator", None, taps=taps)


def duplicate_frame(x, t):
    """Tile one frame array (N,C,H,W) into a static video Tensor (N,C,t,H,W),
    off the tape: no caller takes a gradient through the input frame."""
    if t < 1:
        raise DimensionError(f"frame count must be >= 1, got {t}")
    if x.ndim != 4:
        raise DimensionError(f"expected (N,C,H,W) frame, got {x.shape}")
    return Tensor(np.repeat(x[:, :, None], t, axis=2))


def _bn_state(params, name):
    return BatchNormState(
        gamma=params.tensors[f"{name}.gamma"],
        beta=params.tensors[f"{name}.beta"],
        running_mean=params.buffers.get(f"{name}.running_mean"),
        running_var=params.buffers.get(f"{name}.running_var"))


def _apply_layer(layer, params, x, mode, update_running, frames=None):
    """Conv or deconv, then batch norm and activation. With ``frames`` (see
    ``_short_clip``) the conv reads only those input frames and its
    [first, interior, last] output is repeated back to full length."""
    w = params.tensors[f"{layer.name}.weight"]
    b = params.tensors[f"{layer.name}.bias"]
    op = deconv3d if layer.params.transposed else conv3d
    if frames is None:
        out = op(x, w, b, layer.params)
    else:
        out = op(Tensor(x.values[:, :, frames]), w, b, layer.params)
        # np.repeat returns a C-contiguous copy: train-mode batch statistics
        # then sum the same array, in the same order, as on the full path
        out = Tensor(np.repeat(out.values, (1, layer.out_shape[1] - 2, 1), axis=2))
    if layer.batch_norm:
        out = batchnorm3d(out, _bn_state(params, layer.name), mode,
                          update_running=update_running)
    if layer.activation is not None:
        out = activation(layer.activation, out)
    return out


def forward_generator(spec, params, x, mode="train", update_running=True):
    """Run a generator over a static or stage-1 video (N,3,T,H,W).

    Skip additions happen on the decoder inputs. Returns the tanh-bounded
    video tensor, the same shape as the input. Differentiable end to end.

    When no tape is recorded and every frame of ``x`` has the bits of frame
    0 (a duplicated first frame), each encoder activation has only three
    distinct frames: the first, one interior frame repeated, and the last.
    The leading encoder convs that keep this structure (``_short_clip``)
    then compute just those three output frames and repeat them to full
    length before batch norm, so every output bit, batch statistic and
    running average is what the full path gives. A taped forward always
    takes the full path, so its gradients are summed in the same order.
    """
    if tuple(x.shape[1:]) != tuple(spec.input_shape):
        raise DimensionError(
            f"input shape {x.shape[1:]} does not match spec {spec.input_shape}")
    short = (not recording([x, *params.tensors.values()])
             and _repeats_first_frame(x.values))
    cache = {}
    cur = x
    for layer in spec.layers:
        if layer.name in spec.skip_map:
            cur = cur + cache.pop(spec.skip_map[layer.name])
        frames = _short_clip(layer, cur.shape[2], cur is x) if short else None
        short = frames is not None
        cur = _apply_layer(layer, params, cur, mode, update_running, frames)
        if layer.name in spec.skip_map.values():  # kept until its decoder reads it
            cache[layer.name] = cur
    return cur


def _repeats_first_frame(v):
    """Whether every frame of a (N,C,T,H,W) array has the bits of frame 0;
    bits, not values, so -0.0 and 0.0 differ and NaN equals NaN."""
    bits = v.view(f"u{v.itemsize}")
    return bool(np.all(bits == bits[:, :, :1]))


def _short_clip(layer, t_in, constant):
    """Input frames from which a conv computes its first, interior and last
    output frames, when its input is [first, interior..., last] over
    ``t_in`` frames (all equal if ``constant``); None if the conv does not
    keep that structure. Kernel 3, stride 1, pad 1 keeps it only on a
    constant input; kernel 4, stride 2, pad 1 reads [0,f,i,i] for its first
    output, [i,i,i,i] for the interior and [i,i,l,0] for its last when it
    halves ``t_in``. Either needs at least three output frames."""
    t_out = layer.out_shape[1]
    if layer.params.transposed or t_out < 3:
        return None
    geometry = tuple(g[0] for g in (layer.params.kernel, layer.params.stride,
                                    layer.params.padding))
    if geometry == (3, 1, 1) and constant:
        return [0, 1, 2]
    if geometry == (4, 2, 1) and t_in == 2 * t_out:
        return [0, 1, 2, 3, 4, t_in - 1]
    return None


def forward_discriminator(spec, params, video):
    """Score a video and return the tapped post-activation features.

    Returns (score, features): score (N,1) strictly inside (0,1), features a
    list of tap activations in tap order; gradients flow through both
    outputs. Inputs are taken as they are: the program passes only
    normalized pixels and tanh outputs, both in [-1,1]. Batch norm always
    uses batch statistics: a discriminator keeps no running ones.
    """
    if tuple(video.shape[1:]) != tuple(spec.input_shape):
        raise DimensionError(
            f"video shape {video.shape[1:]} does not match spec {spec.input_shape}")
    cur = video
    features = {}
    for layer in spec.layers:
        cur = _apply_layer(layer, params, cur, "train", False)
        if layer.name in spec.taps:
            features[layer.name] = cur
    n = cur.shape[0]
    score = cur.reshape((n, 1))
    return score, [features[name] for name in spec.taps]


def parameter_count(spec):
    total = 0
    for l in spec.layers:
        k = int(np.prod(l.params.kernel))
        total += l.in_channels * l.out_channels * k + l.out_channels
        if l.batch_norm:
            total += 2 * l.out_channels
    return total


def format_spec(spec):
    """Human-readable layer table (name, filters, kernel, stride, padding,
    norm/activation, skip source, output shape)."""
    head = (f"{spec.kind} stage={spec.stage} resolution={spec.resolution} "
            f"width={spec.width_multiplier:g} params={parameter_count(spec)}")
    cols = f"{'layer':<9}{'filters':>8}  {'kernel':<10}{'stride':<10}{'pad':<10}" \
           f"{'bn':<4}{'act':<12}{'skip':<8}out (C,T,H,W)"
    lines = [head, cols]
    for l in spec.layers:
        skip = spec.skip_map.get(l.name, "-")
        lines.append(
            f"{l.name:<9}{l.out_channels:>8}  {str(l.params.kernel):<10}"
            f"{str(l.params.stride):<10}{str(l.params.padding):<10}"
            f"{'y' if l.batch_norm else 'n':<4}{l.activation or '-':<12}"
            f"{skip:<8}{l.out_shape}")
    return "\n".join(lines)
