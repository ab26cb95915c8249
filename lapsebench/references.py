"""Independent float64 references that the benchmark checks lapsegan against.

Nothing here imports ``lapsegan.ops``, ``lapsegan.models`` or
``lapsegan.metrics``: the SSIM filter is scipy's ``correlate1d``, the full
convolutions are ``scipy.signal.correlate``/``convolve``, the sampled
convolutions are direct sums, and the generator forward pass restates the
layer table and runs shift-and-accumulate convolutions in float64.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import ndimage, signal

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_C1 = 0.01 ** 2
SSIM_C2 = 0.03 ** 2
PSNR_CAP_DB = 100.0
LEAKY_SLOPE = 0.2
# float32 rounding carried through the 20-odd layers of G1 and G2, relative to
# the largest value of the video, stays below this
VIDEO_TOL = 1e-4


# -- evaluation metrics ----------------------------------------------------


def gaussian_taps():
    x = np.arange(SSIM_WINDOW, dtype=np.float64) - (SSIM_WINDOW - 1) / 2.0
    k = np.exp(-(x * x) / (2.0 * SSIM_SIGMA * SSIM_SIGMA))
    return k / k.sum()


def _filter_valid(img):
    """Gaussian filtering of the last two axes, cropped to full windows."""
    taps = gaussian_taps()
    half = SSIM_WINDOW // 2
    out = ndimage.correlate1d(img, taps, axis=-2, mode="constant")
    out = ndimage.correlate1d(out, taps, axis=-1, mode="constant")
    return out[..., half:-half, half:-half]


def ssim_reference(a, b):
    """SSIM of two [0,1] videos (C,T,H,W) or frames (H,W): the mean over
    frames of each frame's mean SSIM map over all valid 11x11 windows."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim == 2:
        a, b = a[None, None], b[None, None]
    mu_a, mu_b = _filter_valid(a), _filter_valid(b)
    var_a = _filter_valid(a * a) - mu_a * mu_a
    var_b = _filter_valid(b * b) - mu_b * mu_b
    cov = _filter_valid(a * b) - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + SSIM_C1) * (2.0 * cov + SSIM_C2)
    den = (mu_a * mu_a + mu_b * mu_b + SSIM_C1) * (var_a + var_b + SSIM_C2)
    return float(np.mean(np.mean(num / den, axis=(-2, -1))))


def mse_reference(a, b):
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return float(np.mean(d * d))


def psnr_reference(err):
    if err <= 0.0:
        return PSNR_CAP_DB
    return min(10.0 * math.log10(1.0 / err), PSNR_CAP_DB)


def unit_range(video):
    """[-1,1] network output onto the [0,1] metric domain, clamped."""
    return np.clip((np.asarray(video, dtype=np.float64) + 1.0) / 2.0, 0.0, 1.0)


# -- convolutions ------------------------------------------------------------


def _pad(x, padding):
    return np.pad(x, ((0, 0), (0, 0)) + tuple((p, p) for p in padding))


def conv3d_scipy(x, w, b, stride, padding):
    """3D cross-correlation (N,Cin,T,H,W) x (Cout,Cin,k) -> (N,Cout,...)
    through ``scipy.signal.correlate`` per channel pair, then strided."""
    xp = _pad(np.asarray(x, dtype=np.float64), padding)
    n, cin = xp.shape[:2]
    cout = w.shape[0]
    st, sh, sw = stride
    out = None
    for i in range(n):
        for o in range(cout):
            acc = sum(signal.correlate(xp[i, c], w[o, c], mode="valid", method="direct")
                      for c in range(cin))
            acc = acc[::st, ::sh, ::sw] + b[o]
            if out is None:
                out = np.empty((n, cout) + acc.shape)
            out[i, o] = acc
    return out


def deconv3d_scipy(x, w, b, stride, padding):
    """3D transposed convolution (N,Cin,...) x (Cin,Cout,k): zero-stuff the
    input by the stride, full ``scipy.signal.convolve``, crop the padding."""
    x = np.asarray(x, dtype=np.float64)
    n, cin = x.shape[:2]
    cout = w.shape[1]
    up_shape = tuple((m - 1) * s + 1 for m, s in zip(x.shape[2:], stride))
    crop = tuple(slice(p, ext + k - 1 - p) for p, ext, k in
                 zip(padding, up_shape, w.shape[2:]))
    out = None
    for i in range(n):
        for o in range(cout):
            acc = 0.0
            for c in range(cin):
                up = np.zeros(up_shape)
                up[::stride[0], ::stride[1], ::stride[2]] = x[i, c]
                acc = acc + signal.convolve(up, w[c, o], mode="full", method="direct")
            acc = acc[crop] + b[o]
            if out is None:
                out = np.empty((n, cout) + acc.shape)
            out[i, o] = acc
    return out


def conv3d_at(x, w, b, stride, padding, positions):
    """Direct float64 sums of a 3D cross-correlation at output positions
    (rows of (n, t, h, w)); returns (P, Cout)."""
    xp = _pad(np.asarray(x, dtype=np.float64), padding)
    w = np.asarray(w, dtype=np.float64)
    kt, kh, kw = w.shape[2:]
    out = np.empty((len(positions), w.shape[0]))
    for row, (n, t, h, v) in enumerate(positions):
        t0, h0, v0 = t * stride[0], h * stride[1], v * stride[2]
        window = xp[n, :, t0:t0 + kt, h0:h0 + kh, v0:v0 + kw]
        out[row] = np.tensordot(w, window, axes=4) + b
    return out


def deconv3d_at(x, w, b, stride, padding, positions):
    """Direct float64 sums of a 3D transposed convolution at output
    positions: every input voxel i and tap a with i*s + a - p = q."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    out = np.empty((len(positions), w.shape[1]))
    for row, (n, *q) in enumerate(positions):
        pairs = []
        for qi, s, p, k, m in zip(q, stride, padding, w.shape[2:], x.shape[2:]):
            pairs.append([(i, qi + p - i * s) for i in range(m)
                          if 0 <= qi + p - i * s < k])
        if not all(pairs):
            out[row] = b
            continue
        (it, at), (ih, ah), (iw, aw) = (np.array(pr).T for pr in pairs)
        xs = x[n][:, it][:, :, ih][:, :, :, iw]
        ws = w[:, :, at][:, :, :, ah][:, :, :, :, aw]
        out[row] = np.einsum("cdef,codef->o", xs, ws) + b
    return out


def conv3d_f64(x, w, b, stride, padding):
    """Float64 cross-correlation by accumulating one GEMM per kernel tap."""
    xp = _pad(x, padding)
    n, cin = x.shape[:2]
    cout = w.shape[0]
    kt, kh, kw = w.shape[2:]
    st, sh, sw = stride
    to, ho, wo = ((e - k) // s + 1 for e, k, s in zip(xp.shape[2:], w.shape[2:], stride))
    out = np.zeros((n, cout, to * ho * wo))
    for a in range(kt):
        for c in range(kh):
            for d in range(kw):
                tap = xp[:, :, a:a + st * to:st, c:c + sh * ho:sh, d:d + sw * wo:sw]
                out += w[:, :, a, c, d] @ tap.reshape(n, cin, -1)
    return out.reshape(n, cout, to, ho, wo) + b[None, :, None, None, None]


def deconv3d_f64(x, w, b, stride, padding):
    """Float64 transposed convolution by scattering one GEMM per kernel tap."""
    n, cin, t, h, v = x.shape
    cout = w.shape[1]
    kt, kh, kw = w.shape[2:]
    st, sh, sw = stride
    full = np.zeros((n, cout, (t - 1) * st + kt, (h - 1) * sh + kh, (v - 1) * sw + kw))
    xm = x.reshape(n, cin, -1)
    for a in range(kt):
        for c in range(kh):
            for d in range(kw):
                contrib = (w[:, :, a, c, d].T @ xm).reshape(n, cout, t, h, v)
                full[:, :, a:a + st * t:st, c:c + sh * h:sh, d:d + sw * v:sw] += contrib
    pt, ph, pw = padding
    ft, fh, fw = full.shape[2:]
    return full[:, :, pt:ft - pt, ph:fh - ph, pw:fw - pw] + b[None, :, None, None, None]


def adjoint_gap(conv, deconv, x, y, w):
    """Gap in <deconv(x, W), y> = <x, conv(y, W)> for bias-free callables
    ``conv(y, w)`` and ``deconv(x, w)``, relative to the Cauchy-Schwarz bound
    ||deconv(x, W)|| ||y|| of either side (the inner products themselves can
    cancel to near zero)."""
    dx, cy = deconv(x, w), conv(y, w)
    gap = abs(float(np.vdot(dx, y)) - float(np.vdot(x, cy)))
    return gap / max(float(np.linalg.norm(dx) * np.linalg.norm(y)), 1e-300)


# -- the generator, restated -------------------------------------------------

# (name, filters, kernel, stride, padding) of the 128-resolution generator
GENERATOR_TABLE = (
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
SKIPS = {"deconv6": "conv1", "deconv5": "conv2", "deconv4": "conv3",
         "deconv3": "conv4", "deconv2": "conv5"}
STAGE2_DROPPED = ("deconv6", "deconv5")  # decoders whose skips stage 2 removes


def generator_f64(params, buffers, x, stage, resolution, bn_eps):
    """Inference-mode float64 forward pass of a stage-1 or stage-2 generator.

    ``params``/``buffers`` map lapsegan parameter names (``conv2.weight``,
    ``conv2.running_var``, ...) to arrays. Batch norm uses the running
    statistics; the first remaining conv, conv6 and the output layer carry
    none. Skips add the encoder output into the decoder input.
    """
    rows = [r for r in GENERATOR_TABLE
            if resolution == 128 or r[0] not in ("conv1", "deconv6")]
    first, last = rows[0][0], rows[-1][0]
    skips = {d: e for d, e in SKIPS.items() if any(r[0] == e for r in rows)}
    if stage == 2:
        for d in STAGE2_DROPPED:
            skips.pop(d, None)
    outputs = {}
    cur = np.asarray(x, dtype=np.float64)
    for name, _, _, stride, padding in rows:
        if name in skips:
            cur = cur + outputs[skips[name]]
        w = params[f"{name}.weight"].astype(np.float64)
        b = params[f"{name}.bias"].astype(np.float64)
        if name.startswith("deconv"):
            cur = deconv3d_f64(cur, w, b, stride, padding)
        else:
            cur = conv3d_f64(cur, w, b, stride, padding)
        if name not in (first, "conv6", last):
            shape = (1, -1, 1, 1, 1)
            mean = buffers[f"{name}.running_mean"].astype(np.float64).reshape(shape)
            var = buffers[f"{name}.running_var"].astype(np.float64).reshape(shape)
            gamma = params[f"{name}.gamma"].astype(np.float64).reshape(shape)
            beta = params[f"{name}.beta"].astype(np.float64).reshape(shape)
            cur = (cur - mean) / np.sqrt(var + bn_eps) * gamma + beta
        if name == last:
            cur = np.tanh(cur)
        elif name.startswith("conv"):
            cur = np.where(cur >= 0, cur, LEAKY_SLOPE * cur)
        else:
            cur = np.maximum(cur, 0.0)
        outputs[name] = cur
    return cur


# -- training logs -------------------------------------------------------------


def loss_identity_errors(rows, lam):
    """Rows of losses.csv (dicts of floats) that break an identity: not
    finite, total_g != adv_g + lam*rank + content, or
    total_d != adv_d - lam*rank. Returns a list of messages."""
    errors = []
    for k, row in enumerate(rows, 1):
        if int(row["iter"]) != k:
            errors.append(f"row {k} has iter {row['iter']}")
        if not all(math.isfinite(v) for v in row.values()):
            errors.append(f"row {k} is not finite: {row}")
            continue
        want_g = row["adv_g"] + lam * row["rank"] + row["content"]
        want_d = row["adv_d"] - lam * row["rank"]
        for got, want, what in ((row["total_g"], want_g, "total_g"),
                                (row["total_d"], want_d, "total_d")):
            if abs(got - want) > 1e-12 * max(1.0, abs(want)):
                errors.append(f"row {k}: {what} {got!r} != {want!r}")
    return errors
