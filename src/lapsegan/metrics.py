"""Quantitative evaluation: MSE, PSNR, and SSIM between generated and
ground-truth clips, plus the batch evaluation harness.

Metrics operate on the [0,1] pixel domain (videos in [-1,1] are mapped via
(v+1)/2 and clamped) with peak value 1. SSIM follows the standard
Gaussian-window form: 11x11 window, sigma 1.5, K1=0.01, K2=0.03, evaluated
per frame per channel over all fully valid windows and averaged.

``evaluate_store`` scores one clip's SSIM on a scoring thread while the next
clip generates; each SSIM runs the same float operations as a serial loop,
and rows are added in sample order, so the rows do not depend on the overlap.
"""
from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ContractError, DimensionError
from .tensor import Tensor

log = logging.getLogger(__name__)

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03
PSNR_CAP_DB = 100.0


def to_unit_range(video):
    """Map [-1,1] values onto the [0,1] metric domain, clamping drift."""
    v = np.asarray(video.values if isinstance(video, Tensor) else video,
                   dtype=np.float64)
    return np.clip((v + 1.0) / 2.0, 0.0, 1.0)


def _as_unit_arrays(a, b):
    # C order on the way in: the filtering GEMMs round differently on other
    # strides, and a metric must depend on values alone
    a = np.ascontiguousarray(a.values if isinstance(a, Tensor) else a, dtype=np.float64)
    b = np.ascontiguousarray(b.values if isinstance(b, Tensor) else b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"metric inputs differ in shape: {a.shape} vs {b.shape}")
    return a, b


def mse(a, b):
    """Mean squared difference over all elements of two [0,1] videos."""
    a, b = _as_unit_arrays(a, b)
    d = a - b
    return float(np.mean(d * d))


def psnr(a, b):
    """Peak signal-to-noise ratio in dB for unit-range data, capped at
    100 dB (the value returned for identical inputs)."""
    return psnr_from_mse(mse(a, b))


def psnr_from_mse(err):
    if err <= 0.0:
        return PSNR_CAP_DB
    return min(10.0 * math.log10(1.0 / err), PSNR_CAP_DB)


def _gaussian_kernel():
    half = (SSIM_WINDOW - 1) / 2.0
    x = np.arange(SSIM_WINDOW, dtype=np.float64) - half
    k = np.exp(-(x * x) / (2.0 * SSIM_SIGMA * SSIM_SIGMA))
    return k / k.sum()


_KERNEL_1D = _gaussian_kernel()


def _filter_valid(maps):
    """Separable Gaussian filtering of a (K,H,W) stack over all fully valid
    windows. Each map's rows go through the same calls as a lone map's: one
    BLAS gemv per row in the first pass, numpy's own matmul loop over the
    overlapping windows in the second."""
    t = sliding_window_view(maps, SSIM_WINDOW, axis=1) @ _KERNEL_1D
    return sliding_window_view(t, SSIM_WINDOW, axis=2) @ _KERNEL_1D


def _ssim_frame(x, y, c1, c2):
    mu_x, mu_y, xx, yy, xy = _filter_valid(np.stack((x, y, x * x, y * y, x * y)))
    var_x = xx - mu_x * mu_x
    var_y = yy - mu_y * mu_y
    cov = xy - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
    den = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    return float(np.mean(num / den))


def ssim(a, b):
    """Structural similarity of two [0,1] videos (3,T,H,W) or frames
    (H,W); per-frame per-channel maps averaged into one scalar."""
    a, b = _as_unit_arrays(a, b)
    if a.ndim == 2:
        frames = [(a, b)]
    elif a.ndim == 4:
        c, t = a.shape[:2]
        frames = [(a[ci, ti], b[ci, ti]) for ci in range(c) for ti in range(t)]
    else:
        raise DimensionError(f"ssim expects (H,W) or (C,T,H,W), got {a.shape}")
    h, w = frames[0][0].shape
    if h < SSIM_WINDOW or w < SSIM_WINDOW:
        raise ConfigError(
            f"frame {h}x{w} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} ssim window")
    c1 = SSIM_K1 * SSIM_K1
    c2 = SSIM_K2 * SSIM_K2
    vals = [_ssim_frame(x, y, c1, c2) for x, y in frames]
    return float(np.mean(vals))


@dataclass
class MetricReport:
    """Per-clip metric rows plus aggregate means.

    Two PSNR aggregations are reported: the mean of per-clip PSNR values
    (``mean_psnr``) and the PSNR of the mean MSE (``psnr_of_mean_mse``);
    published tables do not pin down which convention they use.
    """

    model_id: str
    rows: list = field(default_factory=list)  # (clip_id, mse, psnr_db, ssim)

    CSV_HEADER = "clip_id,mse,psnr_db,ssim"

    def add(self, clip_id, mse_v, ssim_v):
        """Append a clip's row; its PSNR follows from its MSE."""
        if not math.isfinite(mse_v) or mse_v < 0.0:
            raise ContractError(f"invalid mse {mse_v!r}")
        if not -1.0 <= ssim_v <= 1.0:
            raise ContractError(f"ssim {ssim_v!r} outside [-1,1]")
        self.rows.append((str(clip_id), float(mse_v), psnr_from_mse(mse_v), float(ssim_v)))

    @property
    def clip_count(self):
        return len(self.rows)

    @property
    def mean_mse(self):
        return float(np.mean([r[1] for r in self.rows]))

    @property
    def mean_psnr(self):
        return float(np.mean([r[2] for r in self.rows]))

    @property
    def mean_ssim(self):
        return float(np.mean([r[3] for r in self.rows]))

    @property
    def psnr_of_mean_mse(self):
        return psnr_from_mse(self.mean_mse)

    def to_csv(self, path):
        with open(path, "w") as fp:
            fp.write(self.CSV_HEADER + "\n")
            for cid, m, p, s in self.rows:
                fp.write(f"{cid},{m!r},{p!r},{s!r}\n")
            fp.write(f"MEAN,{self.mean_mse!r},{self.mean_psnr!r},{self.mean_ssim!r}\n")

    def summary(self):
        return (f"{self.model_id}: clips={self.clip_count} mse={self.mean_mse:.6f} "
                f"psnr={self.mean_psnr:.4f}dB psnr(mean mse)={self.psnr_of_mean_mse:.4f}dB "
                f"ssim={self.mean_ssim:.4f}")


def evaluate_store(predict, store, n_samples, seed, model_id="model"):
    """Score ``predict`` over sampled clips of a store's test split.

    ``predict`` maps a uint8 clip (3,32,H,W) to a generated video in the
    [0,1] metric domain; the ground truth is the clip itself mapped to
    [0,1]. Sampling is seeded, without replacement when the split allows.
    Clip i's SSIM runs on one scoring thread while clip i+1 is loaded and
    generated, so ``predict`` must not write into an array it returned
    before; MSE and the rows stay on the calling thread, in sample order.
    """
    if n_samples < 1:
        raise ConfigError(f"need at least 1 clip to evaluate, got {n_samples}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    records = store.split_records("test")
    if not records:
        raise ConfigError("store has no 'test' clips to evaluate")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    replace = n_samples > len(records)
    if replace:
        log.warning("sampling %d clips from a split of %d (with replacement)",
                    n_samples, len(records))
    idxs = rng.choice(len(records), size=n_samples, replace=replace)
    report = MetricReport(model_id=model_id)
    pending = None  # (clip id, mse, SSIM future) of the clip being scored
    with ThreadPoolExecutor(1, thread_name_prefix="lapsegan-score") as scorer:
        for i in idxs:
            rec = records[int(i)]
            try:
                clip = store.load_clip(rec)
                truth = clip.astype(np.float64) / 255.0
                generated = predict(clip)
                err = mse(generated, truth)
            finally:
                # the previous clip's row goes first, so that when both clips
                # fail, the earlier one's error is the one raised
                if pending is not None:
                    report.add(pending[0], pending[1], pending[2].result())
            pending = (f"{rec.source_id}/{rec.clip_index}", err,
                       scorer.submit(ssim, generated, truth))
        report.add(pending[0], pending[1], pending[2].result())
    return report


def evaluate(checkpoint_path, store_dir, n_samples, seed, out_csv=None):
    """Evaluate a trained checkpoint over a store's test split: duplicate
    each sampled clip's first frame, run the stage pipeline recorded in the
    checkpoint, and score against the ground-truth clip."""
    from . import training
    from .data import ClipStore, normalize_pixels

    ckpt = training.load_checkpoint(checkpoint_path, nets=training.GENERATORS)
    store = ClipStore(store_dir)
    res = ckpt.run_config().resolution
    if store.resolution != res:
        raise ConfigError(f"store resolution {store.resolution} != checkpoint {res}")

    def predict(clip):
        frame = Tensor(normalize_pixels(clip[:, 0])[None])
        video = training.generate_video(ckpt, frame)
        return to_unit_range(video.values[0])

    report = evaluate_store(predict, store, n_samples, seed,
                            model_id=f"stage{ckpt.stage}@{ckpt.iteration}")
    if out_csv is not None:
        report.to_csv(out_csv)
    return report
