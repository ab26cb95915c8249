"""Objective terms for both training stages.

Stage 1 pairs the usual GAN loss with a pixel L1 content term. Stage 2 adds
the motion-ranking term: discriminator features are reshaped so channel and
time fold into one axis, their Gram matrix becomes the motion descriptor,
and a softmax-contrastive loss pushes the refined video's descriptor toward
the real one and away from the stage-1 input's. The ranking term is computed
as softplus(d_plus - d_minus), the numerically stable form of
-log(e^{-d_plus} / (e^{-d_plus} + e^{-d_minus})).

Every term is built from the tape ops of ``tensor`` except the Gram matrix,
which is one tape node of its own here: a per-sample symmetric product,
exactly symmetric, whose backward is one batched GEMM over the features.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError
from .tensor import Tensor, _accumulate, abs_, clamp, exp, log, log1p

logger = logging.getLogger(__name__)

SCORE_EPS = 1e-7  # scores are clamped to [eps, 1-eps] before any log


def softplus(z):
    """log(1 + e^z) through primitive ops, stable for any magnitude of z.

    Uses softplus(z) = max(z, 0) + log1p(e^{-|z|}); the exponent is never
    positive so nothing overflows, and deep negative z keeps its ~e^z tail
    instead of rounding to zero.
    """
    a = abs_(z)
    return (z + a) * 0.5 + log1p(exp(-a))


def _clamped_scores(scores, what):
    v = scores.values
    if np.any(v < SCORE_EPS) or np.any(v > 1.0 - SCORE_EPS):
        logger.warning("%s scores saturated outside [%g, 1-%g]; clamping",
                       what, SCORE_EPS, SCORE_EPS)
        return clamp(scores, SCORE_EPS, 1.0 - SCORE_EPS)
    return scores


def discriminator_adversarial(d_real, d_fake):
    """The discriminator's adversarial loss from scores in (0,1),
    -mean[log d_real + log(1 - d_fake)]."""
    d_real = _clamped_scores(d_real, "real")
    d_fake = _clamped_scores(d_fake, "fake")
    return -(log(d_real).mean() + log(1.0 - d_fake).mean())


def generator_adversarial(d_fake):
    """The generator's saturating adversarial loss from fake-clip scores in
    (0,1), mean[log(1 - d_fake)]."""
    return log(1.0 - _clamped_scores(d_fake, "fake")).mean()


def content_loss(y, y_hat):
    """L1 distance between videos, the mean per element so the scale is
    resolution-independent."""
    return abs_(y - y_hat).mean()


def gram(features):
    """The (M,M) motion descriptor of discriminator features (N,C,T,H,W).

    With each sample reshaped to f of shape (M, S), M = C*T and S = H*W, sums
    f f^T over the batch in sample order and scales by 1/(M*S) — the
    batch-sum form, so its scale follows the batch size. numpy forms each
    f f^T as a symmetric rank-k update, so the matrix is exactly symmetric.
    Its one tape node keeps only a view of the features; backward hands them
    (scale * (g + g^T)) f per sample.
    """
    if features.ndim != 5:
        raise DimensionError(f"expected (N,C,T,H,W) features, got {features.shape}")
    n, c, t, h, w = features.shape
    m, s = c * t, h * w
    flat = features.values.reshape((n, m, s))
    scale = flat.dtype.type(1.0 / (m * s))
    out = flat[0] @ flat[0].T
    for f in flat[1:]:
        out += f @ f.T
    out *= scale

    def backward(g):
        gs = g + g.T
        gs *= scale
        _accumulate(features, (gs @ flat).reshape(features.shape), fresh=True)

    return Tensor._from_op(out, (features,), backward, "gram")


def rank_loss_layer(g1, g2, g):
    """Contrastive ranking loss for one feature layer.

    Arguments are the Gram matrices of the stage-1 video, the refined video,
    and the real video. With the entrywise L1 distances d_plus = ||g2 - g||_1
    and d_minus = ||g2 - g1||_1, the loss is softplus(d_plus - d_minus):
    small when the refined video sits closer to the real one than to its
    stage-1 input.
    """
    return softplus(abs_(g2 - g).sum() - abs_(g2 - g1).sum())


def rank_loss_total(taps):
    """Sum of per-layer ranking losses over (g1, g2, g) Gram triples."""
    taps = list(taps)
    if not taps:
        raise ConfigError("rank loss needs at least one feature tap")
    total = None
    for g1, g2, g in taps:
        term = rank_loss_layer(g1, g2, g)
        total = term if total is None else total + term
    return total


@dataclass(kw_only=True)
class LossReport:
    """Scalar loss terms for one iteration, as written to the loss CSV. The
    totals follow from the parts: the generator descends
    adv_g + lam*rank + content, and the discriminator, which ascends the rank
    term, descends adv_d - lam*rank. Stage 1 has no rank term."""

    iteration: int
    adv_d: float
    adv_g: float
    content: float
    rank: float = 0.0
    total_g: float = field(init=False)
    total_d: float = field(init=False)
    lam: float

    CSV_HEADER = "iter,adv_d,adv_g,content,rank,total_g,total_d"

    def __post_init__(self):
        self.total_g = self.adv_g + self.lam * self.rank + self.content
        self.total_d = self.adv_d - self.lam * self.rank

    def csv_row(self):
        return (f"{self.iteration},{self.adv_d!r},{self.adv_g!r},{self.content!r},"
                f"{self.rank!r},{self.total_g!r},{self.total_d!r}")
