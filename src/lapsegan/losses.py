"""Objective terms for both training stages.

Stage 1 pairs the usual GAN loss with a pixel L1 content term. Stage 2 adds
the motion-ranking term: discriminator features are reshaped so channel and
time fold into one axis, their Gram matrix becomes the motion descriptor,
and a softmax-contrastive loss pushes the refined video's descriptor toward
the real one and away from the stage-1 input's. The ranking term is computed
as softplus(d_plus - d_minus), the numerically stable form of
-log(e^{-d_plus} / (e^{-d_plus} + e^{-d_minus})).
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, DimensionError
from .tensor import Tensor, abs_, clamp, exp, log, log1p, matmul_batched

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
    if y.shape != y_hat.shape:
        raise DimensionError(f"content loss shapes differ: {y.shape} vs {y_hat.shape}")
    return abs_(y - y_hat).mean()


@dataclass
class GramDescriptor:
    """Motion descriptor: (M,M) covariance of reshaped features, M = C*T."""

    matrix: Tensor
    layer_id: str


def gram(features, layer_id=""):
    """Gram matrix of discriminator features (N,C,T,H,W).

    Reshapes to (N, M, S) with M = C*T and S = H*W, then sums h h^T over the
    batch and scales by 1/(M*S) — the batch-sum form, so its scale follows
    the batch size. Differentiable w.r.t. the features.
    """
    if features.ndim != 5:
        raise DimensionError(f"expected (N,C,T,H,W) features, got {features.shape}")
    n, c, t, h, w = features.shape
    m, s = c * t, h * w
    flat = features.reshape((n, m, s))
    prod = matmul_batched(flat, flat.transpose((0, 2, 1)))
    scale = 1.0 / (m * s)
    matrix = prod.sum(axes=0) * scale
    _assert_symmetric(matrix.values)
    return GramDescriptor(matrix=matrix, layer_id=layer_id)


def _assert_symmetric(g, rel=1e-6):
    peak = np.max(np.abs(g)) if g.size else 0.0
    skew = np.max(np.abs(g - g.T)) if g.size else 0.0
    if skew > rel * max(peak, 1e-30):
        raise ContractError(f"gram matrix asymmetric: skew {skew:g} vs peak {peak:g}")


def gram_distance(a, b):
    """Entrywise L1 distance between two descriptors (summed, unnormalized)."""
    return abs_(a.matrix - b.matrix).sum()


def rank_loss_layer(g1, g2, g):
    """Contrastive ranking loss for one feature layer.

    Arguments are the descriptors of the stage-1 video, the refined video,
    and the real video. With d_plus = ||g2 - g||_1 and d_minus = ||g2 - g1||_1,
    the loss is softplus(d_plus - d_minus): small when the refined video
    sits closer to the real one than to its stage-1 input.
    """
    if not (g1.layer_id == g2.layer_id == g.layer_id):
        raise ContractError(
            f"descriptor layer mismatch: {g1.layer_id!r}, {g2.layer_id!r}, {g.layer_id!r}")
    if not (g1.matrix.shape == g2.matrix.shape == g.matrix.shape):
        raise DimensionError("descriptor matrices differ in shape")
    d_plus = gram_distance(g2, g)
    d_minus = gram_distance(g2, g1)
    return softplus(d_plus - d_minus)


def rank_loss_total(taps):
    """Sum of per-layer ranking losses over (g1, g2, g) descriptor triples."""
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
