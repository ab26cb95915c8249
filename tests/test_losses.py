import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gradcheck import grad_check
from lapsegan import losses, tensor as T
from lapsegan.errors import ConfigError, DimensionError
from lapsegan.losses import (LossReport, content_loss,
                             discriminator_adversarial, generator_adversarial,
                             gram, rank_loss_layer, rank_loss_total, softplus)
from lapsegan.tensor import Tensor

LN2 = math.log(2.0)


def t64(x):
    return Tensor(np.asarray(x, dtype=np.float64))


def scores(*vals):
    return t64(np.asarray(vals).reshape(-1, 1))


class TestAdversarial:
    def test_half_scores_give_two_ln_two(self):
        loss_d = discriminator_adversarial(scores(0.5, 0.5), scores(0.5, 0.5))
        loss_g = generator_adversarial(scores(0.5, 0.5))
        assert abs(loss_d.item() - 2.0 * LN2) < 1e-9
        assert abs(loss_g.item() - math.log(0.5)) < 1e-9

    def test_perfect_discriminator_loss_vanishes(self):
        loss_d = discriminator_adversarial(scores(1.0 - 1e-9), scores(1e-9))
        assert 0.0 <= loss_d.item() < 1e-5

    def test_saturated_scores_clamped_not_infinite(self, caplog):
        with caplog.at_level("WARNING"):
            loss_d = discriminator_adversarial(scores(1.0), scores(0.0))
            loss_g = generator_adversarial(scores(1.0))
        assert np.isfinite(loss_d.item()) and np.isfinite(loss_g.item())
        assert any("clamping" in r.message for r in caplog.records)

    def test_saturated_fake_scores_clamped_once(self, caplog, monkeypatch):
        clamps = []

        def counting_clamp(*args):
            clamps.append(args)
            return T.clamp(*args)

        monkeypatch.setattr(losses, "clamp", counting_clamp)
        for loss_of in (lambda d_fake: discriminator_adversarial(scores(0.5), d_fake),
                        generator_adversarial):
            caplog.clear()
            clamps.clear()
            with caplog.at_level("WARNING", logger="lapsegan.losses"):
                loss = loss_of(scores(0.0))
            assert [r.message for r in caplog.records] == [
                f"fake scores saturated outside [{losses.SCORE_EPS:g}, "
                f"1-{losses.SCORE_EPS:g}]; clamping"]
            assert len(clamps) == 1
            assert np.isfinite(loss.item())

    def test_generator_gradient_matches_finite_differences(self):
        err = grad_check(generator_adversarial, scores(0.5))
        assert err < 1e-6
        # analytic slope of mean log(1-d) at d=0.5 is -1/(1-0.5) = -2
        d = Tensor(np.array([[0.5]]))
        d.requires_grad = True
        T.backward(generator_adversarial(d))
        assert_allclose(d.grad, [[-2.0]], rtol=1e-12)


class TestContentLoss:
    def test_identical_is_zero_exactly(self):
        y = t64(np.random.default_rng(0).standard_normal((1, 3, 4, 4, 4)))
        assert content_loss(y, t64(y.values.copy())).item() == 0.0

    def test_constant_difference(self):
        a = t64(np.zeros((2, 3, 2, 2, 2)))
        b = t64(np.full((2, 3, 2, 2, 2), 0.5))
        assert abs(content_loss(a, b).item() - 0.5) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a, b = t64(rng.standard_normal(20)), t64(rng.standard_normal(20))
        assert content_loss(a, b).item() == content_loss(b, a).item()

    def test_subgradient_zero_at_equality(self):
        y = t64(np.ones(5))
        x = Tensor(np.ones(5))
        x.requires_grad = True
        T.backward(content_loss(y, x))
        assert_allclose(x.grad, np.zeros(5))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            content_loss(t64(np.zeros(3)), t64(np.zeros(4)))


def gram_loop_oracle(feat, batch_mean=False):
    """Brute-force covariance accumulation, the independent reference."""
    n, c, t, h, w = feat.shape
    m, s = c * t, h * w
    flat = feat.reshape(n, m, s)
    out = np.zeros((m, m))
    for ni in range(n):
        for i in range(m):
            for j in range(m):
                for k in range(s):
                    out[i, j] += flat[ni, i, k] * flat[ni, j, k]
    out /= m * s * (n if batch_mean else 1)
    return out


class TestGram:
    def test_all_ones_half_matrix(self):
        feat = t64(np.ones((1, 2, 1, 1, 3)))
        assert_allclose(gram(feat).values, 0.5 * np.ones((2, 2)), rtol=0)

    def test_zero_features(self):
        assert not np.any(gram(t64(np.zeros((2, 2, 2, 2, 2)))).values)

    def test_non_volume_rejected(self):
        with pytest.raises(DimensionError):
            gram(t64(np.zeros((2, 4, 6))))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        feat = rng.standard_normal((2, 3, 2, 2, 3))
        assert_allclose(gram(t64(feat)).values, gram_loop_oracle(feat), atol=1e-10)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_exactly_symmetric_and_psd(self, dtype):
        rng = np.random.default_rng(5)
        for _ in range(10):
            shape = (int(rng.integers(1, 4)), int(rng.integers(1, 5)),
                     int(rng.integers(1, 4)), int(rng.integers(1, 9)),
                     int(rng.integers(1, 9)))
            g = gram(Tensor(rng.standard_normal(shape).astype(dtype))).values
            assert g.dtype == dtype and g.shape[0] <= 32
            assert g.tobytes() == g.T.copy().tobytes()
            eig = np.linalg.eigvalsh(g.astype(np.float64))
            assert eig.min() >= -1e-6 * np.trace(g)

    def test_gradient_through_descriptor(self):
        rng = np.random.default_rng(6)
        feat = t64(rng.standard_normal((1, 2, 2, 2, 2)))
        err = grad_check(lambda v: (gram(v) * gram(v)).sum(), feat)
        assert err < 1e-5

    def test_gradient_under_non_symmetric_upstream(self):
        # training only ever sends a symmetric upstream; this checks the
        # general (g + g^T) form of the backward
        rng = np.random.default_rng(10)
        weights = t64(rng.standard_normal((6, 6)))
        assert not np.array_equal(weights.values, weights.values.T)
        feat = t64(rng.standard_normal((2, 3, 2, 2, 3)))
        assert grad_check(lambda v: (gram(v) * weights).sum(), feat) < 1e-6

    def test_taped_gram_keeps_only_its_matrix(self):
        # the batched-GEMM composition kept a transposed copy of the features
        # as well: 1.31 MB here against the 64 KB matrix
        n, c, t, h, w = 2, 8, 16, 32, 32
        feat = Tensor(np.random.default_rng(11).standard_normal((n, c, t, h, w))
                      .astype(np.float32), requires_grad=True)
        gram(feat)  # first-use allocations outside the count
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            matrix = gram(feat)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert matrix.requires_grad and matrix.shape == (c * t, c * t)
        assert held <= 1.05 * matrix.values.nbytes


def gram_by_matmul_batched(features):
    """The Gram matrix of ``features`` and its backward as the tape ran them
    when ``gram`` was composed of general ops: a contiguous transposed copy,
    a batched GEMM, a batch sum and a scale, then the backward of each (two
    GEMMs, every first gradient copied by ``_accumulate``, which turns -0.0
    into +0.0). Kept to pin the bits."""
    n, c, t, h, w = features.shape
    m, s = c * t, h * w
    scale = features.dtype.type(1.0 / (m * s))
    flat = features.reshape(n, m, s)
    flat_t = np.ascontiguousarray(flat.transpose(0, 2, 1))

    def backward(upstream):
        g_prod = np.broadcast_to(upstream * scale, (n, m, m)) + 0.0
        g_flat = g_prod @ flat_t.transpose(0, 2, 1) + 0.0
        g_flat += np.ascontiguousarray((flat.transpose(0, 2, 1) @ g_prod).transpose(0, 2, 1))
        return g_flat.reshape(features.shape) + 0.0

    return (flat @ flat_t).sum(axis=0) * scale, backward


class TestGramBits:
    """The one-node Gram keeps the bits of the composition it replaced,
    forward and backward, under the rank loss's own upstream gradient."""

    @pytest.mark.parametrize("shape", [(1, 32, 32, 64, 64), (1, 128, 8, 16, 16),
                                       (2, 8, 16, 32, 32), (3, 8, 4, 8, 8)])
    def test_forward_and_rank_loss_gradient(self, shape):
        rng = np.random.default_rng(sum(shape))
        feats = [Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
                 for _ in range(3)]
        grams = [gram(f) for f in feats]
        T.backward(rank_loss_layer(*grams))

        want = [gram_by_matmul_batched(f.values) for f in feats]
        leaves = [Tensor(matrix, requires_grad=True) for matrix, _ in want]
        T.backward(rank_loss_layer(*leaves))
        for f, g, leaf, (_, want_backward) in zip(feats, grams, leaves, want):
            assert g.values.tobytes() == leaf.values.tobytes()
            assert np.array_equal(leaf.grad, leaf.grad.T)
            assert f.grad.tobytes() == want_backward(leaf.grad).tobytes()


class TestSoftplusAndRanking:
    def test_equal_distances_give_ln2(self):
        loss = rank_loss_layer(t64([[0.7]]), t64([[0.0]]), t64([[0.7]]))
        assert abs(loss.item() - LN2) < 1e-9

    def test_unit_gap_closed_form(self):
        # d_plus = 1, d_minus = 0 -> log(1 + e)
        loss = rank_loss_layer(t64([[0.0]]), t64([[0.0]]), t64([[1.0]]))
        assert abs(loss.item() - math.log(1.0 + math.e)) < 1e-9

    def test_large_negative_gap_underflows_gracefully(self):
        # d_plus = 0, d_minus = 50 -> ~ e^-50, finite and non-negative
        loss = rank_loss_layer(t64([[50.0]]), t64([[0.0]]), t64([[0.0]]))
        assert 0.0 <= loss.item() < 1e-21
        assert abs(loss.item() - math.exp(-50.0)) < 1e-27

    def test_matches_naive_form_within_1e9(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            dp = float(rng.uniform(0.0, 40.0))
            dm = float(rng.uniform(0.0, 40.0))
            if abs(dp - dm) >= 30.0:
                continue
            naive = -math.log(math.exp(-dp) / (math.exp(-dp) + math.exp(-dm)))
            got = softplus(t64(dp - dm)).item()
            assert abs(got - naive) < 1e-9

    @given(st.floats(-700.0, 700.0))
    @settings(max_examples=200, deadline=None)
    def test_softplus_total_and_positive(self, z):
        out = softplus(t64(z)).item()
        assert np.isfinite(out) and out >= 0.0

    @given(st.floats(0.0, 100.0), st.floats(0.0, 100.0), st.floats(0.01, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_both_distances(self, dp, dm, step):
        base = rank_loss_layer(t64([[dm]]), t64([[0.0]]), t64([[dp]])).item()
        more_plus = rank_loss_layer(t64([[dm]]), t64([[0.0]]),
                                    t64([[dp + step]])).item()
        less_minus = rank_loss_layer(t64([[dm + step]]), t64([[0.0]]),
                                     t64([[dp]])).item()
        assert base > 0.0
        assert more_plus > base
        assert less_minus < base

    def test_layer_mismatch_rejected(self):
        # Gram matrices of different layers differ in shape
        with pytest.raises(DimensionError):
            rank_loss_layer(t64(np.zeros((2, 2))), t64([[0.0]]), t64([[0.0]]))


class TestRankTotal:
    def test_single_tap_equals_layer_loss(self):
        triple = (t64([[1.0]]), t64([[0.0]]), t64([[2.0]]))
        assert rank_loss_total([triple]).item() == rank_loss_layer(*triple).item()

    def test_two_identical_taps_double(self):
        triple = (t64([[1.0]]), t64([[0.0]]), t64([[2.0]]))
        single = rank_loss_layer(*triple).item()
        assert abs(rank_loss_total([triple, triple]).item() - 2.0 * single) < 1e-12

    def test_refined_equals_real_beats_ln2(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            g_real = rng.standard_normal((3, 3))
            g_one = g_real + rng.standard_normal((3, 3)) * 0.5
            triple = (t64(g_one), t64(g_real), t64(g_real))  # g2 == g
            assert rank_loss_total([triple]).item() < LN2

    def test_empty_taps_rejected(self):
        with pytest.raises(ConfigError):
            rank_loss_total([])

    def test_gradient_through_full_chain(self):
        # gram -> L1 -> softplus w.r.t. the refined video's features
        rng = np.random.default_rng(9)
        f1 = t64(rng.standard_normal((1, 2, 2, 2, 2)))
        fr = t64(rng.standard_normal((1, 2, 2, 2, 2)))

        def f(v):
            taps = [(gram(f1), gram(v), gram(fr))]
            return rank_loss_total(taps)

        f2 = t64(rng.standard_normal((1, 2, 2, 2, 2)))
        assert grad_check(f, f2) < 1e-5


class TestLossReport:
    def test_totals_are_sum_of_parts(self):
        r = LossReport(iteration=1, adv_d=1.5, adv_g=-0.7, content=0.25,
                       rank=0.69, lam=1.0)
        assert r.total_g == -0.7 + 1.0 * 0.69 + 0.25
        assert r.total_d == 1.5 - 1.0 * 0.69
        r = LossReport(iteration=1, adv_d=1.5, adv_g=-0.7, content=0.25,
                       rank=0.69, lam=0.5)
        assert r.total_g == -0.7 + 0.5 * 0.69 + 0.25
        assert r.total_d == 1.5 - 0.5 * 0.69

    def test_rank_zero_totals_same_at_any_lam(self):
        """A report without a rank term, as stage 1 writes, has the totals of
        weight zero whatever its weight, bit for bit."""
        r0, r1 = (LossReport(iteration=3, adv_d=1.2, adv_g=-0.6, content=0.3, lam=lam)
                  for lam in (0.0, 1.0))
        assert r0.rank == r1.rank == 0.0
        assert (r0.total_g, r0.total_d) == (r1.total_g, r1.total_d) == (-0.6 + 0.3, 1.2)
        assert r0.csv_row() == r1.csv_row()

    def test_csv_row_shape(self):
        r = LossReport(iteration=9, adv_d=1.0, adv_g=-1.0, content=0.5, rank=0.7,
                       lam=1.0)
        row = r.csv_row()
        assert row.startswith("9,") and row.count(",") == 6
        assert r.CSV_HEADER.count(",") == 6
