import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

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
        err = T.grad_check(generator_adversarial, scores(0.5))
        assert err < 1e-6
        # analytic slope of mean log(1-d) at d=0.5 is -1/(1-0.5) = -2
        d = Tensor(np.array([[0.5]]), dtype=np.float64)
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
        x = Tensor(np.ones(5), dtype=np.float64)
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

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        feat = rng.standard_normal((2, 3, 2, 2, 3))
        assert_allclose(gram(t64(feat)).values, gram_loop_oracle(feat), atol=1e-10)

    def test_symmetric_and_psd(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            shape = (int(rng.integers(1, 3)), int(rng.integers(1, 5)),
                     int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                     int(rng.integers(1, 4)))
            g = gram(t64(rng.standard_normal(shape))).values
            assert g.shape[0] <= 32
            assert np.max(np.abs(g - g.T)) <= 1e-6 * max(np.max(np.abs(g)), 1e-30)
            eig = np.linalg.eigvalsh(g)
            assert eig.min() >= -1e-6 * np.trace(g)

    def test_gradient_through_descriptor(self):
        rng = np.random.default_rng(6)
        feat = t64(rng.standard_normal((1, 2, 2, 2, 2)))
        err = T.grad_check(lambda v: (gram(v) * gram(v)).sum(), feat)
        assert err < 1e-5


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
        assert T.grad_check(f, f2) < 1e-5


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
