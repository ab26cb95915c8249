import math
import threading

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from numpy.testing import assert_allclose

from lapsegan import metrics
from lapsegan.data import (ClipStore, export_clip, ingest, normalize_pixels,
                           read_ppm, write_ppm)
from lapsegan.errors import ConfigError, ContractError, DimensionError
from lapsegan.metrics import (MetricReport, evaluate_store, mse, psnr_from_mse,
                              ssim, to_unit_range)

C1 = metrics.SSIM_K1 ** 2
C2 = metrics.SSIM_K2 ** 2


class TestMse:
    def test_identical_zero(self):
        a = np.random.default_rng(0).random((3, 4, 16, 16))
        assert mse(a, a.copy()) == 0.0

    def test_zero_vs_one(self):
        assert mse(np.zeros((2, 2)), np.ones((2, 2))) == 1.0

    def test_constant_difference(self):
        assert abs(mse(np.zeros(10), np.full(10, 0.1)) - 0.01) < 1e-15

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a, b = rng.random(50), rng.random(50)
        assert mse(a, b) == mse(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            mse(np.zeros(3), np.zeros(4))


class TestPsnr:
    def test_hundredth_mse_is_twenty_db(self):
        assert abs(psnr_from_mse(0.01) - 20.0) < 1e-6

    def test_unit_mse_is_zero_db(self):
        assert psnr_from_mse(1.0) == 0.0

    def test_identical_capped(self):
        a = np.random.default_rng(2).random((4, 4))
        assert psnr_from_mse(mse(a, a.copy())) == 100.0

    def test_anti_monotone_in_mse(self):
        values = [psnr_from_mse(m) for m in (0.5, 0.1, 0.01, 1e-4)]
        assert values == sorted(values)


def ssim_window_loop_oracle(x, y):
    """Direct per-window evaluation of the SSIM formula with the same
    Gaussian weights; independent of the separable-filter implementation."""
    k1d = metrics._gaussian_kernel()
    kernel = np.outer(k1d, k1d)
    h, w = x.shape
    n = metrics.SSIM_WINDOW
    vals = []
    for i in range(h - n + 1):
        for j in range(w - n + 1):
            wx = x[i:i + n, j:j + n]
            wy = y[i:i + n, j:j + n]
            mx = (kernel * wx).sum()
            my = (kernel * wy).sum()
            vx = (kernel * wx * wx).sum() - mx * mx
            vy = (kernel * wy * wy).sum() - my * my
            cov = (kernel * wx * wy).sum() - mx * my
            vals.append(((2 * mx * my + C1) * (2 * cov + C2))
                        / ((mx * mx + my * my + C1) * (vx + vy + C2)))
    return float(np.mean(vals))


class TestSsim:
    def test_identical_is_exactly_one(self):
        rng = np.random.default_rng(3)
        clip = rng.random((3, 4, 16, 16))
        assert ssim(clip, clip.copy()) == 1.0

    def test_constant_zero_vs_one_closed_form(self):
        a = np.zeros((16, 16))
        b = np.ones((16, 16))
        expected = C1 / (1.0 + C1)
        assert abs(ssim(a, b) - expected) < 1e-9

    def test_matches_window_loop_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.random((14, 13))
        y = np.clip(x + rng.normal(0, 0.1, x.shape), 0, 1)
        assert abs(ssim(x, y) - ssim_window_loop_oracle(x, y)) < 1e-10

    def test_matches_skimage_reference(self):
        skimage = pytest.importorskip("skimage.metrics")
        rng = np.random.default_rng(5)
        x = rng.random((32, 32))
        y = np.clip(x + rng.normal(0, 0.2, x.shape), 0, 1)
        ref = skimage.structural_similarity(
            x, y, win_size=metrics.SSIM_WINDOW, gaussian_weights=True,
            sigma=metrics.SSIM_SIGMA, use_sample_covariance=False, data_range=1.0)
        assert abs(ssim(x, y) - ref) < 1e-6

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        x = rng.random((3, 2, 16, 16))
        y = rng.random((3, 2, 16, 16))
        assert ssim(x, y) == ssim(y, x)

    def test_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = rng.random((12, 12))
            y = rng.random((12, 12))
            assert -1.0 <= ssim(x, y) <= 1.0

    def test_frame_smaller_than_window(self):
        with pytest.raises(ConfigError):
            ssim(np.zeros((8, 8)), np.zeros((8, 8)))


def ssim_map_by_map(a, b):
    """SSIM with one filter call per map: the loop ``ssim`` ran before it
    filtered a frame's five maps as one stack. Kept to pin the bits."""
    def filter_valid(img):
        t = sliding_window_view(img, metrics.SSIM_WINDOW, axis=0) @ metrics._KERNEL_1D
        return sliding_window_view(t, metrics.SSIM_WINDOW, axis=1) @ metrics._KERNEL_1D

    def ssim_frame(x, y):
        mu_x = filter_valid(x)
        mu_y = filter_valid(y)
        var_x = filter_valid(x * x) - mu_x * mu_x
        var_y = filter_valid(y * y) - mu_y * mu_y
        cov = filter_valid(x * y) - mu_x * mu_y
        num = (2.0 * mu_x * mu_y + C1) * (2.0 * cov + C2)
        den = (mu_x * mu_x + mu_y * mu_y + C1) * (var_x + var_y + C2)
        return float(np.mean(num / den))

    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if a.ndim == 2:
        return ssim_frame(a, b)
    return float(np.mean([ssim_frame(a[c, t], b[c, t])
                          for c in range(a.shape[0]) for t in range(a.shape[1])]))


class TestStackedFilterBits:
    @pytest.mark.parametrize("shape", [(11, 11), (13, 40), (3, 32, 64, 64),
                                       (3, 32, 128, 128)])
    def test_equals_map_by_map_loop(self, shape):
        rng = np.random.default_rng(sum(shape))
        x = rng.random(shape)
        for y in (np.clip(x + rng.normal(0, 0.1, shape), 0, 1), rng.random(shape)):
            assert ssim(x, y) == ssim_map_by_map(x, y)

    @pytest.mark.parametrize("shape", [(3, 32, 64, 64), (3, 32, 128, 128)])
    def test_identical_clips(self, shape):
        x = np.random.default_rng(1).random(shape)
        assert ssim(x, x.copy()) == ssim_map_by_map(x, x.copy()) == 1.0


class TestLayoutIndependence:
    """A metric reads values, not strides: the same values held in another
    memory layout must give bitwise the same score."""

    @staticmethod
    def layouts(a):
        # Fortran order, and the (H,W,C,T) layout a stack of PPM frames
        # reads back into, viewed as (C,T,H,W)
        return (np.asfortranarray(a),
                np.ascontiguousarray(a.transpose(2, 3, 0, 1)).transpose(2, 3, 0, 1))

    @pytest.mark.parametrize("metric", [mse, ssim])
    def test_non_contiguous_inputs_bitwise_equal(self, metric):
        # the filtering GEMMs round differently on some strides only for
        # some values, so sweep a handful of fixed clips
        for seed in range(10):
            a = np.random.default_rng(seed).random((3, 4, 16, 16))
            noisy = np.clip(a + 0.1, 0, 1)
            for other in self.layouts(a):
                assert not other.flags.c_contiguous
                assert np.array_equal(other, a)
                assert metric(noisy, other) == metric(noisy, a)
                assert metric(other, noisy) == metric(a, noisy)


class TestUnitRange:
    def test_maps_and_clamps(self):
        v = to_unit_range(np.array([-1.0, 0.0, 1.0, 1.5, -2.0]))
        assert_allclose(v, [0.0, 0.5, 1.0, 1.0, 0.0])


class TestMetricReport:
    def test_row_consistency_enforced(self):
        rep = MetricReport("m")
        rep.add("a/0", 0.01, 0.9)
        assert rep.rows == [("a/0", 0.01, psnr_from_mse(0.01), 0.9)]
        with pytest.raises(ContractError):
            rep.add("a/1", -0.01, 0.9)
        with pytest.raises(ContractError):
            rep.add("a/2", 0.01, 1.5)
        assert len(rep.rows) == 1

    def test_csv_layout(self, tmp_path):
        rep = MetricReport("m")
        rep.add("a/0", 0.01, 0.5)
        rep.add("b/1", 0.04, 0.7)
        out = tmp_path / "r.csv"
        rep.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "clip_id,mse,psnr_db,ssim"
        assert len(lines) == 4 and lines[-1].startswith("MEAN,")
        mean_mse = float(lines[-1].split(",")[1])
        assert abs(mean_mse - 0.025) < 1e-12

    def test_two_psnr_aggregations(self):
        rep = MetricReport("m")
        rep.add("a", 0.01, 0.5)
        rep.add("b", 0.0001, 0.5)
        assert abs(rep.mean_psnr - 30.0) < 1e-9
        assert abs(rep.psnr_of_mean_mse - psnr_from_mse(0.00505)) < 1e-12

    def test_rows_consistent_with_formula(self):
        rep = MetricReport("m")
        rng = np.random.default_rng(8)
        for i in range(5):
            m = float(rng.uniform(1e-4, 0.5))
            rep.add(str(i), m, 0.5)
        for _, m, p, _ in rep.rows:
            assert abs(p - 10.0 * math.log10(1.0 / m)) < 1e-6


def build_store(tmp_path, n_sources=6, frames=64, res=16):
    from lapsegan.data import split_store, synth_frame_dirs
    synth_frame_dirs(tmp_path / "frames", n_sources, frames, res,
                     velocity=1.0, seed=3)
    ingest(tmp_path / "frames", tmp_path / "store", res)
    split_store(tmp_path / "store", 0.34, seed=1)
    return ClipStore(tmp_path / "store")


class TestEvaluateStore:
    def test_identity_model_scores_temporal_variance(self, tmp_path):
        store = build_store(tmp_path)

        def identity(clip):
            first = clip[:, 0:1].astype(np.float64) / 255.0
            return np.repeat(first, clip.shape[1], axis=1)

        rep = evaluate_store(identity, store, n_samples=3, seed=0,
                             model_id="identity")
        records = store.split_records("test")
        assert rep.clip_count == 3
        # oracle: per-clip mse equals the mean squared deviation of every
        # frame from frame 0
        rng = np.random.default_rng(np.random.SeedSequence(entropy=0))
        idxs = rng.choice(len(records), size=3, replace=False)
        for row, i in zip(rep.rows, idxs):
            clip = store.load_clip(records[int(i)]).astype(np.float64) / 255.0
            expected = np.mean((clip - clip[:, 0:1]) ** 2)
            assert abs(row[1] - expected) < 1e-12

    def test_perfect_model(self, tmp_path):
        store = build_store(tmp_path)
        rep = evaluate_store(lambda c: c.astype(np.float64) / 255.0, store,
                             n_samples=2, seed=1, model_id="oracle")
        for _, m, p, s in rep.rows:
            assert m == 0.0 and p == 100.0 and s == 1.0

    def test_deterministic_sampling(self, tmp_path):
        store = build_store(tmp_path)
        run = lambda: [r[0] for r in evaluate_store(
            lambda c: c.astype(np.float64) / 255.0, store, 3, seed=9).rows]
        assert run() == run()

    def test_oversampling_logs_and_replaces(self, tmp_path, caplog):
        store = build_store(tmp_path)
        with caplog.at_level("WARNING"):
            rep = evaluate_store(lambda c: c.astype(np.float64) / 255.0,
                                 store, n_samples=50, seed=2)
        assert rep.clip_count == 50
        assert any("replacement" in r.message for r in caplog.records)

    def test_metric_invariance_under_ppm_round_trip(self, tmp_path):
        # byte-lattice clips survive export + reimport bit-exactly, so the
        # metrics cannot move
        store = build_store(tmp_path)
        rec = store.split_records("test")[0]
        clip = store.load_clip(rec)
        paths = export_clip(clip, tmp_path / "rt")
        back = np.stack([read_ppm(p).transpose(2, 0, 1) for p in paths], axis=1)
        a = clip.astype(np.float64) / 255.0
        b = back.astype(np.float64) / 255.0
        noisy = np.clip(a + 0.1, 0, 1)
        assert mse(noisy, a) == mse(noisy, b)
        assert ssim(noisy, a) == ssim(noisy, b)


def serial_rows(predict, store, n_samples, seed):
    """Rows of the one-clip-at-a-time loop: each clip loaded, generated and
    scored before the next."""
    records = store.split_records("test")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    idxs = rng.choice(len(records), size=n_samples, replace=n_samples > len(records))
    rows = []
    for i in idxs:
        rec = records[int(i)]
        clip = store.load_clip(rec)
        truth = clip.astype(np.float64) / 255.0
        generated = predict(clip)
        err = mse(generated, truth)
        rows.append((f"{rec.source_id}/{rec.clip_index}", err, psnr_from_mse(err),
                     ssim(generated, truth)))
    return rows


def scorer_threads():
    return [t.name for t in threading.enumerate() if t.name.startswith("lapsegan-score")]


class TestPipelinedScoring:
    """``evaluate_store`` scores clip i's SSIM on a thread while clip i+1
    generates; rows and errors must be those of the serial loop."""

    @staticmethod
    def blurred(clip):
        # a deterministic stand-in model, far enough from the truth that
        # every row differs
        v = clip.astype(np.float64) / 255.0
        return np.clip(0.5 * (v + np.roll(v, 1, axis=-1)) + 0.02, 0.0, 1.0)

    @pytest.mark.parametrize("n_samples", [1, 3, 9])
    def test_rows_equal_serial_loop(self, tmp_path, n_samples):
        store = build_store(tmp_path)
        assert len(store.split_records("test")) < 9  # 9 samples with replacement
        rep = evaluate_store(self.blurred, store, n_samples, seed=4)
        assert rep.rows == serial_rows(self.blurred, store, n_samples, seed=4)
        assert scorer_threads() == []

    def test_earliest_failing_clip_decides(self, tmp_path):
        store = build_store(tmp_path)
        calls = []

        def predict(clip):
            calls.append(len(calls))
            if len(calls) == 1:  # clip 0: NaN, so its row is refused
                return np.full(clip.shape, np.nan)
            raise RuntimeError("clip 1 failed")

        with pytest.raises(ContractError, match="invalid mse nan"):
            evaluate_store(predict, store, n_samples=2, seed=0)
        assert calls == [0, 1]
        assert scorer_threads() == []

    def test_later_failure_raised_after_earlier_row(self, tmp_path):
        store = build_store(tmp_path)
        calls = []

        def predict(clip):
            calls.append(len(calls))
            if len(calls) == 2:
                raise RuntimeError("clip 1 failed")
            return clip.astype(np.float64) / 255.0

        with pytest.raises(RuntimeError, match="clip 1 failed"):
            evaluate_store(predict, store, n_samples=3, seed=0)
        assert calls == [0, 1]
        assert scorer_threads() == []
