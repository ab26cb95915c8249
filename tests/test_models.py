import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from gradcheck import grad_check
from lapsegan import models, ops, tensor as T
from lapsegan.errors import ConfigError, DimensionError
from lapsegan.models import (build_discriminator, build_generator,
                             duplicate_frame, forward_discriminator,
                             forward_generator, format_spec, parameter_count)
from lapsegan.tensor import Tensor

EXPECTED_CONV_SHAPES_128 = {
    "conv1": (32, 32, 64, 64),
    "conv2": (64, 16, 32, 32),
    "conv3": (128, 8, 16, 16),
    "conv4": (256, 4, 8, 8),
    "conv5": (512, 2, 4, 4),
    "conv6": (512, 1, 1, 1),
    "deconv1": (512, 2, 4, 4),
    "deconv2": (256, 4, 8, 8),
    "deconv3": (128, 8, 16, 16),
    "deconv4": (64, 16, 32, 32),
    "deconv5": (32, 32, 64, 64),
    "deconv6": (3, 32, 128, 128),
}


class TestBuildGenerator:
    def test_stage1_128_structure(self):
        spec = build_generator(1, 128)
        assert len(spec.layers) == 12
        assert sum(1 for l in spec.layers if not l.params.transposed) == 6
        assert len(spec.skip_map) == 5
        for layer in spec.layers:
            assert layer.out_shape == EXPECTED_CONV_SHAPES_128[layer.name]

    def test_stage2_drops_outer_skips(self):
        spec = build_generator(2, 128)
        assert set(spec.skip_map) == {"deconv2", "deconv3", "deconv4"}
        assert spec.skip_map == {"deconv2": "conv5", "deconv3": "conv4",
                                 "deconv4": "conv3"}

    def test_stage_specs_share_parameter_shapes(self):
        s1 = build_generator(1, 128, 0.25)
        s2 = build_generator(2, 128, 0.25)
        assert [(l.name, l.in_channels, l.out_channels, l.params) for l in s1.layers] \
            == [(l.name, l.in_channels, l.out_channels, l.params) for l in s2.layers]
        assert s1.skip_map != s2.skip_map

    def test_64_resolution_variant(self):
        spec = build_generator(1, 64)
        names = [l.name for l in spec.layers]
        assert names == ["conv2", "conv3", "conv4", "conv5", "conv6",
                         "deconv1", "deconv2", "deconv3", "deconv4", "deconv5"]
        assert spec.input_shape == (3, 32, 64, 64)
        assert spec.layers[-1].out_shape == (3, 32, 64, 64)
        assert spec.layers[-1].activation == "tanh"
        assert not spec.layers[-1].batch_norm
        assert len(spec.skip_map) == 4
        assert build_generator(2, 64).skip_map == {
            "deconv2": "conv5", "deconv3": "conv4", "deconv4": "conv3"}

    def test_normalization_rules(self):
        spec = build_generator(1, 128)
        bn = {l.name: l.batch_norm for l in spec.layers}
        act = {l.name: l.activation for l in spec.layers}
        assert not bn["conv1"] and not bn["conv6"] and not bn["deconv6"]
        assert all(bn[f"conv{i}"] for i in range(2, 6))
        assert all(bn[f"deconv{i}"] for i in range(1, 6))
        assert act["conv1"] == "leaky_relu"
        assert all(act[f"deconv{i}"] == "relu" for i in range(1, 6))
        assert act["deconv6"] == "tanh"

    @pytest.mark.parametrize("stage", [1, 2])
    def test_normalization_rules_64(self, stage):
        # conv1/deconv6 are dropped, so the first and output layers shift
        # to conv2/deconv5 and neither carries batch norm
        spec = build_generator(stage, 64, 0.125)
        bn = {l.name: l.batch_norm for l in spec.layers}
        assert spec.layers[0].name == "conv2" and not bn["conv2"]
        assert not bn["conv6"] and not bn["deconv5"]
        assert all(bn[f"conv{i}"] for i in range(3, 6))
        assert all(bn[f"deconv{i}"] for i in range(1, 5))
        params = ops.init_parameters(spec, 0)
        assert "conv2.gamma" not in params.tensors
        assert "conv3.gamma" in params.tensors

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            build_generator(3, 128)
        with pytest.raises(ConfigError):
            build_generator(1, 96)
        with pytest.raises(ConfigError):
            build_generator(1, 128, width_multiplier=0.0)

    @pytest.mark.parametrize("width", [1.0, 0.5, 0.25, 0.125])
    @pytest.mark.parametrize("resolution", [128, 64])
    @pytest.mark.parametrize("stage", [1, 2])
    def test_skip_symmetry_across_widths(self, width, resolution, stage):
        spec = build_generator(stage, resolution, width)
        shapes = {l.name: l.out_shape for l in spec.layers}
        inputs = {}
        prev = spec.input_shape
        for l in spec.layers:
            inputs[l.name] = prev
            prev = l.out_shape
        for dec, enc in spec.skip_map.items():
            assert shapes[enc] == inputs[dec]

    def test_broken_table_fails_loudly(self):
        rows = list(models._generator_rows(128))
        # corrupt deconv1's temporal kernel back to the shape-inconsistent 4
        name, f, k, s, p, bn, act = rows[6]
        rows[6] = (name, f, (4, 4, 4), s, p, bn, act)
        with pytest.raises(DimensionError):
            models._assemble(rows, models._SKIPS_STAGE1, 128, 1.0, "generator", 1)


class TestBuildDiscriminator:
    def test_structure_128(self):
        spec = build_discriminator(128)
        names = [l.name for l in spec.layers]
        assert names == ["conv1", "conv2", "conv3", "conv4", "conv5", "score"]
        assert spec.layers[-1].out_shape == (1, 1, 1, 1)
        assert spec.layers[-1].activation == "sigmoid"
        assert spec.taps == ("conv1", "conv3")

    @pytest.mark.parametrize("resolution", [128, 64])
    def test_normalization_rules(self, resolution):
        spec = build_discriminator(resolution, 0.125)
        convs = spec.layers[:-1]
        assert not convs[0].batch_norm
        assert all(l.batch_norm for l in convs[1:])
        assert not spec.layers[-1].batch_norm
        assert all(l.activation == "leaky_relu" for l in convs)
        params = ops.init_parameters(spec, 0)
        assert f"{convs[0].name}.gamma" not in params.tensors

    def test_taps_64(self):
        spec = build_discriminator(64)
        assert spec.taps == ("conv2", "conv4")

    def test_encoder_matches_generator(self):
        g = build_generator(1, 128, 0.5)
        d = build_discriminator(128, 0.5)
        for dl, gl in zip(d.layers[:-1], g.layers):
            assert dl.name == gl.name
            assert (dl.params, dl.in_channels, dl.out_channels) == \
                (gl.params, gl.in_channels, gl.out_channels)


class TestDuplicateFrame:
    def test_every_slice_equals_frame(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        out = duplicate_frame(x, 32)
        assert out.shape == (2, 3, 32, 4, 4)
        for t in range(32):
            assert_array_equal(out.values[:, :, t], x)

    def test_t1_adds_singleton_axis(self):
        x = np.ones((1, 3, 2, 2), dtype=np.float32)
        assert duplicate_frame(x, 1).shape == (1, 3, 1, 2, 2)

    def test_sum_linearity(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 3, 5, 5))
        out = duplicate_frame(x, 7)
        assert_allclose(out.values.sum(), 7.0 * x.sum(), rtol=1e-12)


def tiny_generator(stage=1, seed=0, dtype=np.float32):
    spec = build_generator(stage, 64, width_multiplier=0.125)
    return spec, ops.init_parameters(spec, seed, dtype=dtype)


class TestForwardGenerator:
    def test_video_to_video_closure_and_range(self):
        spec, params = tiny_generator()
        rng = np.random.default_rng(3)
        x = Tensor(rng.uniform(-1, 1, size=(2, 3, 32, 64, 64)).astype(np.float32))
        out = forward_generator(spec, params, x)
        assert out.shape == x.shape
        assert np.all(out.values > -1.0) and np.all(out.values < 1.0)

    def test_zero_weights_still_finite(self):
        spec, params = tiny_generator()
        for name, t in params.tensors.items():
            if name.endswith(".weight"):
                t.values[...] = 0.0
        x = Tensor(np.zeros((2, 3, 32, 64, 64), dtype=np.float32))
        out = forward_generator(spec, params, x)
        assert np.all(np.isfinite(out.values))

    def test_shape_mismatch_rejected(self):
        spec, params = tiny_generator()
        with pytest.raises(DimensionError):
            forward_generator(spec, params,
                              Tensor(np.zeros((1, 3, 32, 32, 32), dtype=np.float32)))


def drawn_generator(resolution, width, dtype, seed=0):
    """A stage-1 generator whose biases, betas and running statistics are
    drawn away from 0 and 1, so that inference batch norm and every bias
    reach the output."""
    spec = build_generator(1, resolution, width)
    params = ops.init_parameters(spec, seed, dtype=dtype)
    rng = np.random.default_rng(seed)
    for name, t in params.tensors.items():
        if name.endswith((".bias", ".beta")):
            t.values[...] = rng.normal(0.0, 0.1, t.values.shape)
    for name, b in params.buffers.items():
        b[...] = (rng.uniform(0.2, 0.8, b.shape) if name.endswith("var")
                  else rng.normal(0.0, 0.1, b.shape))
    return spec, params


def conv_frame_counts(monkeypatch):
    """Record the frame count of every conv3d input the generator runs."""
    counts = []

    def spy(x, weight, bias, params):
        counts.append(x.shape[2])
        return ops.conv3d(x, weight, bias, params)

    monkeypatch.setattr(models, "conv3d", spy)
    return counts


def bits(a):
    return a.view(f"u{a.itemsize}")


def assert_forwards_bitwise_equal(spec, params, x, mode, monkeypatch):
    """Forward ``x`` without a tape and, on cloned parameters, with one (the
    full path); require equal bits in the video and in every running buffer.
    Returns the conv input frame counts of the two passes."""
    taped_params = params.clone()
    counts = conv_frame_counts(monkeypatch)
    update = mode == "train"
    with T.no_grad():
        fast = forward_generator(spec, params, x, mode=mode, update_running=update)
    n_fast = len(counts)
    full = forward_generator(spec, taped_params, x, mode=mode, update_running=update)
    assert full.requires_grad and not fast.requires_grad
    assert_array_equal(bits(fast.values), bits(full.values))
    for name, buf in params.buffers.items():
        assert_array_equal(bits(buf), bits(taped_params.buffers[name]), err_msg=name)
    return counts[:n_fast], counts[n_fast:]


class TestShortEncoderPath:
    """A tape-free forward over a duplicated frame runs the leading encoder
    convs on short clips; outputs and running statistics keep every bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["inference", "train"])
    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("resolution,width", [(64, 0.125), (128, 0.25)])
    def test_duplicated_frame_matches_full_path(self, resolution, width, batch,
                                                mode, dtype, monkeypatch):
        spec, params = drawn_generator(resolution, width, dtype)
        rng = np.random.default_rng(batch)
        frame = rng.uniform(-1, 1, (batch, 3, resolution, resolution)).astype(dtype)
        short, full = assert_forwards_bitwise_equal(
            spec, params, duplicate_frame(frame, 32), mode, monkeypatch)
        # conv1 reads 3 frames, conv2-conv4 read [f, i, i, i, i, l], conv5
        # onward run as before (64 resolution has no conv1)
        assert short == [3, 6, 6, 6, 4, 2][-len(full):]
        assert full == [32, 32, 16, 8, 4, 2][-len(full):]

    def test_full_scale(self, monkeypatch):
        spec, params = drawn_generator(128, 1.0, np.float32)
        frame = np.random.default_rng(7).uniform(-1, 1, (1, 3, 128, 128))
        short, _ = assert_forwards_bitwise_equal(
            spec, params, duplicate_frame(frame, 32), "train", monkeypatch)
        assert short[0] == 3

    @pytest.mark.parametrize("odd", ["negative_zero", "nan"])
    def test_frames_differing_in_bits_take_full_path(self, odd, monkeypatch):
        spec, params = drawn_generator(128, 0.25, np.float32)
        x = np.zeros((1, 3, 32, 128, 128), np.float32)
        x[0, 1, 5, 7, 9] = -0.0 if odd == "negative_zero" else np.nan
        counts = conv_frame_counts(monkeypatch)
        with T.no_grad():
            forward_generator(spec, params, Tensor(x), mode="inference",
                              update_running=False)
        assert counts[0] == 32


class TestForwardDiscriminator:
    def test_score_and_tap_shapes(self):
        spec = build_discriminator(64, 0.125)
        params = ops.init_parameters(spec, 1)
        rng = np.random.default_rng(4)
        v = Tensor(rng.uniform(-1, 1, (2, 3, 32, 64, 64)).astype(np.float32))
        score, feats = forward_discriminator(spec, params, v)
        assert score.shape == (2, 1)
        assert np.all(score.values > 0) and np.all(score.values < 1)
        assert feats[0].shape == (2, 8, 16, 32, 32)   # conv2 tap at 1/8 width
        assert feats[1].shape == (2, 32, 4, 8, 8)     # conv4 tap

    def test_tap_shapes_full_width_formula(self):
        layers = {l.name: l for l in build_discriminator(128).layers}
        assert layers["conv1"].out_shape == (32, 32, 64, 64)
        assert layers["conv3"].out_shape == (128, 8, 16, 16)


class TestEndToEnd:
    def test_composite_gradcheck(self):
        # gradient of D(G(X)) score through both nets at f64, sampled probes
        gspec = build_generator(2, 64, 0.125)
        dspec = build_discriminator(64, 0.125)
        gp = ops.init_parameters(gspec, 11, dtype=np.float64)
        dp = ops.init_parameters(dspec, 12, dtype=np.float64)
        rng = np.random.default_rng(5)
        x0 = rng.uniform(-0.5, 0.5, (1, 3, 32, 64, 64))

        def f(v):
            y = forward_generator(gspec, gp, v, update_running=False)
            score, _ = forward_discriminator(dspec, dp, y)
            return T.log(score).sum()

        err = grad_check(f, Tensor(x0), step=1e-5,
                           floor=1e-3, sample=6, rng=np.random.default_rng(0))
        assert err < 1e-4


class TestSummary:
    def test_format_lists_all_layers(self):
        spec = build_generator(1, 128)
        text = format_spec(spec)
        for l in spec.layers:
            assert l.name in text
        assert "conv5" in text and "(3, 32, 128, 128)" in text

    def test_parameter_count_positive(self):
        assert parameter_count(build_generator(1, 64, 0.125)) > 0
