import sys
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import desk_config
from gradcheck import grad_check
from lapsegan import ops, tensor as T
from lapsegan.errors import ContractError, DimensionError
from lapsegan.ops import BatchNormState, ConvParams
from lapsegan.tensor import Tensor
from lapsegan.training import train_stage1, train_stage2


def t64(x, rg=False):
    return Tensor(np.asarray(x, dtype=np.float64), requires_grad=rg)


def rand64(rng, shape, rg=False):
    return Tensor(rng.standard_normal(shape), requires_grad=rg)


def conv3d_loop_oracle(x, w, b, stride, pad):
    """Direct 7-deep loop cross-correlation, the independent reference."""
    n, cin, ti, hi, wi = x.shape
    cout = w.shape[0]
    kt, kh, kw = w.shape[2:]
    st, sh, sw = stride
    pt, ph, pw = pad
    xp = np.pad(x, ((0, 0), (0, 0), (pt, pt), (ph, ph), (pw, pw)))
    to = (ti + 2 * pt - kt) // st + 1
    ho = (hi + 2 * ph - kh) // sh + 1
    wo = (wi + 2 * pw - kw) // sw + 1
    out = np.zeros((n, cout, to, ho, wo))
    for ni in range(n):
        for co in range(cout):
            for a in range(to):
                for bb in range(ho):
                    for c in range(wo):
                        patch = xp[ni, :, a * st:a * st + kt,
                                   bb * sh:bb * sh + kh, c * sw:c * sw + kw]
                        out[ni, co, a, bb, c] = (patch * w[co]).sum() + b[co]
    return out


class TestConv3d:
    def test_table_row_conv1_shape(self):
        # 128-res first layer: 32 filters, k=(3,4,4), s=(1,2,2), p=(1,1,1)
        p = ConvParams(32, (3, 4, 4), (1, 2, 2), (1, 1, 1))
        assert ops.conv_output_shape((32, 128, 128), p) == (32, 64, 64)
        x = Tensor(np.zeros((1, 3, 32, 128, 128), dtype=np.float32))
        w = Tensor(np.zeros((32, 3, 3, 4, 4), dtype=np.float32))
        b = Tensor(np.zeros(32, dtype=np.float32))
        assert ops.conv3d(x, w, b, p).shape == (1, 32, 32, 64, 64)

    def test_scalar_affine(self):
        p = ConvParams(1, (1, 1, 1))
        out = ops.conv3d(t64(np.full((1, 1, 1, 1, 1), 2.0)),
                         t64(np.full((1, 1, 1, 1, 1), 3.0)),
                         t64([1.0]), p)
        assert out.item() == 7.0

    def test_all_ones_cube(self):
        p = ConvParams(1, (2, 2, 2))
        x = t64(np.ones((1, 1, 2, 2, 2)), rg=True)
        w = t64(np.ones((1, 1, 2, 2, 2)), rg=True)
        b = t64([0.0], rg=True)
        out = ops.conv3d(x, w, b, p)
        assert out.shape == (1, 1, 1, 1, 1)
        assert out.item() == 8.0
        err_x = grad_check(lambda v: ops.conv3d(v, t64(w.values), t64(b.values), p).sum(), x)
        err_w = grad_check(lambda v: ops.conv3d(t64(x.values), v, t64(b.values), p).sum(), w)
        err_b = grad_check(lambda v: ops.conv3d(t64(x.values), t64(w.values), v, p).sum(), b)
        assert max(err_x, err_w, err_b) < 1e-6

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 5, 6, 7))
        w = rng.standard_normal((4, 3, 3, 2, 3))
        b = rng.standard_normal(4)
        p = ConvParams(4, (3, 2, 3), (2, 1, 2), (1, 1, 0))
        out = ops.conv3d(t64(x), t64(w), t64(b), p)
        assert_allclose(out.values, conv3d_loop_oracle(x, w, b, p.stride, p.padding),
                        atol=1e-12)

    def test_gradcheck_all_arguments(self):
        rng = np.random.default_rng(1)
        x = rand64(rng, (2, 2, 4, 5, 5))
        w = rand64(rng, (3, 2, 2, 3, 3))
        b = rand64(rng, (3,))
        p = ConvParams(3, (2, 3, 3), (1, 2, 2), (1, 1, 1))

        def sq(v):
            return (v * v).sum()

        assert grad_check(lambda v: sq(ops.conv3d(v, w, b, p)), x) < 1e-5
        assert grad_check(lambda v: sq(ops.conv3d(x, v, b, p)), w) < 1e-5
        assert grad_check(lambda v: sq(ops.conv3d(x, w, v, p)), b) < 1e-5

    def test_channel_mismatch(self):
        p = ConvParams(2, (1, 1, 1))
        with pytest.raises(DimensionError):
            ops.conv3d(t64(np.zeros((1, 3, 2, 2, 2))),
                       t64(np.zeros((2, 4, 1, 1, 1))), t64(np.zeros(2)), p)

    def test_empty_output(self):
        p = ConvParams(1, (4, 4, 4))
        with pytest.raises(DimensionError):
            ops.conv3d(t64(np.zeros((1, 1, 2, 8, 8))),
                       t64(np.zeros((1, 1, 4, 4, 4))), t64(np.zeros(1)), p)


class TestDeconv3d:
    def test_bottleneck_expansion_shape(self):
        # resolved first decoder layer: 512 filters, k=(2,4,4), s=1, p=0
        p = ConvParams(512, (2, 4, 4), (1, 1, 1), (0, 0, 0), transposed=True)
        assert ops.deconv_output_shape((1, 1, 1), p) == (2, 4, 4)

    def test_table_row_deconv6_shape(self):
        p = ConvParams(3, (3, 4, 4), (1, 2, 2), (1, 1, 1), transposed=True)
        assert ops.deconv_output_shape((32, 64, 64), p) == (32, 128, 128)

    def test_single_voxel_spreads(self):
        p = ConvParams(1, (2, 3, 3), (1, 1, 1), (0, 0, 0), transposed=True)
        x = t64(np.full((1, 1, 1, 1, 1), 4.25))
        w = t64(np.ones((1, 1, 2, 3, 3)))
        out = ops.deconv3d(x, w, t64([0.0]), p)
        assert out.shape == (1, 1, 2, 3, 3)
        assert_array_equal(out.values, np.full((1, 1, 2, 3, 3), 4.25))

    def test_adjoint_of_conv(self):
        # <conv(x, w), y> == <x, deconv(y, w)> for zero bias
        rng = np.random.default_rng(7)
        for _ in range(8):
            k = tuple(rng.integers(1, 4, size=3))
            s = tuple(rng.integers(1, 3, size=3))
            p = tuple(rng.integers(0, 2, size=3))
            out_sp = tuple(rng.integers(1, 4, size=3))
            in_sp = tuple((o - 1) * si + ki - 2 * pi
                          for o, si, ki, pi in zip(out_sp, s, k, p))
            if any(m < 1 or m + 2 * pi < ki for m, pi, ki in zip(in_sp, p, k)):
                continue
            cin, cout, n = 2, 3, 2
            x = rng.standard_normal((n, cin) + in_sp)
            y = rng.standard_normal((n, cout) + out_sp)
            w = rng.standard_normal((cout, cin) + k)
            cp = ConvParams(cout, k, s, p)
            dp = ConvParams(cin, k, s, p, transposed=True)
            lhs = (ops.conv3d(t64(x), t64(w), t64(np.zeros(cout)), cp).values * y).sum()
            rhs = (ops.deconv3d(t64(y), t64(w), t64(np.zeros(cin)), dp).values * x).sum()
            assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))

    def test_gradcheck_all_arguments(self):
        rng = np.random.default_rng(3)
        x = rand64(rng, (2, 3, 2, 3, 3))
        w = rand64(rng, (3, 2, 2, 3, 3))
        b = rand64(rng, (2,))
        p = ConvParams(2, (2, 3, 3), (2, 2, 2), (1, 1, 1), transposed=True)

        def sq(v):
            return (v * v).sum()

        assert grad_check(lambda v: sq(ops.deconv3d(v, w, b, p)), x) < 1e-5
        assert grad_check(lambda v: sq(ops.deconv3d(x, v, b, p)), w) < 1e-5
        assert grad_check(lambda v: sq(ops.deconv3d(x, w, v, p)), b) < 1e-5

    def test_empty_output(self):
        p = ConvParams(1, (1, 1, 1), (1, 1, 1), (1, 1, 1), transposed=True)
        with pytest.raises(DimensionError):
            ops.deconv3d(t64(np.zeros((1, 1, 2, 2, 2))),
                         t64(np.zeros((1, 1, 1, 1, 1))), t64(np.zeros(1)), p)


def make_bn_state(c, dtype=np.float64, gamma=None, beta=None):
    return BatchNormState(
        gamma=Tensor(np.ones(c, dtype) if gamma is None else np.asarray(gamma, dtype),
                     requires_grad=True),
        beta=Tensor(np.zeros(c, dtype) if beta is None else np.asarray(beta, dtype),
                    requires_grad=True),
        running_mean=np.zeros(c, dtype),
        running_var=np.ones(c, dtype),
    )


class TestBatchNorm:
    def test_constant_input_goes_to_beta(self):
        st = make_bn_state(2, beta=[0.5, 0.5])
        x = t64(np.full((2, 2, 2, 2, 2), 3.0))
        out = ops.batchnorm3d(x, st, "train")
        assert_allclose(out.values, 0.5, atol=1e-3)

    def test_two_point_standardization(self):
        st = make_bn_state(1)
        vals = np.zeros((2, 1, 1, 1, 1))
        vals[1] = 2.0
        out = ops.batchnorm3d(t64(vals), st, "train")
        assert_allclose(out.values.ravel(), np.array([-1.0, 1.0]) / np.sqrt(1.0 + ops.BN_EPS),
                        atol=1e-6)

    def test_train_moments(self):
        rng = np.random.default_rng(5)
        x = t64(rng.standard_normal((3, 4, 2, 5, 5)) * 2.0 + 1.0)
        st = make_bn_state(4)
        out = ops.batchnorm3d(x, st, "train")
        mu = out.values.mean(axis=(0, 2, 3, 4))
        var = out.values.var(axis=(0, 2, 3, 4))
        assert np.abs(mu).max() < 1e-5
        assert np.abs(var - 1.0).max() < 1e-3

    def test_running_stat_update(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 3, 2, 4, 4)) + 5.0
        st = make_bn_state(3)
        ops.batchnorm3d(t64(x), st, "train")
        mu = x.mean(axis=(0, 2, 3, 4))
        var = x.var(axis=(0, 2, 3, 4))
        assert_allclose(st.running_mean, 0.9 * 0.0 + 0.1 * mu, rtol=1e-10)
        assert_allclose(st.running_var, 0.9 * 1.0 + 0.1 * var, rtol=1e-10)
        # frozen forward leaves them untouched
        before = st.running_mean.copy()
        ops.batchnorm3d(t64(x), st, "train", update_running=False)
        assert_array_equal(st.running_mean, before)

    def test_state_without_running_stats(self):
        # a discriminator's state: batch statistics only, no running averages
        rng = np.random.default_rng(9)
        x = t64(rng.standard_normal((2, 3, 2, 4, 4)) + 5.0)
        full = make_bn_state(3)
        st = BatchNormState(gamma=full.gamma, beta=full.beta)
        assert_array_equal(ops.batchnorm3d(x, st, "train", update_running=False).values,
                           ops.batchnorm3d(x, full, "train", update_running=False).values)
        for mode, update in (("train", True), ("inference", False)):
            with pytest.raises(ContractError, match="no running statistics"):
                ops.batchnorm3d(x, st, mode, update_running=update)
        with pytest.raises(DimensionError, match="both running statistics or neither"):
            BatchNormState(gamma=full.gamma, beta=full.beta, running_mean=np.zeros(3))

    def test_inference_uses_running_stats(self):
        st = make_bn_state(1)
        st.running_mean[:] = 2.0
        st.running_var[:] = 4.0
        x = t64(np.full((1, 1, 1, 2, 2), 4.0))
        out = ops.batchnorm3d(x, st, "inference")
        assert_allclose(out.values, (4.0 - 2.0) / np.sqrt(4.0 + ops.BN_EPS), rtol=1e-12)

    def test_train_backward_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        x = rand64(rng, (2, 2, 2, 3, 3))
        gamma0 = rng.standard_normal(2) * 0.1 + 1.0
        beta0 = rng.standard_normal(2) * 0.1
        # fixed random functional; sum(out^2) is nearly x-independent for
        # train-mode normalization, so it cannot probe the backward rule
        probe = t64(rng.standard_normal((2, 2, 2, 3, 3)))

        def run(xv, gv, bv):
            st = BatchNormState(gamma=gv, beta=bv,
                                running_mean=np.zeros(2), running_var=np.ones(2))
            out = ops.batchnorm3d(xv, st, "train", update_running=False)
            return (out * probe + out * out * probe).sum()

        err_x = grad_check(lambda v: run(v, t64(gamma0), t64(beta0)), x)
        err_g = grad_check(lambda v: run(t64(x.values), v, t64(beta0)), t64(gamma0))
        err_b = grad_check(lambda v: run(t64(x.values), t64(gamma0), v), t64(beta0))
        assert max(err_x, err_g, err_b) < 1e-5

    def test_inference_backward_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        x = rand64(rng, (1, 2, 2, 3, 3))

        def run(xv):
            st = make_bn_state(2)
            st.running_mean[:] = [0.3, -0.2]
            st.running_var[:] = [1.5, 0.7]
            return (ops.batchnorm3d(xv, st, "inference") * ops.batchnorm3d(xv, st, "inference")).sum()

        assert grad_check(run, x) < 1e-5

    def test_singleton_train_set_rejected(self):
        st = make_bn_state(3)
        with pytest.raises(ContractError):
            ops.batchnorm3d(t64(np.zeros((1, 3, 1, 1, 1))), st, "train")


class TestActivations:
    def test_leaky_relu_slope(self):
        out = ops.activation("leaky_relu", t64([-1.0, 2.0]))
        assert_allclose(out.values, [-0.2, 2.0], rtol=1e-12)

    def test_sigmoid_half(self):
        assert ops.activation("sigmoid", t64([0.0])).item() == 0.5

    def test_sigmoid_strictly_inside_unit_interval(self):
        for dtype in (np.float32, np.float64):
            x = Tensor(np.array([-1e4, -50.0, 0.0, 50.0, 1e4], dtype=dtype))
            y = ops.activation("sigmoid", x).values
            assert np.all(y > 0.0) and np.all(y < 1.0)

    def test_tanh_strictly_inside(self):
        x = Tensor(np.array([-1e4, 1e4], dtype=np.float32))
        y = ops.activation("tanh", x).values
        assert np.all(y > -1.0) and np.all(y < 1.0)

    def test_tanh_gradient_at_zero(self):
        x = t64([0.0], rg=True)
        T.backward(ops.activation("tanh", x).sum())
        assert_allclose(x.grad, [1.0], rtol=1e-12)
        assert grad_check(lambda v: ops.activation("tanh", v).sum(), t64([0.0])) < 1e-6

    @pytest.mark.parametrize("kind", ["leaky_relu", "relu", "tanh", "sigmoid"])
    def test_gradcheck(self, kind):
        rng = np.random.default_rng(12)
        x = Tensor(rng.standard_normal(40) + np.where(rng.random(40) < 0.5, -0.5, 0.5))
        x = t64(x.values)  # away from kinks by construction offset
        err = grad_check(lambda v: (ops.activation(kind, v)
                                      * ops.activation(kind, v)).sum(), x)
        assert err < 1e-5


class _Layer:
    def __init__(self, name, params, in_channels, batch_norm):
        self.name = name
        self.params = params
        self.in_channels = in_channels
        self.out_channels = params.num_filters
        self.batch_norm = batch_norm


class _Spec:
    def __init__(self, layers):
        self.layers = layers
        self.kind = "generator"


class TestInit:
    def make_spec(self):
        return _Spec([
            _Layer("conv1", ConvParams(100, (1, 4, 4)), 100, True),
            _Layer("deconv1", ConvParams(8, (2, 2, 2), transposed=True), 4, False),
        ])

    def test_deterministic_under_seed(self):
        a = ops.init_parameters(self.make_spec(), seed=123)
        b = ops.init_parameters(self.make_spec(), seed=123)
        for k in a.tensors:
            assert_array_equal(a.tensors[k].values, b.tensors[k].values)

    def test_statistics(self):
        ps = ops.init_parameters(self.make_spec(), seed=7)
        w = ps.tensors["conv1.weight"].values
        assert w.size == 100 * 100 * 16
        bound = 3.0 * 0.02 / np.sqrt(w.size)
        assert abs(w.mean()) < bound
        assert abs(w.std() - 0.02) < 0.001

    def test_biases_zero_and_bn_defaults(self):
        ps = ops.init_parameters(self.make_spec(), seed=7)
        assert_array_equal(ps.tensors["conv1.bias"].values, np.zeros(100, np.float32))
        assert_array_equal(ps.tensors["conv1.beta"].values, np.zeros(100, np.float32))
        assert_array_equal(ps.buffers["conv1.running_var"], np.ones(100, np.float32))
        assert abs(ps.tensors["conv1.gamma"].values.mean() - 1.0) < 0.01
        assert "deconv1.gamma" not in ps.tensors

    def test_transposed_weight_layout(self):
        ps = ops.init_parameters(self.make_spec(), seed=7)
        assert ps.tensors["deconv1.weight"].shape == (4, 8, 2, 2, 2)


class TestShapeFormulaProperty:
    def test_randomized_draws(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            n = int(rng.integers(1, 20))
            k = int(rng.integers(1, 5))
            s = int(rng.integers(1, 4))
            p = int(rng.integers(0, 3))
            if n + 2 * p >= k:
                out = ops.conv_output_extent(n, k, s, p)
                assert out == (n + 2 * p - k) // s + 1 and out >= 1
                if (out - 1) * s - 2 * p + k >= 1:
                    back = ops.deconv_output_extent(out, k, s, p)
                    assert back == (out - 1) * s - 2 * p + k
                else:
                    with pytest.raises(DimensionError):
                        ops.deconv_output_extent(out, k, s, p)


# -- the strided im2col/col2im kernels that the phase layout replaced, kept here
# as the bitwise reference for it

def strided_im2col(xp, kernel, stride, out_spatial):
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


def strided_col2im(cols, channels, kernel, stride, in_spatial, padded_spatial, dtype):
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


def _crop(v, padding):
    return v[(Ellipsis,) + tuple(slice(p, e - p) for p, e in zip(padding, v.shape[2:]))]


def _zero_plus(like, g):
    """A first gradient accumulation as the strided kernels' tape did it."""
    out = np.zeros_like(like)
    out += g
    return out


def strided_conv3d(x, w, b, params, g):
    """Output, then dx, dw, db for upstream gradient g, the way conv3d
    computed them on the strided kernels."""
    n, (c_out, c_in) = x.shape[0], w.shape[:2]
    out_spatial = ops.conv_output_shape(x.shape[2:], params)
    xp = np.pad(x, ((0, 0), (0, 0)) + tuple((p, p) for p in params.padding))
    cols = strided_im2col(xp, params.kernel, params.stride, out_spatial)
    w_mat = w.reshape(c_out, -1)
    out = (w_mat[None] @ cols + b[None, :, None]).reshape((n, c_out) + out_spatial)
    g_mat = g.reshape(n, c_out, -1)
    dcols = w_mat.T[None] @ g_mat
    dxp = strided_col2im(dcols, c_in, params.kernel, params.stride, out_spatial,
                         xp.shape[2:], g.dtype)
    dw = (g_mat @ cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    return (out, _zero_plus(x, _crop(dxp, params.padding)), _zero_plus(w, dw),
            _zero_plus(b, g_mat.sum(axis=(0, 2))))


def strided_deconv3d(x, w, b, params, g):
    n, (c_in, c_out) = x.shape[0], w.shape[:2]
    in_spatial = x.shape[2:]
    padded = tuple((m - 1) * s + k for m, s, k in
                   zip(in_spatial, params.stride, params.kernel))
    x_mat = x.reshape(n, c_in, -1)
    w_mat = w.reshape(c_in, -1)
    full = strided_col2im(w_mat.T[None] @ x_mat, c_out, params.kernel,
                          params.stride, in_spatial, padded, x.dtype)
    out = _crop(full, params.padding) + b[None, :, None, None, None]
    gp = np.pad(g, ((0, 0), (0, 0)) + tuple((p, p) for p in params.padding))
    gcols = strided_im2col(gp, params.kernel, params.stride, in_spatial)
    dw = (x_mat @ gcols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    dx = (w_mat[None] @ gcols).reshape(x.shape)
    return (out, _zero_plus(x, dx), _zero_plus(w, dw),
            _zero_plus(b, g.sum(axis=(0, 2, 3, 4))))


def assert_matches_strided(params, n, c_in, c_out, spatial, dtype, rng):
    transposed = params.transposed
    wshape = ((c_in, c_out) if transposed else (c_out, c_in)) + tuple(params.kernel)
    x = rng.standard_normal((n, c_in) + tuple(spatial)).astype(dtype)
    w = rng.standard_normal(wshape).astype(dtype)
    b = rng.standard_normal(c_out).astype(dtype)
    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
    out = (ops.deconv3d if transposed else ops.conv3d)(xt, wt, bt, params)
    g = rng.standard_normal(out.shape).astype(dtype)
    out._backward(g)
    want = (strided_deconv3d if transposed else strided_conv3d)(x, w, b, params, g)
    for got, ref in zip((out.values, xt.grad, wt.grad, bt.grad), want):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert_array_equal(got, ref)


def _net_geometries(resolution):
    """(params, input spatial extent) of every conv/deconv layer of the
    generators and discriminator at one resolution."""
    from lapsegan.models import build_discriminator, build_generator
    seen = []
    for spec in (build_generator(1, resolution), build_generator(2, resolution),
                 build_discriminator(resolution)):
        spatial = spec.input_shape[1:]
        for layer in spec.layers:
            if (layer.params, spatial) not in seen:
                seen.append((layer.params, spatial))
            spatial = layer.out_shape[1:]
    return seen


class TestPhaseLayoutMatchesStrided:
    """conv3d/deconv3d on the stride-phase grid give bitwise the output and
    gradients of the strided im2col/col2im kernels."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_random_geometries(self, dtype):
        rng = np.random.default_rng(2024)
        ragged = wide_pad = 0
        for _ in range(200):
            kernel = tuple(int(k) for k in rng.integers(1, 6, 3))
            stride = tuple(int(s) for s in rng.integers(1, 4, 3))
            padding = tuple(int(rng.integers(0, k + 1)) for k in kernel)
            n, c_in, c_out = (int(v) for v in rng.integers(1, 3, 3))
            transposed = bool(rng.integers(2))
            spatial = []
            for k, s, p in zip(kernel, stride, padding):
                lo = 1 if transposed else max(1, k - 2 * p)
                m = int(rng.integers(lo, lo + 5))
                while transposed and (m - 1) * s - 2 * p + k < 1:
                    m += 1
                spatial.append(m)
            params = ConvParams(c_out, kernel, stride, padding, transposed=transposed)
            assert_matches_strided(params, n, c_in, c_out, spatial, dtype, rng)
            ragged += any(k % s for k, s in zip(kernel, stride))
            wide_pad += any(p >= k - 1 for k, p in zip(kernel, padding))
        assert ragged > 50 and wide_pad > 50

    @pytest.mark.parametrize("resolution", [64, 128])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_network_layers(self, resolution, dtype):
        rng = np.random.default_rng(resolution)
        geometries = _net_geometries(resolution)
        assert len(geometries) >= 10
        for params, spatial in geometries:
            large = np.prod(spatial) > 2 ** 15
            c_in, c_out = (1, 1) if large else (2, 3)
            params = ConvParams(c_out, params.kernel, params.stride, params.padding,
                                transposed=params.transposed)
            assert_matches_strided(params, 1, c_in, c_out, spatial, dtype, rng)


class TestConvDeconvPairing:
    """deconv3d's forward is conv3d's input gradient, and deconv3d's input
    gradient is conv3d's forward, bit for bit in float32."""

    @pytest.mark.parametrize("resolution", [64, 128])
    def test_network_layers(self, resolution):
        rng = np.random.default_rng(resolution)

        def f32(shape):
            return rng.standard_normal(shape).astype(np.float32)

        def zeros(c):
            return Tensor(np.zeros(c, dtype=np.float32))

        for params, spatial in _net_geometries(resolution):
            if params.transposed:  # pair it with the conv whose output it takes
                spatial = ops.deconv_output_shape(spatial, params)
            c_in, c_out = (1, 1) if np.prod(spatial) > 2 ** 15 else (2, 3)
            geometry = (params.kernel, params.stride, params.padding)
            conv = ConvParams(c_out, *geometry)
            deconv = ConvParams(c_in, *geometry, transposed=True)
            w = Tensor(f32((c_out, c_in) + params.kernel))

            x = Tensor(f32((2, c_in) + tuple(spatial)), requires_grad=True)
            out = ops.conv3d(x, w, zeros(c_out), conv)
            y = f32(out.shape)
            out._backward(y)
            up = ops.deconv3d(Tensor(y), w, zeros(c_in), deconv).values
            assert up.dtype == x.grad.dtype == np.float32
            assert np.array_equal(up, x.grad), (params, spatial)

            yt = Tensor(y, requires_grad=True)
            g = f32(x.shape)
            ops.deconv3d(yt, w, zeros(c_in), deconv)._backward(g)
            down = ops.conv3d(Tensor(g), w, zeros(c_out), conv).values
            assert down.dtype == yt.grad.dtype == np.float32
            assert np.array_equal(down, yt.grad), (params, spatial)


# -- the whole-buffer kernels that the column blocks replaced, kept here as
# the bitwise reference for them

def whole_im2col(v, params, windows):
    n, c = v.shape[:2]
    extents, slices = ops._phase_layout(v.shape[2:], params)
    grid = np.zeros((n, c) + tuple(params.stride) + extents, dtype=v.dtype)
    for gi, vi in slices:
        grid[gi] = v[vi]
    cols = np.empty((n, c) + tuple(params.kernel) + tuple(windows), dtype=v.dtype)
    for a, b, d in np.ndindex(*params.kernel):
        cols[:, :, a, b, d] = grid[whole_tap(params.stride, (a, b, d), windows)]
    return cols.reshape(n, c * int(np.prod(params.kernel)), -1)


def whole_tap(stride, kernel_offset, extents):
    phase = tuple(k % s for k, s in zip(kernel_offset, stride))
    blocks = tuple(slice(k // s, k // s + e)
                   for k, s, e in zip(kernel_offset, stride, extents))
    return (slice(None), slice(None)) + phase + blocks


def whole_correlate_adjoint(w_mat, g_mat, channels, params, windows, spatial):
    n = g_mat.shape[0]
    kernel, stride = params.kernel, params.stride
    cols = w_mat.T[None] @ g_mat
    cols = cols.reshape((n, channels) + tuple(kernel) + tuple(windows))
    extents, slices = ops._phase_layout(spatial, params)
    grid = np.zeros((n, channels) + tuple(stride) + extents, dtype=g_mat.dtype)
    for a, b, d in np.ndindex(*kernel):
        grid[whole_tap(stride, (a, b, d), windows)] += cols[:, :, a, b, d]
    v = np.empty((n, channels) + tuple(spatial), dtype=grid.dtype)
    for gi, vi in slices:
        v[vi] = grid[gi]
    return v


def whole_weight_gradient(lhs, cols):
    dw = lhs @ cols.transpose(0, 2, 1)
    return dw[0] if len(dw) == 1 else dw.sum(axis=0)


def whole_conv3d(x, w, b, params, g):
    """Output, then dx, dw, db for upstream gradient g, the way conv3d
    computed them on whole column buffers."""
    n, (c_out, c_in) = x.shape[0], w.shape[:2]
    out_spatial = ops.conv_output_shape(x.shape[2:], params)
    cols = whole_im2col(x, params, out_spatial)
    w_mat = w.reshape(c_out, -1)
    out = w_mat[None] @ cols
    out += b[None, :, None]
    g_mat = g.reshape(n, c_out, -1)
    dx = whole_correlate_adjoint(w_mat, g_mat, c_in, params, out_spatial, x.shape[2:])
    dw = whole_weight_gradient(g_mat, cols).reshape(w.shape)
    return (out.reshape((n, c_out) + out_spatial), _zero_plus(x, dx), _zero_plus(w, dw),
            _zero_plus(b, g_mat.sum(axis=(0, 2))))


def whole_deconv3d(x, w, b, params, g):
    n, (c_in, c_out) = x.shape[0], w.shape[:2]
    in_spatial = x.shape[2:]
    x_mat = x.reshape(n, c_in, -1)
    w_mat = w.reshape(c_in, -1)
    out = whole_correlate_adjoint(w_mat, x_mat, c_out, params, in_spatial,
                                  ops.deconv_output_shape(in_spatial, params))
    out += b[None, :, None, None, None]
    gcols = whole_im2col(g, params, in_spatial)
    dw = whole_weight_gradient(x_mat, gcols).reshape(w.shape)
    dx = (w_mat[None] @ gcols).reshape(x.shape)
    return (out, _zero_plus(x, dx), _zero_plus(w, dw),
            _zero_plus(b, g.sum(axis=(0, 2, 3, 4))))


def _net_layers(resolution, width):
    """(params, C_in, C_out, input spatial extent) of every distinct
    conv/deconv layer of G1, G2 and D at one resolution and width."""
    from lapsegan.models import build_discriminator, build_generator
    seen = []
    for spec in (build_generator(1, resolution, width), build_generator(2, resolution, width),
                 build_discriminator(resolution, width)):
        spatial = spec.input_shape[1:]
        for layer in spec.layers:
            key = (layer.params, layer.in_channels, layer.out_channels, tuple(spatial))
            if key not in seen:
                seen.append(key)
            spatial = layer.out_shape[1:]
    return seen


class TestColumnBlocksMatchWholeBuffer:
    """conv3d/deconv3d, gathering and scattering columns a bounded block at
    a time, give bitwise the float32 output and gradients of the kernels that
    built each whole column buffer, on every layer of the networks. No 64x64
    layer reaches ``ops._BLOCK``, so those run under a bound they exceed."""

    @pytest.mark.parametrize("resolution, width, batch, bound, only_split", [
        (64, 1 / 8, 1, 1 << 21, False), (64, 1 / 8, 2, 1 << 21, False),
        (128, 1 / 4, 2, None, False), (128, 1, 1, None, True)])
    def test_network_layers(self, monkeypatch, resolution, width, batch, bound, only_split):
        if bound is not None:
            monkeypatch.setattr(ops, "_BLOCK", bound)
        blocks = []
        real_im2col, real_col2im = ops._im2col, ops._col2im

        def im2col(grid, params, origins, *buffers):
            blocks.append(("gather", grid.shape[1], len(origins[0])))
            return real_im2col(grid, params, origins, *buffers)

        def col2im(cols, params, windows, out, *buffers):
            blocks.append(("scatter", out.shape[1], None))
            return real_col2im(cols, params, windows, out, *buffers)

        monkeypatch.setattr(ops, "_im2col", im2col)
        monkeypatch.setattr(ops, "_col2im", col2im)
        rng = np.random.default_rng(resolution + batch)
        split = {"frames": 0, "weight channels": 0, "adjoint channels": 0}
        for params, c_in, c_out, spatial in _net_layers(resolution, width):
            transposed = params.transposed
            wshape = ((c_in, c_out) if transposed else (c_out, c_in)) + tuple(params.kernel)
            x, w, b = (rng.standard_normal(s).astype(np.float32)
                       for s in ((batch, c_in) + spatial, wshape, (c_out,)))
            xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
            blocks.clear()
            out = (ops.deconv3d if transposed else ops.conv3d)(xt, wt, bt, params)
            g = rng.standard_normal(out.shape).astype(np.float32)
            out._backward(g)
            gathered, frames = (c_out, spatial[0]) if transposed else (c_in, out.shape[2])
            scattered = c_out if transposed else c_in
            layer_split = {
                "frames": any(k == "gather" and t < frames for k, _, t in blocks),
                "weight channels": any(k == "gather" and c < gathered for k, c, _ in blocks),
                "adjoint channels": any(k == "scatter" and c < scattered for k, c, _ in blocks)}
            for axis, did in layer_split.items():
                split[axis] += did
            if only_split and not any(layer_split.values()):
                continue
            want = (whole_deconv3d if transposed else whole_conv3d)(x, w, b, params, g)
            for got, ref in zip((out.values, xt.grad, wt.grad, bt.grad), want):
                assert got.dtype == ref.dtype == np.float32 and got.shape == ref.shape
                assert np.array_equal(got, ref), (params, c_in, c_out, spatial)
        assert all(split.values()), split


@pytest.fixture
def pool_of(monkeypatch):
    """Give ``ops`` a pool of the given number of workers; the pools made
    here are shut down after the test."""
    def set_workers(count):
        if ops._pool is not None:
            ops._pool.shutdown()
        monkeypatch.setattr(ops, "_WORKERS", count)
        monkeypatch.setattr(ops, "_pool", None)

    monkeypatch.setattr(ops, "_pool", None)
    yield set_workers
    if ops._pool is not None:
        ops._pool.shutdown()


class TestConcurrentJobs:
    """The jobs of one op run on more pool threads than there are cores,
    with the interpreter switching threads as often as it can, and still give
    bitwise the whole-buffer output and gradients; an error in a job raises
    from the op; and training is bitwise the same whatever the pool size."""

    def test_network_layers_batch_3(self, monkeypatch, pool_of):
        pool_of(8)
        monkeypatch.setattr(ops, "_BLOCK", 1 << 17)
        real_run, jobs = ops._run, []

        def run(job, tasks, *args):
            jobs.append(len(tasks))
            return real_run(job, tasks, *args)

        monkeypatch.setattr(ops, "_run", run)
        rng = np.random.default_rng(31)
        interval, start = sys.getswitchinterval(), time.monotonic()
        sys.setswitchinterval(1e-6)
        try:
            for params, c_in, c_out, spatial in _net_layers(64, 1 / 8):
                transposed = params.transposed
                wshape = ((c_in, c_out) if transposed else (c_out, c_in)) + tuple(params.kernel)
                x, w, b = (rng.standard_normal(s).astype(np.float32)
                           for s in ((3, c_in) + spatial, wshape, (c_out,)))
                xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
                out = (ops.deconv3d if transposed else ops.conv3d)(xt, wt, bt, params)
                g = rng.standard_normal(out.shape).astype(np.float32)
                out._backward(g)
                want = (whole_deconv3d if transposed else whole_conv3d)(x, w, b, params, g)
                for got, ref in zip((out.values, xt.grad, wt.grad, bt.grad), want):
                    assert np.array_equal(got, ref), (params, c_in, c_out, spatial)
        finally:
            sys.setswitchinterval(interval)
        assert time.monotonic() - start < 60
        assert len(jobs) == 3 * len(_net_layers(64, 1 / 8))
        assert min(jobs) >= 3 and sum(j > 3 for j in jobs) >= len(jobs) // 2, jobs

    @pytest.mark.parametrize("transposed", [False, True])
    def test_job_error_raises_from_op(self, monkeypatch, pool_of, transposed):
        pool_of(4)
        name = "_col2im" if transposed else "_im2col"
        real, calls = getattr(ops, name), []

        def failing(*args):
            calls.append(None)
            if len(calls) == 3:
                raise RuntimeError("job failed")
            return real(*args)

        rng = np.random.default_rng(5)
        wshape = ((3, 4) if transposed else (4, 3)) + (4, 4, 4)
        args = [Tensor(rng.standard_normal(s).astype(np.float32))
                for s in ((5, 3, 4, 8, 8), wshape, (4,))]
        args.append(ConvParams(4, (4, 4, 4), (2, 2, 2), (1, 1, 1), transposed))
        op = ops.deconv3d if transposed else ops.conv3d
        want = op(*args).values
        monkeypatch.setattr(ops, name, failing)
        with pytest.raises(RuntimeError, match="job failed"):
            op(*args)
        assert len(calls) >= 3
        monkeypatch.setattr(ops, name, real)  # the pool runs the next op as before
        assert np.array_equal(op(*args).values, want)

    def test_training_independent_of_pool_size(self, store64, tmp_path, pool_of):
        runs = []
        for workers in (1, 4):
            pool_of(workers)
            root = tmp_path / f"w{workers}"
            ck1, _ = train_stage1(store64, desk_config(iterations=2), out_dir=root / "run1")
            train_stage2(store64, desk_config(iterations=2), ck1, out_dir=root / "run2")
            runs.append([(root / f).read_bytes() for f in (
                "run1/losses.csv", "run1/stage1_final.mdck",
                "run2/losses.csv", "run2/stage2_final.mdck")])
        assert runs[0] == runs[1]


class TestLeakyReluMask:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_equals_slope_product(self, dtype):
        rng = np.random.default_rng(3)
        v = np.concatenate([rng.standard_normal(64),
                            [0.0, -0.0, np.nan, np.inf, -np.inf, 1e-45, -1e-45]])
        v = v.astype(dtype)
        g = np.concatenate([rng.standard_normal(64),
                            [3.0, -5.0, 1.0, -0.0, np.nan, 2.0, -7.0]]).astype(dtype)
        x = Tensor(v, requires_grad=True)
        out = ops.activation("leaky_relu", x)
        out._backward(g)
        slope = np.where(v >= 0, dtype(1), dtype(ops.LEAKY_SLOPE))
        want = _zero_plus(v, g * slope)
        assert x.grad.dtype == want.dtype
        assert x.grad.tobytes() == want.tobytes()
        assert out.values.tobytes() == np.where(
            v >= 0, v, dtype(ops.LEAKY_SLOPE) * v).tobytes()
