import gc
import io
import struct
import threading
import weakref
from itertools import combinations

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from gradcheck import grad_check
from lapsegan import ops
from lapsegan import tensor as T
from lapsegan.errors import ContractError, DimensionError, DomainError, IntegrityError
from lapsegan.losses import gram
from lapsegan.tensor import Tensor


def f64(x, requires_grad=False):
    return Tensor(np.asarray(x, dtype=np.float64), requires_grad=requires_grad)


class TestElementwise:
    def test_add(self):
        out = T.add(f64([1.0, 2.0]), f64([3.0, 4.0]))
        assert_array_equal(out.values, [4.0, 6.0])

    def test_log_exp_inverse(self):
        x = f64([0.7])
        assert abs(T.log(T.exp(x)).item() - 0.7) < 1e-12

    def test_scalar_operands(self):
        x = f64([1.0, -2.0])
        assert_array_equal((x + 1.0).values, [2.0, -1.0])
        assert_array_equal((2.0 * x).values, [2.0, -4.0])
        assert_array_equal((1.0 - x).values, [0.0, 3.0])
        assert_array_equal((-x).values, [-1.0, 2.0])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            T.add(f64([1.0, 2.0]), f64([1.0, 2.0, 3.0]))

    def test_log_domain(self):
        with pytest.raises(DomainError):
            T.log(f64([1.0, 0.0]))

    def test_log1p_keeps_tiny_tail(self):
        x = f64([np.exp(-50.0)])
        assert abs(T.log1p(x).item() - np.exp(-50.0)) < 1e-30
        with pytest.raises(DomainError):
            T.log1p(f64([-1.0]))
        assert grad_check(lambda t: T.log1p(t).sum(), f64([0.3, -0.4])) < 1e-6

    def test_abs_backward_at_minus_two(self):
        # central finite-difference oracle, f64
        err = grad_check(lambda x: T.abs_(x).sum(), f64([-2.0]), step=1e-5)
        assert err < 1e-6
        x = f64([-2.0], requires_grad=True)
        T.backward(T.abs_(x).sum())
        assert_array_equal(x.grad, [-1.0])

    def test_abs_subgradient_zero_at_kink(self):
        x = f64([0.0], requires_grad=True)
        T.backward(T.abs_(x).sum())
        assert_array_equal(x.grad, [0.0])

    def test_clamp_gradient_mask(self):
        x = f64([-2.0, 0.5, 2.0], requires_grad=True)
        T.backward(T.clamp(x, -1.0, 1.0).sum())
        assert_array_equal(x.grad, [0.0, 1.0, 0.0])


class TestReduce:
    def test_sum_all(self):
        assert T.reduce("sum", f64([[1.0, 2.0], [3.0, 4.0]])).item() == 10.0

    def test_mean_of_constant(self):
        assert T.reduce("mean", f64(np.full((3, 4), 2.5))).item() == 2.5

    def test_partial_axes(self):
        x = f64(np.arange(24.0).reshape(2, 3, 4))
        out = x.sum(axes=(0, 2))
        assert out.shape == (3,)
        assert_allclose(out.values, x.values.sum(axis=(0, 2)))

    def test_mean_gradient_is_inverse_count(self):
        x = f64(np.array([[1.0, 2.0], [3.0, 5.0]]), requires_grad=True)
        T.backward(x.mean())
        assert_allclose(x.grad, np.full((2, 2), 0.25))
        err = grad_check(lambda t: t.mean(), x, step=1e-5)
        assert err < 1e-6

    def test_invalid_axis(self):
        with pytest.raises(DimensionError):
            f64([1.0, 2.0]).sum(axes=3)


class TestShapeOps:
    def test_reshape_row_major(self):
        x = f64(np.arange(24.0).reshape(2, 3, 4))
        out = x.reshape((2, 12))
        assert_array_equal(out.values.ravel(), x.values.ravel())

    def test_reshape_round_trip_identity(self):
        x = np.arange(24.0).reshape(2, 3, 4)
        out = f64(x).reshape((6, 4)).reshape((2, 3, 4))
        assert_array_equal(out.values, x)

    def test_reshape_count_mismatch(self):
        with pytest.raises(DimensionError):
            f64(np.zeros((2, 3))).reshape((7,))

    def test_reshape_feature_block(self):
        # (N, C, T, H, W) -> (N, C*T, H*W), the motion descriptor's fold
        x = f64(np.zeros((2, 32, 32, 64, 64), dtype=np.float64))
        out = x.reshape((2, 1024, 4096))
        assert out.shape == (2, 1024, 4096)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = f64(np.random.default_rng(0).standard_normal((3, 4)), requires_grad=True)
        T.backward(x.sum())
        assert_array_equal(x.grad, np.ones((3, 4)))

    def test_square_gradient(self):
        x = f64([1.0, 2.0], requires_grad=True)
        T.backward((x * x).sum())
        assert_array_equal(x.grad, [2.0, 4.0])

    def test_non_scalar_root(self):
        x = f64([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            T.backward(x * x)

    def test_accumulation_over_reuse(self):
        # using a tensor twice doubles its sum-based contribution
        x = f64([1.5, -0.5], requires_grad=True)
        T.backward((x.sum() + x.sum()))
        assert_array_equal(x.grad, [2.0, 2.0])

    def test_gradient_linearity(self):
        rng = np.random.default_rng(11)
        v = rng.standard_normal(5)
        a, b = 2.5, -1.25

        def grad_of(fn):
            x = f64(v, requires_grad=True)
            T.backward(fn(x))
            return x.grad

        f = lambda x: (x * x).sum()
        g = lambda x: T.exp(x).sum()
        combined = grad_of(lambda x: a * f(x) + b * g(x))
        assert_allclose(combined, a * grad_of(f) + b * grad_of(g), rtol=1e-12)

    def test_no_grad_suspends_tape(self):
        x = f64([2.0], requires_grad=True)
        with T.no_grad():
            y = x * x
        assert not y.requires_grad

    def test_no_grad_is_per_thread(self):
        x = f64([2.0], requires_grad=True)
        inside, checked = threading.Event(), threading.Event()
        seen = {}

        def thread_a():
            with T.no_grad():
                seen["inside"] = (x * x).requires_grad
                inside.set()
                checked.wait(timeout=10)
            seen["after"] = (x * x).requires_grad

        a = threading.Thread(target=thread_a)
        a.start()
        try:
            assert inside.wait(timeout=10)
            y = x * x  # thread B, while thread A sits inside no_grad
        finally:
            checked.set()
            a.join(timeout=10)
        assert not a.is_alive()
        assert y.requires_grad and y._backward is not None
        assert seen == {"inside": False, "after": True}

    def test_deep_chain_no_recursion_limit(self):
        x = f64([1.0], requires_grad=True)
        y = x
        for _ in range(5000):
            y = y + 0.0
        T.backward(y.sum())
        assert_array_equal(x.grad, [1.0])


class TestAccumulate:
    """The first accumulation into an empty gradient is 0 + g, as when the
    gradient was zero-filled and then added to."""

    @staticmethod
    def zero_plus(values, *grads):
        out = np.zeros_like(values)
        for g in grads:
            out += g
        return out

    def test_negative_zero_becomes_positive(self):
        t = Tensor(np.float32([1.0, 2.0, 3.0]), requires_grad=True)
        g = np.float32([-0.0, 0.0, -1.5])
        T._accumulate(t, g)
        assert t.grad.tobytes() == self.zero_plus(t.values, g).tobytes()
        assert not np.signbit(t.grad[0])

    def test_float64_into_float32(self):
        t = Tensor(np.zeros(4, np.float32), requires_grad=True)
        g1 = np.float64([1e-40, -0.0, 1.0 + 2 ** -30, 3e38 * 2])
        g2 = np.float64([1.0, 2 ** -30, -1.0, -3e38])
        with np.errstate(over="ignore"):
            T._accumulate(t, g1)
            T._accumulate(t, g2)
            want = self.zero_plus(t.values, g1, g2)
        assert t.grad.dtype == np.float32
        assert t.grad.tobytes() == want.tobytes()

    def test_broadcast_and_strided_views(self):
        t = Tensor(np.ones((3, 4), np.float32), requires_grad=True)
        base = np.arange(24, dtype=np.float32).reshape(6, 4) - 11.0
        view = base[::2]
        row = np.broadcast_to(np.float32([-0.0, 1.0, -2.0, 0.5]), (3, 4))
        T._accumulate(t, view)
        T._accumulate(t, row)
        assert t.grad.tobytes() == self.zero_plus(t.values, view, row).tobytes()
        assert t.grad.flags.c_contiguous and t.grad.flags.writeable
        assert_array_equal(base, np.arange(24, dtype=np.float32).reshape(6, 4) - 11.0)

    def test_follows_leaf_layout(self):
        t = Tensor(np.asfortranarray(np.ones((3, 5), np.float32)), requires_grad=True)
        T._accumulate(t, np.full((3, 5), 2.0, np.float32))
        assert t.grad.flags.f_contiguous

    def test_adopted_negative_zero_becomes_positive(self):
        g = np.float32([-0.0, 0.0, -1.5, -0.0])
        copied = Tensor(np.ones(4, np.float32), requires_grad=True)
        adopted = Tensor(np.ones(4, np.float32), requires_grad=True)
        want = self.zero_plus(adopted.values, g)
        T._accumulate(copied, g.copy())
        T._accumulate(adopted, g, fresh=True)
        assert adopted.grad is g
        assert adopted.grad.tobytes() == copied.grad.tobytes() == want.tobytes()
        assert not np.signbit(adopted.grad[[0, 3]]).any()

    @pytest.mark.parametrize("case", ["float64", "strided", "fortran_leaf"])
    def test_fresh_mismatch_copies(self, case):
        leaf = np.zeros((2, 3), np.float32)
        g = np.arange(6, dtype=np.float32).reshape(2, 3) - 2.0
        if case == "float64":
            g = g.astype(np.float64)
        elif case == "strided":
            g = np.repeat(g, 2, axis=1)[:, ::2]
        else:
            leaf = np.asfortranarray(leaf)
        t = Tensor(leaf, requires_grad=True)
        T._accumulate(t, g, fresh=True)
        assert not np.shares_memory(t.grad, g)
        assert t.grad.dtype == np.float32 and t.grad.flags.c_contiguous == (case != "fortran_leaf")
        assert t.grad.tobytes("A") == self.zero_plus(t.values, g).tobytes("A")

    def test_add_parents_get_separate_gradients(self):
        a = Tensor(np.ones((2, 3), np.float32), requires_grad=True)
        b = Tensor(np.ones((2, 3), np.float32), requires_grad=True)
        T.backward(T.exp(T.add(a, b)).sum())
        assert not np.shares_memory(a.grad, b.grad)
        assert_array_equal(a.grad, b.grad)

    @pytest.mark.parametrize("transposed", [False, True], ids=["conv3d", "deconv3d"])
    def test_conv_gradients_share_no_memory(self, transposed):
        rng = np.random.default_rng(3)
        params = ops.ConvParams(4, (3, 3, 3), (2, 2, 2), (1, 1, 1), transposed=transposed)
        x = Tensor(rng.standard_normal((2, 3, 4, 6, 6)).astype(np.float32), requires_grad=True)
        wshape = (3, 4, 3, 3, 3) if transposed else (4, 3, 3, 3, 3)
        w = Tensor(rng.standard_normal(wshape).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(4, np.float32), requires_grad=True)
        out = (ops.deconv3d if transposed else ops.conv3d)(x, w, b, params)
        g = rng.standard_normal(out.shape).astype(np.float32)
        out._backward(g)
        assert not any(np.shares_memory(a, b) for a, b in combinations((x.grad, w.grad, g), 2))


class TestGradCheck:
    def test_sum_error_exactly_zero(self):
        # dyadic inputs and a power-of-two step make central differences exact
        x = f64([1.0, 2.5, -3.25])
        err = grad_check(lambda t: t.sum(), x, step=2.0 ** -16)
        assert err == 0.0

    def test_l1_away_from_kinks(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal(6) + 3.0  # keep |a - b| away from 0
        b = rng.standard_normal(6) - 3.0
        err = grad_check(lambda t: T.abs_(t - f64(b)).sum(), f64(a), step=1e-5)
        assert err < 1e-6

    def test_composite_gram_l1_log_chain(self):
        rng = np.random.default_rng(9)
        h = rng.standard_normal((1, 2, 1, 2, 3))

        def f(t):
            return T.log(T.abs_(gram(t)).sum() + 1.0)

        assert grad_check(f, f64(h), step=1e-5) < 1e-5

    def test_sampled_probing(self):
        rng = np.random.default_rng(2)
        x = f64(rng.standard_normal(64))
        err = grad_check(lambda t: (t * t).sum(), x, sample=8,
                           rng=np.random.default_rng(0))
        assert err < 1e-6


class TestDeterminism:
    def test_forward_bitwise_identical(self):
        def run():
            rng = np.random.default_rng(42)
            x = Tensor(rng.standard_normal((4, 5)).astype(np.float32))
            y = T.exp(x * 0.5) + x
            return y.values.tobytes()

        assert run() == run()


class TestSerialization:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint8])
    def test_round_trip(self, dtype):
        rng = np.random.default_rng(1)
        if dtype is np.uint8:
            arr = rng.integers(0, 256, size=(3, 4, 5), dtype=np.uint8)
        else:
            arr = rng.standard_normal((3, 4, 5)).astype(dtype)
        buf = io.BytesIO()
        T.write_array(buf, arr)
        buf.seek(0)
        back = T.read_array(buf)
        assert back.dtype == np.dtype(dtype)
        assert_array_equal(back, arr)

    def test_layout(self):
        buf = io.BytesIO()
        T.write_array(buf, np.zeros((2, 3), dtype=np.float32))
        raw = buf.getvalue()
        assert raw[:4] == b"MDT1"
        assert raw[4:8] == (2).to_bytes(4, "little")
        assert raw[8:12] == (2).to_bytes(4, "little")
        assert raw[12:16] == (3).to_bytes(4, "little")
        assert raw[16] == 0  # f32 code
        assert len(raw) == 17 + 6 * 4

    def test_bad_magic(self):
        with pytest.raises(IntegrityError):
            T.read_array(io.BytesIO(b"XXXX" + bytes(20)))

    def test_truncated(self):
        buf = io.BytesIO()
        T.write_array(buf, np.zeros((4, 4), dtype=np.float64))
        with pytest.raises(IntegrityError):
            T.read_array(io.BytesIO(buf.getvalue()[:-8]))

    def test_extents_beyond_stream_rejected_before_allocating(self):
        head = b"MDT1" + struct.pack("<3I", 2, 2 ** 32 - 1, 2 ** 32 - 1) + bytes([0])
        with pytest.raises(IntegrityError, match="truncated"):
            T.read_array(io.BytesIO(head + bytes(64)))


def backward_keeping_graph(root):
    """Reference backward that keeps the graph: the traversal and order of
    ``tensor.backward``, with every gradient, closure and parent link left in place."""
    order = []
    seen = {id(root)}
    stack = [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        advanced = False
        for p in parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append((p, iter(p._parents)))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    root.grad = np.ones_like(root.values)
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)


DOWN = ops.ConvParams(3, (4, 4, 4), (2, 2, 2), (1, 1, 1))
UP = ops.ConvParams(2, (4, 4, 4), (2, 2, 2), (1, 1, 1), transposed=True)


def conv_stack(dtype, seed=0):
    """Leaves and root of conv -> batch norm -> leaky_relu -> deconv, whose
    output is multiplied by the input again, so the input's gradient sums two paths."""
    rng = np.random.default_rng(seed)

    def leaf(shape, scale=1.0, mean=0.0):
        return Tensor((mean + scale * rng.standard_normal(shape)).astype(dtype),
                      requires_grad=True)

    v = {"x": leaf((2, 2, 4, 8, 8)), "w": leaf((3, 2, 4, 4, 4), 0.2),
         "b": leaf((3,), 0.1), "gamma": leaf((3,), 0.1, 1.0),
         "beta": leaf((3,), 0.1), "wt": leaf((3, 2, 4, 4, 4), 0.2),
         "bt": leaf((2,), 0.1)}
    h = ops.conv3d(v["x"], v["w"], v["b"], DOWN)
    state = ops.BatchNormState(v["gamma"], v["beta"], np.zeros(3, dtype),
                               np.ones(3, dtype))
    h = ops.activation("leaky_relu", ops.batchnorm3d(h, state, "train"))
    out = ops.deconv3d(h, v["wt"], v["bt"], UP)
    return v, (out * v["x"]).sum()


def spy_im2col(monkeypatch):
    """Patch ``ops._im2col`` to keep a weak reference to every column block
    it gathers."""
    refs = []
    real = ops._im2col

    def spy(*args):
        cols = real(*args)
        refs.append(weakref.ref(cols))
        return cols

    monkeypatch.setattr(ops, "_im2col", spy)
    return refs


def conv_leaves(weight_trainable=True):
    rng = np.random.default_rng(3)
    p = ops.ConvParams(2, (3, 3, 3), (1, 2, 2), (1, 1, 1))
    x = Tensor(rng.standard_normal((1, 2, 4, 6, 6)), requires_grad=True)
    w = Tensor(rng.standard_normal((2, 2, 3, 3, 3)), requires_grad=weight_trainable)
    b = Tensor(np.zeros(2), requires_grad=True)
    return x, w, b, p


class TestConsumingBackward:
    """backward frees what it has used: every non-leaf gradient but the
    root's, every closure and parent link, and no leaf gradient changes."""

    def test_intermediate_gradient_and_cols_released(self, monkeypatch):
        cols_refs = spy_im2col(monkeypatch)
        monkeypatch.setattr(ops, "_BLOCK", 500)  # one output frame, one channel a block
        x, w, b, p = conv_leaves()
        mid = ops.conv3d(x, w, b, p)
        gc.collect()
        assert len(cols_refs) == 4 and all(r() is None for r in cols_refs)
        grad_refs = []

        def record(g):
            grad_refs.append(weakref.ref(g))
            T._accumulate(mid, g)
            grad_refs.append(weakref.ref(mid.grad))

        spy = Tensor._from_op(mid.values, (mid,), record, "spy")
        root = (spy * spy).sum()
        T.backward(root)
        gc.collect()
        assert len(grad_refs) == 2 and len(cols_refs) == 4 + 2  # dW gathers x again
        assert all(r() is None for r in grad_refs + cols_refs)
        assert mid.grad is None and mid._backward is T._consumed and mid._parents == ()
        assert_array_equal(root.grad, 1.0)
        assert all(t.grad is not None for t in (x, w, b))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_leaf_gradients_match_non_releasing_loop(self, dtype):
        kept, root = conv_stack(dtype)
        backward_keeping_graph(root)
        consumed, root = conv_stack(dtype)
        T.backward(root)
        for name, leaf in kept.items():
            assert leaf.grad.dtype == dtype
            assert_array_equal(consumed[name].grad, leaf.grad, err_msg=name)

    def test_second_backward_raises(self):
        x = f64([1.0, 2.0], requires_grad=True)
        h = x * 3.0
        root = (h * h).sum()
        T.backward(root)
        with pytest.raises(ContractError, match="run the forward again"):
            T.backward(root)
        with pytest.raises(ContractError, match="run the forward again"):
            T.backward((h * 2.0).sum())  # a new graph over a consumed node
        assert_array_equal(x.grad, [18.0, 36.0])

    def test_frozen_weight_keeps_no_cols(self, monkeypatch):
        x, w, b, p = conv_leaves()
        T.backward(ops.conv3d(x, w, b, p).sum())
        cols_refs = spy_im2col(monkeypatch)
        xf, wf, bf, _ = conv_leaves(weight_trainable=False)
        out = ops.conv3d(xf, wf, bf, p)
        gc.collect()
        assert out._backward is not None and cols_refs[0]() is None
        T.backward(out.sum())
        assert len(cols_refs) == 1  # without dW, backward gathers nothing
        assert wf.grad is None
        assert_array_equal(xf.grad, x.grad)
        assert_array_equal(bf.grad, b.grad)

    def test_weight_unfrozen_after_forward_matches_trainable(self):
        """The backward gathers dW's columns from the input it links to, so a
        weight unfrozen after the forward gets the dW of a trainable one."""
        x, w, b, p = conv_leaves()
        T.backward(ops.conv3d(x, w, b, p).sum())
        xf, wf, bf, _ = conv_leaves(weight_trainable=False)
        out = ops.conv3d(xf, wf, bf, p).sum()
        wf.requires_grad = True
        T.backward(out)
        for frozen, trained in ((wf, w), (xf, x), (bf, b)):
            assert frozen.grad.tobytes() == trained.grad.tobytes()
