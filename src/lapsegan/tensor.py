"""Dense N-d tensors with reverse-mode autodiff over a dynamically recorded tape.

All math in the package flows through this module. Each operation records its
inputs and a backward closure on the result tensor; ``backward`` replays the
recorded graph in reverse topological order and accumulates gradients into
every leaf that requires them. The tape is rebuilt on every forward pass
(define-by-run), so alternating objectives reuse the same code paths.

``backward`` consumes the graph it walks: once a node's closure has run, the
node drops its closure and parent links, and its gradient too unless it is a
leaf or the root, so the activations and gradients that nothing below it
still needs are freed during the walk. A graph runs backward once; a second
``backward`` over a consumed node raises ``ContractError``.

Axis convention is row-major (N, C, T, H, W) with a leading batch axis.
Training runs at float32; gradient checking runs at float64.
"""
from __future__ import annotations

import os
import struct
import threading
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, DimensionError, DomainError, IntegrityError


class _TapeState(threading.local):
    grad_enabled = True


_tape = _TapeState()


@contextmanager
def no_grad():
    """Suspend tape recording inside the block (forward values only), on the
    calling thread alone."""
    prev = _tape.grad_enabled
    _tape.grad_enabled = False
    try:
        yield
    finally:
        _tape.grad_enabled = prev


def recording(tensors):
    """Whether an op over ``tensors`` records a graph node: the calling
    thread's tape is live and at least one of them requires grad."""
    return _tape.grad_enabled and any(t.requires_grad for t in tensors)


class Tensor:
    """N-d real array with an optional gradient slot.

    ``values`` is treated as immutable once wrapped (the optimizer mutates
    leaf parameters only between passes); ``grad`` mutates by accumulation
    during backward. The embedded graph node is the triple
    (``_op`` tag, ``_parents`` refs, ``_backward`` closure).
    """

    __slots__ = ("values", "requires_grad", "grad", "_parents", "_backward", "_op")

    def __init__(self, values, requires_grad=False):
        arr = np.asarray(values)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.values = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None
        self._op = "leaf"

    @staticmethod
    def _from_op(values, parents, backward, op):
        """Wrap an op result, recording the graph node if the tape is live."""
        out = Tensor.__new__(Tensor)
        out.values = values
        out.grad = None
        out._op = op
        out.requires_grad = recording(parents)
        out._parents = tuple(parents) if out.requires_grad else ()
        out._backward = backward if out.requires_grad else None
        return out

    # -- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.values.shape

    @property
    def dtype(self):
        return self.values.dtype

    @property
    def size(self):
        return self.values.size

    @property
    def ndim(self):
        return self.values.ndim

    def item(self):
        return self.values.item()

    def __repr__(self):
        return (f"Tensor(shape={self.values.shape}, dtype={self.values.dtype}, "
                f"requires_grad={self.requires_grad}, op={self._op!r})")

    # -- operator sugar ------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def sum(self, axes=None):
        return reduce("sum", self, axes)

    def mean(self, axes=None):
        return reduce("mean", self, axes)

    def reshape(self, new_shape):
        return reshape(self, new_shape)

    def transpose(self, axes):
        return transpose(self, axes)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(t, g):
    if t.requires_grad:
        if t.grad is None:  # 0 + g in one pass: -0.0 becomes +0.0, as in a zeroed sum
            t.grad = np.add(g, t.values.dtype.type(0), out=np.empty_like(t.values))
        else:
            t.grad += g


def _binary_operands(a, b):
    """Validate a binary op's operands: equal shapes, or b a plain scalar."""
    if isinstance(b, Tensor):
        if a.values.shape != b.values.shape:
            raise DimensionError(
                f"elementwise shape mismatch: {a.values.shape} vs {b.values.shape}")
        if a.values.dtype != b.values.dtype:
            raise ContractError(
                f"dtype mismatch: {a.values.dtype} vs {b.values.dtype}")
        return b, b.values
    if np.ndim(b) != 0:
        raise DimensionError("second operand must be a tensor of equal shape or a scalar")
    return None, a.values.dtype.type(b)


# -- elementwise ops ----------------------------------------------------


def add(a, b):
    a = as_tensor(a)
    bt, bv = _binary_operands(a, b)
    out = a.values + bv

    def backward(g):
        _accumulate(a, g)
        if bt is not None:
            _accumulate(bt, g)

    parents = (a, bt) if bt is not None else (a,)
    return Tensor._from_op(out, parents, backward, "add")


def sub(a, b):
    a_is_tensor = isinstance(a, Tensor)
    if a_is_tensor:
        bt, bv = _binary_operands(a, b)
        out = a.values - bv

        def backward(g):
            _accumulate(a, g)
            if bt is not None:
                _accumulate(bt, -g)

        parents = (a, bt) if bt is not None else (a,)
        return Tensor._from_op(out, parents, backward, "sub")
    # scalar - tensor
    b = as_tensor(b)
    sv = b.values.dtype.type(a)
    out = sv - b.values

    def backward(g):
        _accumulate(b, -g)

    return Tensor._from_op(out, (b,), backward, "sub")


def mul(a, b):
    """Elementwise product; with a python scalar this is scalar-mul."""
    a = as_tensor(a)
    bt, bv = _binary_operands(a, b)
    out = a.values * bv

    def backward(g):
        _accumulate(a, g * bv)
        if bt is not None:
            _accumulate(bt, g * a.values)

    parents = (a, bt) if bt is not None else (a,)
    return Tensor._from_op(out, parents, backward, "mul")


def neg(a):
    a = as_tensor(a)

    def backward(g):
        _accumulate(a, -g)

    return Tensor._from_op(-a.values, (a,), backward, "neg")


def exp(a):
    a = as_tensor(a)
    out = np.exp(a.values)

    def backward(g):
        _accumulate(a, g * out)

    return Tensor._from_op(out, (a,), backward, "exp")


def log(a):
    a = as_tensor(a)
    if np.any(a.values <= 0):
        raise DomainError("log requires strictly positive values")
    out = np.log(a.values)

    def backward(g):
        _accumulate(a, g / a.values)

    return Tensor._from_op(out, (a,), backward, "log")


def log1p(a):
    """log(1 + x), accurate for |x| near 0 where log(add(x, 1)) loses bits."""
    a = as_tensor(a)
    if np.any(a.values <= -1):
        raise DomainError("log1p requires values > -1")
    out = np.log1p(a.values)

    def backward(g):
        _accumulate(a, g / (1.0 + a.values))

    return Tensor._from_op(out, (a,), backward, "log1p")


def abs_(a):
    """|x| with the subgradient at 0 defined as 0."""
    a = as_tensor(a)
    out = np.abs(a.values)

    def backward(g):
        _accumulate(a, g * np.sign(a.values))

    return Tensor._from_op(out, (a,), backward, "abs")


def clamp(a, lo, hi):
    """Clip to [lo, hi]; gradient passes only where the input was in range."""
    a = as_tensor(a)
    out = np.clip(a.values, lo, hi)
    inside = (a.values >= lo) & (a.values <= hi)

    def backward(g):
        _accumulate(a, g * inside)

    return Tensor._from_op(out, (a,), backward, "clamp")


# -- reductions and shape ops --------------------------------------------


def _normalize_axes(axes, ndim):
    if axes is None:
        return tuple(range(ndim))
    if np.ndim(axes) == 0:
        axes = (int(axes),)
    else:
        axes = tuple(int(ax) for ax in axes)
    norm = []
    for ax in axes:
        if not -ndim <= ax < ndim:
            raise DimensionError(f"axis {ax} invalid for rank {ndim}")
        norm.append(ax % ndim)
    if len(set(norm)) != len(norm):
        raise DimensionError(f"repeated axis in {axes}")
    return tuple(sorted(norm))


def reduce(kind, a, axes=None):
    """sum or mean over the given axes (all axes when None)."""
    if kind not in ("sum", "mean"):
        raise ContractError(f"unknown reduce kind {kind!r}")
    a = as_tensor(a)
    axes = _normalize_axes(axes, a.ndim)
    count = 1
    for ax in axes:
        count *= a.shape[ax]
    out = a.values.sum(axis=axes)
    if kind == "mean":
        out = out / a.values.dtype.type(count)

    def backward(g):
        gx = np.expand_dims(g, axes) if axes else g
        gx = np.broadcast_to(gx, a.values.shape)
        if kind == "mean":
            gx = gx / a.values.dtype.type(count)
        _accumulate(a, gx)

    return Tensor._from_op(out, (a,), backward, kind)


def reshape(a, new_shape):
    a = as_tensor(a)
    new_shape = tuple(int(s) for s in new_shape)
    if int(np.prod(new_shape, dtype=np.int64)) != a.size:
        raise DimensionError(f"cannot reshape {a.shape} to {new_shape}")
    out = a.values.reshape(new_shape)

    def backward(g):
        _accumulate(a, g.reshape(a.values.shape))

    return Tensor._from_op(out, (a,), backward, "reshape")


def transpose(a, axes):
    a = as_tensor(a)
    axes = tuple(int(ax) for ax in axes)
    if sorted(axes) != list(range(a.ndim)):
        raise DimensionError(f"axes {axes} is not a permutation of rank {a.ndim}")
    out = np.ascontiguousarray(a.values.transpose(axes))
    inverse = tuple(np.argsort(axes))

    def backward(g):
        _accumulate(a, np.ascontiguousarray(g.transpose(inverse)))

    return Tensor._from_op(out, (a,), backward, "transpose")


def matmul_batched(a, b):
    """Per-batch matrix product: (N,M,S) x (N,S,K) -> (N,M,K)."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 3 or b.ndim != 3:
        raise DimensionError("matmul_batched expects rank-3 operands")
    if a.shape[0] != b.shape[0]:
        raise DimensionError(f"batch extents differ: {a.shape[0]} vs {b.shape[0]}")
    if a.shape[2] != b.shape[1]:
        raise DimensionError(f"inner extents differ: {a.shape[2]} vs {b.shape[1]}")
    out = a.values @ b.values

    def backward(g):
        _accumulate(a, g @ b.values.transpose(0, 2, 1))
        _accumulate(b, a.values.transpose(0, 2, 1) @ g)

    return Tensor._from_op(out, (a, b), backward, "matmul_batched")


# -- backward pass --------------------------------------------------------


def backward(root):
    """Accumulate gradients of a scalar root into every requires_grad leaf,
    consuming the graph on the way (see the module docstring)."""
    if root.size != 1:
        raise ContractError(f"backward root must be scalar, got shape {root.shape}")
    if not root.requires_grad:
        raise ContractError("backward root does not require grad; nothing to do")

    # Iterative post-order DFS; graphs can be deep (layer chains).
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
    while order:
        node = order.pop()
        if node._backward is None:  # a leaf keeps its gradient
            continue
        node._backward(node.grad)
        node._backward = _consumed
        node._parents = ()
        if node is not root:
            node.grad = None


def _consumed(g):
    raise ContractError("this graph was consumed by an earlier backward; "
                        "run the forward again")


# -- binary serialization --------------------------------------------------

_MAGIC = b"MDT1"
_DTYPE_BY_CODE = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("u1")}
_CODE_BY_KIND = {np.dtype(np.float32): 0, np.dtype(np.float64): 1, np.dtype(np.uint8): 2}


def write_array(fp, arr):
    """Write one array: magic, u32 rank, u32 extents (LE), u8 dtype code, raw values."""
    arr = np.ascontiguousarray(arr)
    if arr.dtype not in _CODE_BY_KIND:
        raise ContractError(f"unserializable dtype {arr.dtype}")
    code = _CODE_BY_KIND[arr.dtype]
    fp.write(_MAGIC)
    fp.write(struct.pack("<I", arr.ndim))
    fp.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    fp.write(struct.pack("B", code))
    fp.write(arr.astype(_DTYPE_BY_CODE[code], copy=False).reshape(-1).data)


def _read_exact(fp, n, what):
    data = fp.read(n)
    if len(data) != n:
        raise IntegrityError(f"truncated tensor block while reading {what}")
    return data


def read_array(fp):
    """Read one array written by ``write_array`` from a seekable binary
    stream, its values straight into the array it returns."""
    magic = bytes(_read_exact(fp, 4, "magic"))
    if magic != _MAGIC:
        raise IntegrityError(f"bad tensor magic {magic!r}")
    rank, = struct.unpack("<I", _read_exact(fp, 4, "rank"))
    if rank > 32:
        raise IntegrityError(f"implausible tensor rank {rank}")
    extents = struct.unpack(f"<{rank}I", _read_exact(fp, 4 * rank, "extents"))
    code, = struct.unpack("B", _read_exact(fp, 1, "dtype"))
    if code not in _DTYPE_BY_CODE:
        raise IntegrityError(f"unknown dtype code {code}")
    dtype = _DTYPE_BY_CODE[code]
    nbytes = int(np.prod(extents, dtype=object)) * dtype.itemsize
    pos = fp.tell()
    if nbytes > fp.seek(0, os.SEEK_END) - pos:  # checked before allocating
        raise IntegrityError("truncated tensor block while reading values")
    fp.seek(pos)
    arr = np.empty(extents, dtype=dtype)
    if fp.readinto(arr.reshape(-1).view(np.uint8)) != nbytes:
        raise IntegrityError("truncated tensor block while reading values")
    return arr if dtype.isnative else arr.astype(dtype.newbyteorder("="))


def save_array(path, arr):
    with open(path, "wb") as fp:
        write_array(fp, arr)


def load_array(path):
    with open(path, "rb") as fp:
        return read_array(fp)
