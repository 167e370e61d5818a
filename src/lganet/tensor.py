"""Dense float tensors with reverse-mode automatic differentiation.

Values are stored in contiguous numpy arrays (float32 for training,
float64 for gradient checking). An op is its forward value plus a
``backward(g)`` that accumulates the vector-Jacobian product of the
cotangent ``g`` into its inputs; ``_result`` alone decides whether to
record it as a graph node. ``Tensor.backward`` replays the recorded nodes in
reverse topological order, accumulating gradients additively across
fan-out. Backward releases the graph as it consumes it: after a node's
closure runs, the node drops its closure, its parents and (unless it is a
leaf) its gradient. A closure refers to its own output, so an unreleased
graph is a reference cycle that only the cycle collector frees; released,
it is freed by refcounting during backward, and can be replayed only once.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import FormatError, GraphError, NumericsError, ShapeError

DTYPES = {"f32": np.float32, "f64": np.float64}

_grad_enabled = True


def resolve_dtype(precision) -> np.dtype:
    """Map a precision tag ("f32"/"f64") or numpy dtype to a numpy dtype."""
    if isinstance(precision, str) and precision in DTYPES:
        return np.dtype(DTYPES[precision])
    dt = np.dtype(precision)
    if dt not in (np.float32, np.float64):
        raise ShapeError(f"unsupported element type {dt}, expected f32 or f64")
    return dt


@contextmanager
def no_grad() -> Iterator[None]:
    """Disable graph recording inside the block (inference / evaluation)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """N-dimensional float array with an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_op")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if dtype is not None:
            arr = np.asarray(data, dtype=resolve_dtype(dtype))
        else:
            arr = np.asarray(data)
            if arr.dtype not in (np.float32, np.float64):
                arr = arr.astype(np.float32)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()
        self._op = "leaf"

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.size == 1 else self._not_scalar()

    def _not_scalar(self):
        raise ShapeError(f"item() needs a one-element tensor, got shape {self.shape}")

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self) -> None:
        """Populate ``grad`` on every reachable leaf with d(self)/d(leaf),
        releasing the graph on the way (see the module docstring)."""
        if self.size != 1:
            raise GraphError(f"backward requires a scalar, got shape {self.shape}")
        if not self.requires_grad or self._op == "leaf":
            raise GraphError("backward called on a detached tensor (no recorded graph)")
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            if node._backward is None and node._op != "leaf":
                raise GraphError(f"backward reached op '{node._op}' whose graph was already "
                                 "consumed by an earlier backward()")
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()  # drop the list's reference so a consumed node is freed now
            if node._backward is not None:
                node._backward()
                node._backward = None
                node._parents = ()
                node.grad = None

    # -- operator sugar ----------------------------------------------------

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

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise ShapeError("tensor/tensor division is not supported; divide by a scalar")
        return mul(self, 1.0 / other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return narrow(self, key)

    def sum(self, axis=None, keepdims: bool = False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes or None)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _records(parents: Sequence[Tensor]) -> bool:
    """True when an op on ``parents`` records a graph node for backward."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _result(data: np.ndarray, parents: Sequence[Tensor], op: str,
            backward: Callable[[np.ndarray], None]) -> Tensor:
    """The output of ``op`` on ``parents``, and the only code that records a graph
    node: when ``_records(parents)``, the node's backward runs ``backward(out.grad)``."""
    if not np.all(np.isfinite(data)):
        shapes = ", ".join(str(p.shape) for p in parents)
        raise NumericsError(f"non-finite values produced by op '{op}' on inputs of shape {shapes}")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._op = op
    if _records(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = lambda: backward(out.grad)
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to the pre-broadcast operand shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- elementwise and scalar ops ---------------------------------------------


def add(a, b) -> Tensor:
    if not isinstance(b, Tensor):
        a = _as_tensor(a)
        return _result(a.data + b, (a,), "add_scalar", a._accumulate)
    if not isinstance(a, Tensor):
        return add(b, a)
    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))
    return _result(a.data + b.data, (a, b), "add", backward)


def sub(a, b) -> Tensor:
    if isinstance(b, Tensor):
        return add(_as_tensor(a), mul(b, -1.0))
    return add(a, -b)


def mul(a, b) -> Tensor:
    if not isinstance(b, Tensor):
        a = _as_tensor(a)
        return _result(a.data * b, (a,), "mul_scalar", lambda g: a._accumulate(g * b))
    if not isinstance(a, Tensor):
        return mul(b, a)
    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))
    return _result(a.data * b.data, (a, b), "mul", backward)


# -- contractions ------------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} vs {b.shape}")
    def backward(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a._accumulate(_unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            b._accumulate(_unbroadcast(gb, b.shape))
    return _result(np.matmul(a.data, b.data), (a, b), "matmul", backward)


def softmax(x, axis: int = -1) -> Tensor:
    """Normalized exponentials along ``axis``, computed with max subtraction."""
    x = _as_tensor(x)
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"softmax axis {axis} out of range for shape {x.shape}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    def backward(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        x._accumulate(y * (g - dot))
    return _result(y, (x,), "softmax", backward)


# -- reductions --------------------------------------------------------------


def _norm_axis(axis, ndim: int):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def tsum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    axes = _norm_axis(axis, x.ndim)
    def backward(g):
        if axes is not None and not keepdims:
            g = np.expand_dims(g, axes)
        x._accumulate(np.broadcast_to(g, x.shape).astype(x.dtype, copy=False))
    return _result(x.data.sum(axis=axes, keepdims=keepdims), (x,), "sum", backward)


def tmean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    axes = _norm_axis(axis, x.ndim)
    count = x.size if axes is None else int(np.prod([x.shape[a] for a in axes]))
    def backward(g):
        g = g / count
        if axes is not None and not keepdims:
            g = np.expand_dims(g, axes)
        x._accumulate(np.broadcast_to(g, x.shape).astype(x.dtype, copy=False))
    return _result(x.data.mean(axis=axes, keepdims=keepdims), (x,), "mean", backward)


# -- structural ops ----------------------------------------------------------


def transpose(x, axes=None) -> Tensor:
    x = _as_tensor(x)
    perm = tuple(axes) if axes is not None else tuple(range(x.ndim))[::-1]
    return _result(np.ascontiguousarray(x.data.transpose(perm)), (x,), "transpose",
                   lambda g: x._accumulate(g.transpose(np.argsort(perm))))


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    return _result(x.data.reshape(shape), (x,), "reshape",
                   lambda g: x._accumulate(g.reshape(x.shape)))


def narrow(x, key) -> Tensor:
    """Basic slicing / integer indexing with gradient routing."""
    x = _as_tensor(x)
    def backward(g):
        gx = np.zeros_like(x.data)
        gx[key] += g
        x._accumulate(gx)
    return _result(np.ascontiguousarray(x.data[key]), (x,), "slice", backward)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concatenate needs at least one tensor")
    ax = axis % tensors[0].ndim
    def backward(g):
        offsets = np.cumsum([0] + [t.shape[ax] for t in tensors])
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[ax] = slice(lo, hi)
                t._accumulate(g[tuple(sl)])
    return _result(np.concatenate([t.data for t in tensors], axis=ax), tensors, "concat", backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    def backward(g):
        for t, piece in zip(tensors, np.moveaxis(g, axis, 0)):
            if t.requires_grad:
                t._accumulate(piece)
    return _result(np.stack([t.data for t in tensors], axis=axis), tensors, "stack", backward)


def broadcast_to(x, shape) -> Tensor:
    x = _as_tensor(x)
    return _result(np.ascontiguousarray(np.broadcast_to(x.data, shape)), (x,), "broadcast",
                   lambda g: x._accumulate(_unbroadcast(g, x.shape)))


def pad_axis(x, axis: int, before: int, after: int) -> Tensor:
    """Zero-pad one axis; gradient is the central crop."""
    x = _as_tensor(x)
    if before < 0 or after < 0:
        raise ShapeError(f"negative padding ({before}, {after})")
    widths = [(0, 0)] * x.ndim
    ax = axis % x.ndim
    widths[ax] = (before, after)
    def backward(g):
        sl = [slice(None)] * x.ndim
        sl[ax] = slice(before, before + x.shape[ax])
        x._accumulate(g[tuple(sl)])
    return _result(np.pad(x.data, widths), (x,), "pad", backward)


def take_rows(table, index: np.ndarray) -> Tensor:
    """Gather ``table[index]`` for an integer index array; scatter-add backward."""
    table = _as_tensor(table)
    idx = np.asarray(index)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ShapeError("take_rows index must be an integer array")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeError(f"take_rows index out of range for table of {table.shape[0]} rows")
    def backward(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g)
        table._accumulate(gt)
    return _result(table.data[idx], (table,), "take_rows", backward)


def _window_view(x: np.ndarray, size: int, step: int) -> np.ndarray:
    """[B, L, C] -> strided view [B, L_out, C, size] of sliding windows along axis 1."""
    return np.lib.stride_tricks.sliding_window_view(x, size, axis=1)[:, ::step]


def unfold_windows(x, size: int, step: int) -> Tensor:
    """Overlapping windows of a [B, N, D] tensor along axis 1 -> [B, M, size, D]."""
    x = _as_tensor(x)
    if x.ndim != 3:
        raise ShapeError(f"unfold_windows expects [B, N, D], got {x.shape}")
    b, n, d = x.shape
    if size < 1 or step < 1:
        raise ShapeError(f"invalid window size={size} step={step}")
    if n < size:
        raise ShapeError(f"sequence length {n} shorter than window {size}")
    m = (n - size) // step + 1
    view = _window_view(x.data, size, step)
    def backward(g):
        gx = np.zeros_like(x.data)
        for j in range(size):
            gx[:, j : j + (m - 1) * step + 1 : step] += g[:, :, j]
        x._accumulate(gx)
    return _result(np.ascontiguousarray(view.transpose(0, 1, 3, 2)), (x,), "unfold", backward)


# -- weight file format -------------------------------------------------------

WEIGHTS_MAGIC = b"LGAW"
WEIGHTS_VERSION = 1


def write_weights(path, tensors: Mapping[str, "Tensor | np.ndarray"]) -> None:
    """Write named tensors as little-endian binary, values stored as float32."""
    entries = []
    for name in sorted(tensors):  # before opening, so a bad entry leaves the file alone
        arr = tensors[name]
        data = arr.data if isinstance(arr, Tensor) else np.asarray(arr)
        raw = name.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise FormatError(f"tensor name too long: {name!r}")
        if data.ndim > 0xFF:
            raise FormatError(f"tensor rank {data.ndim} exceeds format limit")
        entries.append((raw, np.asarray(data, dtype="<f4")))
    with open(path, "wb") as fh:
        fh.write(WEIGHTS_MAGIC)
        fh.write(struct.pack("<II", WEIGHTS_VERSION, len(entries)))
        for raw, data in entries:
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<B", data.ndim))
            fh.write(struct.pack(f"<{data.ndim}I", *data.shape))
            fh.write(data.tobytes())


def _read_exact(fh, n: int, offset: int, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise FormatError(f"truncated file: expected {n} bytes for {what} at byte {offset}")
    return buf


def read_weights(path) -> dict[str, np.ndarray]:
    """Read a weight file back into name -> float32 array."""
    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        offset = 0
        magic = _read_exact(fh, 4, offset, "magic")
        if magic != WEIGHTS_MAGIC:
            raise FormatError(f"bad magic {magic!r} at byte 0, expected {WEIGHTS_MAGIC!r}")
        offset += 4
        version, count = struct.unpack("<II", _read_exact(fh, 8, offset, "header"))
        if version != WEIGHTS_VERSION:
            raise FormatError(f"unsupported version {version} at byte {offset}")
        offset += 8
        for i in range(count):
            (nlen,) = struct.unpack("<H", _read_exact(fh, 2, offset, "name length"))
            offset += 2
            name = _read_exact(fh, nlen, offset, "name").decode("utf-8")
            offset += nlen
            (rank,) = struct.unpack("<B", _read_exact(fh, 1, offset, "rank"))
            offset += 1
            shape = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, offset, "extents"))
            offset += 4 * rank
            nbytes = 4 * int(np.prod(shape, dtype=np.int64)) if rank else 4
            raw = _read_exact(fh, nbytes, offset, f"data of {name!r}")
            offset += nbytes
            out[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float32)
        if fh.read(1):
            raise FormatError(f"trailing bytes at byte {offset} after {count} tensors")
    return out
