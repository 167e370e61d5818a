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
A closure reads its inputs' ``.data`` when it runs (``conv1d`` copies its
im2col columns from it again), so nothing may modify an input in place between
the forward and the backward; ``gradcheck`` perturbs only after ``backward``.
Dtypes do not mix: ``add`` and ``mul`` take a scalar operand as a Python float,
which NEP 50 keeps "weak" (a numpy float64 scalar would promote f32 to f64), and
``_accumulate`` refuses a gradient whose dtype or shape differs from its tensor's.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

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

    def _accumulate(self, g: np.ndarray) -> None:
        if g.dtype != self.data.dtype:
            raise GraphError(f"{g.dtype} gradient for a {self.data.dtype} tensor of shape {self.shape}")
        if g.shape != self.shape:
            raise GraphError(f"gradient of shape {g.shape} for a tensor of shape {self.shape}")
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

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, grad={self.requires_grad})"


def _records(parents: Sequence[Tensor]) -> bool:
    """True when an op on ``parents`` records a graph node for backward."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _result(data: np.ndarray, parents: Sequence[Tensor], op: str,
            backward: Callable[[np.ndarray], None]) -> Tensor:
    """The output of ``op`` on ``parents``, and the only code that records a graph
    node: when ``_records(parents)``, the node's backward runs ``backward(out.grad)``."""
    if not np.isfinite(data).all():
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


def add(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        return _result(a.data + float(b), (a,), "add_scalar", a._accumulate)
    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))
    return _result(a.data + b.data, (a, b), "add", backward)


def sub(a: Tensor, b) -> Tensor:
    if isinstance(b, Tensor):
        return add(a, mul(b, -1.0))
    return add(a, -b)


def mul(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        b = float(b)
        return _result(a.data * b, (a,), "mul_scalar", lambda g: a._accumulate(g * b))
    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))
    return _result(a.data * b.data, (a, b), "mul", backward)


# -- contractions ------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
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


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Normalized exponentials along ``axis``, computed with max subtraction."""
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"softmax axis {axis} out of range for shape {x.shape}")
    y = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)
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


def tsum(x: Tensor, axis=None) -> Tensor:
    axes = _norm_axis(axis, x.ndim)
    def backward(g):
        if axes is not None:
            g = np.expand_dims(g, axes)
        x._accumulate(np.broadcast_to(g, x.shape).astype(x.dtype, copy=False))
    return _result(x.data.sum(axis=axes), (x,), "sum", backward)


def tmean(x: Tensor, axis=None) -> Tensor:
    axes = _norm_axis(axis, x.ndim)
    count = x.size if axes is None else int(np.prod([x.shape[a] for a in axes]))
    def backward(g):
        g = g / count
        if axes is not None:
            g = np.expand_dims(g, axes)
        x._accumulate(np.broadcast_to(g, x.shape).astype(x.dtype, copy=False))
    return _result(x.data.mean(axis=axes), (x,), "mean", backward)


# -- structural ops ----------------------------------------------------------


def transpose(x: Tensor, axes) -> Tensor:
    perm = tuple(axes)
    return _result(np.ascontiguousarray(x.data.transpose(perm)), (x,), "transpose",
                   lambda g: x._accumulate(g.transpose(np.argsort(perm))))


def reshape(x: Tensor, shape) -> Tensor:
    return _result(x.data.reshape(shape), (x,), "reshape",
                   lambda g: x._accumulate(g.reshape(x.shape)))


def narrow(x: Tensor, key) -> Tensor:
    """Basic slicing / integer indexing with gradient routing."""
    def backward(g):
        gx = np.zeros_like(x.data)
        gx[key] += g
        x._accumulate(gx)
    return _result(np.ascontiguousarray(x.data[key]), (x,), "slice", backward)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
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
    def backward(g):
        for t, piece in zip(tensors, np.moveaxis(g, axis, 0)):
            if t.requires_grad:
                t._accumulate(piece)
    return _result(np.stack([t.data for t in tensors], axis=axis), tensors, "stack", backward)


def broadcast_to(x: Tensor, shape) -> Tensor:
    return _result(np.ascontiguousarray(np.broadcast_to(x.data, shape)), (x,), "broadcast",
                   lambda g: x._accumulate(_unbroadcast(g, x.shape)))


def pad_axis(x: Tensor, axis: int, before: int, after: int) -> Tensor:
    """Zero-pad one axis; gradient is the central crop."""
    if before < 0 or after < 0:
        raise ShapeError(f"negative padding ({before}, {after})")
    ax = axis % x.ndim
    shape = list(x.shape)
    shape[ax] += before + after
    inner = (slice(None),) * ax + (slice(before, before + x.shape[ax]),)
    out = np.zeros(shape, x.dtype)
    out[inner] = x.data
    return _result(out, (x,), "pad", lambda g: x._accumulate(g[inner]))


def take_rows(table: Tensor, index: np.ndarray) -> Tensor:
    """Gather ``table[index]`` for an integer index array; scatter-add backward."""
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
    """[B, L, C] -> read-only strided view [B, L_out, size, C] of the windows of
    ``size`` along axis 1, ``step`` apart; the caller checks ``size <= L``."""
    b, length, c = x.shape
    s0, s1, s2 = x.strides
    return as_strided(x, (b, (length - size) // step + 1, size, c), (s0, step * s1, s1, s2),
                      writeable=False)


def _fold_windows(g: np.ndarray, out: np.ndarray, step: int) -> np.ndarray:
    """Adjoint of ``_window_view``: scatter-add windows [B, L_out, size, C] into the
    [B, length, C] array or view ``out`` and return it; the backward of every
    sliding-window op."""
    l_out, size = g.shape[1:3]
    span = (l_out - 1) * step + 1
    for j in range(size):
        out[:, j : j + span : step] += g[:, :, j]
    return out


def unfold_windows(x: Tensor, size: int, step: int) -> Tensor:
    """Overlapping windows of a [B, N, D] tensor along axis 1 -> [B, M, size, D]."""
    if x.ndim != 3:
        raise ShapeError(f"unfold_windows expects [B, N, D], got {x.shape}")
    n = x.shape[1]
    if size < 1 or step < 1:
        raise ShapeError(f"invalid window size={size} step={step}")
    if n < size:
        raise ShapeError(f"sequence length {n} shorter than window {size}")
    return _result(np.ascontiguousarray(_window_view(x.data, size, step)), (x,), "unfold",
                   lambda g: x._accumulate(_fold_windows(g, np.zeros(x.shape, g.dtype), step)))


# -- weight file format -------------------------------------------------------

WEIGHTS_MAGIC = b"LGAW"
WEIGHTS_VERSION = 1


def write_weights(path, tensors: Mapping[str, "Tensor | np.ndarray"]) -> None:
    """Write named tensors as little-endian binary, values stored as float32; a
    value that is not finite in float32 is refused before the file is opened."""
    entries = []
    for name in sorted(tensors):  # before opening, so a bad entry leaves the file alone
        arr = tensors[name]
        data = arr.data if isinstance(arr, Tensor) else np.asarray(arr)
        raw = name.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise FormatError(f"tensor name too long: {name!r}")
        if data.ndim > 0xFF:
            raise FormatError(f"tensor rank {data.ndim} exceeds format limit")
        with np.errstate(over="ignore"):  # a value beyond float32's range is refused below
            stored = np.asarray(data, dtype="<f4", order="C")
        if not np.isfinite(stored).all():
            raise FormatError(f"tensor {name!r} holds values that are not finite in float32")
        entries.append((raw, stored))
    with open(path, "wb") as fh:
        fh.write(WEIGHTS_MAGIC)
        fh.write(struct.pack("<II", WEIGHTS_VERSION, len(entries)))
        for raw, data in entries:
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<B", data.ndim))
            fh.write(struct.pack(f"<{data.ndim}I", *data.shape))
            fh.write(data)


class _Reader:
    """Exact reads from the start of an open binary file, tracking the byte offset.
    A length beyond the bytes left is refused before anything is allocated, so a
    corrupt length field is a FormatError, not a MemoryError."""

    def __init__(self, fh):
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.offset = 0

    def _truncated(self, n: int, what: str) -> FormatError:
        return FormatError(f"truncated file: expected {n} bytes for {what} at byte {self.offset}")

    def read(self, n: int, what: str) -> bytes:
        buf = self.fh.read(n) if n <= self.size - self.offset else b""
        if len(buf) != n:
            raise self._truncated(n, what)
        self.offset += n
        return buf

    def read_array(self, shape: tuple[int, ...], what: str) -> np.ndarray:
        """Read little-endian float32 values straight into a new array of `shape`."""
        n = 4 * math.prod(shape)
        if n > self.size - self.offset:
            raise self._truncated(n, what)
        try:
            out = np.empty(shape, "<f4")
        except ValueError as exc:  # over 64 extents, or a zero-size shape too large to index
            raise FormatError(f"{what} at byte {self.offset}: {exc}") from None
        if self.fh.readinto(out) != n:
            raise self._truncated(n, what)
        self.offset += n
        return out


def read_weights(path) -> dict[str, np.ndarray]:
    """Read a weight file back into name -> float32 array; a non-finite value is a
    FormatError naming the tensor and the byte offset of its data."""
    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        r = _Reader(fh)
        magic = r.read(4, "magic")
        if magic != WEIGHTS_MAGIC:
            raise FormatError(f"bad magic {magic!r} at byte 0, expected {WEIGHTS_MAGIC!r}")
        version, count = struct.unpack("<II", r.read(8, "header"))
        if version != WEIGHTS_VERSION:
            raise FormatError(f"unsupported version {version} at byte 4")
        for _ in range(count):
            (nlen,) = struct.unpack("<H", r.read(2, "name length"))
            at = r.offset
            try:
                name = r.read(nlen, "name").decode("utf-8")
            except UnicodeDecodeError:
                raise FormatError(f"tensor name at byte {at} is not valid UTF-8") from None
            if name in out:
                raise FormatError(f"duplicate tensor name {name!r} at byte {at}")
            (rank,) = struct.unpack("<B", r.read(1, "rank"))
            shape = struct.unpack(f"<{rank}I", r.read(4 * rank, "extents"))
            at = r.offset
            data = r.read_array(shape, f"data of {name!r}")
            if not np.isfinite(data).all():
                raise FormatError(f"tensor {name!r} data at byte {at} holds non-finite values")
            out[name] = data
        if r.offset < r.size:
            raise FormatError(f"trailing bytes at byte {r.offset} after {count} tensors")
    return out
