"""Tensor arithmetic, autodiff plumbing, and the weight file format."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lganet import ops
from lganet import tensor as T
from lganet.errors import FormatError, GraphError, NumericsError, ShapeError
from lganet.gradcheck import coordinate_rel_errors, op_checks
from lganet.tensor import Tensor
from lganet.training import bce_loss


def test_matmul_identity():
    out = T.matmul(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.tolist() == [[3.0], [4.0]]


def test_matmul_one_by_one():
    out = T.matmul(Tensor([[2.0]]), Tensor([[3.0]]))
    assert out.data.tolist() == [[6.0]]


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(0)
    a = rng.uniform(-1, 1, (4, 5))
    b = rng.uniform(-1, 1, (5, 3))
    expected = np.zeros((4, 3))
    for i in range(4):
        for j in range(3):
            for k in range(5):
                expected[i, j] += a[i, k] * b[k, j]
    got = T.matmul(Tensor(a, dtype="f64"), Tensor(b, dtype="f64")).data
    assert np.abs(got - expected).max() <= 1e-12


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as exc:
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)


def test_softmax_symmetry():
    out = T.softmax(Tensor([0.0, 0.0, 0.0]), axis=0)
    assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3])


def test_softmax_large_values_do_not_overflow():
    out = T.softmax(Tensor([1000.0, 0.0], dtype="f64"), axis=0)
    assert np.abs(out.data - [1.0, 0.0]).max() <= 1e-12


def test_softmax_matches_direct_formula():
    rng = np.random.default_rng(1)
    x = rng.uniform(-3, 3, 17)
    got = T.softmax(Tensor(x, dtype="f64"), axis=0).data
    expected = np.exp(x) / np.exp(x).sum()
    assert abs(got.sum() - 1.0) <= 1e-6
    assert np.allclose(got, expected, atol=1e-12)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(2)
    x = rng.uniform(-2, 2, (4, 9))
    base = T.softmax(Tensor(x, dtype="f64"), axis=-1).data
    shifted = T.softmax(Tensor(x + 13.5, dtype="f64"), axis=-1).data
    assert np.abs(base - shifted).max() <= 1e-12


def test_backward_of_sum_is_ones():
    x = Tensor(np.random.default_rng(0).uniform(-1, 1, (2, 3, 4)), requires_grad=True)
    T.tsum(x).backward()
    assert np.array_equal(x.grad, np.ones((2, 3, 4), dtype=np.float32))


def test_backward_of_half_sum_of_squares():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True, dtype="f64")
    T.mul(T.tsum(T.mul(x, x)), 0.5).backward()
    assert np.allclose(x.grad, [1.0, 2.0, 3.0])


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(GraphError):
        T.mul(x, 2.0).backward()


def test_backward_on_detached_tensor_is_an_error():
    with pytest.raises(GraphError):
        Tensor([3.0]).backward()
    with pytest.raises(GraphError):
        Tensor([3.0], requires_grad=True).backward()


def test_backward_releases_the_graph_and_runs_once():
    x = Tensor([1.0, 2.0], requires_grad=True, dtype="f64")
    y = T.mul(x, x)
    loss = T.tsum(y)
    loss.backward()
    assert x.grad.tolist() == [2.0, 4.0]
    for node in (y._node, loss._node):
        assert node.fn is None and node.parents == () and node.grad is None
    with pytest.raises(GraphError, match="already consumed"):
        loss.backward()
    with pytest.raises(GraphError, match="already consumed"):
        T.tsum(T.mul(y, 3.0)).backward()  # a new root over a consumed node
    assert x.grad.tolist() == [2.0, 4.0]


def test_a_gradient_of_another_dtype_is_refused():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True, dtype="f32")
    y = T.tsum(T.mul(x, Tensor([2.0], dtype="f64")))  # an f64 operand makes y f64
    assert y.dtype == np.float64
    with pytest.raises(GraphError, match=r"float64 gradient for a float32 leaf of shape \(3,\)"):
        y.backward()


def test_a_gradient_of_another_shape_is_refused():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True, dtype="f32")
    with pytest.raises(GraphError, match=r"gradient of shape \(1,\) for a float32 leaf of shape \(3,\)"):
        x._accumulate(np.ones(1, np.float32))  # would broadcast into all three entries
    assert x.grad is None


def test_a_refused_gradient_names_the_op_that_made_the_tensor():
    a = Tensor(np.ones((2, 4)), requires_grad=True, dtype="f32")
    out = T.matmul(a, Tensor(np.ones((4, 3)), dtype="f32"))
    with pytest.raises(GraphError, match=r"^float64 gradient for the float32 output of 'matmul' "
                                         r"of shape \(2, 3\)$"):
        out._accumulate(np.ones((2, 3)))
    with pytest.raises(GraphError, match=r"^gradient of shape \(3,\) for the float32 output of "
                                         r"'matmul' of shape \(2, 3\)$"):
        out._accumulate(np.ones(3, np.float32))
    assert out.grad is None


@pytest.mark.parametrize("op", [T.add, T.mul, T.sub])
def test_a_numpy_f64_scalar_operand_keeps_an_f32_op_f32(op):
    x = Tensor([1.0, 2.0, 3.0], dtype="f32")
    with T.no_grad():
        assert op(x, np.float64(2.0)).dtype == np.float32


def test_fanout_accumulates_additively():
    x = Tensor([5.0], requires_grad=True)
    T.tsum(T.add(x, x)).backward()
    assert x.grad.tolist() == [2.0]


def test_no_grad_suppresses_graph():
    x = Tensor([1.0], requires_grad=True)
    with T.no_grad():
        y = T.mul(x, 3.0)
    assert not y.requires_grad
    with pytest.raises(GraphError):
        y.backward()


def test_non_finite_result_raises():
    big = Tensor([1e300], dtype="f64")
    with np.errstate(over="ignore"), pytest.raises(
            NumericsError, match=r"op 'mul' on inputs of shape \(1,\), \(1,\)$"):
        T.mul(big, big)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_each_non_finite_output_raises(bad):
    with pytest.raises(NumericsError, match=r"op 'mul_scalar' on inputs of shape \(2,\)$"):
        T.mul(Tensor([1.0, 2.0], dtype="f64"), bad)


# op -> (input shapes, the op applied to tensors of those shapes)
RECORDING_CASES = {
    "add": ([(2, 3), (3,)], T.add),
    "add_scalar": ([(2, 3)], lambda x: T.add(x, 1.5)),
    "sub": ([(2, 3), (2, 3)], T.sub),
    "mul": ([(2, 3), (2, 1)], T.mul),
    "mul_scalar": ([(2, 3)], lambda x: T.mul(x, 2.5)),
    "matmul": ([(2, 3), (3, 4)], T.matmul),
    "softmax": ([(2, 3)], T.softmax),
    "tsum": ([(2, 3)], lambda x: T.tsum(x, axis=0)),
    "tmean": ([(2, 3)], lambda x: T.tmean(x, axis=1)),
    "transpose": ([(2, 3)], lambda x: T.transpose(x, (1, 0))),
    "reshape": ([(2, 3)], lambda x: T.reshape(x, (3, 2))),
    "narrow": ([(2, 3)], lambda x: T.narrow(x, (slice(None), 1))),
    "concatenate": ([(2, 3), (2, 1)], lambda a, b: T.concatenate([a, b], axis=1)),
    "stack": ([(2, 3), (2, 3)], lambda a, b: T.stack([a, b], axis=1)),
    "broadcast_to": ([(1, 3)], lambda x: T.broadcast_to(x, (2, 3))),
    "pad_axis": ([(2, 3)], lambda x: T.pad_axis(x, 1, 1, 2)),
    "take_rows": ([(4, 3)], lambda t: T.take_rows(t, np.array([[0, 3], [3, 1]]))),
    "unfold_windows": ([(1, 6, 2)], lambda x: T.unfold_windows(x, 4, 2)),
    "conv1d": ([(2, 5, 2), (3, 2, 3), (3,)],
               lambda x, w, b: ops.conv1d(x, ops.Conv1dParams(w, b, 1))),
    "layer_norm": ([(2, 3), (3,), (3,)],
                   lambda x, g, b: ops.layer_norm(x, ops.LayerNormParams(g, b))),
    "max_pool1d": ([(2, 6, 2)], lambda x: ops.max_pool1d(x, 2, 2)),
    "avg_pool1d": ([(2, 6, 2)], lambda x: ops.avg_pool1d(x, 3, 1)),
    "linear": ([(2, 3), (3, 4), (4,)], ops.linear),
    "relu": ([(2, 3)], ops.relu),
    "sigmoid": ([(2, 3)], ops.sigmoid),
    "bce_loss": ([(2, 3)], lambda z: bce_loss(z, np.array([[0, 1, 1], [1, 0, 0]]))),
}


def recorded_leaves(out):
    """The leaves that ``out``'s graph nodes send gradients to."""
    leaves, stack = [], [out._node]
    while stack:
        node = stack.pop()
        if isinstance(node, Tensor):  # a leaf is its own sink
            leaves.append(node)
        elif node is not None:  # None: a parent that requires no grad
            stack.extend(node.parents)
    return leaves


@pytest.mark.parametrize("name", sorted(RECORDING_CASES))
def test_every_op_records_only_when_an_input_requires_grad(name):
    shapes, op = RECORDING_CASES[name]
    rng = np.random.default_rng(0)

    def inputs(grad):
        return [Tensor(rng.uniform(-1, 1, s), requires_grad=grad, dtype="f64") for s in shapes]

    with T.no_grad():
        unrecorded = [op(*inputs(True))]
    unrecorded.append(op(*inputs(False)))
    for out in unrecorded:
        assert not out.requires_grad and out._parents == () and out._backward is None
    xs = inputs(True)
    out = op(*xs)
    assert out.requires_grad and callable(out._backward)
    # a composite op (sub, linear) records its inputs through its inner nodes
    assert {id(t) for t in recorded_leaves(out)} == {id(t) for t in xs}
    if name not in ("sub", "linear"):
        assert out._parents == tuple(xs)
    T.tsum(out).backward()
    assert all(t.grad is not None and t.grad.shape == t.shape for t in xs)


def test_slice_and_concat_roundtrip():
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    left, right = T.narrow(x, np.s_[:, :2]), T.narrow(x, np.s_[:, 2:])
    back = T.concatenate([left, right], axis=1)
    assert np.array_equal(back.data, x.data)
    T.tsum(back).backward()
    assert np.array_equal(x.grad, np.ones((3, 4), dtype=np.float32))


def test_stack_matches_numpy():
    a, b = Tensor([1.0, 2.0]), Tensor([3.0, 4.0])
    assert T.stack([a, b], axis=0).data.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_transpose_reshape_broadcast_values():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    assert np.array_equal(T.transpose(x, (1, 0)).data, x.data.T)
    assert np.array_equal(T.reshape(x, (3, 2)).data, x.data.reshape(3, 2))
    y = T.broadcast_to(Tensor([[1.0, 2.0]]), (3, 2))
    assert np.array_equal(y.data, np.broadcast_to([[1.0, 2.0]], (3, 2)))


def test_pad_axis_values_and_gradient():
    x = Tensor([[1.0, 2.0]], requires_grad=True)
    y = T.pad_axis(x, 1, 2, 1)
    assert y.data.tolist() == [[0.0, 0.0, 1.0, 2.0, 0.0]]
    T.tsum(y).backward()
    assert x.grad.tolist() == [[1.0, 1.0]]


def _pull_back(y: Tensor, seed: int) -> np.ndarray:
    """A fixed cotangent for ``y``, so ``backward`` hands each input its vector-Jacobian product."""
    g = np.random.default_rng(seed).uniform(-1, 1, y.shape).astype(y.dtype)
    T.tsum(T.mul(y, Tensor(g))).backward()
    return g


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("before, after, axis", [(1, 1, 1), (2, 3, 1), (3, 0, -1), (0, 2, 0)])
def test_pad_axis_matches_np_pad(dtype, before, after, axis):
    x = Tensor(np.random.default_rng(4).uniform(-1, 1, (2, 5, 3)), requires_grad=True, dtype=dtype)
    y = T.pad_axis(x, axis, before, after)
    widths = [(0, 0)] * 3
    widths[axis] = (before, after)
    assert y.dtype == x.dtype and np.array_equal(y.data, np.pad(x.data, widths))
    g = _pull_back(y, seed=5)
    inner = [slice(None)] * 3
    inner[axis] = slice(before, before + x.shape[axis])
    assert np.array_equal(x.grad, g[tuple(inner)])


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("padding", [1, 2, 3])
def test_conv1d_padding_matches_an_np_pad_input(dtype, padding):
    """A padded conv is the unpadded conv of the np.pad-ed input, bit for bit, and its
    input gradient is the central crop of that input's gradient."""
    rng = np.random.default_rng(padding)
    p = ops.Conv1dParams.create(3, 4, 5, padding, rng, dtype=dtype)
    x = Tensor(rng.uniform(-1, 1, (2, 7, 3)), requires_grad=True, dtype=dtype)
    y = ops.conv1d(x, p)
    _pull_back(y, seed=6)
    got = (y.data, x.grad, p.weight.grad, p.bias.grad)
    p.weight.grad = p.bias.grad = None
    ref_x = Tensor(np.pad(x.data, ((0, 0), (padding, padding), (0, 0))), requires_grad=True)
    ref = ops.conv1d(ref_x, ops.Conv1dParams(p.weight, p.bias, 0))
    _pull_back(ref, seed=6)
    want = (ref.data, ref_x.grad[:, padding:-padding], p.weight.grad, p.bias.grad)
    for a, b in zip(got, want):
        assert a.dtype == x.dtype and np.array_equal(a, b)


def test_unfold_windows_values():
    x = Tensor(np.arange(8.0).reshape(1, 8, 1))
    win = T.unfold_windows(x, 4, 2)
    assert win.shape == (1, 3, 4, 1)
    assert win.data[0, 1, :, 0].tolist() == [2.0, 3.0, 4.0, 5.0]


@settings(max_examples=60, deadline=None)
@given(b=st.integers(1, 3), length=st.integers(1, 12), c=st.integers(1, 3),
       size=st.integers(1, 5), step=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_fold_windows_is_the_adjoint_of_window_view(b, length, c, size, step, seed):
    assume(size <= length)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (b, length, c))
    view = T._window_view(x, size, step)
    g = rng.uniform(-1, 1, view.shape)
    assert abs(np.vdot(view, g) - np.vdot(x, T._fold_windows(g, np.zeros_like(x), step))) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(b=st.integers(1, 3), length=st.integers(1, 12), c=st.integers(1, 3),
       size=st.integers(1, 5), step=st.integers(1, 4), seed=st.integers(0, 2**16),
       dtype=st.sampled_from([np.float32, np.float64]), every_other=st.booleans())
def test_window_view_matches_the_sliding_window_view_oracle(b, length, c, size, step, seed,
                                                            dtype, every_other):
    assume(size <= length)
    wide = np.random.default_rng(seed).uniform(-1, 1, (b, length, 2 * c)).astype(dtype)
    x = wide[:, :, ::2] if every_other else np.ascontiguousarray(wide[:, :, :c])
    view = T._window_view(x, size, step)
    oracle = np.lib.stride_tricks.sliding_window_view(x, size, axis=1)[:, ::step].swapaxes(2, 3)
    assert view.dtype == x.dtype and view.shape == oracle.shape
    assert np.array_equal(view, oracle)
    assert not view.flags.writeable


def test_take_rows_gathers_and_scatters():
    table = Tensor(np.arange(10.0).reshape(5, 2), requires_grad=True, dtype="f64")
    idx = np.array([[0, 3], [3, 4]])
    out = T.take_rows(table, idx)
    assert out.shape == (2, 2, 2)
    T.tsum(out).backward()
    # row 3 gathered twice -> gradient 2 per element
    assert table.grad[:, 0].tolist() == [1.0, 0.0, 0.0, 2.0, 1.0]


def test_forward_determinism_same_seed():
    def build():
        rng = np.random.default_rng(123)
        a = Tensor(rng.uniform(-1, 1, (5, 5)), dtype="f64")
        b = Tensor(rng.uniform(-1, 1, (5, 5)), dtype="f64")
        return T.softmax(T.matmul(a, b), axis=-1).data
    assert np.array_equal(build(), build())


def test_every_op_gradient_check_quantiles():
    """Central differences vs analytic gradients: 99% of coordinates within
    1e-4, all within 1e-3, for every registered differentiable op."""
    for name, run in op_checks(seed=0):
        err = run()
        assert err <= 1e-3, f"{name}: max relative error {err:.3e}"


def test_gradient_error_distribution_on_core_ops():
    rng = np.random.default_rng(3)
    x = Tensor(rng.uniform(-1, 1, (4, 6)), requires_grad=True, dtype="f64")
    w = Tensor(rng.uniform(-1, 1, (6, 3)), requires_grad=True, dtype="f64")
    errs = coordinate_rel_errors(lambda: T.tsum(T.softmax(T.matmul(x, w), axis=-1)), [x, w])
    assert np.quantile(errs, 0.99) <= 1e-4
    assert errs.max() <= 1e-3


def test_only_the_analytic_evaluation_records_a_graph():
    x = Tensor([0.5, -1.5], requires_grad=True, dtype="f64")
    recorded = []

    def fn():
        out = T.tsum(T.mul(x, x))
        recorded.append(out.requires_grad)
        return out

    assert coordinate_rel_errors(fn, [x]).max() <= 1e-6
    assert recorded == [True] + [False] * 4


# -- weight file format ----------------------------------------------------


def test_weight_file_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "layer.weight": rng.standard_normal((3, 4, 5)).astype(np.float32),
        "layer.bias": rng.standard_normal(7).astype(np.float32),
        "scalar": np.float32(2.5).reshape(()),
    }
    path = tmp_path / "w.lgaw"
    T.write_weights(path, tensors)
    back = T.read_weights(path)
    assert set(back) == set(tensors)
    for name in tensors:
        assert back[name].shape == np.asarray(tensors[name]).shape
        assert np.array_equal(back[name], tensors[name])


def test_weight_file_reads_owned_arrays_and_writes_views(tmp_path):
    x = np.random.default_rng(1).standard_normal((3, 4)).astype(np.float32)
    T.write_weights(tmp_path / "view.lgaw", {"t": x.T, "s": x[1, 2]})
    T.write_weights(tmp_path / "copy.lgaw", {"t": x.T.copy(), "s": x[1, 2].copy()})
    assert (tmp_path / "view.lgaw").read_bytes() == (tmp_path / "copy.lgaw").read_bytes()
    back = T.read_weights(tmp_path / "view.lgaw")
    (tmp_path / "view.lgaw").write_bytes(bytes((tmp_path / "view.lgaw").stat().st_size))
    assert back["t"].tobytes() == x.T.tobytes() and back["s"].shape == ()
    for arr in back.values():
        assert arr.dtype == np.float32 and arr.base is None
        assert arr.flags.c_contiguous and arr.flags.aligned and arr.flags.writeable


@pytest.mark.parametrize("shape", [(0,) * 65, (0, 2**32 - 1, 2**32 - 1, 2**32 - 1)],
                         ids=["rank-65", "zero-size-huge"])
def test_weight_file_shape_numpy_cannot_hold_is_a_format_error(tmp_path, shape):
    path = tmp_path / "w.lgaw"
    entry = b"\x01\x00a" + bytes([len(shape)]) + np.array(shape, "<u4").tobytes()
    path.write_bytes(b"LGAW" + np.array([1, 1], "<u4").tobytes() + entry)
    with pytest.raises(FormatError, match=f"data of 'a' at byte {path.stat().st_size}: "):
        T.read_weights(path)


def test_weight_file_layout(tmp_path):
    path = tmp_path / "w.lgaw"
    T.write_weights(path, {"a": np.zeros(2, dtype=np.float32)})
    raw = path.read_bytes()
    assert raw[:4] == b"LGAW"
    assert int.from_bytes(raw[4:8], "little") == 1   # version
    assert int.from_bytes(raw[8:12], "little") == 1  # tensor count
    assert int.from_bytes(raw[12:14], "little") == 1 # name length
    assert raw[14:15] == b"a"


def test_failed_weight_write_leaves_existing_file_alone(tmp_path):
    path = tmp_path / "w.lgaw"
    T.write_weights(path, {"a": np.ones(4, dtype=np.float32)})
    before = path.read_bytes()
    a = np.zeros(4, dtype=np.float32)
    for bad, error in (({"a": a, "b" * 0x10000: np.zeros(1)}, FormatError),  # name too long
                       ({"a": a, "b": np.array(["x"])}, ValueError)):         # not numeric
        with pytest.raises(error):
            T.write_weights(path, bad)
        assert path.read_bytes() == before


def test_weight_file_non_finite_value_names_the_tensor_and_offset(tmp_path):
    path = tmp_path / "w.lgaw"
    T.write_weights(path, {"head.bias": np.zeros(3, np.float32), "head.weight": np.ones((2, 3), np.float32)})
    raw = bytearray(path.read_bytes())
    # header (12) + name length (2) + "head.bias" (9) + rank (1) + extent (4): data at byte 28
    raw[32:36] = np.float32(np.nan).tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="tensor 'head.bias' data at byte 28 holds non-finite values"):
        T.read_weights(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39], ids=["nan", "+inf", "-inf", "f32-overflow"])
def test_non_finite_weight_write_leaves_existing_file_alone(tmp_path, bad):
    path = tmp_path / "w.lgaw"
    T.write_weights(path, {"a": np.ones(4, dtype=np.float32)})
    before = path.read_bytes()
    with pytest.raises(FormatError, match="tensor 'head.bias' holds values that are not finite"):
        T.write_weights(path, {"a": np.zeros(4), "head.bias": np.array([0.0, bad])})
    assert path.read_bytes() == before


def test_weight_file_bad_magic(tmp_path):
    path = tmp_path / "w.lgaw"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError) as exc:
        T.read_weights(path)
    assert "byte 0" in str(exc.value)


def test_weight_file_bad_name_reports_offset(tmp_path):
    path = tmp_path / "w.lgaw"
    T.write_weights(path, {"a": np.zeros(1, dtype=np.float32)})
    raw = path.read_bytes()
    path.write_bytes(raw[:14] + b"\xff" + raw[15:])  # the name byte: not UTF-8
    with pytest.raises(FormatError, match="name at byte 14 is not valid UTF-8"):
        T.read_weights(path)


def test_weight_file_duplicate_name_reports_offset(tmp_path):
    path = tmp_path / "w.lgaw"
    T.write_weights(path, {"a": np.zeros(1, dtype=np.float32), "b": np.ones(1, dtype=np.float32)})
    raw = path.read_bytes()
    # entry = name length (2) + name + rank (1) + extent (4) + value (4): "b" is at byte 26
    path.write_bytes(raw[:26] + b"a" + raw[27:])
    with pytest.raises(FormatError, match="duplicate tensor name 'a' at byte 26"):
        T.read_weights(path)


def test_weight_file_truncation_reports_offset(tmp_path):
    path = tmp_path / "w.lgaw"
    T.write_weights(path, {"a": np.zeros(4, dtype=np.float32)})
    path.write_bytes(path.read_bytes()[:-6])
    with pytest.raises(FormatError) as exc:
        T.read_weights(path)
    assert "byte" in str(exc.value)


def test_weight_file_trailing_bytes_report_offset(tmp_path):
    path = tmp_path / "w.lgaw"
    T.write_weights(path, {"a": np.zeros(4, dtype=np.float32)})
    size = path.stat().st_size
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(FormatError) as exc:
        T.read_weights(path)
    assert f"byte {size}" in str(exc.value)
