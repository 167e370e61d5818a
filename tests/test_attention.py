"""Windowed-query attention: counting laws, path equivalence, variants, encodings."""

from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced
from lganet import attention as A
from lganet import ops
from lganet.errors import ConfigError, NumericsError, ShapeError
from lganet.gradcheck import _weighted_sum, max_rel_error
from lganet.ops import LAYER_NORM_EPS, avg_pool1d, conv1d, layer_norm
from lganet.tensor import (Tensor, add, mul, narrow, no_grad, pad_axis, reshape, stack, take_rows,
                           tmean, tsum, unfold_windows)

R64 = dict(dtype="f64")


def make_weights(cfg, seed=0):
    return A.LgaWeights.create(cfg, np.random.default_rng(seed), np.float64)


def set_identity(conv):
    d = conv.out_channels
    k = conv.kernel_size
    w = np.zeros((d, d, k))
    w[:, :, k // 2] = np.eye(d)
    conv.weight.data = w
    conv.bias.data = np.zeros(d)


# -- window counting ---------------------------------------------------------


def test_window_count_unpadded_example():
    assert A.window_count(16, 4, 2, halving=False) == 7


def test_window_count_halving_example():
    assert A.window_count(16, 4, 2, halving=True) == 8


def test_window_count_single_window():
    assert A.window_count(6, 6, 6, halving=False) == 1


def test_window_count_too_short_unpadded():
    with pytest.raises(ShapeError):
        A.window_count(3, 4, 2, halving=False)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 128), l=st.integers(1, 32), s=st.integers(1, 8))
def test_window_count_laws(n, l, s):
    if l < s:
        with pytest.raises(ShapeError):
            A.window_count(n, l, s, halving=False)
        return
    if n >= l:
        assert A.window_count(n, l, s, halving=False) == (n - l) // s + 1
    if n >= s and n % s == 0:
        assert A.window_count(n, l, s, halving=True) == n // s


# -- query path --------------------------------------------------------------


def reference_queries(x_norm, cfg, w):
    """`local_queries` window by window: slice every window together with its
    convolution context, convolve it unpadded and average it on its own."""
    l, s, p_q = cfg.window_len, cfg.stride, w.conv_q.padding
    m = A.window_count(x_norm.shape[1], l, s, cfg.halving)
    xp = pad_axis(x_norm, 1, cfg.halo, cfg.halo)
    valid_conv = replace(w.conv_q, padding=0)
    n_pad = xp.shape[1]
    queries = []
    for i in range(m):
        lo, hi = i * s - p_q, i * s + l + p_q
        piece = narrow(xp, (slice(None), slice(max(lo, 0), min(hi, n_pad))))
        piece = pad_axis(piece, 1, max(0, -lo), max(0, hi - n_pad))
        queries.append(tmean(conv1d(piece, valid_conv), axis=1))
    return stack(queries, axis=1)


def test_local_queries_identity_conv_constant_input():
    cfg = A.LgaConfig(embed_dim=3, heads=1, window_len=4, stride=2, query_kernel=1)
    w = make_weights(cfg)
    set_identity(w.conv_q)
    x = Tensor(np.full((2, 8, 3), 1.25), **R64)
    q = A.local_queries(x, cfg, w)
    # halo zeros dilute the two edge windows; interior windows keep the constant
    assert np.allclose(q.data[:, 1:-1, :], 1.25)


def test_local_queries_single_window_is_temporal_mean():
    cfg = A.LgaConfig(embed_dim=3, heads=1, window_len=6, stride=6,
                      query_kernel=1, halving=False)
    w = make_weights(cfg)
    set_identity(w.conv_q)
    x = Tensor(np.random.default_rng(0).uniform(-1, 1, (2, 6, 3)), **R64)
    q = A.local_queries(x, cfg, w)
    assert q.shape == (2, 1, 3)
    assert np.abs(q.data[:, 0, :] - x.data.mean(axis=1)).max() <= 1e-15


@pytest.mark.parametrize("halving", [False, True])
def test_fast_path_equals_reference_path(halving):
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        d = int(rng.choice([2, 4, 8]))
        s = int(rng.choice([1, 2, 4]))
        l = s + 2 * int(rng.integers(0, 4))
        n = s * int(rng.integers(max(2, -(-l // s)), 12))
        if not halving and n < l:
            n = l + s * int(rng.integers(0, 6))
        cfg = A.LgaConfig(embed_dim=d, heads=1, window_len=l, stride=s,
                          query_kernel=int(rng.choice([1, 3, 5])), halving=halving)
        w = A.LgaWeights.create(cfg, rng, np.float64)
        x = Tensor(rng.uniform(-1, 1, (2, n, d)), **R64)
        fast = A.local_queries(x, cfg, w).data
        ref = reference_queries(x, cfg, w).data
        if halving:
            diff = np.abs(fast[:, 1:-1] - ref[:, 1:-1]) if fast.shape[1] > 2 else np.zeros(1)
        else:
            diff = np.abs(fast - ref)
        worst = max(worst, float(np.max(diff)))
    assert worst <= 1e-12


def test_global_kv_identity_conv():
    cfg = A.LgaConfig(embed_dim=4, heads=2, window_len=4, stride=2, kv_kernel=1)
    w = make_weights(cfg)
    set_identity(w.conv_k)
    set_identity(w.conv_v)
    x = Tensor(np.random.default_rng(1).uniform(-1, 1, (2, 8, 4)), **R64)
    k, v = A.global_kv(x, cfg, w)
    assert np.array_equal(k.data, x.data) and np.array_equal(v.data, x.data)


def test_global_kv_zero_conv():
    cfg = A.LgaConfig(embed_dim=4, heads=2, window_len=4, stride=2)
    w = make_weights(cfg)
    for conv in (w.conv_k, w.conv_v):
        conv.weight.data[:] = 0.0
        conv.bias.data[:] = 0.0
    x = Tensor(np.random.default_rng(2).uniform(-1, 1, (2, 8, 4)), **R64)
    k, v = A.global_kv(x, cfg, w)
    assert not k.data.any() and not v.data.any()


def test_global_kv_matches_loop_conv():
    cfg = A.LgaConfig(embed_dim=3, heads=1, window_len=4, stride=2, kv_kernel=3)
    w = make_weights(cfg, seed=5)
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, (2, 6, 3))
    k, _ = A.global_kv(Tensor(x, **R64), cfg, w)
    xc = np.pad(x.transpose(0, 2, 1), ((0, 0), (0, 0), (1, 1)))
    expected = np.zeros((2, 3, 6))
    wk = w.conv_k.weight.data
    bk = w.conv_k.bias.data
    for n in range(2):
        for o in range(3):
            for t in range(6):
                expected[n, o, t] = (wk[o] * xc[n, :, t : t + 3]).sum() + bk[o]
    assert np.abs(k.data - expected.transpose(0, 2, 1)).max() <= 1e-12


@pytest.mark.parametrize("variant", [A.VARIANT_LGA, A.VARIANT_GLOBAL_QKV])
def test_shared_kv_conv_equals_two_convs(variant):
    """K and V from the one shared conv match two separate convs, values and gradients."""
    cfg = A.LgaConfig(embed_dim=4, heads=2, window_len=4, stride=2, variant=variant)
    x = np.random.default_rng(22).uniform(-1, 1, (2, 8, 4))

    def run(kv_of):
        w = make_weights(cfg, seed=21)
        xt = Tensor(x, requires_grad=True, **R64)
        k, v = kv_of(xt, w)
        # one random cotangent over both, so K and V get different upstream gradients
        _weighted_sum(stack([k, v])).backward()
        return [k.data, v.data, xt.grad] + [t.grad for c in (w.conv_k, w.conv_v)
                                            for t in (c.weight, c.bias)]

    shared = run(lambda xt, w: A.global_kv(xt, cfg, w))
    separate = run(lambda xt, w: (conv1d(xt, w.conv_k), conv1d(xt, w.conv_v)))
    for got, want in zip(shared, separate):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12


# -- the full layer ------------------------------------------------------------


def identity_lga_weights(cfg):
    w = make_weights(cfg)
    for conv in (w.conv_q, w.conv_k, w.conv_v):
        set_identity(conv)
    return w


def test_single_token_closed_form():
    cfg = A.LgaConfig(embed_dim=3, heads=1, window_len=1, stride=1,
                      query_kernel=1, kv_kernel=1)
    w = identity_lga_weights(cfg)
    x = Tensor(np.random.default_rng(4).uniform(-1, 1, (2, 1, 3)), **R64)
    out = A.attention_variant(x, cfg, w)
    expected = 2.0 * layer_norm(x, w.norm).data
    assert np.array_equal(out.data, expected)


def test_all_equal_keys_attend_to_value_mean():
    cfg = A.LgaConfig(embed_dim=4, heads=2, window_len=4, stride=2, kv_kernel=1)
    w = make_weights(cfg, seed=6)
    w.conv_k.weight.data[:] = 0.0  # keys collapse to the bias vector
    x = Tensor(np.random.default_rng(5).uniform(-1, 1, (2, 8, 4)), **R64)
    xn = layer_norm(x, w.norm)
    q = A.local_queries(xn, cfg, w)
    _, v = A.global_kv(xn, cfg, w)
    out = A.attention_variant(x, cfg, w)
    attended = out.data - q.data
    assert np.abs(attended - v.data.mean(axis=1, keepdims=True)).max() <= 1e-10


def numpy_layer_norm(x, norm):
    mu = x.mean(-1, keepdims=True)
    var = ((x - mu) ** 2).mean(-1, keepdims=True)
    return norm.gamma.data * (x - mu) / np.sqrt(var + LAYER_NORM_EPS) + norm.beta.data


def numpy_softmax(scores):
    e = np.exp(scores - scores.max(-1, keepdims=True))
    return e / e.sum(-1, keepdims=True)


def numpy_lga_oracle(x, cfg, w):
    """Step-by-step plain-numpy recomputation of the whole layer."""
    xn = numpy_layer_norm(x, w.norm)
    b, n, d = xn.shape
    l, s, halo = cfg.window_len, cfg.stride, cfg.halo
    xp = np.pad(xn, ((0, 0), (halo, halo), (0, 0)))
    m = n // s if cfg.halving else (n - l) // s + 1

    def conv_seq(seq, p):
        pad = p.padding
        sp = np.pad(seq, ((0, 0), (pad, pad), (0, 0)))
        out = np.zeros((seq.shape[0], seq.shape[1], p.out_channels))
        for t in range(seq.shape[1]):
            window = sp[:, t : t + p.kernel_size, :]  # [B, k, Cin]
            out[:, t, :] = np.einsum("bkc,ock->bo", window, p.weight.data) + p.bias.data
        return out

    qf = conv_seq(xp, w.conv_q)
    q = np.stack([qf[:, i * s : i * s + l, :].mean(axis=1) for i in range(m)], axis=1)
    k = conv_seq(xn, w.conv_k)
    v = conv_seq(xn, w.conv_v)
    dh = d // cfg.heads
    out = np.zeros((b, m, d))
    for h in range(cfg.heads):
        sl = slice(h * dh, (h + 1) * dh)
        scores = q[:, :, sl] @ k[:, :, sl].transpose(0, 2, 1) / np.sqrt(dh)
        out[:, :, sl] = numpy_softmax(scores) @ v[:, :, sl]
    return out + q


def test_lg_attention_matches_compositional_oracle():
    cfg = A.LgaConfig(embed_dim=4, heads=2, window_len=4, stride=2)
    w = make_weights(cfg, seed=7)
    x = np.random.default_rng(6).uniform(-1, 1, (1, 8, 4))
    got = A.attention_variant(Tensor(x, **R64), cfg, w).data
    assert np.abs(got - numpy_lga_oracle(x, cfg, w)).max() <= 1e-10


def test_query_residual_fidelity_with_zero_values():
    cfg = A.LgaConfig(embed_dim=4, heads=2, window_len=4, stride=2)
    w = make_weights(cfg, seed=8)
    w.conv_v.weight.data[:] = 0.0
    w.conv_v.bias.data[:] = 0.0
    x = Tensor(np.random.default_rng(7).uniform(-1, 1, (2, 8, 4)), **R64)
    xn = layer_norm(x, w.norm)
    q = A.local_queries(xn, cfg, w)
    out = A.attention_variant(x, cfg, w)
    assert np.array_equal(out.data, q.data)


def test_non_finite_scores_abort():
    cfg = A.LgaConfig(embed_dim=2, heads=1, window_len=2, stride=2)
    w = make_weights(cfg, seed=9)
    w.conv_q.weight.data[:] = 1e200  # Q*K overflows the score matmul
    w.conv_k.weight.data[:] = 1e200
    x = Tensor(np.random.default_rng(8).uniform(-1, 1, (1, 4, 2)), **R64)
    messages = []
    for mode in (nullcontext, no_grad):  # with a graph, then without
        with mode(), np.errstate(over="ignore"), pytest.raises(NumericsError) as err:
            A.attention_variant(x, cfg, w)
        messages.append(str(err.value))
    assert "op 'matmul'" in messages[0] and messages[1] == messages[0]


# -- variants -------------------------------------------------------------------


def test_unknown_variant_rejected():
    cfg = A.LgaConfig(embed_dim=4, heads=2, window_len=4, variant="BOGUS")
    with pytest.raises(ConfigError):
        cfg.validate()


def test_local_qkv_constant_input_disjoint_windows():
    cfg = A.LgaConfig(embed_dim=4, heads=2, window_len=2, stride=2,
                      variant=A.VARIANT_LOCAL_QKV)
    w = make_weights(cfg, seed=10)
    x = Tensor(np.full((2, 8, 4), 0.3), **R64)
    xn = layer_norm(x, w.norm)
    out = A.attention_core(xn, cfg, w)
    # queries, keys, values are all the normalized constant c: output is 2c
    assert np.abs(out.data - 2.0 * xn.data[:, ::2, :]).max() <= 1e-12


def numpy_local_qkv_oracle(x, cfg, w):
    """LOCAL_QKV window by window and head by head in plain numpy: the mean of
    each halo-padded window attends to the window's own embeddings."""
    xn = numpy_layer_norm(x, w.norm)
    b, n, d = xn.shape
    l, s, halo, cap = cfg.window_len, cfg.stride, cfg.halo, cfg.max_len
    xp = np.pad(xn, ((0, 0), (halo, halo), (0, 0)))
    # the query sits at its window's start, so key j is at offset j
    bias = w.rel.data[np.clip(np.arange(l), -cap, cap) + cap]
    dh = d // cfg.heads
    out = np.zeros((b, n // s, d))
    for i in range(n // s):
        win = xp[:, i * s : i * s + l, :]  # [B, l, D]
        q = win.mean(axis=1)
        for h in range(cfg.heads):
            sl = slice(h * dh, (h + 1) * dh)
            scores = np.einsum("bd,bjd->bj", q[:, sl], win[:, :, sl]) / np.sqrt(dh) + bias
            out[:, i, sl] = np.einsum("bj,bjd->bd", numpy_softmax(scores), win[:, :, sl])
        out[:, i] += q
    return out


def test_local_qkv_matches_numpy_oracle():
    # two heads, a non-zero halo and a random offset table: a wrong head layout
    # or bias offset shows, where the constant-input test above cannot see it
    cfg = A.LgaConfig(embed_dim=8, heads=2, window_len=6, stride=2,
                      variant=A.VARIANT_LOCAL_QKV, pos_encoding=A.PE_RELATIVE, max_len=16)
    w = make_weights(cfg, seed=23)
    rng = np.random.default_rng(24)
    w.rel.data[:] = rng.uniform(-1, 1, w.rel.shape)
    x = rng.uniform(-1, 1, (2, 16, 8))
    got = A.attention_variant(Tensor(x, **R64), cfg, w).data
    assert got.shape == (2, 8, 8)
    assert np.abs(got - numpy_local_qkv_oracle(x, cfg, w)).max() <= 1e-12


def reference_local_core(x_norm, cfg, w, capture=None):
    """`LOCAL_QKV` window by window: every overlapping window is copied out and
    attended as its own batch row, its one mean query against its l keys; the
    captured weights are [B*M, H, 1, l]."""
    b, n, d = x_norm.shape
    l, s = cfg.window_len, cfg.stride
    xw = unfold_windows(pad_axis(x_norm, 1, cfg.halo, cfg.halo), l, s)  # [B, M, l, D]
    m = xw.shape[1]
    q, kw = tmean(xw, axis=2), xw
    if cfg.pos_encoding in (A.PE_SINUSOIDAL, A.PE_LEARNABLE):
        pe = pad_axis(A._ape_rows(w, cfg, n), 1, cfg.halo, cfg.halo)
        q, kw = add(q, avg_pool1d(pe, l, s)), add(kw, unfold_windows(pe, l, s))
    o = A._mha(reshape(q, (b * m, 1, d)), reshape(kw, (b * m, l, d)), reshape(xw, (b * m, l, d)),
               cfg.heads, A._relative_bias(w, cfg, 1, l), capture)
    return add(reshape(o, (b, m, d)), q)


@pytest.mark.parametrize("pe", A.POS_ENCODINGS)
@pytest.mark.parametrize("n,l,s,halving", [(16, 6, 2, True), (32, 64, 2, True),
                                           (12, 3, 3, True), (16, 4, 2, False)])
def test_local_qkv_band_matches_per_window_reference(pe, n, l, s, halving):
    cfg = A.LgaConfig(embed_dim=8, heads=2, window_len=l, stride=s, halving=halving,
                      variant=A.VARIANT_LOCAL_QKV, pos_encoding=pe, max_len=n)
    rng = np.random.default_rng(25)
    x = rng.uniform(-1, 1, (2, n, 8))

    def run(core):
        w = make_weights(cfg, seed=26)
        for table in (w.ape, w.rel):
            if table is not None:
                table.data[:] = np.random.default_rng(27).uniform(-0.5, 0.5, table.shape)
        xt = Tensor(x, requires_grad=True, **R64)
        capture = {}
        out = core(xt, cfg, w, capture)
        _weighted_sum(out).backward()
        # the layer norm is not part of the core, so only the tables get gradients
        grads = [xt.grad] + [t.grad for t in w.parameters("w").values() if t.grad is not None]
        return out.data, capture["attn"][0], grads

    out, attn, grads = run(A.attention_core)
    ref_out, ref_attn, ref_grads = run(reference_local_core)
    assert np.abs(out - ref_out).max() <= 1e-12
    assert len(grads) == len(ref_grads) == 1 + (pe in (A.PE_LEARNABLE, A.PE_RELATIVE))
    for got, want in zip(grads, ref_grads):
        assert np.abs(got - want).max() <= 1e-12
    b, h, m, n_keys = attn.shape
    assert (m, n_keys) == (ref_out.shape[1], n + 2 * cfg.halo)
    rows = np.arange(m)[:, None]
    band = s * rows + np.arange(l)  # window i's keys
    in_band = attn[:, :, rows, band]  # [B, H, M, l]
    assert np.abs(in_band - ref_attn.reshape(b, m, h, l).transpose(0, 2, 1, 3)).max() <= 1e-12
    outside = np.ones((m, n_keys), dtype=bool)
    outside[rows, band] = False
    assert not attn[:, :, outside].any()


def test_recorded_local_qkv_holds_no_window_copies():
    # stage-1 shapes of the paper model: N=256, D=128, H=4, l=64, stride 2, at B=2. A copy
    # of every window, [2, 128, 64, 128] f32, is 8 MiB alone (the per-window path held
    # 25.5 MiB); the banded [2, 4, 128, 318] scores leave the core holding 6.7 MiB
    cfg = A.LgaConfig(embed_dim=128, heads=4, window_len=64, stride=2,
                      variant=A.VARIANT_LOCAL_QKV)
    w = A.LgaWeights.create(cfg, np.random.default_rng(28))
    x = Tensor(np.random.default_rng(29).uniform(-1, 1, (2, 256, 128)), requires_grad=True,
               dtype="f32")
    held, _, out = traced(lambda: A.attention_core(x, cfg, w))
    assert out.requires_grad
    assert held <= 8 << 20


def row_blocks(rows):
    """A stand-in for ``ops._blocks`` that cuts the batch rows into blocks of ``rows``."""
    return lambda b, l_out, row_bytes: [(slice(i, i + rows), slice(0, 1))
                                        for i in range(0, b, rows)]


# B=3 rows as 1+1+1, as 2+1 and as the default's one block
@pytest.mark.parametrize("rows", [1, 2, None], ids=["one-row", "two-rows", "default"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_unrecorded_attention_is_the_recorded_path_bit_for_bit(rows, dtype, monkeypatch):
    # the no-grad output is the recorded one, and the recorded output, weights and
    # gradients are the one-block run's at any row blocks of the attention op (conv
    # blocking keeps its default); at these shapes every variant's scores fit one block
    def run(cfg):
        rng = np.random.default_rng(31)
        w = A.LgaWeights.create(cfg, rng, dtype)
        if w.rel is not None:
            w.rel.data[:] = rng.uniform(-0.5, 0.5, w.rel.shape)
        x = Tensor(rng.uniform(-1, 1, (3, 16, 8)), requires_grad=True, dtype=dtype)
        capture = {}
        out = A.attention_variant(x, cfg, w, capture)
        cotangent = Tensor(np.random.default_rng(12345).uniform(-1, 1, out.shape), dtype=dtype)
        tsum(mul(out, cotangent)).backward()
        with no_grad():
            unrecorded = A.attention_variant(x, cfg, w)
        assert unrecorded.data.tobytes() == out.data.tobytes()
        grads = [x.grad] + [p.grad for p in w.parameters("w").values()]
        return [a.tobytes() for a in [out.data, *capture["attn"], *grads]]

    for variant in A.VARIANTS:
        for pe in A.POS_ENCODINGS:
            cfg = A.LgaConfig(embed_dim=8, heads=2, window_len=4, stride=2, variant=variant,
                              pos_encoding=pe, max_len=16)
            with monkeypatch.context() as patch:
                calls = []
                patch.setattr(A, "_blocks", lambda *args: calls.append(args) or ops._blocks(*args))
                one_block = run(cfg)
                assert calls and all(len(ops._blocks(*args)) == 1 for args in calls)
                if rows is not None:
                    patch.setattr(A, "_blocks", row_blocks(rows))
                assert run(cfg) == one_block, (variant, pe)


def test_recorded_attention_holds_no_scores():
    # [4, 4, 256, 256] f32 scores are 4 MiB; the recorded chain of ops kept the softmax
    # weights and the head splits (6.0 MiB), the one op keeps only its output's 0.5 MiB
    rng = np.random.default_rng(33)
    q, k, v = (Tensor(rng.uniform(-1, 1, (4, 256, 128)), requires_grad=True, dtype="f32")
               for _ in range(3))
    held, _, out = traced(lambda: A._mha(q, k, v, 4, None, None))
    assert out.requires_grad and out.shape == (4, 256, 128)
    assert held < (4 * 4 * 256 * 256 * 4) // 4


def test_attention_gradient_across_uneven_row_blocks(monkeypatch):
    # at gradcheck sizes every call is one block; 2+1 rows make a wrong row slice of
    # q, k, v, g or of the bias gradient show. k and v are one tensor, as in LOCAL_QKV
    monkeypatch.setattr(A, "_blocks", row_blocks(2))
    rng = np.random.default_rng(34)
    m, n = 3, 5
    q = Tensor(rng.uniform(-1, 1, (3, m, 4)), requires_grad=True, **R64)
    kv = Tensor(rng.uniform(-1, 1, (3, n, 4)), requires_grad=True, **R64)
    rel = Tensor(rng.uniform(-0.5, 0.5, 2 * n + 1), requires_grad=True, **R64)
    offsets = np.arange(n)[None, :] - 2 * np.arange(m)[:, None] + n
    err = max_rel_error(lambda: _weighted_sum(A._mha(q, kv, kv, 2, take_rows(rel, offsets), None)),
                        [q, kv, rel])
    assert err <= 1e-3


def test_non_finite_weighted_sum_aborts():
    # finite scores, an infinite value: the op's output check names it, graph or not
    rng = np.random.default_rng(35)
    q, k, v = (Tensor(rng.uniform(-1, 1, (1, 2, 4)), requires_grad=True, **R64) for _ in range(3))
    v.data[0, 1, 0] = np.inf
    messages = []
    for mode in (nullcontext, no_grad):
        with mode(), pytest.raises(NumericsError) as err:
            A._mha(q, k, v, 2, None, None)
        messages.append(str(err.value))
    assert "op 'attention'" in messages[0] and messages[1] == messages[0]


def test_unrecorded_stage1_attention_never_holds_all_scores():
    # the paper's stage 1 at B=32: [32, 4, 128, 256] f32 scores are 16 MiB; one pass over all
    # rows peaked 38.5 MiB above its entry with three of them live, batch blocks peak at 11.5
    rng = np.random.default_rng(32)
    q = Tensor(rng.uniform(-1, 1, (32, 128, 128)), dtype="f32")
    k, v = (Tensor(rng.uniform(-1, 1, (32, 256, 128)), dtype="f32") for _ in range(2))
    with no_grad():
        _, peak, out = traced(lambda: A._mha(q, k, v, 4, None, None))
    assert out.shape == (32, 128, 128)
    assert peak < 32 * 4 * 128 * 256 * 4


def test_global_qkv_coincides_with_lga_at_window_eq_stride():
    cfg_lga = A.LgaConfig(embed_dim=4, heads=2, window_len=2, stride=2)
    cfg_glob = A.LgaConfig(embed_dim=4, heads=2, window_len=16, stride=2,
                           variant=A.VARIANT_GLOBAL_QKV)
    w = make_weights(cfg_lga, seed=11)
    x = Tensor(np.random.default_rng(9).uniform(-1, 1, (2, 8, 4)), **R64)
    out_lga = A.attention_variant(x, cfg_lga, w).data
    out_glob = A.attention_variant(x, cfg_glob, w).data
    assert np.abs(out_lga - out_glob).max() <= 1e-12


def test_swin_locality_zeroed_window_leaves_others_unchanged():
    cfg = A.LgaConfig(embed_dim=4, heads=2, window_len=4, stride=2,
                      variant=A.VARIANT_SWIN)
    w = make_weights(cfg, seed=12)
    rng = np.random.default_rng(10)
    x = rng.uniform(-1, 1, (1, 16, 4))
    x_zeroed = x.copy()
    x_zeroed[:, 4:8, :] = 0.0
    xn = layer_norm(Tensor(x, **R64), w.norm).data
    xn_z = layer_norm(Tensor(x_zeroed, **R64), w.norm).data
    out = A.attention_core(Tensor(xn, **R64), cfg, w).data
    out_z = A.attention_core(Tensor(xn_z, **R64), cfg, w).data
    mask = np.ones(8, dtype=bool)
    mask[2:4] = False  # pooled positions fed by the zeroed window
    assert np.abs(out[:, mask] - out_z[:, mask]).max() <= 1e-12


def test_vit_keeps_full_length():
    cfg = A.LgaConfig(embed_dim=4, heads=2, window_len=4, stride=2, variant=A.VARIANT_VIT)
    w = make_weights(cfg, seed=13)
    x = Tensor(np.random.default_rng(11).uniform(-1, 1, (2, 8, 4)), **R64)
    assert A.attention_variant(x, cfg, w).shape == (2, 8, 4)


@pytest.mark.parametrize("variant", [v for v in A.VARIANTS if v != A.VARIANT_VIT])
@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_halving_interface(variant, n):
    cfg = A.LgaConfig(embed_dim=4, heads=2, window_len=4, stride=2, variant=variant)
    w = make_weights(cfg, seed=14)
    x = Tensor(np.random.default_rng(n).uniform(-1, 1, (2, n, 4)), **R64)
    assert A.attention_variant(x, cfg, w).shape == (2, n // 2, 4)


@pytest.mark.parametrize("variant", A.VARIANTS)
@pytest.mark.parametrize("pe", A.POS_ENCODINGS)
def test_attention_rows_normalized(variant, pe):
    cfg = A.LgaConfig(embed_dim=4, heads=2, window_len=4, stride=2,
                      variant=variant, pos_encoding=pe, max_len=16)
    w = make_weights(cfg, seed=15)
    x = Tensor(np.random.default_rng(12).uniform(-1, 1, (2, 8, 4)), **R64)
    capture = {}
    A.attention_variant(x, cfg, w, capture=capture)
    assert capture["attn"], "attention matrix was not captured"
    for attn in capture["attn"]:
        sums = attn.sum(axis=-1)
        assert np.abs(sums - 1.0).max() <= 1e-6


@pytest.mark.parametrize("heads", [1, 4])
def test_head_count_extremes_run_and_gradcheck(heads):
    cfg = A.LgaConfig(embed_dim=4, heads=heads, window_len=4, stride=2)
    w = make_weights(cfg, seed=16)
    x = Tensor(np.random.default_rng(13).uniform(-1, 1, (1, 8, 4)),
               requires_grad=True, **R64)
    inputs = [x] + list(w.parameters("w").values())
    err = max_rel_error(lambda: tsum(A.attention_variant(x, cfg, w)), inputs)
    assert err <= 1e-3


@pytest.mark.parametrize("variant", A.VARIANTS)
@pytest.mark.parametrize("pe", A.POS_ENCODINGS)
def test_full_lga_gradient_check(variant, pe):
    cfg = A.LgaConfig(embed_dim=4, heads=2, window_len=4, stride=2,
                      variant=variant, pos_encoding=pe, max_len=8)
    w = make_weights(cfg, seed=17)
    # nonzero tables, so the encoding and score-bias gradients are exercised
    if w.ape is not None:
        w.ape.data[:] = np.random.default_rng(18).uniform(-0.5, 0.5, w.ape.shape)
    if w.rel is not None:
        w.rel.data[:] = np.random.default_rng(19).uniform(-0.5, 0.5, w.rel.shape)
    x = Tensor(np.random.default_rng(14).uniform(-1, 1, (2, 8, 4)),
               requires_grad=True, **R64)
    inputs = [x] + list(w.parameters("w").values())
    err = max_rel_error(lambda: _weighted_sum(A.attention_variant(x, cfg, w)), inputs)
    assert err <= 1e-3


# -- positional encodings --------------------------------------------------------


def test_sinusoidal_row_zero():
    table = A.sinusoidal_encoding(4, 6, np.float64)
    assert np.array_equal(table[0], [0.0, 1.0, 0.0, 1.0, 0.0, 1.0])


def test_none_encoding_is_the_plain_path():
    cfg0 = A.LgaConfig(embed_dim=4, heads=2, window_len=4, stride=2)
    w = make_weights(cfg0, seed=18)
    x = Tensor(np.random.default_rng(15).uniform(-1, 1, (2, 8, 4)), **R64)
    base = A.attention_variant(x, cfg0, w).data
    again = A.attention_variant(x, cfg0, w).data
    assert np.array_equal(base, again)


def test_zero_relative_table_matches_none():
    cfg0 = A.LgaConfig(embed_dim=4, heads=2, window_len=4, stride=2)
    cfg_rel = A.LgaConfig(embed_dim=4, heads=2, window_len=4, stride=2,
                          pos_encoding=A.PE_RELATIVE, max_len=8)
    rng_seed = 19
    w0 = make_weights(cfg0, seed=rng_seed)
    w_rel = make_weights(cfg_rel, seed=rng_seed)
    x = Tensor(np.random.default_rng(16).uniform(-1, 1, (2, 8, 4)), **R64)
    out0 = A.attention_variant(x, cfg0, w0).data
    out_rel = A.attention_variant(x, cfg_rel, w_rel).data
    assert np.abs(out0 - out_rel).max() <= 1e-12


def test_learnable_ape_changes_output_and_respects_capacity():
    cfg = A.LgaConfig(embed_dim=4, heads=2, window_len=4, stride=2,
                      pos_encoding=A.PE_LEARNABLE, max_len=8)
    w = make_weights(cfg, seed=20)
    w.ape.data[:] = np.random.default_rng(17).uniform(-1, 1, w.ape.shape)
    x8 = Tensor(np.random.default_rng(18).uniform(-1, 1, (1, 8, 4)), **R64)
    x16 = Tensor(np.random.default_rng(18).uniform(-1, 1, (1, 16, 4)), **R64)
    A.attention_variant(x8, cfg, w)  # fits capacity
    with pytest.raises(ConfigError):
        A.attention_variant(x16, cfg, w)


def test_positional_encoding_requires_capacity_config():
    cfg = A.LgaConfig(embed_dim=4, heads=2, window_len=4, stride=2,
                      pos_encoding=A.PE_LEARNABLE, max_len=None)
    with pytest.raises(ConfigError):
        cfg.validate()


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        A.LgaConfig(embed_dim=5, heads=2, window_len=4).validate()
    with pytest.raises(ConfigError):
        A.LgaConfig(embed_dim=4, heads=2, window_len=1, stride=2).validate()
    with pytest.raises(ConfigError):
        A.LgaConfig(embed_dim=4, heads=2, window_len=5, stride=2).validate()  # odd l-s
    with pytest.raises(ConfigError):
        A.LgaConfig(embed_dim=4, heads=2, window_len=4, query_kernel=4).validate()
    for field in ("query_kernel", "kv_kernel"):  # odd but negative: no conv to build
        with pytest.raises(ConfigError, match=field):
            A.LgaConfig(embed_dim=4, heads=2, window_len=4, **{field: -1}).validate()
