"""Windowed-query attention: counting laws, path equivalence, variants, encodings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lganet import attention as A
from lganet.errors import ConfigError, ShapeError
from lganet.gradcheck import _weighted_sum, max_rel_error
from lganet.ops import LAYER_NORM_EPS, conv1d, layer_norm
from lganet.tensor import Tensor, stack, tsum

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
        ref = A.local_queries(x, cfg, w, reference=True).data
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


def numpy_lga_oracle(x, cfg, w):
    """Step-by-step plain-numpy recomputation of the whole layer."""
    gamma, beta, eps = w.norm.gamma.data, w.norm.beta.data, LAYER_NORM_EPS
    mu = x.mean(-1, keepdims=True)
    var = ((x - mu) ** 2).mean(-1, keepdims=True)
    xn = gamma * (x - mu) / np.sqrt(var + eps) + beta
    b, n, d = xn.shape
    l, s, halo = cfg.window_len, cfg.stride, cfg.halo
    xp = np.pad(xn, ((0, 0), (halo, halo), (0, 0)))
    m = n // s if cfg.halving else (n - l) // s + 1

    def conv_seq(seq, p):
        cin = p.in_channels
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
        e = np.exp(scores - scores.max(-1, keepdims=True))
        attn = e / e.sum(-1, keepdims=True)
        out[:, :, sl] = attn @ v[:, :, sl]
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
    from lganet.errors import NumericsError
    cfg = A.LgaConfig(embed_dim=2, heads=1, window_len=2, stride=2)
    w = make_weights(cfg, seed=9)
    w.conv_q.weight.data[:] = 1e200  # Q*K overflows the score matmul
    w.conv_k.weight.data[:] = 1e200
    x = Tensor(np.random.default_rng(8).uniform(-1, 1, (1, 4, 2)), **R64)
    with np.errstate(over="ignore"), pytest.raises(NumericsError):
        A.attention_variant(x, cfg, w)


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
