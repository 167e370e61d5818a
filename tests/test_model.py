"""Front-end, transformer blocks, full-model composition, and serialization."""

from dataclasses import replace

import numpy as np
import pytest

from lganet import attention as A
from lganet.errors import ConfigError, FormatError
from lganet.gradcheck import MINI_CONFIG, model_check
from lganet.model import Model, ModelConfig, ResBlock, count_parameters
from lganet.ops import layer_norm, linear_params, max_pool1d, relu
from lganet.tensor import Tensor, concatenate, read_weights

TINY = dict(leads=2, input_len=128, embed_dim=8, heads=2, num_stages=2,
            num_classes=3, window_len=4, stride=2, precision="f64")


def tiny_model(seed=0, **overrides):
    cfg = ModelConfig.create(**{**TINY, **overrides})
    return Model(cfg, seed=seed)


def rand_input(model, batch=2, seed=0):
    rng = np.random.default_rng(seed)
    shape = (batch, model.config.leads, model.config.input_len)
    return Tensor(rng.uniform(-1, 1, shape), dtype=model.dtype)


def test_front_end_reduces_by_sixteen():
    cfg = ModelConfig.create()  # defaults: 12 leads, 4096 samples, D=128
    model = Model(cfg, seed=0)
    x = Tensor(np.zeros((1, 12, 4096), dtype=np.float32))
    out = model.front_end(x)
    assert out.shape == (1, 256, 128)


def test_replace_rederives_block_specs():
    cfg = replace(ModelConfig.create(**TINY), window_len=8)
    assert [cfg.stage_config(i).window_len for i in (1, 2)] == [8, 8]
    assert [b.lga.window_len for b in Model(cfg).blocks] == [8, 8]


def test_resblock_zero_weights_identity_skip():
    rng = np.random.default_rng(0)
    blk = ResBlock(3, 3, rng, np.float64)
    for conv in (blk.conv1, blk.conv2):
        conv.weight.data[:] = 0.0
        conv.bias.data[:] = 0.0
    assert blk.skip is None  # channel counts match: identity skip
    x = Tensor(rng.uniform(-1, 1, (2, 3, 8)).transpose(0, 2, 1), dtype="f64")  # [B, L, C]
    expected = max_pool1d(relu(x), 2, 2).data
    assert np.array_equal(blk.forward(x).data, expected)


def test_block_halves_and_rejects_odd_length():
    model = tiny_model()
    block = model.blocks[0]
    rng = np.random.default_rng(1)
    x = Tensor(rng.uniform(-1, 1, (2, 8, 8)), dtype="f64")
    assert block.forward(x).shape == (2, 4, 8)
    with pytest.raises(ConfigError):
        block.forward(Tensor(rng.uniform(-1, 1, (2, 7, 8)), dtype="f64"))


def test_block_dead_path_reduces_to_pooled_norm():
    model = tiny_model(seed=3)
    block = model.blocks[0]
    for conv in (block.attn.conv_q, block.attn.conv_k, block.attn.conv_v):
        conv.weight.data[:] = 0.0
        conv.bias.data[:] = 0.0
    for t in (block.w1, block.b1, block.w2, block.b2):
        t.data[:] = 0.0
    d = model.config.embed_dim
    block.res_conv.weight.data = np.eye(d)[:, :, None].astype(np.float64)
    block.res_conv.bias.data[:] = 0.0
    x = Tensor(np.random.default_rng(2).uniform(-1, 1, (2, 8, d)), dtype="f64")
    x_norm = layer_norm(x, block.attn.norm)
    expected = max_pool1d(x_norm, 2, 2).data
    assert np.abs(block.forward(x).data - expected).max() <= 1e-15


def test_mlp_width_schedule():
    blocks = Model(ModelConfig.create(embed_dim=128)).blocks
    assert [b.w1.shape[1] for b in blocks] == [64, 128, 192, 256]
    assert blocks[2].w1.shape[1] == 32 * 2 * 3  # d_base=32, stage 3 -> 192


# Weight-file layout of the MINI_CONFIG model (2 leads, D=8, 2 stages, 3 classes):
# the parts every variant has, then the attention projections per variant.
_MINI_COMMON = {
    "front1.conv1.weight": (1, 2, 7), "front1.conv1.bias": (1,),
    "front1.conv2.weight": (1, 1, 7), "front1.conv2.bias": (1,),
    "front1.skip.weight": (1, 2, 1), "front1.skip.bias": (1,),
    "front2.conv1.weight": (2, 1, 7), "front2.conv1.bias": (2,),
    "front2.conv2.weight": (2, 2, 7), "front2.conv2.bias": (2,),
    "front2.skip.weight": (2, 1, 1), "front2.skip.bias": (2,),
    "front3.conv1.weight": (4, 2, 7), "front3.conv1.bias": (4,),
    "front3.conv2.weight": (4, 4, 7), "front3.conv2.bias": (4,),
    "front3.skip.weight": (4, 2, 1), "front3.skip.bias": (4,),
    "front4.conv1.weight": (8, 4, 7), "front4.conv1.bias": (8,),
    "front4.conv2.weight": (8, 8, 7), "front4.conv2.bias": (8,),
    "front4.skip.weight": (8, 4, 1), "front4.skip.bias": (8,),
    "stage1.attn.norm.gamma": (8,), "stage1.attn.norm.beta": (8,),
    "stage1.res.weight": (8, 8, 1), "stage1.res.bias": (8,),
    "stage1.norm2.gamma": (8,), "stage1.norm2.beta": (8,),
    "stage1.mlp.w1": (8, 4), "stage1.mlp.b1": (4,), "stage1.mlp.w2": (4, 8), "stage1.mlp.b2": (8,),
    "stage2.attn.norm.gamma": (8,), "stage2.attn.norm.beta": (8,),
    "stage2.res.weight": (8, 8, 1), "stage2.res.bias": (8,),
    "stage2.norm2.gamma": (8,), "stage2.norm2.beta": (8,),
    "stage2.mlp.w1": (8, 8), "stage2.mlp.b1": (8,), "stage2.mlp.w2": (8, 8), "stage2.mlp.b2": (8,),
    "head.weight": (8, 3), "head.bias": (3,),
}


def _qkv(kernel):
    return {f"stage{i}.attn.conv_{p}.{w}": (8, 8, kernel) if w == "weight" else (8,)
            for i in (1, 2) for p in "qkv" for w in ("weight", "bias")}


_VIT_REDUCE = {"stage1.reduce.weight": (8, 8, 1), "stage1.reduce.bias": (8,),
               "stage2.reduce.weight": (8, 8, 1), "stage2.reduce.bias": (8,)}


@pytest.mark.parametrize("variant,layout,tensors,values", [
    (A.VARIANT_LGA, {**_MINI_COMMON, **_qkv(3)}, 58, 2647),
    (A.VARIANT_VIT, {**_MINI_COMMON, **_qkv(1), **_VIT_REDUCE}, 62, 2023),
    (A.VARIANT_SWIN, {**_MINI_COMMON, **_qkv(1)}, 58, 1879),
    (A.VARIANT_GLOBAL_QKV, {**_MINI_COMMON, **_qkv(3)}, 58, 2647),
    (A.VARIANT_LOCAL_QKV, _MINI_COMMON, 46, 1447),
])
def test_weight_layout_is_pinned(variant, layout, tensors, values):
    params = Model(ModelConfig.create(**MINI_CONFIG, variant=variant)).parameters()
    assert sorted((name, t.shape) for name, t in params.items()) == sorted(layout.items())
    assert len(params) == tensors
    assert count_parameters(params) == values


def test_paper_default_parameter_count():
    assert count_parameters(Model(ModelConfig.create()).parameters()) == 1_065_814


def test_forward_shape_trace_default_model():
    cfg = ModelConfig.create()
    model = Model(cfg, seed=0)
    x = Tensor(np.random.default_rng(0).uniform(-0.1, 0.1, (1, 12, 4096)).astype(np.float32))
    h = model.front_end(x)
    lengths = [h.shape[1]]
    for blk in model.blocks:
        h = blk.forward(h)
        lengths.append(h.shape[1])
    assert lengths == [256, 128, 64, 32, 16]
    logits = model.forward(x)
    assert logits.shape == (1, 6)


def test_batch_independence():
    model = tiny_model(seed=4)
    a, b = rand_input(model, 1, seed=5), rand_input(model, 1, seed=6)
    both = model.forward(concatenate([a, b], axis=0)).data
    separate = np.concatenate([model.forward(a).data, model.forward(b).data])
    assert np.abs(both - separate).max() <= 1e-6


def test_zero_input_zero_bias_gives_zero_logits():
    model = tiny_model(seed=7)
    for name, p in model.parameters().items():
        if "bias" in name or name.endswith((".b1", ".b2", ".beta")):
            p.data[:] = 0.0
    x = Tensor(np.zeros((2, 2, 128)), dtype="f64")
    assert not model.forward(x).data.any()


def test_count_parameters_examples():
    assert count_parameters({}) == 0
    w, b = linear_params(2, 3, np.random.default_rng(0))
    assert count_parameters({"w": w, "b": b}) == 9


def test_count_parameters_matches_serialized_file(tmp_path):
    model = tiny_model(seed=8)
    path = tmp_path / "m.lgaw"
    model.save(path)
    stored = read_weights(path)
    assert sum(arr.size for arr in stored.values()) == count_parameters(model.parameters())


def test_save_load_roundtrip_preserves_outputs(tmp_path):
    model = tiny_model(seed=9, precision="f32")
    x = rand_input(model, 2, seed=10)
    before = model.forward(x).data
    path = tmp_path / "m.lgaw"
    model.save(path)
    loaded = Model.load(path)
    assert loaded.config == model.config
    after = loaded.forward(x).data
    assert np.array_equal(before, after)


def test_load_rejects_a_non_finite_weight_by_name(tmp_path):
    model = tiny_model(seed=9, precision="f32")
    path = tmp_path / "m.lgaw"
    model.save(path)
    raw = bytearray(path.read_bytes())
    at = raw.index(b"head.bias") + len("head.bias") + 1 + 4  # name, rank, one extent
    raw[at : at + 4] = np.float32(np.nan).tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=f"tensor 'head.bias' data at byte {at} holds non-finite"):
        Model.load(path)


def test_forward_deterministic_for_fixed_weights():
    model = tiny_model(seed=11)
    x = rand_input(model, 2, seed=12)
    assert np.array_equal(model.forward(x).data, model.forward(x).data)


def test_same_seed_same_model():
    a, b = tiny_model(seed=13), tiny_model(seed=13)
    pa, pb = a.parameters(), b.parameters()
    assert set(pa) == set(pb)
    for name in pa:
        assert np.array_equal(pa[name].data, pb[name].data)


@pytest.mark.parametrize("variant", A.VARIANTS)
def test_halving_law_every_stage_every_variant(variant):
    model = tiny_model(seed=14, variant=variant)
    h = model.front_end(rand_input(model, 1, seed=15))
    n = h.shape[1]
    for blk in model.blocks:
        h = blk.forward(h)
        n //= 2
        assert h.shape[1] == n


def recorded_ops(out, op):
    """Count the distinct graph nodes tagged ``op`` that ``out`` depends on."""
    seen, stack, count = set(), [out], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        count += node._op == op
        stack.extend(node._parents)
    return count


@pytest.mark.parametrize("variant,transposes", [
    (A.VARIANT_LGA, 5), (A.VARIANT_VIT, 5), (A.VARIANT_SWIN, 5),
    (A.VARIANT_GLOBAL_QKV, 5), (A.VARIANT_LOCAL_QKV, 3),
])
def test_block_transposes_only_to_split_and_merge_heads(variant, transposes):
    # conv and pool take the block's [B, N, D] layout: the only transposes left
    # split and merge heads (SWIN: windows), plus K^T for the scores
    block = tiny_model(seed=16, variant=variant).blocks[0]
    x = Tensor(np.random.default_rng(17).uniform(-1, 1, (2, 8, 8)), requires_grad=True, dtype="f64")
    assert recorded_ops(block.forward(x), "transpose") == transposes


def test_divisibility_validation():
    with pytest.raises(ConfigError):
        ModelConfig.create(input_len=100)
    with pytest.raises(ConfigError):
        ModelConfig.create(input_len=64, num_stages=4)  # 64 / 2^8 < 1


def test_stage_lengths_follow_the_stride():
    with pytest.raises(ConfigError):  # stages receive 32, 8, 2, ...: stage 3 cannot stride 4
        ModelConfig.create(leads=2, input_len=512, embed_dim=8, heads=2, num_stages=5,
                           num_classes=3, window_len=8, stride=4)
    for stride, input_len in ((2, 128), (4, 256)):
        model = tiny_model(input_len=input_len, stride=stride, window_len=8)
        h = model.front_end(rand_input(model, batch=1))
        for i, blk in enumerate(model.blocks, 1):
            assert model.config.stage_config(i).max_len == h.shape[1]
            h = blk.forward(h)
        assert model.config.stage_len(len(model.blocks) + 1) == h.shape[1] >= 1


def test_unknown_model_field_rejected():
    with pytest.raises(ConfigError):
        ModelConfig.create(bogus=1)


def test_miniature_end_to_end_gradient_check():
    cfg = ModelConfig.create(**MINI_CONFIG)
    assert (cfg.leads, cfg.input_len, cfg.embed_dim, cfg.heads, cfg.num_stages) == (2, 64, 8, 2, 2)
    err = model_check(cfg, seed=0)
    assert err <= 1e-3


def test_local_qkv_relative_window_longer_than_stage_input():
    # stage 2 receives 2 positions and each window spans 4: the key offsets clip into
    # the relative table, and only the input length is held to its capacity
    cfg = ModelConfig.create(**MINI_CONFIG, variant=A.VARIANT_LOCAL_QKV, pos_encoding=A.PE_RELATIVE)
    assert cfg.window_len > cfg.stage_len(2)
    assert model_check(cfg, seed=0) <= 1e-3
