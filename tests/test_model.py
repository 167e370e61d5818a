"""Front-end, transformer blocks, full-model composition, and serialization."""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from conftest import traced
from lganet import attention as A
from lganet import model as model_module
from lganet import ops as ops_module
from lganet import tensor as tensor_module
from lganet import training as training_module
from lganet.errors import ConfigError, FormatError, NumericsError
from lganet.gradcheck import MINI_CONFIG, model_check
from lganet.model import Model, ModelConfig, ResBlock, TransformerBlock, count_parameters
from lganet.ops import layer_norm, linear_params, max_pool1d, relu
from lganet.tensor import Tensor, concatenate, no_grad, read_weights, transpose
from lganet.training import bce_loss

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
    # the one ordered part list that forward, front_end and parameters() walk
    assert [name for name, _ in model.parts] == ["front1", "front2", "front3", "front4",
                                                 "stage1", "stage2", "stage3", "stage4"]
    assert [id(blk) for _, blk in model.parts] == [id(blk) for blk in model.res_blocks + model.blocks]
    h, part_lengths = transpose(x, (0, 2, 1)), []
    with no_grad():
        for name, blk in model.parts:
            h = blk.forward(h)
            part_lengths.append(h.shape[1])
            if name == "front4":
                assert np.array_equal(h.data, model.front_end(x).data)
    assert part_lengths == [2048, 1024, 512, 256, 128, 64, 32, 16]
    assert list(model.parameters()) == ([key for name, blk in model.parts
                                         for key in blk.parameters(name)]
                                        + ["head.weight", "head.bias"])


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


def test_a_failed_save_leaves_the_earlier_pair_whole(tmp_path, monkeypatch):
    first, second = tiny_model(seed=9, precision="f32"), tiny_model(seed=10, precision="f32")
    path = tmp_path / "m.lgaw"
    first.save(path)
    def broken_dump(*args, **kwargs):
        raise OSError("disk full")
    monkeypatch.setattr(model_module.json, "dump", broken_dump)
    with pytest.raises(OSError, match="disk full"):
        second.save(path)
    monkeypatch.undo()
    loaded = Model.load(path)
    for name, p in first.parameters().items():
        assert np.array_equal(loaded.parameters()[name].data, p.data)
    assert sorted(f.name for f in tmp_path.iterdir()) == ["m.lgaw", "m.lgaw.json"]


@pytest.mark.parametrize("part,param", [("front3", "front3.conv2.weight"),
                                        ("stage2", "stage2.mlp.w1"), ("head", "head.weight")])
def test_an_error_inside_the_model_names_the_part_it_came_from(part, param):
    model = tiny_model(seed=3)
    model.parameters()[param].data[0, 0] = np.nan
    with pytest.raises(NumericsError) as err:
        model.forward(rand_input(model, 1, seed=4))
    assert str(err.value).startswith(f"{part}: non-finite values produced by op ")
    with pytest.raises(ConfigError) as err:  # a refused input is not inside any part
        model.forward(Tensor(np.zeros((1, 3, 128))))
    assert str(err.value).startswith("input shape (1, 3, 128) does not match")


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


def recorded_sinks(root):
    """Every gradient sink that ``root``'s graph reaches: the graph nodes, and the
    leaves, which are their own sinks (a parent that requires no grad has None)."""
    seen, stack = {}, [root._node]
    while stack:
        sink = stack.pop()
        if sink is not None and id(sink) not in seen:
            seen[id(sink)] = sink
            if not isinstance(sink, Tensor):
                stack.extend(sink.parents)
    return list(seen.values())


def sink_op(sink):
    return "leaf" if isinstance(sink, Tensor) else sink.op


def recorded_ops(out, op):
    """Count the distinct graph nodes tagged ``op`` that ``out`` depends on."""
    return sum(sink_op(s) == op for s in recorded_sinks(out))


@pytest.mark.parametrize("variant", A.VARIANTS)
def test_block_transposes_only_to_merge_heads(variant):
    # conv and pool take the block's [B, N, D] layout, and the attention op splits its
    # heads inside: the only transpose left merges the output's
    block = tiny_model(seed=16, variant=variant).blocks[0]
    x = Tensor(np.random.default_rng(17).uniform(-1, 1, (2, 8, 8)), requires_grad=True, dtype="f64")
    assert recorded_ops(block.forward(x), "transpose") == 1


def _buffer(arr):
    while arr.base is not None:  # a view keeps the whole buffer it reads alive
        arr = arr.base
    return arr


class OutputBytes:
    """Bytes of the distinct buffers that hold the recorded op outputs made while it
    spies on every module's ``_result``, leaving out the buffers of ``leaves``
    (inputs and parameters). It keeps weak references only, so it frees nothing late."""

    def __init__(self, monkeypatch, leaves):
        self.total = 0
        self._seen = {id(b): weakref.ref(b) for b in (_buffer(t.data) for t in leaves)}
        original = tensor_module._result

        def spy(data, parents, op, backward):
            out = original(data, parents, op, backward)
            if out.requires_grad:
                buf = _buffer(data)
                ref = self._seen.get(id(buf))
                if ref is None or ref() is not buf:  # a new buffer, not a reused address
                    self._seen[id(buf)] = weakref.ref(buf)
                    self.total += buf.nbytes
            return out

        for module in (tensor_module, ops_module, training_module):
            monkeypatch.setattr(module, "_result", spy)


@pytest.mark.parametrize("variant", A.VARIANTS)
def test_recorded_forward_holds_little_beyond_its_op_outputs(variant, monkeypatch):
    cfg = ModelConfig.create(leads=4, input_len=512, embed_dim=16, num_stages=2,
                             window_len=4, variant=variant)
    model = Model(cfg, seed=18)
    x = rand_input(model, batch=8, seed=19)
    outputs = OutputBytes(monkeypatch, [x, *model.parameters().values()])
    held, _, out = traced(lambda: model.forward(x))
    assert out.requires_grad
    assert held <= 1.25 * outputs.total


def test_paper_train_step_graph_holds_well_under_its_op_outputs(monkeypatch):
    # B=8 f32 LGA at the paper defaults: a graph that kept every op output (and the
    # inputs its closures captured) held 1.09 of the output bytes; one that keeps
    # only what a backward reads holds 0.43
    model = Model(ModelConfig.create(), seed=0)
    assert model.config.variant == A.VARIANT_LGA and model.dtype == np.float32
    rng = np.random.default_rng(20)
    x = Tensor(rng.uniform(-1, 1, (8, 12, 4096)), dtype="f32")
    y = (rng.random((8, 6)) < 0.5).astype(np.float32)
    outputs = OutputBytes(monkeypatch, [x, *model.parameters().values()])
    held, _, loss = traced(lambda: bce_loss(model.forward(x), y))
    assert loss.requires_grad
    assert held <= 0.6 * outputs.total


def test_paper_no_grad_forward_peaks_well_under_three_score_arrays():
    # B=32 f32 at the paper defaults: with stage 1's three [32, 4, 128, 256] score-sized
    # arrays live at once, the forward peaked 56.5 MiB above its input; with attention in
    # batch blocks and front blocks that free their intermediates it peaks at 33.5 (front1)
    model = Model(ModelConfig.create(), seed=0)
    x = Tensor(np.random.default_rng(33).uniform(-1, 1, (32, 12, 4096)), dtype="f32")
    with no_grad():
        _, peak, logits = traced(lambda: model.forward(x))
    assert logits.shape == (32, 6)
    assert peak <= 40 << 20


@pytest.mark.parametrize("variant", [A.VARIANT_LGA, A.VARIANT_VIT])
def test_paper_no_grad_forward_runs_a_few_items_at_a_time(variant):
    # B=32 f32 at the paper defaults: with every front-end conv made for all 32 items the
    # forward peaked 33.5 MiB above its input; in blocks of 4 items it peaks at 7.5 (LGA)
    # and 8.0 (VIT_LIKE, whose stage-1 scores are the largest)
    model = Model(ModelConfig.create(variant=variant), seed=0)
    x = Tensor(np.random.default_rng(34).uniform(-1, 1, (32, 12, 4096)), dtype="f32")
    with no_grad():
        _, peak, logits = traced(lambda: model.forward(x))
    assert logits.shape == (32, 6)
    assert peak <= 12 << 20


class FrontEndCalls:
    """Batch sizes of the calls to ``Model.front_end``, one per block of a forward."""

    def __init__(self, monkeypatch):
        self.sizes = []
        original = Model.front_end

        def spy(model, x):
            self.sizes.append(x.shape[0])
            return original(model, x)

        monkeypatch.setattr(Model, "front_end", spy)


def block_bytes(cfg, items):
    """``COLUMN_BLOCK_BYTES`` that makes a forward of ``cfg`` run ``items`` items a block."""
    return items * cfg.heads * cfg.stage_len(1) ** 2 * cfg.dtype.itemsize


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("variant,pe", [(A.VARIANT_LGA, A.PE_RELATIVE),
                                        (A.VARIANT_VIT, A.PE_LEARNABLE),
                                        (A.VARIANT_LOCAL_QKV, A.PE_SINUSOIDAL)])
def test_no_grad_forward_in_blocks_is_the_one_block_forward_bit_for_bit(precision, variant, pe,
                                                                        monkeypatch):
    cfg = ModelConfig.create(variant=variant, pos_encoding=pe, precision=precision)
    model = Model(cfg, seed=35)
    rng = np.random.default_rng(36)
    for blk in model.blocks:
        if blk.attn.rel is not None:
            blk.attn.rel.data[:] = rng.uniform(-0.5, 0.5, blk.attn.rel.shape)
    x = Tensor(rng.uniform(-1, 1, (8, 12, 4096)), dtype=precision)
    monkeypatch.setattr(ops_module, "COLUMN_BLOCK_BYTES", block_bytes(cfg, 3))
    calls = FrontEndCalls(monkeypatch)
    with no_grad():
        blocked = model.forward(x)
        assert calls.sizes == [3, 3, 2]
        whole = model.forward(x, {})  # a capture dict keeps the forward in one block
    assert calls.sizes == [3, 3, 2, 8]
    assert blocked.dtype == whole.dtype and blocked.data.tobytes() == whole.data.tobytes()


CRITERION_10_MODEL = dict(leads=3, input_len=256, embed_dim=16, heads=2, num_stages=2,
                          num_classes=6, window_len=4, stride=2, precision="f64")
DESK_MODEL = dict(leads=12, input_len=1024, embed_dim=64, heads=4, num_stages=3,
                  window_len=16, num_classes=6)


@pytest.mark.parametrize("knobs,batch", [(DESK_MODEL, 64), (MINI_CONFIG, 16),
                                         (CRITERION_10_MODEL, 30)],
                         ids=["desk", "miniature", "criterion-10"])
def test_small_models_forward_in_one_block(knobs, batch, monkeypatch):
    # At the desk shape in f64 (B=7), blocks of 1-3 items moved logits by up to 5.6e-16:
    # a GEMM of a few rows, such as stage 2's 1x1 res_conv with 16 rows instead of 112,
    # takes other BLAS kernels. These models run in one block, so their f64 hashes cannot move.
    model = Model(ModelConfig.create(**knobs), seed=37)
    x = rand_input(model, batch, seed=38)
    calls = FrontEndCalls(monkeypatch)
    with no_grad():
        model.forward(x)
    assert calls.sizes == [batch]


def test_a_recorded_forward_or_one_with_a_capture_dict_runs_in_one_block(monkeypatch):
    model = tiny_model(seed=39)
    x = rand_input(model, 6, seed=40)
    monkeypatch.setattr(ops_module, "COLUMN_BLOCK_BYTES", block_bytes(model.config, 2))
    calls = FrontEndCalls(monkeypatch)
    with no_grad():
        model.forward(x)
        assert calls.sizes == [2, 2, 2]
        capture = {}
        model.forward(x, capture)
    model.forward(x)
    assert calls.sizes == [2, 2, 2, 6, 6]
    assert [a.shape[0] for a in capture["attn"]] == [6, 6]


def test_an_error_in_a_later_block_names_its_rows(monkeypatch):
    model = tiny_model(seed=41)
    monkeypatch.setattr(ops_module, "COLUMN_BLOCK_BYTES", block_bytes(model.config, 2))
    x = rand_input(model, 6, seed=42)
    x.data[4, 1, 7] = np.nan
    with no_grad(), pytest.raises(NumericsError) as err:
        model.forward(x)
    assert str(err.value).startswith("rows 4:6: non-finite values produced by op 'transpose' "
                                     "on inputs of shape (2, 2, 128)")
    x.data[4, 1, 7] = 0.0
    model.parameters()["stage2.mlp.w1"].data[0, 0] = np.nan
    with no_grad(), pytest.raises(NumericsError) as err:
        model.forward(x)
    assert str(err.value).startswith("rows 0:2: stage2: non-finite values produced by op ")
    model.parameters()["stage2.mlp.w1"].data[0, 0] = 0.0
    model.parameters()["head.weight"].data[0, 0] = np.nan
    with no_grad(), pytest.raises(NumericsError) as err:  # the head runs on the whole batch
        model.forward(x)
    assert str(err.value).startswith("head: non-finite values produced by op ")
    assert "rows" not in str(err.value)
    model.parameters()["head.weight"].data[0, 0] = 0.0
    model.parameters()["front3.conv2.weight"].data[0, 0] = np.nan
    with no_grad(), pytest.raises(NumericsError) as err:
        model.forward(x)
    assert str(err.value).startswith("rows 0:2: front3: non-finite values produced by op ")
    with no_grad(), pytest.raises(ConfigError) as err:  # a refused input names no block
        model.forward(Tensor(np.zeros((6, 3, 128))))
    assert str(err.value).startswith("input shape (6, 3, 128) does not match")


def test_the_part_walk_calls_a_block_class_patched_after_the_model_is_built(monkeypatch):
    model = tiny_model(seed=43)
    x = rand_input(model, 6, seed=44)
    name_of = {id(blk): name for name, blk in model.parts}
    called = []
    for cls in (ResBlock, TransformerBlock):
        def spy(blk, *args, original=cls.forward):
            called.append(name_of[id(blk)])
            return original(blk, *args)
        monkeypatch.setattr(cls, "forward", spy)
    order = [name for name, _ in model.parts]
    model.forward(x)
    assert called == order
    monkeypatch.setattr(ops_module, "COLUMN_BLOCK_BYTES", block_bytes(model.config, 2))
    called.clear()
    with no_grad():
        model.forward(x)
    assert called == order * 3


def test_a_resblock_frees_its_first_conv_output_when_it_returns(monkeypatch):
    # relu masks its gradient with its own output, so no backward reads conv1's output
    blk = ResBlock(3, 4, np.random.default_rng(21), np.float64)
    x = Tensor(np.random.default_rng(22).uniform(-1, 1, (2, 8, 3)), requires_grad=True, dtype="f64")
    first = []
    def spy(*args):
        out = ops_module.conv1d(*args)
        if not first:
            first.append(weakref.ref(out.data))
        return out
    monkeypatch.setattr(model_module, "conv1d", spy)
    gc.disable()
    try:
        out = blk.forward(x)
        assert out.requires_grad and first[0]() is None
    finally:
        gc.enable()


def test_backward_leaves_nothing_holding_the_input():
    model = tiny_model(seed=23)
    x = rand_input(model, 2, seed=24)
    x.requires_grad = True
    gc.disable()
    try:
        loss = bce_loss(model.forward(x), np.zeros((2, 3)))
        loss.backward()
        assert x.grad is not None
        ref = weakref.ref(x)
        del x
        assert ref() is None
    finally:
        gc.enable()


def test_a_graph_never_replayed_is_freed_by_refcounting():
    # no leaf refers to a node and no node to its output, so no cycle waits for gc
    model = tiny_model(seed=25)
    x = rand_input(model, 2, seed=26)
    x.requires_grad = True
    gc.disable()
    try:
        out = model.forward(x)
        ref = weakref.ref(x)
        del x, out
        assert ref() is None
    finally:
        gc.enable()


def test_no_op_builds_a_node_under_no_grad(monkeypatch):
    built = []
    class CountedNode(tensor_module._Node):
        __slots__ = ()
        def __init__(self, *args):
            built.append(args[0])
            super().__init__(*args)
    monkeypatch.setattr(tensor_module, "_Node", CountedNode)
    model = tiny_model(seed=27)
    x = rand_input(model, 2, seed=28)
    with no_grad():
        model.forward(x)
    assert built == []
    model.forward(x)  # the parameters require grad: every op records
    assert "conv1d" in built and "matmul" in built


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


def test_swin_window_must_divide_every_stage_length():
    # stages see 16 and 8 positions; a window at least a stage long covers the whole stage
    knobs = dict(leads=3, input_len=256, embed_dim=16, heads=2, num_stages=2, variant=A.VARIANT_SWIN)
    with pytest.raises(ConfigError, match="window_len 6 does not divide stage 1's sequence length 16"):
        ModelConfig.create(**knobs, window_len=6)
    refused = []
    for window_len in range(2, 34, 2):
        try:
            model = Model(ModelConfig.create(**knobs, window_len=window_len))
        except ConfigError:
            refused.append(window_len)
            continue
        model.forward(rand_input(model, batch=1))  # every accepted window runs
    assert refused == [6, 10, 12, 14]


def test_unknown_model_field_rejected():
    with pytest.raises(ConfigError):
        ModelConfig.create(bogus=1)


@pytest.mark.parametrize("variant", A.VARIANTS)
@pytest.mark.parametrize("pe", A.POS_ENCODINGS)
def test_f32_model_records_and_returns_only_f32(variant, pe):
    cfg = ModelConfig.create(**{**MINI_CONFIG, "precision": "f32"}, variant=variant, pos_encoding=pe)
    model = Model(cfg, seed=0)
    x = rand_input(model, batch=2, seed=1)
    y = (np.random.default_rng(2).random((2, cfg.num_classes)) < 0.5).astype(np.float32)
    logits = model.forward(x)
    assert logits.dtype == np.float32
    loss = bce_loss(logits, y)
    wrong = sorted({(sink_op(s), s.dtype.name) for s in recorded_sinks(loss) if s.dtype != np.float32})
    assert not wrong
    loss.backward()
    assert {p.grad.dtype for p in model.parameters().values()} == {np.dtype(np.float32)}


def test_f32_paper_forward_returns_f32_logits():
    model = Model(ModelConfig.create(), seed=0)
    x = Tensor(np.random.default_rng(0).uniform(-0.1, 0.1, (1, 12, 4096)), dtype="f32")
    with no_grad():
        assert model.forward(x).dtype == np.float32


@pytest.mark.parametrize("precision,other", [("f32", "f64"), ("f64", "f32")])
def test_input_of_another_dtype_is_refused_before_any_op(precision, other, monkeypatch):
    model = tiny_model(precision=precision)
    x = Tensor(np.zeros((1, 2, 128)), dtype=other)
    def no_op(*args):
        raise AssertionError("an op ran on a refused input")
    monkeypatch.setattr(tensor_module, "_result", no_op)
    monkeypatch.setattr(ops_module, "_result", no_op)
    with pytest.raises(ConfigError, match=f"input dtype {x.dtype} does not match model precision {precision}"):
        model.forward(x)


def test_miniature_end_to_end_gradient_check(model_checks):
    cfg = ModelConfig.create(**MINI_CONFIG)
    assert (cfg.leads, cfg.input_len, cfg.embed_dim, cfg.heads, cfg.num_stages) == (2, 64, 8, 2, 2)
    err = model_checks(cfg, seed=0)
    assert err <= 1e-3


def test_local_qkv_relative_window_longer_than_stage_input():
    # stage 2 receives 2 positions and each window spans 4: the key offsets clip into
    # the relative table, and only the input length is held to its capacity
    cfg = ModelConfig.create(**MINI_CONFIG, variant=A.VARIANT_LOCAL_QKV, pos_encoding=A.PE_RELATIVE)
    assert cfg.window_len > cfg.stage_len(2)
    assert model_check(cfg, seed=0) <= 1e-3
