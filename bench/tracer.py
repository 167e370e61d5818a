"""Span tracer that instruments lganet from the outside.

Nothing in ``src/lganet`` knows about this module. ``Tracer.install``
replaces the public op functions, wherever an lganet module binds them by
name, with wrappers that record a span per call; it wraps the forward
methods of ``Model``, ``ResBlock`` and ``TransformerBlock`` so their spans
act as scopes (``model.front2``, ``model.stage1``); and it wraps the
backward closure of every graph node an op creates, so backward time is
charged to the op and scope that created the node. ``Tracer.uninstall``
puts every original back and ``Patches.verify_restored`` proves it.

A span is (id, name, start, end, parent id). Self time is a span's
duration minus the time covered by its children. Totals are kept per
*bucket* (the workload decides which part of the run a bucket stands for,
e.g. ``"unit"`` for the timed operation and ``"eval"`` for a validation
pass), so per-unit metrics divide the ``"unit"`` bucket by the unit count.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict

# Public functions of lganet that build tensors or run a layer, by module.
TENSOR_OPS = ("add", "sub", "mul", "matmul", "softmax", "tsum", "tmean", "transpose",
              "reshape", "narrow", "concatenate", "stack", "broadcast_to", "pad_axis",
              "take_rows", "unfold_windows")
NN_OPS = ("conv1d", "layer_norm", "max_pool1d", "avg_pool1d", "linear", "relu", "sigmoid")
ATTENTION_FNS = ("local_queries", "global_kv", "attention_core")
TRAINING_FNS = ("bce_loss", "adamw_step", "validation_loss", "evaluate")
DATA_FNS = ("read_dataset", "write_dataset", "split_by_patient")
SCOPED_MODULES = ("tensor", "ops", "attention", "model", "training", "data", "gradcheck", "cli")
BOOKKEEPING = "trace.bookkeeping"

_clock = time.perf_counter


class Patches:
    """Attribute replacements that remember the original and can be undone."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> list[tuple[object, str, object]]:
        return list(self._saved)

    @staticmethod
    def verify_restored(saved: list[tuple[object, str, object]]) -> list[str]:
        """Names of attributes that do not hold their original value any more."""
        bad = []
        for owner, attr, original in saved:
            if getattr(owner, attr) is not original:
                bad.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return bad


class _Agg:
    __slots__ = ("calls", "incl", "self_time")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_time = 0.0


class Tracer:
    """Records spans around calls into lganet; see the module docstring."""

    def __init__(self, lganet):
        self.lganet = lganet
        self.bucket = "other"
        self.spans: list[tuple[int, str, float, float, int]] = []
        self._next_id = 1
        self._stack: list[list] = []  # [name, parent path, child time, span id, start]
        self._last_end = 0.0
        self.path: tuple[str, ...] = ()
        self.agg: dict[str, dict[str, _Agg]] = defaultdict(lambda: defaultdict(_Agg))
        self.bwd: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.counters: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.gc_pause: dict[str, float] = defaultdict(float)
        self._gc_start = None
        self._block_names: dict[int, str] = {}
        self._block_depth = 0
        self._charge_cache: dict[tuple[str, ...], tuple[str, ...]] = {}
        self.patches = Patches()
        self._installed: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> list:
        span_id = self._next_id
        self._next_id += 1
        frame = [name, self.path, 0.0, span_id, _clock()]
        self._stack.append(frame)
        self.path = self.path + (name,)
        return frame

    def exit(self, frame: list) -> float:
        end = _clock()
        name, path, child, span_id, start = frame
        self._stack.pop()
        self.path = path
        dur = end - start
        agg = self.agg[self.bucket][name]
        agg.self_time += dur - child
        if name not in path:  # a recursive call is already inside its outer span
            agg.calls += 1
            agg.incl += dur
        parent_id = 0
        if self._stack:
            parent = self._stack[-1]
            parent[2] += dur
            parent_id = parent[3]
        self.spans.append((span_id, name, start, end, parent_id))
        self._last_end = end
        return dur

    def settle(self) -> None:
        """Charge the tracer's own work since the last span ended to ``BOOKKEEPING``
        rather than to the enclosing span, whose self time would otherwise grow
        by it. Outside every span it is charged nowhere, like any other gap."""
        if self._stack:
            dur = _clock() - self._last_end
            self.agg[self.bucket][BOOKKEEPING].self_time += dur
            self._stack[-1][2] += dur

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[self.bucket][name] += value

    # -- wrappers ------------------------------------------------------------

    def _charge_names(self, path: tuple[str, ...]) -> tuple[str, ...]:
        """Distinct span names that a node created under ``path`` charges backward to."""
        names = self._charge_cache.get(path)
        if names is None:
            names = tuple(dict.fromkeys(path))
            if "model.forward" in names and not any(
                    n == "model.front_end" or n.startswith("model.stage") for n in names):
                names += ("model.head",)
            self._charge_cache[path] = names
        return names

    def _wrap_backward(self, out, path: tuple[str, ...]) -> None:
        inner = out._backward
        tracer = self
        charge = self._charge_names(path)
        label = "bwd:" + path[-1]

        def traced_backward():
            frame = tracer.enter(label)
            try:
                inner()
            finally:
                dur = tracer.exit(frame)
            bwd = tracer.bwd[tracer.bucket]
            for name in charge:
                bwd[name] += dur

        traced_backward._bench_traced = True
        out._backward = traced_backward
        self.count("graph_nodes")
        self.count("graph_bytes", out.data.nbytes)

    def op_wrapper(self, name: str, fn, extra=None):
        """Wrap a function so each call is one span; a tensor it returns gets its
        backward closure traced."""
        tracer = self
        Tensor = self.lganet.Tensor

        def traced(*args, **kwargs):
            frame = tracer.enter(name)
            path = tracer.path
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if extra is not None:
                extra(args, out)
            if (type(out) is Tensor and out._backward is not None
                    and not getattr(out._backward, "_bench_traced", False)):
                tracer._wrap_backward(out, path)
            if tracer._block_depth and name == "tensor.transpose":
                tracer.count("block_transposes")
            tracer.settle()
            return out

        traced._bench_wrapped = True
        traced.__wrapped__ = fn
        return traced

    def generator_wrapper(self, name: str, fn):
        """Wrap a generator function so that producing each item is one span."""
        tracer = self

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = tracer.enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.exit(frame)
                yield item

        traced._bench_wrapped = True
        traced.__wrapped__ = fn
        return traced

    def _conv_flops(self, args, out) -> None:
        x, p = args[0], args[1]
        b, c, _ = x.shape
        l_out = out.shape[2]
        self.count("conv1d_flop", 2.0 * b * l_out * p.out_channels * c * p.kernel_size)

    # -- install / uninstall -------------------------------------------------

    def _modules(self) -> dict:
        """The lganet submodules imported so far, by short name."""
        return {m: getattr(self.lganet, m) for m in SCOPED_MODULES if hasattr(self.lganet, m)}

    def install(self) -> None:
        lg = self.lganet
        mods = self._modules()
        originals: dict[int, tuple] = {}
        for short, names in (("tensor", TENSOR_OPS), ("ops", NN_OPS),
                             ("attention", ATTENTION_FNS), ("training", TRAINING_FNS),
                             ("data", DATA_FNS)):
            for fn_name in names:
                fn = getattr(mods[short], fn_name)
                extra = self._conv_flops if fn_name == "conv1d" else None
                originals[id(fn)] = (fn, self.op_wrapper(f"{short}.{fn_name}", fn, extra))
        batches = mods["data"].batches
        originals[id(batches)] = (batches, self.generator_wrapper("data.batch", batches))
        # rebind every name that refers to an original, in every lganet namespace
        for namespace in [lg] + list(mods.values()):
            for attr, value in list(vars(namespace).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self.patches.set(namespace, attr, hit[1])
        self._install_scopes()
        self.patches.set(lg.Tensor, "backward",
                         self.op_wrapper("tensor.backward", lg.Tensor.backward))
        gc.callbacks.append(self._on_gc)
        self._installed = self.patches.snapshot()

    def _install_scopes(self) -> None:
        model_mod = self.lganet.model
        tracer = self

        def scoped(name_of, fn, is_block=False):
            def traced(obj, *args, **kwargs):
                frame = tracer.enter(name_of(obj))
                if is_block:
                    tracer._block_depth += 1
                try:
                    return fn(obj, *args, **kwargs)
                finally:
                    if is_block:
                        tracer._block_depth -= 1
                    tracer.exit(frame)
            traced._bench_wrapped = True
            traced.__wrapped__ = fn
            return traced

        def model_name(model):
            for i, blk in enumerate(model.res_blocks, 1):
                tracer._block_names[id(blk)] = f"model.front{i}"
            for i, blk in enumerate(model.blocks, 1):
                tracer._block_names[id(blk)] = f"model.stage{i}"
            return "model.forward"

        def block_name(blk):
            return tracer._block_names.get(id(blk), "model.block")

        def stage_name(blk):
            tracer.count("block_forwards")
            return block_name(blk)

        self.patches.set(model_mod.Model, "forward", scoped(model_name, model_mod.Model.forward))
        self.patches.set(model_mod.Model, "front_end",
                         scoped(lambda m: "model.front_end", model_mod.Model.front_end))
        self.patches.set(model_mod.ResBlock, "forward",
                         scoped(block_name, model_mod.ResBlock.forward))
        self.patches.set(model_mod.TransformerBlock, "forward",
                         scoped(stage_name, model_mod.TransformerBlock.forward, is_block=True))

    def uninstall(self) -> list[str]:
        """Restore every original; returns the names that failed to restore."""
        self.patches.restore()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        bad = Patches.verify_restored(self._installed)
        for namespace in [self.lganet] + list(self._modules().values()):
            for attr, value in vars(namespace).items():
                if getattr(value, "_bench_wrapped", False):
                    bad.append(f"{namespace.__name__}.{attr}")
        for cls in (self.lganet.Tensor, self.lganet.model.Model, self.lganet.model.ResBlock,
                    self.lganet.model.TransformerBlock):
            for attr, value in vars(cls).items():
                if getattr(value, "_bench_wrapped", False):
                    bad.append(f"{cls.__name__}.{attr}")
        return bad

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = _clock()
        elif self._gc_start is not None:
            self.gc_pause[self.bucket] += _clock() - self._gc_start
            self._gc_start = None

    # -- results -------------------------------------------------------------

    def covered_seconds(self) -> float:
        """Sum of span self times in the ``"unit"`` bucket (telescopes to the root
        spans' durations)."""
        return sum(a.self_time for a in self.agg["unit"].values())

    def scope_self_seconds(self) -> float:
        """Self time of the model scopes in the ``"unit"`` bucket: the part of
        ``Model.forward`` that no op span accounts for."""
        return sum(a.self_time for name, a in self.agg["unit"].items()
                   if name.startswith("model."))

    def span_dump(self) -> dict:
        return {"fields": ["id", "name", "start_s", "end_s", "parent_id"], "spans": self.spans}
