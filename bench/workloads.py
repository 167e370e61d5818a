"""The four workloads. Each drives lganet through its public functions only,
times its operations from the outside, checks every output, and, in a
traced run, attributes the time to layers with ``tracer.Tracer``.

Every workload is a closed loop: one client in one process issues the next
operation when the previous one has returned. A run keeps issuing
operations until less than half an operation's time is left of its
``--seconds`` budget, except ``train_desk``, which runs a fixed number of
epochs per budget. A traced run spends its first third untraced (for the
overhead figure) and the rest traced.
"""

from __future__ import annotations

import hashlib
import math
import resource
import traceback

import numpy as np

import checks
import fixtures
from tracer import Patches, Tracer, _clock as clock

SETUP_REPEATS = 5

DESK_MODEL = dict(leads=12, input_len=1024, embed_dim=64, heads=4, num_stages=3,
                  window_len=16, num_classes=6)
# 448 / 32 / 32 patients of the 512-record desk fixture: 14 full B=32 steps per epoch
DESK_SPLIT = (0.875, 0.0625, 0.0625)
DESK_BATCH = 32
DESK_LR = (3e-3, 3e-4)
# train_desk runs a fixed number of epochs for a given --seconds, derived from this
# nominal epoch time rather than the measured one: peak RSS grows with every epoch
# (graphs are freed only by the cycle collector), so every commit must do the same work.
DESK_NOMINAL_EPOCH_S = 5.0
INFER_BATCH = 32
REFERENCE_CHUNK = 4  # f64 reference forward in small batches keeps its memory low
INGEST_BATCH = 32
# fd_mini checks the model and input of gradcheck.model_check's default seed; --seed
# picks the order in which their tensors are probed. Other model seeds can put a
# ReLU or max-pool switch within the 1e-5 probe step of some coordinate (seed 104:
# front2.conv1.weight[5], where the left difference is 2.9e-5 and the right one
# equals the analytic 1.29e-3), which fails the central difference though the
# backward pass is right.
FD_MODEL_SEED = 0


class Run:
    """State of one benchmark run: seed, budget, counts and what was measured."""

    def __init__(self, lganet, seed: int, seconds: float, trace: bool, tmp_dir):
        self.lg = lganet
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tmp_dir = tmp_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.end_to_end: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.info: dict = {}
        self.fixture_info: dict | None = None
        self.tracer: Tracer | None = None
        self.spans: dict | None = None

    @property
    def untraced_seconds(self) -> float:
        return self.seconds / 3 if self.trace else self.seconds

    @property
    def traced_seconds(self) -> float:
        return self.seconds - self.untraced_seconds

    def record(self, problems: list[str], ops: int = 1) -> None:
        self.attempted += ops
        if problems:
            self.failed += ops
            room = 20 - len(self.problems)
            self.problems.extend(problems[:max(room, 0)])

    def attempt(self, op, ops: int = 1):
        """Call ``op``; an exception counts ``ops`` failed operations and returns None."""
        try:
            return op()
        except Exception:  # the loop must keep running; the traceback is kept
            self.record([traceback.format_exc(limit=3)], ops)
            return None

    def fixture(self, kind: str) -> dict:
        path = self.tmp_dir / f"{kind}-{self.seed}.lgae"
        self.fixture_info = fixtures.generate(kind, self.seed, path)
        self.fixture_info["path"] = str(path)
        self.record(checks.check_digest(self.fixture_info["canary_sha256"],
                                        fixtures.REFERENCE_SHA256[kind], f"{kind} canary"))
        return self.fixture_info

    def set_bucket(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.bucket = name

    def start_tracing(self) -> Tracer:
        self.tracer = Tracer(self.lg)
        self.tracer.install()
        return self.tracer

    def stop_tracing(self) -> None:
        self.record(checks.check_restored(self.tracer.uninstall()))
        self.spans = self.tracer.span_dump()


def run_for(seconds: float, op, min_ops: int = 1) -> None:
    """Call ``op`` until less than half of its last duration is left of ``seconds``."""
    start = clock()
    done = 0
    while True:
        t = clock()
        op()
        done += 1
        last = clock() - t
        if done >= min_ops and clock() - start >= seconds - last / 2:
            return


def repeated_setup(fn):
    """Run a set-up ``SETUP_REPEATS`` times; returns the last state and the median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        t = clock()
        state = fn()
        times.append(clock() - t)
    return state, float(np.median(times))


def latency_metrics(samples_s, throughput: float) -> dict[str, float]:
    """p50, p90 and min of the samples in ms; zeros when every operation failed."""
    ms = np.asarray(samples_s) * 1e3
    if not ms.size:
        return {"latency_ms_p50": 0.0, "latency_ms_p90": 0.0, "latency_ms_min": 0.0,
                "throughput_per_s": 0.0, "samples": 0}
    return {"latency_ms_p50": float(np.percentile(ms, 50)),
            "latency_ms_p90": float(np.percentile(ms, 90)),
            "latency_ms_min": float(ms.min()),
            "throughput_per_s": throughput,
            "samples": len(ms)}


def overhead_pct(traced_s, untraced_s) -> float:
    base = float(np.median(untraced_s))
    return (float(np.median(traced_s)) - base) / base * 100.0


# -- per-layer metrics from a tracer ----------------------------------------------

TENSOR_METRIC_OPS = ("matmul", "transpose", "softmax", "add", "mul", "reshape", "pad_axis",
                     "narrow", "tmean", "unfold_windows")
NN_METRIC_OPS = ("conv1d", "max_pool1d", "avg_pool1d", "layer_norm", "linear", "relu")
ATTENTION_METRIC_FNS = ("local_queries", "global_kv", "attention_core")
MODEL_SCOPES = ("front1", "front2", "front3", "front4", "stage1", "stage2", "stage3", "stage4")


def layer_metrics(tr: Tracer, units: int, bucket: str = "unit") -> dict[str, float]:
    """tensor / ops / attention / model metrics per unit of work in ``bucket``."""
    agg, bwd, cnt = tr.agg[bucket], tr.bwd[bucket], tr.counters[bucket]
    per = 1.0 / max(units, 1)
    out: dict[str, float] = {}

    def op(prefix, name):
        key = f"{prefix}.{name}"
        a = agg.get(key)
        out[f"{key}.calls"] = (a.calls if a else 0) * per
        out[f"{key}.fwd_ms"] = (a.incl if a else 0.0) * 1e3 * per
        out[f"{key}.bwd_ms"] = bwd.get(key, 0.0) * 1e3 * per

    for name in TENSOR_METRIC_OPS:
        op("tensor", name)
    for name in NN_METRIC_OPS:
        op("ops", name)
    tensor_spans = [a for k, a in agg.items() if k.startswith("tensor.") and k != "tensor.backward"]
    calls = sum(a.calls for a in tensor_spans)
    out["tensor.op_overhead_us"] = (sum(a.self_time for a in tensor_spans) / calls * 1e6
                                    if calls else 0.0)
    out["tensor.graph_nodes"] = cnt.get("graph_nodes", 0.0) * per
    out["tensor.graph_mb"] = cnt.get("graph_bytes", 0.0) / 2**20 * per
    backward = agg.get("tensor.backward")
    out["tensor.backward_ms"] = (backward.incl if backward else 0.0) * 1e3 * per
    out["tensor.gc_pause_ms"] = tr.gc_pause.get(bucket, 0.0) * 1e3 * per
    flop = cnt.get("conv1d_flop", 0.0)
    conv = agg.get("ops.conv1d")
    out["ops.conv1d.gflop"] = flop / 1e9 * per
    out["ops.conv1d.gflop_per_s"] = flop / 1e9 / conv.incl if conv and conv.incl else 0.0
    for name in ATTENTION_METRIC_FNS:
        key = f"attention.{name}"
        a = agg.get(key)
        out[f"{key}.fwd_ms"] = (a.incl if a else 0.0) * 1e3 * per
        out[f"{key}.bwd_ms"] = bwd.get(key, 0.0) * 1e3 * per
    blocks = cnt.get("block_forwards", 0.0)
    out["attention.transposes"] = cnt.get("block_transposes", 0.0) / blocks if blocks else 0.0
    for scope in MODEL_SCOPES:
        a = agg.get(f"model.{scope}")
        out[f"model.{scope}.fwd_ms"] = (a.incl if a else 0.0) * 1e3 * per
        out[f"model.{scope}.bwd_ms"] = bwd.get(f"model.{scope}", 0.0) * 1e3 * per
    whole = agg.get("model.forward")
    inner = sum(agg[k].incl for k in agg if k == "model.front_end" or k.startswith("model.stage"))
    out["model.head.fwd_ms"] = ((whole.incl - inner) if whole else 0.0) * 1e3 * per
    out["model.head.bwd_ms"] = bwd.get("model.head", 0.0) * 1e3 * per
    return out


def incl_s(tr: Tracer, name: str) -> float:
    a = tr.agg["unit"].get(name)
    return a.incl if a else 0.0


def trace_metrics(run: Run, units: int, unit_wall_s: float, traced_s, untraced_s) -> None:
    """Self-check of a traced run plus the tracer's own cost."""
    covered = run.tracer.covered_seconds()
    run.record(checks.check_coverage(covered, unit_wall_s))
    forward_s = incl_s(run.tracer, "model.forward")
    if forward_s:  # every workload but ingest, whose units are data spans alone
        scope_s = run.tracer.scope_self_seconds()
        run.record(checks.check_attribution(scope_s, forward_s))
        run.info["op_share_of_forward"] = 1.0 - scope_s / forward_s
    run.layers["trace.span_coverage"] = covered / unit_wall_s if unit_wall_s else 0.0
    run.layers["trace.overhead_pct"] = overhead_pct(traced_s, untraced_s)
    run.info["traced_units"] = units


def no_training_layers() -> dict[str, float]:
    return {f"training.{k}": 0.0 for k in
            ("forward_ms", "bce_ms", "backward_ms", "adamw_ms", "eval_ms", "eval_forwards")}


def no_gradcheck_layers() -> dict[str, float]:
    return {"gradcheck.fd_evals_per_coord": 0.0, "gradcheck.forward_ms": 0.0}


def data_layers(run: Run, read_s: float, split_s: float, batch_ms: float) -> dict[str, float]:
    info = run.fixture_info
    mb = info["bytes"] / 2**20 if info else 0.0
    return {"data.read_dataset_s": read_s, "data.split_s": split_s, "data.batch_ms": batch_ms,
            "data.write_dataset_s": info["write_s"] if info else 0.0,
            "data.read_mb_per_s": mb / read_s if read_s else 0.0}


# -- train_desk -------------------------------------------------------------------


class TrainProbe:
    """Timestamp hooks around ``lganet.train``'s steps and evaluation passes.

    A step runs from the request for its batch to the end of its AdamW
    update. The hooks cost a few clock reads per step (~300 ms), so they
    stay on in untraced runs too.
    """

    def __init__(self, run: Run):
        self.run = run
        self.training = run.lg.training
        self.patches = Patches()
        self.in_eval = False
        self.step_start = 0.0
        self.steps: list[float] = []
        self.losses: list[float] = []
        self.eval_s = 0.0

    def install(self) -> None:
        tr, probe, run = self.training, self, self.run
        batches, adamw_step, bce_loss = tr.batches, tr.adamw_step, tr.bce_loss

        def timed_batches(*args, **kwargs):
            it = batches(*args, **kwargs)
            while True:
                if not probe.in_eval:
                    run.set_bucket("unit")
                    probe.step_start = clock()
                try:
                    item = next(it)
                except StopIteration:
                    if not probe.in_eval:
                        run.set_bucket("other")
                    return
                yield item

        def timed_adamw(*args, **kwargs):
            adamw_step(*args, **kwargs)
            probe.steps.append(clock() - probe.step_start)
            run.set_bucket("other")

        def loss_trace(*args, **kwargs):
            out = bce_loss(*args, **kwargs)
            if out.requires_grad:
                probe.losses.append(float(out.data))
            return out

        def evaluating(fn):
            def timed_eval(*args, **kwargs):
                probe.in_eval = True
                run.set_bucket("eval")
                t = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    probe.eval_s += clock() - t
                    probe.in_eval = False
                    run.set_bucket("other")
            return timed_eval

        self.patches.set(tr, "batches", timed_batches)
        self.patches.set(tr, "adamw_step", timed_adamw)
        self.patches.set(tr, "bce_loss", loss_trace)
        self.patches.set(tr, "validation_loss", evaluating(tr.validation_loss))
        self.patches.set(tr, "evaluate", evaluating(tr.evaluate))

    def uninstall(self) -> list[str]:
        saved = self.patches.snapshot()
        self.patches.restore()
        return Patches.verify_restored(saved)


def desk_epochs(seconds: float) -> int:
    return max(1, round(seconds / DESK_NOMINAL_EPOCH_S))


def train_desk(run: Run) -> None:
    lg = run.lg
    fx = run.fixture("desk")
    reads, splits = [], []

    def setup():
        t = clock()
        records = lg.read_dataset(fx["path"])
        reads.append(clock() - t)
        t = clock()
        train, val, _ = lg.split_by_patient(records, lg.SplitSpec(*DESK_SPLIT, seed=run.seed),
                                            require_nonempty=True)
        splits.append(clock() - t)
        config = lg.ModelConfig.create(**DESK_MODEL)
        lg.Model(config, seed=run.seed)
        return train, val, config

    (train, val, config), run.end_to_end["setup_body_s"] = repeated_setup(setup)
    spec = lg.TrainSpec(schedule=lg.ScheduleSpec(*DESK_LR, 1), batch_size=DESK_BATCH,
                        patience=1, seed=run.seed)
    steps_per_epoch = math.ceil(len(train) / DESK_BATCH)
    probe = TrainProbe(run)
    probe.install()
    epochs: list[float] = []
    traces: list[list[float]] = []
    rss_after: list[int] = []

    def epoch():
        model = lg.Model(config, seed=run.seed)
        probe.losses = []
        t = clock()
        log = run.attempt(lambda: lg.train(model, train, val, spec), steps_per_epoch)
        if log is None:
            return
        epochs.append(clock() - t)
        rss_after.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024)
        traces.append(probe.losses)
        problems = checks.check_losses(probe.losses, steps_per_epoch)
        if not all(math.isfinite(v) for v in (log[-1].val_loss, log[-1].train_loss)):
            problems.append("non-finite epoch loss in the training log")
        run.record(problems, steps_per_epoch)

    epoch()  # warm-up: the first epoch of a process also grows the heap to its working size
    run.info["warmup_s"] = epochs.pop() if epochs else None
    probe.steps.clear()
    for _ in range(desk_epochs(run.untraced_seconds)):
        epoch()
    untraced_steps, untraced_epochs = list(probe.steps), len(epochs)
    if run.trace:
        failed = probe.uninstall()
        tracer = run.start_tracing()
        probe.install()
        probe.steps, probe.eval_s = [], 0.0
        for _ in range(desk_epochs(run.traced_seconds)):
            epoch()
        run.record(checks.check_restored(failed + probe.uninstall()))
        run.stop_tracing()
        steps = probe.steps
        traced_epochs = len(epochs) - untraced_epochs
        run.layers.update(layer_metrics(tracer, len(steps)))
        per_step = 1e3 / max(len(steps), 1)
        run.layers.update({
            "training.forward_ms": incl_s(tracer, "model.forward") * per_step,
            "training.bce_ms": incl_s(tracer, "training.bce_loss") * per_step,
            "training.backward_ms": incl_s(tracer, "tensor.backward") * per_step,
            "training.adamw_ms": incl_s(tracer, "training.adamw_step") * per_step,
            "training.eval_ms": probe.eval_s * 1e3 / max(traced_epochs, 1),
            "training.eval_forwards":
                tracer.agg["eval"]["model.forward"].calls / max(traced_epochs, 1),
        })
        batch_ms = incl_s(tracer, "data.batch") * per_step
        trace_metrics(run, len(steps), sum(steps), steps, untraced_steps)
    else:
        run.record(checks.check_restored(probe.uninstall()))
        batch_ms = 0.0
    run.layers.update(no_gradcheck_layers())
    run.layers.update(data_layers(run, float(np.median(reads)), float(np.median(splits)), batch_ms))
    run.end_to_end.update(latency_metrics(
        untraced_steps,
        len(train) * untraced_epochs / sum(epochs[:untraced_epochs]) if untraced_epochs else 0.0))
    run.info.update({
        "unit": "train step (batch, forward, BCE, backward, AdamW)",
        "throughput_unit": "training samples per second of epoch wall time",
        "epoch_s": epochs, "steps_per_epoch": steps_per_epoch, "peak_rss_mb_after_epoch": rss_after,
        "loss_trace": traces[0] if traces else [],
        "loss_trace_identical_across_epochs": all(t == traces[0] for t in traces),
    })


# -- infer_paper ------------------------------------------------------------------


def infer_paper(run: Run) -> None:
    lg = run.lg
    fx = run.fixture("paper")
    reads = []

    def setup():
        t = clock()
        records = lg.read_dataset(fx["path"])
        reads.append(clock() - t)
        model = lg.Model(lg.ModelConfig.create(), seed=run.seed)
        x = np.stack([r.signal for r in records])
        return model, x, [lg.Tensor(x[i:i + 1]) for i in range(len(x))], lg.Tensor(x)

    (model, x, singles, full), run.end_to_end["setup_body_s"] = repeated_setup(setup)
    classes = model.config.num_classes
    # f64 forward of the same weights, outside every timed region
    ref_model = lg.Model(lg.ModelConfig.create(precision="f64"), seed=run.seed)
    ref_model.load_state(model.state_snapshot())
    with lg.no_grad():
        reference = np.concatenate([
            ref_model.forward(lg.Tensor(x[i:i + REFERENCE_CHUNK], dtype="f64")).data
            for i in range(0, len(x), REFERENCE_CHUNK)])
    del ref_model
    b1: list[float] = []
    b32: list[float] = []

    def forward(tensor, rows, samples, bucket):
        run.set_bucket(bucket)
        t = clock()
        out = run.attempt(lambda: model.forward(tensor))
        run.set_bucket("other")
        if out is None:
            return
        samples.append(clock() - t)
        run.record(checks.check_logits(out.data, reference[rows], len(tensor.data), classes))

    def round_trip():
        """The 32 records once as one B=32 batch and once one at a time (B=1)."""
        forward(full, slice(None), b32, "b32")
        for i, single in enumerate(singles):
            forward(single, slice(i, i + 1), b1, "unit")

    with lg.no_grad():
        forward(singles[0], slice(0, 1), b1, "unit")  # warm-up
        forward(full, slice(None), b32, "b32")
        run.info["warmup_s"] = [b1.pop() if b1 else None, b32.pop() if b32 else None]
        run_for(run.untraced_seconds, round_trip, min_ops=2)
        untraced_b1, untraced_b32 = list(b1), list(b32)
        if run.trace:
            tracer = run.start_tracing()
            run_for(run.traced_seconds, round_trip)
            run.stop_tracing()
            traced = b1[len(untraced_b1):]
            run.layers.update(layer_metrics(tracer, len(traced)))
            run.info["b32_layers"] = layer_metrics(tracer, len(b32) - len(untraced_b32), "b32")
            trace_metrics(run, len(traced), sum(traced), traced, untraced_b1)
    run.layers.update(no_training_layers())
    run.layers.update(no_gradcheck_layers())
    run.layers.update(data_layers(run, float(np.median(reads)), 0.0, 0.0))
    run.end_to_end.update(latency_metrics(
        untraced_b1, INFER_BATCH * len(untraced_b32) / sum(untraced_b32) if untraced_b32 else 0.0))
    run.info.update({"unit": "B=1 forward under no_grad",
                     "throughput_unit": "samples per second of B=32 forwards",
                     "b32_forward_s": b32})


# -- fd_mini ----------------------------------------------------------------------


def fd_mini(run: Run) -> None:
    lg = run.lg
    gradcheck = lg.gradcheck

    def setup():
        cfg = lg.ModelConfig.create(**gradcheck.MINI_CONFIG)
        model = lg.Model(cfg, seed=FD_MODEL_SEED)
        rng = np.random.default_rng(FD_MODEL_SEED + 100)
        x = lg.Tensor(rng.uniform(-1, 1, (1, cfg.leads, cfg.input_len)),
                      requires_grad=True, dtype=np.float64)
        y = (rng.random((1, cfg.num_classes)) < 0.5).astype(np.float64)
        params = model.parameters()
        return model, x, y, ["input"] + list(params), [x] + list(params.values())

    (model, x, y, names, inputs), run.end_to_end["setup_body_s"] = repeated_setup(setup)
    order = np.random.default_rng(run.seed).permutation(len(inputs))
    evals: list[float] = []
    op_walls: list[float] = []
    worst = {"max_rel": 0.0, "checked": 0, "coordinates": 0}

    def loss():
        run.set_bucket("unit")
        t = clock()
        out = lg.bce_loss(model.forward(x), y)
        evals.append(clock() - t)
        run.set_bucket("other")
        return out

    def check_one():
        j = int(order[worst["checked"] % len(order)])
        t = clock()
        err = run.attempt(lambda: gradcheck.max_rel_error(loss, [inputs[j]]))
        op_walls.append(clock() - t)
        worst["checked"] += 1
        worst["coordinates"] += inputs[j].size
        if err is None:
            return
        worst["max_rel"] = max(worst["max_rel"], err)
        problems = checks.check_fd(err, gradcheck.DEFAULT_TOL)
        run.record([f"{names[j]}: {p}" for p in problems])

    run_for(run.untraced_seconds, check_one)
    untraced_evals, untraced_wall = list(evals), sum(op_walls)
    if run.trace:
        tracer = run.start_tracing()
        coords0 = worst["coordinates"]
        run_for(run.traced_seconds, check_one)
        run.stop_tracing()
        traced = evals[len(untraced_evals):]
        run.layers.update(layer_metrics(tracer, len(traced)))
        run.layers["gradcheck.fd_evals_per_coord"] = \
            len(traced) / (worst["coordinates"] - coords0)
        run.info["traced_fd_evals"] = len(traced)
        run.layers["gradcheck.forward_ms"] = incl_s(tracer, "model.forward") * 1e3 / len(traced)
        trace_metrics(run, len(traced), sum(traced), traced, untraced_evals)
    else:
        run.layers.update(no_gradcheck_layers())
    run.layers.update(no_training_layers())
    run.layers.update(data_layers(run, 0.0, 0.0, 0.0))
    run.end_to_end.update(latency_metrics(
        untraced_evals, len(untraced_evals) / untraced_wall if untraced_wall else 0.0))
    run.info.update({"unit": "one finite-difference evaluation (forward + BCE)",
                     "throughput_unit": "FD evaluations per second of check time",
                     "tensors_checked": worst["checked"], "inputs": len(inputs),
                     "coordinates": int(sum(t.size for t in inputs)),
                     "max_rel_error": worst["max_rel"],
                     "input_sha256": hashlib.sha256(
                         x.data.tobytes() + y.tobytes()).hexdigest()})


# -- ingest -----------------------------------------------------------------------


def _fixture_rows(fh, rows, leads: int, length: int, classes: int):
    """Patient ids, labels and signals of the given records, read straight from the file."""
    size = fixtures.record_bytes(leads, length, classes)
    pids, labels, signals = [], [], []
    for i in rows:
        fh.seek(fixtures.HEADER_BYTES + int(i) * size)
        buf = fh.read(size)
        pids.append(int.from_bytes(buf[:8], "little"))
        labels.append(np.frombuffer(buf, np.uint8, classes, 8))
        signals.append(np.frombuffer(buf, "<f4", leads * length, 8 + classes).reshape(leads, length))
    return pids, np.stack(labels), np.stack(signals).astype(np.float32, copy=False)


def ingest(run: Run) -> None:
    lg = run.lg
    fx = run.fixture("ingest")
    leads, length = fx["leads"], fx["length"]
    spec, run.end_to_end["setup_body_s"] = repeated_setup(lambda: lg.SplitSpec(seed=run.seed))
    passes: list[float] = []
    parts = {"read": [], "split": [], "batch": [], "batches": 0}

    def one_pass():
        run.set_bucket("unit")
        t0 = clock()
        records = lg.read_dataset(fx["path"])
        t1 = clock()
        train, val, dev = lg.split_by_patient(records, spec)
        t2 = clock()
        run.set_bucket("other")
        pos = {id(r): i for i, r in enumerate(records)}
        problems: list[str] = []
        if len(records) != fx["records"]:
            problems.append(f"read {len(records)} records, wrote {fx['records']}")
        seen, batch_s = [], 0.0
        it = lg.batches(train, INGEST_BATCH, shuffle_seed=run.seed + len(passes),
                        dtype=np.float32)
        with open(fx["path"], "rb") as fh:
            while True:
                run.set_bucket("unit")
                t = clock()
                batch = next(it, None)
                batch_s += clock() - t
                run.set_bucket("other")
                if batch is None:
                    break
                parts["batches"] += 1
                seen.append(batch.indices)
                _, lab, sig = _fixture_rows(fh, [pos[id(train[j])] for j in batch.indices],
                                            leads, length, fx["classes"])
                problems += checks.check_same_bytes(batch.signal.data, sig, "batch signal")
                problems += checks.check_same_bytes(batch.labels, lab.astype(np.float32),
                                                    "batch labels")
            for r in val + dev:
                pid, lab, sig = _fixture_rows(fh, [pos[id(r)]], leads, length, fx["classes"])
                problems += checks.check_same_bytes(r.signal, sig[0], "record signal")
                problems += checks.check_same_bytes(r.labels, lab[0], "record labels")
                if pid[0] != r.patient_id:
                    problems.append("patient id differs from the fixture")
        problems += checks.check_batch_cover(seen, len(train))
        passes.append(t2 - t0 + batch_s)
        parts["read"].append(t1 - t0)
        parts["split"].append(t2 - t1)
        parts["batch"].append(batch_s)
        run.record(sorted(set(problems)))

    run.attempt(one_pass)  # warm-up
    run.info["warmup_s"] = passes.pop() if passes else None
    for key in ("read", "split", "batch"):
        parts[key].clear()
    run_for(run.untraced_seconds, lambda: run.attempt(one_pass), min_ops=2)
    untraced = list(passes)
    if run.trace:
        tracer = run.start_tracing()
        n0, b0 = len(passes), parts["batches"]
        run_for(run.traced_seconds, lambda: run.attempt(one_pass), min_ops=2)
        run.stop_tracing()
        traced = passes[n0:]
        run.layers.update(layer_metrics(tracer, len(traced)))
        batches = parts["batches"] - b0
        run.layers.update(data_layers(
            run, incl_s(tracer, "data.read_dataset") / len(traced),
            incl_s(tracer, "data.split_by_patient") / len(traced),
            incl_s(tracer, "data.batch") * 1e3 / max(batches, 1)))
        trace_metrics(run, len(traced), sum(traced), traced, untraced)
    else:
        run.layers.update(data_layers(run, float(np.median(parts["read"])),
                                      float(np.median(parts["split"])), 0.0))
    run.layers.update(no_training_layers())
    run.layers.update(no_gradcheck_layers())
    run.end_to_end.update(latency_metrics(
        untraced, fx["records"] * len(untraced) / sum(untraced) if untraced else 0.0))
    run.info.update({"unit": "ingest pass (read_dataset, split_by_patient, one batches pass)",
                     "throughput_unit": "records per second of pass time",
                     "read_s": parts["read"], "split_s": parts["split"],
                     "batches_s": parts["batch"]})


WORKLOADS = {"train_desk": train_desk, "infer_paper": infer_paper, "fd_mini": fd_mini,
             "ingest": ingest}
