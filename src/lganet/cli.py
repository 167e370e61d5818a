"""Command-line entry point: synth / train / eval / ablate / gradcheck.

All commands are driven by a strict JSON config (unknown keys are errors,
diagnostics name the offending field path) and are deterministic under a
fixed seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import typing
from collections import defaultdict
from dataclasses import asdict, dataclass, field, fields, replace
from functools import reduce
from pathlib import Path

from . import __version__
from .attention import POS_ENCODINGS, VARIANTS
from .data import (
    DEFAULT_SAMPLE_RATE,
    SplitSpec,
    class_names,
    read_dataset,
    read_dataset_header,
    split_by_patient,
    synth_dataset,
    write_dataset,
)
from .errors import ConfigError, FormatError, LganetError
from .gradcheck import DEFAULT_TOL, run_all
from .model import Model, ModelConfig, count_parameters
from .training import ScheduleSpec, TrainSpec, evaluate, train, write_log_csv

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

DEFAULT_WINDOW_SWEEP = (16, 32, 64, 128)


@dataclass
class RunConfig:
    """Everything one training/ablation run needs, parsed from JSON.

    Defaults are those of the component dataclasses. The JSON form is
    derived from their fields by `_FIELDS`: the top-level `seed` and
    `precision` keys are `train.seed` and `model.precision`.
    """

    model: ModelConfig = field(default_factory=ModelConfig.create)
    train: TrainSpec = field(default_factory=TrainSpec)
    split: SplitSpec = field(default_factory=SplitSpec)
    dataset: str | None = None

    def to_dict(self) -> dict:
        out: dict = {section: {} for section in SECTIONS}
        for f in _FIELDS:
            target = out[f.section] if f.section else out
            target[f.key] = getattr(reduce(getattr, f.owner, self), f.attr)
        return out


@dataclass(frozen=True)
class _Field:
    section: str      # JSON section, "" for the top level
    key: str          # JSON key within the section
    owner: tuple      # attribute path from RunConfig to the owning dataclass
    attr: str         # field name on the owning dataclass
    types: tuple      # accepted JSON value types


SECTIONS = ("model", "train", "split", "data")
_JSON_KEY = {"total_epochs": "epochs"}


def _fields_of(cls, section: str, owner: tuple, names=None, skip=()) -> list[_Field]:
    hints = typing.get_type_hints(cls)
    names = names or [f.name for f in fields(cls) if f.name not in skip]
    return [_Field(section, _JSON_KEY.get(n, n), owner, n, typing.get_args(hints[n]) or (hints[n],))
            for n in names]


_FIELDS = (
    _fields_of(TrainSpec, "", ("train",), ["seed"])
    + _fields_of(ModelConfig, "", ("model",), ["precision"])
    + _fields_of(ModelConfig, "model", ("model",), skip=("precision",))
    + _fields_of(ScheduleSpec, "train", ("train", "schedule"))
    + _fields_of(TrainSpec, "train", ("train",), skip=("schedule", "seed", "stop_macro_f1"))
    + _fields_of(SplitSpec, "split", ("split",))
    + _fields_of(RunConfig, "data", (), ["dataset"])
)


def _expect(obj, path: str, kind) -> None:
    if not isinstance(obj, kind):
        raise ConfigError(f"{path}: expected {kind.__name__}, got {type(obj).__name__}")


def _read_section(raw: dict, path: str, section: str, into: dict, extra=()) -> None:
    """Strictly read one JSON object into keyword arguments per owning dataclass."""
    unknown = set(raw) - {f.key for f in _FIELDS if f.section == section} - set(extra)
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}: unknown field")
    for f in _FIELDS:
        if f.section != section or f.key not in raw:
            continue
        value = raw[f.key]
        if f.types == (float,) and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if not isinstance(value, f.types) or isinstance(value, bool) and bool not in f.types:
            want = "/".join(t.__name__ for t in f.types)
            raise ConfigError(f"{path}.{f.key}: expected {want}, got {type(value).__name__}")
        into[f.owner][f.attr] = value


def parse_run_config(raw: dict) -> RunConfig:
    _expect(raw, "config", dict)
    kw: dict[tuple, dict] = defaultdict(dict)
    _read_section(raw, "config", "", kw, extra=SECTIONS)
    for section in SECTIONS:
        _expect(raw.get(section, {}), f"config.{section}", dict)
    for section in SECTIONS:
        _read_section(raw.get(section, {}), section, section, kw)
    model = ModelConfig.create(**kw[("model",)])
    spec = TrainSpec(schedule=ScheduleSpec(**kw[("train", "schedule")]), **kw[("train",)])
    spec.validate()
    split = SplitSpec(**kw[("split",)])
    split.validate()
    return RunConfig(model, spec, split, **kw[()])


def load_run_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    return parse_run_config(raw)


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if args.seed is not None:
        cfg.train = replace(cfg.train, seed=args.seed)
    if args.precision is not None:
        cfg.model = ModelConfig.create(**{**asdict(cfg.model), "precision": args.precision})
    if args.data is not None:
        cfg.dataset = args.data
    return cfg


def _load_records(path, config: ModelConfig):
    """Read a dataset once its header shows it fits the model it will feed."""
    if path is None:
        raise ConfigError("no dataset path given (config data.dataset or --data)")
    if not os.path.exists(path):
        raise ConfigError(f"dataset file not found: {path}")
    head = read_dataset_header(path)
    found = (head["leads"], head["length"], head["classes"])
    wanted = (config.leads, config.input_len, config.num_classes)
    if head["records"] and found != wanted:
        raise ConfigError(f"dataset {path} has (leads, length, classes) = {found}, "
                          f"but the model takes {wanted}")
    return read_dataset(path)


# -- commands -------------------------------------------------------------


def cmd_synth(args) -> int:
    if args.n <= 0:
        raise ConfigError(f"--n must be positive, got {args.n}")
    records = synth_dataset(args.n, num_classes=args.classes, seed=args.seed,
                            leads=args.leads, length=args.length)
    write_dataset(records, args.out, sample_rate=args.sample_rate)
    print(f"wrote {len(records)} records to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _apply_overrides(load_run_config(args.config), args)
    tr, val, _dev = split_by_patient(_load_records(cfg.dataset, cfg.model), cfg.split, require_nonempty=True)
    model = Model(cfg.model, seed=cfg.train.seed)
    log = train(model, tr, val, cfg.train, verbose=args.verbose)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    model.save(out_dir / "weights.lgaw")
    write_log_csv(log, out_dir / "training_log.csv")
    report = evaluate(model, val, cfg.train.threshold, cfg.train.batch_size)
    with open(out_dir / "metrics.json", "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out_dir / "effective_config.json", "w", encoding="utf-8") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"trained {len(log)} epochs, {count_parameters(model.parameters())} parameters, "
          f"final val macro-F1 {report.macro_f1:.4f}")
    print(f"artifacts in {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    TrainSpec(threshold=args.threshold).validate()
    model = Model.load(args.weights, precision=args.precision)
    records = _load_records(args.data, model.config)
    report = evaluate(model, records, threshold=args.threshold)
    payload = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    print(payload)
    return EXIT_OK


def _ablation_values(axis: str, values: str | None):
    if values is not None and axis != "window":
        raise ConfigError(f"--values applies to --axis window only, not {axis!r}")
    if axis == "attention":
        return [("variant", v) for v in VARIANTS]
    if axis == "pe":
        return [("pos_encoding", p) for p in POS_ENCODINGS]
    if axis == "window":
        if values is None:
            return [("window_len", w) for w in DEFAULT_WINDOW_SWEEP]
        try:
            return [("window_len", int(v)) for v in values.split(",")]
        except ValueError:
            raise ConfigError(f"--values must be comma-separated integers, got {values!r}") from None
    raise ConfigError(f"unknown ablation axis {axis!r}, expected attention | pe | window")


def cmd_ablate(args) -> int:
    cfg = _apply_overrides(load_run_config(args.config), args)
    settings = _ablation_values(args.axis, args.values)
    records = _load_records(cfg.dataset, cfg.model)
    tr, val, dev = split_by_patient(records, cfg.split, require_nonempty=True)
    rows = []
    for knob, value in settings:
        model = Model(ModelConfig.create(**{**asdict(cfg.model), knob: value}), seed=cfg.train.seed)
        train(model, tr, val, cfg.train, verbose=args.verbose)
        report = evaluate(model, dev, cfg.train.threshold, cfg.train.batch_size)
        rows.append([str(value)] + [f"{c.f1:.4f}" for c in report.classes]
                    + [f"{report.macro_f1:.4f}"])
        print(f"[{args.axis}={value}] dev macro-F1 {report.macro_f1:.4f}", flush=True)
    header = [args.axis] + [f"f1_{n}" for n in class_names(cfg.model.num_classes)] + ["macro_f1"]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"ablation_{args.axis}.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    lines = ["  ".join(str(cell).ljust(w) for cell, w in zip(r, widths))
             for r in [header] + rows]
    table = "\n".join(lines)
    print(table)
    with open(out_dir / f"ablation_{args.axis}.txt", "w", encoding="utf-8") as fh:
        fh.write(table + "\n")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = run_all(seed=args.seed, tol=args.tol)
    failed = 0
    for res in results:
        mark = "PASS" if res.passed else "FAIL"
        failed += not res.passed
        print(f"{mark}  {res.name:<28s} max_rel_err={res.max_rel:.3e}  (tol {res.tol:g})")
    print(f"{len(results) - failed}/{len(results)} gradient checks passed")
    return EXIT_OK if failed == 0 else EXIT_RUNTIME


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lga",
        description="Local-global attention ECG classifier: data, training, ablations.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a deterministic synthetic dataset")
    p.add_argument("--n", type=int, required=True, help="number of records")
    p.add_argument("--out", required=True, help="output .lgae path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--leads", type=int, default=ModelConfig.leads)
    p.add_argument("--length", type=int, default=ModelConfig.input_len)
    p.add_argument("--classes", type=int, default=ModelConfig.num_classes)
    p.add_argument("--sample-rate", type=int, default=DEFAULT_SAMPLE_RATE)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--data", help="dataset path (overrides config data.dataset)")
    p.add_argument("--seed", type=int)
    p.add_argument("--precision", choices=("f32", "f64"))
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate saved weights on a dataset")
    p.add_argument("--weights", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--threshold", type=float, default=TrainSpec.threshold)
    p.add_argument("--precision", choices=("f32", "f64"))
    p.add_argument("--out", help="also write the JSON report here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train and score one run per setting on an axis")
    p.add_argument("--config", required=True)
    p.add_argument("--axis", required=True, choices=("attention", "pe", "window"))
    p.add_argument("--values", help="comma-separated window sizes (axis=window only)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--data", help="dataset path (overrides config data.dataset)")
    p.add_argument("--seed", type=int)
    p.add_argument("--precision", choices=("f32", "f64"))
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference check of every backward pass")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LganetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
