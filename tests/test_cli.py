"""End-to-end command behaviors: synth, train, eval, ablate, gradcheck."""

import hashlib
import json

import numpy as np
import pytest

from lganet import cli, ops
from lganet.cli import main, parse_run_config
from lganet.data import read_dataset, read_dataset_header
from lganet.errors import ConfigError, FormatError
from lganet.gradcheck import DEFAULT_TOL
from lganet.model import Model, ModelConfig

MICRO_CONFIG = {
    "seed": 5,
    "precision": "f32",
    "model": {
        "leads": 3, "input_len": 256, "embed_dim": 16, "heads": 2,
        "num_stages": 2, "num_classes": 6, "window_len": 4, "stride": 2,
    },
    "train": {"lr_start": 3e-3, "lr_end": 3e-4, "epochs": 2, "batch_size": 8},
    "split": {"train": 0.7, "val": 0.2, "dev": 0.1, "seed": 0},
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_config(tmp_path, dataset=None, **overrides):
    cfg = json.loads(json.dumps(MICRO_CONFIG))
    cfg.update(overrides)
    if dataset is not None:
        cfg["data"] = {"dataset": str(dataset)}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def make_dataset(tmp_path, n=40, name="d.lgae", seed=9):
    path = tmp_path / name
    rc = main(["synth", "--n", str(n), "--out", str(path), "--seed", str(seed),
               "--leads", "3", "--length", "256"])
    assert rc == 0
    return path


def test_synth_writes_valid_file(tmp_path):
    path = make_dataset(tmp_path, n=16)
    head = read_dataset_header(path)
    assert head["records"] == 16 and head["leads"] == 3 and head["length"] == 256
    assert len(read_dataset(path)) == 16


def test_synth_same_seed_same_hash(tmp_path):
    a = make_dataset(tmp_path, n=8, name="a.lgae", seed=3)
    b = make_dataset(tmp_path, n=8, name="b.lgae", seed=3)
    c = make_dataset(tmp_path, n=8, name="c.lgae", seed=4)
    assert sha256(a) == sha256(b)
    assert sha256(a) != sha256(c)


def test_synth_rejects_zero_records(tmp_path):
    assert main(["synth", "--n", "0", "--out", str(tmp_path / "x.lgae")]) == 2


def test_train_smoke_emits_artifacts(tmp_path, capsys):
    data = make_dataset(tmp_path)
    config = write_config(tmp_path, dataset=data)
    out = tmp_path / "run"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 0
    for name in ("weights.lgaw", "weights.lgaw.json", "training_log.csv",
                 "metrics.json", "effective_config.json"):
        assert (out / name).exists(), name
    log_lines = (out / "training_log.csv").read_text().strip().splitlines()
    assert len(log_lines) == 3  # header + 2 epochs


def test_train_missing_data_path_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, dataset=tmp_path / "absent.lgae")
    rc = main(["train", "--config", str(config), "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_train_without_dataset_exits_2(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 2


def test_eval_matches_training_metrics(tmp_path, capsys):
    data = make_dataset(tmp_path)
    config = write_config(tmp_path, dataset=data)
    out = tmp_path / "run"
    main(["train", "--config", str(config), "--out", str(out)])
    capsys.readouterr()

    # rebuild the validation split exactly as training did
    from lganet.data import SplitSpec, split_by_patient
    records = read_dataset(data)
    _, val, _ = split_by_patient(records, SplitSpec(0.7, 0.2, 0.1, seed=0))
    val_path = tmp_path / "val.lgae"
    from lganet.data import write_dataset
    write_dataset(val, val_path)

    assert main(["eval", "--weights", str(out / "weights.lgaw"),
                 "--data", str(val_path)]) == 0
    got = json.loads(capsys.readouterr().out)
    saved = json.loads((out / "metrics.json").read_text())
    assert abs(got["macro"]["f1"] - saved["macro"]["f1"]) <= 1e-6
    assert got["per_class"] == saved["per_class"]


def test_eval_empty_dataset_errors(tmp_path, capsys):
    data = make_dataset(tmp_path)
    config = write_config(tmp_path, dataset=data)
    out = tmp_path / "run"
    main(["train", "--config", str(config), "--out", str(out)])
    from lganet.data import write_dataset
    empty = tmp_path / "empty.lgae"
    write_dataset([], empty)
    rc = main(["eval", "--weights", str(out / "weights.lgaw"), "--data", str(empty)])
    assert rc == 2


def test_eval_threshold_monotone(tmp_path, capsys):
    data = make_dataset(tmp_path, n=24)
    config = write_config(tmp_path, dataset=data)
    out = tmp_path / "run"
    main(["train", "--config", str(config), "--out", str(out)])
    capsys.readouterr()
    counts = []
    for thr in ("0.2", "0.5", "0.8"):
        main(["eval", "--weights", str(out / "weights.lgaw"), "--data", str(data),
              "--threshold", thr])
        rep = json.loads(capsys.readouterr().out)
        counts.append(sum(c["tp"] + c["fp"] for c in rep["per_class"]))
    assert counts[0] >= counts[1] >= counts[2]


def saved_model(tmp_path):
    weights = tmp_path / "w.lgaw"
    Model(ModelConfig.create(**MICRO_CONFIG["model"])).save(weights)
    return weights


@pytest.mark.parametrize("model", [
    {**MICRO_CONFIG["model"], "leads": "3"},
    {**MICRO_CONFIG["model"], "leads": 3.0},
    ["x"],
], ids=["leads-str", "leads-float", "model-list"])
def test_eval_malformed_sidecar_exits_2(tmp_path, capsys, model):
    weights = saved_model(tmp_path)
    sidecar = tmp_path / "w.lgaw.json"
    sidecar.write_text(json.dumps({"model": model}))
    with pytest.raises(FormatError, match="sidecar"):
        Model.load(weights)
    data = make_dataset(tmp_path, n=8)
    assert main(["eval", "--weights", str(weights), "--data", str(data)]) == 2
    assert str(sidecar) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("shape, found", [
    (["--leads", "3", "--classes", "4"], "(3, 256, 4)"),
    (["--leads", "2", "--classes", "6"], "(2, 256, 6)"),
], ids=["4-class", "2-lead"])
def test_dataset_that_does_not_fit_the_model_exits_2_before_reading_records(
        tmp_path, capsys, monkeypatch, command, shape, found):
    data = tmp_path / "other.lgae"
    assert main(["synth", "--n", "8", "--out", str(data), "--length", "256"] + shape) == 0
    if command == "train":
        argv = ["train", "--config", str(write_config(tmp_path, dataset=data)),
                "--out", str(tmp_path / "run")]
    else:
        argv = ["eval", "--weights", str(saved_model(tmp_path)), "--data", str(data)]

    def no_record_reads(path):
        raise AssertionError("records were read")
    monkeypatch.setattr(cli, "read_dataset", no_record_reads)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"has (leads, length, classes) = {found}, but the model takes (3, 256, 6)" in err
    assert not (tmp_path / "run").exists()


def test_eval_threshold_out_of_range_exits_2(tmp_path, capsys):
    weights, data = saved_model(tmp_path), make_dataset(tmp_path, n=8)
    assert main(["eval", "--weights", str(weights), "--data", str(data),
                 "--threshold", "1.5"]) == 2
    assert "threshold must be in (0, 1)" in capsys.readouterr().err


def test_effective_config_roundtrip(tmp_path):
    data = make_dataset(tmp_path)
    config = write_config(tmp_path, dataset=data)
    out = tmp_path / "run"
    main(["train", "--config", str(config), "--out", str(out)])
    original = cli.load_run_config(config)
    emitted = cli.load_run_config(out / "effective_config.json")
    assert emitted == original


def test_config_defaults_and_roundtrip_have_one_source():
    assert parse_run_config({}) == cli.RunConfig()
    for cfg in (cli.RunConfig(), parse_run_config(MICRO_CONFIG)):
        assert parse_run_config(cfg.to_dict()) == cfg
    assert parse_run_config({"seed": 3}).train.seed == 3


def test_config_unknown_key_is_an_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**MICRO_CONFIG, "modle": {}}))
    with pytest.raises(ConfigError) as exc:
        cli.load_run_config(bad)
    assert "modle" in str(exc.value)


def test_config_nested_unknown_key_names_path():
    with pytest.raises(ConfigError) as exc:
        parse_run_config({"model": {"embed_dmi": 8}})
    assert "model.embed_dmi" in str(exc.value)


def test_config_type_error_names_path():
    with pytest.raises(ConfigError) as exc:
        parse_run_config({"train": {"lr_start": "fast"}})
    assert "train.lr_start" in str(exc.value)


def test_ablate_attention_axis_emits_five_rows(tmp_path, capsys):
    data = make_dataset(tmp_path, n=30)
    config = write_config(tmp_path, dataset=data,
                          train={"lr_start": 3e-3, "lr_end": 3e-4, "epochs": 1, "batch_size": 8})
    out = tmp_path / "ablate"
    assert main(["ablate", "--config", str(config), "--axis", "attention",
                 "--out", str(out)]) == 0
    rows = (out / "ablation_attention.csv").read_text().strip().splitlines()
    assert len(rows) == 6  # header + 5 variants
    assert rows[0].split(",")[0] == "attention"
    assert rows[0].count("f1_") == 6
    table = (out / "ablation_attention.txt").read_text().strip().splitlines()
    assert len(table) == 6


def test_ablate_window_axis_four_rows(tmp_path):
    data = make_dataset(tmp_path, n=30)
    config = write_config(tmp_path, dataset=data,
                          train={"lr_start": 3e-3, "lr_end": 3e-4, "epochs": 1, "batch_size": 8})
    out = tmp_path / "ablate"
    assert main(["ablate", "--config", str(config), "--axis", "window",
                 "--values", "4,8,16,32", "--out", str(out)]) == 0
    rows = (out / "ablation_window.csv").read_text().strip().splitlines()
    assert len(rows) == 5
    assert [r.split(",")[0] for r in rows[1:]] == ["4", "8", "16", "32"]


@pytest.mark.parametrize("axis,values", [("window", "4,x"), ("attention", "4,8"), ("pe", "4")])
def test_ablate_rejects_bad_values(tmp_path, capsys, axis, values):
    data = make_dataset(tmp_path, n=30)
    config = write_config(tmp_path, dataset=data)
    rc = main(["ablate", "--config", str(config), "--axis", axis, "--values", values,
               "--out", str(tmp_path / "ablate")])
    assert rc == 2
    assert "--values" in capsys.readouterr().err


def test_ablate_pe_axis_four_rows(tmp_path):
    data = make_dataset(tmp_path, n=30)
    config = write_config(tmp_path, dataset=data,
                          train={"lr_start": 3e-3, "lr_end": 3e-4, "epochs": 1, "batch_size": 8})
    out = tmp_path / "ablate"
    assert main(["ablate", "--config", str(config), "--axis", "pe",
                 "--out", str(out)]) == 0
    rows = (out / "ablation_pe.csv").read_text().strip().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == [
        "NONE", "SINUSOIDAL_APE", "LEARNABLE_APE", "RELATIVE"]


def test_train_determinism_hash_identical(tmp_path):
    data = make_dataset(tmp_path, n=30)
    config = write_config(tmp_path, dataset=data, precision="f64",
                          train={"lr_start": 1e-3, "lr_end": 1e-4, "epochs": 2, "batch_size": 8})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(config), "--out", str(out_a)]) == 0
    assert main(["train", "--config", str(config), "--out", str(out_b)]) == 0
    for name in ("weights.lgaw", "training_log.csv", "metrics.json", "effective_config.json"):
        assert sha256(out_a / name) == sha256(out_b / name), name


def test_gradcheck_command_passes(tmp_path, capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "max_rel_err" in out and "FAIL" not in out
    assert "model_end_to_end" in out


def test_gradcheck_tol_defaults_to_the_library_tolerance():
    assert cli.build_parser().parse_args(["gradcheck"]).tol == DEFAULT_TOL


def test_gradcheck_reports_corrupted_backward(monkeypatch, capsys):
    """Harness self-test: a wrong backward must be caught and named."""
    original = ops.relu

    def broken_relu(x):
        out = original(x)
        if out.requires_grad:
            inner = out._backward
            def tampered():
                x._accumulate(0.5 * out.grad * (x.data > 0))  # wrong scale
            out._backward = tampered
        return out

    monkeypatch.setattr(ops, "relu", broken_relu)
    rc = main(["gradcheck"])
    assert rc == 1
    out = capsys.readouterr().out
    assert any(line.startswith("FAIL") and "relu" in line for line in out.splitlines())
