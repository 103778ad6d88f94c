"""Exercises every subcommand through main() and checks the exit codes."""

import json

import numpy as np
import pytest
from _datagen import blob_dataset, write_idx_images, write_idx_labels
from numpy.testing import assert_allclose
from test_pipeline import write_blob_config

from pathens.cli import main
from pathens.dataio import load_csv, save_csv
from pathens.ensemble import load_bundle
from pathens.network import accuracy, load_network


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    cfg_path = write_blob_config(tmp)
    return tmp, str(cfg_path)


@pytest.fixture(scope="module")
def trained(ws):
    """One network and one bundle shared by the downstream command tests."""
    tmp, cfg = ws
    net_path = tmp / "net.json"
    bundle_dir = tmp / "bundle"
    assert main(["train", "--config", cfg, "--val-fraction", "0.2",
                 "--out", str(net_path)]) == 0
    assert main(["ensemble-train", "--config", cfg, "--out", str(bundle_dir)]) == 0
    return net_path, bundle_dir


def test_ingest_converts_idx_to_csv(tmp_path, capsys):
    rng = np.random.default_rng(3)
    images = rng.integers(0, 256, size=(5, 2, 3), dtype=np.uint8)
    labels = np.array([0, 1, 2, 1, 0], dtype=np.uint8)
    write_idx_images(tmp_path / "img.idx", images)
    write_idx_labels(tmp_path / "lab.idx", labels)
    out = tmp_path / "data.csv"
    rc = main(["ingest", "--images", str(tmp_path / "img.idx"),
               "--labels", str(tmp_path / "lab.idx"), "--out", str(out)])
    assert rc == 0
    assert "5 points, dim 6, 3 classes" in capsys.readouterr().out
    ds = load_csv(out)
    assert_allclose(ds.points, images.reshape(5, 6) / 255.0)
    np.testing.assert_array_equal(ds.labels, labels)


def test_ingest_applies_the_limit(tmp_path, capsys):
    full = blob_dataset(4, [[0.2, 0.2], [0.8, 0.8]], 0.05, seed=0)
    save_csv(full, tmp_path / "full.csv")
    rc = main(["ingest", "--csv", str(tmp_path / "full.csv"), "--limit", "3",
               "--out", str(tmp_path / "cut.csv")])
    assert rc == 0
    assert len(load_csv(tmp_path / "cut.csv")) == 3


def test_ingest_requires_labels_with_images(tmp_path, capsys):
    write_idx_images(tmp_path / "img.idx",
                     np.zeros((1, 2, 2), dtype=np.uint8))
    rc = main(["ingest", "--images", str(tmp_path / "img.idx"),
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "--labels" in capsys.readouterr().err


def test_train_writes_a_loadable_network(ws, trained, capsys):
    net_path, _ = trained
    net = load_network(net_path)
    assert net.config.layer_sizes == (2, 6, 3)
    data = load_csv(ws[0] / "train.csv")
    assert accuracy(net, data) > 0.5


def test_analyze_emits_the_three_artifacts(ws, trained, capsys):
    tmp, cfg = ws
    net_path, _ = trained
    out = tmp / "analysis"
    rc = main(["analyze", "--config", cfg, "--network", str(net_path),
               "--val-fraction", "0.2", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "filter keeps" in printed and "validation retains" in printed
    assert (out / "path_model.json").exists()
    assert (out / "stats.json").exists()
    chosen = json.loads((out / "filter.json").read_text())
    assert {"max_norm_distance", "min_split_count", "min_split_accuracy",
            "retained_count", "retained_accuracy", "met_target"} <= set(chosen)


def test_ensemble_train_then_test(ws, trained, capsys):
    tmp, cfg = ws
    _, bundle_dir = trained
    assert load_bundle(bundle_dir).n_members == 2
    preds = tmp / "preds.csv"
    rc = main(["ensemble-test", "--config", cfg, "--bundle", str(bundle_dir),
               "--out", str(preds)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "Test accuracy by tier" in printed
    assert "Test counts by tier" in printed
    lines = preds.read_text().splitlines()
    assert lines[0] == "index,tier,label,truth"
    assert len(lines) == 45 + 1


def test_ensemble_test_rejects_labels_beyond_the_network(ws, trained, tmp_path, capsys):
    tmp, cfg = ws
    _, bundle_dir = trained
    bad = load_csv(tmp / "test.csv")
    bad.labels[4] = 5  # the network has 3 classes
    save_csv(bad, tmp_path / "bad_test.csv")
    rc = main(["ensemble-test", "--config", cfg, "--bundle", str(bundle_dir),
               "--set", f"data.test_csv={tmp_path / 'bad_test.csv'}"])
    assert rc != 0
    captured = capsys.readouterr()
    assert "test data has label 5 but the network has 3 classes" in captured.err
    assert "Test accuracy by tier" not in captured.out


def test_features_command_emits_images(ws, trained, capsys):
    tmp, cfg = ws
    _, bundle_dir = trained
    out = tmp / "feat"
    rc = main(["features", "--config", cfg, "--bundle", str(bundle_dir),
               "--out", str(out)])
    assert rc == 0
    assert "emitted" in capsys.readouterr().out
    assert list(out.glob("avg_0_*.pgm"))
    assert list(out.glob("synth_1_c*.pgm"))


def test_bounds_calculators_print_expected_numbers(capsys):
    assert main(["bounds", "discovery", "--k", "9"]) == 0
    assert capsys.readouterr().out.strip() == "0.500000"

    assert main(["bounds", "interval", "--k", "9", "--n", "625",
                 "--eps-prime", "0.0", "--z", "2"]) == 0
    assert capsys.readouterr().out.strip() == (
        "interval [0.000000, 0.200000], discovery probability >= 0.500000")

    assert main(["bounds", "ensemble", "--v", "3", "--f1", "1/2",
                 "--f2", "3/4"]) == 0
    assert capsys.readouterr().out.strip() == "8.000000"

    assert main(["bounds", "coverage", "--eps", "0.0", "--n", "100", "--k", "3",
                 "--trials", "1000", "--seed", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1.0000"


def test_pipeline_and_report_commands(ws, capsys):
    tmp, cfg = ws
    run_dir = tmp / "full_run"
    rc = main(["pipeline", "--config", cfg,
               "--set", f"output.dir={run_dir}", "--verbose"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "stage ensemble" in printed
    assert "Test accuracy by tier" in printed
    assert f"artifacts in {run_dir}" in printed

    rc = main(["report", "--run", str(run_dir)])
    assert rc == 0
    assert "Ensemble" in capsys.readouterr().out

    # a second run into the now-populated directory is refused
    rc = main(["pipeline", "--config", cfg, "--set", f"output.dir={run_dir}"])
    assert rc == 2
    assert "not empty" in capsys.readouterr().err


def test_config_problems_exit_with_2(ws, tmp_path, capsys):
    _, cfg = ws
    assert main(["train", "--config", str(tmp_path / "absent.cfg"),
                 "--out", str(tmp_path / "n.json")]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["train", "--config", cfg, "--set", "epochs=3",
                 "--out", str(tmp_path / "n.json")]) == 2
    assert "section prefix" in capsys.readouterr().err
    assert main(["train", "--config", cfg, "--val-fraction", "1.5",
                 "--out", str(tmp_path / "n.json")]) == 2


def test_value_and_os_errors_exit_with_1(tmp_path, capsys):
    assert main(["bounds", "ensemble", "--v", "-1", "--f1", "0.5",
                 "--f2", "0.5"]) == 1
    assert "error" in capsys.readouterr().err
    assert main(["report", "--run", str(tmp_path / "nowhere")]) == 1


def test_version_and_missing_subcommand(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["--version"])
    assert exc_info.value.code == 0
    assert capsys.readouterr().out.startswith("pathens ")
    with pytest.raises(SystemExit) as exc_info:
        main([])
    assert exc_info.value.code == 2
