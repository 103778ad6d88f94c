"""End-to-end runs of the pipeline driver on a small blob problem."""

import json

import numpy as np
import pytest
from _datagen import blob_dataset

from pathens.dataio import save_csv, save_external_predictions
from pathens.ensemble import ExternalPredictions, TIERS, TierVerdict, load_bundle
from pathens.pipeline import (
    PipelineError,
    STAGE_EXIT_CODES,
    emit_split_features,
    run_pipeline,
    write_predictions,
)
from pathens.runconfig import load_run_config

BLOB_CENTERS = [[0.2, 0.2], [0.8, 0.2], [0.5, 0.9]]
N_TEST = 45

CONFIG_TEMPLATE = """\
[data]
format = csv
train_csv = {train}
test_csv = {test}

[network]
layer_sizes = 2,6,3
activation = sigmoid

[training]
epochs = 6
batch_size = 8
seed = 5
step_size = 0.05

[ensemble]
scheme = block
folds = 2

[clustering]
seed = 3
overrides = 0:3,1:2,2:3
restarts = 2

[filter]
max_norm_distances = 2.0,inf
min_split_counts = 0,2
min_split_accuracies = 0.0,0.5
target_accuracy = 0.6

[features]
enabled = true
layer = 1
method = both
max_splits = 4
steps = 12
step_size = 0.1

[output]
dir = {out}
"""


def write_blob_config(tmp_path, out_name="run_out", extra=""):
    train = blob_dataset(30, BLOB_CENTERS, 0.08, seed=1)
    test = blob_dataset(N_TEST // 3, BLOB_CENTERS, 0.08, seed=2)
    save_csv(train, tmp_path / "train.csv")
    save_csv(test, tmp_path / "test.csv")
    text = CONFIG_TEMPLATE.format(
        train=tmp_path / "train.csv",
        test=tmp_path / "test.csv",
        out=tmp_path / out_name,
    ) + extra
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    return cfg_path


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipeline")
    cfg_path = write_blob_config(tmp)
    cfg = load_run_config(cfg_path)
    manifest = run_pipeline(cfg)
    return tmp, cfg, manifest


def test_run_writes_the_expected_artifacts(finished_run):
    _, cfg, rm = finished_run
    out = rm.out_dir
    assert (out / "bundle" / "bundle.json").exists()
    assert (out / "bundle" / "member_0.json").exists()
    assert (out / "bundle" / "member_1.json").exists()
    assert (out / "test_predictions.csv").exists()
    assert (out / "report.json").exists()
    assert (out / "report.txt").exists()
    assert (out / "run_manifest.json").exists()
    on_disk = json.loads((out / "report.json").read_text())
    assert on_disk == rm.report
    assert rm.manifest["config_fingerprint"] == cfg.fingerprint()
    assert set(rm.manifest["artifacts"]) == {
        "ensemble", "test", "features", "report"}
    assert set(rm.manifest["timing_s"]) >= {"load", "ensemble", "test", "bounds"}


def test_report_content_is_coherent(finished_run):
    _, cfg, rm = finished_run
    report = rm.report
    assert report["dataset"] == {"n_train": 90, "n_test": N_TEST,
                                 "dim": 2, "n_classes": 3}
    assert len(report["members"]) == 2
    counts = report["tier_report"]["tiers"]
    assert sum(counts[t]["count"] for t in TIERS) == N_TEST
    assert 0.0 <= report["ensemble_test_accuracy"] <= 1.0
    assert report["bound_check"]["passed"]
    assert report["bound_check"]["n_voted"] <= 90
    lo, hi = report["theorem"]["interval"]
    assert 0.0 <= lo <= hi <= 1.0
    pred_lines = (rm.out_dir / "test_predictions.csv").read_text().splitlines()
    assert pred_lines[0] == "index,tier,label,truth"
    assert len(pred_lines) == N_TEST + 1


def test_saved_bundle_is_loadable(finished_run):
    _, _, rm = finished_run
    bundle = load_bundle(rm.out_dir / "bundle")
    assert bundle.n_members == 2


def test_feature_images_follow_the_naming_scheme(finished_run):
    _, _, rm = finished_run
    feats = rm.report["features"]
    assert feats, "expected at least one good split on the blob problem"
    feat_dir = rm.out_dir / "features"
    for entry in feats:
        layer, src, dst = entry["split"].split(":")
        assert layer == "0"
        assert entry["average_file"] == f"avg_0_{src}_{dst}.pgm"
        assert entry["backprop_file"] == f"synth_1_c{dst}.pgm"
        assert (feat_dir / entry["average_file"]).exists()
        assert (feat_dir / entry["backprop_file"]).exists()
        assert entry["final_loss"] <= entry["init_loss"]


def test_rerun_with_overwrite_is_byte_identical(tmp_path):
    cfg_path = write_blob_config(tmp_path, extra="overwrite = true\n")
    cfg = load_run_config(cfg_path)
    first = run_pipeline(cfg)
    report_1 = (first.out_dir / "report.json").read_bytes()
    text_1 = (first.out_dir / "report.txt").read_bytes()
    second = run_pipeline(load_run_config(cfg_path))
    assert (second.out_dir / "report.json").read_bytes() == report_1
    assert (second.out_dir / "report.txt").read_bytes() == text_1


def test_nonempty_output_dir_is_refused_without_overwrite(tmp_path):
    cfg_path = write_blob_config(tmp_path)
    out = tmp_path / "run_out"
    out.mkdir()
    (out / "stale.txt").write_text("left over\n")
    with pytest.raises(PipelineError, match="not empty") as exc_info:
        run_pipeline(load_run_config(cfg_path))
    assert exc_info.value.stage == "config"
    assert exc_info.value.exit_code == 2


def test_load_failures_carry_the_load_stage_tag(tmp_path):
    cfg_path = write_blob_config(tmp_path)
    cfg = load_run_config(cfg_path)
    (tmp_path / "train.csv").unlink()
    with pytest.raises(PipelineError) as exc_info:
        run_pipeline(cfg)
    assert exc_info.value.stage == "load"
    assert exc_info.value.exit_code == 3


def test_dimension_mismatch_fails_in_the_load_stage(tmp_path):
    cfg_path = write_blob_config(tmp_path)
    cfg = load_run_config(cfg_path, overrides=("network.layer_sizes=3,6,3",))
    with pytest.raises(PipelineError, match="does not match") as exc_info:
        run_pipeline(cfg)
    assert exc_info.value.stage == "load"


def test_external_routing_stage(tmp_path):
    cfg_path = write_blob_config(tmp_path)
    test = blob_dataset(N_TEST // 3, BLOB_CENTERS, 0.08, seed=2)
    rng = np.random.default_rng(9)
    orig_scores = np.eye(3)[test.labels] + rng.random((N_TEST, 3)) * 0.1
    bad_scores = rng.random((N_TEST, 3))
    save_external_predictions(ExternalPredictions(orig_scores, "original"),
                              tmp_path / "orig.csv")
    save_external_predictions(ExternalPredictions(bad_scores, "bad"),
                              tmp_path / "bad.csv")
    cfg = load_run_config(cfg_path, overrides=(
        f"external.original_csv={tmp_path / 'orig.csv'}",
        f"external.bad_csv={tmp_path / 'bad.csv'}",
    ))
    rm = run_pipeline(cfg)
    assert (rm.out_dir / "routed_predictions.csv").exists()
    routing = rm.report["routing"]
    assert sum(routing["tier_report"]["tiers"][t]["count"] for t in TIERS) == N_TEST

    # the routed label must come from the file the tier calls for
    routed = [line.split(",") for line in
              (rm.out_dir / "routed_predictions.csv").read_text().splitlines()[1:]]
    for i, (idx, tier, label, _truth) in enumerate(routed):
        assert int(idx) == i
        source = bad_scores if tier == "bad_2" else orig_scores
        assert int(label) == int(source[i].argmax())


def test_misaligned_routing_files_fail_in_the_route_stage(tmp_path):
    cfg_path = write_blob_config(tmp_path)
    short = ExternalPredictions(np.random.default_rng(0).random((5, 3)), "original")
    save_external_predictions(short, tmp_path / "orig.csv")
    save_external_predictions(ExternalPredictions(short.scores, "bad"),
                              tmp_path / "bad.csv")
    cfg = load_run_config(cfg_path, overrides=(
        f"external.original_csv={tmp_path / 'orig.csv'}",
        f"external.bad_csv={tmp_path / 'bad.csv'}",
    ))
    with pytest.raises(PipelineError, match="align") as exc_info:
        run_pipeline(cfg)
    assert exc_info.value.stage == "route"
    assert exc_info.value.exit_code == 8


def test_stage_exit_codes_are_distinct_and_reserved():
    codes = list(STAGE_EXIT_CODES.values())
    assert len(set(codes)) == len(codes)
    assert 0 not in codes and 1 not in codes
    assert PipelineError("nonsense", "x").exit_code == 1


def test_emit_split_features_rejects_bad_layers(finished_run):
    _, cfg, rm = finished_run
    bundle = load_bundle(rm.out_dir / "bundle")
    mm = bundle.members[0].model1
    train = blob_dataset(30, BLOB_CENTERS, 0.08, seed=1)
    fold_train = train.subset(bundle.folds()[0][0])
    import dataclasses
    bad = dataclasses.replace(cfg.features, layer=9)
    with pytest.raises(ValueError, match="layer"):
        emit_split_features(mm, fold_train, bad,
                            train.points.mean(axis=0), rm.out_dir / "scratch")


def test_predictions_csv_layout(tmp_path):
    tiers = [TierVerdict("bad_2", 1), TierVerdict("original_good", 0)]
    write_predictions(tmp_path / "p.csv", tiers, np.array([1, 0]), np.array([2, 0]))
    assert (tmp_path / "p.csv").read_text() == (
        "index,tier,label,truth\n0,bad_2,1,2\n1,original_good,0,0\n")
