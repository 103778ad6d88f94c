"""The benchmark's three workloads, their correctness checks and metrics.

Every workload drives the real public API in this one process, one caller
at a time (a closed loop). Inputs come from ``tests/_datagen.py``: the
training digits are the fixed synthetic corpus, and the test digits, which
every workload classifies, are drawn from the workload seed. The program
sees only the IDX files and arrays made here.

- ``train-fixedk``: a full ``run_pipeline`` on the acceptance architecture
  with k=10 per layer and feature images on. Training and k-means both work.
- ``elbow-sweep``: the same pipeline with the default elbow sweep, two
  epochs and no features, so clustering dominates.
- ``classify-mixed``: set-up runs a small pipeline that saves a bundle; the
  measured phase loads it and sends interleaved single-point and bulk
  ``classify_batch`` requests. Nothing trains or clusters there.

After every pipeline run, the two pipeline workloads load the saved bundle
and send the same requests, so every workload reports every end-to-end
metric.
"""

from __future__ import annotations

import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from _datagen import digit_dataset, write_idx_images, write_idx_labels

from pathens import ensemble, network, paths, pipeline
from pathens.network import Dataset
from pathens.runconfig import load_run_config
from spans import ROOT_SPAN, Tracer, layer_metrics, traced

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"

# the acceptance suite's corpus seed: the training digits never change, so
# the seed moves only the test digits and the tiers stay comparable
CORPUS_SEED = 20260815
TEST_SEED_BASE = CORPUS_SEED + 1

E2E_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "test_accuracy": "frac",
    "classify_bulk_pts_per_s": "1/s",
    "classify_single_p50_ms": "ms",
    "classify_single_p95_ms": "ms",
    "bundle_load_s": "s",
}

STAGES = ("load", "ensemble", "test", "bounds", "features", "report")


@dataclass(frozen=True)
class Size:
    n_train: int
    n_test: int
    folds: int
    epochs: int
    fixed_k: bool
    features: bool
    max_splits: int = 6
    steps: int = 100
    bulk: int = 1000           # points per bulk request
    singles_per_block: int = 70  # single-point requests before each bulk one
    loads: int = 5             # load_bundle repeats before classify-mixed's requests
    serve_loads: int = 2       # load_bundle repeats after each pipeline run
    serve_passes: int = 8      # request passes after each pipeline run
    oracle_sample: int = 64
    setups: int = 3


SIZES = {
    "train-fixedk": Size(3000, 3000, 3, 10, fixed_k=True, features=True),
    "elbow-sweep": Size(1200, 3000, 3, 2, fixed_k=False, features=False),
    "classify-mixed": Size(1500, 3000, 3, 10, fixed_k=True, features=False),
}

# a few seconds per workload, for the smoke test
TINY = {
    name: replace(sz, n_train=300, n_test=200, epochs=min(sz.epochs, 2), max_splits=1,
                  steps=5, bulk=100, singles_per_block=5, loads=2, serve_loads=1,
                  serve_passes=1, oracle_sample=8, setups=2)
    for name, sz in SIZES.items()
}

CONFIG = """\
[data]
format = idx
train_images = {d}/train_images.idx
train_labels = {d}/train_labels.idx
test_images = {d}/test_images.idx
test_labels = {d}/test_labels.idx

[network]
layer_sizes = 784,100,100,100,100,10
activation = sigmoid
dropout_rates = 0.05,0.15,0.15,0.15,0.15

[training]
epochs = {epochs}
batch_size = 64
step_size = 0.003
seed = 11

[ensemble]
scheme = block
folds = {folds}

[clustering]
seed = 7
restarts = 2
{overrides}

[filter]
max_norm_distances = 1.2,1.6,2.4
min_split_counts = 5,15,40
min_split_accuracies = 0.95,0.99,1.0
target_accuracy = 0.99

[features]
enabled = {features}
layer = 1
method = both
max_splits = {max_splits}
steps = {steps}
step_size = 0.05

[output]
dir = {d}/run
overwrite = true
"""


class Tally:
    """Correctness checks attempted and failed in one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def write_inputs(work: Path, sz: Size, seed: int) -> Dataset:
    """IDX files and run config for one workload; returns the test digits
    exactly as the pipeline will load them."""
    train, _ = digit_dataset(sz.n_train, seed=CORPUS_SEED)
    test, _ = digit_dataset(sz.n_test, seed=TEST_SEED_BASE + seed)
    for name, ds in (("train", train), ("test", test)):
        images = np.round(ds.points * 255).astype(np.uint8).reshape(-1, 28, 28)
        write_idx_images(work / f"{name}_images.idx", images)
        write_idx_labels(work / f"{name}_labels.idx", ds.labels.astype(np.uint8))
    overrides = "overrides = " + ",".join(f"{l}:10" for l in range(6)) if sz.fixed_k else ""
    (work / "run.cfg").write_text(CONFIG.format(
        d=work, epochs=sz.epochs, folds=sz.folds, overrides=overrides,
        features=str(sz.features).lower(), max_splits=sz.max_splits, steps=sz.steps))
    return Dataset(images.reshape(len(test), -1).astype(np.float64) / 255.0, test.labels)


@dataclass
class PipelineRun:
    seconds: float
    report: dict
    report_bytes: bytes
    verdicts: list  # (tier, label) per test point, from test_predictions.csv
    timing: dict


def run_pipeline_once(work: Path, n_test: int, tally: Tally, tracer: Tracer | None = None):
    cfg = load_run_config(work / "run.cfg")
    t0 = time.perf_counter()
    if tracer is None:
        rm = pipeline.run_pipeline(cfg)
    else:
        with traced(tracer):
            rm = tracer.call(ROOT_SPAN, pipeline.run_pipeline, (cfg,), {})
    seconds = time.perf_counter() - t0
    rows = (rm.out_dir / "test_predictions.csv").read_text().split()[1:]
    verdicts = [(tier, int(label)) for tier, label in (r.split(",")[1:3] for r in rows)]
    tiers = rm.report["tier_report"]["tiers"]
    tally.check(rm.report["bound_check"]["passed"], "voted-error bound holds")
    tally.check(sum(t["count"] for t in tiers.values()) == n_test == len(verdicts),
                "tier counts sum to the number of test points")
    return PipelineRun(seconds, rm.report, (rm.out_dir / "report.json").read_bytes(),
                       verdicts, rm.manifest["timing_s"])


def oracle_check(bundle, X, tally: Tally) -> None:
    """Each member's batch good mask against the scalar classify_point oracle."""
    for mb in bundle.members:
        for which, mm in (("original", mb.model1), ("retrained", mb.model2)):
            good, _, _ = ensemble.member_eval(mm, X)
            _, acts = network.forward_batch(mm.net, X, record=True)
            ids, nd = paths.compute_paths(mm.path_model, acts)
            want = [paths.classify_point(mm.stats, mm.params, paths.Path(i, d)).good
                    for i, d in zip(ids, nd)]
            tally.check(np.array_equal(good, want),
                        f"fold {mb.fold_index} {which} member_eval matches classify_point")


class Requests:
    """Interleaved single-point and bulk classify_batch requests over the
    test digits, each verdict checked against the pipeline's predictions."""

    def __init__(self, test: Dataset, expected: list, sz: Size, tally: Tally):
        self.test, self.expected, self.sz, self.tally = test, expected, sz, tally
        self.single_s: list[list[float]] = []  # one list per pass
        self.bulk_rates: list[float] = []

    def _ask(self, bundle, lo: int, hi: int):
        X = self.test.points[lo:hi]
        t0 = time.perf_counter()
        out = ensemble.classify_batch(bundle, X)
        seconds = time.perf_counter() - t0
        got = [(tv.tier, tv.label) for tv in out]
        self.tally.check(got == self.expected[lo:hi], f"verdicts of points {lo}..{hi - 1}")
        return got, seconds

    def one_pass(self, bundle) -> list:
        """Per block: singles from the block, then the block in one request.
        Returns the bulk verdicts, which cover every test point once."""
        sz, n = self.sz, len(self.test)
        verdicts, singles = [], []
        for lo in range(0, n, sz.bulk):
            hi = min(lo + sz.bulk, n)
            for j in range(sz.singles_per_block):
                i = lo + (len(self.single_s) * sz.singles_per_block + j) % (hi - lo)
                _, seconds = self._ask(bundle, i, i + 1)
                singles.append(seconds)
            got, seconds = self._ask(bundle, lo, hi)
            self.bulk_rates.append((hi - lo) / seconds)
            verdicts += got
        self.single_s.append(singles)
        return verdicts

    def metrics(self) -> dict:
        """p95 is taken per pass and the median over passes reported: a
        pause of the machine that slows every request for ~50 ms moves one
        pass, where it would move a pooled p95 by a quarter between runs."""
        p50 = np.percentile(np.concatenate(self.single_s), 50)
        p95 = statistics.median(float(np.percentile(p, 95)) for p in self.single_s)
        return {
            "classify_bulk_pts_per_s": statistics.median(self.bulk_rates),
            "classify_single_p50_ms": float(p50) * 1e3,
            "classify_single_p95_ms": p95 * 1e3,
        }


def load_bundle_timed(run_dir: Path):
    t0 = time.perf_counter()
    bundle = ensemble.load_bundle(run_dir / "bundle")
    return bundle, time.perf_counter() - t0


def tier_quality(verdicts, truth) -> dict:
    tiers = np.asarray([t for t, _ in verdicts])
    correct = np.asarray([label for _, label in verdicts]) == np.asarray(truth)
    good = tiers == ensemble.TIER_ORIGINAL_GOOD
    return {
        "test_accuracy": float(correct.mean()),
        "good_tier_accuracy": float(correct[good].mean()) if good.any() else 0.0,
        "good_tier_share": float(good.mean()),
    }


def timed_setups(work: Path, sz: Size, seed: int, tally: Tally, train_bundle: bool):
    """Set up ``sz.setups`` times; returns the set-up times, the pipeline
    runs made during set-up, and the test digits."""
    setup_s, runs = [], []
    for _ in range(sz.setups):
        t0 = time.perf_counter()
        test = write_inputs(work, sz, seed)
        if train_bundle:
            runs.append(run_pipeline_once(work, sz.n_test, tally))
        setup_s.append(time.perf_counter() - t0)
    for later in runs[1:]:
        tally.check(later.report_bytes == runs[0].report_bytes,
                    "report.json byte-identical across set-ups")
    return setup_s, runs, test


def measure_pipeline(work: Path, sz: Size, seed: int, seconds: float, tally: Tally) -> dict:
    """Pipeline runs while ``seconds`` lasts, at least two. After each one
    the bundle it saved is loaded and serves request passes, so every
    metric samples the whole run."""
    setup_s, _, test = timed_setups(work, sz, seed, tally, train_bundle=False)
    first, pipeline_s, loads, rounds = None, [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        run = run_pipeline_once(work, sz.n_test, tally)
        pipeline_s.append(run.seconds)
        if first is None:
            first = run
            requests = Requests(test, first.verdicts, sz, tally)
        else:
            tally.check(run.report_bytes == first.report_bytes,
                        "report.json byte-identical across runs of one seed")
        for _ in range(sz.serve_loads):
            bundle, load_s = load_bundle_timed(work / "run")
            loads.append(load_s)
        if len(pipeline_s) == 1:
            oracle_check(bundle, test.points[:sz.oracle_sample], tally)
        for _ in range(sz.serve_passes):
            requests.one_pass(bundle)
        rounds.append(time.perf_counter() - t0)
        if len(rounds) >= 2 and time.perf_counter() - start + statistics.median(rounds) > seconds:
            break
    return {
        "setup_s": statistics.median(setup_s),
        "pipeline_s": statistics.median(pipeline_s),
        "test_accuracy": first.report["ensemble_test_accuracy"],
        "bundle_load_s": statistics.median(loads),
        **requests.metrics(),
    }


def measure_classify(work: Path, sz: Size, seed: int, seconds: float, tally: Tally) -> dict:
    """Set-ups that each train and save the bundle; then bundle loads, and
    request passes while ``seconds`` lasts, at least one."""
    setup_s, runs, test = timed_setups(work, sz, seed, tally, train_bundle=True)
    requests = Requests(test, runs[0].verdicts, sz, tally)
    start = time.perf_counter()
    loads = []
    for _ in range(sz.loads):
        bundle, load_s = load_bundle_timed(work / "run")
        loads.append(load_s)
    oracle_check(bundle, test.points[:sz.oracle_sample], tally)
    first = requests.one_pass(bundle)
    while time.perf_counter() - start < seconds:
        requests.one_pass(bundle)
    return {
        "setup_s": statistics.median(setup_s),
        "pipeline_s": statistics.median(r.seconds for r in runs),
        "test_accuracy": tier_quality(first, test.labels)["test_accuracy"],
        "bundle_load_s": statistics.median(loads),
        **requests.metrics(),
    }


def paired_units(seconds: float, unit):
    """Call ``unit(tracer)`` untraced (tracer None) and traced in pairs while
    ``seconds`` lasts, at least once each, swapping which side goes first
    every pair. Returns the untraced and traced (seconds, result, tracer)."""
    sides = {False: [], True: []}
    start = time.perf_counter()
    while True:
        for is_traced in ((False, True) if len(sides[False]) % 2 == 0 else (True, False)):
            tracer = Tracer() if is_traced else None
            t0 = time.perf_counter()
            result = unit(tracer)
            sides[is_traced].append((time.perf_counter() - t0, result, tracer))
        pair = sum(statistics.median(s for s, _, _ in runs) for runs in sides.values())
        if time.perf_counter() - start + pair > seconds:
            return sides[False], sides[True]


def traced_figures(plain, traced_runs, verdicts, truth) -> dict:
    """Per-layer metrics from the traced units, the tier quality of their
    verdicts, and the tracing overhead on the median unit time."""
    out = layer_metrics([tracer for _, _, tracer in traced_runs])
    quality = tier_quality(verdicts, truth)
    out["ensemble.good_tier.accuracy"] = quality["good_tier_accuracy"]
    out["ensemble.good_tier.share"] = quality["good_tier_share"]
    out["trace.overhead_s"] = (statistics.median(s for s, _, _ in traced_runs)
                               - statistics.median(s for s, _, _ in plain))
    return out


def trace_pipeline(work: Path, sz: Size, seed: int, seconds: float, tally: Tally):
    """Untraced and traced pipeline runs; per-layer figures are averages
    over the traced runs."""
    test = write_inputs(work, sz, seed)
    plain, traced_runs = paired_units(
        seconds, lambda tracer: run_pipeline_once(work, sz.n_test, tally, tracer))
    base = plain[0][1]
    for _, run, _ in traced_runs:
        tally.check(run.report_bytes == base.report_bytes,
                    "traced report.json equals the untraced one")
        tally.check(run.verdicts == base.verdicts, "traced tier labels equal the untraced ones")
    out = traced_figures(plain, traced_runs, base.verdicts, test.labels)
    for stage in STAGES:
        out[f"pipeline.stage.{stage}.s"] = statistics.fmean(
            run.timing.get(stage, 0.0) for _, run, _ in traced_runs)
    return out, traced_runs[-1][2]


def trace_classify(work: Path, sz: Size, seed: int, seconds: float, tally: Tally):
    """Untraced and traced units of one bundle load plus one request pass;
    per-layer figures are averages over the traced units."""
    _, runs, test = timed_setups(work, replace(sz, setups=1), seed, tally, train_bundle=True)

    def unit():
        bundle, _ = load_bundle_timed(work / "run")
        return Requests(test, runs[0].verdicts, sz, tally).one_pass(bundle)

    def maybe_traced(tracer):
        if tracer is None:
            return unit()
        with traced(tracer):
            return tracer.call(ROOT_SPAN, unit, (), {})

    plain, traced_runs = paired_units(seconds, maybe_traced)
    for _, got, _ in traced_runs:
        tally.check(got == plain[0][1], "traced tier labels equal the untraced ones")
    out = traced_figures(plain, traced_runs, plain[0][1], test.labels)
    for stage in STAGES:
        out[f"pipeline.stage.{stage}.s"] = 0.0  # no pipeline runs in the measured phase
    return out, traced_runs[-1][2]


def machine_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def per_layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("share") or name.endswith("accuracy"):
        return "frac"
    return "count"


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    sz = (TINY if tiny else SIZES)[workload]
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{workload}-{os.getpid()}"
    work.mkdir(exist_ok=True)
    tally = Tally()
    try:
        if trace:
            fn = trace_classify if workload == "classify-mixed" else trace_pipeline
            values, last = fn(work, sz, seed, seconds, tally)
            last.write(WORK / f"trace-{workload}-seed{seed}.jsonl")
            if last.missing:
                print("not traced, no such name: " + ", ".join(last.missing), file=sys.stderr)
            metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
        else:
            fn = measure_classify if workload == "classify-mixed" else measure_pipeline
            values = fn(work, sz, seed, seconds, tally)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            values["ok_frac"] = 1.0 - tally.failed / tally.attempted
            metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}
