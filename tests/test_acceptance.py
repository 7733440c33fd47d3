"""Acceptance suite: one test per release criterion.

Each test pins the tolerances the package must meet and prints a one-line
summary with the measured numbers (run with -s to see them live).  The
statistical checks compare against independent brute-force oracles living
in this file; the end-to-end checks drive the CLI on the seed-7 synthetic
benchmark.
"""

import dataclasses
import json
import time

import numpy as np

from timbrediff import cli, detector, store
from timbrediff.cli import main
from timbrediff.dataset import auc, generate_ground_truth
from timbrediff.detector import (
    ReferenceSet,
    score_clip,
    threshold_label,
    timbre_rank_score,
)
from timbrediff.embeddings import DistanceKind, Embedding, distances_to, fit_normalization
from timbrediff.evaluation import normalized_mae
from timbrediff.frontend import AudioClip
from timbrediff.synth import default_benchmark_specs, generate_clip
from timbrediff.timbre import compute_timbre_vector


def run_cli(*argv):
    return main([str(a) for a in argv])


def report_line(name, detail):
    print(f"[acceptance] {name}: PASS ({detail})")


# ---------------------------------------------------------------------------
# 1. U-statistic oracle equivalence
# ---------------------------------------------------------------------------

def test_c01_rank_score_matches_brute_force_u():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(1000):
        k = int(rng.integers(1, 51))
        if rng.random() < 0.5:
            neighbors = rng.integers(0, 7, k).astype(float)
            test_value = float(rng.integers(0, 7))
        else:
            neighbors = rng.normal(size=k)
            test_value = float(rng.normal())
        u_brute = 0.0
        for v in neighbors:
            if v < test_value:
                u_brute += 1.0
            elif v == test_value:
                u_brute += 0.5
        score = timbre_rank_score(test_value, neighbors)
        assert abs(score * k - u_brute) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report_line("C1 u-statistic oracle", f"1000 instances, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. AUC oracle equivalence
# ---------------------------------------------------------------------------

def test_c02_auc_matches_pair_counting_exactly():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    for _ in range(1000):
        n_neg = int(rng.integers(1, 201))
        n_pos = int(rng.integers(1, 201))
        if rng.random() < 0.5:
            neg = rng.integers(0, 10, n_neg).astype(float)
            pos = rng.integers(0, 10, n_pos).astype(float)
        else:
            neg = rng.normal(size=n_neg)
            pos = rng.normal(size=n_pos)
        # Independent O(n^2) pair counting via broadcasting.
        wins = (pos[:, None] > neg[None, :]).sum()
        ties = (pos[:, None] == neg[None, :]).sum()
        oracle = (wins + 0.5 * ties) / (n_neg * n_pos)
        value = auc(neg, pos)
        assert value == oracle
        assert auc(neg, pos) + auc(pos, neg) == 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report_line("C2 auc oracle", f"1000 instances incl. ties, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. Threshold boundary suite
# ---------------------------------------------------------------------------

def test_c03_threshold_boundaries_inclusive():
    eps = 1e-9
    for t in (0.05, 0.1, 0.3):
        cases = [
            (t - eps, -1),
            (t, -1),          # lower bound inclusive
            (t + eps, 0),
            (1 - t - eps, 0),
            (1 - t, 1),       # upper bound inclusive
            (1 - t + eps, 1),
        ]
        for score, expected in cases:
            assert threshold_label(score, t) == expected, (score, t)
    report_line("C3 threshold boundaries", "6 cases x 3 thresholds, exact")


# ---------------------------------------------------------------------------
# 4. Timbre metric gain invariance
# ---------------------------------------------------------------------------

def test_c04_metric_gain_invariance():
    conditions, causes = default_benchmark_specs()
    variants = (None, *causes)
    start = time.perf_counter()
    worst = 0.0
    for i in range(50):
        clip = generate_clip(conditions[i % 3], variants[i % 5], 1.0, 9000 + i)
        base = compute_timbre_vector(clip).as_array()
        for gain in (0.25, 0.5, 2.0, 4.0):
            scaled = compute_timbre_vector(
                AudioClip(clip.samples * gain, clip.sample_rate)).as_array()
            worst = max(worst, float(np.abs(scaled / base - 1.0).max()))
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 30.0
    report_line("C4 gain invariance",
                f"50 clips x 4 gains, worst {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. Monotone perturbation responses
# ---------------------------------------------------------------------------

def test_c05_monotone_perturbation_responses():
    conditions, causes = default_benchmark_specs()
    start = time.perf_counter()
    summary = []
    for cause in causes:
        targets = [col for col, d in enumerate(cause.intended_directions)
                   if d != 0]
        hits = {col: 0 for col in targets}
        trials = 100
        for i in range(trials):
            seed = 4000 + i
            cond = conditions[i % 3]
            base = compute_timbre_vector(
                generate_clip(cond, None, 1.0, seed)).as_array()
            moved = compute_timbre_vector(
                generate_clip(cond, cause, 1.0, seed)).as_array()
            for col in targets:
                direction = cause.intended_directions[col]
                if np.sign(moved[col] - base[col]) == direction:
                    hits[col] += 1
        for col in targets:
            rate = hits[col] / trials
            assert rate >= 0.95, (cause.cause_id, col, rate)
            summary.append(f"{cause.cause_id}[{col}]={rate:.0%}")
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report_line("C5 monotone responses", f"{' '.join(summary)}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. Ground-truth generator validity
# ---------------------------------------------------------------------------

def test_c06_ground_truth_recovers_intended_directions(default_benchmark,
                                                       benchmark_features):
    timbre, _ = benchmark_features
    start = time.perf_counter()
    clip_ids = list(timbre)
    values = np.array([vec.as_array() for vec in timbre.values()])
    groups, _, labels = generate_ground_truth(default_benchmark.manifest, clip_ids, values,
                                              t_prime=0.05)
    by_cause = {c.cause_id: c for c in default_benchmark.causes}
    matched = opposite = total = 0
    for (_, cause_id), row in zip(groups, labels):
        intended = by_cause[cause_id].intended_directions
        for col, direction in enumerate(intended):
            if direction == 0:
                continue
            total += 1
            if row[col] == direction:
                matched += 1
            elif row[col] == -direction:
                opposite += 1
    elapsed = time.perf_counter() - start
    assert matched / total >= 0.90
    assert opposite / total <= 0.02
    assert elapsed < 120.0
    report_line("C6 ground-truth validity",
                f"{matched}/{total} matched, {opposite} opposite, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. End-to-end benchmark: neighbors beat the global comparison
# ---------------------------------------------------------------------------

# C7(d): kNN's mean MAE is at most this share of the global baseline's.  On
# seeds 0-19 of this pipeline the ratio was 0.394-0.533, so 0.75 leaves 41%
# above the worst seed.  With k random rows as neighbours it was 0.975-1.032,
# and C7(b) alone still passed on 7 of those 20 seeds.
C7_MAE_RATIO = 0.75


def c7_spectral_reports(root, out):
    """C7's spectral pipeline on the benchmark at `root`: fit at k = 30, score
    by kNN and by the global baseline, gen-gt at t' = 0.05, and both reports."""
    manifest = root / "manifest.csv"
    model = out / "model_spectral"
    assert run_cli("fit", "--manifest", manifest, "--audio-root", root,
                   "--provider", "spectral", "--out", model, "--k", "30") == 0
    gt_path = out / "gt.csv"
    assert run_cli("gen-gt", "--manifest", manifest, "--audio-root", root,
                   "--t-prime", "0.05", "--out", gt_path) == 0
    reports = []
    for name, baseline in (("knn", []), ("global", ["--baseline", "global"])):
        results = out / f"results_{name}.csv"
        assert run_cli("score", "--model", model, "--manifest", manifest,
                       "--audio-root", root, "--out", results, *baseline) == 0
        report = out / f"report_{name}.json"
        assert run_cli("eval", "--results", results, "--gt", gt_path,
                       "--manifest", manifest, "--out", report) == 0
        reports.append(json.loads(report.read_text()))
    return reports


def test_c07_end_to_end_benchmark(default_benchmark, tmp_path):
    root = default_benchmark.out_dir
    manifest = root / "manifest.csv"
    start = time.perf_counter()
    knn_report, global_report = c7_spectral_reports(root, tmp_path)

    timbre_model = tmp_path / "model_timbre"
    assert run_cli("fit", "--manifest", manifest, "--audio-root", root,
                   "--provider", "timbre", "--out", timbre_model,
                   "--k", "30") == 0
    results_timbre = tmp_path / "results_timbre.csv"
    assert run_cli("score", "--model", timbre_model, "--manifest", manifest,
                   "--audio-root", root, "--out", results_timbre) == 0
    report_timbre = tmp_path / "report_timbre.json"
    assert run_cli("eval", "--results", results_timbre, "--gt", tmp_path / "gt.csv",
                   "--manifest", manifest, "--out", report_timbre) == 0
    timbre_report = json.loads(report_timbre.read_text())
    elapsed = time.perf_counter() - start

    assert knn_report["detection_auc"] >= 0.90                   # (a)
    assert knn_report["mean_mae"] < global_report["mean_mae"]    # (b)
    assert timbre_report["detection_auc"] is not None            # (c)
    ratio = knn_report["mean_mae"] / global_report["mean_mae"]
    assert ratio <= C7_MAE_RATIO                                 # (d)
    assert elapsed < 300.0
    report_line(
        "C7 end-to-end benchmark",
        f"spectral auc={knn_report['detection_auc']:.3f}, "
        f"knn mae={knn_report['mean_mae']:.3f} < global mae="
        f"{global_report['mean_mae']:.3f} (ratio {ratio:.3f}), timbre-knn auc="
        f"{timbre_report['detection_auc']:.3f}, {elapsed:.0f}s")


def random_neighbours(seed):
    """A stand-in for detector.knn that takes k random rows as each query's
    neighbours: a detector that ignores what its neighbours are."""
    rng = np.random.default_rng(seed)

    def knn(ref, queries, k):
        indices = np.array([rng.choice(ref.size, k, replace=False) for _ in queries])
        distances = [distances_to(ref.embeddings[rows], query, ref.distance_kind)
                     for rows, query in zip(indices, queries)]
        return indices.reshape(-1, k), np.reshape(distances, (-1, k))
    return knn


def test_c07_d_fails_with_random_neighbours(default_benchmark, tmp_path, monkeypatch):
    monkeypatch.setattr(detector, "knn", random_neighbours(7))
    knn_report, global_report = c7_spectral_reports(default_benchmark.out_dir, tmp_path)
    ratio = knn_report["mean_mae"] / global_report["mean_mae"]
    assert ratio > C7_MAE_RATIO
    report_line("C7(d) planted fault", f"random neighbours: mae ratio {ratio:.3f} "
                f"> {C7_MAE_RATIO}")


def misaligned_timbre_rows(seed):
    """A stand-in for the CLI's load_model whose timbre rows are permuted
    against the embeddings: each neighbour's timbre is another clip's."""
    def load(model_dir, config=None):
        ref, config = store.load_model(model_dir, config)
        order = np.random.default_rng(seed).permutation(ref.size)
        return dataclasses.replace(ref, timbre_values=ref.timbre_values[order]), config
    return load


def test_c07_d_fails_with_misaligned_timbre_rows(default_benchmark, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "load_model", misaligned_timbre_rows(7))
    knn_report, global_report = c7_spectral_reports(default_benchmark.out_dir, tmp_path)
    ratio = knn_report["mean_mae"] / global_report["mean_mae"]
    assert ratio > C7_MAE_RATIO
    report_line("C7(d) planted fault", f"timbre rows misaligned: mae ratio {ratio:.3f} "
                f"> {C7_MAE_RATIO}")


# ---------------------------------------------------------------------------
# 8. Self-match sanity
# ---------------------------------------------------------------------------

def test_c08_self_match_zero_score_and_labels(default_benchmark,
                                              benchmark_features):
    timbre, features = benchmark_features
    train = [e for e in default_benchmark.manifest if e.split == "train"]
    stats = fit_normalization(np.array([features[e.clip_id] for e in train]))
    embeddings = [Embedding((features[e.clip_id] - stats.mean) / stats.std,
                            "spectral", e.clip_id) for e in train]
    ref = ReferenceSet(
        np.vstack([e.vector for e in embeddings]),
        np.vstack([timbre[e.clip_id].as_array() for e in train]),
        [e.clip_id for e in train], "spectral", DistanceKind.EUCLIDEAN, stats)
    rng = np.random.default_rng(808)
    probes = rng.choice(len(train), size=10, replace=False)
    for index in probes:
        entry = train[index]
        for t in (0.05, 0.1, 0.3):
            result = score_clip(ref, embeddings[index],
                                timbre[entry.clip_id], k=1, t=t)
            assert result.anomaly_score == 0.0
            assert np.all(result.attribute_labels == 0)
    report_line("C8 self-match sanity", "10 clips x 3 thresholds, exact")


# ---------------------------------------------------------------------------
# 9. Pipeline determinism
# ---------------------------------------------------------------------------

def test_c09_pipeline_byte_identical(tmp_path):
    outputs = []
    for name in ("run1", "run2"):
        base = tmp_path / name
        data = base / "data"
        assert run_cli("synth", "--out", data, "--seed", "11",
                       "--train-per-cond", "6", "--test-per-cond", "2") == 0
        model = base / "model"
        assert run_cli("fit", "--manifest", data / "manifest.csv",
                       "--audio-root", data, "--provider", "spectral",
                       "--out", model, "--k", "5") == 0
        results = base / "results.csv"
        assert run_cli("score", "--model", model,
                       "--manifest", data / "manifest.csv",
                       "--audio-root", data, "--out", results) == 0
        gt = base / "gt.csv"
        assert run_cli("gen-gt", "--manifest", data / "manifest.csv",
                       "--audio-root", data, "--out", gt) == 0
        report = base / "report.json"
        assert run_cli("eval", "--results", results, "--gt", gt,
                       "--manifest", data / "manifest.csv",
                       "--out", report) == 0
        outputs.append({
            "manifest": (data / "manifest.csv").read_bytes(),
            "specs": (data / "specs.json").read_bytes(),
            "audio": {p.name: p.read_bytes()
                      for p in sorted((data / "audio").iterdir())},
            "results": results.read_bytes(),
            "gt": gt.read_bytes(),
            "report": report.read_bytes(),
        })
    assert outputs[0] == outputs[1]
    report_line("C9 determinism", "synth/fit/score/gen-gt/eval byte-identical")


# ---------------------------------------------------------------------------
# 10. MAE formula fidelity
# ---------------------------------------------------------------------------

def test_c10_normalized_mae_matches_brute_force():
    rng = np.random.default_rng(1010)
    for _ in range(200):
        n = int(rng.integers(1, 21))
        truths = np.array([rng.integers(-1, 2, 5) for _ in range(n)])
        predictions = np.array([rng.integers(-1, 2, 5) for _ in range(n)])
        # Brute-force restatement: per attribute, average the per-class-
        # weighted absolute errors over the classes present.
        expected = []
        for col in range(5):
            class_counts = {}
            for labels in truths:
                y = int(labels[col])
                class_counts[y] = class_counts.get(y, 0) + 1
            total = 0.0
            for clip, labels in enumerate(truths):
                y = int(labels[col])
                error = abs(int(predictions[clip][col]) - y)
                total += error / class_counts[y]
            expected.append(total / len(class_counts))
        got = normalized_mae(predictions, truths)
        np.testing.assert_allclose(got, expected, atol=1e-12, rtol=0)
    report_line("C10 mae fidelity", "200 configurations, 1e-12")
