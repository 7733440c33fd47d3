"""Output checks that can fail, each counted as an operation.

The results and report files are read with this module's own parsers,
and the knn100k oracle recomputes the neighbour search with plain numpy,
so a defect in the package's readers or search cannot hide itself.
"""

import csv
import json
import struct
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
QUALITY_METRICS = {"detection_auc": "higher", "mean_mae_knn": "lower",
                   "mean_mae_global": "lower"}
N_ATTRIBUTES = 5
ORACLE_QUERIES = 12
# An unrecorded seed is held to the worst of the recorded seeds, which is
# not the worst seed there is: across 20 recorded seeds a workload's kNN MAE
# already spans up to a factor of two (ingest44k), so 5% would fail healthy
# seeds.  A search that stops finding near neighbours still fails: its AUC
# falls towards 0.5, on synth16k its kNN MAE no longer beats the global
# baseline's, and on knn100k the oracle checks the search itself.
UNRECORDED_TOLERANCE = 0.25


def load_reference() -> dict:
    if not REFERENCE_PATH.exists():
        return {"tolerance": 0.0, "workloads": {}}
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def read_manifest(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def manifest_test_ids(manifest) -> list:
    return [row["clip_id"] for row in read_manifest(manifest) if row["split"] == "test"]


def read_results(path) -> dict:
    """clip_id -> raw CSV row (strings); duplicates raise."""
    out = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if row[0] in out:
                raise ValueError(f"{path}: clip {row[0]!r} appears twice")
            out[row[0]] = row
    return out


def _row_ok(row) -> bool:
    try:
        anomaly = float(row[1])
        scores = [float(v) for v in row[2:2 + N_ATTRIBUTES]]
        labels = [int(v) for v in row[2 + N_ATTRIBUTES:]]
    except (ValueError, IndexError):
        return False
    return (len(row) == 2 + 2 * N_ATTRIBUTES and np.isfinite(anomaly) and anomaly >= 0
            and all(0.0 <= s <= 1.0 for s in scores)
            and all(label in (-1, 0, 1) for label in labels))


def check_results(ops, path, test_ids) -> None:
    """Every test clip exactly once with in-range scores and labels; one op per clip."""
    try:
        rows = read_results(path)
    except (OSError, ValueError, StopIteration) as exc:
        ops.record(False, f"{Path(path).name}: unreadable ({exc})", count=len(test_ids))
        return
    extra = set(rows) - set(test_ids)
    ops.record(not extra, f"{Path(path).name}: rows for unknown clips {sorted(extra)[:3]}")
    bad = [cid for cid in test_ids if cid not in rows or not _row_ok(rows[cid])]
    ops.record(True, "", count=len(test_ids) - len(bad))
    if bad:
        ops.record(False, f"{Path(path).name}: {len(bad)} test clips missing or "
                          f"out of range, first {bad[0]!r}", count=len(bad))


def read_quality(out) -> dict:
    out = Path(out)
    with open(out / "report_knn.json") as fh:
        knn = json.load(fh)
    with open(out / "report_global.json") as fh:
        glob = json.load(fh)
    return {"detection_auc": knn["detection_auc"], "mean_mae_knn": knn["mean_mae"],
            "mean_mae_global": glob["mean_mae"]}


def check_quality(ops, workload: str, seed: int, values: dict, reference: dict,
                  knn_beats_global: bool = True) -> str:
    """Compare against this seed's recorded values, else the worst recorded ones.

    A metric fails when it is worse than its reference by more than the
    recorded relative tolerance, or, for a seed that was not recorded, by
    more than UNRECORDED_TOLERANCE.  With knn_beats_global, the kNN labels
    must also beat the global baseline's on every seed.  Returns which
    reference was used.
    """
    recorded = reference["workloads"].get(workload, {})
    if str(seed) in recorded:
        ref, basis = recorded[str(seed)], f"seed {seed}"
        tol = reference["tolerance"]
    elif recorded:
        ref = {m: (min if better == "higher" else max)(r[m] for r in recorded.values())
               for m, better in QUALITY_METRICS.items()}
        basis = f"worst of {len(recorded)} recorded seeds"
        tol = UNRECORDED_TOLERANCE
    else:
        ops.record(False, f"{workload}: no recorded quality reference")
        return "none"
    for metric, better in QUALITY_METRICS.items():
        value, expected = values[metric], ref[metric]
        if better == "higher":
            ok = value >= expected * (1.0 - tol)
        else:
            ok = value <= expected * (1.0 + tol)
        ops.record(ok, f"{metric} {value:.4f} is worse than reference "
                       f"{expected:.4f} ({basis}) by more than {tol:.0%}")
    if knn_beats_global:
        ops.record(values["mean_mae_knn"] < values["mean_mae_global"],
                   f"kNN MAE {values['mean_mae_knn']:.4f} does not beat the global "
                   f"baseline's {values['mean_mae_global']:.4f}")
    return basis


def check_digest(ops, workload: str, seed: int, digest: str, reference: dict) -> None:
    """The inputs of a recorded seed must hash to the recorded digest."""
    recorded = reference["workloads"].get(workload, {}).get(str(seed))
    if recorded is not None:
        ops.record(recorded["inputs_digest"] == digest,
                   f"{workload} seed {seed}: inputs digest {digest[:12]} differs from "
                   f"recorded {recorded['inputs_digest'][:12]}; inputs changed")


def check_same_groups(ops, gt_a, gt_b) -> None:
    def groups(path):
        with open(path, newline="") as fh:
            return {(r["condition"], r["cause"], r["attribute"]) for r in csv.DictReader(fh)}
    ops.record(groups(gt_a) == groups(gt_b),
               f"{Path(gt_a).name} and {Path(gt_b).name} cover different groups")


def check_identical(ops, dir_a, dir_b) -> None:
    """Traced and untraced chains must write byte-identical outputs.

    config.json is skipped: it records the wall-clock time of the fit.
    """
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    for path in sorted(p for p in dir_a.rglob("*") if p.is_file()):
        rel = path.relative_to(dir_a)
        if path.name == "config.json":
            continue
        other = dir_b / rel
        ops.record(other.is_file() and other.read_bytes() == path.read_bytes(),
                   f"traced run changed output {rel}")


# ---------------------------------------------------------------------------
# knn100k oracle
# ---------------------------------------------------------------------------

def oracle_neighbors(rows, query, k: int):
    """Brute force: Euclidean distances, full stable sort, lower index wins ties."""
    dists = np.sqrt(((rows - query) ** 2).sum(axis=1))
    dists[(rows == query).all(axis=1)] = 0.0
    order = np.argsort(dists, kind="stable")[:k]
    return order, dists[order]


def rank_scores(query_values, neighbor_values):
    """Share of neighbours below the query per column, ties counting one half."""
    below = (neighbor_values < query_values).sum(axis=0)
    ties = (neighbor_values == query_values).sum(axis=0)
    return (below + 0.5 * ties) / neighbor_values.shape[0]


def read_model(model_dir):
    """(rows float64, timbre float64, normalization mean/std, config) from disk."""
    model_dir = Path(model_dir)
    raw = (model_dir / "embeddings.tdce").read_bytes()
    _, _, dim, count = struct.unpack_from("<4sIII", raw, 0)
    rows = np.frombuffer(raw, dtype="<f4", offset=16, count=dim * count)
    rows = rows.reshape(count, dim).astype(np.float64)
    with open(model_dir / "timbre.csv", newline="") as fh:
        timbre = {r[0]: [float(v) for v in r[1:]] for r in list(csv.reader(fh))[1:]}
    with open(model_dir / "embeddings.tdce.ids.csv", newline="") as fh:
        ids = [r[1] for r in list(csv.reader(fh))[1:]]
    timbre = np.array([timbre[cid] for cid in ids])
    with open(model_dir / "normalization.json") as fh:
        norm = json.load(fh)
    with open(model_dir / "config.json") as fh:
        config = json.load(fh)
    return rows, timbre, np.array(norm["mean"]), np.array(norm["std"]), config


def check_knn_oracle(ops, model_dir, inputs, results_knn, results_global, seed: int):
    """On a seeded sample of test clips, the CLI's scores equal the oracle's
    at the results CSV's 9-significant-digit precision.

    Query features come from the package's own feature code: the oracle
    checks the search and ranking, not the DSP.
    """
    from timbrediff.embeddings import spectral_features
    from timbrediff.frontend import CANONICAL_RATE, load_wav, resample
    from timbrediff.timbre import compute_timbre_vector

    rows, timbre, mean, std, config = read_model(model_dir)
    k = int(config["k"])
    entries = [r for r in read_manifest(Path(inputs) / "manifest.csv") if r["split"] == "test"]
    rng = np.random.default_rng([int(seed), 1])
    sample = rng.choice(len(entries), size=min(ORACLE_QUERIES, len(entries)), replace=False)
    knn_rows = read_results(results_knn)
    global_rows = read_results(results_global)
    for i in sorted(sample):
        entry = entries[i]
        clip = resample(load_wav(Path(inputs) / entry["path"]), CANONICAL_RATE)
        query = ((spectral_features(clip) - mean) / std).astype("<f4").astype(np.float64)
        values = np.array([float(f"{v:.9g}") for v in compute_timbre_vector(clip).as_array()])
        order, dists = oracle_neighbors(rows, query, k)
        anomaly = f"{dists.mean():.9g}"
        expect_knn = [anomaly] + [f"{s:.9g}" for s in rank_scores(values, timbre[order])]
        expect_global = [anomaly] + [f"{s:.9g}" for s in rank_scores(values, timbre)]
        cid = entry["clip_id"]
        for name, got_rows, expect in (("knn", knn_rows, expect_knn),
                                       ("global", global_rows, expect_global)):
            got = got_rows.get(cid, [])[1:2 + N_ATTRIBUTES]
            ops.record(got == expect, f"oracle ({name}) disagrees on {cid}: "
                                      f"CLI {got} vs oracle {expect}")
