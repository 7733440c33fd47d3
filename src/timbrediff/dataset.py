"""Dataset manifests and AUC-based ground-truth label generation.

Ground truth for an anomalous group (condition m, cause q) compares the
timbre metric distribution of the group's clips against the normal
training clips of the same condition: the AUC of that comparison is
thresholded into a {-1, 0, +1} label per attribute.
"""

from dataclasses import dataclass

import numpy as np

from .csvrows import read_rows, write_rows
from .detector import auc, check_scores_and_labels, threshold_label
from .timbre import ATTRIBUTE_NAMES, N_ATTRIBUTES

DEFAULT_T_PRIME = 0.05

MANIFEST_CSV_HEADER = ["clip_id", "path", "split", "state", "condition",
                       "cause", "domain"]
GROUND_TRUTH_CSV_HEADER = ["condition", "cause", "attribute", "score", "label"]

SPLITS = ("train", "test")
STATES = ("normal", "anomalous")
DOMAINS = ("source", "target")


class ManifestError(ValueError):
    """Manifest rows violating the format or the training-data constraints."""


class GroundTruthError(ValueError):
    """Ground truth cannot be derived for the given entries."""


@dataclass(frozen=True)
class ManifestEntry:
    clip_id: str
    path: str
    split: str
    state: str
    condition_id: str
    cause_id: str = ""
    domain: str = "source"

    def __post_init__(self):
        if self.split not in SPLITS:
            raise ManifestError(f"split must be one of {SPLITS}, got {self.split!r}")
        if self.state not in STATES:
            raise ManifestError(f"state must be one of {STATES}, got {self.state!r}")
        if self.domain not in DOMAINS:
            raise ManifestError(f"domain must be one of {DOMAINS}, got {self.domain!r}")
        if not self.clip_id or not self.condition_id:
            raise ManifestError("clip_id and condition must be non-empty")
        if self.split == "train" and self.state == "anomalous":
            raise ManifestError("training data must be normal only")
        if self.state == "anomalous" and not self.cause_id:
            raise ManifestError("anomalous entries must carry a cause")


@dataclass(frozen=True)
class GroundTruthRecord:
    condition_id: str
    cause_id: str
    scores: np.ndarray    # per-attribute AUC in [0, 1]
    labels: np.ndarray    # per-attribute {-1, 0, 1}

    def __post_init__(self):
        scores, labels = check_scores_and_labels(self.scores, self.labels, "ground truth")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", labels)


# ---------------------------------------------------------------------------
# Manifest CSV
# ---------------------------------------------------------------------------

def load_manifest(path) -> list:
    """Read and validate a manifest CSV; errors name the file and row."""
    return read_rows(path, MANIFEST_CSV_HEADER, lambda _, row: ManifestEntry(*row),
                     ManifestError, unique="clip_id")


def write_manifest_csv(path, entries) -> None:
    write_rows(path, MANIFEST_CSV_HEADER, ([e.clip_id, e.path, e.split, e.state,
                                           e.condition_id, e.cause_id, e.domain]
                                          for e in entries))


# ---------------------------------------------------------------------------
# Ground truth generation
# ---------------------------------------------------------------------------

def generate_ground_truth(entries, clip_ids, timbre,
                          t_prime: float = DEFAULT_T_PRIME) -> list:
    """One labeled record per (condition, cause) group of anomalous clips.

    Row i of the [N x 5] `timbre` holds the metric values of clip_ids[i].
    Per attribute, the score is the AUC of the group's metric values
    against the same-condition normal training values; the label applies
    the t_prime threshold to that score.
    """
    timbre = np.asarray(timbre, dtype=np.float64)
    row_of = {clip_id: row for row, clip_id in enumerate(clip_ids)}

    train_by_condition, groups = {}, {}
    for entry in entries:
        if entry.split == "train":
            train_by_condition.setdefault(entry.condition_id, []).append(entry)
        if entry.state == "anomalous":
            groups.setdefault((entry.condition_id, entry.cause_id), []).append(entry)

    records = []
    for (condition_id, cause_id) in sorted(groups):
        if condition_id not in train_by_condition:
            raise GroundTruthError(
                f"condition {condition_id!r} has anomalous clips but no normal "
                "training clips"
            )
        normal = train_by_condition[condition_id]
        members = normal + groups[(condition_id, cause_id)]
        missing = [e.clip_id for e in members if e.clip_id not in row_of]
        if missing:
            raise GroundTruthError(f"missing timbre vector for clip {missing[0]!r}")
        values = timbre[[row_of[e.clip_id] for e in members]]
        scores = np.array([
            auc(values[:len(normal), col], values[len(normal):, col])
            for col in range(N_ATTRIBUTES)
        ])
        records.append(GroundTruthRecord(condition_id, cause_id, scores,
                                         threshold_label(scores, t_prime)))
    return records


def assign_labels(entries, records) -> dict:
    """Map each anomalous clip to its group's label vector."""
    by_group = {(r.condition_id, r.cause_id): r for r in records}
    out = {}
    for entry in entries:
        if entry.state != "anomalous":
            continue
        key = (entry.condition_id, entry.cause_id)
        if key not in by_group:
            raise GroundTruthError(
                f"clip {entry.clip_id!r}: no ground truth record for condition "
                f"{entry.condition_id!r}, cause {entry.cause_id!r}"
            )
        out[entry.clip_id] = by_group[key].labels.copy()
    return out


def ground_truth_statistics(records) -> dict:
    """Group count, unique label-vector count and label value tallies."""
    records = list(records)
    if not records:
        raise ValueError("statistics need at least one record")
    all_labels = np.concatenate([r.labels for r in records])
    return {
        "groups": len(records),
        "unique_vectors": len({tuple(r.labels.tolist()) for r in records}),
        "counts": {
            "minus": int((all_labels == -1).sum()),
            "zero": int((all_labels == 0).sum()),
            "plus": int((all_labels == 1).sum()),
        },
    }


# ---------------------------------------------------------------------------
# Ground truth CSV
# ---------------------------------------------------------------------------

def write_ground_truth_csv(path, records) -> None:
    write_rows(path, GROUND_TRUTH_CSV_HEADER, (
        [rec.condition_id, rec.cause_id, name,
         f"{rec.scores[col]:.9g}", str(int(rec.labels[col]))]
        for rec in records for col, name in enumerate(ATTRIBUTE_NAMES)))


def read_ground_truth_csv(path) -> list:
    groups = {}         # (condition, cause) -> {attribute: (score, label, row)}

    def add(row, fields):
        condition, cause, attribute, score, label = fields
        if attribute not in ATTRIBUTE_NAMES:
            raise ValueError(f"unknown attribute {attribute!r}")
        values = groups.setdefault((condition, cause), {})
        if attribute in values:
            raise ValueError(f"duplicate (condition, cause, attribute) {tuple(fields[:3])}"
                             f" (first at row {values[attribute][2]})")
        values[attribute] = (float(score), int(label), row)

    read_rows(path, GROUND_TRUTH_CSV_HEADER, add)
    records = []
    for key, values in groups.items():
        if set(values) != set(ATTRIBUTE_NAMES):
            raise ValueError(f"{path}: group {key} is missing attributes")
        scores, labels, _ = zip(*(values[name] for name in ATTRIBUTE_NAMES))
        try:
            records.append(GroundTruthRecord(*key, scores, labels))
        except ValueError as exc:
            raise ValueError(f"{path}: group {key}: {exc}") from None
    return records
