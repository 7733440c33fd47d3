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
            raise ValueError(f"split must be one of {SPLITS}, got {self.split!r}")
        if self.state not in STATES:
            raise ValueError(f"state must be one of {STATES}, got {self.state!r}")
        if self.domain not in DOMAINS:
            raise ValueError(f"domain must be one of {DOMAINS}, got {self.domain!r}")
        if not self.clip_id or not self.condition_id:
            raise ValueError("clip_id and condition must be non-empty")
        if self.split == "train" and self.state == "anomalous":
            raise ValueError("training data must be normal only")
        if self.state == "anomalous" and not self.cause_id:
            raise ValueError("anomalous entries must carry a cause")


# ---------------------------------------------------------------------------
# Manifest CSV
# ---------------------------------------------------------------------------

def load_manifest(path) -> list:
    """Read and validate a manifest CSV; errors name the file and row."""
    return read_rows(path, MANIFEST_CSV_HEADER, lambda _, row: ManifestEntry(*row),
                     unique="clip_id")


def write_manifest_csv(path, entries) -> None:
    write_rows(path, MANIFEST_CSV_HEADER, ([e.clip_id, e.path, e.split, e.state,
                                           e.condition_id, e.cause_id, e.domain]
                                          for e in entries))


# ---------------------------------------------------------------------------
# Ground truth generation
# ---------------------------------------------------------------------------

def check_conditions_trained(entries) -> None:
    """Raise ValueError naming the first condition, in sorted order, that has
    anomalous entries but no training entries: ground truth needs both."""
    trained = {e.condition_id for e in entries if e.split == "train"}
    untrained = sorted({e.condition_id for e in entries if e.state == "anomalous"} - trained)
    if untrained:
        raise ValueError(f"condition {untrained[0]!r} has anomalous clips but no normal "
                         "training clips")


def generate_ground_truth(entries, clip_ids, timbre, t_prime: float = DEFAULT_T_PRIME):
    """The sorted (condition, cause) groups of anomalous clips, with their
    [G x 5] scores and labels.

    Row i of the [N x 5] `timbre` holds the metric values of clip_ids[i].
    Per attribute, the score is the AUC of the group's metric values
    against the same-condition normal training values; the label applies
    the t_prime threshold to that score.
    """
    timbre = np.asarray(timbre, dtype=np.float64)
    row_of = {clip_id: row for row, clip_id in enumerate(clip_ids)}

    check_conditions_trained(entries)
    train_by_condition, groups = {}, {}
    for entry in entries:
        if entry.split == "train":
            train_by_condition.setdefault(entry.condition_id, []).append(entry)
        if entry.state == "anomalous":
            groups.setdefault((entry.condition_id, entry.cause_id), []).append(entry)

    keys, scores = sorted(groups), []
    for (condition_id, cause_id) in keys:
        normal = train_by_condition[condition_id]
        members = normal + groups[(condition_id, cause_id)]
        missing = [e.clip_id for e in members if e.clip_id not in row_of]
        if missing:
            raise ValueError(f"missing timbre vector for clip {missing[0]!r}")
        values = timbre[[row_of[e.clip_id] for e in members]]
        scores.append([auc(values[:len(normal), col], values[len(normal):, col])
                       for col in range(N_ATTRIBUTES)])
    scores = np.array(scores, dtype=np.float64).reshape(-1, N_ATTRIBUTES)
    return keys, scores, threshold_label(scores, t_prime)


def ground_truth_statistics(labels) -> dict:
    """Group count, unique label-vector count and label value tallies of
    [G x 5] labels."""
    labels = np.asarray(labels, dtype=int)
    if not len(labels):
        raise ValueError("statistics need at least one group")
    return {
        "groups": len(labels),
        "unique_vectors": len({tuple(row) for row in labels.tolist()}),
        "counts": {name: int((labels == value).sum())
                   for name, value in (("minus", -1), ("zero", 0), ("plus", 1))},
    }


# ---------------------------------------------------------------------------
# Ground truth CSV
# ---------------------------------------------------------------------------

def write_ground_truth_csv(path, groups, scores, labels) -> None:
    write_rows(path, GROUND_TRUTH_CSV_HEADER, (
        [condition, cause, name, f"{row[col]:.9g}", str(int(marks[col]))]
        for (condition, cause), row, marks in zip(groups, scores, labels)
        for col, name in enumerate(ATTRIBUTE_NAMES)))


def read_ground_truth_csv(path):
    """(groups in file order, [G x 5] scores, [G x 5] labels), each group
    checked; errors name the file and the row or group."""
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
    scores, labels = [], []
    for key, values in groups.items():
        if set(values) != set(ATTRIBUTE_NAMES):
            raise ValueError(f"{path}: group {key} is missing attributes")
        group_scores, group_labels, _ = zip(*(values[name] for name in ATTRIBUTE_NAMES))
        try:
            group_scores, group_labels = check_scores_and_labels(group_scores, group_labels,
                                                                 "ground truth")
        except ValueError as exc:
            raise ValueError(f"{path}: group {key}: {exc}") from None
        scores.append(group_scores)
        labels.append(group_labels)
    return (list(groups), np.array(scores).reshape(-1, N_ATTRIBUTES),
            np.array(labels, dtype=int).reshape(-1, N_ATTRIBUTES))
