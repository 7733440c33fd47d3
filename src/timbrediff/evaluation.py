"""Detection AUC and class-balanced label error reporting.

The label error is a mean absolute error over anomalous clips where each
clip's contribution is divided by the number of truth clips sharing its
label, then averaged over the label values actually present.  This keeps
rare label values from being drowned out by frequent ones.
"""

import numpy as np

from .dataset import auc
from .timbre import ATTRIBUTE_NAMES, N_ATTRIBUTES

LABEL_VALUES = (-1, 0, 1)


def truth_label_counts(labels) -> np.ndarray:
    """counts[attribute, value_index] over [C x 5] truth labels."""
    return (np.asarray(labels, dtype=int)[:, :, None] == LABEL_VALUES).sum(axis=0)


def normalized_mae(predictions, truths) -> np.ndarray:
    """Per-attribute class-balanced MAE between [C x 5] label arrays, row i
    of each for clip i.

    Each clip's |prediction - truth| is divided by the number of truth
    clips with that truth label; the sum is divided by the number of label
    values present in the truths (3 when all of -1/0/1 occur).
    """
    truth = np.asarray(truths, dtype=int)
    pred = np.asarray(predictions, dtype=int)
    if not len(truth) or truth.shape[1:] != (N_ATTRIBUTES,) or pred.shape != truth.shape:
        raise ValueError(f"predictions {pred.shape} and truths {truth.shape} "
                         f"must both be [C x {N_ATTRIBUTES}], C >= 1")
    both = np.hstack([truth, pred])
    bad = np.argwhere(~np.isin(both, LABEL_VALUES))
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"row {row}: label {both[row, col]} out of range")

    counts = truth_label_counts(truth)
    class_size = counts[np.arange(N_ATTRIBUTES), truth - LABEL_VALUES[0]]
    # Summed over axis 0, a row at a time: in clip order, as a loop would.
    totals = (np.abs(pred - truth) / class_size).sum(axis=0)
    classes_present = (counts > 0).sum(axis=1)
    return totals / classes_present


def build_report(clip_ids, anomaly, labels, entries, groups, truth) -> dict:
    """report.json's values: results (clip ids with their [C] anomaly scores
    and [C x 5] labels) against a manifest and its ground truth ((condition,
    cause) groups with their [G x 5] labels)."""
    row_of = {clip_id: row for row, clip_id in enumerate(clip_ids)}
    test_entries = [e for e in entries if e.split == "test"]
    missing = [e.clip_id for e in test_entries if e.clip_id not in row_of]
    if missing:
        raise ValueError(f"missing result for clip {missing[0]!r} "
                         f"({len(missing)} test clips uncovered)")
    anomaly = np.asarray(anomaly, dtype=np.float64)
    normal_scores, anomalous_scores = (
        anomaly[[row_of[e.clip_id] for e in test_entries if e.state == state]]
        for state in ("normal", "anomalous"))
    if not normal_scores.size or not anomalous_scores.size:
        raise ValueError("evaluation needs both normal and anomalous test clips")

    # Each anomalous clip, all of them test clips, takes its group's truth labels.
    group_of = {group: row for row, group in enumerate(groups)}
    anomalous = [e for e in entries if e.state == "anomalous"]
    for e in anomalous:
        if (e.condition_id, e.cause_id) not in group_of:
            raise ValueError(f"clip {e.clip_id!r}: no ground truth record for condition "
                             f"{e.condition_id!r}, cause {e.cause_id!r}")
    truths = np.asarray(truth, dtype=int)[
        [group_of[(e.condition_id, e.cause_id)] for e in anomalous]]
    mae_values = normalized_mae(
        np.asarray(labels, dtype=int)[[row_of[e.clip_id] for e in anomalous]], truths)

    counts = truth_label_counts(truths)
    return {
        "detection_auc": auc(normal_scores, anomalous_scores),
        "mae": {name: float(mae_values[col]) for col, name in enumerate(ATTRIBUTE_NAMES)},
        "mean_mae": float(mae_values.mean()),
        "counts": {name: {str(value): int(counts[col, idx])
                          for idx, value in enumerate(LABEL_VALUES)}
                   for col, name in enumerate(ATTRIBUTE_NAMES)},
        "n_clips": len(anomalous),
    }
