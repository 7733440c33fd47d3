"""Detection AUC and class-balanced label error reporting.

The label error is a mean absolute error over anomalous clips where each
clip's contribution is divided by the number of truth clips sharing its
label, then averaged over the label values actually present.  This keeps
rare label values from being drowned out by frequent ones.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .csvrows import write_json
from .dataset import assign_labels, auc
from .timbre import ATTRIBUTE_NAMES, N_ATTRIBUTES

LABEL_VALUES = (-1, 0, 1)


class CoverageError(ValueError):
    """Results do not cover every clip the evaluation needs."""


@dataclass(frozen=True)
class EvalReport:
    detection_auc: float
    mae: dict                 # attribute name -> normalized MAE
    mean_mae: float
    counts: dict              # attribute name -> {label value as str: count}
    n_clips: int


def truth_label_counts(labels) -> np.ndarray:
    """counts[attribute, value_index] over [C x 5] truth labels."""
    return (np.asarray(labels, dtype=int)[:, :, None] == LABEL_VALUES).sum(axis=0)


def normalized_mae(predictions, truths) -> np.ndarray:
    """Per-attribute class-balanced MAE between ordinal label maps.

    Each clip's |prediction - truth| is divided by the number of truth
    clips with that truth label; the sum is divided by the number of label
    values present in the truths (3 when all of -1/0/1 occur).
    """
    if not truths:
        raise ValueError("normalized_mae needs at least one truth clip")
    clip_ids = list(truths)
    missing = [clip_id for clip_id in clip_ids if clip_id not in predictions]
    if missing:
        raise CoverageError(f"missing prediction for clip {missing[0]!r}")
    truth = np.array([truths[c] for c in clip_ids], dtype=int)
    pred = np.array([predictions[c] for c in clip_ids], dtype=int)
    both = np.hstack([truth, pred])
    bad = np.argwhere(~np.isin(both, LABEL_VALUES))
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"clip {clip_ids[row]!r}: label {both[row, col]} out of range")

    counts = truth_label_counts(truth)
    class_size = counts[np.arange(N_ATTRIBUTES), truth - LABEL_VALUES[0]]
    # Summed over axis 0, a row at a time: in clip order, as a loop would.
    totals = (np.abs(pred - truth) / class_size).sum(axis=0)
    classes_present = (counts > 0).sum(axis=1)
    return totals / classes_present


def build_report(results, entries, records) -> EvalReport:
    """Aggregate scored results against a manifest and its ground truth."""
    by_id = {res.clip_id: res for res in results}

    test_entries = [e for e in entries if e.split == "test"]
    missing = [e.clip_id for e in test_entries if e.clip_id not in by_id]
    if missing:
        raise CoverageError(f"missing result for clip {missing[0]!r} "
                            f"({len(missing)} test clips uncovered)")

    normal_scores = [by_id[e.clip_id].anomaly_score for e in test_entries
                     if e.state == "normal"]
    anomalous_scores = [by_id[e.clip_id].anomaly_score for e in test_entries
                        if e.state == "anomalous"]
    if not normal_scores or not anomalous_scores:
        raise CoverageError("evaluation needs both normal and anomalous test clips")

    truths = assign_labels(entries, records)
    predictions = {clip_id: by_id[clip_id].attribute_labels for clip_id in truths}
    mae_values = normalized_mae(predictions, truths)

    counts = truth_label_counts(list(truths.values()))
    counts_dict = {
        name: {str(value): int(counts[col, idx])
               for idx, value in enumerate(LABEL_VALUES)}
        for col, name in enumerate(ATTRIBUTE_NAMES)
    }
    return EvalReport(
        detection_auc=auc(normal_scores, anomalous_scores),
        mae={name: float(mae_values[col]) for col, name in enumerate(ATTRIBUTE_NAMES)},
        mean_mae=float(mae_values.mean()),
        counts=counts_dict,
        n_clips=len(truths),
    )


def write_report_json(path, report: EvalReport) -> None:
    write_json(path, asdict(report))
