"""Neighbor-based anomaly scoring and timbre difference labeling.

A reference set holds the embedded normal training clips together with
their raw timbre metric values.  Scoring a test clip finds its k nearest
training embeddings, averages the distances into an anomaly score, and
ranks each timbre metric against the neighbors' values to decide whether
the attribute increased (+1), decreased (-1) or stayed unchanged (0).
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .embeddings import DistanceKind, Embedding, NormalizationStats, distances_to
from .timbre import ATTRIBUTE_NAMES, N_ATTRIBUTES

DEFAULT_K = 30
DEFAULT_T = 0.1

RESULTS_CSV_HEADER = (
    ["clip_id", "anomaly_score"]
    + [f"{name}_score" for name in ATTRIBUTE_NAMES]
    + [f"{name}_label" for name in ATTRIBUTE_NAMES]
)


@dataclass(frozen=True)
class NeighborHit:
    train_index: int
    distance: float

    def __post_init__(self):
        if not np.isfinite(self.distance):
            raise ValueError("neighbor distance must be finite")


@dataclass(frozen=True)
class ReferenceSet:
    """Embedded normal training clips plus their raw timbre values.

    Immutable after construction; safe to query concurrently.
    """

    embeddings: np.ndarray          # [N x D]
    timbre_values: np.ndarray       # [N x 5], raw (un-normalized) metrics
    clip_ids: tuple
    provider_id: str
    distance_kind: DistanceKind
    normalization: NormalizationStats

    def __post_init__(self):
        emb = np.asarray(self.embeddings, dtype=np.float64)
        tim = np.asarray(self.timbre_values, dtype=np.float64)
        ids = tuple(self.clip_ids)
        if emb.ndim != 2 or emb.shape[0] < 1:
            raise ValueError("embeddings must be a non-empty [N x D] matrix")
        if tim.shape != (emb.shape[0], N_ATTRIBUTES):
            raise ValueError("timbre_values must be [N x 5], aligned with embeddings")
        if len(ids) != emb.shape[0]:
            raise ValueError("clip_ids must align with embeddings")
        if not (np.all(np.isfinite(emb)) and np.all(np.isfinite(tim))):
            raise ValueError("reference data must be finite")
        object.__setattr__(self, "embeddings", emb)
        object.__setattr__(self, "timbre_values", tim)
        object.__setattr__(self, "clip_ids", ids)

    @property
    def size(self) -> int:
        return self.embeddings.shape[0]

    @classmethod
    def from_embeddings(cls, embeddings, timbre_vectors, distance_kind,
                        normalization) -> "ReferenceSet":
        """Build from parallel lists of Embedding and TimbreVector."""
        embeddings = list(embeddings)
        timbre_vectors = list(timbre_vectors)
        if not embeddings or len(embeddings) != len(timbre_vectors):
            raise ValueError("need equal, nonzero counts of embeddings and timbre vectors")
        providers = {e.provider_id for e in embeddings}
        if len(providers) != 1:
            raise ValueError(f"embeddings span multiple providers: {sorted(providers)}")
        return cls(
            embeddings=np.vstack([e.vector for e in embeddings]),
            timbre_values=np.vstack([t.as_array() for t in timbre_vectors]),
            clip_ids=tuple(e.clip_id for e in embeddings),
            provider_id=providers.pop(),
            distance_kind=distance_kind,
            normalization=normalization,
        )


@dataclass(frozen=True)
class TimbreDiffResult:
    clip_id: str
    anomaly_score: float
    attribute_scores: np.ndarray       # 5 values in [0, 1]
    attribute_labels: np.ndarray       # 5 values in {-1, 0, 1}
    neighbor_indices: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))

    def __post_init__(self):
        scores = np.asarray(self.attribute_scores, dtype=np.float64)
        labels = np.asarray(self.attribute_labels, dtype=int)
        if scores.shape != (N_ATTRIBUTES,) or labels.shape != (N_ATTRIBUTES,):
            raise ValueError("scores and labels must each have 5 entries")
        if np.any(scores < 0.0) or np.any(scores > 1.0):
            raise ValueError("attribute scores must lie in [0, 1]")
        if not np.isin(labels, (-1, 0, 1)).all():
            raise ValueError("labels must be -1, 0 or 1")
        if self.anomaly_score < 0.0 or not np.isfinite(self.anomaly_score):
            raise ValueError("anomaly score must be finite and nonnegative")
        object.__setattr__(self, "attribute_scores", scores)
        object.__setattr__(self, "attribute_labels", labels)
        object.__setattr__(self, "neighbor_indices",
                           np.asarray(self.neighbor_indices, dtype=int))


def knn(ref: ReferenceSet, query: Embedding, k: int) -> list:
    """The k nearest training samples, ascending distance, exact brute force.

    Ties are broken toward the lower training index.
    """
    if query.provider_id != ref.provider_id:
        raise ValueError(
            f"provider mismatch: query {query.provider_id!r} vs reference {ref.provider_id!r}"
        )
    if not 1 <= k <= ref.size:
        raise ValueError(f"k must satisfy 1 <= k <= {ref.size}, got {k}")
    dists = distances_to(ref.embeddings, query.vector, ref.distance_kind)
    order = np.argsort(dists, kind="stable")[:k]
    return [NeighborHit(int(i), float(dists[i])) for i in order]


def anomaly_score(hits) -> float:
    """Mean distance over the neighbor hits."""
    hits = list(hits)
    if not hits:
        raise ValueError("anomaly score needs at least one neighbor")
    return float(np.mean([h.distance for h in hits]))


def timbre_rank_score(test_value: float, neighbor_values) -> float:
    """Normalized rank of the test value among the neighbors' values.

    Counts one per neighbor strictly below the test value and one half per
    exact tie, divided by the neighbor count: the normalized Mann-Whitney
    U statistic.  0 means below all neighbors, 1 means above all.
    """
    values = np.asarray(neighbor_values, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("need at least one neighbor value")
    if not (np.isfinite(test_value) and np.all(np.isfinite(values))):
        raise ValueError("rank score requires finite values")
    wins = np.count_nonzero(values < test_value)
    ties = np.count_nonzero(values == test_value)
    return float((wins + 0.5 * ties) / values.size)


def threshold_label(score: float, t: float) -> int:
    """Map a rank score to -1 (<= t), +1 (>= 1-t) or 0 (strictly between)."""
    if not 0.0 <= t < 0.5:
        raise ValueError(f"threshold t must lie in [0, 0.5), got {t}")
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"score must lie in [0, 1], got {score}")
    if score <= t:
        return -1
    if score >= 1.0 - t:
        return 1
    return 0


def score_clip(ref: ReferenceSet, query_embedding: Embedding, query_timbre,
               k: int = DEFAULT_K, t: float = DEFAULT_T) -> TimbreDiffResult:
    """Joint anomaly score and per-attribute difference labels for one clip."""
    hits = knn(ref, query_embedding, k)
    indices = np.array([h.train_index for h in hits], dtype=int)
    neighbor_timbre = ref.timbre_values[indices]
    query_values = query_timbre.as_array()
    scores = np.array([
        timbre_rank_score(query_values[col], neighbor_timbre[:, col])
        for col in range(N_ATTRIBUTES)
    ])
    labels = np.array([threshold_label(s, t) for s in scores], dtype=int)
    return TimbreDiffResult(
        clip_id=query_embedding.clip_id,
        anomaly_score=anomaly_score(hits),
        attribute_scores=scores,
        attribute_labels=labels,
        neighbor_indices=indices,
    )


def global_baseline_score(ref: ReferenceSet, query_timbre, t: float = DEFAULT_T):
    """Rank scores and labels against all training clips instead of neighbors."""
    query_values = query_timbre.as_array()
    scores = np.array([
        timbre_rank_score(query_values[col], ref.timbre_values[:, col])
        for col in range(N_ATTRIBUTES)
    ])
    labels = np.array([threshold_label(s, t) for s in scores], dtype=int)
    return scores, labels


# ---------------------------------------------------------------------------
# Results CSV
# ---------------------------------------------------------------------------

def write_results_csv(path, results) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_CSV_HEADER)
        for res in results:
            writer.writerow(
                [res.clip_id, f"{res.anomaly_score:.9g}"]
                + [f"{s:.9g}" for s in res.attribute_scores]
                + [str(int(l)) for l in res.attribute_labels]
            )


def read_results_csv(path) -> list:
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != RESULTS_CSV_HEADER:
            raise ValueError(f"{path}: unexpected results CSV header {header}")
        first_row = {}
        for row in reader:
            if len(row) != len(RESULTS_CSV_HEADER):
                raise ValueError(f"{path}: malformed row {row}")
            if row[0] in first_row:
                raise ValueError(
                    f"{path}: row {reader.line_num}: duplicate clip_id "
                    f"{row[0]!r} (first at row {first_row[row[0]]})"
                )
            first_row[row[0]] = reader.line_num
            out.append(TimbreDiffResult(
                clip_id=row[0],
                anomaly_score=float(row[1]),
                attribute_scores=np.array([float(v) for v in row[2:7]]),
                attribute_labels=np.array([int(v) for v in row[7:12]]),
            ))
    return out
