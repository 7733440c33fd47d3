"""Neighbor-based anomaly scoring and timbre difference labeling.

A reference set holds the embedded normal training clips together with
their raw timbre metric values.  Scoring a test clip finds its k nearest
training embeddings, averages the distances into an anomaly score, and
ranks each timbre metric against the neighbors' values to decide whether
the attribute increased (+1), decreased (-1) or stayed unchanged (0).
"""

from dataclasses import InitVar, dataclass, field

import numpy as np

from .csvrows import read_rows, write_rows
from .embeddings import DistanceKind, Embedding, NormalizationStats, distances_to
from .timbre import ATTRIBUTE_NAMES, N_ATTRIBUTES

DEFAULT_K = 30
DEFAULT_T = 0.1

# kNN filter: unit roundoff (2**-52, twice float64's), bytes per [query
# block x N] array, and the squared norm (2**54 x smallest normal float64)
# below which underflow voids the bound.
_U = float(np.finfo(np.float64).eps)
_GRAM_BLOCK_BYTES = 25_000_000
_NORM_SQ_FLOOR = 2.0 ** -968

RESULTS_CSV_HEADER = (
    ["clip_id", "anomaly_score"]
    + [f"{name}_score" for name in ATTRIBUTE_NAMES]
    + [f"{name}_label" for name in ATTRIBUTE_NAMES]
)


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
    # True when the caller has already found every embedding finite, as
    # read_tdce does, so that a loaded model is scanned once.
    embeddings_checked: InitVar[bool] = False

    def __post_init__(self, embeddings_checked):
        emb = np.asarray(self.embeddings, dtype=np.float64)
        tim = np.asarray(self.timbre_values, dtype=np.float64)
        ids = tuple(self.clip_ids)
        if emb.ndim != 2 or emb.size == 0:
            raise ValueError("embeddings must be a non-empty [N x D] matrix")
        if tim.shape != (emb.shape[0], N_ATTRIBUTES):
            raise ValueError("timbre_values must be [N x 5], aligned with embeddings")
        if len(ids) != emb.shape[0]:
            raise ValueError("clip_ids must align with embeddings")
        if not ((embeddings_checked or np.isfinite(emb).all()) and np.isfinite(tim).all()):
            raise ValueError("reference data must be finite")
        object.__setattr__(self, "embeddings", emb)
        object.__setattr__(self, "timbre_values", tim)
        object.__setattr__(self, "clip_ids", ids)

    @property
    def size(self) -> int:
        return self.embeddings.shape[0]


def check_scores_and_labels(scores, labels, kind: str):
    """5 scores in [0, 1] and 5 labels in {-1, 0, 1} as arrays; errors name the `kind`."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=int)
    if scores.shape != (N_ATTRIBUTES,) or labels.shape != (N_ATTRIBUTES,):
        raise ValueError("scores and labels must each have 5 entries")
    if not np.all((scores >= 0.0) & (scores <= 1.0)):
        raise ValueError(f"{kind} scores must lie in [0, 1]")
    if not np.isin(labels, (-1, 0, 1)).all():
        raise ValueError("labels must be -1, 0 or 1")
    return scores, labels


@dataclass(frozen=True)
class TimbreDiffResult:
    clip_id: str
    anomaly_score: float
    attribute_scores: np.ndarray       # 5 values in [0, 1]
    attribute_labels: np.ndarray       # 5 values in {-1, 0, 1}
    neighbor_indices: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))

    def __post_init__(self):
        scores, labels = check_scores_and_labels(self.attribute_scores,
                                                 self.attribute_labels, "attribute")
        if self.anomaly_score < 0.0 or not np.isfinite(self.anomaly_score):
            raise ValueError("anomaly score must be finite and nonnegative")
        object.__setattr__(self, "attribute_scores", scores)
        object.__setattr__(self, "attribute_labels", labels)
        object.__setattr__(self, "neighbor_indices",
                           np.asarray(self.neighbor_indices, dtype=int))


def _gram_candidates(matrix, queries, kind, k: int) -> list:
    """Per query, the rows that may be among its k nearest, ascending.

    Kept: rows whose lower bound on distances_to's value is at most the
    k-th smallest upper bound.  Bounds are the Gram form |x|^2 + |q|^2 -
    2 x.q (Euclidean, squared) or 1 - x.q / (|x| |q|) (cosine), plus or
    minus one spread per query, 2 (gamma_{D+2} + u) (max |x| + |q|)^2 or
    4 (gamma_{D+2} + u), with u = 2**-52, gamma_n = n u / (1 - n u);
    README.md derives them.  The 4u margins make a dropped row strictly
    farther than k kept rows.  Squared norms under _NORM_SQ_FLOOR (zero
    vectors too) and NaN centres get (0, inf).
    """
    n = matrix.shape[1] + 2
    radius = 2.0 * (n * _U / (1.0 - n * _U) + _U)
    with np.errstate(all="ignore"):
        x_sq = np.einsum("ij,ij->i", matrix, matrix)
        q_sq = np.einsum("ij,ij->i", queries, queries)[:, None]
        # The one [Q x N] array, worked in place.
        centre = queries @ matrix.T
        if kind is DistanceKind.EUCLIDEAN:
            centre *= -2.0
            centre += x_sq + q_sq
            spread = radius * (np.sqrt(x_sq.max()) + np.sqrt(q_sq)) ** 2
        else:
            centre /= np.sqrt(x_sq) * np.sqrt(q_sq)
            np.subtract(1.0, centre, out=centre)
            spread = np.full(q_sq.shape, 2.0 * radius)
        centre[:, x_sq < _NORM_SQ_FLOOR] = np.nan
        # centre + spread rises with the centre, so the k-th smallest upper
        # bound is that of the k-th smallest centre; NaNs sort last.
        kth = np.array([np.partition(row, k - 1)[k - 1] for row in centre])[:, None]
        upper = np.fmin(kth + spread, np.inf) * (1 + 4 * _U)
        upper[q_sq < _NORM_SQ_FLOOR] = np.inf
        centre -= spread
        lower = np.fmax(centre, 0.0, out=centre)
        lower *= 1 - 4 * _U
    return [np.flatnonzero(keep) for keep in lower <= upper]


def check_k(k: int, size: int) -> None:
    """Raise ValueError unless 1 <= k <= size (the reference rows)."""
    if not 1 <= k <= size:
        raise ValueError(f"k must satisfy 1 <= k <= {size}, got {k}")


def check_t(t: float) -> None:
    """Raise ValueError unless the label threshold t lies in [0, 0.5)."""
    if not 0.0 <= t < 0.5:
        raise ValueError(f"threshold t must lie in [0, 0.5), got {t}")


def knn(ref: ReferenceSet, queries, k: int):
    """The k nearest training rows of each row of the [Q x D] queries, exact.

    Returns [Q x k] (indices, distances): per query, bit for bit, the head
    of a stable argsort of distances_to over all rows, so ties go to the
    lower index.  A Gram pass over blocks of queries keeps candidate rows,
    which are rescored with distances_to and stable-sorted in index order.
    """
    queries = np.asarray(queries, dtype=np.float64)
    dim = ref.embeddings.shape[1]
    if queries.ndim != 2 or queries.shape[1] != dim:
        raise ValueError(f"queries must be [Q x {dim}], got shape {queries.shape}")
    if not np.all(np.isfinite(queries)):
        raise ValueError("query embeddings must be finite")
    check_k(k, ref.size)
    indices = np.empty((len(queries), k), dtype=int)
    distances = np.empty((len(queries), k))
    block = max(1, _GRAM_BLOCK_BYTES // (8 * ref.size))
    for start in range(0, len(queries), block):
        vectors = queries[start:start + block]
        candidates = _gram_candidates(ref.embeddings, vectors, ref.distance_kind, k)
        for i, rows in enumerate(candidates, start):
            dists = distances_to(ref.embeddings[rows], queries[i], ref.distance_kind)
            order = np.argsort(dists, kind="stable")[:k]
            indices[i], distances[i] = rows[order], dists[order]
    return indices, distances


def anomaly_score(distances) -> float:
    """Mean distance over the neighbors."""
    if np.size(distances) == 0:
        raise ValueError("anomaly score needs at least one neighbor")
    return float(np.mean(distances))


def _u_counts(values, reference) -> np.ndarray:
    """Per value, the reference values below it plus half those equal to it.

    The Mann-Whitney count behind every rank score and AUC: one sort of
    the reference, then two binary searches per value.  Each count is a
    half-integer, which float64 holds exactly.
    """
    values = np.asarray(values, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if reference.ndim != 1 or reference.size == 0:
        raise ValueError("need a non-empty 1-D reference")
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(reference))):
        raise ValueError("rank counts require finite values")
    reference = np.sort(reference)
    below = np.searchsorted(reference, values, side="left")
    return below + 0.5 * (np.searchsorted(reference, values, side="right") - below)


def auc(negative_scores, positive_scores) -> float:
    """Area under the ROC curve, ties counted one half: the normalized U,
    (wins + 0.5 * ties) / (n_neg * n_pos) over all pairs."""
    neg, pos = np.asarray(negative_scores), np.asarray(positive_scores)
    if pos.ndim != 1 or pos.size == 0:
        raise ValueError("auc requires non-empty 1-D score lists")
    return float(_u_counts(pos, neg).sum() / (neg.size * pos.size))


def timbre_rank_score(test_values, neighbor_values):
    """Normalized rank of each test value among the neighbors' values.

    Counts one per neighbor strictly below the test value and one half per
    exact tie, divided by the neighbor count: the normalized Mann-Whitney
    U statistic.  0 means below all neighbors, 1 means above all.  An array
    of the test values' shape, 0-d for a scalar.
    """
    return _u_counts(test_values, neighbor_values) / np.size(neighbor_values)


def threshold_label(scores, t: float):
    """Map rank scores to -1 (<= t), +1 (>= 1-t) or 0 (strictly between):
    an int array of the scores' shape, 0-d for a scalar."""
    check_t(t)
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all((scores >= 0.0) & (scores <= 1.0)):
        raise ValueError(f"scores must lie in [0, 1], got {scores}")
    return np.where(scores <= t, -1, (scores >= 1.0 - t).astype(int))


def _rank_and_label(query_values, reference_values, t: float):
    """Rank scores and labels of [..., 5] values against [N x 5] rows."""
    scores = np.stack([
        timbre_rank_score(query_values[..., col], reference_values[:, col])
        for col in range(N_ATTRIBUTES)
    ], axis=-1)
    return scores, threshold_label(scores, t)


def score_clips(ref: ReferenceSet, clip_ids, queries, values,
                k: int = DEFAULT_K, t: float = DEFAULT_T, baseline=None) -> list:
    """One TimbreDiffResult per query: clip_ids[i], row i of the [Q x D]
    embeddings and row i of the [Q x 5] raw timbre values, all answered by
    one kNN search.  With baseline="global", attribute scores and labels
    rank each query against every training clip instead of its neighbors.
    """
    indices, distances = knn(ref, queries, k)
    values = np.asarray(values, dtype=np.float64)
    if len(clip_ids) != len(indices) or values.shape != (len(indices), N_ATTRIBUTES):
        raise ValueError(f"need a clip id and {N_ATTRIBUTES} timbre values per query")
    if baseline == "global":
        ranked = zip(*global_baseline_score(ref, values, t))
    elif baseline is None:
        ranked = (_rank_and_label(v, ref.timbre_values[rows], t)
                  for v, rows in zip(values, indices))
    else:
        raise ValueError(f"unknown baseline {baseline!r}")
    return [TimbreDiffResult(clip_id, anomaly_score(dists), scores, labels, rows)
            for clip_id, dists, (scores, labels), rows
            in zip(clip_ids, distances, ranked, indices)]


def score_clip(ref: ReferenceSet, query_embedding: Embedding, query_timbre,
               k: int = DEFAULT_K, t: float = DEFAULT_T) -> TimbreDiffResult:
    """Joint anomaly score and per-attribute difference labels for one clip:
    score_clips on one query, an Embedding of the reference set's provider."""
    if query_embedding.provider_id != ref.provider_id:
        raise ValueError(f"query is not a {ref.provider_id!r} embedding")
    return score_clips(ref, [query_embedding.clip_id], [query_embedding.vector],
                       [query_timbre.as_array()], k, t)[0]


def global_baseline_score(ref: ReferenceSet, query_values, t: float = DEFAULT_T):
    """[Q x 5] rank scores and labels of [Q x 5] timbre values against all
    training clips instead of neighbors; each column is sorted once."""
    query_values = np.asarray(query_values, dtype=np.float64)
    if query_values.ndim != 2 or query_values.shape[1] != N_ATTRIBUTES:
        raise ValueError(f"query values must be [Q x {N_ATTRIBUTES}]")
    return _rank_and_label(query_values, ref.timbre_values, t)


# ---------------------------------------------------------------------------
# Results CSV
# ---------------------------------------------------------------------------

def write_results_csv(path, results) -> None:
    write_rows(path, RESULTS_CSV_HEADER, (
        [res.clip_id, f"{res.anomaly_score:.9g}"]
        + [f"{s:.9g}" for s in res.attribute_scores]
        + [str(int(l)) for l in res.attribute_labels]
        for res in results))


def read_results_csv(path) -> list:
    return read_rows(path, RESULTS_CSV_HEADER, lambda _, row: TimbreDiffResult(
        clip_id=row[0],
        anomaly_score=float(row[1]),
        attribute_scores=np.array([float(v) for v in row[2:7]]),
        attribute_labels=np.array([int(v) for v in row[7:12]]),
    ), unique="clip_id")
