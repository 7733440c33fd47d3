"""timbrediff: anomalous machine-sound detection with timbre difference labels.

Given only normal training audio, the toolkit scores how anomalous a test
clip is (mean distance to its nearest normal neighbors in an embedding
space) and reports, per timbre attribute, whether the attribute increased,
decreased or stayed unchanged relative to those neighbors.
"""

__version__ = "0.1.0"

from .frontend import AudioClip, Spectrogram, load_wav, resample, save_wav
from .timbre import TimbreVector, compute_timbre_vector
from .embeddings import DistanceKind, Embedding, NormalizationStats
from .detector import (
    ReferenceSet,
    TimbreDiffResult,
    global_baseline_score,
    knn,
    score_clip,
)
from .dataset import ManifestEntry, auc, generate_ground_truth, load_manifest
from .evaluation import EvalReport, build_report, normalized_mae
from .synth import default_benchmark_specs, generate_clip, generate_dataset

__all__ = [
    "AudioClip", "Spectrogram", "load_wav", "resample", "save_wav",
    "TimbreVector", "compute_timbre_vector",
    "DistanceKind", "Embedding", "NormalizationStats",
    "ReferenceSet", "TimbreDiffResult", "global_baseline_score", "knn",
    "score_clip",
    "ManifestEntry", "auc", "generate_ground_truth", "load_manifest",
    "EvalReport", "build_report", "normalized_mae",
    "default_benchmark_specs", "generate_clip", "generate_dataset",
    "__version__",
]
