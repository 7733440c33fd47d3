"""Model directory persistence for the detector's reference set.

A model directory holds config.json, embeddings.tdce (+ id sidecar),
timbre.csv and normalization.json.  Loading rebuilds the exact reference
set the scorer should query; every write goes through csvrows.replacing.
"""

import json
from datetime import datetime, timezone
from itertools import chain, zip_longest
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import __version__
from .csvrows import replacing, write_json
from .detector import ReferenceSet, check_t
from .embeddings import (
    EXTERNAL_PROVIDER,
    SPECTRAL_PROVIDER,
    TIMBRE_PROVIDER,
    DistanceKind,
    NormalizationStats,
    read_tdce,
    write_embeddings,
)
from .timbre import (
    ATTRIBUTE_NAMES,
    N_ATTRIBUTES,
    check_timbre_table,
    read_timbre_table,
    write_timbre_csv,
)

CONFIG_NAME = "config.json"
EMBEDDINGS_NAME = "embeddings.tdce"
TIMBRE_NAME = "timbre.csv"
NORMALIZATION_NAME = "normalization.json"

MODEL_FORMAT = "timbrediff-model"
MODEL_FORMAT_VERSION = 1


class ModelDirectoryError(ValueError):
    """Model directory is missing files or internally inconsistent."""


def save_model(model_dir, embeddings, timbre_rows, normalization, distance_kind,
               k: int, t: float) -> None:
    """Persist a fitted model; timbre_rows is an ordered (clip_id, vector) list.

    Every check runs before the first file is replaced: the ids, the
    dimension and the timbre rows here, and each block of float32 rows as
    write_embeddings streams it.  A failed save leaves the old model whole.
    """
    model_dir = Path(model_dir)
    model_dir.mkdir(parents=True, exist_ok=True)
    embeddings = list(embeddings)
    timbre_rows = list(timbre_rows)
    clip_ids = [e.clip_id for e in embeddings]
    if clip_ids != [cid for cid, _ in timbre_rows]:
        raise ModelDirectoryError("embedding and timbre clip ids must align")
    dims = {e.vector.size for e in embeddings}
    if len(dims) > 1:
        raise ValueError("embeddings must all share one dimension")
    fields = attrgetter(*ATTRIBUTE_NAMES)   # a TimbreVector's values, as_array's order
    timbre = np.fromiter(chain.from_iterable(fields(vec) for _, vec in timbre_rows), np.float64,
                         N_ATTRIBUTES * len(timbre_rows)).reshape(-1, N_ATTRIBUTES)
    check_timbre_table(model_dir / TIMBRE_NAME, clip_ids, timbre)
    vectors = [e.vector for e in embeddings]
    config = {
        "format": MODEL_FORMAT,
        "format_version": MODEL_FORMAT_VERSION,
        "provider": embeddings[0].provider_id if embeddings else "",
        "distance": distance_kind.value,
        "k": int(k),
        "t": float(t),
        "count": len(clip_ids),
        "dim": dims.pop() if dims else 0,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "tool_version": __version__,
    }
    del embeddings, timbre_rows     # our copies: only ids, vectors and blocks stay

    # timbre.csv goes first, into the `.tmp` that replacing renames over it
    # only once the embeddings are in: a bad block leaves the old model
    # whole, and the timbre array is freed before the blocks are cast.
    with replacing(model_dir / TIMBRE_NAME) as staged:
        staged.close()
        write_timbre_csv(staged.name, clip_ids, timbre)
        del timbre
        write_embeddings(model_dir / EMBEDDINGS_NAME, clip_ids, vectors)
    write_json(model_dir / NORMALIZATION_NAME, {"mean": normalization.mean.tolist(),
                                                "std": normalization.std.tolist()})
    write_json(model_dir / CONFIG_NAME, config)


def load_model(model_dir):
    """Read a model directory back into (ReferenceSet, config dict)."""
    model_dir = Path(model_dir)
    config_path = model_dir / CONFIG_NAME
    if not config_path.exists():
        raise ModelDirectoryError(f"{model_dir}: missing {CONFIG_NAME}")
    try:                        # any fault in the file's values names the file
        with open(config_path) as fh:
            config = json.load(fh)
        if not isinstance(config, dict) or config.get("format") != MODEL_FORMAT:
            raise ValueError("not a model directory")
        missing = [key for key in ("provider", "distance", "k", "t", "count", "dim")
                   if key not in config]
        if missing:
            raise ValueError(f"missing key {missing[0]!r}")
        if config["provider"] not in (TIMBRE_PROVIDER, SPECTRAL_PROVIDER, EXTERNAL_PROVIDER):
            raise ValueError(f"unknown provider {config['provider']!r}")
        config.update(k=int(config["k"]), t=float(config["t"]))
        if config["k"] < 1:     # k <= count is checked where k is used
            raise ValueError(f"k must be at least 1, got {config['k']}")
        check_t(config["t"])
        distance = DistanceKind.parse(config["distance"])
    except (TypeError, ValueError) as exc:
        raise ModelDirectoryError(f"{config_path}: {exc}") from None

    ids, vectors = read_tdce(model_dir / EMBEDDINGS_NAME)
    timbre_ids, timbre_values = read_timbre_table(model_dir / TIMBRE_NAME)
    norm_path = model_dir / NORMALIZATION_NAME
    try:
        with open(norm_path) as fh:
            norm_data = json.load(fh)
        if not isinstance(norm_data, dict) or not {"mean", "std"} <= norm_data.keys():
            raise ValueError("needs keys 'mean' and 'std'")
        normalization = NormalizationStats(norm_data["mean"], norm_data["std"])
    except (TypeError, ValueError) as exc:
        raise ModelDirectoryError(f"{norm_path}: {exc}") from None

    count, dim = vectors.shape
    if count != config["count"]:
        raise ModelDirectoryError(f"{model_dir}: embedding count {count} does not "
                                  f"match config count {config['count']}")
    if config["dim"] != dim:
        raise ModelDirectoryError(f"{model_dir}: config dim {config['dim']} does not "
                                  f"match embedding dim {dim}")
    if normalization.dim != dim:
        raise ModelDirectoryError(f"{model_dir}: {NORMALIZATION_NAME} dim {normalization.dim}"
                                  f" does not match embedding dim {dim}")
    if timbre_ids != ids:       # save_model writes both in the sidecar's order
        row, found, want = next((i, a, b) for i, (a, b)
                                in enumerate(zip_longest(timbre_ids, ids)) if a != b)
        raise ModelDirectoryError(f"{model_dir / TIMBRE_NAME}: row {row + 2}: clip {found!r} "
                                  f"where {EMBEDDINGS_NAME} has {want!r}")
    return ReferenceSet(vectors, timbre_values, tuple(ids), config["provider"],
                        distance, normalization, embeddings_checked=True), config
