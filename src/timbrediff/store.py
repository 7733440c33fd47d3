"""Model directory persistence for the detector's reference set.

A model directory holds config.json, embeddings.tdce (+ id sidecar),
timbre.csv and normalization.json.  Loading rebuilds the exact reference
set the scorer should query; all writes go through temp-then-rename.
"""

import json
import os
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
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
from .timbre import read_timbre_table, write_timbre_csv

CONFIG_NAME = "config.json"
EMBEDDINGS_NAME = "embeddings.tdce"
TIMBRE_NAME = "timbre.csv"
NORMALIZATION_NAME = "normalization.json"

MODEL_FORMAT = "timbrediff-model"
MODEL_FORMAT_VERSION = 1


class ModelDirectoryError(ValueError):
    """Model directory is missing files or internally inconsistent."""


def atomic_write(path, write_fn) -> None:
    """Run write_fn against a temp path, then rename over the target."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    write_fn(tmp)
    os.replace(tmp, path)
    sidecar = tmp.with_name(tmp.name + ".ids.csv")
    if sidecar.exists():                 # TDCE writer emits a sidecar
        os.replace(sidecar, str(path) + ".ids.csv")


def save_model(model_dir, embeddings, timbre_rows, normalization, distance_kind,
               k: int, t: float) -> None:
    """Persist a fitted model; timbre_rows is an ordered (clip_id, vector) list."""
    model_dir = Path(model_dir)
    model_dir.mkdir(parents=True, exist_ok=True)
    embeddings = list(embeddings)
    timbre_rows = list(timbre_rows)
    if [e.clip_id for e in embeddings] != [cid for cid, _ in timbre_rows]:
        raise ModelDirectoryError("embedding and timbre clip ids must align")

    atomic_write(model_dir / EMBEDDINGS_NAME,
                 lambda p: write_embeddings(p, embeddings))
    atomic_write(model_dir / TIMBRE_NAME,
                 lambda p: write_timbre_csv(p, timbre_rows))

    def write_norm(p):
        with open(p, "w") as fh:
            json.dump({"mean": normalization.mean.tolist(),
                       "std": normalization.std.tolist()}, fh, indent=2)
            fh.write("\n")

    atomic_write(model_dir / NORMALIZATION_NAME, write_norm)

    config = {
        "format": MODEL_FORMAT,
        "format_version": MODEL_FORMAT_VERSION,
        "provider": embeddings[0].provider_id if embeddings else "",
        "distance": distance_kind.value,
        "k": int(k),
        "t": float(t),
        "count": len(embeddings),
        "dim": embeddings[0].vector.size if embeddings else 0,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "tool_version": __version__,
    }

    def write_config(p):
        with open(p, "w") as fh:
            json.dump(config, fh, indent=2, sort_keys=True)
            fh.write("\n")

    atomic_write(model_dir / CONFIG_NAME, write_config)


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
    timbre_row = {clip_id: i for i, clip_id in enumerate(timbre_ids)}
    missing = [clip_id for clip_id in ids if clip_id not in timbre_row]
    if missing:
        raise ModelDirectoryError(
            f"{model_dir}: clip {missing[0]!r} has embeddings but no timbre row")
    if len(timbre_ids) != count:
        raise ModelDirectoryError(f"{model_dir}: timbre rows ({len(timbre_ids)}) do not "
                                  f"match embeddings ({count})")

    timbre = timbre_values[[timbre_row[clip_id] for clip_id in ids]]
    return ReferenceSet(vectors, timbre, tuple(ids), config["provider"],
                        distance, normalization), config
