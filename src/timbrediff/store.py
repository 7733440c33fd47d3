"""Model directory persistence for the detector's reference set.

load_model reads a format-2 directory's config.json, embeddings.tdce, clip_ids.json,
timbre.npy and normalization.json, and parses no row from text.  timbre.csv and the TDCE
id sidecar are exports only; format 1 had only those.  Every write goes through replacing.
Precision: rows hold NormalizationStats.zscore's float32 z-scores and the analysed timbre values,
so a query made the same way ties with its own training row.
"""

import json
from datetime import datetime, timezone
from itertools import chain
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import __version__
from .csvrows import replacing, write_json, write_rows
from .detector import ReferenceSet, check_t
from .embeddings import (
    EXTERNAL_PROVIDER,
    SPECTRAL_PROVIDER,
    TIMBRE_PROVIDER,
    DistanceKind,
    NormalizationStats,
    check_finite_rows,
    read_tdce_rows,
    write_embeddings,
)
from .timbre import (
    ATTRIBUTE_NAMES,
    N_ATTRIBUTES,
    TIMBRE_CSV_HEADER,
    check_timbre_table,
    timbre_csv_rows,
)

CONFIG_NAME = "config.json"
EMBEDDINGS_NAME = "embeddings.tdce"
CLIP_IDS_NAME = "clip_ids.json"
TIMBRE_ARRAY_NAME = "timbre.npy"
TIMBRE_NAME = "timbre.csv"
NORMALIZATION_NAME = "normalization.json"

MODEL_FORMAT = "timbrediff-model"
MODEL_FORMAT_VERSION = 2


class ModelDirectoryError(ValueError):
    """Model directory is missing files or internally inconsistent."""


def save_model(model_dir, embeddings, timbre_rows, normalization, distance_kind,
               k: int, t: float) -> None:
    """Persist a fitted model; timbre_rows is an ordered (clip_id, vector) list.

    Every check runs before the first file is replaced: the ids and the
    dimension here, each TimbreVector as it was built, and each block of float32
    rows as write_embeddings streams it.  A failed save leaves the old model whole.
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

    # Until the embeddings are in, the other files wait in `.tmp`s: a bad block leaves
    # the old model whole.  config.json, which marks a model directory, is renamed last.
    with replacing(model_dir / CONFIG_NAME) as config_json, \
            replacing(model_dir / NORMALIZATION_NAME) as norm_json, \
            replacing(model_dir / TIMBRE_NAME) as timbre_csv, \
            replacing(model_dir / TIMBRE_ARRAY_NAME, "wb") as npy, \
            replacing(model_dir / CLIP_IDS_NAME) as ids_json:
        for text in (config_json, norm_json, timbre_csv):
            text.close()        # each written by its one writer, into its `.tmp`
        write_json(config_json.name, config)
        write_json(norm_json.name, {"mean": normalization.mean.tolist(),
                                    "std": normalization.std.tolist()})
        write_rows(timbre_csv.name, TIMBRE_CSV_HEADER, timbre_csv_rows(clip_ids, timbre))
        np.save(npy, timbre, allow_pickle=False)
        del timbre
        json.dump(clip_ids, ids_json, separators=(",", ":"))
        ids_json.flush()        # its pending text, before the blocks are cast
        write_embeddings(model_dir / EMBEDDINGS_NAME, clip_ids, vectors)


def read_config(model_dir) -> dict:
    """A model directory's checked config.json, with k an int and t a float."""
    model_dir = Path(model_dir)
    config_path = model_dir / CONFIG_NAME
    if not config_path.exists():
        raise ModelDirectoryError(f"{model_dir}: missing {CONFIG_NAME}")
    try:                        # any fault in the file's values names the file
        with open(config_path) as fh:
            config = json.load(fh)
        if not isinstance(config, dict) or config.get("format") != MODEL_FORMAT:
            raise ValueError("not a model directory")
        if (version := config.get("format_version", 1)) != MODEL_FORMAT_VERSION:
            raise ModelDirectoryError(f"{model_dir}: model format {version}; re-run fit")
        missing = [key for key in ("provider", "distance", "k", "t", "count", "dim")
                   if key not in config]
        if missing:
            raise ValueError(f"missing key {missing[0]!r}")
        if config["provider"] not in (TIMBRE_PROVIDER, SPECTRAL_PROVIDER, EXTERNAL_PROVIDER):
            raise ValueError(f"unknown provider {config['provider']!r}")
        if not all(type(config[key]) is int and config[key] >= 0 for key in ("count", "dim")):
            raise ValueError("count and dim must be whole numbers")
        if type(config["k"]) is not int:
            raise ValueError(f"k must be a whole number, got {config['k']!r}")
        if type(config["t"]) not in (int, float):
            raise ValueError(f"t must be a number, got {config['t']!r}")
        config["t"] = float(config["t"])
        if config["k"] < 1:     # k <= count is checked where k is used
            raise ValueError(f"k must be at least 1, got {config['k']}")
        check_t(config["t"])
        DistanceKind.parse(config["distance"])
    except ModelDirectoryError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelDirectoryError(f"{config_path}: {exc}") from None
    return config


def load_model(model_dir, config=None):
    """Read a model directory back into (ReferenceSet, config dict); `config`
    is read_config's, if already read.  Messages count binary rows from 0."""
    model_dir = Path(model_dir)
    config = read_config(model_dir) if config is None else config
    tdce_path, ids_path, timbre_path, norm_path = (model_dir / name for name in (
        EMBEDDINGS_NAME, CLIP_IDS_NAME, TIMBRE_ARRAY_NAME, NORMALIZATION_NAME))
    vectors = read_tdce_rows(tdce_path)
    count, dim = vectors.shape
    for key, value in (("count", count), ("dim", dim)):
        if config[key] != value:
            raise ModelDirectoryError(f"{model_dir / CONFIG_NAME}: config {key} {config[key]} "
                                      f"does not match embedding {key} {value}")
    try:
        with open(ids_path, encoding="utf-8") as fh:
            ids = json.load(fh)
        if type(ids) is not list or not all(type(cid) is str for cid in ids):
            raise ValueError("expected a JSON list of clip id strings")
        if len(ids) != count:
            raise ValueError(f"{len(ids)} clip ids for {count} rows of {EMBEDDINGS_NAME}")
        if len(set(ids)) != count:
            first = {}
            row = next(i for i, cid in enumerate(ids) if first.setdefault(cid, i) != i)
            raise ValueError(f"row {row}: duplicate clip id {ids[row]!r} "
                             f"(first at row {first[ids[row]]})")
    except ValueError as exc:
        raise ModelDirectoryError(f"{ids_path}: {exc}") from None
    try:    # mapped, not read, so a header claiming too many rows allocates nothing
        timbre = np.lib.format.open_memmap(timbre_path, mode="r")
        if timbre.dtype != np.float64:
            raise ValueError(f"expected float64 timbre values, got {timbre.dtype}")
    except ValueError as exc:
        raise ModelDirectoryError(f"{timbre_path}: {exc}") from None
    timbre = check_timbre_table(timbre_path, ids, np.array(timbre, order="C"))
    try:
        with open(norm_path) as fh:
            norm_data = json.load(fh)
        if not isinstance(norm_data, dict) or not {"mean", "std"} <= norm_data.keys():
            raise ValueError("needs keys 'mean' and 'std'")
        for key in ("mean", "std"):     # type(True) is bool: JSON true is no number
            if type(norm_data[key]) is not list or {*map(type, norm_data[key])} - {int, float}:
                raise ValueError(f"{key} must be a list of numbers")
        normalization = NormalizationStats(norm_data["mean"], norm_data["std"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelDirectoryError(f"{norm_path}: {exc}") from None
    if normalization.dim != dim:
        raise ModelDirectoryError(f"{model_dir}: {NORMALIZATION_NAME} dim {normalization.dim}"
                                  f" does not match embedding dim {dim}")
    vectors = vectors.astype(np.float64)
    check_finite_rows(tdce_path, ids, vectors)
    return ReferenceSet(vectors, timbre, tuple(ids), config["provider"],
                        DistanceKind.parse(config["distance"]), normalization,
                        embeddings_checked=True), config
