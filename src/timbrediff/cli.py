"""Command-line pipeline: synth, fit, score, gen-gt, eval.

All randomness flows from --seed; nothing reads the clock except the
model's created_utc metadata field.  Logs go to standard error, data to
files (and the gen-gt statistics JSON to standard output).
"""

import argparse
import ctypes
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import (
    DEFAULT_T_PRIME,
    ManifestError,
    generate_ground_truth,
    ground_truth_statistics,
    load_manifest,
    read_ground_truth_csv,
    write_ground_truth_csv,
)
from .detector import (
    DEFAULT_K,
    DEFAULT_T,
    check_k,
    check_t,
    read_results_csv,
    score_clips,
    write_results_csv,
)
from .embeddings import (
    EXTERNAL_PROVIDER,
    SPECTRAL_DIM,
    SPECTRAL_PROVIDER,
    TIMBRE_PROVIDER,
    DistanceKind,
    Embedding,
    fit_normalization,
    read_tdce,
    spectral_features,
)
from .evaluation import build_report, write_report_json
from .frontend import CANONICAL_RATE, WavError, load_wav, resample, stft_power
from .store import CONFIG_NAME, load_model, read_config, save_model
from .synth import default_benchmark_specs, generate_dataset
from .timbre import MIN_ROUGHNESS_DURATION, N_ATTRIBUTES, TimbreVector, compute_timbre_vector

# Spectral defaults to euclidean: much of an anomaly's signature in the
# log-mel statistics space is a level-axis displacement that cosine
# distance would discard.
DEFAULT_DISTANCE = {
    TIMBRE_PROVIDER: DistanceKind.EUCLIDEAN,
    SPECTRAL_PROVIDER: DistanceKind.EUCLIDEAN,
    EXTERNAL_PROVIDER: DistanceKind.COSINE,
}

_CLI_ERRORS = (WavError, ValueError, OSError)   # the package's other input errors are ValueErrors


# _analyse gives each worker process at least this many clips.  On a 2-core
# host, a fresh stage's two workers beat serial analysis from 20-25
# one-second 16 kHz clips with spectral features and from 25-45 with timbre
# alone.  One-second 44.1 kHz stereo clips, which need resampling, break
# even at about 15-20 clips, and two workers already won 5 of 7 runs at 15.
_MIN_CLIPS_PER_WORKER = 5


def _keep_freed_heap() -> bool:
    """Keep each clip's freed multi-MB temporaries on the heap for the next
    clip, rather than unmapping or trimming them and page-faulting them back
    in: glibc's mmap threshold at 16 MiB and its trim threshold at 64 MiB.
    True where the C library took both."""
    try:
        mallopt = ctypes.CDLL(None).mallopt     # glibc and musl; not macOS or Windows
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # M_MMAP_THRESHOLD, then M_TRIM_THRESHOLD; glibc returns 1 for each value it takes.
    return mallopt(-3, 16 << 20) == 1 and mallopt(-1, 64 << 20) == 1


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _check_option(option, check, *values) -> None:
    """check(*values), its ValueError prefixed with `option`, a name or a file, if given."""
    try:
        check(*values)
    except ValueError as exc:
        raise ValueError(f"{option}: {exc}" if option else str(exc)) from None


def _analyse_clip(path, provider):
    """Decode and analyse one clip: its 5 timbre values and, for the
    spectral provider, its raw spectral features (None otherwise).  A
    ValueError names the clip's path."""
    clip = load_wav(path)
    try:
        clip = resample(clip, CANONICAL_RATE)
        # One STFT per clip; a clip too short for timbre fails on that first.
        spec = stft_power(clip) if clip.duration >= MIN_ROUGHNESS_DURATION else None
        values = compute_timbre_vector(clip, spec=spec).as_array()
        features = spectral_features(clip, spec=spec) if provider == SPECTRAL_PROVIDER else None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return values, features


def _exit_with_parent(parent: int) -> None:
    """Pool initializer: a daemon thread ends this worker within half a
    second of its parent, the stage, going away.  A stage killed from
    outside would otherwise leave its workers blocked forever."""
    import threading
    import time

    def watch():
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _workers(n_clips: int) -> int:
    """Processes to analyse n_clips with: one per CPU this process may run
    on, each given at least _MIN_CLIPS_PER_WORKER clips.  1 (serial) where
    there is no fork or no affinity call to count CPUs with."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_clips // _MIN_CLIPS_PER_WORKER))


def _analyse(args, entries, provider=None, meanwhile=lambda: None):
    """Decode and analyse each clip of `entries` once.

    Returns the clip ids, their [N x 5] timbre values, the [N x D] raw
    features of `provider` (None without one, the timbre values for the
    timbre provider, the rows of the --embeddings TDCE file for external,
    which must hold every clip) and what `meanwhile()` returned.

    One order on any CPU count: the clips start, on _workers(len(entries))
    forked processes or as a lazy serial map; the stage's own reads run,
    `meanwhile()` then --embeddings, so their error wins over a clip's; the
    clips are collected in manifest order, the first bad one reported.
    """
    if provider == EXTERNAL_PROVIDER and not args.embeddings:
        raise ValueError("provider 'external' requires --embeddings")
    if provider != EXTERNAL_PROVIDER and getattr(args, "embeddings", None):    # gen-gt has none
        raise ValueError(f"--embeddings is for provider 'external' only, not {provider!r}")
    clip_ids = [e.clip_id for e in entries]
    paths = [Path(args.audio_root) / e.path for e in entries]
    workers = _workers(len(paths))
    analyse = functools.partial(_analyse_clip, provider=provider)
    pool = None
    if workers > 1:
        # Imported here, so that a serial stage skips their import.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork, not spawn: a worker starts with the package already imported, where
        # spawn would import it again (about 0.17 s per worker).  The CLI runs no
        # threads of its own, and OpenBLAS shuts its thread pool down before a fork.
        # The executor's map raises the error of the first failing chunk in manifest
        # order, and it fails with BrokenProcessPool when a worker dies, where
        # multiprocessing.Pool would wait forever for the dead worker's results.
        fork = multiprocessing.get_context("fork")
        pool = ProcessPoolExecutor(workers, mp_context=fork, initializer=_exit_with_parent,
                                   initargs=(os.getpid(),))
    try:            # on an error, clips not yet started are cancelled
        pending = (pool.map(analyse, paths, chunksize=-(-len(paths) // (4 * workers)))
                   if pool else map(analyse, paths))
        reads = meanwhile()
        if provider == EXTERNAL_PROVIDER:
            tdce_ids, vectors = read_tdce(args.embeddings)
            tdce_row = {cid: i for i, cid in enumerate(tdce_ids)}
            missing = [cid for cid in clip_ids if cid not in tdce_row]
            if missing:
                raise ValueError(f"{args.embeddings}: no embedding for clip {missing[0]!r}")
        analysed = list(pending)
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
    # Reshaped so that no clips still gives [0 x 5] and [0 x D].
    timbre = np.array([values for values, _ in analysed]).reshape(-1, N_ATTRIBUTES)
    raw = timbre if provider == TIMBRE_PROVIDER else None
    if provider == SPECTRAL_PROVIDER:
        raw = np.array([features for _, features in analysed]).reshape(-1, SPECTRAL_DIM)
    elif provider == EXTERNAL_PROVIDER:
        raw = vectors[[tdce_row[cid] for cid in clip_ids]]
    return clip_ids, timbre, raw, reads


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    # Every count and cause is checked before the first file is written.
    conditions, causes = default_benchmark_specs()
    if not 1 <= args.conditions <= len(conditions):
        raise ValueError(f"--conditions must lie in 1..{len(conditions)} (the default specs), "
                         f"got {args.conditions}")
    conditions = conditions[: args.conditions]
    for option, count in (("--train-per-cond", args.train_per_cond),
                          ("--test-per-cond", args.test_per_cond)):
        if count < 0:
            raise ValueError(f"{option} must be >= 0, got {count}")
    if args.causes != "default":
        wanted = args.causes.split(",")
        by_id = {c.cause_id: c for c in causes}
        unknown = [w for w in wanted if w not in by_id]
        if unknown:
            raise ValueError(f"--causes: unknown cause ids: {unknown}; "
                             f"available: {sorted(by_id)}")
        repeated = sorted({w for w in wanted if wanted.count(w) > 1})
        if repeated:
            raise ValueError(f"--causes: repeated cause ids: {repeated}")
        causes = tuple(by_id[w] for w in wanted)
    dataset = generate_dataset(conditions, causes, args.train_per_cond,
                               args.test_per_cond, args.seed, args.out)
    _log(f"synth: wrote {len(dataset.manifest)} clips to {args.out} "
         f"(seed {args.seed})")
    return 0


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def cmd_fit(args) -> int:
    # Settings that score would reject fail here, before any clip is decoded.
    _check_option("--t", check_t, args.t)
    train = [e for e in load_manifest(args.manifest) if e.split == "train"]
    if not train:
        raise ManifestError(f"{args.manifest}: no training rows")
    _check_option("--k", check_k, args.k, len(train))
    clip_ids, timbre, raw, _ = _analyse(args, train, args.provider)
    stats = fit_normalization(raw)
    embeddings = [Embedding(z, args.provider, cid)
                  for cid, z in zip(clip_ids, stats.zscore(raw))]
    timbre_rows = [(cid, TimbreVector.from_array(row)) for cid, row in zip(clip_ids, timbre)]
    distance = (DistanceKind.parse(args.distance) if args.distance
                else DEFAULT_DISTANCE[args.provider])
    save_model(args.out, embeddings, timbre_rows, stats, distance,
               k=args.k, t=args.t)
    _log(f"fit: {len(embeddings)} training clips, provider={args.provider}, "
         f"distance={distance.value}, model at {args.out}")
    return 0


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

def cmd_score(args) -> int:
    # Every setting is settled before any clip is decoded; only the model's own k names a file.
    config = read_config(args.model)
    config.update((key, value) for key, value in
                  (("k", args.k), ("t", args.t), ("distance", args.distance)) if value is not None)
    where = Path(args.model) / CONFIG_NAME if args.k is None else None
    _check_option(where, check_k, config["k"], config["count"])
    check_t(config["t"])

    tests = [e for e in load_manifest(args.manifest) if e.split == "test"]
    if not tests:
        raise ManifestError(f"{args.manifest}: no test rows")
    clip_ids, timbre, raw, (ref, _) = _analyse(args, tests, config["provider"],
                                               lambda: load_model(args.model, config))
    queries = ref.normalization.zscore(raw)
    bad = np.flatnonzero(~np.isfinite(queries).all(axis=1))    # only --embeddings can overflow
    if bad.size:
        raise ValueError(f"{args.embeddings}: clip {clip_ids[bad[0]]!r}: z-scores not finite")
    results = score_clips(ref, clip_ids, queries, timbre,
                          config["k"], config["t"], baseline=args.baseline)

    write_results_csv(args.out, results)
    _log(f"score: {len(results)} test clips, k={config['k']}, t={config['t']}, "
         f"baseline={args.baseline or 'knn'}, results at {args.out}")
    return 0


# ---------------------------------------------------------------------------
# gen-gt / eval
# ---------------------------------------------------------------------------

def cmd_gen_gt(args) -> int:
    _check_option("--t-prime", check_t, args.t_prime)     # before any clip is decoded
    entries = load_manifest(args.manifest)
    if not any(e.state == "anomalous" for e in entries):
        raise ManifestError(f"{args.manifest}: no anomalous rows")
    needed = [e for e in entries if e.split == "train" or e.state == "anomalous"]
    clip_ids, timbre, _, _ = _analyse(args, needed)
    records = generate_ground_truth(entries, clip_ids, timbre, t_prime=args.t_prime)
    write_ground_truth_csv(args.out, records)
    stats = ground_truth_statistics(records)
    _log(f"gen-gt: t_prime: {args.t_prime:g}, {stats['groups']} groups, "
         f"ground truth at {args.out}")
    print(json.dumps(stats, indent=2, sort_keys=True))
    return 0


def cmd_eval(args) -> int:
    results = read_results_csv(args.results)
    records = read_ground_truth_csv(args.gt)
    entries = load_manifest(args.manifest)
    report = build_report(results, entries, records)
    write_report_json(args.out, report)
    _log(f"eval: detection_auc={report.detection_auc:.4f}, "
         f"mean_mae={report.mean_mae:.4f}, report at {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timbrediff",
        description="Anomalous sound detection with timbre difference labels",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic benchmark")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--conditions", type=int, default=3)
    p.add_argument("--causes", default="default",
                   help="comma-separated cause ids, or 'default'")
    p.add_argument("--train-per-cond", type=int, default=50)
    p.add_argument("--test-per-cond", type=int, default=10)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit", help="fit a reference model on training clips")
    p.add_argument("--manifest", required=True)
    p.add_argument("--audio-root", required=True)
    p.add_argument("--provider", required=True,
                   choices=list(DEFAULT_DISTANCE))
    p.add_argument("--embeddings", help="TDCE file for provider 'external'")
    p.add_argument("--out", required=True, help="model directory")
    p.add_argument("--distance", choices=["euclidean", "cosine"])
    p.add_argument("--k", type=int, default=DEFAULT_K)
    p.add_argument("--t", type=float, default=DEFAULT_T)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("score", help="score the test clips of a manifest")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--audio-root", required=True)
    p.add_argument("--out", required=True, help="results CSV path")
    p.add_argument("--embeddings", help="TDCE file for provider 'external'")
    p.add_argument("--k", type=int)
    p.add_argument("--t", type=float)
    p.add_argument("--distance", choices=["euclidean", "cosine"])
    p.add_argument("--baseline", choices=["global"])
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("gen-gt", help="derive ground truth difference labels")
    p.add_argument("--manifest", required=True)
    p.add_argument("--audio-root", required=True)
    p.add_argument("--t-prime", type=float, default=DEFAULT_T_PRIME)
    p.add_argument("--out", required=True, help="ground truth CSV path")
    p.set_defaults(func=cmd_gen_gt)

    p = sub.add_parser("eval", help="evaluate results against ground truth")
    p.add_argument("--results", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    _keep_freed_heap()      # before any pool forks, so that its workers inherit it
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except _CLI_ERRORS as exc:
        _log(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
