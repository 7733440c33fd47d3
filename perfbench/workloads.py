"""The three workloads: how each prepares its inputs and which stages it times.

Every workload runs the same stage kinds (fit, score, score --baseline
global, gen-gt, eval on both result files), so each reports every
end-to-end metric; what differs is the input, and so which layers do the
work.  Inputs that are not meant to be measured (the 44.1 kHz rewrite, the
knn100k jitter) come from numpy code here, never from the package's DSP.
"""

import hashlib
import struct
import wave
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from perfbench import checks

SETUP_REPS = 3

INGEST_RATE = 44100
INGEST_TRAIN_PER_COND = 5
INGEST_TEST_PER_COND = 1
INGEST_K = 5                 # at most the 5 training clips of one condition

KNN_ROWS = 100_000
KNN_BASE_ROWS = 150          # training clips of the default synth benchmark
KNN_TEST_PER_COND = 2        # 30 queries, so that a run times each stage twice
KNN_DIM = 80                 # spectral embedding size
KNN_JITTER_SIGMA = 0.25      # per dimension, in z-scored units

# Timed stage name -> end-to-end metric; eval stages count toward wall_s only.
STAGE_METRICS = {"fit": "fit_s", "score": "score_s",
                 "score_global": "score_global_s", "gen_gt": "gen_gt_s"}
TIMED_STAGES = ("fit", "score", "score_global", "gen_gt", "eval_knn", "eval_global")


@dataclass
class Stage:
    name: str
    argv: list


@dataclass
class Prep:
    """Benchmark-side input preparation inside a chain; counted in setup_s."""
    name: str
    fn: Callable[[], None]


def tree_digest(root, extra: bytes = b"") -> str:
    """sha256 over every file's relative path and bytes under root."""
    root = Path(root)
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    h.update(extra)
    return h.hexdigest()


def pipeline(manifest, audio_root, provider, out, model=None, eval_gt=None,
             fit_args=()) -> list:
    """fit -> score -> score --baseline global -> gen-gt -> eval x2."""
    out = Path(out)
    model = model or out / "model"
    common = ["--manifest", manifest, "--audio-root", audio_root]
    gt = eval_gt or out / "gt.csv"
    return [
        Stage("fit", ["fit", *common, "--provider", provider,
                      "--out", out / "model", *fit_args]),
        Stage("score", ["score", "--model", model, *common,
                        "--out", out / "results_knn.csv"]),
        Stage("score_global", ["score", "--model", model, *common,
                               "--out", out / "results_global.csv",
                               "--baseline", "global"]),
        Stage("gen_gt", ["gen-gt", *common, "--out", out / "gt.csv"]),
        Stage("eval_knn", ["eval", "--results", out / "results_knn.csv", "--gt", gt,
                           "--manifest", manifest, "--out", out / "report_knn.json"]),
        Stage("eval_global", ["eval", "--results", out / "results_global.csv",
                              "--gt", gt, "--manifest", manifest,
                              "--out", out / "report_global.json"]),
    ]


class Workload:
    name = ""
    provider = "spectral"
    # Whether every seed's kNN labels must beat the global baseline's MAE.
    # Only synth16k has test clips enough for that to hold on every seed:
    # on 20 recorded seeds its kNN MAE stays below 0.54 of the global one,
    # while ingest44k (15 test clips) and knn100k (30) come within 10%.
    knn_beats_global = False

    def __init__(self, work, seed: int):
        self.work = Path(work)           # everything set-up writes, and only that
        self.seed = int(seed)
        self.inputs = self.work / "inputs"

    @property
    def manifest(self) -> Path:
        return self.inputs / "manifest.csv"

    def setup(self, runner) -> bool:
        """Write the inputs under self.inputs; False if a stage failed."""
        raise NotImplementedError

    def chain(self, out) -> list:
        return pipeline(self.manifest, self.inputs, self.provider, out)

    def digest(self) -> str:
        return tree_digest(self.inputs)

    def check(self, ops, out) -> None:
        """Checks of this workload's outputs beyond the common ones."""


class Synth16k(Workload):
    """The seed benchmark, 300 x 1 s clips at 16 kHz: decode, STFT and timbre
    do the work; resample returns early and kNN sees N=150."""

    name = "synth16k"
    knn_beats_global = True

    def setup(self, runner) -> bool:
        return runner.stage("setup_synth", ["synth", "--out", self.inputs,
                                            "--seed", self.seed]).ok


class Ingest44k(Workload):
    """30 of the seed's clips rewritten as 44.1 kHz stereo float32 WAVs:
    resample does most of the work; timbre-provider kNN."""

    name = "ingest44k"
    provider = "timbre"

    @property
    def gt16k(self) -> Path:
        return self.work / "gt16k.csv"

    def setup(self, runner) -> bool:
        originals = self.work / "originals"
        ok = runner.stage("setup_synth", [
            "synth", "--out", originals, "--seed", self.seed,
            "--train-per-cond", INGEST_TRAIN_PER_COND,
            "--test-per-cond", INGEST_TEST_PER_COND]).ok
        # Ground truth from the 16 kHz originals, so it does not depend on
        # the resampler this workload measures.
        ok = ok and runner.stage("setup_gen_gt", [
            "gen-gt", "--manifest", originals / "manifest.csv",
            "--audio-root", originals, "--out", self.gt16k]).ok
        if ok:
            rewrite_at_44k(originals, self.inputs)
        return ok

    def chain(self, out) -> list:
        return pipeline(self.manifest, self.inputs, self.provider, out,
                        eval_gt=self.gt16k, fit_args=["--k", INGEST_K])

    def check(self, ops, out) -> None:
        checks.check_same_groups(ops, Path(out) / "gt.csv", self.gt16k)


class Knn100k(Workload):
    """30 of the seed's test clips scored against 10^5 reference rows (150
    real spectral rows plus jittered copies): kNN and model loading."""

    name = "knn100k"

    def setup(self, runner) -> bool:
        return runner.stage("setup_synth", ["synth", "--out", self.inputs,
                                            "--seed", self.seed,
                                            "--test-per-cond", KNN_TEST_PER_COND]).ok

    def chain(self, out) -> list:
        out = Path(out)
        steps = pipeline(self.manifest, self.inputs, self.provider, out,
                         model=out / "model_100k")
        expand = Prep("expand", lambda: expand_model(out / "model", out / "model_100k",
                                                     self.seed))
        return steps[:1] + [expand] + steps[1:]

    def digest(self) -> str:
        src, noise = jitter(self.seed)
        return tree_digest(self.inputs, src.tobytes() + noise.tobytes())

    def check(self, ops, out) -> None:
        out = Path(out)
        checks.check_knn_oracle(ops, out / "model_100k", self.inputs, out / "results_knn.csv",
                                out / "results_global.csv", self.seed)


WORKLOADS = {w.name: w for w in (Synth16k, Ingest44k, Knn100k)}


# ---------------------------------------------------------------------------
# ingest44k: FFT upsampling to 44.1 kHz stereo float32
# ---------------------------------------------------------------------------

def read_pcm16_mono(path):
    with wave.open(str(path), "rb") as w:
        if w.getsampwidth() != 2 or w.getnchannels() != 1:
            raise ValueError(f"{path}: expected mono PCM16")
        frames = w.readframes(w.getnframes())
        return np.frombuffer(frames, dtype="<i2") / 32768.0, w.getframerate()


def fft_upsample(x, n_out: int):
    """Band-limited interpolation by zero-padding the spectrum."""
    spectrum = np.fft.rfft(x)
    if x.size % 2 == 0:
        spectrum[-1] *= 0.5              # split the Nyquist bin across +/- f
    padded = np.zeros(n_out // 2 + 1, dtype=complex)
    padded[:spectrum.size] = spectrum
    return np.fft.irfft(padded, n=n_out) * (n_out / x.size)


def write_float32_wav(path, channels, rate: int) -> None:
    """IEEE float32 WAV (format tag 3), channels is [n_channels x n_frames]."""
    channels = np.asarray(channels)
    payload = channels.T.astype("<f4").tobytes()
    n_ch = channels.shape[0]
    header = b"".join([
        b"RIFF", struct.pack("<I", 36 + len(payload)), b"WAVE",
        b"fmt ", struct.pack("<IHHIIHH", 16, 3, n_ch, rate, rate * 4 * n_ch, 4 * n_ch, 32),
        b"data", struct.pack("<I", len(payload)),
    ])
    with open(path, "wb") as fh:
        fh.write(header + payload)


def rewrite_at_44k(src_root, dst_root) -> None:
    """Copy a synth dataset as 44.1 kHz 2-channel float32 WAVs.

    The right channel is the left at half gain, so the mono downmix is a
    gain-scaled copy and the (gain-invariant) timbre metrics survive it.
    """
    src_root, dst_root = Path(src_root), Path(dst_root)
    (dst_root / "audio").mkdir(parents=True, exist_ok=True)
    lines = (src_root / "manifest.csv").read_text().splitlines(keepends=True)
    for line in lines[1:]:
        rel = line.split(",")[1]
        x, rate = read_pcm16_mono(src_root / rel)
        y = fft_upsample(x, int(round(x.size * INGEST_RATE / rate)))
        write_float32_wav(dst_root / rel, np.vstack([y, 0.5 * y]), INGEST_RATE)
    (dst_root / "manifest.csv").write_text("".join(lines))


# ---------------------------------------------------------------------------
# knn100k: a 10^5-row model from a fitted 150-row one
# ---------------------------------------------------------------------------

def jitter(seed: int):
    """(source row per copy, float64 noise per copy) drawn from the seed."""
    rng = np.random.default_rng([int(seed), KNN_ROWS])
    n_copies = KNN_ROWS - KNN_BASE_ROWS
    src = rng.integers(0, KNN_BASE_ROWS, size=n_copies)
    noise = rng.standard_normal((n_copies, KNN_DIM)) * KNN_JITTER_SIGMA
    return src, noise


def expand_model(base_dir, out_dir, seed: int) -> None:
    """Write base rows plus jittered copies through the package's save_model.

    Each copy keeps its source clip's timbre row, so rank labels stay
    meaningful; the normalization and config of the base model carry over.
    """
    from timbrediff.embeddings import Embedding
    from timbrediff.store import load_model, save_model
    from timbrediff.timbre import TimbreVector

    ref, config = load_model(base_dir)
    if ref.embeddings.shape != (KNN_BASE_ROWS, KNN_DIM):
        raise ValueError(f"base model is {ref.embeddings.shape}, "
                         f"expected {(KNN_BASE_ROWS, KNN_DIM)}")
    src, noise = jitter(seed)
    rows = np.vstack([ref.embeddings, ref.embeddings[src] + noise])
    ids = list(ref.clip_ids) + [f"{ref.clip_ids[s]}~{j:06d}" for j, s in enumerate(src)]
    base_timbre = [TimbreVector.from_array(row) for row in ref.timbre_values]
    timbre = base_timbre + [base_timbre[s] for s in src]
    embeddings = [Embedding(row, ref.provider_id, cid) for row, cid in zip(rows, ids)]
    save_model(out_dir, embeddings, list(zip(ids, timbre)), ref.normalization,
               ref.distance_kind, k=config["k"], t=config["t"])
