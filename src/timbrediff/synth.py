"""Deterministic synthetic machine-sound benchmark.

Clips are a harmonic stack over a rotation fundamental plus colored noise;
anomaly causes perturb the mix (amplitude-modulated buzz, shelf filters).
Every clip's RNG seed derives from the master seed and the clip id, so
regeneration is byte-identical.
"""

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .csvrows import write_json
from .dataset import ManifestEntry, write_manifest_csv
from .frontend import CANONICAL_RATE, AudioClip, save_wav

PEAK_TARGET = 0.9
GAIN_RANGE = (0.5, 1.0)         # seeded per-clip gain, exercises gain invariance
SHELF_TRANSITION_OCTAVES = 1.0 / 3.0
_DB_PER_OCTAVE_TO_EXP = 20.0 * math.log10(2.0)

TRANSFORM_KINDS = {
    "am_buzz": ("mod_freq", "depth"),
    "high_shelf": ("cutoff", "gain_db"),
    "low_shelf": ("cutoff", "gain_db"),
}


@dataclass(frozen=True)
class Transform:
    kind: str
    params: dict

    def __post_init__(self):
        if self.kind not in TRANSFORM_KINDS:
            raise ValueError(f"unknown transform kind {self.kind!r}")
        expected = TRANSFORM_KINDS[self.kind]
        if set(self.params) != set(expected):
            raise ValueError(f"{self.kind} needs params {expected}, got "
                             f"{tuple(self.params)}")
        params = {k: float(self.params[k]) for k in expected}
        if self.kind == "am_buzz" and not 0.0 < params["depth"] <= 1.0:
            raise ValueError("am_buzz depth must lie in (0, 1]")
        if self.kind == "am_buzz" and params["mod_freq"] <= 0.0:
            raise ValueError("am_buzz frequency must be positive")
        if self.kind.endswith("_shelf") and params["cutoff"] <= 0.0:
            raise ValueError("shelf cutoff must be positive")
        object.__setattr__(self, "params", params)


def am_buzz(mod_freq: float, depth: float) -> Transform:
    return Transform("am_buzz", {"mod_freq": mod_freq, "depth": depth})


def high_shelf(cutoff: float, gain_db: float) -> Transform:
    return Transform("high_shelf", {"cutoff": cutoff, "gain_db": gain_db})


def low_shelf(cutoff: float, gain_db: float) -> Transform:
    return Transform("low_shelf", {"cutoff": cutoff, "gain_db": gain_db})


@dataclass(frozen=True)
class ConditionSpec:
    """One operational/recording condition of the simulated machine."""

    condition_id: str
    base_frequency: float          # rotation fundamental, Hz
    harmonic_count: int
    harmonic_decay: float          # amplitude ratio between adjacent harmonics
    noise_color: float             # spectral tilt, dB/octave
    noise_level: float             # noise RMS relative to harmonic RMS

    def __post_init__(self):
        if not 30.0 <= self.base_frequency <= 400.0:
            raise ValueError("base_frequency must lie in [30, 400] Hz")
        if self.harmonic_count < 1:
            raise ValueError("harmonic_count must be >= 1")
        if not 0.0 < self.harmonic_decay <= 1.0:
            raise ValueError("harmonic_decay must lie in (0, 1]")
        if self.noise_level < 0.0:
            raise ValueError("noise_level must be nonnegative")


@dataclass(frozen=True)
class AnomalyCauseSpec:
    """A failure mode: a signal transform plus its intended metric directions.

    intended_directions follows attribute order (sharpness, roughness,
    boominess, brightness, depth) and exists for test assertions only.
    """

    cause_id: str
    transform: Transform
    intended_directions: tuple

    def __post_init__(self):
        directions = tuple(int(d) for d in self.intended_directions)
        if len(directions) != 5 or any(d not in (-1, 0, 1) for d in directions):
            raise ValueError("intended_directions must be five values in {-1, 0, 1}")
        object.__setattr__(self, "intended_directions", directions)


@dataclass(frozen=True)
class SynthDataset:
    manifest: list
    out_dir: Path
    seed: int
    conditions: tuple
    causes: tuple
    duration: float
    train_per_condition: int
    test_per_condition: int


def clip_seed(master_seed: int, clip_id: str) -> int:
    """Per-clip seed: master seed XORed with a stable 64-bit hash of the id."""
    import hashlib              # here, so that importing the package skips it

    digest = hashlib.blake2b(clip_id.encode("utf-8"), digest_size=8).digest()
    return (int(master_seed) ^ int.from_bytes(digest, "little")) & (2 ** 64 - 1)


def _colored_noise(rng: "np.random.Generator", n: int, tilt_db_per_octave: float,
                   rate: int) -> np.ndarray:
    """Unit-RMS Gaussian noise with a power-law spectral tilt."""
    spectrum = np.fft.rfft(rng.standard_normal(n))
    if tilt_db_per_octave != 0.0:
        freqs = np.fft.rfftfreq(n, 1.0 / rate)
        gains = np.zeros_like(freqs)
        positive = freqs > 0
        gains[positive] = (freqs[positive] / 1000.0) ** (
            tilt_db_per_octave / _DB_PER_OCTAVE_TO_EXP
        )
        spectrum *= gains
    noise = np.fft.irfft(spectrum, n=n)
    rms = np.sqrt((noise ** 2).mean())
    return noise / rms if rms > 0 else noise


def _shelf_gain_mask(freqs: np.ndarray, cutoff: float, gain_db: float,
                     boost_high: bool) -> np.ndarray:
    """Raised-cosine shelf over a 1/3-octave transition around the cutoff."""
    gain = 10.0 ** (gain_db / 20.0)
    half = SHELF_TRANSITION_OCTAVES / 2.0
    lo, hi = cutoff * 2.0 ** -half, cutoff * 2.0 ** half
    blend = np.zeros_like(freqs)           # 0 below the transition, 1 above
    blend[freqs >= hi] = 1.0
    inside = (freqs > lo) & (freqs < hi)
    span = math.log2(hi) - math.log2(lo)
    blend[inside] = 0.5 - 0.5 * np.cos(
        np.pi * (np.log2(freqs[inside]) - math.log2(lo)) / span
    )
    if not boost_high:
        blend = 1.0 - blend
    return 1.0 + (gain - 1.0) * blend


def apply_transform(samples: np.ndarray, rate: int,
                    transform: Transform) -> np.ndarray:
    p = transform.params
    n = samples.size
    if transform.kind == "am_buzz":
        t = np.arange(n) / rate
        return samples * (1.0 + p["depth"] * np.sin(2.0 * np.pi * p["mod_freq"] * t))
    freqs = np.fft.rfftfreq(n, 1.0 / rate)
    mask = _shelf_gain_mask(freqs, p["cutoff"], p["gain_db"],
                            boost_high=transform.kind == "high_shelf")
    return np.fft.irfft(np.fft.rfft(samples) * mask, n=n)


def generate_clip(cond: ConditionSpec, cause, duration: float,
                  seed: int) -> AudioClip:
    """One synthetic clip; same (cond, cause, seed) gives identical samples.

    RNG draw order is fixed: harmonic phases, noise, per-clip gain.
    """
    if duration < 1.0:
        raise ValueError("duration must be at least 1 s")
    rng = np.random.default_rng(seed)
    rate = CANONICAL_RATE
    n = int(round(duration * rate))
    t = np.arange(n) / rate

    nyquist = rate / 2.0
    phases = rng.uniform(0.0, 2.0 * np.pi, cond.harmonic_count)
    stack = np.zeros(n)
    for h in range(1, cond.harmonic_count + 1):
        freq = h * cond.base_frequency
        if freq >= nyquist:
            break
        stack += (cond.harmonic_decay ** (h - 1)
                  * np.sin(2.0 * np.pi * freq * t + phases[h - 1]))
    stack /= np.sqrt((stack ** 2).mean())

    noise = _colored_noise(rng, n, cond.noise_color, rate)
    samples = stack + cond.noise_level * noise
    if cause is not None:
        samples = apply_transform(samples, rate, cause.transform)
    samples *= PEAK_TARGET / np.abs(samples).max()
    samples *= rng.uniform(*GAIN_RANGE)
    return AudioClip(samples, rate)


def default_benchmark_specs():
    """Three machine conditions and four anomaly causes.

    Conditions are spread widely in fundamental and noise color so their
    normal timbre distributions barely overlap; causes shift specific
    attributes consistently within any one condition.
    """
    # Single-partial hums for the 60/120 Hz conditions: adjacent harmonics
    # there would beat inside the 30-150 Hz roughness band and mask the
    # buzz cause.  240 Hz harmonics beat at 240 Hz, safely outside it.
    conditions = (
        ConditionSpec("slow", base_frequency=60.0, harmonic_count=1,
                      harmonic_decay=0.85, noise_color=-3.0, noise_level=0.30),
        ConditionSpec("mid", base_frequency=120.0, harmonic_count=1,
                      harmonic_decay=0.75, noise_color=0.0, noise_level=0.35),
        ConditionSpec("fast", base_frequency=240.0, harmonic_count=6,
                      harmonic_decay=0.65, noise_color=3.0, noise_level=0.25),
    )
    causes = (
        AnomalyCauseSpec("buzz", am_buzz(70.0, 0.8),
                         intended_directions=(0, 1, 0, 0, 0)),
        AnomalyCauseSpec("hiss", high_shelf(2000.0, 12.0),
                         intended_directions=(1, 0, 0, 1, 0)),
        AnomalyCauseSpec("rumble", low_shelf(250.0, 12.0),
                         intended_directions=(0, 0, 1, 0, 1)),
        AnomalyCauseSpec("muffle", high_shelf(2000.0, -12.0),
                         intended_directions=(-1, 0, 0, -1, 0)),
    )
    return conditions, causes


def _clip_plan(conditions, causes, train_per_condition, test_per_condition):
    """(clip_id, relative path, split, state, condition, cause) rows."""
    plan = []
    for cond in conditions:
        for i in range(train_per_condition):
            clip_id = f"train_{cond.condition_id}_{i:04d}"
            plan.append((clip_id, cond, None, "train", "normal"))
    for cond in conditions:
        for i in range(test_per_condition):
            clip_id = f"test_{cond.condition_id}_normal_{i:04d}"
            plan.append((clip_id, cond, None, "test", "normal"))
        for cause in causes:
            for i in range(test_per_condition):
                clip_id = f"test_{cond.condition_id}_{cause.cause_id}_{i:04d}"
                plan.append((clip_id, cond, cause, "test", "anomalous"))
    return plan


def generate_dataset(conditions, causes, train_per_condition: int,
                     test_per_condition: int, seed: int, out_dir,
                     duration: float = 1.0) -> SynthDataset:
    """Write WAVs, manifest.csv and specs.json for a full benchmark run."""
    conditions = tuple(conditions)
    causes = tuple(causes)
    if not conditions or not causes:
        raise ValueError("need at least one condition and one cause")
    if min(train_per_condition, test_per_condition) < 0:
        raise ValueError(f"per-condition counts must be >= 0, got {train_per_condition} "
                         f"train and {test_per_condition} test")
    for kind, ids in (("condition", [c.condition_id for c in conditions]),
                      ("cause", [c.cause_id for c in causes])):
        repeated = sorted({i for i in ids if ids.count(i) > 1})
        if repeated:        # they would repeat clip ids, which load_manifest rejects
            raise ValueError(f"repeated {kind} ids: {repeated}")
    out_dir = Path(out_dir)
    audio_dir = out_dir / "audio"
    audio_dir.mkdir(parents=True, exist_ok=True)

    entries = []
    for clip_id, cond, cause, split, state in _clip_plan(
            conditions, causes, train_per_condition, test_per_condition):
        clip = generate_clip(cond, cause, duration, clip_seed(seed, clip_id))
        rel_path = f"audio/{clip_id}.wav"
        save_wav(out_dir / rel_path, clip)
        entries.append(ManifestEntry(
            clip_id=clip_id, path=rel_path, split=split, state=state,
            condition_id=cond.condition_id,
            cause_id=cause.cause_id if cause else "",
            domain="source",
        ))

    write_manifest_csv(out_dir / "manifest.csv", entries)
    specs = {
        "seed": int(seed),
        "duration": duration,
        "train_per_condition": train_per_condition,
        "test_per_condition": test_per_condition,
        "sample_rate": CANONICAL_RATE,
        "conditions": [asdict(c) for c in conditions],
        "causes": [asdict(c) for c in causes],
    }
    write_json(out_dir / "specs.json", specs)
    return SynthDataset(entries, out_dir, int(seed), conditions, causes,
                        duration, train_per_condition, test_per_condition)
