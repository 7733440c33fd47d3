import math
import re
import struct
import tracemalloc
import wave

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from timbrediff import frontend
from timbrediff.frontend import (
    _RESAMPLE_HALF_TAPS,
    BARK_EDGES_HZ,
    FRAME_LEN,
    HOP,
    AudioClip,
    EmptyBandError,
    Spectrogram,
    UnsupportedWavError,
    WavError,
    WavHeaderError,
    band_envelopes,
    bark_band_edges,
    bark_band_powers,
    _kaiser_taper,
    _resample_table,
    load_wav,
    resample,
    save_wav,
    stft_power,
)
from timbrediff.synth import default_benchmark_specs, generate_clip

from conftest import bandlimited_noise, make_noise, make_tone


class TestAudioClip:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            AudioClip(np.array([]), 16000)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            AudioClip(np.array([0.0, np.nan]), 16000)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            AudioClip(np.zeros(10), 0)


class TestWavIO:
    def test_silence_roundtrip(self, tmp_path):
        path = tmp_path / "silence.wav"
        save_wav(path, AudioClip(np.zeros(16000), 16000))
        clip = load_wav(path)
        assert clip.sample_rate == 16000
        assert clip.samples.size == 16000
        assert np.all(clip.samples == 0.0)

    def test_stereo_average(self, tmp_path):
        # Hand-written stereo file with channels (+0.5, -0.5) everywhere.
        path = tmp_path / "stereo.wav"
        n = 1000
        left = int(0.5 * 32768)
        frames = struct.pack("<" + "hh" * n, *([left, -left] * n))
        header = (b"RIFF" + struct.pack("<I", 36 + len(frames)) + b"WAVE"
                  + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 2, 16000,
                                          16000 * 4, 4, 16)
                  + b"data" + struct.pack("<I", len(frames)))
        path.write_bytes(header + frames)
        clip = load_wav(path)
        assert clip.samples.size == n
        assert np.all(clip.samples == 0.0)

    def test_pcm16_roundtrip_quantization(self, tmp_path):
        rng = np.random.default_rng(42)
        original = AudioClip(rng.uniform(-0.99, 0.99, 5000), 16000)
        path = tmp_path / "clip.wav"
        save_wav(path, original)
        loaded = load_wav(path)
        assert np.abs(loaded.samples - original.samples).max() <= 1.0 / 32768

    def test_float32_roundtrip(self, tmp_path):
        rng = np.random.default_rng(7)
        original = AudioClip(rng.uniform(-1, 1, 3000), 22050)
        path = tmp_path / "clip.wav"
        save_wav(path, original, sample_format="float32")
        loaded = load_wav(path)
        assert loaded.sample_rate == 22050
        np.testing.assert_allclose(loaded.samples, original.samples, atol=1e-7)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_wav(tmp_path / "nope.wav")

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"definitely not a wav file at all")
        with pytest.raises(WavHeaderError):
            load_wav(path)

    def test_truncated_data_chunk(self, tmp_path):
        path = tmp_path / "trunc.wav"
        header = (b"RIFF" + struct.pack("<I", 36 + 100) + b"WAVE"
                  + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 16000,
                                          32000, 2, 16)
                  + b"data" + struct.pack("<I", 100))
        path.write_bytes(header + b"\x00" * 10)  # declares 100, delivers 10
        with pytest.raises(WavHeaderError):
            load_wav(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_float32_names_file(self, tmp_path, bad):
        path = tmp_path / "nan.wav"
        save_wav(path, AudioClip(np.zeros(100), 16000), sample_format="float32")
        raw = bytearray(path.read_bytes())
        raw[-4:] = np.array([bad], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(WavError, match=re.escape(f"{path}: samples must be finite")):
            load_wav(path)

    @pytest.mark.parametrize("odd_at", [("before_fmt",), ("between",), ("after_data",),
                                        ("before_fmt", "between", "after_data")],
                             ids=["before_fmt", "between", "after_data", "everywhere"])
    def test_odd_sized_chunks_are_skipped_with_their_pad_byte(self, tmp_path, odd_at):
        def chunk(chunk_id, body):     # a RIFF chunk, word-aligned by a pad byte
            return chunk_id + struct.pack("<I", len(body)) + body + b"\x00" * (len(body) % 2)

        frames = np.random.default_rng(3).integers(-32768, 32768, 101).astype("<i2")
        chunks = [chunk(b"LIST", b"odd") if "before_fmt" in odd_at else b"",
                  chunk(b"fmt ", struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)),
                  chunk(b"junk", b"\x01" * 5) if "between" in odd_at else b"",
                  chunk(b"data", frames.tobytes()),
                  chunk(b"note", b"x") if "after_data" in odd_at else b""]
        body = b"WAVE" + b"".join(chunks)
        path = tmp_path / "odd.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with wave.open(str(path), "rb") as reader:
            expected = np.frombuffer(reader.readframes(reader.getnframes()), "<i2")
        assert expected.tolist() == frames.tolist()
        assert (load_wav(path).samples * 32768).tolist() == expected.tolist()

    def test_unsupported_codec(self, tmp_path):
        path = tmp_path / "alaw.wav"
        body = b"\x00" * 16
        header = (b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE"
                  + b"fmt " + struct.pack("<IHHIIHH", 16, 6, 1, 8000,
                                          8000, 1, 8)
                  + b"data" + struct.pack("<I", len(body)))
        path.write_bytes(header + body)
        with pytest.raises(UnsupportedWavError):
            load_wav(path)


class TestResample:
    def test_same_rate_identity(self):
        clip = make_tone(440)
        assert resample(clip, clip.sample_rate) is clip

    def test_sine_downsample_matches_analytic(self):
        rate = 48000
        t = np.arange(rate) / rate
        clip = AudioClip(0.5 * np.sin(2 * np.pi * 1000 * t), rate)
        out = resample(clip, 16000)
        assert out.sample_rate == 16000
        t16 = np.arange(out.samples.size) / 16000
        expected = 0.5 * np.sin(2 * np.pi * 1000 * t16)
        assert np.abs(out.samples - expected)[64:-64].max() < 1e-3

    def test_rms_preserved(self):
        rate = 48000
        t = np.arange(rate) / rate
        clip = AudioClip(0.5 * np.sin(2 * np.pi * 100 * t), rate)
        out = resample(clip, 16000)
        in_rms = np.sqrt((clip.samples ** 2).mean())
        out_rms = np.sqrt((out.samples ** 2).mean())
        assert abs(out_rms / in_rms - 1.0) < 0.01

    def test_duration_preserved_within_one_sample(self):
        clip = make_noise(0, duration=1.3)
        out = resample(clip, 22050)
        expected = clip.samples.size * 22050 / clip.sample_rate
        assert abs(out.samples.size - expected) <= 1.0

    def test_updown_roundtrip(self):
        clip = bandlimited_noise(3, 20, 2000)
        back = resample(resample(clip, 48000), 16000)
        assert back.samples.size == clip.samples.size
        err = np.abs(back.samples[64:-64] - clip.samples[64:-64]).max()
        assert err < 1e-3

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            resample(make_tone(440), 0)


def _reference_resample(clip: AudioClip, target_rate: int) -> AudioClip:
    """Oracle: the former resample, which built the kernel per output sample.

    Output i sits at floor(i * step) in floating point, and the 64-tap
    Kaiser-windowed sinc kernel is rebuilt for every output.
    """
    if int(target_rate) <= 0:
        raise ValueError("target_rate must be positive")
    target_rate = int(target_rate)
    if target_rate == clip.sample_rate:
        return clip

    src = clip.samples
    n_out = max(1, int(round(src.size * target_rate / clip.sample_rate)))
    step = clip.sample_rate / target_rate           # input samples per output sample
    cutoff = min(1.0, target_rate / clip.sample_rate)
    taps = np.arange(-_RESAMPLE_HALF_TAPS + 1, _RESAMPLE_HALF_TAPS + 1)
    padded = np.concatenate([
        np.zeros(_RESAMPLE_HALF_TAPS), src, np.zeros(_RESAMPLE_HALF_TAPS),
    ])

    out = np.empty(n_out)
    chunk = 65536
    for start in range(0, n_out, chunk):
        idx_out = np.arange(start, min(start + chunk, n_out))
        pos = idx_out * step
        base = np.floor(pos).astype(np.int64)
        offsets = taps[None, :] - (pos - base)[:, None]
        kernel = cutoff * np.sinc(cutoff * offsets)
        kernel *= _kaiser_taper(offsets / _RESAMPLE_HALF_TAPS)
        kernel /= kernel.sum(axis=1, keepdims=True)  # unity DC gain per sample
        gathered = padded[base[:, None] + taps[None, :] + _RESAMPLE_HALF_TAPS]
        out[idx_out] = (gathered * kernel).sum(axis=1)
    return AudioClip(out, target_rate)


def _gathered_resample(clip: AudioClip, target_rate: int) -> AudioClip:
    """Oracle for resample's exact bits: its earlier body, which built the
    table of the phases used on every call and gathered 65,536 outputs at a
    time.  resample must match it bit for bit.
    """
    if int(target_rate) <= 0:
        raise ValueError("target_rate must be positive")
    target_rate = int(target_rate)
    if target_rate == clip.sample_rate:
        return clip

    src = clip.samples
    n_out = max(1, int(round(src.size * target_rate / clip.sample_rate)))
    g = math.gcd(target_rate, clip.sample_rate)
    up, down = target_rate // g, clip.sample_rate // g
    cutoff = min(1.0, target_rate / clip.sample_rate)
    taps = np.arange(-_RESAMPLE_HALF_TAPS + 1, _RESAMPLE_HALF_TAPS + 1)
    padded = np.concatenate([
        np.zeros(_RESAMPLE_HALF_TAPS), src, np.zeros(_RESAMPLE_HALF_TAPS),
    ])

    # Row r serves every output i with i % up == r: phase (r * down) % up.
    frac = (np.arange(min(up, n_out), dtype=np.int64) * down % up) / up
    offsets = taps[None, :] - frac[:, None]
    table = cutoff * np.sinc(cutoff * offsets)
    table *= _kaiser_taper(offsets / _RESAMPLE_HALF_TAPS)
    table /= table.sum(axis=1, keepdims=True)  # unity DC gain per phase

    # windows[b + 1] = padded[b + 1 : b + 65]: input samples b - 31 .. b + 32.
    windows = np.lib.stride_tricks.sliding_window_view(padded, taps.size)
    out = np.empty(n_out)
    chunk = 65536
    for start in range(0, n_out, chunk):
        idx_out = np.arange(start, min(start + chunk, n_out), dtype=np.int64)
        gathered = windows[idx_out * down // up + 1]
        out[idx_out] = np.einsum("ij,ij->i", gathered, table[idx_out % up])
    return AudioClip(out, target_rate)


def assert_same_bits(out, ref):
    assert out.shape == ref.shape
    assert np.array_equal(out.view(np.int64), ref.view(np.int64))


def _uniform_clip(rate, n_samples, seed):
    rng = np.random.default_rng(seed)
    return AudioClip(rng.uniform(-1.0, 1.0, n_samples), rate)


ORACLE_RATE_PAIRS = [
    (8000, 16000), (11025, 16000), (22050, 16000), (44100, 16000),
    (48000, 16000), (16000, 22050), (16000, 48000),
    (44101, 16000),  # gcd 1: the table holds only the phases used
]
ORACLE_CASES = ([(src, tgt, dur) for src, tgt in ORACLE_RATE_PAIRS
                 for dur in (0.07, 1.0)]
                + [(44100, 16000, 10.0)])


class TestResampleMatchesReference:
    @pytest.mark.parametrize("source_rate,target_rate,duration", ORACLE_CASES)
    def test_rate_pairs(self, source_rate, target_rate, duration):
        clip = _uniform_clip(source_rate, int(round(duration * source_rate)),
                             seed=source_rate + target_rate)
        out = resample(clip, target_rate).samples
        assert_same_bits(out, _gathered_resample(clip, target_rate).samples)
        ref = _reference_resample(clip, target_rate).samples
        assert out.size == ref.size
        assert np.abs(out - ref).max() <= 1e-9

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(source_rate=st.integers(1000, 96000),
           target_rate=st.integers(1000, 96000),
           n_samples=st.integers(1, 3000),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(source_rate=37120, target_rate=16000, n_samples=200, seed=0)
    def test_property(self, source_rate, target_rate, n_samples, seed):
        clip = _uniform_clip(source_rate, n_samples, seed)
        out = resample(clip, target_rate).samples
        if source_rate == target_rate:
            assert np.array_equal(out, clip.samples)
            return
        n_out = max(1, round(n_samples * target_rate / source_rate))
        assert out.size == n_out
        assert_same_bits(out, _gathered_resample(clip, target_rate).samples)
        ref = _reference_resample(clip, target_rate).samples
        # The reference's float floor(i * step) can land one below an exact
        # integer position i * M / L (37120 -> 16000 at i = 25: 25 * 2.32);
        # its window then spans taps -32..31 instead of -31..32.  Those
        # outputs differ by at most the two end taps' weight.
        g = math.gcd(source_rate, target_rate)
        i = np.arange(n_out, dtype=np.int64)
        exact_base = i * (source_rate // g) // (target_rate // g)
        float_base = np.floor(i * (source_rate / target_rate)).astype(np.int64)
        same = exact_base == float_base
        diff = np.abs(out - ref)
        assert diff[same].max() <= 1e-9
        assert np.all(diff[~same] <= 1e-4 * np.abs(clip.samples).max())

    def test_cached_tables_are_reused_and_never_mutated(self):
        # Clips of two rate pairs in turn, of different lengths: each call
        # after a pair's first reuses its table, and the bits still match.
        reduced = {(44100, 16000): (160, 441), (44101, 16000): (16000, 44101)}
        for source_rate, target_rate in reduced:
            resample(_uniform_clip(source_rate, 100, 0), target_rate)
        tables = {pair: _resample_table(*ratio) for pair, ratio in reduced.items()}
        before = {pair: table.copy() for pair, table in tables.items()}
        hits = _resample_table.cache_info().hits
        for seed, n_samples in enumerate([5, 44100, 300, 20000, 1, 7000]):
            source_rate, target_rate = list(reduced)[seed % 2]
            clip = _uniform_clip(source_rate, n_samples, seed)
            assert_same_bits(resample(clip, target_rate).samples,
                             _gathered_resample(clip, target_rate).samples)
        assert _resample_table.cache_info().hits == hits + 6
        for pair, table in tables.items():
            assert not table.flags.writeable
            assert_same_bits(table, before[pair])
            with pytest.raises(ValueError):
                table[0, 0] = 1.0

    def test_peak_memory_stays_near_the_clip(self):
        # A 10-s 44.1 kHz clip: the gathered windows stay block-sized, so
        # the peak is about the padded copy plus the output.
        clip = _uniform_clip(44100, 441000, 0)
        resample(_uniform_clip(44100, 100, 0), 16000)   # the table, cached
        tracemalloc.start()
        try:
            resample(clip, 16000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * clip.samples.nbytes


class TestStftPower:
    def test_tone_bin(self):
        spec = stft_power(make_tone(1000))
        # 1000 / (16000/1024) = 64 exactly
        assert np.all(spec.power.argmax(axis=1) == 64)
        assert spec.bin_freqs[64] == 1000.0

    def test_zero_clip(self):
        spec = stft_power(AudioClip(np.zeros(4096), 16000))
        assert np.all(spec.power == 0.0)

    def test_white_noise_parseval(self):
        clip = make_noise(11, duration=2.0)
        spec = stft_power(clip)
        window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(FRAME_LEN) / FRAME_LEN)
        frames = np.lib.stride_tricks.sliding_window_view(
            clip.samples, FRAME_LEN)[::HOP]
        assert spec.power.shape == (frames.shape[0], 513)
        time_power = ((frames * window) ** 2).sum(axis=1).mean()
        one_sided = (spec.power[:, 0] + spec.power[:, -1]
                     + 2.0 * spec.power[:, 1:-1].sum(axis=1))
        freq_power = (one_sided / FRAME_LEN).mean()
        assert abs(freq_power / time_power - 1.0) < 0.05

    def test_gain_quadratic(self):
        clip = make_noise(5)
        base = stft_power(clip).power
        for c in (0.25, 2.0):
            scaled = stft_power(AudioClip(clip.samples * c, 16000)).power
            np.testing.assert_allclose(scaled, c * c * base, rtol=1e-9)

    def test_errors(self):
        with pytest.raises(ValueError, match="shorter than one 1024-sample frame"):
            stft_power(AudioClip(np.zeros(1023), 16000))

    def test_deterministic(self):
        clip = make_noise(9)
        a = stft_power(clip).power
        b = stft_power(clip).power
        assert np.array_equal(a, b)


class TestSpectrogram:
    def test_rejects_power_off_the_grid(self):
        for shape in ((4, 512), (4, 514), (513,), (1, 4, 513)):
            with pytest.raises(ValueError, match=r"power must be \[frames x 513\] bins"):
                Spectrogram(np.ones(shape), 16000)

    def test_rejects_non_positive_rate(self):
        for rate in (0, -16000):
            with pytest.raises(ValueError, match="sample_rate must be positive"):
                Spectrogram(np.ones((4, 513)), rate)

    @pytest.mark.parametrize("rate", [200, 8000, 16000, 22050, 44100])
    def test_bin_freqs_follow_the_rate(self, rate):
        spec = Spectrogram(np.ones((2, 513)), rate)
        assert spec.bin_freqs.shape == (513,)
        for i in range(513):
            assert spec.bin_freqs[i] == i * rate / 1024
        assert stft_power(make_noise(5, rate=rate, duration=1024 / rate)).bin_freqs is \
            spec.bin_freqs                                      # cached per rate
        with pytest.raises(ValueError):
            spec.bin_freqs[1] = 0.0


class TestBarkBands:
    def test_150hz_tone_in_band_2(self):
        spec = stft_power(make_tone(150))
        bands = bark_band_powers(spec).mean(axis=0)
        peak = bands.max()
        assert bands.argmax() == 1  # band 2 is 100-200 Hz (index 1)
        others = np.delete(bands, 1)
        assert np.all(others < 0.01 * peak)

    def test_16khz_band_count(self):
        edges = bark_band_edges(16000)
        assert len(edges) == 22
        assert edges[-1] == (7700.0, 8000.0)
        spec = stft_power(make_tone(1000))
        assert bark_band_powers(spec).shape[1] == 22

    def test_flat_spectrum_equal_band_means(self):
        spec = Spectrogram(np.ones((4, 513)), 16000)
        bands = bark_band_powers(spec)
        np.testing.assert_allclose(bands, 1.0, rtol=1e-9)

    def test_band_sum_matches_total_power(self):
        # Weighted by band bin counts, bands recover the covered-bin power.
        spec = stft_power(make_noise(13))
        bands = bark_band_powers(spec)
        band_index = np.searchsorted(
            np.array([20, 100, 200, 300, 400, 510, 630, 770, 920, 1080, 1270,
                      1480, 1720, 2000, 2320, 2700, 3150, 3700, 4400, 5300,
                      6400, 7700, 9500, 12000, 15500], dtype=float),
            spec.bin_freqs, side="right") - 1
        counts = np.array([(band_index == b).sum() for b in range(bands.shape[1])])
        covered = spec.power[:, (band_index >= 0) & (band_index < bands.shape[1])]
        np.testing.assert_allclose((bands * counts).sum(axis=1),
                                   covered.sum(axis=1), rtol=1e-9)

    def test_equals_mask_reference(self):
        # The cached bin ranges give, bit for bit, the mean over each band's
        # boolean-mask gather, at every rate, in any order of rates.
        def reference(spec):
            n_bands = len(bark_band_edges(spec.sample_rate))
            band_index = np.searchsorted(BARK_EDGES_HZ, spec.bin_freqs, side="right") - 1
            out = np.zeros((spec.power.shape[0], n_bands))
            for band in range(n_bands):
                members = band_index == band
                if members.any():
                    out[:, band] = spec.power[:, members].mean(axis=1)
            return out

        conditions, causes = default_benchmark_specs()
        clips = [generate_clip(conditions[i % 3], cause, 1.0, 60 + i)
                 for i, cause in enumerate((None, *causes))]
        specs = [stft_power(clip) for clip in clips]
        specs += [stft_power(make_noise(5, rate=rate)) for rate in (8000, 22050, 44100)]
        for spec in specs * 2:
            assert bark_band_powers(spec).tobytes() == reference(spec).tobytes()

    @pytest.mark.parametrize("rate", [12800, 24000])
    def test_nyquist_bin_joins_the_band_ending_at_nyquist(self, rate):
        # Nyquist is a Bark edge at these rates (6400 and 12000 Hz).  The last
        # band ends there and still takes the bin at exactly Nyquist, as
        # band_envelopes' bands do.
        power = np.zeros((2, FRAME_LEN // 2 + 1))
        power[:, -1] = 1.0
        bands = bark_band_powers(Spectrogram(power, rate))
        assert np.flatnonzero(bands.any(axis=0)).tolist() == [bands.shape[1] - 1]

    @pytest.mark.parametrize("rate", [8000, 12800, 16000, 22050, 24000, 44100])
    def test_bins_follow_the_envelope_rule(self, rate):
        edges = tuple(bark_band_edges(rate))
        groups = frontend._envelope_layout(rate, FRAME_LEN, edges)
        ranges = sorted((int(band), *bins) for _, members, group_bins in groups
                        for band, bins in zip(members, group_bins))
        assert frontend._bark_bins(rate) == (len(edges), tuple(ranges))


def envelope_rows(groups, n_bands):
    """band_envelopes' groups as one envelope per band, in band order, once
    their layout is checked: every band sits in exactly one group, a
    group's rows are in band order and share one length m, and groups
    ascend strictly in m."""
    lengths = [group.shape[1] for _, group in groups]
    assert lengths == sorted(set(lengths))
    rows = [None] * n_bands
    for bands, group in groups:
        assert group.ndim == 2 and group.shape[0] == len(bands) > 0
        assert list(bands) == sorted(bands)
        for band, env in zip(bands, group):
            assert rows[band] is None
            rows[band] = env
    assert all(row is not None for row in rows)
    return rows


def one_envelope(clip, band):
    return envelope_rows(band_envelopes(clip, [band]), 1)[0]


class TestBandEnvelopes:
    @pytest.mark.parametrize("rate,seconds", [
        (16000, 1.0), (16000, 10.0), (8000, 1.0), (22050, 1.0), (44100, 0.5)])
    def test_groups_hold_each_band_once_in_ascending_m(self, rate, seconds):
        # Bark bands span tens to thousands of bins, so they take several m.
        edges = bark_band_edges(rate)
        groups = band_envelopes(make_noise(rate, duration=seconds, rate=rate), edges)
        envelope_rows(groups, len(edges))
        assert len(groups) > 1
        for bands, _ in groups:     # the cached band indices stay unchanged
            with pytest.raises(ValueError):
                bands[0] = 0

    def test_tone_envelope_flat(self):
        clip = make_tone(1000, amplitude=0.6)
        env = one_envelope(clip, (900.0, 1100.0))
        trim = int(0.010 * env.size / clip.duration)      # 10 ms of envelope
        core = env[trim:-trim]
        assert np.abs(core - 0.6).max() / 0.6 < 0.02

    def test_out_of_band_rejection(self):
        clip = make_tone(1000, amplitude=0.6)
        env = one_envelope(clip, (2000.0, 3000.0))
        assert env.max() < 0.006

    def test_am_envelope_oscillates(self):
        clip = make_tone(1000, amplitude=0.4, am_freq=70, am_depth=1.0)
        env = one_envelope(clip, (900.0, 1100.0))
        trim = int(0.010 * env.size / clip.duration)
        core = env[trim:-trim]
        assert core.max() / max(core.min(), 1e-12) > 10

    # Each error must raise on every call, not only before a cached layout.
    def test_empty_band(self):
        # 1 s at 16 kHz gives 1 Hz bins; (7999.2, 7999.8) straddles none.
        for _ in range(2):
            with pytest.raises(EmptyBandError, match="contains no spectral bins"):
                band_envelopes(make_tone(1000), [(7999.2, 7999.8)])

    def test_band_outside_nyquist(self):
        for _ in range(2):
            with pytest.raises(ValueError, match=r"must lie within \(0, 8000.0\]"):
                band_envelopes(make_tone(1000), [(7000.0, 9000.0)])


def _reference_analytic_spectra(clip: AudioClip, band_edges) -> np.ndarray:
    """Oracle: the DFT of each band's analytic signal, [bands x n], from a
    full complex FFT of the clip and a boolean mask over every
    positive-frequency bin per band."""
    n = clip.samples.size
    nyquist = clip.sample_rate / 2.0
    for lo, hi in band_edges:
        if not 0 < lo < hi or hi > nyquist:
            raise ValueError(f"band ({lo}, {hi}) must lie within (0, {nyquist}]")

    spectrum = np.fft.fft(clip.samples)
    k_pos = np.arange(1, n // 2 + 1)               # positive-frequency bins
    freqs = k_pos * (clip.sample_rate / n)
    has_nyquist_bin = n % 2 == 0

    masked = np.zeros((len(band_edges), n), dtype=complex)
    for row, (lo, hi) in enumerate(band_edges):
        members = (freqs >= lo) & (freqs < hi)
        if hi >= nyquist:
            members |= freqs == nyquist
        if not members.any():
            raise EmptyBandError(f"band {lo}-{hi} Hz contains no spectral bins")
        bins = k_pos[members]
        scale = np.full(bins.size, 2.0)
        if has_nyquist_bin:
            scale[bins == n // 2] = 1.0
        masked[row, bins] = spectrum[bins] * scale
    return masked


def _reference_band_envelopes(clip: AudioClip, band_edges) -> np.ndarray:
    """Oracle: the former band_envelopes, every band's full-length
    envelope, [bands x n]."""
    return np.abs(np.fft.ifft(_reference_analytic_spectra(clip, band_edges), axis=1))


def _reference_envelope_at(analytic_spectrum, m):
    """Oracle: (j, |a(j * n / m)|) for the analytic signal a whose n-point DFT
    is given.  Every (n/m)-th sample of the full-length envelope when m
    divides n; otherwise the inverse DFT summed directly at the fractional
    times of 129 spread j, its phases k * j / m reduced exactly in integers."""
    n = analytic_spectrum.size
    if n % m == 0:
        return np.arange(m), np.abs(np.fft.ifft(analytic_spectrum))[::n // m]
    j = np.unique(np.linspace(0, m - 1, 129).astype(np.int64))
    k = np.flatnonzero(analytic_spectrum)
    phase = np.outer(j, k) % m / m
    return j, np.abs(np.exp(2j * np.pi * phase) @ analytic_spectrum[k]) / n


def _expected_envelope_length(clip: AudioClip, width: int) -> int:
    """The length rule: the next power of two at or above max(8 * width,
    2 * (k_hi + 1), 512), capped at n; k_hi is the rfft bin of 150 Hz."""
    n = clip.samples.size
    k_hi = min(math.floor(150.0 * n / clip.sample_rate), n // 2)
    need = max(8 * width, 2 * (k_hi + 1), 512)
    return min(n, 2 ** math.ceil(math.log2(need)))


def oracle_clip(source, rate, n_samples):
    """A synthetic machine clip of one cause ("normal" for none), cut to
    n_samples at 16 kHz, or uniform noise ("noise") at any rate."""
    if source == "noise":
        return _uniform_clip(rate, n_samples, seed=rate + n_samples)
    assert rate == 16000
    conditions, causes = default_benchmark_specs()
    cause = {c.cause_id: c for c in causes}.get(source)
    clip = generate_clip(conditions[n_samples % 3], cause, 1.0, seed=n_samples)
    return AudioClip(clip.samples[:n_samples], rate)


# (source, rate, n_samples): every synth cause, odd and even n, the 0.25 s
# timbre minimum, 8000 / 22050 / 44100 Hz, and a 200 Hz clip whose only
# band ends at Nyquist.  Bark bands reach Nyquist at 200, 8000 and 16000 Hz.
ORACLE_CLIPS = (
    [(cause, 16000, 16000) for cause in ("normal", "buzz", "hiss", "rumble", "muffle")]
    + [("buzz", 16000, 15999), ("hiss", 16000, 4000), ("rumble", 16000, 4001),
       ("noise", 8000, 8000), ("noise", 8000, 2001), ("noise", 22050, 22050),
       ("noise", 22050, 5513), ("noise", 44100, 44100), ("noise", 44100, 11025),
       ("noise", 200, 200), ("noise", 200, 201)])


def assert_envelopes_match_reference(clip, edges=None):
    """Each band's envelope has the length rule's m samples, and sample j
    equals the oracle's envelope at time j * n / m to 1e-12 of the oracle's
    largest envelope value; or both find an empty band.  The clip's Bark
    bands unless edges are given."""
    edges = bark_band_edges(clip.sample_rate) if edges is None else edges
    try:
        spectra = _reference_analytic_spectra(clip, edges)
    except EmptyBandError:
        with pytest.raises(EmptyBandError):
            band_envelopes(clip, edges)
        return
    scale = np.abs(np.fft.ifft(spectra, axis=1)).max()
    out = envelope_rows(band_envelopes(clip, edges), len(edges))
    for env, spectrum in zip(out, spectra):
        assert env.shape == (_expected_envelope_length(clip, np.count_nonzero(spectrum)),)
        j, ref = _reference_envelope_at(spectrum, env.size)
        assert np.abs(env[j] - ref).max() <= 1e-12 * scale


class TestBandEnvelopesMatchReference:
    @pytest.mark.parametrize("source,rate,n_samples", ORACLE_CLIPS)
    def test_clips(self, source, rate, n_samples):
        assert_envelopes_match_reference(oracle_clip(source, rate, n_samples))

    @pytest.mark.parametrize("edges", [
        [(7700.0, 8000.0)],                    # ends at Nyquist: bin 8000 kept
        [(7999.0, 8000.0)],                    # the Nyquist bin alone
        [(20.0, 100.0), (100.0, 200.0)],       # bins on a shared edge
        [(0.5, 1.5)],                          # the first bin above DC alone
    ])
    def test_band_edges_on_bins(self, edges):
        assert_envelopes_match_reference(_uniform_clip(16000, 16000, seed=5), edges)

    def test_long_clip_keeps_modulation_bins(self):
        # 10 s at 15,450 Hz: the 7700-7725 Hz Nyquist band has 251 bins, so
        # 8 * width asks for 2048 samples, but 150 Hz is bin 1500.
        clip = _uniform_clip(15450, 154500, seed=9)
        assert one_envelope(clip, (7700.0, 7725.0)).size == 4096
        assert_envelopes_match_reference(clip)

    @pytest.mark.parametrize("n_samples,edges", [
        (15999, [(7999.6, 8000.0)]),           # odd n: no bin at Nyquist
        (16000, [(7999.2, 7999.8)]),           # between two bins
    ])
    def test_same_empty_band_errors(self, n_samples, edges):
        clip = _uniform_clip(16000, n_samples, seed=6)
        with pytest.raises(EmptyBandError):
            _reference_band_envelopes(clip, edges)
        with pytest.raises(EmptyBandError):
            band_envelopes(clip, edges)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(rate=st.integers(100, 48000), seconds=st.floats(0.25, 1.0))
    def test_property(self, rate, seconds):
        assert_envelopes_match_reference(
            _uniform_clip(rate, max(1, round(seconds * rate)), seed=rate))
