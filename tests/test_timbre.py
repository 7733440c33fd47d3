import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timbrediff.frontend import AudioClip, CANONICAL_RATE, EmptyBandError, bark_band_edges
from timbrediff.synth import am_buzz, apply_transform, default_benchmark_specs, generate_clip
from timbrediff.timbre import (
    ATTRIBUTE_NAMES,
    ROUGHNESS_MOD_BAND_HZ,
    ClipTooShortError,
    SilentClipError,
    TimbreAttribute,
    TimbreVector,
    _roughness,
    compute_timbre_vector,
    read_timbre_csv,
    read_timbre_table,
    write_timbre_csv,
)

from conftest import bandlimited_noise, make_tone
from test_frontend import ORACLE_CLIPS, _reference_band_envelopes, _uniform_clip, oracle_clip

BIN_HZ = CANONICAL_RATE / 1024  # 15.625 Hz; bin-exact tones leak nowhere


def two_tone_clip(f1, f2, duration=1.0):
    """Equal-power mixture of two sines."""
    t = np.arange(int(duration * CANONICAL_RATE)) / CANONICAL_RATE
    x = 0.4 * np.sin(2 * np.pi * f1 * t) + 0.4 * np.sin(2 * np.pi * f2 * t)
    return AudioClip(x, CANONICAL_RATE)


class TestAttributeModel:
    def test_five_ordered_attributes(self):
        assert [a.name.lower() for a in TimbreAttribute] == list(ATTRIBUTE_NAMES)
        assert [a.value for a in TimbreAttribute] == [1, 2, 3, 4, 5]

    def test_vector_invariants(self):
        with pytest.raises(ValueError):
            TimbreVector(1.0, 0.1, 1.5, 1000.0, 0.5)   # boominess > 1
        with pytest.raises(ValueError):
            TimbreVector(1.0, -0.1, 0.5, 1000.0, 0.5)  # negative roughness
        with pytest.raises(ValueError):
            TimbreVector(1.0, 0.1, 0.5, 0.0, 0.5)      # zero brightness

    def test_array_roundtrip(self):
        vec = TimbreVector(3.0, 0.2, 0.4, 900.0, 0.3)
        assert TimbreVector.from_array(vec.as_array()) == vec


class TestBrightness:
    def test_pure_tone_centroid(self):
        assert abs(compute_timbre_vector(make_tone(1000)).brightness - 1000.0) < 5.0

    def test_scale_invariance(self):
        clip = make_tone(1000)
        half = AudioClip(clip.samples * 0.5, clip.sample_rate)
        assert compute_timbre_vector(clip).brightness == pytest.approx(
            compute_timbre_vector(half).brightness, rel=1e-12)

    def test_two_tone_centroid(self):
        vec = compute_timbre_vector(two_tone_clip(1000, 3000))
        assert abs(vec.brightness - 2000.0) < 20.0

    def test_silent_error(self):
        with pytest.raises(SilentClipError):
            compute_timbre_vector(AudioClip(np.zeros(16000), CANONICAL_RATE))


class TestSharpness:
    def test_high_band_noise_sharper_than_low(self):
        high = bandlimited_noise(1, 3700, 4400)   # inside band 18
        low = bandlimited_noise(1, 200, 300)      # inside band 3
        assert (compute_timbre_vector(high).sharpness
                > compute_timbre_vector(low).sharpness)

    def test_scale_invariance(self):
        clip = bandlimited_noise(2, 500, 4000)
        doubled = AudioClip(clip.samples * 2.0, clip.sample_rate)
        assert compute_timbre_vector(doubled).sharpness == pytest.approx(
            compute_timbre_vector(clip).sharpness, rel=1e-9)

    def test_single_band_degenerate_mean(self):
        # Bin-exact tone at 437.5 Hz: Hann spreads to 421.9-453.1 Hz, all
        # inside band 5 (400-510 Hz), so the weighted mean collapses to 5.
        # FFT roundoff leaves ~1e-6 relative loudness in other bands, which
        # the compressive exponent keeps visible at the 1e-4 level.
        clip = make_tone(28 * BIN_HZ)
        assert compute_timbre_vector(clip).sharpness == pytest.approx(5.0, abs=1e-3)


class TestRoughness:
    def test_unmodulated_tone_smooth(self):
        assert compute_timbre_vector(make_tone(1000)).roughness < 0.02

    def test_am_tone_much_rougher(self):
        plain = compute_timbre_vector(make_tone(1000)).roughness
        modulated = compute_timbre_vector(
            make_tone(1000, amplitude=0.4, am_freq=70, am_depth=1.0)).roughness
        assert modulated > 5 * max(plain, 0.02 / 5)
        assert modulated > 0.3

    def test_scale_invariance(self):
        from conftest import make_noise

        clip = make_noise(4)  # full-band: every Bark band carries energy
        quarter = AudioClip(clip.samples * 0.25, clip.sample_rate)
        assert compute_timbre_vector(quarter).roughness == pytest.approx(
            compute_timbre_vector(clip).roughness, rel=1e-9)

    def test_too_short(self):
        with pytest.raises(ClipTooShortError):
            compute_timbre_vector(make_tone(1000, duration=0.2))

    def test_silent(self):
        with pytest.raises(SilentClipError):
            compute_timbre_vector(AudioClip(np.zeros(16000), CANONICAL_RATE))


def _reference_roughness(clip: AudioClip, loudness: np.ndarray) -> float:
    """Oracle: the former _roughness, which band-passes each envelope by
    zeroing its spectrum outside 30-150 Hz and transforming back."""
    edges = bark_band_edges(clip.sample_rate)
    envelopes = _reference_band_envelopes(clip, edges)

    n = envelopes.shape[1]
    freqs = np.fft.rfftfreq(n, 1.0 / clip.sample_rate)
    lo, hi = ROUGHNESS_MOD_BAND_HZ
    keep = (freqs >= lo) & (freqs <= hi)
    env_spectrum = np.fft.rfft(envelopes, axis=1)
    env_spectrum[:, ~keep] = 0.0
    modulation = np.fft.irfft(env_spectrum, n=n, axis=1)

    mod_rms = np.sqrt((modulation ** 2).mean(axis=1))
    mod_index = mod_rms / (envelopes.mean(axis=1) + 1e-12)
    return float((loudness * mod_index).sum() / loudness.sum())


# Decimated envelopes move roughness by the aliasing of each envelope's
# magnitude.  The worst case measured over test_property and ORACLE_CLIPS
# is 1.1e-4; bands whose envelope keeps all n samples stay exact.
ROUGHNESS_RTOL = 5e-4


def assert_roughness_matches_reference(clip):
    """_roughness equals the oracle to ROUGHNESS_RTOL, or both find an
    empty band.  Loudness weights are arbitrary positive values."""
    loudness = np.linspace(1.0, 2.0, len(bark_band_edges(clip.sample_rate)))
    try:
        ref = _reference_roughness(clip, loudness)
    except EmptyBandError:
        with pytest.raises(EmptyBandError):
            _roughness(clip, loudness)
        return
    assert _roughness(clip, loudness) == pytest.approx(ref, rel=ROUGHNESS_RTOL, abs=0.0)


class TestRoughnessMatchesReference:
    @pytest.mark.parametrize("source,rate,n_samples", ORACLE_CLIPS)
    def test_clips(self, source, rate, n_samples):
        assert_roughness_matches_reference(oracle_clip(source, rate, n_samples))

    @pytest.mark.parametrize("n_samples", [400, 1000])
    def test_nyquist_bin_weight(self, n_samples):
        # At 200 Hz, Nyquist (100 Hz) lies inside the 30-150 Hz modulation
        # band; with even n its bin has no mirror and counts once.
        assert_roughness_matches_reference(_uniform_clip(200, n_samples, seed=n_samples))

    def test_long_clip_at_odd_rate(self):
        # 10 s at 15,450 Hz: 8 * width alone would give the 251-bin Nyquist
        # band a 2048-sample envelope, whose rfft stops below 150 Hz (bin 1500).
        assert_roughness_matches_reference(_uniform_clip(15450, 154500, seed=9))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(rate=st.integers(100, 48000), seconds=st.floats(0.25, 1.0))
    def test_property(self, rate, seconds):
        assert_roughness_matches_reference(
            _uniform_clip(rate, max(1, round(seconds * rate)), seed=rate))


class TestBoominess:
    def test_low_tone_boomy(self):
        # Bin-exact 156.25 Hz keeps all Hann spread inside 100-200 Hz.
        assert compute_timbre_vector(make_tone(10 * BIN_HZ)).boominess >= 0.95

    def test_high_tone_not_boomy(self):
        assert compute_timbre_vector(make_tone(4000)).boominess <= 0.05

    def test_low_shelf_increases(self):
        from timbrediff.synth import low_shelf

        clip = bandlimited_noise(6, 25, 7800)
        shelved = AudioClip(
            apply_transform(clip.samples, clip.sample_rate, low_shelf(300.0, 12.0)),
            clip.sample_rate)
        assert (compute_timbre_vector(shelved).boominess
                > compute_timbre_vector(clip).boominess)


class TestDepth:
    def test_low_tone_deep(self):
        assert compute_timbre_vector(make_tone(100)).depth >= 0.95

    def test_high_tone_shallow(self):
        assert compute_timbre_vector(make_tone(1000)).depth <= 0.05

    def test_equal_power_mix(self):
        assert compute_timbre_vector(two_tone_clip(100, 1000)).depth == pytest.approx(
            0.5, abs=0.05)


class TestComputeTimbreVector:
    def test_invariants_hold(self):
        conds, causes = default_benchmark_specs()
        clip = generate_clip(conds[1], causes[2], 1.0, 77)
        vec = compute_timbre_vector(clip)
        assert 0.0 <= vec.boominess <= 1.0
        assert 0.0 <= vec.depth <= 1.0
        assert vec.roughness >= 0.0
        assert 0.0 < vec.brightness <= clip.sample_rate / 2

    def test_gain_invariance(self):
        conds, _ = default_benchmark_specs()
        clip = generate_clip(conds[0], None, 1.0, 5)
        base = compute_timbre_vector(clip).as_array()
        for c in (0.25, 0.5, 2.0, 4.0):
            scaled = compute_timbre_vector(
                AudioClip(clip.samples * c, clip.sample_rate)).as_array()
            np.testing.assert_allclose(scaled, base, rtol=1e-9)

    def test_added_buzz_raises_roughness(self):
        conds, _ = default_benchmark_specs()
        clip = generate_clip(conds[2], None, 1.0, 11)
        buzzed = AudioClip(
            apply_transform(clip.samples, clip.sample_rate, am_buzz(70.0, 0.8)),
            clip.sample_rate)
        assert (compute_timbre_vector(buzzed).roughness
                > compute_timbre_vector(clip).roughness)

    def test_deterministic(self):
        clip = bandlimited_noise(10, 50, 7000)
        a = compute_timbre_vector(clip)
        b = compute_timbre_vector(clip)
        assert np.array_equal(a.as_array(), b.as_array())


class TestMonotoneProbes:
    """Targeted perturbations move their metric the right way (sampled)."""

    @pytest.mark.parametrize("transform_name,columns,sign", [
        ("high_shelf_up", (0, 3), 1),
        ("low_shelf_up", (2, 4), 1),
        ("am", (1,), 1),
    ])
    def test_direction(self, transform_name, columns, sign):
        from timbrediff.synth import high_shelf, low_shelf

        transforms = {
            "high_shelf_up": high_shelf(2000.0, 12.0),
            "low_shelf_up": low_shelf(250.0, 12.0),
            "am": am_buzz(70.0, 0.8),
        }
        conds, _ = default_benchmark_specs()
        wins = 0
        trials = 15
        for i in range(trials):
            clip = generate_clip(conds[i % 3], None, 1.0, 3000 + i)
            base = compute_timbre_vector(clip).as_array()
            mutated = AudioClip(
                apply_transform(clip.samples, clip.sample_rate,
                                transforms[transform_name]),
                clip.sample_rate)
            moved = compute_timbre_vector(mutated).as_array()
            if all(np.sign(moved[c] - base[c]) == sign for c in columns):
                wins += 1
        assert wins >= int(0.95 * trials)


class TestTimbreCsv:
    def test_roundtrip(self, tmp_path):
        rows = [
            ("a", TimbreVector(3.123456789, 0.25, 0.5, 1234.56789, 0.75)),
            ("b", TimbreVector(8.0, 0.0, 1.0, 7999.0, 0.0)),
        ]
        path = tmp_path / "timbre.csv"
        write_timbre_csv(path, ["a", "b"], [vec.as_array() for _, vec in rows])
        text = path.read_text().splitlines()
        assert text[0] == "clip_id,sharpness,roughness,boominess,brightness,depth"
        loaded = read_timbre_csv(path)
        assert list(loaded) == ["a", "b"]
        np.testing.assert_allclose(loaded["a"].as_array(),
                                   rows[0][1].as_array(), rtol=1e-8)

    def test_out_of_range_value_fails_before_write(self, tmp_path):
        # The row is named as read_timbre_table would name it: the header is row 1.
        path = tmp_path / "timbre.csv"
        values = [[1.0, 0.1, 0.5, 1000.0, 0.5]] * 3
        values[2] = [1.0, 0.1, 1.5, 1000.0, 0.5]
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: row 4: boominess must lie in [0, 1]")):
            write_timbre_csv(path, ["a", "b", "c"], values)
        assert not list(tmp_path.iterdir())

    def test_nine_significant_digits(self, tmp_path):
        path = tmp_path / "timbre.csv"
        write_timbre_csv(path, ["x"], [[1.0 / 3.0, 0.1, 0.5, 1000.123456789, 0.9]])
        row = path.read_text().splitlines()[1].split(",")
        assert row[1] == "0.333333333"
        assert row[4] == "1000.12346"

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "timbre.csv"
        write_timbre_csv(path, ["x", "x"], [[1.0, 0.1, 0.5, 1000.0, 0.5]] * 2)
        with pytest.raises(ValueError):
            read_timbre_csv(path)

    @pytest.mark.parametrize("bad_row,message", [
        ("c,1.0,0.1,0.5,1000.0,1.5", "row 4: depth must lie in [0, 1]"),
        ("c,1.0,0.1,0.5,-3.0,0.5", "row 4: brightness must be positive"),
        ("c,1.0,nan,0.5,1000.0,0.5", "row 4: timbre values must be finite"),
        ("c,1.0,0.1,loud,1000.0,0.5", "row 4: could not convert string to float"),
        ("c,1.0,0.1,0.5,1000.0", "row 4: malformed row"),
        ("a,1.0,0.1,0.5,1000.0,0.5", "row 4: duplicate clip_id 'a' (first at row 2)"),
    ])
    def test_row_errors_name_file_and_row(self, tmp_path, bad_row, message):
        path = tmp_path / "timbre.csv"
        write_timbre_csv(path, ["a", "b"], [[1.0, 0.1, 0.5, 1000.0, 0.5]] * 2)
        path.write_text(path.read_text() + bad_row + "\n")
        with pytest.raises(ValueError) as info:
            read_timbre_table(path)
        assert str(info.value).startswith(f"{path}: {message}")

    def test_table_matches_vectors(self, tmp_path):
        rows = [("a", TimbreVector(3.0, 0.25, 0.5, 1234.5, 0.75)),
                ("b", TimbreVector(8.0, 0.0, 1.0, 7999.0, 0.0))]
        path = tmp_path / "timbre.csv"
        write_timbre_csv(path, ["a", "b"], [vec.as_array() for _, vec in rows])
        ids, values = read_timbre_table(path)
        assert ids == ["a", "b"]
        np.testing.assert_array_equal(values, [v.as_array() for _, v in rows])
