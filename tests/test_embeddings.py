import re

import numpy as np
import pytest

from timbrediff.embeddings import (
    SPECTRAL_DIM,
    DistanceKind,
    Embedding,
    TdceError,
    distances_to,
    fit_normalization,
    import_embeddings,
    read_tdce,
    spectral_features,
    write_embeddings,
)
from timbrediff.frontend import AudioClip, CANONICAL_RATE
from timbrediff.timbre import SilentClipError

from conftest import make_noise


class TestEmbedSpectral:
    def test_deterministic(self):
        clip = make_noise(1)
        a = spectral_features(clip)
        b = spectral_features(clip)
        assert np.array_equal(a, b)
        assert a.size == SPECTRAL_DIM == 80

    def test_gain_shifts_means_only(self):
        clip = make_noise(2)
        base = spectral_features(clip)
        doubled = spectral_features(AudioClip(clip.samples * 2.0,
                                              clip.sample_rate))
        np.testing.assert_allclose(doubled[:40] - base[:40], np.log(4.0),
                                   rtol=1e-9)
        np.testing.assert_allclose(doubled[40:], base[40:], atol=1e-9)

    def test_stationary_vs_am_std_part(self):
        stationary = make_noise(3, duration=2.0)
        t = np.arange(32000) / CANONICAL_RATE
        rng = np.random.default_rng(3)
        wobble = rng.standard_normal(32000) * (1.0 + 0.9 * np.sin(2 * np.pi * 4 * t))
        am_clip = AudioClip(0.3 * wobble / np.abs(wobble).max(), CANONICAL_RATE)
        assert (spectral_features(am_clip)[40:].mean()
                > 3 * spectral_features(stationary)[40:].mean())

    def test_silent_error(self):
        with pytest.raises(SilentClipError):
            spectral_features(AudioClip(np.zeros(16000), CANONICAL_RATE))


class TestFitNormalization:
    def test_two_scalars(self):
        stats = fit_normalization(np.array([[0.0], [2.0]]))
        assert stats.mean[0] == 1.0
        assert stats.std[0] == 1.0

    def test_identical_vectors_clamp(self):
        stats = fit_normalization(np.ones((5, 3)))
        np.testing.assert_array_equal(stats.std, 1e-9)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(123)
        data = rng.normal(5.0, 3.0, size=(1000, 4))
        stats = fit_normalization(data)
        mean = data.sum(axis=0) / len(data)
        var = ((data - mean) ** 2).sum(axis=0) / len(data)
        np.testing.assert_allclose(stats.mean, mean, atol=1e-12)
        np.testing.assert_allclose(stats.std, np.sqrt(var), atol=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            fit_normalization(np.ones((1, 3)))
        with pytest.raises(ValueError):
            fit_normalization(np.ones(3))

    def test_zscored_train_set_is_standardized(self):
        rng = np.random.default_rng(7)
        data = rng.normal(2.0, 0.5, size=(200, 6))
        stats = fit_normalization(data)
        z = (data - stats.mean) / stats.std
        assert np.abs(z.mean(axis=0)).max() < 1e-9
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-6)


def distance(u, v, kind):
    """Distance between two vectors, through the one-row matrix form."""
    return float(distances_to(np.asarray(u, dtype=np.float64)[None, :], v, kind)[0])


class TestDistance:
    def euclid(self, u, v):
        return distance(u, v, DistanceKind.EUCLIDEAN)

    def cosine(self, u, v):
        return distance(u, v, DistanceKind.COSINE)

    def test_identity_is_exact_zero(self):
        v = np.array([0.3, -1.7, 2.2])
        assert self.euclid(v, v.copy()) == 0.0
        assert self.cosine(v, v.copy()) == 0.0

    def test_orthogonal_unit_vectors(self):
        u, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert self.euclid(u, v) == pytest.approx(np.sqrt(2.0), rel=1e-15)
        assert self.cosine(u, v) == 1.0

    def test_collinear(self):
        u, v = np.array([1.0, 0.0]), np.array([2.0, 0.0])
        assert self.euclid(u, v) == 1.0
        assert self.cosine(u, v) == 0.0

    def test_zero_vector_cosine_guard(self):
        zero = np.zeros(3)
        assert self.cosine(zero, np.array([1.0, 2.0, 3.0])) == 1.0
        assert self.cosine(zero, zero.copy()) == 0.0  # exact-equality rule

    def test_symmetry_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            u = rng.normal(size=6)
            v = rng.normal(size=6)
            for kind in DistanceKind:
                d1 = distance(u, v, kind)
                d2 = distance(v, u, kind)
                assert d1 == d2

    def test_triangle_inequality(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            a, b, c = rng.normal(size=(3, 5))
            assert (self.euclid(a, c)
                    <= self.euclid(a, b) + self.euclid(b, c) + 1e-9)

    def test_cosine_scale_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            u = rng.normal(size=4)
            v = rng.normal(size=4)
            base = self.cosine(u, v)
            assert abs(self.cosine(u * 3.7, v) - base) < 1e-9
            assert abs(self.cosine(u, v * 0.01) - base) < 1e-9

    def test_dimension_mismatch(self):
        for kind in DistanceKind:
            with pytest.raises(ValueError):
                distance(np.ones(3), np.ones(4), kind)

    def test_batch_matches_scalar(self):
        # No BLAS call, so each row's value is the same bits alone or in
        # any batch: the kNN search relies on this to rescore a subset.
        rng = np.random.default_rng(19)
        matrix = rng.normal(size=(20, 4))
        q = rng.normal(size=4)
        for kind in DistanceKind:
            batch = distances_to(matrix, q, kind)
            singles = [distance(row, q, kind) for row in matrix]
            np.testing.assert_array_equal(batch, singles)
            np.testing.assert_array_equal(batch[5:13],
                                          distances_to(matrix[5:13], q, kind))


class TestTdceFormat:
    def embeddings(self, count, dim, seed=0):
        rng = np.random.default_rng(seed)
        return [Embedding(rng.normal(size=dim).astype("<f4").astype(np.float64),
                          "external", f"clip_{i:03d}")
                for i in range(count)]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tdce"
        write_embeddings(path, [])
        assert import_embeddings(path) == []

    def test_roundtrip_bit_exact(self, tmp_path):
        original = self.embeddings(3, 7)
        path = tmp_path / "emb.tdce"
        write_embeddings(path, original)
        loaded = import_embeddings(path)
        assert [e.clip_id for e in loaded] == [e.clip_id for e in original]
        for a, b in zip(loaded, original):
            assert np.array_equal(a.vector, b.vector)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "emb.tdce"
        write_embeddings(path, self.embeddings(2, 5))
        raw = path.read_bytes()
        assert raw[:4] == b"TDCE"
        assert int.from_bytes(raw[4:8], "little") == 1
        assert int.from_bytes(raw[8:12], "little") == 5
        assert int.from_bytes(raw[12:16], "little") == 2
        assert len(raw) == 16 + 2 * 5 * 4

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "emb.tdce"
        write_embeddings(path, self.embeddings(2, 5))
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(TdceError, match="truncated"):
            import_embeddings(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "emb.tdce"
        write_embeddings(path, self.embeddings(1, 3))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(TdceError, match="magic"):
            import_embeddings(path)

    def test_bad_sidecar_row_names_file_and_row(self, tmp_path):
        path = tmp_path / "emb.tdce"
        write_embeddings(path, self.embeddings(3, 2))
        ids = tmp_path / "emb.tdce.ids.csv"
        ids.write_text("row,clip_id\n0,a\n2,b\n1,c\n")
        with pytest.raises(TdceError, match=re.escape(f"{ids}: row 3: malformed row")):
            import_embeddings(path)

    @pytest.mark.parametrize("quoted", [False, True], ids=["bulk", "row_wise"])
    def test_repeated_sidecar_id_names_file_and_both_rows(self, tmp_path, quoted):
        path = tmp_path / "emb.tdce"
        write_embeddings(path, self.embeddings(3, 2))
        ids = tmp_path / "emb.tdce.ids.csv"
        a = '"a"' if quoted else "a"
        ids.write_text(f"row,clip_id\n0,{a}\n1,b\n2,{a}\n")
        with pytest.raises(TdceError, match=re.escape(
                f"{ids}: row 4: duplicate clip_id 'a' (first at row 2)")):
            read_tdce(path)

    def test_id_count_mismatch(self, tmp_path):
        path = tmp_path / "emb.tdce"
        write_embeddings(path, self.embeddings(2, 3))
        ids = tmp_path / "emb.tdce.ids.csv"
        ids.write_text("row,clip_id\n0,only_one\n")
        with pytest.raises(TdceError, match="count"):
            import_embeddings(path)
