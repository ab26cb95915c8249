import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from lapsegan import data
from lapsegan.data import (ClipStore, batch_clip_indices, denormalize_pixels,
                           export_clip, ingest, load_batch, normalize_pixels,
                           read_manifest, read_ppm, resize_bilinear,
                           split_store, synth_frame_dirs, synthesize_source,
                           write_ppm)
from lapsegan.errors import ConfigError, DimensionError, IntegrityError
from lapsegan.tensor import Tensor


def write_source(root, name, n_frames, resolution=16, value_fn=None):
    src = root / name
    src.mkdir(parents=True, exist_ok=True)
    for t in range(n_frames):
        if value_fn is None:
            frame = np.full((resolution, resolution, 3), t % 256, np.uint8)
        else:
            frame = value_fn(t)
        write_ppm(src / f"f_{t}.ppm", frame)
    return src


class TestPpm:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        frame = rng.integers(0, 256, (7, 9, 3), dtype=np.uint8)
        p = tmp_path / "x.ppm"
        write_ppm(p, frame)
        assert_array_equal(read_ppm(p), frame)

    def test_header_with_comment(self, tmp_path):
        p = tmp_path / "c.ppm"
        p.write_bytes(b"P6\n# a comment\n2 1\n255\n" + bytes(6))
        assert read_ppm(p).shape == (1, 2, 3)

    def test_truncated_raster(self, tmp_path):
        p = tmp_path / "t.ppm"
        p.write_bytes(b"P6\n4 4\n255\n" + bytes(10))
        with pytest.raises(IntegrityError):
            read_ppm(p)

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "w.ppm"
        p.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(IntegrityError):
            read_ppm(p)


class TestResize:
    def test_identity_when_same_size(self):
        rng = np.random.default_rng(1)
        f = rng.integers(0, 256, (16, 16, 3), dtype=np.uint8)
        assert_array_equal(resize_bilinear(f, 16, 16), f)

    def test_constant_stays_constant(self):
        f = np.full((360, 640, 3), 77, np.uint8)
        out = resize_bilinear(f, 128, 128)
        assert out.shape == (128, 128, 3)
        assert_array_equal(out, np.full((128, 128, 3), 77, np.uint8))

    def test_non_uniform_axes(self):
        # horizontal gradient survives a 640x360 -> square squeeze
        w = 64
        f = np.tile(np.linspace(0, 255, w, dtype=np.uint8)[None, :, None], (36, 1, 3))
        out = resize_bilinear(f, 16, 16)
        col = out[8, :, 0].astype(int)
        assert col[0] < col[7] < col[15]
        assert abs(col[0] - 0) <= 12 and abs(col[15] - 255) <= 12


class TestNormalization:
    def test_boundary_values(self):
        v = normalize_pixels(np.array([0, 127, 255], dtype=np.uint8))
        assert v[0] == -1.0 and v[2] == 1.0
        assert abs(v[1] - (127 / 127.5 - 1.0)) < 1e-7
        assert v[1] < 0.0

    def test_exhaustive_round_trip(self):
        all_bytes = np.arange(256, dtype=np.uint8)
        assert_array_equal(denormalize_pixels(normalize_pixels(all_bytes)), all_bytes)

    def test_clamps_drift(self):
        assert denormalize_pixels(np.array([1.2]))[0] == 255
        assert denormalize_pixels(np.array([-1.7]))[0] == 0


class TestIngest:
    def test_clip_count_floor(self, tmp_path):
        write_source(tmp_path / "frames", "a", 100)
        write_source(tmp_path / "frames", "b", 64)
        recs = ingest(tmp_path / "frames", tmp_path / "store", 16)
        per = {}
        for r in recs:
            per[r.source_id] = per.get(r.source_id, 0) + 1
        assert per == {"a": 3, "b": 2}

    def test_short_source_skipped(self, tmp_path, caplog):
        write_source(tmp_path / "frames", "short", 31)
        write_source(tmp_path / "frames", "ok", 32)
        write_source(tmp_path / "frames", "ok2", 32)
        with caplog.at_level("WARNING"):
            recs = ingest(tmp_path / "frames", tmp_path / "store", 16)
        assert {r.source_id for r in recs} == {"ok", "ok2"}
        assert any("short" in r.message for r in caplog.records)

    def test_no_usable_sources(self, tmp_path):
        write_source(tmp_path / "frames", "tiny", 4)
        with pytest.raises(ConfigError):
            ingest(tmp_path / "frames", tmp_path / "store", 16)

    def test_malformed_frame_skips_source(self, tmp_path, caplog):
        src = write_source(tmp_path / "frames", "bad", 32)
        (src / "f_5.ppm").write_bytes(b"P6\n2 2\n255\nxx")
        write_source(tmp_path / "frames", "good", 32)
        write_source(tmp_path / "frames", "good2", 32)
        with caplog.at_level("WARNING"):
            recs = ingest(tmp_path / "frames", tmp_path / "store", 16)
        assert {r.source_id for r in recs} == {"good", "good2"}

    def test_non_overlap_and_order(self, tmp_path):
        # frame index encoded in the pixel value: clip i must cover
        # frames [32i, 32i+31] in order
        write_source(tmp_path / "frames", "seq", 96, resolution=8)
        write_source(tmp_path / "frames", "seq2", 32, resolution=8)
        ingest(tmp_path / "frames", tmp_path / "store", 8)
        store = ClipStore(tmp_path / "store")
        for rec in store.records:
            clip = store.load_clip(rec)
            for t in range(32):
                expected = (32 * rec.clip_index + t) % 256
                assert np.all(clip[:, t] == expected)

    def test_natural_filename_order(self, tmp_path):
        src = (tmp_path / "frames" / "n")
        src.mkdir(parents=True)
        # f_2 must sort before f_10
        for t in [10, 2, 1, 0] + list(range(3, 10)) + list(range(11, 32)):
            write_ppm(src / f"f_{t}.ppm", np.full((8, 8, 3), t, np.uint8))
        write_source(tmp_path / "frames", "z", 32, resolution=8)  # sorts after "n"
        ingest(tmp_path / "frames", tmp_path / "store", 8)
        store = ClipStore(tmp_path / "store")
        clip = store.load_clip(store.records[0])
        assert_array_equal(clip[0, :, 0, 0], np.arange(32, dtype=np.uint8))

    @given(st.integers(0, 130))
    @settings(max_examples=12, deadline=None)
    def test_clip_count_property(self, n_frames):
        import tempfile
        from pathlib import Path
        with tempfile.TemporaryDirectory() as td:
            root = Path(td)
            write_source(root / "frames", "s", n_frames, resolution=8)
            write_source(root / "frames", "pad", 32, resolution=8)
            write_source(root / "frames", "pad2", 32, resolution=8)
            recs = ingest(root / "frames", root / "store", 8)
            got = sum(1 for r in recs if r.source_id == "s")
            assert got == n_frames // 32


class TestSplit:
    def make_store(self, tmp_path, sizes):
        for i, n in enumerate(sizes):
            write_source(tmp_path / "frames", f"s{i:02d}", n * 32)
        ingest(tmp_path / "frames", tmp_path / "store", 8)
        return tmp_path / "store"

    def test_no_leakage(self, tmp_path):
        store_dir = self.make_store(tmp_path, [3, 2, 4, 1, 2])
        split_store(store_dir, 0.25, seed=7)
        recs = read_manifest(store_dir)
        train = {r.source_id for r in recs if r.split == "train"}
        test = {r.source_id for r in recs if r.split == "test"}
        assert train and test and not (train & test)

    def test_fraction_approximated(self, tmp_path):
        store_dir = self.make_store(tmp_path, [2] * 10)
        split_store(store_dir, 0.3, seed=3)
        recs = read_manifest(store_dir)
        test_count = sum(1 for r in recs if r.split == "test")
        assert abs(test_count - 0.3 * len(recs)) <= 2

    def test_same_seed_same_split(self, tmp_path):
        store_dir = self.make_store(tmp_path, [1, 2, 3, 1])
        a = [(r.file, r.split) for r in split_store(store_dir, 0.4, seed=11)]
        b = [(r.file, r.split) for r in split_store(store_dir, 0.4, seed=11)]
        assert a == b

    def test_bad_fraction(self, tmp_path):
        store_dir = self.make_store(tmp_path, [1, 1])
        with pytest.raises(ConfigError):
            split_store(store_dir, 1.5, seed=0)

    def test_single_source_rejected(self, tmp_path):
        write_source(tmp_path / "frames", "only", 64)
        with pytest.raises(ConfigError):
            ingest(tmp_path / "frames", tmp_path / "store", 8)
        assert not (tmp_path / "store" / "manifest.jsonl").exists()


class TestBatching:
    def test_epoch_without_replacement(self):
        seen = []
        for k in range(4):
            seen += batch_clip_indices(8, 2, seed=5, counter=k)
        assert sorted(seen) == list(range(8))

    def test_reshuffled_next_epoch(self):
        e0 = [batch_clip_indices(8, 2, 5, k) for k in range(4)]
        e1 = [batch_clip_indices(8, 2, 5, k) for k in range(4, 8)]
        assert sorted(i for b in e1 for i in b) == list(range(8))
        assert e0 != e1

    def test_deterministic(self):
        assert batch_clip_indices(100, 8, 3, 17) == batch_clip_indices(100, 8, 3, 17)

    def test_no_duplicates_within_batch(self):
        for k in range(20):
            b = batch_clip_indices(7, 3, 1, k)
            assert len(set(b)) == len(b)

    def test_small_split_wraps_with_log(self, caplog):
        with caplog.at_level("WARNING"):
            b = batch_clip_indices(2, 5, 1, 0)
        assert len(b) == 5
        assert any("repeat" in r.message for r in caplog.records)

    def test_load_batch_duplication(self, tmp_path):
        write_source(tmp_path / "frames", "a", 64)
        write_source(tmp_path / "frames", "b", 64)
        ingest(tmp_path / "frames", tmp_path / "store", 8)
        store = ClipStore(tmp_path / "store")
        y, x = load_batch(store, "train", 2, seed=1)
        assert y.shape == (2, 3, 32, 8, 8) and x.shape == y.shape
        assert y.dtype == np.float32
        assert np.all(y.values >= -1.0) and np.all(y.values <= 1.0)
        for t in range(32):
            assert_array_equal(x.values[:, :, t], y.values[:, :, 0])

    def test_load_batch_empty_split(self, tmp_path):
        write_source(tmp_path / "frames", "a", 32)
        write_source(tmp_path / "frames", "b", 32)
        ingest(tmp_path / "frames", tmp_path / "store", 8)
        store = ClipStore(tmp_path / "store")
        with pytest.raises(ConfigError):
            load_batch(store, "test", 2, seed=1)


class TestExport:
    def test_u8_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(2)
        clip = rng.integers(0, 256, (3, 32, 8, 8), dtype=np.uint8)
        paths = export_clip(clip, tmp_path / "out")
        assert len(paths) == 32
        back = np.stack([read_ppm(p).transpose(2, 0, 1) for p in paths], axis=1)
        assert_array_equal(back, clip)

    def test_import_export_identity(self, tmp_path):
        rng = np.random.default_rng(3)
        clip = rng.integers(0, 256, (3, 32, 8, 8), dtype=np.uint8)
        export_clip(clip, tmp_path / "orig")
        video = Tensor(normalize_pixels(clip))
        export_clip(video, tmp_path / "redo")
        for t in range(32):
            a = (tmp_path / "orig" / f"frame_{t:03d}.ppm").read_bytes()
            b = (tmp_path / "redo" / f"frame_{t:03d}.ppm").read_bytes()
            assert a == b

    def test_all_minus_one_is_black(self, tmp_path):
        video = Tensor(np.full((3, 32, 4, 4), -1.0, np.float32))
        paths = export_clip(video, tmp_path / "black")
        assert_array_equal(read_ppm(paths[0]), np.zeros((4, 4, 3), np.uint8))

    def test_out_of_range_clamped_with_warning(self, tmp_path, caplog):
        video = Tensor(np.full((3, 32, 4, 4), 1.2, np.float32))
        with caplog.at_level("WARNING"):
            paths = export_clip(video, tmp_path / "hot")
        assert any("clamping" in r.message for r in caplog.records)
        assert_array_equal(read_ppm(paths[0]),
                           np.full((4, 4, 3), 255, np.uint8))

    def test_bad_shape(self, tmp_path):
        with pytest.raises(DimensionError):
            export_clip(np.zeros((1, 32, 4, 4), np.uint8), tmp_path / "bad")


class TestSynthetic:
    def test_deterministic(self):
        a = synthesize_source(9, 8, 16, velocity=1.0)
        b = synthesize_source(9, 8, 16, velocity=1.0)
        assert_array_equal(a, b)

    def test_zero_velocity_is_static(self):
        frames = synthesize_source(4, 16, 16, velocity=0.0)
        for t in range(1, 16):
            assert_array_equal(frames[t], frames[0])

    def test_nonzero_velocity_moves(self):
        frames = synthesize_source(4, 16, 32, velocity=2.0)
        assert np.any(frames[8] != frames[0])

    def test_dirs_then_ingest(self, tmp_path):
        synth_frame_dirs(tmp_path / "frames", 4, 64, 16, velocity=1.0, seed=5)
        recs = ingest(tmp_path / "frames", tmp_path / "store", 16)
        assert len(recs) == 8  # 4 sources x floor(64/32)

    def test_too_few_sources(self, tmp_path):
        with pytest.raises(ConfigError):
            synth_frame_dirs(tmp_path / "frames", 1, 32, 16, 1.0, 0)
