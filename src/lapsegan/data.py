"""Frame-directory ingestion into a clip store, split handling, batch
loading, and clip export.

A store is a directory holding one binary file per 32-frame clip (u8 pixel
payload, pre-normalization) plus a JSON-lines manifest. Sources are cut into
consecutive non-overlapping clips with the trailing remainder dropped, and
train/test splitting happens per source so clips from one video never leak
across splits. Pixels map to [-1,1] via v/127.5 - 1 when loaded.

Frames are P6 PPM files; a synthetic moving-pattern generator provides a
built-in data source for desk-scale runs.
"""
from __future__ import annotations

import hashlib
import json
import logging
import re
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionError, IntegrityError
from .models import CLIP_FRAMES, duplicate_frame
from .tensor import Tensor, load_array, save_array

log = logging.getLogger(__name__)

_EPOCH_TAG = 0x45504F43  # salts the per-epoch shuffle seeds
_SOURCE_TAG = 0x53524331


# -- PPM frames ----------------------------------------------------------


def read_ppm(path):
    """Read a binary P6 PPM into (H, W, 3) uint8."""
    data = Path(path).read_bytes()
    if not data.startswith(b"P6"):
        raise IntegrityError(f"{path}: not a P6 PPM")
    # header: magic, width, height, maxval as whitespace-separated tokens,
    # with '#' comments; pixel data starts after the single byte following maxval
    pos, tokens = 2, []
    while len(tokens) < 3:
        if pos >= len(data):
            raise IntegrityError(f"{path}: truncated PPM header")
        ch = data[pos:pos + 1]
        if ch == b"#":
            pos = data.find(b"\n", pos)
            if pos < 0:
                raise IntegrityError(f"{path}: unterminated PPM comment")
            continue
        if ch.isspace():
            pos += 1
            continue
        m = re.match(rb"\d+", data[pos:])
        if m is None:
            raise IntegrityError(f"{path}: malformed PPM header")
        tokens.append(int(m.group()))
        pos += m.end()
    w, h, maxval = tokens
    if maxval != 255:
        raise IntegrityError(f"{path}: unsupported maxval {maxval}")
    pos += 1  # single whitespace byte before raster
    raster = data[pos:pos + 3 * w * h]
    if len(raster) != 3 * w * h:
        raise IntegrityError(f"{path}: truncated PPM raster")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w, 3).copy()


def write_ppm(path, frame):
    """Write (H, W, 3) uint8 as binary P6."""
    frame = np.ascontiguousarray(frame, dtype=np.uint8)
    if frame.ndim != 3 or frame.shape[2] != 3:
        raise DimensionError(f"expected (H,W,3) frame, got {frame.shape}")
    h, w = frame.shape[:2]
    with open(path, "wb") as fp:
        fp.write(f"P6\n{w} {h}\n255\n".encode())
        fp.write(frame.tobytes())


def resize_bilinear(frame, out_h, out_w):
    """Bilinear resize of a (H, W, C) uint8 frame with independent x/y
    scale factors (aspect distortion, no cropping)."""
    h, w = frame.shape[:2]
    if (h, w) == (out_h, out_w):
        return frame.copy()

    def axis_coords(n_in, n_out):
        # half-pixel centers; clamp keeps the corners inside the source
        src = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
        src = np.clip(src, 0.0, n_in - 1.0)
        lo = np.floor(src).astype(np.int64)
        hi = np.minimum(lo + 1, n_in - 1)
        return lo, hi, (src - lo)

    ylo, yhi, wy = axis_coords(h, out_h)
    xlo, xhi, wx = axis_coords(w, out_w)
    f = frame.astype(np.float64)
    top = f[ylo][:, xlo] * (1 - wx)[None, :, None] + f[ylo][:, xhi] * wx[None, :, None]
    bot = f[yhi][:, xlo] * (1 - wx)[None, :, None] + f[yhi][:, xhi] * wx[None, :, None]
    out = top * (1 - wy)[:, None, None] + bot * wy[:, None, None]
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


# -- normalization --------------------------------------------------------


def normalize_pixels(u8):
    """uint8 [0,255] -> float32 [-1,1] via v/127.5 - 1."""
    return (u8.astype(np.float32) / np.float32(127.5)) - np.float32(1.0)


def denormalize_pixels(f):
    """float [-1,1] -> uint8, rounding and clamping out-of-range drift."""
    v = (np.asarray(f, dtype=np.float64) + 1.0) * 127.5
    return np.clip(np.rint(v), 0, 255).astype(np.uint8)


# -- store records ---------------------------------------------------------


@dataclass
class ClipRecord:
    source_id: str
    clip_index: int
    file: str
    split: str
    h: int
    w: int


def _manifest_line(rec):
    return json.dumps(asdict(rec), sort_keys=True) + "\n"


def write_manifest(store_dir, records):
    path = Path(store_dir) / "manifest.jsonl"
    with open(path, "w") as fp:
        fp.writelines(map(_manifest_line, records))


def records_sha256(records):
    """Hex SHA-256 of manifest records, each hashed as its manifest line."""
    return hashlib.sha256("".join(map(_manifest_line, records)).encode()).hexdigest()


def _checked_record(values):
    """The ClipRecord of one manifest line; ValueError if a field has the
    wrong type or value, or the clip file would lie outside ``clips/``."""
    rec = ClipRecord(**values)
    wrong = [f.name for f in fields(rec) if type(values[f.name]).__name__ != f.type]
    if wrong:
        raise ValueError(f"wrong type for {', '.join(wrong)}")
    if rec.split not in ("train", "test"):
        raise ValueError(f"split must be train or test, got {rec.split!r}")
    if min(rec.h, rec.w) < 1:
        raise ValueError(f"clip size {rec.h}x{rec.w} is not positive")
    if rec.file in ("", ".", "..") or Path(rec.file).name != rec.file:
        raise ValueError(f"file {rec.file!r} is not a bare name inside clips/")
    return rec


def read_manifest(store_dir):
    path = Path(store_dir) / "manifest.jsonl"
    if not path.exists():
        raise IntegrityError(f"no manifest at {path}")
    records = []
    for number, line in enumerate(path.read_bytes().splitlines(), start=1):
        if line.strip():
            try:
                records.append(_checked_record(json.loads(line)))
            except (ValueError, TypeError) as exc:
                raise IntegrityError(f"{path}:{number}: malformed manifest record "
                                     f"({exc})") from exc
    return records


class ClipStore:
    """Random access over an ingested store directory."""

    def __init__(self, store_dir):
        self.root = Path(store_dir)
        self.records = read_manifest(self.root)

    def split_records(self, split):
        return [r for r in self.records if r.split == split]

    def load_clip(self, record):
        arr = load_array(self.root / "clips" / record.file)
        if arr.dtype != np.uint8 or arr.shape[:2] != (3, CLIP_FRAMES):
            raise IntegrityError(f"{record.file}: not a (3,{CLIP_FRAMES},H,W) u8 clip")
        return arr

    @property
    def resolution(self):
        return self.records[0].h if self.records else None


def _natural_key(name):
    return [int(tok) if tok.isdigit() else tok for tok in re.split(r"(\d+)", name)]


def ingest(frame_root, out_store, target_resolution):
    """Cut every per-source frame directory under ``frame_root`` into
    non-overlapping 32-frame clips resized to ``target_resolution`` squared.

    Returns the list of manifest records. Sources with unreadable or
    inconsistent frames are skipped with a logged diagnostic; fewer than
    2 usable sources, too few to split, is an error: it writes no manifest
    and removes the clip files it wrote.
    """
    frame_root = Path(frame_root)
    out_store = Path(out_store)
    (out_store / "clips").mkdir(parents=True, exist_ok=True)
    sources = sorted(p for p in frame_root.iterdir() if p.is_dir())
    records = []
    for src in sources:
        frame_files = sorted((f for f in src.iterdir() if f.suffix == ".ppm"),
                             key=lambda p: _natural_key(p.name))
        if len(frame_files) < CLIP_FRAMES:
            log.warning("source %s has %d frames (< %d); no clips",
                        src.name, len(frame_files), CLIP_FRAMES)
            continue
        try:
            frames = [read_ppm(f) for f in frame_files]
        except IntegrityError as exc:
            log.warning("skipping source %s: %s", src.name, exc)
            continue
        if len({f.shape for f in frames}) != 1:
            log.warning("skipping source %s: frames differ in size", src.name)
            continue
        resized = np.stack([resize_bilinear(f, target_resolution, target_resolution)
                            for f in frames])
        n_clips = len(frames) // CLIP_FRAMES
        dropped = len(frames) - n_clips * CLIP_FRAMES
        if dropped:
            log.info("source %s: %d trailing frames dropped", src.name, dropped)
        for ci in range(n_clips):
            block = resized[ci * CLIP_FRAMES:(ci + 1) * CLIP_FRAMES]  # (32,H,W,3)
            clip = np.ascontiguousarray(block.transpose(3, 0, 1, 2))
            fname = f"{src.name}_{ci:04d}.mdt"
            save_array(out_store / "clips" / fname, clip)
            records.append(ClipRecord(source_id=src.name, clip_index=ci,
                                      file=fname, split="train",
                                      h=target_resolution, w=target_resolution))
    if len({r.source_id for r in records}) < 2:
        for rec in records:  # a refused store keeps no clip files either
            (out_store / "clips" / rec.file).unlink()
        raise ConfigError(f"fewer than 2 usable sources under {frame_root}")
    write_manifest(out_store, records)
    return records


def check_split_args(test_fraction, seed):
    """Reject what ``split_store`` would, before the store is written."""
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"test_fraction must lie in (0,1), got {test_fraction}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


def split_store(store_dir, test_fraction, seed):
    """Tag manifest records train/test by source so the test clip count
    approximates ``test_fraction``; clips of one source never straddle."""
    check_split_args(test_fraction, seed)
    records = read_manifest(store_dir)
    by_source = {}
    for rec in records:
        by_source.setdefault(rec.source_id, []).append(rec)
    if len(by_source) < 2:
        raise ConfigError("splitting needs at least 2 sources")
    order = sorted(by_source)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    rng.shuffle(order)
    target = test_fraction * len(records)
    test_sources, count = set(), 0
    for sid in order:
        gain = len(by_source[sid])
        if abs(count + gain - target) <= abs(count - target):
            test_sources.add(sid)
            count += gain
    if len(test_sources) == len(order):  # keep the train split non-empty
        test_sources.discard(order[-1])
    if not test_sources:
        test_sources.add(order[0])
    for rec in records:
        rec.split = "test" if rec.source_id in test_sources else "train"
    write_manifest(store_dir, records)
    return records


def batch_clip_indices(n_clips, batch_size, seed, counter):
    """Clip indices for batch ``counter`` under per-epoch shuffling.

    Each epoch is a fresh seeded permutation consumed in full batches
    (remainder dropped), so resuming at a stored counter replays the exact
    stream. A split smaller than the batch wraps across epoch reshuffles
    and may repeat a clip within one batch (logged).
    """
    if n_clips <= 0:
        raise ConfigError("empty clip split")

    def epoch_perm(epoch):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(_EPOCH_TAG, epoch))
        return np.random.default_rng(ss).permutation(n_clips)

    if n_clips >= batch_size:
        per_epoch = n_clips // batch_size
        epoch, k = divmod(counter, per_epoch)
        perm = epoch_perm(epoch)
        return perm[k * batch_size:(k + 1) * batch_size].tolist()

    log.warning("split of %d clips smaller than batch %d; batches will repeat clips",
                n_clips, batch_size)
    out, pos = [], counter * batch_size
    while len(out) < batch_size:
        epoch, off = divmod(pos, n_clips)
        out.append(int(epoch_perm(epoch)[off]))
        pos += 1
    return out


def load_batch(store, split, batch_size, seed, counter=0):
    """Assemble one batch: ground-truth clips Y (N,3,32,H,W) in [-1,1] and
    the static videos X built by duplicating each clip's first frame."""
    records = store.split_records(split)
    if not records:
        raise ConfigError(f"store has no {split!r} clips")
    idxs = batch_clip_indices(len(records), batch_size, seed, counter)
    clips = np.stack([store.load_clip(records[i]) for i in idxs])
    y = normalize_pixels(clips)
    return Tensor(y), duplicate_frame(y[:, :, 0], CLIP_FRAMES)


def export_clip(video, out_dir):
    """Write a clip as 32 PPM frames.

    ``video`` is a (3,32,H,W) array: float values in [-1,1] (values out of
    range are clamped) or uint8 passed through bit-exact.
    """
    video = np.asarray(video)
    if video.ndim != 4 or video.shape[0] != 3:
        raise DimensionError(f"expected (3,T,H,W) clip, got {video.shape}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    frames = video if video.dtype == np.uint8 else denormalize_pixels(video)
    paths = []
    for t in range(frames.shape[1]):
        p = out_dir / f"frame_{t:03d}.ppm"
        write_ppm(p, frames[:, t].transpose(1, 2, 0))
        paths.append(p)
    return paths


# -- synthetic sources ------------------------------------------------------


def synthesize_source(seed, n_frames, resolution, velocity=1.0):
    """Frames of a smooth static background with a translating diagonal
    ramp and a moving disk; ``velocity`` scales all motion (0 = static)."""
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=seed, spawn_key=(_SOURCE_TAG,)))
    res = resolution
    yy, xx = np.mgrid[0:res, 0:res].astype(np.float64) / res

    base = np.empty((res, res, 3))
    phase = rng.uniform(0, 2 * np.pi, size=(3, 2))
    freq = rng.integers(1, 4, size=(3, 2))
    # bright or dark scenes, not mid-gray: keeps the normalized pixels away
    # from zero so an untrained (near-zero) generator starts far from the data
    level = rng.uniform(30, 225, size=3)
    amp = rng.uniform(15, 35, size=3)
    for c in range(3):
        base[:, :, c] = level[c] + amp[c] * (
            np.cos(2 * np.pi * freq[c, 0] * xx + phase[c, 0])
            + np.sin(2 * np.pi * freq[c, 1] * yy + phase[c, 1])) / 2.0

    ramp_dir = rng.uniform(-1, 1, size=2)
    ramp_vel = rng.uniform(0.2, 1.0) * velocity / res
    ramp_amp = rng.uniform(10, 25)

    cx, cy = rng.uniform(0.2, 0.8, size=2)
    radius = rng.uniform(res / 8, res / 4) / res
    disk_vel = rng.uniform(-1.5, 1.5, size=2) * velocity / res
    disk_color = rng.uniform(-40, 40, size=3)

    frames = np.empty((n_frames, res, res, 3), dtype=np.uint8)
    for t in range(n_frames):
        img = base.copy()
        shift = (ramp_dir[0] * xx + ramp_dir[1] * yy + ramp_vel * t) % 1.0
        img += ramp_amp * shift[:, :, None]
        dx = (xx - (cx + disk_vel[0] * t) % 1.0)
        dy = (yy - (cy + disk_vel[1] * t) % 1.0)
        mask = (dx * dx + dy * dy) < radius * radius
        img[mask] += disk_color
        frames[t] = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    return frames


def synth_frame_dirs(out_root, n_sources, frames_per_source, resolution,
                     velocity, seed):
    """Materialize synthetic sources as per-source PPM frame directories."""
    if n_sources < 2:
        raise ConfigError("need at least 2 synthetic sources (split requires it)")
    if frames_per_source < CLIP_FRAMES:
        raise ConfigError(f"frames per source must be >= {CLIP_FRAMES} (one clip), "
                          f"got {frames_per_source}")
    if not np.isfinite(velocity):
        raise ConfigError(f"velocity must be finite, got {velocity}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    out_root = Path(out_root)
    for i in range(n_sources):
        src_dir = out_root / f"synth{i:03d}"
        src_dir.mkdir(parents=True, exist_ok=True)
        frames = synthesize_source(seed * 100003 + i, frames_per_source,
                                   resolution, velocity)
        for t in range(frames_per_source):
            write_ppm(src_dir / f"frame_{t:04d}.ppm", frames[t])
    return out_root
