"""Adam optimization, the alternating training loop, and checkpointing.

Both stages run one loop: each iteration takes a discriminator step, then a
generator step on a fresh batch; only the objectives differ. Stage 1 pairs a
discriminator step on real vs generated clips with a generator step on the
adversarial plus content objective. Stage 2 follows the refine procedure
exactly: the discriminator ascends
mean[log D(Y) + log(1 - D(G2(Y1)))] + lambda * rank (via Adam on the negated
objective) and the generator descends
mean[log(1 - D(G2(Y1)))] + lambda * rank + content, with the stage-1
generator run only without a tape, so it stays bitwise frozen. Batches are
drawn from a stateless per-epoch shuffle keyed by (seed, epoch), so a
resumed run replays the exact stream of an uninterrupted one.
"""
from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .config import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, RunConfig, config_from_dict
from .data import load_batch, records_sha256
from .errors import ConfigError, IntegrityError, UnsupportedVersionError
from .losses import (LossReport, content_loss, discriminator_adversarial,
                     generator_adversarial, gram, rank_loss_total)
from .models import (CLIP_FRAMES, build_discriminator, build_generator,
                     duplicate_frame, forward_discriminator, forward_generator)
from .ops import ParameterSet, init_parameters
from .tensor import Tensor, backward, no_grad, read_array, write_array

CHECKPOINT_MAGIC = b"MDCK"
CHECKPOINT_VERSION = 2
GENERATORS = ("g1", "g2")  # the networks generate_video runs

_INIT_TAG = 0x494E4954  # salts per-network init seeds


class TrainingDiverged(RuntimeError):
    """A loss or gradient went non-finite; the iteration was aborted."""


@dataclass
class AdamState:
    """First/second moment estimates plus step counter for one network."""

    m: dict
    v: dict
    t: int

    @classmethod
    def fresh(cls, params):
        zeros = {k: np.zeros_like(t.values) for k, t in params.tensors.items()}
        return cls(m=zeros, v={k: z.copy() for k, z in zeros.items()}, t=0)


_ADAM_CHUNK = 1 << 15  # elements per Adam chunk: ~6 arrays of it stay in L2


def adam_step(params, grads, state, cfg):
    """One bias-corrected Adam update at ``cfg.lr``, in place on the parameters.

    ``grads`` maps parameter names to arrays; parameters absent from it
    receive a zero gradient. A non-finite gradient aborts the update before
    any parameter or moment changes. The update runs chunk by chunk in two
    scratch buffers, each element through the same float operations in the
    same order, so the chunk size changes no bit of the result.
    """
    full = {}
    for name, tensor in params.tensors.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(tensor.values)
        elif not np.all(np.isfinite(g)):
            raise TrainingDiverged(f"non-finite gradient for {name}")
        full[name] = g
    state.t += 1
    c1 = 1.0 - ADAM_BETA1 ** state.t
    c2 = 1.0 - ADAM_BETA2 ** state.t
    for name, tensor in params.tensors.items():
        m, v = state.m[name], state.v[name]
        chunks = np.nditer([full[name], m, v, tensor.values],
                           flags=["external_loop", "buffered", "zerosize_ok"],
                           op_flags=[["readonly"], ["readwrite"], ["readwrite"],
                                     ["readwrite"]],
                           buffersize=_ADAM_CHUNK)
        scratch = np.empty((2, _ADAM_CHUNK), dtype=m.dtype)
        with chunks:
            for g, mc, vc, pc in chunks:
                step, denom = scratch[0, :g.size], scratch[1, :g.size]
                mc *= ADAM_BETA1
                mc += np.multiply(g, 1.0 - ADAM_BETA1, out=step)
                vc *= ADAM_BETA2
                vc += np.multiply(np.multiply(g, g, out=denom), 1.0 - ADAM_BETA2, out=denom)
                np.divide(mc, m.dtype.type(c1), out=step)       # mhat
                np.divide(vc, v.dtype.type(c2), out=denom)      # vhat
                np.sqrt(denom, out=denom)
                denom += ADAM_EPS
                step *= cfg.lr
                step /= denom
                pc -= step.astype(pc.dtype, copy=False)


# -- checkpoints -------------------------------------------------------------


@dataclass
class Checkpoint:
    """Everything needed to resume or run a training stage."""

    stage: int
    iteration: int
    config: dict
    params: dict            # net name -> ParameterSet
    adam: dict = field(default_factory=dict)  # net name -> AdamState
    train_split_sha256: str | None = None  # of the store's train records

    def run_config(self) -> RunConfig:
        return config_from_dict(self.config)


class _CrcWriter:
    """Pass-through writer that keeps the running CRC32 of what it wrote."""

    def __init__(self, fp):
        self.fp = fp
        self.crc = 0

    def write(self, data):
        self.crc = zlib.crc32(data, self.crc)
        self.fp.write(data)


class _CrcReader:
    """Pass-through reader that keeps the running CRC32 of what it read.
    ``seek`` and ``tell`` reach the file unread, for ``read_array`` to
    measure the bytes left."""

    def __init__(self, fp):
        self.fp = fp
        self.crc = 0

    def read(self, n=-1):
        data = self.fp.read(n)
        self.crc = zlib.crc32(data, self.crc)
        return data

    def readinto(self, buf):
        n = self.fp.readinto(buf)
        self.crc = zlib.crc32(buf[:n], self.crc)
        return n

    def seek(self, *args):
        return self.fp.seek(*args)

    def tell(self):
        return self.fp.tell()


def save_checkpoint(ckpt, path):
    """Write magic, version, CRC32 of the payload, then the payload: a JSON
    meta block and named tensor blocks in the binary tensor format.

    The file is streamed to a temporary file beside ``path`` and renamed over
    it once whole, so a failed save leaves any earlier file untouched."""
    meta = {
        "stage": ckpt.stage,
        "iteration": ckpt.iteration,
        "config": ckpt.config,
        "adam": {net: {"t": st.t} for net, st in ckpt.adam.items()},
    }
    if ckpt.train_split_sha256 is not None:
        meta["train_split_sha256"] = ckpt.train_split_sha256
    blocks = []
    for net in sorted(ckpt.params):
        ps = ckpt.params[net]
        for name in sorted(ps.tensors):
            blocks.append((f"{net}/param/{name}", ps.tensors[name].values))
        for name in sorted(ps.buffers):
            blocks.append((f"{net}/buffer/{name}", ps.buffers[name]))
    for net in sorted(ckpt.adam):
        st = ckpt.adam[net]
        for name in sorted(st.m):
            blocks.append((f"{net}/adam_m/{name}", st.m[name]))
            blocks.append((f"{net}/adam_v/{name}", st.v[name]))

    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fp:
            fp.write(CHECKPOINT_MAGIC)
            fp.write(struct.pack("<II", CHECKPOINT_VERSION, 0))  # CRC written last
            body = _CrcWriter(fp)
            meta_raw = json.dumps(meta, sort_keys=True).encode()
            body.write(struct.pack("<I", len(meta_raw)))
            body.write(meta_raw)
            body.write(struct.pack("<I", len(blocks)))
            for name, arr in blocks:
                raw = name.encode()
                body.write(struct.pack("<H", len(raw)))
                body.write(raw)
                write_array(body, arr)
            fp.seek(8)
            fp.write(struct.pack("<I", body.crc))
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


_META_KEYS = {  # each meta key's test (JSON true is no int); only the hash may be absent
    "stage": lambda v: type(v) is int and v in (1, 2),
    "iteration": lambda v: type(v) is int and v >= 0,
    "config": lambda v: isinstance(v, dict),
    "adam": lambda v: isinstance(v, dict) and all(
        isinstance(st, dict) and type(st.get("t")) is int and st["t"] >= 0
        for st in v.values()),
    "train_split_sha256": lambda v: v is None or isinstance(v, str),
}


def load_checkpoint(path, nets=None):
    """Read a checkpoint, one block at a time straight into its own array.
    With ``nets``, keep only those networks' parameters and buffers and no
    Adam state; every other block is still read through the checksum, then
    dropped. Adam hyperparameters that files before 0.3.0 carry are ignored."""
    with open(path, "rb") as fp:
        head = fp.read(12)
        if len(head) < 12 or head[:4] != CHECKPOINT_MAGIC:
            raise IntegrityError(f"{path}: not a checkpoint (bad magic)")
        version, crc = struct.unpack("<II", head[4:12])
        if version != CHECKPOINT_VERSION:
            raise UnsupportedVersionError(
                f"{path}: checkpoint version {version}, expected {CHECKPOINT_VERSION}")
        body = _CrcReader(fp)
        params, adam_arrays = {}, {}
        try:
            meta_len, = struct.unpack("<I", body.read(4))
            if meta_len > os.fstat(fp.fileno()).st_size - fp.tell():  # before reading it
                raise IntegrityError("meta block longer than the file")
            meta = json.loads(body.read(meta_len))
            n_blocks, = struct.unpack("<I", body.read(4))
            for _ in range(n_blocks):
                name_len, = struct.unpack("<H", body.read(2))
                net, kind, pname = body.read(name_len).decode().split("/", 2)
                arr = read_array(body)
                if nets is not None and (net not in nets or kind not in ("param", "buffer")):
                    continue
                if kind == "param":
                    ps = params.setdefault(net, ParameterSet())
                    ps.tensors[pname] = Tensor(arr, requires_grad=True)
                elif kind == "buffer":
                    params.setdefault(net, ParameterSet()).buffers[pname] = arr
                else:
                    adam_arrays.setdefault(net, {}).setdefault(kind, {})[pname] = arr
            body.read()  # trailing bytes count towards the checksum
        except (struct.error, ValueError, IntegrityError) as e:  # a corrupt length or name
            raise IntegrityError(f"{path}: corrupt or truncated ({e})") from None
    if body.crc != crc:
        raise IntegrityError(f"{path}: checksum mismatch (corrupt or truncated)")
    for key, ok in _META_KEYS.items():
        if not (isinstance(meta, dict) and ok(meta.get(key))):
            raise IntegrityError(f"{path}: meta key {key!r} missing or malformed")

    adam = {}
    for net, scalars in (meta["adam"] if nets is None else {}).items():
        arrs = adam_arrays.get(net, {})
        adam[net] = AdamState(m=arrs.get("adam_m", {}), v=arrs.get("adam_v", {}),
                              t=scalars["t"])
    return Checkpoint(stage=meta["stage"], iteration=meta["iteration"],
                      config=meta["config"], params=params, adam=adam,
                      train_split_sha256=meta.get("train_split_sha256"))


# -- shared training plumbing -------------------------------------------------


_RESUME_MAY_CHANGE = ("iterations", "checkpoint_every", "log_every")


def _train_split_sha256(store):
    records = store.split_records("train")
    if not records:
        raise ConfigError("store has no train clips")
    return records_sha256(records)


def _check_resume(resume, stage, cfg, train_sha):
    """A resume continues the same run: the checkpoint is of this stage, its
    config equals ``cfg`` in every key but the schedule lengths, and it was
    trained on the train split whose hash is ``train_sha`` (when it records one)."""
    if resume.stage != stage:
        raise ConfigError(f"expected a stage-{stage} checkpoint, got stage {resume.stage}")
    saved = resume.run_config().as_dict()
    differ = [f"{k} ({saved[k]!r} -> {v!r})" for k, v in cfg.as_dict().items()
              if k not in _RESUME_MAY_CHANGE and saved[k] != v]
    if differ:
        raise ConfigError("config differs from the resumed checkpoint's in "
                          + ", ".join(differ))
    if resume.train_split_sha256 not in (None, train_sha):
        raise ConfigError("the resumed checkpoint was trained on a different "
                          "train split than this store's")


def _init_seed(cfg, tag):
    return np.random.SeedSequence(entropy=cfg.seed, spawn_key=(_INIT_TAG, tag))


class _RunWriter:
    """losses.csv rows, progress lines, and periodic checkpoints. A run
    resumed at iteration ``start`` first drops the rows after ``start``."""

    def __init__(self, out_dir, cfg, stage, start=0):
        self.cfg = cfg
        self.stage = stage
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.csv = None
        if self.out_dir is not None:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            path = self.out_dir / "losses.csv"
            rows = [LossReport.CSV_HEADER]
            if start and path.exists():
                rows += [row for row in path.read_text().splitlines()[1:]
                         if int(row.split(",", 1)[0]) <= start]
            tmp = path.with_suffix(".tmp")  # old rows stay until the new file is whole
            tmp.write_text("\n".join(rows) + "\n")
            tmp.replace(path)
            self.csv = open(path, "a")

    def report(self, rep):
        if self.csv is not None:
            self.csv.write(rep.csv_row() + "\n")
            self.csv.flush()
        if rep.iteration % self.cfg.log_every == 0:
            print(f"iter={rep.iteration} adv_d={rep.adv_d:.6f} "
                  f"adv_g={rep.adv_g:.6f} content={rep.content:.6f} "
                  f"rank={rep.rank:.6f}", flush=True)

    def maybe_checkpoint(self, ckpt, final=False):
        if self.out_dir is not None and (
                final or ckpt.iteration % self.cfg.checkpoint_every == 0):
            tag = "final" if final else f"iter{ckpt.iteration:06d}"
            save_checkpoint(ckpt, self.out_dir / f"stage{self.stage}_{tag}.mdck")

    def close(self):
        if self.csv is not None:
            self.csv.close()


def _alternate(store, cfg, out_dir, stage, start, params, adam, phases, train_sha):
    """Iterations ``start`` .. ``cfg.iterations`` of the alternating schedule.

    ``phases`` holds the discriminator, then the generator phase, as (network,
    objective); ``objective(y, x)`` returns the loss that network descends and
    a dict of its ``LossReport`` terms. Each phase draws its own batch, and
    while it runs the other phase's network does not require grad, so
    backward computes no gradient that Adam would discard. A phase that
    diverges raises ``TrainingDiverged`` with every network's parameters,
    Adam state and batch-norm running statistics as they were before it.
    Checkpoints record ``train_sha``, the hash of the store's train split.
    Returns (final Checkpoint, list of LossReports).
    """
    writer = _RunWriter(out_dir, cfg, stage, start)
    reports, ckpt = [], None
    try:
        for it in range(start, cfg.iterations):
            terms = {}
            for k, (net, objective) in enumerate(phases):
                frozen = [t for other, _ in phases if other != net
                          for t in params[other].tensors.values()]
                for t in frozen:
                    t.requires_grad = False
                buffers = [(b, b.copy()) for ps in params.values()
                           for b in ps.buffers.values()]
                try:
                    y, x = load_batch(store, "train", cfg.batch_size, cfg.seed,
                                      2 * it + k)
                    loss, phase_terms = objective(y, x)
                    if not np.all(np.isfinite(loss.values)):
                        raise TrainingDiverged(f"non-finite loss for {net}")
                    backward(loss)
                    grads = {name: t.grad for name, t in params[net].tensors.items()
                             if t.grad is not None}
                    adam_step(params[net], grads, adam[net], cfg)
                except TrainingDiverged:
                    for b, saved in buffers:  # the forwards' running statistics
                        b[...] = saved
                    raise
                finally:
                    for t in frozen:
                        t.requires_grad = True
                for other, _ in phases:
                    params[other].zero_grad()
                terms.update(phase_terms)
                del loss, grads  # free this phase's tape before the next forward
            rep = LossReport(iteration=it + 1, lam=cfg.lambda_rank, **terms)
            reports.append(rep)
            writer.report(rep)
            ckpt = Checkpoint(stage=stage, iteration=it + 1, config=cfg.as_dict(),
                              params=params, adam=adam, train_split_sha256=train_sha)
            writer.maybe_checkpoint(ckpt)
        if ckpt is not None:
            writer.maybe_checkpoint(ckpt, final=True)
    finally:
        writer.close()
    return ckpt, reports


# -- stage 1 ------------------------------------------------------------------


def stage1_d_objective(nets, y, x):
    """The discriminator's loss on one batch,
    -mean[log D(Y) + log(1 - D(G1(X)))], and its report term adv_d;
    gradients flow only into D1."""
    g_spec, g_params, d_spec, d_params = nets
    with no_grad():
        y1 = forward_generator(g_spec, g_params, x)
    d_real, _ = forward_discriminator(d_spec, d_params, y)
    d_fake, _ = forward_discriminator(d_spec, d_params, y1)
    loss_d = discriminator_adversarial(d_real, d_fake)
    return loss_d, {"adv_d": loss_d.item()}


def stage1_g_objective(nets, y, x):
    """The generator's descent objective on one batch,
    mean[log(1 - D(G1(X)))] + content, and its report terms adv_g and
    content; the discriminator's gradients are cleared before its next step."""
    g_spec, g_params, d_spec, d_params = nets
    y1 = forward_generator(g_spec, g_params, x)
    d_fake, _ = forward_discriminator(d_spec, d_params, y1)
    adv_g = generator_adversarial(d_fake)
    l_con = content_loss(y, y1)
    return adv_g + l_con, {"adv_g": adv_g.item(), "content": l_con.item()}


def train_stage1(store, cfg, out_dir=None, resume=None):
    """Alternating content-stage training over a clip store's train split.

    Returns (final Checkpoint, list of LossReports). ``resume`` continues a
    saved stage-1 checkpoint to ``cfg.iterations`` total iterations.
    """
    cfg.validate()
    train_sha = _train_split_sha256(store)
    g_spec = build_generator(1, cfg.resolution, cfg.width_multiplier)
    d_spec = build_discriminator(cfg.resolution, cfg.width_multiplier)

    if resume is not None:
        _check_resume(resume, 1, cfg, train_sha)
        params, adam, start = resume.params, resume.adam, resume.iteration
        params["d1"].buffers.clear()  # unread running statistics older files carry
    else:
        params = {"g1": init_parameters(g_spec, _init_seed(cfg, 1)),
                  "d1": init_parameters(d_spec, _init_seed(cfg, 2))}
        adam = {net: AdamState.fresh(ps) for net, ps in params.items()}
        start = 0
    nets = (g_spec, params["g1"], d_spec, params["d1"])
    phases = (("d1", partial(stage1_d_objective, nets)),
              ("g1", partial(stage1_g_objective, nets)))
    return _alternate(store, cfg, out_dir, 1, start, params, adam, phases, train_sha)


# -- stage 2 ------------------------------------------------------------------


def _gram_triples(feats_y1, feats_y2, feats_real):
    return [(gram(f1), gram(f2), gram(fr))
            for f1, f2, fr in zip(feats_y1, feats_y2, feats_real)]


def stage2_d_objective(nets, y, x, lam):
    """The discriminator's descent form of its ascent objective
    mean[log D(Y) + log(1 - D(G2(Y1)))] + lam * rank on one batch, that is
    loss_d - lam * rank, and its report term adv_d = loss_d; gradients flow
    only into D2."""
    g1_spec, g1_params, g2_spec, g2_params, d_spec, d_params = nets
    with no_grad():
        y1 = forward_generator(g1_spec, g1_params, x, update_running=False)
        y2 = forward_generator(g2_spec, g2_params, y1)
    d_real, feats_real = forward_discriminator(d_spec, d_params, y)
    d_fake, feats_y2 = forward_discriminator(d_spec, d_params, y2)
    _, feats_y1 = forward_discriminator(d_spec, d_params, y1)
    loss_d = discriminator_adversarial(d_real, d_fake)
    rank = rank_loss_total(_gram_triples(feats_y1, feats_y2, feats_real))
    return loss_d - lam * rank, {"adv_d": loss_d.item()}


def stage2_g_objective(nets, y, x, lam):
    """The generator's descent objective on one batch,
    mean[log(1 - D(G2(Y1)))] + lam * rank + content, and its report terms
    adv_g, rank and content; gradients flow only into G2."""
    g1_spec, g1_params, g2_spec, g2_params, d_spec, d_params = nets
    with no_grad():
        y1 = forward_generator(g1_spec, g1_params, x, update_running=False)
        _, feats_real = forward_discriminator(d_spec, d_params, y)
        _, feats_y1 = forward_discriminator(d_spec, d_params, y1)
    y2 = forward_generator(g2_spec, g2_params, y1)
    d_fake, feats_y2 = forward_discriminator(d_spec, d_params, y2)
    adv_g = generator_adversarial(d_fake)
    rank = rank_loss_total(_gram_triples(feats_y1, feats_y2, feats_real))
    l_con = content_loss(y, y2)
    return adv_g + lam * rank + l_con, {"adv_g": adv_g.item(), "rank": rank.item(),
                                        "content": l_con.item()}


def _same_bits(ps, other):
    """Whether two parameter sets hold the same names, dtypes, shapes and bits,
    each pair compared in place: -0.0 is not 0.0, and NaN payloads count."""
    mine, theirs = (([(k, t.values) for k, t in sorted(p.tensors.items())]
                     + sorted(p.buffers.items())) for p in (ps, other))
    return len(mine) == len(theirs) and all(
        k == j and a.dtype == b.dtype
        and np.array_equal(a.view(f"u{a.itemsize}"), b.view(f"u{a.itemsize}"))
        for (k, a), (j, b) in zip(mine, theirs))


def train_stage2(store, cfg, g1_checkpoint, out_dir=None, resume=None):
    """Refine-stage training per the two-phase procedure, with the stage-1
    generator frozen. ``g1_checkpoint`` supplies the trained stage-1
    parameters; G2 starts from a copy of them (identical shapes). ``resume``
    must carry that same stage-1 generator."""
    cfg.validate()
    if g1_checkpoint is None:
        raise ConfigError("stage 2 requires a stage-1 checkpoint")
    train_sha = _train_split_sha256(store)
    ck_cfg = g1_checkpoint.run_config()
    if (ck_cfg.resolution, ck_cfg.width_multiplier) != \
            (cfg.resolution, cfg.width_multiplier):
        raise ConfigError(
            "stage-1 checkpoint geometry "
            f"(res {ck_cfg.resolution}, width {ck_cfg.width_multiplier}) does not "
            f"match config (res {cfg.resolution}, width {cfg.width_multiplier})")
    if "g1" not in g1_checkpoint.params:
        raise ConfigError("checkpoint carries no stage-1 generator parameters")

    g1_spec = build_generator(1, cfg.resolution, cfg.width_multiplier)
    g2_spec = build_generator(2, cfg.resolution, cfg.width_multiplier)
    d_spec = build_discriminator(cfg.resolution, cfg.width_multiplier)
    g1_params = g1_checkpoint.params["g1"]

    if resume is not None:
        _check_resume(resume, 2, cfg, train_sha)
        saved_g1 = resume.params.get("g1", ParameterSet())
        if not _same_bits(saved_g1, g1_params):
            raise ConfigError("the stage-2 checkpoint was trained on a different "
                              "stage-1 generator than the one given")
        params, adam, start = resume.params, resume.adam, resume.iteration
        params["d2"].buffers.clear()  # unread running statistics older files carry
    else:
        params = {"g1": g1_params, "g2": g1_params.clone(),
                  "d2": init_parameters(d_spec, _init_seed(cfg, 4))}
        adam = {net: AdamState.fresh(params[net]) for net in ("g2", "d2")}
        start = 0
    nets = (g1_spec, params["g1"], g2_spec, params["g2"], d_spec, params["d2"])
    phases = (("d2", partial(stage2_d_objective, nets, lam=cfg.lambda_rank)),
              ("g2", partial(stage2_g_objective, nets, lam=cfg.lambda_rank)))
    return _alternate(store, cfg, out_dir, 2, start, params, adam, phases, train_sha)


# -- generation ---------------------------------------------------------------


def generate_video(ckpt, first_frame):
    """Run the stage pipeline recorded in a checkpoint on a normalized
    (N,3,H,W) frame: duplicate to 32 frames, apply G1, then G2 if present."""
    cfg = ckpt.run_config()
    res = cfg.resolution
    if tuple(first_frame.shape[1:]) != (3, res, res):
        raise ConfigError(
            f"frame shape {first_frame.shape[1:]} does not match checkpoint "
            f"resolution {res}")
    mode = "inference" if cfg.generation_bn_mode == "running" else "train"
    with no_grad():
        x = duplicate_frame(first_frame.values, CLIP_FRAMES)
        g1_spec = build_generator(1, res, cfg.width_multiplier)
        video = forward_generator(g1_spec, ckpt.params["g1"], x, mode,
                                  update_running=False)
        if ckpt.stage == 2:
            g2_spec = build_generator(2, res, cfg.width_multiplier)
            video = forward_generator(g2_spec, ckpt.params["g2"], video, mode,
                                      update_running=False)
    return video
