"""The benchmark's three workloads: set-up, timed operations and checks.

Each workload is a closed loop with one caller: every command starts when
the one before has returned. Commands run in-process through
``lapsegan.cli.main``; full-scale training goes through
``training.train_stage1`` so that its in-memory checkpoint can be compared
with the file it wrote. Every workload reports every end-to-end metric.
A phase outside a workload's focus runs as a short "companion" pass at
64x64, width 1/8, batch 1 on a store of its own.

The timed operations run in rounds, so that the samples of every metric
are spread over the whole run rather than bunched in one stretch of it:
the machine's speed drifts over tens of seconds, and a median over samples
from one short stretch follows that drift.
"""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import resource
import statistics
import time
import zlib
from collections import defaultdict
from pathlib import Path

import numpy as np

import references as ref
from lapsegan import cli, data, models, ops, training
from lapsegan.config import load_config
from lapsegan.tensor import Tensor

SETUP_REPEATS = 3
ROUNDS = 6
GENERATES = 4    # desk-scale generate commands per round
CONV_TOL = 4e-14       # float64 conv/deconv against the direct references
ADJOINT_TOL = 1e-13
METRIC_TOL = 1e-9      # evaluation CSV against recomputed metrics
NO_CHECKPOINT = 10 ** 6  # checkpoint_every that leaves only the final file
COMPANION_EVAL = 4
LAMBDA_RANK = 1.0  # the default ranking weight every training run uses


class _Progress(io.TextIOBase):
    """stdout of a command: the time of each training progress line."""

    def __init__(self):
        self.stamps = []

    def write(self, s):
        if s.startswith("iter="):
            self.stamps.append(time.perf_counter())
        return len(s)


class Pass:
    """One pass of a workload: its timings, operation counts and checks."""

    def __init__(self, work, seed, seconds, tracer=None):
        self.work = Path(work)
        self.work.mkdir(parents=True, exist_ok=True)
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.setups = []
        self.warmups = defaultdict(list)  # first iteration of each training run, by phase
        self.once = 0.0   # set-up done once: checkpoint creation, the warm-up generate
        self.samples = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.checks = []
        self.round = 0
        self.current = ""
        self.peak_rss_mb = None
        self.rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))

    def phase(self, name):
        self.current = name
        if self.tracer is not None:
            self.tracer.phase = name

    @contextlib.contextmanager
    def setup(self, repeated=True):
        self.phase("setup")
        start = time.perf_counter()
        yield
        if repeated:
            self.setups.append(time.perf_counter() - start)
        else:
            self.once += time.perf_counter() - start

    def command(self, *argv):
        """Run one lapsegan command; returns (exit code, seconds, progress stamps)."""
        out = _Progress()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main([str(a) for a in argv])
        return code, time.perf_counter() - start, [start] + out.stamps

    def iterations(self, kind, iterations, run):
        """Time the iterations of a training run. ``run`` returns (exit
        code, progress stamps led by the start time); the first iteration
        is the run's warm-up, a set-up sample of its phase, and the rest are
        samples of ``kind`` (None keeps none)."""
        self.attempted += iterations
        code, stamps = run()
        times = np.diff(stamps).tolist()
        if code != 0:
            self.failed += max(1, iterations - len(times))
        if times:
            self.warmups[self.current].append(times[0])
            if kind is not None:
                self.samples[kind] += times[1:]

    def train_cli(self, kind, stage, argv, iterations):
        def run():
            code, _, stamps = self.command(f"train-stage{stage}", *argv,
                                           "--iterations", iterations)
            return code, stamps
        self.iterations(kind, iterations, run)

    def generate(self, ckpt, frame, out, warmup=False):
        code, seconds, _ = self.command("generate", "--checkpoint", ckpt,
                                        "--frame", frame, "--out", out)
        self.attempted += 1
        self.failed += code != 0
        if code != 0:
            return
        if warmup:
            self.once += seconds
        else:
            self.samples["generate_s"].append(seconds)

    def evaluate(self, ckpt, store, n, out):
        code, seconds, _ = self.command("evaluate", "--checkpoint", ckpt, "--store", store,
                                        "--n", n, "--seed", self.seed, "--out", out)
        self.attempted += n
        self.failed += n if code else 0
        if code == 0:
            self.samples["eval_clips_per_s"].append(n / seconds)

    def end_timed(self):
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def check(self, name, ok, detail):
        self.checks.append((name, bool(ok), detail))

    def metrics(self):
        med = {k: statistics.median(v) for k, v in self.samples.items()}
        return {
            "stage1_s_per_iter": med["stage1"],
            "stage2_s_per_iter": med["stage2"],
            "eval_clips_per_s": med["eval_clips_per_s"],
            "generate_s": med["generate_s"],
            "peak_rss_mb": self.peak_rss_mb,
            # one set-up: a store build, a warm-up iteration of each training
            # phase, and what is done only once (medians where repeated)
            "setup_s": statistics.median(self.setups) + self.once
            + sum(statistics.median(v) for v in self.warmups.values()),
        }


# -- shared steps -------------------------------------------------------------


def synth_store(p, out, n_sources, frames, resolution, test_fraction):
    code, _, _ = p.command("synth-data", "--out", out, "--n-sources", n_sources,
                           "--frames-per-source", frames, "--resolution", resolution,
                           "--test-fraction", test_fraction, "--seed", p.seed)
    if code != 0:
        raise RuntimeError(f"synth-data exited {code}")
    return Path(out)


def companion(p, store, stage1_iterations, serve):
    """One round of stage 1, stage 2 and, with ``serve``, generate and
    evaluate at 64x64, width 1/8, batch 1 on ``store``. Stage-1 samples are
    kept only when it runs more than its warm-up iteration."""
    n = companion_iterations(p)
    common = ["--store", store, "--resolution", 64, "--width-multiplier", 0.125,
              "--batch-size", 1, "--seed", p.seed, "--checkpoint-every", NO_CHECKPOINT]
    run1, run2 = p.work / f"companion1-r{p.round}", p.work / f"companion2-r{p.round}"
    p.phase("companion-stage1")
    p.train_cli("stage1" if stage1_iterations > 1 else None, 1, common + ["--out", run1],
                stage1_iterations)
    p.phase("companion-stage2")
    p.train_cli("stage2", 2, common + ["--out", run2, "--g1-checkpoint",
                                       run1 / "stage1_final.mdck"], n + 1)
    if serve:
        ckpt = run2 / "stage2_final.mdck"
        p.phase("companion-generate")
        for k in range(GENERATES // 2 + (p.round == 0)):
            p.generate(ckpt, store / "frames" / f"synth{k % 8:03d}" / "frame_0000.ppm",
                       p.work / f"cgen{p.round}-{k}", warmup=p.round == k == 0)
        p.phase("companion-evaluate")
        p.evaluate(ckpt, store, COMPANION_EVAL, p.work / f"ceval{p.round}.csv")


def companion_store(p, k):
    # 8 one-clip sources; the split puts 4 of them in test
    return synth_store(p, p.work / f"cstore{k}", 8, 32, 64, 0.5)


def companion_iterations(p):
    return max(1, p.seconds // 20)


def check_companion(p, stage1_iterations, serve):
    """Loss identities of every companion training run and, for a serving
    companion, the recomputed rows of its last evaluation."""
    for r in range(ROUNDS):
        for stage, rows in ((1, stage1_iterations), (2, companion_iterations(p) + 1)):
            check_losses(p, f"companion stage-{stage} losses.csv, round {r}",
                         p.work / f"companion{stage}-r{r}" / "losses.csv", rows)
    if serve:
        last = ROUNDS - 1
        ckpt = training.load_checkpoint(p.work / f"companion2-r{last}" / "stage2_final.mdck")
        check_evaluation(p, "companion evaluation rows", ckpt, p.cstore,
                         p.work / f"ceval{last}.csv", COMPANION_EVAL, 2)


def read_losses(path):
    with open(path) as fp:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fp)]


def check_losses(p, name, path, iterations):
    rows = read_losses(path)
    errors = ref.loss_identity_errors(rows, LAMBDA_RANK)
    if len(rows) != iterations:
        errors.append(f"{len(rows)} rows for {iterations} iterations")
    p.check(name, not errors, errors[0] if errors else f"{len(rows)} finite rows, identities hold")


def check_evaluation(p, name, ckpt, store_dir, csv_path, n, sample):
    """Recompute MSE, PSNR and SSIM of sampled CSV rows with numpy and the
    scipy SSIM reference, from the (loaded) checkpoint's video of each clip."""
    with open(csv_path) as fp:
        rows = [r for r in csv.DictReader(fp) if r["clip_id"] != "MEAN"]
    if len(rows) != n:
        p.check(name, False, f"{len(rows)} rows for {n} clips")
        return
    store = data.ClipStore(store_dir)
    by_id = {f"{r.source_id}/{r.clip_index}": r for r in store.split_records("test")}
    worst = 0.0
    for i in p.rng.choice(len(rows), size=min(sample, len(rows)), replace=False):
        row = rows[int(i)]
        clip = store.load_clip(by_id[row["clip_id"]])
        frame = Tensor(data.normalize_pixels(clip[:, 0])[None])
        video = ref.unit_range(training.generate_video(ckpt, frame).values[0])
        truth = clip / 255.0
        err = ref.mse_reference(video, truth)
        for got, want in ((row["mse"], err), (row["psnr_db"], ref.psnr_reference(err)),
                          (row["ssim"], ref.ssim_reference(video, truth))):
            worst = max(worst, abs(float(got) - want))
    p.check(name, worst <= METRIC_TOL,
            f"{min(sample, n)} of {n} rows, worst |CSV - reference| {worst:.2e}")


def _layer_inputs(spec):
    in_spatial = spec.input_shape[1:]
    for layer in spec.layers:
        yield layer, tuple(in_spatial)
        in_spatial = layer.out_shape[1:]


def check_convolutions(p, name, specs, channels, positions=None):
    """conv3d/deconv3d in float64 at every layer geometry of ``specs`` with
    at most ``channels`` channels, against the scipy convolution (or the
    direct sums at ``positions`` sampled output positions), plus the
    adjoint identity on the transposed layers."""
    worst, worst_adj, seen = 0.0, 0.0, set()
    for spec in specs:
        for layer, in_spatial in _layer_inputs(spec):
            prm = layer.params
            key = (prm.kernel, prm.stride, prm.padding, prm.transposed, in_spatial,
                   min(layer.in_channels, channels), min(layer.out_channels, channels))
            if key in seen:
                continue
            seen.add(key)
            cin, cout = key[-2:]
            prm = dataclasses.replace(prm, num_filters=cout)
            x = p.rng.standard_normal((1, cin) + in_spatial)
            wshape = (cin, cout) if prm.transposed else (cout, cin)
            w = p.rng.standard_normal(wshape + tuple(prm.kernel))
            b = p.rng.standard_normal(cout)
            op = ops.deconv3d if prm.transposed else ops.conv3d
            got = op(Tensor(x), Tensor(w), Tensor(b), prm).values
            if positions is None:
                full = ref.deconv3d_scipy if prm.transposed else ref.conv3d_scipy
                want = full(x, w, b, prm.stride, prm.padding)
            else:
                pos = np.stack([p.rng.integers(0, e, positions)
                                for e in got.shape[:1] + got.shape[2:]], 1)
                at = ref.deconv3d_at if prm.transposed else ref.conv3d_at
                want = at(x, w, b, prm.stride, prm.padding, pos)
                got = got[pos[:, 0], :, pos[:, 1], pos[:, 2], pos[:, 3]]
            worst = max(worst, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
            if prm.transposed:
                conv_prm = dataclasses.replace(prm, num_filters=cin, transposed=False)
                zero_in, zero_out = Tensor(np.zeros(cin)), Tensor(np.zeros(cout))
                y = p.rng.standard_normal((1, cout) + layer.out_shape[1:])
                worst_adj = max(worst_adj, ref.adjoint_gap(
                    lambda v, wt: ops.conv3d(Tensor(v), Tensor(wt), zero_in, conv_prm).values,
                    lambda v, wt: ops.deconv3d(Tensor(v), Tensor(wt), zero_out, prm).values,
                    x, y, w))
    p.check(name, worst <= CONV_TOL and worst_adj <= ADJOINT_TOL,
            f"{len(seen)} geometries, worst relative error {worst:.1e}, "
            f"worst adjoint gap {worst_adj:.1e}")


def read_frames(out_dir, resolution):
    """The 32 P6 frames a ``generate`` wrote, as (32, H, W, 3) uint8, or
    None if any is missing or malformed."""
    header = f"P6\n{resolution} {resolution}\n255\n".encode()
    frames = []
    for t in range(32):
        path = Path(out_dir) / f"frame_{t:03d}.ppm"
        raw = path.read_bytes() if path.is_file() else b""
        if not raw.startswith(header) or len(raw) != len(header) + 3 * resolution ** 2:
            return None
        frames.append(np.frombuffer(raw[len(header):], np.uint8).reshape(resolution, resolution, 3))
    return np.stack(frames)


# -- desk-pipeline ------------------------------------------------------------


class DeskPipeline:
    """The README walkthrough at desk scale: 64x64, width 1/8, batch 2.
    Each round trains stage 1 from scratch, then stage 2 on the stage-1
    checkpoint read from disk, then generates and evaluates."""

    name = "desk-pipeline"
    batch = 2
    bn_mode = "train"
    layer_repeats = 3  # traced layer passes; one suffices at full scale
    eval_clips = 4

    def run(self, p):
        n = max(1, p.seconds // 20)
        for k in range(SETUP_REPEATS):
            with p.setup():
                # 12 sources of 2 clips; the split puts exactly 12 clips in test
                store = synth_store(p, p.work / f"store{k}", 12, 64, 64, 0.5)
        sources = sorted((store / "frames").iterdir())
        for p.round in range(ROUNDS):
            run1, run2 = p.work / f"run1-r{p.round}", p.work / f"run2-r{p.round}"
            common = ["--store", store, "--resolution", 64, "--width-multiplier", 0.125,
                      "--batch-size", self.batch, "--seed", p.seed,
                      "--checkpoint-every", 1]
            p.phase("stage1")
            p.train_cli("stage1", 1, common + ["--out", run1], n + 1)
            p.phase("stage2")
            p.train_cli("stage2", 2, common + ["--out", run2, "--g1-checkpoint",
                                               run1 / "stage1_final.mdck"], n + 1)
            p.phase("generate")
            ckpt = run2 / "stage2_final.mdck"
            for k in range(GENERATES + (p.round == 0)):
                frame = sources[k % len(sources)] / "frame_0000.ppm"
                p.generate(ckpt, frame, p.work / f"gen{p.round}-{k}", warmup=p.round == k == 0)
            p.phase("evaluate")
            p.evaluate(ckpt, store, self.eval_clips, p.work / f"eval{p.round}.csv")
        p.end_timed()
        p.store, p.iters = store, n + 1

    def check(self, p):
        for r in range(ROUNDS):
            run1, run2 = p.work / f"run1-r{r}", p.work / f"run2-r{r}"
            check_losses(p, f"stage-1 losses.csv, round {r}", run1 / "losses.csv", p.iters)
            check_losses(p, f"stage-2 losses.csv, round {r}", run2 / "losses.csv", p.iters)
            s1 = training.load_checkpoint(run1 / "stage1_final.mdck").params["g1"]
            s2 = training.load_checkpoint(run2 / "stage2_final.mdck")
            g1 = s2.params["g1"]
            same = (s1.tensors.keys() == g1.tensors.keys()
                    and s1.buffers.keys() == g1.buffers.keys()
                    and all(s1.tensors[k].values.tobytes() == g1.tensors[k].values.tobytes()
                            for k in s1.tensors)
                    and all(s1.buffers[k].tobytes() == g1.buffers[k].tobytes()
                            for k in s1.buffers))
            p.check(f"G1 frozen through stage 2, round {r}", same,
                    f"{len(s1.tensors)} tensors and {len(s1.buffers)} buffers bitwise equal")
            check_evaluation(p, f"evaluation rows, round {r}", s2, p.store,
                             p.work / f"eval{r}.csv", self.eval_clips, 1)
        check_convolutions(p, "conv3d/deconv3d vs scipy", self.specs(), channels=2)

    def specs(self):
        return [models.build_generator(1, 64, 0.125), models.build_discriminator(64, 0.125)]


# -- full-train -------------------------------------------------------------------


class FullTrain:
    """Stage-1 iterations at the paper's geometry: 128x128, width 1, batch 1,
    ending with the final checkpoint, then the companion rounds."""

    name = "full-train"
    batch = 1
    bn_mode = "train"
    layer_repeats = 1

    def run(self, p):
        n = max(2, p.seconds // 8)
        for k in range(SETUP_REPEATS):
            with p.setup():
                store = synth_store(p, p.work / f"store{k}", 4, 32, 128, 0.5)
                p.cstore = companion_store(p, k)
        cfg = load_config(None, {"resolution": 128, "width_multiplier": 1.0,
                                 "batch_size": self.batch, "seed": p.seed,
                                 "iterations": n + 1, "checkpoint_every": NO_CHECKPOINT})

        def stage1():
            out = _Progress()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out):
                p.final, p.reports = training.train_stage1(
                    data.ClipStore(store), cfg, out_dir=p.work / "run1")
            return 0, [start] + out.stamps

        # companion commands run about 20% faster after the full-scale run
        # than before it, so that all of them run on one side of it
        p.phase("stage1")
        p.iterations("stage1", n + 1, stage1)
        for p.round in range(ROUNDS):
            companion(p, p.cstore, 1, serve=True)
        p.end_timed()
        p.iters = n + 1

    def check(self, p):
        rows = [dataclasses.asdict(r) for r in p.reports]
        for row in rows:
            row["iter"] = float(row.pop("iteration"))
            del row["lam"]
        errors = ref.loss_identity_errors(rows, LAMBDA_RANK)
        p.check("stage-1 in-memory losses", not errors and len(rows) == p.iters,
                errors[0] if errors else f"{len(rows)} finite reports, identities hold")
        check_losses(p, "stage-1 losses.csv", p.work / "run1" / "losses.csv", p.iters)
        path = p.work / "run1" / "stage1_final.mdck"
        raw = path.read_bytes()
        crc_ok = int.from_bytes(raw[8:12], "little") == zlib.crc32(raw[12:])
        del raw
        disk, mem = training.load_checkpoint(path), p.final
        same = all(
            disk.params[net].tensors[k].values.tobytes() == t.values.tobytes()
            for net, ps in mem.params.items() for k, t in ps.tensors.items()) and all(
            disk.params[net].buffers[k].tobytes() == b.tobytes()
            for net, ps in mem.params.items() for k, b in ps.buffers.items()) and all(
            disk.adam[net].m[k].tobytes() == st.m[k].tobytes()
            and disk.adam[net].v[k].tobytes() == st.v[k].tobytes() and disk.adam[net].t == st.t
            for net, st in mem.adam.items() for k in st.m)
        p.check("final checkpoint", crc_ok and same and disk.iteration == p.iters,
                f"CRC {'ok' if crc_ok else 'BAD'}, parameters, buffers and Adam state "
                f"{'bitwise equal' if same else 'DIFFER'}, {path.stat().st_size / 1e6:.0f} MB")
        del disk, mem, p.final
        check_companion(p, 1, serve=True)
        check_convolutions(p, "conv3d/deconv3d at 128x128 vs direct sums", self.specs(),
                           channels=16, positions=24)

    def specs(self):
        return [models.build_generator(1, 128, 1.0), models.build_discriminator(128, 1.0)]


# -- full-generate -------------------------------------------------------------


class FullGenerate:
    """``generate`` and ``evaluate`` with a 128x128, width-1 stage-2
    checkpoint drawn at set-up from seeded ``ops.init_parameters``, with
    biases, beta and running statistics redrawn away from 0 and 1. Each
    round runs one ``generate``, one ``evaluate`` and a companion round."""

    name = "full-generate"
    batch = 1
    bn_mode = "inference"
    layer_repeats = 1
    eval_clips = 1

    def run(self, p):
        cfg = load_config(None, {"resolution": 128, "width_multiplier": 1.0, "seed": p.seed})
        g1_spec, g2_spec = self.specs()
        ckpt = p.work / "stage2.mdck"
        for k in range(SETUP_REPEATS):
            with p.setup():
                store = synth_store(p, p.work / f"store{k}", 4, 32, 128, 0.5)
                p.cstore = companion_store(p, k)
        with p.setup(repeated=False):
            seeds = np.random.SeedSequence(entropy=p.seed).spawn(3)
            params = {"g1": ops.init_parameters(g1_spec, seeds[0]),
                      "g2": ops.init_parameters(g2_spec, seeds[1])}
            # init_parameters leaves biases, beta and the running statistics
            # at 0 and 1, where the check below could not see the inference
            # path drop or misuse them; draw them away from there
            rng = np.random.default_rng(seeds[2])
            for ps in params.values():
                for k, t in ps.tensors.items():
                    if k.endswith((".bias", ".beta")):
                        t.values[:] = rng.normal(0.0, 0.1, t.values.shape)
                for k, buf in ps.buffers.items():
                    buf[:] = (rng.uniform(0.5, 1.5, buf.shape) if k.endswith("running_var")
                              else rng.normal(0.0, 0.1, buf.shape))
            training.save_checkpoint(training.Checkpoint(
                stage=2, iteration=0, config=cfg.as_dict(), params=params), ckpt)
            del params
        frames = [store / "frames" / f"synth{k:03d}" / "frame_0000.ppm" for k in range(4)]
        p.phase("generate")
        p.generate(ckpt, frames[0], p.work / "gen-warmup", warmup=True)
        for p.round in range(ROUNDS):
            if p.round % 2 == 0:
                p.phase("generate")
                p.generate(ckpt, frames[p.round // 2 % 4], p.work / f"gen{p.round}")
            else:
                p.phase("evaluate")
                p.evaluate(ckpt, store, self.eval_clips, p.work / f"eval{p.round}.csv")
            companion(p, p.cstore, companion_iterations(p) + 1, serve=False)
        p.end_timed()
        p.store, p.ckpt, p.frames = store, ckpt, frames

    def check(self, p):
        dirs = [p.work / "gen-warmup"] + [p.work / f"gen{r}" for r in range(0, ROUNDS, 2)]
        outputs = [read_frames(d, 128) for d in dirs]
        p.check("generate outputs", all(o is not None for o in outputs),
                f"{sum(o is not None for o in outputs)} of {len(dirs)} commands wrote "
                f"32 PPM frames of 128x128")
        ckpt = training.load_checkpoint(p.ckpt)
        raw = p.frames[0].read_bytes()
        u8 = np.frombuffer(raw[-3 * 128 * 128:], np.uint8).reshape(128, 128, 3)
        x = np.repeat((u8.transpose(2, 0, 1) / 127.5 - 1.0)[None, :, None], 32, axis=2)
        nets = {net: ({k: t.values for k, t in ps.tensors.items()}, ps.buffers)
                for net, ps in ckpt.params.items()}
        eps = ckpt.run_config().bn_eps
        ref1 = ref.generator_f64(*nets["g1"], x, 1, 128, eps)
        ref2 = ref.generator_f64(*nets["g2"], ref1, 2, 128, eps)
        frame = Tensor(data.normalize_pixels(u8.transpose(2, 0, 1))[None])
        got = training.generate_video(ckpt, frame).values.astype(np.float64)
        scale = float(np.max(np.abs(ref2)))
        err = float(np.max(np.abs(got - ref2))) / scale
        moved = float(np.max(np.abs(ref2 - ref1))) / scale
        pixels = np.clip(np.rint((ref2[0] + 1.0) * 127.5), 0, 255).transpose(1, 2, 3, 0)
        ppm_err = (int(np.max(np.abs(outputs[0].astype(int) - pixels)))
                   if outputs[0] is not None else 999)
        p.check("video vs float64 reference", err <= ref.VIDEO_TOL and ppm_err <= 1,
                f"max |video - reference| {err:.1e} of max |reference| {scale:.1e}, "
                f"PPM pixels within {ppm_err}")
        p.check("stage 2 changes the G1 video", moved > 100 * ref.VIDEO_TOL,
                f"max |G2 output - G1 output| {moved:.1f} of max |G2 output|")
        del nets
        evals = [(p.work / f"eval{r}.csv").read_text() for r in range(1, ROUNDS, 2)]
        p.check("evaluation deterministic", len(set(evals)) == 1,
                f"{len(evals)} evaluate commands wrote {len(set(evals))} distinct CSVs")
        check_evaluation(p, "evaluation rows", ckpt, p.store, p.work / "eval1.csv",
                         self.eval_clips, 1)
        check_companion(p, companion_iterations(p) + 1, serve=False)

    def specs(self):
        return [models.build_generator(1, 128, 1.0), models.build_generator(2, 128, 1.0)]


WORKLOADS = {w.name: w for w in (DeskPipeline(), FullTrain(), FullGenerate())}
