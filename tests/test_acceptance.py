"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The overfit smoke test
(criterion 6) trains 200+200 iterations at desk scale and dominates the
runtime; everything else is seconds to a few minutes.
"""
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from conftest import desk_config
from gradcheck import grad_check
from lapsegan import losses, metrics, ops, tensor as T, training
from lapsegan.config import load_config
from lapsegan.data import (ClipStore, denormalize_pixels, ingest,
                           normalize_pixels, read_manifest, read_ppm,
                           split_store, synth_frame_dirs)
from lapsegan.errors import DimensionError
from lapsegan.losses import (LossReport, content_loss,
                             discriminator_adversarial, generator_adversarial,
                             gram, rank_loss_layer, rank_loss_total)
from lapsegan.models import (_SKIPS_STAGE1, _assemble, _generator_rows,
                             build_discriminator, build_generator,
                             forward_discriminator, forward_generator)
from lapsegan.tensor import Tensor
from lapsegan.training import load_checkpoint, save_checkpoint, train_stage1, train_stage2

LN2 = math.log(2.0)


def ok(num, message):
    print(f"\nACCEPTANCE {num:02d} PASS - {message}")


def t64(x):
    return Tensor(np.asarray(x, dtype=np.float64))


# Table rows for the full-resolution generator, with the first decoder
# kernel's temporal extent resolved to 2 so the skip shapes align.
TABLE_ROWS = {
    "conv1": (32, (3, 4, 4), (1, 2, 2), (1, 1, 1)),
    "conv2": (64, (4, 4, 4), (2, 2, 2), (1, 1, 1)),
    "conv3": (128, (4, 4, 4), (2, 2, 2), (1, 1, 1)),
    "conv4": (256, (4, 4, 4), (2, 2, 2), (1, 1, 1)),
    "conv5": (512, (4, 4, 4), (2, 2, 2), (1, 1, 1)),
    "conv6": (512, (2, 4, 4), (1, 1, 1), (0, 0, 0)),
    "deconv1": (512, (2, 4, 4), (1, 1, 1), (0, 0, 0)),
    "deconv2": (256, (4, 4, 4), (2, 2, 2), (1, 1, 1)),
    "deconv3": (128, (4, 4, 4), (2, 2, 2), (1, 1, 1)),
    "deconv4": (64, (4, 4, 4), (2, 2, 2), (1, 1, 1)),
    "deconv5": (32, (4, 4, 4), (2, 2, 2), (1, 1, 1)),
    "deconv6": (3, (3, 4, 4), (1, 2, 2), (1, 1, 1)),
}
EXPECTED_SHAPES = {
    "conv1": (32, 32, 64, 64), "conv2": (64, 16, 32, 32),
    "conv3": (128, 8, 16, 16), "conv4": (256, 4, 8, 8),
    "conv5": (512, 2, 4, 4), "conv6": (512, 1, 1, 1),
    "deconv1": (512, 2, 4, 4), "deconv2": (256, 4, 8, 8),
    "deconv3": (128, 8, 16, 16), "deconv4": (64, 16, 32, 32),
    "deconv5": (32, 32, 64, 64), "deconv6": (3, 32, 128, 128),
}


def test_criterion_01_shape_conformance():
    spec = build_generator(1, 128)
    assert len(spec.layers) == 12
    for layer in spec.layers:
        filters, kernel, stride, padding = TABLE_ROWS[layer.name]
        assert layer.out_channels == filters, layer.name
        assert layer.params.kernel == kernel, layer.name
        assert layer.params.stride == stride, layer.name
        assert layer.params.padding == padding, layer.name
        assert layer.out_shape == EXPECTED_SHAPES[layer.name], layer.name
    assert len(spec.skip_map) == 5
    # a corrupted row must make the build fail loudly at the skip junction
    rows = list(_generator_rows(128))
    name, f, k, s, p, bn, act = rows[6]
    rows[6] = (name, f, (4, 4, 4), s, p, bn, act)
    with pytest.raises(DimensionError):
        _assemble(rows, _SKIPS_STAGE1, 128, 1.0, "generator", 1)
    ok(1, "full-resolution generator reproduces every table row and shape; "
          "skip mismatch fails the build")


def test_criterion_02_gradient_suite():
    rng = np.random.default_rng(0)
    worst = {}

    def check(name, f, x, tol=1e-5, **kw):
        err = grad_check(f, x, **kw)
        worst[name] = err
        assert err < tol, f"{name}: {err:.3g} >= {tol}"

    # convolution kernels w.r.t. every differentiable argument
    cp = ops.ConvParams(3, (2, 3, 3), (1, 2, 2), (1, 1, 1))
    x = t64(rng.standard_normal((2, 2, 4, 5, 5)))
    w = t64(rng.standard_normal((3, 2, 2, 3, 3)))
    b = t64(rng.standard_normal(3))
    sq = lambda v: (v * v).sum()
    check("conv3d/x", lambda v: sq(ops.conv3d(v, w, b, cp)), x)
    check("conv3d/w", lambda v: sq(ops.conv3d(x, v, b, cp)), w)
    check("conv3d/b", lambda v: sq(ops.conv3d(x, w, v, cp)), b)
    dp = ops.ConvParams(2, (2, 3, 3), (2, 2, 2), (1, 1, 1), transposed=True)
    xd = t64(rng.standard_normal((2, 3, 2, 3, 3)))
    wd = t64(rng.standard_normal((3, 2, 2, 3, 3)))
    bd = t64(rng.standard_normal(2))
    check("deconv3d/x", lambda v: sq(ops.deconv3d(v, wd, bd, dp)), xd)
    check("deconv3d/w", lambda v: sq(ops.deconv3d(xd, v, bd, dp)), wd)
    check("deconv3d/b", lambda v: sq(ops.deconv3d(xd, wd, v, dp)), bd)

    # batch norm through the batch statistics (train mode)
    probe = t64(rng.standard_normal((2, 2, 2, 3, 3)))
    bx = t64(rng.standard_normal((2, 2, 2, 3, 3)))
    bg = t64(rng.standard_normal(2) * 0.1 + 1.0)
    bb = t64(rng.standard_normal(2) * 0.1)

    def bn_run(xv, gv, bv):
        st = ops.BatchNormState(gamma=gv, beta=bv, running_mean=np.zeros(2),
                                running_var=np.ones(2))
        out = ops.batchnorm3d(xv, st, "train", update_running=False)
        return (out * probe + out * out * probe).sum()

    check("batchnorm/x", lambda v: bn_run(v, bg, bb), bx)
    check("batchnorm/gamma", lambda v: bn_run(bx, v, bb), bg)
    check("batchnorm/beta", lambda v: bn_run(bx, bg, v), bb)

    # activations, away from kinks
    off = np.where(rng.random(40) < 0.5, -0.5, 0.5)
    act_x = t64(rng.standard_normal(40) + off)
    for kind in ("leaky_relu", "relu", "tanh", "sigmoid"):
        check(f"activation/{kind}",
              lambda v, k=kind: (ops.activation(k, v) * ops.activation(k, v)).sum(),
              act_x)

    # losses
    d_real = t64(rng.uniform(0.2, 0.8, (3, 1)))
    d_fake0 = rng.uniform(0.2, 0.8, (3, 1))
    check("adv/d_fake", lambda v: discriminator_adversarial(d_real, v), t64(d_fake0))
    check("adv/loss_g", generator_adversarial, t64(d_fake0))
    yt = t64(rng.standard_normal((1, 3, 2, 2, 2)))
    check("content", lambda v: content_loss(yt, v),
          t64(rng.standard_normal((1, 3, 2, 2, 2)) + 3.0))
    check("gram", lambda v: (gram(v) * gram(v)).sum(),
          t64(rng.standard_normal((1, 2, 2, 2, 2))))

    # the full ranking chain of the method: gram -> L1 -> softplus
    f1 = t64(rng.standard_normal((2, 2, 2, 2, 3)))
    fr = t64(rng.standard_normal((2, 2, 2, 2, 3)))
    check("rank-chain", lambda v: rank_loss_total(
        [(gram(f1), gram(v), gram(fr))]),
        t64(rng.standard_normal((2, 2, 2, 2, 3))))

    # end-to-end width-1/8 composite: D(G(x)) and the refine generator
    # objective probed at sampled elements
    g2_spec = build_generator(2, 64, 0.125)
    d_spec = build_discriminator(64, 0.125)
    gp = ops.init_parameters(g2_spec, 11, dtype=np.float64)
    dp64 = ops.init_parameters(d_spec, 12, dtype=np.float64)
    x0 = rng.uniform(-0.5, 0.5, (1, 3, 32, 64, 64))

    def composite(v):
        y = forward_generator(g2_spec, gp, v, update_running=False)
        score, _ = forward_discriminator(d_spec, dp64, y)
        return T.log(score).sum()

    check("composite/D(G(x))", composite, Tensor(x0),
          tol=1e-4, floor=1e-3, sample=5, rng=np.random.default_rng(1))

    y_real = Tensor(rng.uniform(-0.9, 0.9, (1, 3, 32, 64, 64)))
    y1_in = Tensor(rng.uniform(-0.9, 0.9, (1, 3, 32, 64, 64)))
    bias_name = "conv4.bias"

    def refine_objective(v):
        gp.tensors[bias_name] = v
        y2 = forward_generator(g2_spec, gp, y1_in, update_running=False)
        d_fake, feats_y2 = forward_discriminator(d_spec, dp64, y2)
        with T.no_grad():
            _, feats_real = forward_discriminator(d_spec, dp64, y_real)
            _, feats_y1 = forward_discriminator(d_spec, dp64, y1_in)
        triples = [(gram(a), gram(b), gram(c))
                   for a, b, c in zip(feats_y1, feats_y2, feats_real)]
        return (losses.generator_adversarial(d_fake)
                + rank_loss_total(triples) + content_loss(y_real, y2))

    bias0 = gp.tensors[bias_name]
    check("composite/refine-objective", refine_objective, bias0,
          tol=1e-4, floor=1e-3, sample=4, rng=np.random.default_rng(2))

    ok(2, "gradient suite max rel. err "
          f"{max(worst.values()):.2e} over {len(worst)} checks")


def test_criterion_03_loss_identities():
    half = t64(np.full((2, 1), 0.5))
    loss_d = discriminator_adversarial(half, t64(np.full((2, 1), 0.5)))
    assert abs(loss_d.item() - 2.0 * LN2) < 1e-9

    rng = np.random.default_rng(3)
    for _ in range(300):
        dp = float(rng.uniform(0.0, 40.0))
        dm = float(rng.uniform(0.0, 40.0))
        if abs(dp - dm) >= 30.0:
            continue
        naive = -math.log(math.exp(-dp) / (math.exp(-dp) + math.exp(-dm)))
        got = rank_loss_layer(t64([[dm]]), t64([[0.0]]), t64([[dp]])).item()
        assert abs(got - naive) < 1e-9

    assert abs(rank_loss_layer(t64([[0.7]]), t64([[0.0]]), t64([[0.7]])).item() - LN2) < 1e-9

    r2 = LossReport(iteration=1, adv_d=1.25, adv_g=-0.5, content=0.3, rank=7.7, lam=0.0)
    r1 = LossReport(iteration=1, adv_d=1.25, adv_g=-0.5, content=0.3, lam=1.0)
    assert r2.total_g == r1.total_g and r2.total_d == r1.total_d
    ok(3, "adversarial 2·ln2 identity, stable-vs-naive ranking equality, "
          "ln2 tie case, and weight-zero degeneration all hold")


def test_criterion_04_gram_properties():
    assert_array_equal(gram(t64(np.ones((1, 2, 1, 1, 3)))).values, 0.5 * np.ones((2, 2)))

    rng = np.random.default_rng(4)
    for _ in range(25):
        shape = (int(rng.integers(1, 3)), int(rng.integers(1, 5)),
                 int(rng.integers(1, 5)), int(rng.integers(1, 4)),
                 int(rng.integers(1, 4)))
        g = gram(t64(rng.standard_normal(shape))).values
        assert g.shape[0] <= 32
        peak = np.max(np.abs(g))
        assert np.max(np.abs(g - g.T)) <= 1e-6 * max(peak, 1e-30)
        assert np.linalg.eigvalsh(g).min() >= -1e-6 * np.trace(g)
    ok(4, "gram symmetry, PSD-within-tolerance, and the all-ones 0.5 matrix hold")


def test_criterion_05_sign_contract(store64, stage1_ckpt):
    from test_training import direction_probe
    results = [direction_probe(store64, stage1_ckpt, seed=s) for s in range(5)]
    assert all(r["d_ascends"] for r in results), results
    assert all(r["g_descends"] for r in results), results
    ok(5, "discriminator step ascends and generator step descends the "
          "sampled objectives on 5/5 seeds (probe step 1e-4)")


@pytest.fixture(scope="session")
def smoke_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("smoke")
    synth_frame_dirs(root / "frames", 9, 64, 64, velocity=1.0, seed=7)
    ingest(root / "frames", root / "store", 64)
    split_store(root / "store", 0.12, seed=1)
    store = ClipStore(root / "store")
    assert len(store.split_records("train")) == 16
    cfg = load_config(overrides=dict(
        resolution=64, width_multiplier=0.125, batch_size=2, iterations=200,
        checkpoint_every=1000, log_every=50, seed=0))
    ck1, reps1 = train_stage1(store, cfg, out_dir=root / "run1")
    ck2, reps2 = train_stage2(store, cfg, ck1, out_dir=root / "run2")
    return {"root": root, "store": store, "cfg": cfg,
            "ck1": ck1, "reps1": reps1, "ck2": ck2, "reps2": reps2}


@pytest.mark.slow
def test_criterion_06_overfit_smoke(smoke_run):
    reps1, reps2 = smoke_run["reps1"], smoke_run["reps2"]
    c_first = reps1[0].content
    c_final = float(np.mean([r.content for r in reps1[-10:]]))
    assert c_final <= 0.5 * c_first, (c_first, c_final)

    for rep in reps2:
        vals = [rep.adv_d, rep.adv_g, rep.content, rep.rank,
                rep.total_g, rep.total_d]
        assert np.isfinite(vals).all(), rep
    r_first = reps2[0].rank
    r_final = float(np.mean([r.rank for r in reps2[-10:]]))
    assert r_final < r_first, (r_first, r_final)

    # trained pipeline pulls frame 0 toward the input frame
    frame = read_ppm(sorted((smoke_run["root"] / "frames" / "synth000")
                            .glob("*.ppm"))[0])
    x = Tensor(normalize_pixels(frame.transpose(2, 0, 1))[None])
    video = training.generate_video(smoke_run["ck2"], x)
    pull = float(np.mean(np.abs(video.values[0][:, 0] - x.values[0])))
    baseline = float(np.mean(np.abs(x.values[0])))
    assert pull < 0.6 * baseline, (pull, baseline)
    ok(6, f"stage-1 content {c_first:.4f} -> {c_final:.4f} (>=50% drop), "
          f"stage-2 losses finite, rank {r_first:.2f} -> {r_final:.2f}, "
          f"frame-0 pull {pull:.3f} < 0.6x baseline {baseline:.3f}")


def test_criterion_07_data_pipeline(tmp_path):
    # exhaustive split leakage over every (train, test) pair
    rng = np.random.default_rng(5)
    frames_root = tmp_path / "frames"
    counts = {}
    for i in range(6):
        n = int(rng.integers(32, 140))
        counts[f"s{i:02d}"] = n
        src = frames_root / f"s{i:02d}"
        src.mkdir(parents=True)
        from lapsegan.data import write_ppm
        for t in range(n):
            write_ppm(src / f"f_{t}.ppm", np.full((8, 8, 3), t % 256, np.uint8))
    ingest(frames_root, tmp_path / "store", 8)
    split_store(tmp_path / "store", 0.3, seed=2)
    records = read_manifest(tmp_path / "store")
    train_sources = {r.source_id for r in records if r.split == "train"}
    test_sources = {r.source_id for r in records if r.split == "test"}
    for tr in train_sources:
        for te in test_sources:
            assert tr != te
    assert train_sources and test_sources

    per = {}
    for r in records:
        per[r.source_id] = per.get(r.source_id, 0) + 1
    for sid, n in counts.items():
        assert per.get(sid, 0) == n // 32

    # non-overlap: clip i holds exactly frames [32i, 32i+31]
    store = ClipStore(tmp_path / "store")
    for rec in store.records:
        clip = store.load_clip(rec)
        for t in (0, 13, 31):
            assert np.all(clip[:, t] == (32 * rec.clip_index + t) % 256)

    all_bytes = np.arange(256, dtype=np.uint8)
    assert_array_equal(denormalize_pixels(normalize_pixels(all_bytes)), all_bytes)
    ok(7, "split leakage, clip count floor(F/32), non-overlap, and the "
          "256-value normalization round trip all hold")


def test_criterion_08_metric_oracles(tmp_path, store64, stage1_ckpt):
    rng = np.random.default_rng(6)
    clip = rng.random((3, 2, 16, 16))
    assert metrics.ssim(clip, clip.copy()) == 1.0

    c1 = metrics.SSIM_K1 ** 2
    got = metrics.ssim(np.zeros((16, 16)), np.ones((16, 16)))
    assert abs(got - c1 / (1.0 + c1)) < 1e-9

    assert abs(metrics.psnr_from_mse(0.01) - 20.0) < 1e-6

    ckpt_path = tmp_path / "ck.mdck"
    save_checkpoint(stage1_ckpt, ckpt_path)
    csv_path = tmp_path / "eval.csv"
    metrics.evaluate(ckpt_path, store64.root, n_samples=2, seed=0,
                     out_csv=csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "clip_id,mse,psnr_db,ssim"
    for line in lines[1:]:
        cid, m, p, s = line.split(",")
        if cid == "MEAN":
            continue
        m, p = float(m), float(p)
        if p < metrics.PSNR_CAP_DB:
            assert abs(p - 10.0 * math.log10(1.0 / m)) < 1e-6
    ok(8, "ssim identity/constant closed forms, the 20 dB identity, and "
          "eval CSV row consistency all hold")


@pytest.mark.slow
def test_criterion_09_determinism(tmp_path):
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")

    def run(tag):
        d = tmp_path / tag
        store, out, csv = d / "store", d / "run", d / "eval.csv"
        cmds = [
            ["synth-data", "--out", str(store), "--n-sources", "6",
             "--frames-per-source", "64", "--resolution", "64",
             "--test-fraction", "0.25", "--seed", "5"],
            ["train-stage1", "--store", str(store), "--out", str(out),
             "--resolution", "64", "--width-multiplier", "0.125",
             "--batch-size", "2", "--iterations", "50", "--seed", "5",
             "--log-every", "1000", "--checkpoint-every", "1000"],
            ["evaluate", "--checkpoint", str(out / "stage1_final.mdck"),
             "--store", str(store), "--n", "3", "--seed", "5",
             "--out", str(csv)],
        ]
        for cmd in cmds:
            proc = subprocess.run([sys.executable, "-m", "lapsegan.cli"] + cmd,
                                  env=env, capture_output=True, text=True)
            assert proc.returncode == 0, (cmd, proc.stderr)
        return ((out / "losses.csv").read_bytes(), csv.read_bytes(),
                (out / "stage1_final.mdck").read_bytes())

    a, b = run("a"), run("b")
    assert a[0] == b[0], "losses.csv differs between identical runs"
    assert a[1] == b[1], "evaluation CSV differs between identical runs"
    assert a[2] == b[2], "final checkpoint differs between identical runs"
    ok(9, "ingest + 50-iteration training + evaluation reproduce losses.csv, "
          "eval CSV, and the checkpoint bitwise across two single-threaded runs")


def test_criterion_10_checkpoint_integrity(store64, tmp_path):
    straight, _ = train_stage1(store64, desk_config(iterations=10))
    five, _ = train_stage1(store64, desk_config(iterations=5))
    p = tmp_path / "five.mdck"
    save_checkpoint(five, p)
    resumed, _ = train_stage1(store64, desk_config(iterations=10),
                              resume=load_checkpoint(p))
    for net in ("g1", "d1"):
        for k, t in straight.params[net].tensors.items():
            assert_array_equal(t.values, resumed.params[net].tensors[k].values)
        for k, bfr in straight.params[net].buffers.items():
            assert_array_equal(bfr, resumed.params[net].buffers[k])
        for k in straight.adam[net].m:
            assert_array_equal(straight.adam[net].m[k], resumed.adam[net].m[k])
            assert_array_equal(straight.adam[net].v[k], resumed.adam[net].v[k])

    # corrupted checkpoints exit with the I/O code through the CLI
    good = tmp_path / "good.mdck"
    save_checkpoint(straight, good)
    bad = tmp_path / "bad.mdck"
    raw = bytearray(good.read_bytes())
    raw[25] ^= 0xFF
    bad.write_bytes(bytes(raw))
    proc = subprocess.run([sys.executable, "-m", "lapsegan.cli", "inspect",
                           str(bad)], capture_output=True, text=True)
    assert proc.returncode == 3, proc.stderr
    truncated = tmp_path / "trunc.mdck"
    truncated.write_bytes(good.read_bytes()[:60])
    proc = subprocess.run([sys.executable, "-m", "lapsegan.cli", "inspect",
                           str(truncated)], capture_output=True, text=True)
    assert proc.returncode == 3, proc.stderr
    ok(10, "save -> load -> resume equals uninterrupted training bitwise over "
           "10 iterations; corrupted and truncated files exit with code 3")
