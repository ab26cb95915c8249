"""The benchmark's references agree with lapsegan on small inputs and reject
a deliberately perturbed output, so each check the benchmark makes can fail.

Run with ``python3 -m pytest lapsebench`` from the repository root.
"""
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import references as ref  # noqa: E402
from lapsegan import metrics, models, ops, training  # noqa: E402
from lapsegan.tensor import Tensor  # noqa: E402

SSIM_TOL = 3e-16
CONV_TOL = 4e-14


def _conv(x, w, b, stride, padding, transposed=False):
    params = ops.ConvParams(w.shape[1] if transposed else w.shape[0], w.shape[2:],
                            stride, padding, transposed=transposed)
    op = ops.deconv3d if transposed else ops.conv3d
    return op(Tensor(x), Tensor(w), Tensor(b), params).values


@pytest.mark.parametrize("seed", range(4))
def test_ssim_reference_agrees_and_rejects(seed):
    rng = np.random.default_rng(seed)
    a = rng.random((3, 4, 24, 24))
    b = np.clip(a + 0.2 * rng.standard_normal(a.shape), 0.0, 1.0)
    got = metrics.ssim(a, b)
    assert abs(ref.ssim_reference(a, b) - got) <= SSIM_TOL
    assert abs(ref.ssim_reference(a, b) - (got + 1e-9)) > 1e-10


def test_ssim_reference_on_a_frame():
    rng = np.random.default_rng(7)
    a, b = rng.random((16, 20)), rng.random((16, 20))
    assert abs(ref.ssim_reference(a, b) - metrics.ssim(a, b)) <= SSIM_TOL
    assert ref.ssim_reference(a, a) == pytest.approx(1.0, abs=1e-15)


def test_mse_and_psnr_reference():
    rng = np.random.default_rng(1)
    a, b = rng.random((3, 2, 12, 12)), rng.random((3, 2, 12, 12))
    assert ref.mse_reference(a, b) == metrics.mse(a, b)
    err = ref.mse_reference(a, b)
    assert ref.psnr_reference(err) == metrics.psnr_from_mse(err)
    assert ref.mse_reference(a, b) != metrics.mse(a, np.clip(b + 1e-3, 0, 1))


GEOMETRIES = [((1, 2, 2), (1, 1, 1), (3, 4, 4)), ((2, 2, 2), (1, 1, 1), (4, 4, 4)),
              ((1, 1, 1), (0, 0, 0), (2, 4, 4))]


@pytest.mark.parametrize("stride,padding,kernel", GEOMETRIES)
def test_conv3d_scipy_agrees_and_rejects(stride, padding, kernel):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 3, 8, 10, 10))
    w = rng.standard_normal((4, 3) + kernel)
    b = rng.standard_normal(4)
    want = ref.conv3d_scipy(x, w, b, stride, padding)
    got = _conv(x, w, b, stride, padding)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= CONV_TOL * scale
    bad = got.copy()
    bad[0, 1, 1, 2, 3] += 1e-6 * scale
    assert np.max(np.abs(bad - want)) > CONV_TOL * scale


@pytest.mark.parametrize("stride,padding,kernel", GEOMETRIES)
def test_deconv3d_scipy_agrees_and_rejects(stride, padding, kernel):
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 3, 4, 5, 5))
    w = rng.standard_normal((3, 2) + kernel)
    b = rng.standard_normal(2)
    want = ref.deconv3d_scipy(x, w, b, stride, padding)
    got = _conv(x, w, b, stride, padding, transposed=True)
    scale = np.max(np.abs(want))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= CONV_TOL * scale
    assert np.max(np.abs(ref.deconv3d_f64(x, w, b, stride, padding) - want)) <= CONV_TOL * scale
    bad = got.copy()
    bad[1, 0, 2, 1, 1] -= 1e-6 * scale
    assert np.max(np.abs(bad - want)) > CONV_TOL * scale


@pytest.mark.parametrize("stride,padding,kernel", GEOMETRIES)
def test_sampled_references_agree_and_reject(stride, padding, kernel):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 3, 8, 10, 10))
    w = rng.standard_normal((4, 3) + kernel)
    b = rng.standard_normal(4)
    full = _conv(x, w, b, stride, padding)
    pos = [(n, t, h, v) for n in range(2) for t in range(full.shape[2])
           for h in (0, full.shape[3] - 1) for v in range(full.shape[4])]
    got = np.array([full[n, :, t, h, v] for n, t, h, v in pos])
    want = ref.conv3d_at(x, w, b, stride, padding, pos)
    assert np.max(np.abs(got - want)) <= CONV_TOL * np.max(np.abs(want))
    assert np.max(np.abs(ref.conv3d_f64(x, w, b, stride, padding) - full)) <= \
        CONV_TOL * np.max(np.abs(full))

    wt = rng.standard_normal((3, 4) + kernel)
    y = rng.standard_normal((2, 3, 4, 5, 5))
    dfull = _conv(y, wt, b, stride, padding, transposed=True)
    dpos = [(n, t, h, v) for n in range(2) for t in range(dfull.shape[2])
            for h in range(dfull.shape[3]) for v in (0, 1, dfull.shape[4] - 1)]
    dgot = np.array([dfull[n, :, t, h, v] for n, t, h, v in dpos])
    dwant = ref.deconv3d_at(y, wt, b, stride, padding, dpos)
    assert np.max(np.abs(dgot - dwant)) <= CONV_TOL * np.max(np.abs(dwant))
    dgot[3, 1] += 1e-6
    assert np.max(np.abs(dgot - dwant)) > CONV_TOL * np.max(np.abs(dwant))


@pytest.mark.parametrize("stride,padding,kernel", GEOMETRIES)
def test_adjoint_identity_holds_and_rejects(stride, padding, kernel):
    rng = np.random.default_rng(6)
    w = rng.standard_normal((3, 2) + kernel)
    x = rng.standard_normal((1, 3, 4, 5, 5))
    zero = np.zeros(2)
    deconv = lambda v, wt: _conv(v, wt, zero, stride, padding, transposed=True)  # noqa: E731
    conv = lambda v, wt: _conv(v, wt, np.zeros(3), stride, padding)  # noqa: E731
    y = rng.standard_normal(deconv(x, w).shape)
    assert ref.adjoint_gap(conv, deconv, x, y, w) <= 1e-13
    skewed = lambda v, wt: deconv(v, wt) * (1 + 1e-6)  # noqa: E731
    assert ref.adjoint_gap(conv, skewed, x, y, w) > 1e-13


@pytest.mark.parametrize("stage,resolution", [(1, 64), (2, 64), (2, 128)])
def test_generator_reference_agrees_and_rejects(stage, resolution):
    width = 1 / 32
    nets = {"g1": ops.init_parameters(models.build_generator(1, resolution, width), 11)}
    if stage == 2:
        nets["g2"] = ops.init_parameters(models.build_generator(2, resolution, width), 12)
    rng = np.random.default_rng(8)
    for ps in nets.values():  # weights and running statistics that keep a signal
        for name, t in ps.tensors.items():
            if name.endswith("weight"):
                t.values *= 8.0
        for name, buf in ps.buffers.items():
            buf[:] = rng.uniform(0.5, 1.5, buf.shape) if "var" in name else \
                rng.normal(0, 0.1, buf.shape)
    cfg = training.RunConfig(resolution=resolution, width_multiplier=width)
    ckpt = training.Checkpoint(stage=stage, iteration=0, config=cfg.as_dict(), params=nets)
    frame = rng.uniform(-1, 1, (1, 3, resolution, resolution)).astype(np.float32)
    got = training.generate_video(ckpt, Tensor(frame)).values.astype(np.float64)

    video = np.repeat(frame[:, :, None].astype(np.float64), 32, axis=2)
    for s in range(1, stage + 1):
        ps = nets[f"g{s}"]
        video = ref.generator_f64({k: t.values for k, t in ps.tensors.items()},
                                  ps.buffers, video, s, resolution, cfg.bn_eps)
    scale = np.max(np.abs(video))
    assert np.max(np.abs(got - video)) <= ref.VIDEO_TOL * scale
    assert np.max(np.abs(got - video)) > 0.0
    got[0, 1, 5, 7, 9] += 10 * ref.VIDEO_TOL * scale
    assert np.max(np.abs(got - video)) > ref.VIDEO_TOL * scale


def test_loss_identities_accept_and_reject():
    row = {"iter": 1.0, "adv_d": 1.25, "adv_g": -0.5, "content": 0.3, "rank": 0.7}
    row["total_g"] = row["adv_g"] + 2.0 * row["rank"] + row["content"]
    row["total_d"] = row["adv_d"] - 2.0 * row["rank"]
    assert ref.loss_identity_errors([row], 2.0) == []
    assert ref.loss_identity_errors([dict(row, total_g=row["total_g"] + 1e-9)], 2.0)
    assert ref.loss_identity_errors([dict(row, rank=float("nan"))], 2.0)
    assert ref.loss_identity_errors([dict(row, iter=2.0)], 2.0)
