import dataclasses
import hashlib
import json
import struct
import zlib

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import desk_config
from lapsegan import training
from lapsegan.config import ADAM_BETA1, ADAM_BETA2, ADAM_EPS
from lapsegan.data import load_batch
from lapsegan.errors import (ConfigError, ContractError, IntegrityError,
                             UnsupportedVersionError)
from lapsegan.losses import LossReport
from lapsegan.models import (CLIP_FRAMES, build_discriminator, build_generator,
                             duplicate_frame, forward_generator)
from lapsegan.ops import ParameterSet, init_parameters
from lapsegan.tensor import Tensor, backward, no_grad
from lapsegan.training import (AdamState, Checkpoint, TrainingDiverged,
                               adam_step, generate_video, load_checkpoint,
                               save_checkpoint, stage1_d_objective,
                               stage1_g_objective, stage2_d_objective,
                               stage2_g_objective, train_stage1, train_stage2)


def param_set(values):
    ps = ParameterSet()
    for name, v in values.items():
        ps.tensors[name] = Tensor(np.asarray(v, dtype=np.float32),
                                  requires_grad=True)
    return ps


class TestAdam:
    def test_first_step_is_signed_lr(self):
        ps = param_set({"w": [1.0, -2.0, 3.0]})
        cfg = desk_config()
        st = AdamState.fresh(ps)
        g = np.array([0.5, -0.25, 1e-3], dtype=np.float32)
        adam_step(ps, {"w": g}, st, cfg)
        expected = np.float32([1.0, -2.0, 3.0]) - cfg.lr * np.sign(g)
        assert_allclose(ps.tensors["w"].values, expected, atol=cfg.lr * 1e-3)
        assert st.t == 1

    def test_zero_gradient_keeps_parameters(self):
        ps = param_set({"w": [1.5, 2.5]})
        cfg = desk_config()
        st = AdamState.fresh(ps)
        adam_step(ps, {"w": np.zeros(2, np.float32)}, st, cfg)
        adam_step(ps, {}, st, cfg)  # absent gradient counts as zero
        assert_array_equal(ps.tensors["w"].values, np.float32([1.5, 2.5]))
        assert st.t == 2

    def test_deterministic_trajectory(self):
        def run():
            ps = param_set({"w": [0.3, -0.8]})
            cfg = desk_config()
            st = AdamState.fresh(ps)
            rng = np.random.default_rng(0)
            for _ in range(20):
                adam_step(ps, {"w": rng.normal(size=2).astype(np.float32)}, st, cfg)
            return ps.tensors["w"].values.tobytes()

        assert run() == run()

    def test_non_finite_gradient_aborts(self):
        ps = param_set({"w": [1.0]})
        st = AdamState.fresh(ps)
        with pytest.raises(TrainingDiverged):
            adam_step(ps, {"w": np.array([np.nan], np.float32)}, st, desk_config())

    def test_non_finite_gradient_changes_nothing(self):
        ps = param_set({"a": [1.0, -1.0], "b": [2.0]})
        cfg = desk_config()
        st = AdamState.fresh(ps)
        adam_step(ps, {"a": np.float32([0.5, 0.25]), "b": np.float32([1.0])}, st, cfg)
        values = {k: t.values.copy() for k, t in ps.tensors.items()}
        m = {k: a.copy() for k, a in st.m.items()}
        v = {k: a.copy() for k, a in st.v.items()}
        with pytest.raises(TrainingDiverged):
            adam_step(ps, {"a": np.float32([0.5, 0.25]),
                           "b": np.float32([np.nan])}, st, cfg)
        assert st.t == 1
        for k in ("a", "b"):
            assert_array_equal(ps.tensors[k].values, values[k])
            assert_array_equal(st.m[k], m[k])
            assert_array_equal(st.v[k], v[k])


def adam_reference(params, grads, state, cfg):
    """Adam as one expression per moment and update, allocating its temporaries."""
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1, c2 = 1.0 - b1 ** state.t, 1.0 - b2 ** state.t
    for name, tensor in params.tensors.items():
        g = grads.get(name, np.zeros_like(tensor.values))
        m, v = state.m[name], state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        mhat = m / m.dtype.type(c1)
        vhat = v / v.dtype.type(c2)
        tensor.values -= (cfg.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)).astype(
            tensor.values.dtype)


class TestAdamBitwise:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_reference_expression(self, dtype):
        rng = np.random.default_rng(8)
        # "big" spans several chunks of the in-place update, "f" is Fortran-ordered
        start = {"w": rng.standard_normal((4, 5)), "b": [0.5, -0.0, 0.0],
                 "big": rng.standard_normal(3 * training._ADAM_CHUNK + 7),
                 "f": np.asfortranarray(rng.standard_normal((6, 7)))}
        runs, cfg = [], desk_config()
        for step in (adam_step, adam_reference):
            ps = param_set(start)
            for t in ps.tensors.values():
                t.values = t.values.astype(dtype, order="K")
            st = AdamState.fresh(ps)
            grads_rng = np.random.default_rng(9)
            for i in range(6):
                grads = {k: (grads_rng.standard_normal(t.shape)
                             * 10.0 ** -grads_rng.integers(0, 30)).astype(dtype)
                         for k, t in ps.tensors.items()}
                grads["w"][0, :3] = [-0.0, 1e-38, -1e-45]
                grads["b"] = np.array([-0.0, 1e-30, 2.0], dtype)
                grads["f"] = np.asfortranarray(grads["f"])
                if i == 3:
                    del grads["b"]  # an absent gradient counts as zero
                step(ps, grads, st, cfg)
            runs.append((ps, st))
        (ps, st), (ref_ps, ref_st) = runs
        assert st.t == ref_st.t == 6
        for k in ps.tensors:
            assert ps.tensors[k].values.tobytes() == ref_ps.tensors[k].values.tobytes()
            assert st.m[k].tobytes() == ref_st.m[k].tobytes()
            assert st.v[k].tobytes() == ref_st.v[k].tobytes()


def rewrite_meta(path, edit):
    """Apply ``edit`` to a checkpoint file's meta block and recompute its CRC."""
    payload = path.read_bytes()[12:]
    n, = struct.unpack("<I", payload[:4])
    meta = json.loads(payload[4:4 + n])
    edit(meta)
    raw_meta = json.dumps(meta, sort_keys=True).encode()
    payload = struct.pack("<I", len(raw_meta)) + raw_meta + payload[4 + n:]
    path.write_bytes(b"MDCK" + struct.pack("<II", 2, zlib.crc32(payload)) + payload)


def add_rng_state(meta):
    meta["rng_state"] = {"bit_generator": "PCG64"}


def add_bn_keys(meta):
    """The batch-norm keys files before 0.4.0 echo in their config."""
    meta["config"].update(bn_eps=1e-5, bn_momentum=0.1)


def add_loss_keys(meta):
    """The loss-form keys files before 0.6.0 echo in their config."""
    meta["config"].update(adv_form="saturating", loss_reduction="mean")


def add_adam_keys(meta):
    """The Adam keys files before 0.5.0 echo in their config."""
    meta["config"].update(beta1=ADAM_BETA1, beta2=ADAM_BETA2, adam_eps=ADAM_EPS)


def add_adam_copies(meta):
    """The Adam hyperparameters files before 0.3.0 carry per network."""
    for st in meta["adam"].values():
        st.update(beta1=ADAM_BETA1, beta2=ADAM_BETA2, eps=ADAM_EPS, lr=desk_config().lr)


class TestCheckpointIO:
    def make_ckpt(self):
        ps = param_set({"conv.weight": np.arange(6, dtype=np.float32).reshape(2, 3)})
        ps.buffers["conv.running_mean"] = np.float32([0.1, 0.2])
        st = AdamState.fresh(ps)
        st.t = 7
        st.m["conv.weight"][...] = 0.25
        return Checkpoint(stage=1, iteration=42, config=desk_config().as_dict(),
                          params={"g1": ps}, adam={"g1": st})

    def test_save_load_save_bitwise(self, tmp_path):
        p1, p2 = tmp_path / "a.mdck", tmp_path / "b.mdck"
        save_checkpoint(self.make_ckpt(), p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_fields_round_trip(self, tmp_path):
        p = tmp_path / "c.mdck"
        save_checkpoint(self.make_ckpt(), p)
        back = load_checkpoint(p)
        assert back.stage == 1 and back.iteration == 42
        assert back.config["resolution"] == 64
        assert back.adam["g1"].t == 7
        assert_array_equal(back.adam["g1"].m["conv.weight"],
                           np.full((2, 3), 0.25, np.float32))
        assert_array_equal(back.params["g1"].buffers["conv.running_mean"],
                           np.float32([0.1, 0.2]))

    @pytest.mark.parametrize("retired", [add_rng_state, add_adam_copies],
                             ids=["rng_state", "adam_copies"])
    def test_reads_meta_with_rng_state(self, tmp_path, retired):
        """Files whose meta still carries a retired key load and resume like
        the file without it: rng_state, or the Adam hyperparameter copies."""
        p, clean = tmp_path / "r.mdck", tmp_path / "clean.mdck"
        save_checkpoint(self.make_ckpt(), p)
        save_checkpoint(self.make_ckpt(), clean)
        rewrite_meta(p, retired)
        back = load_checkpoint(p)
        assert back.stage == 1 and back.iteration == 42
        assert back.adam["g1"].t == 7
        resumed = []
        for ckpt in (back, load_checkpoint(clean)):
            adam_step(ckpt.params["g1"], {"conv.weight": np.full((2, 3), 0.5, np.float32)},
                      ckpt.adam["g1"], desk_config())
            resumed.append(save_checkpoint(ckpt, tmp_path / "next.mdck").read_bytes())
        assert resumed[0] == resumed[1]

    def test_file_bytes_pinned(self, tmp_path):
        """The streamed writer lays out the same bytes as the format always
        had, less the loss-form keys files before 0.6.0 echo, the Adam keys
        files before 0.5.0 echo, the batch-norm keys files before 0.4.0 echo
        and the Adam hyperparameter copies files before 0.3.0 carry."""
        p = tmp_path / "s.mdck"
        save_checkpoint(self.make_ckpt(), p)
        assert hashlib.sha256(p.read_bytes()).hexdigest() == (
            "ef514d955f1976cf0e080ff47928b8344190eb107644fd30814bcf7a7577b605")
        rewrite_meta(p, add_loss_keys)
        assert hashlib.sha256(p.read_bytes()).hexdigest() == (
            "cdbf697970559c0335e46042b4401a92112211e0637c016e54dfeee406ca2a9d")
        rewrite_meta(p, add_adam_keys)
        assert hashlib.sha256(p.read_bytes()).hexdigest() == (
            "f19b398b32fb1064827b10820aa7e776efa5882c307eafab9949de71b8602f8f")
        rewrite_meta(p, add_bn_keys)
        assert hashlib.sha256(p.read_bytes()).hexdigest() == (
            "5582b95408c46b124a290fbe77113ee05372bceac1cd240c5381359763a8041d")
        rewrite_meta(p, add_adam_copies)
        assert hashlib.sha256(p.read_bytes()).hexdigest() == (
            "231f413ce7d0e21efc1c50fb8642e0ee3a26f829f9818c9eb529b08809e56a67")

    def test_load_holds_each_block_once(self, tmp_path):
        """Blocks are read straight into their arrays: loading allocates
        little beyond the arrays it returns, not the file again."""
        import tracemalloc
        ckpt = self.make_ckpt()
        big = np.arange(1 << 20, dtype=np.float32)
        ckpt.params["g1"].tensors["big.weight"] = Tensor(big, requires_grad=True)
        p = save_checkpoint(ckpt, tmp_path / "big.mdck")
        tracemalloc.start()
        try:
            back = load_checkpoint(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_array_equal(back.params["g1"].tensors["big.weight"].values, big)
        assert peak < 1.25 * big.nbytes

    def test_failed_save_keeps_earlier_file(self, tmp_path):
        p = tmp_path / "k.mdck"
        save_checkpoint(self.make_ckpt(), p)
        good = p.read_bytes()
        broken = self.make_ckpt()
        broken.iteration = 43
        # sorted after the float32 blocks, so the save fails midway
        broken.params["g1"].buffers["zz.count"] = np.arange(3, dtype=np.int64)
        with pytest.raises(ContractError):
            save_checkpoint(broken, p)
        assert p.read_bytes() == good
        assert load_checkpoint(p).iteration == 42
        assert [f.name for f in tmp_path.iterdir()] == ["k.mdck"]

    def test_truncated_rejected(self, tmp_path):
        p = tmp_path / "t.mdck"
        save_checkpoint(self.make_ckpt(), p)
        p.write_bytes(p.read_bytes()[:-20])
        with pytest.raises(IntegrityError):
            load_checkpoint(p)

    @pytest.mark.parametrize("size", [0, 11])
    def test_shorter_than_header_rejected(self, tmp_path, size):
        p = tmp_path / "h.mdck"
        save_checkpoint(self.make_ckpt(), p)
        p.write_bytes(p.read_bytes()[:size])
        with pytest.raises(IntegrityError, match="bad magic"):
            load_checkpoint(p)

    def test_corrupt_byte_rejected(self, tmp_path):
        p = tmp_path / "x.mdck"
        save_checkpoint(self.make_ckpt(), p)
        raw = bytearray(p.read_bytes())
        raw[40] ^= 0xFF
        p.write_bytes(bytes(raw))
        with pytest.raises(IntegrityError):
            load_checkpoint(p)

    def test_oversized_meta_length_rejected(self, tmp_path):
        p = tmp_path / "l.mdck"
        save_checkpoint(self.make_ckpt(), p)
        raw = bytearray(p.read_bytes())
        raw[12:16] = struct.pack("<I", 2 ** 32 - 1)
        p.write_bytes(bytes(raw))
        with pytest.raises(IntegrityError, match="meta block longer"):
            load_checkpoint(p)

    def test_bad_magic_and_version(self, tmp_path):
        p = tmp_path / "m.mdck"
        save_checkpoint(self.make_ckpt(), p)
        raw = bytearray(p.read_bytes())
        good = bytes(raw)
        raw[0] = ord("X")
        p.write_bytes(bytes(raw))
        with pytest.raises(IntegrityError):
            load_checkpoint(p)
        raw = bytearray(good)
        raw[4] = 99
        # version change invalidates the CRC region? no: version precedes CRC
        p.write_bytes(bytes(raw))
        with pytest.raises(UnsupportedVersionError):
            load_checkpoint(p)


class TestStage1:
    def test_runs_and_reports(self, store64):
        ckpt, reports = train_stage1(store64, desk_config(iterations=2))
        assert ckpt.stage == 1 and ckpt.iteration == 2
        assert len(reports) == 2
        for rep in reports:
            assert np.isfinite([rep.adv_d, rep.adv_g, rep.content]).all()
            assert rep.rank == 0.0
            assert rep.total_g == rep.adv_g + rep.content
            assert rep.total_d == rep.adv_d

    def test_alternation_order(self, store64, monkeypatch):
        calls = []
        real_step = training.adam_step

        def spy(params, grads, state, cfg):
            calls.append(id(params))
            return real_step(params, grads, state, cfg)

        monkeypatch.setattr(training, "adam_step", spy)
        ckpt, _ = train_stage1(store64, desk_config(iterations=2))
        d_id = id(ckpt.params["d1"])
        g_id = id(ckpt.params["g1"])
        assert calls == [d_id, g_id, d_id, g_id]

    def test_determinism_bitwise(self, store64, tmp_path):
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            ckpt, _ = train_stage1(store64, desk_config(iterations=2), out_dir=out)
            outs.append((out / "losses.csv").read_bytes())
            if run == "a":
                first = {k: t.values.copy() for k, t
                         in ckpt.params["g1"].tensors.items()}
            else:
                for k, t in ckpt.params["g1"].tensors.items():
                    assert_array_equal(t.values, first[k])
        assert outs[0] == outs[1]

    def test_empty_store_rejected(self, store64):
        class Empty:
            def split_records(self, split):
                return []

        with pytest.raises(ConfigError):
            train_stage1(Empty(), desk_config())

    def test_resume_matches_uninterrupted(self, store64, tmp_path):
        straight, _ = train_stage1(store64, desk_config(iterations=4))
        part, _ = train_stage1(store64, desk_config(iterations=2))
        p = tmp_path / "part.mdck"
        save_checkpoint(part, p)
        resumed, _ = train_stage1(store64, desk_config(iterations=4),
                                  resume=load_checkpoint(p))
        for net in ("g1", "d1"):
            for k, t in straight.params[net].tensors.items():
                assert_array_equal(t.values, resumed.params[net].tensors[k].values)
            for k, b in straight.params[net].buffers.items():
                assert_array_equal(b, resumed.params[net].buffers[k])
            assert straight.adam[net].t == resumed.adam[net].t

    def test_resume_drops_rows_past_checkpoint(self, store64, tmp_path):
        straight, crashed = tmp_path / "straight", tmp_path / "crashed"
        train_stage1(store64, desk_config(iterations=4), out_dir=straight)
        # checkpoint at 2, then a run that stops at 3 without one
        train_stage1(store64, desk_config(iterations=3, checkpoint_every=2),
                     out_dir=crashed)
        train_stage1(store64, desk_config(iterations=4, checkpoint_every=2),
                     out_dir=crashed,
                     resume=load_checkpoint(crashed / "stage1_iter000002.mdck"))
        assert ((crashed / "losses.csv").read_bytes()
                == (straight / "losses.csv").read_bytes())


    @pytest.mark.parametrize("change", [dict(seed=1), dict(batch_size=1),
                                        dict(width_multiplier=0.25), dict(lr=1e-3)])
    def test_resume_with_other_config_rejected(self, stage1_ckpt, store64, change):
        with pytest.raises(ConfigError):
            train_stage1(store64, desk_config(iterations=3, **change),
                         resume=stage1_ckpt)

    def test_resume_may_change_schedule(self, stage1_ckpt, store64):
        ckpt, _ = train_stage1(store64, desk_config(iterations=3, log_every=2,
                                                    checkpoint_every=5),
                               resume=stage1_ckpt)
        assert ckpt.iteration == 3


def capture_params(monkeypatch):
    """Patch ``_alternate`` to keep the parameter sets it trains in a dict."""
    seen = {}
    real_alternate = training._alternate

    def alternate(store, cfg, out_dir, stage, start, params, *rest, **kw):
        seen.update(params)
        return real_alternate(store, cfg, out_dir, stage, start, params, *rest, **kw)

    monkeypatch.setattr(training, "_alternate", alternate)
    return seen


class TestPhaseGradients:
    """The generator phase computes no discriminator gradient, and every
    tensor requires grad again once training returns or raises."""

    def run(self, stage, store, stage1_ckpt):
        if stage == 1:
            return train_stage1(store, desk_config(iterations=2))
        return train_stage2(store, desk_config(iterations=2), stage1_ckpt)

    @pytest.mark.parametrize("stage", [1, 2])
    def test_generator_phase_leaves_discriminator_alone(self, stage, store64,
                                                       stage1_ckpt, monkeypatch):
        params = capture_params(monkeypatch)
        steps = []
        real_step = training.adam_step

        def spy(net_params, grads, state, cfg):
            d = params[f"d{stage}"].tensors.values()
            steps.append((net_params is params[f"d{stage}"],
                          any(t.grad is not None for t in d),
                          all(t.requires_grad for t in d)))
            return real_step(net_params, grads, state, cfg)

        monkeypatch.setattr(training, "adam_step", spy)
        self.run(stage, store64, stage1_ckpt)
        # D steps on its own gradients; G steps with D frozen and gradient-free
        assert steps == [(True, True, True), (False, False, False)] * 2
        for ps in params.values():
            assert all(t.requires_grad for t in ps.tensors.values())

    @pytest.mark.parametrize("stage", [1, 2])
    def test_flags_restored_after_divergence(self, stage, store64, stage1_ckpt,
                                             monkeypatch):
        params = capture_params(monkeypatch)
        calls = []
        real_backward = training.backward

        def poisoned(loss):
            real_backward(loss)
            calls.append(loss)
            if len(calls) == 2:  # the first generator phase
                g = params[f"g{stage}"]
                next(iter(g.tensors.values())).grad[...] = np.nan

        monkeypatch.setattr(training, "backward", poisoned)
        with pytest.raises(TrainingDiverged):
            self.run(stage, store64, stage1_ckpt)
        assert len(calls) == 2
        for ps in params.values():
            assert all(t.requires_grad for t in ps.tensors.values())


class TestStage2:
    def test_runs_and_g1_frozen(self, store64, stage1_ckpt):
        before = {k: t.values.copy()
                  for k, t in stage1_ckpt.params["g1"].tensors.items()}
        ckpt, reports = train_stage2(store64, desk_config(iterations=2),
                                     stage1_ckpt)
        assert ckpt.stage == 2
        assert set(ckpt.params) == {"g1", "g2", "d2"}
        for k, t in ckpt.params["g1"].tensors.items():
            assert_array_equal(t.values, before[k])
        for rep in reports:
            assert np.isfinite([rep.adv_d, rep.adv_g, rep.content, rep.rank]).all()
            assert rep.lam == 1.0
            assert rep.total_g == rep.adv_g + rep.lam * rep.rank + rep.content
            assert rep.total_d == rep.adv_d - rep.lam * rep.rank

    def test_leaves_caller_g1_trainable(self, store64, tmp_path):
        ck1, _ = train_stage1(store64, desk_config(iterations=2))
        p = tmp_path / "ck1.mdck"
        save_checkpoint(ck1, p)
        train_stage2(store64, desk_config(iterations=1), ck1)
        assert all(t.requires_grad for t in ck1.params["g1"].tensors.values())
        in_memory, _ = train_stage1(store64, desk_config(iterations=3), resume=ck1)
        from_disk, _ = train_stage1(store64, desk_config(iterations=3),
                                    resume=load_checkpoint(p))
        for net in ("g1", "d1"):
            for k, t in from_disk.params[net].tensors.items():
                assert_array_equal(t.values, in_memory.params[net].tensors[k].values)

    def test_resume_matches_uninterrupted(self, store64, stage1_ckpt, tmp_path):
        straight, _ = train_stage2(store64, desk_config(iterations=4), stage1_ckpt)
        part, _ = train_stage2(store64, desk_config(iterations=2), stage1_ckpt)
        p = tmp_path / "part.mdck"
        save_checkpoint(part, p)
        resumed, _ = train_stage2(store64, desk_config(iterations=4), stage1_ckpt,
                                  resume=load_checkpoint(p))
        for net in ("g2", "d2"):
            for k, t in straight.params[net].tensors.items():
                assert_array_equal(t.values, resumed.params[net].tensors[k].values)
            for k, b in straight.params[net].buffers.items():
                assert_array_equal(b, resumed.params[net].buffers[k])
            for k in straight.adam[net].m:
                assert_array_equal(straight.adam[net].m[k], resumed.adam[net].m[k])
                assert_array_equal(straight.adam[net].v[k], resumed.adam[net].v[k])
            assert straight.adam[net].t == resumed.adam[net].t

    def test_resume_with_other_g1_rejected(self, store64, stage1_ckpt):
        part, _ = train_stage2(store64, desk_config(iterations=1), stage1_ckpt)
        other, _ = train_stage1(store64, desk_config(iterations=1))
        with pytest.raises(ConfigError):
            train_stage2(store64, desk_config(iterations=2), other, resume=part)

    @pytest.mark.parametrize("saved, given", [(0x00000000, 0x80000000),
                                              (0x7FC00000, 0x7FC00001)],
                             ids=["signed_zero", "nan_payload"])
    def test_resume_with_g1_other_bits_rejected(self, store64, stage1_ckpt, saved,
                                                given):
        """G1 is compared by bits: 0.0 against -0.0, which compare equal, or
        NaNs whose payloads differ, are a different G1."""
        part, _ = train_stage2(store64, desk_config(iterations=1), stage1_ckpt)
        g1s = []
        for bits in (saved, given):
            g1 = stage1_ckpt.params["g1"].clone()
            g1.tensors["conv2.weight"].values.view(np.uint32).flat[5] = bits
            g1s.append(g1)
        assert np.array_equal(g1s[0].tensors["conv2.weight"].values,
                              g1s[1].tensors["conv2.weight"].values, equal_nan=True)
        resume = dataclasses.replace(part, params={**part.params, "g1": g1s[0]})
        given_ckpt = dataclasses.replace(stage1_ckpt, params={"g1": g1s[1]})
        with pytest.raises(ConfigError, match="different stage-1 generator"):
            train_stage2(store64, desk_config(iterations=2), given_ckpt, resume=resume)

    @pytest.mark.parametrize("change", [dict(seed=1), dict(batch_size=1),
                                        dict(lambda_rank=0.5)])
    def test_resume_with_other_config_rejected(self, store64, stage1_ckpt, change):
        part, _ = train_stage2(store64, desk_config(iterations=1), stage1_ckpt)
        with pytest.raises(ConfigError):
            train_stage2(store64, desk_config(iterations=2, **change), stage1_ckpt,
                         resume=part)

    def test_gradient_flow_isolation(self, store64, stage1_ckpt):
        cfg = desk_config()
        g1p = stage1_ckpt.params["g1"]
        for t in g1p.tensors.values():
            t.requires_grad = False
        g2p = g1p.clone()
        d2p = init_parameters(build_discriminator(64, 0.125), 5)
        nets = (build_generator(1, 64, 0.125), g1p,
                build_generator(2, 64, 0.125), g2p,
                build_discriminator(64, 0.125), d2p)
        y, x = load_batch(store64, "train", 2, seed=1)

        loss_d, _ = stage2_d_objective(nets, y, x, cfg.lambda_rank)
        backward(loss_d)
        assert all(t.grad is not None for t in d2p.tensors.values())
        assert all(t.grad is None for t in g2p.tensors.values())
        d2p.zero_grad()

        loss_g, _ = stage2_g_objective(nets, y, x, cfg.lambda_rank)
        backward(loss_g)
        assert all(t.grad is not None for t in g2p.tensors.values())
        assert all(t.grad is None for t in g1p.tensors.values())

    def test_direction_contract_single_seed(self, store64, stage1_ckpt):
        report = direction_probe(store64, stage1_ckpt, seed=0)
        assert report["d_ascends"] and report["g_descends"]

    def test_lambda_zero_degenerates(self, store64, stage1_ckpt):
        ckpt, reports = train_stage2(store64, desk_config(iterations=1,
                                                          lambda_rank=0.0),
                                     stage1_ckpt)
        rep = reports[-1]
        assert rep.total_g == rep.adv_g + rep.content
        assert rep.total_d == rep.adv_d

    def test_missing_checkpoint_rejected(self, store64):
        with pytest.raises(ConfigError):
            train_stage2(store64, desk_config(), None)

    def test_geometry_mismatch_rejected(self, store64, stage1_ckpt):
        with pytest.raises(ConfigError):
            train_stage2(store64, desk_config(width_multiplier=0.25), stage1_ckpt)


class TestObjectiveContract:
    def test_losses_are_report_totals(self, store64, stage1_ckpt):
        """On one batch, the loss each phase descends is the total its report
        terms give: the discriminator's total_d and the generator's total_g,
        in both stages and at either rank weight. This pins the sign of the
        rank term in the discriminator's descent loss."""
        g1p, d1p = (stage1_ckpt.params[net].clone() for net in ("g1", "d1"))
        d_spec = build_discriminator(64, 0.125)
        stage1 = (build_generator(1, 64, 0.125), g1p, d_spec, d1p)
        stage2 = (build_generator(1, 64, 0.125), g1p, build_generator(2, 64, 0.125),
                  g1p.clone(), d_spec, init_parameters(d_spec, 5))
        y, x = load_batch(store64, "train", 2, seed=1)
        for lam in (0.0, 1.0):
            for (loss_d, d_terms), (loss_g, g_terms) in (
                    (stage1_d_objective(stage1, y, x), stage1_g_objective(stage1, y, x)),
                    (stage2_d_objective(stage2, y, x, lam),
                     stage2_g_objective(stage2, y, x, lam))):
                rep = LossReport(iteration=1, lam=lam, **d_terms, **g_terms)
                assert_allclose(loss_d.item(), rep.total_d, rtol=1e-5, atol=1e-6)
                assert_allclose(loss_g.item(), rep.total_g, rtol=1e-5, atol=1e-6)


class TestLossTrajectory:
    """The first losses.csv rows of a desk-scale run of each stage, pinned to
    what the separate stage-1 and stage-2 loops wrote before they shared
    one loop."""

    STAGE1 = [
        [1, 1.390668272972107, -0.2574285566806793, 0.43129754066467285, 0.0,
         0.17386898398399353, 1.390668272972107],
        [2, 1.5886778831481934, -0.1748412847518921, 0.3131225109100342, 0.0,
         0.1382812261581421, 1.5886778831481934],
        [3, 1.4315540790557861, -0.38830631971359253, 0.43017372488975525, 0.0,
         0.04186740517616272, 1.4315540790557861],
    ]
    STAGE2 = [
        [1, 1.1791231632232666, -0.4805848002433777, 0.43146172165870667,
         29.353750228881836, 29.304627150297165, -28.17462706565857],
        [2, 1.7110099792480469, -0.4617663025856018, 0.3093153238296509,
         18.73925018310547, 18.586799204349518, -17.028240203857422],
        [3, 0.8856030106544495, -0.24633166193962097, 0.43058040738105774,
         31.93450927734375, 32.11875802278519, -31.0489062666893],
    ]

    def test_first_rows(self, store64, tmp_path):
        ck1, _ = train_stage1(store64, desk_config(iterations=3), out_dir=tmp_path / "s1")
        train_stage2(store64, desk_config(iterations=3), ck1, out_dir=tmp_path / "s2")
        for run, want in (("s1", self.STAGE1), ("s2", self.STAGE2)):
            rows = np.loadtxt(tmp_path / run / "losses.csv", delimiter=",", skiprows=1)
            assert_allclose(rows, want, rtol=1e-5)


def direction_probe(store, stage1_ckpt, seed, step=1e-4):
    """Probe that one Adam step moves each objective the contracted way:
    uphill for the discriminator, downhill for the generator."""
    cfg = desk_config(seed=seed)
    g1p = stage1_ckpt.params["g1"]
    for t in g1p.tensors.values():
        t.requires_grad = False
    g2p = g1p.clone()
    d2p = init_parameters(build_discriminator(64, 0.125), 100 + seed)
    nets = (build_generator(1, 64, 0.125), g1p,
            build_generator(2, 64, 0.125), g2p,
            build_discriminator(64, 0.125), d2p)
    y, x = load_batch(store, "train", cfg.batch_size, seed=seed)

    def probe(params, objective_fn, sign):
        # gradient and the Adam step direction at fresh state
        params.zero_grad()
        before = objective_fn().item()
        backward(objective_fn() * sign)
        saved = {k: t.values.copy() for k, t in params.tensors.items()}
        adam_step(params, {k: t.grad for k, t in params.tensors.items()
                           if t.grad is not None}, AdamState.fresh(params),
                  dataclasses.replace(cfg, lr=step))
        after = objective_fn().item()
        for k, t in params.tensors.items():
            t.values[...] = saved[k]
        params.zero_grad()
        return before, after

    # the discriminator's ascent objective is the negated loss it descends
    d_obj = lambda: -stage2_d_objective(nets, y, x, cfg.lambda_rank)[0]
    g_obj = lambda: stage2_g_objective(nets, y, x, cfg.lambda_rank)[0]
    d_before, d_after = probe(d2p, d_obj, sign=-1.0)   # Adam minimizes -objective
    g_before, g_after = probe(g2p, g_obj, sign=1.0)
    return {"d_ascends": d_after > d_before, "g_descends": g_after < g_before,
            "d_delta": d_after - d_before, "g_delta": g_after - g_before}


class TestGenerate:
    def test_stage1_pipeline(self, stage1_ckpt):
        rng = np.random.default_rng(0)
        frame = Tensor(rng.uniform(-1, 1, (1, 3, 64, 64)).astype(np.float32))
        video = generate_video(stage1_ckpt, frame)
        assert video.shape == (1, 3, 32, 64, 64)
        assert np.all(np.abs(video.values) < 1.0)

    def test_stage2_applies_both(self, store64, stage1_ckpt):
        ckpt2, _ = train_stage2(store64, desk_config(iterations=1), stage1_ckpt)
        rng = np.random.default_rng(1)
        frame = Tensor(rng.uniform(-1, 1, (1, 3, 64, 64)).astype(np.float32))
        v2 = generate_video(ckpt2, frame)
        v1 = generate_video(stage1_ckpt, frame)
        assert v2.shape == v1.shape
        assert np.any(v2.values != v1.values)

    def test_batch_mode_normalizes_with_clip_statistics(self, store64, stage1_ckpt):
        """With generation_bn_mode=batch, G1 and G2 run train-mode batch norm
        on the clip being generated and leave their running buffers alone."""
        running, _ = train_stage2(store64, desk_config(iterations=1), stage1_ckpt)
        ckpt = dataclasses.replace(
            running, config={**running.config, "generation_bn_mode": "batch"})
        buffers = {(net, k): b.copy() for net in training.GENERATORS
                   for k, b in ckpt.params[net].buffers.items()}
        frame = Tensor(np.random.default_rng(2).uniform(-1, 1, (1, 3, 64, 64))
                       .astype(np.float32))
        video = generate_video(ckpt, frame)
        with no_grad():
            want = duplicate_frame(frame.values, CLIP_FRAMES)
            for stage, net in ((1, "g1"), (2, "g2")):
                want = forward_generator(build_generator(stage, 64, 0.125),
                                         ckpt.params[net], want, "train",
                                         update_running=False)
        assert video.values.tobytes() == want.values.tobytes()
        for (net, k), b in buffers.items():
            assert ckpt.params[net].buffers[k].tobytes() == b.tobytes()
        assert np.any(video.values != generate_video(running, frame).values)

    def test_resolution_mismatch(self, stage1_ckpt):
        frame = Tensor(np.zeros((1, 3, 128, 128), dtype=np.float32))
        with pytest.raises(ConfigError):
            generate_video(stage1_ckpt, frame)


def other_split_store(store, root):
    """A copy of ``store`` whose train split lacks its first train clip."""
    import shutil

    from lapsegan.data import ClipStore, read_manifest, write_manifest
    shutil.copytree(store.root, root)
    records = read_manifest(root)
    next(r for r in records if r.split == "train").split = "test"
    write_manifest(root, records)
    return ClipStore(root)


class TestResumeStore:
    """Checkpoints record the hash of the train split they were trained on,
    and a resume on a store with another train split is rejected."""

    def run(self, stage, store, stage1_ckpt, iterations, resume=None):
        cfg = desk_config(iterations=iterations)
        if stage == 1:
            return train_stage1(store, cfg, resume=resume)[0]
        return train_stage2(store, cfg, stage1_ckpt, resume=resume)[0]

    @pytest.mark.parametrize("stage", [1, 2])
    def test_checkpoint_records_train_split(self, stage, store64, stage1_ckpt,
                                            tmp_path):
        from lapsegan.data import records_sha256
        ckpt = self.run(stage, store64, stage1_ckpt, 1)
        p = tmp_path / "c.mdck"
        save_checkpoint(ckpt, p)
        assert load_checkpoint(p).train_split_sha256 == records_sha256(
            store64.split_records("train"))

    @pytest.mark.parametrize("stage", [1, 2])
    def test_resume_on_other_train_split_rejected(self, stage, store64,
                                                  stage1_ckpt, tmp_path):
        other = other_split_store(store64, tmp_path / "other")
        part = self.run(stage, store64, stage1_ckpt, 1)
        with pytest.raises(ConfigError, match="train split"):
            self.run(stage, other, stage1_ckpt, 2, resume=part)

    @pytest.mark.parametrize("stage", [1, 2])
    def test_file_without_split_hash_resumes(self, stage, store64, stage1_ckpt,
                                             tmp_path):
        straight = self.run(stage, store64, stage1_ckpt, 2)
        part = self.run(stage, store64, stage1_ckpt, 1)
        part.train_split_sha256 = None
        p = tmp_path / "old.mdck"
        save_checkpoint(part, p)
        raw = p.read_bytes()
        meta_len, = struct.unpack("<I", raw[12:16])
        assert b"train_split_sha256" not in raw[16:16 + meta_len]
        resumed = self.run(stage, store64, stage1_ckpt, 2, resume=load_checkpoint(p))
        for net, ps in straight.params.items():
            for k, t in ps.tensors.items():
                assert_array_equal(t.values, resumed.params[net].tensors[k].values)


class TestDiscriminatorBuffers:
    """Discriminators keep no batch-norm running statistics: fresh runs write
    none, and a file that still carries them resumes as if it did not."""

    def run(self, stage, store, stage1_ckpt, iterations, out_dir, resume=None):
        cfg = desk_config(iterations=iterations)
        if stage == 1:
            return train_stage1(store, cfg, out_dir=out_dir, resume=resume)[0]
        return train_stage2(store, cfg, stage1_ckpt, out_dir=out_dir, resume=resume)[0]

    def test_fresh_runs_write_generator_buffers_only(self, store64, tmp_path):
        from lapsegan.models import build_generator
        n_bn = sum(l.batch_norm for l in build_generator(1, 64, 0.125).layers)
        ck1 = self.run(1, store64, None, 1, tmp_path / "s1")
        ck2 = self.run(2, store64, ck1, 1, tmp_path / "s2")
        files = [load_checkpoint(tmp_path / "s1" / "stage1_final.mdck"),
                 load_checkpoint(tmp_path / "s2" / "stage2_final.mdck")]
        for ckpt in [ck1, ck2] + files:
            assert set(ckpt.params) in ({"g1", "d1"}, {"g1", "g2", "d2"})
            for net, ps in ckpt.params.items():
                assert len(ps.buffers) == (0 if net.startswith("d") else 2 * n_bn), net

    @pytest.mark.parametrize("stage", [1, 2])
    def test_file_with_discriminator_buffers_resumes_bitwise(
            self, stage, store64, stage1_ckpt, tmp_path):
        import shutil
        d_net, name = f"d{stage}", f"stage{stage}_final.mdck"
        self.run(stage, store64, stage1_ckpt, 2, tmp_path / "new")
        shutil.copytree(tmp_path / "new", tmp_path / "old")
        old = load_checkpoint(tmp_path / "old" / name)
        rng = np.random.default_rng(0)
        for k in [k for k in old.params[d_net].tensors if k.endswith(".gamma")]:
            c = old.params[d_net].tensors[k].shape[0]
            layer = k[:-len(".gamma")]
            old.params[d_net].buffers[f"{layer}.running_mean"] = rng.normal(
                0.0, 0.1, c).astype(np.float32)
            old.params[d_net].buffers[f"{layer}.running_var"] = rng.uniform(
                0.5, 1.5, c).astype(np.float32)
        save_checkpoint(old, tmp_path / "old" / name)
        assert load_checkpoint(tmp_path / "old" / name).params[d_net].buffers

        runs = {}
        for run in ("new", "old"):
            resume = load_checkpoint(tmp_path / run / name)
            runs[run] = self.run(stage, store64, stage1_ckpt, 4, tmp_path / run,
                                 resume=resume)
        new, old = runs["new"], runs["old"]
        assert ((tmp_path / "new" / "losses.csv").read_bytes()
                == (tmp_path / "old" / "losses.csv").read_bytes())
        for net, ps in new.params.items():
            for k, t in ps.tensors.items():
                assert_array_equal(t.values, old.params[net].tensors[k].values)
            assert ps.buffers.keys() == old.params[net].buffers.keys()
            for k, b in ps.buffers.items():
                assert_array_equal(b, old.params[net].buffers[k])
        for net, st in new.adam.items():
            assert st.t == old.adam[net].t
            for k in st.m:
                assert_array_equal(st.m[k], old.adam[net].m[k])
                assert_array_equal(st.v[k], old.adam[net].v[k])
        assert load_checkpoint(tmp_path / "old" / name).params[d_net].buffers == {}
