import json
import re
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import lapsegan
from lapsegan.cli import main
from lapsegan.data import read_manifest, read_ppm, write_ppm


@pytest.fixture(scope="session")
def workspace(tmp_path_factory):
    """A store plus a tiny trained stage-1/stage-2 pair, built via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    store = root / "store"
    run1 = root / "run1"
    run2 = root / "run2"
    assert main(["synth-data", "--out", str(store), "--n-sources", "4",
                 "--frames-per-source", "64", "--resolution", "64",
                 "--test-fraction", "0.25", "--seed", "3"]) == 0
    common = ["--resolution", "64", "--width-multiplier", "0.125",
              "--batch-size", "2", "--iterations", "2", "--seed", "0",
              "--log-every", "100", "--checkpoint-every", "1000"]
    assert main(["train-stage1", "--store", str(store), "--out", str(run1)]
                + common) == 0
    g1 = run1 / "stage1_final.mdck"
    assert main(["train-stage2", "--store", str(store), "--out", str(run2),
                 "--g1-checkpoint", str(g1)] + common) == 0
    return {"store": store, "run1": run1, "run2": run2, "g1": g1,
            "g2": run2 / "stage2_final.mdck"}


class TestSynthData:
    def test_store_layout(self, workspace):
        records = read_manifest(workspace["store"])
        assert len(records) == 8
        splits = {r.split for r in records}
        assert splits == {"train", "test"}

    def test_too_few_sources_exit_2(self, tmp_path):
        code = main(["synth-data", "--out", str(tmp_path / "s"),
                     "--n-sources", "1", "--resolution", "64"])
        assert code == 2


class TestTrain:
    def test_outputs_exist(self, workspace):
        assert (workspace["run1"] / "losses.csv").exists()
        assert workspace["g1"].exists()
        header = (workspace["run1"] / "losses.csv").read_text().splitlines()[0]
        assert header == "iter,adv_d,adv_g,content,rank,total_g,total_d"

    def test_progress_lines(self, workspace, capsys, tmp_path):
        code = main(["train-stage1", "--store", str(workspace["store"]),
                     "--out", str(tmp_path / "r"), "--resolution", "64",
                     "--width-multiplier", "0.125", "--iterations", "1",
                     "--log-every", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "iter=1 adv_d=" in out and "rank=" in out

    def test_log_every_zero_exit_2(self, workspace, tmp_path):
        code = main(["train-stage1", "--store", str(workspace["store"]),
                     "--out", str(tmp_path / "r"), "--resolution", "64",
                     "--width-multiplier", "0.125", "--iterations", "1",
                     "--log-every", "0"])
        assert code == 2
        assert not (tmp_path / "r").exists()

    def test_unknown_config_key_in_file_exit_2(self, workspace, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("banana = 7\n")
        code = main(["train-stage1", "--store", str(workspace["store"]),
                     "--out", str(tmp_path / "r"), "--config", str(cfg)])
        assert code == 2

    def test_config_file_and_flag_precedence(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# desk-scale settings\nresolution = 64\n"
                       "width_multiplier = 0.125\niterations = 1\nseed = 9\n")
        out = tmp_path / "r"
        code = main(["train-stage1", "--store", str(workspace["store"]),
                     "--out", str(out), "--config", str(cfg), "--seed", "11",
                     "--log-every", "100"])
        assert code == 0
        capsys.readouterr()
        assert main(["inspect", str(out / "stage1_final.mdck")]) == 0
        echo = capsys.readouterr().out
        assert "seed = 11" in echo            # flag beats file
        assert "width_multiplier = 0.125" in echo

    def test_stage2_resume_with_other_g1_exit_2(self, workspace, tmp_path):
        common = ["--store", str(workspace["store"]), "--resolution", "64",
                  "--width-multiplier", "0.125", "--batch-size", "2",
                  "--log-every", "100", "--checkpoint-every", "1000"]
        other = tmp_path / "other"
        assert main(["train-stage1", "--out", str(other), "--iterations", "1",
                     "--seed", "1"] + common) == 0
        code = main(["train-stage2", "--out", str(tmp_path / "r2"),
                     "--g1-checkpoint", str(other / "stage1_final.mdck"),
                     "--resume", str(workspace["g2"]), "--iterations", "3",
                     "--seed", "0"] + common)
        assert code == 2

    @pytest.mark.parametrize("stage", [1, 2])
    def test_resume_with_other_seed_exit_2(self, workspace, tmp_path, stage):
        common = ["--store", str(workspace["store"]), "--resolution", "64",
                  "--width-multiplier", "0.125", "--batch-size", "2",
                  "--log-every", "100", "--checkpoint-every", "1000",
                  "--iterations", "3", "--out", str(tmp_path / "r"), "--seed"]
        if stage == 1:
            args = ["train-stage1", "--resume", str(workspace["g1"])] + common
        else:
            args = ["train-stage2", "--g1-checkpoint", str(workspace["g1"]),
                    "--resume", str(workspace["g2"])] + common
        assert main(args + ["1"]) == 2
        assert main(args + ["0"]) == 0

    def test_stage2_reads_only_g1(self, workspace, tmp_path, monkeypatch):
        """train-stage2 keeps only G1 of the stage-1 file; every other block
        is still read through the checksum."""
        from lapsegan import training
        seen, real = [], training.train_stage2

        def spy(store, cfg, g1_checkpoint, **kw):
            seen.append(g1_checkpoint)
            return real(store, cfg, g1_checkpoint, **kw)

        monkeypatch.setattr(training, "train_stage2", spy)
        common = ["train-stage2", "--store", str(workspace["store"]),
                  "--resolution", "64", "--width-multiplier", "0.125",
                  "--batch-size", "2", "--iterations", "2", "--seed", "0",
                  "--log-every", "100", "--checkpoint-every", "1000"]
        out = tmp_path / "r"
        assert main(common + ["--out", str(out), "--g1-checkpoint", str(workspace["g1"])]) == 0
        assert sorted(seen[0].params) == ["g1"] and seen[0].adam == {}
        assert ((out / "losses.csv").read_bytes()
                == (workspace["run2"] / "losses.csv").read_bytes())

        raw = bytearray(workspace["g1"].read_bytes())
        name = raw.index(b"d1/param/")
        block = name + int.from_bytes(raw[name - 2:name], "little")
        assert raw[block:block + 4] == b"MDT1"
        rank = int.from_bytes(raw[block + 4:block + 8], "little")
        raw[block + 8 + 4 * rank + 1] ^= 0xFF  # the first value byte of a D1 parameter
        bad = tmp_path / "bad_d1.mdck"
        bad.write_bytes(bytes(raw))
        assert main(common + ["--out", str(tmp_path / "r2"),
                              "--g1-checkpoint", str(bad)]) == 3

    @pytest.mark.parametrize("flag, value", [
        ("--lr", "-1"), ("--lr", "nan"), ("--lr", "inf"), ("--lambda-rank", "-5"),
        ("--lambda-rank", "inf"), ("--seed", "-1")])
    def test_bad_numeric_key_exit_2_before_run_dir(self, workspace, tmp_path,
                                                   capsys, flag, value):
        out = tmp_path / "r"
        code = main(["train-stage1", "--store", str(workspace["store"]),
                     "--out", str(out), "--resolution", "64",
                     "--width-multiplier", "0.125", "--iterations", "1",
                     flag, value])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{flag[2:].replace('-', '_')} must" in err and f"got {value}" in err
        assert not out.exists()

    def test_missing_g1_checkpoint_exit_3(self, workspace, tmp_path):
        code = main(["train-stage2", "--store", str(workspace["store"]),
                     "--out", str(tmp_path / "r"),
                     "--g1-checkpoint", str(tmp_path / "missing.mdck")])
        assert code == 3


class TestGenerate:
    def test_stage2_generates_frames(self, workspace, tmp_path):
        frame = read_ppm(workspace["store"] / "frames" / "synth000" /
                         "frame_0000.ppm")
        inp = tmp_path / "in.ppm"
        write_ppm(inp, frame)
        out = tmp_path / "gen"
        assert main(["generate", "--checkpoint", str(workspace["g2"]),
                     "--frame", str(inp), "--out", str(out)]) == 0
        frames = sorted(out.glob("frame_*.ppm"))
        assert len(frames) == 32
        assert read_ppm(frames[0]).shape == (64, 64, 3)

    def test_resolution_mismatch_exit_2(self, workspace, tmp_path):
        inp = tmp_path / "big.ppm"
        write_ppm(inp, np.zeros((128, 128, 3), np.uint8))
        code = main(["generate", "--checkpoint", str(workspace["g1"]),
                     "--frame", str(inp), "--out", str(tmp_path / "g")])
        assert code == 2

    def test_corrupt_checkpoint_exit_3(self, workspace, tmp_path):
        bad = tmp_path / "bad.mdck"
        raw = bytearray(workspace["g1"].read_bytes())
        raw[30] ^= 0xFF
        bad.write_bytes(bytes(raw))
        inp = tmp_path / "in.ppm"
        write_ppm(inp, np.zeros((64, 64, 3), np.uint8))
        code = main(["generate", "--checkpoint", str(bad),
                     "--frame", str(inp), "--out", str(tmp_path / "g")])
        assert code == 3

    def test_loads_only_generators(self, workspace, tmp_path):
        """generate and evaluate keep G1 and G2 only; every other block is
        still read through the checksum."""
        from lapsegan.tensor import Tensor
        from lapsegan.training import GENERATORS, generate_video, load_checkpoint
        full = load_checkpoint(workspace["g2"])
        lean = load_checkpoint(workspace["g2"], nets=GENERATORS)
        assert sorted(full.params) == ["d2", "g1", "g2"] and sorted(full.adam) == ["d2", "g2"]
        assert sorted(lean.params) == ["g1", "g2"] and lean.adam == {}
        rng = np.random.default_rng(4)
        frame = Tensor(rng.uniform(-1, 1, (1, 3, 64, 64)).astype(np.float32))
        assert (generate_video(lean, frame).values.tobytes()
                == generate_video(full, frame).values.tobytes())

        raw = bytearray(workspace["g2"].read_bytes())
        name = raw.index(b"d2/param/")
        block = name + int.from_bytes(raw[name - 2:name], "little")
        assert raw[block:block + 4] == b"MDT1"
        rank = int.from_bytes(raw[block + 4:block + 8], "little")
        raw[block + 8 + 4 * rank + 1] ^= 0xFF  # the first value byte of a D2 parameter
        bad = tmp_path / "bad_d2.mdck"
        bad.write_bytes(bytes(raw))
        inp = tmp_path / "in.ppm"
        write_ppm(inp, np.zeros((64, 64, 3), np.uint8))
        assert main(["generate", "--checkpoint", str(bad),
                     "--frame", str(inp), "--out", str(tmp_path / "g")]) == 3
        assert main(["evaluate", "--checkpoint", str(bad), "--store", str(workspace["store"]),
                     "--n", "1", "--seed", "1", "--out", str(tmp_path / "e.csv")]) == 3

    def test_older_checkpoint_version_exit_3(self, workspace, tmp_path):
        # version 1 predates batch-norm-free conv2 at 64 resolution; its
        # conv2.gamma/beta must not be loaded into today's network
        old = tmp_path / "v1.mdck"
        raw = bytearray(workspace["g1"].read_bytes())
        raw[4:8] = (1).to_bytes(4, "little")
        old.write_bytes(bytes(raw))
        inp = tmp_path / "in.ppm"
        write_ppm(inp, np.zeros((64, 64, 3), np.uint8))
        code = main(["generate", "--checkpoint", str(old),
                     "--frame", str(inp), "--out", str(tmp_path / "g")])
        assert code == 3


def _with_meta(src, dst, edit):
    """Copy checkpoint ``src`` to ``dst`` with ``edit(meta)``'s result as its
    meta block and the CRC recomputed."""
    payload = src.read_bytes()[12:]
    n, = struct.unpack("<I", payload[:4])
    raw_meta = json.dumps(edit(json.loads(payload[4:4 + n])), sort_keys=True).encode()
    payload = struct.pack("<I", len(raw_meta)) + raw_meta + payload[4 + n:]
    dst.write_bytes(b"MDCK" + struct.pack("<II", 2, zlib.crc32(payload)) + payload)
    return dst


def _with_echo(src, dst, **keys):
    """Copy checkpoint ``src`` to ``dst`` with ``keys`` added to its config
    echo, as files written before 0.2.0, 0.4.0, 0.5.0 or 0.6.0 carry them,
    and the CRC recomputed."""
    return _with_meta(src, dst, lambda meta: {**meta, "config": {**meta["config"], **keys}})


RETIRED_DEFAULTS = {"gram_taps": "auto", "gram_batch_mean": False, "g2_init": "g1",
                    "bn_eps": 1e-5, "bn_momentum": 0.1,
                    "beta1": 0.5, "beta2": 0.9, "adam_eps": 1e-8,
                    "adv_form": "saturating", "loss_reduction": "mean"}


class TestPre020Files:
    """Checkpoints written before 0.2.0 echo gram_taps, gram_batch_mean and
    g2_init, those written before 0.4.0 echo bn_eps and bn_momentum, those
    written before 0.5.0 echo beta1, beta2 and adam_eps, and those written
    before 0.6.0 echo adv_form and loss_reduction. At the values the program
    now runs they load, resume and generate as if the keys were absent; any
    other value exits 2."""

    @pytest.mark.parametrize("stage", [1, 2])
    def test_loads_resumes_and_generates(self, workspace, tmp_path, stage):
        old = {net: _with_echo(workspace[net], tmp_path / f"old_{net}.mdck",
                               **RETIRED_DEFAULTS) for net in ("g1", "g2")}
        common = ["--store", str(workspace["store"]), "--resolution", "64",
                  "--width-multiplier", "0.125", "--batch-size", "2",
                  "--log-every", "100", "--checkpoint-every", "1000",
                  "--iterations", "3", "--seed", "0"]
        inp = tmp_path / "in.ppm"
        write_ppm(inp, read_ppm(workspace["store"] / "frames" / "synth001" /
                                "frame_0000.ppm"))
        outputs = []
        for files in (workspace, old):
            tag = "old" if files is old else "new"
            if stage == 1:
                args = ["train-stage1", "--resume", str(files["g1"])]
            else:
                args = ["train-stage2", "--g1-checkpoint", str(files["g1"]),
                        "--resume", str(files["g2"])]
            run = tmp_path / f"run_{tag}"
            assert main(args + common + ["--out", str(run)]) == 0
            gen = tmp_path / f"gen_{tag}"
            assert main(["generate", "--checkpoint", str(files[f"g{stage}"]),
                         "--frame", str(inp), "--out", str(gen)]) == 0
            outputs.append([(run / "losses.csv").read_bytes(),
                            (run / f"stage{stage}_final.mdck").read_bytes()]
                           + [f.read_bytes() for f in sorted(gen.iterdir())])
        assert len(outputs[0]) == 2 + 32
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("key, value", [("gram_taps", "conv2,conv5"),
                                            ("g2_init", "fresh"),
                                            ("gram_batch_mean", True),
                                            ("bn_eps", 0.001),
                                            ("bn_momentum", 0.01),
                                            ("beta1", 0.9),
                                            ("beta2", 0.999),
                                            ("adam_eps", 1e-6),
                                            ("adv_form", "nonsaturating"),
                                            ("loss_reduction", "sum")])
    def test_other_value_exit_2_naming_the_key(self, workspace, tmp_path, capsys,
                                               key, value):
        bad = _with_echo(workspace["g2"], tmp_path / "bad.mdck",
                         **{**RETIRED_DEFAULTS, key: value})
        inp = tmp_path / "in.ppm"
        write_ppm(inp, np.zeros((64, 64, 3), np.uint8))
        assert main(["generate", "--checkpoint", str(bad),
                     "--frame", str(inp), "--out", str(tmp_path / "g")]) == 2
        assert key in capsys.readouterr().err
        assert main(["evaluate", "--checkpoint", str(bad), "--store", str(workspace["store"]),
                     "--n", "1", "--seed", "1", "--out", str(tmp_path / "e.csv")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "g").exists() and not (tmp_path / "e.csv").exists()
        assert main(["inspect", str(bad)]) == 0
        assert f"    {key} = {value}" in capsys.readouterr().out

    @pytest.mark.parametrize("key", sorted(RETIRED_DEFAULTS))
    def test_retired_key_in_file_exit_2_as_flag_exit_1(self, workspace, tmp_path, key):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"{key} = {RETIRED_DEFAULTS[key]}\n")
        args = ["train-stage1", "--store", str(workspace["store"]),
                "--out", str(tmp_path / "r")]
        assert main(args + ["--config", str(cfg)]) == 2
        with pytest.raises(SystemExit) as exc:
            main(args + [f"--{key.replace('_', '-')}", str(RETIRED_DEFAULTS[key])])
        assert exc.value.code == 1
        assert not (tmp_path / "r").exists()


MALFORMED_META = {  # name: (edit, exit code, what the error names)
    "empty": (lambda m: {}, 3, "'stage'"),
    "list": (lambda m: [], 3, "'stage'"),
    "adam_without_t": (lambda m: {**m, "adam": {**m["adam"], "g2": {}}}, 3, "'adam'"),
    "config_list": (lambda m: {**m, "config": sorted(m["config"])}, 3, "'config'"),
    "config_without_resolution": (
        lambda m: {**m, "config": {k: v for k, v in m["config"].items()
                                   if k != "resolution"}},
        2, "lacks keys ['resolution']"),
}


class TestMalformedMeta:
    """CRC-valid checkpoints whose meta block is malformed exit 3 naming the
    first bad key; a config echo that would not run exits 2, except from
    ``inspect``, which prints the echo as stored."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_META))
    @pytest.mark.parametrize("command", ["inspect", "generate", "evaluate"])
    def test_exit_code_without_traceback(self, workspace, tmp_path, capsys,
                                         command, case):
        edit, code, named = MALFORMED_META[case]
        if command == "inspect" and code == 2:
            code, named = 0, "config echo:"
        bad = _with_meta(workspace["g2"], tmp_path / "bad.mdck", edit)
        inp = tmp_path / "in.ppm"
        write_ppm(inp, np.zeros((64, 64, 3), np.uint8))
        out = tmp_path / "out"
        args = {"inspect": ["inspect", str(bad)],
                "generate": ["generate", "--checkpoint", str(bad), "--frame", str(inp),
                             "--out", str(out)],
                "evaluate": ["evaluate", "--checkpoint", str(bad), "--n", "1",
                             "--store", str(workspace["store"]), "--out", str(out)]}
        assert main(args[command]) == code
        printed = capsys.readouterr()
        assert named in printed.out + printed.err and "Traceback" not in printed.err
        assert not out.exists()


class TestMistypedEcho:
    """A CRC-valid checkpoint whose config echo holds a value of the wrong
    type exits 2 naming the key, with no traceback."""

    @pytest.mark.parametrize("key, value", [("width_multiplier", "x"), ("batch_size", 2.5),
                                            ("seed", True), ("resolution", "64")])
    @pytest.mark.parametrize("command", ["generate", "evaluate"])
    def test_exit_2_without_traceback(self, workspace, tmp_path, capsys, command, key,
                                      value):
        bad = _with_echo(workspace["g2"], tmp_path / "bad.mdck", **{key: value})
        inp = tmp_path / "in.ppm"
        write_ppm(inp, np.zeros((64, 64, 3), np.uint8))
        out = tmp_path / "out"
        args = {"generate": ["generate", "--checkpoint", str(bad), "--frame", str(inp),
                             "--out", str(out)],
                "evaluate": ["evaluate", "--checkpoint", str(bad), "--n", "1",
                             "--store", str(workspace["store"]), "--out", str(out)]}
        assert main(args[command]) == 2
        err = capsys.readouterr().err
        assert f"{key} must be a" in err and "Traceback" not in err
        assert not out.exists()


class TestSplitArgs:
    """Split arguments are checked before any file of the store is written."""

    @pytest.mark.parametrize("bad", [["--test-fraction", "1.5"], ["--seed", "-1"]],
                             ids=["fraction", "seed"])
    @pytest.mark.parametrize("command", ["synth-data", "ingest"])
    def test_exit_2_before_writing(self, workspace, tmp_path, command, bad):
        out = tmp_path / "s"
        args = {"synth-data": ["synth-data", "--n-sources", "3"],
                "ingest": ["ingest", "--frames-root", str(workspace["store"] / "frames")]}
        assert main(args[command] + ["--out", str(out), "--resolution", "64"] + bad) == 2
        assert not (out / "manifest.jsonl").exists()


class TestIngestSources:
    def test_one_usable_source_exit_2_without_manifest(self, tmp_path, capsys):
        # one source long enough for a clip, one too short to give any
        frames = tmp_path / "frames"
        for name, n_frames in (("long", 32), ("short", 31)):
            (frames / name).mkdir(parents=True)
            for t in range(n_frames):
                write_ppm(frames / name / f"f_{t}.ppm", np.full((8, 8, 3), t, np.uint8))
        out = tmp_path / "s"
        assert main(["ingest", "--frames-root", str(frames), "--out", str(out),
                     "--resolution", "64"]) == 2
        assert "fewer than 2 usable sources" in capsys.readouterr().err
        assert not (out / "manifest.jsonl").exists()
        assert main(["inspect", str(out)]) == 3

    def test_refusal_leaves_no_clip_files(self, tmp_path):
        # the long source gives two clips, which ingest writes before it
        # counts the usable sources
        frames = tmp_path / "frames"
        for name, n_frames in (("long", 64), ("short", 31)):
            (frames / name).mkdir(parents=True)
            for t in range(n_frames):
                write_ppm(frames / name / f"f_{t}.ppm", np.full((8, 8, 3), t, np.uint8))
        out = tmp_path / "s"
        assert main(["ingest", "--frames-root", str(frames), "--out", str(out),
                     "--resolution", "64"]) == 2
        assert not (out / "manifest.jsonl").exists()
        assert sorted((out / "clips").glob("*.mdt")) == []


class TestNegativeSeed:
    def test_synth_data_exit_2(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert main(["synth-data", "--out", str(out), "--resolution", "64",
                     "--seed", "-1"]) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_ingest_exit_2(self, workspace, tmp_path, capsys):
        assert main(["ingest", "--frames-root", str(workspace["store"] / "frames"),
                     "--out", str(tmp_path / "s"), "--resolution", "64",
                     "--seed", "-1"]) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err

    def test_evaluate_exit_2(self, workspace, tmp_path, capsys):
        out = tmp_path / "eval.csv"
        assert main(["evaluate", "--checkpoint", str(workspace["g1"]),
                     "--store", str(workspace["store"]), "--n", "1",
                     "--seed", "-1", "--out", str(out)]) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()


class TestEvaluate:
    def test_writes_csv(self, workspace, tmp_path, capsys):
        out = tmp_path / "eval.csv"
        code = main(["evaluate", "--checkpoint", str(workspace["g1"]),
                     "--store", str(workspace["store"]), "--n", "2",
                     "--seed", "1", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "clip_id,mse,psnr_db,ssim"
        assert lines[-1].startswith("MEAN,")
        assert len(lines) == 4
        assert "psnr(mean mse)" in capsys.readouterr().out

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_fewer_than_one_clip_exit_2(self, workspace, tmp_path, capsys, n):
        out = tmp_path / "eval.csv"
        code = main(["evaluate", "--checkpoint", str(workspace["g1"]),
                     "--store", str(workspace["store"]), "--n", n,
                     "--seed", "1", "--out", str(out)])
        assert code == 2
        assert "at least 1 clip" in capsys.readouterr().err
        assert not out.exists()


def _store_with_manifest(tmp_path, raw):
    store = tmp_path / "store"
    store.mkdir()
    (store / "manifest.jsonl").write_bytes(raw)
    return store


class TestMalformedManifest:
    @pytest.mark.parametrize("line", [b'{"source_id": "synth000",',
                                      b'{"source_id": "synth000"}',
                                      b'{"source_id": "synth\xff"}'],
                             ids=["bad_json", "missing_fields", "not_utf8"])
    @pytest.mark.parametrize("command", ["inspect", "train-stage1", "evaluate"])
    def test_exit_3_naming_the_line(self, workspace, tmp_path, capsys, command, line):
        first = (workspace["store"] / "manifest.jsonl").read_bytes().splitlines()[0]
        store = _store_with_manifest(tmp_path, first + b"\n" + line + b"\n")
        args = {"inspect": ["inspect", str(store)],
                "train-stage1": ["train-stage1", "--store", str(store),
                                 "--out", str(tmp_path / "run")],
                "evaluate": ["evaluate", "--checkpoint", str(workspace["g1"]),
                             "--store", str(store), "--out", str(tmp_path / "e.csv")]}
        assert main(args[command]) == 3
        assert f"{store / 'manifest.jsonl'}:2:" in capsys.readouterr().err

    @pytest.mark.parametrize("fields", [
        {"clip_index": "zero", "file": "../../etc/x.mdt", "h": "big", "source_id": 7,
         "split": "train", "w": None},
        {"source_id": 7}, {"clip_index": "zero"}, {"clip_index": 1.0},
        {"file": 3}, {"split": None}, {"h": "big"}, {"w": None}, {"h": True},
        {"split": "validation"}, {"h": 0}, {"w": -64},
        {"file": "../../etc/x.mdt"}, {"file": "sub/x.mdt"}, {"file": "/x.mdt"},
        {"file": ".."}, {"file": ""}],
        ids=lambda f: "exact_line" if len(f) > 1 else "{}={!r}".format(*next(iter(f.items()))))
    def test_invalid_record_exit_3(self, workspace, tmp_path, capsys, fields):
        lines = (workspace["store"] / "manifest.jsonl").read_bytes().splitlines()
        record = {**json.loads(lines[0]), **fields}
        store = _store_with_manifest(tmp_path, b"\n".join(
            [lines[0], json.dumps(record, sort_keys=True).encode(), b""]))
        assert main(["inspect", str(store)]) == 3
        captured = capsys.readouterr()
        assert f"{store / 'manifest.jsonl'}:2:" in captured.err
        assert "resolution" not in captured.out

    def test_inspect_empty_manifest(self, tmp_path, capsys):
        store = _store_with_manifest(tmp_path, b"")
        assert main(["inspect", str(store)]) == 0
        assert f"store {store}: 0 clips, 0 sources" in capsys.readouterr().out


class TestInspect:
    def test_spec_table(self, capsys):
        assert main(["inspect", "spec", "--stage", "1",
                     "--resolution", "128"]) == 0
        out = capsys.readouterr().out
        for name in ("conv1", "conv6", "deconv6", "score"):
            assert name in out
        assert "(3, 32, 128, 128)" in out

    def test_store_counts(self, workspace, capsys):
        assert main(["inspect", str(workspace["store"])]) == 0
        out = capsys.readouterr().out
        assert "8 clips" in out and "train" in out and "test" in out

    def test_checkpoint_meta(self, workspace, capsys):
        assert main(["inspect", str(workspace["g2"])]) == 0
        out = capsys.readouterr().out
        assert "stage 2" in out and "d2, g1, g2" in out

    def test_only_generators_carry_buffers(self, workspace, capsys):
        assert main(["inspect", str(workspace["g2"])]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^  d2: [1-9]\d* parameters, 0 buffers$", out, re.M)
        for net in ("g1", "g2"):
            assert re.search(rf"^  {net}: [1-9]\d* parameters, [1-9]\d* buffers$", out, re.M)

    def test_missing_target_exit_3(self, tmp_path):
        assert main(["inspect", str(tmp_path / "nope.mdck")]) == 3


class TestUsage:
    def test_unknown_flag_exit_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["train-stage1", "--bogus"])
        assert exc.value.code == 1

    def test_no_command_exit_1(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_console_script(self):
        # run the declared [project.scripts] target the way the installed
        # wrapper does, so the check needs no install on PATH
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fp:
            project = tomllib.load(fp)["project"]
        assert project["version"] == lapsegan.__version__
        entry = project["scripts"]["lapsegan"]
        module, func = entry.split(":")
        code = f"import sys; from {module} import {func}; sys.exit({func}())"
        out = subprocess.run([sys.executable, "-c", code, "--version"],
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == lapsegan.__version__


class TestResumeStore:
    @pytest.mark.parametrize("stage", [1, 2])
    def test_resume_on_other_train_split_exit_2(self, workspace, tmp_path, stage):
        other = tmp_path / "other"
        assert main(["synth-data", "--out", str(other), "--n-sources", "4",
                     "--frames-per-source", "64", "--resolution", "64",
                     "--test-fraction", "0.5", "--seed", "3"]) == 0
        train = [[r for r in read_manifest(s) if r.split == "train"]
                 for s in (other, workspace["store"])]
        assert train[0] != train[1]
        common = ["--resolution", "64", "--width-multiplier", "0.125",
                  "--batch-size", "2", "--log-every", "100",
                  "--checkpoint-every", "1000", "--iterations", "3", "--seed", "0",
                  "--out", str(tmp_path / "r")]
        if stage == 1:
            args = ["train-stage1", "--resume", str(workspace["g1"])] + common
        else:
            args = ["train-stage2", "--g1-checkpoint", str(workspace["g1"]),
                    "--resume", str(workspace["g2"])] + common
        assert main(args + ["--store", str(other)]) == 2
        assert main(args + ["--store", str(workspace["store"])]) == 0
