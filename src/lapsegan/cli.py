"""Command-line entry point: ingest, synth-data, train-stage1, train-stage2,
generate, evaluate, inspect.

Exit codes are a stable scripting contract: 0 success, 1 usage error,
2 validation error, 3 I/O or integrity error. Run configuration resolves as
defaults < --config file < command-line flags, and the effective config is
echoed into checkpoints and reports.
"""
from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__
from .config import RunConfig, load_config
from .errors import (ConfigError, ContractError, DimensionError, DomainError,
                     IntegrityError)
from .models import RESOLUTIONS
from .tensor import Tensor

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _add_config_flags(parser):
    parser.add_argument("--config", metavar="FILE", default=None,
                        help="key = value config file")
    group = parser.add_argument_group("config overrides")
    for f in fields(RunConfig):
        group.add_argument(f"--{f.name.replace('_', '-')}", dest=f"cfg_{f.name}",
                           metavar="V", default=None)


def _config_from(args):
    overrides = {}
    for f in fields(RunConfig):
        val = getattr(args, f"cfg_{f.name}", None)
        if val is not None:
            overrides[f.name] = val
    return load_config(args.config, overrides)


def build_parser():
    parser = _Parser(prog="lapsegan",
                     description="two-stage GAN video prediction pipeline")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--verbose", action="store_true",
                        help="log warnings and info to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[], help="cut frame directories into a clip store")
    p.add_argument("--frames-root", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--resolution", type=int, choices=RESOLUTIONS, default=128)
    p.add_argument("--test-fraction", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("synth-data", help="generate a synthetic clip store")
    p.add_argument("--out", required=True)
    p.add_argument("--n-sources", type=int, default=8)
    p.add_argument("--frames-per-source", type=int, default=64)
    p.add_argument("--velocity", type=float, default=1.0)
    p.add_argument("--resolution", type=int, choices=RESOLUTIONS, default=64)
    p.add_argument("--test-fraction", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train-stage1", help="train the content stage")
    p.add_argument("--store", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--resume", default=None, metavar="CKPT")
    _add_config_flags(p)

    p = sub.add_parser("train-stage2", help="train the motion-refinement stage")
    p.add_argument("--store", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--g1-checkpoint", required=True)
    p.add_argument("--resume", default=None, metavar="CKPT")
    _add_config_flags(p)

    p = sub.add_parser("generate", help="predict a video from one PPM frame")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--frame", required=True, help="input P6 PPM")
    p.add_argument("--out", required=True, help="output frame directory")

    p = sub.add_parser("evaluate", help="score a checkpoint on a store's test split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV")

    p = sub.add_parser("inspect", help="describe a spec, store, or checkpoint")
    p.add_argument("target", help="'spec', a store directory, or a checkpoint file")
    p.add_argument("--stage", type=int, choices=(1, 2), default=1)
    p.add_argument("--resolution", type=int, choices=RESOLUTIONS, default=128)
    p.add_argument("--width-multiplier", type=float, default=1.0)
    return parser


def cmd_ingest(args):
    from .data import check_split_args, ingest, split_store
    check_split_args(args.test_fraction, args.seed)
    records = ingest(args.frames_root, args.out, args.resolution)
    split_store(args.out, args.test_fraction, args.seed)
    sources = {r.source_id for r in records}
    print(f"ingested {len(records)} clips from {len(sources)} sources "
          f"into {args.out}")
    return EXIT_OK


def cmd_synth_data(args):
    from .data import check_split_args, ingest, split_store, synth_frame_dirs
    check_split_args(args.test_fraction, args.seed)
    frames_dir = Path(args.out) / "frames"
    synth_frame_dirs(frames_dir, args.n_sources, args.frames_per_source,
                     args.resolution, args.velocity, args.seed)
    records = ingest(frames_dir, args.out, args.resolution)
    split_store(args.out, args.test_fraction, args.seed)
    print(f"synthesized {len(records)} clips from {args.n_sources} sources "
          f"into {args.out}")
    return EXIT_OK


def cmd_train_stage1(args):
    from .data import ClipStore
    from .training import load_checkpoint, train_stage1
    cfg = _config_from(args)
    resume = load_checkpoint(args.resume) if args.resume else None
    store = ClipStore(args.store)
    ckpt, _ = train_stage1(store, cfg, out_dir=args.out, resume=resume)
    print(f"stage-1 training done at iteration {ckpt.iteration}; "
          f"checkpoints and losses.csv in {args.out}")
    return EXIT_OK


def cmd_train_stage2(args):
    from .data import ClipStore
    from .training import load_checkpoint, train_stage2
    cfg = _config_from(args)
    g1 = load_checkpoint(args.g1_checkpoint, nets=("g1",))
    resume = load_checkpoint(args.resume) if args.resume else None
    store = ClipStore(args.store)
    ckpt, _ = train_stage2(store, cfg, g1, out_dir=args.out, resume=resume)
    print(f"stage-2 training done at iteration {ckpt.iteration}; "
          f"checkpoints and losses.csv in {args.out}")
    return EXIT_OK


def cmd_generate(args):
    from .data import export_clip, normalize_pixels, read_ppm
    from .training import GENERATORS, generate_video, load_checkpoint
    ckpt = load_checkpoint(args.checkpoint, nets=GENERATORS)
    frame = read_ppm(args.frame)
    x = Tensor(normalize_pixels(frame.transpose(2, 0, 1))[None])
    video = generate_video(ckpt, x)
    paths = export_clip(video.values[0], args.out)
    print(f"wrote {len(paths)} frames to {args.out} "
          f"(stage-{ckpt.stage} pipeline, iteration {ckpt.iteration})")
    return EXIT_OK


def cmd_evaluate(args):
    from .metrics import evaluate
    report = evaluate(args.checkpoint, args.store, args.n, args.seed,
                      out_csv=args.out)
    print(report.summary())
    print(f"per-clip rows written to {args.out}")
    return EXIT_OK


def _inspect_spec(args):
    from .models import build_discriminator, build_generator, format_spec
    print(format_spec(build_generator(args.stage, args.resolution,
                                      args.width_multiplier)))
    print()
    print(format_spec(build_discriminator(args.resolution, args.width_multiplier)))
    return EXIT_OK


def _inspect_store(path):
    from .data import read_manifest
    records = read_manifest(path)
    by_split, by_source = {}, {}
    for r in records:
        by_split[r.split] = by_split.get(r.split, 0) + 1
        by_source[r.source_id] = by_source.get(r.source_id, 0) + 1
    resolution = f", resolution {records[0].h}x{records[0].w}" if records else ""
    print(f"store {path}: {len(records)} clips, {len(by_source)} sources{resolution}")
    for split in sorted(by_split):
        print(f"  {split}: {by_split[split]} clips")
    return EXIT_OK


def _inspect_checkpoint(path):
    from .training import load_checkpoint
    ckpt = load_checkpoint(path)
    print(f"checkpoint {path}: stage {ckpt.stage}, iteration {ckpt.iteration}")
    print(f"  networks: {', '.join(sorted(ckpt.params))}")
    for net, ps in sorted(ckpt.params.items()):
        n = sum(t.size for t in ps.tensors.values())
        print(f"  {net}: {n} parameters, {len(ps.buffers)} buffers")
    print("  config echo:")
    for key in sorted(ckpt.config):
        print(f"    {key} = {ckpt.config[key]}")
    return EXIT_OK


def cmd_inspect(args):
    if args.target == "spec":
        return _inspect_spec(args)
    target = Path(args.target)
    if target.is_dir():
        return _inspect_store(target)
    if target.is_file():
        return _inspect_checkpoint(target)
    raise IntegrityError(f"no such store or checkpoint: {target}")


_COMMANDS = {
    "ingest": cmd_ingest,
    "synth-data": cmd_synth_data,
    "train-stage1": cmd_train_stage1,
    "train-stage2": cmd_train_stage2,
    "generate": cmd_generate,
    "evaluate": cmd_evaluate,
    "inspect": cmd_inspect,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.ERROR,
                        stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    from .training import TrainingDiverged
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, DimensionError, DomainError, ContractError,
            TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (IntegrityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
