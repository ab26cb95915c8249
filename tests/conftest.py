import os

# One BLAS thread per caller, set before numpy loads: ops runs its GEMMs on a
# pool with one thread per CPU, and each would otherwise start BLAS threads
# of its own.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest

from lapsegan.config import load_config
from lapsegan.data import ClipStore, ingest, split_store, synth_frame_dirs


def desk_config(**overrides):
    base = dict(resolution=64, width_multiplier=0.125, batch_size=2,
                iterations=3, checkpoint_every=1000, log_every=1000, seed=0)
    base.update(overrides)
    return load_config(overrides=base)


@pytest.fixture(scope="session")
def store64(tmp_path_factory):
    root = tmp_path_factory.mktemp("store64")
    synth_frame_dirs(root / "frames", 4, 64, 64, velocity=1.0, seed=3)
    ingest(root / "frames", root / "store", 64)
    split_store(root / "store", 0.25, seed=1)
    return ClipStore(root / "store")


@pytest.fixture(scope="session")
def stage1_ckpt(store64):
    from lapsegan.training import train_stage1
    ckpt, _ = train_stage1(store64, desk_config(iterations=2))
    return ckpt
