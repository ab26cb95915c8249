"""The benchmark's tracer (lapsebench/tracing.py) wraps each function it
times under the module attribute the program calls it through. A rename, or
a call that bypasses that attribute, would drop the function's spans from a
traced run without an error; these checks catch it in tier 1."""
import importlib
import sys
from pathlib import Path

from conftest import desk_config
from lapsegan import training

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "lapsebench"))
import tracing  # noqa: E402

# reached by generate, evaluate and resume, not by a fresh training run
NOT_IN_TRAINING = {"training.load_checkpoint", "training.generate_video"}


def test_every_site_exists():
    missing = [f"{module}.{attr}" for module, attr, _ in tracing.SITES
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing


def test_training_records_a_span_at_every_training_site(store64, tmp_path):
    cfg = desk_config(iterations=1, batch_size=1)
    with tracing.Tracer().installed() as tracer:
        ckpt, _ = training.train_stage1(store64, cfg, out_dir=tmp_path / "run1")
        training.train_stage2(store64, cfg, ckpt, out_dir=tmp_path / "run2")
    want = {name for module, _, name in tracing.SITES
            if module == "lapsegan.training"} - NOT_IN_TRAINING
    seen = {span["name"] for span in tracer.spans}
    assert sorted(want - seen) == []
