"""The benchmark's tracer (lapsebench/tracing.py) wraps each function it
times under the module attribute the program calls it through. A rename, or
a call that bypasses that attribute, would drop the function's spans from a
traced run without an error; these checks catch it in tier 1."""
import importlib
import sys
from pathlib import Path

import pytest
from conftest import desk_config
from lapsegan import metrics, training

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "lapsebench"))
import tracing  # noqa: E402

# reached by generate, evaluate and resume, not by a fresh training run
NOT_IN_TRAINING = {"training.load_checkpoint", "training.generate_video"}


@pytest.fixture(scope="module")
def traced_training(store64, tmp_path_factory):
    """A 1+1-iteration batch-1 desk run under the tracer: its span names and
    its stage-2 run directory."""
    root = tmp_path_factory.mktemp("traced")
    cfg = desk_config(iterations=1, batch_size=1)
    with tracing.Tracer().installed() as tracer:
        ckpt, _ = training.train_stage1(store64, cfg, out_dir=root / "run1")
        training.train_stage2(store64, cfg, ckpt, out_dir=root / "run2")
    return {span["name"] for span in tracer.spans}, root / "run2"


def test_every_site_exists():
    missing = [f"{module}.{attr}" for module, attr, _ in tracing.SITES
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing


def test_training_records_a_span_at_every_training_site(traced_training):
    seen, _ = traced_training
    want = {name for module, _, name in tracing.SITES
            if module == "lapsegan.training"} - NOT_IN_TRAINING
    assert sorted(want - seen) == []


def test_evaluate_records_checkpoint_generation_and_metric_spans(traced_training, store64):
    # SSIM runs on the scoring thread, which must still call metrics.ssim
    _, run2 = traced_training
    with tracing.Tracer().installed() as tracer:
        metrics.evaluate(run2 / "stage2_final.mdck", store64.root, n_samples=2, seed=0)
    want = NOT_IN_TRAINING | {"metrics.ssim", "metrics.mse"}
    seen = {span["name"] for span in tracer.spans}
    assert sorted(want - seen) == []
    assert sum(span["name"] == "metrics.ssim" for span in tracer.spans) == 2
