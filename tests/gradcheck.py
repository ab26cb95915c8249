"""Finite-difference gradient checking for the tests."""
import numpy as np

from lapsegan.errors import ContractError
from lapsegan.tensor import Tensor, backward


def grad_check(f, x, step=1e-5, floor=1e-6, sample=None, rng=None):
    """Worst relative error between the analytic gradient of ``f`` and
    central finite differences, probed per element of ``x``.

    ``f`` must be a deterministic scalar-valued function of one tensor.
    ``floor`` guards the relative-error denominator against elements whose
    true gradient is ~0. With ``sample`` set, only that many randomly chosen
    elements are probed (for large inputs); pass ``rng`` to seed the choice.
    Run at float64: finite differences are unreliable at float32.
    """
    x0 = np.array(x.values if isinstance(x, Tensor) else x, dtype=np.float64)
    leaf = Tensor(x0, requires_grad=True)
    out = f(leaf)
    if out.size != 1:
        raise ContractError("grad_check target must be scalar-valued")
    backward(out)
    analytic = (leaf.grad if leaf.grad is not None else np.zeros_like(x0)).ravel()

    n = x0.size
    if sample is not None and sample < n:
        if rng is None:
            rng = np.random.default_rng(0)
        idxs = rng.choice(n, size=sample, replace=False)
    else:
        idxs = range(n)

    flat = x0.ravel()
    worst = 0.0
    for i in idxs:
        orig = flat[i]
        flat[i] = orig + step
        fp = f(Tensor(x0)).item()
        flat[i] = orig - step
        fm = f(Tensor(x0)).item()
        flat[i] = orig
        numeric = (fp - fm) / (2.0 * step)
        a = analytic[i]
        denom = max(abs(a), abs(numeric), floor)
        err = abs(a - numeric) / denom
        if err > worst:
            worst = err
    return worst
