"""Two-stage GAN pipeline for predicting time-lapse video from a single frame.

The package is self-contained: it ships its own autodiff tensor core and 3D
convolution kernels, the generator/discriminator builders, the content and
motion-ranking losses, training loops, a frame-clip data pipeline, and the
MSE/PSNR/SSIM evaluation harness. Entry point: the ``lapsegan`` CLI.
"""

__version__ = "0.9.0"

from .tensor import Tensor, backward, no_grad

__all__ = ["Tensor", "backward", "no_grad", "__version__"]
