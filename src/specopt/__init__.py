"""Matrix-optimizer toolkit built around one family of spectral updates.

The update direction of a matrix parameter is U sigma^p V^T for an input
matrix with SVD U diag(sigma) V^T: p=1 leaves it alone, p=1/2 and p=1/4
compress the singular-value spread, p=0 flattens it entirely (the polar
factor, as used by Muon). Everything runs on plain numpy arrays: iterative
multiplication-only kernels for speed, an exact Jacobi-SVD oracle for
truth, eight optimizers over the (momentum | rms) x (1, 1/2, 1/4, 0) grid,
and a small deterministic training harness with learning-rate sweeps.

The package exports the quick-start surface below; everything else is
imported from its submodule (``specopt.oracle``, ``specopt.sweep``, ...).
"""

from .kernels import SpectralExponent, spectral_transform
from .optim import HyperParams, parse_optimizer
from .train import TOOLKIT_VERSION, TrainConfig, run_training

__version__ = TOOLKIT_VERSION

__all__ = [
    "HyperParams",
    "SpectralExponent",
    "TrainConfig",
    "parse_optimizer",
    "run_training",
    "spectral_transform",
]
