"""Verification toolkit and desk-scale simulator for a compressible
viscous-capillary two-fluid model.

Submodules: model (equilibrium algebra), spectral (Fourier-symbol spectra),
greens (physical-space kernel reconstruction), waveconv (wave-pattern
convolution certification), sim (linear and nonlinear evolution), cli.

Importing the package sets OPENBLAS_NUM_THREADS to 1 unless it is already
set: the package's BLAS work is on 4x4 and thin matrices, where a second
OpenBLAS thread adds CPU time and no wall time.  OpenBLAS reads the
variable when numpy loads it, so the default has no effect in a process
that imported numpy before twofluid.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import model  # noqa: E402,F401

__version__ = "0.1.0"
