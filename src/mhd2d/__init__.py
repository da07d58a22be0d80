"""Pseudo-spectral tools for velocity-damped incompressible MHD in 2D.

The package simulates the perturbation of a unit background magnetic
field along x1 on a periodic box and measures everything the linear
theory predicts about it: exact per-mode propagators, normal-mode
decompositions with their degenerate-wavenumber limits, anisotropic
decay rates of the four components, energy functionals with their sharp
cross-term constants, and small-data stability runs.

Each name is imported from the submodule that defines it, for example
``from mhd2d.solver import SolverConfig, run``; the package itself holds
only ``__version__``.
"""

__version__ = "0.1.0"
