"""Numerical laboratory for energy-driven stochastic state-vector reduction.

Subpackages:

* linalg         — array coercion, Hermiticity, spectra, serialization
* noise          — reproducible Wiener-increment streams
* dynamics       — single-step and trajectory integrators
* ensemble       — vectorized reproducible ensemble runner
* reduction      — Born rule, variance decay, Gibbs martingales, scaling
* composite      — clustering residuals and mean-field (Hartree) dynamics
* accretion      — occupancy chains and displaced-oscillator statistics
* phenomenology  — unit-aware reduction-time estimates
* cli            — command-line entry point (`reductionlab ...`)
"""

from . import (  # noqa: F401
    accretion,
    composite,
    dynamics,
    ensemble,
    linalg,
    noise,
    phenomenology,
    reduction,
)

__version__ = "0.1.0"
