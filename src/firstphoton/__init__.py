"""Kinetics of first-photon emission and disentanglement of atom pairs.

Closed-form laws (``analytic``), rate-equation integration
(``kinetics``), seeded Monte Carlo with coincidence post-selection
(``montecarlo``), inference and model discrimination (``estimation``),
and exchange-symmetry checks for two-particle amplitudes
(``wavefunction``), plus a CLI (``cli``).
"""

__version__ = "0.1.0"

from . import analytic, errors, estimation, kinetics, montecarlo, series, wavefunction
from .analytic import RatePair, WindowConfig
from .estimation import FitResult, ModelComparison
from .kinetics import IntegratorConfig
from .montecarlo import PostSelectionSummary, SimConfig
from .wavefunction import Grid1D, TwoParticleAmplitude

__all__ = [
    "__version__",
    "analytic", "errors", "estimation", "kinetics", "montecarlo", "series",
    "wavefunction",
    "RatePair", "WindowConfig",
    "IntegratorConfig",
    "SimConfig", "PostSelectionSummary",
    "FitResult", "ModelComparison",
    "Grid1D", "TwoParticleAmplitude",
]
