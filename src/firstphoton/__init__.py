"""Kinetics of first-photon emission and disentanglement of atom pairs.

Closed-form laws (``analytic``), rate-equation integration
(``kinetics``), seeded Monte Carlo with coincidence post-selection
(``montecarlo``), inference and model discrimination (``estimation``),
and exchange-symmetry checks for two-particle amplitudes
(``wavefunction``), plus a CLI (``cli``), each imported by name.
"""

__version__ = "0.1.0"
