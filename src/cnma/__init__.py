"""Component network meta-analysis.

Additive models for networks of multicomponent treatments: an arm-level
Bayesian model with a fixed anchor treatment, a frequentist generalized
least squares model on contrasts, two anchor-free Bayesian models
(contrast-level and arm-level), plus ranking metrics. The seeded
synthetic-network generator used to compare them is ``bench/synth.py``.
"""

__version__ = "0.1.0"
