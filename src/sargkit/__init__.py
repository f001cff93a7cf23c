"""Multi-photon security toolkit for polarization-encoded key distribution.

Subpackages:

* qmath        -- states, operators, and protocol constant sets
* attack_forms -- effective multi-photon attacks and event quadratic forms
* bounds       -- semidefinite feasibility frontiers and analytic bounds
* keyrate      -- entropies, rates, thresholds, decoy composition
* simulate     -- Monte Carlo channel model and its closed-form exact law
* reports      -- run manifests and CSV/JSON writers
* cli          -- command-line entry point
"""

__version__ = "0.1.0"

__all__ = [
    "attack_forms",
    "bounds",
    "cli",
    "keyrate",
    "qmath",
    "reports",
    "simulate",
    "__version__",
]
