"""Multi-photon security toolkit for polarization-encoded key distribution.

Subpackages:

* qmath        -- states, operators, and protocol constant sets
* attack_forms -- effective multi-photon attacks and event quadratic forms
* bounds       -- semidefinite feasibility frontiers and analytic bounds
* keyrate      -- entropies, rates, thresholds, decoy composition
* simulate     -- Monte Carlo channel model and its closed-form exact law
* reports      -- run manifests and CSV/JSON writers
* cli          -- command-line entry point

The protocol names, their channel laws and the photon numbers the
certificates cover are defined here, without numpy, so that the
command-line parser can read them before any numerical layer is imported,
and simulate reads the law without importing keyrate.
"""

__version__ = "0.1.0"

# The SARG04 tags, four-state and six-state: every command reads them.
PROTOCOLS = ("four-state", "six-state")

# Every protocol record's tag: the SARG04 tags, then the two protocols the
# paper compares them with, BB84 and the original six-state protocol, which
# only verify, thresholds and constants-check read.
RECORD_TAGS = PROTOCOLS + ("bb84", "six-state-original")

# Each tag's depolarizing channel law e_bit = a*p/(b + c*p), as (a, b, c):
# SARG04's conclusive error 4p/(3 + 4p) (simulate.exact_channel_stats), and
# the sifted error 2p/3 of BB84 and the original six-state protocol
# (keyrate.depol_p inverts it).
DEPOLARIZING_LAWS = {"four-state": (4, 3, 4), "six-state": (4, 3, 4),
                     "bb84": (2, 3, 0), "six-state-original": (2, 3, 0)}

# Photon numbers covered by the certificates, the threshold tables and fixed-nu
# simulate runs; the last must not exceed simulate.MAX_PHOTONS.
SUPPORTED_NU = (1, 2, 3, 4)

# The largest x a frontier margin is certified at (its roundoff is ~1e-9).
FRONTIER_X_MAX = 1e6

__all__ = [
    "attack_forms",
    "bounds",
    "cli",
    "keyrate",
    "qmath",
    "reports",
    "simulate",
    "DEPOLARIZING_LAWS",
    "PROTOCOLS",
    "RECORD_TAGS",
    "SUPPORTED_NU",
    "__version__",
]
