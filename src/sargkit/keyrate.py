"""Entropies, worst-case error distributions, key rates, and thresholds.

Rates are asymptotic per sifted conclusive pair:

* single photon: R1 = 1 - H(X,Z) where the joint distribution of the
  (bit error, phase error) indicators is chosen adversarially subject to the
  marginal constraint e_ph = 1.5*e_bit and the two correlation inequalities;
* two photons:   R2 = 1 - h(e_bit) - h(e_ph) with e_ph the best certified
  bound min_x [x*e_bit + g(x)], evaluated in closed form (bit/phase treated
  as independent);
* six-state variant: same shape as R2 but with the numerically computed
  frontier y_star(x) in place of g, for photon numbers 1..4.

Every threshold takes one path, ``_threshold``: a bisection root of the rate
in e_bit on a fixed bracket.  A rate already <= 0 at the bracket's low end
means no key at any error rate, and the threshold is e = 0.  Depolarizing-
channel conversions map between e_bit and the channel parameter p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import bounds

# Reference values for the comparison tables: (e_bit, depolarizing p)
# thresholds quoted for the four-state protocol at nu = 1, 2 and the six-state
# variant at nu = 1..4 (no p quoted), and depolarizing thresholds for two
# well-known single-photon protocols.
FOUR_STATE_REFERENCE = {1: (0.0968, 0.0804), 2: (0.0271, 0.0208)}
SIX_STATE_REFERENCE = {1: (0.112, None), 2: (0.0560, None),
                       3: (0.0237, None), 4: (0.00788, None)}
REFERENCE_BB84_P = 0.165
REFERENCE_SIX_STATE_ORIGINAL_P = 0.190

# Largest |computed - reference| (on e, on p) for a threshold row to pass.
# The six-state rows are informational (None): the entropy model behind
# their quoted values is not pinned down.
FOUR_STATE_TOLERANCE = (2e-4, 5e-4)
SIX_STATE_TOLERANCE = None


def binary_entropy(e: float) -> float:
    """h(e) = -e log2 e - (1-e) log2 (1-e), with h(0) = h(1) = 0."""
    if not 0.0 <= e <= 1.0:
        raise ValueError("binary_entropy argument must be in [0, 1]")
    return _shannon((e, 1.0 - e))


def _phase_charge(e_ph: float) -> float:
    """h(e_ph), saturated at e_ph = 1/2: the entropy charge for a phase-error
    bound, which may exceed 1/2 (the bound itself is reported unclamped)."""
    return binary_entropy(min(e_ph, 0.5))


def _shannon(ps) -> float:
    total = 0.0
    for p in ps:
        if p > 0.0:
            total -= p * math.log2(p)
    return total


@dataclass(frozen=True)
class JointErrorDistribution:
    """Per-conclusive-pair probabilities of (bit error, phase error) patterns."""

    q00: float
    q01: float
    q10: float
    q11: float

    def __post_init__(self):
        qs = (self.q00, self.q01, self.q10, self.q11)
        if min(qs) < -1e-12:
            raise ValueError("negative probability in joint distribution")
        if abs(sum(qs) - 1.0) > 1e-12:
            raise ValueError("joint distribution must sum to 1")

    @property
    def e_bit(self) -> float:
        return self.q10 + self.q11

    @property
    def e_ph(self) -> float:
        return self.q01 + self.q11

    def entropy(self) -> float:
        return _shannon((self.q00, self.q01, self.q10, self.q11))


def _joint_from_s(e: float, s: float) -> JointErrorDistribution:
    return JointErrorDistribution(
        q00=1.0 - 2.5 * e + s, q01=1.5 * e - s, q10=e - s, q11=s
    )


def worst_joint_single(e_bit: float) -> tuple[JointErrorDistribution, float]:
    """Adversarial single-photon joint error distribution and its entropy.

    The constraints (marginals e_bit and 1.5*e_bit, plus the correlation
    inequalities q01 >= 2*q10 and 2*q11 >= q01) collapse the feasible set to
    the segment q11 = s in [e/2, e].  The entropy maximizer has the closed
    form s* = clip(1.5*e^2, e/2, e): 1.5*e^2 is the stationary point where
    the 2x2 table becomes a product distribution, and for e < 1/3 it falls
    below the segment, so the boundary s = e/2 wins.
    """
    e = float(e_bit)
    if not 0.0 <= e <= 0.4:
        raise ValueError("e_bit must be in [0, 0.4] for feasible marginals")
    if e == 0.0:
        return JointErrorDistribution(1.0, 0.0, 0.0, 0.0), 0.0
    s = min(max(1.5 * e * e, 0.5 * e), e)
    dist = _joint_from_s(e, s)
    return dist, dist.entropy()


@dataclass(frozen=True)
class RateResult:
    """A key-rate evaluation at one bit-error rate."""

    e_bit: float
    e_ph: float
    rate: float
    x_opt: float | None = None


@dataclass(frozen=True)
class ThresholdResult:
    """A bisection root of a rate function, with its bracket and residual."""

    protocol: str
    nu: int
    e_threshold: float
    p_threshold: float
    bracket: tuple[float, float]
    residual: float
    x_opt: float | None = None


def rate_single(e_bit: float) -> RateResult:
    """R1 = 1 - H(X,Z) under the adversarial single-photon distribution."""
    dist, h_max = worst_joint_single(e_bit)
    return RateResult(e_bit=e_bit, e_ph=dist.e_ph, rate=1.0 - h_max)


def _bisect_root(f, lo: float, hi: float, tol: float) -> float:
    flo, fhi = f(lo), f(hi)
    if flo <= 0.0 or fhi >= 0.0:
        raise ValueError("root not bracketed: f(%g)=%g, f(%g)=%g" % (lo, flo, hi, fhi))
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _threshold(protocol: str, nu: int, rate, lo: float, hi: float,
               tol: float) -> ThresholdResult:
    """The root in e_bit of ``rate`` (e_bit -> RateResult) on [lo, hi].

    A rate <= 0 at ``lo`` gives e = 0 (no key at any error rate); otherwise
    the root is bisected to width ``tol`` and must be bracketed.  The
    residual and x_opt are those of the rate at the returned e.
    """
    if rate(lo).rate <= 0.0:
        e_star = 0.0
    else:
        e_star = _bisect_root(lambda e: rate(e).rate, lo, hi, tol)
    at_root = rate(e_star)
    return ThresholdResult(
        protocol=protocol, nu=nu, e_threshold=e_star,
        p_threshold=depol_p(e_star), bracket=(lo, hi),
        residual=at_root.rate, x_opt=at_root.x_opt)


def threshold_single() -> ThresholdResult:
    """Bit-error threshold of the single-photon rate (root on [0.05, 0.15])."""
    return _threshold("four-state", 1, rate_single, 0.05, 0.15, 1e-6)


# x_opt reported at e_bit = 0, where the minimizer of x*e_bit + g(x) runs
# off to infinity.
X_SCAN_HI = 50.0


def ephase_bound_two(e_bit: float) -> tuple[float, float]:
    """Best certified two-photon phase-error bound min_x [x*e_bit + g(x)].

    The objective is convex, and with c = 2 - 6*e_bit its stationary point is
    x* = (3*sqrt(2) + c*sqrt(6/(4 - c^2)))/4, where the minimum equals
    (3 - (3*sqrt(2)/4)*c + (sqrt(6)/4)*sqrt(4 - c^2))/6.  Both are evaluated
    with 4 - c^2 = 6*e_bit*(4 - 6*e_bit), which has no cancellation.  At
    e_bit = 0 the infimum sin^2(pi/8) is returned with x_opt = X_SCAN_HI.
    """
    e = float(e_bit)
    if not 0.0 <= e <= 0.5:
        raise ValueError("e_bit must be in [0, 0.5]")
    if e == 0.0:
        return bounds.SIN2_PI_8, X_SCAN_HI
    c = 2.0 - 6.0 * e
    s = math.sqrt(6.0 * e * (4.0 - 6.0 * e))
    x_opt = (3.0 * math.sqrt(2.0) + c * math.sqrt(6.0) / s) / 4.0
    e_ph = (3.0 - 0.75 * math.sqrt(2.0) * c + 0.25 * math.sqrt(6.0) * s) / 6.0
    return e_ph, x_opt


def rate_two(e_bit: float) -> RateResult:
    """R2 = 1 - h(e_bit) - h(e_ph) with independent bit/phase error patterns."""
    e_ph, x_opt = ephase_bound_two(e_bit)
    rate = 1.0 - binary_entropy(e_bit) - _phase_charge(e_ph)
    return RateResult(e_bit=e_bit, e_ph=e_ph, rate=rate, x_opt=x_opt)


def threshold_two() -> ThresholdResult:
    """Bit-error threshold of the two-photon rate (root on [0.001, 0.2])."""
    return _threshold("four-state", 2, rate_two, 0.001, 0.2, 1e-6)


def depol_p(e: float) -> float:
    """Depolarizing rate p = 3e/(4(1-e)) of a conclusive bit-error rate e: the
    inverse of the channel law e = 4p/(3+4p) (simulate.exact_channel_stats)."""
    if not 0.0 <= e <= 0.5:
        raise ValueError("e_bit must be in [0, 0.5] for the depolarizing inverse")
    return 3.0 * e / (4.0 * (1.0 - e))


@dataclass(frozen=True)
class DecoyInputs:
    """Observed fractions feeding the decoy-method total rate.

    p_conc and e_bit describe all conclusive events per sifted pulse; xi_nu is
    the fraction of sifted pulses that are both nu-photon emissions and
    conclusive, with e_nu the corresponding bit-error bound.  Each value is
    a number in [0, 1]; e1 is at most 0.4 and e2 at most 0.5, the domains of
    worst_joint_single and ephase_bound_two.
    """

    p_conc: float
    e_bit: float
    xi1: float
    e1: float
    xi2: float
    e2: float

    def __post_init__(self):
        for name in ("p_conc", "e_bit", "xi1", "e1", "xi2", "e2"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError("%s must be a number, got %r" % (name, v))
            hi = {"e1": 0.4, "e2": 0.5}.get(name, 1.0)
            if not 0.0 <= v <= hi:
                raise ValueError("%s must be in [0, %g], got %r" % (name, hi, v))
        if self.xi1 + self.xi2 > self.p_conc + 1e-12:
            raise ValueError("xi1 + xi2 cannot exceed the conclusive fraction")


def decoy_rate_terms(d: DecoyInputs) -> tuple[float, float, float]:
    """The three addends of the decoy-method total rate.

    Returns (error-correction cost, single-photon term, two-photon term):
    -p_conc*h(e_bit), xi1*(1 - Hbar(Z|X at e1)), xi2*(1 - h(e_ph(e2))),
    where the single-photon conditional entropy is H(X,Z) - h(e) under the
    adversarial joint distribution.
    """
    _, h_joint = worst_joint_single(d.e1)
    cond1 = h_joint - binary_entropy(d.e1)
    e_ph2, _ = ephase_bound_two(d.e2)
    return (
        -d.p_conc * binary_entropy(d.e_bit),
        d.xi1 * (1.0 - cond1),
        d.xi2 * (1.0 - _phase_charge(e_ph2)),
    )


# ---------------------------------------------------------------------------
# Six-state exploratory pipeline
# ---------------------------------------------------------------------------

def ephase_bound_frontier(e_bit: float, protocol: str, nu: int) -> float:
    """min over the x grid of [x*e_bit + y_star(x)] using computed frontiers."""
    return min(x * e_bit + y for x, y in zip(
        bounds.DEFAULT_X_GRID, bounds.frontier_table(protocol, nu)))


def rate_frontier(e_bit: float, protocol: str, nu: int) -> RateResult:
    """Independent-errors rate 1 - h(e) - h(e_ph) from a computed frontier."""
    e_ph = ephase_bound_frontier(e_bit, protocol, nu)
    rate = 1.0 - binary_entropy(e_bit) - _phase_charge(e_ph)
    return RateResult(e_bit=e_bit, e_ph=e_ph, rate=rate)


def sixstate_thresholds(nu: int) -> ThresholdResult:
    """Exploratory six-state threshold for one photon number (1..4).

    Uses the computed frontier in place of g and the independent-errors rate
    (root on [1e-9, 0.45]); see SIX_STATE_TOLERANCE for why agreement with
    SIX_STATE_REFERENCE is reported rather than asserted.
    """
    if nu not in bounds.SUPPORTED_NU:
        raise ValueError("six-state thresholds are computed for nu in %d..%d"
                         % (bounds.SUPPORTED_NU[0], bounds.SUPPORTED_NU[-1]))
    return _threshold("six-state", nu,
                      lambda e: rate_frontier(e, "six-state", nu),
                      1e-9, 0.45, 1e-7)
