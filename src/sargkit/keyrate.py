"""Entropies, worst-case Bell vectors, key rates, and thresholds.

Rates are asymptotic per sifted conclusive pair:

* single photon: R1 = 1 - H(q) with q the pair's Bell vector, a plain
  tuple of its (bit error, phase error) weights in qmath.BELL_TAGS order,
  chosen adversarially subject to the marginal constraint e_ph = 1.5*e_bit
  and the two correlation inequalities;
* two photons:   R2 = 1 - h(e_bit) - h(e_ph) with e_ph the best certified
  bound min_x [x*e_bit + g(x)], evaluated in closed form (bit/phase treated
  as independent);
* six-state variant: same shape as R2 for photon numbers 1..4, with g
  replaced by the computed frontier y_star(x), read on no x-grid.

Every rate is a float of e_bit, and every threshold takes one path,
``_threshold``: a bisection root of the rate on a fixed bracket, with the
rate at the root as its residual.  A rate already <= 0 at the bracket's low
end means no key at any error rate, and the threshold is e = 0.
Depolarizing-channel conversions map e_bit to the channel parameter p.  The
`thresholds` report prints THRESHOLDS; ``threshold`` picks each row's model.

The four-state rates and the decoy composition are closed-form float
arithmetic; only the six-state pipeline reads computed frontiers, so only
its two functions import ``bounds`` (and with it numpy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import SUPPORTED_NU

# The thresholds table: per protocol, rows in print order of (label, nu, quoted
# e_bit, quoted depolarizing p, tolerance on |computed - quoted| (e, p)). nu
# None is a quoted constant (BB84's and the original six-state protocol's
# single-photon p); any other nu needs a branch in ``threshold``.  Tolerance
# None makes a row informational, as every six-state row is: the entropy model
# behind its quoted e is unknown.
THRESHOLDS = {
    "four-state": (("four-state", 1, 0.0968, 0.0804, (2e-4, 5e-4)),
                   ("four-state", 2, 0.0271, 0.0208, (2e-4, 5e-4))),
    "six-state": (("six-state", 1, 0.112, None, None),
                  ("six-state", 2, 0.0560, None, None),
                  ("six-state", 3, 0.0237, None, None),
                  ("six-state", 4, 0.00788, None, None),
                  ("bb84-reference", None, None, 0.165, None),
                  ("six-state-original-reference", None, None, 0.190, None)),
}


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


def worst_joint_single(e_bit: float) -> tuple[tuple[float, ...], float]:
    """The adversarial single-photon Bell vector q and its entropy H(q).

    q = (q00, q01, q10, q11) is in qmath.BELL_TAGS order, q_bp the weight of
    bit error b and phase error p.  The constraints (marginals e_bit and
    1.5*e_bit, plus the correlation inequalities q01 >= 2*q10 and
    2*q11 >= q01) collapse the feasible set to the segment q11 = s in
    [e/2, e].  The entropy maximizer has the closed form
    s* = clip(1.5*e^2, e/2, e): 1.5*e^2 is the stationary point where the
    2x2 table becomes a product distribution, and for e < 1/3 it falls below
    the segment, so the boundary s = e/2 wins.  At e = 0 this is (1, 0, 0, 0)
    with H = 0.
    """
    e = float(e_bit)
    if not 0.0 <= e <= 0.4:
        raise ValueError("e_bit must be in [0, 0.4] for feasible marginals")
    s = min(max(1.5 * e * e, 0.5 * e), e)
    q = (1.0 - 2.5 * e + s, 1.5 * e - s, e - s, s)
    return q, _shannon(q)


@dataclass(frozen=True)
class ThresholdResult:
    """A bisection root of a rate function, with its bracket and residual."""

    e_threshold: float
    p_threshold: float
    bracket: tuple[float, float]
    residual: float


def rate_single(e_bit: float) -> float:
    """R1 = 1 - H(q) under the adversarial single-photon Bell vector q."""
    return 1.0 - worst_joint_single(e_bit)[1]


def _threshold(rate, lo: float, hi: float, tol: float) -> ThresholdResult:
    """The root in e_bit of ``rate`` (e_bit -> float) on [lo, hi].

    A rate <= 0 at ``lo`` gives e = 0 (no key at any error rate); otherwise
    the rate must be < 0 at ``hi`` and the root is bisected to width
    ``tol``.  The residual is the rate at the returned e.
    """
    rate_lo = rate(lo)
    e_star = 0.0
    if rate_lo > 0.0:
        a, b, rate_hi = lo, hi, rate(hi)
        if rate_hi >= 0.0:
            raise ValueError("root not bracketed: f(%g)=%g, f(%g)=%g"
                             % (lo, rate_lo, hi, rate_hi))
        while b - a > tol:
            mid = 0.5 * (a + b)
            a, b = (mid, b) if rate(mid) > 0.0 else (a, mid)
        e_star = 0.5 * (a + b)
    return ThresholdResult(
        e_threshold=e_star, p_threshold=depol_p(e_star), bracket=(lo, hi),
        residual=rate(e_star))


def threshold_single() -> ThresholdResult:
    """Bit-error threshold of the single-photon rate (root on [0.05, 0.15])."""
    return _threshold(rate_single, 0.05, 0.15, 1e-6)


# The two-photon zero-error infimum of min_x [x*e_bit + g(x)], reached as
# x -> infinity.
SIN2_PI_8 = math.sin(math.pi / 8) ** 2

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
        return SIN2_PI_8, X_SCAN_HI
    c = 2.0 - 6.0 * e
    s = math.sqrt(6.0 * e * (4.0 - 6.0 * e))
    x_opt = (3.0 * math.sqrt(2.0) + c * math.sqrt(6.0) / s) / 4.0
    e_ph = (3.0 - 0.75 * math.sqrt(2.0) * c + 0.25 * math.sqrt(6.0) * s) / 6.0
    return e_ph, x_opt


def rate_independent(e_bit: float, e_ph: float) -> float:
    """1 - h(e_bit) - h(e_ph) with independent bit/phase error patterns: R2
    with e_ph = ephase_bound_two(e_bit), and the six-state rate."""
    return 1.0 - binary_entropy(e_bit) - _phase_charge(e_ph)


def threshold_two() -> ThresholdResult:
    """Bit-error threshold of the two-photon rate R2 (root on [0.001, 0.2])."""
    return _threshold(lambda e: rate_independent(e, ephase_bound_two(e)[0]),
                      0.001, 0.2, 1e-6)


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
    where the single-photon conditional entropy is H(q) - h(e) under the
    adversarial Bell vector q.
    """
    _, h_joint = worst_joint_single(d.e1)
    cond1 = h_joint - binary_entropy(d.e1)
    e_ph2, _ = ephase_bound_two(d.e2)
    # 0.0 - p*h, not -p*h: a zero cost is +0.0, never -0.0.
    return (
        0.0 - d.p_conc * binary_entropy(d.e_bit),
        d.xi1 * (1.0 - cond1),
        d.xi2 * (1.0 - _phase_charge(e_ph2)),
    )


# ---------------------------------------------------------------------------
# Six-state pipeline
# ---------------------------------------------------------------------------

def ephase_bound_frontier(e_bit: float, protocol: str, nu: int) -> float:
    """Certified min_x [x*e_bit + y_star(x)] of a computed frontier: the floor
    at e_bit = 0, else the lesser tangent around the x where e(x) falls to
    e_bit (bounds.supporting_tangents, whose bracket grows from TANGENT_X_HI
    to TANGENT_X_CAP = 2^20), exact while that x <= TANGENT_X_CAP and the
    certified tangent at the cap beyond it."""
    if not 0.0 <= e_bit <= 0.5:
        raise ValueError("e_bit must be in [0, 0.5]")
    from . import bounds

    if e_bit == 0.0:
        return bounds.zero_rate_check(protocol, nu)
    tangents = bounds.supporting_tangents(protocol, nu, lambda e, _: e <= e_bit)
    return min(x * e_bit + y for x, y in tangents)


def sixstate_thresholds(nu: int) -> ThresholdResult:
    """Six-state threshold for one photon number (1..4): the root on [1e-9,
    0.45] of 1 - h(e) - h(e_ph), e_ph the lesser tangent around the x whose
    frontier point has rate 0; informational in THRESHOLDS (see there)."""
    if nu not in SUPPORTED_NU:
        raise ValueError("six-state thresholds are computed for nu in %d..%d"
                         % (SUPPORTED_NU[0], SUPPORTED_NU[-1]))
    from . import bounds

    tangents = bounds.supporting_tangents(
        "six-state", nu, lambda e_x, p_x: rate_independent(e_x, p_x) > 0.0)
    return _threshold(lambda e: rate_independent(
        e, min(x * e + y for x, y in tangents)), 1e-9, 0.45, 1e-7)


def threshold(protocol: str, nu: int) -> ThresholdResult:
    """A THRESHOLDS row's threshold under its rate model: four-state nu=1 R1,
    nu=2 R2, six-state nu=1..4 the tangent bound."""
    if protocol == "six-state":
        return sixstate_thresholds(nu)
    if protocol == "four-state" and nu in (1, 2):
        return threshold_single() if nu == 1 else threshold_two()
    raise ValueError("no threshold model for %s nu=%r" % (protocol, nu))
