"""Entropies, worst-case Bell vectors, key rates, and thresholds.

Rates are asymptotic per sifted conclusive pair, under one of two rules:

* the Bell-vertex rule, at four-state nu=1 (R1) and six-state nu=1, 2, where
  the reduced Bell forms commute: a conclusive pair's Bell vector chi ranges
  over the polytope of BELL_VERTICES, and the rate is the Bell-diagonal
  one-way rate 1 - max{H(chi) : chi in the polytope, chi1+ + chi1- = e_bit}
  (``worst_bell_vector``; H.-K. Lo, QIC 1, 81 (2001); P. W. Shor and
  J. Preskill, PRL 85, 441 (2000));
* the independent rule 1 - h(e_bit) - h(e_ph), bit and phase errors treated
  as independent, with e_ph the best certified phase-error bound
  min_x [x*e_bit + y(x)]: at four-state nu=2 (R2) y is the paper's curve g;
  at six-state nu=3, 4 y is the computed frontier y_star, whose pencil
  blocks give the minimum in closed form (bounds.phase_minimum), read on no
  x-grid.

Every rate is a float of e_bit, and every threshold is a bare float that
takes one path, ``_threshold``: the float root of the rate on [0, E_BIT_MAX],
its last float with a positive rate.  A rate already <= 0 at e = 0 means no
key at any error rate, and the threshold is 0.  ``depol_p`` maps e_bit to the
depolarizing-channel parameter p.  The `thresholds` report prints THRESHOLDS;
``threshold`` picks each row's model.

The Bell-vertex rule, R2 and the decoy composition are float arithmetic on
plain tables; only the six-state nu=3, 4 rows read computed frontiers, so
only ``ephase_bound_frontier`` and that branch of ``sixstate_thresholds``
import ``bounds`` (and with it numpy).
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass

from . import FRONTIER_X_MAX, SUPPORTED_NU

# The high end of every threshold's bracket: every rate model is defined up to
# it (the narrowest domain, the six-state nu=1 Bell polytope's, ends at 4/7).
E_BIT_MAX = 0.4

_R2 = math.sqrt(2.0)

# The Bell polytope of each row whose reduced Bell forms commute: the distinct
# Bell vectors, in qmath.BELL_TAGS order, of the forms' joint eigenvectors
# (proved against the compiled forms by bounds.bell_vertex_check).  A
# conclusive pair's Bell vector ranges over their hull.  Every row has at most
# three vertices, with distinct bit weights chi1+ + chi1-.
BELL_VERTICES = {
    ("four-state", 1): ((1.0, 0.0, 0.0, 0.0), (0.0, 1 / 3, 0.0, 2 / 3),
                        (0.0, 0.5, 0.25, 0.25)),
    ("six-state", 1): ((1.0, 0.0, 0.0, 0.0), (0.0, 3 / 7, 1 / 7, 3 / 7)),
    ("six-state", 2): (((2 + _R2) / 4, (2 - _R2) / 4, 0.0, 0.0),
                       ((8 - 5 * _R2) / 40, (8 + 5 * _R2) / 40,
                        (12 - 3 * _R2) / 40, (12 + 3 * _R2) / 40)),
}

# The thresholds table: per protocol, rows in print order of (label, nu, quoted
# e_bit, quoted depolarizing p, tolerance on |computed - quoted| (e, p)). nu
# None is a quoted constant (BB84's and the original six-state protocol's
# single-photon p); any other nu needs a rate model in ``threshold``.  A
# tolerance part of None leaves that deviation unchecked, and a tolerance of
# None makes the row informational, as the two reference constants are.  The
# six-state rows quote e only, and are held to half a unit of its last digit.
THRESHOLDS = {
    "four-state": (("four-state", 1, 0.0968, 0.0804, (2e-4, 5e-4)),
                   ("four-state", 2, 0.0271, 0.0208, (2e-4, 5e-4))),
    "six-state": (("six-state", 1, 0.112, None, (5e-4, None)),
                  ("six-state", 2, 0.0560, None, (5e-5, None)),
                  ("six-state", 3, 0.0237, None, (5e-5, None)),
                  ("six-state", 4, 0.00788, None, (5e-6, None)),
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


def _bit(chi) -> float:
    """The bit-error weight chi1+ + chi1- of a Bell vector."""
    return chi[2] + chi[3]


def worst_bell_vector(protocol: str, nu: int,
                      e_bit: float) -> tuple[tuple[float, ...], float]:
    """The adversarial Bell vector chi of a conclusive pair at bit error e_bit
    and its entropy H(chi): the maximum of H over the slice of the row's
    Bell polytope (BELL_VERTICES) at bit weight e_bit.

    The slice of a hull is the hull of the vertices on it and of the points
    where its edges cross it.  A row has at most three vertices, with
    distinct bit weights, so the slice is one point or the segment between
    two, along which H is concave: an end wins when the slope of H there
    points out of the segment, and only a slope that turns inside it is
    bisected (bisect_floats).  At e = 0 every row is a pure state, H = 0.
    """
    vertices = BELL_VERTICES.get((protocol, nu))
    if vertices is None:
        raise ValueError("no Bell vertex table for %s nu=%r" % (protocol, nu))
    e = float(e_bit)
    e_max = max(map(_bit, vertices))
    if not 0.0 <= e <= e_max:
        raise ValueError("e_bit must be in [0, %g] for feasible marginals"
                         % e_max)
    points = [v for v in vertices if _bit(v) == e]
    for v, w in itertools.permutations(vertices, 2):
        if _bit(v) < e < _bit(w):
            t = (e - _bit(v)) / (_bit(w) - _bit(v))
            points.append(tuple(a + t * (b - a) for a, b in zip(v, w)))
    p, q = points[0], points[-1]
    d = [b - a for a, b in zip(p, q)]

    def slope(chi) -> float:
        # dH/dt along p + t*d (sum(d) = 0); a zero weight that d moves is
        # an infinite slope, into the segment.
        return -sum(dx * (math.log2(x) if x > 0.0 else -math.inf)
                    for x, dx in zip(chi, d) if dx)

    def point(t: float) -> tuple[float, ...]:
        return tuple(a + t * dx for a, dx in zip(p, d))

    if slope(p) <= 0.0:
        chi = p
    elif slope(q) >= 0.0:
        chi = q
    else:
        ends = bisect_floats(lambda t: slope(point(t)) <= 0.0, 0.0, 1.0)
        chi = max(map(point, ends), key=_shannon)
    return chi, _shannon(chi)


def bisect_floats(past, lo: float, hi: float) -> tuple[float, float]:
    """The adjacent floats (a, b) where ``past``, monotone (false, then true)
    on (lo, hi), turns true: past(b) or b == hi, not past(a) or a == lo; no
    end is evaluated.  Doubles in [0, inf) (not -0.0) are ordered like their
    int64 bit patterns, so halving that range takes at most 63 evaluations."""
    a, b = struct.unpack("<2q", struct.pack("<2d", lo, hi))
    if not 0 <= a < b < 0x7FF0000000000000:  # the bits of +inf
        raise ValueError("need 0 <= lo < hi < inf, got %r, %r" % (lo, hi))
    while b - a > 1:
        mid = (a + b) // 2
        x = struct.unpack("<d", struct.pack("<q", mid))[0]
        a, b = (a, mid) if past(x) else (mid, b)
    return struct.unpack("<2d", struct.pack("<2q", a, b))


def _threshold(rate) -> float:
    """The float root in e_bit of ``rate`` (e_bit -> float) on [0, E_BIT_MAX]:
    0 when rate(0) <= 0 (no key at any error rate), else, with
    rate(E_BIT_MAX) < 0, the e with rate(e) > 0 >= rate(nextafter(e, 1))."""
    rate_lo = rate(0.0)
    if rate_lo <= 0.0:
        return 0.0
    rate_hi = rate(E_BIT_MAX)
    if rate_hi >= 0.0:
        raise ValueError("root not bracketed: f(0)=%g, f(%g)=%g"
                         % (rate_lo, E_BIT_MAX, rate_hi))
    return bisect_floats(lambda e: rate(e) <= 0.0, 0.0, E_BIT_MAX)[0]


def _bell_threshold(protocol: str, nu: int) -> float:
    """The root of a BELL_VERTICES row's rate 1 - H(worst_bell_vector)."""
    return _threshold(
        lambda e: 1.0 - worst_bell_vector(protocol, nu, e)[1])


def threshold_single() -> float:
    """Bit-error threshold of the single-photon rate R1."""
    return _bell_threshold("four-state", 1)


# The two-photon zero-error infimum of min_x [x*e_bit + g(x)], reached as
# x -> infinity.
SIN2_PI_8 = math.sin(math.pi / 8) ** 2


def ephase_bound_two(e_bit: float) -> float:
    """Best certified two-photon phase-error bound min_x [x*e_bit + g(x)].

    The objective is convex, and with c = 2 - 6*e_bit its minimum, at the
    stationary point x* = (3*sqrt(2) + c*sqrt(6/(4 - c^2)))/4, equals
    (3 - (3*sqrt(2)/4)*c + (sqrt(6)/4)*sqrt(4 - c^2))/6, evaluated with
    4 - c^2 = 6*e_bit*(4 - 6*e_bit), which has no cancellation.  At e_bit = 0
    it is the infimum sin^2(pi/8), approached as x* runs off to infinity.
    """
    e = float(e_bit)
    if not 0.0 <= e <= 0.5:
        raise ValueError("e_bit must be in [0, 0.5]")
    if e == 0.0:
        return SIN2_PI_8
    c = 2.0 - 6.0 * e
    s = math.sqrt(6.0 * e * (4.0 - 6.0 * e))
    return (3.0 - 0.75 * math.sqrt(2.0) * c + 0.25 * math.sqrt(6.0) * s) / 6.0


def rate_independent(e_bit: float, e_ph: float) -> float:
    """1 - h(e_bit) - h(e_ph) with independent bit/phase error patterns: R2
    with e_ph = ephase_bound_two(e_bit), and the six-state rate."""
    return 1.0 - binary_entropy(e_bit) - _phase_charge(e_ph)


def threshold_two() -> float:
    """Bit-error threshold of the two-photon rate R2."""
    return _threshold(lambda e: rate_independent(e, ephase_bound_two(e)))


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
    a number in [0, 1]; e1 is at most 2/3, the domain of the four-state
    nu=1 Bell polytope (worst_bell_vector).  e2 may reach 1: the two-photon
    term reads ephase_bound_two at min(e2, 0.5), since that bound is 1/2 at
    e2 = 1/6 and increases with e2, so h(e_ph) is saturated from there on.
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
            hi = (max(map(_bit, BELL_VERTICES["four-state", 1]))
                  if name == "e1" else 1.0)
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
    _, h_joint = worst_bell_vector("four-state", 1, d.e1)
    cond1 = h_joint - binary_entropy(d.e1)
    # 0.0 - p*h, not -p*h: a zero cost is +0.0, never -0.0.
    return (
        0.0 - d.p_conc * binary_entropy(d.e_bit),
        d.xi1 * (1.0 - cond1),
        d.xi2 * (1.0 - _phase_charge(ephase_bound_two(min(d.e2, 0.5)))),
    )


# ---------------------------------------------------------------------------
# Six-state pipeline
# ---------------------------------------------------------------------------

def ephase_bound_frontier(e_bit: float, protocol: str, nu: int) -> float:
    """Certified min_x [x*e_bit + y_star(x)] of a computed frontier: the floor
    (bounds.zero_rate_check) at e_bit = 0, else x*e_bit + y_star(x) at the x
    of bounds.phase_minimum, or at FRONTIER_X_MAX past it (e_bit < 1e-13, a
    bound within 6.25e-8), with y_star(x) certified by bounds.frontier."""
    if not 0.0 <= e_bit <= 0.5:
        raise ValueError("e_bit must be in [0, 0.5]")
    from . import bounds

    if e_bit == 0.0:
        return bounds.zero_rate_check(protocol, nu)
    x = min(bounds.phase_minimum(protocol, nu, e_bit)[0], FRONTIER_X_MAX)
    return x * e_bit + bounds.frontier(x, protocol, nu)


def sixstate_thresholds(nu: int) -> float:
    """Six-state threshold for one photon number (1..4): the float root of
    1 - H(worst_bell_vector) for a BELL_VERTICES row, else of
    1 - h(e) - h(e_ph), e_ph the closed-form bounds.phase_minimum (the floor
    at e = 0).  No eigen-solve runs inside the root's bisection: the root's
    bracket is certified after it, by one frontier_table of both minimizing
    x."""
    if nu not in SUPPORTED_NU:
        raise ValueError("six-state thresholds are computed for nu in %d..%d"
                         % (SUPPORTED_NU[0], SUPPORTED_NU[-1]))
    if ("six-state", nu) in BELL_VERTICES:
        return _bell_threshold("six-state", nu)
    from . import bounds

    floor = bounds.zero_rate_check("six-state", nu)

    def e_ph(e: float) -> float:
        return floor if e == 0.0 else bounds.phase_minimum("six-state", nu, e)[1]

    root = _threshold(lambda e: rate_independent(e, e_ph(e)))
    if root > 0.0:
        bounds.frontier_table("six-state", nu, [
            bounds.phase_minimum("six-state", nu, e)[0]
            for e in (root, math.nextafter(root, 1.0))])
    return root


def threshold(protocol: str, nu: int) -> float:
    """A THRESHOLDS row's threshold under its rate model: four-state nu=1 R1,
    nu=2 R2, six-state nu=1..4 ``sixstate_thresholds``."""
    if protocol == "six-state":
        return sixstate_thresholds(nu)
    model = {("four-state", 1): threshold_single,
             ("four-state", 2): threshold_two}.get((protocol, nu))
    if model is None:
        raise ValueError("no threshold model for %s nu=%r" % (protocol, nu))
    return model()
