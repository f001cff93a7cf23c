"""Brute-force reference implementations that the tests compare against.

Each oracle reaches its answer by a route independent of the library's exact
formula: event weights straight from the conditional pair state, a frontier
by bisection on the PSD margin, the two-photon optimum by scan plus golden
section, the worst single-photon entropy by a dense scan.
"""

from __future__ import annotations

import math

import numpy as np

from sargkit import attack_forms, bounds, keyrate


def weight_vector(v: np.ndarray, protocol: str, nu: int) -> np.ndarray:
    """All seven event weights of one attack coordinate vector, in
    ``attack_forms.EVENT_TAGS`` order, from the conditional pair state."""
    rho = attack_forms.conditional_pair_state(
        attack_forms.EffectiveAttack.unflatten(v, nu), protocol)
    b = attack_forms.bell_overlaps(rho)
    p_fil = float(np.trace(rho).real)
    return np.array(
        [
            p_fil,
            b["chi1+"] + b["chi1-"],
            b["chi0-"] + b["chi1-"],
            b["chi0+"],
            b["chi0-"],
            b["chi1+"],
            b["chi1-"],
        ]
    )


def form_matrix(event: str, protocol: str, nu: int) -> attack_forms.EventForm:
    """The compiled Hermitian form for one event tag."""
    if event not in attack_forms.EVENT_TAGS:
        raise ValueError("unknown event %r" % (event,))
    return attack_forms.all_forms(protocol, nu)[event]


def frontier_bisection(x: float, protocol: str, nu: int,
                       tol: float = bounds.PSD_TOL) -> float:
    """Minimal y with psd_margin(x, y) >= -tol, by 60 bisection steps on [0, 1].

    The margin is nondecreasing in y (H_fil is PSD) and y = 1 is feasible.
    """
    if bounds.psd_margin(x, 0.0, protocol, nu) >= -tol:
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if bounds.psd_margin(x, mid, protocol, nu) >= -tol:
            hi = mid
        else:
            lo = mid
    return hi


def golden_min(f, lo: float, hi: float, tol: float = 1e-10):
    """Golden-section minimum of a unimodal scalar function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def ephase_bound_two_scan(e_bit: float, x_hi: float = 50.0,
                          n_coarse: int = 501) -> tuple[float, float]:
    """(e_ph, x_opt) of min_x [x*e_bit + g(x)] by a coarse scan of [0, x_hi]
    and golden-section refinement around the best scan point."""

    def objective(x: float) -> float:
        return x * e_bit + bounds.g_of_x(x)

    xs = [x_hi * k / (n_coarse - 1) for k in range(n_coarse)]
    vals = [objective(x) for x in xs]
    k_best = vals.index(min(vals))
    lo = xs[max(0, k_best - 1)]
    hi = xs[min(n_coarse - 1, k_best + 1)]
    x_opt, e_ph = golden_min(objective, lo, hi)
    return e_ph, x_opt


def scan_joint_single(e_bit: float, points: int = 100001) -> tuple[float, float]:
    """Brute-force entropy maximization over the single-photon segment.

    Returns (s_best, H_best) from a uniform scan of q11 = s in [e/2, e].
    """
    e = float(e_bit)
    lo, hi = 0.5 * e, e
    best_s, best_h = lo, -1.0
    for k in range(points):
        s = lo + (hi - lo) * k / (points - 1)
        h = keyrate.JointErrorDistribution(
            q00=1.0 - 2.5 * e + s, q01=1.5 * e - s, q10=e - s, q11=s).entropy()
        if h > best_h:
            best_h, best_s = h, s
    return best_s, best_h


def fourstate_indep_threshold() -> float:
    """Four-state nu=1 threshold under the independent-errors entropy model.

    Root of 1 - h(e) - h(1.5e); the like-for-like baseline for the six-state
    dominance comparison (the frontier pipeline never uses the
    correlation-aware joint entropy).
    """
    h = keyrate.binary_entropy
    lo, hi = 0.01, 0.3
    while hi - lo > 1e-7:
        mid = 0.5 * (lo + hi)
        if 1.0 - h(mid) - h(1.5 * mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def payload_lines(report: str) -> list[str]:
    """The byte-stable part of a CSV report (everything but comment lines)."""
    return [ln for ln in report.splitlines() if not ln.startswith("#")]
