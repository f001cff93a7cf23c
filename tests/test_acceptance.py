"""Acceptance gate: one test per headline claim, at its stated tolerance.

Each test prints a single PASS line with the measured numbers (visible with
``pytest -rA`` or ``-s``); the pytest verdict itself is the pass/fail signal.
Runtime ceilings are asserted with a monotonic clock.
"""

import math
import time

import numpy as np
import pytest

import oracles
from sargkit import attack_forms, bounds, keyrate, qmath, simulate

SIN2 = math.sin(math.pi / 8) ** 2
RNG = np.random.default_rng(90210)


def _stopwatch():
    t0 = time.monotonic()
    return lambda: time.monotonic() - t0


def test_criterion_01_structural_identities():
    elapsed = _stopwatch()
    r = qmath.ROTATION
    dev_rot = float(np.abs(r @ qmath.PHI[1] - qmath.PHI[0]).max())
    dev_r4 = float(np.abs(np.linalg.matrix_power(r, 4) + qmath.I2).max())
    eigs = np.linalg.eigvalsh(qmath.FILTER)
    dev_eig = float(np.abs(eigs - [qmath.SIN_PI_8, qmath.COS_PI_8]).max())
    dev_meas = qmath.filter_measurement_identity_check()
    pair = (np.kron(qmath.I2, qmath.FILTER)
            @ qmath.pair_source_ket("four-state"))
    dev_pair = float(np.abs(pair - 0.5 * qmath.BELL_KETS["chi0+"]).max())

    assert dev_rot < 1e-12 and dev_r4 < 1e-12 and dev_eig < 1e-12
    assert dev_meas < 1e-12
    assert dev_pair < 1e-12
    t = elapsed()
    assert t < 1.0
    print("ACCEPTANCE 1 PASS: structural identities, max dev %.2e (%.2fs)"
          % (max(dev_rot, dev_r4, dev_eig, dev_meas, dev_pair), t))


def test_criterion_02_single_photon_equality():
    forms = attack_forms.all_forms("four-state", 1)
    dev = float(np.abs(forms["ph"].matrix - 1.5 * forms["bit"].matrix).max())
    assert dev < 1e-10

    worst_rel = 0.0
    for _ in range(100):
        m = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
        _, p_bit, p_ph = oracles.pair_weights(
            attack_forms.conditional_pair_state(m, "four-state"))[:3]
        worst_rel = max(worst_rel,
                        abs(p_ph - 1.5 * p_bit) / max(p_ph, 1e-30))
    assert worst_rel < 1e-9
    print("ACCEPTANCE 2 PASS: phase = 1.5 x bit at nu=1; form dev %.2e, "
          "worst relative dev %.2e on 100 random attacks" % (dev, worst_rel))


def test_criterion_03_correlation_inequalities():
    lo1, lo2 = bounds.correlation_psd_check()
    assert lo1 >= -1e-10
    assert lo2 >= -1e-10
    print("ACCEPTANCE 3 PASS: correlation certificates lambda_min %.2e / %.2e"
          % (lo1, lo2))


def test_criterion_04_two_photon_bound():
    elapsed = _stopwatch()
    grid = [0.25 * k for k in range(41)] + [1e3]
    worst_margin = min(
        bounds.psd_margin(x, bounds.g_of_x(x), "four-state", 2) for x in grid
    )
    assert worst_margin >= -1e-9

    worst_gap = min(
        bounds.g_of_x(x) - bounds.frontier(x, "four-state", 2)
        for x in grid
    )
    assert worst_gap >= -1e-6

    tail = bounds.g_of_x(1e6) - SIN2
    assert 0 <= tail < 1e-5
    t = elapsed()
    assert t < 10.0
    print("ACCEPTANCE 4 PASS: two-photon bound; min margin %.2e, min gap "
          "%.2e, g(1e6)-sin^2 %.2e (%.1fs)" % (worst_margin, worst_gap, tail, t))


def test_criterion_05_thresholds():
    elapsed = _stopwatch()
    e1 = keyrate.threshold_single()
    e2 = keyrate.threshold_two()
    p1, p2 = (keyrate.depol_p(e, "four-state") for e in (e1, e2))
    assert abs(e1 - 0.0968) <= 2e-4
    assert abs(e2 - 0.0271) <= 2e-4
    assert abs(p1 - 0.0804) <= 5e-4
    assert abs(p2 - 0.0208) <= 5e-4
    x_opt = oracles.ephase_bound_two_scan(e2)[1]
    assert abs(x_opt - 2.747) <= 0.5
    t = elapsed()
    assert t < 5.0
    print("ACCEPTANCE 5 PASS: thresholds e1=%.4f p1=%.4f e2=%.4f p2=%.4f "
          "x_opt=%.3f (%.1fs)" % (e1, p1, e2, p2, x_opt, t))


def test_criterion_06_no_key_regimes():
    floor3 = bounds.zero_rate_check("four-state", 3)
    floor2 = bounds.zero_rate_check("four-state", 2)
    assert floor3 >= 0.5 - 1e-3
    assert floor2 <= SIN2 + 1e-3
    print("ACCEPTANCE 6 PASS: no-key floors nu=3 %.6f >= 1/2, nu=2 %.6f <= "
          "sin^2(pi/8)+1e-3" % (floor3, floor2))


def test_criterion_07_channel_law():
    worst = 0.0
    for nu in (1, 2):
        for eta in (1.0, 0.5):
            for p in (0.01, 0.03, 0.05):
                ex = simulate.exact_channel_stats("four-state", nu, p, eta)
                worst = max(worst, abs(ex.e_bit - 4 * p / (3 + 4 * p)))
    assert worst < 1e-9

    worst_conc = max(
        abs(simulate.exact_channel_stats("four-state", 1, p, 1.0).conclusive_prob
            - (0.25 + p / 3))
        for p in (0.01, 0.03, 0.05)
    )
    assert worst_conc < 1e-9
    print("ACCEPTANCE 7 PASS: channel law; e_bit dev %.2e, conclusive dev "
          "%.2e" % (worst, worst_conc))


def test_criterion_08_monte_carlo_consistency(monkeypatch):
    elapsed = _stopwatch()
    lines = []
    for kwargs in (dict(nu=1, p=0.05, eta=0.5), dict(nu=2, p=0.03, eta=1.0)):
        cfg = simulate.SimConfig(protocol="four-state", trials=10 ** 6,
                                 seed=20240811, **kwargs)
        stats = simulate.run_monte_carlo(cfg)
        exact = simulate.exact_channel_stats(
            cfg.protocol, cfg.nu, cfg.p, cfg.eta)
        result = simulate.compare(stats, exact)
        assert result.passed, (kwargs, result)
        with monkeypatch.context() as mp:
            mp.setattr(simulate, "_pool_size", lambda shards: 1)
            replay = simulate.run_monte_carlo(cfg)
        assert replay == stats
        lines.append("nu=%d z=(%.2f, %.2f)" % (cfg.nu, result.z_conclusive,
                                               result.z_ebit))
    t = elapsed()
    assert t < 60.0
    print("ACCEPTANCE 8 PASS: Monte Carlo 2 x 1e6 trials; %s; deterministic "
          "replay (%.1fs)" % ("; ".join(lines), t))


def test_criterion_09_entropy_oracle():
    worst = 0.0
    vertices = keyrate.BELL_VERTICES["four-state", 1]
    for e in (0.02, 0.05, 0.0968, 0.12):
        _, h_rule = keyrate.worst_bell_vector("four-state", 1, e)
        _, h_scan = oracles.scan_bell_slice(vertices, e, points=100001)
        worst = max(worst, abs(h_rule - h_scan))
    assert worst < 1e-6
    _, h_thr = keyrate.worst_bell_vector("four-state", 1, 0.0968)
    assert abs(h_thr - 1.0) <= 0.002
    print("ACCEPTANCE 9 PASS: entropy oracle dev %.2e; H(0.0968) = %.4f"
          % (worst, h_thr))


def test_criterion_10_six_state_pipeline():
    elapsed = _stopwatch()
    es = [keyrate.sixstate_thresholds(nu) for nu in (1, 2, 3, 4)]
    t = elapsed()
    assert t < 60.0

    assert all(e > 0 for e in es)                      # positivity
    assert all(b < a for a, b in zip(es, es[1:]))      # monotone decrease

    # Reported alongside the quoted values; agreement is informational.
    quoted = {1: 0.112, 2: 0.0560, 3: 0.0237, 4: 0.00788}
    report = ", ".join(
        "nu=%d %.4f (quoted %.4f, dev %+.4f)"
        % (nu, e, quoted[nu], e - quoted[nu])
        for nu, e in zip((1, 2, 3, 4), es)
    )
    print("ACCEPTANCE 10 PASS: six-state pipeline in %.1fs; %s" % (t, report))


def test_criterion_11_six_state_thresholds_match_the_quoted_digits():
    # Each quoted six-state e is met within half a unit of its last digit:
    # nu=1, 2 on the Bell-diagonal rate 1 - H(chi(e)), nu=3, 4 on the
    # closed-form phase-error bound.
    elapsed = _stopwatch()
    half_unit = {1: (0.112, 5e-4), 2: (0.0560, 5e-5), 3: (0.0237, 5e-5),
                 4: (0.00788, 5e-6)}
    devs = {}
    for nu, (quoted, tol) in half_unit.items():
        devs[nu] = keyrate.sixstate_thresholds(nu) - quoted
        assert abs(devs[nu]) <= tol
    t = elapsed()
    assert t < 60.0
    print("ACCEPTANCE 11 PASS: six-state thresholds within half a quoted "
          "unit; %s (%.1fs)" % (", ".join(
              "nu=%d dev %+.1e" % item for item in devs.items()), t))
