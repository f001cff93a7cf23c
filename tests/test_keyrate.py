"""Entropies, adversarial Bell vectors, rates, and thresholds."""

import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

import oracles
from sargkit import attack_forms, bounds, keyrate, qmath, simulate

SIN2 = math.sin(math.pi / 8) ** 2
X_OPT_REFERENCE = 2.747  # quoted two-photon operating point (flat optimum)

# Every (protocol, photon number) with a computed frontier.
CASES = [(p, nu) for p in qmath.PROTOCOLS for nu in (1, 2, 3, 4)]
# The exactly linear certified phase error alpha + beta*e at six-state nu=1..3.
LINEAR_EPH = {1: (0.0, 1.5), 2: (SIN2, 3.0 / (2.0 * math.sqrt(2.0))),
              3: (0.25, 0.75)}


# ---------------------------------------------------------------------------
# Entropies and Bell vectors
# ---------------------------------------------------------------------------

def test_binary_entropy_basics():
    assert keyrate.binary_entropy(0.0) == 0.0
    assert keyrate.binary_entropy(1.0) == 0.0
    assert abs(keyrate.binary_entropy(0.5) - 1.0) < 1e-15
    assert abs(keyrate.binary_entropy(0.11) - keyrate.binary_entropy(0.89)) < 1e-14
    with pytest.raises(ValueError):
        keyrate.binary_entropy(1.0001)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=0.4))
def test_worst_joint_is_a_feasible_bell_vector(e):
    # The worst case is a probability vector in BELL_TAGS order with the
    # single-photon marginals e_bit = e and e_ph = 1.5*e, inside both
    # correlation inequalities that correlation_psd_check certifies.  Below
    # e = 1/3 both inequalities bind (s = e/2), so they hold to roundoff.
    q, h = keyrate.worst_joint_single(e)
    _, q01, q10, q11 = q
    assert type(q) is tuple and len(q) == len(qmath.BELL_TAGS)
    assert min(q) >= 0.0 and abs(sum(q) - 1.0) <= 1e-15
    assert abs(q10 + q11 - e) <= 1e-12 and abs(q01 + q11 - 1.5 * e) <= 1e-12
    assert q01 - 2.0 * q10 >= -1e-15 and 2.0 * q11 - q01 >= -1e-15
    assert h == keyrate._shannon(q)


@pytest.mark.parametrize("e", [0.02, 0.05, 0.0968, 0.12])
def test_worst_joint_matches_grid_scan(e):
    # The closed-form maximizer must agree with a dense scan over the
    # feasible segment q11 = s in [e/2, e].
    (_, q01, q10, q11), h_max = keyrate.worst_joint_single(e)
    s_best, h_best = oracles.scan_joint_single(e, points=100001)
    assert abs(h_max - h_best) < 1e-6
    assert abs(q11 - s_best) < 1e-4
    assert abs(q10 + q11 - e) < 1e-12
    assert abs(q01 + q11 - 1.5 * e) < 1e-12


def test_worst_joint_edge_cases():
    assert keyrate.worst_joint_single(0.0) == ((1.0, 0.0, 0.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        keyrate.worst_joint_single(0.41)


def test_entropy_saturates_near_single_photon_threshold():
    q, h = keyrate.worst_joint_single(0.0968)
    assert abs(h - 1.0) < 0.002
    assert (q, h) == ((0.8064, 0.0968, 0.0484, 0.0484), 0.9993419265027552)


# ---------------------------------------------------------------------------
# Rates and thresholds
# ---------------------------------------------------------------------------

def test_rate_single_monotone_decreasing():
    rates = [keyrate.rate_single(e) for e in (0.0, 0.02, 0.05, 0.08, 0.12)]
    assert rates[0] == 1.0
    assert all(b < a for a, b in zip(rates, rates[1:]))


def test_threshold_single_reference_values():
    r = keyrate.threshold_single()
    assert abs(r.e_threshold - 0.0968) <= 2e-4
    assert abs(r.p_threshold - 0.0804) <= 5e-4
    assert abs(r.residual) < 1e-4


def test_ephase_bound_two_properties():
    e_ph0, x0 = keyrate.ephase_bound_two(0.0)
    assert e_ph0 == SIN2 and x0 == keyrate.X_SCAN_HI
    prev = e_ph0
    for e in (0.005, 0.01, 0.02, 0.0271, 0.05):
        e_ph, x_opt = keyrate.ephase_bound_two(e)
        assert e_ph > prev
        assert x_opt >= 0.0
        prev = e_ph
    with pytest.raises(ValueError):
        keyrate.ephase_bound_two(0.6)


def test_ephase_bound_two_is_an_envelope_minimum():
    # Sanity: value can't exceed the objective at arbitrary probe points.
    from sargkit import bounds
    e = 0.02
    e_ph, _ = keyrate.ephase_bound_two(e)
    for x in (0.5, 1.0, 2.0, 3.0, 5.0, 10.0):
        assert e_ph <= x * e + bounds.g_of_x(x) + 1e-12


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=3e-5, max_value=0.5))
def test_ephase_bound_two_matches_scan_and_golden_oracle(e):
    # Above e = 3e-5 the minimizer lies inside the oracle's scan range [0, 50].
    from sargkit import bounds
    e_ph, x_opt = keyrate.ephase_bound_two(e)
    e_ref, _ = oracles.ephase_bound_two_scan(e)
    assert abs(e_ph - e_ref) <= 1e-12
    assert abs(e_ph - (x_opt * e + bounds.g_of_x(x_opt))) <= 1e-12


def test_threshold_two_reference_values():
    r = keyrate.threshold_two()
    assert abs(r.e_threshold - 0.0271) <= 2e-4
    assert abs(r.p_threshold - 0.0208) <= 5e-4
    x_opt = keyrate.ephase_bound_two(r.e_threshold)[1]
    assert abs(x_opt - X_OPT_REFERENCE) <= 0.5  # flat optimum


def _linear_rate(e0: float):
    """A synthetic rate e0 - e with its root at e0."""
    return lambda e: e0 - e


def test_threshold_is_zero_when_there_is_no_key_at_lo():
    r = keyrate._threshold(_linear_rate(-0.25), 0.01, 0.4, 1e-6)
    assert r.e_threshold == 0.0 and r.p_threshold == 0.0
    assert r.residual == -0.25  # the rate at e = 0, not at lo
    assert r.bracket == (0.01, 0.4)


def test_threshold_rejects_an_unbracketed_root():
    with pytest.raises(ValueError, match="not bracketed"):
        keyrate._threshold(_linear_rate(0.5), 0.01, 0.4, 1e-6)


def test_threshold_bisects_to_tol_and_reports_the_rate_at_the_root():
    r = keyrate._threshold(_linear_rate(0.1), 0.01, 0.4, 1e-9)
    assert abs(r.e_threshold - 0.1) <= 1e-9
    assert r.p_threshold == keyrate.depol_p(r.e_threshold)
    assert r.residual == 0.1 - r.e_threshold


@pytest.mark.parametrize("compute,protocol,nu,bracket", [
    (keyrate.threshold_single, "four-state", 1, (0.05, 0.15)),
    (keyrate.threshold_two, "four-state", 2, (0.001, 0.2)),
    *[(lambda nu=nu: keyrate.sixstate_thresholds(nu), "six-state", nu,
       (1e-9, 0.45)) for nu in (1, 2, 3, 4)],
])
def test_every_threshold_reports_bracket_residual_and_x_opt(compute, protocol,
                                                            nu, bracket):
    # A threshold carries only what its root certifies, and it is the one
    # keyrate.threshold computes for its row.  The two-photon operating point
    # x_opt is not a field: ephase_bound_two gives it at the root.
    r = compute()
    assert [f.name for f in dataclasses.fields(r)] == [
        "e_threshold", "p_threshold", "bracket", "residual"]
    assert r.bracket == bracket
    assert abs(r.residual) < 1e-4
    assert keyrate.threshold(protocol, nu) == r
    if (protocol, nu) == ("four-state", 2):
        x_opt = keyrate.ephase_bound_two(r.e_threshold)[1]
        assert abs(x_opt - X_OPT_REFERENCE) <= 0.5


@pytest.mark.parametrize("protocol,nu", [
    ("four-state", 3), ("four-state", None), ("six-state", 5), ("bb84", 1)])
def test_threshold_rejects_a_row_without_a_rate_model(protocol, nu):
    with pytest.raises(ValueError):
        keyrate.threshold(protocol, nu)


def test_depolarizing_conversions_round_trip():
    # depol_p inverts the channel law e = 4p/(3+4p) of the simulator.
    def e_bit(p):
        return simulate.exact_channel_stats("four-state", 1, p, 1.0).e_bit

    assert abs(e_bit(0.05) - 0.0625) < 1e-15
    for p in (0.0, 0.01, 0.1, 0.3, 0.75):
        assert abs(keyrate.depol_p(e_bit(p)) - p) < 1e-12
    with pytest.raises(ValueError):
        e_bit(0.76)
    with pytest.raises(ValueError):
        keyrate.depol_p(0.51)


# ---------------------------------------------------------------------------
# Decoy composition
# ---------------------------------------------------------------------------

def test_decoy_inputs_validation():
    with pytest.raises(ValueError):
        keyrate.DecoyInputs(p_conc=0.1, e_bit=0.0, xi1=0.08, e1=0.0,
                            xi2=0.05, e2=0.0)
    with pytest.raises(ValueError):
        keyrate.DecoyInputs(p_conc=0.2, e_bit=1.2, xi1=0.0, e1=0.0,
                            xi2=0.0, e2=0.0)
    # e1 and e2 beyond the domains of the single- and two-photon rate models.
    with pytest.raises(ValueError, match="e1"):
        keyrate.DecoyInputs(p_conc=0.2, e_bit=0.0, xi1=0.0, e1=0.45,
                            xi2=0.0, e2=0.0)
    with pytest.raises(ValueError, match="e2"):
        keyrate.DecoyInputs(p_conc=0.2, e_bit=0.0, xi1=0.0, e1=0.0,
                            xi2=0.0, e2=0.6)
    # The domain ends themselves are accepted and evaluate.
    d = keyrate.DecoyInputs(p_conc=0.2, e_bit=0.0, xi1=0.1, e1=0.4,
                            xi2=0.1, e2=0.5)
    assert all(math.isfinite(t) for t in keyrate.decoy_rate_terms(d))
    for value in ("1e-2", True, None):
        with pytest.raises(ValueError, match="e1 must be a number"):
            keyrate.DecoyInputs(p_conc=0.2, e_bit=0.0, xi1=0.0, e1=value,
                                xi2=0.0, e2=0.0)


def test_decoy_rate_zero_error_composition():
    d = keyrate.DecoyInputs(p_conc=0.25, e_bit=0.0, xi1=0.1, e1=0.0,
                            xi2=0.05, e2=0.0)
    expected = 0.1 + 0.05 * (1.0 - keyrate.binary_entropy(SIN2))
    assert abs(sum(keyrate.decoy_rate_terms(d)) - expected) < 1e-12


def test_decoy_rate_error_correction_only_is_nonpositive():
    d = keyrate.DecoyInputs(p_conc=0.25, e_bit=0.05, xi1=0.0, e1=0.0,
                            xi2=0.0, e2=0.0)
    assert sum(keyrate.decoy_rate_terms(d)) <= 0.0


def test_decoy_terms_sum_to_total():
    d = keyrate.DecoyInputs(p_conc=0.3, e_bit=0.03, xi1=0.12, e1=0.04,
                            xi2=0.06, e2=0.05)
    terms = keyrate.decoy_rate_terms(d)
    assert terms[0] <= 0.0


# ---------------------------------------------------------------------------
# Six-state pipeline
# ---------------------------------------------------------------------------

def test_six_state_thresholds_positive_and_decreasing():
    es = [keyrate.sixstate_thresholds(nu).e_threshold for nu in (1, 2, 3, 4)]
    assert all(e > 0 for e in es)
    assert all(b < a for a, b in zip(es, es[1:]))


def test_six_state_threshold_regression_values():
    # Pipeline regression anchors.
    expected = {1: 0.088989, 2: 0.048862, 3: 0.023701, 4: 0.007883}
    for nu, e_ref in expected.items():
        r = keyrate.sixstate_thresholds(nu)
        assert r.e_threshold == pytest.approx(e_ref, abs=2e-4)


@pytest.mark.parametrize("nu", [1, 2, 3])
def test_six_state_thresholds_are_the_closed_form_roots(nu):
    # At six-state nu = 1..3 the certified phase error is exactly linear,
    # alpha + beta*e, so each threshold is the root of 1 - h(e) - h(alpha +
    # beta*e), found here with no frontier at all.
    root = oracles.linear_indep_threshold(*LINEAR_EPH[nu], tol=1e-12)
    assert abs(keyrate.sixstate_thresholds(nu).e_threshold - root) <= 1e-7


def test_six_state_thresholds_do_not_read_the_x_grid(monkeypatch):
    rows = [keyrate.sixstate_thresholds(nu) for nu in (1, 2, 3, 4)]
    # frontier_table bound the grid as its default when it was defined, so
    # its default is swapped along with the module constant.
    coarse = (0.0, 0.5, 2.0)
    monkeypatch.setattr(bounds, "DEFAULT_X_GRID", coarse)
    monkeypatch.setattr(bounds.frontier_table, "__defaults__", (coarse,))
    assert [keyrate.sixstate_thresholds(nu) for nu in (1, 2, 3, 4)] == rows


def test_six_state_dominates_like_for_like_baseline():
    # Under the same independent-errors entropy model the six-state frontier
    # can only improve on the four-state one.
    base = oracles.fourstate_indep_threshold()
    assert keyrate.sixstate_thresholds(1).e_threshold >= base - 1e-6


def test_six_state_rejects_unsupported_photon_number():
    with pytest.raises(ValueError):
        keyrate.sixstate_thresholds(5)


def test_reference_tables_present():
    table = keyrate.THRESHOLDS
    assert set(table) == set(qmath.PROTOCOLS)
    assert [row[1] for row in table["four-state"]] == [1, 2]
    assert [row[1] for row in table["six-state"]] == [1, 2, 3, 4, None, None]
    assert {row[0]: row[3] for row in table["six-state"] if row[1] is None} == {
        "bb84-reference": 0.165, "six-state-original-reference": 0.190}
    # A quoted constant has only a p to compare, and so no tolerance.
    assert all(row[2] is None and row[4] is None
               for rows in table.values() for row in rows if row[1] is None)


# ---------------------------------------------------------------------------
# The tangent phase-error bound of a computed frontier
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("e", [-1.0, -5e-324, 0.5000001, math.inf, math.nan])
def test_ephase_bound_frontier_rejects_e_outside_its_domain(e):
    with pytest.raises(ValueError, match="e_bit"):
        keyrate.ephase_bound_frontier(e, "six-state", 4)


@pytest.mark.parametrize("protocol,nu", CASES)
def test_ephase_bound_frontier_at_zero_is_the_exact_floor(protocol, nu):
    assert (keyrate.ephase_bound_frontier(0.0, protocol, nu)
            == bounds.zero_rate_check(protocol, nu))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CASES), st.floats(min_value=0.0, max_value=0.45))
def test_tangent_bound_is_at_most_the_grid_minimum(case, e):
    bound = keyrate.ephase_bound_frontier(e, *case)
    assert bound <= oracles.ephase_bound_grid(e, *case) + 1e-12


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(qmath.PROTOCOLS), st.floats(min_value=0.0,
                                                     max_value=0.45))
def test_tangent_bound_is_three_halves_e_at_one_photon(protocol, e):
    assert abs(keyrate.ephase_bound_frontier(e, protocol, 1) - 1.5 * e) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.just(0.0) | st.floats(min_value=1e-12, max_value=0.45))
@example(1e-9)
@example(1e-11)
@example(1e-12)
def test_tangent_bound_is_the_two_photon_closed_form(e):
    # Above e = 1e-12 the minimizing x, about 1/(4 sqrt(e)), lies below the
    # bisection cap TANGENT_X_CAP, and e = 0 is the exact floor.  Below
    # e = 1e-7 that x passes TANGENT_X_HI = 1024 and the bracket grows.
    bound = keyrate.ephase_bound_frontier(e, "four-state", 2)
    tol = 1e-12 if e == 0.0 or e >= 1e-7 else 1e-10
    assert abs(bound - keyrate.ephase_bound_two(e)[0]) <= tol


def test_tangent_bound_stops_at_the_bisection_cap():
    # Below e(TANGENT_X_CAP), about 5.7e-14, the bound is the certified
    # tangent at the cap, off the closed form by less than 1e-7.
    for e in (1e-14, 5e-324):
        gap = (keyrate.ephase_bound_frontier(e, "four-state", 2)
               - keyrate.ephase_bound_two(e)[0])
        assert 0.0 < gap < 1e-7


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CASES), st.floats(min_value=0.0, max_value=0.45))
# At e = 0 the bracket grows as far as e(x) stays above 0: to the cap at
# four-state nu=2..4 and six-state nu=4, where the touch is within 3.1e-10.
@example(("four-state", 1), 0.0)
@example(("four-state", 2), 0.0)
@example(("four-state", 3), 0.0)
@example(("four-state", 4), 0.0)
@example(("six-state", 1), 0.0)
@example(("six-state", 2), 0.0)
@example(("six-state", 3), 0.0)
@example(("six-state", 4), 0.0)
def test_tangent_bound_is_attained_by_a_lifted_attack(case, e):
    # Each bracketing tangent touches the frontier at the point (e(x), p(x)) of
    # the top eigenvector u of A - x*B.  Lifted to the attack R F^-1/2 u and
    # sent through the compiled forms, u has exactly those bit/fil and ph/fil
    # ratios, so the bound is attained at e(x) by a real attack.
    protocol, nu = case
    a, b = bounds._reduced_pencil(protocol, nu)
    tangents = bounds.supporting_tangents(protocol, nu, lambda e_x, _: e_x <= e)
    if e > 0.0:
        assert (keyrate.ephase_bound_frontier(e, *case)
                == min(x * e + y for x, y in tangents))
    forms = attack_forms.all_forms(protocol, nu)
    e_at = {}
    for x, y in tangents:
        w, v = qmath.eigh_checked(a - x * b)
        if w[-1] <= 0.0:  # y_star clipped to 0: the zero attack
            assert abs(y) <= 1e-12
            e_at[x] = 0.0
            continue
        u = v[:, -1]
        e_x, p_x = (np.vdot(u, h @ u).real for h in (b, a))
        m = oracles.lift_reduced(u, protocol, nu).reshape(-1)
        fil, bit, ph = (np.vdot(m, forms[k].matrix @ m).real
                        for k in ("fil", "bit", "ph"))
        assert abs(bit / fil - e_x) <= 1e-9 and abs(ph / fil - p_x) <= 1e-9
        assert abs(p_x - x * e_x - y) <= 1e-9  # the tangent touches there
        e_at[x] = max(0.0, e_x)
    (x_lo, _), (x_hi, _) = tangents
    width = bounds.TANGENT_X_TOL * max(1.0, x_lo / bounds.TANGENT_X_HI)
    assert 0.0 < x_hi - x_lo <= width
    assert x_lo == 0.0 or e_at[x_lo] > e
    assert x_hi == bounds.TANGENT_X_CAP or e_at[x_hi] <= e
