"""Feasibility margins, the analytic two-photon bound, and frontiers."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sargkit import attack_forms, bounds, qmath

SIN2 = math.sin(math.pi / 8) ** 2
COS2 = math.cos(math.pi / 8) ** 2


# ---------------------------------------------------------------------------
# Analytic bound g
# ---------------------------------------------------------------------------

def test_g_closed_form_values():
    # Hand evaluations of (3 - 2x + sqrt(6 - 6 sqrt(2) x + 4 x^2)) / 6.
    assert abs(bounds.g_of_x(math.sqrt(2)) - (3 - math.sqrt(2)) / 6) < 1e-15
    assert abs(bounds.g_of_x(0.0) - (3 + math.sqrt(6)) / 6) < 1e-15


def test_g_limit_is_sin_squared_pi_8():
    assert 0 < bounds.g_of_x(1e6) - SIN2 < 1e-5


def test_g_decreasing_and_domain():
    xs = [0.25 * k for k in range(41)]
    vals = [bounds.g_of_x(x) for x in xs]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    # At inf, sqrt(inf) - inf is nan: the curve has no value there.
    for x in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="got x=%r$" % x):
            bounds.g_of_x(x)


# ---------------------------------------------------------------------------
# Margins
# ---------------------------------------------------------------------------

def test_single_photon_identity_both_protocols():
    assert bounds.identity_check_single("four-state") < 1e-10
    assert bounds.identity_check_single("six-state") < 1e-10


R2 = math.sqrt(2.0)
# Event forms that are exact combinations a*H_fil + b*H_bit: (protocol, nu,
# form, a, b).  Per conclusive pair each such event then has weight
# a + b*e_bit for every attack.
SPAN_IDENTITIES = [
    ("six-state", 1, "ph", 0.0, 1.5),
    ("six-state", 1, "bell:chi0+", 1.0, -1.75),
    ("six-state", 1, "bell:chi0-", 0.0, 0.75),
    ("six-state", 1, "bell:chi1+", 0.0, 0.25),
    ("six-state", 1, "bell:chi1-", 0.0, 0.75),
    ("six-state", 2, "ph", SIN2, 3.0 / (2.0 * R2)),
    ("six-state", 2, "bell:chi0+", COS2, -(0.5 + 5.0 / (4.0 * R2))),
    ("six-state", 2, "bell:chi0-", SIN2, 5.0 / (4.0 * R2) - 0.5),
    ("six-state", 2, "bell:chi1+", 0.0, 0.5 - 1.0 / (4.0 * R2)),
    ("six-state", 2, "bell:chi1-", 0.0, 0.5 + 1.0 / (4.0 * R2)),
    ("six-state", 3, "ph", 0.25, 0.75),
    ("four-state", 1, "ph", 0.0, 1.5),
]


@pytest.mark.parametrize("protocol,nu,tag,a,b", SPAN_IDENTITIES)
def test_event_form_span_identities(protocol, nu, tag, a, b):
    forms = attack_forms.all_forms(protocol, nu)
    combo = a * forms["fil"].matrix + b * forms["bit"].matrix
    assert np.abs(forms[tag].matrix - combo).max() <= 1e-12


@pytest.mark.parametrize("protocol,nu", [("four-state", 2), ("six-state", 4)])
def test_phase_form_outside_the_span(protocol, nu):
    # The least-squares residuals are 2.9e-2 (four-state nu=2) and 8.8e-3
    # (six-state nu=4): no identity of that form holds there.
    forms = attack_forms.all_forms(protocol, nu)
    basis = np.stack([forms["fil"].matrix.ravel(),
                      forms["bit"].matrix.ravel()], axis=1)
    target = forms["ph"].matrix.ravel()
    coef = np.linalg.lstsq(basis, target, rcond=None)[0]
    assert np.abs(target - basis @ coef).max() > 1e-3


def test_correlation_inequalities_hold():
    lo1, lo2 = bounds.correlation_psd_check()
    assert lo1 >= -1e-10
    assert lo2 >= -1e-10


def test_correlation_check_is_computed_once(monkeypatch):
    first = bounds.correlation_psd_check()
    monkeypatch.setattr(attack_forms, "all_forms", None)  # a second compute fails
    assert bounds.correlation_psd_check() is first


def test_margin_increases_with_y():
    # Adding filter weight can only help: H_fil is PSD.
    for x in (0.0, 1.0, 3.0):
        lo = bounds.psd_margin(x, 0.2, "four-state", 2)
        hi = bounds.psd_margin(x, 0.6, "four-state", 2)
        assert hi >= lo - 1e-12


def test_two_photon_margins_on_default_grid():
    worst = min(
        bounds.psd_margin(x, bounds.g_of_x(x), "four-state", 2)
        for x in bounds.DEFAULT_X_GRID
    )
    assert worst >= -1e-9


def test_margin_detects_infeasible_point():
    # Just below the frontier the certificate must fail.
    y = bounds.frontier(1.0, "four-state", 2)
    assert bounds.psd_margin(1.0, y - 1e-3, "four-state", 2) < 0
    assert bounds.psd_margin(1.0, y + 1e-3, "four-state", 2) > -1e-9


def test_margin_spot_value_against_parts():
    # Rebuild one margin from the raw forms as a wiring check.
    forms = attack_forms.all_forms("four-state", 2)
    x, y = 1.5, 0.5
    h = (x * forms["bit"].matrix + y * forms["fil"].matrix
         - forms["ph"].matrix)
    assert abs(bounds.psd_margin(x, y, "four-state", 2)
               - qmath.min_eigenvalue(h)) < 1e-14


# ---------------------------------------------------------------------------
# Frontier
# ---------------------------------------------------------------------------

def test_frontier_point_is_tight():
    y = bounds.frontier(2.0, "four-state", 2)
    assert 0.0 <= y <= 1.0
    assert bounds.psd_margin(2.0, y + 1e-6, "four-state", 2) >= -1e-9


def test_frontier_dominated_by_analytic_bound():
    table = bounds.frontier_table("four-state", 2)
    for x, y in zip(bounds.DEFAULT_X_GRID, table):
        gx = bounds.g_of_x(x)
        assert y <= gx + 1e-6
        assert bounds.psd_margin(x, gx, "four-state", 2) >= -1e-9


def test_frontier_table_sorted_and_nonincreasing():
    table = bounds.frontier_table("four-state", 2)
    xs = list(bounds.DEFAULT_X_GRID)
    assert xs == sorted(xs)
    assert len(table) == len(bounds.DEFAULT_X_GRID)
    ys = list(table)
    assert all(b <= a + 1e-6 for a, b in zip(ys, ys[1:]))


@pytest.mark.parametrize("past,x_lo,x_hi", [
    (lambda e, p: True, 0.0, bounds.TANGENT_X_TOL),
    (lambda e, p: False, bounds.TANGENT_X_CAP - 2.0 ** -31,
     bounds.TANGENT_X_CAP),
])
def test_supporting_tangents_at_the_bracket_ends(past, x_lo, x_hi):
    # A predicate true (false) everywhere pins the bracket to its low end (the
    # cap), and both tangents carry the frontier's own y_star, bit for bit.
    # Reaching the cap takes 50 halvings of [0, 2^10], then 50 of each
    # [2^k, 2^(k+1)] up to 2^20, where the width has grown to 2^-31.
    seen = []
    tangents = bounds.supporting_tangents(
        "six-state", 4, lambda e, p: seen.append(e) or past(e, p))
    assert len(seen) == (550 if x_hi == bounds.TANGENT_X_CAP else 50)
    assert tangents == ((x_lo, bounds.frontier(x_lo, "six-state", 4)),
                        (x_hi, bounds.frontier(x_hi, "six-state", 4)))


def test_supporting_tangents_pass_the_predicate_each_frontier_point():
    # The bisection costs one solve per halving, and the points it passes,
    # (e(x), p(x)), are both nonincreasing in x: ordered by e, so is p.
    seen = []
    bounds.supporting_tangents("four-state", 2,
                               lambda e, p: seen.append((e, p)) or e <= 0.05)
    assert len(seen) == 50  # log2(TANGENT_X_HI / TANGENT_X_TOL)
    es = sorted(seen, reverse=True)
    assert all(b[1] <= a[1] + 1e-12 for a, b in zip(es, es[1:]))


@pytest.mark.parametrize("protocol", qmath.PROTOCOLS)
@pytest.mark.parametrize("nu", [1, 2, 3, 4])
def test_frontier_matches_bisection_oracle(protocol, nu):
    # The one-solve root sits within the bisection's -1e-9 acceptance slack
    # of the bisection root, and each point carries its own certificate.
    for x in bounds.DEFAULT_X_GRID:
        y = bounds.frontier(x, protocol, nu)
        assert abs(y - oracles.frontier_bisection(x, protocol, nu)) < 5e-8
        assert bounds.psd_margin(x, y, protocol, nu) >= -1e-9


def bits(values) -> list[str]:
    """repr of each float: equal lists mean equal doubles, signed zeros too."""
    return [repr(float(v)) for v in values]


@pytest.mark.parametrize("protocol", qmath.PROTOCOLS)
@pytest.mark.parametrize("nu", [1, 2, 3, 4])
def test_batched_frontier_equals_the_per_point_loop(protocol, nu):
    # One stacked solve per stage makes the same LAPACK call per matrix as
    # the loop, so every y_star and every margin is the same double.
    grid = bounds.DEFAULT_X_GRID
    table = bounds.frontier_table(protocol, nu)
    assert len(table) == len(grid)
    ys = list(table)
    assert bits(ys) == bits(oracles.frontier_per_point(x, protocol, nu)
                            for x in grid)
    assert bits([bounds.frontier(x, protocol, nu) for x in grid]) == bits(ys)
    gs = [bounds.g_of_x(x) for x in grid]
    assert bits(bounds.psd_margin(grid, gs, protocol, nu)) == bits(
        bounds.psd_margin(x, g, protocol, nu) for x, g in zip(grid, gs))


def test_clipped_frontier_is_positive_zero():
    # Four-state nu=1: y_star = max(0, 1.5 - x), so every x > 1.5 clips.
    table = bounds.frontier_table("four-state", 1)
    clipped = [y for x, y in zip(bounds.DEFAULT_X_GRID, table) if x > 1.5]
    assert clipped and bits(clipped) == ["0.0"] * len(clipped)
    assert repr(bounds.frontier(3.0, "four-state", 1)) == "0.0"


def test_frontier_failure_names_the_first_failing_x(monkeypatch):
    margin = bounds.psd_margin

    def short_at(x, y, protocol, nu):
        x = np.asarray(x, dtype=float)
        return margin(x, y, protocol, nu) - 1e-3 * ((x == 2.5) | (x == 4.0))

    monkeypatch.setattr(bounds, "psd_margin", short_at)
    with pytest.raises(ArithmeticError, match=r"x=2\.5 "):
        bounds.frontier_table("four-state", 2, (1.0, 4.0, 2.5, 3.0))
    with pytest.raises(ArithmeticError, match=r"x=4 "):
        bounds.frontier(4.0, "four-state", 2)
    assert bounds.frontier(3.0, "four-state", 2) > 0.0


def test_frontier_table_keeps_the_grid_order_and_repeats():
    grid = (3.0, 0.5, 3.0, 0.0)
    ys = bounds.frontier_table("four-state", 2, grid)
    assert len(ys) == 4
    assert bits(ys) == bits(bounds.frontier(x, "four-state", 2) for x in grid)


def test_frontier_table_of_an_empty_grid_is_empty():
    assert bounds.frontier_table("six-state", 2, ()) == ()


def test_frontier_table_takes_a_list_a_tuple_or_an_array():
    grid = [0.0, 1.0, 2.485, 1000.0]
    tables = [bounds.frontier_table("six-state", 3, g)
              for g in (grid, tuple(grid), np.array(grid))]
    assert all(type(t) is tuple for t in tables)
    assert bits(tables[0]) == bits(tables[1]) == bits(tables[2])
    assert bits(tables[0]) == bits(bounds.frontier(x, "six-state", 3)
                                   for x in grid)


@pytest.mark.parametrize("x", [-1.0, -1e8, math.nan, math.inf, -math.inf])
def test_frontier_rejects_an_x_outside_zero_to_infinity(x):
    # The first bad x is named as a plain float, before any solve.
    with pytest.raises(ValueError, match=r"got x=%s$" % re.escape(repr(x))):
        bounds.frontier(x, "six-state", 4)
    with pytest.raises(ValueError, match=r"got x=%s$" % re.escape(repr(x))):
        bounds.frontier_table("four-state", 2, np.array([1.0, x, -2.0]))


@pytest.mark.parametrize("protocol", qmath.PROTOCOLS)
@pytest.mark.parametrize("nu", range(1, attack_forms.MAX_NU + 1))
def test_bit_and_phase_forms_vanish_on_filter_kernel(protocol, nu):
    forms = attack_forms.all_forms(protocol, nu)
    w, v = np.linalg.eigh(forms["fil"].matrix)
    cut = bounds.RANK_TOL * w[-1]
    kernel = v[:, w <= cut]
    for tag in ("bit", "ph"):
        assert np.linalg.norm(forms[tag].matrix @ kernel, 2) <= cut


def test_frontier_reduction_rejects_kernel_leak(monkeypatch):
    # Four-state nu=4 is the supported case whose H_fil keeps a kernel
    # (rank 8 of 10); a leak onto it must stop the reduction.
    h_bit, h_fil, h_ph = bounds._forms("four-state", 4)
    w, v = np.linalg.eigh(h_fil)
    assert np.count_nonzero(w > bounds.RANK_TOL * w[-1]) == 8
    k = v[:, 0]
    leaky = h_ph + 1e-6 * np.outer(k, k.conj())
    monkeypatch.setattr(bounds, "_forms", lambda protocol, nu: (h_bit, h_fil, leaky))
    with pytest.raises(ArithmeticError):
        bounds._reduced_pencil.__wrapped__("four-state", 4)


def test_frontier_reduction_rejects_an_unclear_filter_kernel_cut(monkeypatch):
    # An H_fil eigenvalue at 1e-9 of the largest lies within six decades
    # above the cut, where roundoff could move it into the kernel.
    h_bit, h_fil, h_ph = bounds._forms("four-state", 1)
    w, v = np.linalg.eigh(h_fil)
    w[0] = 1e-9 * w[-1]
    squeezed = (v * w) @ v.conj().T
    monkeypatch.setattr(bounds, "_forms",
                        lambda protocol, nu: (h_bit, squeezed, h_ph))
    with pytest.raises(ArithmeticError, match="H_fil eigenvalue .* kernel cut"):
        bounds._reduced_pencil.__wrapped__("four-state", 1)


@pytest.mark.parametrize("protocol", qmath.PROTOCOLS)
@pytest.mark.parametrize("nu", range(1, attack_forms.MAX_NU + 1))
def test_event_forms_have_norm_at_most_one(protocol, nu):
    # v^dag H_event v <= trace(rho) <= ||M||_op^2 <= ||v||^2, so the absolute
    # PSD_TOL and IDENTITY_TOL are relative to ||H|| already.
    for tag, form in attack_forms.all_forms(protocol, nu).items():
        assert np.linalg.norm(form.matrix, 2) <= 1.0, tag


@pytest.mark.parametrize("nu", [1, 2, 3, 4])
def test_six_state_frontier_well_formed(nu):
    table = bounds.frontier_table("six-state", nu, grid=(0.0, 0.5, 2.0, 10.0))
    ys = list(table)
    assert all(0.0 <= y <= 1.0 for y in ys)
    assert all(b <= a + 1e-6 for a, b in zip(ys, ys[1:]))


def test_zero_rate_floors():
    assert bounds.zero_rate_check("four-state", 3) >= 0.5 - 1e-3
    assert bounds.zero_rate_check("four-state", 2) <= SIN2 + 1e-3
    assert bounds.zero_rate_check("six-state", 4) < 0.5


# inf_x y_star(x) in closed form, nu = 1..5.
FLOORS = {
    "four-state": (0.0, SIN2, 1.0, COS2, 1.0),
    "six-state": (0.0, SIN2, 0.25, 0.5 - 1 / (4 * math.sqrt(2)), 1.0),
}


@pytest.mark.parametrize("protocol", qmath.PROTOCOLS)
@pytest.mark.parametrize("nu", range(1, attack_forms.MAX_NU + 1))
def test_zero_rate_floor_matches_closed_forms(protocol, nu, monkeypatch):
    monkeypatch.setattr(bounds, "frontier_table", None)  # no grid is read
    assert abs(bounds.zero_rate_check(protocol, nu)
               - FLOORS[protocol][nu - 1]) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(protocol=st.sampled_from(qmath.PROTOCOLS),
       nu=st.sampled_from(bounds.SUPPORTED_NU),
       x=st.floats(0.0, 1e6))
def test_zero_rate_floor_bounds_the_frontier_from_below(protocol, nu, x):
    # The floor is the infimum of y_star, so no x reads below it; a grid
    # minimum is y_star at the grid's largest x, which reads above it.
    assert (bounds.frontier(x, protocol, nu)
            >= bounds.zero_rate_check(protocol, nu) - bounds.PSD_TOL)


@pytest.mark.parametrize("w", [-1e-6, 1e-9])
def test_zero_rate_floor_rejects_an_unclear_kernel_cut(w, monkeypatch):
    # An eigenvalue of the reduced H_bit below -cut (not PSD) or just above
    # the cut (a kernel direction roundoff could move) stops the floor.
    b = np.diag([0.0, w, 1.0])
    monkeypatch.setattr(bounds, "_reduced_pencil",
                        lambda protocol, nu: (np.eye(3), b))
    with pytest.raises(ArithmeticError, match="kernel cut"):
        bounds.zero_rate_check("four-state", 2)


def test_zero_rate_floor_above_one_is_not_clipped(monkeypatch):
    # A floor above 1 means p_ph > p_fil: broken forms, shown as they are.
    monkeypatch.setattr(bounds, "_reduced_pencil",
                        lambda protocol, nu: (2.0 * np.eye(2),
                                              np.diag([0.0, 1.0])))
    assert bounds.zero_rate_check("four-state", 2) == 2.0


def test_zero_rate_floor_without_a_kernel_is_zero(monkeypatch):
    monkeypatch.setattr(bounds, "_reduced_pencil",
                        lambda protocol, nu: (np.eye(2), np.diag([0.5, 1.0])))
    assert repr(bounds.zero_rate_check("four-state", 2)) == "0.0"


@settings(max_examples=60, deadline=None)
@given(protocol=st.sampled_from(qmath.PROTOCOLS),
       nu=st.integers(1, attack_forms.MAX_NU),
       x=st.floats(0.0, 1e6))
def test_frontier_at_zero_is_its_maximum(protocol, nu, x):
    # y_star never increases with x, so the verify row that reads y_star(0)
    # bounds the whole frontier; the slack is y_star's roundoff in x.
    assert (bounds.frontier(x, protocol, nu)
            <= bounds.frontier(0.0, protocol, nu) + 1e-12 * max(1.0, x))


@pytest.mark.parametrize("protocol", qmath.PROTOCOLS)
@pytest.mark.parametrize("nu", range(1, attack_forms.MAX_NU + 1))
def test_frontier_certifies_at_large_x(protocol, nu):
    # Margins are checked at PSD_TOL + n*eps*x*||H_bit||_2, so roundoff of the
    # x*H_bit term no longer fails a correct point; y_star tends to the floor.
    floor = bounds.zero_rate_check(protocol, nu)
    for y in bounds.frontier_table(protocol, nu, (1e8, 1e9)):
        assert abs(y - floor) <= 1e-6
