"""Entropies, adversarial Bell vectors, rates, and thresholds."""

import decimal
import math
import os
import struct
import subprocess
import sys
from decimal import Decimal
from functools import lru_cache

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import numpy as np

import oracles
import sargkit
from sargkit import attack_forms, bounds, keyrate, qmath, simulate

SIN2 = math.sin(math.pi / 8) ** 2
SRC = os.path.dirname(os.path.dirname(sargkit.__file__))
X_OPT_REFERENCE = 2.747  # quoted two-photon operating point (flat optimum)

# Every (protocol, photon number) with a computed frontier.
CASES = [(p, nu) for p in sargkit.PROTOCOLS for nu in (1, 2, 3, 4)]
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


def worst_single(e: float):
    """The four-state single-photon worst case: the Bell-vertex rule at nu=1."""
    return keyrate.worst_bell_vector("four-state", 1, e)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=0.4))
def test_worst_joint_is_a_feasible_bell_vector(e):
    # The worst case is a probability vector in BELL_TAGS order with the
    # single-photon marginals e_bit = e and e_ph = 1.5*e, inside both
    # correlation inequalities that correlation_psd_check certifies.  Below
    # e = 1/3 both inequalities bind (s = e/2), so they hold to roundoff.
    q, h = worst_single(e)
    _, q01, q10, q11 = q
    assert type(q) is tuple and len(q) == len(qmath.BELL_TAGS)
    assert min(q) >= 0.0 and abs(sum(q) - 1.0) <= 1e-15
    assert abs(q10 + q11 - e) <= 1e-12 and abs(q01 + q11 - 1.5 * e) <= 1e-12
    assert q01 - 2.0 * q10 >= -1e-15 and 2.0 * q11 - q01 >= -1e-15
    assert h == keyrate._shannon(q)


@pytest.mark.parametrize("e", [0.02, 0.05, 0.0968, 0.12])
def test_worst_joint_matches_grid_scan(e):
    # The rule's maximizer must agree with a dense scan over the feasible
    # segment of the single-photon polytope's slice.
    (_, q01, q10, q11), h_max = worst_single(e)
    (*_, s_best), h_best = oracles.scan_bell_slice(
        keyrate.BELL_VERTICES["four-state", 1], e, points=100001)
    assert abs(h_max - h_best) < 1e-6
    assert abs(q11 - s_best) < 1e-4
    assert abs(q10 + q11 - e) < 1e-12
    assert abs(q01 + q11 - 1.5 * e) < 1e-12


def test_worst_joint_edge_cases():
    assert worst_single(0.0) == ((1.0, 0.0, 0.0, 0.0), 0.0)
    # The four-state nu=1 polytope's bit weights end at its vertex
    # (0, 1/3, 0, 2/3).
    assert worst_single(2 / 3) == ((0.0, 1 / 3, 0.0, 2 / 3),
                                   keyrate._shannon((1 / 3, 2 / 3)))
    for e in (0.67, -1e-300, math.nan):
        with pytest.raises(ValueError, match=r"e_bit must be in \[0, 0.666667\] "
                           "for feasible marginals"):
            worst_single(e)
    with pytest.raises(ValueError, match="no Bell vertex table"):
        keyrate.worst_bell_vector("six-state", 3, 0.01)


def test_entropy_saturates_near_single_photon_threshold():
    q, h = worst_single(0.0968)
    assert abs(h - 1.0) < 0.002
    assert (q, h) == ((0.8064, 0.0968, 0.0484, 0.0484), 0.9993419265027552)


# ---------------------------------------------------------------------------
# The Bell-vertex rule
# ---------------------------------------------------------------------------

BELL_ROWS = sorted(keyrate.BELL_VERTICES)


def test_bell_vertex_table_rows():
    # The rule's premise: at most three vertices per row, each a probability
    # vector, with distinct bit weights, so every slice is a point or a
    # segment; and the rows are the three commuting SARG04 rows the paper
    # asserts and the nu=1 rows of BB84 and the original six-state protocol.
    assert BELL_ROWS == [("bb84", 1), ("four-state", 1), ("six-state", 1),
                         ("six-state", 2), ("six-state-original", 1)]
    for vertices in keyrate.BELL_VERTICES.values():
        assert 2 <= len(vertices) <= 3
        assert all(type(x) is float for v in vertices for x in v)
        assert all(min(v) >= 0.0 and abs(sum(v) - 1.0) <= 1e-15
                   for v in vertices)
        bits = [v[2] + v[3] for v in vertices]
        assert len(set(bits)) == len(bits) and min(bits) == 0.0


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(BELL_ROWS), st.floats(min_value=0.0, max_value=0.4))
@example(("four-state", 1), 0.0)
@example(("four-state", 1), 1 / 3)
@example(("four-state", 1), 0.4)
@example(("six-state", 2), 0.4)
def test_worst_bell_vector_is_the_slice_maximum(row, e):
    # chi is a probability vector of bit weight e in the row's hull, and no
    # point of the slice has a larger entropy than the rule's.
    chi, h = keyrate.worst_bell_vector(*row, e)
    vertices = keyrate.BELL_VERTICES[row]
    assert type(chi) is tuple and len(chi) == 4
    assert min(chi) >= 0.0 and abs(sum(chi) - 1.0) <= 1e-15
    assert abs(chi[2] + chi[3] - e) <= 1e-15
    lam, residual = oracles.hull_weights(vertices, chi)
    assert residual <= 1e-15 and lam.min() >= -1e-15
    assert h == keyrate._shannon(chi)
    assert abs(h - oracles.scan_bell_slice(vertices, e)[1]) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=0.4))
@example(1 / 3)
@example(0.4)
def test_four_state_rule_is_the_clip_formula(e):
    chi = worst_single(e)[0]
    assert max(abs(a - b) for a, b in zip(
        chi, oracles.worst_joint_single(e)[0])) <= 1e-15


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 2]), st.floats(min_value=0.0, max_value=0.4))
def test_six_state_rule_is_the_linear_bell_vector(nu, e):
    chi = keyrate.worst_bell_vector("six-state", nu, e)[0]
    assert max(abs(a - b) for a, b in zip(
        chi, oracles.sixstate_chi(nu, e))) <= 1e-15


def test_four_state_threshold_bisects_no_slope_below_one_third(monkeypatch):
    # Below e = 1/3 the slope of H at the e/2 end of the segment already
    # points out of it, so that end wins with no bisection.  The root is
    # bracketed on [0, E_BIT_MAX], a slope on [0, 1], the segment's
    # parameter.
    current, sloped = [], []
    rule, bisect = keyrate.worst_bell_vector, keyrate.bisect_floats

    def spy_rule(protocol, nu, e):
        current.append(e)
        return rule(protocol, nu, e)

    def spy_bisect(past, lo, hi):
        if (lo, hi) == (0.0, 1.0):
            sloped.append(current[-1])
        return bisect(past, lo, hi)

    monkeypatch.setattr(keyrate, "worst_bell_vector", spy_rule)
    monkeypatch.setattr(keyrate, "bisect_floats", spy_bisect)
    assert keyrate.threshold_single() == FLOAT_ROOTS["four-state", 1][0]
    assert min(current) < 1 / 3 and sloped and min(sloped) >= 1 / 3


# ---------------------------------------------------------------------------
# Rates and thresholds
# ---------------------------------------------------------------------------

def test_rate_single_monotone_decreasing():
    rates = [1.0 - worst_single(e)[1] for e in (0.0, 0.02, 0.05, 0.08, 0.12)]
    assert rates[0] == 1.0
    assert all(b < a for a, b in zip(rates, rates[1:]))


def test_threshold_single_reference_values():
    e = keyrate.threshold_single()
    assert abs(e - 0.0968) <= 2e-4
    assert abs(keyrate.depol_p(e, "four-state") - 0.0804) <= 5e-4


def test_ephase_bound_two_properties():
    prev = keyrate.ephase_bound_two(0.0)
    assert prev == SIN2
    for e in (0.005, 0.01, 0.02, 0.0271, 0.05):
        e_ph = keyrate.ephase_bound_two(e)
        assert type(e_ph) is float and e_ph > prev
        prev = e_ph
    with pytest.raises(ValueError):
        keyrate.ephase_bound_two(0.6)


def test_ephase_bound_two_is_an_envelope_minimum():
    # Sanity: value can't exceed the objective at arbitrary probe points.
    from sargkit import bounds
    e = 0.02
    e_ph = keyrate.ephase_bound_two(e)
    for x in (0.5, 1.0, 2.0, 3.0, 5.0, 10.0):
        assert e_ph <= x * e + bounds.g_of_x(x) + 1e-12


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=3e-5, max_value=0.5))
def test_ephase_bound_two_matches_scan_and_golden_oracle(e):
    # Above e = 3e-5 the minimizer lies inside the oracle's scan range [0, 50].
    from sargkit import bounds
    e_ph = keyrate.ephase_bound_two(e)
    e_ref, x_opt = oracles.ephase_bound_two_scan(e)
    assert abs(e_ph - e_ref) <= 1e-12
    assert abs(e_ph - (x_opt * e + bounds.g_of_x(x_opt))) <= 1e-12


def test_ephase_bound_two_is_the_hand_derived_stationary_point():
    # The table row's minimum over its finite candidate set is the closed
    # form derived by hand from g's stationary point.
    for e in [0.5 * k / 2000 for k in range(2001)] + [
            5e-324, 1e-300, 1e-100, 1e-12, 1e-9, 1e-6]:
        assert abs(keyrate.ephase_bound_two(e)
                   - oracles.ephase_bound_two_stationary(e)) <= 1e-15, e


def test_threshold_two_reference_values():
    e = keyrate.threshold_two()
    assert abs(e - 0.0271) <= 2e-4
    assert abs(keyrate.depol_p(e, "four-state") - 0.0208) <= 5e-4
    x_opt = oracles.ephase_bound_two_scan(e)[1]
    assert abs(x_opt - X_OPT_REFERENCE) <= 0.5  # flat optimum


def _linear_rate(e0: float, seen: list | None = None):
    """A synthetic rate e0 - e with its root at e0; each argument it is
    evaluated at is appended to ``seen``."""
    seen = [] if seen is None else seen
    return lambda e: seen.append(e) or e0 - e


def test_threshold_is_zero_when_there_is_no_key_at_lo():
    # The bracket's low end is e = 0: a rate <= 0 there means no key at any
    # error rate, decided by that one evaluation.
    for e0 in (-0.25, 0.0):
        seen = []
        e = keyrate._threshold(_linear_rate(e0, seen))
        assert e == 0.0 and type(e) is float and seen == [0.0]


def test_threshold_rejects_an_unbracketed_root():
    # A rate >= 0 at the domain end E_BIT_MAX = 0.4 has no root inside it.
    for e0 in (keyrate.E_BIT_MAX, 0.5):
        with pytest.raises(ValueError, match="not bracketed"):
            keyrate._threshold(_linear_rate(e0))


def test_threshold_bisects_to_the_float_below_the_root():
    # The bisection runs to the float spacing: e is the last float with a
    # positive rate, the float just below the root.  The two ends and at most
    # 63 bisection steps are evaluated.  A root at 0.01 lies below the
    # four-state nu=1 row's old bracket (0.05, 0.15), whose no-key rule read
    # the rate <= 0 at 0.05 and reported e = 0.
    for root in (0.1, 0.01):
        seen = []
        e = keyrate._threshold(_linear_rate(root, seen))
        assert e == math.nextafter(root, 0.0)
        assert seen[:2] == [0.0, keyrate.E_BIT_MAX] and len(seen) <= 2 + 63


@pytest.mark.parametrize("compute,protocol,nu", [
    (keyrate.threshold_single, "four-state", 1),
    (keyrate.threshold_two, "four-state", 2),
    *[(lambda nu=nu: keyrate.sixstate_thresholds(nu), "six-state", nu)
      for nu in (1, 2, 3, 4)],
], ids=["four-state-1", "four-state-2", *("six-state-%d" % nu
                                         for nu in (1, 2, 3, 4))])
def test_every_threshold_is_a_float_and_the_one_its_row_reads(compute,
                                                             protocol, nu):
    # A threshold is the bare float its root certifies, and it is the one
    # keyrate.threshold computes for its row.  The two-photon operating point
    # x_opt is the oracle's minimizer at the root.
    e = compute()
    assert type(e) is float
    assert keyrate.threshold(protocol, nu) == e
    if (protocol, nu) == ("four-state", 2):
        x_opt = oracles.ephase_bound_two_scan(e)[1]
        assert abs(x_opt - X_OPT_REFERENCE) <= 0.5


@pytest.mark.parametrize("protocol,nu", [
    ("four-state", 3), ("four-state", None), ("six-state", 5), ("bb84", 2)])
def test_threshold_rejects_a_row_without_a_rate_model(protocol, nu):
    with pytest.raises(ValueError):
        keyrate.threshold(protocol, nu)


# ---------------------------------------------------------------------------
# The root rule: every threshold is the float root of its rate
# ---------------------------------------------------------------------------

# Nonnegative finite doubles, subnormals included and -0.0 excluded.
NONNEGATIVE = st.floats(min_value=0.0, max_value=sys.float_info.max)


@settings(max_examples=200, deadline=None)
@given(st.lists(NONNEGATIVE, min_size=3, max_size=3).map(sorted))
@example([0.0, 0.5, 2.0 ** 20])
@example([0.0, 5e-324, 5e-324])
@example([0.0, sys.float_info.max, sys.float_info.max])
def test_bisect_floats_brackets_a_step_by_adjacent_floats(xs):
    # A step at t on lo < t <= hi: b = t and a is the float below it, with
    # neither end evaluated and at most 63 evaluations (the bit patterns of
    # [0, inf) span fewer than 2^63 doubles).
    lo, t, hi = xs
    assume(lo < t)
    seen = []
    a_b = keyrate.bisect_floats(lambda x: seen.append(x) or x >= t, lo, hi)
    assert a_b == (math.nextafter(t, -math.inf), t)
    assert all(lo < x < hi for x in seen) and len(seen) <= 63


@settings(max_examples=200, deadline=None)
@given(st.lists(NONNEGATIVE, min_size=2, max_size=2, unique=True).map(sorted))
@example([0.0, sys.float_info.max])
def test_bisect_floats_with_a_constant_predicate_returns_an_end(ends):
    lo, hi = ends
    assert (keyrate.bisect_floats(lambda x: True, lo, hi)
            == (lo, math.nextafter(lo, math.inf)))
    assert (keyrate.bisect_floats(lambda x: False, lo, hi)
            == (math.nextafter(hi, -math.inf), hi))


@pytest.mark.parametrize("lo,hi", [
    (0.5, 0.5), (0.5, 0.25), (-1.0, 1.0), (-0.0, 1.0), (0.0, math.inf),
    (math.nan, 1.0), (0.0, math.nan)])
def test_bisect_floats_rejects_a_bracket_outside_its_domain(lo, hi):
    with pytest.raises(ValueError, match="0 <= lo < hi < inf"):
        keyrate.bisect_floats(lambda x: True, lo, hi)


@lru_cache(maxsize=None)
def _row_rate(protocol: str, nu: int):
    """A computed THRESHOLDS row's float rate, the one function that
    ``threshold`` bisects."""
    return lambda e: keyrate.rate(protocol, nu, e)


# The threshold of every computed row, shared with the thresholds report's
# pins (test_cli): each is the last float whose exact rate is positive.
FLOAT_ROOTS = oracles.FLOAT_ROOTS


def test_float_roots_cover_every_computed_row():
    assert sorted(FLOAT_ROOTS) == sorted(
        (protocol, row[1]) for protocol, rows in keyrate.THRESHOLDS.items()
        for row in rows)
    assert sorted(oracles.EXACT_ROOTS) == sorted(FLOAT_ROOTS)


@pytest.mark.parametrize("protocol,nu", sorted(FLOAT_ROOTS))
def test_every_threshold_is_the_float_root_of_its_rate(protocol, nu):
    # The root certificate: the exact rate is positive at e and negative at
    # the next float up, each by more than its error bound, so no float lies
    # between e and the root of the exact rate.
    e = keyrate.threshold(protocol, nu)
    assert keyrate.exact_rate(protocol, nu, e) > keyrate.RATE_ERROR
    assert (keyrate.exact_rate(protocol, nu, math.nextafter(e, 1.0))
            < -keyrate.RATE_ERROR)
    assert (e, keyrate.depol_p(e, protocol)) == FLOAT_ROOTS[protocol, nu]


@pytest.mark.parametrize("protocol,nu", sorted(FLOAT_ROOTS))
def test_every_threshold_is_the_float_below_its_50_digit_root(protocol, nu):
    e = keyrate.threshold(protocol, nu)
    root = Decimal(oracles.EXACT_ROOTS[protocol, nu])
    assert Decimal(e) < root < Decimal(math.nextafter(e, 1.0))


def _ulps(a: float, b: float) -> int:
    """The number of floats from a to b, both >= 0."""
    return abs(struct.unpack("<q", struct.pack("<d", a))[0]
               - struct.unpack("<q", struct.pack("<d", b))[0])


@pytest.mark.parametrize("protocol,nu", sorted(FLOAT_ROOTS))
def test_threshold_steps_a_few_ulps_from_the_float_rate_root(protocol, nu):
    # The float rate's root lies within 7 ulps of the exact one (2, 4, 0,
    # 6, 7 and 1 by row): its roundoff is a few 1e-16 against slopes of -5.5
    # to -9.
    e = keyrate._threshold(_row_rate(protocol, nu))
    assert _ulps(e, FLOAT_ROOTS[protocol, nu][0]) <= 7


# The brackets each SARG04 row was bisected on before every threshold
# shared [0, E_BIT_MAX].
OLD_BRACKETS = {("four-state", 1): (0.05, 0.15),
                ("four-state", 2): (0.001, 0.2),
                **{("six-state", nu): (1e-9, 0.45) for nu in (1, 2, 3, 4)}}


@pytest.mark.parametrize("protocol,nu", sorted(OLD_BRACKETS))
def test_one_bracket_finds_the_old_bracket_root(protocol, nu):
    # The float root on [0, E_BIT_MAX] is the old bracket's, and the
    # threshold is that root stepped to the exact rate's.
    rate = _row_rate(protocol, nu)
    old = keyrate.bisect_floats(lambda e: rate(e) <= 0.0,
                                *OLD_BRACKETS[protocol, nu])[0]
    assert keyrate._threshold(rate) == old
    assert keyrate.threshold(protocol, nu) == keyrate._proved_root(
        old, lambda e: keyrate.exact_rate(protocol, nu, e))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(FLOAT_ROOTS)), st.data())
def test_every_sub_bracket_of_the_root_finds_the_same_root(row, data):
    # The rate turns <= 0 once on [0, E_BIT_MAX], so any bracket holding the
    # threshold e and the float above it, lo <= e < hi, bisects to e.
    rate = _row_rate(*row)
    e = keyrate._threshold(rate)
    lo = data.draw(st.floats(min_value=0.0, max_value=e), label="lo")
    hi = data.draw(st.floats(min_value=math.nextafter(e, 1.0),
                             max_value=keyrate.E_BIT_MAX), label="hi")
    assert keyrate.bisect_floats(lambda x: rate(x) <= 0.0, lo, hi)[0] == e


# ---------------------------------------------------------------------------
# The exact tables and the exact rate
# ---------------------------------------------------------------------------

def _exact_and_q2_rows():
    """(name, exact row, float row, Q(sqrt 2) row) of every table row."""
    for key in sorted(keyrate.EXACT_PIECES):
        yield (key, keyrate.EXACT_PIECES[key], keyrate.PIECES[key],
               oracles.Q2_PIECES[key])
    for key in sorted(keyrate.EXACT_BELL_VERTICES):
        yield (key, keyrate.EXACT_BELL_VERTICES[key],
               keyrate.BELL_VERTICES[key], oracles.Q2_BELL_VERTICES[key])


def test_exact_tables_are_the_q_sqrt2_table():
    # Every coefficient is its exact value in Q(sqrt 2) to 40 digits, and
    # every float is that exact value correctly rounded.
    assert sorted(keyrate.EXACT_PIECES) == sorted(oracles.Q2_PIECES)
    assert sorted(keyrate.EXACT_BELL_VERTICES) == sorted(
        oracles.Q2_BELL_VERTICES)
    for key, exact, floats, q2_row in _exact_and_q2_rows():
        assert len(exact) == len(floats) == len(q2_row), key
        for e_part, f_part, q_part in zip(exact, floats, q2_row):
            assert len(e_part) == len(f_part) == len(q_part), key
            for d, f, x in zip(e_part, f_part, q_part):
                assert type(d) is Decimal and type(f) is float
                assert abs(d - oracles.q2_decimal(x)) <= Decimal("1e-40"), key
                assert oracles.q2_rounds_to(x, f), (key, f)


def test_curves_are_singular_exactly():
    # gamma - beta^2 is exactly 0 on every curve, in both tables.
    for key, row in keyrate.EXACT_PIECES.items():
        for exact, floats in zip(row, keyrate.PIECES[key]):
            if exact[2] > 0:
                assert exact[5] == 0 and floats[5] == 0.0


def test_every_two_curves_of_a_row_share_alpha_beta_gamma():
    # kinks adds only the crossings of curves that share (alpha, beta,
    # gamma), where -2*delta*x + epsilon decides which is larger: every two
    # curves of every row do.
    for key, row in keyrate.EXACT_PIECES.items():
        curves = [piece for piece in row if piece[2] > 0]
        assert all(one[:3] == two[:3] for one in curves for two in curves), key


@pytest.mark.parametrize("protocol,floor", [
    ("four-state", oracles.q2("1/2", "1/4")),
    ("six-state", oracles.q2("1/2", "1/8"))])
def test_no_key_window_floor_is_exact(protocol, floor):
    # The least exact floor over the window nu = K - 1 .. K - 2 + P:
    # (2 + sqrt 2)/4 for four-state, 1/2 + sqrt(2)/8 for six-state (at nu = 8
    # and 10), each above 1/2 by its exact sign.
    floors = [oracles.q2_floor(protocol, nu)
              for nu in oracles.no_key_window(protocol)]
    assert all(oracles.q2_sign(oracles.q2_add(f, oracles.q2_mul(
        oracles.q2(-1), floor))) >= 0 for f in floors)
    assert floor in floors
    assert oracles.q2_sign(oracles.q2_add(floor, oracles.q2("-1/2"))) > 0


@pytest.mark.parametrize("protocol,nu", sorted(oracles.Q2_PIECES))
def test_table_floors_are_the_exact_floors_rounded_up(protocol, nu):
    # The floor a table read returns is the least float at or above the
    # exact floor: never below what is proved, and its predecessor is.
    floor = keyrate.phase_bound(protocol, nu, 0.0)
    assert floor == keyrate.FLOORS[protocol, nu]
    exact = oracles.q2_floor(protocol, nu)
    assert oracles.q2_sign(oracles.q2_minus_float(exact, floor)) <= 0
    assert oracles.q2_sign(oracles.q2_minus_float(
        exact, math.nextafter(floor, -math.inf))) > 0


def test_two_floors_moved_up_to_the_exact_floor():
    # sin^2(pi/8) keeps its nearest float, which lies above it; six-state
    # nu=4's 1/2 - sqrt(2)/8 is one ulp above the 0.3232233047033631 that
    # the float formula gave on the hand-rounded table.
    assert keyrate.ephase_bound_two(0.0) == 0.14644660940672624 == SIN2
    assert keyrate.phase_bound("six-state", 4, 0.0) == 0.32322330470336313


def test_exact_floors_without_a_piece_row():
    # The six floors written without a piece row: (2 + sqrt 2)/4, 1, 1 for
    # BB84 nu = 2..4 and 1/2 + sqrt(3)/6, 1/2, 1 for the original six-state
    # protocol, each to 40 digits, and FLOORS each rounded up.
    want = {("bb84", 2): "0.8535533905932737622004221810524245196424",
            ("bb84", 3): "1", ("bb84", 4): "1",
            ("six-state-original", 2):
                "0.7886751345948128822545743902509787278238",
            ("six-state-original", 3): "0.5", ("six-state-original", 4): "1"}
    assert sorted(keyrate.EXACT_FLOORS) == sorted(want)
    assert not set(keyrate.EXACT_FLOORS) & set(keyrate.PIECES)
    for key, value in want.items():
        exact = keyrate.EXACT_FLOORS[key]
        assert type(exact) is Decimal, key
        assert abs(exact - Decimal(value)) <= Decimal("1e-40"), key
        floor = keyrate.FLOORS[key]
        assert Decimal(math.nextafter(floor, -math.inf)) < exact <= Decimal(
            floor), key


RATED = sorted(FLOAT_ROOTS)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(RATED),
       st.floats(min_value=0.0, max_value=keyrate.E_BIT_MAX,
                 exclude_min=True, exclude_max=True))
@example(("four-state", 1), 0.35)
@example(("four-state", 2), 5e-324)
@example(("six-state", 4), 1e-300)
def test_exact_and_float_rates_agree_in_sign(row, e):
    rate = _row_rate(*row)(e)
    exact = keyrate.exact_rate(*row, e)
    assert type(exact) is Decimal
    if abs(rate) > 1e-12:
        assert (rate > 0.0) == (exact > 0)


def _scan_bound(pieces, e: Decimal, step: Decimal, x_max: int) -> Decimal:
    """min of x*e + y_star(x) over the grid 0, step, ..., x_max, y_star the
    maximum of 0 and the pieces, each taken as written, in Decimal."""
    best = None
    for k in range(int(x_max / step) + 1):
        x = k * step
        y = max([Decimal(0)] + [
            a - b * x + max(g * x * x - 2 * d * x + eps, Decimal(0)).sqrt()
            for a, b, g, d, eps, _ in pieces])
        best = x * e + y if best is None else min(best, x * e + y)
    return best


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(keyrate.EXACT_PIECES)),
       st.floats(min_value=0.005, max_value=keyrate.E_BIT_MAX))
@example(("four-state", 2), 0.02710093150755928)
@example(("six-state", 3), 0.023701119015364182)
@example(("six-state", 4), 0.007883064083571478)
@example(("six-state", 8), 0.25)
def test_exact_phase_bound_is_the_decimal_scan_minimum(row, e):
    # A scan of x in [0, 8] at step 1/128 (above e = 0.005 every minimizer
    # lies below 5): the exact bound lies at or below every scanned value,
    # and the scan's minimum lies within half a step times the objective's
    # largest slope (e + beta + sqrt(gamma) < 2) of it.
    pieces = keyrate.EXACT_PIECES[row]
    with decimal.localcontext(keyrate._EXACT):
        d = Decimal(e)
        bound = keyrate.phase_minimum(pieces, d)[1]
        step = Decimal(1) / 128
        scanned = _scan_bound(pieces, d, step, 8)
        assert bound <= scanned + keyrate.RATE_ERROR
        assert scanned - bound <= step


def test_exact_phase_bound_is_the_float_bound_to_roundoff():
    for key in keyrate.EXACT_PIECES:
        for e in (1e-300, 1e-9, 0.01, 0.0271, 0.3):
            with decimal.localcontext(keyrate._EXACT):
                exact = keyrate.phase_minimum(keyrate.EXACT_PIECES[key],
                                              Decimal(e))[1]
            assert abs(float(exact) - keyrate.phase_bound(*key, e)) <= 1e-15


@pytest.mark.parametrize("e", [0.35, 0.4, 0.6])
def test_exact_bell_rate_at_an_inner_maximum_is_the_float_rate(e):
    # Four-state nu=1 above e = 1/3: H peaks inside the slice (its slope
    # turns from up to down along it), and the exact rate, bisected in t
    # like the float one, agrees with it to roundoff.
    key = ("four-state", 1)
    with decimal.localcontext(keyrate._EXACT):
        p, q, slope = keyrate._bell_slice(keyrate.EXACT_BELL_VERTICES[key],
                                          Decimal(e))
        assert p != q and slope(p) > 0 > slope(q)
    exact = keyrate.exact_rate(*key, e)
    assert type(exact) is Decimal
    assert abs(float(exact) - keyrate.rate(*key, e)) <= 1e-15


def _entropy_at_midpoint(table, e: Decimal) -> Decimal:
    """H at the midpoint of the table's slice at bit weight e, by Decimal ln:
    the maximum of H on a slice symmetric in chi1+ and chi1-."""
    p, q, _ = keyrate._bell_slice(table, e)
    return -sum(x * x.ln() for x in ((a + b) / 2 for a, b in zip(p, q))
                if x > 0) / Decimal(2).ln()


def test_exact_bell_rate_is_the_inner_maximum_of_a_patched_table(
        monkeypatch):
    # Two slices whose entropy peaks inside, at their midpoints: the exact
    # rate is 1 - H there, a positive rate (low) and a negative one (wide),
    # and neither raises.
    key = ("four-state", 1)
    with decimal.localcontext(keyrate._EXACT):
        third = Decimal(1) / 3
        low = ((1, 0, 0, 0), ("0.9", 0, "0.1", 0), ("0.9", 0, 0, "0.1"))
        wide = ((1, 0, 0, 0), (0, third, 2 * third, 0),
                (0, third, 0, 2 * third))
        low, wide = (tuple(tuple(map(Decimal, v)) for v in table)
                     for table in (low, wide))
        cases = ((low, 0.05), (wide, 0.6))
        for table, e in cases:
            p, q, slope = keyrate._bell_slice(table, Decimal(e))
            assert p != q and slope(p) > 0 > slope(q)
        want = {table: 1 - _entropy_at_midpoint(table, Decimal(e))
                for table, e in cases}
    assert 0.66 < want[low] < 0.67 and -0.9 < want[wide] < -0.89
    for table, e in cases:
        monkeypatch.setitem(keyrate.EXACT_BELL_VERTICES, key, table)
        assert abs(keyrate.exact_rate(*key, e) - want[table]) \
            <= keyrate.RATE_ERROR


def test_decimal_rate_computes_in_the_exact_context():
    # In the default 28-digit context a Decimal rate still computes at 40
    # digits: it is exact_rate within RATE_ERROR, where 28 digits miss it by
    # about 3e-28 at the four-state nu=2 threshold.
    e = oracles.FLOAT_ROOTS["four-state", 2][0]
    with decimal.localcontext(decimal.Context()):
        rate = keyrate.rate("four-state", 2, Decimal(e))
    assert abs(rate - keyrate.exact_rate("four-state", 2, e)) \
        <= keyrate.RATE_ERROR


@pytest.mark.parametrize("key", RATED)
def test_rate_is_the_two_rule_formula_on_floats(key):
    # One rule per key for both rules: on floats the secrecy term is the
    # Bell-vertex rule or the independent rule, written out apart, and the
    # rate is that term less h(e), bit for bit.
    for k in range(1, 2001):
        e = keyrate.E_BIT_MAX * k / 2000
        secrecy = keyrate.secrecy_term(*key, e)
        assert secrecy == oracles.two_rule_secrecy(*key, e), e
        assert keyrate.rate(*key, e) == secrecy - keyrate.binary_entropy(e), e


@pytest.mark.parametrize("key", RATED)
def test_rate_computes_h_of_e_bit_once_on_a_bell_key(monkeypatch, key):
    # A Bell key's rule reads h(e_bit) inside its secrecy term, and the rate
    # subtracts that same value; an independent key computes h(e_ph) and
    # h(e_bit), one each.
    calls = []
    entropy = keyrate.binary_entropy
    monkeypatch.setattr(keyrate, "binary_entropy",
                        lambda e: calls.append(e) or entropy(e))
    want = 1 if key in keyrate.BELL_VERTICES else 2
    e = oracles.FLOAT_ROOTS[key][0]
    for compute in (keyrate.rate, keyrate.exact_rate):
        calls.clear()
        compute(*key, e)
        assert len(calls) == want, compute


@pytest.mark.parametrize("prec", [12, 28, 60])
def test_decimal_secrecy_term_computes_in_the_exact_context(prec):
    # Whatever the caller's context, a Decimal secrecy term computes at 40
    # digits: it is the exact rate plus the exact h(e) within RATE_ERROR, and
    # the float term is its value rounded, within a few ulps.
    for key, (e, _) in sorted(oracles.FLOAT_ROOTS.items()):
        with decimal.localcontext(decimal.Context(prec=prec)):
            secrecy = keyrate.secrecy_term(*key, Decimal(e))
        assert type(secrecy) is Decimal
        with decimal.localcontext(keyrate._EXACT):
            want = (keyrate.exact_rate(*key, e)
                    + keyrate.binary_entropy(Decimal(e)))
        assert abs(secrecy - want) <= keyrate.RATE_ERROR, key
        assert abs(float(secrecy) - keyrate.secrecy_term(*key, e)) <= 1e-15


@pytest.mark.parametrize("key", RATED)
def test_table_reads_take_the_exact_tables_for_a_decimal(monkeypatch, key):
    # A Decimal bit error reads EXACT_BELL_VERTICES or EXACT_PIECES and gives
    # Decimals (the floor at e = 0 too): moving the float table moves only
    # the float read.
    bell = key in keyrate.BELL_VERTICES
    table = keyrate.BELL_VERTICES if bell else keyrate.PIECES

    def read(e):
        if bell:
            chi, h = keyrate.worst_bell_vector(*key, e)
            return (*chi, h)
        return keyrate.phase_bound(*key, e), keyrate.phase_bound(*key, 0 * e)

    with decimal.localcontext(keyrate._EXACT):
        exact, floats = read(Decimal("0.02")), read(0.02)
        assert all(type(v) is Decimal for v in exact)
        monkeypatch.setitem(table, key, table[min(table.keys() - {key})])
        assert read(Decimal("0.02")) == exact and read(0.02) != floats


@pytest.mark.parametrize("key", sorted(keyrate.EXACT_PIECES))
def test_piece_functions_compute_in_decimal_on_exact_rows(key):
    # The float rule's own code runs on an exact row: every piece function
    # gives Decimals there, never a float.
    pieces = keyrate.EXACT_PIECES[key]
    with decimal.localcontext(keyrate._EXACT):
        e = Decimal(0.02)
        values = [keyrate.envelope(pieces, Decimal("0.75")),
                  *keyrate.kinks(pieces), *keyrate.stationary(pieces, e),
                  *keyrate.phase_minimum(pieces, e),
                  keyrate.piece_floor(pieces)]
    assert all(type(v) is Decimal for v in values), key


@pytest.mark.parametrize("steps", [-5, -1, 0, 1, 5])
def test_proved_root_steps_up_or_down_to_the_last_positive_float(steps):
    # The exact root 1/10 lies between two floats; from a start a few ulps
    # either side, the steps end at the float below it, each float read once
    # (from above, the last read is that float; from below, the one above).
    below = math.nextafter(0.1, 0.0)
    start = below
    for _ in range(abs(steps)):
        start = math.nextafter(start, math.copysign(math.inf, steps))
    seen = []
    root = keyrate._proved_root(
        start, lambda e: seen.append(e) or Decimal("0.1") - Decimal(e))
    assert root == below and Decimal(below) < Decimal("0.1")
    assert len(seen) == len(set(seen)) == abs(steps) + (1 if steps > 0 else 2)


def test_threshold_raises_where_no_sign_is_proved(monkeypatch):
    # An exact rate within RATE_ERROR of 0, or one that never changes sign
    # within ROOT_STEPS ulps, is an ArithmeticError, not a threshold.
    monkeypatch.setattr(keyrate, "exact_rate", lambda *args: Decimal(0))
    with pytest.raises(ArithmeticError, match="within its error bound"):
        keyrate.threshold("four-state", 2)
    seen = []
    monkeypatch.setattr(keyrate, "exact_rate",
                        lambda p, nu, e: seen.append(e) or Decimal(1))
    with pytest.raises(ArithmeticError, match="no sign change within 64"):
        keyrate.threshold("six-state", 1)
    assert len(seen) == len(set(seen)) == keyrate.ROOT_STEPS + 1


def _warm_solves(monkeypatch, compute) -> int:
    """The checked eigen-solves of compute() once every cache it reads is
    warm: a first call fills the caches, a second is counted."""
    compute()
    calls = []
    solve = qmath.eigh_checked
    monkeypatch.setattr(qmath, "eigh_checked",
                        lambda h: calls.append(1) or solve(h))
    compute()
    return len(calls)


@pytest.mark.parametrize("nu,solves", [(1, 0), (2, 0), (3, 0), (4, 0)])
def test_six_state_thresholds_solve_budget(monkeypatch, nu, solves):
    # The Bell-vertex rows and the PIECES rows are float arithmetic on their
    # tables: no row makes a solve (verify certifies the tables).
    assert _warm_solves(
        monkeypatch, lambda: keyrate.threshold("six-state", nu)) == solves


def test_six_state_threshold_bisection_makes_no_solve(monkeypatch):
    # The floor and every bisection step read the table row: no solve runs
    # before, during or after the bisection.
    events = []
    solve, minimum = qmath.eigh_checked, keyrate.phase_minimum
    monkeypatch.setattr(qmath, "eigh_checked",
                        lambda h: events.append("solve") or solve(h))
    monkeypatch.setattr(keyrate, "phase_minimum", lambda *args: events.append(
        "bound") or minimum(*args))
    keyrate.threshold("six-state", 4)
    assert "solve" not in events and events.count("bound") > 50


def test_closed_form_tangent_row_solve_budget(monkeypatch):
    # Six phase-error bounds per row, each certified by ephase_bound_frontier's
    # one-point margin solve.
    from sargkit import cli

    (row,) = [c for c in cli.checks()
              if c.name == "closed form = tangent bound"]
    assert row.keys == (("four-state", 2), ("six-state", 3), ("six-state", 4))
    for case in row.keys:
        assert _warm_solves(monkeypatch, lambda: row.compute(*case)) == 6


def test_depolarizing_conversions_round_trip():
    # depol_p inverts the channel law e = 4p/(3+4p) of the simulator.
    def e_bit(p):
        return simulate.exact_channel_stats("four-state", 1, p, 1.0).e_bit

    assert abs(e_bit(0.05) - 0.0625) < 1e-15
    for p in (0.0, 0.01, 0.1, 0.3, 0.75):
        assert abs(keyrate.depol_p(e_bit(p), "four-state") - p) < 1e-12
    with pytest.raises(ValueError):
        e_bit(0.76)
    with pytest.raises(ValueError):
        keyrate.depol_p(0.51, "four-state")


@pytest.mark.parametrize("protocol", ["bb84", "six-state-original"])
def test_depolarizing_law_of_the_sifted_protocols(protocol):
    # BB84 and the original six-state protocol err on 2/3 of a depolarized
    # sifted pulse: e = 2p/3, so p = 3e/2 (exact in floats).
    for p in (0.0, 0.01, 0.1, 0.3, 0.75):
        assert abs(keyrate.depol_p(2 * p / 3, protocol) - p) < 1e-15
    e = oracles.FLOAT_ROOTS[protocol, 1][0]
    assert keyrate.depol_p(e, protocol) == 3 * e / 2


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
    # e1 beyond the domain of the four-state single-photon rate, its nu=1
    # polytope's largest bit weight 2/3, is a fraction, rejected by the
    # rate; e2 beyond 1 is not a fraction.
    d = keyrate.DecoyInputs(p_conc=0.2, e_bit=0.0, xi1=0.0, e1=0.67,
                            xi2=0.0, e2=0.0)
    with pytest.raises(ValueError, match=r"e1 must be in \[0, 0.666667\]"):
        keyrate.decoy_rate_terms(d, "four-state")
    with pytest.raises(ValueError, match=r"e2 must be in \[0, 1\]"):
        keyrate.DecoyInputs(p_conc=0.2, e_bit=0.0, xi1=0.0, e1=0.0,
                            xi2=0.0, e2=1.2)
    # The domain ends themselves are accepted and evaluate.
    d = keyrate.DecoyInputs(p_conc=0.2, e_bit=0.0, xi1=0.1, e1=2 / 3,
                            xi2=0.1, e2=1.0)
    assert all(math.isfinite(t)
               for t in keyrate.decoy_rate_terms(d, "four-state"))
    for value in ("1e-2", True, None):
        with pytest.raises(ValueError, match="e1 must be a number"):
            keyrate.DecoyInputs(p_conc=0.2, e_bit=0.0, xi1=0.0, e1=value,
                                xi2=0.0, e2=0.0)


def decoy(e1: float, e2: float) -> keyrate.DecoyInputs:
    return keyrate.DecoyInputs(p_conc=0.3, e_bit=0.03, xi1=0.12, e1=e1,
                               xi2=0.06, e2=e2)


def test_four_state_decoy_terms_are_the_hand_formula():
    # The four-state terms keep the bits of the hand-wired formula, e2 past
    # 1/2 too, where the bound is read unclipped and its charge saturates.
    for i in range(61):
        for j in range(101):
            d = decoy(i / 90, j / 100)
            assert keyrate.decoy_rate_terms(d, "four-state") \
                == oracles.four_state_decoy_terms(d), d
    d = decoy(2 / 3, 1.0)
    assert keyrate.decoy_rate_terms(d, "four-state") \
        == oracles.four_state_decoy_terms(d)


def test_six_state_decoy_terms_read_the_six_state_rules():
    # Each nu-photon term is xi_nu times the six-state key's secrecy term,
    # bit for bit, and the sum is not the four-state reading.
    for e1, e2 in ((0.0, 0.0), (0.024, 0.027), (0.3, 0.45), (4 / 7, 0.6)):
        d = decoy(e1, e2)
        ec, single, two = keyrate.decoy_rate_terms(d, "six-state")
        assert ec == keyrate.decoy_rate_terms(d, "four-state")[0]
        assert single == d.xi1 * keyrate.secrecy_term("six-state", 1, e1)
        assert two == d.xi2 * keyrate.secrecy_term("six-state", 2, e2)
        if e1 or e2:
            assert ec + single + two != sum(
                keyrate.decoy_rate_terms(d, "four-state"))


def test_decoy_terms_take_the_protocol_from_the_caller():
    # cli alone decides how an unlabelled decoy input is rated.
    with pytest.raises(TypeError):
        keyrate.decoy_rate_terms(decoy(0.0, 0.0))


@pytest.mark.parametrize("protocol,nu,e,bound", [
    ("four-state", 1, 0.67, "0.666667"),
    ("six-state", 1, 0.6, "0.571429"),
    ("six-state", 2, 0.65, "0.6"),
])
def test_decoy_terms_reject_an_e_past_the_bell_polytope(protocol, nu, e,
                                                         bound):
    d = decoy(e, 0.0) if nu == 1 else decoy(0.0, e)
    with pytest.raises(ValueError) as info:
        keyrate.decoy_rate_terms(d, protocol)
    assert str(info.value) == "e%d must be in [0, %s] for the %s nu=%d " \
        "rate, got %r" % (nu, bound, protocol, nu, e)


def test_decoy_rate_zero_error_composition():
    d = keyrate.DecoyInputs(p_conc=0.25, e_bit=0.0, xi1=0.1, e1=0.0,
                            xi2=0.05, e2=0.0)
    expected = 0.1 + 0.05 * (1.0 - keyrate.binary_entropy(SIN2))
    terms = keyrate.decoy_rate_terms(d, "four-state")
    assert abs(sum(terms) - expected) < 1e-12


def test_decoy_rate_error_correction_only_is_nonpositive():
    d = keyrate.DecoyInputs(p_conc=0.25, e_bit=0.05, xi1=0.0, e1=0.0,
                            xi2=0.0, e2=0.0)
    assert sum(keyrate.decoy_rate_terms(d, "four-state")) <= 0.0


def test_decoy_terms_sum_to_total():
    d = keyrate.DecoyInputs(p_conc=0.3, e_bit=0.03, xi1=0.12, e1=0.04,
                            xi2=0.06, e2=0.05)
    terms = keyrate.decoy_rate_terms(d, "four-state")
    assert terms[0] <= 0.0


# ---------------------------------------------------------------------------
# Six-state pipeline
# ---------------------------------------------------------------------------

def test_six_state_thresholds_positive_and_decreasing():
    es = [keyrate.sixstate_thresholds(nu) for nu in (1, 2, 3, 4)]
    assert all(e > 0 for e in es)
    assert all(b < a for a, b in zip(es, es[1:]))


def test_six_state_threshold_regression_values():
    # Pipeline regression anchors: nu=1, 2 on the Bell-diagonal rate, nu=3, 4
    # on the closed-form phase-error bound.
    expected = {1: 0.1123572, 2: 0.0560276, 3: 0.0237011, 4: 0.0078830}
    for nu, e_ref in expected.items():
        e = keyrate.sixstate_thresholds(nu)
        assert e == pytest.approx(e_ref, abs=1e-6)


# The closed-form root of each row's rate, found with no frontier and no
# vertex table: at nu = 1, 2 every Bell weight is linear in e (oracles.sixstate_chi)
# and the rate is 1 - H(chi(e)); at nu = 3 only the certified phase error is,
# and the rate is 1 - h(e) - h(alpha + beta*e).
CLOSED_FORM_ROOTS = {
    1: lambda: oracles.bell_diagonal_threshold(
        lambda e: oracles.sixstate_chi(1, e), tol=1e-12),
    2: lambda: oracles.bell_diagonal_threshold(
        lambda e: oracles.sixstate_chi(2, e), tol=1e-12),
    3: lambda: oracles.linear_indep_threshold(*LINEAR_EPH[3], tol=1e-12),
}


@pytest.mark.parametrize("nu", [1, 2, 3])
def test_six_state_thresholds_are_the_closed_form_roots(nu):
    root = CLOSED_FORM_ROOTS[nu]()
    assert abs(keyrate.sixstate_thresholds(nu) - root) <= 1e-7


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(LINEAR_EPH)), st.floats(min_value=1e-9,
                                                      max_value=0.45))
def test_tangent_bound_is_the_linear_phase_error(nu, e):
    # The phase-error path stays exact where no threshold row reads it now.
    alpha, beta = LINEAR_EPH[nu]
    bound = keyrate.ephase_bound_frontier(e, "six-state", nu)
    assert abs(bound - (alpha + beta * e)) <= 1e-12


def test_six_state_rate_model_follows_the_bell_vertex_table(monkeypatch):
    # The rows with a Bell vertex table (nu = 1, 2) read no phase-error
    # bound; the others (nu = 3, 4) do.  A table without nu = 1 moves nu = 1
    # to the phase-error rate, whose root is the independent-errors one.
    bound_rows = []
    minimum = keyrate.phase_minimum
    nu_of = {id(pieces): nu for (protocol, nu), pieces
             in keyrate.PIECES.items() if protocol == "six-state"}

    def spy(pieces, e):
        if not isinstance(e, Decimal):  # exact_rate reads EXACT_PIECES
            bound_rows.append(nu_of[id(pieces)])
        return minimum(pieces, e)

    monkeypatch.setattr(keyrate, "phase_minimum", spy)
    for nu in (1, 2, 3, 4):
        keyrate.sixstate_thresholds(nu)
    assert sorted(set(bound_rows)) == [3, 4]
    monkeypatch.delitem(keyrate.BELL_VERTICES, ("six-state", 1))
    root = oracles.linear_indep_threshold(*LINEAR_EPH[1], tol=1e-12)
    assert abs(keyrate.sixstate_thresholds(1) - root) <= 1e-7
    assert sorted(set(bound_rows)) == [1, 3, 4]


def test_bell_vertex_thresholds_need_no_numpy():
    # Every threshold is float arithmetic on BELL_VERTICES or PIECES: in a
    # process where numpy cannot be imported every row gives the same float.
    code = ("import sys; sys.modules['numpy'] = None; from sargkit import "
            "keyrate; print(repr([keyrate.threshold(p, nu) for p, nu in %r]))"
            % sorted(FLOAT_ROOTS))
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True,
                         env=dict(os.environ, PYTHONPATH=SRC)).stdout
    assert out == repr([FLOAT_ROOTS[row][0]
                        for row in sorted(FLOAT_ROOTS)]) + "\n"


def test_six_state_thresholds_do_not_read_the_x_grid(monkeypatch):
    rows = [keyrate.sixstate_thresholds(nu) for nu in (1, 2, 3, 4)]
    monkeypatch.setattr(bounds, "DEFAULT_X_GRID", (0.0, 0.5, 2.0))
    assert [keyrate.sixstate_thresholds(nu) for nu in (1, 2, 3, 4)] == rows


def test_six_state_dominates_like_for_like_baseline():
    # Under the same independent-errors entropy model the six-state frontier
    # can only improve on the four-state one.
    base = oracles.fourstate_indep_threshold()
    assert keyrate.sixstate_thresholds(1) >= base - 1e-6


def test_six_state_rejects_unsupported_photon_number():
    with pytest.raises(ValueError):
        keyrate.sixstate_thresholds(5)


def test_reference_tables_present():
    # One table per tag, holding only its own rated keys: the paper's
    # single-photon p of BB84 (0.165, asserted within half a unit) and of
    # the original six-state protocol (0.190, informational) are rows of
    # their own tags' tables.
    table = keyrate.THRESHOLDS
    assert tuple(table) == sargkit.RECORD_TAGS
    assert all(row[0] == tag for tag, rows in table.items() for row in rows)
    assert [row[1] for row in table["four-state"]] == [1, 2]
    assert [row[1] for row in table["six-state"]] == [1, 2, 3, 4]
    assert table["bb84"] == (("bb84", 1, None, 0.165, (None, 5e-4)),)
    assert table["six-state-original"] == (
        ("six-state-original", 1, None, 0.190, None),)


# ---------------------------------------------------------------------------
# The phase-error bound of a computed frontier
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("e", [-1.0, -5e-324, 0.5000001, math.inf, math.nan])
def test_ephase_bound_frontier_rejects_e_outside_its_domain(e):
    with pytest.raises(ValueError, match="e_bit"):
        keyrate.ephase_bound_frontier(e, "six-state", 4)


@pytest.mark.parametrize("protocol,nu", CASES)
def test_ephase_bound_frontier_at_zero_is_the_exact_floor(protocol, nu):
    # The row's floor rounded up (FLOORS): never below the exact floor, which
    # the floor of the float blocks is at four-state nu=3 and six-state nu=3.
    floor = keyrate.ephase_bound_frontier(0.0, protocol, nu)
    assert floor == keyrate.FLOORS[protocol, nu]
    assert oracles.q2_sign(oracles.q2_minus_float(
        oracles.q2_floor(protocol, nu), floor)) <= 0


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CASES), st.floats(min_value=0.0, max_value=0.45))
def test_tangent_bound_is_at_most_the_grid_minimum(case, e):
    bound = keyrate.ephase_bound_frontier(e, *case)
    assert bound <= oracles.ephase_bound_grid(e, *case) + 1e-12


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sargkit.PROTOCOLS), st.floats(min_value=0.0,
                                                     max_value=0.45))
def test_tangent_bound_is_three_halves_e_at_one_photon(protocol, e):
    assert abs(keyrate.ephase_bound_frontier(e, protocol, 1) - 1.5 * e) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.just(0.0) | st.floats(min_value=1e-12, max_value=0.45))
@example(1e-9)
@example(1e-11)
@example(1e-12)
def test_tangent_bound_is_the_two_photon_closed_form(e):
    # The blocks' curve is g, so the bound is ephase_bound_two at every e;
    # e = 0 is the exact floor.  Below e = 1e-7 the minimizing x, about
    # 1/(4 sqrt(e)), passes 1024, and the wider tolerance allows for the
    # certifying margin's roundoff n*eps*x*||H_bit||_2 (5.8e-12 at e = 1e-12).
    bound = keyrate.ephase_bound_frontier(e, "four-state", 2)
    tol = 1e-12 if e == 0.0 or e >= 1e-7 else 1e-10
    assert abs(bound - keyrate.ephase_bound_two(e)) <= tol


@pytest.mark.parametrize("e", [1e-14, 1e-100, 5e-324])
def test_tangent_bound_is_certified_at_x_at_most_frontier_x_max(monkeypatch,
                                                                e):
    # Below e = 1e-13 the minimizing x passes FRONTIER_X_MAX (2.5e49 at
    # e = 1e-100, and at 5e-324 a kink of two equal lines at 2.35e15), where
    # the margin's roundoff tolerance n*eps*x*||H_bit||_2 outgrows PSD_TOL.
    # The bound is certified at FRONTIER_X_MAX instead: never below the
    # minimum, and above it by y_star(FRONTIER_X_MAX) - floor at most.  The
    # minimum itself stays the closed form: the singular curves keep their
    # finite limit at any x.  The certified bound reads the blocks, which
    # match the table within IDENTITY_TOL (piece table = forms).
    assert abs(keyrate.ephase_bound_two(e)
               - oracles.ephase_bound_two_stationary(e)) <= 1e-15
    certified = []
    frontier = bounds.frontier
    monkeypatch.setattr(bounds, "frontier", lambda x, protocol, nu: (
        certified.append(x) or frontier(x, protocol, nu)))
    for case in (("four-state", 2), ("four-state", 4), ("six-state", 4)):
        bound = keyrate.ephase_bound_frontier(e, *case)
        minimum = keyrate.phase_minimum(keyrate.PIECES[case], e)[1]
        assert (minimum - bounds.IDENTITY_TOL <= bound
                <= minimum + 1e-7), case
    assert len(certified) == 3 and max(certified) <= sargkit.FRONTIER_X_MAX


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CASES), st.floats(min_value=1e-6, max_value=0.45))
@example(("four-state", 1), 0.3)
@example(("four-state", 2), 1e-6)
@example(("six-state", 3), 0.02)
@example(("six-state", 4), 0.01)
def test_tangent_bound_is_attained_by_a_lifted_attack(case, e):
    # At the minimizing x the top eigenvector u of A - x*B attains y_star(x).
    # Lifted to the attack R F^-1/2 u and sent through the compiled forms, u
    # has bit/fil and ph/fil ratios (e_u, p_u) on the tangent line
    # p = y_star(x) + x*e, so x*e + y_star(x) is the phase error of a real
    # attack at bit error e_u, and of none below the line.
    protocol, nu = case
    a, b = bounds._reduced_pencil(protocol, nu)
    x, bound = keyrate.phase_minimum(keyrate.PIECES[case], e)
    y = bounds.frontier(x, protocol, nu)
    assert keyrate.ephase_bound_frontier(e, *case) == x * e + y
    assert abs(bound - (x * e + y)) <= bounds.IDENTITY_TOL
    w, v = qmath.eigh_checked(a - x * b)
    if w[-1] <= 1e-12:  # y_star clipped to 0: the zero attack
        assert abs(y) <= 1e-12
        return
    m = oracles.lift_reduced(v[:, -1], protocol, nu).reshape(-1)
    forms = attack_forms.all_forms(protocol, nu)
    fil, bit, ph = (np.vdot(m, forms[k].matrix @ m).real
                    for k in ("fil", "bit", "ph"))
    assert abs(ph / fil - x * bit / fil - y) <= 1e-9 * max(1.0, x)
