"""Feasibility margins, the analytic two-photon bound, and frontiers."""

import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import sargkit
from sargkit import attack_forms, bounds, keyrate, qmath

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


def g_decimal(x: float) -> Decimal:
    """g(x) at 50 significant digits, from the exact value of the float x."""
    with localcontext() as ctx:
        ctx.prec = 50
        d = Decimal(x)
        disc = 6 - 6 * Decimal(2).sqrt() * d + 4 * d * d
        return (3 - 2 * d + disc.sqrt()) / 6


G_GRID = np.concatenate([np.linspace(0.0, 30.0, 1024),
                         np.geomspace(30.0, 1e12, 1024)[1:]]).tolist()


def test_g_is_within_roundoff_of_its_50_digit_value():
    # g is its 50-digit value correctly rounded at every x up to 1e12: the
    # plain form (3 - 2x + sqrt(disc))/6 cancels, by up to 21 ulps below 30.
    for x in G_GRID:
        g = bounds.g_of_x(x)
        assert abs(Decimal(g) - g_decimal(x)) <= Decimal(math.ulp(g)) / 2, x


def test_g_ignores_the_callers_decimal_context():
    with localcontext() as ctx:
        ctx.prec = 12
        short = [bounds.g_of_x(x) for x in G_GRID[::16]]
    assert short == [bounds.g_of_x(x) for x in G_GRID[::16]]


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
    fit = oracles.span_coefficients(protocol, nu, tag)
    assert [type(v) for v in fit] == [float, float, float]  # a, b are real
    assert abs(fit[0] - a) <= 1e-12 and abs(fit[1] - b) <= 1e-12
    assert fit[2] <= 1e-12


# Every (protocol, nu) where no Bell form is a*H_fil + b*H_bit.
OUTSIDE_THE_SPAN = [("four-state", 2), ("six-state", 4), ("four-state", 1),
                    ("four-state", 3), ("four-state", 4), ("six-state", 3)]


@pytest.mark.parametrize("protocol,nu", OUTSIDE_THE_SPAN)
def test_phase_form_outside_the_span(protocol, nu):
    # Every Bell form, and the phase form where SPAN_IDENTITIES has none, fits
    # the span with a least-squares residual of at least 7.2e-3 (six-state
    # nu=4): no identity of that form holds there.
    tags = ["bell:" + tag for tag in qmath.BELL_TAGS]
    if all(row[:3] != (protocol, nu, "ph") for row in SPAN_IDENTITIES):
        tags.append("ph")
    for tag in tags:
        assert oracles.span_coefficients(protocol, nu, tag)[2] >= 7e-3, tag


@pytest.mark.parametrize("protocol,nu", sorted(keyrate.BELL_VERTICES))
def test_reduced_bell_forms_commute_and_resolve_the_identity(protocol, nu):
    # The premise of the Bell polytope: the four Bell forms reduced to the
    # block coordinates of range(H_fil) are PSD, sum to the identity and
    # commute pairwise; every block there has side 1.
    split = bounds.pencil_blocks(protocol, nu)
    assert all(a.shape == (1, 1) for a, _ in split.blocks)
    u = bounds._range_map(protocol, nu)[1] @ split.basis
    forms = attack_forms.all_forms(protocol, nu)
    x = np.stack([bounds._reduce(u, forms["bell:" + tag].matrix)
                  for tag in qmath.BELL_TAGS])
    assert np.abs(x.sum(axis=0) - np.eye(x.shape[-1])).max() <= 1e-14
    assert min(qmath.min_eigenvalue(x)) >= -1e-15
    for i in range(4):
        for j in range(i):
            assert np.abs(x[i] @ x[j] - x[j] @ x[i]).max() <= 1e-15


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
    table = bounds.frontier_table("four-state", 2, bounds.DEFAULT_X_GRID)
    for x, y in zip(bounds.DEFAULT_X_GRID, table):
        gx = bounds.g_of_x(x)
        assert y <= gx + 1e-6
        assert bounds.psd_margin(x, gx, "four-state", 2) >= -1e-9


def test_frontier_table_sorted_and_nonincreasing():
    table = bounds.frontier_table("four-state", 2, bounds.DEFAULT_X_GRID)
    xs = list(bounds.DEFAULT_X_GRID)
    assert xs == sorted(xs)
    assert len(table) == len(bounds.DEFAULT_X_GRID)
    ys = list(table)
    assert all(b <= a + 1e-6 for a, b in zip(ys, ys[1:]))


# ---------------------------------------------------------------------------
# Pencil blocks
# ---------------------------------------------------------------------------

# Block sides per row, sorted.
BLOCK_SIDES = {
    ("four-state", 1): [1, 1, 1, 1], ("four-state", 2): [1, 1, 2, 2],
    ("four-state", 3): [1, 1, 1, 1, 2, 2], ("four-state", 4): [2, 2, 2, 2],
    ("six-state", 1): [1] * 4, ("six-state", 2): [1] * 6,
    ("six-state", 3): [1] * 8, ("six-state", 4): [1, 1, 2, 2, 2, 2],
}


@pytest.mark.parametrize("protocol,nu", sorted(BLOCK_SIDES))
def test_pencil_blocks_split_the_reduced_pencil(protocol, nu):
    # The blocks are the pencil in another orthonormal basis: their sides add
    # up to its side and their spectra are its spectra.
    split = bounds.pencil_blocks(protocol, nu)
    assert sorted(a.shape[0] for a, _ in split.blocks) == BLOCK_SIDES[
        protocol, nu]
    assert split.residual <= bounds.IDENTITY_TOL
    assert split.pieces.shape == (len(split.blocks), 6)
    for k, pencil in enumerate(bounds._reduced_pencil(protocol, nu)):
        spectrum = np.concatenate([np.linalg.eigvalsh(blk[k])
                                   for blk in split.blocks])
        assert np.abs(np.sort(spectrum)
                      - np.linalg.eigvalsh(pencil)).max() <= 1e-13
    # The basis is unitary and carries the pencil onto the blocks.
    u = split.basis
    assert np.abs(qmath.dagger(u) @ u - np.eye(len(u))).max() <= 1e-13
    for k, pencil in enumerate(bounds._reduced_pencil(protocol, nu)):
        diagonal = np.zeros_like(u)
        at = 0
        for blk in split.blocks:
            side = blk[k].shape[0]
            diagonal[at:at + side, at:at + side] = blk[k]
            at += side
        assert np.abs(qmath.dagger(u) @ pencil @ u - diagonal).max() <= 1e-13
    arrays = [m for blk in split.blocks for m in blk]
    assert all(not m.flags.writeable
               for m in arrays + [u, split.pieces])


@settings(max_examples=200, deadline=None)
@given(protocol=st.sampled_from(sargkit.PROTOCOLS),
       nu=st.integers(1, attack_forms.MAX_NU),
       x=st.floats(0.0, 1e3))
def test_pencil_blocks_rebuild_the_eigvalsh_frontier(protocol, nu, x):
    # The closed-form pieces are lambda_max of the blocks: y_star equals a
    # plain eigvalsh of the reduced pencil to roundoff in x.
    y = bounds.frontier(x, protocol, nu)
    ref = float(oracles.frontier_eigvalsh([x], protocol, nu)[0])
    assert abs(y - ref) <= 1e-12 * max(1.0, x)


def test_pencil_blocks_reject_a_coherence_between_blocks(monkeypatch):
    pencil = oracles.couple_two_photon_blocks(1e-9)
    monkeypatch.setattr(bounds, "_reduced_pencil", lambda protocol, nu: pencil)
    with pytest.raises(ArithmeticError, match="pencil block residual"):
        bounds.pencil_blocks.__wrapped__("four-state", 2)


def test_pencil_blocks_reject_a_block_wider_than_two(monkeypatch):
    # An irreducible 3x3 pencil: no pair of blocks of side 1 or 2 holds it,
    # so the residual outside them is of the order of its entries.
    a = np.array([[1.0, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, -1.0]])
    b = np.diag([1.0, 2.0, 3.0])
    monkeypatch.setattr(bounds, "_reduced_pencil", lambda protocol, nu: (a, b))
    with pytest.raises(ArithmeticError, match="pencil block residual"):
        bounds.pencil_blocks.__wrapped__("four-state", 2)


# g(x) = alpha - beta*x + sqrt(gamma*x^2 - 2*delta*x + epsilon), by hand,
# each coefficient correctly rounded: sqrt(2)/12 is 0.11785113019775792,
# one ulp below math.sqrt(2.0) / 12.0.
G_PIECE = (0.5, 1.0 / 3.0, 1.0 / 9.0, 0.11785113019775792, 1.0 / 6.0)


def g_curve() -> list[tuple[float, ...]]:
    """The one curve of the four-state nu=2 table row."""
    return [p for p in keyrate.PIECES["four-state", 2] if p[2] > 0.0]


def test_two_photon_curve_is_g():
    # Four-state nu=2: both 2x2 blocks are g's curve and both lines are
    # 1/2 - x/2, which g dominates, so y_star = g exactly.
    split = bounds.pencil_blocks("four-state", 2)
    curves = split.pieces[split.pieces[:, 2] > 0.0]
    lines = split.pieces[split.pieces[:, 2] == 0.0]
    assert [p[:5] for p in g_curve()] == [G_PIECE]
    assert np.abs(curves[:, :5] - G_PIECE).max() <= 1e-13
    assert np.abs(lines[:, :2] - 0.5).max() <= 1e-13
    # The table's line a - b*x lies below g: a <= min_x [b*x + g(x)].
    table_lines = [p for p in keyrate.PIECES["four-state", 2] if p[2] == 0.0]
    assert [p[:2] for p in table_lines] == [(0.5, 0.5)]
    assert keyrate.phase_minimum(g_curve(), 0.5)[1] > 0.5
    assert bounds.piece_table_check("four-state", 2) <= 1e-13
    xs = np.linspace(0.0, 50.0, 5001)
    ys = bounds.frontier_table("four-state", 2, xs)
    assert max(abs(y - bounds.g_of_x(x)) for x, y in zip(xs, ys)) <= 1e-13


@pytest.mark.parametrize("protocol,nu", sorted(keyrate.PIECES))
def test_piece_table_is_the_pencil_blocks(protocol, nu):
    # Every block piece is a table piece and back, to the roundoff of the
    # compiled forms (a moved coefficient: test_cli).
    assert bounds.piece_table_check(protocol, nu) <= 1e-13


@pytest.mark.parametrize("protocol", sargkit.PROTOCOLS)
@pytest.mark.parametrize("nu", range(1, attack_forms.MAX_NU + 1))
def test_scalar_envelope_is_the_vectorized_one_bit_for_bit(protocol, nu):
    # frontier_table reads y_star off the block pieces one x at a time; the
    # same IEEE operations on arrays give the same bits, from 1e-6 to 1e6.
    pieces = bounds.pencil_blocks(protocol, nu).pieces
    xs = np.concatenate([np.linspace(0.0, 10.0, 1001),
                         np.geomspace(1e-6, 1e6, 1001)])
    ys = [keyrate.envelope(pieces.tolist(), x) for x in xs.tolist()]
    assert ys == oracles.envelope_numpy(pieces, xs).tolist()


@pytest.mark.parametrize("shift", [(0, 1e-9), (3, 1e-9), (4, -1e-9)])
def test_g_check_sees_a_curve_moved_off_g(shift, monkeypatch):
    i, size = shift
    line, curve = keyrate.PIECES["four-state", 2]
    moved = list(curve)
    moved[i] += size
    monkeypatch.setitem(keyrate.PIECES, ("four-state", 2), (line, tuple(moved)))
    assert bounds.piece_table_check("four-state", 2) >= 0.5e-9


def test_g_check_sees_a_line_above_g(monkeypatch):
    # A line 1/2 - x/20 crosses g near x = 1.3: no longer dominated.
    split = bounds.pencil_blocks("four-state", 2)
    pieces = np.array(split.pieces)
    pieces[pieces[:, 2] == 0.0, 1] = 0.05
    monkeypatch.setattr(bounds, "pencil_blocks", lambda protocol, nu:
                        split._replace(pieces=pieces))
    assert bounds.piece_table_check("four-state", 2) > 0.1


@pytest.mark.parametrize("protocol,nu", [("four-state", 4), ("six-state", 4)])
def test_closed_form_frontier_does_not_cancel_at_large_x(protocol, nu):
    # y_star tends to the zero-error floor as floor + c/x + O(1/x^2): the
    # closed form keeps c/x at x = 1e9 (6e-11 here) to 1e-3 of itself, where
    # -beta*x + sqrt(q) taken as written would lose about eps * x = 2e-7.
    floor = bounds.zero_rate_check(protocol, nu)
    near = bounds.frontier(1e6, protocol, nu) - floor
    far = bounds.frontier(1e9, protocol, nu) - floor
    assert 0.0 < far < near < 1e-6
    assert abs(far * 1e9 - near * 1e6) <= 1e-3 * near * 1e6


# ---------------------------------------------------------------------------
# Phase-error bound from the blocks
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(protocol=st.sampled_from(sargkit.PROTOCOLS),
       nu=st.sampled_from(sargkit.SUPPORTED_NU),
       e=st.floats(0.01, 0.45))
def test_phase_minimum_is_the_golden_section_minimum(protocol, nu, e):
    # The finite candidate set of the table row holds the minimizer: no
    # search on the eigvalsh frontier does better.  The table's bound is the
    # blocks' (y_star certified by frontier) at its x, within IDENTITY_TOL,
    # the bound of the piece table = forms row.
    x, bound = keyrate.phase_minimum(keyrate.PIECES[protocol, nu], e)
    assert x >= 0.0
    assert abs(bound - (x * e + bounds.frontier(x, protocol, nu))) \
        <= bounds.IDENTITY_TOL
    assert abs(bound - oracles.ephase_bound_golden(e, protocol, nu)) <= 1e-9


@pytest.mark.parametrize("e", [0.0, -1e-3, math.inf, math.nan])
def test_phase_minimum_rejects_e_outside_zero_to_infinity(e):
    with pytest.raises(ValueError, match="0 < e_bit < inf"):
        keyrate.phase_minimum(keyrate.PIECES["six-state", 4], e)


def test_phase_minimum_makes_no_eigen_solve(monkeypatch):
    # The minimum reads the table alone: no form, no block, no solve.
    monkeypatch.setattr(qmath, "eigh_checked", None)
    monkeypatch.setattr(bounds, "pencil_blocks", None)
    assert keyrate.phase_minimum(keyrate.PIECES["six-state", 4], 0.02)[1] > 0.0


def test_kinks_hold_zero_and_the_line_crossings():
    # Six-state nu=3 is lines only: 1/4, 19/28 - 4x/7 and 3/4 - 2x/3 cross
    # one another at x = 3/4 and the zero line at 9/8 and 19/16.
    kinks = keyrate.kinks(keyrate.PIECES["six-state", 3])
    assert kinks[0] == 0.0 and kinks == sorted(kinks)
    for x in (0.75, 1.125, 19 / 16):
        assert min(abs(k - x) for k in kinks) <= 1e-13


@pytest.mark.parametrize("row", sorted(keyrate.PIECES))
def test_kinks_of_each_table_row_are_distinct_and_finite(row):
    # Exact pieces have no near-equal lines, whose float crossings land
    # near 1e15: every kink lies in [0, 3/2].
    kinks = keyrate.kinks(keyrate.PIECES[row])
    assert 2 <= len(kinks) == len(set(kinks)) <= 6
    assert kinks == sorted(kinks) and 0.0 == kinks[0] and kinks[-1] <= 1.5 + 1e-15


@pytest.mark.parametrize("protocol", sargkit.PROTOCOLS)
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


@pytest.mark.parametrize("protocol", sargkit.PROTOCOLS)
@pytest.mark.parametrize("nu", [1, 2, 3, 4])
def test_batched_frontier_equals_the_per_point_loop(protocol, nu):
    # The closed form is elementwise and one stacked margin solve makes the
    # same LAPACK call per matrix as the loop, so every y_star and every
    # margin is the same double; the per-point eigen-solve agrees to roundoff.
    grid = bounds.DEFAULT_X_GRID
    table = bounds.frontier_table(protocol, nu, grid)
    assert len(table) == len(grid)
    ys = list(table)
    assert all(abs(y - oracles.frontier_per_point(x, protocol, nu))
               <= 1e-12 * max(1.0, x) for x, y in zip(grid, ys))
    assert bits([bounds.frontier(x, protocol, nu) for x in grid]) == bits(ys)
    gs = [bounds.g_of_x(x) for x in grid]
    assert bits(bounds.psd_margin(grid, gs, protocol, nu)) == bits(
        bounds.psd_margin(x, g, protocol, nu) for x, g in zip(grid, gs))


def test_clipped_frontier_is_positive_zero():
    # Four-state nu=1: y_star = max(0, 1.5 - x), so every x > 1.5 clips.
    table = bounds.frontier_table("four-state", 1, bounds.DEFAULT_X_GRID)
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


@pytest.mark.parametrize("protocol", sargkit.PROTOCOLS)
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
    oracles.fresh_caches(monkeypatch)
    with pytest.raises(ArithmeticError):
        bounds._reduced_pencil("four-state", 4)


def test_frontier_reduction_rejects_an_unclear_filter_kernel_cut(monkeypatch):
    # An H_fil eigenvalue at 1e-9 of the largest lies within six decades
    # above the cut, where roundoff could move it into the kernel.
    h_bit, h_fil, h_ph = bounds._forms("four-state", 1)
    w, v = np.linalg.eigh(h_fil)
    w[0] = 1e-9 * w[-1]
    squeezed = (v * w) @ v.conj().T
    monkeypatch.setattr(bounds, "_forms",
                        lambda protocol, nu: (h_bit, squeezed, h_ph))
    oracles.fresh_caches(monkeypatch)
    with pytest.raises(ArithmeticError, match="H_fil eigenvalue .* kernel cut"):
        bounds._reduced_pencil("four-state", 1)


@pytest.mark.parametrize("protocol", sargkit.PROTOCOLS)
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


# inf_x y_star(x) in closed form, nu = 1..12.  From nu = K - 1 (3 and 5) on
# the floor repeats with the phase period P (2 and 8).
FLOORS = {
    "four-state": (0.0, SIN2) + (1.0, COS2) * 5,
    "six-state": (0.0, SIN2, 0.25, 0.5 - 1 / (4 * math.sqrt(2)),
                  1.0, COS2, 0.75, 0.5 + 1 / (4 * math.sqrt(2)),
                  0.75, 0.5 + 1 / (4 * math.sqrt(2)), 0.75, COS2),
}


@pytest.mark.parametrize("protocol", sargkit.PROTOCOLS)
@pytest.mark.parametrize("nu", range(1, attack_forms.MAX_NU + 1))
def test_zero_rate_floor_matches_closed_forms(protocol, nu, monkeypatch):
    monkeypatch.setattr(bounds, "frontier_table", None)  # no grid is read
    assert abs(bounds.zero_rate_check(protocol, nu)
               - FLOORS[protocol][nu - 1]) <= 1e-12


@pytest.mark.parametrize("protocol", sargkit.PROTOCOLS)
@pytest.mark.parametrize("nu", range(1, attack_forms.MAX_NU + 1))
def test_zero_rate_floor_is_the_phase_form_on_the_bit_kernel(protocol, nu):
    # The singular pieces' limits are A_k on the kernel of B_k: the floor is
    # lambda_max of the reduced H_ph compressed onto the kernel of the
    # reduced H_bit.
    assert abs(bounds.zero_rate_check(protocol, nu)
               - oracles.zero_rate_floor_compressed(protocol, nu)) <= 1e-12


def test_zero_rate_floor_is_two_solves_and_no_blocks(monkeypatch):
    # One solve of the reduced H_bit and one of the compression, from a
    # warm H_fil solve and an empty floor cache; no block split is read,
    # and a second read of the floor solves nothing.
    oracles.fresh_caches(monkeypatch)
    rows = [(protocol, nu) for protocol in sargkit.RECORD_TAGS
            for nu in range(1, attack_forms.MAX_NU + 1)]
    for row in rows:
        bounds._range_map(*row)
    calls = []
    solve = qmath.eigh_checked
    monkeypatch.setattr(qmath, "eigh_checked",
                        lambda h: calls.append(1) or solve(h))
    monkeypatch.setattr(bounds, "pencil_blocks", None)
    for row in rows:
        calls.clear()
        floor = bounds.zero_rate_check(*row)
        assert len(calls) == 2, row
        assert bounds.zero_rate_check(*row) == floor and len(calls) == 2


@pytest.mark.parametrize("protocol,nu", sorted(keyrate.PIECES))
def test_zero_rate_floor_is_the_floor_of_the_blocks(protocol, nu):
    # Where the pencil splits into blocks of side 1 or 2, the compression
    # floor is the largest limit of a block piece singular in B.
    assert abs(bounds.zero_rate_check(protocol, nu)
               - oracles.block_floor(protocol, nu)) <= bounds.IDENTITY_TOL


@pytest.mark.parametrize("protocol,nu", [("bb84", 2),
                                         ("six-state-original", 4)])
def test_zero_rate_floor_needs_no_block_split(protocol, nu):
    # Two pencils with blocks of side 3, which pencil_blocks cannot split
    # (residuals 0.709 and 0.641): the floor is still the exact table floor,
    # (2 + sqrt 2)/4 and 1.
    with pytest.raises(ArithmeticError,
                       match=r"pencil block residual [1-9]\.\d{3}e-01 "):
        bounds.pencil_blocks(protocol, nu)
    assert (abs(bounds.zero_rate_check(protocol, nu)
                - keyrate.FLOORS[protocol, nu]) <= bounds.IDENTITY_TOL)


SHARPNESS_GRID = (0.0, 0.5, 1.0, 2.0, 5.0, 20.0)


@pytest.fixture
def nu_up_to_20(monkeypatch):
    # Forms past MAX_NU, compiled into caches that end with the test.
    monkeypatch.setattr(attack_forms, "MAX_NU", 20)
    oracles.fresh_caches(monkeypatch)


@pytest.mark.parametrize("protocol", sargkit.PROTOCOLS)
def test_frontier_repeats_with_the_phase_period_from_k_minus_1(protocol,
                                                               nu_up_to_20):
    # From nu = K - 1 on the frontier depends on nu mod P only, so the
    # constants-check window nu = K - 1 .. K - 2 + P covers every nu.
    table = qmath.signal_kets(protocol)
    k, period = len(table.kets), table.period
    for nu in range(k - 1, k - 1 + period):
        here = bounds.frontier_table(protocol, nu, SHARPNESS_GRID)
        there = bounds.frontier_table(protocol, nu + period, SHARPNESS_GRID)
        assert max(abs(a - b) for a, b in zip(here, there)) <= 1e-12, nu


@pytest.mark.parametrize("protocol,nu,gap", [("four-state", 2, 0.71),
                                             ("six-state", 4, 0.54)])
def test_frontier_does_not_repeat_below_k_minus_1(protocol, nu, gap,
                                                  nu_up_to_20):
    # One photon below K - 1 the powers s_k^(x)nu are dependent: nu and
    # nu + P give different frontiers, so the window cannot start lower.
    period = qmath.signal_kets(protocol).period
    here = bounds.frontier_table(protocol, nu, SHARPNESS_GRID)
    there = bounds.frontier_table(protocol, nu + period, SHARPNESS_GRID)
    assert round(max(abs(a - b) for a, b in zip(here, there)), 2) == gap


@settings(max_examples=60, deadline=None)
@given(protocol=st.sampled_from(sargkit.PROTOCOLS),
       nu=st.sampled_from(sargkit.SUPPORTED_NU),
       x=st.floats(0.0, 1e6))
def test_zero_rate_floor_bounds_the_frontier_from_below(protocol, nu, x):
    # The floor is the infimum of y_star, so no x reads below it; a grid
    # minimum is y_star at the grid's largest x, which reads above it.
    assert (bounds.frontier(x, protocol, nu)
            >= bounds.zero_rate_check(protocol, nu) - bounds.PSD_TOL)


@pytest.fixture
def fresh_blocks(monkeypatch):
    """Caches that start empty and end with the test, so that a patched
    _reduced_pencil reaches the blocks."""
    oracles.fresh_caches(monkeypatch)


@pytest.mark.parametrize("w", [-1e-6, 1e-9])
def test_zero_rate_floor_rejects_an_unclear_kernel_cut(w, monkeypatch,
                                                       fresh_blocks):
    # An eigenvalue of the reduced H_bit below -cut (not PSD) or just above
    # the cut (a kernel direction roundoff could move) stops the blocks, and
    # so the floor.
    b = np.diag([0.0, w, 1.0])
    monkeypatch.setattr(bounds, "_reduced_pencil",
                        lambda protocol, nu: (np.eye(3), b))
    with pytest.raises(ArithmeticError, match="reduced H_bit .* kernel cut"):
        bounds.zero_rate_check("four-state", 2)


def test_zero_rate_floor_above_one_is_not_clipped(monkeypatch, fresh_blocks):
    # A floor above 1 means p_ph > p_fil: broken forms, shown as they are.
    monkeypatch.setattr(bounds, "_reduced_pencil",
                        lambda protocol, nu: (2.0 * np.eye(2),
                                              np.diag([0.0, 1.0])))
    assert bounds.zero_rate_check("four-state", 2) == 2.0


def test_zero_rate_floor_without_a_kernel_is_zero(monkeypatch, fresh_blocks):
    monkeypatch.setattr(bounds, "_reduced_pencil",
                        lambda protocol, nu: (np.eye(2), np.diag([0.5, 1.0])))
    assert repr(bounds.zero_rate_check("four-state", 2)) == "0.0"


@settings(max_examples=60, deadline=None)
@given(protocol=st.sampled_from(sargkit.PROTOCOLS),
       nu=st.integers(1, attack_forms.MAX_NU),
       x=st.floats(0.0, 1e6))
def test_frontier_at_zero_is_its_maximum(protocol, nu, x):
    # y_star never increases with x, so the verify row that reads y_star(0)
    # bounds the whole frontier; the slack is y_star's roundoff in x.
    assert (bounds.frontier(x, protocol, nu)
            <= bounds.frontier(0.0, protocol, nu) + 1e-12 * max(1.0, x))


@pytest.mark.parametrize("protocol", sargkit.PROTOCOLS)
@pytest.mark.parametrize("nu", range(1, attack_forms.MAX_NU + 1))
def test_frontier_certifies_at_large_x(protocol, nu):
    # Margins are checked at PSD_TOL + n*eps*x*||H_bit||_2, so roundoff of the
    # x*H_bit term no longer fails a correct point; y_star tends to the floor.
    floor = bounds.zero_rate_check(protocol, nu)
    for y in bounds.frontier_table(protocol, nu, (1e8, 1e9)):
        assert abs(y - floor) <= 1e-6
