"""Entropies, worst-case Bell vectors, key rates, and thresholds.

Rates are asymptotic per sifted conclusive pair.  ``rate`` is the one rate
of every rated key: its ``secrecy_term``, the rate before error correction
that the decoy sum of a run's protocol also reads (``decoy_rate_terms``),
less h(e_bit), under one of two rules:

* the Bell-vertex rule, at four-state nu=1 (R1), six-state nu=1, 2 and the
  nu=1 keys of BB84 and the original six-state protocol, where the reduced
  Bell forms commute: a conclusive pair's Bell vector chi ranges
  over the polytope of BELL_VERTICES, and the rate is the Bell-diagonal
  one-way rate 1 - max{H(chi) : chi in the polytope, chi1+ + chi1- = e_bit}
  (``worst_bell_vector``; H.-K. Lo, QIC 1, 81 (2001); P. W. Shor and
  J. Preskill, PRL 85, 441 (2000));
* the independent rule 1 - h(e_bit) - h(e_ph), bit and phase errors treated
  as independent, with e_ph the best certified phase-error bound
  min_x [x*e_bit + y_star(x)] (``phase_bound``), at four-state nu=2 (R2,
  where y_star is the paper's curve g) and six-state nu=3, 4: y_star is the
  maximum of 0 and the row's exact pieces (PIECES), so the minimum lies at
  a point of a finite set, read on no x-grid.

``rate`` computes in the number type of e_bit, by one code: a float reads
the float tables and a Decimal the exact ones, in 40 digits whatever the
caller's context (the piece functions, the Bell slice and the entropies
take either type).  ``exact_rate`` is ``rate`` at a float e_bit made
Decimal.  Every threshold is the last float whose exact rate is positive:
``_threshold`` bisects the float rate on [0, E_BIT_MAX], and
``_proved_root`` steps that root by ulps until ``exact_rate`` is positive
there and negative at the next float up, each by more than RATE_ERROR.
A float rate <= 0 at e = 0 means no key at any error rate: the threshold
is 0.  ``depol_p`` maps e_bit to the depolarizing-channel parameter p by
the tag's law in DEPOLARIZING_LAWS.  The `thresholds` report prints
THRESHOLDS.

The tables decide every (protocol, nu): a THRESHOLDS row makes it rated,
and ``secrecy_term`` applies the Bell-vertex rule to a BELL_VERTICES key and
the independent rule to any other, on its PIECES row.  cli.checks scopes its
certificates by the same three tables; neither branches on a protocol.

Each table coefficient is written once, as its exact value in Q(sqrt 2)
held in 40 digits (EXACT_BELL_VERTICES, EXACT_PIECES), whose pieces cover
the SARG04 keys at nu <= 4 and the no-key window nu = K-1 .. K-2+P
(six-state nu = 5..12).  The keys with forms at nu <= 4 but no piece row
have their exact floor written instead (EXACT_FLOORS, one in Q(sqrt 3)).
The float tables (BELL_VERTICES, PIECES) are those values correctly
rounded, and every zero-error floor a table read returns (FLOORS) is its
exact floor rounded up.  Every float rate and the decoy composition are
float arithmetic on the float tables, which bounds proves against the
compiled forms; bounds reads its float pencil pieces with the same
``envelope``, and g (bounds.g_of_x) with ``envelope`` on the exact
four-state nu=2 row.  Only ``ephase_bound_frontier`` imports ``bounds``
(and with it numpy).
"""

from __future__ import annotations

import decimal
import itertools
import math
import struct
import types
from dataclasses import dataclass
from decimal import Decimal

from . import FRONTIER_X_MAX

# The high end of every threshold's bracket: every rate model is defined up to
# it (the narrowest domain, the six-state nu=1 Bell polytope's, ends at 4/7).
E_BIT_MAX = 0.4

# The largest x a phase-error candidate is read at, where x*x is still
# finite: a stationary point past it (e below about 1e-290) is read there,
# within about sqrt(e) of its minimum, and a crossing past it is dropped.
X_FINITE = 1e150

# The one context of every exact value: 40 significant digits, each
# operation rounded to nearest (Decimal.sqrt and Decimal.ln too).
_EXACT = decimal.Context(prec=40)


def _exact_piece(alpha, beta, gamma=0, delta=0, epsilon=0):
    # Every curve of the table is singular (gamma = beta^2), so gamma -
    # beta^2 is exactly 0 on a curve; a line has gamma = delta = epsilon = 0.
    return tuple(map(Decimal, (alpha, beta, gamma, delta, epsilon,
                               0 if gamma else -beta * beta)))


def _exact_vertices(*chis):
    return tuple(tuple(map(Decimal, chi)) for chi in chis)


with decimal.localcontext(_EXACT):
    # 1, sqrt(2) and sqrt(3), so that every quotient below is a Decimal.
    _1, _S, _S3 = Decimal(1), Decimal(2).sqrt(), Decimal(3).sqrt()
    # The Bell polytope of each row whose reduced Bell forms commute: the
    # distinct Bell vectors, in qmath.BELL_TAGS order, of the forms' joint
    # eigenvectors (proved against the compiled forms by
    # bounds.bell_vertex_check).  A conclusive pair's Bell vector ranges over
    # their hull.  Every row has at most three vertices, with distinct bit
    # weights chi1+ + chi1-.  Each weight lies in Q(sqrt 2).
    EXACT_BELL_VERTICES = {
        ("four-state", 1): _exact_vertices((1, 0, 0, 0),
                                           (0, _1 / 3, 0, 2 * _1 / 3),
                                           (0, _1 / 2, _1 / 4, _1 / 4)),
        ("six-state", 1): _exact_vertices((1, 0, 0, 0),
                                          (0, 3 * _1 / 7, _1 / 7, 3 * _1 / 7)),
        ("six-state", 2): _exact_vertices(
            ((2 + _S) / 4, (2 - _S) / 4, 0, 0),
            ((8 - 5 * _S) / 40, (8 + 5 * _S) / 40,
             (12 - 3 * _S) / 40, (12 + 3 * _S) / 40)),
        ("bb84", 1): _exact_vertices((1, 0, 0, 0), (0, _1 / 2, _1 / 2, 0),
                                     (0, 0, 0, 1)),
        ("six-state-original", 1): _exact_vertices(
            (1, 0, 0, 0), (0, _1 / 3, _1 / 3, _1 / 3)),
    }
    # The exact closed form of every frontier y_star at nu <= 4 and over
    # the no-key window (four-state nu = 3, 4, six-state nu = 5..12): the
    # distinct pieces lambda_max(A_k - x*B_k) of the pencil blocks
    # (bounds.pencil_blocks, proved against the compiled forms by
    # bounds.piece_table_check), each the 6-tuple (alpha, beta, gamma, delta,
    # epsilon, gamma - beta^2) of alpha - beta*x + sqrt(gamma*x^2 - 2*delta*x
    # + epsilon), every coefficient in Q(sqrt 2).  y_star is the maximum of 0
    # and its row's pieces; the four-state nu=2 curve is the paper's g.
    EXACT_PIECES = {
        ("four-state", 1): (_exact_piece(0, 0), _exact_piece(1, 2 * _1 / 3),
                            _exact_piece(3 * _1 / 4, _1 / 2)),
        ("four-state", 2): (_exact_piece(_1 / 2, _1 / 2),
                            _exact_piece(_1 / 2, _1 / 3, _1 / 9, _S / 12,
                                         _1 / 6)),
        ("four-state", 3): (_exact_piece(0, 0), _exact_piece(0, 2 * _1 / 3),
                            _exact_piece(1, 0), _exact_piece(1, 2 * _1 / 3),
                            _exact_piece(_1 / 2, _1 / 3, _1 / 9, 0, _1 / 12)),
        ("four-state", 4): (_exact_piece(_1 / 2, _1 / 3, _1 / 9, _S / 12,
                                         _1 / 6),
                            _exact_piece(_1 / 2, _1 / 3, _1 / 9, -_S / 12,
                                         _1 / 6)),
        ("six-state", 1): (_exact_piece(0, 0),
                           _exact_piece(6 * _1 / 7, 4 * _1 / 7)),
        ("six-state", 2): (_exact_piece(_1 / 2 - _S / 4, 0),
                           _exact_piece(_1 / 2 + _S / 5, 3 * _1 / 5)),
        ("six-state", 3): (_exact_piece(_1 / 4, 0),
                           _exact_piece(19 * _1 / 28, 4 * _1 / 7),
                           _exact_piece(3 * _1 / 4, 2 * _1 / 3)),
        ("six-state", 4): (_exact_piece(_1 / 2, _1 / 2),
                           _exact_piece(_1 / 2, _1 / 3, _1 / 9, _S / 24,
                                        _1 / 24)),
        # The rest of the six-state no-key window nu = 5..12.
        ("six-state", 5): (_exact_piece(_1 / 4, 0), _exact_piece(1, 0),
                           _exact_piece(3 * _1 / 4, 2 * _1 / 3),
                           _exact_piece(3 * _1 / 8, _1 / 3, _1 / 9, -_1 / 24,
                                        11 * _1 / 192)),
        ("six-state", 6): (_exact_piece(_1 / 2 + _S / 4, 0),
                           _exact_piece(_1 / 2 + _S / 4, 2 * _1 / 3),
                           _exact_piece(_1 / 2 - _S / 8, _1 / 3, _1 / 9, 0,
                                        _1 / 32)),
        ("six-state", 7): (_exact_piece(3 * _1 / 4, 0),
                           _exact_piece(_1 / 4, 2 * _1 / 3),
                           _exact_piece(1, 2 * _1 / 3),
                           _exact_piece(3 * _1 / 8, _1 / 3, _1 / 9, _1 / 24,
                                        11 * _1 / 192)),
        ("six-state", 8): (_exact_piece(_1 / 2, _1 / 3, _1 / 9, _S / 12,
                                        _1 / 6),
                           _exact_piece(_1 / 2, _1 / 3, _1 / 9, -_S / 24,
                                        _1 / 24)),
        ("six-state", 9): (_exact_piece(0, 0), _exact_piece(3 * _1 / 4, 0),
                           _exact_piece(_1 / 4, 2 * _1 / 3),
                           _exact_piece(5 * _1 / 8, _1 / 3, _1 / 9, _1 / 24,
                                        11 * _1 / 192)),
        ("six-state", 10): (_exact_piece(_1 / 2 - _S / 4, 0),
                            _exact_piece(_1 / 2 - _S / 4, 2 * _1 / 3),
                            _exact_piece(_1 / 2 + _S / 8, _1 / 3, _1 / 9, 0,
                                         _1 / 32)),
        ("six-state", 11): (_exact_piece(_1 / 4, 0),
                            _exact_piece(0, 2 * _1 / 3),
                            _exact_piece(3 * _1 / 4, 2 * _1 / 3),
                            _exact_piece(5 * _1 / 8, _1 / 3, _1 / 9, -_1 / 24,
                                         11 * _1 / 192)),
        ("six-state", 12): (_exact_piece(_1 / 2, _1 / 3, _1 / 9, _S / 24,
                                         _1 / 24),
                            _exact_piece(_1 / 2, _1 / 3, _1 / 9, -_S / 12,
                                         _1 / 6)),
    }
    # The exact zero-error floor (bounds.zero_rate_check) of each key with
    # forms at nu <= 4 but no PIECES row: BB84 and the original six-state
    # protocol at nu = 2..4, whose nu=1 rows are rated by their Bell
    # polytopes.  At BB84 nu=2 and the original six-state nu=4 the pencil
    # has blocks of side 3, whose pieces are no lines or curves.  The
    # original six-state nu=2 floor lies in Q(sqrt 3), and its nu=3 floor
    # is exactly 1/2, so no key: a float floor reaches 1/2 only to roundoff.
    EXACT_FLOORS = {
        ("bb84", 2): (2 + _S) / 4, ("bb84", 3): _1, ("bb84", 4): _1,
        ("six-state-original", 2): _1 / 2 + _S3 / 6,
        ("six-state-original", 3): _1 / 2, ("six-state-original", 4): _1,
    }
    _LN2 = Decimal(2).ln()


def _round_up(x) -> float:
    """The least float >= x, a Decimal."""
    f = float(x)
    return f if Decimal(f) >= x else math.nextafter(f, math.inf)


# The float tables that every rate reads: each exact value correctly
# rounded (float(Decimal) is).
BELL_VERTICES = {key: tuple(tuple(map(float, chi)) for chi in row)
                 for key, row in EXACT_BELL_VERTICES.items()}
PIECES = {key: tuple(tuple(map(float, piece)) for piece in row)
          for key, row in EXACT_PIECES.items()}


# The thresholds table: per protocol tag, its rows in print order of (label,
# nu, quoted e_bit, quoted depolarizing p, tolerance on |computed - quoted|
# (e, p)).  Each row names a rated key (label, nu), label its tag, whose rate
# ``threshold`` reads from BELL_VERTICES or PIECES.  A tolerance part of None
# leaves that deviation unchecked, and a tolerance of None makes the row
# informational.  The six-state rows quote e only, and are held to half a
# unit of its last digit.  BB84 (C. H. Bennett and G. Brassard (1984)) and
# the original six-state protocol (D. Bruss, PRL 81, 3018 (1998)) quote the
# single-photon p the paper compares SARG04 with: BB84's root is held to half
# a unit of 0.165, and the original six-state root, 7.1e-4 from 0.190, is
# informational.
THRESHOLDS = {
    "four-state": (("four-state", 1, 0.0968, 0.0804, (2e-4, 5e-4)),
                   ("four-state", 2, 0.0271, 0.0208, (2e-4, 5e-4))),
    "six-state": (("six-state", 1, 0.112, None, (5e-4, None)),
                  ("six-state", 2, 0.0560, None, (5e-5, None)),
                  ("six-state", 3, 0.0237, None, (5e-5, None)),
                  ("six-state", 4, 0.00788, None, (5e-6, None))),
    "bb84": (("bb84", 1, None, 0.165, (None, 5e-4)),),
    "six-state-original": (("six-state-original", 1, None, 0.190, None),),
}

# Each tag's depolarizing channel law e_bit = a*p/(b + c*p), as (a, b, c):
# SARG04's conclusive error 4p/(3 + 4p) (simulate.exact_channel_stats), and
# the sifted error 2p/3 of BB84 and the original six-state protocol.
DEPOLARIZING_LAWS = {"four-state": (4, 3, 4), "six-state": (4, 3, 4),
                     "bb84": (2, 3, 0), "six-state-original": (2, 3, 0)}


# The entropies, the Bell slice and the piece functions run on float values
# and on exact ones alike, in the number type they are given: their square
# roots, logarithms and signs come from _math, the math module for a float
# and these for a Decimal (each rounded in the current context).
_DECIMAL_MATH = types.SimpleNamespace(
    sqrt=Decimal.sqrt, copysign=Decimal.copy_sign,
    log2=lambda x: x.ln() / _LN2)


def _math(x):
    return _DECIMAL_MATH if isinstance(x, Decimal) else math


def binary_entropy(e: float) -> float:
    """h(e) = -e log2 e - (1-e) log2 (1-e), with h(0) = h(1) = 0, in the
    number type of e."""
    if not 0.0 <= e <= 1.0:
        raise ValueError("binary_entropy argument must be in [0, 1]")
    return _shannon((e, 1 - e))


def _shannon(ps):
    """The Shannon entropy in bits of the weights ps (a tuple), in their
    number type."""
    log2 = _math(ps[0]).log2
    total = 0
    for p in ps:
        if p > 0.0:
            total -= p * log2(p)
    return total


def _bit(chi) -> float:
    """The bit-error weight chi1+ + chi1- of a Bell vector."""
    return chi[2] + chi[3]


def worst_bell_vector(protocol: str, nu: int,
                      e_bit: float) -> tuple[tuple[float, ...], float]:
    """The adversarial Bell vector chi of a conclusive pair at bit error e_bit
    and its entropy H(chi): the maximum of H over the slice of the row's
    Bell polytope at bit weight e_bit, in the number type of e_bit, on
    BELL_VERTICES for a float and EXACT_BELL_VERTICES for a Decimal.

    The slice of a hull is the hull of the vertices on it and of the points
    where its edges cross it.  A row has at most three vertices, with
    distinct bit weights, so the slice is one point or the segment between
    two, along which H is concave: an end wins when the slope of H there
    points out of the segment, and only a slope that turns inside it is
    bisected in floats t (bisect_floats), each point taken at type(e)(t):
    the better of the two adjacent t wins, below the maximum by a shortfall
    second order in t's ulp.  At e = 0 every row is a pure state, H = 0.
    """
    exact = isinstance(e_bit, Decimal)
    vertices = (EXACT_BELL_VERTICES if exact else BELL_VERTICES).get(
        (protocol, nu))
    if vertices is None:
        raise ValueError("no Bell vertex table for %s nu=%r" % (protocol, nu))
    e = e_bit if exact else float(e_bit)
    e_max = max(map(_bit, vertices))
    if not 0.0 <= e <= e_max:
        raise ValueError("e_bit must be in [0, %g] for feasible marginals"
                         % e_max)
    p, q, slope = _bell_slice(vertices, e)

    def point(t: float) -> tuple[float, ...]:
        t = type(e)(t)
        return tuple(a + t * (b - a) for a, b in zip(p, q))

    if slope(p) <= 0.0:
        chi = p
    elif slope(q) >= 0.0:
        chi = q
    else:
        ends = bisect_floats(lambda t: slope(point(t)) <= 0.0, 0.0, 1.0)
        chi = max(map(point, ends), key=_shannon)
    return chi, _shannon(chi)


def _bell_slice(vertices, e):
    """The ends p, q of the slice of the vertices' hull at bit weight e (one
    point: p == q) and the slope of H along it, from p to q, as a function of
    a point on it; float or exact, in the number type of e and the
    vertices.  The slice is the hull of the vertices on it and of the points
    where edges cross it."""
    points = [v for v in vertices if _bit(v) == e]
    for v, w in itertools.permutations(vertices, 2):
        if _bit(v) < e < _bit(w):
            t = (e - _bit(v)) / (_bit(w) - _bit(v))
            points.append(tuple(a + t * (b - a) for a, b in zip(v, w)))
    p, q = points[0], points[-1]
    d = [b - a for a, b in zip(p, q)]
    log2 = _math(e).log2

    def slope(chi):
        # dH/dt along p + t*d (sum(d) = 0); a zero weight that d moves is
        # an infinite slope, into the segment.
        return -sum(dx * (log2(x) if x > 0.0 else -type(x)("inf"))
                    for x, dx in zip(chi, d) if dx)

    return p, q, slope


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


def envelope(pieces, x):
    """y_star at one x >= 0 from pieces (6-tuples, as in PIECES): the maximum
    of 0 and every piece, a clipped 0 being +0.0.  Where beta*x > 0 a curve's
    -beta*x + sqrt(q) is (q - beta^2 x^2)/(beta*x + sqrt(q)), which does not
    cancel at large x.  Float or exact, in the number type of x."""
    sqrt, zero = _math(x).sqrt, 0 * x
    y = zero
    for alpha, beta, gamma, delta, epsilon, c2 in pieces:
        bx = beta * x
        root = sqrt(max((gamma * x - 2 * delta) * x + epsilon, zero))
        tail = (((c2 * x - 2 * delta) * x + epsilon) / (bx + root)
                if gamma > 0.0 and bx > 0.0 else root - bx)
        y = max(y, alpha + tail)
    return y


def kinks(pieces) -> list:
    """0, each curve's vertex delta/gamma and each x in [0, X_FINITE] where a
    line (the zero line too) crosses a piece or two curves that share
    (alpha, beta, gamma) cross, sorted and distinct: where the envelope can
    bend, since every two curves of PIECES share them.  Float or exact, in
    the number type of the pieces."""
    zero = type(pieces[0][0])()
    sqrt, copysign = _math(zero).sqrt, _math(zero).copysign
    rows = [*pieces, (zero,) * 6]
    xs = [zero] + [d / g for _, _, g, d, _, _ in rows if g > 0.0]
    curves = [row for row in pieces if row[2] > 0.0]
    for one, two in itertools.combinations(curves, 2):
        if one[:3] == two[:3] and one[3] != two[3]:  # -2*delta*x + epsilon
            xs.append((one[4] - two[4]) / (2 * (one[3] - two[3])))
    for a, b, *_ in [row for row in rows if row[2] == 0.0]:  # the lines
        for alpha, beta, gamma, delta, epsilon, _ in rows:
            m, s = a - alpha, b - beta
            if gamma == 0.0:  # a line: a - b*x = alpha - beta*x
                xs += [m / s] if s else []
                continue
            # sqrt(q) = m - s*x squared: (gamma - s^2)x^2 - 2(delta - m*s)x
            # + epsilon - m^2 = 0, its roots taken without cancellation.
            qa, qb, qc = gamma - s * s, delta - m * s, epsilon - m * m
            disc = qb * qb - qa * qc
            if disc < 0.0:
                continue
            r = qb + copysign(sqrt(disc), qb)
            xs += ([r / qa] if qa else []) + ([qc / r] if r else [])
    return sorted({x for x in xs if 0.0 <= x <= X_FINITE})


def stationary(pieces, e) -> list:
    """The x >= 0 where a curve piece of x*e + y has zero slope, read at
    X_FINITE past it: with t = e - beta and kappa = epsilon - delta^2/gamma,
    x = delta/gamma - t*sqrt(kappa/(gamma*(gamma - t^2))), which needs
    gamma - t^2 > 0, taken as gamma - beta^2 + e*(2*beta - e) so that it
    does not cancel.  Float or exact, in the number type of e."""
    sqrt = _math(e).sqrt
    xs = []
    for _, beta, gamma, delta, epsilon, c2 in pieces:
        room = c2 + e * (2 * beta - e)
        if gamma > 0.0 and room > 0.0:
            kappa = max(epsilon - delta * delta / gamma, 0 * e)
            scale = gamma * room  # 0 only where a float e*beta underflows
            step = sqrt(kappa / scale) if scale > 0.0 else type(e)("inf")
            xs.append(delta / gamma - (e - beta) * step)
    return [min(x, type(e)(X_FINITE)) for x in xs if x >= 0.0]


def piece_floor(pieces):
    """The zero-error floor inf_x y_star(x), clipped only at 0: the largest
    limit of a piece that keeps one as x -> inf, alpha on a flat line and
    alpha - delta/beta on a singular curve (gamma - beta^2 = 0).  Float or
    exact, in the number type of the pieces."""
    return max([type(pieces[0][0])()] + [a - d / b if g > 0.0 else a
                                         for a, b, g, d, _, c2 in pieces
                                         if c2 == 0.0])


with decimal.localcontext(_EXACT):
    # The zero-error floor of every PIECES row and every EXACT_FLOORS key:
    # its exact floor rounded up, so that no floor a table read returns lies
    # below what is proved.
    FLOORS = {key: _round_up(floor) for key, floor in (
        *((key, piece_floor(row)) for key, row in EXACT_PIECES.items()),
        *EXACT_FLOORS.items())}


def phase_minimum(pieces, e_bit) -> tuple:
    """(x, x*e_bit + y_star(x)) at the x minimizing x*e_bit + y_star(x) over
    closed-form pieces, for 0 < e_bit < inf.  The objective is convex and the
    maximum of smooth pieces, so its minimum is at a kink of the envelope or
    at a curve's stationary point: the first least value over that set.
    Floats, or Decimals for exact pieces (EXACT_PIECES) and a Decimal e_bit."""
    e = e_bit if isinstance(e_bit, Decimal) else float(e_bit)
    if not 0.0 < e < math.inf:
        raise ValueError("phase_minimum requires 0 < e_bit < inf, got %r" % e)
    return min(((x, x * e + envelope(pieces, x))
                for x in kinks(pieces) + stationary(pieces, e)),
               key=lambda candidate: candidate[1])


def phase_bound(protocol: str, nu: int, e_bit: float) -> float:
    """min_x [x*e_bit + y_star(x)] on the row of (protocol, nu), for 0 <=
    e_bit < inf, in the number type of e_bit: the phase_minimum of the PIECES
    row for a float and of the EXACT_PIECES row for a Decimal.  At e_bit = 0
    it is the infimum as x runs off to infinity, the row's floor: its FLOORS
    entry (rounded up) for a float, its exact piece_floor for a Decimal."""
    exact = isinstance(e_bit, Decimal)
    pieces = (EXACT_PIECES if exact else PIECES)[protocol, nu]
    if e_bit == 0.0:
        return piece_floor(pieces) if exact else FLOORS[protocol, nu]
    return phase_minimum(pieces, e_bit)[1]


def ephase_bound_two(e_bit: float) -> float:
    """Best certified two-photon phase-error bound min_x [x*e_bit + g(x)]:
    the four-state nu=2 row of PIECES, whose one curve is g; at e_bit = 0
    the floor sin^2(pi/8), rounded up."""
    if not 0.0 <= e_bit <= 0.5:
        raise ValueError("e_bit must be in [0, 0.5]")
    return phase_bound("four-state", 2, e_bit)


def _secrecy(protocol: str, nu: int, e_bit: float) -> tuple:
    """(secrecy_term, h(e_bit)) on a BELL_VERTICES key, whose rule reads
    h(e_bit), and (secrecy_term, None) on any other."""
    with decimal.localcontext(_EXACT):
        if (protocol, nu) in BELL_VERTICES:
            entropy = worst_bell_vector(protocol, nu, e_bit)[1]
            h = binary_entropy(e_bit)
            return 1 - (entropy - h), h
        e_ph = phase_bound(protocol, nu, e_bit)
        return 1 - binary_entropy(min(e_ph, type(e_ph)("0.5"))), None


def secrecy_term(protocol: str, nu: int, e_bit: float) -> float:
    """The rate of the rated key (protocol, nu) before error correction at
    bit error e_bit, in the number type of e_bit (a Decimal reads the exact
    tables, in the context _EXACT whatever the caller's): 1 - (H(chi) -
    h(e_bit)), chi the worst_bell_vector, for a BELL_VERTICES key, else
    1 - h(min(e_ph, 1/2)), e_ph the row's phase_bound."""
    return _secrecy(protocol, nu, e_bit)[0]


def rate(protocol: str, nu: int, e_bit: float) -> float:
    """The key rate of the rated key (protocol, nu) at bit error e_bit,
    secrecy_term - h(e_bit), in the number type of e_bit (a Decimal in the
    context _EXACT whatever the caller's): 1 - H(worst_bell_vector) for a
    BELL_VERTICES key, else 1 - h(e_ph) - h(e_bit), bit and phase errors
    treated as independent.  h(e_bit) is computed once on either key."""
    with decimal.localcontext(_EXACT):
        term, h = _secrecy(protocol, nu, e_bit)
        return term - (binary_entropy(e_bit) if h is None else h)


def depol_p(e: float, protocol: str) -> float:
    """Depolarizing rate p = b*e/(a - c*e) of a bit-error rate e: the inverse
    of the protocol's channel law e = a*p/(b + c*p) (DEPOLARIZING_LAWS), so
    3e/(4(1-e)) for SARG04 and 3e/2 for BB84 and the original six-state
    protocol."""
    if not 0.0 <= e <= 0.5:
        raise ValueError("e_bit must be in [0, 0.5] for the depolarizing inverse")
    a, b, c = DEPOLARIZING_LAWS[protocol]
    return b * e / (a - c * e)


@dataclass(frozen=True)
class DecoyInputs:
    """Observed fractions feeding the decoy-method total rate.

    p_conc and e_bit describe all conclusive events per sifted pulse; xi_nu is
    the fraction of sifted pulses that are both nu-photon emissions and
    conclusive, with e_nu the corresponding bit-error bound.  Each value is
    a number in [0, 1]; the rate rules' own domains (a Bell key's e_nu ends
    at its polytope's largest bit weight) are checked by decoy_rate_terms,
    which knows the protocol.
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
            if not 0.0 <= v <= 1.0:
                raise ValueError("%s must be in [0, 1], got %r" % (name, v))
        if self.xi1 + self.xi2 > self.p_conc + 1e-12:
            raise ValueError("xi1 + xi2 cannot exceed the conclusive fraction")


def decoy_rate_terms(d: DecoyInputs, protocol: str
                     ) -> tuple[float, float, float]:
    """The three addends of the decoy-method total rate of a run of
    ``protocol``: -p_conc*h(e_bit), xi1*secrecy_term(protocol, 1, e1) and
    xi2*secrecy_term(protocol, 2, e2); nu >= 3 gets no term.  An e_nu past
    a Bell key's largest bit weight raises ValueError naming e_nu, that
    bound and the protocol."""
    # 0.0 - p*h, not -p*h: a zero cost is +0.0, never -0.0.
    terms = [0.0 - d.p_conc * binary_entropy(d.e_bit)]
    for nu, xi, e in ((1, d.xi1, d.e1), (2, d.xi2, d.e2)):
        try:
            terms.append(xi * secrecy_term(protocol, nu, e))
        except ValueError:
            e_max = max(map(_bit, BELL_VERTICES[protocol, nu]))
            raise ValueError("e%d must be in [0, %g] for the %s nu=%d rate, "
                             "got %r" % (nu, e_max, protocol, nu, e)) from None
    return tuple(terms)


# ---------------------------------------------------------------------------
# The certified phase-error bound
# ---------------------------------------------------------------------------

def ephase_bound_frontier(e_bit: float, protocol: str, nu: int) -> float:
    """Certified min_x [x*e_bit + y_star(x)], which the verify row ``closed
    form = tangent bound`` holds phase_bound to: at e_bit = 0 the row's FLOORS
    entry, its exact floor rounded up (``floor = exact table floor`` proves it
    against the forms' floor), else x*e_bit + y_star(x), y_star(x) certified
    by bounds.frontier at the x of the PIECES row's phase_minimum, or at
    FRONTIER_X_MAX past it (e_bit < 1e-13, a bound within 6.25e-8)."""
    if not 0.0 <= e_bit <= 0.5:
        raise ValueError("e_bit must be in [0, 0.5]")
    if e_bit == 0.0:
        return FLOORS[protocol, nu]
    from . import bounds

    x = min(phase_minimum(PIECES[protocol, nu], e_bit)[0], FRONTIER_X_MAX)
    return x * e_bit + bounds.frontier(x, protocol, nu)


# ---------------------------------------------------------------------------
# Proved roots: the exact rate
# ---------------------------------------------------------------------------

# The error of an exact rate is below 1e-36: it takes a few hundred
# operations at 40 digits, each rounded to half a unit in its 40th digit, on
# values, logarithms and slopes below 1e3 in magnitude.  A sign is proved
# only where the rate clears this bound.  (An interior Bell maximum, read at
# a float t, adds a shortfall of order ulp(t)^2, below 1e-32: only BB84's
# slice has one.)
RATE_ERROR = Decimal("1e-30")
# The most ulps a threshold steps from the float root of its float rate.
ROOT_STEPS = 64


def exact_rate(protocol: str, nu: int, e_bit: float) -> Decimal:
    """``rate`` of (protocol, nu) at the float e_bit, 0 < e_bit <= E_BIT_MAX,
    on the exact tables and within RATE_ERROR: e_bit made Decimal, in
    40-digit Decimal arithmetic."""
    return rate(protocol, nu, Decimal(e_bit))


def _proved_root(e: float, exact) -> float:
    """The float r with exact(r) > 0 > exact(nextafter(r, 1)), stepped one
    ulp at a time from e, the float root of the float rate (0 stays 0: no
    key), up while exact is positive and down while it is not.  Raises
    ArithmeticError where an exact rate is within RATE_ERROR of 0, so that
    its sign is not proved, or after ROOT_STEPS steps."""
    def positive(x: float) -> bool:
        rate = exact(x)
        if abs(rate) <= RATE_ERROR:
            raise ArithmeticError("exact rate %.3e at e=%r is within its "
                                  "error bound %s of 0"
                                  % (rate, x, RATE_ERROR))
        return rate > 0

    if e == 0.0:
        return e
    up = positive(e)
    for _ in range(ROOT_STEPS):
        step = math.nextafter(e, 1.0 if up else 0.0)
        if positive(step) != up:
            return e if up else step
        e = step
    raise ArithmeticError("exact rate has no sign change within %d ulps of "
                          "the float root" % ROOT_STEPS)


def threshold(protocol: str, nu: int) -> float:
    """The threshold of the THRESHOLDS row that names (protocol, nu): the
    last float whose exact rate (``exact_rate``) is positive.  The float root
    of the float ``rate`` is stepped by ulps to it (``_proved_root``).  No
    eigen-solve, and no numpy."""
    if (protocol, nu) not in {row[:2] for row in THRESHOLDS.get(protocol, ())}:
        raise ValueError("no threshold row for %s nu=%r" % (protocol, nu))
    return _proved_root(_threshold(lambda e: rate(protocol, nu, e)),
                        lambda e: exact_rate(protocol, nu, e))


def threshold_single() -> float:
    """Bit-error threshold of the single-photon rate R1."""
    return threshold("four-state", 1)


def threshold_two() -> float:
    """Bit-error threshold of the two-photon rate R2."""
    return threshold("four-state", 2)


def sixstate_thresholds(nu: int) -> float:
    """Six-state threshold for one photon number (1..4)."""
    return threshold("six-state", nu)
