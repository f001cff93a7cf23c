"""Brute-force reference implementations that the tests compare against.

Each oracle reaches its answer by a route independent of the library's exact
formula: event forms and weights on the full 2^nu-dimensional input of the
attack through tensor powers U^{(x)nu}, a frontier by bisection on the PSD
margin or by one eigen-solve per point, the zero-error floor by compressing
the reduced phase form onto the kernel of the reduced bit form with plain
numpy solves and by the limits of the pencil blocks' pieces, the
phase-error bound by golden section on that frontier, the `frontier` report
row by row through ``csv.DictWriter``, the two-photon optimum by scan plus golden
section, the worst Bell-vector entropy by a dense scan of a barycentric slice
and golden section, the exact tables as Q(sqrt 2) pairs of fractions
compared with floats by exact integer arithmetic, Monte Carlo tallies
from float uniforms over a whole run with no shards and one trial at a time
(`replay_trial`),
the channel law by enumerating every branch, arrival pattern and outcome.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np

from sargkit import attack_forms, bounds, keyrate, qmath, simulate

# The largest photon number at which a test builds the 2^nu-dimensional
# oracles: at attack_forms.MAX_NU = 12, full_forms alone would be an
# 8192 x 8192 complex matrix per event (1 GiB).
FULL_NU = 5


def tensor_power(a: np.ndarray, n: int) -> np.ndarray:
    """n-fold Kronecker power; n = 0 gives the scalar identity."""
    if n < 0:
        raise ValueError("tensor power needs n >= 0")
    out = np.array([[1.0 + 0j]]) if np.asarray(a).ndim == 2 else np.array([1.0 + 0j])
    for _ in range(n):
        out = np.kron(out, a)
    return out


def pair_source_ket(nu: int) -> np.ndarray:
    """The entangled pair source for nu-photon pulses.

    (|0_z>_A |phi_0>^{x nu} + |1_z>_A |phi_1>^{x nu}) / sqrt(2), a unit vector
    of dimension 2^{nu+1} with Alice's qubit leading.
    """
    if nu < 1:
        raise ValueError("photon number must be >= 1")
    v = np.kron(qmath.ket_z(0), tensor_power(qmath.signal_ket(0), nu)) + np.kron(
        qmath.ket_z(1), tensor_power(qmath.signal_ket(1), nu)
    )
    return v / math.sqrt(2)


def dicke_isometry(nu: int) -> np.ndarray:
    """The 2^nu x (nu+1) isometry P whose k-th column is the normalized sum of
    the computational basis states of Hamming weight k."""
    p = np.zeros((2 ** nu, nu + 1))
    for i in range(2 ** nu):
        p[i, bin(i).count("1")] = 1.0
    return p / np.sqrt(p.sum(axis=0))


def full_pair_vectors(m: np.ndarray, protocol: str) -> list[np.ndarray]:
    """The pair vector of each sift term for a full 2 x 2^nu attack map m:
    (1_A (x) F U_g^dag m U_g^{(x)nu}) applied to the nu-photon pair source."""
    m = np.asarray(m, dtype=complex)
    nu = m.shape[1].bit_length() - 1
    psi = pair_source_ket(nu).reshape(2, 2 ** nu)
    out = []
    for u in qmath.constants(protocol):
        a = qmath.filter_op() @ qmath.dagger(u) @ (m @ tensor_power(u, nu))
        out.append((psi @ a.T).reshape(4))
    return out


def full_pair_state(m: np.ndarray, protocol: str) -> np.ndarray:
    """Unnormalized conditional pair state of a full 2 x 2^nu attack map."""
    vecs = full_pair_vectors(m, protocol)
    return sum(np.outer(w, w.conj()) for w in vecs) / len(vecs)


def pair_weights(rho: np.ndarray) -> np.ndarray:
    """All seven event weights of a 4x4 pair state, in
    ``attack_forms.EVENT_TAGS`` order, from its traces against the Bell
    projectors."""
    b = {tag: float(np.trace(p @ rho).real)
         for tag, p in qmath.bell_projectors().items()}
    return np.array([
        float(np.trace(rho).real),
        b["chi1+"] + b["chi1-"],
        b["chi0-"] + b["chi1-"],
        b["chi0+"],
        b["chi0-"],
        b["chi1+"],
        b["chi1-"],
    ])


def weight_vector(m: np.ndarray, protocol: str) -> np.ndarray:
    """All seven event weights of a full 2 x 2^nu attack map."""
    return pair_weights(full_pair_state(m, protocol))


def full_forms(protocol: str, nu: int) -> dict[str, np.ndarray]:
    """Every event form on the full attack coordinates vec(m), side 2^{nu+1}:
    H = (1/|G|) sum_g A_g^dag P_event A_g with A_g built from U_g^{(x)nu}."""
    dim = 2 ** (nu + 1)
    psi = pair_source_ket(nu).reshape(2, 2 ** nu)
    rotations = qmath.constants(protocol)
    a = np.stack([
        np.einsum("bo,ai->aboi", qmath.filter_op() @ qmath.dagger(u),
                  psi @ tensor_power(u, nu).T).reshape(4, dim)
        for u in rotations])
    bells = qmath.bell_projectors()
    event_ops = {
        "fil": np.eye(4),
        "bit": bells["chi1+"] + bells["chi1-"],
        "ph": bells["chi0-"] + bells["chi1-"],
        **{"bell:" + tag: bells[tag] for tag in qmath.BELL_TAGS},
    }
    a_dag = a.conj().reshape(-1, dim).T
    return {tag: a_dag @ (op @ a).reshape(-1, dim) / len(rotations)
            for tag, op in event_ops.items()}


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


def frontier_per_point(x: float, protocol: str, nu: int) -> float:
    """y_star(x) from its own reduced eigen-solve, certified by its own margin.

    The point-by-point loop that the batched frontier replaced: one solve on
    the reduced pencil, clipped to [0, 1], then one psd_margin.
    """
    a, b = bounds._reduced_pencil(protocol, nu)
    y_star = min(1.0, max(0.0, -qmath.min_eigenvalue(x * b - a)))
    margin = bounds.psd_margin(x, y_star, protocol, nu)
    if margin < -bounds.PSD_TOL:
        raise ArithmeticError("frontier point x=%g y=%.17g has margin %.3e"
                              % (x, y_star, margin))
    return y_star


def frontier_eigvalsh(grid, protocol: str, nu: int) -> np.ndarray:
    """y_star at each x of a grid by one plain np.linalg.eigvalsh of the
    reduced pencil per point, clipped at 0: no blocks, no checked solve."""
    a, b = bounds._reduced_pencil(protocol, nu)
    xs = np.asarray(grid, dtype=float)
    top = np.linalg.eigvalsh(a - xs[:, None, None] * b)[:, -1]
    return np.maximum(top, 0.0)


def zero_rate_floor_compressed(protocol: str, nu: int) -> float:
    """inf_x y_star(x) as lambda_max of the reduced H_ph compressed onto the
    kernel of the reduced H_bit (its eigenvalues at or below RANK_TOL of the
    largest), clipped at 0; 0 when that kernel is empty."""
    a, b = bounds._reduced_pencil(protocol, nu)
    w, v = np.linalg.eigh(b)
    k = v[:, w <= bounds.RANK_TOL * w[-1]]
    if not k.shape[1]:
        return 0.0
    return max(float(np.linalg.eigvalsh(k.conj().T @ a @ k)[-1]), 0.0)


def block_floor(protocol: str, nu: int) -> float:
    """inf_x y_star(x) read off the pencil blocks: keyrate.piece_floor of the
    float pieces of bounds.pencil_blocks, the largest limit of a piece
    singular in B (the rule before the floor became one compression)."""
    return keyrate.piece_floor(bounds.pencil_blocks(protocol, nu).pieces.tolist())


def couple_two_photon_blocks(size: float) -> tuple:
    """The four-state nu=2 reduced pencil (A, B) with A coupled by ``size``
    between two of its blocks: between A's top eigenvector, in a 2x2 block
    (A_k's eigenvalues 1/2 +- 1/sqrt(6)), and an eigenvector of eigenvalue
    1/2, in the span of the two 1x1 blocks."""
    a, b = bounds._reduced_pencil("four-state", 2)
    w, v = np.linalg.eigh(a)
    u, t = v[:, -1], v[:, np.argmin(np.abs(w - 0.5))]
    return a + size * (np.outer(u, t.conj()) + np.outer(t, u.conj())), b


def envelope_numpy(pieces: np.ndarray, x: np.ndarray) -> np.ndarray:
    """y_star at each x of a 1-D array from closed-form pieces, vectorized:
    the numpy form of keyrate.envelope, column by column the same IEEE
    operations, so the two agree bit for bit."""
    alpha, beta, gamma, delta, epsilon, c2 = np.asarray(pieces).T
    x = x[:, None]
    bx = beta * x
    root = np.sqrt(np.maximum((gamma * x - 2.0 * delta) * x + epsilon, 0.0))
    stable = (gamma > 0.0) & (bx > 0.0)
    tail = np.where(stable, ((c2 * x - 2.0 * delta) * x + epsilon)
                    / np.where(stable, bx + root, 1.0), root - bx)
    y = (alpha + tail).max(axis=1, initial=0.0)
    return np.where(y > 0.0, y, 0.0)


def ephase_bound_golden(e_bit: float, protocol: str, nu: int,
                        x_hi: float = 100.0) -> float:
    """min of x*e_bit + y_star(x) on [0, x_hi] by golden section on the
    convex objective, y_star from ``frontier_eigvalsh``."""
    return golden_min(lambda x: x * e_bit + float(
        frontier_eigvalsh([x], protocol, nu)[0]), 0.0, x_hi)[1]


def frontier_payload(fieldnames: list[str], protocol: str, nu: int,
                     grid) -> list[str]:
    """The payload lines of a `frontier` CSV report, computed point by point
    and written by ``csv.DictWriter`` from one dict per row."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\r\n")
    writer.writeheader()
    for x in grid:
        y = frontier_per_point(x, protocol, nu)
        gx = bounds.g_of_x(x)
        writer.writerow({"x": x, "y_star": y, "y_star_display": round(y, 6),
                         "g_x": gx, "gap": gx - y,
                         "margin_at_g": bounds.psd_margin(x, gx, protocol, nu)})
    return buf.getvalue().splitlines()


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


def ephase_bound_two_stationary(e_bit: float) -> float:
    """min_x [x*e_bit + g(x)] at g's hand-derived stationary point.

    The objective is convex, and with c = 2 - 6*e_bit its minimum, at the
    stationary point x* = (3*sqrt(2) + c*sqrt(6/(4 - c^2)))/4, equals
    (3 - (3*sqrt(2)/4)*c + (sqrt(6)/4)*sqrt(4 - c^2))/6, evaluated with
    4 - c^2 = 6*e_bit*(4 - 6*e_bit), which has no cancellation.  At e_bit = 0
    it is the infimum sin^2(pi/8), approached as x* runs off to infinity.
    """
    if e_bit == 0.0:
        return math.sin(math.pi / 8) ** 2
    c = 2.0 - 6.0 * e_bit
    s = math.sqrt(6.0 * e_bit * (4.0 - 6.0 * e_bit))
    return (3.0 - 0.75 * math.sqrt(2.0) * c + 0.25 * math.sqrt(6.0) * s) / 6.0


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


def worst_joint_single(e_bit: float) -> tuple[tuple[float, ...], float]:
    """The four-state single-photon worst case derived by hand from the
    paper's constraints: (q, H(q)) in qmath.BELL_TAGS order.

    The marginals e_bit and 1.5*e_bit plus the correlation inequalities
    q01 >= 2*q10 and 2*q11 >= q01 collapse the feasible set to the segment
    q11 = s in [e/2, e]; the entropy maximizer is s* = clip(1.5*e^2, e/2, e),
    1.5*e^2 being where the 2x2 table becomes a product distribution.
    """
    e = float(e_bit)
    s = min(max(1.5 * e * e, 0.5 * e), e)
    q = (1.0 - 2.5 * e + s, 1.5 * e - s, e - s, s)
    return q, keyrate._shannon(q)


def hull_weights(vertices, chi) -> tuple[np.ndarray, float]:
    """(lambda, residual): the least-squares barycentric weights of chi over
    the vertices (sum(lambda) = 1 is one more equation) and the max-abs gap
    of sum_k lambda_k v_k from chi.  chi is in the hull when the residual
    vanishes and every lambda_k >= 0 (the vertices are affinely independent
    in every keyrate.BELL_VERTICES row, so lambda is unique)."""
    v = np.array(vertices, dtype=float)
    a = np.vstack([v.T, np.ones(len(v))])
    lam = np.linalg.lstsq(a, np.append(chi, 1.0), rcond=None)[0]
    return lam, float(np.abs(lam @ v - np.asarray(chi)).max())


def scan_bell_slice(vertices, e_bit: float,
                    points: int = 10001) -> tuple[tuple[float, ...], float]:
    """(chi, H(chi)) maximizing the Shannon entropy over the slice of the
    hull of the vertices at bit weight chi1+ + chi1- = e_bit.

    The slice is parametrized by barycentric weights lambda >= 0 with
    sum(lambda) = 1 and lambda . bits = e_bit: a particular solution plus
    tau times the null direction of those two equations (none for two
    vertices), over the tau interval where every weight stays >= 0.  That
    interval is scanned at ``points`` points and refined by golden section
    around the best one.
    """
    v = np.array(vertices, dtype=float)
    bits = v[:, 2] + v[:, 3]
    a = np.vstack([np.ones(len(v)), bits])
    lam0 = np.linalg.lstsq(a, np.array([1.0, e_bit]), rcond=None)[0]
    null = np.linalg.svd(a)[2][2:]
    if not len(null):
        chi = tuple((lam0 @ v).tolist())
        return chi, keyrate._shannon(chi)
    n = null[0]
    lo = max(-lam0[k] / n[k] for k in range(len(v)) if n[k] > 1e-12)
    hi = min(-lam0[k] / n[k] for k in range(len(v)) if n[k] < -1e-12)

    base, step = (lam0 @ v).tolist(), (n @ v).tolist()

    def chi_at(tau: float) -> tuple[float, ...]:
        return tuple(max(0.0, c + tau * d) for c, d in zip(base, step))

    def neg_h(tau: float) -> float:
        return -keyrate._shannon(chi_at(tau))

    taus = [lo + (hi - lo) * k / (points - 1) for k in range(points)]
    k_best = min(range(points), key=lambda k: neg_h(taus[k]))
    tau = golden_min(neg_h, taus[max(0, k_best - 1)],
                     taus[min(points - 1, k_best + 1)], tol=1e-13)[0]
    tau = min((tau, taus[k_best]), key=neg_h)
    return chi_at(tau), -neg_h(tau)


def span_coefficients(protocol: str, nu: int, tag: str) -> tuple:
    """(a, b, residual): the real least-squares fit H_tag ~ a*H_fil + b*H_bit
    on the compiled forms, with residual the max-abs gap of the fit.

    A residual near zero means the event's weight per conclusive pair is
    a + b*e_bit for every attack.
    """
    f = attack_forms.all_forms(protocol, nu)
    h_fil, h_bit, h = (f[k].matrix for k in ("fil", "bit", tag))
    basis = np.stack([h_fil.ravel(), h_bit.ravel()], axis=1)
    # Real and imaginary parts as separate equations keep a and b real.
    a, b = np.linalg.lstsq(np.concatenate([basis.real, basis.imag]),
                           np.concatenate([h.real.ravel(), h.imag.ravel()]),
                           rcond=None)[0]
    return float(a), float(b), float(np.abs(h - a * h_fil - b * h_bit).max())


def linear_indep_threshold(alpha: float, beta: float,
                           tol: float = 1e-7) -> float:
    """Root in e of 1 - h(e) - h(alpha + beta*e) on [0.01, 0.3], bisected to
    width tol: the independent-errors threshold of a phase-error bound that is
    exactly linear in the bit error."""
    h = keyrate.binary_entropy
    lo, hi = 0.01, 0.3
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if 1.0 - h(mid) - h(alpha + beta * mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sixstate_chi(nu: int, e: float) -> tuple[float, ...]:
    """The six-state Bell vector of a conclusive pair at bit error e, in
    qmath.BELL_TAGS order, in closed form at the photon numbers where it is
    linear in e:

    * nu=1: (1 - 7e/4, 3e/4, e/4, 3e/4);
    * nu=2: (cos^2(pi/8) - ((4 + 5 sqrt2)/8) e, sin^2(pi/8) + ((5 sqrt2 - 4)/8) e,
      ((4 - sqrt2)/8) e, ((4 + sqrt2)/8) e).
    """
    r2 = math.sqrt(2.0)
    if nu == 1:
        return (1.0 - 1.75 * e, 0.75 * e, 0.25 * e, 0.75 * e)
    if nu == 2:
        return (math.cos(math.pi / 8) ** 2 - (4.0 + 5.0 * r2) / 8.0 * e,
                math.sin(math.pi / 8) ** 2 + (5.0 * r2 - 4.0) / 8.0 * e,
                (4.0 - r2) / 8.0 * e, (4.0 + r2) / 8.0 * e)
    raise ValueError("no closed-form Bell vector at nu=%r" % (nu,))


def bell_diagonal_threshold(chi, tol: float = 1e-7) -> float:
    """Root in e of 1 - H(chi(e)) on [0.01, 0.3], bisected to width tol, with
    H the Shannon entropy in bits: the Bell-diagonal one-way threshold of a
    Bell vector chi(e) (H.-K. Lo, QIC 1, 81 (2001))."""
    def rate(e: float) -> float:
        return 1.0 + sum(q * math.log2(q) for q in chi(e) if q > 0.0)

    lo, hi = 0.01, 0.3
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if rate(mid) > 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


def fourstate_indep_threshold() -> float:
    """Four-state nu=1 threshold under the independent-errors entropy model.

    Root of 1 - h(e) - h(1.5e); the like-for-like baseline for the six-state
    dominance comparison (the frontier pipeline never uses the
    correlation-aware joint entropy).
    """
    return linear_indep_threshold(0.0, 1.5)


# ---------------------------------------------------------------------------
# The exact tables in Q(sqrt 2): each value p + q*sqrt(2) is the pair of
# Fractions (p, q), compared with a float by exact arithmetic.
# ---------------------------------------------------------------------------

def q2(p, q=0) -> tuple[Fraction, Fraction]:
    """p + q*sqrt(2), p and q rationals (ints or "n/d" strings)."""
    return Fraction(p), Fraction(q)


def q2_add(x, y) -> tuple[Fraction, Fraction]:
    return x[0] + y[0], x[1] + y[1]


def q2_mul(x, y) -> tuple[Fraction, Fraction]:
    return x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def q2_sign(x) -> int:
    """The sign of p + q*sqrt(2), exactly: where p and q differ in sign, the
    larger of p^2 and 2q^2 decides (they are never equal unless both are 0,
    sqrt(2) being irrational)."""
    p, q = x
    sp, sq = (p > 0) - (p < 0), (q > 0) - (q < 0)
    if sp * sq >= 0:
        return sp or sq
    return sp if p * p > 2 * q * q else sq


def q2_minus_float(x, f: float) -> tuple[Fraction, Fraction]:
    """x - f, f a float taken exactly."""
    return x[0] - Fraction(f), x[1]


def q2_decimal(x, digits: int = 60) -> Decimal:
    """x to ``digits`` significant digits."""
    with localcontext() as ctx:
        ctx.prec = digits + 5
        p, q = (Decimal(r.numerator) / Decimal(r.denominator) for r in x)
        value = p + q * Decimal(2).sqrt()
    return value


def q2_rounds_to(x, f: float) -> bool:
    """True iff the float f is x correctly rounded: x lies between the
    midpoints of f and its two neighbours (no value here is a midpoint)."""
    below, above = (Fraction(math.nextafter(f, d))
                    for d in (-math.inf, math.inf))
    return (q2_sign(q2_minus_float(x, (Fraction(f) + below) / 2)) >= 0
            and q2_sign(q2_minus_float(x, (Fraction(f) + above) / 2)) <= 0)


def _q2_line(alpha, beta) -> tuple:
    return (alpha, beta, q2(0), q2(0), q2(0),
            q2_mul(q2(-1), q2_mul(beta, beta)))


def _q2_curve(alpha, beta, gamma, delta, epsilon) -> tuple:
    return (alpha, beta, gamma, delta, epsilon, q2(0))


# The table of every frontier piece at nu <= 4 and over the no-key window
# nu = K - 1 .. K - 2 + P (keyrate.PIECES), written again as pairs: a line
# (alpha, beta) is alpha - beta*x, a curve adds sqrt(gamma*x^2 - 2*delta*x
# + epsilon); the sixth entry is gamma - beta^2.
Q2_PIECES = {
    ("four-state", 1): (_q2_line(q2(0), q2(0)), _q2_line(q2(1), q2("2/3")),
                        _q2_line(q2("3/4"), q2("1/2"))),
    ("four-state", 2): (_q2_line(q2("1/2"), q2("1/2")),
                        _q2_curve(q2("1/2"), q2("1/3"), q2("1/9"),
                                  q2(0, "1/12"), q2("1/6"))),
    ("four-state", 3): (_q2_line(q2(0), q2(0)), _q2_line(q2(0), q2("2/3")),
                        _q2_line(q2(1), q2(0)), _q2_line(q2(1), q2("2/3")),
                        _q2_curve(q2("1/2"), q2("1/3"), q2("1/9"), q2(0),
                                  q2("1/12"))),
    ("four-state", 4): (_q2_curve(q2("1/2"), q2("1/3"), q2("1/9"),
                                  q2(0, "1/12"), q2("1/6")),
                        _q2_curve(q2("1/2"), q2("1/3"), q2("1/9"),
                                  q2(0, "-1/12"), q2("1/6"))),
    ("six-state", 1): (_q2_line(q2(0), q2(0)), _q2_line(q2("6/7"), q2("4/7"))),
    ("six-state", 2): (_q2_line(q2("1/2", "-1/4"), q2(0)),
                       _q2_line(q2("1/2", "1/5"), q2("3/5"))),
    ("six-state", 3): (_q2_line(q2("1/4"), q2(0)),
                       _q2_line(q2("19/28"), q2("4/7")),
                       _q2_line(q2("3/4"), q2("2/3"))),
    ("six-state", 4): (_q2_line(q2("1/2"), q2("1/2")),
                       _q2_curve(q2("1/2"), q2("1/3"), q2("1/9"),
                                 q2(0, "1/24"), q2("1/24"))),
    ("six-state", 5): (_q2_line(q2("1/4"), q2(0)), _q2_line(q2(1), q2(0)),
                       _q2_line(q2("3/4"), q2("2/3")),
                       _q2_curve(q2("3/8"), q2("1/3"), q2("1/9"),
                                 q2("-1/24"), q2("11/192"))),
    ("six-state", 6): (_q2_line(q2("1/2", "1/4"), q2(0)),
                       _q2_line(q2("1/2", "1/4"), q2("2/3")),
                       _q2_curve(q2("1/2", "-1/8"), q2("1/3"), q2("1/9"),
                                 q2(0), q2("1/32"))),
    ("six-state", 7): (_q2_line(q2("3/4"), q2(0)),
                       _q2_line(q2("1/4"), q2("2/3")),
                       _q2_line(q2(1), q2("2/3")),
                       _q2_curve(q2("3/8"), q2("1/3"), q2("1/9"),
                                 q2("1/24"), q2("11/192"))),
    ("six-state", 8): (_q2_curve(q2("1/2"), q2("1/3"), q2("1/9"),
                                 q2(0, "1/12"), q2("1/6")),
                       _q2_curve(q2("1/2"), q2("1/3"), q2("1/9"),
                                 q2(0, "-1/24"), q2("1/24"))),
    ("six-state", 9): (_q2_line(q2(0), q2(0)), _q2_line(q2("3/4"), q2(0)),
                       _q2_line(q2("1/4"), q2("2/3")),
                       _q2_curve(q2("5/8"), q2("1/3"), q2("1/9"),
                                 q2("1/24"), q2("11/192"))),
    ("six-state", 10): (_q2_line(q2("1/2", "-1/4"), q2(0)),
                        _q2_line(q2("1/2", "-1/4"), q2("2/3")),
                        _q2_curve(q2("1/2", "1/8"), q2("1/3"), q2("1/9"),
                                  q2(0), q2("1/32"))),
    ("six-state", 11): (_q2_line(q2("1/4"), q2(0)),
                        _q2_line(q2(0), q2("2/3")),
                        _q2_line(q2("3/4"), q2("2/3")),
                        _q2_curve(q2("5/8"), q2("1/3"), q2("1/9"),
                                  q2("-1/24"), q2("11/192"))),
    ("six-state", 12): (_q2_curve(q2("1/2"), q2("1/3"), q2("1/9"),
                                  q2(0, "1/24"), q2("1/24")),
                        _q2_curve(q2("1/2"), q2("1/3"), q2("1/9"),
                                  q2(0, "-1/12"), q2("1/6"))),
}

# The Bell polytope vertices (keyrate.BELL_VERTICES), written again as pairs.
Q2_BELL_VERTICES = {
    ("four-state", 1): ((q2(1), q2(0), q2(0), q2(0)),
                        (q2(0), q2("1/3"), q2(0), q2("2/3")),
                        (q2(0), q2("1/2"), q2("1/4"), q2("1/4"))),
    ("six-state", 1): ((q2(1), q2(0), q2(0), q2(0)),
                       (q2(0), q2("3/7"), q2("1/7"), q2("3/7"))),
    ("six-state", 2): ((q2("1/2", "1/4"), q2("1/2", "-1/4"), q2(0), q2(0)),
                       (q2("1/5", "-1/8"), q2("1/5", "1/8"),
                        q2("3/10", "-3/40"), q2("3/10", "3/40"))),
    ("bb84", 1): ((q2(1), q2(0), q2(0), q2(0)),
                  (q2(0), q2("1/2"), q2("1/2"), q2(0)),
                  (q2(0), q2(0), q2(0), q2(1))),
    ("six-state-original", 1): ((q2(1), q2(0), q2(0), q2(0)),
                                (q2(0), q2("1/3"), q2("1/3"), q2("1/3"))),
}


def no_key_window(protocol: str) -> range:
    """The photon numbers nu = K - 1 .. K - 2 + P, one phase period from
    K - 1 on, that constants-check reads."""
    table = qmath.signal_kets(protocol)
    first = len(table.kets) - 1
    return range(first, first + table.period)


def q2_floor(protocol: str, nu: int) -> tuple[Fraction, Fraction]:
    """The exact zero-error floor of a Q2_PIECES row: the largest of 0, alpha
    on a flat line and alpha - delta/beta on a singular curve (beta is
    rational on every curve)."""
    limits = [q2(0)]
    for alpha, beta, gamma, delta, _, c2 in Q2_PIECES[protocol, nu]:
        if c2 == q2(0):
            b = beta[0]
            limits.append(q2_add(alpha, (-delta[0] / b, -delta[1] / b))
                          if gamma != q2(0) else alpha)
    best = limits[0]
    for x in limits[1:]:
        if q2_sign(q2_add(x, q2_mul(q2(-1), best))) > 0:
            best = x
    return best


# Every thresholds row's (e_threshold, p_threshold): the last float whose
# exact rate is positive, and its depol_p.
FLOAT_ROOTS = {
    ("four-state", 1): (0.09689248938745228, 0.08046590930386573),
    ("four-state", 2): (0.02710093150755928, 0.020891888263563887),
    ("six-state", 1): (0.11235715979439764, 0.09493443311758082),
    ("six-state", 2): (0.05602758055501033, 0.04451473851425011),
    ("six-state", 3): (0.023701119015364182, 0.018207374409356596),
    ("six-state", 4): (0.007883064083571478, 0.005959275412648166),
    ("bb84", 1): (0.11002786443835955, 0.16504179665753932),
    ("six-state-original", 1): (0.12619308327682116, 0.18928962491523174),
}

# The root of each row's exact rate to 50 digits, computed apart from the
# library at 70 digits: the Bell-vertex rate maximized over its slice by
# golden section (BB84's maximum is 2h(e) in closed form, at ((1 - e)^2,
# e(1 - e), e(1 - e), e^2), and the original six-state slice is the one
# point (1 - 3e/2, e/2, e/2, e/2)), the phase-error bound minimized over x
# by golden section, and the root bisected.
EXACT_ROOTS = {
    ("four-state", 1): "0.096892489387452286185102628578833102926823070805134",
    ("four-state", 2): "0.027100931507559282205476508161067654639374306634675",
    ("six-state", 1): "0.11235715979439765287684986050829209218646670441452",
    ("six-state", 2): "0.056027580555010333233989879929890450915232936202486",
    ("six-state", 3): "0.023701119015364183153038073827517830695824496840109",
    ("six-state", 4): "0.0078830640835714786285384790539238739966711312149393",
    ("bb84", 1): "0.11002786443835955126181170433498946017711490509189",
    ("six-state-original", 1):
        "0.12619308327682117506826312891018282811131077456203",
}


def two_rule_secrecy(protocol: str, nu: int, e_bit: float) -> float:
    """A rated key's float secrecy term by its two rules written out apart:
    1 - (H(worst_bell_vector) - h(e_bit)) for a key with a Bell vertex table,
    else 1 - h(min(e_ph, 0.5)), e_ph the PIECES row's phase_bound."""
    if (protocol, nu) in keyrate.BELL_VERTICES:
        return 1.0 - (keyrate.worst_bell_vector(protocol, nu, e_bit)[1]
                      - keyrate.binary_entropy(e_bit))
    e_ph = keyrate.phase_bound(protocol, nu, e_bit)
    return 1.0 - keyrate.binary_entropy(min(e_ph, 0.5))


def four_state_decoy_terms(d: keyrate.DecoyInputs) -> tuple:
    """The four-state decoy terms written out by hand: -p_conc*h(e_bit),
    xi1*(1 - Hbar(Z|X at e1)) with the conditional entropy H(q) - h(e1)
    under the four-state nu=1 adversarial Bell vector q, and xi2*(1 -
    h(min(e_ph, 0.5))), e_ph the two-photon bound on g read at
    min(e2, 0.5)."""
    _, h_joint = keyrate.worst_bell_vector("four-state", 1, d.e1)
    cond1 = h_joint - keyrate.binary_entropy(d.e1)
    e_ph = keyrate.ephase_bound_two(min(d.e2, 0.5))
    return (0.0 - d.p_conc * keyrate.binary_entropy(d.e_bit),
            d.xi1 * (1.0 - cond1),
            d.xi2 * (1.0 - keyrate.binary_entropy(min(e_ph, 0.5))))


def ephase_bound_grid(e_bit: float, protocol: str, nu: int) -> float:
    """min of x*e_bit + y_star(x) over bounds.DEFAULT_X_GRID: the grid minimum
    the six-state thresholds read before the exact phase-error bound."""
    return min(x * e_bit + y for x, y in zip(
        bounds.DEFAULT_X_GRID,
        bounds.frontier_table(protocol, nu, bounds.DEFAULT_X_GRID)))


def lift_reduced(u: np.ndarray, protocol: str, nu: int) -> np.ndarray:
    """The 2 x (nu+1) attack R F^-1/2 u of a vector u on range(H_fil), with R
    and F rebuilt by a plain eigh and kernel cut, like the benchmark's
    reference_frontier.

    H_fil has repeated eigenvalues, so R is fixed only up to a rotation inside
    each eigenspace.  The eigh is therefore of the Hermitian part
    (H + H^dag)/2, the matrix every checked solve decomposes, which gives the
    library's basis; an eigh of H itself may not.
    """
    h = attack_forms.all_forms(protocol, nu)["fil"].matrix
    w, v = np.linalg.eigh(0.5 * (h + h.conj().T))
    keep = w > 1e-12 * w.max()
    return (v[:, keep] / np.sqrt(w[keep]) @ u).reshape(2, nu + 1)


def units(raw: np.ndarray) -> np.ndarray:
    """Map raw 64-bit words to float64 uniforms on [0, 1)."""
    return (raw >> np.uint64(11)) * 2.0 ** -53


def photon_width(cfg: simulate.SimConfig) -> int:
    """Photon-stream words per sifted trial: 3 + 3k slots (k per-photon slots,
    nu or MAX_PHOTONS) rounded up to whole 4-word Philox blocks."""
    k = simulate.MAX_PHOTONS if cfg.nu is None else cfg.nu
    return 4 * math.ceil((3 + 3 * k) / 4)


def sift_units(cfg: simulate.SimConfig, start: int, stop: int) -> np.ndarray:
    """Uniforms of the sift words of trials [start, stop), one row each:
    Alice bit, Alice rotation, Bob rotation, Bob basis."""
    raw = simulate._raw_words(cfg.seed, 0, 4 * start, 4 * (stop - start))
    return units(raw).reshape(-1, 4)


def matched(sift: np.ndarray, n_rot: int) -> np.ndarray:
    """Whether Alice's and Bob's rotations agree, per row of sift uniforms."""
    rot = (sift[:, 1:3] * n_rot).astype(np.int64)
    return rot[:, 0] == rot[:, 1]


def photon_rows(cfg: simulate.SimConfig, sift: np.ndarray,
                photon: np.ndarray, flag_table: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Photons sent, detected, conclusive and error flags of sifted trials,
    from their sift uniforms and their photon uniforms (rows of W)."""
    k = simulate.MAX_PHOTONS if cfg.nu is None else cfg.nu
    j = (sift[:, 0] * 2).astype(np.int64)
    jp = (sift[:, 3] * 2).astype(np.int64)
    intact = photon[:, 0] >= 4.0 * cfg.p / 3.0
    coin = photon[:, 1] < 0.5
    if cfg.nu is None:
        n = np.searchsorted(simulate._photon_cdf(None, cfg.mu), photon[:, 2],
                            side="right")
    else:
        n = np.full(len(photon), cfg.nu, dtype=np.int64)
    arrive, outcome, cos = (photon[:, 3 + i * k:3 + (i + 1) * k]
                            for i in range(3))
    arrived = (np.arange(k) < n[:, None]) & (arrive < cfg.eta)
    p_flag = np.where(intact[:, None], flag_table[jp, j][:, None],
                      0.5 * (1.0 + (2.0 * cos - 1.0)))
    flags = arrived & (outcome < p_flag)

    m = arrived.sum(axis=1)
    n_flag = flags.sum(axis=1)
    detected = m > 0
    all_flag = detected & (n_flag == m)
    mixed_pattern = detected & (n_flag > 0) & (n_flag < m)
    conclusive = all_flag | (mixed_pattern & coin)
    return n, detected, conclusive, conclusive & (jp == j)


def sifted_trials(cfg: simulate.SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Sift and photon uniforms of the sifted trials of a whole run, in trial
    order.  The sifted trial of rank i in unit u reads photon row
    SIFT_UNIT*u + i of the photon stream, which is read once from its start."""
    sift = sift_units(cfg, 0, cfg.trials)
    sifted = matched(sift, len(qmath.constants(cfg.protocol)))
    trial = np.arange(cfg.trials)
    unit = trial - trial % simulate.SIFT_UNIT
    before = np.cumsum(sifted) - sifted  # sifted trials before each trial
    rows = (unit + before - before[unit])[sifted]
    width = photon_width(cfg)
    count = width * (int(rows.max()) + 1 if rows.size else 0)
    photon = units(simulate._raw_words(cfg.seed, 1, 0, count))
    return sift[sifted], photon.reshape(-1, width)[rows]


def monte_carlo_stats(cfg: simulate.SimConfig) -> simulate.SimStats:
    """run_monte_carlo as one float formulation over a whole run, unsharded."""
    n, *masks = photon_rows(cfg, *sifted_trials(cfg),
                            simulate._conclusive_flag_prob())
    tallies = np.zeros((simulate.MAX_PHOTONS + 1, 4), dtype=np.int64)
    for column, mask in enumerate([np.ones(len(n), dtype=bool)] + masks):
        np.add.at(tallies[:, column], n[mask], 1)
    return simulate._stats(cfg, tallies)


@dataclass(frozen=True)
class TrialRecord:
    """Complete replay of one trial from its words of the random streams."""

    index: int
    alice_bit: int
    alice_rotation: int
    bob_rotation: int
    bob_basis: int
    sifted: bool
    photons_sent: int | None  # None when unsifted: no photon words are read
    photons_arrived: int
    pulse_intact: bool | None
    outcomes: tuple[int, ...]  # conclusive-side flag per arrived photon
    used_squash_coin: bool
    conclusive: bool
    inferred_bit: int | None
    error: bool

    def __post_init__(self):
        if self.conclusive and self.inferred_bit is None:
            raise ValueError("conclusive trial must carry an inferred bit")
        if self.error and not self.conclusive:
            raise ValueError("errors are defined only on conclusive trials")


def replay_trial(cfg: simulate.SimConfig, index: int) -> TrialRecord:
    """Reconstruct one trial in full from the sift words of its unit up to
    itself and, when it sifts, its own photon words.  An unsifted trial reads
    no photon words: its photon fields are None, () and False."""
    if not 0 <= index < cfg.trials:
        raise ValueError("trial index out of range")
    n_rot = len(qmath.constants(cfg.protocol))
    flag_table = simulate._conclusive_flag_prob()
    unit = index - index % simulate.SIFT_UNIT
    sift = sift_units(cfg, unit, index + 1)
    kept = matched(sift, n_rot)
    u = sift[-1]
    j, jp = int(u[0] * 2), int(u[3] * 2)
    record = dict(index=index, alice_bit=j, alice_rotation=int(u[1] * n_rot),
                  bob_rotation=int(u[2] * n_rot), bob_basis=jp,
                  sifted=bool(kept[-1]))
    if not kept[-1]:
        return TrialRecord(**record, photons_sent=None, photons_arrived=0,
                           pulse_intact=None, outcomes=(),
                           used_squash_coin=False, conclusive=False,
                           inferred_bit=None, error=False)
    width = photon_width(cfg)
    row = unit + int(kept[:-1].sum())
    v = units(simulate._raw_words(cfg.seed, 1, width * row, width))
    k = simulate.MAX_PHOTONS if cfg.nu is None else cfg.nu
    intact = v[0] >= 4.0 * cfg.p / 3.0
    coin = v[1] < 0.5
    if cfg.nu is not None:
        n = cfg.nu
    else:
        n = int(np.searchsorted(simulate._photon_cdf(None, cfg.mu), v[2],
                                side="right"))

    outcomes = []
    for i in range(n):
        if v[3 + i] >= cfg.eta:
            continue
        if intact:
            p_flag = flag_table[jp, j]
        else:
            p_flag = 0.5 * (1.0 + (2.0 * v[3 + 2 * k + i] - 1.0))
        outcomes.append(int(v[3 + k + i] < p_flag))

    m = len(outcomes)
    n_flag = sum(outcomes)
    mixed_pattern = m > 0 and 0 < n_flag < m
    conclusive = (m > 0 and n_flag == m) or (mixed_pattern and coin)
    inferred = 1 - jp if conclusive else None
    return TrialRecord(
        **record,
        photons_sent=n,
        photons_arrived=m,
        pulse_intact=bool(intact),
        outcomes=tuple(outcomes),
        used_squash_coin=mixed_pattern,
        conclusive=conclusive,
        inferred_bit=inferred,
        error=conclusive and inferred != j,
    )


def enumerated_channel_stats(protocol: str, nu: int, p: float,
                             eta: float) -> simulate.ExactStats:
    """exact_channel_stats at a fixed photon number by full enumeration.

    Averages over matched sift rotations and enumerates channel branches,
    arrival patterns, per-photon measurement outcomes, and squash coins,
    computing every outcome probability from density matrices.
    """
    if not 0.0 <= p <= 0.75:
        raise ValueError("depolarizing rate must be in [0, 0.75]")
    if not 0.0 < eta <= 1.0:
        raise ValueError("transmittance must be in (0, 1]")

    rotations = qmath.constants(protocol)
    mixed_dm = 0.5 * qmath.I2
    p_conclusive = 0.0
    p_error = 0.0
    for rot in rotations:  # matched sift round: Bob applies the inverse
        undo = qmath.dagger(rot)
        for j in (0, 1):
            sent = rot @ qmath.signal_ket(j)
            intact_dm = qmath.proj(undo @ sent)
            for jp in (0, 1):
                measure = qmath.proj(qmath.signal_perp_ket(jp))
                weight = 1.0 / (len(rotations) * 4)
                for branch_prob, dm in (
                    (1.0 - 4.0 * p / 3.0, intact_dm),
                    (4.0 * p / 3.0, mixed_dm),
                ):
                    q = float(np.trace(measure @ dm).real)
                    if q < 1e-14:
                        q = 0.0  # orthogonal outcome up to roundoff
                    for m in range(nu + 1):  # photons arriving
                        arrive = math.comb(nu, m) * eta ** m * (1 - eta) ** (nu - m)
                        if m == 0:
                            continue  # vacuum: no detection
                        for k in range(m + 1):  # conclusive-side outcomes
                            pattern = (
                                math.comb(m, k) * q ** k * (1.0 - q) ** (m - k)
                            )
                            if k == m:
                                conclusive = 1.0
                            elif k == 0:
                                conclusive = 0.0
                            else:
                                conclusive = 0.5  # fair-coin squash
                            contrib = weight * branch_prob * arrive * pattern
                            p_conclusive += contrib * conclusive
                            if jp == j:
                                p_error += contrib * conclusive
    e_bit = p_error / p_conclusive if p_conclusive else 0.0
    return simulate.ExactStats(
        protocol=protocol, nu=nu, p=p, eta=eta,
        conclusive_prob=p_conclusive, e_bit=e_bit,
    )


def payload_lines(report: str) -> list[str]:
    """The byte-stable part of a CSV report (everything but comment lines)."""
    return [ln for ln in report.splitlines() if not ln.startswith("#")]


def fresh_caches(monkeypatch) -> None:
    """Replace every cache past the forms (``attack_forms.all_forms``,
    ``bounds._range_map``, ``bounds.pencil_blocks`` and
    ``bounds.correlation_psd_check``) with an empty one that ends with the
    test, so that a patched form or pencil reaches every layer above it and
    no value computed from it outlives the test."""
    for module, name in ((attack_forms, "all_forms"), (bounds, "_range_map"),
                         (bounds, "pencil_blocks"),
                         (bounds, "correlation_psd_check")):
        cached = getattr(module, name).__wrapped__
        monkeypatch.setattr(module, name, lru_cache(maxsize=None)(cached))
