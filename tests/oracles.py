"""Brute-force reference implementations that the tests compare against.

Each oracle reaches its answer by a route independent of the library's exact
formula: event forms and weights on the full 2^nu-dimensional input of the
attack through tensor powers U^{(x)nu}, a frontier by bisection on the PSD
margin or by one eigen-solve per point, the `frontier` report row by row
through ``csv.DictWriter``, the two-photon optimum by scan plus golden
section, the worst single-photon entropy by a dense scan, Monte Carlo tallies
from float uniforms on one thread and one trial at a time (`replay_trial`),
the channel law by enumerating every branch, arrival pattern and outcome.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from sargkit import attack_forms, bounds, keyrate, qmath, simulate


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
    psi = qmath.pair_source_ket(nu).reshape(2, 2 ** nu)
    out = []
    for u in qmath.constants(protocol):
        a = qmath.filter_op() @ qmath.dagger(u) @ (m @ qmath.tensor_power(u, nu))
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
    psi = qmath.pair_source_ket(nu).reshape(2, 2 ** nu)
    rotations = qmath.constants(protocol)
    a = np.stack([
        np.einsum("bo,ai->aboi", qmath.filter_op() @ qmath.dagger(u),
                  psi @ qmath.tensor_power(u, nu).T).reshape(4, dim)
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


def units(raw: np.ndarray) -> np.ndarray:
    """Map raw 64-bit words to float64 uniforms on [0, 1)."""
    return (raw >> np.uint64(11)) * 2.0 ** -53


def float_shard_tallies(units: np.ndarray, cfg: simulate.SimConfig,
                        flag_table: np.ndarray, n_rot: int,
                        cdf: np.ndarray | None) -> np.ndarray:
    """Tallies for one shard of float uniforms: rows indexed by photon count
    0..max, columns (sifted, detected, conclusive, errors)."""
    j = (units[:, simulate._SLOT_BIT] * 2).astype(np.int64)
    rot_a = (units[:, simulate._SLOT_ROT_A] * n_rot).astype(np.int64)
    rot_b = (units[:, simulate._SLOT_ROT_B] * n_rot).astype(np.int64)
    jp = (units[:, simulate._SLOT_BASIS] * 2).astype(np.int64)
    intact = units[:, simulate._SLOT_BRANCH] >= 4.0 * cfg.p / 3.0
    coin = units[:, simulate._SLOT_COIN] < 0.5

    if cdf is None:
        n = np.full(len(units), cfg.nu, dtype=np.int64)
        k = cfg.nu
    else:
        n = np.searchsorted(cdf, units[:, simulate._SLOT_COUNT], side="right")
        k = simulate.MAX_PHOTONS
    idx = np.arange(k)
    arrive, outcome, cos = (simulate._SLOT_ARRIVE, simulate._SLOT_OUTCOME,
                            simulate._SLOT_COS)
    arrived = (idx < n[:, None]) & (units[:, arrive:arrive + k] < cfg.eta)
    cos_theta = 2.0 * units[:, cos:cos + k] - 1.0
    p_flag = np.where(
        intact[:, None], flag_table[jp, j][:, None], 0.5 * (1.0 + cos_theta)
    )
    flags = arrived & (units[:, outcome:outcome + k] < p_flag)

    m = arrived.sum(axis=1)
    n_flag = flags.sum(axis=1)
    detected = m > 0
    all_flag = detected & (n_flag == m)
    mixed_pattern = detected & (n_flag > 0) & (n_flag < m)
    conclusive = all_flag | (mixed_pattern & coin)
    error = conclusive & (jp == j)
    sifted = rot_a == rot_b

    tallies = np.zeros((simulate.MAX_PHOTONS + 1, 4), dtype=np.int64)
    for column, mask in enumerate((sifted, detected, conclusive, error)):
        keep = sifted & mask if column else mask
        np.add.at(tallies[:, column], n[keep], 1)
    return tallies


def monte_carlo_stats(cfg: simulate.SimConfig,
                      shard_size: int = 1 << 16) -> simulate.SimStats:
    """run_monte_carlo by the float kernel, shard after shard on one thread."""
    n_rot = len(qmath.constants(cfg.protocol))
    flag_table = simulate._conclusive_flag_prob()
    cdf = None if cfg.nu is not None else simulate._photon_cdf(None, cfg.mu)
    tallies = np.zeros((simulate.MAX_PHOTONS + 1, 4), dtype=np.int64)
    for start in range(0, cfg.trials, shard_size):
        count = min(shard_size, cfg.trials - start)
        u = units(simulate._raw_block(cfg.seed, start, count))
        tallies += float_shard_tallies(u, cfg, flag_table, n_rot, cdf)
    return simulate._stats(cfg, tallies)


@dataclass(frozen=True)
class TrialRecord:
    """Complete replay of one trial from its slice of the random stream."""

    index: int
    alice_bit: int
    alice_rotation: int
    bob_rotation: int
    bob_basis: int
    sifted: bool
    photons_sent: int
    photons_arrived: int
    pulse_intact: bool
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
    """Reconstruct one trial in full from its slice of the random stream."""
    if not 0 <= index < cfg.trials:
        raise ValueError("trial index out of range")
    n_rot = len(qmath.constants(cfg.protocol))
    flag_table = simulate._conclusive_flag_prob()
    u = units(simulate._raw_block(cfg.seed, index, 1))[0]

    j = int(u[simulate._SLOT_BIT] * 2)
    rot_a = int(u[simulate._SLOT_ROT_A] * n_rot)
    rot_b = int(u[simulate._SLOT_ROT_B] * n_rot)
    jp = int(u[simulate._SLOT_BASIS] * 2)
    intact = u[simulate._SLOT_BRANCH] >= 4.0 * cfg.p / 3.0
    coin = u[simulate._SLOT_COIN] < 0.5
    if cfg.nu is not None:
        n = cfg.nu
    else:
        n = int(np.searchsorted(simulate._photon_cdf(None, cfg.mu),
                                u[simulate._SLOT_COUNT], side="right"))

    outcomes = []
    for i in range(n):
        if u[simulate._SLOT_ARRIVE + i] >= cfg.eta:
            continue
        if intact:
            p_flag = flag_table[jp, j]
        else:
            p_flag = 0.5 * (1.0 + (2.0 * u[simulate._SLOT_COS + i] - 1.0))
        outcomes.append(int(u[simulate._SLOT_OUTCOME + i] < p_flag))

    m = len(outcomes)
    n_flag = sum(outcomes)
    mixed_pattern = m > 0 and 0 < n_flag < m
    conclusive = (m > 0 and n_flag == m) or (mixed_pattern and coin)
    inferred = 1 - jp if conclusive else None
    return TrialRecord(
        index=index,
        alice_bit=j,
        alice_rotation=rot_a,
        bob_rotation=rot_b,
        bob_basis=jp,
        sifted=rot_a == rot_b,
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
