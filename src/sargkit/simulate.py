"""Monte Carlo protocol sessions over a lossy depolarizing channel.

Channel model per pulse of nu photons in state rho^(x)nu, nu drawn from the
run's photon-number law (slot 6, read on every run), with statistics that
`exact_channel_stats` gives in closed form to check every run by:

* with probability 1 - 4p/3 the pulse is intact, otherwise every photon is
  replaced by an independent uniformly random pure polarization (an exact
  purification of the fully mixed product state);
* each photon then independently reaches Bob with probability eta;
* Bob undoes his rotation and measures every arrived photon in the basis
  {|phi_j'>, |phibar_j'>}; all-phibar patterns are conclusive, all-phi
  patterns inconclusive, and mixed patterns are resolved by a fair coin
  (the squash rule); vacuum gives no detection.

Randomness is counter-based: trial a consumes exactly the 32 raw 64-bit
words at stream offset 32*a of a Philox generator keyed by the master seed,
so every trial is replayable in isolation and aggregate statistics are
independent of how the trial range is sharded and of how many threads run
the shards.

Each raw word w stands for the uniform deviate u = (w >> 11)·2⁻⁵³.  The shard
kernel never forms u: it tests u < t as the exact integer comparison
(w >> 11) < ceil(t·2⁵³), so its tallies equal those of the float formulation
(which the test oracles keep, per shard and per trial) bit for bit.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import qmath

SLOTS = 32
MAX_PHOTONS = 6
MAX_MU = 1.0  # photon counts above MAX_PHOTONS then carry < 1e-4 of the law

# Slot layout (uniform deviates unless noted): 0 Alice bit, 1 Alice rotation,
# 2 Bob rotation, 3 Bob basis, 4 depolarizing branch, 5 squash coin,
# 6 photon count (read on every run), 7-12 per-photon arrival, 13-18 per-photon
# outcome, 19-24 per-photon cos(theta), 25-30 per-photon azimuth, 31 spare.
_SLOT_BIT = 0
_SLOT_ROT_A = 1
_SLOT_ROT_B = 2
_SLOT_BASIS = 3
_SLOT_BRANCH = 4
_SLOT_COIN = 5
_SLOT_COUNT = 6
_SLOT_ARRIVE = 7
_SLOT_OUTCOME = 13
_SLOT_COS = 19


def _is_int(value) -> bool:
    """A Python int that is not a bool (YAML reads `true` as True == 1)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A Python int or float that is not a bool (YAML reads `1e-3` as a
    string and `true` as True == 1)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_channel(protocol, nu, mu, p, eta) -> None:
    """Raise ValueError unless the arguments describe a run of the channel."""
    if protocol not in qmath.PROTOCOLS:
        raise ValueError("unknown protocol %r" % (protocol,))
    for name, value in (("mu", mu), ("p", p), ("eta", eta)):
        if not (_is_real(value) or (name == "mu" and value is None)):
            raise ValueError("%s must be a number, got %r" % (name, value))
    if (nu is None) == (mu is None):
        raise ValueError("exactly one of nu and mu must be set")
    if nu is not None and not (_is_int(nu) and nu >= 1):
        raise ValueError("fixed photon number must be a positive integer")
    if mu is not None and not 0.0 < mu <= MAX_MU:
        raise ValueError("coherent intensity must be in (0, %g]" % MAX_MU)
    if not 0.0 <= p <= 0.75:
        raise ValueError("depolarizing rate must be in [0, 0.75]")
    if not 0.0 < eta <= 1.0:
        raise ValueError("transmittance must be in (0, 1]")


@dataclass(frozen=True)
class SimConfig:
    """Session parameters for the Monte Carlo engine.

    Exactly one of nu (fixed photon number, 1..4, within the MAX_PHOTONS
    per-photon slots) and mu (coherent intensity in (0, MAX_MU]) must be
    given; `_photon_cdf(nu, mu)` is the photon-number law of the run.
    """

    protocol: str
    trials: int
    seed: int
    p: float = 0.0
    eta: float = 1.0
    nu: int | None = None
    mu: float | None = None

    def __post_init__(self):
        if self.nu is not None and not (_is_int(self.nu) and 1 <= self.nu <= 4):
            raise ValueError("fixed photon number must be an integer in 1..4")
        _check_channel(self.protocol, self.nu, self.mu, self.p, self.eta)
        if not (_is_int(self.trials) and self.trials >= 1):
            raise ValueError("trials must be a positive integer")
        if not (_is_int(self.seed) and 0 <= self.seed < 2 ** 64):
            raise ValueError("seed must be an integer in [0, 2^64)")


@dataclass(frozen=True)
class PerNuStats:
    """Sifted-trial tallies for one photon number of a coherent-source run."""

    nu: int
    sifted: int
    conclusive: int
    errors: int


@dataclass(frozen=True)
class SimStats:
    """Aggregated session statistics with binomial standard errors."""

    config: SimConfig
    sifted: int
    detected: int
    conclusive: int
    errors: int
    conclusive_fraction: float
    conclusive_se: float
    e_bit: float
    e_bit_se: float
    per_nu: tuple[PerNuStats, ...] | None = None

    def __post_init__(self):
        for name in ("conclusive_fraction", "e_bit"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError("%s must be in [0, 1]" % (name,))


@dataclass(frozen=True)
class ExactStats:
    """Exact channel-law statistics of the run (protocol, nu, mu, p, eta)."""

    protocol: str
    nu: int | None
    p: float
    eta: float
    conclusive_prob: float
    e_bit: float
    mu: float | None = None


@dataclass(frozen=True)
class CompareResult:
    """z-scores of a Monte Carlo run against its exact statistics.

    A z-score is None when its statistic has no samples (no sifted trial for
    z_conclusive, no conclusive trial for z_ebit); passed is then None too,
    unless the other z-score already fails.  It is also None, with passed
    False, when the exact law makes the outcome certain and the run
    contradicts it, so that the deviation is infinite.
    """

    z_conclusive: float | None
    z_ebit: float | None
    passed: bool | None


def _raw_block(seed: int, start: int, count: int) -> np.ndarray:
    """Raw uint64 slots for trials [start, start+count), shape (count, SLOTS)."""
    bg = np.random.Philox(key=np.uint64(seed))
    if start:
        bg.advance(start * (SLOTS // 4))  # advance unit = 4 raw words
    raw = bg.random_raw(count * SLOTS)
    return raw.reshape(count, SLOTS)


def _photon_cdf(nu: int | None, mu: float | None) -> np.ndarray:
    """CDF of the photon-number law: the point mass at a fixed nu, or the
    Poisson law of intensity mu truncated at MAX_PHOTONS and renormalized.

    The last entry is exactly 1, so every uniform u < 1 maps to at most
    len - 1 photons.
    """
    if nu is not None:
        return np.array([0.0] * nu + [1.0])
    pmf = np.array(
        [math.exp(-mu) * mu ** n / math.factorial(n) for n in range(MAX_PHOTONS + 1)]
    )
    pmf /= pmf.sum()
    cdf = np.cumsum(pmf)
    cdf[-1] = 1.0
    return cdf


def _conclusive_flag_prob() -> np.ndarray:
    """Table P[j', j] = |<phibar_j' | phi_j>|^2 for intact arrived photons,
    exact: <phibar_j'|phi_j> = sc(1 - (-1)^(j+j')), s, c = sin, cos(pi/8)."""
    return np.array([[0.0, 0.5], [0.5, 0.0]])


def _thresholds(t) -> np.ndarray:
    """Integer thresholds c with  u < t  <=>  (w >> 11) < c  for u = (w >> 11)·2⁻⁵³.

    c = ceil(t·2⁵³) is exact (scaling by 2⁵³ and ceil are exact in float64),
    clipped to [0, 2⁵³] so that t <= 0 never and t >= 1 always holds.  The
    dtype is uint64 so that no comparison with 53-bit words is ever promoted
    to float64 (NumPy 1.x value-based casting would do so for int64).
    """
    return np.ceil(np.clip(t, 0.0, 1.0) * 2.0 ** 53).astype(np.uint64)


_SHIFT = np.uint64(11)  # raw word -> 53-bit uniform numerator
_HALF = np.uint64(52)  # 53-bit numerator -> (u >= 1/2)


def _shard_tallies(raw: np.ndarray, cfg: SimConfig, n_rot: int,
                   flag: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Tallies for one shard of raw words, shape (trials, SLOTS): rows indexed
    by photon count 0..MAX_PHOTONS, columns (sifted, detected, conclusive,
    errors).

    flag holds the thresholds of the intact-photon table and count those of
    the photon-number CDF, which slot 6 draws from on every run.  Every
    column counts sifted trials only, so unsifted trials are dropped first.
    """
    # Rotation indices keep the float product, which rounds before the floor.
    rot = ((raw[:, _SLOT_ROT_A:_SLOT_ROT_B + 1] >> _SHIFT) * 2.0 ** -53
           * n_rot).astype(np.int64)
    w = raw[rot[:, 0] == rot[:, 1]] >> _SHIFT

    j = (w[:, _SLOT_BIT] >> _HALF).astype(np.intp)
    jp = (w[:, _SLOT_BASIS] >> _HALF).astype(np.intp)
    intact = w[:, _SLOT_BRANCH] >= _thresholds(4.0 * cfg.p / 3.0)
    coin = (w[:, _SLOT_COIN] >> _HALF) == 0

    n = np.searchsorted(count, w[:, _SLOT_COUNT], side="right")
    # k <= MAX_PHOTONS, the per-photon slots: SimConfig caps a fixed nu at 4.
    k = len(count) - 1
    arrived = (np.arange(k) < n[:, None]) & (
        w[:, _SLOT_ARRIVE:_SLOT_ARRIVE + k] < _thresholds(cfg.eta)
    )
    # A depolarized photon is flagged with probability 0.5·(1 + cos θ), which
    # for cos θ = 2v − 1 is exactly v: compare the outcome word with v's word.
    p_flag = np.where(
        intact[:, None], flag[jp, j][:, None], w[:, _SLOT_COS:_SLOT_COS + k]
    )
    flags = arrived & (w[:, _SLOT_OUTCOME:_SLOT_OUTCOME + k] < p_flag)

    m = arrived.sum(axis=1)
    n_flag = flags.sum(axis=1)
    detected = m > 0
    all_flag = detected & (n_flag == m)
    mixed_pattern = detected & (n_flag > 0) & (n_flag < m)
    conclusive = all_flag | (mixed_pattern & coin)
    error = conclusive & (jp == j)

    rows = MAX_PHOTONS + 1
    return np.stack(
        [np.bincount(n, minlength=rows)]
        + [np.bincount(n[mask], minlength=rows)
           for mask in (detected, conclusive, error)],
        axis=1,
    )


def _pool_size(shards: int) -> int:
    """Worker threads for a run of `shards` shards: one per usable CPU, at
    most one per shard."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, shards))


def _binomial_se(successes: int, n: int) -> float:
    if n == 0:
        return 0.0
    f = successes / n
    return math.sqrt(f * (1.0 - f) / n)


def run_monte_carlo(cfg: SimConfig, shard_size: int = 1 << 13) -> SimStats:
    """Simulate cfg.trials sessions and aggregate sifted-trial statistics.

    Shards of shard_size trials run on a small thread pool (Philox and the
    NumPy kernels release the GIL).  Results are bit-identical for any shard
    size and thread count because each trial reads a fixed slice of the
    counter-based stream and each shard builds its own generator.
    """
    n_rot = qmath.constants(cfg.protocol).n_rotations
    flag = _thresholds(_conclusive_flag_prob())
    count = _thresholds(_photon_cdf(cfg.nu, cfg.mu))

    def shard(start: int) -> np.ndarray:
        raw = _raw_block(cfg.seed, start, min(shard_size, cfg.trials - start))
        return _shard_tallies(raw, cfg, n_rot, flag, count)

    starts = range(0, cfg.trials, shard_size)
    tallies = np.zeros((MAX_PHOTONS + 1, 4), dtype=np.int64)
    from concurrent.futures import ThreadPoolExecutor  # kept off the CLI import

    with ThreadPoolExecutor(_pool_size(len(starts))) as pool:
        tallies = sum(pool.map(shard, starts), tallies)
    return _stats(cfg, tallies)


def _stats(cfg: SimConfig, tallies: np.ndarray) -> SimStats:
    """SimStats from the (photon count, column) tally table of a run."""
    sifted, detected, conclusive, errors = (int(v) for v in tallies.sum(axis=0))
    frac = conclusive / sifted if sifted else 0.0
    ebit = errors / conclusive if conclusive else 0.0
    per_nu = None
    if cfg.mu is not None:
        per_nu = tuple(
            PerNuStats(nu=n, sifted=int(row[0]), conclusive=int(row[2]),
                       errors=int(row[3]))
            for n, row in enumerate(tallies)
        )
    return SimStats(
        config=cfg,
        sifted=sifted,
        detected=detected,
        conclusive=conclusive,
        errors=errors,
        conclusive_fraction=frac,
        conclusive_se=_binomial_se(conclusive, sifted),
        e_bit=ebit,
        e_bit_se=_binomial_se(errors, conclusive),
        per_nu=per_nu,
    )


def exact_channel_stats(protocol: str, nu: int | None, p: float, eta: float,
                        mu: float | None = None) -> ExactStats:
    """Exact conclusive probability and error rate of the channel law.

    Every arrived photon is flagged with probability 1/2, except in an intact
    pulse measured in the basis of Alice's bit (the error case), where none
    is.  The squash rule makes any m >= 1 such photons conclusive with
    probability 2^-m + (1 - 2^(1-m))/2 = 1/2, so for either protocol
    P_conc = sum_{n>=1} P(n)(1 - (1 - eta)^n)(1/4 + p/3) over the law P of
    `_photon_cdf(nu, mu)` and e_bit = 4p/(3 + 4p).  At a fixed nu >= 1, P is
    the point mass, whose other terms add exact zeros.
    """
    _check_channel(protocol, nu, mu, p, eta)
    cdf = _photon_cdf(nu, mu).tolist()
    detect = sum((cdf[n] - cdf[n - 1]) * (1.0 - (1.0 - eta) ** n)
                 for n in range(1, len(cdf)))
    return ExactStats(
        protocol=protocol, nu=nu, p=p, eta=eta,
        conclusive_prob=detect * (0.25 + p / 3.0),
        e_bit=4.0 * p / (3.0 + 4.0 * p), mu=mu,
    )


def compare(sim: SimStats, exact: ExactStats) -> CompareResult:
    """z-scores of simulated conclusive fraction and error rate vs exact."""
    cfg = sim.config
    if (cfg.protocol, cfg.nu, cfg.mu, cfg.p, cfg.eta) != (
        exact.protocol, exact.nu, exact.mu, exact.p, exact.eta
    ):
        raise ValueError("simulation and exact statistics describe different runs")

    def z(observed: float, expected: float, se: float, n: int) -> float | None:
        if n == 0:
            return None
        # A run with no spread (every trial alike) takes the standard error
        # of the exact law instead.
        se = se or math.sqrt(expected * (1.0 - expected) / n)
        if se == 0.0:
            return 0.0 if observed == expected else math.inf
        return (observed - expected) / se

    zs = (z(sim.conclusive_fraction, exact.conclusive_prob, sim.conclusive_se,
            sim.sifted),
          z(sim.e_bit, exact.e_bit, sim.e_bit_se, sim.conclusive))
    if any(v is not None and abs(v) > 3.0 for v in zs):
        passed = False
    else:
        passed = None if None in zs else True
    zs = tuple(None if v is None or math.isinf(v) else v for v in zs)
    return CompareResult(z_conclusive=zs[0], z_ebit=zs[1], passed=passed)
